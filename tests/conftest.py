import random

import pytest

from specgraph import MetricGraph, from_edge_list, search


def random_connected_multigraph(rng: random.Random,
                                n_min: int = 2, n_max: int = 5,
                                extra_max: int = 3,
                                with_contacts: bool = False) -> MetricGraph:
    """Random spanning tree plus extra edges (loops and parallels allowed)."""
    n = rng.randint(n_min, n_max)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, extra_max)):
        u, v = rng.randrange(n), rng.randrange(n)
        edges.append((u, v))
    contacts = sorted(rng.sample(range(n), rng.randint(1, n))) if with_contacts else []
    return from_edge_list(n, edges, contacts)


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the classification pool by a fake that maps serially, on a
    machine that reports 4 CPUs; returns the list of pool sizes asked for.
    No process is started, whatever job count a test passes."""
    sizes: list[int] = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items, chunksize=1):
            return [func(item) for item in items]

    monkeypatch.setattr(search.multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    return sizes
