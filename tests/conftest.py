import random
import warnings

from specgraph import MetricGraph, from_edge_list

# hypothesis imports libcst, if present, to report a failing example;
# under -W error libcst's own DeprecationWarning (mypy_extensions.TypedDict)
# would turn that report into an INTERNALERROR, so import it once here
# with the warning ignored.  The test extra does not install libcst.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


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
