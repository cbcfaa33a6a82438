"""Exhaustive enumeration of small graphs and isospectral classification.

Connected graphs are grown one vertex at a time: each class on k vertices
gains a vertex k with some loops and a non-zero column of multiplicities
to the others, and every level keeps one graph per canonical form.  Simple
graphs are the case of columns over {0, 1} and no loops.  That reaches
every class, because a connected graph has a vertex whose deletion, with
its loops, leaves it connected (a leaf of a spanning tree).  For
multigraphs with at most m edges a vertex may use only the edges left
after one for each vertex still to come.  Classification groups graphs by
exact spectral keys.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

from .discrete import ln_charpoly
from .graphs import (DiscreteGraph, GraphError, canonical_form, discrete_betti,
                     discrete_components, discrete_from_adj, metric_from_discrete)
from .secular import secular_poly

SIMPLE_BOUND = 7
MULTI_VERTEX_BOUND = 4
MULTI_EDGE_BOUND = 8


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_connected_simple(n: int) -> Iterator[DiscreteGraph]:
    """One representative per isomorphism class of connected simple graphs,
    in canonical-form order."""
    if n < 1:
        raise GraphError("need at least one vertex")
    if n > SIMPLE_BOUND:
        raise GraphError(f"enumeration bound: n <= {SIMPLE_BOUND}")
    yield from _grow(n, n * (n - 1) // 2, multi=False)


def enumerate_connected_multi(n: int, m_max: int,
                              vertex_bound: int = MULTI_VERTEX_BOUND,
                              edge_bound: int = MULTI_EDGE_BOUND,
                              ) -> Iterator[DiscreteGraph]:
    """One representative per class of connected multigraphs (loops allowed)
    on exactly n vertices with 1..m_max edges, in canonical-form order.

    The default bounds keep the vertex-growth search desk-sized; raise
    them explicitly for larger one-off runs.
    """
    if not 1 <= n <= vertex_bound:
        raise GraphError(f"enumeration bound: n <= {vertex_bound}")
    if not 1 <= m_max <= edge_bound:
        raise GraphError(f"enumeration bound: m_max <= {edge_bound}")
    yield from _grow(n, m_max, multi=True)


def _grow(n: int, m_max: int, multi: bool) -> Iterator[DiscreteGraph]:
    """Connected graphs on n vertices with at most m_max edges, grown one
    vertex at a time; without `multi`, no loops and multiplicities 0 or 1.

    Vertex k gets l loops and a non-zero column c over 0..k-1.  Each later
    vertex needs an edge, so l + sum(c) is at most m_max - e - (n - 1 - k)
    for a parent with e edges.  For n = 1 the edgeless graph is dropped
    unless `multi` is off.
    """
    top = m_max if multi else 1
    level: dict[bytes, DiscreteGraph] = {}
    for loops in range(int(n == 1), m_max - (n - 1) + 1) if multi else (0,):
        d = discrete_from_adj([[2 * loops]])
        level[canonical_form(d)] = d
    for k in range(1, n):
        nxt: dict[bytes, DiscreteGraph] = {}
        for d in level.values():
            budget = m_max - d.n_edges - (n - 1 - k)
            for col in _columns(k, top, budget):
                if not any(col):
                    continue
                for loops in range(budget - sum(col) + 1) if multi else (0,):
                    child = discrete_from_adj([row + (c,) for row, c in zip(d.adj, col)]
                                              + [col + (2 * loops,)])
                    nxt.setdefault(canonical_form(child), child)
        level = nxt
    for key in sorted(level):
        yield level[key]


def _columns(k: int, top: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Tuples of length k with entries in 0..top and sum at most budget,
    the first entry varying fastest."""
    if k == 0:
        yield ()
        return
    for last in range(min(top, budget) + 1):
        for rest in _columns(k - 1, top, budget - last):
            yield rest + (last,)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

SpectralKey = Literal["secular", "ln"]


@dataclass(frozen=True)
class IsospectralFamily:
    """Graphs sharing one exact spectral key.

    `key` is the serialized polynomial; members are canonical adjacency
    encodings with per-member Betti numbers and component counts.
    """

    key: str
    members: tuple[bytes, ...]
    betti: tuple[int, ...]
    components: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def _spectral_key(d: DiscreteGraph, key: SpectralKey) -> str:
    if key == "secular":
        return secular_poly(metric_from_discrete(d)).line()
    if key == "ln":
        cp = ln_charpoly(d)
        return "lncp: " + " ".join(str(c) for c in cp.coeffs)
    raise GraphError(f"unknown spectral key {key!r}")


def _classify_one(args: tuple[DiscreteGraph, SpectralKey]) -> tuple[str, bytes, int, int]:
    d, key = args
    return (_spectral_key(d, key), canonical_form(d),
            discrete_betti(d), discrete_components(d))


def classify(graphs: Iterable[DiscreteGraph], key: SpectralKey,
             jobs: int = 1) -> list[IsospectralFamily]:
    """Group graphs into exact isospectral families under the chosen key.

    Families are sorted by size descending, then by key; the result does
    not depend on the job count (per-graph keys are exact and the merge
    is a plain grouping).
    """
    items = [(d, key) for d in graphs]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            rows = pool.map(_classify_one, items, chunksize=8)
    else:
        rows = [_classify_one(item) for item in items]
    groups: dict[str, list[tuple[bytes, int, int]]] = {}
    for key_text, canon, bet, comp in rows:
        groups.setdefault(key_text, []).append((canon, bet, comp))
    families = []
    for key_text, members in groups.items():
        members.sort()
        families.append(IsospectralFamily(
            key=key_text,
            members=tuple(m for m, _, _ in members),
            betti=tuple(b for _, b, _ in members),
            components=tuple(c for _, _, c in members),
        ))
    families.sort(key=lambda fam: (-fam.size, fam.key))
    return families
