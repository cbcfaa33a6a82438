"""Exhaustive enumeration of small graphs and isospectral classification.

Connected simple graphs are grown one vertex at a time: each class on k
vertices gains vertex k joined to a non-empty subset of the others, and
every level keeps one graph per canonical form.  That reaches every class,
because a connected graph has a vertex whose deletion leaves it connected
(a leaf of a spanning tree).  Connected multigraphs come from a
breadth-first augmentation (add a loop, a parallel edge, or a pendant
vertex), which reaches every class because any connected multigraph loses
an edge to a connected parent; its levels are deduplicated by the same
canonical form.  Classification groups graphs by exact spectral keys.
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
    single = discrete_from_adj([[0]])
    level = {canonical_form(single): single}
    for k in range(1, n):
        nxt: dict[bytes, DiscreteGraph] = {}
        for d in level.values():
            for mask in range(1, 1 << k):
                col = [mask >> u & 1 for u in range(k)]
                child = discrete_from_adj([row + (c,) for row, c in zip(d.adj, col)]
                                          + [col + [0]])
                nxt.setdefault(canonical_form(child), child)
        level = nxt
    for key in sorted(level):
        yield level[key]


def enumerate_connected_multi(n: int, m_max: int,
                              vertex_bound: int = MULTI_VERTEX_BOUND,
                              edge_bound: int = MULTI_EDGE_BOUND,
                              ) -> Iterator[DiscreteGraph]:
    """One representative per class of connected multigraphs (loops allowed)
    on exactly n vertices with 1..m_max edges.

    The default bounds keep the breadth-first augmentation desk-sized;
    raise them explicitly for larger one-off runs.
    """
    if not 1 <= n <= vertex_bound:
        raise GraphError(f"enumeration bound: n <= {vertex_bound}")
    if not 1 <= m_max <= edge_bound:
        raise GraphError(f"enumeration bound: m_max <= {edge_bound}")
    loop = discrete_from_adj([[2]])
    level: dict[bytes, DiscreteGraph] = {canonical_form(loop): loop}
    if n >= 2:
        edge = discrete_from_adj([[0, 1], [1, 0]])
        level[canonical_form(edge)] = edge
    for m in range(1, m_max + 1):
        for key in sorted(level):
            d = level[key]
            if d.n == n:
                yield d
        if m == m_max:
            break
        nxt: dict[bytes, DiscreteGraph] = {}
        for d in level.values():
            for child in _augmentations(d, n):
                nxt.setdefault(canonical_form(child), child)
        level = nxt


def _augmentations(d: DiscreteGraph, max_vertices: int) -> Iterator[DiscreteGraph]:
    rows = [list(r) for r in d.adj]
    for u in range(d.n):
        bumped = [r[:] for r in rows]
        bumped[u][u] += 2
        yield discrete_from_adj(bumped)
        for v in range(u + 1, d.n):
            bumped = [r[:] for r in rows]
            bumped[u][v] += 1
            bumped[v][u] += 1
            yield discrete_from_adj(bumped)
    if d.n < max_vertices:
        grown = [r[:] + [0] for r in rows]
        grown.append([0] * (d.n + 1))
        for u in range(d.n):
            bumped = [r[:] for r in grown]
            bumped[u][d.n] = bumped[d.n][u] = 1
            yield discrete_from_adj(bumped)


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
