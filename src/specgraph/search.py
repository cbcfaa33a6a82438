"""Exhaustive enumeration of small graphs and isospectral classification.

Connected graphs are grown one vertex at a time: each class on k vertices
gains a vertex k with some loops and a non-zero column of multiplicities
to the others, and every level keeps one graph per canonical form.  Simple
graphs are the case of columns over {0, 1} and no loops.  That reaches
every class, because a connected graph has a vertex whose deletion, with
its loops, leaves it connected (a leaf of a spanning tree).  For
multigraphs with at most m edges a vertex may use only the edges left
after one for each vertex still to come.  Columns that an automorphism
of the parent maps to a smaller column are skipped, and so is a child
whose new vertex cannot be the one its class deletes: a vertex of the
largest invariant f among those whose deletion keeps the graph connected
(canonical augmentation, McKay, J. Algorithms 26, 1998; see `_grow`).
Only the children left are canonicalized.
Classification groups graphs by exact key values, never by expanded
polynomials: the `secular.SecularKey` or the `LnCharpoly` of each graph.
It formats each family's line once and reuses the canonical form each
enumerated graph already carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Literal

from . import graphs
from .discrete import ln_charpoly
from .graphs import (DiscreteGraph, GraphError, automorphism_generators, canonical_form,
                     discrete_components, discrete_from_adj)
from .secular import _discrete_key

SIMPLE_BOUND = 8
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


def enumerate_connected_multi(n: int, m_max: int) -> Iterator[DiscreteGraph]:
    """One representative per class of connected multigraphs (loops allowed)
    on exactly n vertices with 1..m_max edges, in canonical-form order.

    MULTI_VERTEX_BOUND and MULTI_EDGE_BOUND keep the vertex-growth search
    desk-sized.
    """
    if not 1 <= n <= MULTI_VERTEX_BOUND:
        raise GraphError(f"enumeration bound: need 1 <= n <= {MULTI_VERTEX_BOUND}, got {n}")
    if not 1 <= m_max <= MULTI_EDGE_BOUND:
        raise GraphError(f"enumeration bound: need 1 <= m_max <= {MULTI_EDGE_BOUND}, "
                         f"got {m_max}")
    if n > graphs.CANONICAL_BOUND:
        raise GraphError(f"enumeration bound: canonical forms need "
                         f"n <= {graphs.CANONICAL_BOUND}, got {n}")
    yield from _grow(n, m_max, multi=True)


def _grow(n: int, m_max: int, multi: bool) -> Iterator[DiscreteGraph]:
    """Connected graphs on n vertices with at most m_max edges, grown one
    vertex at a time; without `multi`, no loops and multiplicities 0 or 1.

    Vertex k gets l loops and a non-zero column c over 0..k-1.  Each later
    vertex needs an edge, so l + sum(c) is at most m_max - e - (n - 1 - k)
    for a parent with e edges.  For n = 1 the edgeless graph is dropped
    unless `multi` is off.

    Columns are pruned by the automorphisms that the parent's canonical
    search found (McKay, J. Algorithms 26, 1998): a column is skipped when
    its image under one of them is lexicographically smaller.  This loses
    no class.  An automorphism p of the parent maps the child with column
    c and l loops onto the child with column c∘p and l loops, so every
    column in an orbit of the group G the generators span gives an
    isomorphic child; and the least column of each G-orbit is never
    skipped, because each generator maps it to a column of the same
    orbit, which is no smaller.  Any subgroup of Aut(parent) will do, so
    the generators need not span all of it.

    A child is canonicalized only when its new vertex k could be the
    vertex its class deletes.  Let f(v) be the degree of v, its diagonal
    entry and the sorted degrees of its neighbours, each counted once per
    edge; an isomorphism keeps f.  The child is dropped, before a
    DiscreteGraph is built, when some other vertex v has f(v) > f(k) and
    deleting v leaves the child connected (`_may_delete_last`).  This
    loses no class either.  A class X on k + 1 vertices has a vertex m of
    the largest f among its non-cut vertices (there are at least two).
    X - m is connected.  X has at most m_max - (n - 1 - k) edges and
    X - m at least one fewer, within the bound of the previous level,
    which therefore holds a representative P of X - m.  Carried onto P,
    the loops and the column of m give a child isomorphic to X whose new
    vertex plays the part of m; if pruning skips that column, the least
    column of its orbit gives another such child, through an automorphism
    of P that fixes k.  In that child no non-cut vertex has a larger f
    than k, so it passes.  (The new vertex itself is never a cut vertex,
    since the parent is connected.)  Ties in f leave several children of
    one class, and the level dict keeps the first.  Which isomorphic
    child a level keeps can depend on the pruning and the filter; the
    forms and their order do not.
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
            perms = automorphism_generators(d)
            # columns with entries in 0..top and sum at most budget, the
            # first entry varying fastest
            for col in product(range(min(top, budget) + 1), repeat=k):
                col = col[::-1]
                if (sum(col) > budget or not any(col)
                        or any(tuple([col[i] for i in p]) < col for p in perms)):
                    continue
                for loops in range(budget - sum(col) + 1) if multi else (0,):
                    adj = [row + (c,) for row, c in zip(d.adj, col)] + [col + (2 * loops,)]
                    if _may_delete_last(adj):
                        child = discrete_from_adj(adj)
                        nxt.setdefault(canonical_form(child), child)
        level = nxt
    for key in sorted(level):
        yield level[key]


def _vertex_invariant(adj: list[tuple[int, ...]], deg: list[int], v: int) -> tuple:
    """f(v): degree, diagonal entry and the sorted degrees of v's
    neighbours, each counted once per edge; kept by every isomorphism."""
    return (deg[v], adj[v][v],
            sorted(deg[u] for u, c in enumerate(adj[v]) if u != v for _ in range(c)))


def _may_delete_last(adj: list[tuple[int, ...]]) -> bool:
    """False when a vertex other than the last has a larger f and deleting
    it leaves the graph connected (see `_grow`)."""
    k = len(adj) - 1
    deg = [sum(row) for row in adj]
    f_last = None
    for v in range(k):
        if deg[v] < deg[k]:
            continue
        if deg[v] == deg[k]:
            if f_last is None:
                f_last = _vertex_invariant(adj, deg, k)
            if _vertex_invariant(adj, deg, v) <= f_last:
                continue
        if _connected_without(adj, v):
            return False
    return True


def _connected_without(adj: list[tuple[int, ...]], v: int) -> bool:
    """Whether the graph of adj stays connected when vertex v is deleted."""
    start = 1 if v == 0 else 0
    seen = {v, start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w, c in enumerate(adj[u]):
            if c and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

SpectralKey = Literal["secular", "ln"]


@dataclass(frozen=True)
class IsospectralFamily:
    """Graphs sharing one exact spectral key.

    `key` is the serialized polynomial of the family, formatted once from
    the exact key its members were grouped by; members are canonical
    adjacency encodings with per-member Betti numbers and component counts.
    """

    key: str
    members: tuple[bytes, ...]
    betti: tuple[int, ...]
    components: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


#: each key's exact value per discrete graph, and its printed line
_SPECTRAL_KEYS = {"secular": (_discrete_key, lambda key: key.poly().line()),
                  "ln": (ln_charpoly, lambda key: key.line("lncp"))}


def classify(graphs: Iterable[DiscreteGraph], key: SpectralKey) -> list[IsospectralFamily]:
    """Group graphs into exact isospectral families under the chosen key.

    Graphs are grouped by the exact key values, `secular.SecularKey` or
    `LnCharpoly`, and each family's line is formatted once.  Members are
    sorted by canonical form; families by size descending, then by line.
    """
    if key not in _SPECTRAL_KEYS:
        raise GraphError(f"unknown spectral key {key!r}")
    exact_key, line = _SPECTRAL_KEYS[key]
    groups: dict[object, list[tuple[bytes, int, int]]] = {}
    for d in graphs:
        c = discrete_components(d)
        groups.setdefault(exact_key(d), []).append(
            (canonical_form(d), d.n_edges - d.n + c, c))
    families = []
    for value, members in groups.items():
        canon, betti, components = zip(*sorted(members))
        families.append(IsospectralFamily(line(value), canon, betti, components))
    families.sort(key=lambda fam: (-fam.size, fam.key))
    return families
