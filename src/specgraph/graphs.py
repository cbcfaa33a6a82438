"""Metric multigraphs with contact vertices and their discrete shadows.

A metric graph is a set of intervals (edges) glued at vertices, stored as
its edge list: edge i has a length and the two vertices at its ends.
Edge i owns the endpoint ids 2i and 2i+1, and a vertex's endpoint ids are
derived from the edge list.  Loops and parallel edges are allowed.  A
subset of vertices may be flagged as the ordered contact set, which is
where boundary data (M-functions, Steklov eigenvalues) lives.

All types are immutable values and all operations are pure: surgery
returns a new graph and never edits its input.  Every graph is valid by
construction: the MetricGraph and DiscreteGraph constructors check their
invariants and raise GraphError, so surgery results need no separate
check.  `from_edge_list` is the converting builder: it takes a vertex
count and converts each length with Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Raised for structurally invalid graph operations."""


class GraphFormatError(GraphError):
    """Raised by the text-format parser, with a line number in the message."""


RationalLike = Fraction | int | str


@dataclass(frozen=True)
class MetricGraph:
    """Edges with rational lengths and their end vertices, and contacts.

    lengths[i] is the length of edge i and ends[i] = (u, v) the vertices
    at its first and second end (u == v for a loop); the vertices are
    0..n_vertices-1, and n_vertices is derived from ends.  contacts is an
    ordered tuple of vertex indices.

    The constructor raises GraphError unless lengths, ends, every end pair
    and contacts are tuples, there is one end pair per length, every
    vertex index is an int (not a bool) and not negative, every vertex
    0..n_vertices-1 meets an edge, every length is a positive Fraction,
    and the contacts are distinct int vertex indices.  Every graph,
    surgery results included, is therefore valid and hashable.
    """

    lengths: tuple[Fraction, ...]
    ends: tuple[tuple[int, int], ...]
    contacts: tuple[int, ...] = ()
    n_vertices: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # whole-tuple passes, and messages formatted only on failure: every
        # parsed file and surgery step pays for this check
        lengths, ends, contacts = self.lengths, self.ends, self.contacts
        # hash and the exact keys need tuples; a list fails only later
        if not all(type(x) is tuple for x in (lengths, ends, contacts, *ends)):
            raise GraphError("lengths, ends, every end pair and contacts must be tuples")
        if len(ends) != len(lengths) or any(len(e) != 2 for e in ends):
            raise GraphError(f"need one (u, v) end pair per length, got {len(ends)} "
                             f"ends for {len(lengths)} lengths")
        flat = list(chain.from_iterable(ends))
        if not all(type(x) is int for x in flat):
            u, v = next(e for e in ends if type(e[0]) is not int or type(e[1]) is not int)
            raise GraphError(f"edge ({u!r}, {v!r}) has a vertex index that is not an integer")
        met = set(flat)
        if met and min(met) < 0:
            u, v = next(e for e in ends if min(e) < 0)
            raise GraphError(f"edge ({u}, {v}) has a negative vertex index")
        n = 1 + max(met, default=-1)
        if len(met) != n:
            raise GraphError("every vertex must meet at least one edge endpoint")
        if not all(type(l) is Fraction and l.numerator > 0 for l in lengths):
            l = next(l for l in lengths if type(l) is not Fraction or l.numerator <= 0)
            raise GraphError(f"nonpositive length {l}" if type(l) is Fraction
                             else f"length {l!r} is not a Fraction")
        if contacts:
            if not all(type(c) is int for c in contacts):
                c = next(c for c in contacts if type(c) is not int)
                raise GraphError(f"contact {c!r} is not an integer vertex index")
            if min(contacts) < 0 or max(contacts) >= n:
                c = next(c for c in contacts if not 0 <= c < n)
                raise GraphError(f"contact {c} references unknown vertex")
            if len(set(contacts)) != len(contacts):
                raise GraphError("repeated contact")
        object.__setattr__(self, "n_vertices", n)

    @property
    def n_edges(self) -> int:
        return len(self.lengths)

    @cached_property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's endpoint ids in ascending order: edge i contributes
        2i at ends[i][0] and 2i+1 at ends[i][1]."""
        classes: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for i, (u, v) in enumerate(self.ends):
            classes[u].append(2 * i)
            classes[v].append(2 * i + 1)
        return tuple(map(tuple, classes))

    def degree(self, v: int) -> int:
        return len(self.vertices[v])

    @property
    def is_unilateral(self) -> bool:
        return all(l == 1 for l in self.lengths)

    @property
    def total_length(self) -> Fraction:
        return sum(self.lengths, Fraction(0))

    def edge_list(self) -> list[tuple[int, int, Fraction]]:
        """Edges as (vertex, vertex, length) triples."""
        return [(u, v, l) for (u, v), l in zip(self.ends, self.lengths)]


def from_edge_list(n_vertices: int,
                   edges: Iterable[tuple[int, int] | tuple[int, int, RationalLike]],
                   contacts: Sequence[int] = ()) -> MetricGraph:
    """Build a MetricGraph on the vertices 0..n_vertices-1 from
    vertex-labelled edges, converting each length with Fraction (default 1).

    Raises GraphError for an edge at a vertex outside that range and for a
    vertex of the range on no edge; the constructor checks the rest.
    """
    ends: list[tuple[int, int]] = []
    lengths: list[Fraction] = []
    for edge in edges:
        u, v = edge[0], edge[1]
        if u not in range(n_vertices) or v not in range(n_vertices):
            raise GraphError(f"edge ({u}, {v}) references unknown vertex")
        ends.append((u, v))
        lengths.append(Fraction(edge[2]) if len(edge) > 2 else Fraction(1))
    g = MetricGraph(tuple(lengths), tuple(ends), tuple(contacts))
    if g.n_vertices != n_vertices:
        raise GraphError("every vertex must meet at least one edge endpoint")
    return g


def _count_components(n: int, links: Iterable[tuple[int, int]]) -> int:
    """Connected components of n vertices joined by links (union-find)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in links:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)})


def components(g: MetricGraph) -> int:
    """Number of connected components."""
    return _count_components(g.n_vertices, g.ends)


def betti(g: MetricGraph) -> int:
    """First Betti number: edges - vertices + components."""
    return g.n_edges - g.n_vertices + components(g)


# ---------------------------------------------------------------------------
# surgery
# ---------------------------------------------------------------------------

def chop_vertex(g: MetricGraph, v: int, parts: Sequence[Iterable[int]]) -> MetricGraph:
    """Split vertex v into one new vertex per part of its endpoint ids.

    The parts must partition exactly the endpoints at v into at least two
    nonempty sets.  The first part occupies v's slot in the vertex order,
    the rest are appended; v's contact status is dropped.
    """
    if not 0 <= v < g.n_vertices:
        raise GraphError("vertex index out of range")
    part_tuples = [tuple(p) for p in parts]
    flat = [e for p in part_tuples for e in p]
    if (len(part_tuples) < 2 or any(not p for p in part_tuples)
            or len(flat) != len(set(flat)) or set(flat) != set(g.vertices[v])):
        raise GraphError("not a partition of vertex endpoints")
    vertex_at = [x for e in g.ends for x in e]  # indexed by endpoint id
    for k, part in enumerate(part_tuples[1:]):
        for p in part:
            vertex_at[p] = g.n_vertices + k
    ends = tuple(zip(vertex_at[::2], vertex_at[1::2]))
    return MetricGraph(g.lengths, ends, tuple(c for c in g.contacts if c != v))


def _merge(g: MetricGraph, groups: Iterable[Iterable[int]],
           contacts: Iterable[int]) -> MetricGraph:
    """g with each of the disjoint groups of vertices merged into its
    smallest member.

    The vertices left keep their order; contacts are relabelled and only
    the first occurrence of a vertex is kept.
    """
    target = list(range(g.n_vertices))
    for group in groups:
        keep = min(group)
        for v in group:
            target[v] = keep
    kept = [v for v, t in enumerate(target) if t == v]
    index = {v: i for i, v in enumerate(kept)}
    label = [index[t] for t in target]
    ends = tuple((label[u], label[v]) for u, v in g.ends)
    return MetricGraph(g.lengths, ends, tuple(dict.fromkeys(label[c] for c in contacts)))


def merge_vertices(g: MetricGraph, group: Sequence[int]) -> MetricGraph:
    """Merge the given vertices into one, placed at the smallest index.

    The merged vertex is a contact iff any member of the group was one;
    other contacts keep their order.
    """
    group_set = set(group)
    if len(group_set) < 2:
        raise GraphError("need at least two distinct vertices to merge")
    if any(not 0 <= v < g.n_vertices for v in group_set):
        raise GraphError("vertex index out of range")
    return _merge(g, [group_set], g.contacts)


def disjoint_union(g1: MetricGraph, g2: MetricGraph) -> MetricGraph:
    """Side-by-side union; contacts of g1 first, then g2's (shifted)."""
    shift = g1.n_vertices
    ends = g1.ends + tuple((u + shift, v + shift) for u, v in g2.ends)
    contacts = g1.contacts + tuple(c + shift for c in g2.contacts)
    return MetricGraph(g1.lengths + g2.lengths, ends, contacts)


def glue(g1: MetricGraph, g2: MetricGraph,
         pairing: Sequence[tuple[int, int]]) -> MetricGraph:
    """Disjoint union with paired contacts merged into single vertices.

    Pairing entries are (position in g1.contacts, position in g2.contacts)
    and must be injective on both sides.  Contacts of the result are the
    merged vertices in pairing order, then unpaired g1 contacts, then
    unpaired g2 contacts.
    """
    left = [p for p, _ in pairing]
    right = [q for _, q in pairing]
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        raise GraphError("repeated contact in pairing")
    if any(not 0 <= p < len(g1.contacts) for p in left):
        raise GraphError("pairing refers to missing contact of first graph")
    if any(not 0 <= q < len(g2.contacts) for q in right):
        raise GraphError("pairing refers to missing contact of second graph")
    union = disjoint_union(g1, g2)
    pairs = [(g1.contacts[p], g2.contacts[q] + g1.n_vertices) for p, q in pairing]
    return _merge(union, pairs, [v for v, _ in pairs] + list(union.contacts))


def _cut(g: MetricGraph, cuts: Iterable[tuple[int, Sequence[Fraction]]]) -> MetricGraph:
    """g with edge e cut at each ascending offset in ts, for each (e, ts).

    The offsets lie strictly inside the edge, measured from its first end.
    The first piece keeps index e and the later pieces are appended; the
    new non-contact vertices are appended in the order of the cuts.
    """
    lengths, ends = list(g.lengths), list(g.ends)
    n = g.n_vertices
    for e, ts in cuts:
        (u, v), length = ends[e], lengths[e]
        points = [u, *range(n, n + len(ts)), v]
        pieces = [b - a for a, b in zip([0, *ts], [*ts, length])]
        ends[e], lengths[e] = (u, points[1]), pieces[0]
        ends += zip(points[1:-1], points[2:])
        lengths += pieces[1:]
        n += len(ts)
    return MetricGraph(tuple(lengths), tuple(ends), g.contacts)


def subdivide_edge(g: MetricGraph, e: int, t: RationalLike) -> MetricGraph:
    """Split edge e at distance t from its first endpoint.

    The new degree-2 vertex is appended, non-contact; edge e keeps its
    index for the first piece and the second piece is appended.
    """
    if not 0 <= e < g.n_edges:
        raise GraphError(f"edge index {e} out of range")
    t = Fraction(t)
    if not 0 < t < g.lengths[e]:
        raise GraphError(f"subdivision point {t} outside (0, {g.lengths[e]})")
    return _cut(g, [(e, [t])])


def suppress_degree2(g: MetricGraph) -> MetricGraph:
    """Merge through every suppressible non-contact degree-2 vertex.

    A vertex is suppressible when its two endpoints belong to two distinct
    edges; a loop vertex (isolated cycle) stays.  Lengths add.
    """
    current = g
    while True:
        target = None
        for v, cls in enumerate(current.vertices):
            if len(cls) != 2 or v in current.contacts:
                continue
            if cls[0] // 2 == cls[1] // 2:
                continue  # loop at v: an isolated cycle is not suppressible
            target = v
            break
        if target is None:
            return current
        e1, e2 = (p // 2 for p in current.vertices[target])
        edges = current.edge_list()
        u1, v1, l1 = edges[e1]
        u2, v2, l2 = edges[e2]
        far1 = v1 if u1 == target else u1
        far2 = v2 if u2 == target else u2
        new_edges = [edge for i, edge in enumerate(edges) if i not in (e1, e2)]
        new_edges.append((far1, far2, l1 + l2))
        # drop the suppressed vertex, shifting higher indices down
        def shift(v: int) -> int:
            return v - (1 if v > target else 0)
        new_edges = [(shift(a), shift(b), l) for a, b, l in new_edges]
        contacts = [shift(c) for c in current.contacts]
        current = from_edge_list(current.n_vertices - 1, new_edges, contacts)


def join_points(g: MetricGraph, points: Sequence[tuple[int, RationalLike]],
                ) -> MetricGraph:
    """Subdivide at each interior point and merge the new vertices into one.

    Points are (edge index, offset from the edge's first endpoint); at
    least two distinct points are required.  The joint vertex V0 is
    non-contact.
    """
    pts = [(e, Fraction(t)) for e, t in points]
    if len(pts) < 2:
        raise GraphError("need at least two points to join")
    if len(set(pts)) != len(pts):
        raise GraphError("duplicate point")
    for e, t in pts:
        if not 0 <= e < g.n_edges:
            raise GraphError(f"edge index {e} out of range")
        if not 0 < t < g.lengths[e]:
            raise GraphError(f"offset {t} outside edge {e}")
    by_edge: dict[int, list[Fraction]] = {}
    for e, t in sorted(pts):
        by_edge.setdefault(e, []).append(t)
    cut = _cut(g, by_edge.items())
    return merge_vertices(cut, range(g.n_vertices, cut.n_vertices))


MAX_UNIT_EDGES = 10_000


def unit_subdivided(g: MetricGraph) -> MetricGraph:
    """Subdivide every integer-length edge into unit pieces.

    The result is unilateral and describes the same metric space, and is
    g itself when every edge already has length 1; raises GraphError when
    a length is not an integer, or, before building anything, when the
    result would have more than MAX_UNIT_EDGES edges.
    """
    for l in g.lengths:
        if l.denominator != 1:
            raise GraphError(f"length {l} is not an integer; cannot subdivide to unit edges")
    total = int(sum(g.lengths))
    if total > MAX_UNIT_EDGES:
        raise GraphError(f"subdivision would give {total} unit edges, "
                         f"above the budget of {MAX_UNIT_EDGES}")
    if total == g.n_edges:
        return g
    return _cut(g, [(e, [Fraction(t) for t in range(1, int(l))])
                    for e, l in enumerate(g.lengths) if l > 1])


def scale_lengths(g: MetricGraph, factor: RationalLike) -> MetricGraph:
    factor = Fraction(factor)
    if factor <= 0:
        raise GraphError("scale factor must be positive")
    return MetricGraph(tuple(l * factor for l in g.lengths), g.ends, g.contacts)


# ---------------------------------------------------------------------------
# discrete shadows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteGraph:
    """Multigraph as a symmetric nonnegative integer adjacency matrix.

    Off-diagonal entries count parallel edges; a diagonal entry is twice
    the number of loops at that vertex, so degrees are plain row sums.
    Entries must be `int`: the exact keys compute with them in integer
    arithmetic.  adj and every row must be tuples, which hash.  The
    vertex count n is derived from adj.
    """

    adj: tuple[tuple[int, ...], ...]
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # whole-tuple passes: every enumerated candidate pays for this check
        adj = self.adj
        if not all(type(x) is tuple for x in (adj, *adj)):
            raise GraphError("adjacency matrix and every row must be tuples")
        n = len(adj)
        if any(len(row) != n for row in adj):
            raise GraphError("adjacency matrix has wrong shape")
        flat = list(chain.from_iterable(adj))
        if not all(type(x) is int for x in flat):
            raise GraphError("adjacency entries must be integers")
        diagonal = flat[::n + 1]
        if min(diagonal, default=0) < 0:
            raise GraphError("negative diagonal entry")
        if any(a % 2 for a in diagonal):
            raise GraphError("odd diagonal entry (loops count twice)")
        if tuple(zip(*adj)) != adj:
            raise GraphError("adjacency matrix not symmetric")
        if min(flat, default=0) < 0:
            raise GraphError("negative multiplicity")
        object.__setattr__(self, "n", n)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.adj)

    @cached_property
    def n_edges(self) -> int:
        return sum(sum(row) for row in self.adj) // 2

    @cached_property
    def _canonical(self) -> tuple[bytes, tuple[Permutation, ...]]:
        return _canonical_search(self)


def discrete_from_adj(adj: Sequence[Sequence[int]]) -> DiscreteGraph:
    return DiscreteGraph(tuple(tuple(row) for row in adj))


#: most vertices a discrete shadow may have, checked before its matrix is
#: built; every exact key goes through to_discrete.  secular_poly at 120
#: vertices (one run each, shared 2-core x86, Python 3.11) takes 0.09 s on
#: a path, 0.8 s on a 10x12 grid and 9 s on K120, the slowest input
#: admitted, of which 0.5 s is the pencil and the rest the (z^2 - 1)^7020
#: factor; K4 with edges of length 20 (118 vertices) takes 0.3 s, and the
#: secular polynomial of a path of 301 vertices 0.9 s.  spectrum_report,
#: which reads the roots off the pencil without that factor, takes 0.8 s
#: on K120.
MAX_EXACT_VERTICES = 120


def to_discrete(g: MetricGraph) -> DiscreteGraph:
    """Forget lengths; loops contribute 2 to their diagonal entry.

    Raises GraphError, before building anything, when g has more than
    MAX_EXACT_VERTICES vertices.
    """
    n = g.n_vertices
    if n > MAX_EXACT_VERTICES:
        raise GraphError(f"graph has {n} vertices, above the bound of "
                         f"{MAX_EXACT_VERTICES} for exact keys")
    adj = [[0] * n for _ in range(n)]
    for u, v in g.ends:
        adj[u][v] += 1
        adj[v][u] += 1
    return discrete_from_adj(adj)


def metric_from_discrete(d: DiscreteGraph) -> MetricGraph:
    """Unilateral metric graph with d as its discrete shadow."""
    edges: list[tuple[int, int]] = []
    for u in range(d.n):
        edges.extend((u, u) for _ in range(d.adj[u][u] // 2))
        for v in range(u + 1, d.n):
            edges.extend((u, v) for _ in range(d.adj[u][v]))
    if not edges:
        raise GraphError("discrete graph has no edges")
    return from_edge_list(d.n, edges)


def discrete_components(d: DiscreteGraph) -> int:
    return _count_components(d.n, ((u, v) for u in range(d.n)
                                   for v in range(u + 1, d.n) if d.adj[u][v]))


def discrete_betti(d: DiscreteGraph) -> int:
    return d.n_edges - d.n + discrete_components(d)


CANONICAL_BOUND = 8

Permutation = tuple[int, ...]


def canonical_form(d: DiscreteGraph) -> bytes:
    """Minimal row-major adjacency encoding over all vertex permutations.

    Equal byte strings certify isomorphism.  The search fills positions
    in order and keeps the unplaced vertices as an ordered list of cells; a
    minimal encoding lists each cell before the next.  Position i takes a
    vertex v of the first cell.  Its row is then fixed up to the order
    inside cells, so the least it can be is a[v][prefix], a[v][v] and each
    cell's entries a[v][u] sorted.  Only vertices with the least row are
    tried, skipping twins of one already tried (equal rows make a[v][v]
    equal, so swapping twins is an automorphism that fixes the prefix).
    Every cell is then split by a[v][u] in ascending order, and the
    ordering is complete once each cell is a single vertex.  A branch whose
    encoding is already above the best one found is cut.  The worst case
    is still exponential, so n is capped at CANONICAL_BOUND.

    The search relies on one invariant: the members of a cell share their
    entries toward the prefix, because placing a vertex splits every cell
    by that vertex's row.  So a node reads a[v][prefix] once for its first
    cell and compares the candidates on the rest of their rows only, and
    the encoding built on the way down is the first rows of the leaf's.

    The same search yields automorphisms of d (McKay and Piperno, J. Symb.
    Comput. 60, 2014): each skipped twin gives the transposition of the two
    twins, and a leaf whose encoding equals the best one gives the map
    from the best leaf's ordering to its own, since both orderings see the
    same matrix.  The form and these generators are computed once per
    DiscreteGraph object and kept on it (`automorphism_generators`).
    """
    return d._canonical[0]


def automorphism_generators(d: DiscreteGraph) -> tuple[Permutation, ...]:
    """Automorphisms of d found by the search of `canonical_form`.

    Each is a tuple p with d.adj[p[i]][p[j]] == d.adj[i][j]; the identity is
    never listed.  They generate a subgroup of Aut(d), not always all of it.
    """
    return d._canonical[1]


def _canonical_search(d: DiscreteGraph) -> tuple[bytes, tuple[Permutation, ...]]:
    """The form of `canonical_form` and the automorphisms its search meets."""
    if d.n > CANONICAL_BOUND:
        raise GraphError("exhaustive canonicalization bound exceeded")
    if any(x > 255 for row in d.adj for x in row):
        raise GraphError("multiplicity too large for byte encoding")
    a, n = d.adj, d.n
    best = b""
    best_order: list[int] = []
    found: dict[Permutation, None] = {}

    def descend(prefix: list[int], cells: list[list[int]], enc: bytes) -> None:
        nonlocal best, best_order
        if len(prefix) + len(cells) == n:  # every cell is a single vertex
            order = prefix + [cell[0] for cell in cells]
            enc += bytes([a[v][u] for v in order[len(prefix):] for u in order])
            if not best or enc < best:
                best, best_order = enc, order
            elif enc == best:
                perm = [0] * n
                for v, w in zip(best_order, order):
                    perm[v] = w
                found[tuple(perm)] = None
            return
        first, rest = cells[0], cells[1:]
        enc += bytes([a[first[0]][u] for u in prefix])
        whole_first = itemgetter(*first) if len(first) > 1 else None
        tails = []
        for v in first:
            r = a[v]
            tail = [r[v]]
            if whole_first:
                # the entries toward the rest of the first cell: toward all of it, less one r[v]
                others = sorted(whole_first(r))
                others.remove(r[v])
                tail += others
            for cell in rest:
                if len(cell) == 1:
                    tail.append(r[cell[0]])
                else:
                    tail += sorted([r[u] for u in cell])
            tails.append(bytes(tail))
        low = min(tails)
        enc += low
        if best and enc > best[:len(enc)]:
            return
        tried: list[int] = []
        for v, tail in zip(first, tails):
            if tail != low:
                continue
            r = a[v]
            for w in tried:
                swap = list(range(n))
                swap[v], swap[w] = w, v
                # twins: v's row is w's read through the swap (equal tails give equal a[v][v])
                if itemgetter(*swap)(a[w]) == r:
                    found[tuple(swap)] = None
                    break
            else:
                tried.append(v)
                split = []
                for cell in ([u for u in first if u != v], *rest) if whole_first else rest:
                    if len(cell) == 1:
                        split.append(cell)
                        continue
                    parts: dict[int, list[int]] = {}
                    for u in cell:
                        parts.setdefault(r[u], []).append(u)
                    split += [parts[x] for x in sorted(parts)]
                descend(prefix + [v], split, enc)

    descend([], [list(range(n))] if n else [], b"")
    return best, tuple(found)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> MetricGraph:
    """Parse the graph text format.

    One directive per line, `#` starts a comment:

        graph <name>
        vertex <id> [contact]
        edge <vid> <vid> [length]    # length integer or p/q, default 1

    Contact order is the order of contact-flagged vertex lines.  Every
    graph invariant a file can break is reported here first, with a line
    number or the vertex ids, before the constructor sees the graph.
    """
    name_seen = False
    ids: dict[str, int] = {}
    contacts: list[int] = []
    lengths: list[Fraction] = []
    ends: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive = tokens[0]
        if directive == "graph":
            if len(tokens) != 2:
                raise GraphFormatError(f"line {lineno}: graph needs exactly one name")
            name_seen = True
        elif directive == "vertex":
            if len(tokens) not in (2, 3) or (len(tokens) == 3 and tokens[2] != "contact"):
                raise GraphFormatError(f"line {lineno}: bad vertex directive")
            vid = tokens[1]
            if vid in ids:
                raise GraphFormatError(f"line {lineno}: duplicate vertex id {vid!r}")
            ids[vid] = len(ids)
            if len(tokens) == 3:
                contacts.append(ids[vid])
        elif directive == "edge":
            if len(tokens) not in (3, 4):
                raise GraphFormatError(f"line {lineno}: bad edge directive")
            for vid in tokens[1:3]:
                if vid not in ids:
                    raise GraphFormatError(f"line {lineno}: undeclared vertex id {vid!r}")
            try:
                length = Fraction(tokens[3]) if len(tokens) == 4 else Fraction(1)
                if length <= 0:
                    raise ValueError(f"nonpositive length {tokens[3]}")
            except (ValueError, ZeroDivisionError) as exc:
                raise GraphFormatError(f"line {lineno}: bad length ({exc})") from None
            lengths.append(length)
            ends.append((ids[tokens[1]], ids[tokens[2]]))
        else:
            raise GraphFormatError(f"line {lineno}: unknown directive {directive!r}")
    if not name_seen:
        raise GraphFormatError("line 1: missing graph directive")
    if not ends:
        raise GraphFormatError("graph has no edges")
    used = {x for e in ends for x in e}
    if len(used) != len(ids):
        unused = sorted(set(ids.values()) - used)
        names = [vid for vid, ix in ids.items() if ix in unused]
        raise GraphFormatError(f"isolated vertex ids: {', '.join(names)}")
    return MetricGraph(tuple(lengths), tuple(ends), tuple(contacts))


def format_graph(g: MetricGraph, name: str = "g") -> str:
    """Serialize to the graph text format (vertices v0, v1, ...)."""
    lines = [f"graph {name}"]
    contact_set = set(g.contacts)
    order = list(g.contacts) + [v for v in range(g.n_vertices) if v not in contact_set]
    for v in order:
        flag = " contact" if v in contact_set else ""
        lines.append(f"vertex v{v}{flag}")
    for u, v, l in g.edge_list():
        suffix = "" if l == 1 else f" {l}"
        lines.append(f"edge v{u} v{v}{suffix}")
    return "\n".join(lines) + "\n"
