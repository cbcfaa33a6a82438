"""Metric multigraphs with contact vertices and their discrete shadows.

A metric graph is a set of intervals (edges) glued at vertices.  Edge i
owns the two endpoint ids 2i and 2i+1; a vertex is the set of endpoint
ids identified with it.  Loops and parallel edges are allowed.  A subset
of vertices may be flagged as the ordered contact set, which is where
boundary data (M-functions, Steklov eigenvalues) lives.

All types are immutable values and all operations are pure, so graphs can
be shared freely across workers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Raised for structurally invalid graph operations."""


class GraphFormatError(GraphError):
    """Raised by the text-format parser, with a line number in the message."""


RationalLike = Fraction | int | str


def _as_length(value: RationalLike) -> Fraction:
    frac = Fraction(value)
    if frac <= 0:
        raise GraphError(f"nonpositive length {value}")
    return frac


@dataclass(frozen=True)
class MetricGraph:
    """Edges with rational lengths, a vertex partition of endpoints, contacts.

    lengths[i] is the length of edge i, whose endpoints are 2i and 2i+1.
    vertices is an ordered tuple of disjoint endpoint-id tuples covering
    all 2N endpoints; contacts is an ordered tuple of vertex indices.
    """

    lengths: tuple[Fraction, ...]
    vertices: tuple[tuple[int, ...], ...]
    contacts: tuple[int, ...] = ()

    @property
    def n_edges(self) -> int:
        return len(self.lengths)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def _vertex_of(self) -> dict[int, int]:
        return {e: v for v, cls in enumerate(self.vertices) for e in cls}

    def vertex_of(self, endpoint: int) -> int:
        return self._vertex_of[endpoint]

    def degree(self, v: int) -> int:
        return len(self.vertices[v])

    def edge_vertices(self, i: int) -> tuple[int, int]:
        """Vertex indices at the two ends of edge i (equal for a loop)."""
        return self.vertex_of(2 * i), self.vertex_of(2 * i + 1)

    @property
    def is_unilateral(self) -> bool:
        return all(l == 1 for l in self.lengths)

    @property
    def total_length(self) -> Fraction:
        return sum(self.lengths, Fraction(0))

    def with_contacts(self, contacts: Sequence[int]) -> "MetricGraph":
        return MetricGraph(self.lengths, self.vertices, tuple(contacts))

    def edge_list(self) -> list[tuple[int, int, Fraction]]:
        """Edges as (vertex, vertex, length) triples, endpoints in id order."""
        return [(self.vertex_of(2 * i), self.vertex_of(2 * i + 1), l)
                for i, l in enumerate(self.lengths)]


def from_edge_list(n_vertices: int,
                   edges: Iterable[tuple[int, int] | tuple[int, int, RationalLike]],
                   contacts: Sequence[int] = ()) -> MetricGraph:
    """Build a MetricGraph from vertex-labelled edges (default length 1)."""
    classes: list[list[int]] = [[] for _ in range(n_vertices)]
    lengths: list[Fraction] = []
    for i, edge in enumerate(edges):
        u, v = edge[0], edge[1]
        length = _as_length(edge[2]) if len(edge) > 2 else Fraction(1)
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise GraphError(f"edge ({u}, {v}) references unknown vertex")
        classes[u].append(2 * i)
        classes[v].append(2 * i + 1)
        lengths.append(length)
    if any(not cls for cls in classes):
        raise GraphError("every vertex must meet at least one edge endpoint")
    return MetricGraph(tuple(lengths),
                       tuple(tuple(cls) for cls in classes),
                       tuple(contacts))


def validate(g: MetricGraph) -> list[str]:
    """All violated invariants of g; an empty list means the graph is valid."""
    problems: list[str] = []
    n = g.n_edges
    seen: Counter[int] = Counter()
    for cls in g.vertices:
        if not cls:
            problems.append("empty vertex class")
        seen.update(cls)
    for e, count in sorted(seen.items()):
        if count > 1:
            problems.append(f"endpoint {e} in multiple classes")
        if not 0 <= e < 2 * n:
            problems.append(f"endpoint {e} does not belong to any edge")
    missing = set(range(2 * n)) - set(seen)
    for e in sorted(missing):
        problems.append(f"endpoint {e} not assigned to a vertex")
    for i, l in enumerate(g.lengths):
        if l <= 0:
            problems.append(f"nonpositive length on edge {i}")
    for c in g.contacts:
        if not 0 <= c < g.n_vertices:
            problems.append(f"contact index {c} out of range")
    if len(set(g.contacts)) != len(g.contacts):
        problems.append("duplicate contact index")
    return problems


def components(g: MetricGraph) -> int:
    """Number of connected components (union-find over vertices)."""
    parent = list(range(g.n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(g.n_edges):
        u, v = g.edge_vertices(i)
        parent[find(u)] = find(v)
    return len({find(v) for v in range(g.n_vertices)})


def betti(g: MetricGraph) -> int:
    """First Betti number: edges - vertices + components."""
    return g.n_edges - g.n_vertices + components(g)


# ---------------------------------------------------------------------------
# surgery
# ---------------------------------------------------------------------------

def chop_vertex(g: MetricGraph, v: int, parts: Sequence[Iterable[int]]) -> MetricGraph:
    """Split vertex v into one new vertex per part of its endpoint class.

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
    vertices = list(g.vertices)
    vertices[v] = part_tuples[0]
    vertices.extend(part_tuples[1:])
    contacts = tuple(c for c in g.contacts if c != v)
    return MetricGraph(g.lengths, tuple(vertices), contacts)


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
    keep = min(group_set)
    merged = tuple(e for v in sorted(group_set) for e in g.vertices[v])
    vertices: list[tuple[int, ...]] = []
    remap: dict[int, int] = {}
    for v, cls in enumerate(g.vertices):
        if v == keep:
            remap[v] = len(vertices)
            vertices.append(merged)
        elif v not in group_set:
            remap[v] = len(vertices)
            vertices.append(cls)
    for v in group_set:
        remap[v] = remap[keep]
    contacts: list[int] = []
    for c in g.contacts:
        if remap[c] not in contacts:
            contacts.append(remap[c])
    return MetricGraph(g.lengths, tuple(vertices), tuple(contacts))


def disjoint_union(g1: MetricGraph, g2: MetricGraph) -> MetricGraph:
    """Side-by-side union; contacts of g1 first, then g2's (shifted)."""
    shift_e = 2 * g1.n_edges
    shift_v = g1.n_vertices
    vertices = g1.vertices + tuple(tuple(e + shift_e for e in cls) for cls in g2.vertices)
    contacts = g1.contacts + tuple(c + shift_v for c in g2.contacts)
    return MetricGraph(g1.lengths + g2.lengths, vertices, contacts)


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

    shift_e = 2 * g1.n_edges
    partner = {g1.contacts[p]: g2.contacts[q] for p, q in pairing}
    absorbed = set(partner.values())

    vertices: list[tuple[int, ...]] = []
    index1: dict[int, int] = {}
    index2: dict[int, int] = {}
    for v, cls in enumerate(g1.vertices):
        index1[v] = len(vertices)
        if v in partner:
            w = partner[v]
            vertices.append(cls + tuple(e + shift_e for e in g2.vertices[w]))
        else:
            vertices.append(cls)
    for w, cls in enumerate(g2.vertices):
        if w not in absorbed:
            index2[w] = len(vertices)
            vertices.append(tuple(e + shift_e for e in cls))
    for v, w in partner.items():
        index2[w] = index1[v]

    contacts = [index1[g1.contacts[p]] for p in left]
    contacts += [index1[c] for i, c in enumerate(g1.contacts) if i not in set(left)]
    contacts += [index2[c] for j, c in enumerate(g2.contacts) if j not in set(right)]
    return MetricGraph(g1.lengths + g2.lengths, tuple(vertices), tuple(contacts))


def subdivide_edge(g: MetricGraph, e: int, t: RationalLike) -> MetricGraph:
    """Split edge e at distance t from its first endpoint.

    The new degree-2 vertex is appended, non-contact; edge e keeps its
    index for the first piece and the second piece is appended.
    """
    t = Fraction(t)
    if not 0 < t < g.lengths[e]:
        raise GraphError(f"subdivision point {t} outside (0, {g.lengths[e]})")
    edges = g.edge_list()
    u, v, length = edges[e]
    w = g.n_vertices
    edges[e] = (u, w, t)
    edges.append((w, v, length - t))
    return from_edge_list(g.n_vertices + 1, edges, g.contacts)


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
    current = g
    new_vertices: list[int] = []
    # process per edge so repeated subdivision offsets stay consistent
    by_edge: dict[int, list[Fraction]] = {}
    for e, t in pts:
        by_edge.setdefault(e, []).append(t)
    for e in sorted(by_edge):
        offsets = sorted(by_edge[e])
        edge_idx = e
        consumed = Fraction(0)
        for t in offsets:
            current = subdivide_edge(current, edge_idx, t - consumed)
            new_vertices.append(current.n_vertices - 1)
            # the remainder piece was appended last
            edge_idx = current.n_edges - 1
            consumed = t
    return merge_vertices(current, new_vertices)


MAX_UNIT_EDGES = 10_000


def unit_subdivided(g: MetricGraph, max_unit_edges: int = MAX_UNIT_EDGES) -> MetricGraph:
    """Subdivide every integer-length edge into unit pieces.

    The result is unilateral and describes the same metric space; raises
    GraphError when a length is not a positive integer, or, before
    building anything, when the result would have more than
    `max_unit_edges` edges.
    """
    for l in g.lengths:
        if l.denominator != 1:
            raise GraphError(f"length {l} is not an integer; cannot subdivide to unit edges")
    total = int(sum(g.lengths))
    if total > max_unit_edges:
        raise GraphError(f"subdivision would give {total} unit edges, "
                         f"above the budget of {max_unit_edges}")
    edges: list[tuple[int, int, Fraction]] = []
    n_vertices = g.n_vertices
    for u, v, l in g.edge_list():
        steps = int(l)
        prev = u
        for s in range(steps - 1):
            edges.append((prev, n_vertices, Fraction(1)))
            prev = n_vertices
            n_vertices += 1
        edges.append((prev, v, Fraction(1)))
    return from_edge_list(n_vertices, edges, g.contacts)


def scale_lengths(g: MetricGraph, factor: RationalLike) -> MetricGraph:
    factor = Fraction(factor)
    if factor <= 0:
        raise GraphError("scale factor must be positive")
    return MetricGraph(tuple(l * factor for l in g.lengths), g.vertices, g.contacts)


# ---------------------------------------------------------------------------
# discrete shadows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteGraph:
    """Multigraph as a symmetric nonnegative integer adjacency matrix.

    Off-diagonal entries count parallel edges; a diagonal entry is twice
    the number of loops at that vertex, so degrees are plain row sums.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.adj) != self.n or any(len(row) != self.n for row in self.adj):
            raise GraphError("adjacency matrix has wrong shape")
        for i in range(self.n):
            if self.adj[i][i] % 2:
                raise GraphError("odd diagonal entry (loops count twice)")
            for j in range(i):
                if self.adj[i][j] != self.adj[j][i]:
                    raise GraphError("adjacency matrix not symmetric")
                if self.adj[i][j] < 0:
                    raise GraphError("negative multiplicity")

    def degree(self, u: int) -> int:
        return sum(self.adj[u])

    def degrees(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.adj)

    @property
    def n_edges(self) -> int:
        return sum(sum(row) for row in self.adj) // 2


def discrete_from_adj(adj: Sequence[Sequence[int]]) -> DiscreteGraph:
    return DiscreteGraph(len(adj), tuple(tuple(row) for row in adj))


def to_discrete(g: MetricGraph) -> DiscreteGraph:
    """Forget lengths; loops contribute 2 to their diagonal entry."""
    n = g.n_vertices
    adj = [[0] * n for _ in range(n)]
    for u, v, _ in g.edge_list():
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
    parent = list(range(d.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(d.n):
        for v in range(u + 1, d.n):
            if d.adj[u][v]:
                parent[find(u)] = find(v)
    return len({find(v) for v in range(d.n)})


def discrete_betti(d: DiscreteGraph) -> int:
    return d.n_edges - d.n + discrete_components(d)


CANONICAL_BOUND = 8


def canonical_form(d: DiscreteGraph, bound: int = CANONICAL_BOUND) -> bytes:
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
    is still exponential, so n is capped (default 8).
    """
    if d.n > bound:
        raise GraphError("exhaustive canonicalization bound exceeded")
    if any(x > 255 for row in d.adj for x in row):
        raise GraphError("multiplicity too large for byte encoding")
    a = d.adj
    best = b""

    def twins(v: int, w: int) -> bool:
        return all(a[v][x] == a[w][x] for x in range(d.n) if x != v and x != w)

    def descend(prefix: list[int], cells: list[list[int]], enc: bytes) -> None:
        nonlocal best
        if all(len(cell) == 1 for cell in cells):
            order = prefix + [cell[0] for cell in cells]
            enc = bytes(a[v][u] for v in order for u in order)
            if not best or enc < best:
                best = enc
            return
        rows = {}
        for v in cells[0]:
            r = a[v]
            rows[v] = bytes([r[u] for u in prefix] + [r[v]] + [
                x for cell in cells for x in sorted([r[u] for u in cell if u != v])])
        low = min(rows.values())
        enc += low
        if best and enc > best[:len(enc)]:
            return
        tried: list[int] = []
        for v in cells[0]:
            if rows[v] != low or any(twins(v, w) for w in tried):
                continue
            tried.append(v)
            split = []
            for cell in cells:
                parts: dict[int, list[int]] = {}
                for u in cell:
                    if u != v:
                        parts.setdefault(a[v][u], []).append(u)
                split.extend(parts[x] for x in sorted(parts))
            descend(prefix + [v], split, enc)

    descend([], [list(range(d.n))] if d.n else [], b"")
    return best


def metric_isomorphic(g1: MetricGraph, g2: MetricGraph,
                      max_vertices: int = 10) -> bool:
    """Exact isomorphism of small metric graphs (lengths included).

    Contacts are ignored; brute force over vertex bijections compatible
    with degrees.
    """
    if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
        return False
    if g1.n_vertices > max_vertices:
        raise GraphError("isomorphism brute-force bound exceeded")
    if sorted(g1.lengths) != sorted(g2.lengths):
        return False
    deg1 = [g1.degree(v) for v in range(g1.n_vertices)]
    deg2 = [g2.degree(v) for v in range(g2.n_vertices)]
    if sorted(deg1) != sorted(deg2):
        return False
    target = Counter((min(u, v), max(u, v), l) for u, v, l in g2.edge_list())
    for perm in permutations(range(g1.n_vertices)):
        if any(deg1[v] != deg2[perm[v]] for v in range(g1.n_vertices)):
            continue
        image = Counter((min(perm[u], perm[v]), max(perm[u], perm[v]), l)
                        for u, v, l in g1.edge_list())
        if image == target:
            return True
    return False


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> MetricGraph:
    """Parse the graph text format.

    One directive per line, `#` starts a comment:

        graph <name>
        vertex <id> [contact]
        edge <vid> <vid> [length]    # length integer or p/q, default 1

    Contact order is the order of contact-flagged vertex lines.
    """
    name_seen = False
    ids: dict[str, int] = {}
    contacts: list[int] = []
    edges: list[tuple[int, int, Fraction]] = []
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
                length = _as_length(tokens[3]) if len(tokens) == 4 else Fraction(1)
            except (ValueError, ZeroDivisionError, GraphError) as exc:
                raise GraphFormatError(f"line {lineno}: bad length ({exc})") from None
            edges.append((ids[tokens[1]], ids[tokens[2]], length))
        else:
            raise GraphFormatError(f"line {lineno}: unknown directive {directive!r}")
    if not name_seen:
        raise GraphFormatError("line 1: missing graph directive")
    if not edges:
        raise GraphFormatError("graph has no edges")
    used = {u for u, _, _ in edges} | {v for _, v, _ in edges}
    if len(used) != len(ids):
        unused = sorted(set(ids.values()) - used)
        names = [vid for vid, ix in ids.items() if ix in unused]
        raise GraphFormatError(f"isolated vertex ids: {', '.join(names)}")
    return from_edge_list(len(ids), edges, contacts)


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
