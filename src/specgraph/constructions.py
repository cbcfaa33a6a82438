"""Named graph catalog and the isospectral-graph building methods.

Every builder machine-checks its hypotheses (Steklov equivalence and,
where required, exact isospectrality) and fails loudly when they do not
hold; the point of the artifact is certification, not trust.

Steklov equivalence is certified in one place, `_certify_equivalent`:
`steklov_equivalent` with its defaults, that is M compared at the nine
`mfunction.DEFAULT_SAMPLES` lambdas against `mfunction.EQUIVALENCE_TOL`
(1e-9), and a GraphError naming the failure and the largest residual
when it does not hold.  The builders take no sample or tolerance
arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Callable, Sequence

from .graphs import (GraphError, MetricGraph, from_edge_list, glue,
                     join_points)
from .mfunction import steklov_equivalent
from .secular import metric_isospectral


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _complete(n: int) -> MetricGraph:
    return from_edge_list(n, list(combinations(range(n), 2)),
                          contacts=range(n))


def _star(d: int) -> MetricGraph:
    """d unit edges from a center to degree-1 contacts (center interior)."""
    return from_edge_list(d + 1, [(i, d) for i in range(d)],
                          contacts=range(d))


def _cycle(n: int) -> MetricGraph:
    if n == 1:
        return from_edge_list(1, [(0, 0)])
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def _path(n: int) -> MetricGraph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)],
                          contacts=(0, n - 1))


def _q1() -> MetricGraph:
    """Two 2-stars: contacts 0,1 joined at one new vertex, 2,3 at another."""
    return from_edge_list(6, [(0, 4), (1, 4), (2, 5), (3, 5)],
                          contacts=(0, 1, 2, 3))


def _q2() -> MetricGraph:
    """A 3-star on contacts 0,1,2 plus a single edge at contact 3."""
    return from_edge_list(6, [(0, 4), (1, 4), (2, 4), (3, 5)],
                          contacts=(0, 1, 2, 3))


def _figure_eight_unit() -> MetricGraph:
    """Two 4-cycles of unit edges sharing one vertex, which is the contact."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)]
    return from_edge_list(7, edges, contacts=(0,))


def _watermelon_stick_unit() -> MetricGraph:
    """Three 2-paths in parallel plus a pendant 2-path, contact at the hub."""
    edges = [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1), (0, 5), (5, 6)]
    return from_edge_list(7, edges, contacts=(0,))


def _two_edge_cycle() -> MetricGraph:
    """Cycle of two length-2 edges; the two junctions are the contacts."""
    return from_edge_list(2, [(0, 1, 2), (0, 1, 2)], contacts=(0, 1))


def _midpoint_joined_cycle() -> MetricGraph:
    """The two-edge cycle with both edge midpoints joined into one vertex.

    Steklov-equivalent to the cycle (the join is an orbit of the edge-swap
    symmetry fixing the contacts) but not isospectral to it.
    """
    return join_points(_two_edge_cycle(), [(0, 1), (1, 1)])


#: every catalog id and its builder, in CATALOG_IDS order
_CATALOG: dict[str, Callable[[], MetricGraph]] = {
    **{f"K{n}": partial(_complete, n) for n in range(2, 7)},
    **{f"S{d}": partial(_star, d) for d in range(1, 7)},
    **{f"C{n}": partial(_cycle, n) for n in range(1, 9)},
    **{f"path_{n}": partial(_path, n) for n in range(2, 9)},
    "Gamma1": lambda: glue(_complete(4), _q1(), [(i, i) for i in range(4)]),
    "Gamma1p": lambda: glue(_star(4), _q1(), [(i, i) for i in range(4)]),
    "Gamma2": lambda: glue(_complete(4), _q2(), [(i, i) for i in range(4)]),
    "Gamma2p": lambda: glue(_star(4), _q2(), [(i, i) for i in range(4)]),
    "Q1": _q1,
    "Q2": _q2,
    "fig6_cycle": _two_edge_cycle,
    "fig6_eight": _midpoint_joined_cycle,
    "figure_eight_unit": _figure_eight_unit,
    "watermelon_stick_unit": _watermelon_stick_unit,
}

CATALOG_IDS: tuple[str, ...] = tuple(_CATALOG)


def catalog(name: str) -> MetricGraph:
    """Return a documented catalog graph by id (see CATALOG_IDS)."""
    build = _CATALOG.get(name)
    if build is None:
        raise GraphError(f"unknown catalog id {name!r}")
    return build()


# ---------------------------------------------------------------------------
# the Steklov-equivalence certificate
# ---------------------------------------------------------------------------

def _certify_equivalent(g1: MetricGraph, g2: MetricGraph, failure: str) -> None:
    """Raise GraphError(failure, with the max residual) unless g1 ~ g2."""
    eq = steklov_equivalent(g1, g2)
    if not eq:
        raise GraphError(f"{failure} (max residual {eq.max_residual:.3g})")


# ---------------------------------------------------------------------------
# method 1: extend a Steklov-equivalent isospectral pair by gluing
# ---------------------------------------------------------------------------

def _integer_lengths(g: MetricGraph) -> bool:
    return all(l.denominator == 1 for l in g.lengths)


def method1_extend(k_graph: MetricGraph, r1: MetricGraph, r2: MetricGraph,
                   pairing: Sequence[tuple[int, int]]) -> tuple[MetricGraph, MetricGraph]:
    """Glue two equivalent isospectral graphs to a common graph.

    Requires (and verifies) that r1 and r2 are Steklov-equivalent on their
    contact order and exactly isospectral; then gluing either one to
    k_graph by the same pairing yields an isospectral pair, returned as
    (glue(k_graph, r1), glue(k_graph, r2)).
    """
    _certify_equivalent(r1, r2, "hypothesis failure: graphs are not Steklov-equivalent")
    if not (_integer_lengths(r1) and _integer_lengths(r2)):
        raise GraphError(
            "cannot certify the isospectrality hypothesis: edge lengths "
            "are not integers, so the exact secular check is unavailable")
    if not metric_isospectral(r1, r2):
        raise GraphError(
            "hypothesis failure: graphs are Steklov-equivalent but not "
            "isospectral (non-detectable spectra differ)")
    return glue(k_graph, r1, pairing), glue(k_graph, r2, pairing)


# ---------------------------------------------------------------------------
# method 2: exchange Steklov-equivalent subgraphs inside a declared host
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Slot:
    """A subgraph plugged into a host frame.

    attach pairs (slot contact position, frame contact position); slot
    contacts not attached anywhere stay contacts of the assembly.
    """

    graph: MetricGraph
    attach: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ComposedHost:
    """A frame graph with subgraph slots glued onto its contacts.

    Exchanging slot contents is only well defined because the composition
    is declared; identifying subgraphs inside an arbitrary graph is out of
    scope.
    """

    frame: MetricGraph
    slots: tuple[Slot, ...]

    def __post_init__(self) -> None:
        for slot in self.slots:
            for sp, fp in slot.attach:
                if not 0 <= sp < len(slot.graph.contacts):
                    raise GraphError(f"slot contact position {sp} out of range")
                if not 0 <= fp < len(self.frame.contacts):
                    raise GraphError(f"frame contact position {fp} out of range")
            if len({sp for sp, _ in slot.attach}) != len(slot.attach):
                raise GraphError("slot contact attached twice")
            if len({fp for _, fp in slot.attach}) != len(slot.attach):
                raise GraphError("one slot needs distinct frame attachment points")


def assemble(host: ComposedHost) -> MetricGraph:
    """Glue every slot onto the frame; frame contacts stay first in order.

    glue keeps the vertex numbers of its first graph, so the contacts
    before a slot is glued keep their order, followed by the slot's
    unattached contacts.
    """
    g = host.frame
    for slot in host.slots:
        glued = glue(g, slot.graph, [(fp, sp) for sp, fp in slot.attach])
        g = MetricGraph(glued.lengths, glued.ends,
                        g.contacts + glued.contacts[len(g.contacts):])
    return g


def _swap_slots(host: ComposedHost, permutation: Sequence[int]) -> ComposedHost:
    slots = tuple(Slot(host.slots[permutation[i]].graph, host.slots[i].attach)
                  for i in range(len(host.slots)))
    return ComposedHost(host.frame, slots)


def method2_exchange(host: ComposedHost, slot1: int, slot2: int) -> MetricGraph:
    """Assembly of the host with the contents of two slots exchanged.

    The two slot subgraphs must be Steklov-equivalent (verified); the
    exchanged assembly is then isospectral to `assemble(host)`.
    """
    n = len(host.slots)
    if not (0 <= slot1 < n and 0 <= slot2 < n):
        raise GraphError("slot index out of range")
    perm = list(range(n))
    perm[slot1], perm[slot2] = perm[slot2], perm[slot1]
    return method2_permute(host, perm)


def method2_permute(host: ComposedHost, permutation: Sequence[int]) -> MetricGraph:
    """Assembly of the host with slot contents permuted arbitrarily.

    Every slot whose content moves must be Steklov-equivalent to the
    content it receives (verified pairwise).
    """
    n = len(host.slots)
    if sorted(permutation) != list(range(n)):
        raise GraphError("not a permutation of the slots")
    for i, j in enumerate(permutation):
        if i == j:
            continue
        gi, gj = host.slots[i].graph, host.slots[j].graph
        if len(gi.contacts) != len(gj.contacts):
            raise GraphError(f"slots {i} and {j} have different contact counts")
        _certify_equivalent(gi, gj, f"slots {i} and {j} are not Steklov-equivalent")
    return assemble(_swap_slots(host, permutation))


# ---------------------------------------------------------------------------
# block substitution and the star-splitting example
# ---------------------------------------------------------------------------

def substitute(pattern_vertices: int,
               edge_blocks: Sequence[tuple[int, int, MetricGraph]],
               pendant_blocks: Sequence[tuple[int, MetricGraph]] = (),
               contacts: Sequence[int] = ()) -> MetricGraph:
    """Assemble a graph whose pattern edges are 2-contact building blocks.

    Each (u, v, block) inserts a copy of block with its first contact at
    pattern vertex u and its second at v; each (v, block) hangs a
    1-contact block at v.  Block interiors are kept disjoint.
    """
    edges: list[tuple[int, int, Fraction]] = []
    next_vertex = pattern_vertices

    def add_block(block: MetricGraph, anchors: dict[int, int]) -> None:
        nonlocal next_vertex
        mapping = dict(anchors)
        for w in range(block.n_vertices):
            if w not in mapping:
                mapping[w] = next_vertex
                next_vertex += 1
        for x, y, l in block.edge_list():
            edges.append((mapping[x], mapping[y], l))

    for u, v, block in edge_blocks:
        if len(block.contacts) != 2:
            raise GraphError("edge block must have exactly 2 contacts")
        add_block(block, {block.contacts[0]: u, block.contacts[1]: v})
    for v, block in pendant_blocks:
        if len(block.contacts) != 1:
            raise GraphError("pendant block must have exactly 1 contact")
        add_block(block, {block.contacts[0]: v})
    return from_edge_list(next_vertex, edges, contacts)


def build_clarifying_example(block_a: MetricGraph, block_b: MetricGraph,
                             block_c: MetricGraph, block_d: MetricGraph,
                             block_e: MetricGraph, block_f: MetricGraph,
                             splits: tuple[tuple[int, int], tuple[int, int]] = ((2, 3), (1, 4))
                             ) -> tuple[MetricGraph, MetricGraph]:
    """Two isospectral graphs from block substitution and star splitting.

    The common part is a complete-graph pattern on 5 hub vertices whose
    edges carry blocks A or B (which must be Steklov-equivalent), a 5-star
    of C blocks into a center carrying one E block.  Each partner graph is
    a 5-star of D blocks whose center is split into two vertices with the
    given valencies, each receiving as many F copies as its valency.
    Gluing the common part to either partner on the 5 hubs yields the
    returned pair.
    """
    for blk, label in ((block_a, "A"), (block_b, "B"), (block_c, "C"), (block_d, "D")):
        if len(blk.contacts) != 2:
            raise GraphError(f"block {label} must have exactly 2 contacts")
    for blk, label in ((block_e, "E"), (block_f, "F")):
        if len(blk.contacts) != 1:
            raise GraphError(f"block {label} must have exactly 1 contact")
    for split in splits:
        if len(split) != 2 or min(split) < 1 or sum(split) != 5:
            raise GraphError("two nonempty parts required, summing to 5")
    _certify_equivalent(block_a, block_b, "blocks A and B are not Steklov-equivalent")

    hub_contacts = tuple(range(5))
    # blocks A sit on the pattern edges at one distinguished hub, B elsewhere
    pattern = [(i, j, block_a if 1 in (i, j) else block_b)
               for i, j in combinations(range(5), 2)]
    pattern += [(i, 5, block_c) for i in range(5)]
    common = substitute(6, pattern, [(5, block_e)], hub_contacts)

    def split_star(split: tuple[int, int]) -> MetricGraph:
        s1, _ = split
        star = [(i, 5, block_d) for i in range(s1)]
        star += [(i, 6, block_d) for i in range(s1, 5)]
        pendants = [(5, block_f)] * split[0] + [(6, block_f)] * split[1]
        return substitute(7, star, pendants, hub_contacts)

    full_pairing = [(i, i) for i in range(5)]
    return (glue(common, split_star(splits[0]), full_pairing),
            glue(common, split_star(splits[1]), full_pairing))


# ---------------------------------------------------------------------------
# quotients by inner symmetries
# ---------------------------------------------------------------------------

def inner_symmetry_quotient(g: MetricGraph,
                            orbit: Sequence[tuple[int, Fraction | int | str]]) -> MetricGraph:
    """Join one symmetry orbit of interior points into a single vertex.

    The caller asserts the points form an orbit of a symmetry fixing the
    contact set; that is not machine-checkable, so the construction is
    certified post hoc: the quotient must be Steklov-equivalent to g, and
    the call fails if it is not.
    """
    result = join_points(g, orbit)
    _certify_equivalent(g, result, "orbit assertion refuted: M-functions differ")
    return result
