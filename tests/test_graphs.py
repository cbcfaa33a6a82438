import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

import specgraph.graphs
from specgraph import (DiscreteGraph, GraphError, GraphFormatError, MetricGraph,
                       betti, canonical_form, chop_vertex, components,
                       discrete_from_adj, disjoint_union, format_graph,
                       from_edge_list, glue, join_points, merge_vertices,
                       m_function, metric_from_discrete, parse_graph,
                       scale_lengths, secular_poly, subdivide_edge,
                       suppress_degree2, to_discrete, unit_subdivided)
from specgraph.constructions import catalog
from specgraph.graphs import automorphism_generators, discrete_components

from conftest import random_connected_multigraph
from kernel_oracles import brute_force_canonical_form, metric_isomorphic


def k5():
    return from_edge_list(5, list(combinations(range(5), 2)))


class TestValidate:
    """The MetricGraph constructor checks every graph invariant."""

    def test_single_edge_ok(self):
        g = MetricGraph((Fraction(1),), ((0, 1),), ())
        assert g == from_edge_list(2, [(0, 1)])
        assert g.n_vertices == 2

    def test_ends_and_lengths_disagree(self):
        with pytest.raises(GraphError, match=r"^need one \(u, v\) end pair per length, "
                                             r"got 1 ends for 2 lengths$"):
            MetricGraph((Fraction(1), Fraction(2)), ((0, 1),), ())
        with pytest.raises(GraphError, match="end pair per length"):
            MetricGraph((Fraction(1),), ((0, 1, 2),), ())

    def test_vertex_meeting_no_edge(self):
        with pytest.raises(GraphError, match="^every vertex must meet at least one edge endpoint$"):
            MetricGraph((Fraction(1),), ((0, 2),), ())
        with pytest.raises(GraphError, match="every vertex"):
            from_edge_list(3, [(0, 2)])
        # from_edge_list also checks its explicit vertex count
        with pytest.raises(GraphError, match="every vertex"):
            from_edge_list(3, [(0, 1)])

    def test_negative_vertex_index(self):
        with pytest.raises(GraphError, match=r"^edge \(-1, 1\) has a negative vertex index$"):
            MetricGraph((Fraction(1), Fraction(1)), ((0, 1), (-1, 1)), ())
        with pytest.raises(GraphError, match="unknown vertex"):
            from_edge_list(2, [(0, 1), (-1, 1)])

    def test_nonpositive_length(self):
        for length in (Fraction(0), Fraction(-3, 2)):
            with pytest.raises(GraphError, match=f"^nonpositive length {length}$"):
                MetricGraph((length,), ((0, 1),), ())
        with pytest.raises(GraphError, match="nonpositive"):
            from_edge_list(2, [(0, 1, 0)])

    @pytest.mark.parametrize("length", [1, 1.5, "1", True])
    def test_length_must_be_a_fraction(self, length):
        # from_edge_list converts; the constructor takes Fractions only
        with pytest.raises(GraphError, match=f"^length {length!r} is not a Fraction$"):
            MetricGraph((Fraction(1), length), ((0, 1), (1, 2)), ())
        assert from_edge_list(2, [(0, 1, length)]).lengths == (Fraction(length),)

    def test_bad_contacts(self):
        with pytest.raises(GraphError, match="^contact 5 references unknown vertex$"):
            MetricGraph((Fraction(1),), ((0, 1),), (5,))
        with pytest.raises(GraphError, match="^repeated contact$"):
            MetricGraph((Fraction(1),), ((0, 1),), (0, 0))

    @pytest.mark.parametrize("contacts, message", [
        ((5,), "contact 5 references unknown vertex"),
        ((0, -1), "contact -1 references unknown vertex"),
        ((2,), "contact 2 references unknown vertex"),
        ((0, 0), "repeated contact"),
        ((1, 0, 1), "repeated contact")])
    def test_bad_contacts_rejected(self, contacts, message):
        # before, (5,) failed later with an IndexError inside m_function
        # and (0, 0) gave an M with a repeated row
        with pytest.raises(GraphError, match=f"^{message}$"):
            from_edge_list(2, [(0, 1)], contacts=contacts)
        with pytest.raises(GraphError, match=f"^{message}$"):
            MetricGraph((Fraction(1),), ((0, 1),), contacts)

    @pytest.mark.parametrize("edge", [(0.0, 1), (0, 1.0), (True, 0)])
    def test_non_integer_vertex_rejected(self, edge):
        # a float index would give a graph whose vertices and shadow raise
        # TypeError
        with pytest.raises(GraphError, match="has a vertex index that is not an integer"):
            from_edge_list(2, [edge], contacts=(0,))
        with pytest.raises(GraphError, match="has a vertex index that is not an integer"):
            MetricGraph((Fraction(1),), (edge,), ())

    @pytest.mark.parametrize("contacts", [(1.0,), (True,), (0, Fraction(1))])
    def test_non_integer_contact_rejected(self, contacts):
        # format_graph would write contacts 1.0 and True as v1.0 and vTrue
        with pytest.raises(GraphError, match="is not an integer vertex index"):
            from_edge_list(2, [(0, 1)], contacts=contacts)
        with pytest.raises(GraphError, match="is not an integer vertex index"):
            MetricGraph((Fraction(1),), ((0, 1),), contacts)

    def test_non_integer_indices_reported(self):
        with pytest.raises(GraphError, match=r"^edge \(1\.0, 2\) has a vertex index "
                                             r"that is not an integer$"):
            MetricGraph((Fraction(1), Fraction(1)), ((0, 1), (1.0, 2)), (0,))
        with pytest.raises(GraphError, match=r"^edge \(False, 1\) has a vertex index "
                                             r"that is not an integer$"):
            MetricGraph((Fraction(1),), ((False, 1),), ())
        with pytest.raises(GraphError, match="^contact 1.0 is not an integer vertex index$"):
            MetricGraph((Fraction(1),), ((0, 1),), (1.0, True))
        assert MetricGraph((Fraction(1),), ((0, 1),), (1, 0)).contacts == (1, 0)

    @pytest.mark.parametrize("lengths, ends, contacts", [
        ([Fraction(1)], ((0, 1),), (0,)),
        ((Fraction(1),), [(0, 1)], (0,)),
        ((Fraction(1),), ([0, 1],), (0,)),
        ((Fraction(1),), ((0, 1),), [0])])
    def test_fields_must_be_tuples(self, lengths, ends, contacts):
        # a list built a graph that m_function evaluated, while hash and
        # secular_poly raised TypeError: unhashable type: 'list'
        message = "^lengths, ends, every end pair and contacts must be tuples$"
        with pytest.raises(GraphError, match=message):
            MetricGraph(lengths, ends, contacts)
        with pytest.raises(GraphError, match=message):
            replace(from_edge_list(2, [(0, 1)]), contacts=[0])

    def test_contacts_kept_in_order(self):
        g = from_edge_list(3, [(0, 1), (1, 2)], contacts=[2, 0])
        assert g.contacts == (2, 0)
        assert replace(g, contacts=(0, 1, 2)).contacts == (0, 1, 2)
        assert replace(g, contacts=()).contacts == ()


#: invalid graphs that the exact keys and the M-function would answer
#: wrongly or crash on if the constructor let them through
K2_ENDS = ((0, 1),)
INVALID_GRAPHS = [
    pytest.param((Fraction(0),), K2_ENDS, (0,), "^nonpositive length 0$", id="zero-length"),
    pytest.param((Fraction(-3),), K2_ENDS, (0,), "^nonpositive length -3$", id="negative-length"),
    pytest.param((Fraction(1),), ((0, -1),), (0,), "negative vertex index", id="negative-end"),
    pytest.param((Fraction(1), Fraction(2)), K2_ENDS, (0,), "end pair per length",
                 id="two-lengths-one-pair"),
    pytest.param((1.5,), K2_ENDS, (0,), "is not a Fraction", id="float-length"),
    pytest.param((Fraction(1),), K2_ENDS, (0, 0), "^repeated contact$", id="repeated-contact"),
    pytest.param((Fraction(1),), K2_ENDS, (5,), "^contact 5 references unknown vertex$",
                 id="unknown-contact"),
]


class TestInvalidGraphsRaise:
    @pytest.mark.parametrize("consumer", [
        pytest.param(lambda g: g, id="constructor"),
        pytest.param(secular_poly, id="secular_poly"),
        pytest.param(lambda g: m_function(g, -1.0), id="m_function"),
        pytest.param(format_graph, id="format_graph")])
    @pytest.mark.parametrize("lengths, ends, contacts, message", INVALID_GRAPHS)
    def test_no_silent_answer(self, consumer, lengths, ends, contacts, message):
        with pytest.raises(GraphError, match=message):
            consumer(MetricGraph(lengths, ends, contacts))


class TestSurgeryResultsAreValid:
    def test_seeded_surgery_round_trips(self):
        # every surgery result is built by the checking constructor, and
        # the text format carries it with the same secular polynomial
        rng = random.Random(2112)
        compared = 0
        for _ in range(12):
            g = scale_lengths(random_connected_multigraph(rng, with_contacts=True),
                              rng.randint(1, 2))
            h = random_connected_multigraph(rng, with_contacts=True)
            v = rng.randrange(g.n_vertices)
            cls = g.vertices[v]
            e1, e2 = rng.randrange(g.n_edges), rng.randrange(g.n_edges)
            results = [
                glue(g, h, [(i, i) for i in range(min(len(g.contacts), len(h.contacts)))]),
                join_points(g, [(e1, g.lengths[e1] / 2), (e2, g.lengths[e2] / 3)]),
                subdivide_edge(g, e1, g.lengths[e1] / 2),
                suppress_degree2(g),
                scale_lengths(g, Fraction(rng.randint(1, 4), 2)),
                unit_subdivided(g)]
            if len(cls) >= 2:
                cut = rng.randint(1, len(cls) - 1)
                results.append(chop_vertex(g, v, [cls[:cut], cls[cut:]]))
            for r in results:
                assert MetricGraph(r.lengths, r.ends, r.contacts) == r
                back = parse_graph(format_graph(r))
                assert sorted(back.lengths) == sorted(r.lengths)
                assert len(back.contacts) == len(r.contacts)
                if all(l.denominator == 1 for l in r.lengths) and sum(r.lengths) <= 24:
                    assert secular_poly(back) == secular_poly(r)
                    compared += 1
        assert compared >= 40


class TestTopology:
    def test_betti_k5(self):
        assert betti(k5()) == 6

    def test_betti_chopped(self):
        g = k5()
        cls = g.vertices[4]
        assert betti(chop_vertex(g, 4, [cls[:2], cls[2:]])) == 5

    def test_betti_single_edge(self):
        assert betti(from_edge_list(2, [(0, 1)])) == 0

    def test_components(self):
        assert components(k5()) == 1
        assert components(from_edge_list(4, [(0, 1), (2, 3)])) == 2
        assert components(from_edge_list(1, [(0, 0)])) == 1

    def test_degree_sum_is_twice_edges(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_connected_multigraph(rng)
            total = sum(g.degree(v) for v in range(g.n_vertices))
            assert total == 2 * g.n_edges
            assert betti(g) == g.n_edges - g.n_vertices + components(g)


class TestChop:
    def test_k5_chop_2_2_gives_first_partner(self):
        g = k5()
        cls = g.vertices[4]
        chopped = chop_vertex(g, 4, [cls[:2], cls[2:]])
        assert metric_isomorphic(chopped, catalog("Gamma1"))

    def test_k5_chop_1_3_gives_second_partner(self):
        g = k5()
        cls = g.vertices[4]
        chopped = chop_vertex(g, 4, [cls[:1], cls[1:]])
        assert metric_isomorphic(chopped, catalog("Gamma2"))

    def test_chop_on_cycle_lowers_betti(self):
        cycle = from_edge_list(3, [(0, 1), (1, 2), (2, 0)])
        cls = cycle.vertices[1]
        split = chop_vertex(cycle, 1, [cls[:1], cls[1:]])
        assert betti(cycle) == 1 and betti(split) == 0

    def test_bad_partition(self):
        g = k5()
        cls = g.vertices[4]
        with pytest.raises(GraphError, match="not a partition"):
            chop_vertex(g, 4, [cls[:2], cls[:2]])
        with pytest.raises(GraphError, match="not a partition"):
            chop_vertex(g, 4, [cls])

    def test_vertex_out_of_range(self):
        g = replace(k5(), contacts=(4,))
        cls = g.vertices[4]
        for v in (-1, 5):
            with pytest.raises(GraphError, match="out of range"):
                chop_vertex(g, v, [cls[:2], cls[2:]])

    def test_contact_status_dropped(self):
        g = replace(k5(), contacts=(4,))
        cls = g.vertices[4]
        assert chop_vertex(g, 4, [cls[:2], cls[2:]]).contacts == ()

    def test_chop_then_merge_is_identity_on_shadow(self):
        g = k5()
        cls = g.vertices[4]
        chopped = chop_vertex(g, 4, [cls[:2], cls[2:]])
        restored = merge_vertices(chopped, (4, 5))
        assert canonical_form(to_discrete(restored)) == canonical_form(to_discrete(g))


class TestGlue:
    def test_k4_plus_4star_is_k5(self):
        glued = glue(catalog("K4"), catalog("S4"), [(i, i) for i in range(4)])
        assert metric_isomorphic(glued, k5())

    def test_two_edges_make_path(self):
        e = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        path = glue(e, e, [(1, 0)])
        assert metric_isomorphic(path, from_edge_list(3, [(0, 1), (1, 2)]))
        assert len(path.contacts) == 3  # merged + two unpaired ends

    def test_repeated_contact_rejected(self):
        e = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        with pytest.raises(GraphError, match="repeated contact"):
            glue(e, e, [(0, 0), (0, 1)])

    def test_contact_order(self):
        e = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        glued = glue(e, e, [(1, 0)])
        # merged vertex first, then unpaired g1 contact, then unpaired g2
        assert glued.contacts[0] == 1
        assert glued.contacts[1] == 0


class TestSubdivideSuppress:
    def test_unit_edge_halved(self):
        g = subdivide_edge(from_edge_list(2, [(0, 1)]), 0, Fraction(1, 2))
        assert sorted(g.lengths) == [Fraction(1, 2), Fraction(1, 2)]
        assert g.n_vertices == 3

    def test_loop_split_to_two_cycle(self):
        g = subdivide_edge(from_edge_list(1, [(0, 0, 2)]), 0, 1)
        assert metric_isomorphic(g, from_edge_list(2, [(0, 1), (0, 1)]))

    def test_out_of_range(self):
        with pytest.raises(GraphError, match="outside"):
            subdivide_edge(from_edge_list(2, [(0, 1)]), 0, 1)

    def test_edge_index_out_of_range(self):
        # a negative index would silently split the last edge
        g = from_edge_list(3, [(0, 1, 2), (1, 2, 3)])
        for e in (-1, 2):
            with pytest.raises(GraphError, match=f"^edge index {e} out of range$"):
                subdivide_edge(g, e, 1)

    def test_suppress_restores_edge(self):
        g = subdivide_edge(from_edge_list(2, [(0, 1)]), 0, Fraction(1, 2))
        assert metric_isomorphic(suppress_degree2(g), from_edge_list(2, [(0, 1)]))

    def test_suppress_keeps_isolated_cycle(self):
        loop = from_edge_list(1, [(0, 0, 3)])
        assert suppress_degree2(loop) == loop
        two_cycle = from_edge_list(2, [(0, 1), (0, 1)])
        collapsed = suppress_degree2(two_cycle)
        assert collapsed.n_edges == 1 and betti(collapsed) == 1

    def test_suppress_respects_contacts(self):
        path = from_edge_list(3, [(0, 1), (1, 2)], contacts=(1,))
        assert suppress_degree2(path) == path

    def test_subdivide_then_suppress_identity(self):
        rng = random.Random(17)
        for _ in range(20):
            g = suppress_degree2(random_connected_multigraph(rng))
            e = rng.randrange(g.n_edges)
            again = suppress_degree2(subdivide_edge(g, e, g.lengths[e] / 2))
            assert metric_isomorphic(again, g)

    def test_unit_subdivision(self):
        g = from_edge_list(2, [(0, 1, 3)])
        u = unit_subdivided(g)
        assert u.n_edges == 3 and u.is_unilateral
        with pytest.raises(GraphError, match="not an integer"):
            unit_subdivided(from_edge_list(2, [(0, 1, Fraction(1, 2))]))

    def test_unit_subdivision_budget(self, monkeypatch):
        g = from_edge_list(2, [(0, 1, 3), (0, 1, 2)])
        monkeypatch.setattr(specgraph.graphs, "MAX_UNIT_EDGES", 5)
        assert unit_subdivided(g).n_edges == 5
        monkeypatch.setattr(specgraph.graphs, "MAX_UNIT_EDGES", 4)
        with pytest.raises(GraphError, match="5 unit edges, above the budget of 4"):
            unit_subdivided(g)


class TestJoinPoints:
    def test_two_midpoints_on_cycle(self):
        cycle = from_edge_list(2, [(0, 1, 2), (0, 1, 2)], contacts=(0, 1))
        eight = join_points(cycle, [(0, 1), (1, 1)])
        assert eight.n_vertices == 3 and eight.n_edges == 4
        assert eight.contacts == (0, 1)
        degrees = sorted(eight.degree(v) for v in range(3))
        assert degrees == [2, 2, 4]

    def test_same_edge_join_creates_loop(self):
        g = from_edge_list(2, [(0, 1, 4)])
        joined = join_points(g, [(0, 1), (0, 3)])
        assert betti(joined) == betti(g) + 1

    def test_parallel_edges_equal_offsets(self):
        g = from_edge_list(2, [(0, 1), (0, 1)])
        theta = join_points(g, [(0, Fraction(1, 2)), (1, Fraction(1, 2))])
        assert sorted(theta.degree(v) for v in range(theta.n_vertices)) == [2, 2, 4]

    def test_duplicate_point_rejected(self):
        g = from_edge_list(2, [(0, 1, 2)])
        with pytest.raises(GraphError, match="duplicate"):
            join_points(g, [(0, 1), (0, 1)])


class TestDiscrete:
    def test_k5_shadow(self):
        d = to_discrete(k5())
        assert all(d.adj[i][j] == (0 if i == j else 1) for i in range(5) for j in range(5))

    def test_loop_shadow(self):
        assert to_discrete(from_edge_list(1, [(0, 0)])).adj == ((2,),)

    def test_watermelon_stick_degrees(self):
        d = to_discrete(catalog("watermelon_stick_unit"))
        assert sorted(d.degrees(), reverse=True) == [4, 3, 2, 2, 2, 2, 1]

    def test_metric_round_trip(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_connected_multigraph(rng)
            d = to_discrete(g)
            assert to_discrete(metric_from_discrete(d)) == d

    def test_vertex_bound(self):
        # K4 with every edge of length 20 subdivides to 118 vertices and the
        # 8x8 grid has 64: both keep their exact keys
        k4 = from_edge_list(4, [(u, v, 20) for u, v in combinations(range(4), 2)])
        assert to_discrete(unit_subdivided(k4)).n == 118
        grid = [(r * 8 + c, r * 8 + c + 1) for r in range(8) for c in range(7)]
        grid += [(r * 8 + c, r * 8 + c + 8) for r in range(7) for c in range(8)]
        assert to_discrete(from_edge_list(64, grid)).n == 64
        assert to_discrete(unit_subdivided(from_edge_list(2, [(0, 1, 119)]))).n == 120
        with pytest.raises(GraphError, match="121 vertices, above the bound of 120"):
            to_discrete(unit_subdivided(from_edge_list(2, [(0, 1, 120)])))

    def test_invalid_adj_rejected(self):
        with pytest.raises(GraphError, match="odd diagonal"):
            discrete_from_adj([[1]])
        with pytest.raises(GraphError, match="not symmetric"):
            discrete_from_adj([[0, 1], [0, 0]])
        # the exact keys assume nonnegative int entries: a negative diagonal
        # gave degrees (-1, 3), a float entry crashed ln_charpoly later
        with pytest.raises(GraphError, match="negative diagonal"):
            discrete_from_adj([[-2, 1], [1, 2]])
        for adj in ([[0, 1.0], [1.0, 0]], [[0, 1.0], [1, 0]], [[2.0]]):
            with pytest.raises(GraphError, match="must be integers"):
                discrete_from_adj(adj)

    @pytest.mark.parametrize("adj", [[[0, 1], [1, 0]], ((0, 1), [1, 0]), [(0, 1), (1, 0)]])
    def test_adjacency_must_be_tuples(self, adj):
        # a list built a graph whose ln_charpoly raised TypeError:
        # unhashable type: 'list'
        with pytest.raises(GraphError, match="^adjacency matrix and every row must be tuples$"):
            DiscreteGraph(2, adj)


class TestCanonicalForm:
    def test_relabelled_path_equal(self):
        p1 = discrete_from_adj([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        p2 = discrete_from_adj([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
        assert canonical_form(p1) == canonical_form(p2)

    def test_path_vs_triangle_differ(self):
        path = discrete_from_adj([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        tri = discrete_from_adj([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert canonical_form(path) != canonical_form(tri)

    def test_bound(self):
        big = discrete_from_adj([[0] * 9 for _ in range(9)])
        with pytest.raises(GraphError, match="bound exceeded"):
            canonical_form(big)

    def test_permutation_invariance(self):
        rng = random.Random(31)
        g = random_connected_multigraph(rng, n_min=5, n_max=6)
        d = to_discrete(g)
        base = canonical_form(d)
        for _ in range(100):
            perm = list(range(d.n))
            rng.shuffle(perm)
            shuffled = discrete_from_adj(
                [[d.adj[perm[i]][perm[j]] for j in range(d.n)] for i in range(d.n)])
            assert canonical_form(shuffled) == base

    def test_twin_and_leaf_automorphisms(self):
        # every pair of K4 vertices is a twin pair; C6 has no twins, so its
        # automorphisms come from leaves with equal encodings
        k4 = discrete_from_adj([[int(i != j) for j in range(4)] for i in range(4)])
        generators = automorphism_generators(k4)
        assert generators
        assert all(sum(p[i] != i for i in range(4)) == 2 for p in generators)
        c6 = discrete_from_adj([[int((i - j) % 6 in (1, 5)) for j in range(6)]
                                for i in range(6)])
        generators = automorphism_generators(c6)
        assert all(c6.adj[p[i]][p[j]] == c6.adj[i][j] for p in generators
                   for i in range(6) for j in range(6))
        assert {0} | {p[0] for p in generators} == set(range(6))

    def test_multiplicity_above_byte_rejected(self):
        with pytest.raises(GraphError, match="multiplicity too large"):
            canonical_form(discrete_from_adj([[0, 256], [256, 0]]))


def random_multigraph_adj(rng: random.Random, n: int, draws: int) -> list[list[int]]:
    """n vertices and `draws` random vertex pairs, each adding an edge (a
    loop when u == v, which the two increments count twice)."""
    adj = [[0] * n for _ in range(n)]
    for _ in range(draws):
        u, v = rng.randrange(n), rng.randrange(n)
        adj[u][v] += 1
        adj[v][u] += 1
    return adj


class TestCanonicalFormOracle:
    def test_matches_brute_force_and_relabelling(self):
        rng = random.Random(1998)
        seen = {"loop": 0, "parallel": 0, "disconnected": 0, "edgeless": 0, "n7": 0}
        for _ in range(520):
            n = rng.randint(1, 7)
            draws = 0 if rng.random() < 0.08 else rng.randint(1, 3 * n)
            d = discrete_from_adj(random_multigraph_adj(rng, n, draws))
            seen["loop"] += any(d.adj[v][v] for v in range(n))
            seen["parallel"] += any(d.adj[u][v] > 1 for u in range(n) for v in range(u))
            seen["disconnected"] += discrete_components(d) > 1
            seen["edgeless"] += d.n_edges == 0
            seen["n7"] += n == 7
            form = canonical_form(d)
            assert form == brute_force_canonical_form(d), d.adj
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = discrete_from_adj(
                [[d.adj[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
            assert canonical_form(shuffled) == form, d.adj
        assert min(seen.values()) >= 20, seen

    def test_empty_graph(self):
        assert canonical_form(discrete_from_adj([])) == b""


class TestTextFormat:
    def test_round_trip(self):
        g = catalog("Gamma1")
        assert parse_graph(format_graph(g, "x")) == g

    def test_parse_lengths_and_contacts(self):
        text = """# a two-edge cycle
graph cycle
vertex a contact
vertex b contact
edge a b 2
edge a b 4/2
"""
        g = parse_graph(text)
        assert g.lengths == (Fraction(2), Fraction(2))
        assert g.contacts == (0, 1)

    def test_unknown_directive(self):
        with pytest.raises(GraphFormatError, match="line 2: unknown directive"):
            parse_graph("graph g\nfoo bar\n")

    def test_undeclared_vertex(self):
        with pytest.raises(GraphFormatError, match="line 3: undeclared vertex"):
            parse_graph("graph g\nvertex a\nedge a b\n")

    def test_nonpositive_length(self):
        with pytest.raises(GraphFormatError, match="line 4: bad length"):
            parse_graph("graph g\nvertex a\nvertex b\nedge a b 0\n")

    def test_missing_graph_line(self):
        with pytest.raises(GraphFormatError, match="missing graph directive"):
            parse_graph("vertex a\nvertex b\nedge a b\n")

    @pytest.mark.parametrize("text, message", [
        ("graph\n", "line 1: graph needs exactly one name"),
        ("graph g\nvertex a boundary\n", "line 2: bad vertex directive"),
        ("graph g\nvertex a\n# b\nvertex a\n", "line 4: duplicate vertex id 'a'"),
        ("graph g\nvertex a\nedge a\n", "line 3: bad edge directive"),
        ("graph g\nvertex a\nedge a b\n", "line 3: undeclared vertex id 'b'"),
        ("graph g\nvertex a\nvertex b\nedge a b -2\n",
         "line 4: bad length (nonpositive length -2)"),
        ("graph g\nvertex a\nvertex b\nedge a b 1/0\n",
         "line 4: bad length (Fraction(1, 0))"),
        ("graph g\nvertex a\nvertex b\nedge a b x\n",
         "line 4: bad length (Invalid literal for Fraction: 'x')"),
        ("graph g\nfoo bar\n", "line 2: unknown directive 'foo'"),
        ("vertex a\n", "line 1: missing graph directive"),
        ("graph g\nvertex a\n", "graph has no edges"),
        ("graph g\nvertex a\nvertex b\nvertex c contact\nvertex d\nedge a b\n",
         "isolated vertex ids: c, d")])
    def test_error_messages(self, text, message):
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) == message

    def test_parse_equals_edge_list(self):
        text = ("graph g\nvertex a\nvertex b contact\nvertex c contact\n"
                "edge b a 3/2\nedge a a\nedge c b 2\n")
        g = parse_graph(text)
        assert g == from_edge_list(3, [(1, 0, "3/2"), (0, 0), (2, 1, 2)], contacts=(1, 2))
        assert all(type(l) is Fraction for l in g.lengths)


class TestUnionHelpers:
    def test_disjoint_union_contacts(self):
        e = from_edge_list(2, [(0, 1)], contacts=(0,))
        u = disjoint_union(e, e)
        assert u.contacts == (0, 2)
        assert components(u) == 2

    def test_merge_contact_survives(self):
        u = disjoint_union(from_edge_list(2, [(0, 1)], contacts=(0,)),
                           from_edge_list(2, [(0, 1)]))
        merged = merge_vertices(u, (0, 2))
        assert merged.contacts == (0,)
        assert merged.degree(0) == 2


K2 = from_edge_list(2, [(0, 1)], contacts=(0, 1))


@pytest.mark.parametrize("call, message", [
    (lambda: merge_vertices(K2, (0, 0)), "need at least two distinct vertices to merge"),
    (lambda: merge_vertices(K2, (0, 2)), "vertex index out of range"),
    (lambda: glue(K2, K2, [(2, 0)]), "pairing refers to missing contact of first graph"),
    (lambda: glue(K2, K2, [(0, 2)]), "pairing refers to missing contact of second graph"),
    (lambda: join_points(K2, [(0, "1/2")]), "need at least two points to join"),
    (lambda: join_points(K2, [(0, "1/2"), (0, "1/2")]), "duplicate point"),
    (lambda: join_points(K2, [(0, "1/2"), (1, "1/2")]), "edge index 1 out of range"),
    (lambda: join_points(K2, [(0, "1/2"), (0, 1)]), "offset 1 outside edge 0"),
    (lambda: scale_lengths(K2, 0), "scale factor must be positive"),
    (lambda: DiscreteGraph(2, ((0, 1),)), "adjacency matrix has wrong shape"),
    (lambda: discrete_from_adj([[0, -1], [-1, 0]]), "negative multiplicity"),
    (lambda: metric_from_discrete(discrete_from_adj([[0]])), "discrete graph has no edges"),
])
def test_bad_input_raises(call, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        call()
