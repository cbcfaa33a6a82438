import random
from fractions import Fraction
from itertools import combinations

import pytest

from specgraph import (GraphError, GraphFormatError, MetricGraph,
                       betti, canonical_form, chop_vertex, components,
                       discrete_from_adj, disjoint_union, format_graph,
                       from_edge_list, glue, join_points, merge_vertices,
                       metric_from_discrete, metric_isomorphic, parse_graph,
                       subdivide_edge, suppress_degree2, to_discrete,
                       unit_subdivided, validate)
from specgraph.constructions import catalog
from specgraph.graphs import discrete_components

from conftest import random_connected_multigraph
from kernel_oracles import brute_force_canonical_form


def k5():
    return from_edge_list(5, list(combinations(range(5), 2)))


class TestValidate:
    def test_single_edge_ok(self):
        assert validate(from_edge_list(2, [(0, 1)])) == []

    def test_endpoint_in_two_classes(self):
        g = MetricGraph((Fraction(1),), ((0, 1), (1,)), ())
        assert any("multiple classes" in p for p in validate(g))

    def test_nonpositive_length(self):
        g = MetricGraph((Fraction(0),), ((0,), (1,)), ())
        assert any("nonpositive length" in p for p in validate(g))
        with pytest.raises(GraphError, match="nonpositive"):
            from_edge_list(2, [(0, 1, 0)])

    def test_bad_contacts(self):
        g = MetricGraph((Fraction(1),), ((0,), (1,)), (5,))
        assert any("out of range" in p for p in validate(g))
        g = MetricGraph((Fraction(1),), ((0,), (1,)), (0, 0))
        assert any("duplicate contact" in p for p in validate(g))


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
        g = k5().with_contacts([4])
        cls = g.vertices[4]
        for v in (-1, 5):
            with pytest.raises(GraphError, match="out of range"):
                chop_vertex(g, v, [cls[:2], cls[2:]])

    def test_contact_status_dropped(self):
        g = k5().with_contacts([4])
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

    def test_unit_subdivision_budget(self):
        g = from_edge_list(2, [(0, 1, 3), (0, 1, 2)])
        assert unit_subdivided(g, max_unit_edges=5).n_edges == 5
        with pytest.raises(GraphError, match="5 unit edges, above the budget of 4"):
            unit_subdivided(g, max_unit_edges=4)


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

    def test_invalid_adj_rejected(self):
        with pytest.raises(GraphError, match="odd diagonal"):
            discrete_from_adj([[1]])
        with pytest.raises(GraphError, match="not symmetric"):
            discrete_from_adj([[0, 1], [0, 0]])


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
