import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from specgraph import (ComposedHost, GraphError, Slot, assemble, betti,
                       build_clarifying_example, canonical_form, catalog,
                       components, from_edge_list, inner_symmetry_quotient,
                       join_points, method1_extend, method2_exchange,
                       method2_permute, metric_isospectral, scale_lengths,
                       steklov_equivalent, substitute, suppress_degree2,
                       to_discrete)
from specgraph.constructions import CATALOG_IDS

from conftest import random_connected_multigraph
from kernel_oracles import metric_isomorphic


class TestCatalog:
    def test_all_ids_build_valid_graphs(self):
        # the MetricGraph constructor checks every invariant, so building
        # each graph is the check
        for name in CATALOG_IDS:
            assert catalog(name).n_edges > 0, name

    def test_unknown_id(self):
        with pytest.raises(GraphError, match="unknown catalog id"):
            catalog("K9")

    def test_q1_shape(self):
        q1 = catalog("Q1")
        assert q1.n_edges == 4 and q1.n_vertices == 6
        assert len(q1.contacts) == 4

    def test_partners_extend_complete_graph(self):
        from specgraph import chop_vertex
        g1 = catalog("Gamma1")
        k5 = catalog("K5")
        cls = k5.vertices[4]
        chopped = chop_vertex(k5, 4, [cls[:2], cls[2:]])
        assert canonical_form(to_discrete(g1)) == canonical_form(to_discrete(chopped))

    def test_quotient_pair_built_by_joining_midpoints(self):
        cycle = catalog("fig6_cycle")
        assert catalog("fig6_eight") == join_points(cycle, [(0, 1), (1, 1)])

    def test_suppressed_shapes(self):
        eight = suppress_degree2(replace(catalog("Gamma1p"), contacts=()))
        assert metric_isomorphic(eight, from_edge_list(1, [(0, 0, 4), (0, 0, 4)]))
        melon = suppress_degree2(replace(catalog("Gamma2p"), contacts=()))
        target = from_edge_list(3, [(0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 2, 2)])
        assert metric_isomorphic(melon, target)

    def test_unit_forms_match_suppressed_metrics(self):
        f8 = suppress_degree2(replace(catalog("figure_eight_unit"), contacts=()))
        assert metric_isomorphic(f8, from_edge_list(1, [(0, 0, 4), (0, 0, 4)]))


class TestMethod1:
    def test_identical_subgraphs_give_identical_pair(self):
        r = catalog("figure_eight_unit")
        k = from_edge_list(2, [(0, 1)], contacts=(0,))
        g1, g2 = method1_extend(k, r, r, [(0, 0)])
        assert g1 == g2

    def test_quotient_pair_rejected_for_isospectrality(self):
        k = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        with pytest.raises(GraphError, match="not.*isospectral|isospectral"):
            method1_extend(k, catalog("fig6_cycle"), catalog("fig6_eight"),
                           [(0, 0), (1, 1)])

    def test_inequivalent_subgraphs_rejected(self):
        k = from_edge_list(2, [(0, 1)], contacts=(0,))
        with pytest.raises(GraphError, match="Steklov-equivalent"):
            method1_extend(k, replace(catalog("S1"), contacts=(0,)),
                           replace(catalog("S2"), contacts=(0,)), [(0, 0)])

    def test_non_integer_lengths_cannot_be_certified(self):
        # halving both lengths keeps the pair Steklov-equivalent, but the
        # exact secular check needs integer lengths
        half = Fraction(1, 2)
        r1 = scale_lengths(catalog("fig6_cycle"), half)
        r2 = scale_lengths(catalog("fig6_eight"), half)
        assert steklov_equivalent(r1, r2).equivalent
        k = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        with pytest.raises(GraphError) as err:
            method1_extend(k, r1, r2, [(0, 0), (1, 1)])
        assert str(err.value) == (
            "cannot certify the isospectrality hypothesis: edge lengths "
            "are not integers, so the exact secular check is unavailable")

    def test_eight_and_watermelon_extend_any_graph(self):
        r1 = catalog("figure_eight_unit")
        r2 = catalog("watermelon_stick_unit")
        assert steklov_equivalent(r1, r2).equivalent
        assert metric_isospectral(r1, r2)
        rng = random.Random(83)
        for _ in range(3):
            k = random_connected_multigraph(rng, n_min=3, n_max=3, with_contacts=True)
            k = replace(k, contacts=k.contacts[:1])
            g1, g2 = method1_extend(k, r1, r2, [(0, 0)])
            assert metric_isospectral(g1, g2)
            shadows = (sorted(to_discrete(g1).degrees()),
                       sorted(to_discrete(g2).degrees()))
            assert shadows[0] != shadows[1]  # isospectral yet non-isomorphic


class TestMethod2:
    @staticmethod
    def host_with(slot1_graph, slot2_graph):
        # asymmetric frame: the two slots span hops of different length
        frame = from_edge_list(4, [(0, 1), (1, 2), (2, 3)], contacts=(0, 1, 3))
        return ComposedHost(frame, (
            Slot(slot1_graph, ((0, 0), (1, 1))),
            Slot(slot2_graph, ((0, 1), (1, 2))),
        ))

    def test_exchange_is_isospectral_but_not_isomorphic(self):
        host = self.host_with(catalog("fig6_cycle"), catalog("fig6_eight"))
        original = assemble(host)
        swapped = method2_exchange(host, 0, 1)
        assert metric_isospectral(original, swapped)
        s1 = suppress_degree2(replace(original, contacts=()))
        s2 = suppress_degree2(replace(swapped, contacts=()))
        assert not metric_isomorphic(s1, s2)

    def test_exchange_spec_example_frame(self):
        frame = from_edge_list(3, [(0, 1), (1, 2)], contacts=(0, 2))
        host = ComposedHost(frame, (
            Slot(catalog("fig6_cycle"), ((0, 0),)),
            Slot(catalog("fig6_eight"), ((0, 1),)),
        ))
        assert metric_isospectral(assemble(host), method2_exchange(host, 0, 1))

    def test_identity_exchange(self):
        host = self.host_with(catalog("fig6_cycle"), catalog("fig6_cycle"))
        assert method2_exchange(host, 0, 0) == assemble(host)

    def test_inequivalent_slots_rejected(self):
        host = self.host_with(catalog("fig6_cycle"),
                              from_edge_list(2, [(0, 1, 2), (0, 1, 1)],
                                             contacts=(0, 1)))
        with pytest.raises(GraphError, match="not Steklov-equivalent"):
            method2_exchange(host, 0, 1)

    def test_three_slot_cycle(self):
        frame = from_edge_list(4, [(0, 1), (1, 2), (2, 3)], contacts=(0, 1, 2, 3))
        slots = tuple(
            Slot(catalog(name), ((0, pos), (1, pos + 1)))
            for pos, name in enumerate(("fig6_cycle", "fig6_eight", "fig6_cycle")))
        host = ComposedHost(frame, slots)
        family = [assemble(host),
                  method2_permute(host, [1, 2, 0]),
                  method2_permute(host, [2, 0, 1])]
        for i in range(3):
            for j in range(i + 1, 3):
                assert metric_isospectral(family[i], family[j])


class TestClarifyingExample:
    @staticmethod
    def unit_blocks():
        edge2 = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        loop = from_edge_list(1, [(0, 0)], contacts=(0,))
        pendant = from_edge_list(2, [(0, 1)], contacts=(0,))
        return edge2, loop, pendant

    def test_unit_instantiation_isospectral(self):
        edge2, loop, pendant = self.unit_blocks()
        g1, g2 = build_clarifying_example(edge2, edge2, edge2, edge2, loop, pendant)
        assert betti(g1) == betti(g2)
        assert g1.total_length == g2.total_length
        assert components(g1) == components(g2) == 1
        assert metric_isospectral(g1, g2)
        # the split hubs have different degrees, so the pair is not isomorphic
        assert (sorted(to_discrete(g1).degrees())
                != sorted(to_discrete(g2).degrees()))

    def test_degenerate_split_rejected(self):
        edge2, loop, pendant = self.unit_blocks()
        with pytest.raises(GraphError, match="two nonempty parts"):
            build_clarifying_example(edge2, edge2, edge2, edge2, loop, pendant,
                                     splits=((5, 0), (1, 4)))

    def test_contact_count_validation(self):
        edge2, loop, pendant = self.unit_blocks()
        with pytest.raises(GraphError, match="block C must have exactly 2"):
            build_clarifying_example(edge2, edge2, loop, edge2, loop, pendant)

    def test_inequivalent_ab_blocks_rejected(self):
        edge2, loop, pendant = self.unit_blocks()
        double = from_edge_list(2, [(0, 1), (0, 1)], contacts=(0, 1))
        with pytest.raises(GraphError, match="A and B"):
            build_clarifying_example(edge2, double, edge2, edge2, loop, pendant)

    def test_equivalent_pair_as_ab_blocks(self):
        # slow: the pair has 56 unit edges, so the exact determinant is 112x112
        edge2, loop, pendant = self.unit_blocks()
        g1, g2 = build_clarifying_example(catalog("fig6_cycle"), catalog("fig6_eight"),
                                          edge2, edge2, loop, pendant)
        assert metric_isospectral(g1, g2)


class TestSubstitute:
    def test_triangle_of_edges_is_triangle(self):
        edge2 = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        tri = substitute(3, [(0, 1, edge2), (1, 2, edge2), (2, 0, edge2)])
        assert metric_isomorphic(tri, catalog("C3"))

    def test_block_contact_counts_enforced(self):
        loop = from_edge_list(1, [(0, 0)], contacts=(0,))
        with pytest.raises(GraphError, match="exactly 2"):
            substitute(2, [(0, 1, loop)])


class TestInnerSymmetryQuotient:
    def test_symmetric_orbit_passes(self):
        cycle = catalog("fig6_cycle")
        result = inner_symmetry_quotient(cycle, [(0, 1), (1, 1)])
        assert result == catalog("fig6_eight")

    def test_asymmetric_points_refuted(self):
        cycle = catalog("fig6_cycle")
        with pytest.raises(GraphError, match="orbit assertion refuted"):
            inner_symmetry_quotient(cycle, [(0, Fraction(1, 3)), (1, Fraction(1, 2))])

    def test_single_point_rejected(self):
        with pytest.raises(GraphError, match="at least two points"):
            inner_symmetry_quotient(catalog("fig6_cycle"), [(0, 1)])


def _method1_inequivalent():
    k = from_edge_list(2, [(0, 1)], contacts=(0,))
    method1_extend(k, replace(catalog("S1"), contacts=(0,)),
                   replace(catalog("S2"), contacts=(0,)), [(0, 0)])


def _method2_inequivalent():
    host = TestMethod2.host_with(catalog("fig6_cycle"),
                                 from_edge_list(2, [(0, 1, 2), (0, 1, 1)], contacts=(0, 1)))
    method2_exchange(host, 0, 1)


def _clarify_inequivalent():
    edge2, loop, pendant = TestClarifyingExample.unit_blocks()
    double = from_edge_list(2, [(0, 1), (0, 1)], contacts=(0, 1))
    build_clarifying_example(edge2, double, edge2, edge2, loop, pendant)


def _quotient_refuted():
    inner_symmetry_quotient(catalog("fig6_cycle"),
                            [(0, Fraction(1, 3)), (1, Fraction(1, 2))])


@pytest.mark.parametrize("call, message", [
    (_method1_inequivalent,
     "hypothesis failure: graphs are not Steklov-equivalent (max residual 12.2)"),
    (_method2_inequivalent,
     "slots 0 and 1 are not Steklov-equivalent (max residual 6.01)"),
    (_clarify_inequivalent,
     "blocks A and B are not Steklov-equivalent (max residual 2.29)"),
    (_quotient_refuted,
     "orbit assertion refuted: M-functions differ (max residual 0.277)"),
])
def test_certificate_failure_text(call, message):
    with pytest.raises(GraphError) as err:
        call()
    assert str(err.value) == message


EDGE = from_edge_list(2, [(0, 1)], contacts=(0, 1))
LOOP = from_edge_list(1, [(0, 0)], contacts=(0,))


def _host(*slots):
    frame = from_edge_list(3, [(0, 1), (1, 2)], contacts=(0, 1, 2))
    return ComposedHost(frame, tuple(Slot(g, attach) for g, attach in slots))


@pytest.mark.parametrize("call, message", [
    (lambda: _host((EDGE, ((2, 0),))), "slot contact position 2 out of range"),
    (lambda: _host((EDGE, ((0, 3),))), "frame contact position 3 out of range"),
    (lambda: _host((EDGE, ((0, 0), (0, 1)))), "slot contact attached twice"),
    (lambda: _host((EDGE, ((0, 0), (1, 0)))), "one slot needs distinct frame attachment points"),
    (lambda: method2_exchange(_host((EDGE, ((0, 0), (1, 1)))), 0, 1),
     "slot index out of range"),
    (lambda: method2_permute(_host((EDGE, ((0, 0), (1, 1)))), [1]),
     "not a permutation of the slots"),
    (lambda: method2_permute(_host((EDGE, ((0, 0), (1, 1))), (LOOP, ((0, 2),))), [1, 0]),
     "slots 0 and 1 have different contact counts"),
    (lambda: substitute(2, [], [(0, EDGE)]), "pendant block must have exactly 1 contact"),
    (lambda: build_clarifying_example(EDGE, EDGE, EDGE, EDGE, EDGE, LOOP),
     "block E must have exactly 1 contact"),
    (lambda: build_clarifying_example(EDGE, EDGE, EDGE, EDGE, LOOP, EDGE),
     "block F must have exactly 1 contact"),
])
def test_bad_input_raises(call, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        call()
