import math
import random
from itertools import combinations_with_replacement, permutations

import pytest

from specgraph import (GraphError, canonical_form, catalog, classify,
                       discrete_from_adj, enumerate_connected_multi,
                       enumerate_connected_simple, to_discrete)
from specgraph.graphs import DiscreteGraph, discrete_components

from kernel_oracles import brute_force_canonical_form


def labeled_connected_count(n: int) -> int:
    """Classic recurrence for the number of connected labeled simple graphs."""
    total = [2 ** (k * (k - 1) // 2) for k in range(n + 1)]
    conn = [0] * (n + 1)
    conn[1] = 1
    for k in range(2, n + 1):
        conn[k] = total[k]
        for j in range(1, k):
            conn[k] -= math.comb(k - 1, j - 1) * conn[j] * total[k - j]
    return conn[n]


def automorphism_count(d: DiscreteGraph) -> int:
    return sum(
        1 for perm in permutations(range(d.n))
        if all(d.adj[perm[i]][perm[j]] == d.adj[i][j]
               for i in range(d.n) for j in range(d.n)))


class TestEnumerateSimple:
    def test_small_counts(self):
        assert sum(1 for _ in enumerate_connected_simple(1)) == 1
        assert sum(1 for _ in enumerate_connected_simple(2)) == 1
        assert sum(1 for _ in enumerate_connected_simple(3)) == 2
        assert sum(1 for _ in enumerate_connected_simple(4)) == 6
        assert sum(1 for _ in enumerate_connected_simple(5)) == 21

    def test_n6_count_and_orbit_identity(self):
        graphs = list(enumerate_connected_simple(6))
        assert len(graphs) == 112
        # completeness and non-duplication: sum of orbit sizes over the
        # classes must equal the labeled connected count
        orbit_total = sum(math.factorial(6) // automorphism_count(d) for d in graphs)
        assert orbit_total == labeled_connected_count(6)

    def test_orbit_identity_n5(self):
        graphs = list(enumerate_connected_simple(5))
        orbit_total = sum(math.factorial(5) // automorphism_count(d) for d in graphs)
        assert orbit_total == labeled_connected_count(5)

    def test_no_isomorphic_duplicates(self):
        graphs = list(enumerate_connected_simple(5))
        forms = [canonical_form(d) for d in graphs]
        assert len(set(forms)) == len(forms)

    def test_bound(self):
        with pytest.raises(GraphError, match="enumeration bound"):
            list(enumerate_connected_simple(8))

    def test_counts_and_n7_classes_match_graph_atlas(self):
        nx = pytest.importorskip("networkx")
        atlas: dict[int, list[bytes]] = {}
        for g in nx.graph_atlas_g()[1:]:
            if nx.is_connected(g):
                adj = nx.to_numpy_array(g, nodelist=sorted(g), dtype=int).tolist()
                atlas.setdefault(g.number_of_nodes(), []).append(
                    canonical_form(discrete_from_adj(adj)))
        for n, count in enumerate([1, 1, 2, 6, 21, 112, 853], start=1):
            forms = [canonical_form(d) for d in enumerate_connected_simple(n)]
            assert len(set(forms)) == len(forms) == len(atlas[n]) == count
            assert set(forms) == set(atlas[n])


class TestEnumerateMulti:
    def test_single_vertex_loops(self):
        graphs = list(enumerate_connected_multi(1, 2))
        assert len(graphs) == 2
        assert {d.n_edges for d in graphs} == {1, 2}

    def test_two_vertices_contains_watermelon(self):
        graphs = list(enumerate_connected_multi(2, 3))
        watermelon = discrete_from_adj([[0, 3], [3, 0]])
        target = canonical_form(watermelon)
        assert any(canonical_form(d) == target for d in graphs)

    def test_no_duplicates_and_all_connected(self):
        graphs = list(enumerate_connected_multi(3, 5, edge_bound=5))
        forms = [canonical_form(d) for d in graphs]
        assert len(set(forms)) == len(forms)
        assert all(discrete_components(d) == 1 for d in graphs)
        assert all(d.n == 3 and d.n_edges <= 5 for d in graphs)

    def test_bounds(self):
        with pytest.raises(GraphError, match="enumeration bound"):
            list(enumerate_connected_multi(5, 3))
        with pytest.raises(GraphError, match="enumeration bound"):
            list(enumerate_connected_multi(2, 9))

    @pytest.mark.parametrize("n, m_max, classes", [(1, 5, 5), (2, 6, 34), (3, 6, 93),
                                                   (4, 6, 149), (5, 5, 23)])
    def test_classes_match_labelled_brute_force(self, n, m_max, classes):
        # every labelled multigraph is a multiset of 1..m_max slots (u <= v)
        slots = [(u, v) for u in range(n) for v in range(u, n)]
        expected = set()
        for m in range(1, m_max + 1):
            for edges in combinations_with_replacement(slots, m):
                adj = [[0] * n for _ in range(n)]
                for u, v in edges:
                    adj[u][v] += 1
                    adj[v][u] += 1
                d = discrete_from_adj(adj)
                if discrete_components(d) == 1:
                    expected.add(brute_force_canonical_form(d))
        forms = [canonical_form(d) for d in enumerate_connected_multi(n, m_max, vertex_bound=5)]
        assert len(forms) == len(set(forms)) == len(expected) == classes
        assert set(forms) == expected

    def test_unit_shadows_of_simplest_pair_appear(self):
        # needs the vertex bound raised beyond the default
        targets = {canonical_form(to_discrete(catalog("figure_eight_unit"))),
                   canonical_form(to_discrete(catalog("watermelon_stick_unit")))}
        found = set()
        for d in enumerate_connected_multi(7, 8, vertex_bound=7):
            key = canonical_form(d)
            if key in targets:
                found.add(key)
        assert found == targets


class TestClassify:
    def test_up_to_five_vertices_all_singletons(self):
        for n in range(2, 6):
            families = classify(enumerate_connected_simple(n), "secular")
            assert all(f.size == 1 for f in families)

    def test_six_vertices_has_the_known_pair(self):
        graphs = list(enumerate_connected_simple(6))
        families = classify(graphs, "secular")
        assert sum(f.size for f in families) == 112
        pairs = [f for f in families if f.size > 1]
        assert len(pairs) == 1
        fam = pairs[0]
        target = {canonical_form(to_discrete(catalog("Gamma1"))),
                  canonical_form(to_discrete(catalog("Gamma2")))}
        assert set(fam.members) == target
        assert fam.betti == (5, 5)

    def test_members_share_key_exactly(self):
        from specgraph.search import _spectral_key

        graphs = list(enumerate_connected_simple(4))
        for key in ("secular", "ln"):
            for fam in classify(graphs, key):
                assert fam.size == len(fam.members) == len(fam.betti)
                for member in fam.members:
                    # members are row-major adjacency encodings
                    n = round(math.sqrt(len(member)))
                    adj = [[member[i * n + j] for j in range(n)] for i in range(n)]
                    assert _spectral_key(discrete_from_adj(adj), key) == fam.key

    def test_ln_families_with_equal_betti_match_secular(self):
        graphs = list(enumerate_connected_simple(5))
        secular_map = {}
        for fam in classify(graphs, "secular"):
            for member in fam.members:
                secular_map[member] = fam.key
        for fam in classify(graphs, "ln"):
            for i in range(fam.size):
                for j in range(i + 1, fam.size):
                    same_metric = (secular_map[fam.members[i]]
                                   == secular_map[fam.members[j]])
                    same_betti = fam.betti[i] == fam.betti[j]
                    assert same_metric == same_betti

    def test_relabelling_does_not_split_families(self):
        rng = random.Random(89)
        graphs = list(enumerate_connected_simple(5))
        shuffled = []
        for d in graphs:
            perm = list(range(d.n))
            rng.shuffle(perm)
            shuffled.append(discrete_from_adj(
                [[d.adj[perm[i]][perm[j]] for j in range(d.n)] for i in range(d.n)]))
        original = classify(graphs, "ln")
        relabelled = classify(shuffled, "ln")
        assert [(f.key, f.members) for f in original] == \
            [(f.key, f.members) for f in relabelled]

    def test_job_count_does_not_change_result(self):
        graphs = list(enumerate_connected_simple(5))
        seq = classify(graphs, "secular", jobs=1)
        par = classify(graphs, "secular", jobs=3)
        assert seq == par
