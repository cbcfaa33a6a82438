import math
import random
import re
from itertools import combinations, combinations_with_replacement, permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specgraph.graphs
import specgraph.search
from specgraph import (GraphError, canonical_form, catalog, classify,
                       discrete_from_adj, enumerate_connected_multi,
                       enumerate_connected_simple, ln_charpoly, to_discrete)
from specgraph.graphs import DiscreteGraph, discrete_components

from kernel_oracles import brute_force_canonical_form, expanded_secular_poly, reference_grow


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
            list(enumerate_connected_simple(9))

    def test_bound_is_inclusive(self, monkeypatch):
        # n = SIMPLE_BOUND runs; CI's n = 8 search is the only run at the
        # real bound, so a lowered bound checks the edge here
        monkeypatch.setattr(specgraph.search, "SIMPLE_BOUND", 4)
        assert sum(1 for _ in enumerate_connected_simple(4)) == 6
        with pytest.raises(GraphError, match="^enumeration bound: n <= 4$"):
            list(enumerate_connected_simple(5))

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

    @pytest.mark.slow
    @pytest.mark.filterwarnings("ignore:The hashes produced for graphs without node or "
                                "edge attributes changed:UserWarning")
    def test_n8_classes_pairwise_non_isomorphic(self):
        graphs = list(enumerate_connected_simple(8))
        assert len(graphs) == 11117  # OEIS A001349
        buckets: dict[str, list[nx.Graph]] = {}
        for d in graphs:
            g = nx.Graph()
            g.add_nodes_from(range(8))
            g.add_edges_from((u, v) for u, v in combinations(range(8), 2) if d.adj[u][v])
            buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g), []).append(g)
        pairs = [(g, h) for bucket in buckets.values() for g, h in combinations(bucket, 2)]
        assert pairs  # Weisfeiler-Lehman leaves some classes for the exact test
        assert not any(nx.is_isomorphic(g, h) for g, h in pairs)
        # 8! orderings take about 0.3 s per graph
        for d in random.Random(8).sample(graphs, 20):
            assert canonical_form(d) == brute_force_canonical_form(d), d.adj


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

    def test_no_duplicates_and_all_connected(self, monkeypatch):
        monkeypatch.setattr(specgraph.search, "MULTI_EDGE_BOUND", 5)
        graphs = list(enumerate_connected_multi(3, 5))
        forms = [canonical_form(d) for d in graphs]
        assert len(set(forms)) == len(forms)
        assert all(discrete_components(d) == 1 for d in graphs)
        assert all(d.n == 3 and d.n_edges <= 5 for d in graphs)

    def test_bounds(self):
        with pytest.raises(GraphError, match="enumeration bound"):
            list(enumerate_connected_multi(5, 3))
        with pytest.raises(GraphError, match="enumeration bound"):
            list(enumerate_connected_multi(2, 9))

    def test_canonical_bound_checked_before_growth(self, monkeypatch):
        # raised bounds cannot take n past what canonical forms support;
        # the check comes before a single graph is built
        built = []
        monkeypatch.setattr(specgraph.search, "discrete_from_adj",
                            lambda adj: built.append(adj))
        monkeypatch.setattr(specgraph.search, "MULTI_VERTEX_BOUND", 9)
        monkeypatch.setattr(specgraph.search, "MULTI_EDGE_BOUND", 10)
        with pytest.raises(GraphError, match="enumeration bound"):
            next(enumerate_connected_multi(9, 10))
        assert built == []

    def test_canonical_bound_read_at_call_time(self, monkeypatch):
        # a lowered bound in graphs is the one the up-front check reads
        built = []
        monkeypatch.setattr(specgraph.search, "discrete_from_adj",
                            lambda adj: built.append(adj))
        monkeypatch.setattr(specgraph.graphs, "CANONICAL_BOUND", 3)
        with pytest.raises(GraphError, match="canonical forms need n <= 3, got 4"):
            next(enumerate_connected_multi(4, 5))
        assert built == []

    @pytest.mark.parametrize("n, m_max, classes", [(1, 5, 5), (2, 6, 34), (3, 6, 93),
                                                   (4, 6, 149), (5, 5, 23)])
    def test_classes_match_labelled_brute_force(self, n, m_max, classes, monkeypatch):
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
        monkeypatch.setattr(specgraph.search, "MULTI_VERTEX_BOUND", 5)
        forms = [canonical_form(d) for d in enumerate_connected_multi(n, m_max)]
        assert len(forms) == len(set(forms)) == len(expected) == classes
        assert set(forms) == expected

    def test_unit_shadows_of_simplest_pair_appear(self, monkeypatch):
        # needs the vertex bound raised beyond the default
        monkeypatch.setattr(specgraph.search, "MULTI_VERTEX_BOUND", 7)
        targets = {canonical_form(to_discrete(catalog("figure_eight_unit"))),
                   canonical_form(to_discrete(catalog("watermelon_stick_unit")))}
        found = set()
        for d in enumerate_connected_multi(7, 8):
            key = canonical_form(d)
            if key in targets:
                found.add(key)
        assert found == targets


class TestOrbitPruning:
    # ties in f are common among the multigraphs of (4, 8) and (5, 6)
    @pytest.mark.parametrize("n, m_max, multi",
                             [(n, n * (n - 1) // 2, False) for n in range(1, 8)]
                             + [(3, 6, True), (4, 7, True), (4, 8, True), (5, 6, True)])
    def test_same_forms_as_unpruned_reference(self, n, m_max, multi, monkeypatch):
        monkeypatch.setattr(specgraph.search, "MULTI_VERTEX_BOUND", 5)
        pruned = (enumerate_connected_multi(n, m_max) if multi
                  else enumerate_connected_simple(n))
        assert ([canonical_form(d) for d in pruned]
                == [canonical_form(d) for d in reference_grow(n, m_max, multi)])


@st.composite
def connected_multigraphs(draw):
    """Edge list of a connected multigraph on 2-6 vertices: a random
    spanning tree plus loops and parallel edges."""
    n = draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    return n, edges


class TestAugmentationFilter:
    @pytest.mark.parametrize("enumerate_, bound", [
        (lambda: enumerate_connected_simple(6), 150),
        (lambda: enumerate_connected_multi(4, 7), 560),
        (lambda: enumerate_connected_simple(7), 1100)], ids=["simple-6", "multi-4-7", "simple-7"])
    def test_canonical_search_count(self, enumerate_, bound, monkeypatch):
        # children the filter drops are never canonicalized
        calls = []
        canonical_search = specgraph.graphs._canonical_search
        monkeypatch.setattr(specgraph.graphs, "_canonical_search",
                            lambda d: calls.append(d) or canonical_search(d))
        list(enumerate_())
        assert len(calls) <= bound

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(connected_multigraphs())
    def test_accepts_exactly_a_largest_non_cut_vertex(self, graph):
        n, edges = graph
        g = nx.MultiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        # networkx counts a loop twice in a degree, as the adjacency does
        f = {v: (g.degree(v), 2 * g.number_of_edges(v, v),
                 tuple(sorted(g.degree(u) for _, u in g.edges(v) if u != v)))
             for v in g}
        non_cut = [v for v in g if nx.is_connected(g.subgraph(set(g) - {v}))]
        adj = [[0] * n for _ in range(n)]
        for u, v in edges:
            adj[u][v] += 1
            adj[v][u] += 1
        for v in range(n):
            order = [u for u in range(n) if u != v] + [v]
            last = [tuple(adj[i][j] for j in order) for i in order]
            accepted = specgraph.search._may_delete_last(last)
            if v in non_cut:
                assert accepted == (f[v] == max(f[u] for u in non_cut))
            else:
                # a child's new vertex is never a cut vertex; the filter
                # then looks only at the other vertices
                assert accepted == all(f[u] <= f[v] for u in non_cut)


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
        # each member's own line, the secular one expanded by the oracle
        lines = {"secular": lambda d: expanded_secular_poly(d).line(),
                 "ln": lambda d: ln_charpoly(d).line("lncp")}
        graphs = list(enumerate_connected_simple(4))
        for key in ("secular", "ln"):
            for fam in classify(graphs, key):
                assert fam.size == len(fam.members) == len(fam.betti)
                for member in fam.members:
                    # members are row-major adjacency encodings
                    n = round(math.sqrt(len(member)))
                    adj = [[member[i * n + j] for j in range(n)] for i in range(n)]
                    assert lines[key](discrete_from_adj(adj)) == fam.key

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

    @pytest.mark.parametrize("key", ["secular", "ln"])
    def test_relabelled_fresh_copies_classify_alike(self, key):
        # enumerated graphs carry the form their enumeration computed;
        # relabelled copies are new objects that compute their own
        rng = random.Random(1014)
        graphs = list(enumerate_connected_simple(5))
        copies = []
        for d in graphs:
            perm = list(range(d.n))
            rng.shuffle(perm)
            copies.append(discrete_from_adj(
                [[d.adj[perm[i]][perm[j]] for j in range(d.n)] for i in range(d.n)]))
        rng.shuffle(copies)
        assert all("_canonical" in vars(d) for d in graphs)
        assert not any("_canonical" in vars(d) for d in copies)
        assert classify(copies, key) == classify(graphs, key)



@pytest.mark.parametrize("call, message", [
    (lambda: list(enumerate_connected_simple(0)), "need at least one vertex"),
    (lambda: classify([discrete_from_adj([[0, 1], [1, 0]])], "tutte"),
     "unknown spectral key 'tutte'"),
    # the secular key of a shadow with an isolated vertex, which no metric
    # graph has
    (lambda: classify([discrete_from_adj([[0, 1, 0], [1, 0, 0], [0, 0, 0]])], "secular"),
     "every vertex must meet at least one edge endpoint"),
])
def test_bad_input_raises(call, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        call()
