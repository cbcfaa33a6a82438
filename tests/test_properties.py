"""Invariance properties of the exact keys, the canonical form and the text format.

A relabelled copy of a graph permutes its vertices, reorders its edges
and reverses some of them.  Both exact keys and the canonical form must
not see any of it.  Components and Betti numbers agree between a metric
graph, its discrete shadow and networkx.  The endpoint classes derived
from a graph's edge list partition its endpoints.  The automorphisms
that the canonical search reports are checked against a brute-force
automorphism group.
"""

from fractions import Fraction

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from specgraph import (betti, canonical_form, components, discrete_betti,
                       discrete_components, discrete_from_adj, format_graph,
                       from_edge_list, ln_charpoly, parse_graph, secular_poly, to_discrete)
from specgraph.graphs import automorphism_generators

from kernel_oracles import brute_force_automorphism_orbits, brute_force_canonical_form


@st.composite
def relabelled_pairs(draw):
    """A connected multigraph (loops, parallel edges, lengths 1-2) and a
    relabelled copy of it."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    length = st.integers(1, 2)
    edges = [(draw(st.integers(0, v - 1)), v, draw(length)) for v in range(1, n)]
    edges += draw(st.lists(st.tuples(vertex, vertex, length),
                           min_size=1 if n == 1 else 0, max_size=4))
    perm = draw(st.permutations(range(n)))
    order = draw(st.permutations(range(len(edges))))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    copy = []
    for i in order:
        u, v, l = edges[i]
        copy.append((perm[v], perm[u], l) if flips[i] else (perm[u], perm[v], l))
    return from_edge_list(n, edges), from_edge_list(n, copy)


class TestRelabellingInvariance:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(relabelled_pairs())
    def test_secular_poly(self, pair):
        g, h = pair
        assert secular_poly(g) == secular_poly(h)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(relabelled_pairs())
    def test_ln_charpoly(self, pair):
        g, h = pair
        assert ln_charpoly(to_discrete(g)) == ln_charpoly(to_discrete(h))

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(relabelled_pairs())
    def test_canonical_form(self, pair):
        g, h = pair
        assert canonical_form(to_discrete(g)) == canonical_form(to_discrete(h))


@st.composite
def graphs_with_rational_lengths(draw):
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    length = st.fractions(min_value=Fraction(1, 12), max_value=50, max_denominator=12)
    edges = [(draw(st.integers(0, v - 1)), v, draw(length)) for v in range(1, n)]
    edges += draw(st.lists(st.tuples(vertex, vertex, length),
                           min_size=1 if n == 1 else 0, max_size=4))
    contacts = draw(st.lists(vertex, max_size=n, unique=True))
    return from_edge_list(n, edges, contacts)


class TestTextFormatRoundTrip:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(graphs_with_rational_lengths())
    def test_parse_format_round_trip(self, g):
        # the format lists contacts first, so vertices come back renumbered
        # in that order, contacts as 0..k-1; everything else is kept
        order = list(g.contacts) + [v for v in range(g.n_vertices) if v not in g.contacts]
        pos = {v: i for i, v in enumerate(order)}
        expected = from_edge_list(g.n_vertices,
                                  [(pos[u], pos[v], l) for u, v, l in g.edge_list()],
                                  range(len(g.contacts)))
        parsed = parse_graph(format_graph(g))
        assert parsed == expected
        assert format_graph(parsed) == format_graph(expected)
        if list(g.contacts) == list(range(len(g.contacts))):
            assert parsed == g


@st.composite
def multigraphs(draw):
    """A multigraph, often disconnected, with loops and parallel edges:
    every vertex gets one edge to any vertex (itself included), plus a few
    more."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    edges = [(v, draw(vertex), draw(st.integers(1, 2))) for v in range(n)]
    edges += draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 2)), max_size=4))
    return from_edge_list(n, edges)


class TestComponents:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(multigraphs())
    def test_metric_and_discrete_agree(self, g):
        nxg = nx.MultiGraph()
        nxg.add_nodes_from(range(g.n_vertices))
        nxg.add_edges_from((u, v) for u, v, _ in g.edge_list())
        assert components(g) == discrete_components(to_discrete(g))
        assert components(g) == nx.number_connected_components(nxg)
        assert betti(g) == discrete_betti(to_discrete(g))
        assert betti(g) == g.n_edges - g.n_vertices + nx.number_connected_components(nxg)


class TestDerivedVertices:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(multigraphs())
    def test_vertices_partition_the_endpoints(self, g):
        # endpoint 2i sits at ends[i][0] and 2i+1 at ends[i][1]
        flat = sorted(p for cls in g.vertices for p in cls)
        assert flat == list(range(2 * g.n_edges))
        assert len(g.vertices) == g.n_vertices
        for v, cls in enumerate(g.vertices):
            assert list(cls) == sorted(cls) and cls
            assert all(g.ends[p // 2][p % 2] == v for p in cls)


@st.composite
def adjacency_matrices(draw):
    """A multigraph on at most 6 vertices as a DiscreteGraph, with loops,
    parallel edges and isolated vertices."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(0, n - 1)
    adj = [[0] * n for _ in range(n)]
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)):
        adj[u][v] += 1
        adj[v][u] += 1
    return discrete_from_adj(adj)


class TestCanonicalSearchAutomorphisms:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(adjacency_matrices())
    def test_generators_against_brute_force(self, d):
        n = d.n
        generators = automorphism_generators(d)
        assert canonical_form(d) == brute_force_canonical_form(d)
        for p in generators:
            assert sorted(p) == list(range(n)) and p != tuple(range(n))
            assert all(d.adj[p[i]][p[j]] == d.adj[i][j] for i in range(n) for j in range(n))
        # the orbits of the group the generators span, by union-find
        root = list(range(n))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for p in generators:
            for v in range(n):
                root[find(v)] = find(p[v])
        aut_orbits = brute_force_automorphism_orbits(d)
        for v in range(n):
            assert {u for u in range(n) if find(u) == find(v)} <= aut_orbits[v]
