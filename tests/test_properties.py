"""Invariance properties of the exact keys, the canonical form and the text format.

A relabelled copy of a graph permutes its vertices, reorders its edges
and reverses some of them.  Both exact keys and the canonical form must
not see any of it.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from specgraph import (canonical_form, format_graph, from_edge_list, ln_charpoly,
                       parse_graph, secular_poly, to_discrete)


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
