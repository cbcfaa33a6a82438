import itertools
import math
import random
import re
import sys
from fractions import Fraction

import pytest

import specgraph
from specgraph import (ExactError, SecularError, SecularMatrixSpec, betti, classify,
                       components, discrete_from_adj, enumerate_connected_multi,
                       enumerate_connected_simple, from_edge_list,
                       invisible_multiplicity, ln_charpoly, metric_isospectral,
                       pencil_det, poly_mul, poly_normalize, poly_pow,
                       scale_lengths, secular_poly, spectrum_report,
                       subdivide_edge, to_discrete, unit_subdivided)
from specgraph.constructions import CATALOG_IDS, catalog
from specgraph.secular import (SecularKey, _c_to_z, _discrete_key, _metric_key, _pencil,
                               _times_z2_minus_1)

from conftest import random_connected_multigraph
from kernel_oracles import (build_scattering_matrix, expanded_secular_poly, faddeev_ln_charpoly,
                            polymat_det, poly_roots_unit_circle, scattering_secular_poly)

K5_FACTORS = poly_mul(poly_mul(poly_pow([-1, 1], 7), poly_pow([1, 1], 5)),
                      poly_pow([2, 1, 2], 4))
PAIR_FACTORS = poly_mul(poly_mul(poly_pow([-1, 1], 6), poly_pow([1, 1], 4)),
                        poly_mul(poly_pow([2, 1, 2], 3), [2, 1, 2, 1, 2]))


class TestSecularMatrix:
    """The 2N x 2N scattering matrix, kept in the tests as the oracle, with
    each endpoint row multiplied by its vertex degree."""

    def test_single_edge_blocks(self):
        layout = build_scattering_matrix(from_edge_list(2, [(0, 1)]))
        assert layout.pairs == ((0, 1),)
        assert layout.entry_matrix(2) == [[-1, 2], [2, -1]]

    def test_loop_block(self):
        layout = build_scattering_matrix(from_edge_list(1, [(0, 0)]))
        # E couples the two ends by z; the degree-2 block is J - I; both
        # rows are doubled
        assert layout.entry_matrix(3) == [[0, 4], [4, 0]]

    def test_k5_blocks_are_half_j_minus_i(self):
        layout = build_scattering_matrix(catalog("K5"))
        m = layout.entry_matrix(0)
        for block in layout.blocks:
            assert len(block) == 4
            for a in block:
                for b in block:
                    # 4 ((1/2) J - I) = 2J - 4I
                    assert m[a][b] == -(2 - (4 if a == b else 0))

    def test_rejects_noninteger_lengths(self):
        g = from_edge_list(2, [(0, 1, Fraction(1, 2))])
        with pytest.raises(SecularError, match="unit edges"):
            secular_poly(g)


class TestVertexMatrix:
    """The V x V pencil A - cD.  At c = (z^2 + 1) / 2z, 2z (A - cD) is the
    vertex matrix 2zA - (z^2 + 1)D, so the expected values are those of
    the vertex matrix at z, built from the integer pencil at c = 0 and 1."""

    @staticmethod
    def pencil(g):
        d = to_discrete(g)
        return SecularMatrixSpec(d.adj, d.degrees())

    @staticmethod
    def vertex_matrix(layout, z):
        a, a_minus_d = layout.entry_matrix(0), layout.entry_matrix(1)
        return [[2 * z * x - (z * z + 1) * (x - y) for x, y in zip(row, row1)]
                for row, row1 in zip(a, a_minus_d)]

    def test_single_edge(self):
        layout = self.pencil(from_edge_list(2, [(0, 1)]))
        assert len(layout.adj) == 2
        assert layout.degrees == (1, 1)
        assert layout.entry_matrix(2) == [[-2, 1], [1, -2]]
        assert self.vertex_matrix(layout, Fraction(2)) == [[-5, 4], [4, -5]]

    def test_loop_counts_twice(self):
        layout = self.pencil(from_edge_list(1, [(0, 0)]))
        assert layout.adj == ((2,),) and layout.degrees == (2,)
        # 2z * 2 - (z^2 + 1) * 2 = -2 (z - 1)^2
        assert self.vertex_matrix(layout, Fraction(3)) == [[-8]]

    def test_path(self):
        layout = self.pencil(from_edge_list(3, [(0, 1), (1, 2)]))
        assert layout.degrees == (1, 2, 1)
        z = Fraction(1, 2)
        assert self.vertex_matrix(layout, z) == [[Fraction(-5, 4), 1, 0],
                                                 [1, Fraction(-5, 2), 1],
                                                 [0, 1, Fraction(-5, 4)]]

    def test_forest_divides_out_z2_minus_1(self):
        # a path has E = V - 1: det = (z^2 - 1)^2 (z^2 + 1), secular z^4 - 1
        path = from_edge_list(3, [(0, 1), (1, 2)])
        layout = self.pencil(path)
        q = polymat_det(layout.entry_matrix, 3, 3)
        assert (poly_normalize(_c_to_z(q.coeffs))
                == poly_normalize(poly_mul(poly_pow([-1, 0, 1], 2), [1, 0, 1])))
        assert secular_poly(path).coeffs == (-1, 0, 0, 0, 1)

    def test_binomial_factor_equals_repeated_products(self):
        rng = random.Random(26)
        for power in range(25):
            coeffs = [rng.randint(-10 ** 9, 10 ** 9) for _ in range(rng.randint(1, 12))]
            coeffs[-1] = coeffs[-1] or 1
            assert (_times_z2_minus_1(coeffs, power)
                    == poly_normalize(poly_mul(coeffs, poly_pow([-1, 0, 1], power))))

    def test_one_degree_v_determinant_per_key(self, monkeypatch):
        calls = []

        def counting(adj):
            calls.append(len(adj))
            return pencil_det(adj)

        monkeypatch.setattr(specgraph.secular, "pencil_det", counting)
        g = from_edge_list(3, [(0, 1), (1, 2), (2, 0), (0, 0), (1, 2, 2)])
        secular_poly.cache_clear()
        ln_charpoly.cache_clear()
        secular_poly(g)
        ln_charpoly(to_discrete(g))
        # the length-2 edge subdivides into V = 4; the shadow has 3 vertices
        assert calls == [4, 3]
        # on a unit graph both keys share one pencil, in either order
        unit = from_edge_list(3, [(0, 1), (1, 2), (2, 0), (0, 0), (1, 2)])
        d = to_discrete(unit)
        keys = (lambda: secular_poly(unit), lambda: ln_charpoly(d))
        for order in (keys, keys[::-1]):
            secular_poly.cache_clear()
            ln_charpoly.cache_clear()
            calls.clear()
            for key in order:
                key()
            assert calls == [3]
        # either cache_clear() drops the pencil, so the key recomputes it
        ln_charpoly.cache_clear()
        ln_charpoly(d)
        assert len(calls) == 2
        secular_poly.cache_clear()
        secular_poly(unit)
        assert len(calls) == 3

    def test_key_cache_clears_empty_every_cache(self):
        # the benchmark starts each pass cold by clearing the two key
        # caches; any other cache in the package must empty with them
        g = catalog("Gamma1")
        invisible_multiplicity(g, 2 * math.pi)
        secular_poly(g)
        spectrum_report(g)
        ln_charpoly(to_discrete(g))
        classify(enumerate_connected_simple(4), "secular")
        classify(enumerate_connected_simple(4), "ln")
        secular_poly.cache_clear()
        ln_charpoly.cache_clear()
        sizes = {f"{name}.{attr}": value.cache_info().currsize
                 for name, module in list(sys.modules.items())
                 if name == "specgraph" or name.startswith("specgraph.")
                 for attr, value in vars(module).items() if hasattr(value, "cache_info")}
        assert "specgraph.secular._pencil" in sizes
        assert "specgraph.secular._metric_key" in sizes
        assert "specgraph.mfunction._root_probes" in sizes
        assert set(sizes.values()) == {0}, sizes


def _random_component(rng, tree):
    """Vertex count and edges of a random tree, or of a tree plus extra edges
    (loops and parallels allowed)."""
    n = rng.randint(2, 4) if tree else rng.randint(1, 4)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    if not tree:
        for _ in range(rng.randint(1 if n == 1 else 0, 3)):
            edges.append((rng.randrange(n), rng.randrange(n)))
    return n, edges


ORACLE_SHAPES = {
    "multigraph": lambda rng: [False],
    "tree": lambda rng: [True],
    "forest": lambda rng: [True] * rng.randint(2, 3),
    "union": lambda rng: [False, rng.random() < 0.5],
}


def random_kernel_case(rng, shape):
    """A random graph of the given shape; a third get edge lengths 2-3."""
    n_total, edges = 0, []
    for tree in ORACLE_SHAPES[shape](rng):
        n, part = _random_component(rng, tree)
        edges += [(u + n_total, v + n_total) for u, v in part]
        n_total += n
    lengths = [1] * len(edges)
    if rng.random() < 1 / 3:
        lengths = [rng.choice((1, 2, 3)) for _ in edges]
        if sum(lengths) > 12:
            lengths = [1] * len(edges)
    return from_edge_list(n_total, [(u, v, l) for (u, v), l in zip(edges, lengths)])


class TestVertexKernelOracle:
    def test_matches_scattering_and_faddeev_oracles(self):
        rng = random.Random(2112)
        seen = {"loop": 0, "parallel": 0, "forest": 0, "disconnected": 0, "long": 0}
        cases = 0
        for _ in range(50):
            for shape in ORACLE_SHAPES:
                g = random_kernel_case(rng, shape)
                ends = [tuple(sorted((u, v))) for u, v, _ in g.edge_list()]
                seen["loop"] += any(u == v for u, v in ends)
                seen["parallel"] += len(set(ends)) < len(ends)
                seen["forest"] += betti(g) == 0
                seen["disconnected"] += components(g) > 1
                seen["long"] += any(l > 1 for l in g.lengths)
                d = to_discrete(g)
                for shadow in {d, to_discrete(unit_subdivided(g))}:
                    spec = SecularMatrixSpec(shadow.adj, shadow.degrees())
                    assert (_pencil(shadow)
                            == polymat_det(spec.entry_matrix, shadow.n, shadow.n).coeffs), g
                expected = (scattering_secular_poly(g), faddeev_ln_charpoly(d))
                # a unit graph's two keys share one pencil: cold, ln key
                # first, then cold again, secular key first
                secular_poly.cache_clear()
                ln_charpoly.cache_clear()
                ln = ln_charpoly(d)
                assert (secular_poly(g), ln) == expected, g
                secular_poly.cache_clear()
                ln_charpoly.cache_clear()
                sec = secular_poly(g)
                assert (sec, ln_charpoly(d)) == expected, g
                cases += 1
        assert cases == 200
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("skipped", [1, 2])
    def test_degrees_divisible_by_the_first_primes(self, monkeypatch, skipped):
        # a degree that the first primes divide makes pencil_det skip them
        first = list(itertools.islice(specgraph.exact._word_primes(), skipped))
        used = []
        charpoly = specgraph.exact._hessenberg_charpoly

        def recording(m, p):
            used.append(p)
            return charpoly(m, p)

        monkeypatch.setattr(specgraph.exact, "_hessenberg_charpoly", recording)
        w = math.prod(first)
        d = discrete_from_adj([[0, w], [w, 0]])
        assert pencil_det(d.adj) == [-w * w, 0, w * w]
        assert used and not set(first) & set(used)
        secular_poly.cache_clear()
        assert _pencil(d) == (-1, 0, 1)

    def test_corrupted_residue_trips_the_check(self, monkeypatch):
        charpoly = specgraph.exact._hessenberg_charpoly
        calls = []

        def corrupted(m, p):
            chi = charpoly(m, p)
            if not calls:
                chi[1] = (chi[1] + 1) % p
            calls.append(p)
            return chi

        monkeypatch.setattr(specgraph.exact, "_hessenberg_charpoly", corrupted)
        secular_poly.cache_clear()
        ln_charpoly.cache_clear()
        message = "pencil check failed: det(A - 2D) differs from q(2)"
        with pytest.raises(ExactError, match=f"^{re.escape(message)}$"):
            secular_poly(catalog("K5"))
        monkeypatch.undo()
        assert secular_poly(catalog("K5")) == poly_normalize(K5_FACTORS)


class TestSecularPoly:
    def test_k5(self):
        assert secular_poly(catalog("K5")) == poly_normalize(K5_FACTORS)

    def test_chopped_pair(self):
        target = poly_normalize(PAIR_FACTORS)
        assert secular_poly(catalog("Gamma1")) == target
        assert secular_poly(catalog("Gamma2")) == target

    def test_single_edge(self):
        assert secular_poly(from_edge_list(2, [(0, 1)])).coeffs == (-1, 0, 1)

    def test_integer_lengths_subdivide_automatically(self):
        g = from_edge_list(2, [(0, 1, 2), (0, 1, 2)])
        assert secular_poly(g) == secular_poly(unit_subdivided(g))

    def test_degree_is_twice_edge_count(self):
        rng = random.Random(41)
        for _ in range(15):
            g = random_connected_multigraph(rng)
            assert secular_poly(g).degree == 2 * g.n_edges

    def test_palindromic(self):
        rng = random.Random(43)
        graphs = [catalog(n) for n in ("K5", "Gamma1", "Gamma2", "C3", "path_3")]
        graphs += [random_connected_multigraph(rng) for _ in range(10)]
        for g in graphs:
            c = list(secular_poly(g).coeffs)
            assert c[::-1] == c or c[::-1] == [-x for x in c]


class TestIsospectral:
    def test_pair(self):
        assert metric_isospectral(catalog("Gamma1"), catalog("Gamma2"))

    def test_k5_vs_partner(self):
        assert not metric_isospectral(catalog("K5"), catalog("Gamma1"))

    def test_reflexive(self):
        rng = random.Random(47)
        for _ in range(5):
            g = random_connected_multigraph(rng)
            assert metric_isospectral(g, g)

    def test_component_counts_compared(self):
        one = from_edge_list(2, [(0, 1)])
        two = from_edge_list(4, [(0, 1), (2, 3)])
        assert not metric_isospectral(one, two)


def _disjoint_union(a, b):
    """The shadow of a beside b: their adjacency matrices block-diagonal."""
    return discrete_from_adj([list(row) + [0] * b.n for row in a.adj]
                             + [[0] * a.n + list(row) for row in b.adj])


class TestSecularKeyOracle:
    """Grouping by `SecularKey` partitions graphs as grouping by the
    expanded secular polynomial does (`expanded_secular_poly`), across
    vertex counts, and each key expands to that polynomial."""

    @staticmethod
    def partition(graphs, key):
        groups = {}
        for i, d in enumerate(graphs):
            groups.setdefault(key(d), set()).add(i)
        return {frozenset(group) for group in groups.values()}

    def test_keys_partition_as_expanded_polynomials(self):
        # the connected multigraphs on 1-4 vertices with at most 5 edges and
        # their disjoint unions of at most 5 edges, then a seeded slice of
        # the simple graphs on 7 vertices
        connected = [d for n in range(1, 5) for d in enumerate_connected_multi(n, 5)]
        small = connected + [_disjoint_union(a, b)
                             for a, b in itertools.combinations_with_replacement(connected, 2)
                             if a.n_edges + b.n_edges <= 5]
        assert len(small) == 254
        graphs = small + random.Random(716).sample(list(enumerate_connected_simple(7)), 300)
        partition = self.partition(graphs, _discrete_key)
        assert partition == self.partition(graphs, expanded_secular_poly)
        # some classes hold graphs of two vertex counts
        assert sum(len({graphs[i].n for i in cls}) > 1 for cls in partition) == 19
        for d in graphs:
            key = _discrete_key(d)
            assert key.m_2pi >= 1 and key.m_pi >= 0, d
            assert key.poly() == expanded_secular_poly(d), d

    def test_equal_keys_and_different_component_counts(self):
        # one vertex with two loops, and a loop beside K2: the same key and
        # secular polynomial, but one component against two
        two_loops = from_edge_list(1, [(0, 0), (0, 0)])
        loop_and_edge = from_edge_list(3, [(0, 0), (1, 2)])
        assert _metric_key(two_loops) == _metric_key(loop_and_edge) == SecularKey(3, 1, (1,))
        assert secular_poly(two_loops) == secular_poly(loop_and_edge)
        assert not metric_isospectral(two_loops, loop_and_edge)
        # a single edge: q = c^2 - 1 and E - V = -1 leave one root at each
        # of z = 1 and z = -1
        edge = _metric_key(from_edge_list(2, [(0, 1)]))
        assert edge == SecularKey(1, 1, (1,))
        assert edge.roots == ((math.pi, 1), (2 * math.pi, 1))

    def test_comparisons_expand_nothing(self, monkeypatch):
        expanded = []
        poly = SecularKey.poly

        def counting(key):
            expanded.append(key)
            return poly(key)

        monkeypatch.setattr(SecularKey, "poly", counting)
        secular_poly.cache_clear()
        assert metric_isospectral(catalog("Gamma1"), catalog("Gamma2"))
        assert not metric_isospectral(catalog("K5"), catalog("Gamma1"))
        assert expanded == []
        # classify expands one line per family
        families = classify(enumerate_connected_simple(6), "secular")
        assert len(expanded) == len(families) < 112


class TestFundamentalRootsOracle:
    """spectrum_report reads the roots off the pencil; the oracle
    `poly_roots_unit_circle` takes them from the finished secular
    polynomial.  Both hand numpy the same integer factors, so the floats
    agree exactly."""

    @staticmethod
    def same_roots(g):
        assert spectrum_report(g).fundamental_roots == tuple(
            poly_roots_unit_circle(secular_poly(g))), g

    def test_catalog(self):
        for name in CATALOG_IDS:
            self.same_roots(catalog(name))

    def test_seeded_multigraphs(self):
        rng = random.Random(1985)
        for _ in range(80):
            for shape in ORACLE_SHAPES:
                self.same_roots(random_kernel_case(rng, shape))

    def test_complete_graphs(self):
        for n in range(2, 41):
            self.same_roots(from_edge_list(n, list(itertools.combinations(range(n), 2))))


class TestSpectrumReport:
    def test_k5_report(self):
        rep = spectrum_report(catalog("K5"))
        roots = dict((round(k, 9), m) for k, m in rep.fundamental_roots)
        k1 = math.acos(-0.25)
        assert roots[round(2 * math.pi, 9)] == 7
        assert roots[round(math.pi, 9)] == 5
        assert roots[round(k1, 9)] == 4
        assert roots[round(2 * math.pi - k1, 9)] == 4
        assert rep.components == 1

    def test_loop(self):
        rep = spectrum_report(from_edge_list(1, [(0, 0)]))
        assert rep.fundamental_roots == ((2 * math.pi, 2),)
        assert rep.components == 1

    def test_first_partner_pi_roots(self):
        rep = spectrum_report(catalog("Gamma1"))
        assert rep.multiplicity_at(2 * math.pi) == 6
        assert rep.multiplicity_at(math.pi) == 4

    def test_roots_extracted_once_per_graph(self, monkeypatch):
        # invisible_multiplicity reports the spectrum again at every root;
        # the roots are kept with the graph's key, so they are found once
        calls = []
        real = specgraph.secular.squarefree_factors

        def counting(rest):
            calls.append(rest)
            return real(rest)

        monkeypatch.setattr(specgraph.secular, "squarefree_factors", counting)
        g = catalog("Gamma1")
        secular_poly.cache_clear()
        rep = spectrum_report(g)
        assert len(rep.fundamental_roots) >= 5
        for k, _ in rep.fundamental_roots:
            invisible_multiplicity(g, k)
        assert spectrum_report(g) == rep
        d = to_discrete(unit_subdivided(g))
        assert calls == [_discrete_key(d).rest]
        # the roots come from the key: the secular polynomial is never built
        assert secular_poly.cache_info().misses == 0
        # clearing either key cache drops the roots with the keys
        secular_poly.cache_clear()
        assert spectrum_report(g) == rep
        assert len(calls) == 2
        ln_charpoly.cache_clear()
        assert spectrum_report(g) == rep
        assert len(calls) == 3

    def test_unit_circle_tol_read_when_roots_first_found(self, monkeypatch):
        g = catalog("Gamma1")
        secular_poly.cache_clear()
        rep = spectrum_report(g)
        # some float root of Gamma1's square-free factors is off |z| = 1
        monkeypatch.setattr(specgraph.secular, "UNIT_CIRCLE_TOL", 1e-300)
        assert spectrum_report(g) == rep
        secular_poly.cache_clear()
        # |z| prints as 1 at 6 digits, so the message gives |z| - 1 too
        with pytest.raises(ExactError, match=r"^root off unit circle: \|z\|=1 "
                                             r"\(\|z\| - 1 = -?\d(\.\d+)?e-1\d\) for z="):
            spectrum_report(g)

    @pytest.mark.xfail(strict=True, raises=ExactError,
                       reason="np.roots puts roots of a degree-66 z-factor up to 1.6e-8 "
                              "off |z| = 1, above UNIT_CIRCLE_TOL")
    def test_three_components_with_a_long_square_free_factor(self):
        # 42 vertices after subdivision.  The secular key exists, and its
        # pencil has a simple square-free factor of degree 33 whose c-roots
        # are real, while the float z-roots of its z-transform stray from
        # the unit circle; certified roots on the c side would mend it
        edges = [(0, 1, 3), (1, 2, 2), (1, 3, 3), (1, 4, 1), (4, 5, 1), (0, 2, 2), (6, 7, 3),
                 (7, 8, 2), (8, 7, 2), (8, 8, 2), (8, 7, 3), (7, 6, 2), (9, 10, 3),
                 (10, 11, 3), (9, 12, 3), (11, 13, 1), (13, 14, 2), (11, 11, 3), (11, 12, 1),
                 (12, 10, 3), (14, 14, 3)]
        g = from_edge_list(15, edges)
        assert components(g) == 3
        assert len(secular_poly(g).coeffs) == 2 * sum(g.lengths) + 1
        spectrum_report(g)

    def test_multiplicities_sum_to_degree(self):
        rng = random.Random(53)
        for _ in range(10):
            g = random_connected_multigraph(rng)
            rep = spectrum_report(g)
            assert sum(m for _, m in rep.fundamental_roots) == 2 * g.n_edges

    def test_roots_on_circle_for_random_graphs(self):
        rng = random.Random(59)
        for _ in range(15):
            g = random_connected_multigraph(rng)
            poly_roots_unit_circle(secular_poly(g))

    def test_unit_root_multiplicity_is_one_plus_betti(self):
        for name in ("K5", "Gamma1", "Gamma2", "Gamma1p", "Gamma2p",
                     "C1", "C3", "path_2", "path_4", "S4", "K4"):
            g = catalog(name)
            assert components(g) == 1
            rep = spectrum_report(g)
            assert rep.multiplicity_at(2 * math.pi) == 1 + betti(g)

    def test_half_subdivision_doubles_the_report(self):
        for g in (catalog("K4"), catalog("C3"), catalog("K5")):
            half = g
            for e in range(g.n_edges):
                # halve edge e; the second piece lands at the end each time
                half = subdivide_edge(half, e, Fraction(1, 2))
            doubled = scale_lengths(half, 2)
            rep = spectrum_report(g)
            rep2 = spectrum_report(doubled)
            expected = sorted([(k / 2, m) for k, m in rep.fundamental_roots]
                              + [(k / 2 + math.pi, m) for k, m in rep.fundamental_roots])
            assert len(rep2.fundamental_roots) == len(expected)
            for (ka, ma), (kb, mb) in zip(rep2.fundamental_roots, expected):
                assert ka == pytest.approx(kb, abs=1e-8)
                assert ma == mb
