import math
import random
import sys
from fractions import Fraction

import pytest

import specgraph
from specgraph import (ExactError, SecularError, SecularMatrixSpec, betti, classify,
                       components, enumerate_connected_simple, from_edge_list,
                       invisible_multiplicity, ln_charpoly, metric_isospectral,
                       poly_mul, poly_normalize, poly_pow, poly_roots_unit_circle,
                       polymat_det, scale_lengths, secular_poly, spectrum_report,
                       subdivide_edge, to_discrete, unit_subdivided)
from specgraph.constructions import catalog
from specgraph.secular import _c_to_z, _times_z2_minus_1

from conftest import random_connected_multigraph
from kernel_oracles import (build_scattering_matrix, faddeev_ln_charpoly,
                            scattering_secular_poly)

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
        assert layout.size == 2
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

    def test_failed_division_raises(self):
        with pytest.raises(SecularError, match="not divisible"):
            _times_z2_minus_1([1, 0, 1], -1)

    def test_one_degree_v_determinant_per_key(self, monkeypatch):
        calls = []

        def counting(entry_eval, size, degree_bound):
            calls.append((size, degree_bound))
            return polymat_det(entry_eval, size, degree_bound)

        monkeypatch.setattr(specgraph.secular, "polymat_det", counting)
        g = from_edge_list(3, [(0, 1), (1, 2), (2, 0), (0, 0), (1, 2, 2)])
        secular_poly.cache_clear()
        ln_charpoly.cache_clear()
        secular_poly(g)
        ln_charpoly(to_discrete(g))
        # the length-2 edge subdivides into V = 4; the shadow has 3 vertices
        assert calls == [(4, 4), (3, 3)]
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
            assert calls == [(3, 3)]
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

    def test_roots_extracted_once_per_polynomial(self, monkeypatch):
        # invisible_multiplicity reports the spectrum again at every root;
        # the roots live on the cached polynomial, so they are found once
        calls = []
        real = specgraph.exact.poly_roots_unit_circle

        def counting(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(specgraph.exact, "poly_roots_unit_circle", counting)
        g = catalog("Gamma1")
        secular_poly.cache_clear()
        rep = spectrum_report(g)
        assert len(rep.fundamental_roots) >= 5
        for k, _ in rep.fundamental_roots:
            invisible_multiplicity(g, k)
        assert spectrum_report(g) == rep
        assert calls == [secular_poly(g)]
        # clearing the polynomial cache drops the roots with it
        secular_poly.cache_clear()
        assert spectrum_report(g) == rep
        assert len(calls) == 2

    def test_unit_circle_tol_read_when_roots_first_found(self, monkeypatch):
        g = catalog("Gamma1")
        secular_poly.cache_clear()
        rep = spectrum_report(g)
        # some float root of Gamma1's square-free factors is off |z| = 1
        monkeypatch.setattr(specgraph.exact, "UNIT_CIRCLE_TOL", 1e-300)
        assert spectrum_report(g) == rep
        secular_poly.cache_clear()
        with pytest.raises(ExactError, match="root off unit circle"):
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
