import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from specgraph import (GraphError, LnCharpoly, discrete_from_adj, from_edge_list,
                       ln_charpoly, ln_isospectral,
                       metric_isospectral, proposition_check, to_discrete)
from specgraph.constructions import catalog
from specgraph.secular import _discrete_key

from conftest import random_connected_multigraph
from kernel_oracles import ln_eigenvalues, von_below_check


def frac_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


class TestLnCharpoly:
    def test_k2(self):
        cp = ln_charpoly(discrete_from_adj([[0, 1], [1, 0]]))
        assert cp.coeffs == (Fraction(0), Fraction(-2), Fraction(1))

    def test_k5_matches_complete_graph_eigenvalues(self):
        # complete graph has normalized-Laplacian spectrum {0, n/(n-1) x (n-1)}
        expected = [Fraction(1)]
        expected = frac_poly_mul(expected, [Fraction(0), Fraction(1)])
        for _ in range(4):
            expected = frac_poly_mul(expected, [Fraction(-5, 4), Fraction(1)])
        cp = ln_charpoly(to_discrete(catalog("K5")))
        assert list(cp.coeffs) == expected

    def test_single_loop(self):
        cp = ln_charpoly(discrete_from_adj([[2]]))
        assert cp.coeffs == (Fraction(0), Fraction(1))

    def test_isolated_vertex_rejected(self):
        # the pencil that both exact keys share refuses the shadows that no
        # metric graph has, with the same message for either key
        for adj, message in [([[0]], "discrete graph has no edges"),
                             ([[0, 1, 0], [1, 0, 0], [0, 0, 0]],
                              "every vertex must meet at least one edge endpoint")]:
            d = discrete_from_adj(adj)
            for key in (ln_charpoly, _discrete_key):
                with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
                    key(d)

    def test_roots_real_in_0_2_and_zero_mult_is_components(self):
        rng = random.Random(61)
        for _ in range(20):
            g = random_connected_multigraph(rng)
            d = to_discrete(g)
            cp = ln_charpoly(d)
            # the symmetric eigensolver gives the real spectrum to 1e-9;
            # companion roots of the charpoly must agree with it (multiple
            # roots limit the companion accuracy, not the realness)
            spectrum = ln_eigenvalues(d)
            assert spectrum.min() > -1e-9
            assert spectrum.max() < 2 + 1e-9
            roots = np.roots([float(c) for c in reversed(cp.coeffs)])
            roots = np.sort_complex(roots)
            assert np.max(np.abs(roots - np.sort(spectrum))) < 1e-5
            # exact multiplicity of mu = 0: leading zero coefficients
            zero_mult = next(i for i, c in enumerate(cp.coeffs) if c != 0)
            assert zero_mult == 1  # connected by construction

    def test_relabelled_copies_hash_alike(self):
        d = to_discrete(catalog("Gamma1"))
        perm = list(range(d.n))
        random.Random(70).shuffle(perm)
        copy = discrete_from_adj([[d.adj[perm[i]][perm[j]] for j in range(d.n)]
                                  for i in range(d.n)])
        cp, cp_copy = ln_charpoly(d), ln_charpoly(copy)
        assert cp is not cp_copy
        assert cp == cp_copy and hash(cp) == hash(cp_copy) and len({cp, cp_copy}) == 1
        # the hash is kept on the object, and agrees with == on int coefficients
        assert vars(cp)["_hash"] == hash(cp)
        k2 = LnCharpoly((Fraction(0), Fraction(-2), Fraction(1)))
        assert LnCharpoly((0, -2, 1)) == k2 and hash(LnCharpoly((0, -2, 1))) == hash(k2)
        assert cp != ln_charpoly(to_discrete(catalog("Gamma2p")))

    def test_zero_mult_counts_components(self):
        d = to_discrete(from_edge_list(4, [(0, 1), (2, 3)]))
        cp = ln_charpoly(d)
        zero_mult = next(i for i, c in enumerate(cp.coeffs) if c != 0)
        assert zero_mult == 2


class TestLnIsospectral:
    def test_partner_shadows(self):
        d1 = to_discrete(catalog("Gamma1"))
        d2 = to_discrete(catalog("Gamma2"))
        assert ln_isospectral(d1, d2)

    def test_different_sizes(self):
        k2 = discrete_from_adj([[0, 1], [1, 0]])
        p3 = to_discrete(catalog("path_3"))
        assert not ln_isospectral(k2, p3)

    def test_reflexive(self):
        d = to_discrete(catalog("K4"))
        assert ln_isospectral(d, d)


class TestSimilarity:
    def test_row_normalized_matches_symmetric_form(self):
        rng = random.Random(67)
        for _ in range(20):
            g = random_connected_multigraph(rng)
            d = to_discrete(g)
            degrees = d.degrees()
            walk = np.array([[1.0 if i == j else 0.0 for j in range(d.n)]
                             for i in range(d.n)])
            walk -= np.array(d.adj, dtype=float) / np.array(degrees, dtype=float)[:, None]
            ev1 = np.sort(np.linalg.eigvals(walk).real)
            ev2 = ln_eigenvalues(d)
            assert np.max(np.abs(ev1 - ev2)) < 1e-10


class TestVonBelow:
    def test_k5_quadratic_root_maps_to_5_4(self):
        report = von_below_check(catalog("K5"), tol=1e-10)
        k1 = math.acos(-0.25)
        res = dict((round(k, 9), r) for k, r in report.residuals)
        assert res[round(k1, 9)] < 1e-10
        assert abs((1 - math.cos(k1)) - 1.25) < 1e-12
        assert report.ok

    def test_single_loop_vacuous(self):
        report = von_below_check(from_edge_list(1, [(0, 0)]))
        assert report.residuals == ()
        assert report.ok

    def test_first_partner_all_generic_roots(self):
        report = von_below_check(catalog("Gamma1"), tol=1e-9)
        assert report.ok and len(report.residuals) > 0


class TestProposition:
    def test_partner_pair(self):
        report = proposition_check(catalog("Gamma1"), catalog("Gamma2"))
        assert report.verdict == "metric-isospectral"
        assert report.betti1 == report.betti2 == 5
        assert report.charpoly1 == report.charpoly2

    def test_k5_vs_partner(self):
        report = proposition_check(catalog("K5"), catalog("Gamma1"))
        assert report.verdict == "not-isospectral"
        assert (report.betti1, report.betti2) == (6, 5)

    def test_agrees_with_secular_on_random_graphs(self):
        rng = random.Random(71)
        graphs = [random_connected_multigraph(rng, n_min=2, n_max=4, extra_max=2)
                  for _ in range(12)]
        for i, g1 in enumerate(graphs):
            for g2 in graphs[i + 1:]:
                assert (proposition_check(g1, g2).isospectral
                        == metric_isospectral(g1, g2))

    def test_requires_unilateral(self):
        g = from_edge_list(2, [(0, 1, 2)])
        with pytest.raises(GraphError, match="not unilateral"):
            proposition_check(g, g)
