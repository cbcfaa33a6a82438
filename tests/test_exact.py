import itertools
import math
import random
import re
from fractions import Fraction

import pytest

import specgraph.exact
from specgraph.exact import (ExactError, ProjectivePoly, det_exact, pencil_det, poly_mul,
                             poly_normalize, poly_pow, squarefree_factors)

from specgraph import GraphError, secular_poly
from specgraph.constructions import CATALOG_IDS, catalog

import kernel_oracles
from kernel_oracles import (charpoly_exact, cofactor_det, integer_interpolate, polymat_det,
                            poly_roots_unit_circle, reference_interpolate,
                            reference_squarefree_factors)


def frac_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += Fraction(ai) * Fraction(bj)
    return out


def evaluate(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class TestPolyNormalize:
    def test_scale_and_sign(self):
        assert poly_normalize([-2, 0, 2]).coeffs == (-1, 0, 1)

    def test_global_sign_flip_on_big_product(self):
        plus = poly_mul(poly_mul(poly_pow([-1, 1], 7), poly_pow([1, 1], 5)),
                        poly_pow([2, 1, 2], 4))
        minus = [-c for c in plus]
        assert poly_normalize(minus) == poly_normalize(plus)

    def test_zero_rejected(self):
        with pytest.raises(ExactError, match="zero polynomial"):
            poly_normalize([0, 0])

    def test_idempotent_and_scale_invariant(self):
        rng = random.Random(7)
        for _ in range(50):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
            if not any(coeffs):
                coeffs[0] = 1
            p = poly_normalize(coeffs)
            assert poly_normalize(p.coeffs) == p
            c = rng.randint(1, 9) * rng.choice((1, -1))
            assert poly_normalize([c * x for x in coeffs]) == p

    def test_trailing_zeros_stripped(self):
        assert poly_normalize([3, 6, 0, 0]).coeffs == (1, 2)

    def test_serialization_round_trip(self):
        p = poly_normalize([2, -3, 5])
        assert ProjectivePoly.from_line(p.line()) == p


class TestDetExact:
    def test_2x2(self):
        assert det_exact([[1, 2], [3, 4]]) == -2
        assert type(det_exact([[1, 2], [3, 4]])) is int

    def test_singular(self):
        assert det_exact([[1, 2], [2, 4]]) == 0

    @pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), 0.5, 2.0])
    def test_non_integer_entry_rejected(self, entry):
        # unchecked, Bareiss floor division would give 0 for
        # [[1/2, 1], [1, 3]], whose determinant is 1/2
        with pytest.raises(ExactError, match="integers"):
            det_exact([[entry]])
        with pytest.raises(ExactError, match="integers"):
            det_exact([[entry, 1], [1, 3]])
        with pytest.raises(ExactError, match="integers"):
            polymat_det(lambda z: [[entry, z], [z, 1]], 2, 2)

    def test_not_square_rejected(self):
        for m in ([], [[1, 2]], [[1, 2], [3]]):
            with pytest.raises(ExactError, match="square"):
                det_exact(m)

    def test_matches_permanent_free_cofactor_oracle(self):
        # zero leading pivots force row swaps; rank-deficient matrices are
        # singular however the elimination pivots
        rng = random.Random(11)
        swaps = singular = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            shape = rng.randrange(3)
            if shape == 1 and n > 1:
                m[0][0] = 0
                for i in range(1, rng.randint(1, n)):
                    m[i][0] = 0
            elif shape == 2 and n > 1:
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-3, 3)
                m[i] = [c * x for x in m[j]]
            swaps += m[0][0] == 0 and any(row[0] for row in m[1:])
            got = det_exact(m)
            assert type(got) is int
            assert got == cofactor_det(m), m
            singular += got == 0
        assert swaps >= 50 and singular >= 80


class TestPolymatDet:
    def test_offdiag_linear(self):
        def entries(z):
            return [[0, z - 1], [z - 1, 0]]

        assert polymat_det(entries, 2, 2).coeffs == (1, -2, 1)

    def test_melon(self):
        def entries(z):
            return [[-1, z], [z, -1]]

        assert polymat_det(entries, 2, 2).coeffs == (-1, 0, 1)

    def test_degree_bound_violation(self):
        def entries(z):
            return [[z * z, 0], [0, z * z]]

        with pytest.raises(ExactError, match="degree bound violated"):
            polymat_det(entries, 2, 3)

    def test_integer_valued_pencil_not_in_z_rejected(self):
        # z(z - 1)/2 is an integer at every integer z, but it is not in Z[z]
        def entries(z):
            return [[z * (z - 1) // 2]]

        with pytest.raises(ExactError, match="degree bound violated"):
            polymat_det(entries, 1, 2)
        with pytest.raises(ExactError, match="degree bound violated"):
            polymat_det(entries, 1, 4)

    def test_reevaluation_at_random_points(self):
        rng = random.Random(3)
        rows = [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
                for _ in range(3)]

        def entries(z):
            return [[c0 + c1 * z for c0, c1 in row] for row in rows]

        p = polymat_det(entries, 3, 3)
        # the projective scalar is fixed by matching at one point outside
        # the sample points
        base = 7
        scale = Fraction(det_exact(entries(base)), evaluate(p.coeffs, base))
        assert scale != 0
        for _ in range(5):
            x = rng.randint(-300, 300)
            assert det_exact(entries(x)) == scale * evaluate(p.coeffs, x)


class TestPencilDet:
    def test_word_primes_against_trial_division(self):
        def is_prime(n):
            return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))

        # 2047, 3277, 4033, 4681 and 8321 are strong pseudoprimes to base 2
        assert [n for n in range(9, 20000, 2) if specgraph.exact._is_word_prime(n)] == [
            n for n in range(9, 20000, 2) if is_prime(n)]
        primes = list(itertools.islice(specgraph.exact._word_primes(), 40))
        assert primes == sorted(primes, reverse=True) and primes[0] < 2 ** 30
        assert [n for n in range(primes[-1], 2 ** 30, 2) if is_prime(n)] == primes[::-1]

    def test_non_integer_entry_rejected(self):
        with pytest.raises(ExactError, match="matrix entries must be integers"):
            pencil_det([[Fraction(1, 2)]])

    def test_random_nonnegative_matrices_against_bareiss(self):
        # not symmetric, and with zero rows and columns in A itself: the
        # coefficient bound needs only nonnegative rows summing to d_i
        rng = random.Random(27)
        for _ in range(60):
            n = rng.randint(1, 7)
            a = [[rng.choice((0, 0, 1, 2, 5, 40)) for _ in range(n)] for _ in range(n)]
            for i, row in enumerate(a):
                row[i] += not sum(row)
            degrees = [sum(row) for row in a]

            def entries(c):
                return [[x - c * d if i == j else x for j, x in enumerate(row)]
                        for i, (row, d) in enumerate(zip(a, degrees))]

            q = pencil_det(a)
            assert len(q) == n + 1 and all(type(c) is int for c in q)
            assert q[-1] == (-1) ** n * math.prod(degrees)
            for c in range(-3, 4):
                assert evaluate(q, c) == det_exact(entries(c))


class TestInterpolationOracle:
    """Integer forward differences against Fraction Newton interpolation."""

    def test_integer_polynomials_stay_int(self):
        rng = random.Random(1985)
        for degree in range(21):
            for _ in range(4):
                bound = 10 ** rng.choice((1, 3, 12, 30))
                coeffs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
                coeffs[-1] = coeffs[-1] or 1
                start = -(degree // 2)
                points = list(range(start, start + degree + 1))
                values = [evaluate(coeffs, x) for x in points]
                got = integer_interpolate(start, values)
                assert got == coeffs
                assert all(type(c) is int for c in got)
                assert got == reference_interpolate(points, values)
                p = polymat_det(lambda z: [[evaluate(coeffs, z)]], 1, degree)
                assert p == poly_normalize(coeffs)
                assert all(type(c) is int for c in p.coeffs)

    def test_cleared_rational_polynomials_at_any_start(self):
        # a rational polynomial times the lcm of its denominators, sampled
        # from a random start: the library's projective key of the original
        rng = random.Random(1997)
        for degree in range(13):
            for _ in range(4):
                coeffs = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 40))
                          for _ in range(degree + 1)]
                coeffs[-1] = coeffs[-1] or Fraction(1, 3)
                den = math.lcm(*(c.denominator for c in coeffs))
                cleared = [int(c * den) for c in coeffs]
                start = rng.randint(-5, 5)
                points = list(range(start, start + degree + 1))
                values = [evaluate(cleared, x) for x in points]
                assert integer_interpolate(start, values) == cleared
                assert reference_interpolate(points, values) == cleared
                assert reference_interpolate(
                    points, [evaluate(coeffs, Fraction(x)) for x in points]) == coeffs
                p = polymat_det(lambda z: [[evaluate(cleared, z)]], 1, degree)
                assert p == poly_normalize(cleared)

    def test_integer_valued_polynomial_with_fraction_coefficients(self):
        # binomial(z, j) takes integer values at integers but its
        # coefficients are not integers: the j! division must not truncate,
        # it must refuse; j! binomial(z, j) is the falling factorial, in Z[z]
        for j in range(2, 9):
            falling = [1]
            for i in range(j):
                falling = poly_mul(falling, [-i, 1])
            points = range(-3, j - 2)
            values = [evaluate(falling, x) // math.factorial(j) for x in points]
            assert reference_interpolate(points, values) == [
                Fraction(c, math.factorial(j)) for c in falling]
            with pytest.raises(ExactError, match="degree bound violated"):
                integer_interpolate(-3, values)
            assert integer_interpolate(-3, [evaluate(falling, x) for x in points]) == falling

    def test_matrices_against_reference(self):
        rng = random.Random(2021)
        for _ in range(30):
            n = rng.randint(1, 4)
            rows = [[(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(n)]
                    for _ in range(n)]

            def entries(z):
                return [[c0 + c1 * z for c0, c1 in row] for row in rows]

            start = -(n // 2)
            points = list(range(start, start + n + 1))
            values = [det_exact(entries(z)) for z in points]
            assert all(type(v) is int for v in values)
            if not any(values):
                continue
            reference = reference_interpolate(points, values)
            assert all(c.denominator == 1 for c in reference)
            assert polymat_det(entries, n, n) == poly_normalize([int(c) for c in reference])


class TestCharpoly:
    def test_identity(self):
        ident = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert charpoly_exact(ident) == [Fraction(1), Fraction(-2), Fraction(1)]

    def test_k2_laplacian(self):
        m = [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(1)]]
        assert charpoly_exact(m) == [Fraction(0), Fraction(-2), Fraction(1)]

    def test_triangular_equals_product_of_diagonal_factors(self):
        rng = random.Random(21)
        for _ in range(10):
            n = rng.randint(1, 5)
            m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if j <= i else Fraction(0)
                  for j in range(n)] for i in range(n)]
            expected = [Fraction(1)]
            for i in range(n):
                expected = frac_poly_mul(expected, [-m[i][i], Fraction(1)])
            assert charpoly_exact(m) == expected


class TestSquarefree:
    def test_structure(self):
        p = poly_mul(poly_pow([-1, 1], 3), [2, 1, 2])
        factors = squarefree_factors(p)
        assert ([(tuple(f), m) for f, m in factors]
                == [((2, 1, 2), 1), ((-1, 1), 3)])

    def test_squarefree_input(self):
        assert squarefree_factors([2, 1, 2]) == [([2, 1, 2], 1)]

    def test_equals_fraction_yun_on_random_products(self):
        rng = random.Random(2207)
        repeated = 0
        for _ in range(200):
            p = [rng.choice((-3, -2, -1, 1, 2, 3))]
            for _ in range(rng.randint(1, 5)):
                f = [rng.randint(-9, 9) for _ in range(rng.randint(2, 5))]
                f[-1] = f[-1] or 1
                p = poly_mul(p, poly_pow(f, rng.randint(1, 4)))
                if len(p) > 41:
                    break
            factors = squarefree_factors(p)
            assert factors == reference_squarefree_factors(p), p
            repeated += any(m > 1 for _, m in factors)
        assert repeated >= 100

    def test_equals_fraction_yun_on_catalog_secular_polys(self):
        tested = 0
        for name in CATALOG_IDS:
            try:
                coeffs = list(secular_poly(catalog(name)).coeffs)
            except GraphError:
                continue
            assert squarefree_factors(coeffs) == reference_squarefree_factors(coeffs), name
            tested += 1
        assert tested >= 30

    def test_zero_and_constant(self):
        assert squarefree_factors([]) == squarefree_factors([0, 0]) == []
        assert squarefree_factors([5, 0]) == []
        assert squarefree_factors([0, 0, 3]) == [([0, 1], 2)]


class TestUnitCircleRoots:
    def test_interval_poly(self):
        roots = poly_roots_unit_circle(poly_normalize([-1, 0, 1]))
        assert len(roots) == 2
        assert roots[0][0] == pytest.approx(math.pi) and roots[0][1] == 1
        assert roots[1][0] == pytest.approx(2 * math.pi) and roots[1][1] == 1

    def test_double_root_at_one(self):
        roots = poly_roots_unit_circle(poly_normalize([1, -2, 1]))
        assert roots == [(2 * math.pi, 2)]

    def test_quadratic_factor(self):
        # roots of 2z^2 + z + 2 on the circle: 4 cos k + 1 = 0
        roots = poly_roots_unit_circle(poly_normalize([2, 1, 2]))
        k1 = math.acos(-0.25)
        assert roots[0][0] == pytest.approx(k1, abs=1e-9)
        assert roots[1][0] == pytest.approx(2 * math.pi - k1, abs=1e-9)
        assert [m for _, m in roots] == [1, 1]

    def test_high_multiplicity_stays_on_circle(self):
        p = poly_normalize(poly_pow([2, 1, 2], 4))
        roots = poly_roots_unit_circle(p)
        assert [m for _, m in roots] == [4, 4]

    def test_off_circle_root_rejected(self, monkeypatch):
        with pytest.raises(ExactError, match="root off unit circle"):
            poly_roots_unit_circle(poly_normalize([-2, 1]))
        # UNIT_CIRCLE_TOL is read at call time: z = 2 strays by exactly 1
        monkeypatch.setattr(kernel_oracles, "UNIT_CIRCLE_TOL", 1.0)
        assert poly_roots_unit_circle(poly_normalize([-2, 1])) == [(2 * math.pi, 1)]
        monkeypatch.setattr(kernel_oracles, "UNIT_CIRCLE_TOL", 0.999)
        with pytest.raises(ExactError, match="root off unit circle"):
            poly_roots_unit_circle(poly_normalize([-2, 1]))


@pytest.mark.parametrize("call, message", [
    (lambda: ProjectivePoly(()), "zero polynomial not projective"),
    (lambda: ProjectivePoly((1, -1)), "leading coefficient must be positive"),
    (lambda: ProjectivePoly((2, 4)), "coefficients must have content 1"),
    (lambda: ProjectivePoly.from_line("lncp: 1 2"), "not a polynomial line: 'lncp: 1 2'"),
    (lambda: polymat_det(lambda z: [[z]], 1, -1), "degree bound must be nonnegative"),
    (lambda: polymat_det(lambda z: [[z, 0], [0, z]], 1, 1),
     "entry_eval returned wrong size at z=0"),
    (lambda: pencil_det([]), "matrix must be square and nonempty"),
    (lambda: pencil_det([[1, 1]]), "matrix must be square and nonempty"),
    (lambda: pencil_det([[1, -1], [-1, 1]]), "pencil entries must be nonnegative"),
    (lambda: pencil_det([[0, 1], [0, 0]]), "pencil row sums must be positive"),
])
def test_bad_input_raises(call, message):
    with pytest.raises(ExactError, match=f"^{re.escape(message)}$"):
        call()
