"""Exact integer linear algebra and integer polynomials.

The layer computes in Z only: matrices are plain row-major lists of
ints, polynomials are int coefficient lists with the constant term
first, and a non-integer input raises ExactError.  Both exact spectral
keys, the secular polynomial and the normalized-Laplacian charpoly, come
from the V x V integer pencil det(A - cD), which one call of one kernel
determines per discrete graph (`secular._pencil`).  That kernel is
`polymat_det`: Bareiss determinants at degree bound + 2 consecutive
integer sample points, Newton forward differences divided exactly by j!,
and certification by a vanishing difference of order degree bound + 1.
The square-free decomposition runs in Z[x] too.
Rational determinants and Newton interpolation in Fractions live in
`tests/kernel_oracles.py`, as oracles.  The only floating point lives in
`poly_roots_unit_circle`, which locates roots numerically after the
multiplicity structure has been extracted exactly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np


class ExactError(ValueError):
    """Raised when an exact computation is handed invalid input."""


# ---------------------------------------------------------------------------
# projective integer polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectivePoly:
    """Integer polynomial considered up to a positive scalar multiple.

    Coefficients are stored constant term first, with no trailing zeros,
    integer content 1 and positive leading coefficient.  Two polynomials
    that differ by a nonzero rational factor normalize to the same object,
    so `==` decides projective equality.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ExactError("zero polynomial not projective")
        if self.coeffs[-1] <= 0:
            raise ExactError("leading coefficient must be positive")
        if math.gcd(*self.coeffs) != 1:
            raise ExactError("coefficients must have content 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def unit_circle_roots(self) -> tuple[tuple[float, int], ...]:
        """poly_roots_unit_circle(self), computed once per object.

        The polynomials that `secular_poly`'s cache returns keep their
        roots until that cache is cleared; UNIT_CIRCLE_TOL is read when
        they are first computed.
        """
        return tuple(poly_roots_unit_circle(self))

    def line(self) -> str:
        """Single-line serialization: `poly: c0 c1 ... cD`."""
        return "poly: " + " ".join(str(c) for c in self.coeffs)

    @staticmethod
    def from_line(line: str) -> "ProjectivePoly":
        head, _, rest = line.partition(":")
        if head.strip() != "poly":
            raise ExactError(f"not a polynomial line: {line!r}")
        return poly_normalize([int(tok) for tok in rest.split()])

    def __str__(self) -> str:
        return self.line()


def poly_normalize(coeffs: Sequence[int]) -> ProjectivePoly:
    """Normalize integer coefficients to the projective representative.

    Drops trailing zeros, then divides out the content and flips the
    global sign so the leading coefficient is positive (`_primitive`).
    Rejects the zero polynomial.
    """
    ints = _trim(list(coeffs))
    if not ints:
        raise ExactError("zero polynomial not projective")
    return ProjectivePoly(tuple(_primitive(ints)))


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer coefficient lists (constant term first)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def poly_pow(a: Sequence[int], n: int) -> list[int]:
    out = [1]
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def _deflate_linear(coeffs: list[int], root: int) -> list[int] | None:
    """Divide by (z - root) if it divides exactly, else None."""
    quot = [0] * (len(coeffs) - 1)
    carry = 0
    for i in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[i] + root * carry
        quot[i - 1] = carry
    if coeffs[0] + root * carry != 0:
        return None
    return quot


# ---------------------------------------------------------------------------
# exact determinants
# ---------------------------------------------------------------------------

def det_exact(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by fraction-free Bareiss
    elimination.

    The working copy takes each entry through `operator.index`, so an entry
    that is not an integer (a Fraction, a float) raises ExactError.
    """
    n = len(m)
    try:
        a = [list(map(operator.index, row)) for row in m]
    except TypeError as exc:
        raise ExactError(f"matrix entries must be integers: {exc}") from None
    if n == 0 or any(len(row) != n for row in a):
        raise ExactError("matrix must be square and nonempty")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[-1][-1]


def _interpolate(start: int, values: Sequence[int]) -> list[int]:
    """Integer monomial coefficients of the polynomial through
    (start + i, values[i]).

    Newton's forward-difference form at the consecutive points: the j-th
    coefficient is the j-th difference divided by j!.  The division is
    exact for a polynomial with integer coefficients; a remainder means
    the values are not those of one of degree len(values) - 1 or less,
    and raises ExactError.
    """
    diffs = list(values)
    newton = [diffs[0]]
    fact = 1
    for j in range(1, len(diffs)):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        fact *= j
        q, r = divmod(diffs[0], fact)
        if r:
            raise ExactError(f"degree bound violated: difference {j} not divisible by {j}!")
        newton.append(q)
    # Horner in the Newton basis: p = n0 + (x - s)(n1 + (x - s - 1)(n2 + ...))
    coeffs = [newton[-1]]
    for j in range(len(newton) - 2, -1, -1):
        node = start + j
        nxt = [0] * (len(coeffs) + 1)
        for t, c in enumerate(coeffs):
            nxt[t] -= node * c
            nxt[t + 1] += c
        nxt[0] += newton[j]
        coeffs = nxt
    return coeffs


def polymat_det(entry_eval: Callable[[int], Sequence[Sequence[int]]],
                size: int,
                degree_bound: int) -> ProjectivePoly:
    """Exact determinant of a polynomial matrix by evaluation-interpolation.

    `entry_eval(z0)` must return the size x size integer matrix at the
    integer sample point z0.  The determinant is evaluated exactly at
    degree_bound+2 consecutive integers and interpolated once.  The
    samples lie on a polynomial of degree at most degree_bound exactly
    when their difference of order degree_bound+1, the top Newton
    coefficient times (degree_bound+1)!, vanishes; a nonzero top
    coefficient means the stated degree bound is wrong.
    """
    if degree_bound < 0:
        raise ExactError("degree bound must be nonnegative")
    start = -(degree_bound // 2)
    values = []
    for z0 in range(start, start + degree_bound + 2):
        m = entry_eval(z0)
        if len(m) != size:
            raise ExactError(f"entry_eval returned wrong size at z={z0}")
        values.append(det_exact(m))
    coeffs = _interpolate(start, values)
    if coeffs.pop():
        raise ExactError("degree bound violated")
    return poly_normalize(coeffs)


# ---------------------------------------------------------------------------
# square-free structure and unit-circle roots
# ---------------------------------------------------------------------------

def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _derivative(p: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _primitive(p: Sequence[int]) -> list[int]:
    """p divided by its content, with a positive leading coefficient."""
    content = math.gcd(*p)
    if p[-1] < 0:
        content = -content
    return [c // content for c in p]


def _pseudo_rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Remainder of lead(b)^(deg a - deg b + 1) * a on division by b."""
    rem = list(a)
    top = len(b) - 1
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + top]
        rem = [x * lead for x in rem[:i + top]]
        for j in range(top):
            rem[i + j] -= c * b[j]
    return _trim(rem)


def _gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd with positive leading coefficient, a nonzero.

    Euclid on primitive pseudo-remainders: every step stays in Z[x], and
    dividing out the content keeps the coefficients small.
    """
    x, y = _primitive(a), list(b)
    while y:
        y = _primitive(y)
        if len(y) == 1:
            return [1]
        x, y = y, _pseudo_rem(x, y)
    return x


def _exact_div(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b for integer polynomials where b is primitive and divides a over Q.

    By Gauss's lemma b then divides a in Z[x], so every quotient
    coefficient is an exact integer division by the leading coefficient.
    """
    rem = list(a)
    top = len(b) - 1
    quot = [0] * max(len(a) - top, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + top] // b[-1]
        quot[i] = c
        if c:
            for j, bj in enumerate(b):
                rem[i + j] -= c * bj
    return _trim(quot)


def _sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def squarefree_factors(coeffs: Sequence[int]) -> list[tuple[list[int], int]]:
    """Yun decomposition p = prod q_i^i with q_i square-free and coprime.

    Returns (integer-normalized factor, multiplicity) pairs for every
    nonconstant factor, in increasing multiplicity order.  Runs in Z[x]:
    the gcds are primitive, and each division is by a primitive divisor
    over Q, hence exact in Z[x] (Gauss's lemma).  w and y are always
    divided by the same polynomial, so the scale of a gcd never matters.
    """
    p = _trim(list(coeffs))
    if len(p) <= 1:
        return []
    dp = _derivative(p)
    g = _gcd(p, dp)
    w = _exact_div(p, g)
    y = _exact_div(dp, g)
    z = _sub(y, _derivative(w))
    out: list[tuple[list[int], int]] = []
    i = 1
    while len(w) > 1:
        gi = _gcd(w, z)
        if len(gi) > 1:
            out.append((gi, i))
        w = _exact_div(w, gi)
        y = _exact_div(z, gi)
        z = _sub(y, _derivative(w))
        i += 1
    return out


TWO_PI = 2.0 * math.pi

#: secular roots of 36 catalog and 300 random multigraphs stray <= 8.3e-15 from |z| = 1
UNIT_CIRCLE_TOL = 1e-8


def poly_roots_unit_circle(p: ProjectivePoly) -> list[tuple[float, int]]:
    """All roots of p, certified to lie on |z| = 1, as (k, multiplicity).

    k = arg(z) mapped to (0, 2pi].  Roots z = 1 and z = -1 are deflated by
    exact trial division, so their multiplicities are exact.  Remaining
    multiplicities are extracted exactly by square-free decomposition;
    companion-matrix root finding is then only ever applied to simple
    roots, which keeps every root within UNIT_CIRCLE_TOL of the unit
    circle.  The square-free factors are pairwise coprime and prime to
    z - 1 and z + 1, so no root is listed twice.
    Raises ExactError if any root strays off the circle beyond
    UNIT_CIRCLE_TOL.
    """
    coeffs = list(p.coeffs)
    found: list[tuple[float, int]] = []
    for root, k in ((1, TWO_PI), (-1, math.pi)):
        mult = 0
        while len(coeffs) > 1:
            quot = _deflate_linear(coeffs, root)
            if quot is None:
                break
            coeffs = quot
            mult += 1
        if mult:
            found.append((k, mult))
    for factor, mult in squarefree_factors(coeffs):
        for z in np.roots([float(c) for c in reversed(factor)]):
            if abs(abs(z) - 1.0) > UNIT_CIRCLE_TOL:
                raise ExactError(
                    f"root off unit circle: |z|={abs(z):.6g} for z={z:.6g}")
            theta = math.atan2(z.imag, z.real)
            k = theta if theta > 0 else theta + TWO_PI
            found.append((k, mult))
    found.sort()
    return found
