"""Exact integer linear algebra and integer polynomials.

The layer computes in Z only: matrices are plain row-major lists of
ints, polynomials are int coefficient lists with the constant term
first, and a non-integer input raises ExactError.  Both exact spectral
keys, the secular polynomial and the normalized-Laplacian charpoly, come
from the V x V integer pencil q(c) = det(A - cD), which one call of one
kernel determines per discrete graph (`secular._pencil`).  That kernel is
`pencil_det`: the charpoly of D^-1 A modulo word primes, by Hessenberg
reduction, lifted by the Chinese remainder theorem past a proved bound on
the coefficients of q.  `det_exact`, fraction-free Bareiss elimination,
gives the one exact determinant that `secular._pencil` checks q against.
The square-free decomposition runs in Z[x] too.
Rational determinants, evaluation-interpolation of polynomial matrices
(`polymat_det`), Newton interpolation in Fractions and the z-side root
finder `poly_roots_unit_circle` live in `tests/kernel_oracles.py`, as
oracles.  No floating point is used here: the roots of the secular
polynomial are located numerically in `secular`, after the multiplicity
structure has been extracted exactly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence


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

def _integer_square(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """A working copy of m with each entry taken through `operator.index`.

    Raises ExactError for an entry that is not an integer (a Fraction, a
    float) and for a matrix that is not square and nonempty.
    """
    try:
        a = [list(map(operator.index, row)) for row in m]
    except TypeError as exc:
        raise ExactError(f"matrix entries must be integers: {exc}") from None
    if not a or any(len(row) != len(a) for row in a):
        raise ExactError("matrix must be square and nonempty")
    return a


def det_exact(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by fraction-free Bareiss
    elimination.

    Raises ExactError for an entry that is not an integer and for a matrix
    that is not square and nonempty (`_integer_square`).
    """
    a = _integer_square(m)
    n = len(a)
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
        # column k below the pivot is left as it is: no later step reads it
        for i in range(k + 1, n):
            row_i = a[i]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return sign * a[-1][-1]


def _is_word_prime(n: int) -> bool:
    """Primality of an odd n, 7 < n < 3,215,031,751, by the strong
    probable-prime test to the bases 2, 3, 5 and 7, which no composite
    below that bound passes (Pomerance, Selfridge and Wagstaff, Math.
    Comp. 35, 1980)."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: the primes below 2^30 in decreasing order, as far as `_word_primes` has
#: needed them: a memo of one fixed sequence, so no caller can change what
#: another sees.  Below 2^30 every residue is a one-digit CPython int.
_WORD_PRIMES: list[int] = []


def _word_primes() -> Iterator[int]:
    """The primes below 2^30, largest first, each searched for once."""
    i = 0
    while True:
        if i == len(_WORD_PRIMES):
            n = _WORD_PRIMES[-1] - 2 if _WORD_PRIMES else (1 << 30) - 1
            while not _is_word_prime(n):
                n -= 2
            _WORD_PRIMES.append(n)
        yield _WORD_PRIMES[i]
        i += 1


def _hessenberg_charpoly(m: list[list[int]], p: int) -> list[int]:
    """det(xI - m) modulo the prime p, constant term first and monic.

    m is a square matrix of residues mod p, overwritten.  Gaussian
    similarity transforms bring it to upper Hessenberg form H, and the
    charpolys of its leading blocks then follow from chi_0 = 1 and

        chi_{s+1} = x chi_s - sum_{i <= s} h_is h_{i+1,i} ... h_{s,s-1} chi_i

    (Cohen, A Course in Computational Algebraic Number Theory, 1993,
    Algorithm 2.2.9).  O(n^3) operations mod p.
    """
    n = len(m)
    for k in range(1, n - 1):
        col = k - 1
        for piv in range(k, n):
            if m[piv][col]:
                break
        else:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            for row in m:
                row[k], row[piv] = row[piv], row[k]
        inv = pow(m[k][col], -1, p)
        tail_k = m[k][k:]
        # rows j > k lose u_j times row k, then column k gains u_j times
        # column j: one similarity, and column col is zero below row k
        us = [0] * (n - k - 1)
        for j in range(k + 1, n):
            row_j = m[j]
            if row_j[col]:
                u = row_j[col] * inv % p
                us[j - k - 1] = u
                v = p - u
                row_j[col] = 0
                row_j[k:] = [(a + v * b) % p for a, b in zip(row_j[k:], tail_k)]
        if any(us):
            for row in m:
                row[k] = (row[k] + sum(map(operator.mul, us, row[k + 1:]))) % p
    chis = [[1]]
    for s in range(n):
        acc = [0] + chis[s]
        prod = 1
        for i in range(s, -1, -1):
            w = m[i][s] * prod % p
            if w:
                acc[:i + 1] = [a - w * c for a, c in zip(acc, chis[i])]
            if i:
                prod = prod * m[i][i - 1] % p
                if not prod:
                    break
        chis.append([c % p for c in acc])
    return chis[n]


def pencil_det(adj: Sequence[Sequence[int]]) -> list[int]:
    """Integer coefficients of q(c) = det(A - cD), constant term first.

    A = adj is a square matrix of nonnegative integers with positive row
    sums d_i, and D = diag(d_i).  q = (-1)^V d_1 ... d_V chi, where chi is
    the charpoly of D^-1 A and V the size.  chi is computed modulo each
    prime below 2^30 that divides no d_i (`_hessenberg_charpoly`), and the
    residues of q are lifted by the Chinese remainder theorem to symmetric
    residues modulo the product M of the primes (von zur Gathen and
    Gerhard, Modern Computer Algebra, ch. 5).  Primes are added until
    M > 2^(V + 1) d_1 ... d_V.

    The lift is q itself because every |q_j| < M / 2.  Expanding the
    determinant in the diagonal terms -c d_i gives

        q_j = (-1)^j sum_{|S| = j} (prod_{i in S} d_i) det A[S', S'],

    S' the complement of S.  A row of A[S', S'] has nonnegative entries
    that sum to at most d_i, so its Euclidean norm is at most d_i, and
    Hadamard's inequality gives |det A[S', S']| <= prod_{i in S'} d_i.
    Hence |q_j| <= C(V, j) d_1 ... d_V <= 2^V d_1 ... d_V < M / 2.

    Raises ExactError for an entry that is not an integer, a matrix that
    is not square and nonempty, a negative entry or a zero row sum.
    """
    a = _integer_square(adj)
    n = len(a)
    if min(map(min, a)) < 0:
        raise ExactError("pencil entries must be nonnegative")
    degrees = [sum(row) for row in a]
    if not all(degrees):
        raise ExactError("pencil row sums must be positive")
    lead = (-1) ** n * math.prod(degrees)
    bound = abs(lead) << (n + 1)
    coeffs = [0] * (n + 1)
    modulus = 1
    primes = _word_primes()
    while modulus <= bound:
        p = next(primes)
        if lead % p == 0:
            continue
        m = [[x * inv % p for x in row]
             for row, inv in zip(a, (pow(d, -1, p) for d in degrees))]
        scale = lead % p
        inv_modulus = pow(modulus, -1, p)
        coeffs = [x + modulus * ((r * scale - x) * inv_modulus % p)
                  for x, r in zip(coeffs, _hessenberg_charpoly(m, p))]
        modulus *= p
    half = modulus >> 1
    return [x - modulus if x > half else x for x in coeffs]


# ---------------------------------------------------------------------------
# square-free structure
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
    """a - b for coefficient lists of equal length (see squarefree_factors)."""
    return _trim([x - y for x, y in zip(a, b, strict=True)])


def squarefree_factors(coeffs: Sequence[int]) -> list[tuple[list[int], int]]:
    """Yun decomposition p = prod q_i^i with q_i square-free and coprime.

    Returns (integer-normalized factor, multiplicity) pairs for every
    nonconstant factor, in increasing multiplicity order.  Runs in Z[x]:
    the gcds are primitive, and each division is by a primitive divisor
    over Q, hence exact in Z[x] (Gauss's lemma).  w and y are always
    divided by the same polynomial, so the scale of a gcd never matters.

    Every step subtracts w' from y, two lists of equal length.  With
    p = prod_j q_j^j, step i holds, for one rational s,

        w = s prod_{j >= i} q_j,
        y = s sum_{j >= i} (j - i + 1) q_j' prod_{k >= i, k != j} q_k,

    so y has the leading coefficient s l sum_{j >= i} (j - i + 1) deg q_j,
    l that of prod_{j >= i} q_j.  It is nonzero while w is not constant,
    and then deg y = deg w - 1 = deg w'; once w is constant, y = w' = 0.
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

