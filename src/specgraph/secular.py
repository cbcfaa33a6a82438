"""Secular polynomials of unilateral metric graphs and exact isospectrality.

For a graph with all edge lengths 1 the Laplacian spectrum is encoded by
the secular polynomial det(E(z) - S_v) of the 2N x 2N bond-scattering
matrix.  It reduces to the V x V vertex determinant

    secular(z) ~ (z^2 - 1)^(N - V) * det(2z A - (z^2 + 1) D)

with A the adjacency matrix (a loop adds 2 to its diagonal entry) and D
the degree matrix (von Below, LAA 71, 1985; Kottos and Smilansky, Ann.
Phys. 274, 1999).  Since 2z A - (z^2 + 1) D = 2z (A - cD) with
c = (z^2 + 1) / 2z, the cosine of k for z = e^{ik}, what is computed is
the degree-V pencil q(c) = det(A - cD), followed by the z-transform

    det(2z A - (z^2 + 1) D) = sum_j q_j (z^2 + 1)^j (2z)^(V - j).

q is the same pencil that gives the normalized-Laplacian charpoly at
c = 1 - mu (`discrete.ln_charpoly`).  It is computed once per discrete
graph and cached (`_pencil`): by `exact.pencil_det`, multimodular and
exact by a proved coefficient bound, then checked against one Bareiss
determinant at c = 2.  Both exact keys derive from it, and
`secular_poly.cache_clear()` or `ln_charpoly.cache_clear()` drops it.

Every question is answered from one canonical form, the `SecularKey`:
q is split once at c = 1 and c = -1 (`_discrete_key`), and with the
integer N - V the two root counts and the rest r give the multiplicities
of z = 1 and z = -1 and the remaining factor.  Nonzero eigenvalues are
(k + 2*pi*m)^2 for each unit-circle root z = e^{ik}; the eigenvalue 0 has
multiplicity equal to the number of components.  `metric_isospectral`
compares component counts and keys.  `spectrum_report` reads the roots
off the key: only the square-free factors of r are z-transformed and
handed to numpy's companion-matrix root finder, the one floating-point
step of the exact keys.  `secular_poly` expands the key to degree 2N,
for printing only.  The key of a metric graph is cached per graph and
emptied with the key caches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .exact import (ExactError, ProjectivePoly, _deflate_linear, _primitive, det_exact,
                    pencil_det, poly_mul, poly_normalize, poly_pow, squarefree_factors)
from .graphs import (DiscreteGraph, GraphError, MetricGraph, components, to_discrete,
                     unit_subdivided)


#: how near a fundamental root k must be to match it in multiplicity_at:
#: 100 times detect's default refine_tol, and the closest distinct roots
#: of 36 catalog and 300 random multigraphs are 0.017 apart
ROOT_MATCH_TOL = 1e-6

TWO_PI = 2.0 * math.pi

#: secular roots of 36 catalog and 300 random multigraphs stray <= 8.3e-15 from |z| = 1
UNIT_CIRCLE_TOL = 1e-8


class SecularError(GraphError):
    pass


@dataclass(frozen=True)
class SecularMatrixSpec:
    """Structure of the V x V pencil A - cD of a unilateral graph.

    `adj` is the discrete adjacency matrix (loops count 2 on the diagonal)
    and `degrees` its row sums.  `_pencil` checks q(2) against the exact
    determinant of `entry_matrix(2)`.
    """

    adj: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]

    def entry_matrix(self, c: int) -> list[list[int]]:
        """The integer matrix A - cD at the integer sample point c."""
        return [[a - c * deg if i == j else a for j, a in enumerate(row)]
                for i, (row, deg) in enumerate(zip(self.adj, self.degrees))]


def _as_unilateral(g: MetricGraph) -> MetricGraph:
    """g with unit edges, by unit_subdivided even when g already has them
    (it returns such a g itself), so that MAX_UNIT_EDGES bounds every
    input of the exact keys."""
    if any(l.denominator != 1 for l in g.lengths):
        raise SecularError(
            "graph not unilateral and lengths are not integers; "
            "secular analysis needs unit edges")
    return unit_subdivided(g)


def _c_to_z(q: Sequence[int]) -> list[int]:
    """Coefficients of (2z)^V * q((z^2 + 1) / 2z) for q of degree V, i.e.
    of sum_j q_j (z^2 + 1)^j (2z)^(V - j), by homogeneous Horner."""
    acc = [q[-1]]
    for i in range(1, len(q)):
        acc = acc + [0, 0]
        for t in range(len(acc) - 3, -1, -1):
            acc[t + 2] += acc[t]
        acc[i] += q[-1 - i] << i
    return acc


def _times_z2_minus_1(coeffs: list[int], power: int) -> ProjectivePoly:
    """coeffs * (z^2 - 1)^power for power >= 0, normalized.

    (z^2 - 1)^power is written down from its binomial coefficients and
    taken as the outer factor of `poly_mul`, which skips its zero odd
    coefficients.
    """
    factor = [0] * (2 * power + 1)
    binom = 1
    for i in range(power + 1):
        factor[2 * i] = -binom if (power - i) % 2 else binom
        binom = binom * (power - i) // (i + 1)
    return poly_normalize(poly_mul(factor, coeffs))


#: caches of values derived from the pencils, which the key caches'
#: cache_clear() empties too (`_clears_pencil`)
_DERIVED_CACHES: list = []


def _derived_cache(cached):
    """Register the lru_cache cached, whose values derive from the pencils
    or the keys and roots read off them, to be emptied with the key caches."""
    _DERIVED_CACHES.append(cached)
    return cached


@_derived_cache
@lru_cache(maxsize=4096)
def _pencil(d: DiscreteGraph) -> tuple[int, ...]:
    """Coefficients of q(c) = det(A - cD) of d, projectively normalized:
    the one determinant behind both exact keys of d.

    Refuses a d with no edges or with a vertex on no edge, which no metric
    graph has as its shadow.  Every degree is then positive, so q has the
    leading coefficient (-1)^V times the product of the degrees and degree
    exactly V = d.n, which both keys rely on.

    q comes from `pencil_det`, exact by its coefficient bound, and is
    checked against one determinant computed independently of it: Bareiss
    elimination on A - 2D.  Every root of q lies in [-1, 1], so q(2) != 0,
    and a wrong coefficient q_j alone moves q(2) by a nonzero multiple of
    2^j.  A mismatch raises ExactError.
    """
    degrees = d.degrees()
    if not any(degrees):
        raise GraphError("discrete graph has no edges")
    if not all(degrees):
        raise GraphError("every vertex must meet at least one edge endpoint")
    q = pencil_det(d.adj)
    q_at_2 = sum(c << j for j, c in enumerate(q))
    if det_exact(SecularMatrixSpec(d.adj, degrees).entry_matrix(2)) != q_at_2:
        raise ExactError("pencil check failed: det(A - 2D) differs from q(2)")
    return poly_normalize(q).coeffs


def _clears_pencil(cached):
    """Make cached.cache_clear() empty every derived cache too: the
    `_pencil` cache, the keys factored from it (`_metric_key`) and what
    other modules register with `_derived_cache`, so that a cleared key
    cache recomputes its determinants."""
    clear = cached.cache_clear

    def cache_clear() -> None:
        clear()
        for derived in _DERIVED_CACHES:
            derived.cache_clear()

    cached.cache_clear = cache_clear
    return cached


@dataclass(frozen=True)
class SecularKey:
    """The secular polynomial of a unit-edge graph, factored at z = +-1.

    Write the pencil q = u (c - 1)^a (c + 1)^b r, with u a constant and
    r(+-1) != 0.  Since 2z (c - 1) = (z - 1)^2 and 2z (c + 1) = (z + 1)^2,
    the secular polynomial is, up to a constant,

        (z - 1)^m_2pi (z + 1)^m_pi (2z)^deg r r((z^2 + 1) / 2z)

    with m_2pi = E - V + 2a and m_pi = E - V + 2b, the multiplicities of
    the roots k = 2pi and k = pi.  The last factor is prime to z - 1 and
    z + 1, of degree 2 deg r, and determines r, which is kept primitive
    with a positive leading coefficient.  So two keys are equal exactly
    when the secular polynomials agree projectively, across vertex counts,
    and comparing them expands nothing.

    Both multiplicities are nonnegative for every pencil `_pencil` admits.
    D^-1 A is similar to the symmetric D^-1/2 A D^-1/2, and on a connected
    component its eigenvalue 1 is simple and -1 is simple if the component
    is bipartite and absent otherwise.  So a is the number of components,
    and m_2pi is betti + components >= 1.  A component with E_i edges and
    V_i vertices adds E_i - V_i + 2 b_i to m_pi: 1 for a tree, which is
    bipartite, and betti_i - 1 + 2 b_i >= 0 otherwise.
    """

    m_2pi: int
    m_pi: int
    rest: tuple[int, ...]

    def poly(self) -> ProjectivePoly:
        """The secular polynomial, expanded for printing, as
        (z^2 - 1)^min(m_2pi, m_pi) times the z-transform of
        (c -+ 1)^(|m_2pi - m_pi| / 2) r: both powers are nonnegative."""
        root = 1 if self.m_2pi > self.m_pi else -1
        c_side = poly_mul(poly_pow([-root, 1], abs(self.m_2pi - self.m_pi) // 2), self.rest)
        return _times_z2_minus_1(_c_to_z(c_side), min(self.m_2pi, self.m_pi))

    @cached_property
    def roots(self) -> tuple[tuple[float, int], ...]:
        """Unit-circle roots of the secular polynomial as sorted
        (k, multiplicity), k = arg(z) in (0, 2pi], found once per key.

        k = 2pi and k = pi have the exact multiplicities m_2pi and m_pi.
        A root c0 != +-1 of r gives the two distinct roots of
        z^2 - 2 c0 z + 1, so the square-free factors f of r give pairwise
        coprime square-free z-factors, prime to z - 1 and z + 1, and made
        primitive they are the square-free factors of the secular
        polynomial with z = +-1 divided out.  Companion-matrix root finding
        is only ever applied to their simple roots, which keeps every root
        within UNIT_CIRCLE_TOL of the unit circle; ExactError if one strays
        further.
        """
        found = [(k, mult) for k, mult in ((TWO_PI, self.m_2pi), (math.pi, self.m_pi)) if mult]
        for factor, mult in squarefree_factors(self.rest):
            for z in np.roots([float(c) for c in reversed(_primitive(_c_to_z(factor)))]):
                if abs(abs(z) - 1.0) > UNIT_CIRCLE_TOL:
                    raise ExactError(f"root off unit circle: |z|={abs(z):.6g} "
                                     f"(|z| - 1 = {abs(z) - 1.0:.3g}) for z={z:.6g}")
                theta = math.atan2(z.imag, z.real)
                found.append((theta if theta > 0 else theta + TWO_PI, mult))
        found.sort()
        return tuple(found)


def _discrete_key(d: DiscreteGraph) -> SecularKey:
    """The secular key of the unit graph whose shadow is d, from the cached
    pencil of d, which refuses a d that no metric graph has as its shadow.

    The one place where c = 1 and c = -1 are divided out of q, by exact
    trial division.  q is primitive with a positive leading coefficient,
    and so is each quotient by the monic c -+ 1 (Gauss's lemma).
    """
    rest, power = list(_pencil(d)), d.n_edges - d.n
    mults = []
    for root in (1, -1):
        mult = power
        while (quot := _deflate_linear(rest, root)) is not None:
            rest, mult = quot, mult + 2
        mults.append(mult)
    return SecularKey(mults[0], mults[1], tuple(rest))


@_derived_cache
@lru_cache(maxsize=4096)
def _metric_key(g: MetricGraph) -> SecularKey:
    """The secular key of g, built once per graph, with its roots cached on
    it; integer edge lengths are subdivided into unit edges first, other
    lengths are rejected."""
    return _discrete_key(to_discrete(_as_unilateral(g)))


@_clears_pencil
@lru_cache(maxsize=4096)
def secular_poly(g: MetricGraph) -> ProjectivePoly:
    """Exact secular polynomial of g, degree 2N, projectively normalized.

    Integer edge lengths are subdivided into unit edges first (the metric
    space, hence the spectrum, is unchanged); other lengths are rejected.
    The polynomial is the expansion of g's `SecularKey`, for printing.
    """
    return _metric_key(g).poly()


def metric_isospectral(g1: MetricGraph, g2: MetricGraph) -> bool:
    """Exact equality of Laplacian spectra of two (integer-length) graphs.

    True iff the component counts (the multiplicity of the eigenvalue 0)
    agree and so do the secular keys, which holds iff the secular
    polynomials agree projectively; neither polynomial is expanded.
    """
    if components(g1) != components(g2):
        return False
    return _metric_key(g1) == _metric_key(g2)


@dataclass(frozen=True)
class SpectrumReport:
    """Unit-circle root data of a secular polynomial.

    fundamental_roots lists (k, multiplicity) with k in (0, 2*pi],
    strictly increasing; each k stands for the eigenvalues (k + 2*pi*m)^2,
    m >= 0, except that k = 2*pi encodes (2*pi*m)^2 for m >= 1.  The
    eigenvalue 0 has multiplicity `components`.
    """

    fundamental_roots: tuple[tuple[float, int], ...]
    components: int

    def multiplicity_at(self, k: float) -> int:
        """Multiplicity of the fundamental root within ROOT_MATCH_TOL of k, or 0."""
        for root, mult in self.fundamental_roots:
            if abs(root - k) < ROOT_MATCH_TOL:
                return mult
        return 0


def spectrum_report(g: MetricGraph) -> SpectrumReport:
    """Fundamental roots of the secular polynomial, with multiplicities.

    The roots are read off g's `SecularKey`, not off `secular_poly`, and
    kept with the key per graph, so repeated reports on one graph cost a
    cache lookup until `secular_poly.cache_clear()` or
    `ln_charpoly.cache_clear()`; UNIT_CIRCLE_TOL is read when they are
    first found.
    """
    return SpectrumReport(_metric_key(g).roots, components(g))
