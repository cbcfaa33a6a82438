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
graph and cached (`_pencil`); both exact keys derive from it, and
`secular_poly.cache_clear()` or `ln_charpoly.cache_clear()` drops it.

When N < V (forest components) the power of (z^2 - 1) is negative and is
divided out exactly.  Nonzero eigenvalues are (k + 2*pi*m)^2 for each
unit-circle root z = e^{ik}; the eigenvalue 0 has multiplicity equal to
the number of components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .exact import (ProjectivePoly, _deflate_linear, poly_mul, poly_normalize,
                    poly_pow, polymat_det)
from .graphs import (DiscreteGraph, GraphError, MetricGraph, components, to_discrete,
                     unit_subdivided)


#: how near a fundamental root k must be to match it in multiplicity_at:
#: 100 times detect's default refine_tol, and the closest distinct roots
#: of 36 catalog and 300 random multigraphs are 0.017 apart
ROOT_MATCH_TOL = 1e-6


class SecularError(GraphError):
    pass


@dataclass(frozen=True)
class SecularMatrixSpec:
    """Structure of the V x V pencil A - cD of a unilateral graph.

    `adj` is the discrete adjacency matrix (loops count 2 on the diagonal)
    and `degrees` its row sums.
    """

    adj: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.adj)

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
    """coeffs * (z^2 - 1)^power; a negative power must divide exactly."""
    if power >= 0:
        return poly_normalize(poly_mul(coeffs, poly_pow([-1, 0, 1], power)))
    quot: list[int] | None = coeffs
    for _ in range(-power):
        for root in (1, -1):
            quot = _deflate_linear(quot, root)
            if quot is None:
                raise SecularError(
                    f"vertex determinant not divisible by (z^2 - 1)^{-power}")
    return poly_normalize(quot)


@lru_cache(maxsize=4096)
def _pencil(d: DiscreteGraph) -> tuple[int, ...]:
    """Coefficients of q(c) = det(A - cD) of d, projectively normalized:
    the one determinant behind both exact keys of d.

    Refuses a d with no edges or with a vertex on no edge, which no metric
    graph has as its shadow.  Every degree is then positive, so q has the
    leading coefficient (-1)^V times the product of the degrees and degree
    exactly V = d.n, which both keys rely on.
    """
    degrees = d.degrees()
    if not any(degrees):
        raise GraphError("discrete graph has no edges")
    if not all(degrees):
        raise GraphError("every vertex must meet at least one edge endpoint")
    spec = SecularMatrixSpec(d.adj, degrees)
    return polymat_det(spec.entry_matrix, spec.size, spec.size).coeffs


def _clears_pencil(cached):
    """Make cached.cache_clear() empty the `_pencil` cache too, so that a
    cleared key cache recomputes its determinants."""
    clear = cached.cache_clear

    def cache_clear() -> None:
        clear()
        _pencil.cache_clear()

    cached.cache_clear = cache_clear
    return cached


@_clears_pencil
@lru_cache(maxsize=4096)
def secular_poly(g: MetricGraph) -> ProjectivePoly:
    """Exact secular polynomial of g, degree 2N, projectively normalized.

    Integer edge lengths are subdivided into unit edges first (the metric
    space, hence the spectrum, is unchanged); other lengths are rejected.
    """
    return _discrete_secular(to_discrete(_as_unilateral(g)))


def _discrete_secular(d: DiscreteGraph) -> ProjectivePoly:
    """Secular polynomial of the unilateral graph whose discrete shadow is
    d, straight from the pencil of d, which refuses a d that no metric
    graph has as its shadow."""
    return _times_z2_minus_1(_c_to_z(_pencil(d)), d.n_edges - d.n)


def metric_isospectral(g1: MetricGraph, g2: MetricGraph) -> bool:
    """Exact equality of Laplacian spectra of two (integer-length) graphs.

    True iff the secular polynomials agree projectively and the component
    counts (the multiplicity of the eigenvalue 0) agree.
    """
    if components(g1) != components(g2):
        return False
    return secular_poly(g1) == secular_poly(g2)


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

    The roots are extracted once per polynomial object (see
    `ProjectivePoly.unit_circle_roots`), so repeated reports on one graph
    cost a cache lookup until `secular_poly.cache_clear()`.
    """
    return SpectrumReport(secular_poly(g).unit_circle_roots, components(g))
