"""Normalized-Laplacian spectra of discrete graphs and their relation to
the metric spectrum of the corresponding unilateral graph.

The characteristic polynomial of I - D^{-1}A, which is similar to the
symmetric normalized Laplacian I - D^{-1/2}AD^{-1/2} and therefore has
the same spectrum, is det(mu D - (D - A)) / det D.  It is computed
exactly as the determinant of that integer matrix pencil, by the same
evaluation-interpolation kernel as the secular polynomial.
Generic metric eigenvalues k^2 (k not a multiple of pi) satisfy
1 - cos(k) = mu for some normalized-Laplacian eigenvalue mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exact import polymat_det
from .graphs import DiscreteGraph, GraphError, MetricGraph, betti, components, to_discrete
from .secular import spectrum_report


@dataclass(frozen=True)
class LnCharpoly:
    """Exact characteristic polynomial of the normalized Laplacian.

    Coefficients are rational, constant term first, monic of degree n.
    All roots are real and lie in [0, 2]; the multiplicity of 0 equals the
    number of connected components.
    """

    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@lru_cache(maxsize=4096)
def ln_charpoly(d: DiscreteGraph) -> LnCharpoly:
    """Exact charpoly of I - D^{-1}A (same spectrum as the normalized Laplacian).

    Computed as det(mu D - (D - A)), degree n with leading coefficient
    det D, made monic.
    """
    degrees = d.degrees()
    if any(deg == 0 for deg in degrees):
        raise GraphError("degree zero vertex")

    def pencil(mu: int) -> list[list[int]]:
        return [[a + (mu - 1) * deg if i == j else a for j, a in enumerate(row)]
                for i, (row, deg) in enumerate(zip(d.adj, degrees))]

    det = polymat_det(pencil, d.n, d.n)
    lead = det.coeffs[-1]
    return LnCharpoly(tuple(Fraction(c, lead) for c in det.coeffs))


def ln_eigenvalues(d: DiscreteGraph) -> np.ndarray:
    """Numeric normalized-Laplacian spectrum via the symmetric form."""
    degrees = d.degrees()
    if any(deg == 0 for deg in degrees):
        raise GraphError("degree zero vertex")
    inv_sqrt = np.diag([1.0 / math.sqrt(deg) for deg in degrees])
    a = np.array(d.adj, dtype=float)
    ln = np.eye(d.n) - inv_sqrt @ a @ inv_sqrt
    return np.linalg.eigvalsh(ln)


def ln_isospectral(d1: DiscreteGraph, d2: DiscreteGraph) -> bool:
    """Exact cospectrality of normalized Laplacians (sizes must agree)."""
    if d1.n != d2.n:
        return False
    return ln_charpoly(d1) == ln_charpoly(d2)


GENERIC_TOL = 1e-9


@dataclass(frozen=True)
class VonBelowReport:
    """Residuals |1 - cos(k) - mu_nearest| for each generic fundamental root."""

    residuals: tuple[tuple[float, float], ...]
    tol: float

    @property
    def ok(self) -> bool:
        return all(r < self.tol for _, r in self.residuals)

    @property
    def max_residual(self) -> float:
        return max((r for _, r in self.residuals), default=0.0)


def _is_pi_multiple(k: float) -> bool:
    return abs(k / math.pi - round(k / math.pi)) < GENERIC_TOL


def von_below_check(g: MetricGraph, tol: float = 1e-8) -> VonBelowReport:
    """Check 1 - cos(k) against the normalized-Laplacian spectrum.

    Every fundamental secular root k that is not a multiple of pi (the
    generic case) must map onto an eigenvalue of the normalized Laplacian
    of the discrete shadow.  Returns the per-root residuals.
    """
    if not g.is_unilateral:
        raise GraphError("graph not unilateral")
    if components(g) != 1:
        raise GraphError("graph not connected")
    mus = ln_eigenvalues(to_discrete(g))
    residuals = []
    for k, _ in spectrum_report(g).fundamental_roots:
        if _is_pi_multiple(k):
            continue
        target = 1.0 - math.cos(k)
        residuals.append((k, float(np.min(np.abs(mus - target)))))
    return VonBelowReport(tuple(residuals), tol)


@dataclass(frozen=True)
class PropositionReport:
    """Discrete-side isospectrality verdict with its evidence."""

    ln_equal: bool
    betti1: int
    betti2: int
    charpoly1: LnCharpoly
    charpoly2: LnCharpoly

    @property
    def isospectral(self) -> bool:
        return self.ln_equal and self.betti1 == self.betti2

    @property
    def verdict(self) -> str:
        return "metric-isospectral" if self.isospectral else "not-isospectral"


def proposition_check(g1: MetricGraph, g2: MetricGraph) -> PropositionReport:
    """Decide metric isospectrality from discrete data alone.

    Two unilateral graphs are isospectral iff their normalized Laplacians
    are cospectral and their first Betti numbers agree.  The verdict always
    matches `metric_isospectral`; tests assert this exhaustively on small
    graphs.
    """
    for g in (g1, g2):
        if not g.is_unilateral:
            raise GraphError("graph not unilateral")
    d1, d2 = to_discrete(g1), to_discrete(g2)
    return PropositionReport(
        ln_equal=ln_isospectral(d1, d2),
        betti1=betti(g1),
        betti2=betti(g2),
        charpoly1=ln_charpoly(d1),
        charpoly2=ln_charpoly(d2),
    )
