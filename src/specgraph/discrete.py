"""Normalized-Laplacian spectra of discrete graphs and their relation to
the metric spectrum of the corresponding unilateral graph.

The characteristic polynomial of I - D^{-1}A, which is similar to the
symmetric normalized Laplacian I - D^{-1/2}AD^{-1/2} and therefore has
the same spectrum, is det(mu D - (D - A)) / det D.  That matrix is the
pencil A - cD of `secular.SecularMatrixSpec` at c = 1 - mu, so both
exact keys come from one degree-V integer pencil q(c) = det(A - cD),
computed once per discrete graph (`secular._pencil`, from charpolys of
D^-1 A modulo word primes by `exact.pencil_det`).  The secular key
(`secular.SecularKey`) is q split at c = 1 and c = -1; the ln key is q
shifted here to c = 1 - mu by exact integer additions, not evaluated a
second time.  Clearing either key's cache (`ln_charpoly.cache_clear()`,
`secular_poly.cache_clear()`) drops the shared pencils and the secular
keys too.  Generic
metric eigenvalues k^2 (k not a multiple of pi) satisfy 1 - cos(k) = mu
for some normalized-Laplacian eigenvalue mu; together with the first
Betti number this decides metric isospectrality (`proposition_check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import attrgetter

from .graphs import DiscreteGraph, GraphError, MetricGraph, betti, to_discrete
from .secular import _clears_pencil, _pencil


@dataclass(frozen=True)
class LnCharpoly:
    """Exact characteristic polynomial of the normalized Laplacian.

    Coefficients are rational, constant term first, monic of degree n.
    All roots are real and lie in [0, 2]; the multiplicity of 0 equals the
    number of connected components.
    """

    coeffs: tuple[Fraction, ...]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # Fraction.__hash__ takes a modular inverse per coefficient; equal
        # Fractions, kept in lowest terms, have equal numerators and denominators
        return hash(tuple(map(attrgetter("numerator", "denominator"), self.coeffs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def line(self, label: str) -> str:
        """Single-line serialization: `label: c0 c1 ... cn`."""
        return f"{label}: " + " ".join(str(c) for c in self.coeffs)


@_clears_pencil
@lru_cache(maxsize=4096)
def ln_charpoly(d: DiscreteGraph) -> LnCharpoly:
    """Exact charpoly of I - D^{-1}A (same spectrum as the normalized Laplacian).

    Computed as det(mu D - (D - A)), the pencil q(c) = det(A - cD) at
    c = 1 - mu, degree n with leading coefficient det D, made monic.  q is
    the one `secular._pencil` of d, shared with the secular key, which
    refuses a d with a vertex on no edge.  It is shifted here exactly, by
    O(n^2) integer additions.
    """
    p = list(_pencil(d))
    n = len(p) - 1
    # Taylor shift: the coefficients of q(1 + x)
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            p[j] += p[j + 1]
    # then x = -mu
    p = [-c if j % 2 else c for j, c in enumerate(p)]
    return LnCharpoly(tuple(Fraction(c, p[-1]) for c in p))


def ln_isospectral(d1: DiscreteGraph, d2: DiscreteGraph) -> bool:
    """Exact cospectrality of normalized Laplacians (sizes must agree)."""
    if d1.n != d2.n:
        return False
    return ln_charpoly(d1) == ln_charpoly(d2)


@dataclass(frozen=True)
class PropositionReport:
    """Discrete-side isospectrality verdict with its evidence."""

    betti1: int
    betti2: int
    charpoly1: LnCharpoly
    charpoly2: LnCharpoly

    @property
    def isospectral(self) -> bool:
        return self.charpoly1 == self.charpoly2 and self.betti1 == self.betti2

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
        betti1=betti(g1),
        betti2=betti(g2),
        charpoly1=ln_charpoly(d1),
        charpoly2=ln_charpoly(d2),
    )
