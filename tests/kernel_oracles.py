"""Slow reference paths for the exact spectral keys, used only as oracles.

`scattering_secular_poly` is the secular polynomial as the determinant of
the 2N x 2N bond-scattering matrix E(z) - S_v, where E(z) couples the two
ends of each edge by z and S_v is block diagonal with blocks (2/d)J - I
for standard (Kirchhoff) conditions.  `faddeev_ln_charpoly` is the
normalized-Laplacian charpoly by the Faddeev-LeVerrier recurrence on
I - D^{-1}A.  The library computes both keys from V x V determinants
instead; these formulations share no matrix with it.
`brute_force_canonical_form` is the canonical form by definition: the
least row-major adjacency encoding over all n! vertex orderings.
`reference_m_function` is the M-function evaluated one lambda at a time:
a Python assembly of T(lambda) from `edge_m_block`, then the Schur
complement over the interior vertices; the library stacks both steps.
`reference_interpolate` is Newton divided-difference interpolation in
Fractions at arbitrary points; the library uses integer forward
differences at consecutive points.  `von_below_check` maps numeric
secular roots k onto the numeric normalized-Laplacian spectrum by
1 - cos(k) = mu, a root-finding check of the identity the library's
pencil A - cD is built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

import numpy as np

from specgraph import (DiscreteGraph, GraphError, LnCharpoly, MFunEval, MetricGraph,
                       ProjectivePoly, components, edge_m_block, ln_eigenvalues,
                       polymat_det, spectrum_report, to_discrete, unit_subdivided)
from specgraph.mfunction import INTERIOR_COND_LIMIT


@dataclass(frozen=True)
class ScatteringMatrixSpec:
    """Structure of the 2N x 2N matrix E(z) - S_v for a unilateral graph.

    `pairs` lists the endpoint index pairs receiving the z entries (one per
    edge); `blocks` lists each vertex's endpoint indices, whose scattering
    block is (2/d)J - I with d the vertex degree.
    """

    size: int
    pairs: tuple[tuple[int, int], ...]
    blocks: tuple[tuple[int, ...], ...]

    def entry_matrix(self, z: Fraction) -> list[list[Fraction]]:
        m = [[Fraction(0)] * self.size for _ in range(self.size)]
        for a, b in self.pairs:
            m[a][b] += z
            m[b][a] += z
        for block in self.blocks:
            d = len(block)
            off = Fraction(2, d)
            for a in block:
                for b in block:
                    m[a][b] -= off - (1 if a == b else 0)
        return m


def build_scattering_matrix(g: MetricGraph) -> ScatteringMatrixSpec:
    """Scattering matrix structure of a unilateral graph."""
    assert g.is_unilateral
    pairs = tuple((2 * i, 2 * i + 1) for i in range(g.n_edges))
    return ScatteringMatrixSpec(2 * g.n_edges, pairs, g.vertices)


def scattering_secular_poly(g: MetricGraph) -> ProjectivePoly:
    """Secular polynomial of an integer-length graph from the 2N x 2N matrix."""
    layout = build_scattering_matrix(g if g.is_unilateral else unit_subdivided(g))
    return polymat_det(layout.entry_matrix, layout.size, layout.size)


def charpoly_exact(m: list[list[Fraction]]) -> list[Fraction]:
    """Exact characteristic polynomial det(uI - m), constant term first.

    Uses the Faddeev-LeVerrier recurrence; the result is monic of degree n.
    """
    n = len(m)
    rows = [[Fraction(x) for x in row] for row in m]
    work = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    high_first = [Fraction(1)]
    for k in range(1, n + 1):
        work = [[sum(rows[i][t] * work[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)]
        c = -sum(work[i][i] for i in range(n)) / k
        high_first.append(c)
        for i in range(n):
            work[i][i] += c
    return high_first[::-1]


def faddeev_ln_charpoly(d: DiscreteGraph) -> LnCharpoly:
    """Charpoly of I - D^{-1}A by Faddeev-LeVerrier."""
    degrees = d.degrees()
    m = [[(1 if i == j else 0) - Fraction(d.adj[i][j], degrees[i]) for j in range(d.n)]
         for i in range(d.n)]
    return LnCharpoly(tuple(charpoly_exact(m)))


def reference_interpolate(points: Sequence[int],
                          values: Sequence[Fraction | int]) -> list[Fraction]:
    """Newton interpolation through (points[i], values[i]), monomial coefficients."""
    n = len(points)
    dd = [Fraction(v) for v in values]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (points[i] - points[i - j])
    coeffs = [Fraction(0)] * n
    basis = [Fraction(1)]
    for i in range(n):
        for t, b in enumerate(basis):
            coeffs[t] += dd[i] * b
        nxt = [Fraction(0)] * (len(basis) + 1)
        for t, b in enumerate(basis):
            nxt[t] -= points[i] * b
            nxt[t + 1] += b
        basis = nxt
    return coeffs


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


def brute_force_canonical_form(d: DiscreteGraph) -> bytes:
    """Least row-major adjacency encoding over every vertex ordering."""
    return min(bytes(d.adj[p[i]][p[j]] for i in range(d.n) for j in range(d.n))
               for p in permutations(range(d.n)))


def reference_assemble(g: MetricGraph, lam: float) -> np.ndarray | None:
    """Vertex-indexed derivative map T(lambda), or None if an edge is singular."""
    n = g.n_vertices
    t = np.zeros((n, n))
    for u, v, length in g.edge_list():
        block = edge_m_block(length, lam)
        if block is None:
            return None
        a, b = block[0, 0], block[0, 1]
        t[u, u] += a
        t[v, v] += a
        t[u, v] += b
        t[v, u] += b
    return t


def interior_vertices(g: MetricGraph) -> list[int]:
    return [v for v in range(g.n_vertices) if v not in set(g.contacts)]


def reference_m_function(g: MetricGraph, lam: float) -> MFunEval:
    """M-function at one lambda by assembly and Schur complement."""
    t = reference_assemble(g, lam)
    if t is None:
        return MFunEval(lam, None, False)
    contact = list(g.contacts)
    interior = interior_vertices(g)
    a = t[np.ix_(contact, contact)]
    if not interior:
        return MFunEval(lam, a, True)
    b = t[np.ix_(contact, interior)]
    c = t[np.ix_(interior, interior)]
    sv = np.linalg.svd(c, compute_uv=False)
    if sv[-1] < max(1.0, sv[0]) / INTERIOR_COND_LIMIT:
        return MFunEval(lam, None, False)
    m = a - b @ np.linalg.solve(c, b.T)
    return MFunEval(lam, m, True)
