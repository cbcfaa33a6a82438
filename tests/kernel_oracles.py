"""Slow reference paths for the exact spectral keys, used only as oracles.

`scattering_secular_poly` is the secular polynomial as the determinant of
the 2N x 2N bond-scattering matrix E(z) - S_v, where E(z) couples the two
ends of each edge by z and S_v is block diagonal with blocks (2/d)J - I
for standard (Kirchhoff) conditions.  Each endpoint row is multiplied by
its vertex degree d, which makes the pencil integer and scales its
determinant by the constant prod d_v^(d_v), lost in projective
normalization.  `cofactor_det` is the determinant of a rational matrix by
cofactor expansion along the first row.  `faddeev_ln_charpoly` is the
normalized-Laplacian charpoly by the Faddeev-LeVerrier recurrence on
I - D^{-1}A.  The library computes both keys from V x V determinants
instead; these formulations share no matrix with it.
`expanded_secular_poly` is the secular polynomial expanded from the
pencil as (z^2 - 1)^(E - V) times its z-transform, with the negative
power of a forest divided out of the expansion by exact trial division;
the library factors the pencil at c = +-1 into a `SecularKey` instead,
compares keys, and expands only for printing.
`brute_force_canonical_form` is the canonical form by definition: the
least row-major adjacency encoding over all n! vertex orderings, and
`brute_force_automorphism_orbits` the vertex orbits of the full
automorphism group over the same orderings.  `reference_grow` is the
vertex-growth enumeration without orbit pruning: every non-zero column
of every class, in `itertools.product` order.
`reference_m_function` is the M-function evaluated one lambda at a time:
a Python assembly of T(lambda) from `edge_m_block`, the 2x2 block of one
edge in math-module arithmetic, then the Schur complement over the
interior vertices; the library stacks both steps.
`polymat_det` is the determinant of a polynomial matrix by exact Bareiss
determinants at consecutive integer points and one integer
forward-difference interpolation, `integer_interpolate`, certified by a
vanishing difference of order degree bound + 1; the library computes its
one pencil from charpolys modulo word primes instead.
`reference_interpolate` is Newton divided-difference interpolation in
Fractions at arbitrary points, an oracle for `integer_interpolate`.  `von_below_check` maps numeric
secular roots k onto the numeric normalized-Laplacian spectrum
(`ln_eigenvalues`, eigvalsh of the symmetric form) by 1 - cos(k) = mu,
a root-finding check of the identity the library's pencil A - cD is
built on.
`reference_squarefree_factors` is Yun's square-free decomposition in
Fraction arithmetic with monic gcds; the library runs it in Z[x] on
primitive pseudo-remainders.  `reference_detectable_spectrum` is detect
as a depth-first recursion, `reference_refine`, that counts at one
midpoint at a time through `reference_m_function`, and probes each
refined point or pole candidate when it reaches it with
`reference_crossing_multiplicity`, two more one-lambda evaluations; the
library bisects all brackets of a level at once on the stacked kernel
and takes every probe of one detect from one stacked evaluation.
`reference_invisible_multiplicity` is `invisible_multiplicity` on the
same one-lambda probes.
`poly_roots_unit_circle` finds the roots of the finished secular
polynomial of degree 2N: z = 1 and z = -1 by exact trial division, the
rest by numpy's companion matrix on its square-free factors; the library
takes c = 1 and c = -1 off the degree-V pencil and z-transforms only the
square-free factors of the rest, and must print the same floats.
`reference_printed_spectrum` solves the Fraction Yun factors with
mpmath at 60 digits.
`regular_printed_spectrum` needs no polynomial at all: it takes the
roots of a regular graph from the closed form of its adjacency spectrum.
`metric_isomorphic` decides isomorphism of small metric graphs by brute
force over all n! vertex bijections.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Callable, Iterator, Sequence

import mpmath
import numpy as np

from specgraph import (DiscreteGraph, ExactError, GraphError, LnCharpoly, MFunEval,
                       MetricGraph, ProjectivePoly, canonical_form, components, det_exact,
                       discrete_from_adj, poly_mul, poly_normalize, poly_pow, spectrum_report,
                       squarefree_factors, to_discrete, unit_subdivided)
from specgraph.exact import _deflate_linear
from specgraph.mfunction import (_POLE_MAGNITUDE, _PROBE_EPS, _PROBE_WINDOW, DETECT_GRID_STEP,
                                 DETECT_REFINE_TOL, EDGE_SINGULAR_TOL, INTERIOR_COND_LIMIT,
                                 DetectionResult, SingularSampleError, _check_samples,
                                 _edge_pole_candidates)
from specgraph.secular import _c_to_z, _pencil


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

    def entry_matrix(self, z: int) -> list[list[int]]:
        """E(z) - S_v with each endpoint row multiplied by its vertex degree
        d: the z entries become dz and the scattering block 2J - dI."""
        m = [[0] * self.size for _ in range(self.size)]
        degree = [0] * self.size
        for block in self.blocks:
            d = len(block)
            for a in block:
                degree[a] = d
                for b in block:
                    m[a][b] -= 2 - (d if a == b else 0)
        for a, b in self.pairs:
            m[a][b] += degree[a] * z
            m[b][a] += degree[b] * z
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


def expanded_secular_poly(d: DiscreteGraph) -> ProjectivePoly:
    """Secular polynomial (z^2 - 1)^(E - V) (2z)^V q((z^2 + 1) / 2z) of the
    unit graph whose shadow is d, expanded from its pencil q; for E < V the
    factor (z^2 - 1)^(V - E) is divided out of the z-transform exactly."""
    coeffs = _c_to_z(_pencil(d))
    power = d.n_edges - d.n
    if power >= 0:
        return poly_normalize(poly_mul(coeffs, poly_pow([-1, 0, 1], power)))
    for _ in range(-power):
        for root in (1, -1):
            coeffs = _deflate_linear(coeffs, root)
            if coeffs is None:
                raise ExactError(f"vertex determinant not divisible by (z^2 - 1)^{-power}")
    return poly_normalize(coeffs)


def cofactor_det(m: Sequence[Sequence[Fraction | int]]) -> Fraction | int:
    """Determinant by cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


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


def integer_interpolate(start: int, values: Sequence[int]) -> list[int]:
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
    coeffs = integer_interpolate(start, values)
    if coeffs.pop():
        raise ExactError("degree bound violated")
    return poly_normalize(coeffs)


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


def ln_eigenvalues(d: DiscreteGraph) -> np.ndarray:
    """Numeric normalized-Laplacian spectrum via the symmetric form."""
    degrees = d.degrees()
    if any(deg == 0 for deg in degrees):
        raise GraphError("degree zero vertex")
    inv_sqrt = np.diag([1.0 / math.sqrt(deg) for deg in degrees])
    a = np.array(d.adj, dtype=float)
    ln = np.eye(d.n) - inv_sqrt @ a @ inv_sqrt
    return np.linalg.eigvalsh(ln)


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


def brute_force_automorphism_orbits(d: DiscreteGraph) -> list[frozenset[int]]:
    """Orbit of each vertex under every automorphism of d."""
    auts = [p for p in permutations(range(d.n))
            if all(d.adj[p[i]][p[j]] == d.adj[i][j] for i in range(d.n) for j in range(d.n))]
    return [frozenset(p[v] for p in auts) for v in range(d.n)]


def reference_grow(n: int, m_max: int, multi: bool) -> Iterator[DiscreteGraph]:
    """One graph per canonical form of connected graphs on n vertices with
    at most m_max edges, in form order, grown from every column."""
    top = m_max if multi else 1
    level: dict[bytes, DiscreteGraph] = {}
    for loops in range(int(n == 1), m_max - (n - 1) + 1) if multi else (0,):
        d = discrete_from_adj([[2 * loops]])
        level[canonical_form(d)] = d
    for k in range(1, n):
        nxt: dict[bytes, DiscreteGraph] = {}
        for d in level.values():
            budget = m_max - d.n_edges - (n - 1 - k)
            for col in product(range(top + 1), repeat=k):
                if not any(col) or sum(col) > budget:
                    continue
                for loops in range(budget - sum(col) + 1) if multi else (0,):
                    child = discrete_from_adj([row + (c,) for row, c in zip(d.adj, col)]
                                              + [col + (2 * loops,)])
                    nxt.setdefault(canonical_form(child), child)
        level = nxt
    for key in sorted(level):
        yield level[key]


def metric_isomorphic(g1: MetricGraph, g2: MetricGraph,
                      max_vertices: int = 10) -> bool:
    """Exact isomorphism of small metric graphs (lengths included).

    Contacts are ignored; brute force over vertex bijections compatible
    with degrees.
    """
    if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
        return False
    if g1.n_vertices > max_vertices:
        raise GraphError("isomorphism brute-force bound exceeded")
    if sorted(g1.lengths) != sorted(g2.lengths):
        return False
    deg1 = [g1.degree(v) for v in range(g1.n_vertices)]
    deg2 = [g2.degree(v) for v in range(g2.n_vertices)]
    if sorted(deg1) != sorted(deg2):
        return False
    target = Counter((min(u, v), max(u, v), l) for u, v, l in g2.edge_list())
    for perm in permutations(range(g1.n_vertices)):
        if any(deg1[v] != deg2[perm[v]] for v in range(g1.n_vertices)):
            continue
        image = Counter((min(perm[u], perm[v]), max(perm[u], perm[v]), l)
                        for u, v, l in g1.edge_list())
        if image == target:
            return True
    return False


def edge_m_block(length: Fraction | float, lam: float) -> np.ndarray | None:
    """2x2 M-function block of a single edge, or None at a singular lambda.

    Diagonal -k*cot(k*l) and off-diagonal k/sin(k*l) for lam = k^2 > 0;
    the hyperbolic analogue for lam < 0 and the -1/l, 1/l limit at 0.
    """
    l = float(length)
    if lam > 0:
        k = math.sqrt(lam)
        s = math.sin(k * l)
        if abs(s) < EDGE_SINGULAR_TOL:
            return None
        a = -k * math.cos(k * l) / s
        b = k / s
    elif lam < 0:
        kappa = math.sqrt(-lam)
        a = -kappa / math.tanh(kappa * l)
        x = kappa * l
        b = kappa / math.sinh(x) if x < 350.0 else 0.0
    else:
        a = -1.0 / l
        b = 1.0 / l
    return np.array([[a, b], [b, a]])


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


def _fpoly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _fpoly_derivative(p: Sequence[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(p)][1:]


def _fpoly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]
                  ) -> tuple[list[Fraction], list[Fraction]]:
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1] * inv_lead
        quot[i] = c
        if c:
            for j, bj in enumerate(b):
                rem[i + j] -= c * bj
    return _fpoly_trim(quot), _fpoly_trim(rem)


def _fpoly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    x, y = _fpoly_trim(list(a)), _fpoly_trim(list(b))
    while y:
        x, y = y, _fpoly_divmod(x, y)[1]
    return [c / x[-1] for c in x] if x else [Fraction(1)]


def _fpoly_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _fpoly_trim(out)


def _fpoly_to_z(p: Sequence[Fraction]) -> list[int]:
    """The integer-normalized representative of a rational polynomial."""
    den = math.lcm(*(c.denominator for c in p))
    return list(poly_normalize([int(c * den) for c in p]).coeffs)


def reference_squarefree_factors(coeffs: Sequence[int]) -> list[tuple[list[int], int]]:
    """Yun decomposition over Q with monic gcds, factors normalized to Z."""
    p = _fpoly_trim([Fraction(c) for c in coeffs])
    if len(p) <= 1:
        return []
    dp = _fpoly_derivative(p)
    g = _fpoly_gcd(p, dp)
    if len(g) == 1:
        return [(list(poly_normalize(coeffs).coeffs), 1)]
    w, _ = _fpoly_divmod(p, g)
    y, _ = _fpoly_divmod(dp, g)
    z = _fpoly_sub(y, _fpoly_derivative(w))
    out: list[tuple[list[int], int]] = []
    i = 1
    while len(w) > 1:
        gi = _fpoly_gcd(w, z)
        if len(gi) > 1:
            out.append((_fpoly_to_z(gi), i))
        w, _ = _fpoly_divmod(w, gi)
        y, _ = _fpoly_divmod(z, gi)
        z = _fpoly_sub(y, _fpoly_derivative(w))
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


def reference_printed_spectrum(coeffs: Sequence[int]) -> dict[str, int]:
    """Roots z = e^{ik} of a secular polynomial as `spectrum` prints them.

    Each factor of `reference_squarefree_factors` is solved by
    mpmath.polyroots at 60 digits; k = arg z is taken in (0, 2pi] and
    keyed by its float to 12 significant digits, the CLI's format, with
    the multiplicities of equal keys summed.
    """
    out: Counter[str] = Counter()
    with mpmath.workdps(60):
        for factor, mult in reference_squarefree_factors(coeffs):
            for z in mpmath.polyroots(factor[::-1]):
                k = mpmath.arg(z)
                if k <= 0:
                    k += 2 * mpmath.pi
                out[f"{float(k):.12g}"] += mult
    return dict(out)


def regular_printed_spectrum(thetas: Sequence[tuple[object, int]], degree: int,
                             excess: int) -> dict[str, int]:
    """`spectrum`'s printed roots of a degree-regular graph with E - V =
    excess, from its adjacency eigenvalues theta and their multiplicities.

    D = degree * I, so the pencil det(A - cD) has the root c = theta/degree
    m times, and that gives k = arccos(c) and 2pi - k, m times each (two
    k = 2pi for c = 1, two k = pi for c = -1).  The factor
    (z^2 - 1)^excess adds excess at pi and at 2pi (von Below, 1985).  The
    k are taken at 40 digits, so thetas given as mpmath numbers should be
    computed at 40 digits too, and keyed as `reference_printed_spectrum`
    keys them.
    """
    out: Counter[str] = Counter()
    with mpmath.workdps(40):
        two_pi = 2 * mpmath.pi
        ks = [(mpmath.pi, excess), (two_pi, excess)]
        for theta, m in thetas:
            k = mpmath.acos(mpmath.mpf(theta) / degree)
            ks += [(k or two_pi, m), (two_pi - k, m)]
        for k, m in ks:
            out[f"{float(k):.12g}"] += m
    return {key: m for key, m in out.items() if m}


def reference_refine(k1: float, n1: int, k2: float, n2: int,
                     count: Callable[[float], int | None],
                     settled: Callable[[int, int], bool], refine_tol: float,
                     on_leaf: Callable[[float, int, float, int], None],
                     on_skip: Callable[[float], None]) -> None:
    """Depth-first bisection of one count bracket, one midpoint at a time."""
    if settled(n1, n2):
        return
    if k2 - k1 <= refine_tol:
        on_leaf(k1, n1, k2, n2)
        return
    mid = 0.5 * (k1 + k2)
    n_mid = count(mid)
    if n_mid is None:
        mid += 0.01 * (k2 - k1)
        n_mid = count(mid)
        if n_mid is None:
            on_skip(mid)
            return
    reference_refine(k1, n1, mid, n_mid, count, settled, refine_tol, on_leaf, on_skip)
    reference_refine(mid, n_mid, k2, n2, count, settled, refine_tol, on_leaf, on_skip)


def _reference_negative_count(g: MetricGraph, k: float) -> int | None:
    ev = reference_m_function(g, k * k)
    if not ev.regular:
        return None
    return int(np.sum(np.linalg.eigvalsh(ev.matrix) < 0.0))


def _reference_interior_count(g: MetricGraph, k: float) -> int | None:
    t = reference_assemble(g, k * k)
    if t is None:
        return None
    inner = interior_vertices(g)
    return int(np.sum(np.linalg.eigvalsh(t[np.ix_(inner, inner)]) < 0.0))


def _reference_steklov_eigs(g: MetricGraph, lam: float) -> np.ndarray | None:
    ev = reference_m_function(g, lam)
    return np.linalg.eigvalsh(ev.matrix) if ev.regular else None


def reference_crossing_multiplicity(g: MetricGraph, k: float,
                                    fallback: int | None) -> tuple[int, bool]:
    """Branches crossing zero at k from two one-lambda probes at k -+ eps.

    No pole (every probe eigenvalue below the pole magnitude): the
    fallback, or with None the drop of the negative count between the
    probes, clamped at 0.  A pole: the small negatives before and the
    small positives after, the smaller of the two, with a warning when
    they differ.  A singular probe raises SingularSampleError.
    """
    before = _reference_steklov_eigs(g, (k - _PROBE_EPS) ** 2)
    after = _reference_steklov_eigs(g, (k + _PROBE_EPS) ** 2)
    if before is None or after is None:
        raise SingularSampleError(f"singular bracket around k={k:.6g}")
    if max(np.max(np.abs(before)), np.max(np.abs(after))) < _POLE_MAGNITUDE:
        if fallback is None:
            fallback = max(int(np.sum(before < 0.0) - np.sum(after < 0.0)), 0)
        return fallback, False
    nb = int(np.sum((before > -_PROBE_WINDOW) & (before < 0.0)))
    na = int(np.sum((after < _PROBE_WINDOW) & (after > 0.0)))
    if nb != na:
        warnings.warn(
            f"asymmetric crossing count at pole k={k:.6g}: {nb} before, {na} after",
            stacklevel=2)
    return min(nb, na), True


def reference_invisible_multiplicity(g: MetricGraph, k: float) -> int:
    """Secular multiplicity at k minus the one-lambda crossing count, at least 0."""
    sec = spectrum_report(g).multiplicity_at(k)
    if sec == 0:
        raise GraphError(f"k={k:.6g} is not a fundamental root")
    det, _ = reference_crossing_multiplicity(g, k, None)
    if det > sec:
        warnings.warn(
            f"detectable multiplicity {det} exceeds secular multiplicity {sec} "
            f"at k={k:.6g}; clamping to 0", stacklevel=2)
        return 0
    return sec - det


def reference_detectable_spectrum(g: MetricGraph, k_max: float,
                                  grid_step: float = DETECT_GRID_STEP,
                                  refine_tol: float = DETECT_REFINE_TOL
                                  ) -> DetectionResult:
    """detectable_spectrum with every count and probe taken at one k at a time.

    Grid counts, midpoint counts, interior-block counts and crossing
    probes all come from the per-lambda oracle; every bracket is refined
    depth first, and the crossing multiplicity of a leaf is taken as soon
    as it is reached.
    """
    if not g.contacts:
        raise GraphError("empty contact set")
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise GraphError(f"grid step must be positive and finite, got {grid_step}")
    if not math.isfinite(k_max):
        raise GraphError(f"k_max must be finite, got {k_max}")
    if not refine_tol >= 0:
        raise GraphError(f"refinement tolerance must be non-negative, got {refine_tol}")
    _check_samples(k_max / grid_step)
    _check_samples(sum(k_max * float(l) / math.pi for l in set(g.lengths)))
    raw: list[tuple[float, int, bool]] = []
    notes: list[str] = []
    ks: list[float] = []
    k = grid_step
    while k <= k_max + 1e-12:
        ks.append(k)
        k += grid_step
    counts = [_reference_negative_count(g, k) for k in ks]

    def on_leaf(k1: float, n1: int, k2: float, n2: int) -> None:
        drop = n1 - n2
        if drop > 0:
            k0 = (k1 + k2) / 2
            mult, at_pole = reference_crossing_multiplicity(g, k0, drop)
            raw.append((k0, mult, at_pole))

    def on_skip(mid: float) -> None:
        notes.append(f"singular midpoints near k={mid:.6g}; bracket skipped")

    prev: tuple[float, int] | None = None
    pending_flag = False
    for k, n in zip(ks, counts):
        if n is None:
            notes.append(f"singular sample at k={k:.6g}")
            pending_flag = True
            continue
        if prev is not None:
            k1, n1 = prev
            if pending_flag:
                if n1 != n:
                    notes.append(
                        f"count change across singular sample in ({k1:.6g}, {k:.6g}) "
                        "not refined")
            elif n1 > n:
                reference_refine(k1, n1, k, n, lambda x: _reference_negative_count(g, x),
                                 lambda a, b: a == b, refine_tol, on_leaf, on_skip)
        prev = (k, n)
        pending_flag = False

    eps = 1e-4
    candidates = _edge_pole_candidates([float(l) for l in g.lengths], k_max)
    if interior_vertices(g):
        poles: list[float] = []
        prev = None
        for k, n in zip(ks, counts):
            n_inner = None if n is None else _reference_interior_count(g, k)
            if n_inner is None:
                prev = None
                continue
            if prev is not None and prev[1] > n_inner:
                reference_refine(prev[0], prev[1], k, n_inner,
                                 lambda x: _reference_interior_count(g, x),
                                 lambda a, b: a <= b, refine_tol,
                                 lambda k1, n1, k2, n2: poles.append((k1 + k2) / 2),
                                 lambda mid: None)
            prev = (k, n_inner)
        candidates += poles
    for k0 in sorted(candidates):
        if k0 <= grid_step + eps:
            continue
        if any(abs(k0 - kp) < 10 * eps for kp, _, _ in raw):
            continue
        mult, _ = reference_crossing_multiplicity(g, k0, 0)
        if mult > 0:
            raw.append((k0, mult, True))

    raw.sort()
    points: list[tuple[float, int, bool]] = []
    for k0, mult, at_pole in raw:
        if points and abs(k0 - points[-1][0]) < 10 * refine_tol:
            pk, pm, ppole = points[-1]
            combined = max(pm, mult) if (at_pole or ppole) else pm + mult
            points[-1] = (pk, combined, ppole or at_pole)
        else:
            points.append((k0, mult, at_pole))
    return DetectionResult(tuple((k, m) for k, m, _ in points), tuple(notes))
