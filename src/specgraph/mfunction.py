"""Titchmarsh-Weyl M-functions on the contact set, evaluated numerically.

M(lambda) maps boundary values on the contact vertices to summed outgoing
derivatives of the lambda-solution that satisfies standard (Kirchhoff)
conditions at all interior vertices.  It is assembled from per-edge 2x2
blocks and a Schur complement over the interior vertices.  Its
eigenvalues at fixed real lambda are the Steklov eigenvalues; their zero
crossings as lambda increases mark the detectable part of the spectrum.

Evaluation is stacked: `_Kernel` takes a whole array of lambdas, builds
every vertex-indexed derivative map T(lambda) as one array (edge blocks
once per distinct length, added edge by edge in edge order), and runs the
conditioning SVD, the solve, the Schur complement and eigvalsh as stacked
numpy calls, a fixed number of lambdas at a time.  Every value is the one
a separate evaluation at each lambda gives, bit for bit: the stacked
LAPACK calls run the same routine on each matrix, np.sin and np.cos agree
with math.sin and math.cos, and the hyperbolic blocks for lambda < 0 stay
on math.tanh and math.sinh because np.tanh and np.sinh do not.
`m_function` is the one-lambda case; `tests/kernel_oracles.py` keeps the
per-lambda assembly as the oracle.

Singularities (an edge at a Dirichlet resonance, or an interior Dirichlet
eigenvalue) are flagged values, never exceptions, so sweeps are total.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .graphs import GraphError, MetricGraph
from .secular import spectrum_report

EDGE_SINGULAR_TOL = 1e-10
INTERIOR_COND_LIMIT = 1e10
CLUSTER_TOL = 1e-7

#: largest number of lambda samples one sweep, detect grid or set of
#: detect pole probes may take; checked before any sample is built,
#: overridable by keyword
MAX_DETECT_SAMPLES = 100_000

#: lambdas per stacked evaluation, which bounds its working arrays
_CHUNK = 256

#: sample set used by default for equivalence checks: the negative half
#: line is pole-free, a few positive values catch sign conventions.
DEFAULT_SAMPLES: tuple[float, ...] = (-5.0, -4.0, -3.0, -2.0, -1.0, 0.3, 0.7, 1.3, 2.1)


class SingularSampleError(GraphError):
    """An operation hit a flagged singular lambda and cannot proceed."""


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


@dataclass(frozen=True)
class MFunEval:
    """M-function value at one real lambda (matrix is None when singular)."""

    lam: float
    matrix: np.ndarray | None
    regular: bool


def _edge_terms(lengths: np.ndarray, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge block entries per length and lambda, and the edge-singular lambdas.

    Row i holds the diagonal entry a for lengths[i] and row
    len(lengths) + i the off-diagonal entry b, with the formulas and the
    order of operations of edge_m_block.  The trigonometric formulas run
    over the whole stack; lambda <= 0 is then overwritten one value at a
    time.
    """
    nl = len(lengths)
    ab = np.empty((2 * nl, len(lams)))
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.sqrt(lams)
        kl = k * lengths.reshape(-1, 1)
        s = np.sin(kl)
        np.divide(-k * np.cos(kl), s, out=ab[:nl])
        np.divide(k, s, out=ab[nl:])
    singular = np.logical_or.reduce(np.abs(s) < EDGE_SINGULAR_TOL, axis=0)
    for j in (lams <= 0).nonzero()[0]:
        singular[j] = False
        if lams[j] == 0:
            ab[:nl, j] = -1.0 / lengths
            ab[nl:, j] = 1.0 / lengths
            continue
        kappa = math.sqrt(-float(lams[j]))
        for i, l in enumerate(lengths.tolist()):
            x = kappa * l
            ab[i, j] = -kappa / math.tanh(x)
            ab[nl + i, j] = kappa / math.sinh(x) if x < 350.0 else 0.0
    return ab, singular


class _MChunk(NamedTuple):
    """Stacked M-function values at consecutive lambdas.

    regular[i] says whether M exists at the i-th lambda; the rows of
    matrices and eigs at singular lambdas are NaN.  interior_neg[i] is the
    number of negative eigenvalues of the interior block of T (-1 where an
    edge is singular).  eigs and interior_neg are None unless requested.
    """

    regular: np.ndarray
    matrices: np.ndarray
    eigs: np.ndarray | None
    interior_neg: np.ndarray | None


class _Kernel:
    """Stacked M-function evaluation of one graph over arrays of lambdas.

    The constructor does the per-graph work once.  Edge e adds a to
    T[u, u] and T[v, v] and b to T[u, v] and T[v, u], in that order;
    `slots` lists these flat positions in T edge by edge and `picks` the
    row of the matching entry in the array of _edge_terms.
    """

    def __init__(self, g: MetricGraph) -> None:
        if not g.contacts:
            raise GraphError("empty contact set")
        n = self.n = g.n_vertices
        lengths = [float(l) for l in g.lengths]
        distinct = sorted(set(lengths))
        row = {l: i for i, l in enumerate(distinct)}
        slots: list[int] = []
        picks: list[int] = []
        for (u, v, _), l in zip(g.edge_list(), lengths):
            i = row[l]
            slots += (u * n + u, v * n + v, u * n + v, v * n + u)
            picks += (i, i, i + len(distinct), i + len(distinct))
        self.lengths = np.array(distinct)
        self.slots = np.array(slots, dtype=np.intp).reshape(-1, 1)
        self.picks = np.array(picks, dtype=np.intp)
        contact_set = set(g.contacts)
        self.contact = np.array(g.contacts, dtype=np.intp).reshape(-1, 1)
        self.inner = np.array([v for v in range(n) if v not in contact_set],
                              dtype=np.intp).reshape(-1, 1)

    def assemble(self, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """T(lambda) for every lambda as one stack, and the edge-singular lambdas.

        The terms are listed edge by edge, and np.bincount adds the
        weights of each bin in input order starting from 0.0, so every
        entry of T is summed edge by edge, as one assembly per lambda
        would.  Rows at edge-singular lambdas hold meaningless values.
        """
        terms, singular = _edge_terms(self.lengths, lams)
        size = self.n * self.n
        bins = (self.slots + np.arange(0, len(lams) * size, size)).ravel()
        t = np.bincount(bins, terms[self.picks].ravel(), len(lams) * size)
        return t.reshape(len(lams), self.n, self.n), singular

    def chunks(self, lams: Sequence[float], eigs: bool = False,
               interior: bool = False) -> Iterator[_MChunk]:
        """M at every lambda, _CHUNK lambdas per yielded chunk.

        Interior vertices are eliminated by a Schur complement; a lambda is
        singular when an edge block is singular or the interior block is
        numerically non-invertible (interior Dirichlet eigenvalue).
        """
        lams = np.asarray(lams, dtype=float)
        if not np.isfinite(lams).all():
            raise GraphError("lambda must be finite")
        for start in range(0, len(lams), _CHUNK):
            yield self._chunk(lams[start:start + _CHUNK], eigs, interior)

    def _chunk(self, lams: np.ndarray, eigs: bool, interior: bool) -> _MChunk:
        contact, inner = self.contact, self.inner
        t, singular = self.assemble(lams)
        m = t[:, contact, contact.T]
        rows = (~singular).nonzero()[0]
        c = t[rows.reshape(-1, 1, 1), inner, inner.T]
        interior_neg = None
        if interior:
            interior_neg = np.full(len(lams), -1)
            interior_neg[rows] = np.sum(np.linalg.eigvalsh(c) < 0.0, axis=1)
        if len(inner):
            sv = np.linalg.svd(c, compute_uv=False)
            keep = ~(sv[:, -1] < np.maximum(1.0, sv[:, 0]) / INTERIOR_COND_LIMIT)
            rows, c = rows[keep], c[keep]
            b = t[rows.reshape(-1, 1, 1), contact, inner.T]
            m[rows] = m[rows] - b @ np.linalg.solve(c, b.transpose(0, 2, 1))
        regular = np.zeros(len(lams), dtype=bool)
        regular[rows] = True
        m[~regular] = np.nan
        ev = None
        if eigs:
            ev = np.full(m.shape[:2], np.nan)
            ev[rows] = np.linalg.eigvalsh(m[rows])
        return _MChunk(regular, m, ev, interior_neg)

    def interior_count(self, lam: float) -> int | None:
        """Negative eigenvalues of the interior block of T, None if an edge is singular."""
        t, singular = self.assemble(np.array([lam]))
        if singular[0]:
            return None
        return int(np.sum(np.linalg.eigvalsh(t[0][self.inner, self.inner.T]) < 0.0))


def m_function(g: MetricGraph, lam: float) -> MFunEval:
    """M-function of g on its contact set at real lambda.

    The one-lambda case of the stacked evaluation; the result is flagged
    singular when an edge block is singular or the interior block is
    numerically non-invertible (interior Dirichlet eigenvalue).
    """
    chunk = next(_Kernel(g).chunks([lam]))
    if not chunk.regular[0]:
        return MFunEval(lam, None, False)
    return MFunEval(lam, chunk.matrices[0], True)


def steklov_eigs(g: MetricGraph, lam: float) -> np.ndarray | None:
    """Sorted Steklov eigenvalues at lambda, or None at a singular point."""
    ev = m_function(g, lam)
    if not ev.regular:
        return None
    return np.linalg.eigvalsh(ev.matrix)


@dataclass(frozen=True)
class SteklovCurve:
    """Steklov eigenvalue branches sampled over a lambda grid.

    branches[i] is the ascending eigenvalue tuple at grid[i], or None when
    the sample is singular.
    """

    grid: tuple[float, ...]
    branches: tuple[tuple[float, ...] | None, ...]

    @property
    def n_singular(self) -> int:
        return sum(1 for b in self.branches if b is None)


def _check_samples(count: float, max_samples: int) -> None:
    if count > max_samples:
        raise GraphError(f"{count:.6g} lambda samples requested, "
                         f"above the budget of {max_samples}")


def steklov_sweep(g: MetricGraph, lambda_min: float, lambda_max: float,
                  steps: int, max_samples: int = MAX_DETECT_SAMPLES) -> SteklovCurve:
    """Uniform sweep of the Steklov branches over [lambda_min, lambda_max].

    At most `max_samples` steps are taken; more raise GraphError.
    """
    if not (math.isfinite(lambda_min) and math.isfinite(lambda_max)):
        raise GraphError("sweep bounds must be finite")
    if not lambda_min < lambda_max:
        raise GraphError("need lambda_min < lambda_max")
    if steps < 2:
        raise GraphError("need at least two steps")
    _check_samples(steps, max_samples)
    grid = [lambda_min + (lambda_max - lambda_min) * i / (steps - 1)
            for i in range(steps)]
    branches: list[tuple[float, ...] | None] = []
    for chunk in _Kernel(g).chunks(grid, eigs=True):
        branches += [tuple(e.tolist()) if ok else None
                     for ok, e in zip(chunk.regular, chunk.eigs)]
    return SteklovCurve(tuple(grid), tuple(branches))


# ---------------------------------------------------------------------------
# detectable spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectionResult:
    """Zero crossings of Steklov branches: (k, multiplicity), plus warnings."""

    points: tuple[tuple[float, int], ...]
    warnings: tuple[str, ...]


def _negative_count(g: MetricGraph, k: float) -> int | None:
    eigs = steklov_eigs(g, k * k)
    if eigs is None:
        return None
    return int(np.sum(eigs < 0.0))


def _grid_counts(kernel: _Kernel, ks: Sequence[float]
                 ) -> tuple[list[int | None], list[int | None]]:
    """Counts at lambda = k^2 for every k, from one stacked evaluation.

    The first list counts negative Steklov eigenvalues, the second the
    negative eigenvalues of the interior block of T; both are None where
    M is singular.
    """
    k = np.array(ks, dtype=float)
    counts: list[int | None] = []
    interior: list[int | None] = []
    for chunk in kernel.chunks(k * k, eigs=True, interior=True):
        negative = np.sum(chunk.eigs < 0.0, axis=1)
        for ok, n, n_inner in zip(chunk.regular, negative.tolist(),
                                  chunk.interior_neg.tolist()):
            counts.append(n if ok else None)
            interior.append(n_inner if ok else None)
    return counts, interior


_POLE_MAGNITUDE = 1e4


def detectable_spectrum(g: MetricGraph, k_max: float,
                        grid_step: float = 0.01,
                        refine_tol: float = 1e-8,
                        max_samples: int = MAX_DETECT_SAMPLES) -> DetectionResult:
    """Detectable eigenvalues k in (grid_step, k_max] with multiplicities.

    Tracks the number of negative Steklov eigenvalues along a k grid and
    bisects every net decrease; the drop across the refined bracket is the
    multiplicity.  Crossings sitting exactly at an edge pole (k a multiple
    of pi over an edge length) are invisible to the count, so those
    candidate points are checked separately by counting branches that pass
    through zero from both sides of the pole.  Remaining brackets with
    flagged singular samples are skipped and reported; the exact secular
    route is the authority for zeros merged with interior poles.  The grid
    and the edge poles probed may each hold at most `max_samples` points;
    more raise GraphError before any sample is taken.
    """
    if not g.contacts:
        raise GraphError("empty contact set")
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise GraphError(f"grid step must be positive and finite, got {grid_step}")
    if not math.isfinite(k_max):
        raise GraphError(f"k_max must be finite, got {k_max}")
    if not refine_tol >= 0:
        raise GraphError(f"refinement tolerance must be non-negative, got {refine_tol}")
    _check_samples(k_max / grid_step, max_samples)
    _check_samples(sum(k_max * float(l) / math.pi for l in set(g.lengths)), max_samples)
    raw: list[tuple[float, int, bool]] = []
    notes: list[str] = []

    # The grid is accumulated, k += grid_step, drift included: printed
    # points depend on these exact k values, so i * grid_step would change
    # reference outputs.
    ks: list[float] = []
    k = grid_step
    while k <= k_max + 1e-12:
        ks.append(k)
        k += grid_step
    kernel = _Kernel(g)
    counts, interior_counts = _grid_counts(kernel, ks)

    def refine(k1: float, n1: int, k2: float, n2: int) -> None:
        if n1 == n2:
            return
        if k2 - k1 <= refine_tol:
            drop = n1 - n2
            if drop > 0:
                k0 = (k1 + k2) / 2
                mult, at_pole = _crossing_multiplicity(g, k0, drop)
                raw.append((k0, mult, at_pole))
            # a negative net change this tight is a pole, not a crossing
            return
        mid = 0.5 * (k1 + k2)
        n_mid = _negative_count(g, mid)
        if n_mid is None:
            mid += 0.01 * (k2 - k1)
            n_mid = _negative_count(g, mid)
            if n_mid is None:
                notes.append(f"singular midpoints near k={mid:.6g}; bracket skipped")
                return
        refine(k1, n1, mid, n_mid)
        refine(mid, n_mid, k2, n2)

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
                refine(k1, n1, k, n)
        prev = (k, n)
        pending_flag = False

    # crossings exactly at a pole may not change the negative count at all
    # (the pole jump cancels them), so pole locations are probed explicitly
    eps = 1e-4
    candidates = _edge_pole_candidates(g, k_max)
    candidates += _interior_pole_candidates(kernel, ks, interior_counts, refine_tol)
    for k0 in sorted(candidates):
        if k0 <= grid_step + eps:
            continue
        if any(abs(k0 - kp) < 10 * eps for kp, _, _ in raw):
            continue
        mult, _ = _crossing_multiplicity(g, k0, 0, eps=eps)
        if mult > 0:
            raw.append((k0, mult, True))

    # adjacent refined brackets at one pole re-count the same crossings
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


def _edge_pole_candidates(g: MetricGraph, k_max: float) -> list[float]:
    """Distinct k values in (0, k_max] where some edge block is singular.

    A pole within 1e-9 of one already kept is dropped; `out` stays sorted,
    so only the two neighbours of the insertion point need checking.
    """
    out: list[float] = []
    for length in sorted(set(g.lengths)):
        step = math.pi / float(length)
        m = 1
        while m * step <= k_max + 1e-12:
            k0 = m * step
            i = bisect.bisect_left(out, k0)
            if not any(abs(k0 - other) < 1e-9 for other in out[max(i - 1, 0):i + 1]):
                out.insert(i, k0)
            m += 1
    return out


def _interior_pole_candidates(kernel: _Kernel, ks: Sequence[float],
                              counts: Sequence[int | None],
                              refine_tol: float) -> list[float]:
    """Interior Dirichlet eigenvalues in k, the poles of the Schur complement.

    The interior block C(lambda) has nondecreasing eigenvalue branches
    between edge poles, so its zero crossings are bracketed by the drop in
    its negative-eigenvalue count, exactly like the detectable spectrum.
    counts[i] is that count at ks[i] (None to skip the point).
    """
    if not len(kernel.inner):
        return []

    def neg_count(k: float) -> int | None:
        return kernel.interior_count(k * k)

    poles: list[float] = []

    def refine(k1: float, n1: int, k2: float, n2: int) -> None:
        if n1 <= n2:
            return
        if k2 - k1 <= refine_tol:
            poles.append((k1 + k2) / 2)
            return
        mid = 0.5 * (k1 + k2)
        n_mid = neg_count(mid)
        if n_mid is None:
            mid += 0.01 * (k2 - k1)
            n_mid = neg_count(mid)
            if n_mid is None:
                return
        refine(k1, n1, mid, n_mid)
        refine(mid, n_mid, k2, n2)

    prev: tuple[float, int] | None = None
    for k, n in zip(ks, counts):
        if n is None:
            prev = None
            continue
        if prev is not None and prev[1] > n:
            refine(prev[0], prev[1], k, n)
        prev = (k, n)
    return poles


# ---------------------------------------------------------------------------
# equivalence and subspace comparisons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    max_residual: float

    def __bool__(self) -> bool:
        return self.equivalent


def steklov_equivalent(g1: MetricGraph, g2: MetricGraph,
                       bijection: Sequence[tuple[int, int]] | None = None,
                       samples: Sequence[float] = DEFAULT_SAMPLES,
                       tol: float = 1e-9) -> EquivalenceResult:
    """Whether M_{g1} and M_{g2} agree under a contact pairing at the samples.

    The bijection pairs contact positions of g1 with contact positions of
    g2 (identity by default).  A flagged singular sample raises; pick
    samples away from the singularities of both graphs.
    """
    b1, b2 = len(g1.contacts), len(g2.contacts)
    if b1 != b2:
        raise GraphError("contact counts differ")
    if bijection is None:
        bijection = [(i, i) for i in range(b1)]
    if (sorted(p for p, _ in bijection) != list(range(b1))
            or sorted(q for _, q in bijection) != list(range(b1))):
        raise GraphError("bijection must pair all contacts exactly once")
    sigma = [0] * b1
    for p, q in bijection:
        sigma[p] = q
    worst = 0.0
    for _, (m1, m2) in _sample_matrices((g1, g2), samples):
        permuted = m2[np.ix_(sigma, sigma)]
        worst = max(worst, float(np.max(np.abs(m1 - permuted))))
    return EquivalenceResult(worst < tol, worst)


def _sample_matrices(graphs: Sequence[MetricGraph], samples: Sequence[float]
                     ) -> Iterator[tuple[float, list[np.ndarray]]]:
    """(lambda, M of every graph) per sample, from one stacked evaluation each.

    Raises SingularSampleError at the first sample where any M is singular.
    """
    samples = list(samples)
    it = iter(samples)
    for chunks in zip(*(_Kernel(g).chunks(samples) for g in graphs)):
        for i in range(len(chunks[0].regular)):
            lam = next(it)
            if not all(c.regular[i] for c in chunks):
                raise SingularSampleError(
                    f"singular sample lambda={lam}; choose different samples")
            yield lam, [c.matrices[i] for c in chunks]


def _crossing_multiplicity(g: MetricGraph, k: float, fallback: int,
                           eps: float = 1e-4,
                           window: float = 0.05) -> tuple[int, bool]:
    """Branches crossing zero at k, robust to a pole sitting at k.

    Away from poles the drop in the negative-eigenvalue count across the
    bracket (the fallback) is authoritative.  At a pole, branches passing
    straight through zero are O(eps) on both sides while pole branches are
    O(1/eps), so small negatives before and small positives after are
    counted instead.  Returns (multiplicity, pole seen).
    """
    before = steklov_eigs(g, (k - eps) ** 2)
    after = steklov_eigs(g, (k + eps) ** 2)
    if before is None or after is None:
        raise SingularSampleError(f"singular bracket around k={k:.6g}")
    if max(np.max(np.abs(before)), np.max(np.abs(after))) < _POLE_MAGNITUDE:
        return fallback, False
    nb = int(np.sum((before > -window) & (before < 0.0)))
    na = int(np.sum((after < window) & (after > 0.0)))
    if nb != na:
        warnings.warn(
            f"asymmetric crossing count at pole k={k:.6g}: {nb} before, {na} after",
            stacklevel=2)
    return min(nb, na), True


def invisible_multiplicity(g: MetricGraph, k: float) -> int:
    """Secular multiplicity at the fundamental root k minus detectable part.

    The detectable part is the number of Steklov branches crossing zero at
    k, counted pole-robustly from both sides of a tight bracket.
    """
    report = spectrum_report(g)
    sec = report.multiplicity_at(k)
    if sec == 0:
        raise GraphError(f"k={k:.6g} is not a fundamental root")
    before = _negative_count(g, k - 1e-4)
    after = _negative_count(g, k + 1e-4)
    if before is None or after is None:
        raise SingularSampleError(f"singular bracket around k={k:.6g}")
    det, _ = _crossing_multiplicity(g, k, max(before - after, 0))
    invisible = sec - det
    if invisible < 0:
        warnings.warn(
            f"detectable multiplicity {det} exceeds secular multiplicity {sec} "
            f"at k={k:.6g}; clamping to 0", stacklevel=2)
        return 0
    return invisible


@dataclass(frozen=True)
class Method3Sample:
    lam: float
    degenerate_found: bool
    eigenvalues_match: bool
    complement_match: bool

    @property
    def ok(self) -> bool:
        return self.degenerate_found and self.eigenvalues_match and self.complement_match


@dataclass(frozen=True)
class Method3Report:
    samples: tuple[Method3Sample, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.samples)


def method3_verify(k_graph: MetricGraph, q1: MetricGraph, q2: MetricGraph,
                   samples: Sequence[float] = DEFAULT_SAMPLES,
                   tol: float = 1e-8) -> Method3Report:
    """Check the subspace-swapping hypotheses at each sample lambda.

    (a) M of the common graph has a degenerate eigenvalue with eigenspace
    V(lambda); (b) M_{q1} and M_{q2} have identical sorted eigenvalues;
    (c) their compressions to the orthogonal complement of V(lambda)
    coincide.  Contact order is the declared pairing for all three graphs.
    """
    if not len(k_graph.contacts) == len(q1.contacts) == len(q2.contacts):
        raise GraphError("contact counts differ")
    out: list[Method3Sample] = []
    for lam, (mk, m1, m2) in _sample_matrices((k_graph, q1, q2), samples):
        w, vecs = np.linalg.eigh(mk)
        clusters: list[list[int]] = [[0]]
        for i in range(1, len(w)):
            if w[i] - w[clusters[-1][0]] < CLUSTER_TOL:
                clusters[-1].append(i)
            else:
                clusters.append([i])
        best = max(clusters, key=len)
        degenerate = len(best) > 1
        w1 = np.linalg.eigvalsh(m1)
        w2 = np.linalg.eigvalsh(m2)
        eig_match = bool(np.max(np.abs(w1 - w2)) < tol)
        if degenerate:
            comp_idx = [i for i in range(len(w)) if i not in best]
            comp = vecs[:, comp_idx]
            diff = comp.T @ (m1 - m2) @ comp
            comp_match = bool(
                diff.size == 0 or np.linalg.norm(diff, 2) < tol)
        else:
            comp_match = False
        out.append(Method3Sample(lam, degenerate, eig_match, comp_match))
    return Method3Report(tuple(out))
