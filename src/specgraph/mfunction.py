"""Titchmarsh-Weyl M-functions on the contact set, evaluated numerically.

M(lambda) maps boundary values on the contact vertices to summed outgoing
derivatives of the lambda-solution that satisfies standard (Kirchhoff)
conditions at all interior vertices.  It is assembled from per-edge 2x2
blocks and a Schur complement over the interior vertices.  Its
eigenvalues at fixed real lambda are the Steklov eigenvalues; their zero
crossings as lambda increases mark the detectable part of the spectrum.

Evaluation is stacked: `_Kernel.evaluate` takes a whole array of lambdas
and returns M, or only its ascending eigenvalues (nb floats per lambda),
indexed by lambda.  It builds every vertex-indexed derivative map T(lambda)
as one array (edge blocks once per distinct length, added edge by edge in
edge order) and runs eigvalsh of the interior block C, the solve, the
Schur complement and eigvalsh of M as stacked numpy calls of at most
_CHUNK_ENTRIES array entries, a split no caller sees.  C is symmetric, so
its one eigvalsh gives both its singular values (the conditioning test)
and its negative count (whose drops locate the interior Dirichlet poles).
Every value is the one a separate evaluation at each lambda gives, bit
for bit: the stacked LAPACK calls run the same routine on each matrix,
whatever else the stack holds, np.sin and np.cos agree with math.sin and
math.cos, and the hyperbolic blocks for lambda < 0 stay on math.tanh and
math.sinh because np.tanh and np.sinh do not.  `tests/kernel_oracles.py`
keeps the per-lambda assembly from 2x2 edge blocks (`edge_m_block`), with
a singular-value conditioning test, as the oracle.

One `detect` is one kernel: `detectable_spectrum` builds a `_Kernel` for
its k grid and takes every later sample from it.  The grid takes two
stacked evaluations (`_grid_brackets`): a coarse pass over the ends of the
pieces between edge poles and every _GRID_STRIDE-th point, then a fine
pass over every stretch whose ends differ in a count or are singular.
Between edge poles M is a matrix Herglotz function, monotone in lambda
with its interior block, so a stretch whose ends agree has their counts
throughout, and one scan of the evaluated points, in k order, yields the
Steklov brackets, the interior-pole brackets and the grid notes, each
note with its k.  `_refine` bisects the Steklov and interior-pole
brackets together in rounds of one stacked evaluation.  Each round walks
every open bracket down as far as the counts known so far reach; a
bracket that needs an unknown count asks for it and for the midpoints on
its bisection paths toward the crossings and poles inside it that the
spectrum of the unit subdivision predicts (`_predicted_targets`).  A
count depends on its k only, so a prediction changes the number of
stacked calls, never a count.  The +-_PROBE_EPS crossing probes of all
refined points and pole candidates are one more stacked evaluation, read
in depth-first order afterwards.  Brackets and notes carry no recursion
path: the brackets of a group are disjoint, so ascending k is the
depth-first order.  `invisible_multiplicity` probes every fundamental
root of a graph in one stacked evaluation and keeps the table per graph.

Singularities (an edge at a Dirichlet resonance, or an interior Dirichlet
eigenvalue) are flagged values, never exceptions, so sweeps are total.
"""

from __future__ import annotations

import bisect
import math
import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .graphs import GraphError, MetricGraph
from .secular import ROOT_MATCH_TOL, _derived_cache, spectrum_report

#: |sin kl| is <= 9.8e-16 at float edge poles, >= 1.6e-9 at regular samples (README)
EDGE_SINGULAR_TOL = 1e-10
#: interior-block condition is 3.5e15 at S3's pole k = pi/2, <= 9.6e9 at regular samples
INTERIOR_COND_LIMIT = 1e10
#: method3_verify eigenvalue gaps: <= 3.6e-15 inside a degenerate one, >= 0.10 between
CLUSTER_TOL = 1e-7

#: largest number of lambda samples one sweep, detect grid or set of
#: detect pole probes may take; checked before any sample is built
MAX_DETECT_SAMPLES = 100_000

#: detect's default k grid step and refinement tolerance, read when
#: detectable_spectrum is called without them
DETECT_GRID_STEP = 0.01
DETECT_REFINE_TOL = 1e-8

#: array entries one stacked call of `_Kernel.evaluate` may take: a lambda
#: costs n^2 entries of T plus 8E bincount bins and weights, so a call
#: holds _CHUNK_ENTRIES // (n^2 + 8E) lambdas, and at least one
_CHUNK_ENTRIES = 1 << 20

#: most vertices and edges a graph may have for an M-function, checked
#: before its lengths are read or any array is built.  The entry budget
#: keeps each working array of a stacked call near 8 MiB, so the bounds cap
#: the time of one lambda: `detect --kmax 1.5` on a path of 200 vertices
#: with one contact (25 lambdas per call; shared 2-core x86, Python 3.11,
#: numpy 2.4) takes 12 s and 56 MiB peak RSS.
MAX_MFUNCTION_VERTICES = 200
MAX_MFUNCTION_EDGES = 10_000

#: sample set of every equivalence check: the negative half line is
#: pole-free, a few positive values catch sign conventions.
DEFAULT_SAMPLES: tuple[float, ...] = (-5.0, -4.0, -3.0, -2.0, -1.0, 0.3, 0.7, 1.3, 2.1)

#: largest M residual still called equivalent: equivalent pairs reach at
#: most 5.3e-15 at DEFAULT_SAMPLES (fig6_cycle against fig6_eight), the
#: inequivalent Q1/Q2 and Gamma1/Gamma2 pairs 6.01
EQUIVALENCE_TOL = 1e-9

#: method3_verify's eigenvalue and compression tolerance: the K4 and S4
#: hosts with Q1/Q2 reach at most 3.6e-15, S4 posing as Q2's partner 12.0
METHOD3_TOL = 1e-8


class SingularSampleError(GraphError):
    """An operation hit a flagged singular lambda and cannot proceed."""


@dataclass(frozen=True)
class MFunEval:
    """M-function value at one real lambda (matrix is None when singular)."""

    lam: float
    matrix: np.ndarray | None
    regular: bool


def _edge_terms(lengths: np.ndarray, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge block entries per length and lambda, and the edge-singular lambdas.

    Row i holds the diagonal entry a for lengths[i] and row
    len(lengths) + i the off-diagonal entry b: -k*cot(k*l) and k/sin(k*l)
    for lambda = k^2 > 0, the hyperbolic analogue for lambda < 0 and the
    -1/l, 1/l limit at 0, with the formulas and the order of operations
    of the one-edge oracle `tests/kernel_oracles.py::edge_m_block`.  The
    trigonometric formulas run over the whole stack; lambda <= 0, where
    the stack has one, is then overwritten one value at a time.
    """
    nl = len(lengths)
    ab = np.empty((2 * nl, len(lams)))
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.sqrt(lams)
        kl = k * lengths.reshape(-1, 1)
        s = np.sin(kl)
        np.divide(-k * np.cos(kl), s, out=ab[:nl])
        np.divide(k, s, out=ab[nl:])
    singular = (np.abs(s) < EDGE_SINGULAR_TOL).any(axis=0)
    nonpositive = lams <= 0
    if nonpositive.any():
        for j in nonpositive.nonzero()[0]:
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


class _MValues(NamedTuple):
    """Stacked M-function values, one row per requested lambda.

    regular[i] says whether M exists at the i-th lambda.  values[i] is M
    there, or its ascending eigenvalues when those were requested; rows
    at singular lambdas are NaN.  interior[i] counts the negative
    eigenvalues of the interior block of T, None where an edge block is
    singular.
    """

    regular: np.ndarray
    values: np.ndarray
    interior: list[int | None]


def _float_lengths(g: MetricGraph) -> list[float]:
    """The edge lengths of g as floats; nothing else here converts g.lengths.

    Every edge block divides by its length (the lambda = 0 block is
    -1/l, 1/l), so a length is refused unless its float is positive and
    finite with a finite reciprocal: 1e400 overflows, 1e-400 rounds to 0.
    """
    out = []
    for i, l in enumerate(g.lengths):
        try:
            x = float(l)
        except OverflowError:
            x = math.inf
        if not (0.0 < x < math.inf and 1.0 / x < math.inf):
            raise GraphError(f"edge {i}: length as a float is {x:.6g}, M-functions need "
                             "a positive finite float with a finite reciprocal")
        out.append(x)
    return out


class _Kernel:
    """Stacked M-function evaluation of one graph over arrays of lambdas.

    The constructor does the per-graph work once.  Edge e adds a to
    T[u, u] and T[v, v] and b to T[u, v] and T[v, u], in that order;
    `slots` lists these flat positions in T edge by edge and `picks` the
    row of the matching entry in the array of _edge_terms.  `cc`, `ii`
    and `ci` list row by row the flat positions in T of the contact
    block, the interior block C and the contact-interior block B, so that
    `take` gathers each block of a whole stack as one C-contiguous array
    (a strided gather would send `B @ X` down another matmul loop).
    `entries` is what one lambda costs of the entry budget.
    """

    def __init__(self, g: MetricGraph) -> None:
        if not g.contacts:
            raise GraphError("empty contact set")
        n = self.n = g.n_vertices
        if n > MAX_MFUNCTION_VERTICES:
            raise GraphError(f"graph has {n} vertices, above the bound of "
                             f"{MAX_MFUNCTION_VERTICES} for M-functions")
        if g.n_edges > MAX_MFUNCTION_EDGES:
            raise GraphError(f"graph has {g.n_edges} edges, above the bound of "
                             f"{MAX_MFUNCTION_EDGES} for M-functions")
        lengths = _float_lengths(g)
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
        self.entries = n * n + 8 * g.n_edges
        contact_set = set(g.contacts)
        contact = np.array(g.contacts, dtype=np.intp)
        inner = np.array([v for v in range(n) if v not in contact_set], dtype=np.intp)
        self.nb, self.ni = len(contact), len(inner)
        self.cc = (contact.reshape(-1, 1) * n + contact).ravel()
        self.ii = (inner.reshape(-1, 1) * n + inner).ravel()
        self.ci = (contact.reshape(-1, 1) * n + inner).ravel()

    def assemble(self, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """T(lambda) for every lambda as one stack of flat rows, and the
        edge-singular lambdas.

        The terms are listed edge by edge, and np.bincount adds the
        weights of each bin in input order starting from 0.0, so every
        entry of T is summed edge by edge, as one assembly per lambda
        would.  Rows at edge-singular lambdas are zero.
        """
        terms, singular = _edge_terms(self.lengths, lams)
        size = self.n * self.n
        bins = (self.slots + np.arange(0, len(lams) * size, size)).ravel()
        t = np.bincount(bins, terms[self.picks].ravel(), len(lams) * size)
        t = t.reshape(len(lams), size)
        t[singular] = 0.0
        return t, singular

    def evaluate(self, lams: Sequence[float], eigs: bool = False) -> _MValues:
        """M at every lambda, or its ascending eigenvalues when eigs is set.

        The stacked calls take as many lambdas as _CHUNK_ENTRIES allows
        (read at call time), and at least one; their results fill one
        array per request.  Interior vertices are eliminated by a Schur
        complement; a lambda is singular when an edge block is singular
        or the interior block is numerically non-invertible (interior
        Dirichlet eigenvalue).
        """
        lams = np.asarray(lams, dtype=float)
        if not np.isfinite(lams).all():
            raise GraphError("lambda must be finite")
        n = len(lams)
        regular = np.empty(n, dtype=bool)
        values = np.empty((n, self.nb) if eigs else (n, self.nb, self.nb))
        interior: list[int | None] = []
        step = max(1, _CHUNK_ENTRIES // self.entries)
        for start in range(0, n, step):
            part = slice(start, start + step)
            regular[part], values[part], negative = self._chunk(lams[part], eigs)
            interior += negative
        return _MValues(regular, values, interior)

    def _chunk(self, lams: np.ndarray, eigs: bool) -> _MValues:
        nb, ni = self.nb, self.ni
        t, singular = self.assemble(lams)
        m = t.take(self.cc, axis=1).reshape(-1, nb, nb)
        regular = ~singular
        negative = np.zeros(len(lams), dtype=np.intp)
        if ni:
            # every C of the stack goes through eigvalsh, the zero C of an
            # edge-singular lambda too
            c = t.take(self.ii, axis=1).reshape(-1, ni, ni)
            w = np.linalg.eigvalsh(c)
            negative = (w < 0.0).sum(1)
            # C is symmetric, so its singular values are the |w|
            sv = np.abs(w)
            regular &= ~(sv.min(1) < np.maximum(1.0, sv.max(1)) / INTERIOR_COND_LIMIT)
            # the solve takes the regular rows, gathered only when there are others
            rows = slice(None) if regular.all() else regular.nonzero()[0]
            b = t.take(self.ci, axis=1).reshape(-1, nb, ni)[rows]
            m[rows] -= b @ np.linalg.solve(c[rows], b.transpose(0, 2, 1))
        values = np.linalg.eigvalsh(m) if eigs else m
        values[~regular] = np.nan
        interior = [None if s else n for s, n in zip(singular.tolist(), negative.tolist())]
        return _MValues(regular, values, interior)


def m_function(g: MetricGraph, lam: float) -> MFunEval:
    """M-function of g on its contact set at real lambda.

    The one-lambda case of the stacked evaluation; the result is flagged
    singular when an edge block is singular or the interior block is
    numerically non-invertible (interior Dirichlet eigenvalue).
    """
    m = _Kernel(g).evaluate([lam])
    if not m.regular[0]:
        return MFunEval(lam, None, False)
    return MFunEval(lam, m.values[0], True)


def steklov_eigs(g: MetricGraph, lam: float) -> np.ndarray | None:
    """Sorted Steklov eigenvalues at lambda, or None at a singular point."""
    ev = _Kernel(g).evaluate([lam], eigs=True)
    return ev.values[0] if ev.regular[0] else None


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


def _check_samples(count: float) -> None:
    if count > MAX_DETECT_SAMPLES:
        raise GraphError(f"{count:.6g} lambda samples requested, "
                         f"above the budget of {MAX_DETECT_SAMPLES}")


def steklov_sweep(g: MetricGraph, lambda_min: float, lambda_max: float,
                  steps: int) -> SteklovCurve:
    """Uniform sweep of the Steklov branches over [lambda_min, lambda_max].

    At most MAX_DETECT_SAMPLES steps are taken; more raise GraphError.
    """
    if not (math.isfinite(lambda_min) and math.isfinite(lambda_max)):
        raise GraphError("sweep bounds must be finite")
    if not lambda_min < lambda_max:
        raise GraphError("need lambda_min < lambda_max")
    if steps < 2:
        raise GraphError("need at least two steps")
    _check_samples(steps)
    grid = [lambda_min + (lambda_max - lambda_min) * i / (steps - 1)
            for i in range(steps)]
    ev = _Kernel(g).evaluate(grid, eigs=True)
    return SteklovCurve(tuple(grid), tuple(
        tuple(e) if ok else None for ok, e in zip(ev.regular.tolist(), ev.values.tolist())))


# ---------------------------------------------------------------------------
# detectable spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectionResult:
    """Zero crossings of Steklov branches: (k, multiplicity), plus warnings."""

    points: tuple[tuple[float, int], ...]
    warnings: tuple[str, ...]


def _counts(kernel: _Kernel, ks: Sequence[float]
            ) -> tuple[list[int | None], list[int | None]]:
    """Counts at lambda = k^2 for every k, from one stacked pass.

    The first list counts negative Steklov eigenvalues, None where M is
    singular; the second the negative eigenvalues of the interior block
    of T, None where an edge block is singular.
    """
    k = np.array(ks, dtype=float)
    ev = kernel.evaluate(k * k, eigs=True)
    negative = (ev.values < 0.0).sum(1)
    return ([n if ok else None for ok, n in zip(ev.regular.tolist(), negative.tolist())],
            ev.interior)


#: grid steps per coarse stretch of detect's grid: on the 28 catalog
#: graphs with contacts at k <= 12.6, strides 8 to 16 evaluate 199-220 of
#: the 1,260 grid points per detect (4 evaluates 345, 24 evaluates 240)
_GRID_STRIDE = 8


#: a bracket (k1, n1, k2, n2) of counts n1 at k1 and n2 at k2 > k1
_Bracket = tuple[float, int, float, int]


def _grid_brackets(kernel: _Kernel, ks: Sequence[float], lengths: Sequence[float]
                   ) -> tuple[list[_Bracket], list[_Bracket], list[tuple[float, str]]]:
    """The Steklov brackets, interior-pole brackets and notes of the
    ascending grid ks, from two stacked passes and one scan in k order.

    The grid is cut into pieces at every edge pole (`_edge_poles`, before
    `_edge_pole_candidates` merges those closer than 1e-9), so that the
    points on either side of a pole end two pieces.  The coarse pass
    evaluates each piece's ends and every _GRID_STRIDE-th point between.
    Between two edge poles T(lambda) is a matrix Herglotz function, so the
    eigenvalues of M and of its interior block C are nondecreasing in
    lambda wherever they exist, and both negative counts are
    nonincreasing: a coarse stretch whose ends are regular and agree in
    both counts has those counts, and no zero eigenvalue of C, at every
    point between.  The fine pass evaluates every inner point of every
    other stretch.  An edge-singular point lies within about 1e-10/l of a
    pole, so it ends a piece or sits in a run of such points from a piece
    end, and never inside a stretch with regular ends.

    The scan visits the evaluated points only: a settled stretch would
    add no bracket and no note.  A drop of the Steklov count between
    regular samples with no singular sample between them is a Steklov
    bracket; a count change across singular samples is a note.  A drop of
    the interior count between the same two samples brackets an interior
    Dirichlet pole; the interior count exists wherever M does.  Each note
    carries the k of its sample.
    """
    size = len(ks)
    if not size:
        return [], [], []
    poles = _edge_poles(lengths, ks[-1])
    starts = sorted(set(np.searchsorted(np.array(ks), poles).tolist()) - {0, size})
    coarse: list[int] = []
    for a, b in zip([0] + starts, starts + [size]):
        coarse += range(a, b - 1, _GRID_STRIDE)
        coarse.append(b - 1)
    counts = dict(zip(coarse, zip(*_counts(kernel, [ks[i] for i in coarse]))))
    fine = [i for a, b in zip(coarse, coarse[1:])
            if counts[a][0] is None or counts[a] != counts[b] for i in range(a + 1, b)]
    counts.update(zip(fine, zip(*_counts(kernel, [ks[i] for i in fine]))))

    brackets: list[_Bracket] = []
    pole_brackets: list[_Bracket] = []
    notes: list[tuple[float, str]] = []
    prev: tuple[float, int, int] | None = None
    pending_flag = False
    for i, (n, m) in sorted(counts.items()):
        k = ks[i]
        if n is None:
            notes.append((k, f"singular sample at k={k:.6g}"))
            pending_flag = True
            continue
        if prev is not None:
            k1, n1, m1 = prev
            if pending_flag:
                if n1 != n:
                    notes.append((k, f"count change across singular sample in "
                                     f"({k1:.6g}, {k:.6g}) not refined"))
            else:
                if n1 > n:
                    brackets.append((k1, n1, k, n))
                if m1 > m:
                    pole_brackets.append((k1, m1, k, m))
        prev = (k, n, m)
        pending_flag = False
    return brackets, pole_brackets, notes


def _refine(groups: Sequence[tuple[Sequence[_Bracket], Sequence[float],
                                   Callable[[int, int], bool]]],
            counts: Callable[[list[float]], Sequence[Sequence[int | None]]],
            refine_tol: float) -> list[tuple[list[_Bracket], list[float]]]:
    """Bisect the brackets of every group in rounds of one `counts` call.

    Group j is (brackets, ascending targets, settled): it reads the j-th
    count list that `counts` returns and drops a bracket with
    settled(n1, n2), which holds nothing.  A bracket at most refine_tol
    wide, or with no float strictly between its ends, is a leaf.  Every
    other bracket is split at 0.5 * (k1 + k2); where its count there is
    None the split moves by 1% of the width, and where that count is None
    too the bracket is skipped at the moved midpoint.  Each round walks
    every open bracket down as far as the counts known so far reach.  A
    bracket that needs an unknown count asks for it, and for the midpoints
    on its bisection path toward every target strictly inside it (a
    target on a midpoint takes the upper half); one call of `counts`
    answers every new ask of the round.  Without targets a round asks one
    level; a target changes the number of rounds, never a count.  Returns
    (leaves, skipped midpoints) per group, each in ascending k.  The
    brackets of a group are disjoint, and each skipped midpoint lies in
    its own bracket, so that is the order a depth-first recursion would
    meet them in.
    """
    known: dict[float, tuple[int | None, ...]] = {}
    out: list[tuple[list[_Bracket], list[float]]] = [([], []) for _ in groups]
    waiting = [(j, bracket) for j, (brackets, _, _) in enumerate(groups) for bracket in brackets]
    while waiting:
        stack, waiting, asks = waiting, [], []
        while stack:
            j, bracket = stack.pop()
            k1, n1, k2, n2 = bracket
            _, targets, settled = groups[j]
            if settled(n1, n2):
                continue
            mid = 0.5 * (k1 + k2)
            if k2 - k1 <= refine_tol or not k1 < mid < k2:
                out[j][0].append(bracket)
                continue
            if mid in known and known[mid][j] is None:
                mid += 0.01 * (k2 - k1)
            if mid not in known:
                waiting.append((j, bracket))
                asks.append(mid)
                for t in targets[bisect.bisect_right(targets, k1):bisect.bisect_left(targets, k2)]:
                    a, b, m = k1, k2, mid
                    while True:
                        a, b = (a, m) if t < m else (m, b)
                        m = 0.5 * (a + b)
                        if b - a <= refine_tol or not a < m < b:
                            break
                        asks.append(m)
                continue
            n = known[mid][j]
            if n is None:
                out[j][1].append(mid)
            else:
                stack += [(j, (k1, n1, mid, n)), (j, (mid, n, k2, n2))]
        new = [k for k in dict.fromkeys(asks) if k not in known]
        if new:
            known.update(zip(new, zip(*counts(new))))
    for leaves, skipped in out:
        leaves.sort()
        skipped.sort()
    return out


#: half-width in k of the crossing probes around a refined point or pole:
#: 1e4 times DETECT_REFINE_TOL, so both probes leave the refined
#: bracket, and 100 times below DETECT_GRID_STEP
_PROBE_EPS = 1e-4

#: |Steklov eigenvalue| below which a probe counts a branch passing
#: through zero at a pole: such branches are O(eps), pole ones O(1/eps)
_PROBE_WINDOW = 0.05

#: a probe eigenvalue this large marks a pole at k: 1/_PROBE_EPS
_POLE_MAGNITUDE = 1e4


def detectable_spectrum(g: MetricGraph, k_max: float,
                        grid_step: float | None = None,
                        refine_tol: float | None = None) -> DetectionResult:
    """Detectable eigenvalues k in (grid_step, k_max] with multiplicities.

    Tracks the number of negative Steklov eigenvalues along a k grid and
    bisects every net decrease; the drop across the refined bracket is the
    multiplicity.  Crossings sitting exactly at a pole (an edge pole, k a
    multiple of pi over an edge length, or an interior Dirichlet
    eigenvalue, located by bisecting the drops of the interior block's
    negative count) are invisible to the count, so those candidate points
    are checked separately by counting branches that pass through zero
    from both sides of the pole.  Remaining brackets with flagged singular
    samples are skipped and reported; the exact secular route is the
    authority for zeros merged with interior poles.  The grid and the
    edge poles probed may each hold at most MAX_DETECT_SAMPLES points;
    more raise GraphError before any sample is taken.  grid_step and
    refine_tol default to DETECT_GRID_STEP and DETECT_REFINE_TOL as they
    are when called.

    Every sample comes from one kernel: the grid's coarse and fine passes
    (see `_grid_brackets`), which give the brackets and notes a full
    evaluation of the grid gives, then the rounds of both bisections,
    steered toward the predicted points (see `_refine` and
    `_predicted_targets`), then the crossing probes of every refined point
    and every pole candidate, one stacked evaluation each.  Refined points,
    multiplicities, notes, errors and warnings are those of a depth-first
    refinement that probes bracket by bracket: the probes are read in
    that order, and a candidate the skip rule drops is never read.
    """
    if grid_step is None:
        grid_step = DETECT_GRID_STEP
    if refine_tol is None:
        refine_tol = DETECT_REFINE_TOL
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise GraphError(f"grid step must be positive and finite, got {grid_step}")
    if not math.isfinite(k_max):
        raise GraphError(f"k_max must be finite, got {k_max}")
    if not refine_tol >= 0:
        raise GraphError(f"refinement tolerance must be non-negative, got {refine_tol}")
    _check_samples(k_max / grid_step)
    kernel = _Kernel(g)
    lengths = kernel.lengths.tolist()
    _check_samples(sum(k_max * l / math.pi for l in lengths))

    # The grid is accumulated, k += grid_step, drift included: printed
    # points depend on these exact k values, so i * grid_step would change
    # reference outputs.
    ks: list[float] = []
    k = grid_step
    while k <= k_max + 1e-12:
        ks.append(k)
        k += grid_step
    brackets, pole_brackets, notes = _grid_brackets(kernel, ks, lengths)

    crossings, interior_poles = _predicted_targets(g, lengths, k_max)
    (leaves, skipped), (poles, _) = _refine(
        [(brackets, crossings, operator.eq), (pole_brackets, interior_poles, operator.le)],
        lambda ks: _counts(kernel, ks), refine_tol)
    # ascending k is the order of a depth-first refinement: a skipped
    # midpoint lies inside its grid bracket, and no grid note does
    notes += [(mid, f"singular midpoints near k={mid:.6g}; bracket skipped")
              for mid in skipped]
    notes.sort(key=lambda note: note[0])

    # a negative net change this tight is a pole, not a crossing
    drops = [((k1 + k2) / 2, n1 - n2) for k1, n1, k2, n2 in leaves if n1 > n2]
    # crossings exactly at a pole may not change the negative count at all
    # (the pole jump cancels them), so pole locations are probed explicitly
    candidates = _edge_pole_candidates(lengths, k_max)
    candidates += [(k1 + k2) / 2 for k1, _, k2, _ in poles]
    candidates = [k0 for k0 in sorted(candidates) if k0 > grid_step + _PROBE_EPS]
    probes = _probes(kernel, [k0 for k0, _ in drops] + candidates)

    raw: list[tuple[float, int, bool]] = []
    for (k0, drop), (before, after) in zip(drops, probes):
        mult, at_pole = _crossing_multiplicity(k0, before, after, drop)
        raw.append((k0, mult, at_pole))
    for k0, (before, after) in zip(candidates, probes[len(drops):]):
        if any(abs(k0 - kp) < 10 * _PROBE_EPS for kp, _, _ in raw):
            continue
        mult, _ = _crossing_multiplicity(k0, before, after, 0)
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
    return DetectionResult(tuple((k, m) for k, m, _ in points),
                           tuple(note for _, note in notes))


def _edge_poles(lengths: Sequence[float], k_max: float) -> list[float]:
    """Every k = m*pi/l in (0, k_max] where the edge block of one of the
    float edge lengths l is singular, by distinct length, then by m."""
    out: list[float] = []
    for length in sorted(set(lengths)):
        step = math.pi / length
        m = 1
        while m * step <= k_max + 1e-12:
            out.append(m * step)
            m += 1
    return out


#: most vertices of the unit subdivision that `_predicted_targets` takes,
#: checked before any array is built.  At 64 its two eigvalsh calls take
#: 0.2-0.3 ms each, below the 0.9 ms the targets save a catalog detect
#: at k <= 12.6 (3.0 -> 2.1 ms); from 72 to 88 vertices numpy's two
#: OpenBLAS threads made each take 8-16 ms (shared 2-core x86, Python
#: 3.11, numpy 2.4)
_PREDICT_MAX_VERTICES = 64


def _predicted_targets(g: MetricGraph, lengths: Sequence[float], k_max: float
                       ) -> tuple[list[float], list[float]]:
    """The k in (0, k_max] where detect's Steklov and interior-pole
    brackets are expected to change count, ascending, or two empty lists.

    For integer lengths, with A and D the adjacency and degree matrices of
    the unit subdivision, an eigenvalue k^2 with sin k != 0 has cos k an
    eigenvalue of D^-1/2 A D^-1/2 (von Below, LAA 71, 1985), and an
    interior Dirichlet pole has cos k an eigenvalue of its block on the
    non-contact vertices, which keep their full degrees.  Each such
    arccos gives k and 2pi - k, shifted by multiples of 2pi; both lists
    also hold the edge poles.  They only steer which bisection midpoints
    `_refine` asks for, so a wrong or missing target costs stacked calls,
    never a different count.  Other lengths, and subdivisions above
    _PREDICT_MAX_VERTICES vertices, get no targets.
    """
    if any(l.denominator != 1 for l in g.lengths):
        return [], []
    n = g.n_vertices + sum(int(l) - 1 for l in g.lengths)
    if n > _PREDICT_MAX_VERTICES:
        return [], []
    adj = np.zeros((n, n))
    fresh = g.n_vertices
    for (u, v), l in zip(g.ends, g.lengths):
        chain = [u, *range(fresh, fresh + int(l) - 1), v]
        fresh += int(l) - 1
        for x, y in zip(chain, chain[1:]):
            adj[x, y] += 1.0
            adj[y, x] += 1.0
    scale = 1.0 / np.sqrt(adj.sum(1))
    sym = adj * scale.reshape(-1, 1) * scale
    contacts = set(g.contacts)
    inner = [v for v in range(n) if v not in contacts]
    poles = _edge_poles(lengths, k_max)
    return tuple(sorted(poles + _arccos_shifts(np.linalg.eigvalsh(block), k_max))
                 for block in (sym, sym[np.ix_(inner, inner)]))


def _arccos_shifts(cosines: np.ndarray, k_max: float) -> list[float]:
    """Every k in (0, k_max] with cos k one of the cosines."""
    k = np.arccos(np.clip(cosines, -1.0, 1.0))
    turns = math.tau * np.arange(max(0, math.floor(k_max / math.tau) + 1))
    out = (np.concatenate([k, math.tau - k]).reshape(-1, 1) + turns).ravel()
    return out[(out > 0.0) & (out <= k_max)].tolist()


def _edge_pole_candidates(lengths: Sequence[float], k_max: float) -> list[float]:
    """The distinct `_edge_poles` of lengths up to k_max, ascending.

    A pole within 1e-9 of one already kept is dropped; `out` stays sorted,
    so only the two neighbours of the insertion point need checking.
    """
    out: list[float] = []
    for k0 in _edge_poles(lengths, k_max):
        i = bisect.bisect_left(out, k0)
        if not any(abs(k0 - other) < 1e-9 for other in out[max(i - 1, 0):i + 1]):
            out.insert(i, k0)
    return out


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
                       bijection: Sequence[tuple[int, int]] | None = None
                       ) -> EquivalenceResult:
    """Whether M_{g1} and M_{g2} agree within EQUIVALENCE_TOL at DEFAULT_SAMPLES.

    The bijection pairs contact positions of g1 with contact positions of
    g2 (identity by default).  A flagged singular sample raises
    SingularSampleError.
    """
    b1, b2 = len(g1.contacts), len(g2.contacts)
    if b1 != b2:
        raise GraphError("contact counts differ")
    if bijection is None:
        bijection = [(i, i) for i in range(b1)]
    if not all(type(p) is int and type(q) is int for p, q in bijection):
        raise GraphError("bijection positions must be integers")
    if (sorted(p for p, _ in bijection) != list(range(b1))
            or sorted(q for _, q in bijection) != list(range(b1))):
        raise GraphError("bijection must pair all contacts exactly once")
    sigma = [0] * b1
    for p, q in bijection:
        sigma[p] = q
    worst = 0.0
    for _, (m1, m2) in _sample_matrices((g1, g2)):
        permuted = m2[np.ix_(sigma, sigma)]
        worst = max(worst, float(np.max(np.abs(m1 - permuted))))
    return EquivalenceResult(worst < EQUIVALENCE_TOL, worst)


def _sample_matrices(graphs: Sequence[MetricGraph]
                     ) -> Iterator[tuple[float, list[np.ndarray]]]:
    """(lambda, M of every graph) per DEFAULT_SAMPLES lambda, from one
    stacked evaluation per graph.

    Raises SingularSampleError at the first sample where any M is singular.
    """
    ms = [kernel.evaluate(DEFAULT_SAMPLES) for kernel in [_Kernel(g) for g in graphs]]
    for i, lam in enumerate(DEFAULT_SAMPLES):
        if not all(m.regular[i] for m in ms):
            raise SingularSampleError(f"singular sample lambda={lam}")
        yield lam, [m.values[i] for m in ms]


def _probes(kernel: _Kernel, ks: Sequence[float]
            ) -> list[tuple[np.ndarray | None, np.ndarray | None]]:
    """Steklov eigenvalues at (k - _PROBE_EPS)^2 and (k + _PROBE_EPS)^2 for
    every k, None where M is singular, from one stacked evaluation."""
    lams = [lam for k in ks for lam in ((k - _PROBE_EPS) ** 2, (k + _PROBE_EPS) ** 2)]
    ev = kernel.evaluate(lams, eigs=True)
    eigs = [e if ok else None for ok, e in zip(ev.regular.tolist(), ev.values)]
    return list(zip(eigs[0::2], eigs[1::2]))


def _crossing_multiplicity(k: float, before: np.ndarray | None,
                           after: np.ndarray | None,
                           fallback: int | None) -> tuple[int, bool]:
    """Branches crossing zero at k, robust to a pole sitting at k.

    before and after are the Steklov eigenvalues of the two probes at
    k -+ _PROBE_EPS (see `_probes`); a singular probe raises
    SingularSampleError.  Away from poles the drop in the
    negative-eigenvalue count across the bracket (the fallback) is
    authoritative; a fallback of None takes that drop, clamped at 0, from
    the probes.  At a pole, branches passing straight through zero are
    O(eps) on both sides while pole branches are O(1/eps), so small
    negatives before and small positives after are counted instead.
    Returns (multiplicity, pole seen).
    """
    if before is None or after is None:
        raise SingularSampleError(f"singular bracket around k={k:.6g}")
    if max(np.abs(before).max(), np.abs(after).max()) < _POLE_MAGNITUDE:
        if fallback is None:
            fallback = max(int((before < 0.0).sum() - (after < 0.0).sum()), 0)
        return fallback, False
    nb = int(((before > -_PROBE_WINDOW) & (before < 0.0)).sum())
    na = int(((after < _PROBE_WINDOW) & (after > 0.0)).sum())
    if nb != na:
        warnings.warn(
            f"asymmetric crossing count at pole k={k:.6g}: {nb} before, {na} after",
            stacklevel=2)
    return min(nb, na), True


@_derived_cache
@lru_cache(maxsize=256)
def _root_probes(g: MetricGraph) -> dict[float, tuple[np.ndarray | None, np.ndarray | None]]:
    """The crossing probes (see `_probes`) of every fundamental root of g,
    by root, from one kernel and one stacked evaluation.  Kept per graph,
    and emptied with the key caches that the roots derive from."""
    roots = [k for k, _ in spectrum_report(g).fundamental_roots]
    return dict(zip(roots, _probes(_Kernel(g), roots)))


def invisible_multiplicity(g: MetricGraph, k: float) -> int:
    """Secular multiplicity at the fundamental root k minus detectable part.

    The detectable part is the number of Steklov branches crossing zero at
    the root r that k matches (`SpectrumReport.multiplicity_at`), counted
    pole-robustly from both probes around r.  The probes of every root of
    g come from one stacked evaluation, made at the first call on g.
    """
    report = spectrum_report(g)
    sec = report.multiplicity_at(k)
    if sec == 0:
        raise GraphError(f"k={k:.6g} is not a fundamental root")
    root = next(r for r, _ in report.fundamental_roots if abs(r - k) < ROOT_MATCH_TOL)
    before, after = _root_probes(g)[root]
    det, _ = _crossing_multiplicity(k, before, after, None)
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


def method3_verify(k_graph: MetricGraph, q1: MetricGraph, q2: MetricGraph) -> Method3Report:
    """Check the subspace-swapping hypotheses at each of DEFAULT_SAMPLES.

    (a) M of the common graph has a degenerate eigenvalue with eigenspace
    V(lambda); (b) M_{q1} and M_{q2} have identical sorted eigenvalues;
    (c) their compressions to the orthogonal complement of V(lambda)
    coincide.  Contact order is the declared pairing for all three graphs.
    """
    if not len(k_graph.contacts) == len(q1.contacts) == len(q2.contacts):
        raise GraphError("contact counts differ")
    out: list[Method3Sample] = []
    for lam, (mk, m1, m2) in _sample_matrices((k_graph, q1, q2)):
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
        eig_match = bool(np.max(np.abs(w1 - w2)) < METHOD3_TOL)
        if degenerate:
            comp_idx = [i for i in range(len(w)) if i not in best]
            comp = vecs[:, comp_idx]
            diff = comp.T @ (m1 - m2) @ comp
            comp_match = bool(
                diff.size == 0 or np.linalg.norm(diff, 2) < METHOD3_TOL)
        else:
            comp_match = False
        out.append(Method3Sample(lam, degenerate, eig_match, comp_match))
    return Method3Report(tuple(out))
