import math
import operator
import random
import re
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import specgraph.mfunction
from specgraph import (DEFAULT_SAMPLES, DetectionResult, GraphError, SingularSampleError,
                       detectable_spectrum, from_edge_list, glue,
                       invisible_multiplicity, m_function, method3_verify,
                       metric_isospectral, spectrum_report, steklov_eigs,
                       steklov_equivalent, steklov_sweep)
from specgraph.constructions import CATALOG_IDS, catalog
from specgraph.mfunction import (_PROBE_EPS, DETECT_GRID_STEP, _bisect, _counts,
                                 _edge_pole_candidates, _grid_brackets, _Kernel, _probes)

from conftest import random_connected_multigraph
from kernel_oracles import (_reference_interior_count, _reference_negative_count,
                            edge_m_block, interior_vertices, reference_assemble,
                            reference_detectable_spectrum, reference_invisible_multiplicity,
                            reference_m_function, reference_refine)

CONTACT_CATALOG = [name for name in CATALOG_IDS if catalog(name).contacts]


def regular_k_samples(count, lo=0.1, hi=3.0, avoid=0.05):
    """Deterministic k values keeping sin and cos away from zero."""
    out = []
    k = lo
    while len(out) < count:
        if min(abs(math.sin(k)), abs(math.cos(k))) > avoid:
            out.append(k)
        k += (hi - lo) / (count * 1.37)
    return out


class TestEdgeBlock:
    def test_quarter_period(self):
        k = math.pi / 2
        block = edge_m_block(1, k * k)
        assert np.allclose(block, [[0, k], [k, 0]], atol=1e-12)

    def test_zero_energy(self):
        assert np.allclose(edge_m_block(1, 0.0), [[-1, 1], [1, -1]])
        assert np.allclose(edge_m_block(Fraction(1, 2), 0.0), [[-2, 2], [2, -2]])

    def test_singular_at_pi(self):
        assert edge_m_block(1, math.pi ** 2) is None

    def test_negative_lambda_hyperbolic(self):
        kappa = 2.0
        block = edge_m_block(1, -kappa * kappa)
        assert block[0, 0] == pytest.approx(-kappa / math.tanh(kappa))
        assert block[0, 1] == pytest.approx(kappa / math.sinh(kappa))

    def test_large_negative_lambda_safe(self):
        block = edge_m_block(4, -1e6)
        assert np.isfinite(block).all()
        assert block[0, 0] == pytest.approx(-1000.0)


class TestMFunction:
    def test_single_edge_is_its_block(self):
        g = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        lam = 1.3
        assert np.allclose(m_function(g, lam).matrix, edge_m_block(1, lam))

    def test_k4_closed_form(self):
        g = catalog("K4")
        for k in regular_k_samples(10):
            m = m_function(g, k * k).matrix
            a = -3 * k / math.tan(k)
            b = k / math.sin(k)
            expected = np.full((4, 4), b) + np.diag([a - b] * 4)
            assert np.allclose(m, expected, atol=1e-10)

    def test_star_eigenvalues_independent_of_valency(self):
        for d in range(1, 6):
            g = catalog(f"S{d}")
            for k in regular_k_samples(20):
                eigs = steklov_eigs(g, k * k)
                mu1 = k * math.tan(k)
                mu2 = -k / math.tan(k)
                expected = np.sort([mu1] + [mu2] * (d - 1))
                assert np.max(np.abs(eigs - expected)) < 1e-9

    def test_empty_contacts_rejected(self):
        with pytest.raises(GraphError, match="empty contact set"):
            m_function(catalog("C3"), 1.0)

    def test_symmetry_on_random_graphs(self):
        rng = random.Random(73)
        for _ in range(15):
            g = random_connected_multigraph(rng, with_contacts=True)
            for lam in (-3.7, -1.2, 0.0, 0.41):
                ev = m_function(g, lam)
                if ev.regular:
                    assert np.max(np.abs(ev.matrix - ev.matrix.T)) < 1e-12

    def test_additivity_of_glued_m_functions(self):
        k4, s4 = catalog("K4"), catalog("S4")
        glued = glue(k4, s4, [(i, i) for i in range(4)])
        rng = random.Random(79)
        for _ in range(20):
            lam = rng.uniform(-8.0, -0.2)
            total = m_function(glued, lam).matrix
            parts = m_function(k4, lam).matrix + m_function(s4, lam).matrix
            assert np.max(np.abs(total - parts)) < 1e-10

    def test_schur_complement_matches_direct_assembly(self):
        k5 = catalog("K5")
        glued = glue(catalog("K4"), catalog("S4"), [(i, i) for i in range(4)])
        for hidden in range(5):
            contacts = [v for v in range(5) if v != hidden]
            g = replace(k5, contacts=tuple(contacts))
            for lam in (-4.0, -1.0, 0.9, 2.3):
                got = np.sort(np.linalg.eigvalsh(m_function(g, lam).matrix))
                want = np.sort(np.linalg.eigvalsh(m_function(glued, lam).matrix))
                assert np.max(np.abs(got - want)) < 1e-10
        # aligned contact order: compare matrices entrywise as well
        g = replace(k5, contacts=(0, 1, 2, 3))
        for lam in (-4.0, -1.0, 0.9, 2.3):
            diff = m_function(g, lam).matrix - m_function(glued, lam).matrix
            assert np.max(np.abs(diff)) < 1e-10

    def test_deeply_negative_lambda_all_negative(self):
        for name in ("K4", "S4", "Gamma1", "path_3"):
            eigs = steklov_eigs(catalog(name), -100.0)
            assert np.all(eigs < 0)


class TestSweep:
    def test_k4_negative_axis_regular_and_monotone(self):
        curve = steklov_sweep(catalog("K4"), -5.0, -0.1, 50)
        assert curve.n_singular == 0
        for prev, cur in zip(curve.branches, curve.branches[1:]):
            assert all(c - p >= -1e-9 for p, c in zip(prev, cur))

    def test_herglotz_on_catalog(self):
        for name in ("S4", "Gamma1", "Gamma2p", "figure_eight_unit", "fig6_cycle"):
            curve = steklov_sweep(catalog(name), -10.0, -0.1, 100)
            assert curve.n_singular == 0
            for prev, cur in zip(curve.branches, curve.branches[1:]):
                assert all(c - p >= -1e-9 for p, c in zip(prev, cur))

    def test_interval_branch_formula(self):
        g = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        curve = steklov_sweep(g, 0.01, 9.0, 40)
        for lam, branches in zip(curve.grid, curve.branches):
            if branches is None:
                continue
            k = math.sqrt(lam)
            upper = k * math.tan(k / 2)
            assert branches[-1] == pytest.approx(upper, abs=1e-9)

    def test_pole_sample_flagged(self):
        g = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        pisq = math.pi ** 2
        curve = steklov_sweep(g, pisq - 1.0, pisq + 1.0, 3)
        assert curve.branches[0] is not None
        assert curve.branches[1] is None
        assert curve.branches[2] is not None

    def test_bad_grid_rejected(self):
        g = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        with pytest.raises(GraphError):
            steklov_sweep(g, 1.0, 0.0, 10)
        with pytest.raises(GraphError):
            steklov_sweep(g, 0.0, 1.0, 1)


class TestDetectable:
    def test_interval_neumann_points(self):
        g = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        res = detectable_spectrum(g, 6.5)
        assert [(round(k, 8), m) for k, m in res.points] == [
            (round(math.pi, 8), 1), (round(2 * math.pi, 8), 1)]

    def test_glued_k5_first_root(self):
        glued = glue(catalog("K4"), catalog("S4"), [(i, i) for i in range(4)])
        res = detectable_spectrum(glued, 2.0, grid_step=0.01, refine_tol=1e-9)
        assert len(res.points) == 1
        k, mult = res.points[0]
        assert k == pytest.approx(math.acos(-0.25), abs=1e-8)
        assert mult == 4

    def test_detectable_subset_of_secular(self):
        for name in ("S3", "Q1", "Gamma2", "watermelon_stick_unit"):
            g = catalog(name)
            rep = spectrum_report(g)
            res = detectable_spectrum(g, 6.4)
            for k, mult in res.points:
                sec = rep.multiplicity_at(k)
                assert sec >= mult


    def test_zero_tolerance_refines_to_float_resolution(self):
        # no float lies strictly inside a bracket of adjacent floats, so
        # such a bracket is a leaf even when refine_tol is below its width
        g = catalog("Gamma1")
        coarse = detectable_spectrum(g, 6.3)
        exact = detectable_spectrum(g, 6.3, refine_tol=0.0)
        assert [m for _, m in exact.points] == [m for _, m in coarse.points]
        for (k0, _), (k1, _) in zip(exact.points, coarse.points):
            assert k0 == pytest.approx(k1, abs=1e-8)


def crossing_count(crossings, singular):
    """Synthetic count: crossings above k, None at the chosen singular k."""
    def count(k):
        if any(abs(k - s) < 1e-12 for s in singular):
            return None
        return sum(c > k for c in crossings)
    return count


def bisection_levels(leaves, width):
    """Levels of brackets a bisection held, its roots of the given width
    included, read from the narrowest leaf: a level halves a bracket, or
    splits it 0.51 : 0.49 after a retried midpoint."""
    return 1 + max(round(math.log2(width / (k2 - k1))) for k1, _, k2, _ in leaves)


class TestBisection:
    """The level-synchronous bisection against the depth-first recursion."""

    # midpoints of the first and second grid brackets are singular; the
    # first recovers at its shifted midpoint 0.51, the second does not
    # (1.5 and 1.51); one level below, 2.25 and 2.255 skip a left half
    SINGULAR = (0.5, 1.5, 1.51, 2.25, 2.255)
    CROSSINGS = (0.3, 0.3, 0.62, 1.37, 1.81, 2.2, 2.71, 2.9)

    def run_both(self, settled, count, grid, refine_tol):
        calls = []

        def counts(ks):
            calls.append(len(ks))
            return [count(k) for k in ks]

        roots = [(k1, count(k1), k2, count(k2)) for k1, k2 in zip(grid, grid[1:])]
        [(leaves, skipped)] = _bisect([roots], lambda ks: [counts(ks)], [settled], refine_tol)
        ref_leaves, ref_skipped = [], []
        for k1, n1, k2, n2 in roots:
            reference_refine(k1, n1, k2, n2, count, settled, refine_tol,
                             lambda *leaf: ref_leaves.append(leaf), ref_skipped.append)
        assert leaves == ref_leaves
        assert skipped == ref_skipped
        return leaves, skipped, calls

    def test_retry_skip_and_depth_first_order(self):
        count = crossing_count(self.CROSSINGS, self.SINGULAR)
        leaves, skipped, calls = self.run_both(operator.eq, count, [0.0, 1.0, 2.0, 3.0], 1e-3)
        # 1.51 skips the whole second bracket; 2.255 the crossing at 2.2
        assert skipped == pytest.approx([1.51, 2.255])
        found = [(k1, k2, n1 - n2) for k1, n1, k2, n2 in leaves]
        assert [d for _, _, d in found] == [2, 1, 1, 1]
        for (k1, k2, _), c in zip(found, (0.3, 0.62, 2.71, 2.9)):
            assert k1 < c <= k2 and k2 - k1 <= 1e-3
        # one stacked call per level, plus one for the retries of a level
        assert len(calls) <= bisection_levels(leaves, 1.0) + 3

    def test_interior_rule_keeps_only_decreasing_brackets(self):
        # a rising count (an interior pole of the other sign) is settled
        def count(k):
            return None if abs(k - 0.5) < 1e-12 else (2 if k < 0.4 else 3 if k < 0.8 else 1)

        leaves, skipped, _ = self.run_both(operator.le, count, [0.0, 1.0], 1e-4)
        assert skipped == []
        assert len(leaves) == 1 and leaves[0][0] < 0.8 <= leaves[0][2]

    def test_two_groups_share_each_level(self):
        # a Steklov-rule and an interior-rule group with their own counts
        # and singular midpoints: 0.5 is singular for both, the retry at
        # 0.51 recovers, and there the two counts differ (6 and 2)
        steklov = crossing_count(self.CROSSINGS, self.SINGULAR)
        interior = crossing_count((0.45, 1.2, 2.6), (0.5, 2.5, 2.51))
        grid = [0.0, 1.0, 2.0, 3.0]
        rules = (operator.eq, operator.le)
        groups = [[(k1, count(k1), k2, count(k2)) for k1, k2 in zip(grid, grid[1:])]
                  for count in (steklov, interior)]
        calls = []

        def counts(ks):
            calls.append(len(ks))
            return [steklov(k) for k in ks], [interior(k) for k in ks]

        out = _bisect(groups, counts, rules, 1e-3)
        for (leaves, skipped), count, settled, roots in zip(out, (steklov, interior),
                                                             rules, groups):
            ref_leaves, ref_skipped = [], []
            for k1, n1, k2, n2 in roots:
                reference_refine(k1, n1, k2, n2, count, settled, 1e-3,
                                 lambda *leaf: ref_leaves.append(leaf), ref_skipped.append)
            assert leaves == ref_leaves
            assert skipped == ref_skipped
        assert out[1][1] == pytest.approx([2.51])
        assert len(out[1][0]) == 2
        # both groups share one call per level, plus one for the retries
        levels = max(bisection_levels(leaves, 1.0) for leaves, _ in out)
        assert len(calls) <= levels + 3

    def test_detect_equals_depth_first_reference(self):
        # grid steps of pi/8 and pi/12 put grid samples on edge poles, so
        # singular-sample notes interleave with skipped brackets
        rng = random.Random(4116)
        lengths = (1, 2, 3, Fraction(1, 2), Fraction(3, 2))
        seen = Counter()
        for i in range(150):
            n = rng.randint(1, 6)
            edges = [(rng.randrange(v), v, rng.choice(lengths)) for v in range(1, n)]
            for _ in range(rng.randint(1 if n == 1 else 0, 4)):
                edges.append((rng.randrange(n), rng.randrange(n), rng.choice(lengths)))
            g = from_edge_list(n, edges, rng.sample(range(n), rng.randint(1, n)))
            step = rng.choice((0.01, 0.02, 0.05, math.pi / 8, math.pi / 12))
            tol = rng.choice((1e-6, 1e-8, 1e-10))
            k_max = rng.uniform(3.0, 7.0)
            with warnings.catch_warnings(record=True) as new_warnings:
                warnings.simplefilter("always")
                new = detectable_spectrum(g, k_max, step, tol)
            with warnings.catch_warnings(record=True) as ref_warnings:
                warnings.simplefilter("always")
                ref = reference_detectable_spectrum(g, k_max, step, tol)
            assert new == ref, (edges, g.contacts, step, tol, k_max)
            assert ([str(w.message) for w in new_warnings]
                    == [str(w.message) for w in ref_warnings])
            pairs = Counter(frozenset((u, v)) for u, v, _ in g.edge_list())
            seen["loop"] += any(u == v for u, v, _ in g.edge_list())
            seen["parallel"] += any(c > 1 for c in pairs.values())
            seen["interior"] += bool(interior_vertices(g))
            seen["points"] += bool(new.points)
            seen["pole warning"] += bool(new_warnings)
            kinds = [w.split()[1] for w in new.warnings]
            seen["skipped"] += "midpoints" in kinds
            seen["interleaved"] += "midpoints" in kinds and "sample" in kinds[kinds.index("midpoints"):]
        for kind in ("loop", "parallel", "interior", "points"):
            assert seen[kind] >= 30, seen
        for kind in ("pole warning", "skipped", "interleaved"):
            assert seen[kind] >= 1, seen


def pole_length(k):
    """An edge length, as an exact decimal string, whose first edge pole is the float k."""
    return repr(math.pi / k)


def detect_both(g, k_max, *args):
    """detectable_spectrum and its depth-first oracle, each with its warning texts."""
    out = []
    for detect in (detectable_spectrum, reference_detectable_spectrum):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = detect(g, k_max, *args)
            except SingularSampleError as exc:
                result = exc
        out.append((result, [str(w.message) for w in caught]))
    return out


def chunk_lambdas(kernel):
    """Lambdas per chunk of a kernel under the current entry budget."""
    return max(1, specgraph.mfunction._CHUNK_ENTRIES // kernel.entries)


@pytest.fixture
def stacked_calls(monkeypatch):
    """(lambdas requested, sizes of its stacked calls) for every
    `_Kernel.evaluate` call, in call order."""
    calls = []
    evaluate, chunk = _Kernel.evaluate, _Kernel._chunk

    def spy_evaluate(self, lams, eigs=False):
        calls.append((len(lams), []))
        return evaluate(self, lams, eigs)

    def spy_chunk(self, lams, eigs):
        calls[-1][1].append(len(lams))
        return chunk(self, lams, eigs)

    monkeypatch.setattr(_Kernel, "evaluate", spy_evaluate)
    monkeypatch.setattr(_Kernel, "_chunk", spy_chunk)
    return calls


class TestStackedProbes:
    """The crossing probes of one detect, stacked on its kernel, against
    one-lambda evaluations."""

    def test_probes_equal_steklov_eigs_bit_for_bit(self, monkeypatch):
        # a small entry budget, so that most probe sets span several chunks
        monkeypatch.setattr(specgraph.mfunction, "_CHUNK_ENTRIES", 4096)
        rng = random.Random(4162)
        graphs = [catalog(name) for name in CONTACT_CATALOG]
        graphs += [oracle_graph(rng, i) for i in range(40)]
        # 134 poles of the long edge: more probes than one chunk holds
        graphs.append(from_edge_list(3, [(0, 1, 1), (1, 2, 60), (0, 2, "3/2")], (0, 2)))
        seen = Counter()
        for g in graphs:
            # refined points, edge poles, points one probe away from an
            # edge pole (one singular probe each) and arbitrary k
            poles = _edge_pole_candidates([float(l) for l in g.lengths], 7.0)
            ks = [k for k, _ in detectable_spectrum(g, 7.0).points] + poles
            ks += [k + sign * _PROBE_EPS for k in poles[:3] for sign in (-1, 1)]
            ks += [rng.uniform(0.05, 7.0) for _ in range(5)]
            kernel = _Kernel(g)
            probes = _probes(kernel, ks)
            assert len(probes) == len(ks)
            seen["chunks"] = max(seen["chunks"], -(-2 * len(ks) // chunk_lambdas(kernel)))
            for k, pair in zip(ks, probes):
                for lam, stacked_eigs in zip(((k - _PROBE_EPS) ** 2, (k + _PROBE_EPS) ** 2), pair):
                    one = steklov_eigs(g, lam)
                    if one is None:
                        assert stacked_eigs is None, (g, k)
                        seen["singular"] += 1
                    else:
                        assert np.array_equal(stacked_eigs, one), (g, k)
                        seen["regular"] += 1
        assert seen["singular"] >= 100 and seen["regular"] >= 1000, seen
        assert seen["chunks"] >= 2, seen

    def test_detect_probes_span_two_chunks(self, monkeypatch):
        # 146 edge poles up to k = 11, so the probes of the candidates
        # alone fill more than one chunk of 256 lambdas
        g = from_edge_list(3, [(0, 1, 1), (1, 2, 40), (0, 2, "3/2")], (0, 2))
        monkeypatch.setattr(specgraph.mfunction, "_CHUNK_ENTRIES", 256 * _Kernel(g).entries)
        assert chunk_lambdas(_Kernel(g)) == 256
        assert len(_edge_pole_candidates([1.0, 40.0, 1.5], 11.0)) > 256 // 2
        (new, new_warnings), (ref, ref_warnings) = detect_both(g, 11.0, 0.05)
        assert new == ref
        assert new_warnings == ref_warnings
        assert len(new.points) >= 10

    @pytest.mark.parametrize("edges", [
        [(0, 1, 1), (0, 1, pole_length(math.pi + _PROBE_EPS))],
        [(0, 1, pole_length(math.pi - 5 * _PROBE_EPS)), (0, 1, 1),
         (0, 1, pole_length(math.pi + _PROBE_EPS))]])
    def test_singular_probe_raises_in_depth_first_order(self, edges):
        # an edge pole at pi + eps puts a probe of the pole candidate pi on
        # a pole; in the second graph a pole warning comes first
        g = from_edge_list(2, edges, (0, 1))
        assert steklov_eigs(g, (math.pi + _PROBE_EPS) ** 2) is None
        (new, new_warnings), (ref, ref_warnings) = detect_both(g, 4.0)
        assert isinstance(new, SingularSampleError)
        assert str(new) == str(ref) == "singular bracket around k=3.14159"
        assert new_warnings == ref_warnings == (
            [] if len(edges) == 2 else ["asymmetric crossing count at pole k=3.14109: "
                                        "1 before, 0 after"])

    def test_skipped_singular_candidate_does_not_raise(self):
        # the candidate pi - 5 eps is a crossing, so the candidates pi and
        # pi + eps within 10 eps of it are skipped; both of them have a
        # singular probe, which the stacked evaluation takes but never reads
        g = from_edge_list(4, [(0, 1, pole_length(math.pi - 5 * _PROBE_EPS)), (2, 3, 1),
                               (2, 3, pole_length(math.pi + _PROBE_EPS))], (0, 1, 2, 3))
        candidates = _edge_pole_candidates([float(l) for l in g.lengths], 4.0)
        assert candidates == [math.pi - 5 * _PROBE_EPS, math.pi, math.pi + _PROBE_EPS]
        kernel = _Kernel(g)
        assert [any(e is None for e in pair) for pair in _probes(kernel, candidates)] == [
            False, True, True]
        (new, new_warnings), (ref, ref_warnings) = detect_both(g, 4.0)
        assert new == ref
        assert new.points == ((math.pi - 5 * _PROBE_EPS, 1),)
        assert new_warnings == ref_warnings == [
            "asymmetric crossing count at pole k=3.14109: 2 before, 1 after"]


def detect_grid(step, k_max):
    """The k grid of detectable_spectrum, accumulated by k += step."""
    ks, k = [], step
    while k <= k_max + 1e-12:
        ks.append(k)
        k += step
    return ks


def full_grid_scan(ks, counts, interior):
    """Steklov brackets, interior-pole brackets and notes of a grid whose
    counts are known at every k: the Steklov scan, then the pole scan,
    each over every point."""
    brackets, pole_brackets, notes = [], [], []
    prev, pending = None, False
    for k, n in zip(ks, counts):
        if n is None:
            notes.append((k, f"singular sample at k={k:.6g}"))
            pending = True
            continue
        if prev is not None:
            k1, n1 = prev
            if pending:
                if n1 != n:
                    notes.append((k, f"count change across singular sample in "
                                     f"({k1:.6g}, {k:.6g}) not refined"))
            elif n1 > n:
                brackets.append((k1, n1, k, n))
        prev, pending = (k, n), False
    prev = None
    for k, n, m in zip(ks, counts, interior):
        if n is None or m is None:
            prev = None
            continue
        if prev is not None and prev[1] > m:
            pole_brackets.append((prev[0], prev[1], k, m))
        prev = (k, m)
    return brackets, pole_brackets, notes


class TestGridPass:
    """The brackets and notes of detect's two-pass grid against a scan of
    the one-lambda oracle's counts at every grid k."""

    def check(self, g, step, k_max, seen, stacked_calls):
        ks = detect_grid(step, k_max)
        kernel = _Kernel(g)
        stacked_calls.clear()
        out = _grid_brackets(kernel, ks, kernel.lengths.tolist())
        ref_counts = [_reference_negative_count(g, k) for k in ks]
        ref_interior = [_reference_interior_count(g, k) for k in ks]
        assert out == full_grid_scan(ks, ref_counts, ref_interior), (g, step)
        seen["grid"] += len(ks)
        seen["evaluated"] += sum(n for n, _ in stacked_calls)
        seen["edge singular"] += ref_interior.count(None)
        seen["interior singular"] += sum(
            n is None and m is not None for n, m in zip(ref_counts, ref_interior))
        regular = [(n, m) for n, m in zip(ref_counts, ref_interior) if n is not None]
        seen["steklov changes"] += sum(a[0] != b[0] for a, b in zip(regular, regular[1:]))
        seen["interior changes"] += sum(a[1] != b[1] for a, b in zip(regular, regular[1:]))

    def test_catalog_against_oracle(self, stacked_calls):
        seen = Counter()
        for name in CONTACT_CATALOG:
            self.check(catalog(name), DETECT_GRID_STEP, 12.6, seen, stacked_calls)
        assert seen["edge singular"] == 0 and seen["steklov changes"] >= 100, seen
        assert seen["interior changes"] >= 20, seen
        assert seen["evaluated"] < 0.4 * seen["grid"], seen

    def test_seeded_graphs_against_oracle(self, stacked_calls):
        # grid steps of pi/8 and pi/12 put grid samples on edge poles and
        # on interior Dirichlet poles
        rng = random.Random(4221)
        lengths = (1, 2, 3, Fraction(1, 2), Fraction(3, 2))
        seen = Counter()
        for i in range(50):
            n = rng.randint(1, 6)
            edges = [(rng.randrange(v), v, rng.choice(lengths)) for v in range(1, n)]
            for _ in range(rng.randint(1 if n == 1 else 0, 4)):
                edges.append((rng.randrange(n), rng.randrange(n), rng.choice(lengths)))
            g = from_edge_list(n, edges, rng.sample(range(n), rng.randint(1, n)))
            step = (0.01, math.pi / 8, math.pi / 12)[i % 3]
            self.check(g, step, rng.uniform(3.0, 12.6), seen, stacked_calls)
        for kind in ("edge singular", "interior singular", "interior changes"):
            assert seen[kind] >= 5, seen
        assert seen["steklov changes"] >= 100, seen

    def test_edge_pole_between_last_two_grid_points(self, stacked_calls):
        # 3 pi / 2, a pole of the loop of length 2, lies between the last
        # two grid points 4.7 and 4.8.  The grid is cut there too; a last
        # coarse stretch from 4.2 to 4.8 would cross that pole with equal
        # counts at its ends and hide the Steklov root near 4.2446.
        g = from_edge_list(2, [(0, 1, 1), (0, 0, 2), (1, 1, 1), (0, 1, 3)], (0, 1))
        self.check(g, 0.1, 4.8, Counter(), stacked_calls)
        points = detectable_spectrum(g, 4.8, 0.1, 1e-8).points
        assert [round(k, 4) for k, _ in points] == [0.9831, 1.2847, 2.659, 3.6242, 4.2446]

    def test_detect_requests_few_grid_lambdas(self, stacked_calls):
        # the first two evaluations of a detect are the coarse and the
        # fine pass over its grid of 1,260 points
        assert len(detect_grid(DETECT_GRID_STEP, 12.6)) == 1260
        detectable_spectrum(catalog("Gamma1"), 12.6)
        (coarse, _), (fine, _) = stacked_calls[:2]
        assert coarse + fine <= 300, stacked_calls


class TestInvisible:
    def test_catalog_cross_validation(self):
        # every catalog graph with contacts: detect + invisible = secular at
        # each fundamental root, and invisible equals its one-lambda oracle
        assert len(CONTACT_CATALOG) == 28
        for name in CONTACT_CATALOG:
            g = catalog(name)
            rep = spectrum_report(g)
            detected = dict()
            for k, m in detectable_spectrum(g, 6.5).points:
                detected[round(k, 6)] = m
            for k, sec in rep.fundamental_roots:
                inv = invisible_multiplicity(g, k)
                assert inv == reference_invisible_multiplicity(g, k), (name, k)
                det = detected.get(round(k, 6), 0)
                assert det + inv == sec, (name, k)

    def test_path_4_miss_at_third_turn(self):
        # today's counts at a known miss: cos(pi x / 3) is nonzero at both
        # contacts, but an interior pole at the same k hides its crossing,
        # so detect drops k = pi/3 and counts it invisible
        g = catalog("path_4")
        k = math.pi / 3
        assert spectrum_report(g).multiplicity_at(k) == 1
        assert all(abs(p - k) > 1e-3 for p, _ in detectable_spectrum(g, 3.2).points)
        assert invisible_multiplicity(g, k) == reference_invisible_multiplicity(g, k) == 1

    def test_first_partner_at_full_turn(self):
        assert invisible_multiplicity(catalog("Gamma1"), 2 * math.pi) == 5

    def test_k5_at_full_turn(self):
        g = replace(catalog("K5"), contacts=(0, 1, 2, 3))
        assert invisible_multiplicity(g, 2 * math.pi) == 6

    def test_interval_fully_detectable(self):
        g = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        assert invisible_multiplicity(g, math.pi) == 0

    def test_non_root_rejected(self):
        g = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        with pytest.raises(GraphError, match="not a fundamental root"):
            invisible_multiplicity(g, 1.0)

    def test_excess_detectable_clamped(self, monkeypatch):
        # a probe reporting more crossings than the secular multiplicity
        # is warned about and clamped, never returned as negative
        real = specgraph.mfunction._crossing_multiplicity

        def one_more(*args):
            mult, pole = real(*args)
            return mult + 1, pole

        monkeypatch.setattr(specgraph.mfunction, "_crossing_multiplicity", one_more)
        g = catalog("Q1")
        assert spectrum_report(g).multiplicity_at(math.pi / 2) == 2
        want = ("^detectable multiplicity 3 exceeds secular multiplicity 2 "
                "at k=1.5708; clamping to 0$")
        with pytest.warns(UserWarning, match=want):
            assert invisible_multiplicity(g, math.pi / 2) == 0


class TestEquivalence:
    def test_self_equivalence_zero_residual(self):
        g = catalog("Q1")
        res = steklov_equivalent(g, g)
        assert res.equivalent and res.max_residual == 0.0

    def test_cycle_and_quotient(self):
        assert steklov_equivalent(catalog("fig6_cycle"), catalog("fig6_eight"))

    def test_cycle_and_quotient_not_isospectral(self):
        assert not metric_isospectral(catalog("fig6_cycle"), catalog("fig6_eight"))

    def test_partner_extensions_not_equivalent(self):
        res = steklov_equivalent(catalog("Gamma1"), catalog("Gamma2"))
        assert not res.equivalent

    def test_contact_count_mismatch(self):
        with pytest.raises(GraphError, match="contact counts"):
            steklov_equivalent(catalog("S3"), catalog("S4"))

    def test_singular_sample_rejected(self, monkeypatch):
        g = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        monkeypatch.setattr(specgraph.mfunction, "DEFAULT_SAMPLES", (math.pi ** 2,))
        with pytest.raises(SingularSampleError):
            steklov_equivalent(g, g)

    def test_permuted_pairing(self):
        g = catalog("Q1")
        # swapping the two 2-star pairs is an automorphism of the M-function
        res = steklov_equivalent(g, g, bijection=[(0, 2), (1, 3), (2, 0), (3, 1)])
        assert res.equivalent

    @pytest.mark.parametrize("bijection", [
        [(0.0, 0), (1, 1)], [(0, 0), (1, True)], [(0, 0), (1, 1.0)], [(False, 0), (1, 1)]])
    def test_non_integer_positions_rejected(self, bijection):
        # a float position used to raise TypeError at indexing, and True
        # passed as position 1
        g = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        with pytest.raises(GraphError, match="^bijection positions must be integers$"):
            steklov_equivalent(g, g, bijection=bijection)


class TestMethod3:
    def test_k4_with_both_partners(self):
        report = method3_verify(catalog("K4"), catalog("Q1"), catalog("Q2"))
        assert report.ok

    def test_s4_with_both_partners(self):
        report = method3_verify(catalog("S4"), catalog("Q1"), catalog("Q2"))
        assert report.ok

    def test_identical_partners_trivial(self):
        report = method3_verify(catalog("K4"), catalog("Q1"), catalog("Q1"))
        assert all(s.eigenvalues_match and s.complement_match for s in report.samples)

    def test_no_degeneracy_fails_condition_a(self):
        host = from_edge_list(3, [(0, 1), (1, 2)], contacts=(0, 2))
        q = from_edge_list(3, [(0, 2), (1, 2)], contacts=(0, 1))
        report = method3_verify(host, q, q)
        assert not any(s.degenerate_found for s in report.samples)
        assert not report.ok


ORACLE_LENGTHS = (1, 2, 3, Fraction(3, 2))


def oracle_graph(rng, i):
    """Random connected multigraph with contacts; i % 3 picks all, one or some."""
    n = rng.randint(1, 6)
    edges = [(rng.randrange(v), v, rng.choice(ORACLE_LENGTHS)) for v in range(1, n)]
    for _ in range(rng.randint(1 if n == 1 else 0, 4)):
        edges.append((rng.randrange(n), rng.randrange(n), rng.choice(ORACLE_LENGTHS)))
    if i % 3 == 0:
        contacts = list(range(n))
    elif i % 3 == 1:
        contacts = [rng.randrange(n)]
    else:
        contacts = rng.sample(range(n), rng.randint(1, n))
    return from_edge_list(n, edges, contacts)


def oracle_lambdas(rng, g):
    """Both half-lines, zero, and exact and near poles of every edge length."""
    lams = [0.0, -0.0, -1e6, -(349.0 ** 2), -rng.uniform(0.01, 60),
            -rng.uniform(60, 2000), rng.uniform(0.01, 5), rng.uniform(5, 200)]
    for length in set(g.lengths):
        for m in (1, 2):
            k = m * math.pi / float(length)
            lams += [k * k, (k + 1e-11) ** 2, (k + 1e-7) ** 2, (k / 2) ** 2]
    rng.shuffle(lams)
    return lams


def interior_negative(g, t):
    """Negative eigenvalues of the interior block of an assembled T."""
    inner = interior_vertices(g)
    return int(np.sum(np.linalg.eigvalsh(t[np.ix_(inner, inner)]) < 0.0))


def interior_poles(g, lam_max, steps=2000):
    """Interior Dirichlet eigenvalues in (0, lam_max), each to the last float.

    The negative count of the interior block drops by one at each, and
    rises only across edge poles; each drop of a scan is bisected until
    its ends are adjacent floats, and the lower end is returned.
    """
    def count(lam):
        t = reference_assemble(g, lam)
        return None if t is None else interior_negative(g, t)

    out = []
    grid = [lam_max * (i + 0.5) / steps for i in range(steps)]
    for lo, hi in zip(grid, grid[1:]):
        n_lo, n_hi = count(lo), count(hi)
        if n_lo is None or n_hi is None or n_lo != n_hi + 1:
            continue
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            n_mid = count(mid)
            if n_mid is None:
                break
            if n_mid == n_lo:
                lo = mid
            else:
                hi = mid
        else:
            out.append(lo)
    return out


def stacked(g, lams, eigs=False):
    """One stacked evaluation of g at every lambda: M, or its eigenvalues."""
    return _Kernel(g).evaluate(lams, eigs)


class TestStackedKernelOracle:
    """The stacked kernel against the per-lambda oracle, bit for bit."""

    def test_stack_equals_reference_bit_for_bit(self):
        rng = random.Random(4104)
        graphs = [oracle_graph(rng, i) for i in range(150)]
        # stars with an interior hub hit interior Dirichlet poles at k*l = pi/2
        graphs += [catalog("S3"), catalog("Q1"),
                   from_edge_list(4, [(0, 3, 3), (1, 3, 3), (2, 3, 3)], (0, 1, 2)),
                   from_edge_list(3, [(0, 2, "3/2"), (1, 2, "3/2")], (1, 0))]
        seen = Counter()
        for g in graphs:
            pairs = Counter(frozenset((u, v)) for u, v, _ in g.edge_list())
            seen["loop"] += any(u == v for u, v, _ in g.edge_list())
            seen["parallel"] += any(c > 1 for c in pairs.values())
            seen["no interior"] += not interior_vertices(g)
            seen["one contact"] += len(g.contacts) == 1
            seen.update(f"length {l}" for l in set(g.lengths))
            lams = oracle_lambdas(rng, g)
            m, ev = stacked(g, lams), stacked(g, lams, eigs=True)
            regular, interior_neg = m.regular, m.interior
            assert ev.regular.tolist() == regular.tolist() and ev.interior == interior_neg
            for i, lam in enumerate(lams):
                ref = reference_m_function(g, lam)
                one = m_function(g, lam)
                assert regular[i] == ref.regular == one.regular, (g, lam)
                t = reference_assemble(g, lam)
                if t is None:
                    seen["edge singular"] += 1
                    assert interior_neg[i] is None
                    continue
                assert interior_neg[i] == interior_negative(g, t), (g, lam)
                if not ref.regular:
                    seen["interior singular"] += 1
                    continue
                assert np.array_equal(m.values[i], ref.matrix), (g, lam)
                assert np.array_equal(one.matrix, ref.matrix), (g, lam)
                assert np.array_equal(ev.values[i], np.linalg.eigvalsh(ref.matrix)), (g, lam)
                seen["regular"] += 1
        for kind in ("loop", "parallel", "no interior", "one contact", "length 1",
                     "length 2", "length 3", "length 3/2", "edge singular", "regular"):
            assert seen[kind] >= 20, (kind, seen)
        assert seen["interior singular"] >= 4, seen

    def test_detect_grid_counts_equal_reference(self):
        rng = random.Random(4105)
        graphs = [catalog("Gamma1"), catalog("Q1"), catalog("S3")]
        graphs += [oracle_graph(rng, i) for i in range(12)]
        # the accumulated grid of detectable_spectrum
        ks = []
        k = 0.01
        while k <= 6.3 + 1e-12:
            ks.append(k)
            k += 0.01
        for g in graphs:
            counts, interior = _counts(_Kernel(g), ks)
            for k, n, n_inner in zip(ks, counts, interior):
                ref = reference_m_function(g, k * k)
                if not ref.regular:
                    assert n is None
                    t = reference_assemble(g, k * k)
                    if t is None:
                        assert n_inner is None
                    else:
                        assert n_inner == interior_negative(g, t), (g, k)
                    continue
                assert n == int(np.sum(np.linalg.eigvalsh(ref.matrix) < 0.0)), (g, k)
                assert n_inner == interior_negative(g, reference_assemble(g, k * k)), (g, k)

    def test_sweep_branches_equal_reference(self):
        rng = random.Random(4106)
        for i in range(8):
            g = oracle_graph(rng, i)
            curve = steklov_sweep(g, -5.0, 60.0, 600)
            for lam, branches in zip(curve.grid, curve.branches):
                ref = reference_m_function(g, lam)
                if not ref.regular:
                    assert branches is None
                    continue
                assert branches == tuple(np.linalg.eigvalsh(ref.matrix).tolist())

    def test_conditioning_threshold_near_interior_poles(self):
        # interior blocks of size 2 to 4; near each interior Dirichlet pole
        # lambda0 the smallest |eigenvalue| of C shrinks like |lambda - lambda0|,
        # so relative offsets 1e-5 .. 1e-14 cross INTERIOR_COND_LIMIT
        graphs = [from_edge_list(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)], (0, 3)),
                  from_edge_list(4, [(0, 1, 1), (0, 2, 1), (0, 3, 2), (1, 2, 1),
                                     (1, 3, 1), (2, 3, "3/2")], (0, 1)),
                  from_edge_list(5, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 1, 1),
                                     (3, 4, "3/2"), (2, 2, 1)], (0, 4)),
                  from_edge_list(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 2),
                                     (4, 1, 1), (2, 4, 1), (3, 5, 1)], (0, 5))]
        offsets = [10.0 ** e for e in np.linspace(-5.0, -14.0, 181)]
        n_poles = 0
        for g in graphs:
            assert len(interior_vertices(g)) >= 2
            for lam0 in interior_poles(g, 60.0):
                lams = [lam0 * (1 + sign * d) for d in offsets for sign in (-1, 1)]
                regular = stacked(g, lams).regular
                ref = [reference_m_function(g, lam).regular for lam in lams]
                assert regular.tolist() == ref, (g, lam0)
                assert [m_function(g, lam).regular for lam in lams] == ref, (g, lam0)
                # the sweep crosses the threshold on both sides of the pole
                for side in (ref[0::2], ref[1::2]):
                    assert side[0] and not side[-1], (g, lam0)
                n_poles += 1
        assert n_poles >= 30, n_poles


def two_squares(contacts):
    """Two 4-cycles of unit edges sharing vertex 0."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)]
    return from_edge_list(7, edges, contacts)


#: for unit edges: an edge pole, and an interior Dirichlet pole of every
#: graph below (a hub of unit spokes, or an interior vertex on two unit
#: edges, has T_vv = -2k cot k = 0 at k = pi/2)
EDGE_POLE = math.pi ** 2
INTERIOR_POLE = (math.pi / 2) ** 2


class TestStackPlacement:
    """A lambda gives the same bits alone, in an all-regular stack and in a
    stack that also holds an edge-singular and an interior-singular lambda."""

    #: just below the edge pole pi, both half-lines, zero, and values where
    #: a strided gather of B (another matmul loop) changed M at one contact
    LAMS = ((math.pi - 1e-8) ** 2, 0.3, 0.5516242170333864 ** 2, 2.345, -1.7, 0.0, 30.5)

    @pytest.mark.parametrize("g", [
        two_squares((0,)), two_squares((0, 2)), two_squares((0, 2, 5)),
        from_edge_list(4, [(0, 3), (1, 3), (2, 3)], (0, 1, 2)),
        from_edge_list(5, [(0, 4), (1, 4), (2, 4), (3, 4), (0, 1, 3), (0, 3, "3/2")], (0, 3)),
        from_edge_list(5, [(0, 1), (1, 2, 3), (2, 3), (2, 4, "3/2"), (0, 4, 3)], (2,))])
    def test_lambda_alone_and_in_stacks(self, g, stacked_calls):
        assert reference_assemble(g, EDGE_POLE) is None
        assert reference_assemble(g, INTERIOR_POLE) is not None
        assert not reference_m_function(g, INTERIOR_POLE).regular
        lams = [lam for lam in self.LAMS if reference_m_function(g, lam).regular]
        assert len(lams) >= 6
        mixed = [EDGE_POLE, *lams[:3], INTERIOR_POLE, *lams[3:]]
        kernel = _Kernel(g)
        for eigs in (False, True):
            stacked_calls.clear()
            regular = kernel.evaluate(lams, eigs)
            stack = kernel.evaluate(mixed, eigs)
            # each request is one stacked call
            assert stacked_calls == [(len(lams), [len(lams)]), (len(mixed), [len(mixed)])]
            assert regular.regular.all()
            assert stack.regular.tolist() == [lam not in (EDGE_POLE, INTERIOR_POLE)
                                              for lam in mixed]
            assert stack.interior[0] is None and stack.interior[4] is not None
            assert np.isnan(stack.values[[0, 4]]).all()
            for i, lam in enumerate(lams):
                alone = kernel.evaluate([lam], eigs)
                ref = reference_m_function(g, lam).matrix
                assert np.array_equal(alone.values[0],
                                      np.linalg.eigvalsh(ref) if eigs else ref), lam
                for whole, at in ((regular, i), (stack, mixed.index(lam))):
                    assert np.array_equal(whole.values[at], alone.values[0]), lam
                    assert whole.interior[at] == alone.interior[0], lam


@st.composite
def graphs_with_contacts(draw):
    """Connected multigraphs with loops, parallel edges, mixed lengths."""
    n = draw(st.integers(1, 6))
    length = st.sampled_from(ORACLE_LENGTHS)
    edges = [(draw(st.integers(0, v - 1)), v, draw(length)) for v in range(1, n)]
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex, length),
                           min_size=1 if n == 1 else 0, max_size=4))
    contacts = draw(st.lists(vertex, min_size=1, max_size=n, unique=True))
    return from_edge_list(n, edges, contacts)


class TestProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(graphs_with_contacts(), st.floats(-60.0, 60.0))
    def test_m_function_symmetric(self, g, lam):
        ev = m_function(g, lam)
        assume(ev.regular)
        # the Schur complement is symmetric up to rounding amplified by the
        # condition of the interior block
        t = reference_assemble(g, lam)
        inner = interior_vertices(g)
        cond = np.linalg.cond(t[np.ix_(inner, inner)]) if inner else 1.0
        assume(cond < 1e6)
        scale = 1.0 + np.max(np.abs(t))
        assert np.max(np.abs(ev.matrix - ev.matrix.T)) <= 1e-12 * cond * scale

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(graphs_with_contacts(), st.floats(-80.0, -1.0))
    def test_branches_increase_with_lambda_on_negative_axis(self, g, lmin):
        # M'(lambda) is positive definite and there are no poles for lambda < 0,
        # so every branch strictly increases with lambda (decreases out along
        # the negative half-line); detect reads its crossings from count drops
        curve = steklov_sweep(g, lmin, -0.05, 30)
        assert curve.n_singular == 0
        for prev, cur in zip(curve.branches, curve.branches[1:]):
            assert all(c > p for p, c in zip(prev, cur)), (g, prev, cur)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(graphs_with_contacts(), st.floats(0.0, 60.0, exclude_min=True))
    def test_m_function_nondecreasing_between_poles(self, g, lam):
        # M'(lambda) is positive semidefinite on the positive axis too, away
        # from the poles: a forward difference over a step too short to
        # cross one has no eigenvalue below the rounding of entries of size
        # `scale`, divided by h
        h = 1e-6 * max(1.0, lam)
        assume(lam + h <= 60.0)
        lo, hi = m_function(g, lam), m_function(g, lam + h)
        assume(lo.regular and hi.regular)
        scale = max(np.max(np.abs(lo.matrix)), np.max(np.abs(hi.matrix)))
        assume(scale <= 1e3)
        diff = (hi.matrix - lo.matrix) / h
        assert np.linalg.eigvalsh(0.5 * (diff + diff.T))[0] >= -1e-9 * (1.0 + scale) / h


class TestBudgets:
    def test_detect_sample_budget(self, monkeypatch):
        g = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        # 5.0 / 0.01 = 500 samples
        monkeypatch.setattr(specgraph.mfunction, "MAX_DETECT_SAMPLES", 500)
        assert detectable_spectrum(g, 5.0).points
        monkeypatch.setattr(specgraph.mfunction, "MAX_DETECT_SAMPLES", 499)
        with pytest.raises(GraphError, match="above the budget of 499"):
            detectable_spectrum(g, 5.0)

    def test_edge_pole_budget(self, monkeypatch):
        # 4.0 * 100 / pi = 127 poles of the long edge, but only 40 grid points
        g = from_edge_list(2, [(0, 1, 100)], contacts=(0, 1))
        monkeypatch.setattr(specgraph.mfunction, "MAX_DETECT_SAMPLES", 100)
        with pytest.raises(GraphError, match="above the budget of 100"):
            detectable_spectrum(g, 4.0, grid_step=0.1)

    def test_detect_defaults_read_at_call_time(self, monkeypatch):
        # a grid step of pi/8 puts the eighth sample on the edge pole pi
        g = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        monkeypatch.setattr(specgraph.mfunction, "DETECT_GRID_STEP", math.pi / 8)
        monkeypatch.setattr(specgraph.mfunction, "DETECT_REFINE_TOL", 1e-6)
        res = detectable_spectrum(g, 4.0)
        assert res == detectable_spectrum(g, 4.0, math.pi / 8, 1e-6)
        assert res.warnings == ("singular sample at k=3.14159",)
        monkeypatch.setattr(specgraph.mfunction, "DETECT_GRID_STEP", 5.0)
        with pytest.raises(GraphError, match="grid step must be positive"):
            detectable_spectrum(g, 4.0, grid_step=math.nan)
        assert detectable_spectrum(g, 4.0) == DetectionResult((), ())

    def test_m_function_vertex_bound(self, monkeypatch):
        # checked in _Kernel before the lengths are read or any array built
        path = from_edge_list(6, [(i, i + 1) for i in range(5)], contacts=(0,))
        monkeypatch.setattr(specgraph.mfunction, "MAX_MFUNCTION_VERTICES", 6)
        assert m_function(path, -1.0).regular
        monkeypatch.setattr(specgraph.mfunction, "MAX_MFUNCTION_VERTICES", 5)

        def no_lengths(g):
            raise AssertionError("lengths read above the vertex bound")

        monkeypatch.setattr(specgraph.mfunction, "_float_lengths", no_lengths)
        calls = [lambda: m_function(path, -1.0), lambda: steklov_eigs(path, 1.0),
                 lambda: steklov_sweep(path, -1.0, 1.0, 5),
                 lambda: detectable_spectrum(path, 3.0),
                 lambda: steklov_equivalent(path, path),
                 lambda: invisible_multiplicity(path, math.pi)]
        for call in calls:
            with pytest.raises(GraphError,
                               match="graph has 6 vertices, above the bound of 5 for M-functions"):
                call()

    def test_m_function_edge_bound(self, monkeypatch):
        # checked in _Kernel before the lengths are read or any array built
        path = from_edge_list(6, [(i, i + 1) for i in range(5)], contacts=(0,))
        monkeypatch.setattr(specgraph.mfunction, "MAX_MFUNCTION_EDGES", 5)
        assert m_function(path, -1.0).regular
        monkeypatch.setattr(specgraph.mfunction, "MAX_MFUNCTION_EDGES", 4)

        def no_lengths(g):
            raise AssertionError("lengths read above the edge bound")

        monkeypatch.setattr(specgraph.mfunction, "_float_lengths", no_lengths)
        calls = [lambda: m_function(path, -1.0), lambda: steklov_eigs(path, 1.0),
                 lambda: steklov_sweep(path, -1.0, 1.0, 5),
                 lambda: detectable_spectrum(path, 3.0),
                 lambda: steklov_equivalent(path, path),
                 lambda: invisible_multiplicity(path, math.pi)]
        for call in calls:
            with pytest.raises(GraphError,
                               match="graph has 5 edges, above the bound of 4 for M-functions"):
                call()

    def test_small_chunk_budget_keeps_outputs(self, monkeypatch, stacked_calls):
        # the entry budget is read at call time; chunks of 1, 2 or 3
        # lambdas give the sweeps and detects of the default budget
        graphs = [catalog(name) for name in CONTACT_CATALOG]
        expected = [(steklov_sweep(g, -5.0, 60.0, 120), detectable_spectrum(g, 6.5))
                    for g in graphs]
        budget = specgraph.mfunction._CHUNK_ENTRIES
        for i, (g, want) in enumerate(zip(graphs, expected)):
            per_chunk = 1 + i % 3
            kernel = _Kernel(g)
            assert budget // kernel.entries >= 120
            monkeypatch.setattr(specgraph.mfunction, "_CHUNK_ENTRIES",
                                per_chunk * kernel.entries + kernel.entries - 1)
            stacked_calls.clear()
            whole = kernel.evaluate([-1.0] * 7)
            sizes = [per_chunk] * (7 // per_chunk) + [7 % per_chunk] * (7 % per_chunk > 0)
            assert stacked_calls == [(7, sizes)]
            assert len(whole.regular) == len(whole.values) == len(whole.interior) == 7
            got = (steklov_sweep(g, -5.0, 60.0, 120), detectable_spectrum(g, 6.5))
            assert got == want, g

        # the Steklov certificates compare all nine samples, in order, when
        # their graphs split the samples into chunks of different sizes
        monkeypatch.setattr(specgraph.mfunction, "_CHUNK_ENTRIES", budget)
        pairs = [(catalog("fig6_cycle"), catalog("fig6_eight")),
                 (catalog("Gamma1"), catalog("Q1"))]
        hosts = [(catalog("K4"), catalog("Q1"), catalog("Q2")),
                 (catalog("S4"), catalog("Q1"), catalog("Q2"))]
        cases = [(steklov_equivalent, (a, b)) for a, b in pairs]
        cases += [(steklov_equivalent, (b, a)) for a, b in pairs]
        cases += [(method3_verify, host) for host in hosts]
        expected = [check(*args) for check, args in cases]
        assert [bool(r) for r in expected] == [True, False, True, False, True, True]
        for (check, args), want in zip(cases, expected):
            # the smallest graph takes two samples per chunk, the others one
            monkeypatch.setattr(specgraph.mfunction, "_CHUNK_ENTRIES",
                                2 * min(_Kernel(g).entries for g in args))
            stacked_calls.clear()
            got = check(*args)
            assert got == want, args
            assert [n for n, _ in stacked_calls] == [len(DEFAULT_SAMPLES)] * len(args)
            assert len({tuple(sizes) for _, sizes in stacked_calls}) == 2, stacked_calls
            if check is method3_verify:
                assert [s.lam for s in got.samples] == list(DEFAULT_SAMPLES)

    @pytest.mark.parametrize("g, per_chunk", [
        (from_edge_list(200, [(i, i + 1) for i in range(199)], contacts=(0,)), 25),
        (from_edge_list(2, [(0, 1)] * 10_000, contacts=(0,)), 13)])
    def test_lambdas_per_chunk_at_the_bounds(self, g, per_chunk, stacked_calls):
        # a lambda costs n^2 + 8E entries: 41,592 on the path of 200
        # vertices, 80,004 on 10,000 parallel edges
        kernel = _Kernel(g)
        budget = specgraph.mfunction._CHUNK_ENTRIES
        assert kernel.entries * per_chunk <= budget < kernel.entries * (per_chunk + 1)
        lams = [-1.0 - 0.1 * i for i in range(2 * per_chunk + 1)]
        for eigs in (False, True):
            stacked_calls.clear()
            whole = kernel.evaluate(lams, eigs)
            assert stacked_calls == [(len(lams), [per_chunk, per_chunk, 1])]
            for i, lam in enumerate(lams):
                alone = kernel.evaluate([lam], eigs)
                assert whole.regular[i] == alone.regular[0]
                assert np.array_equal(whole.values[i], alone.values[0])
                assert whole.interior[i] == alone.interior[0]

    def test_zero_lambda_requests(self, stacked_calls):
        g = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        for eigs, shape in ((False, (0, 2, 2)), (True, (0, 2))):
            empty = _Kernel(g).evaluate([], eigs)
            assert empty.regular.shape == (0,) and empty.values.shape == shape
            assert empty.interior == []
        assert stacked_calls == [(0, []), (0, [])]
        # k_max below the step: an empty grid, which evaluates nothing,
        # and no probes
        stacked_calls.clear()
        assert detectable_spectrum(g, 0.005) == DetectionResult((), ())
        assert stacked_calls == [(0, [])]
        # a grid of 100 points with a count of one everywhere and no edge
        # pole below pi: a coarse pass of the ends and every 8th point, an
        # empty fine pass, no bracket, no candidate, an empty probe request
        stacked_calls.clear()
        assert detectable_spectrum(g, 1.0) == DetectionResult((), ())
        assert stacked_calls == [(14, [14]), (0, []), (0, [])]

    def test_sweep_sample_budget(self, monkeypatch):
        g = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        monkeypatch.setattr(specgraph.mfunction, "MAX_DETECT_SAMPLES", 11)
        assert len(steklov_sweep(g, -1.0, 1.0, 11).grid) == 11
        monkeypatch.setattr(specgraph.mfunction, "MAX_DETECT_SAMPLES", 10)
        with pytest.raises(GraphError, match="above the budget of 10"):
            steklov_sweep(g, -1.0, 1.0, 11)

    @pytest.mark.parametrize("kwargs", [
        {"grid_step": 0.0}, {"grid_step": -0.01}, {"grid_step": math.inf},
        {"grid_step": math.nan}, {"k_max": math.inf}, {"k_max": math.nan},
        {"refine_tol": -1e-8}, {"refine_tol": math.nan}])
    def test_detect_rejects_unbounded_grids(self, kwargs):
        g = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        args = {"k_max": 4.0, **kwargs}
        with pytest.raises(GraphError):
            detectable_spectrum(g, **args)

    def test_sweep_rejects_infinite_bounds(self):
        g = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        with pytest.raises(GraphError, match="finite"):
            steklov_sweep(g, -1.0, math.inf, 10)

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
    def test_non_finite_lambda_rejected(self, lam):
        g = from_edge_list(2, [(0, 1)], contacts=(0, 1))
        with pytest.raises(GraphError, match="lambda must be finite"):
            m_function(g, lam)


@pytest.mark.parametrize("call, message", [
    (lambda: detectable_spectrum(from_edge_list(2, [(0, 1)]), 3.0), "empty contact set"),
    (lambda: steklov_equivalent(catalog("S3"), catalog("S3"), [(0, 0), (1, 1), (1, 2)]),
     "bijection must pair all contacts exactly once"),
    (lambda: method3_verify(catalog("K4"), catalog("Q1"), catalog("S3")),
     "contact counts differ"),
])
def test_bad_input_raises(call, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        call()
