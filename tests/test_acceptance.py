"""Acceptance suite: one test per release criterion, in order.

Each test prints a `[criterion N] PASS/FAIL` line with its runtime; run
with `pytest tests/test_acceptance.py -v -s` to see them all.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from specgraph import (betti, canonical_form, catalog, classify, components,
                       detectable_spectrum, enumerate_connected_simple,
                       from_edge_list, glue, ln_charpoly, m_function,
                       metric_from_discrete, metric_isospectral, poly_mul,
                       poly_normalize, poly_pow, secular_poly,
                       spectrum_report, steklov_sweep, to_discrete)
from specgraph.constructions import ComposedHost, Slot, assemble, \
    build_clarifying_example, method2_exchange
from conftest import random_connected_multigraph
from kernel_oracles import poly_roots_unit_circle, scattering_secular_poly, von_below_check
import random


def report(number: int, ok: bool, started: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} ({elapsed:6.2f}s) {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def six_vertex_run():
    """Shared n=6 enumeration with exact spectral keys (criteria 4 and 8).

    The secular key comes from the 2N x 2N scattering oracle, so that
    criterion 8 compares it with the library's discrete-side verdict
    rather than comparing the library's V x V kernel with itself.
    """
    started = time.perf_counter()
    graphs = list(enumerate_connected_simple(6))
    families = classify(graphs, "secular")
    keys = []
    for d in graphs:
        g = metric_from_discrete(d)
        keys.append({
            "secular": scattering_secular_poly(g),
            "components": components(g),
            "lncp": ln_charpoly(d),
            "betti": betti(g),
        })
    return {"graphs": graphs, "families": families, "keys": keys,
            "elapsed": time.perf_counter() - started}


def test_criterion_1_k5_polynomial():
    started = time.perf_counter()
    target = poly_normalize(
        poly_mul(poly_mul(poly_pow([-1, 1], 7), poly_pow([1, 1], 5)),
                 poly_pow([2, 1, 2], 4)))
    ok = secular_poly(catalog("K5")) == target
    elapsed = time.perf_counter() - started
    report(1, ok and elapsed < 1.0, started, "K5 secular polynomial bit-exact")


def test_criterion_2_chopped_pair_certificate():
    started = time.perf_counter()
    target = poly_normalize(
        poly_mul(poly_mul(poly_pow([-1, 1], 6), poly_pow([1, 1], 4)),
                 poly_mul(poly_pow([2, 1, 2], 3), [2, 1, 2, 1, 2])))
    p1 = secular_poly(catalog("Gamma1"))
    p2 = secular_poly(catalog("Gamma2"))
    ok = p1 == target and p2 == target and p1 == p2
    elapsed = time.perf_counter() - started
    report(2, ok and elapsed < 1.0, started, "both partners equal the product form")


def test_criterion_3_simplest_pair():
    started = time.perf_counter()
    g1 = glue(catalog("S4"), catalog("Q1"), [(i, i) for i in range(4)])
    g2 = glue(catalog("S4"), catalog("Q2"), [(i, i) for i in range(4)])
    ok = secular_poly(g1) == secular_poly(g2)
    elapsed = time.perf_counter() - started
    report(3, ok and elapsed < 1.0, started, "star extensions share one polynomial")


def test_criterion_4_exhaustive_small_graphs(six_vertex_run):
    started = time.perf_counter()
    ok = True
    for n in range(2, 6):
        families = classify(enumerate_connected_simple(n), "secular")
        ok = ok and all(f.size == 1 for f in families)
    graphs = six_vertex_run["graphs"]
    families = six_vertex_run["families"]
    ok = ok and len(graphs) == 112
    target = {canonical_form(to_discrete(catalog("Gamma1"))),
              canonical_form(to_discrete(catalog("Gamma2")))}
    pair_families = [f for f in families if set(f.members) == target]
    ok = ok and len(pair_families) == 1
    total = six_vertex_run["elapsed"] + (time.perf_counter() - started)
    report(4, ok and total < 300.0, started,
           f"112 classes, the known pair found ({total:.1f}s incl. shared run)")


def test_criterion_5_closed_form_steklov():
    started = time.perf_counter()
    samples = []
    k = 0.1
    while len(samples) < 100:
        if min(abs(math.sin(k)), abs(math.cos(k))) > 0.05:
            samples.append(k)
        k += 0.029
    ok = True
    k4 = catalog("K4")
    for k in samples:
        eigs = np.linalg.eigvalsh(m_function(k4, k * k).matrix)
        mu1 = 3 * k * math.tan(k / 2)
        mu2 = -3 * k / math.tan(k) - k / math.sin(k)
        expected = np.sort([mu1] + [mu2] * 3)
        ok = ok and np.max(np.abs(eigs - expected)) < 1e-9
    for d in range(1, 6):
        star = catalog(f"S{d}")
        for k in samples:
            eigs = np.linalg.eigvalsh(m_function(star, k * k).matrix)
            expected = np.sort([k * math.tan(k)] + [-k / math.tan(k)] * (d - 1))
            ok = ok and np.max(np.abs(eigs - expected)) < 1e-9
    elapsed = time.perf_counter() - started
    report(5, ok and elapsed < 5.0, started,
           "complete-graph and star branches match closed forms at 100 samples")


def test_criterion_6_detectable_cross_check():
    started = time.perf_counter()
    glued = glue(catalog("K4"), catalog("S4"), [(i, i) for i in range(4)])
    result = detectable_spectrum(glued, 2.0, grid_step=0.01, refine_tol=1e-9)
    ok = len(result.points) == 1
    k_detect, mult = result.points[0]
    k_target = math.acos(-0.25)
    ok = ok and abs(k_detect - k_target) < 1e-8 and mult == 4
    # the same k must be a root of the quartic factor of the K5 polynomial
    factor_roots = poly_roots_unit_circle(poly_normalize([2, 1, 2]))
    ok = ok and abs(factor_roots[0][0] - k_detect) < 1e-8
    elapsed = time.perf_counter() - started
    report(6, ok and elapsed < 10.0, started,
           f"smallest detectable k = {k_detect:.9f}, multiplicity {mult}")


def test_criterion_7_von_below():
    started = time.perf_counter()
    ok = True
    gamma1p = glue(catalog("S4"), catalog("Q1"), [(i, i) for i in range(4)])
    gamma2p = glue(catalog("S4"), catalog("Q2"), [(i, i) for i in range(4)])
    cases = [catalog("K5"), catalog("Gamma1"), catalog("Gamma2"),
             gamma1p, gamma2p, catalog("C3"), catalog("path_3")]
    checked = 0
    for g in cases:
        rep = von_below_check(g, tol=1e-8)
        ok = ok and rep.ok
        checked += len(rep.residuals)
    elapsed = time.perf_counter() - started
    report(7, ok and elapsed < 30.0, started,
           f"{checked} generic roots mapped onto discrete spectra")


def test_criterion_8_proposition_exhaustive(six_vertex_run):
    started = time.perf_counter()
    keys = six_vertex_run["keys"]
    disagreements = 0
    pairs = 0
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            a, b = keys[i], keys[j]
            metric = (a["secular"] == b["secular"]
                      and a["components"] == b["components"])
            prop = (a["lncp"] == b["lncp"] and a["betti"] == b["betti"])
            pairs += 1
            if metric != prop:
                disagreements += 1
    report(8, disagreements == 0, started,
           f"{pairs} pairs compared, {disagreements} disagreements")


def test_criterion_9_exchange_certificate():
    started = time.perf_counter()
    cycle, eight = catalog("fig6_cycle"), catalog("fig6_eight")
    frame = from_edge_list(4, [(0, 1), (1, 2), (2, 3)], contacts=(0, 1, 3))
    host = ComposedHost(frame, (Slot(cycle, ((0, 0), (1, 1))),
                                Slot(eight, ((0, 1), (1, 2)))))
    swapped = method2_exchange(host, 0, 1)
    ok = metric_isospectral(assemble(host), swapped)
    ok = ok and not metric_isospectral(cycle, eight)
    elapsed = time.perf_counter() - started
    report(9, ok and elapsed < 5.0, started,
           "swap is isospectral although the swapped pair itself is not")


def test_criterion_10_property_suites():
    started = time.perf_counter()
    rng = random.Random(2024)
    ok = True

    # M-function symmetry at 1e-12
    for name in ("K4", "S4", "Gamma1", "Q2", "watermelon_stick_unit"):
        g = catalog(name)
        for lam in (-7.3, -2.0, 0.6, 1.9):
            ev = m_function(g, lam)
            if ev.regular:
                ok = ok and float(np.max(np.abs(ev.matrix - ev.matrix.T))) < 1e-12

    # Herglotz monotonicity on the pole-free negative interval
    for name in ("K4", "S4", "Gamma1", "fig6_cycle", "figure_eight_unit"):
        curve = steklov_sweep(catalog(name), -10.0, -0.1, 100)
        ok = ok and curve.n_singular == 0
        for prev, cur in zip(curve.branches, curve.branches[1:]):
            ok = ok and all(c - p >= -1e-9 for p, c in zip(prev, cur))

    # palindromic coefficients and unit-circle roots
    graphs = [catalog(n) for n in ("K5", "Gamma1", "Gamma2", "C4", "path_4")]
    graphs += [random_connected_multigraph(rng) for _ in range(10)]
    for g in graphs:
        coeffs = list(secular_poly(g).coeffs)
        ok = ok and (coeffs[::-1] == coeffs or coeffs[::-1] == [-c for c in coeffs])
        poly_roots_unit_circle(secular_poly(g))

    # multiplicity of z = 1 equals 1 + first Betti number (connected catalog;
    # Q1 and Q2 are two-component graphs, where the rule reads c + betti)
    checked_connected = 0
    for name in ("K2", "K4", "K5", "S3", "S4", "C1", "C3", "C5", "path_2",
                 "path_5", "Gamma1", "Gamma2", "Gamma1p", "Gamma2p",
                 "figure_eight_unit", "watermelon_stick_unit"):
        g = catalog(name)
        assert components(g) == 1
        rep = spectrum_report(g)
        ok = ok and rep.multiplicity_at(2 * math.pi) == 1 + betti(g)
        checked_connected += 1
    assert checked_connected == 16

    # Schur elimination agrees with direct assembly of the two halves
    glued = glue(catalog("K4"), catalog("S4"), [(i, i) for i in range(4)])
    k5 = replace(catalog("K5"), contacts=(0, 1, 2, 3))
    for lam in (-6.0, -2.5, -1.0, 0.7, 1.4):
        diff = m_function(k5, lam).matrix - m_function(glued, lam).matrix
        ok = ok and float(np.max(np.abs(diff))) < 1e-10

    elapsed = time.perf_counter() - started
    report(10, ok and elapsed < 60.0, started,
           "symmetry, monotonicity, palindromes, unit roots, Schur consistency")


def test_criterion_11_clarifying_example():
    started = time.perf_counter()
    edge2 = from_edge_list(2, [(0, 1)], contacts=(0, 1))
    loop = from_edge_list(1, [(0, 0)], contacts=(0,))
    pendant = from_edge_list(2, [(0, 1)], contacts=(0,))
    g1, g2 = build_clarifying_example(edge2, edge2, edge2, edge2, loop, pendant)
    ok = metric_isospectral(g1, g2)
    elapsed = time.perf_counter() - started
    report(11, ok and elapsed < 10.0, started,
           f"unit-block pair with {g1.n_edges} edges certified bit-exactly")
