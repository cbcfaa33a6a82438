"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import oracles
import specgraph
import workloads
from specgraph import cli
from tracer import LAYERS, Tracer
from worker import Runner, _import_specgraph

HERE = Path(__file__).resolve().parent


def _cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(list(argv))
    return code, buf.getvalue()


@pytest.fixture
def graphs(tmp_path):
    paths = {}
    for name in ("K5", "Gamma1", "Gamma2", "Q1", "fig6_cycle"):
        path = tmp_path / f"{name}.g"
        path.write_text(_cli("catalog", name)[1])
        paths[name] = str(path)
    return paths


def _bindings() -> dict:
    _import_specgraph()
    out = {}
    for modname, module in sys.modules.items():
        if modname == "specgraph" or modname.startswith("specgraph."):
            out.update({(modname, k): v for k, v in vars(module).items()})
    out["entry_matrix"] = specgraph.secular.SecularMatrixSpec.__dict__["entry_matrix"]
    return out


# -- tracer ---------------------------------------------------------------

def test_tracing_keeps_output_and_restores_bindings(graphs):
    argvs = [["secular", graphs["K5"]], ["spectrum", graphs["Gamma1"]],
             ["compare", graphs["Gamma1"], graphs["Gamma2"], "--mode", "proposition"],
             ["detect", graphs["Q1"], "--kmax", "4"], ["search", "--vertices", "4"]]
    before = _bindings()
    plain = [_cli(*argv) for argv in argvs]
    specgraph.secular.secular_poly.cache_clear()
    specgraph.discrete.ln_charpoly.cache_clear()
    tracer = Tracer().install()
    try:
        assert specgraph.secular.polymat_det is not before[("specgraph.secular", "polymat_det")]
        traced = [_cli(*argv) for argv in argvs]
    finally:
        tracer.uninstall()
    assert traced == plain
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = set(tracer.summary())
    assert {"cli.run", "secular.secular_poly", "exact.polymat_det", "exact.det_exact",
            "discrete.proposition_check", "mfunction.m_function",
            "search.enumerate_connected_simple", "graphs.canonical_form",
            "secular.entry_matrix"} <= names


def test_self_time_and_generator_spans():
    specgraph.secular.secular_poly.cache_clear()
    tracer = Tracer().install()
    try:
        specgraph.secular_poly(specgraph.catalog("K4"))
        found = list(specgraph.search.enumerate_connected_simple(4))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    poly = summary["secular.secular_poly"]
    # polymat_det is reached through the name secular imported from exact
    assert summary["exact.polymat_det"]["calls"] == 1
    assert poly["self_s"] < poly["total_s"]
    assert all(row["self_s"] >= -1e-9 for row in summary.values())
    # one span per next(), including the one that ends the generator
    assert summary["search.enumerate_connected_simple"]["calls"] == len(found) + 1
    assert tracer.yields["search.enumerate_connected_simple"] == len(found) == 6
    candidates = tracer.counts[("graphs.discrete_from_adj", "search.enumerate_connected_simple")]
    assert candidates >= len(found)
    assert tracer.attrs["exact.det_exact"] == 12


# -- oracles reject corrupted outputs --------------------------------------

def _graph(path: str) -> oracles.Graph:
    return oracles.read_graph(Path(path).read_text())


def test_secular_and_ln_oracles(graphs):
    g = _graph(graphs["Gamma1"])
    line = _cli("secular", graphs["Gamma1"])[1].strip()
    assert oracles.check_secular_line(line, g) == []
    coeffs = line.split()
    coeffs[3] = str(int(coeffs[3]) + 1)
    assert oracles.check_secular_line(" ".join(coeffs), g)
    assert oracles.check_secular_line(line, _graph(graphs["Gamma2"])) == []
    assert oracles.check_secular_line(line, _graph(graphs["K5"]))

    out = _cli("compare", graphs["Gamma1"], graphs["K5"], "--mode", "discrete")[1].splitlines()
    assert oracles.check_ln_line(out[1], "lncp1", g) == []
    assert oracles.check_ln_line(out[2], "lncp1", g)
    bad = out[1].split()
    bad[2] = str(oracles.Fraction(bad[2]) + oracles.Fraction(1, 7))
    assert oracles.check_ln_line(" ".join(bad), "lncp1", g)


def test_spectrum_oracle(graphs):
    g = _graph(graphs["Gamma1"])
    text = _cli("spectrum", graphs["Gamma1"])[1]
    assert oracles.check_spectrum(text, g) == []
    lines = text.splitlines()
    k, mult = lines[0].split()
    assert oracles.check_spectrum("\n".join([f"{k} {int(mult) + 1}"] + lines[1:]) + "\n", g)
    generic = next(i for i, line in enumerate(lines)
                   if abs(float(line.split()[0]) / math.pi - round(float(line.split()[0]) / math.pi)) > 1e-3)
    k, mult = lines[generic].split()
    shifted = lines[:generic] + [f"{float(k) + 1e-3:.12g} {mult}"] + lines[generic + 1:]
    assert oracles.check_spectrum("\n".join(shifted) + "\n", g)


def test_mfunction_oracles(graphs):
    g = _graph(graphs["Q1"])
    text = _cli("mfun", graphs["Q1"], "--lambda", "-2.0")[1]
    assert oracles.check_mfun(text, g, -2.0) == []
    rows = text.splitlines()
    rows[0] = " ".join(["1.5"] + rows[0].split()[1:])
    assert oracles.check_mfun("\n".join(rows), g, -2.0)

    sweep = _cli("sweep", graphs["Q1"], "--lmin", "-5", "--lmax", "5", "--steps", "9")[1]
    assert oracles.check_sweep(sweep, g) == []
    lines = sweep.splitlines()
    cells = lines[1].split(",")
    cells[2] = str(float(cells[2]) + 0.01)
    assert oracles.check_sweep("\n".join([lines[0], ",".join(cells)] + lines[2:]), g)


def test_detect_oracle_wraps_at_two_pi():
    roots = {math.pi: 2, oracles.TWO_PI: 3}
    assert oracles.check_detect(f"{oracles.TWO_PI + 1e-9:.12g} 3\n", roots) == []
    assert oracles.check_detect(f"{2 * oracles.TWO_PI - 1e-9:.12g} 3\n", roots) == []
    assert oracles.check_detect(f"{3 * math.pi:.12g} 2\n", roots) == []
    assert oracles.check_detect(f"{3 * math.pi:.12g} 3\n", roots)
    assert oracles.check_detect("1.0 1\n", roots)


def test_search_oracles(graphs):
    shadows = [_graph(graphs[n]).adjacency() for n in ("Gamma1", "Gamma2")]
    sec = _cli("search", "--vertices", "6")[1]
    ln = _cli("search", "--vertices", "6", "--key", "ln")[1]
    assert oracles.check_search_secular(sec, 6, shadows) == []
    assert oracles.check_search_ln(ln, sec) == []
    assert oracles.check_search_secular(sec.replace("graphs 112", "graphs 111", 1), 6, shadows)
    # merging two singleton families makes a second non-singleton family
    merged = sec.replace("family 3 size 1\n", "", 1)
    assert oracles.check_search_secular(merged, 6, shadows)
    assert oracles.check_search_secular(sec, 6, [shadows[0], [[0] * 6] * 6])
    assert oracles.check_search_ln(ln, merged)

    multi = _cli("search", "--multi", "--vertices", "3", "--max-edges", "4")[1]
    assert oracles.check_search_multi(multi, 3, 4) == []
    assert oracles.check_search_multi(multi, 3, 5)


def test_cross_op_and_reference_checks(tmp_path, graphs):
    sg = _import_specgraph()
    ops = workloads._compare_ops("G", graphs["Gamma1"], graphs["Gamma2"], True, False)
    ops.append({"id": "secular/K5", "argv": ["secular", graphs["K5"]],
                "graphs": [graphs["K5"]], "fixed": True, "check": {"kind": "secular"}})
    runner = Runner(sg, ops)
    records = runner.run_pass(None)["records"]
    assert checks.run_checks(sg, ops, records) == []
    flipped = [dict(r) for r in records]
    flipped[2]["stdout"] = flipped[2]["stdout"].replace("metric-isospectral", "not-isospectral")
    flipped[2]["code"] = 1
    problems = {f["problem"] for f in checks.run_checks(sg, ops, flipped)}
    assert "proposition verdict differs from metric verdict" in problems
    changed = [dict(r) for r in records]
    changed[3]["stdout"] += "\n"
    problems = {f["problem"] for f in checks.run_checks(sg, ops, changed)}
    assert problems == {"output differs from the recorded reference"}


# -- smoke runs -------------------------------------------------------------

SMOKE_OPS = {"exact-keys": "secular/Gamma1", "search": "search-multi-4-7",
             "steklov": "detect/fig6_eight"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_op_smoke_run(tmp_path, workload):
    sg = _import_specgraph()
    ops_path = workloads.generate(workload, 7, tmp_path / workload)
    ops = [op for op in json.loads(ops_path.read_text()) if op["id"] == SMOKE_OPS[workload]]
    runner = Runner(sg, ops)
    records = runner.run_pass(None)["records"]
    assert checks.run_checks(sg, ops, records) == []


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.generate("steklov", 3, tmp_path / "a")
    b = workloads.generate("steklov", 3, tmp_path / "b")
    c = workloads.generate("steklov", 4, tmp_path / "c")
    files = lambda p: {f.name: f.read_text() for f in p.parent.glob("*.g")}
    assert files(a) == files(b) != files(c)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layers_cover_the_package():
    modules = {p.stem for p in (HERE.parent / "src" / "specgraph").glob("*.py")}
    assert modules - {"__init__"} == set(LAYERS)
