"""Checks of one pass's outputs, and the per-layer metrics of a traced pass.

`run_checks` applies each op's oracle (see oracles.py), the cross-op
checks (the proposition verdict equals the metric verdict on every
compared pair; swapped and unswapped exchange assemblies are
isospectral; the ln search agrees with the secular search), and the
byte-identity gate for ops whose inputs do not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import oracles
from tracer import LAYERS, Tracer

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def output_bytes(op: dict, rec: dict) -> bytes:
    """What an op produced: exit code, stdout, then any files it wrote."""
    text = f"exit {rec['code']}\n{rec['stdout']}"
    for path in op.get("outputs", []):
        text += Path(path).read_text(encoding="utf-8")
    return text.encode()


def _read(path: str) -> oracles.Graph:
    return oracles.read_graph(Path(path).read_text(encoding="utf-8"))


def _proportional(g1: oracles.Graph, g2: oracles.Graph) -> bool:
    """Equal secular polynomials up to scale, from the vertex kernel."""
    if len(g1.subdivided().edges) != len(g2.subdivided().edges):
        return False
    values = [(oracles.vertex_kernel(g1, z), oracles.vertex_kernel(g2, z))
              for z in oracles.KERNEL_POINTS]
    a0, b0 = values[0]
    return all(a * b0 == b * a0 for a, b in values[1:])


def _check_compare(op: dict, rec: dict, verdicts: dict) -> list[str]:
    mode = op["check"]["kind"].split("-", 1)[1]
    g1, g2 = (_read(p) for p in op["graphs"])
    lines = rec["stdout"].splitlines()
    problems = []
    if mode == "metric":
        iso = lines[0] == "isospectral"
        if iso:
            problems += oracles.check_secular_line(lines[1], g1)
            problems += oracles.check_secular_line(lines[1], g2)
        else:
            problems += oracles.check_secular_line(lines[1], g1)
            problems += oracles.check_secular_line(lines[2], g2)
            if lines[1] == lines[2] and g1.components() == g2.components():
                problems.append("equal keys reported as not isospectral")
    elif mode == "discrete":
        problems += oracles.check_ln_line(lines[1], "lncp1", g1)
        problems += oracles.check_ln_line(lines[2], "lncp2", g2)
        iso = lines[0] == "ln-isospectral"
        if iso != (lines[1][6:] == lines[2][6:]):
            problems.append("ln verdict disagrees with the printed charpolys")
    else:
        iso = lines[0] == "metric-isospectral"
        if lines[1] != f"betti {g1.betti()} {g2.betti()}":
            problems.append(f"bad betti line {lines[1]!r}")
        problems += oracles.check_ln_line(lines[2], "lncp1", g1)
        problems += oracles.check_ln_line(lines[3], "lncp2", g2)
        if iso != (lines[2][6:] == lines[3][6:] and g1.betti() == g2.betti()):
            problems.append("proposition verdict disagrees with its evidence")
    if rec["code"] != (0 if iso else 1):
        problems.append(f"exit code {rec['code']} for verdict {lines[0]!r}")
    expect = op["check"]["iso"]
    if mode != "discrete" and expect is not None and iso != expect:
        problems.append(f"verdict {lines[0]!r}, expected isospectral={expect}")
    if mode != "discrete":
        verdicts.setdefault(op["check"]["pair"], {})[mode] = iso
    return problems


def _secular_roots(sg, path: str) -> dict[float, int]:
    g = sg.graphs.parse_graph(Path(path).read_text(encoding="utf-8"))
    return dict(sg.secular.spectrum_report(g).fundamental_roots)


def _check_one(sg, op: dict, rec: dict, ctx: dict) -> list[str]:
    kind = op["check"]["kind"]
    text = rec["stdout"]
    if kind == "secular":
        return oracles.check_secular_line(text.strip(), _read(op["graphs"][0]))
    if kind == "spectrum":
        return oracles.check_spectrum(text, _read(op["graphs"][0]))
    if kind.startswith("compare-"):
        return _check_compare(op, rec, ctx["verdicts"])
    if kind == "clarify":
        pair = [_read(p) for p in op["outputs"]]
        edges = [len(g.subdivided().edges) for g in pair]
        return [] if edges == [26, 26] else [f"clarifying pair has {edges} unit edges"]
    if kind == "search-secular-6":
        shadows = [_read(p).adjacency() for p in op["check"]["shadows"]]
        ctx["search-secular"] = text
        return oracles.check_search_secular(text, 6, shadows)
    if kind == "search-ln-6":
        ctx["search-ln"] = text
        return []
    if kind == "search-multi-4-7":
        return oracles.check_search_multi(text, 4, 7)
    graph = _read(op["graphs"][0])
    if kind == "detect":
        return oracles.check_detect(text, _secular_roots(sg, op["graphs"][0]))
    if kind == "sweep":
        return oracles.check_sweep(text, graph)
    if kind == "mfun":
        return oracles.check_mfun(text, graph, op["check"]["lambda"])
    if kind == "invisible":
        rows = [line.split() for line in text.splitlines()]
        problems = oracles.check_roots([(float(k), int(m)) for k, m, _ in rows], graph)
        problems += [f"invisible multiplicity {inv} outside [0, {m}] at k={k}"
                     for k, m, inv in rows if not 0 <= int(inv) <= int(m)]
        return problems
    if kind == "equivalent":
        verdict = text.split()[0] == "True"
        if verdict != op["check"]["expect"]:
            return [f"Steklov equivalence {verdict}, expected {op['check']['expect']}"]
        return []
    if kind == "quotient":
        if not _proportional(oracles.read_graph(text), _read(op["check"]["expect"])):
            return ["quotient is not isospectral to the expected graph"]
        return []
    if kind == "exchange":
        ctx["exchange"].append(oracles.read_graph(text))
        return []
    return [f"no oracle for {kind!r}"]


def run_checks(sg, ops: list[dict], records: list[dict]) -> list[dict]:
    """Failures as {op, problem}: exceptions, exit code 2 and wrong outputs.

    Warnings that specgraph emits are not failures; the worker reports
    them separately.
    """
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    ctx = {"verdicts": {}, "exchange": []}
    failures = []

    def fail(op_id: str, problem: str) -> None:
        failures.append({"op": op_id, "problem": problem})

    for op, rec in zip(ops, records):
        if rec["code"] not in (0, 1):
            fail(op["id"], f"exit {rec['code']}: {rec['stderr'].strip()[-300:]}")
            continue
        try:
            problems = _check_one(sg, op, rec, ctx)
        except (ValueError, IndexError, KeyError) as exc:
            problems = [f"unreadable output ({type(exc).__name__}: {exc})"]
        for problem in problems:
            fail(op["id"], problem)
        if op["fixed"]:
            digest = hashlib.sha256(output_bytes(op, rec)).hexdigest()
            if reference.get(op["id"]) != digest:
                fail(op["id"], "output differs from the recorded reference")
    for pair, modes in ctx["verdicts"].items():
        if modes.get("metric") != modes.get("proposition"):
            fail(f"{pair}/compare-proposition", "proposition verdict differs from metric verdict")
    if "search-ln" in ctx:
        for problem in oracles.check_search_ln(ctx["search-ln"], ctx.get("search-secular", "")):
            fail("search-ln-6", problem)
    if len(ctx["exchange"]) == 2 and not _proportional(*ctx["exchange"]):
        fail("construct-exchange/0,1", "exchanged assembly not isospectral to the original")
    return failures


def classes(ops: list[dict], records: list[dict]) -> int:
    """Isomorphism classes given an exact key or a detectable spectrum per pass."""
    total = 0
    for op, rec in zip(ops, records):
        if op["id"].startswith("search-"):
            total += int(rec["stdout"].split()[1])
        elif op.get("classes"):
            total += 1
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cache: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    summary = tracer.summary()

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    m: dict[str, float] = {}
    for name in ("exact.det_exact", "graphs.canonical_form", "mfunction.m_function"):
        m[f"{name}.calls"] = calls(name)
    m["exact.det_exact.max_dim"] = tracer.attrs.get("exact.det_exact", 0)
    m["exact.polymat_det.points"] = tracer.attrs.get("exact.polymat_det", 0)
    for name in ("secular.secular_poly", "discrete.ln_charpoly"):
        info = cache[name]
        m[f"{name}.calls"] = info["hits"] + info["misses"]
        m[f"{name}.cache_hit_ratio"] = _ratio(info["hits"], info["hits"] + info["misses"])
    m["mfunction.m_function.singular_ratio"] = _ratio(
        tracer.attrs.get("mfunction.m_function", 0), calls("mfunction.m_function"))
    enumerators = ("search.enumerate_connected_simple", "search.enumerate_connected_multi")
    candidates = sum(tracer.counts.get(("graphs.discrete_from_adj", e), 0) for e in enumerators)
    m["search.yield_ratio"] = _ratio(sum(tracer.yields.get(e, 0) for e in enumerators),
                                     candidates)
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = self_s(name)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(row["self_s"] for name, row in summary.items()
                                         if name.startswith(layer + "."))
    return m


SELF_TIMED = (
    "exact.det_exact", "exact.polymat_det", "secular.entry_matrix",
    "exact.poly_roots_unit_circle", "exact.squarefree_factors", "secular.spectrum_report",
    "exact.charpoly_exact", "discrete.ln_charpoly", "discrete.proposition_check",
    "secular.secular_poly",
    "search.enumerate_connected_simple", "search.enumerate_connected_multi", "search.classify",
    "graphs.canonical_form",
    "mfunction.m_function", "mfunction.steklov_eigs", "mfunction.detectable_spectrum",
    "mfunction.steklov_sweep", "mfunction.steklov_equivalent",
    "constructions.method2_exchange", "constructions.build_clarifying_example",
    "constructions.inner_symmetry_quotient",
    "graphs.parse_graph", "graphs.format_graph", "graphs.unit_subdivided",
    "cli.run",
)
