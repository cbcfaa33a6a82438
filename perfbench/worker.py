"""Runs one workload's op list in a fresh process and writes what it saw.

    python3 perfbench/worker.py --ops OPS.json --seconds S --trace 0|1 --out RESULT.json
    python3 perfbench/worker.py --setup-only INPUT_DIR

The op list is repeated in passes for about S seconds; every pass starts
with cold specgraph caches.  With --trace 1 untraced and traced passes
alternate, so the tracing overhead is measured in the same process.
The outputs of the first pass are checked by the oracles after timing.
--setup-only imports specgraph, parses every graph file and exits; its
wall time, measured from outside, is the set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import calibrate
import checks
from tracer import LAYERS, Tracer


def _import_specgraph():
    import specgraph
    for layer in LAYERS:
        __import__(f"specgraph.{layer}")
    return specgraph


def setup_only(input_dir: str) -> None:
    sg = _import_specgraph()
    for name in sorted(os.listdir(input_dir)):
        if name.endswith(".g"):
            sg.parse_graph(Path(input_dir, name).read_text(encoding="utf-8"))


class Runner:
    """Executes an op list in this process, capturing each op's output."""

    def __init__(self, sg, ops: list[dict]) -> None:
        self.sg = sg
        self.ops = ops
        # captured before any tracer rebinds the module attributes
        self.caches = {"secular.secular_poly": sg.secular.secular_poly,
                       "discrete.ln_charpoly": sg.discrete.ln_charpoly}

    def _graph(self, path: str):
        return self.sg.graphs.parse_graph(Path(path).read_text(encoding="utf-8"))

    def _call(self, op: dict) -> str:
        sg = self.sg
        name, args = op["call"], op["args"]
        if name == "steklov_equivalent":
            bijection = None if args[2] is None else [tuple(p) for p in args[2]]
            res = sg.mfunction.steklov_equivalent(self._graph(args[0]), self._graph(args[1]),
                                                  bijection)
            return f"{res.equivalent} {res.max_residual:.3e}\n"
        if name == "inner_symmetry_quotient":
            orbit = [tuple(p) for p in args[1]]
            result = sg.constructions.inner_symmetry_quotient(self._graph(args[0]), orbit)
            return sg.graphs.format_graph(result, "quotient")
        if name == "invisible_multiplicity":
            g = self._graph(args[0])
            lines = [f"{k:.12g} {mult} {sg.mfunction.invisible_multiplicity(g, k)}\n"
                     for k, mult in sg.secular.spectrum_report(g).fundamental_roots]
            return "".join(lines)
        raise ValueError(f"unknown library call {name!r}")

    def execute(self, op: dict) -> dict:
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if "argv" in op:
                        code = self.sg.cli.run(op["argv"])
                    else:
                        out.write(self._call(op))
            except Exception:
                code = -1
                err.write(traceback.format_exc(limit=3))
        for w in caught:
            err.write(f"warning: {w.message}\n")
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def clear_caches(self) -> None:
        for fn in self.caches.values():
            fn.cache_clear()

    def run_pass(self, tracer: Tracer | None) -> dict:
        """Run every op once with cold caches; latencies raw and at reference speed."""
        self.clear_caches()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        records, windows = [], []
        clock = time.perf_counter
        try:
            with calibrate.Clock() as speed:
                start = clock()
                for op in self.ops:
                    t0 = clock()
                    records.append(self.execute(op))
                    windows.append((t0, clock()))
                wall = clock() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        cache = {name: fn.cache_info()._asdict() for name, fn in self.caches.items()}
        measured = [speed.measure(a, b) for a, b in windows]
        return {"wall_s": wall, "records": records, "cache": cache,
                "latencies": [own for own, _ in measured],
                "scaled": [scaled for _, scaled in measured],
                "kernel_s": [b - a for a, b in zip(speed.starts, speed.ends)]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only")
    parser.add_argument("--ops")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args()
    if args.setup_only:
        setup_only(args.setup_only)
        return 0

    sg = _import_specgraph()
    runner = Runner(sg, json.loads(Path(args.ops).read_text(encoding="utf-8")))
    tracer = Tracer() if args.trace else None
    plain, traced, layers = [], [], []
    first: list[dict] = []
    changed: list[str] = []
    started = time.perf_counter()
    while True:
        passes = [runner.run_pass(None)]
        plain.append(passes[0])
        if tracer is not None:
            passes.append(runner.run_pass(tracer))
            traced.append(passes[1])
            layers.append(checks.layer_metrics(tracer, passes[1]["cache"]))
            with open(args.spans, "a", encoding="utf-8") as fh:
                tracer.dump(fh)
            tracer.reset()
        for p in passes:
            # keep only the first pass's outputs, so memory does not grow per pass
            if not first:
                first = p["records"]
            else:
                changed += [op["id"] for op, rec, ref in zip(runner.ops, p["records"], first)
                            if rec != ref]
            del p["records"]
        per_round = (time.perf_counter() - started) / len(plain)
        if time.perf_counter() - started + per_round > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = checks.run_checks(sg, runner.ops, first)
    wrong = {f["op"] for f in failures}
    failures += [{"op": op_id, "problem": "output differs between passes"} for op_id in changed]
    n_passes = len(plain) + len(traced)
    failed = n_passes * sum(1 for op in runner.ops if op["id"] in wrong) + len(changed)
    result = {
        "attempted": len(runner.ops) * n_passes,
        "failed": failed,
        "ops": [{"id": op["id"], "graphs": op.get("graphs", []), "code": rec["code"],
                 "sha256": hashlib.sha256(checks.output_bytes(op, rec)).hexdigest()}
                for op, rec in zip(runner.ops, first)],
        "plain_walls": [p["wall_s"] for p in plain],
        "traced_walls": [p["wall_s"] for p in traced],
        "plain_latencies_ms": [[1000.0 * t for t in p["latencies"]] for p in plain],
        "plain_scaled_ms": [[1000.0 * t for t in p["scaled"]] for p in plain],
        "traced_scaled_ms": [[1000.0 * t for t in p["scaled"]] for p in traced],
        "kernel_s": [p["kernel_s"] for p in plain],
        "classes_per_pass": checks.classes(runner.ops, first),
        "cache": plain[0]["cache"],
        "layers": {k: statistics.median(m[k] for m in layers) for k in layers[0]} if layers else {},
        "peak_rss_mib": peak_rss_mib,
        "failures": failures,
        "warnings": [{"op": op["id"], "text": line[len("warning: "):]}
                     for op, rec in zip(runner.ops, first)
                     for line in rec["stderr"].splitlines() if line.startswith("warning: ")],
    }
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
