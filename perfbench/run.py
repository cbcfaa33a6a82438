"""specgraph benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload exact-keys --seed 1 --seconds 30 --trace 0

Run from the root of a specgraph checkout.  Inputs are generated from
the seed under .perfbench/, the set-up time is the median of fresh
processes that import specgraph and parse the inputs, and the op list
runs in one worker process (one client, closed loop, --jobs 1).  With
--trace 0 the last line carries the end-to-end metrics, with --trace 1
the per-layer metrics of traced passes.  Details of the run (inputs,
environment, per-op sizes and failures) go to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 170.0


def _environment(root: Path) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    import numpy
    return {"git_revision": rev, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg": Path("/proc/loadavg").read_text().split()[:3]}


def _op_sizes(ops: list[dict]) -> list[list[dict]]:
    """V and E after subdivision and secular matrix dimension of each op's graphs."""
    import oracles
    sizes: dict[str, dict] = {}
    for op in ops:
        for path in op["graphs"]:
            if path not in sizes:
                unit = oracles.read_graph(Path(path).read_text(encoding="utf-8")).subdivided()
                sizes[path] = {"V": unit.n, "E": len(unit.edges), "dim": 2 * len(unit.edges)}
    return [[sizes[path] for path in op["graphs"]] for op in ops]


def _op_list_seconds(passes: list[list[float]]) -> float:
    """Wall time of the op list: the sum over ops of each op's median latency.

    Per-op medians over the passes drop bursts of machine noise that hit
    one op in one pass, which a median of whole-pass times keeps.
    """
    return sum(statistics.median(times) for times in zip(*passes)) / 1000.0


def _setup_seconds(cmd: list[str], root: Path, env: dict) -> tuple[float, float]:
    """Wall time of one set-up process, raw and at reference machine speed.

    The calibration kernel is timed right before and right after it.
    """
    before = time.perf_counter()
    calibrate.kernel()
    start = time.perf_counter()
    raw = _run(cmd, root, env, 60)
    end = time.perf_counter()
    calibrate.kernel()
    kernel_s = (start - before + time.perf_counter() - end) / 2
    return raw, raw * calibrate.REFERENCE_S / kernel_s


def _run(cmd: list[str], root: Path, env: dict, timeout: float) -> float:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, timeout=timeout,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} failed:\n{proc.stderr[-2000:]}")
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "specgraph" / "__init__.py").is_file():
        print("error: run from the root of a specgraph checkout (src/specgraph missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    env_before = _environment(root)
    work = Path(".perfbench") / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    ops_path = workloads.generate(args.workload, args.seed, inputs)

    env = dict(os.environ, SPECGRAPH_JOBS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    worker = [sys.executable, str(HERE / "worker.py")]
    setup_times = [_setup_seconds(worker + ["--setup-only", str(inputs)], root, env)
                   for _ in range(SETUP_REPEATS)]
    result_path, spans_path = work / "worker.json", work / "spans.tsv"
    remaining = WORKER_TIMEOUT_S - (time.perf_counter() - started)
    _run(worker + ["--ops", str(ops_path), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(result_path),
                   "--spans", str(spans_path)], root, env, remaining)
    res = json.loads(result_path.read_text(encoding="utf-8"))

    lat = sorted(t for p in res["plain_scaled_ms"] for t in p)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    wall = _op_list_seconds(res["plain_scaled_ms"])
    raw_wall = _op_list_seconds(res["plain_latencies_ms"])
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics = dict(res["layers"])
        metrics["trace.overhead_ratio"] = _op_list_seconds(res["traced_scaled_ms"]) / wall
        units = {k: ("count" if k.endswith((".calls", ".points", ".max_dim")) else
                     "ratio" if k.endswith("ratio") else "s") for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(ref for _, ref in setup_times),
            "wall_ref_s": wall,
            "op_p50_ref_ms": statistics.median(lat),
            "op_p90_ref_ms": p90,
            "classes_per_ref_s": res["classes_per_pass"] / wall,
            "ok_ratio": 1.0 - failed / attempted,
            "peak_rss_mib": res["peak_rss_mib"],
        }
        units = {"setup_s": "s", "wall_ref_s": "s", "op_p50_ref_ms": "ms",
                 "op_p90_ref_ms": "ms", "classes_per_ref_s": "1/s", "ok_ratio": "ratio",
                 "peak_rss_mib": "MiB"}

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_before,
        "loadavg_after": Path("/proc/loadavg").read_text().split()[:3],
        "setup_times_s": [raw for raw, _ in setup_times], "plain_walls_s": res["plain_walls"],
        "unscaled_wall_s": raw_wall, "kernel_s": res["kernel_s"],
        "traced_walls_s": res["traced_walls"], "latency_samples": len(lat),
        "samples_beyond_p90": sum(1 for x in lat if x > p90),
        "cache": res["cache"], "failures": res["failures"], "warnings": res["warnings"],
        "ops": [dict(op, sizes=size) for op, size in zip(res["ops"], _op_sizes(res["ops"]))],
        "metrics": metrics,
    }
    results_dir = Path(".perfbench") / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    detail_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(details, indent=1), encoding="utf-8")

    print(f"# workload {args.workload} seed {args.seed}: {len(res['ops'])} ops per pass, "
          f"{len(res['plain_walls'])} untraced and {len(res['traced_walls'])} traced passes, "
          f"{len(lat)} latency samples ({details['samples_beyond_p90']} beyond p90)")
    kernel = statistics.median(k for p in res["kernel_s"] for k in p)
    print(f"# unscaled wall time of the op list {raw_wall:.4f} s; calibration kernel "
          f"{kernel * 1000:.2f} ms (reference {calibrate.REFERENCE_S * 1000:.2f} ms)")
    print(f"# environment: {json.dumps(env_before)}")
    for failure in res["failures"]:
        print(f"# FAIL {failure['op']}: {failure['problem']}")
    for warning in res["warnings"]:
        print(f"# WARN {warning['op']}: {warning['text']}")
    if args.trace:
        layers = sorted(((metrics[f"layer.{name}.self_s"], name) for name in LAYERS),
                        reverse=True)
        print("# top layers by self time: "
              + ", ".join(f"{name} {sec:.3f}s" for sec, name in layers[:3]))
    print(f"# details: {detail_path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
