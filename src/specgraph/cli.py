"""Command-line interface.

Exit codes: 0 success (or affirmative comparison), 1 negative comparison
or failed validation, 2 usage or computation error.  Exact results print
as integers; floating-point output uses 12 significant digits so repeated
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

import numpy as np

from .constructions import (CATALOG_IDS, ComposedHost, Slot,
                            build_clarifying_example, catalog, method2_exchange)
from .discrete import ln_charpoly, proposition_check
from .exact import ExactError
from .graphs import (GraphError, MetricGraph, chop_vertex, format_graph, glue,
                     parse_graph, to_discrete, validate)
from .mfunction import detectable_spectrum, m_function, steklov_sweep
from .search import classify, enumerate_connected_multi, enumerate_connected_simple
from .secular import metric_isospectral, secular_poly, spectrum_report


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load(path: str) -> MetricGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for item in text.split(","):
        a, _, b = item.partition(":")
        pairs.append((int(a), int(b)))
    return pairs


def _env_jobs() -> int:
    text = os.environ.get("SPECGRAPH_JOBS", "1")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"SPECGRAPH_JOBS must be an integer, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specgraph",
        description="exact and numeric spectral computation for metric graphs")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("secular", help="exact secular polynomial of a graph file")
    p.add_argument("file")

    p = sub.add_parser("spectrum", help="fundamental roots with multiplicities")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("compare", help="decide isospectrality of two graphs")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--mode", choices=("metric", "discrete", "proposition"),
                   default="metric")

    p = sub.add_parser("mfun", help="M-function matrix at one lambda")
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam", type=float, required=True)

    p = sub.add_parser("sweep", help="Steklov branch sweep to CSV")
    p.add_argument("file")
    p.add_argument("--lmin", type=float, required=True)
    p.add_argument("--lmax", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("detect", help="detectable eigenvalues from M-function zeros")
    p.add_argument("file")
    p.add_argument("--kmax", type=float, required=True)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("search", help="enumerate small graphs and classify spectra")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--multi", action="store_true")
    p.add_argument("--max-edges", type=int, default=8)
    p.add_argument("--key", choices=("secular", "ln"), default="secular")
    p.add_argument("--jobs", type=int, default=_env_jobs())
    p.add_argument("--out", default=None)

    p = sub.add_parser("catalog", help="emit a named catalog graph")
    p.add_argument("id", metavar="id", help=f"one of: {', '.join(CATALOG_IDS)}")

    p = sub.add_parser("validate", help="check a graph file's invariants")
    p.add_argument("file")

    p = sub.add_parser("construct", help="graph surgery and builders")
    csub = p.add_subparsers(dest="op", required=True)

    c = csub.add_parser("chop", help="split a vertex into parts")
    c.add_argument("file")
    c.add_argument("--vertex", type=int, required=True)
    c.add_argument("--parts", required=True,
                   help="partition of the vertex's endpoint slots, e.g. '0,1|2,3'")
    c.add_argument("--out", default=None)

    c = csub.add_parser("glue", help="glue two graphs on paired contacts")
    c.add_argument("file1")
    c.add_argument("file2")
    c.add_argument("--pairing", required=True,
                   help="contact position pairs, e.g. '0:0,1:1'")
    c.add_argument("--out", default=None)

    c = csub.add_parser("exchange", help="swap two Steklov-equivalent slots")
    c.add_argument("--frame", required=True)
    c.add_argument("--slot", action="append", required=True, metavar="FILE@SP:FP,...",
                   help="slot graph file with contact attachments")
    c.add_argument("--swap", required=True, help="two slot indices, e.g. '0,1'")
    c.add_argument("--out", default=None)

    c = csub.add_parser("clarify", help="build the star-splitting isospectral pair")
    for name in ("a", "b", "c", "d", "e", "f"):
        c.add_argument(f"--block-{name}", required=True)
    c.add_argument("--splits", default="2,3|1,4")
    c.add_argument("--out1", default=None)
    c.add_argument("--out2", default=None)

    return parser


def _cmd_secular(args: argparse.Namespace) -> int:
    print(secular_poly(_load(args.file)).line())
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    report = spectrum_report(_load(args.file), args.tol)
    for k, mult in report.fundamental_roots:
        print(f"{_fmt(k)} {mult}")
    print(f"lambda0_multiplicity {report.components}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    g1, g2 = _load(args.file1), _load(args.file2)
    if args.mode == "metric":
        if metric_isospectral(g1, g2):
            print("isospectral")
            print(secular_poly(g1).line())
            return 0
        print("not isospectral")
        print(secular_poly(g1).line())
        print(secular_poly(g2).line())
        return 1
    if args.mode == "discrete":
        c1 = ln_charpoly(to_discrete(g1))
        c2 = ln_charpoly(to_discrete(g2))
        same = c1 == c2
        print("ln-isospectral" if same else "not ln-isospectral")
        print("lncp1: " + " ".join(str(c) for c in c1.coeffs))
        print("lncp2: " + " ".join(str(c) for c in c2.coeffs))
        return 0 if same else 1
    report = proposition_check(g1, g2)
    print(report.verdict)
    print(f"betti {report.betti1} {report.betti2}")
    print("lncp1: " + " ".join(str(c) for c in report.charpoly1.coeffs))
    print("lncp2: " + " ".join(str(c) for c in report.charpoly2.coeffs))
    return 0 if report.isospectral else 1


def _cmd_mfun(args: argparse.Namespace) -> int:
    ev = m_function(_load(args.file), args.lam)
    if not ev.regular:
        print(f"singular lambda {_fmt(args.lam)}")
        return 0
    for row in ev.matrix:
        print(" ".join(_fmt(x) for x in row))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    g = _load(args.file)
    curve = steklov_sweep(g, args.lmin, args.lmax, args.steps)
    b = len(g.contacts)
    lines = ["lambda,regular," + ",".join(f"mu_{i + 1}" for i in range(b)) + ",det"]
    for lam, branches in zip(curve.grid, curve.branches):
        if branches is None:
            lines.append(f"{_fmt(lam)},0," + "," * b)
        else:
            det = float(np.prod(branches))
            lines.append(f"{_fmt(lam)},1,"
                         + ",".join(_fmt(x) for x in branches)
                         + f",{_fmt(det)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    result = detectable_spectrum(_load(args.file), args.kmax,
                                 grid_step=args.step, refine_tol=args.tol)
    for k, mult in result.points:
        print(f"{_fmt(k)} {mult}")
    for note in result.warnings:
        print(f"# warning: {note}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if args.multi:
        graphs = list(enumerate_connected_multi(args.vertices, args.max_edges))
    else:
        graphs = list(enumerate_connected_simple(args.vertices))
    families = classify(graphs, args.key, jobs=max(args.jobs, 1))
    lines = [f"graphs {len(graphs)}", f"families {len(families)}"]
    for i, fam in enumerate(families, start=1):
        lines.append(f"family {i} size {fam.size}")
        lines.append(f"  key {fam.key}")
        for canon, bet, comp in zip(fam.members, fam.betti, fam.components):
            lines.append(f"  member {canon.hex()} betti {bet} components {comp}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    sys.stdout.write(format_graph(catalog(args.id), name=args.id))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    problems = validate(_load(args.file))
    if not problems:
        print("ok")
        return 0
    for problem in problems:
        print(problem)
    return 1


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.op == "chop":
        g = _load(args.file)
        if not 0 <= args.vertex < g.n_vertices:
            raise GraphError(f"vertex {args.vertex} out of range 0..{g.n_vertices - 1}")
        cls = g.vertices[args.vertex]
        parts = []
        for chunk in args.parts.split("|"):
            slots = [int(i) for i in chunk.split(",")]
            if any(not 0 <= i < len(cls) for i in slots):
                raise GraphError(f"slot index out of range 0..{len(cls) - 1} "
                                 f"at vertex {args.vertex}")
            parts.append([cls[i] for i in slots])
        _emit(format_graph(chop_vertex(g, args.vertex, parts), "chopped"), args.out)
        return 0
    if args.op == "glue":
        result = glue(_load(args.file1), _load(args.file2),
                      _parse_pairs(args.pairing))
        _emit(format_graph(result, "glued"), args.out)
        return 0
    if args.op == "exchange":
        slots = []
        for spec_text in args.slot:
            path, _, attach = spec_text.partition("@")
            slots.append(Slot(_load(path), tuple(_parse_pairs(attach))))
        host = ComposedHost(_load(args.frame), tuple(slots))
        i, j = (int(x) for x in args.swap.split(","))
        _emit(format_graph(method2_exchange(host, i, j), "exchanged"), args.out)
        return 0
    if args.op == "clarify":
        blocks = [_load(getattr(args, f"block_{name}")) for name in "abcdef"]
        split_parts = []
        for chunk in args.splits.split("|"):
            a, b = (int(x) for x in chunk.split(","))
            split_parts.append((a, b))
        if len(split_parts) != 2:
            raise GraphError("need exactly two splits, e.g. '2,3|1,4'")
        g1, g2 = build_clarifying_example(*blocks, splits=tuple(split_parts))
        _emit(format_graph(g1, "clarify_1"), args.out1)
        _emit(format_graph(g2, "clarify_2"), args.out2)
        return 0
    raise GraphError(f"unknown construct op {args.op!r}")


_COMMANDS = {
    "secular": _cmd_secular,
    "spectrum": _cmd_spectrum,
    "compare": _cmd_compare,
    "mfun": _cmd_mfun,
    "sweep": _cmd_sweep,
    "detect": _cmd_detect,
    "search": _cmd_search,
    "catalog": _cmd_catalog,
    "validate": _cmd_validate,
    "construct": _cmd_construct,
}


def run(argv: Sequence[str]) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.verb](args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (GraphError, ExactError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
