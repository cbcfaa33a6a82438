"""Command-line interface.

Exit codes: 0 success (or affirmative comparison), 1 negative comparison,
2 usage or computation error, an invalid graph file included.  Exact
results print as integers; floating-point output uses 12 significant
digits so repeated runs are byte-identical.

`run` builds the argparse parser on its first call and reuses it for every
later call in the process.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import Sequence

from . import search
from .constructions import (CATALOG_IDS, ComposedHost, Slot,
                            build_clarifying_example, catalog, method2_exchange)
from .discrete import ln_charpoly, proposition_check
from .graphs import (GraphError, MetricGraph, chop_vertex, format_graph, glue,
                     parse_graph, to_discrete)
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


def _bad_option(option: str, form: str, text: str) -> GraphError:
    return GraphError(f"{option} expects {form}, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specgraph",
        description="exact and numeric spectral computation for metric graphs")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("secular", help="exact secular polynomial of a graph file")
    p.add_argument("file")

    p = sub.add_parser("spectrum", help="fundamental roots with multiplicities")
    p.add_argument("file")

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
    # None: detectable_spectrum reads DETECT_GRID_STEP and DETECT_REFINE_TOL
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("search", help="enumerate small graphs and classify spectra")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--multi", action="store_true")
    p.add_argument("--max-edges", type=int, default=None)
    p.add_argument("--key", choices=("secular", "ln"), default="secular")
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
    report = spectrum_report(_load(args.file))
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
        print(c1.line("lncp1"))
        print(c2.line("lncp2"))
        return 0 if same else 1
    report = proposition_check(g1, g2)
    print(report.verdict)
    print(f"betti {report.betti1} {report.betti2}")
    print(report.charpoly1.line("lncp1"))
    print(report.charpoly2.line("lncp2"))
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
    # "%.12g" formats a float as _fmt does; one pattern formats a whole row
    singular_row = "%.12g,0," + "," * b
    regular_row = "%.12g,1," + ",".join(["%.12g"] * (b + 1))
    for lam, branches in zip(curve.grid, curve.branches):
        if branches is None:
            lines.append(singular_row % lam)
        else:
            lines.append(regular_row % (lam, *branches, math.prod(branches)))
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
    if args.max_edges is not None and not args.multi:
        raise GraphError("--max-edges applies only with --multi")
    if args.multi:
        m_max = search.MULTI_EDGE_BOUND if args.max_edges is None else args.max_edges
        graphs = list(enumerate_connected_multi(args.vertices, m_max))
    else:
        graphs = list(enumerate_connected_simple(args.vertices))
    families = classify(graphs, args.key)
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
    _load(args.file)
    print("ok")
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.op == "chop":
        g = _load(args.file)
        if not 0 <= args.vertex < g.n_vertices:
            raise GraphError(f"vertex {args.vertex} out of range 0..{g.n_vertices - 1}")
        cls = g.vertices[args.vertex]
        try:
            chunks = [[int(i) for i in chunk.split(",")] for chunk in args.parts.split("|")]
        except ValueError:
            raise _bad_option("--parts", "slot index lists like '0,1|2,3'", args.parts) from None
        parts = []
        for slots in chunks:
            if any(not 0 <= i < len(cls) for i in slots):
                raise GraphError(f"slot index out of range 0..{len(cls) - 1} "
                                 f"at vertex {args.vertex}")
            parts.append([cls[i] for i in slots])
        _emit(format_graph(chop_vertex(g, args.vertex, parts), "chopped"), args.out)
        return 0
    if args.op == "glue":
        try:
            pairing = _parse_pairs(args.pairing)
        except ValueError:
            raise _bad_option("--pairing", "position pairs like '0:0,1:1'",
                              args.pairing) from None
        result = glue(_load(args.file1), _load(args.file2), pairing)
        _emit(format_graph(result, "glued"), args.out)
        return 0
    if args.op == "exchange":
        slots = []
        for spec_text in args.slot:
            path, _, attach = spec_text.partition("@")
            try:
                pairs = _parse_pairs(attach)
            except ValueError:
                raise _bad_option("--slot", "FILE@SP:FP,... like 'slot.g@0:0,1:1'",
                                  spec_text) from None
            slots.append(Slot(_load(path), tuple(pairs)))
        host = ComposedHost(_load(args.frame), tuple(slots))
        try:
            i, j = (int(x) for x in args.swap.split(","))
        except ValueError:
            raise _bad_option("--swap", "two slot indices like '0,1'", args.swap) from None
        _emit(format_graph(method2_exchange(host, i, j), "exchanged"), args.out)
        return 0
    # "clarify", the last op: argparse admits no other
    blocks = [_load(getattr(args, f"block_{name}")) for name in "abcdef"]
    try:
        (a, b), (c, d) = (map(int, chunk.split(",")) for chunk in args.splits.split("|"))
    except ValueError:
        raise _bad_option("--splits", "two slot pairs like '2,3|1,4'", args.splits) from None
    g1, g2 = build_clarifying_example(*blocks, splits=((a, b), (c, d)))
    _emit(format_graph(g1, "clarify_1"), args.out1)
    _emit(format_graph(g2, "clarify_2"), args.out2)
    return 0


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


_PARSER: argparse.ArgumentParser | None = None

#: the float options of each verb, and a negative float in decimal or
#: exponent form: argparse reads a token that starts with '-' as an option
#: name unless it has the form -N or -N.N, so '--lambda -1e-3' would fail
_FLOAT_OPTIONS = {"mfun": ("--lambda",), "sweep": ("--lmin", "--lmax"),
                  "detect": ("--kmax", "--step", "--tol")}
_NEGATIVE_FLOAT = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """argv with each float option of its verb joined to a negative value
    after it, as in --lambda=-1e-3, which argparse reads as it reads
    '--lambda -0.001'.  An option may be abbreviated to a prefix that
    names one float option of the verb (--lam), as argparse allows; an
    ambiguous prefix (--l for --lmin and --lmax) is left for argparse to
    refuse, and so is '--', which ends the options."""
    out = list(argv)
    options = _FLOAT_OPTIONS.get(out[0], ()) if out else ()
    i = 1
    while i + 1 < len(out):
        if (len(out[i]) > 2 and sum(o.startswith(out[i]) for o in options) == 1
                and _NEGATIVE_FLOAT.fullmatch(out[i + 1])):
            out[i:i + 2] = [f"{out[i]}={out[i + 1]}"]
        i += 1
    return out


def run(argv: Sequence[str]) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    global _PARSER
    try:
        if _PARSER is None:
            _PARSER = _build_parser()
        args = _PARSER.parse_args(_join_negative_values(argv))
        return _COMMANDS[args.verb](args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
