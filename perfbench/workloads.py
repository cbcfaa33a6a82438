"""Seeded inputs and op lists of the three workloads.

An op is a dict with an `id`, either `argv` (run through
`specgraph.cli.run`) or `call` plus `args` (a public library function),
the graph files it reads (`graphs`), a `check` naming its oracle, and
`fixed` when its inputs do not depend on the seed, so its output must
match the reference recorded at the parent commit byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

WORKLOADS = ("exact-keys", "search", "steklov")

EXACT_CATALOG = ("K5", "K6", "Gamma1", "Gamma2", "Gamma1p", "Gamma2p", "C6", "C8")
EXACT_PAIRS = (("Gamma1", "Gamma2", True), ("Gamma1p", "Gamma2p", True),
               ("K5", "Gamma1", False), ("C6", "C8", False),
               ("grid3x3", "grid3x4", False))
# (vertices, edges, edges of length 2, edges of length 3) of the seeded
# random multigraphs; unit edges after subdivision run from 5 to 29.
EXACT_RANDOM = ((4, 5, 0, 0), (5, 6, 1, 0), (5, 7, 1, 0), (6, 8, 0, 1),
                (7, 10, 1, 0), (7, 11, 1, 1), (8, 13, 1, 1), (9, 15, 2, 1),
                (10, 18, 2, 1), (13, 26, 1, 1))
# random graphs up to this many unit edges are also compared in all modes
EXACT_COMPARE_UNITS = 15

STEKLOV_CATALOG = ("Gamma1", "Gamma2", "Q1", "Q2", "fig6_cycle", "fig6_eight")
# (vertices, edges, edges of length 2, contacts) of the seeded random
# graphs with contacts
STEKLOV_RANDOM = ((3, 4, 1, 1), (3, 5, 0, 2), (4, 5, 1, 2), (4, 6, 1, 3), (5, 6, 1, 2),
                  (5, 7, 2, 3), (6, 7, 1, 3), (6, 8, 2, 4), (7, 8, 1, 3), (7, 9, 2, 4))
STEKLOV_KMAX = "12.6"
STEKLOV_SWEEP = ("--lmin", "-5", "--lmax", "60", "--steps", "240")
MFUN_LAMBDA = -2.0

SEARCH_OPS = (("search-secular-6", ["search", "--vertices", "6", "--key", "secular"]),
              ("search-ln-6", ["search", "--vertices", "6", "--key", "ln"]),
              ("search-multi-4-7", ["search", "--multi", "--vertices", "4",
                                    "--max-edges", "7", "--key", "secular"]))

CLARIFY_BLOCKS = {
    "edge": "graph edge\nvertex a contact\nvertex b contact\nedge a b\n",
    "loop": "graph loop\nvertex a contact\nedge a a\n",
    "pendant": "graph pendant\nvertex a contact\nvertex b\nedge a b\n",
}
EXCHANGE_FRAME = ("graph frame\nvertex a contact\nvertex b contact\nvertex c\n"
                  "vertex d contact\nedge a b\nedge b c\nedge c d\n")


def graph_text(name: str, n: int, edges, contacts=()) -> str:
    lines = [f"graph {name}"]
    lines += [f"vertex v{v}" + (" contact" if v in contacts else "")
              for v in sorted(contacts)]
    lines += [f"vertex v{v}" for v in range(n) if v not in contacts]
    for u, v, length in edges:
        lines.append(f"edge v{u} v{v}" + ("" if length == 1 else f" {length}"))
    return "\n".join(lines) + "\n"


def grid_text(rows: int, cols: int) -> str:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1, 1))
            if r + 1 < rows:
                edges.append((v, v + cols, 1))
    return graph_text(f"grid{rows}x{cols}", rows * cols, edges)


def random_multigraph(rng: random.Random, n: int, m: int, n2: int = 0, n3: int = 0):
    """Random connected multigraph with a fixed near-regular degree sequence.

    Stubs are paired at random (loops and parallel edges allowed) until
    the result is connected; n2 edges get length 2 and n3 length 3.  The
    sizes and degrees, which set the cost of the exact kernels, depend
    only on the arguments, so that seeds differ in structure alone.
    """
    stubs = [v for v in range(n) for _ in range(2 * m // n + (v < 2 * m % n))]
    while True:
        rng.shuffle(stubs)
        edges = [[stubs[i], stubs[i + 1], 1] for i in range(0, 2 * m, 2)]
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v, _ in edges:
            parent[find(u)] = find(v)
        if len({find(v) for v in range(n)}) == 1:
            break
    long_edges = rng.sample(range(m), n2 + n3)
    for i in long_edges[:n2]:
        edges[i][2] = 2
    for i in long_edges[n2:]:
        edges[i][2] = 3
    return [tuple(e) for e in edges]


def subdivide(n: int, edges):
    out = []
    for u, v, length in edges:
        prev = u
        for _ in range(length - 1):
            out.append((prev, n, 1))
            prev, n = n, n + 1
        out.append((prev, v, 1))
    return n, out


def relabel(rng: random.Random, n: int, edges, contacts=()):
    """Isomorphic copy: vertices permuted (contact order kept), edges reordered."""
    perm = list(range(n))
    rng.shuffle(perm)
    new_edges = [(perm[v], perm[u], l) if rng.random() < 0.5 else (perm[u], perm[v], l)
                 for u, v, l in edges]
    rng.shuffle(new_edges)
    return new_edges, [perm[c] for c in contacts]


def _catalog_text(name: str) -> str:
    from specgraph import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if cli.run(["catalog", name]) != 0:
            raise RuntimeError(f"catalog {name} failed")
    return buf.getvalue()


class _Inputs:
    def __init__(self, root: Path) -> None:
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = self.root / f"{name}.g"
        path.write_text(text, encoding="utf-8")
        return str(path)


def _compare_ops(prefix, f1, f2, expect_iso, fixed):
    ops = []
    for mode in ("metric", "discrete", "proposition"):
        ops.append({"id": f"{prefix}/compare-{mode}", "argv": ["compare", f1, f2, "--mode", mode],
                    "graphs": [f1, f2], "fixed": fixed,
                    "check": {"kind": f"compare-{mode}", "pair": prefix, "iso": expect_iso}})
    return ops


def exact_keys(inputs: _Inputs, rng: random.Random) -> list[dict]:
    files = {name: inputs.write(name, _catalog_text(name)) for name in EXACT_CATALOG}
    files["grid3x3"] = inputs.write("grid3x3", grid_text(3, 3))
    files["grid3x4"] = inputs.write("grid3x4", grid_text(3, 4))
    ops = []
    for name, path in files.items():
        for verb in ("secular", "spectrum"):
            ops.append({"id": f"{verb}/{name}", "argv": [verb, path], "graphs": [path],
                        "fixed": True, "check": {"kind": verb}, "classes": verb == "secular"})
    for a, b, iso in EXACT_PAIRS:
        ops += _compare_ops(f"{a}~{b}", files[a], files[b], iso, True)
    blocks = {k: inputs.write(f"block_{k}", v) for k, v in CLARIFY_BLOCKS.items()}
    out1, out2 = str(inputs.root / "clarify_1.g"), str(inputs.root / "clarify_2.g")
    ops.append({"id": "construct-clarify", "fixed": True, "graphs": [], "outputs": [out1, out2],
                "argv": ["construct", "clarify"]
                + [arg for k in "abcd" for arg in (f"--block-{k}", blocks["edge"])]
                + ["--block-e", blocks["loop"], "--block-f", blocks["pendant"],
                   "--out1", out1, "--out2", out2],
                "check": {"kind": "clarify"}})
    ops += _compare_ops("clarify", out1, out2, True, True)

    randoms = []
    for i, (n, m, n2, n3) in enumerate(EXACT_RANDOM):
        edges = random_multigraph(rng, n, m, n2, n3)
        path = inputs.write(f"r{i}", graph_text(f"r{i}", n, edges))
        units = m + n2 + 2 * n3
        randoms.append((path, n, edges, units))
        for verb in ("secular", "spectrum"):
            ops.append({"id": f"{verb}/r{i}", "argv": [verb, path], "graphs": [path],
                        "fixed": False, "check": {"kind": verb}, "classes": verb == "secular"})
    small = [r for r in randoms if r[3] <= EXACT_COMPARE_UNITS]
    unit_files = []
    for i, (_, n, edges, _) in enumerate(small):
        nu, unit_edges = subdivide(n, edges)
        unit_files.append(inputs.write(f"r{i}u", graph_text(f"r{i}u", nu, unit_edges)))
        copy, _ = relabel(rng, nu, unit_edges)
        twin = inputs.write(f"r{i}t", graph_text(f"r{i}t", nu, copy))
        ops += _compare_ops(f"r{i}u~r{i}t", unit_files[-1], twin, True, False)
    for i in range(len(unit_files) - 1):
        ops += _compare_ops(f"r{i}u~r{i + 1}u", unit_files[i], unit_files[i + 1], None, False)
    return ops


def search(inputs: _Inputs, rng: random.Random) -> list[dict]:
    gammas = {name: inputs.write(name, _catalog_text(name)) for name in ("Gamma1", "Gamma2")}
    ops = [{"id": op_id, "argv": argv, "graphs": [], "fixed": True,
            "check": {"kind": op_id, "shadows": list(gammas.values())}}
           for op_id, argv in SEARCH_OPS]
    rng.shuffle(ops)
    return ops


def steklov(inputs: _Inputs, rng: random.Random) -> list[dict]:
    files = {name: (inputs.write(name, _catalog_text(name)), True) for name in STEKLOV_CATALOG}
    ops = []
    for i, (n, m, n2, n_contacts) in enumerate(STEKLOV_RANDOM):
        edges = random_multigraph(rng, n, m, n2)
        contacts = sorted(rng.sample(range(n), n_contacts))
        files[f"s{i}"] = (inputs.write(f"s{i}", graph_text(f"s{i}", n, edges, contacts)), False)
        copy, copy_contacts = relabel(rng, n, edges, contacts)
        # graph_text lists contacts in increasing id order, so keep that order
        order = sorted(range(len(copy_contacts)), key=lambda j: copy_contacts[j])
        twin = inputs.write(f"s{i}t", graph_text(f"s{i}t", n, copy, copy_contacts))
        ops.append({"id": f"steklov_equivalent/s{i}~s{i}t", "call": "steklov_equivalent",
                    "args": [files[f"s{i}"][0], twin, [[j, order.index(j)] for j in range(len(order))]],
                    "graphs": [files[f"s{i}"][0], twin], "fixed": False,
                    "check": {"kind": "equivalent", "expect": True}})
    for name, (path, fixed) in files.items():
        ops.append({"id": f"detect/{name}", "argv": ["detect", path, "--kmax", STEKLOV_KMAX],
                    "graphs": [path], "fixed": fixed, "check": {"kind": "detect"},
                    "classes": True})
        ops.append({"id": f"sweep/{name}", "argv": ["sweep", path, *STEKLOV_SWEEP],
                    "graphs": [path], "fixed": fixed, "check": {"kind": "sweep"}})
        ops.append({"id": f"mfun/{name}", "argv": ["mfun", path, "--lambda", str(MFUN_LAMBDA)],
                    "graphs": [path], "fixed": fixed,
                    "check": {"kind": "mfun", "lambda": MFUN_LAMBDA}})
        ops.append({"id": f"invisible/{name}", "call": "invisible_multiplicity",
                    "args": [path], "graphs": [path], "fixed": fixed,
                    "check": {"kind": "invisible"}})
    cycle, eight = files["fig6_cycle"][0], files["fig6_eight"][0]
    ops.append({"id": "steklov_equivalent/fig6", "call": "steklov_equivalent",
                "args": [cycle, eight, None], "graphs": [cycle, eight], "fixed": True,
                "check": {"kind": "equivalent", "expect": True}})
    ops.append({"id": "steklov_equivalent/Q1~Q2", "call": "steklov_equivalent",
                "args": [files["Q1"][0], files["Q2"][0], None],
                "graphs": [files["Q1"][0], files["Q2"][0]], "fixed": True,
                "check": {"kind": "equivalent", "expect": False}})
    ops.append({"id": "inner_symmetry_quotient/fig6", "call": "inner_symmetry_quotient",
                "args": [cycle, [[0, 1], [1, 1]]], "graphs": [cycle], "fixed": True,
                "check": {"kind": "quotient", "expect": eight}})
    frame = inputs.write("frame", EXCHANGE_FRAME)
    for swap in ("0,1", "0,0"):
        ops.append({"id": f"construct-exchange/{swap}", "fixed": True,
                    "graphs": [frame, cycle, eight],
                    "argv": ["construct", "exchange", "--frame", frame,
                             "--slot", f"{cycle}@0:0,1:1", "--slot", f"{eight}@0:1,1:2",
                             "--swap", swap],
                    "check": {"kind": "exchange"}})
    return ops


BUILDERS = {"exact-keys": exact_keys, "search": search, "steklov": steklov}


def generate(workload: str, seed: int, root: Path) -> Path:
    """Write the workload's inputs under root and return the op-list file."""
    inputs = _Inputs(root)
    ops = BUILDERS[workload](inputs, random.Random(f"{workload}:{seed}"))
    path = root / "ops.json"
    path.write_text(json.dumps(ops, indent=1), encoding="utf-8")
    return path

