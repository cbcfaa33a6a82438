import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specgraph
from specgraph import cli, format_graph, from_edge_list, parse_graph, secular_poly
from specgraph.cli import run
from specgraph.constructions import CATALOG_IDS, catalog


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicVerbs:
    def test_secular_round_trip(self, tmp_path, capsys):
        code, out, _ = invoke(capsys, "catalog", "Gamma1")
        assert code == 0
        path = tmp_path / "gamma1.g"
        path.write_text(out)
        code, out, _ = invoke(capsys, "secular", str(path))
        assert code == 0
        assert out.strip() == secular_poly(catalog("Gamma1")).line()

    def test_catalog_output_parses(self, capsys):
        code, out, _ = invoke(capsys, "catalog", "watermelon_stick_unit")
        assert code == 0
        assert parse_graph(out) == catalog("watermelon_stick_unit")

    def test_spectrum(self, tmp_path, capsys):
        path = tmp_path / "k5.g"
        _, out, _ = invoke(capsys, "catalog", "K5")
        path.write_text(out)
        code, out, _ = invoke(capsys, "spectrum", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "lambda0_multiplicity 1"
        ks = [line.split() for line in lines[:-1]]
        assert [m for _, m in ks] == ["4", "5", "4", "7"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "1e-8"])
    def test_spectrum_bad_tolerance_exits_2(self, tmp_path, capsys, tol):
        # spectrum has no --tol option (secular.UNIT_CIRCLE_TOL is fixed), so
        # every value, the old default included, is a usage error
        path = tmp_path / "k5.g"
        _, out, _ = invoke(capsys, "catalog", "K5")
        path.write_text(out)
        code, out, err = invoke(capsys, "spectrum", str(path), "--tol", tol)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: --tol {tol}" in err

    def test_catalog_ids_exact(self, capsys):
        # the listed ids print the bytes they printed when the ids were
        # parsed with int(); near-misses that int() accepted are unknown
        outputs = []
        for name in CATALOG_IDS:
            code, out, _ = invoke(capsys, "catalog", name)
            assert code == 0
            outputs.append(out)
        digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
        assert digest == "95a8225b38804ad21e73db43c9aabe2dfbf8ad049a2edc482347a8b92cfe1f4a"
        for name in ("K02", "K 3", "C+1", "S\uff11", "path_\u0663", "K9", "k5"):
            code, out, err = invoke(capsys, "catalog", name)
            assert code == 2 and out == ""
            assert f"unknown catalog id {name!r}" in err

    def test_validate_ok_and_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "e.g"
        path.write_text("graph e\nvertex a contact\nvertex b\nedge a b\n")
        code, out, _ = invoke(capsys, "validate", str(path))
        assert code == 0 and out.strip() == "ok"

    def test_validate_invalid_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "z.g"
        path.write_text("graph z\nvertex a\nvertex b\nedge a b 0\n")
        code, out, err = invoke(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert "line 4: bad length" in err

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "secular", "no_such_file.g")
        assert code == 2
        assert "error:" in err

    def test_malformed_file_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.g"
        path.write_text("graph g\nvertex a\nedge a zz\n")
        code, _, err = invoke(capsys, "secular", str(path))
        assert code == 2
        assert "line 3" in err

    def test_unknown_flag_rejected(self, capsys):
        assert invoke(capsys, "secular", "x.g", "--frobnicate")[0] == 2

    def test_subdivision_budget_exits_2(self, tmp_path, capsys):
        # the budget check runs before any unit edge is built
        path = tmp_path / "long.g"
        path.write_text("graph long\nvertex a\nvertex b\nedge a b 1000000000\n")
        code, out, err = invoke(capsys, "secular", str(path))
        assert code == 2 and out == ""
        assert "1000000000 unit edges, above the budget of 10000" in err

    def test_exact_vertex_bound_exits_2(self, tmp_path, capsys):
        # 5000 unit edges pass the subdivision budget, but the exact keys
        # are refused before the 5001 x 5001 adjacency matrix is built
        path = tmp_path / "long.g"
        path.write_text("graph long\nvertex a\nvertex b\nedge a b 5000\n")
        for verb in ("secular", "spectrum"):
            code, out, err = invoke(capsys, verb, str(path))
            assert code == 2 and out == ""
            assert "5001 vertices, above the bound of 120" in err

    def test_unit_edge_budget_covers_unit_inputs(self, tmp_path, capsys, monkeypatch):
        # six parallel unit edges need no subdivision, but are counted too
        path = tmp_path / "six.g"
        path.write_text("graph six\nvertex a\nvertex b\n" + "edge a b\n" * 6)
        monkeypatch.setattr(specgraph.graphs, "MAX_UNIT_EDGES", 5)
        for verb in ("secular", "spectrum"):
            code, out, err = invoke(capsys, verb, str(path))
            assert code == 2 and out == ""
            assert "6 unit edges, above the budget of 5" in err


class TestCompare:
    @pytest.fixture(autouse=True)
    def pair(self, tmp_path, capsys):
        for name in ("Gamma1", "Gamma2", "K5"):
            _, out, _ = invoke(capsys, "catalog", name)
            (tmp_path / f"{name}.g").write_text(out)
        self.dir = tmp_path

    def test_metric_affirmative(self, capsys):
        code, out, _ = invoke(capsys, "compare", str(self.dir / "Gamma1.g"),
                              str(self.dir / "Gamma2.g"), "--mode", "metric")
        assert code == 0
        assert out.splitlines()[0] == "isospectral"
        assert out.splitlines()[1].startswith("poly:")

    def test_metric_negative(self, capsys):
        code, out, _ = invoke(capsys, "compare", str(self.dir / "K5.g"),
                              str(self.dir / "Gamma1.g"), "--mode", "metric")
        assert code == 1

    def test_proposition_mode(self, capsys):
        code, out, _ = invoke(capsys, "compare", str(self.dir / "Gamma1.g"),
                              str(self.dir / "Gamma2.g"), "--mode", "proposition")
        assert code == 0
        assert out.splitlines()[0] == "metric-isospectral"
        assert "betti 5 5" in out

    def test_discrete_mode(self, capsys):
        code, out, _ = invoke(capsys, "compare", str(self.dir / "Gamma1.g"),
                              str(self.dir / "Gamma2.g"), "--mode", "discrete")
        assert code == 0 and out.splitlines()[0] == "ln-isospectral"


class TestNumericVerbs:
    def test_mfun_matrix(self, tmp_path, capsys):
        path = tmp_path / "k4.g"
        _, out, _ = invoke(capsys, "catalog", "K4")
        path.write_text(out)
        code, out, _ = invoke(capsys, "mfun", str(path), "--lambda", "-1.0")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        assert len(rows) == 4 and all(len(r) == 4 for r in rows)
        assert rows[0][0] == rows[1][1] == rows[2][2]

    def test_singular_lambda_printed(self, tmp_path, capsys):
        # (pi/2)^2: S3 has an interior Dirichlet pole at k = pi/2, so M
        # does not exist there; mfun says so and still exits 0
        path = tmp_path / "s3.g"
        path.write_text(invoke(capsys, "catalog", "S3")[1])
        assert invoke(capsys, "mfun", str(path), "--lambda", "2.4674011002723395") == (
            0, "singular lambda 2.46740110027\n", "")
        # the middle sample, lambda = pi^2, sits on the edge pole k = pi of
        # the unit edges and prints an empty row
        code, out, _ = invoke(capsys, "sweep", str(path), "--lmin", "0",
                              "--lmax", "19.739208802178716", "--steps", "3")
        assert code == 0
        assert out.splitlines() == [
            "lambda,regular,mu_1,mu_2,mu_3,det",
            "0,1,-1,-1,-1.38777878078e-16,-1.38777878078e-16",
            "9.86960440109,0,,,,",
            "19.7392088022,1,-1.2272416308,-1.2272416308,16.0842073042,24.2247788011"]

    def test_sweep_deterministic(self, tmp_path, capsys):
        path = tmp_path / "k4.g"
        _, out, _ = invoke(capsys, "catalog", "K4")
        path.write_text(out)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for target in (out1, out2):
            code, _, _ = invoke(capsys, "sweep", str(path), "--lmin", "-5",
                                "--lmax", "-0.5", "--steps", "40",
                                "--out", str(target))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "lambda,regular,mu_1,mu_2,mu_3,mu_4,det"

    def test_negative_values_in_exponent_form(self, tmp_path, capsys):
        # argparse takes a token like -1e-3 for an option name unless it is
        # joined to its float option; -N, -N.N and --opt=-N read as before
        path = tmp_path / "k4.g"
        path.write_text(invoke(capsys, "catalog", "K4")[1])
        code, out, err = invoke(capsys, "mfun", str(path), "--lambda", "-1e-3")
        assert code == 0 and len(out.splitlines()) == 4 and err == ""
        assert invoke(capsys, "mfun", str(path), "--lambda", "-0.001") == (code, out, err)
        assert invoke(capsys, "mfun", str(path), "--lambda=-1e-3") == (code, out, err)
        sweep = invoke(capsys, "sweep", str(path), "--lmin", "-1e1", "--lmax", "-2E-1",
                       "--steps", "5")
        assert sweep[0] == 0
        assert invoke(capsys, "sweep", str(path), "--lmin", "-10", "--lmax", "-0.2",
                      "--steps", "5") == sweep
        # detect reads --kmax, --step and --tol alike: a negative tolerance
        # is refused with the same message in either form
        refused = invoke(capsys, "detect", str(path), "--kmax", "1", "--step", "1e-1",
                         "--tol", "-1e-8")
        assert refused[0] == 2 and "refinement tolerance must be non-negative" in refused[2]
        assert invoke(capsys, "detect", str(path), "--kmax", "1", "--step", "0.1",
                      "--tol", "-0.00000001") == refused
        assert invoke(capsys, "detect", str(path), "--kmax", "-1e0")[0] == 0
        # a prefix that names one float option of the verb is joined too,
        # as argparse reads it; an ambiguous one is still refused
        assert invoke(capsys, "mfun", str(path), "--lam", "-1e-3") == (code, out, err)
        assert invoke(capsys, "sweep", str(path), "--lmi", "-1e1", "--lma", "-2E-1",
                      "--steps", "5") == sweep
        code_l, out_l, err_l = invoke(capsys, "sweep", str(path), "--l", "-1", "--lmax", "1",
                                      "--steps", "3")
        assert code_l == 2 and out_l == "" and "ambiguous option: --l" in err_l
        assert invoke(capsys, "detect", str(path), "--k", "1", "--st", "1e-1",
                      "--t", "-1e-8") == refused
        # a value that is no float is still an unknown option name
        code, out, err = invoke(capsys, "mfun", str(path), "--lambda", "-x")
        assert code == 2 and out == ""
        assert "expected one argument" in err
        # only a verb's own float options are joined to their values
        code, out, err = invoke(capsys, "spectrum", str(path), "--tol", "-1e-8")
        assert code == 2 and "unrecognized arguments: --tol -1e-8" in err

    def test_detect(self, tmp_path, capsys):
        path = tmp_path / "p2.g"
        _, out, _ = invoke(capsys, "catalog", "path_2")
        path.write_text(out)
        code, out, _ = invoke(capsys, "detect", str(path), "--kmax", "4.0")
        assert code == 0
        k, mult = out.split()[0:2]
        assert float(k) == pytest.approx(math.pi, abs=1e-6)
        assert mult == "1"

    @pytest.mark.parametrize("argv", [
        ("detect", "--kmax", "4.0", "--step", "0"),
        ("detect", "--kmax", "4.0", "--step", "-0.01"),
        ("detect", "--kmax", "inf"),
        ("sweep", "--lmin", "0", "--lmax", "inf", "--steps", "10"),
        ("mfun", "--lambda", "nan")])
    def test_unbounded_numeric_input_exits_2(self, tmp_path, capsys, argv):
        # each is rejected before any lambda sample is taken
        path = tmp_path / "p2.g"
        _, out, _ = invoke(capsys, "catalog", "path_2")
        path.write_text(out)
        code, out, err = invoke(capsys, argv[0], str(path), *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_detect_defaults_read_at_call_time(self, tmp_path, capsys, monkeypatch):
        # a grid step of pi/8 puts the eighth sample on the edge pole pi
        path = tmp_path / "p2.g"
        path.write_text(format_graph(catalog("path_2"), name="path_2"))
        monkeypatch.setattr(specgraph.mfunction, "DETECT_GRID_STEP", math.pi / 8)
        code, out, _ = invoke(capsys, "detect", str(path), "--kmax", "4.0")
        assert code == 0
        assert out.endswith("# warning: singular sample at k=3.14159\n")
        assert out == invoke(capsys, "detect", str(path), "--kmax", "4.0",
                             "--step", repr(math.pi / 8), "--tol", "1e-8")[1]
        monkeypatch.setattr(specgraph.mfunction, "DETECT_REFINE_TOL", -1.0)
        code, out, err = invoke(capsys, "detect", str(path), "--kmax", "4.0")
        assert code == 2 and out == ""
        assert err == "error: refinement tolerance must be non-negative, got -1.0\n"

    @pytest.mark.parametrize("argv", [("mfun", "--lambda", "1"),
                                      ("sweep", "--lmin", "-1", "--lmax", "1", "--steps", "5"),
                                      ("detect", "--kmax", "3")])
    def test_m_function_vertex_bound_exits_2(self, tmp_path, capsys, argv):
        # a path of 201 vertices is refused before any array is built
        path = tmp_path / "path.g"
        path.write_text(format_graph(from_edge_list(201, [(i, i + 1) for i in range(200)],
                                                    contacts=(0,)), name="path"))
        code, out, err = invoke(capsys, argv[0], str(path), *argv[1:])
        assert code == 2 and out == ""
        assert err == "error: graph has 201 vertices, above the bound of 200 for M-functions\n"

    @pytest.mark.parametrize("argv", [("mfun", "--lambda", "1"),
                                      ("sweep", "--lmin", "-1", "--lmax", "1", "--steps", "5"),
                                      ("detect", "--kmax", "3")])
    def test_m_function_edge_bound_exits_2(self, tmp_path, capsys, argv):
        # 10,001 parallel edges at a contact are refused before any array
        # is built; 10,000 are the largest input admitted
        path = tmp_path / "wide.g"
        path.write_text("graph wide\nvertex a contact\nvertex b\n" + "edge a b\n" * 10_001)
        code, out, err = invoke(capsys, argv[0], str(path), *argv[1:])
        assert code == 2 and out == ""
        assert err == "error: graph has 10001 edges, above the bound of 10000 for M-functions\n"

    @pytest.mark.parametrize("length", ["1e400", "1e-400"])
    @pytest.mark.parametrize("argv", [("mfun", "--lambda", "1"),
                                      ("sweep", "--lmin", "-1", "--lmax", "1", "--steps", "5"),
                                      ("detect", "--kmax", "1")])
    def test_extreme_length_exits_2(self, tmp_path, capsys, argv, length):
        # a length whose float overflows, or rounds to 0, is refused by name
        path = tmp_path / "x.g"
        path.write_text(f"graph x\nvertex a contact\nvertex b\nedge a a\nedge a b {length}\n")
        code, out, err = invoke(capsys, argv[0], str(path), *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith("error: edge 1: length as a float is ")
        assert "positive finite float with a finite reciprocal" in err


class TestSearchVerb:
    def test_search_n4_and_job_independence(self, tmp_path, capsys):
        # --out writes the bytes that stdout gets
        a = tmp_path / "a.txt"
        code, _, _ = invoke(capsys, "search", "--vertices", "4", "--key", "secular",
                            "--out", str(a))
        assert code == 0
        code, out, _ = invoke(capsys, "search", "--vertices", "4", "--key", "secular")
        assert code == 0
        assert a.read_text() == out
        assert out.splitlines()[0] == "graphs 6"

    def test_search_multi(self, capsys):
        code, out, _ = invoke(capsys, "search", "--vertices", "2", "--multi",
                              "--max-edges", "3", "--key", "ln")
        assert code == 0
        assert out.splitlines()[0] == "graphs 7"

    @pytest.mark.parametrize("key, message", [("secular", "discrete graph has no edges"),
                                              ("ln", "discrete graph has no edges")])
    def test_single_vertex_has_no_key(self, key, message, capsys):
        # the one graph on one vertex has no edges, so neither key exists;
        # both keys refuse it in the pencil they share, with one message
        code, out, err = invoke(capsys, "search", "--vertices", "1", "--key", key)
        assert code == 2 and out == ""
        assert message in err

    def test_max_edges_default_read_at_call_time(self, monkeypatch, capsys):
        monkeypatch.setattr(specgraph.search, "MULTI_EDGE_BOUND", 3)
        code, out, _ = invoke(capsys, "search", "--vertices", "2", "--multi", "--key", "ln")
        assert code == 0
        assert out == invoke(capsys, "search", "--vertices", "2", "--multi",
                             "--max-edges", "3", "--key", "ln")[1]
        assert out.splitlines()[0] == "graphs 7"

    def test_jobs_option_is_gone(self, monkeypatch, capsys):
        code, out, err = invoke(capsys, "search", "--vertices", "3", "--jobs", "2")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --jobs 2" in err
        monkeypatch.setenv("SPECGRAPH_JOBS", "two")
        code, out, err = invoke(capsys, "catalog", "K5")
        assert code == 0 and err == ""
        assert out == format_graph(catalog("K5"), name="K5")


class TestSharedParser:
    def test_parser_built_once(self, monkeypatch, tmp_path, capsys):
        calls = []
        build = cli._build_parser

        def counting():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "_build_parser", counting)
        monkeypatch.setattr(cli, "_PARSER", None)
        path = tmp_path / "k5.g"
        path.write_text(format_graph(catalog("K5")))
        codes = [invoke(capsys, *argv)[0] for argv in (
            ["catalog", "K5"], ["secular", str(path)], ["validate", str(path)],
            ["secular"], ["search", "--vertices", "3"], ["compare", str(path), str(path)])]
        assert codes == [0, 0, 0, 2, 0, 0]
        assert len(calls) == 1

    def test_usage_error_leaves_no_state(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "k5.g"
        path.write_text(format_graph(catalog("K5")))
        monkeypatch.setattr(cli, "_PARSER", None)
        alone = invoke(capsys, "secular", str(path))
        code, out, err = invoke(capsys, "secular")
        assert code == 2 and out == "" and "usage:" in err
        assert invoke(capsys, "secular", str(path)) == alone

    def test_repeated_append_option_is_not_accumulated(self, tmp_path, capsys):
        argv = _exchange_argv(tmp_path, capsys)
        first = invoke(capsys, *argv)
        assert first[0] == 0
        assert invoke(capsys, *argv) == first


class TestConstructVerbs:
    def test_chop_emits_parsable_graph(self, tmp_path, capsys):
        path = tmp_path / "k5.g"
        _, out, _ = invoke(capsys, "catalog", "K5")
        path.write_text(out)
        code, out, _ = invoke(capsys, "construct", "chop", str(path),
                              "--vertex", "4", "--parts", "0,1|2,3")
        assert code == 0
        chopped = parse_graph(out)
        assert chopped.n_vertices == 6

    @pytest.mark.parametrize("vertex, parts", [("9", "0|1"), ("-1", "0|1"),
                                               ("4", "0|5"), ("4", "0|-1")])
    def test_chop_out_of_range_exits_2(self, tmp_path, capsys, vertex, parts):
        path = tmp_path / "k5.g"
        _, out, _ = invoke(capsys, "catalog", "K5")
        path.write_text(out)
        code, out, err = invoke(capsys, "construct", "chop", str(path),
                                "--vertex", vertex, "--parts", parts)
        assert code == 2 and out == ""
        assert "out of range" in err

    def test_glue_two_paths(self, tmp_path, capsys):
        path = tmp_path / "p.g"
        _, out, _ = invoke(capsys, "catalog", "path_2")
        path.write_text(out)
        code, out, _ = invoke(capsys, "construct", "glue", str(path), str(path),
                              "--pairing", "1:0")
        assert code == 0
        assert parse_graph(out).n_edges == 2

    def test_clarify_writes_isospectral_pair(self, tmp_path, capsys):
        edge = tmp_path / "edge.g"
        edge.write_text("graph e\nvertex a contact\nvertex b contact\nedge a b\n")
        loop = tmp_path / "loop.g"
        loop.write_text("graph l\nvertex a contact\nedge a a\n")
        pend = tmp_path / "pend.g"
        pend.write_text("graph p\nvertex a contact\nvertex b\nedge a b\n")
        out1, out2 = tmp_path / "g1.g", tmp_path / "g2.g"
        code, _, _ = invoke(capsys, "construct", "clarify",
                            "--block-a", str(edge), "--block-b", str(edge),
                            "--block-c", str(edge), "--block-d", str(edge),
                            "--block-e", str(loop), "--block-f", str(pend),
                            "--out1", str(out1), "--out2", str(out2))
        assert code == 0
        g1 = parse_graph(out1.read_text())
        g2 = parse_graph(out2.read_text())
        assert g1.n_edges == g2.n_edges == 26

    def test_exchange(self, tmp_path, capsys):
        code, out, _ = invoke(capsys, *_exchange_argv(tmp_path, capsys))
        assert code == 0
        assert parse_graph(out).n_edges == 2 + 2 + 4

    @pytest.mark.parametrize("argv, message", [
        (["search", "--multi", "--vertices", "0"],
         "enumeration bound: need 1 <= n <= 4, got 0"),
        (["search", "--multi", "--vertices", "2", "--max-edges", "0"],
         "enumeration bound: need 1 <= m_max <= 8, got 0"),
        (["search", "--multi", "--vertices", "2", "--max-edges", "-2"],
         "enumeration bound: need 1 <= m_max <= 8, got -2"),
        (["construct", "chop", "{dir}/k5.g", "--vertex", "4", "--parts", "a"],
         "--parts expects slot index lists like '0,1|2,3', got 'a'"),
        (["construct", "glue", "{dir}/k5.g", "{dir}/k5.g", "--pairing", "x"],
         "--pairing expects position pairs like '0:0,1:1', got 'x'"),
        (["construct", "exchange", "--frame", "{dir}/frame.g", "--slot", "{dir}/k5.g",
          "--swap", "0,1"],
         "--slot expects FILE@SP:FP,... like 'slot.g@0:0,1:1', got '{dir}/k5.g'"),
        (["construct", "exchange", "--frame", "{dir}/frame.g",
          "--slot", "{dir}/fig6_cycle.g@0:0,1:1", "--slot", "{dir}/fig6_eight.g@0:1,1:2",
          "--swap", "0,1,2"],
         "--swap expects two slot indices like '0,1', got '0,1,2'"),
        (["construct", "clarify"] + [arg for name in "abcdef"
                                     for arg in (f"--block-{name}", "{dir}/k5.g")]
         + ["--splits", "1,2|3"],
         "--splits expects two slot pairs like '2,3|1,4', got '1,2|3'"),
        (["search", "--vertices", "2", "--max-edges", "3"],
         "--max-edges applies only with --multi")])
    def test_malformed_option_names_its_form(self, tmp_path, capsys, argv, message):
        _exchange_argv(tmp_path, capsys)
        (tmp_path / "k5.g").write_text(format_graph(catalog("K5")))
        argv = [arg.format(dir=tmp_path) for arg in argv]
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message.format(dir=tmp_path)}\n"


def _exchange_argv(tmp_path, capsys):
    """Writes a frame and the fig6 slot graphs; argv that swaps the slots."""
    frame = tmp_path / "frame.g"
    frame.write_text("graph f\nvertex a contact\nvertex b contact\n"
                     "vertex c contact\nedge a b\nedge b c\n")
    for name in ("fig6_cycle", "fig6_eight"):
        _, out, _ = invoke(capsys, "catalog", name)
        (tmp_path / f"{name}.g").write_text(out)
    return ["construct", "exchange", "--frame", str(frame),
            "--slot", f"{tmp_path}/fig6_cycle.g@0:0,1:1",
            "--slot", f"{tmp_path}/fig6_eight.g@0:1,1:2",
            "--swap", "0,1"]


def _fresh_interpreter(tmp_path, *args):
    """Run python with args in tmp_path, with this specgraph importable."""
    env = dict(os.environ)
    src = str(Path(specgraph.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)


def test_main_entry_point_exit_codes(tmp_path):
    # `main` in a fresh interpreter, as the console script runs it
    def main(*argv):
        return _fresh_interpreter(tmp_path, "-c", "from specgraph.cli import main; main()",
                                  *argv)

    for name in ("K5", "Gamma1"):
        done = main("catalog", name)
        assert done.returncode == 0 and done.stderr == ""
        (tmp_path / f"{name}.g").write_text(done.stdout)
    done = main("compare", "K5.g", "Gamma1.g")
    assert done.returncode == 1 and done.stdout.startswith("not isospectral\n")
    done = main("search", "--vertices", "0")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "error: need at least one vertex\n"


@pytest.mark.parametrize("module", ["specgraph", "specgraph.cli"])
def test_python_m_prints_what_run_prints(module, tmp_path, capsys):
    # `python -m` runs the package's __main__ or cli's own __main__ guard
    for argv in (["catalog", "K2"], ["search", "--vertices", "0"]):
        done = _fresh_interpreter(tmp_path, "-m", module, *argv)
        assert (done.returncode, done.stdout) == invoke(capsys, *argv)[:2]
    assert done.returncode == 2


def _grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return from_edge_list(rows * cols, edges)


_EXCHANGE_FRAME = ("graph frame\nvertex a contact\nvertex b contact\nvertex c\n"
                   "vertex d contact\nedge a b\nedge b c\nedge c d\n")
_CLARIFY_BLOCKS = {"edge": "graph e\nvertex a contact\nvertex b contact\nedge a b\n",
                   "loop": "graph l\nvertex a contact\nedge a a\n",
                   "pendant": "graph p\nvertex a contact\nvertex b\nedge a b\n"}


# sha256 of CLI output: the search and secular lines rest on both exact
# keys, a change in their bytes means a key, or the way it is printed,
# changed; the numeric verbs pin their 12-digit floats the same way, and
# the construct verbs pin the vertex numbering and contact order of graph
# surgery.  Each entry is (argv, graphs, digest): graph i is written to a
# file that argv names as {i}, {dir} is the run's directory, and the
# digest covers stdout followed by every file the run wrote, by name.
PINNED_OUTPUTS = {
    "search-secular-6": (["search", "--vertices", "6", "--key", "secular"], (),
                         "6f597da2c1b7feb6d4368b52462163321a4263ba75453d3b0b915dd974bcc563"),
    "search-ln-6": (["search", "--vertices", "6", "--key", "ln"], (),
                    "03816a831d07055949e36b82c7bbda5d89311d2c160bcc1f90b5f86e1ed5af20"),
    "search-secular-7": (["search", "--vertices", "7", "--key", "secular"], (),
                         "505fbec38bc6cd4ffcd011f2c9ce57fc0c029fefada6bbdb5ad99dd0433a4c38"),
    "search-ln-7": (["search", "--vertices", "7", "--key", "ln"], (),
                    "2658c18041e2783afd6f8818a6aeae9674ca5fa55aa1cbd932a4140bec4fbe02"),
    "search-multi-4-7": (["search", "--multi", "--vertices", "4", "--max-edges", "7"], (),
                         "7b8279c7af2ad676398d5f58549bdd2bfef73f6cf7f794cac13aa6d4c53d49d2"),
    "secular-K5": (["secular", "{0}"], ("K5",),
                   "e111347a4f74b24da84aaf61149c9773a51ee86f1dee959d505db9df7765f965"),
    "secular-Gamma1": (["secular", "{0}"], ("Gamma1",),
                       "5ad6049b34bcdafb389ecc134e111f9d28feb23aa4c238c4465bc0e2422b53d0"),
    "secular-grid5x5": (["secular", "{0}"], (lambda: _grid(5, 5),),
                        "fa08ecae838736ee2e23a55161521f50338e29fc8aaaf09c0e8437594b9524de"),
    "spectrum-Gamma1": (["spectrum", "{0}"], ("Gamma1",),
                        "852f4db80cfb8b2375c2a7b9a58eaf1f778600d1390e422a157a8a65509192a8"),
    "detect-Q1": (["detect", "--kmax", "12.6", "{0}"], ("Q1",),
                  "ef1bf66e686d2d501b93f04d7af67599afafc68f71c914f0199452791b97e73b"),
    "mfun-Q1": (["mfun", "--lambda", "-2", "{0}"], ("Q1",),
                "1d97f9eaf874127369b28e608330986b89e55b21cd94e1c5e1f2769fb00224ae"),
    "sweep-Q1": (["sweep", "--lmin", "-5", "--lmax", "60", "--steps", "240", "{0}"], ("Q1",),
                 "1ad623ff427e2412b068b32b76ac15b1cc036941af8939010a2863c9291c520f"),
    "compare-proposition": (["compare", "--mode", "proposition", "{0}", "{1}"],
                            ("Gamma1", "Gamma2"),
                            "59962d23d56e440811284e9c5b6e1ccca5f4686b20a3b5288232821d87a1880f"),
    "compare-discrete": (["compare", "--mode", "discrete", "{0}", "{1}"], ("Gamma1", "Gamma2"),
                         "3cdfaed35e8fd43d0c39778d4eb9ab4960f3d93d93e8055595860020c1fd63e2"),
    "construct-glue-K4-S4": (["construct", "glue", "{0}", "{1}", "--pairing", "0:0,1:1,2:2,3:3"],
                             ("K4", "S4"),
                             "542e8e19a30c4adf06578b3210ef2a1e7ed85f6a6345c12c6c920e0940275495"),
    "construct-chop-K5": (["construct", "chop", "{0}", "--vertex", "4", "--parts", "0,1|2,3"],
                          ("K5",),
                          "ab724719e431de524334752d5a0d42fe99949c85ae4aa732d1aabee93fb631ab"),
    "construct-exchange-fig6": (["construct", "exchange", "--frame", "{0}",
                                 "--slot", "{1}@0:0,1:1", "--slot", "{2}@0:1,1:2",
                                 "--swap", "0,1"],
                                (lambda: parse_graph(_EXCHANGE_FRAME),
                                 "fig6_cycle", "fig6_eight"),
                                "4c2a7063fd909f5703a8b0ce7d457b3c09494381c66bb5f1c15ca5b9b6b046ce"),
    "construct-clarify": (["construct", "clarify"]
                          + [arg for name in "abcd" for arg in (f"--block-{name}", "{0}")]
                          + ["--block-e", "{1}", "--block-f", "{2}",
                             "--out1", "{dir}/out1.g", "--out2", "{dir}/out2.g"],
                          tuple((lambda text=text: parse_graph(text))
                                for text in _CLARIFY_BLOCKS.values()),
                          "7a8b3a1cc1cc986cce4be40d00f385ac8101ccbeaa67ff0c441ecacc71b24ffe"),
}


@pytest.mark.parametrize("case", sorted(PINNED_OUTPUTS))
def test_output_bytes_pinned(case, tmp_path, capsys):
    # a graph is a catalog id or a function that builds it
    argv, graphs, digest = PINNED_OUTPUTS[case]
    paths = []
    for i, graph in enumerate(graphs):
        path = tmp_path / f"g{i}.g"
        path.write_text(format_graph(catalog(graph) if isinstance(graph, str) else graph()))
        paths.append(str(path))
    inputs = set(tmp_path.iterdir())
    code, out, _ = invoke(capsys, *(arg.format(*paths, dir=tmp_path) for arg in argv))
    assert code == 0
    written = sorted(set(tmp_path.iterdir()) - inputs)
    data = out.encode() + b"".join(path.read_bytes() for path in written)
    assert hashlib.sha256(data).hexdigest() == digest
