import math

import pytest

from specgraph import parse_graph, secular_poly
from specgraph.cli import run
from specgraph.constructions import catalog


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

    def test_validate_ok_and_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "e.g"
        path.write_text("graph e\nvertex a contact\nvertex b\nedge a b\n")
        code, out, _ = invoke(capsys, "validate", str(path))
        assert code == 0 and out.strip() == "ok"

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


class TestSearchVerb:
    def test_search_n4_and_job_independence(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        code, _, _ = invoke(capsys, "search", "--vertices", "4", "--key", "secular",
                            "--jobs", "1", "--out", str(a))
        assert code == 0
        code, _, _ = invoke(capsys, "search", "--vertices", "4", "--key", "secular",
                            "--jobs", "2", "--out", str(b))
        assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "graphs 6"

    def test_search_multi(self, capsys):
        code, out, _ = invoke(capsys, "search", "--vertices", "2", "--multi",
                              "--max-edges", "3", "--key", "ln")
        assert code == 0
        assert out.splitlines()[0] == "graphs 7"

    def test_jobs_default_from_environment(self, monkeypatch):
        from specgraph.cli import _build_parser
        monkeypatch.setenv("SPECGRAPH_JOBS", "3")
        args = _build_parser().parse_args(["search", "--vertices", "3"])
        assert args.jobs == 3

    def test_non_integer_jobs_variable_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("SPECGRAPH_JOBS", "two")
        for argv in (["search", "--vertices", "3"], ["catalog", "K5"]):
            code, out, err = invoke(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err == "error: SPECGRAPH_JOBS must be an integer, got 'two'\n"


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
        frame = tmp_path / "frame.g"
        frame.write_text("graph f\nvertex a contact\nvertex b contact\n"
                         "vertex c contact\nedge a b\nedge b c\n")
        for name in ("fig6_cycle", "fig6_eight"):
            _, out, _ = invoke(capsys, "catalog", name)
            (tmp_path / f"{name}.g").write_text(out)
        code, out, _ = invoke(
            capsys, "construct", "exchange", "--frame", str(frame),
            "--slot", f"{tmp_path}/fig6_cycle.g@0:0,1:1",
            "--slot", f"{tmp_path}/fig6_eight.g@0:1,1:2",
            "--swap", "0,1")
        assert code == 0
        assert parse_graph(out).n_edges == 2 + 2 + 4
