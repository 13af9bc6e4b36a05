import pytest

from kirchhoff.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_family_kf(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "path:4", "--kf")
        assert code == 0
        assert "kf = 10" in out

    def test_graph6_trees(self, capsys):
        code, out, _ = run(capsys, "compute", "--graph6", "C~", "--trees")
        assert code == 0 and "trees = 16" in out

    def test_dumbbell_rendering(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "dumbbell:3,3,5", "--kf")
        assert code == 0 and "kf = 137.666666667" in out  # 413/3 at 12 significant digits

    def test_edge_list_input(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4 3\n0 1\n1 2\n2 3\n")
        code, out, _ = run(capsys, "compute", "--edgelist", str(path), "--wiener")
        assert code == 0 and "wiener = 10" in out

    def test_disconnected_reports_components(self, capsys):
        # 2K2 as graph6: n=4, only edges (0,1) and (2,3)
        code, _, err = run(capsys, "compute", "--graph6", "C`", "--kf")
        assert code == 2 and "2 components" in err

    def test_two_sources_rejected(self, capsys):
        code, _, err = run(capsys, "compute", "--graph6", "C~", "--family", "path:4", "--kf")
        assert code == 2 and "exactly one" in err

    def test_parse_error_location(self, capsys):
        code, _, err = run(capsys, "compute", "--graph6", "C\x01", "--kf")
        assert code == 2 and "byte offset 1" in err

    def test_eigensolver_failure_exit_two(self, capsys, monkeypatch):
        import numpy as np

        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        code, out, err = run(capsys, "compute", "--family", "path:4", "--kf")
        assert code == 2 and out == ""
        assert err == "error: Eigenvalues did not converge\n"


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys, tmp_path):
        out_path = tmp_path / "report.txt"
        code, out, _ = run(
            capsys, "verify", "--theorem", "lower-bound", "--n", "6", "--p", "2",
            "--out", str(out_path),
        )
        assert code == 0
        assert "status: PASS" in out
        assert out_path.read_text(encoding="utf-8") == out

    def test_fail_exit_one(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "max-ordering", "--n", "28")
        assert code == 1 and "status: FAIL" in out

    def test_budget_exit_two(self, capsys):
        code, _, err = run(
            capsys, "verify", "--theorem", "lower-bound", "--n", "40", "--p", "20"
        )
        assert code == 2 and "budget" in err

    def test_param_error_exit_two(self, capsys):
        code, _, err = run(capsys, "verify", "--theorem", "lower-bound", "--n", "6")
        assert code == 2 and "missing parameter" in err

    def test_jobs_below_one_exit_two(self, capsys):
        code, out, err = run(
            capsys, "verify", "--theorem", "lower-bound", "--n", "6", "--p", "2", "--jobs", "0"
        )
        assert code == 2 and out == "" and err == "error: jobs must be >= 1, got 0\n"
        code, out, err = run(capsys, "search", "--trees", "6", "--max", "--jobs", "-5")
        assert code == 2 and out == "" and err == "error: jobs must be >= 1, got -5\n"

    def test_trials_below_one_exit_two(self, capsys):
        code, out, err = run(capsys, "verify", "--theorem", "edge-trim", "--n", "8", "--m", "12", "--trials", "-1")
        assert code == 2 and out == "" and err == "error: edge trimming needs trials >= 1, got -1\n"

    def test_parameter_the_theorem_does_not_take_exit_two(self, capsys):
        code, out, err = run(capsys, "verify", "--theorem", "max-ordering", "--n", "10", "--p", "3")
        assert code == 2 and out == ""
        assert err == "error: max-ordering does not take parameter(s) p; it takes n\n"

    def test_repeated_girths_exit_two(self, capsys):
        code, out, err = run(capsys, "verify", "--theorem", "unicyclic-max", "--n", "6", "--girths", "3,3")
        assert code == 2 and out == "" and err == "error: girths must be distinct, got (3, 3)\n"

    def test_determinism_except_footer(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--theorem", "upper-bound", "--n", "6", "--p", "2")
        code2, out2, _ = run(capsys, "verify", "--theorem", "upper-bound", "--n", "6", "--p", "2")
        assert code1 == code2 == 0
        assert out1.splitlines()[:-1] == out2.splitlines()[:-1]
        assert out1.splitlines()[-1].startswith("elapsed_seconds:")


class TestSearchCommand:
    def test_deleted_edges_min(self, capsys):
        code, out, _ = run(capsys, "search", "--deleted-edges", "6,2", "--min", "--top", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rank,graph6,kf,count"
        assert lines[1].startswith("1,") and lines[1].endswith(",6,45")

    def test_trees_max(self, capsys):
        code, out, _ = run(capsys, "search", "--trees", "8", "--max", "--top", "2")
        assert code == 0
        first, second = out.splitlines()[1:3]
        assert first.split(",")[2] == "84"  # the 8-vertex path
        assert second.split(",")[2] == "79"

    def test_budget_refusal(self, capsys):
        code, _, err = run(capsys, "search", "--trees", "12", "--max")
        assert code == 2 and "budget" in err

    def test_malformed_tree_count_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--trees", "9x", "--max"])
        _, err = capsys.readouterr()
        assert exc.value.code == 2 and "argument --trees: invalid int value: '9x'" in err

    def test_empty_pair_exit_two(self, capsys):
        code, out, err = run(capsys, "search", "--deleted-edges", "", "--min")
        assert code == 2 and out == "" and err == "error: --deleted-edges expects 'a,b', got ''\n"

    def test_space_without_connected_member_exit_two(self, capsys):
        # K_4 minus all 6 of its edges leaves only the empty graph
        code, out, err = run(capsys, "search", "--deleted-edges", "4,6", "--min")
        assert code == 2 and out == "" and "no connected member" in err

    @pytest.mark.parametrize(
        "argv, n",
        [
            (("search", "--connected", "1,0", "--max"), 1),
            (("search", "--deleted-edges", "1,0", "--min"), 1),
            (("search", "--deleted-edges", "64,1", "--min"), 64),
            (("verify", "--theorem", "lower-bound", "--n", "64", "--p", "2"), 64),
        ],
        ids=["connected-1", "deleted-edges-1", "deleted-edges-64", "lower-bound-64"],
    )
    def test_vertex_count_outside_2_to_62_exit_two(self, capsys, argv, n):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: enumeration spaces need 2 <= n <= 62, got n={n}\n"

    def test_objective_required(self, capsys):
        code, _, err = run(capsys, "search", "--trees", "6")
        assert code == 2 and "--min" in err


class TestTableCommand:
    def test_path_cycle_range(self, capsys):
        code, out, _ = run(capsys, "table", "--families", "path,cycle", "--n", "5..7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "family,n,closed_form,numeric_kf,abs_diff"
        assert len(lines) == 7
        assert lines[1] == "path,5,20,20,0"

    def test_q3_exact_rendering(self, capsys):
        code, out, _ = run(capsys, "table", "--families", "q3", "--n", "28")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[2] == "10756/3"  # (28^3 - 17*28 + 36)/6 reduced

    def test_invalid_rows_skipped_with_warning(self, capsys):
        code, out, err = run(capsys, "table", "--families", "r3", "--n", "6..8")
        assert code == 0
        assert len(out.splitlines()) == 3  # header + n=7, n=8
        assert "skipping r3 at n=6" in err

    def test_row_without_kf_skipped_with_warning(self, capsys):
        code, out, err = run(capsys, "table", "--families", "path", "--n", "1..3")
        assert code == 0
        assert out.splitlines()[1:] == ["path,2,1,1,0", "path,3,4,4,0"]
        assert "warning: skipping path at n=1: " in err

    def test_starlike_rows_at_every_valid_size(self, capsys):
        code, out, err = run(capsys, "table", "--families", "t421,t531,t641", "--n", "5..9")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [(r[0], int(r[1])) for r in rows] == (
            [("t421", n) for n in range(5, 10)]
            + [("t531", n) for n in range(6, 10)]
            + [("t641", n) for n in range(7, 10)]
        )
        assert all(float(r[4]) < 1e-9 for r in rows)
        skipped = [line.split(": ")[1] for line in err.splitlines()]
        assert skipped == ["skipping t531 at n=5", "skipping t641 at n=5", "skipping t641 at n=6"]

    def test_reversed_range_exit_two(self, capsys):
        code, out, err = run(capsys, "table", "--families", "path", "--n", "7..5")
        assert code == 2 and out == "" and "empty range '7..5'" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "table", "--families", "nope", "--n", "5")
        assert code == 2 and "unknown table families" in err


class TestDeterminismAcrossJobs:
    def test_search_jobs(self, capsys):
        code1, out1, _ = run(capsys, "search", "--connected", "6,6", "--max", "--top", "2", "--jobs", "1")
        code2, out2, _ = run(capsys, "search", "--connected", "6,6", "--max", "--top", "2", "--jobs", "2")
        assert code1 == code2 == 0 and out1 == out2
