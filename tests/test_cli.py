"""Command-line surface: exit codes, output files, determinism."""

import json

import pytest

from conic_alm.cli import main
from conic_alm.model import synth_known_solution
from conic_alm.sdpa import sdpa_write


def run(args):
    return main(args)


class TestSolve:
    def test_toy_converges(self, tmp_path):
        code = run(["solve", "--builtin", "example-d1", "--form", "primal",
                    "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "trace.csv").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["converged"]
        assert summary["final_residuals"]["eps3"] <= 1e-6

    def test_trace_schema(self, tmp_path):
        run(["solve", "--builtin", "example-d1", "--out", str(tmp_path)])
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0].startswith("# conic-alm-trace-v1")
        header = lines[1].split(",")
        assert header[:3] == ["k", "eps1", "eps2"]
        assert "eps3" in header and "gap_certificate" in header

    def test_dual_form(self, tmp_path):
        code = run(["solve", "--builtin", "example-d1", "--form", "dual",
                    "--out", str(tmp_path)])
        assert code == 0

    def test_ineq_form(self, tmp_path):
        code = run(["solve", "--builtin", "lasso-random", "--form", "ineq",
                    "--stop-eps3", "1e-6", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert "form=ineq" in lines[0]

    def test_synth_instance_distances(self, tmp_path):
        code = run(["solve", "--builtin", "synth", "--n", "5", "--m", "6",
                    "--rank-x", "2", "--seed", "7", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["converged"]
        # distance columns present and small at the end
        rows = (tmp_path / "trace.csv").read_text().splitlines()
        header = rows[1].split(",")
        last = rows[-1].split(",")
        dist_w = float(last[header.index("dist_w")])
        assert dist_w <= 1e-5

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = run(["solve", "--sdpa", str(tmp_path / "missing.dat")])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_unknown_builtin(self):
        assert run(["solve", "--builtin", "nope"]) == 3

    def test_wrong_form_for_qp(self):
        assert run(["solve", "--builtin", "svm-random", "--form", "primal"]) == 3

    def test_sdpa_file_roundtrip(self, tmp_path):
        inst = synth_known_solution(n=3, m=3, rank_x=2, seed=5)
        path = tmp_path / "inst.dat-s"
        sdpa_write(inst.problem, path)
        code = run(["solve", "--sdpa", str(path), "--out", str(tmp_path)])
        assert code == 0

    def test_nonconvergence_exit_2(self, tmp_path):
        code = run(["solve", "--builtin", "maxcut-g1-20", "--max-outer", "2",
                    "--stop-eps3", "1e-10", "--out", str(tmp_path)])
        assert code == 2
        assert (tmp_path / "trace.csv").exists()  # partial trace written

    def test_deterministic_traces(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["solve", "--builtin", "synth", "--n", "4", "--m", "5",
                 "--rank-x", "2", "--seed", "3", "--out", str(out)])
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


class TestVerify:
    def test_growth_lemma_toy(self, tmp_path):
        code = run(["verify", "growth-lemma", "--builtin", "example-d1",
                    "--mu", "1.0", "--samples", "2000", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["ok"]
        assert report["kappa"] == pytest.approx(2.0 / 7.0)

    def test_trace_bound(self, tmp_path):
        code = run(["verify", "trace-bound", "--samples", "2000",
                    "--out", str(tmp_path)])
        assert code == 0

    def test_qg_dual_grid(self, tmp_path):
        code = run(["verify", "qg-dual", "--builtin", "example-d1", "--rho", "4",
                    "--penalty", "--grid", "fig-d1", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["min_ratio"] >= 0.3

    def test_exact_penalty(self, tmp_path):
        code = run(["verify", "exact-penalty", "--builtin", "example-d1",
                    "--rho", "4", "--out", str(tmp_path)])
        assert code == 0

    def test_no_sharp_growth(self, tmp_path):
        code = run(["verify", "no-sharp-growth", "--out", str(tmp_path)])
        assert code == 0

    def test_strict_complementarity(self, tmp_path):
        code = run(["verify", "strict-complementarity", "--builtin", "example-d1",
                    "--out", str(tmp_path)])
        assert code == 0

    def test_penalty_preimage(self, tmp_path):
        code = run(["verify", "penalty-preimage", "--builtin", "example-d1",
                    "--rho", "4", "--samples", "2000", "--out", str(tmp_path)])
        assert code == 0

    def test_ppm_alm_link(self, tmp_path):
        code = run(["verify", "ppm-alm-link", "--builtin", "example-d1",
                    "--max-outer", "10", "--out", str(tmp_path)])
        assert code == 0

    def test_verifier_needs_certified_instance(self, tmp_path):
        code = run(["verify", "growth-lemma", "--builtin", "maxcut-g1-20",
                    "--out", str(tmp_path)])
        assert code == 3


class TestBench:
    def test_r_sweep(self, tmp_path):
        code = run(["bench", "--builtin", "synth", "--n", "4", "--m", "5",
                    "--rank-x", "2", "--seed", "3", "--r-list", "0.5,2",
                    "--max-outer", "30", "--stop-eps3", "1e-6",
                    "--out", str(tmp_path)])
        assert code in (0, 2)
        comparison = (tmp_path / "comparison.csv").read_text().splitlines()
        assert comparison[1] == "k,eps3_r0.5,eps3_r2"
        assert (tmp_path / "trace-r0.5.csv").exists()
        assert (tmp_path / "trace-r2.csv").exists()

    def test_larger_r_smaller_early_feasibility(self, tmp_path):
        run(["bench", "--builtin", "synth", "--n", "5", "--m", "6", "--rank-x",
             "2", "--seed", "17", "--r-list", "0.5,2", "--max-outer", "8",
             "--stop-eps3", "1e-12", "--out", str(tmp_path)])
        # eta1 at iteration 5 is smaller for the larger penalty
        def eta1_at(fname, k):
            rows = (tmp_path / fname).read_text().splitlines()
            header = rows[1].split(",")
            return float(rows[2 + k].split(",")[header.index("eta1")])
        assert eta1_at("trace-r2.csv", 5) < eta1_at("trace-r0.5.csv", 5)

    def test_maxcut_r_grid(self, tmp_path):
        # the benchmark grid r in {1, 5, 10} on a max-cut fixture: all three
        # configurations reach the 1e-5 residual floor
        code = run(["bench", "--builtin", "maxcut-g1-20", "--r-list", "1,5,10",
                    "--stop-eps3", "1e-5", "--out", str(tmp_path)])
        assert code == 0
        for r in ("1", "5", "10"):
            rows = (tmp_path / f"trace-r{r}.csv").read_text().splitlines()
            header = rows[1].split(",")
            final_eps3 = float(rows[-1].split(",")[header.index("eps3")])
            assert final_eps3 <= 1e-5

    def test_single_r_degenerates_to_solve(self, tmp_path):
        code = run(["bench", "--builtin", "example-d1", "--r-list", "1",
                    "--stop-eps3", "1e-8", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "trace-r1.csv").exists()

    def test_multi_r_serial_bench_writes_every_trace(self, tmp_path):
        code = run(["bench", "--builtin", "example-d1", "--r-list", "0.5,1,2",
                    "--stop-eps3", "1e-8", "--out", str(tmp_path / "multi")])
        assert code == 0
        assert sorted(f.name for f in (tmp_path / "multi").glob("trace-r*.csv")) == [
            "trace-r0.5.csv", "trace-r1.csv", "trace-r2.csv"]
        # each configuration's trace is the one it gets when run on its own
        assert run(["bench", "--builtin", "example-d1", "--r-list", "1",
                    "--stop-eps3", "1e-8", "--out", str(tmp_path / "single")]) == 0
        assert (tmp_path / "multi" / "trace-r1.csv").read_bytes() == \
            (tmp_path / "single" / "trace-r1.csv").read_bytes()

    def test_bad_r_list(self, tmp_path):
        assert run(["bench", "--builtin", "example-d1", "--r-list", "abc",
                    "--out", str(tmp_path)]) == 3
