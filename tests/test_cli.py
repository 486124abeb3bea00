"""Command-line surface: exit codes, output files, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conic_alm
from conic_alm import cli, fixtures
from conic_alm.alm import AlmConfig
from conic_alm.cli import main
from conic_alm.model import synth_known_solution
from conic_alm.sdpa import sdpa_write

from conftest import NONFINITE_SDPA

SRC = Path(__file__).resolve().parents[1] / "src"


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
        assert summary["manifest"]["artifact_version"] == conic_alm.__version__

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

    def test_penalty_past_float_range_exit_2(self, tmp_path):
        # 10 ** 309 overflows a float; the penalty stays at its cap and the
        # run ends unconverged instead of with an OverflowError
        code = run(["solve", "--builtin", "example-d1", "--r-growth", "10",
                    "--max-outer", "320", "--stop-eps3", "1e-30", "--out", str(tmp_path)])
        assert code == 2
        rows = (tmp_path / "trace.csv").read_text().splitlines()[2:]
        assert len(rows) == 320 and rows[-1].split(",")[9] == "100"

    @pytest.mark.parametrize("form", ["primal", "dual", "ineq"])
    def test_uncertified_iterations_match_trace(self, form, tmp_path):
        # a 1e-12 target runs the certification targets below the rounding
        # floor: summary.json counts the trace rows that were not certified
        instance = (["--builtin", "lasso-random"] if form == "ineq" else
                    ["--builtin", "synth", "--n", "4", "--m", "4", "--rank-x", "2",
                     "--seed", "2"])
        run(["solve", *instance, "--form", form, "--stop-eps3", "1e-12",
             "--max-outer", "30", "--out", str(tmp_path)])
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        certified = [line.split(",")[lines[1].split(",").index("certified")]
                     for line in lines[2:]]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["schema_version"] == 2 and "warnings" not in summary
        assert summary["uncertified_iterations"] == certified.count("0") > 0

    def test_deterministic_traces(self, tmp_path):
        # every builtin in every form it supports, and one other synth draw
        cases = [["--builtin", name, "--form", form, "--stop-eps3", "1e-5"]
                 for name in fixtures.SDP_BUILTINS for form in ("primal", "dual")]
        cases += [["--builtin", name, "--form", "ineq", "--stop-eps3", "1e-5"]
                  for name in fixtures.INEQ_BUILTINS]
        cases.append(["--builtin", "synth", "--n", "4", "--m", "5", "--rank-x", "2",
                      "--seed", "3"])
        for i, argv in enumerate(cases):
            a, b = tmp_path / f"{i}a", tmp_path / f"{i}b"
            for out in (a, b):
                run(["solve", *argv, "--out", str(out)])
            assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes(), argv


def expected_row(form, rec):
    """The trace.csv row of one record, column by column."""
    res = rec.residuals
    if form == "ineq":
        return [rec.k, res.feasibility, res.dual_feasibility, res.stationarity,
                res.complementarity, res.cost_gap, res.eps3, rec.r, rec.eps_k,
                rec.delta_k, rec.dist_x, rec.inner_iterations, rec.gap_certificate,
                rec.certified]
    return [rec.k, res.eps1, res.eps2, res.eta1, res.eta2, res.eta3, res.eta4,
            res.eta5, res.eps3, rec.r, rec.eps_k, rec.delta_k, rec.dist_x,
            rec.dist_w, rec.inner_iterations, rec.gap_certificate, rec.certified]


RESIDUAL_KEYS = {
    "sdp": ["eps1", "eps2", "eta1", "eta2", "eta3", "eta4", "eta5", "eps3"],
    "ineq": ["feasibility", "dual_feasibility", "stationarity", "complementarity",
             "cost_gap", "eps3"],
}


class TestInputErrors:
    def test_solve_defaults_build_default_config(self):
        args = cli.build_parser().parse_args(["solve", "--builtin", "example-d1"])
        assert cli._config_from_args(args) == AlmConfig()

    def test_bench_defaults_follow_config(self):
        # the penalty cap and outer budget are AlmConfig's; the growth and
        # the target are bench's own, for a fixed-penalty sweep
        args = cli.build_parser().parse_args(["bench", "--builtin", "example-d1",
                                              "--r-list", "1"])
        assert (args.r_max, args.max_outer) == (AlmConfig().r_max, AlmConfig().max_outer)
        assert (args.r_growth, args.stop_eps3) == (1.0, 1e-5)

    @pytest.mark.parametrize("argv,names", [
        pytest.param(["solve", "--builtin", "example-d1", "--r0", "-1"], "r0", id="r0"),
        pytest.param(["solve", "--builtin", "example-d1", "--max-outer", "0"], "max_outer",
                     id="max-outer"),
        pytest.param(["solve", "--builtin", "example-d1", "--eps0", "-1"], "eps0", id="eps0"),
        pytest.param(["solve", "--builtin", "example-d1", "--delta0", "-0.5"], "delta0",
                     id="delta0"),
        pytest.param(["bench", "--builtin", "example-d1", "--r-list", "1", "--r-growth", "0.5"],
                     "r_growth", id="r-growth"),
        # NaN passes every comparison, so each float field checks finiteness
        pytest.param(["solve", "--builtin", "example-d1", "--r0", "nan"], "r0", id="r0-nan"),
        pytest.param(["solve", "--builtin", "example-d1", "--eps0", "nan"], "eps0",
                     id="eps0-nan"),
        pytest.param(["solve", "--builtin", "example-d1", "--delta0", "nan"], "delta0",
                     id="delta0-nan"),
        pytest.param(["solve", "--builtin", "example-d1", "--stop-eps3", "nan"], "stop_eps3",
                     id="stop-eps3-nan"),
        pytest.param(["solve", "--builtin", "example-d1", "--r-max", "nan"], "r_max",
                     id="r-max-nan"),
        pytest.param(["solve", "--builtin", "example-d1", "--decay", "nan"], "decay",
                     id="decay-nan"),
        pytest.param(["solve", "--builtin", "example-d1", "--r-growth", "inf"], "r_growth",
                     id="r-growth-inf"),
        pytest.param(["bench", "--builtin", "example-d1", "--r-list", "nan"], "r0",
                     id="r-list-nan"),
        pytest.param(["solve", "--builtin", "synth", "--n", "3", "--m", "50"], "m must",
                     id="synth-m"),
        pytest.param(["verify", "growth-lemma", "--builtin", "example-d1", "--mu", "-1"], "mu",
                     id="mu"),
        pytest.param(["verify", "qg-dual", "--builtin", "example-d1", "--penalty", "--rho", "1"],
                     "rho", id="rho"),
        # without --penalty, --rho would be ignored yet reported
        pytest.param(["verify", "qg-primal", "--builtin", "example-d1", "--rho", "5"],
                     "rho = 5.0 is used only with use_penalty=True", id="qg-primal-rho-alone"),
        pytest.param(["verify", "qg-dual", "--builtin", "example-d1", "--rho", "5"],
                     "rho = 5.0 is used only with use_penalty=True", id="qg-dual-rho-alone"),
        # eb-primal has no penalty variant: either flag would be ignored
        pytest.param(["verify", "eb-primal", "--builtin", "example-d1", "--rho", "5",
                      "--penalty", "--samples", "10"], "--penalty and --rho do not apply",
                     id="eb-primal-rho-penalty"),
        pytest.param(["verify", "eb-primal", "--builtin", "example-d1", "--rho", "5"],
                     "--penalty and --rho do not apply", id="eb-primal-rho"),
        pytest.param(["verify", "eb-primal", "--builtin", "example-d1", "--penalty"],
                     "--penalty and --rho do not apply", id="eb-primal-penalty"),
        # a grid samples no ball: --samples and --radius would be ignored
        pytest.param(["verify", "qg-dual", "--builtin", "example-d1", "--grid", "fig-d1",
                      "--penalty", "--rho", "4", "--samples", "7", "--radius", "0.001"],
                     "samples and ball_radius would be ignored", id="qg-dual-grid-samples-radius"),
        pytest.param(["verify", "qg-dual", "--builtin", "example-d1", "--grid", "fig-d1",
                      "--samples", "7"], "y_grid samples no ball", id="qg-dual-grid-samples"),
        pytest.param(["verify", "qg-dual", "--builtin", "example-d1", "--grid", "fig-d1",
                      "--radius", "2"], "y_grid samples no ball", id="qg-dual-grid-radius"),
        # --rho 0 reaches the verifiers instead of falling back to the default
        pytest.param(["verify", "no-sharp-growth", "--rho", "0"], "rho",
                     id="no-sharp-growth-rho-0"),
        pytest.param(["verify", "penalty-preimage", "--builtin", "example-d1", "--rho", "0"],
                     "rho", id="penalty-preimage-rho-0"),
        pytest.param(["verify", "exact-penalty", "--builtin", "example-d1", "--rho", "0"],
                     "rho", id="exact-penalty-rho-0"),
        pytest.param(["verify", "trace-bound", "--samples", "-5"], "samples",
                     id="trace-bound-samples"),
        pytest.param(["verify", "growth-lemma", "--builtin", "example-d1", "--samples", "0"],
                     "samples", id="growth-lemma-samples"),
        pytest.param(["verify", "qg-primal", "--builtin", "example-d1", "--samples", "-1"],
                     "samples", id="qg-primal-samples"),
        # the preimage check runs on --samples / 100 face points, rounded up
        pytest.param(["verify", "penalty-preimage", "--builtin", "example-d1",
                      "--samples", "-300"], "samples", id="penalty-preimage-samples"),
        pytest.param(["verify", "penalty-preimage", "--builtin", "example-d1",
                      "--samples", "0"], "samples", id="penalty-preimage-samples-0"),
        pytest.param(["verify", "eb-primal", "--builtin", "example-d1", "--radius", "0"],
                     "ball_radius", id="eb-primal-radius"),
        pytest.param(["verify", "no-sharp-growth", "--grid-points", "0"], "--grid-points",
                     id="grid-points"),
        # NaN fails every comparison, so the verifiers test "not rho > threshold"
        pytest.param(["verify", "qg-primal", "--builtin", "example-d1", "--penalty",
                      "--rho", "nan"], "rho", id="qg-primal-rho-nan"),
        pytest.param(["verify", "qg-dual", "--builtin", "example-d1", "--penalty",
                      "--rho", "nan"], "rho", id="qg-dual-rho-nan"),
        pytest.param(["verify", "qg-primal", "--builtin", "example-d1", "--gamma", "nan",
                      "--samples", "10"], "gamma", id="qg-primal-gamma-nan"),
        pytest.param(["verify", "eb-primal", "--builtin", "example-d1", "--alpha", "nan",
                      "--samples", "10"], "alpha", id="eb-primal-alpha-nan"),
        pytest.param(["verify", "no-sharp-growth", "--rho", "nan"], "rho",
                     id="no-sharp-growth-rho-nan"),
        pytest.param(["verify", "penalty-preimage", "--builtin", "example-d1", "--rho", "nan"],
                     "rho", id="penalty-preimage-rho-nan"),
        pytest.param(["verify", "exact-penalty", "--builtin", "example-d1", "--rho", "nan"],
                     "rho", id="exact-penalty-rho-nan"),
        pytest.param(["verify", "growth-lemma", "--builtin", "example-d1", "--mu", "nan"], "mu",
                     id="growth-lemma-mu-nan"),
        # inf passes "rho > threshold"; the verifiers name the argument
        pytest.param(["verify", "penalty-preimage", "--builtin", "example-d1", "--rho", "inf"],
                     "rho must be finite", id="penalty-preimage-rho-inf"),
        pytest.param(["verify", "qg-primal", "--builtin", "example-d1", "--penalty",
                      "--rho", "inf"], "rho must be finite", id="qg-primal-rho-inf"),
        pytest.param(["verify", "qg-dual", "--builtin", "example-d1", "--penalty",
                      "--rho", "inf"], "rho must be finite", id="qg-dual-rho-inf"),
        pytest.param(["verify", "growth-lemma", "--builtin", "example-d1", "--mu", "inf"],
                     "mu must be finite", id="growth-lemma-mu-inf"),
        pytest.param(["verify", "no-sharp-growth", "--rho", "inf"], "rho must be finite",
                     id="no-sharp-growth-rho-inf"),
        pytest.param(["verify", "exact-penalty", "--builtin", "example-d1", "--rho", "inf"],
                     "rho must be finite", id="exact-penalty-rho-inf"),
        pytest.param(["verify", "qg-primal", "--builtin", "example-d1", "--radius", "nan"],
                     "ball_radius", id="qg-primal-radius-nan"),
        pytest.param(["verify", "no-sharp-growth", "--grid-points", "-2"], "--grid-points",
                     id="grid-points-negative"),
        # every command rejects a negative seed under its flag, whether or not
        # the instance draws from it
        pytest.param(["solve", "--builtin", "example-d1", "--seed", "-1"],
                     "--seed must be non-negative, got -1", id="seed-example-d1"),
        pytest.param(["solve", "--builtin", "maxcut-g1-20", "--seed", "-1"],
                     "--seed must be non-negative, got -1", id="seed-maxcut"),
        pytest.param(["solve", "--builtin", "synth", "--form", "dual", "--seed", "-2"],
                     "--seed must be non-negative, got -2", id="seed-synth"),
        pytest.param(["solve", "--builtin", "svm-random", "--form", "ineq", "--seed", "-1"],
                     "--seed must be non-negative, got -1", id="seed-svm"),
        pytest.param(["verify", "trace-bound", "--seed", "-1"],
                     "--seed must be non-negative, got -1", id="seed-trace-bound"),
        pytest.param(["verify", "no-sharp-growth", "--seed", "-1"],
                     "--seed must be non-negative, got -1", id="seed-no-sharp-growth"),
        pytest.param(["bench", "--builtin", "lasso-random", "--form", "ineq", "--r-list", "1",
                      "--seed", "-1"], "--seed must be non-negative, got -1", id="seed-bench"),
        # the flag's value, not the face-point count derived from it
        pytest.param(["verify", "penalty-preimage", "--builtin", "synth", "--samples", "-5"],
                     "--samples must be at least 1, got -5", id="penalty-preimage-samples-flag"),
        pytest.param(["solve"], "provide either --builtin NAME or --sdpa FILE", id="no-instance"),
        pytest.param(["solve", "--builtin", "example-d1", "--form", "ineq"],
                     "--form ineq does not apply to an SDP instance", id="ineq-form-on-sdp"),
        pytest.param(["verify", "qg-dual", "--builtin", "example-d1", "--grid", "nope"],
                     "unknown grid 'nope'", id="unknown-grid"),
        pytest.param(["bench", "--builtin", "example-d1", "--r-list", ","],
                     "--r-list must contain at least one value", id="r-list-empty"),
    ])
    def test_invalid_value_exits_3(self, argv, names, tmp_path, capsys):
        assert run(argv + ["--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and names in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--builtin", "svm-random"],
        ["verify", "qg-primal", "--builtin", "maxcut-g1-20"],
        ["verify", "growth-lemma", "--builtin", "example-d1", "--mu", "-1"],
        ["bench", "--builtin", "svm-random", "--r-list", "1"],
    ], ids=["solve-qp-as-sdp", "verify-uncertified", "verify-negative-mu",
            "bench-qp-as-sdp"])
    def test_rejected_input_leaves_no_out_dir(self, argv, tmp_path):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--builtin", "example-d1"],
        ["verify", "trace-bound", "--samples", "10"],
        ["bench", "--builtin", "example-d1", "--r-list", "1"],
    ], ids=["solve", "verify", "bench"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_at_a_file_exits_3(self, argv, under, tmp_path, capsys, monkeypatch):
        # an --out that is, or lies under, an existing file is rejected, by
        # its path, before any run, and the file is left as it was
        def no_run(*args):
            pytest.fail("ran before --out was checked")

        monkeypatch.setattr(cli, "_run_solver", no_run)
        monkeypatch.setattr(cli, "_run_verifier", no_run)
        path = tmp_path / "F"
        path.write_text("keep\n")
        out = path / "sub" if under else path
        assert run(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert path.read_text() == "keep\n" and sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("text,line", NONFINITE_SDPA)
    def test_nonfinite_sdpa_exits_3(self, text, line, tmp_path, capsys):
        path = tmp_path / "nonfinite.dat-s"
        path.write_text(text)
        assert run(["solve", "--sdpa", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"line {line}: " in err

    # Without the ball sampler's draw cap each of these would loop forever; a
    # child process lets the timeout stop it.
    @pytest.mark.parametrize("argv", [
        ["qg-dual", "--builtin", "example-d1", "--radius", "0"],
        ["qg-primal", "--builtin", "example-d1", "--radius", "1e-20"],
    ], ids=["qg-dual-radius-0", "qg-primal-radius-1e-20"])
    def test_unreachable_ball_exits_3(self, argv, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        done = subprocess.run([sys.executable, "-m", "conic_alm.cli", "verify", *argv,
                               "--out", str(tmp_path)], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 3
        assert done.stderr.startswith("error: ") and "ball_radius" in done.stderr


class TestTraceCells:
    @pytest.mark.parametrize("builtin,form", [("example-d1", "primal"),
                                              ("example-d1", "dual"),
                                              ("lasso-random", "ineq")])
    def test_cells_match_records(self, tmp_path, builtin, form):
        argv = ["solve", "--builtin", builtin, "--form", form, "--out", str(tmp_path)]
        run(argv)
        # the same run in process, for the records behind each row
        args = cli.build_parser().parse_args(argv)
        trace = cli._run_solver(cli._load_instance(args), form, cli._config_from_args(args))
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == len(trace.records)
        for row, rec in zip(rows, trace.records):
            assert row == [cli._fmt(v) for v in expected_row(form, rec)]
        header = lines[1].split(",")
        keys = RESIDUAL_KEYS["ineq" if form == "ineq" else "sdp"]
        assert header[1:header.index("eps3") + 1] == keys
        final = json.loads((tmp_path / "summary.json").read_text())["final_residuals"]
        assert list(final) == keys
        assert final == {key: getattr(trace.final.residuals, key) for key in keys}


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
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["violations"] == 0 and report["samples"] == 2000
        assert report["min_ratio"] >= 1.0 - 1e-9

    @pytest.mark.parametrize("verifier", ["qg-primal", "eb-primal", "qg-dual"])
    def test_ball_defaults(self, verifier, tmp_path):
        # with neither flag given, the ball samplers draw 2000 points within
        # radius 1
        assert run(["verify", verifier, "--builtin", "example-d1", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["samples"] == 2000 and report["params"]["ball_radius"] == 1.0

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

    @pytest.mark.parametrize("samples,face_points", [("99", 1), ("100", 1), ("101", 2),
                                                      ("2000", 20)])
    def test_penalty_preimage_face_points(self, samples, face_points, tmp_path):
        # one face point per 100 samples, rounded up, so the count is monotone
        code = run(["verify", "penalty-preimage", "--builtin", "example-d1",
                    "--samples", samples, "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["face_points"] == report["off_face_points"] == face_points

    def test_eb_primal_synth_n8(self, tmp_path):
        # the unit ball used to be out of the sampler's reach from n = 8 on
        code = run(["verify", "eb-primal", "--builtin", "synth", "--n", "8", "--m", "10",
                    "--rank-x", "3", "--seed", "1", "--samples", "10", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["samples"] == 10 and report["ok"]

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

    def test_repeated_r_list(self, tmp_path, capsys):
        # 1 and 1.0 are one penalty: one solve, two comparison columns
        assert run(["bench", "--builtin", "example-d1", "--r-list", "2,1,1.0",
                    "--out", str(tmp_path / "out")]) == 3
        assert "--r-list repeats 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
