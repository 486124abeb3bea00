"""Command-line entry points: solve, verify, and bench.

``solve`` runs one ALM driver on a builtin or SDPA-file instance and writes
``trace.csv`` (one row per outer iteration) plus ``summary.json`` (final
residuals, fitted rates, the count of uncertified iterations, wall time,
and the reproducibility manifest).
``verify`` runs one of the property verifiers and writes ``report.json``.
``bench`` sweeps the initial penalty over a list of values, writing one trace
per value and a side-by-side CSV of the KKT residual series.

Exit codes: 0 on success/convergence, 2 when the run stopped before reaching
the residual threshold (partial outputs are still written), 3 on input
errors (numeric values that the solver configuration, the instance
synthesizer or a verifier rejects, and an ``--out`` at or under a file,
included). An input error writes nothing: each command checks ``--out``
first and creates it only once its results are computed. Bench
configurations run one after another: the solves hold the GIL, so running
them on threads was measured slower than running them serially.

Traces are deterministic: a summary manifest (instance, config, seed) pins
the run, and repeated runs produce byte-identical ``trace.csv``. The CSV
starts with a versioned comment line, then a header row; floats carry 17
significant digits.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__, fixtures, theory
from .alm import AlmConfig, fit_linear_rate, solve_dual_alm, solve_ineq_alm, \
    solve_primal_alm, truncate_at_floor, verify_ppm_alm_link
from .model import IneqProblem, KnownSolutionInstance, zero_dual
from .sdpa import SdpaFormatError, sdpa_read

TRACE_SCHEMA = "conic-alm-trace-v1"
SUMMARY_SCHEMA = 2

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_INPUT_ERROR = 3

_SDP_COLUMNS = ["k", "eps1", "eps2", "eta1", "eta2", "eta3", "eta4", "eta5", "eps3",
                "r_k", "eps_k", "delta_k", "dist_x", "dist_w", "inner_iterations",
                "gap_certificate", "certified"]
_INEQ_COLUMNS = ["k", "feasibility", "dual_feasibility", "stationarity",
                 "complementarity", "cost_gap", "eps3", "r_k", "eps_k", "delta_k",
                 "dist_x", "inner_iterations", "gap_certificate", "certified"]


# ``solve`` exposes every AlmConfig field except the inner budget as a flag.
_CONFIG_FLAGS = [f for f in fields(AlmConfig) if f.name != "inner_budget"]


class InputError(Exception):
    """Bad command-line input; maps to exit code 3."""


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def write_trace_csv(trace, path):
    columns = _INEQ_COLUMNS if trace.form == "ineq" else _SDP_COLUMNS
    lines = [f"# {TRACE_SCHEMA} form={trace.form}", ",".join(columns)]
    keys = ["r" if c == "r_k" else c for c in columns]
    for rec in trace.records:
        lines.append(",".join(_fmt(rec.lookup(key)) for key in keys))
    Path(path).write_text("\n".join(lines) + "\n")


def _fit_or_none(series, floor=1e-12):
    try:
        fit = fit_linear_rate(truncate_at_floor(series, floor), 0.5)
    except ValueError:
        return None
    return {"rate_q": fit.rate_q, "r_squared": fit.r_squared,
            "n_points": fit.n_points}


def write_summary(trace, path, manifest, wall_time):
    columns = _INEQ_COLUMNS if trace.form == "ineq" else _SDP_COLUMNS
    # the residual columns sit between k and eps3
    residuals = {c: trace.final.lookup(c) for c in columns[1:columns.index("eps3") + 1]}
    rates = {"eps3": _fit_or_none(trace.series("eps3"))}
    dist_w = trace.series("dist_w") if trace.form != "ineq" else np.array([])
    if dist_w.size and np.all(np.isfinite(dist_w)):
        rates["dist_w"] = _fit_or_none(dist_w, floor=1e-9)
    summary = {
        "schema_version": SUMMARY_SCHEMA,
        "trace_schema": TRACE_SCHEMA,
        "manifest": manifest,
        "outer_iterations": len(trace.records),
        "converged": trace.converged,
        "final_residuals": residuals,
        "fitted_rates": rates,
        "uncertified_iterations": sum(not rec.certified for rec in trace.records),
        "wall_time_sec": wall_time,
    }
    Path(path).write_text(json.dumps(summary, indent=2, default=float) + "\n")


def _check_out(path):
    """Reject an ``--out`` at or under an existing file, before any run."""
    first = next((p for p in (Path(path), *Path(path).parents) if p.exists()), None)
    if first is not None and not first.is_dir():
        raise InputError(f"--out {path}: {first} exists and is not a directory")


def _config(**values):
    """AlmConfig from command-line values; a rejected value is an input error."""
    try:
        return AlmConfig(**values)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _config_from_args(args):
    return _config(**{f.name: getattr(args, f.name) for f in _CONFIG_FLAGS})


def _load_instance(args):
    if getattr(args, "sdpa", None):
        path = Path(args.sdpa)
        if not path.exists():
            raise InputError(f"SDPA file not found: {path}")
        try:
            return sdpa_read(path)
        except (SdpaFormatError, ValueError) as exc:
            raise InputError(f"failed to parse {path}: {exc}") from exc
    name = getattr(args, "builtin", None)
    if not name:
        raise InputError("provide either --builtin NAME or --sdpa FILE")
    try:
        return fixtures.load_builtin(name, n=args.n, m=args.m,
                                     rank_x=args.rank_x, seed=args.seed)
    except (KeyError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _run_solver(instance, form, cfg):
    if isinstance(instance, IneqProblem):
        if form != "ineq":
            raise InputError("this instance is a QP with inequalities; use --form ineq")
        return solve_ineq_alm(instance, np.zeros(instance.n_constraints), cfg)
    problem = instance.problem if isinstance(instance, KnownSolutionInstance) else instance
    if form == "primal":
        return solve_primal_alm(instance, zero_dual(problem), cfg)
    if form == "dual":
        return solve_dual_alm(instance, np.zeros((problem.n, problem.n)), cfg)
    raise InputError(f"--form {form} does not apply to an SDP instance")


def cmd_solve(args):
    instance = _load_instance(args)
    cfg = _config_from_args(args)
    manifest = {
        "command": "solve",
        "instance": args.sdpa or args.builtin,
        "form": args.form,
        "config": asdict(cfg),
        "seed": args.seed,
        "synth_params": {"n": args.n, "m": args.m, "rank_x": args.rank_x},
        "artifact_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    start = time.perf_counter()
    trace = _run_solver(instance, args.form, cfg)
    wall = time.perf_counter() - start
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out / "trace.csv")
    write_summary(trace, out / "summary.json", manifest, wall)
    final = trace.final.residuals.eps3
    print(f"{trace.problem_name}: {len(trace.records)} outer iterations, "
          f"eps3 = {final:.3e}, converged = {trace.converged}")
    return EXIT_OK if trace.converged else EXIT_NOT_CONVERGED


def _run_verifier(name, args):
    """Run the verifier ``name`` on the parsed arguments; returns (ok, report)."""
    if name not in ("trace-bound", "no-sharp-growth"):
        inst = _load_instance(args)
        if not isinstance(inst, KnownSolutionInstance):
            raise InputError(f"{name} needs an instance with a certified solution "
                             "(example-d1 or synth)")
    if name == "trace-bound":
        rep = theory.check_trace_bound(samples=args.samples, seed=args.seed)
        ok = len(rep.violated) == 0
        report = {"min_ratio": rep.min_ratio, "violations": len(rep.violated),
                  "samples": rep.sampled_points}
    elif name == "no-sharp-growth":
        if args.grid_points < 1:
            raise InputError(f"--grid-points must be at least 1, got {args.grid_points}")
        grid = np.linspace(0.0, 0.9, args.grid_points)
        rows = theory.no_sharp_growth_curve(grid, rho=4.0 if args.rho is None else args.rho)
        errs = [abs(r.penalty_value - r.closed_form) for r in rows]
        ok = max(errs) <= 1e-10
        report = {"max_closed_form_error": max(errs),
                  "ratios": [r.ratio_upper_bound for r in rows]}
    elif name == "growth-lemma":
        rep = theory.verify_growth_lemma(inst.x_star, inst.z_star, mu=args.mu,
                                         samples=args.samples, seed=args.seed)
        ok = len(rep.violated) == 0
        report = {"kappa": rep.params["kappa"], "min_ratio": rep.min_ratio,
                  "violations": len(rep.violated), "samples": rep.sampled_points}
    elif name in ("qg-primal", "eb-primal", "qg-dual"):
        kwargs = dict(samples=args.samples, seed=args.seed,
                      ball_radius=args.radius)
        if name == "qg-primal":
            rep = theory.verify_qg_primal(inst, gamma=args.gamma,
                                          use_penalty=args.penalty,
                                          rho=args.rho, **kwargs)
        elif name == "eb-primal":
            if args.penalty or args.rho is not None:
                raise InputError("eb-primal has no penalty variant: --penalty and --rho "
                                 "do not apply")
            rep = theory.verify_eb_primal(inst, gamma=args.gamma,
                                          alpha=args.alpha, **kwargs)
        else:
            y_grid = fixtures.GRIDS.get(args.grid) if args.grid else None
            if args.grid and y_grid is None:
                raise InputError(f"unknown grid {args.grid!r}")
            rep = theory.verify_qg_dual(inst, gamma=args.gamma,
                                        use_penalty=args.penalty,
                                        rho=args.rho, y_grid=y_grid, **kwargs)
        ok = len(rep.violated) == 0
        report = {"min_ratio": rep.min_ratio, "violations": len(rep.violated),
                  "samples": rep.sampled_points, "params": rep.params}
    elif name == "penalty-preimage":
        # checked here: the verifier sees the face-point count, not the flag
        if args.samples < 1:
            raise InputError(f"--samples must be at least 1, got {args.samples}")
        rho = float(np.trace(inst.z_star)) + 1.0 if args.rho is None else args.rho
        rep = theory.verify_penalty_preimage(inst.z_star, rho,
                                             samples=-(-args.samples // 100),
                                             seed=args.seed)
        ok = rep.ok
        report = asdict(rep)
    elif name == "exact-penalty":
        rho = 1.1 * float(np.trace(inst.z_star)) + 0.1 if args.rho is None else args.rho
        rep = theory.exact_penalty_equivalence(inst, rho)
        ok = rep.equivalent and rep.subthreshold_detected in (True, None)
        report = asdict(rep)
    elif name == "strict-complementarity":
        rep = theory.check_strict_complementarity(inst.x_star, inst.z_star)
        ok = rep.holds
        report = {"rank_x": rep.rank_x, "rank_z": rep.rank_z, "n": rep.n,
                  "holds": rep.holds}
    elif name == "ppm-alm-link":
        trace = solve_primal_alm(inst, zero_dual(inst.problem),
                                 AlmConfig(max_outer=args.max_outer))
        rep = verify_ppm_alm_link(inst.problem, trace)
        ok = rep.ok
        report = {"iterations": len(rep.rows), "violations": len(rep.violations)}
    return ok, report


def cmd_verify(args):
    name = args.verifier
    try:
        ok, report = _run_verifier(name, args)
    except ValueError as exc:
        # the verifiers reject out-of-range arguments (mu, rho, radius, ...)
        raise InputError(f"{name}: {exc}") from exc
    report["verifier"] = name
    report["ok"] = ok
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=2, default=float) + "\n")
    print(f"{name}: {'ok' if ok else 'VIOLATIONS FOUND'}")
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def cmd_bench(args):
    instance = _load_instance(args)
    try:
        r_values = [float(tok) for tok in args.r_list.split(",") if tok]
    except ValueError as exc:
        raise InputError(f"bad --r-list: {exc}") from exc
    if not r_values:
        raise InputError("--r-list must contain at least one value")
    repeated = sorted({r0 for r0 in r_values if r_values.count(r0) > 1})
    if repeated:
        raise InputError(f"--r-list repeats {', '.join(f'{r0:g}' for r0 in repeated)}")
    configs = {r0: _config(r0=r0, r_growth=args.r_growth, r_max=max(args.r_max, r0),
                           max_outer=args.max_outer, stop_eps3=args.stop_eps3)
               for r0 in r_values}
    traces = {r0: _run_solver(instance, args.form, cfg) for r0, cfg in configs.items()}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for r0, trace in traces.items():
        write_trace_csv(trace, out / f"trace-r{_fmt(r0)}.csv")
    n_rows = max(len(t.records) for t in traces.values())
    header = ["k"] + [f"eps3_r{_fmt(r0)}" for r0 in r_values]
    lines = [f"# {TRACE_SCHEMA} comparison", ",".join(header)]
    for k in range(n_rows):
        lines.append(",".join([str(k)] + [_fmt(t.records[k].residuals.eps3)
                                          if k < len(t.records) else "" for t in traces.values()]))
    (out / "comparison.csv").write_text("\n".join(lines) + "\n")
    for r0 in r_values:
        t = traces[r0]
        print(f"r0={r0:g}: {len(t.records)} iterations, eps3={t.final.residuals.eps3:.3e}")
    return EXIT_OK if all(t.converged for t in traces.values()) else EXIT_NOT_CONVERGED


def _add_instance_args(sub):
    sub.add_argument("--builtin", help="builtin instance name "
                     f"({', '.join(fixtures.SDP_BUILTINS + fixtures.INEQ_BUILTINS)})")
    sub.add_argument("--sdpa", help="path to an SDPA-subset file")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--n", type=int, default=5, help="synth: matrix dimension")
    sub.add_argument("--m", type=int, default=6, help="synth: constraint count")
    sub.add_argument("--rank-x", type=int, default=2, dest="rank_x",
                     help="synth: rank of the primal solution")


def _add_config_args(sub):
    for f in _CONFIG_FLAGS:
        sub.add_argument("--" + f.name.replace("_", "-"), type=f.type, default=f.default)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="conic-alm",
        description="Inexact augmented Lagrangian solvers and property verifiers "
                    "for semidefinite programs.")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="run one ALM driver and write trace files")
    _add_instance_args(solve)
    _add_config_args(solve)
    solve.add_argument("--form", choices=["primal", "dual", "ineq"], default="primal")
    solve.add_argument("--out", default=".")

    verify = subs.add_parser("verify", help="run a property verifier")
    verify.add_argument("verifier", choices=[
        "growth-lemma", "trace-bound", "qg-primal", "eb-primal", "qg-dual",
        "penalty-preimage", "exact-penalty", "strict-complementarity",
        "no-sharp-growth", "ppm-alm-link"])
    _add_instance_args(verify)
    verify.add_argument("--samples", type=int, default=2000,
                        help="sampled points (penalty-preimage: one face point per 100, "
                             "rounded up)")
    verify.add_argument("--mu", type=float, default=1.0)
    verify.add_argument("--gamma", type=float, default=None)
    verify.add_argument("--alpha", type=float, default=None)
    verify.add_argument("--radius", type=float, default=1.0)
    verify.add_argument("--rho", type=float, default=None)
    verify.add_argument("--penalty", action="store_true",
                        help="use the exact-penalty objective variant")
    verify.add_argument("--grid", default=None, help="named grid (e.g. fig-d1)")
    verify.add_argument("--grid-points", type=int, default=10, dest="grid_points")
    verify.add_argument("--max-outer", type=int, default=60, dest="max_outer")
    verify.add_argument("--out", default=".")

    bench = subs.add_parser("bench", help="sweep the initial penalty parameter")
    _add_instance_args(bench)
    bench.add_argument("--form", choices=["primal", "dual", "ineq"], default="primal")
    bench.add_argument("--r-list", required=True, dest="r_list",
                       help="comma-separated penalty values, e.g. 1,5,10")
    # a fixed-penalty sweep: its own growth and target, AlmConfig's cap and budget
    bench.add_argument("--r-growth", type=float, default=1.0, dest="r_growth")
    bench.add_argument("--r-max", type=float, default=AlmConfig.r_max, dest="r_max")
    bench.add_argument("--max-outer", type=int, default=AlmConfig.max_outer, dest="max_outer")
    bench.add_argument("--stop-eps3", type=float, default=1e-5, dest="stop_eps3")
    bench.add_argument("--out", default=".")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"solve": cmd_solve, "verify": cmd_verify, "bench": cmd_bench}
    try:
        _check_out(args.out)
        if args.seed < 0:
            raise InputError(f"--seed must be non-negative, got {args.seed}")
        return handlers[args.command](args)
    except (InputError, SdpaFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
