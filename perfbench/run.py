"""Benchmark entry point: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each pass is a fresh process
(``passrun.py``) with OpenBLAS, OpenMP and MKL pinned to one thread, so that
set-up time covers interpreter start, imports and input synthesis, and peak
memory is that of one pass. Passes repeat until ``--seconds`` have elapsed
(at least three). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. A
traced run alternates traced and untraced passes; the untraced ones give
``trace_overhead_frac``. Everything else (sample counts, the machine
manifest, per-pass records, load flags) is printed above that line and
written to ``perfbench/out/``.

Workloads and metrics are described in ``perfbench/README.md``.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MIN_PASSES = 3
# The whole run must end well inside 180 s; no pass starts after this.
DEADLINE_S = 150.0

SPEC = ROOT / "BENCHMARK.json"
# Exact counts that must repeat from pass to pass (determinism check).
EXACT = ("inner.evals", "inner.steps", "alm.outer_iters")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload in BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def machine_manifest():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "thread_env": dict(THREAD_ENV)}


def run_pass(args, traced, index, timeout):
    """Run one pass in a fresh process; return its parsed record or an error."""
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--out-dir", str(OUT_DIR)]
    if traced and index == 0:
        cmd += ["--spans", str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")]
    load = os.getloadavg()[0]
    cmd += ["--spawned-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    record = {"traced": traced, "load_before": load,
              "load_flag": load > (os.cpu_count() or 1)}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=os.environ.copy(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        record["error"] = f"pass timed out after {timeout:.0f} s"
        return record
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        record["error"] = (f"pass exited with {proc.returncode}: "
                           + proc.stderr.strip()[-2000:])
        return record
    record.update(json.loads(lines[-1]))
    return record


def median(values):
    return statistics.median(values) if values else float("nan")


def declared_units(spec, trace):
    """Metric name -> unit, as declared in BENCHMARK.json for this mode."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def summarize(args, passes, units):
    """Aggregate pass records into (result dict, sample counts, flags)."""
    good = [p for p in passes if "error" not in p]
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    n_checks = max((len(p["checks"]) for p in good), default=1)
    attempted = sum(len(p["checks"]) if "checks" in p else n_checks for p in passes)
    failed = sum(sum(not c["ok"] for c in p["checks"]) if "checks" in p else n_checks
                 for p in passes)
    # A flag marked fatal makes the run incorrect; a load flag only warns.
    flags = []
    if len({tuple(p["trace_hashes"]) for p in good}) > 1:
        flags.append((True, "trace.csv hashes differ between passes"))
    for key in EXACT:
        if len({p["layers"][key] for p in traced}) > 1:
            flags.append((True, f"{key} differs between traced passes"))
    for i, p in enumerate(passes):
        if "error" in p:
            flags.append((True, f"pass {i}: {p['error']}"))
        elif p["load_flag"]:
            flags.append((False, f"pass {i} started at load {p['load_before']:.2f} > nproc"))

    metrics, samples = {}, {}
    if args.trace:
        for key in units:
            if key == "trace_overhead_frac":
                vals = ([median([p["wall_rel"] for p in traced])
                         / median([p["wall_rel"] for p in untraced]) - 1.0]
                        if traced and untraced else [])
                n = f"{len(traced)}+{len(untraced)}"
            else:
                vals = [p["layers"][key] for p in traced]
                n = len(vals)
            metrics[key] = median(vals)
            samples[key] = n
    else:
        for key in ("setup_s", "wall_rel", "peak_rss_mb"):
            metrics[key] = median([p[key] for p in good])
            samples[key] = len(good)
        metrics["solved_frac"] = (attempted - failed) / attempted if attempted else 0.0
        samples["solved_frac"] = attempted
        for key in ("eps3_digits", "rate_q_max"):
            metrics[key] = median([p["accuracy"][key] for p in good])
            samples[key] = len(good)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json "
                           f"{sorted(units)}")
    result = {
        "correct": bool(good) and failed == 0 and not any(fatal for fatal, _ in flags),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, samples, flags


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "conic_alm" / "__init__.py").is_file() or not SPEC.is_file():
        sys.exit(f"run.py: no conic_alm sources under {ROOT / 'src'}; "
                 "run from the root of a conic-alm checkout")
    spec = json.loads(SPEC.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"run.py: unknown workload {args.workload!r}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    passes = []
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        n_traced = sum(p["traced"] for p in passes)
        n_plain = len(passes) - n_traced
        if args.trace:
            enough = n_traced >= 2 and n_plain >= 2
            traced = n_traced <= n_plain
        else:
            enough = len(passes) >= MIN_PASSES
            traced = False
        if enough and elapsed >= args.seconds:
            break
        if passes and elapsed + 1.2 * last > DEADLINE_S:
            break
        t = time.monotonic()
        passes.append(run_pass(args, traced, n_traced if traced else n_plain,
                               timeout=max(10.0, DEADLINE_S + 20.0 - elapsed)))
        last = time.monotonic() - t
        if "error" in passes[-1]:
            break

    result, samples, flags = summarize(args, passes, declared_units(spec, args.trace))
    good = [p for p in passes if "error" not in p]
    manifest = machine_manifest()
    if good:
        manifest.update(numpy=good[0]["numpy"], blas=good[0]["blas"])
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "manifest": manifest,
              "flags": [{"fatal": fatal, "flag": flag} for fatal, flag in flags],
              "samples": samples, "result": result, "passes": passes}
    report_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=float) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"nproc={manifest['nproc']} python={manifest['python']} "
          f"numpy={manifest.get('numpy')} blas={manifest.get('blas')} "
          f"threads={','.join(f'{k}={v}' for k, v in THREAD_ENV.items())}")
    for i, p in enumerate(passes):
        print(f"# pass {i}: traced={int(p['traced'])} load_before={p['load_before']:.2f}"
              + (f" wall_s={p['wall_s']:.4f} setup_s={p['setup_s']:.4f}"
                 if "wall_s" in p else f" error={p['error'][:200]}"))
    for key, m in result["metrics"].items():
        print(f"{key:28s} {m['value']:14.6g} {m['unit']:9s} n={samples[key]}")
    for key, values in (("wall_s", [p["wall_s"] for p in good]),
                        ("calibration_s", [t for p in good for t in p["calibration_s"]])):
        print(f"{key:28s} {median(values):14.6g} {'s':9s} n={len(values)}  (not gated)")
    for fatal, flag in flags:
        print(f"# {'FLAG' if fatal else 'WARN'} {flag}")
    print(f"# report: {report_path.relative_to(ROOT)}")
    if not good:
        sys.exit("run.py: no pass completed")
    bad = [k for k, m in result["metrics"].items() if not math.isfinite(m["value"])]
    if bad:
        sys.exit(f"run.py: no finite value for {', '.join(bad)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
