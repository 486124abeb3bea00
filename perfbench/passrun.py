"""One benchmark pass in a fresh process; prints one JSON line on stdout.

Started by ``run.py`` with BLAS pinned to one thread. The pass sets up the
workload's inputs, runs the timed solves or verifications, checks every
output with numpy, writes each solve's trace.csv with the CLI writer and
hashes it, and, when traced, reduces its spans to per-layer numbers and runs
the layer microbenchmarks.

    python3 perfbench/passrun.py --workload NAME --seed N --trace 0|1 \
        --spawned-ns NS --out-dir DIR [--spans FILE]
"""

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
# Golub & Van Loan, Matrix Computations, symmetric QR with eigenvectors.
EIGH_FLOPS_PER_N3 = 9


def _now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-ns", type=int, required=True,
                    help="CLOCK_MONOTONIC time at which the parent started this process")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--spans", default=None, help="write the raw spans to this .npz")
    return ap.parse_args(argv)


def calibrate():
    """Seconds taken by a fixed numpy and Python kernel that calls no library code.

    The host's speed changes by up to 1.8x for stretches of a second to over
    half a minute. This kernel, run twice before and twice after the timed
    work in the same process, measures the speed the pass ran at. It does
    the kinds of work the solvers do: dispatch-bound small eigh and
    tensordot calls, a 40 x 40 eigh, and plain Python arithmetic.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.standard_normal((6, 6))
    small = small + small.T
    mats = rng.standard_normal((8, 6, 6))
    big = rng.standard_normal((40, 40))
    big = big + big.T
    t = time.perf_counter()
    acc = 0.0
    for _ in range(2500):
        lam, Q = np.linalg.eigh(small)
        P = (Q * np.maximum(lam, 0.0)) @ Q.T
        acc += float(np.tensordot(mats, P, axes=([1, 2], [0, 1]))[0])
    for _ in range(150):
        acc += float(np.linalg.eigvalsh(big)[0])
    total = 0
    for i in range(750_000):
        total += i * i % 7
    return time.perf_counter() - t


def micro_us(fn, *args):
    """Median microseconds per call over 15 batches of about 2 ms each."""
    fn(*args)
    t = time.perf_counter()
    fn(*args)
    batch = max(1, int(2e-3 / max(time.perf_counter() - t, 1e-7)))
    samples = []
    for _ in range(15):
        t = time.perf_counter()
        for _ in range(batch):
            fn(*args)
        samples.append((time.perf_counter() - t) / batch)
    samples.sort()
    return samples[len(samples) // 2] * 1e6


def microbenchmarks(wl):
    """Per-call cost of the layer kernels at the workload's own sizes.

    Operation and byte counts are computed from the shapes, not measured.
    """
    import numpy as np
    from conic_alm import auglag, model, symcone

    p, q = wl.micro_sdp(), wl.micro_qp()
    n, m = p.n, p.m
    rng = np.random.default_rng(0)
    X = symcone.symmetrize(rng.standard_normal((n, n)))
    y = rng.standard_normal(m)
    P = symcone.project_psd(X)
    x = rng.standard_normal(q.dim)
    z = np.abs(rng.standard_normal(q.n_constraints))
    timings = {
        "symcone.project_psd_us": micro_us(symcone.project_psd, X),
        "model.apply_A_us": micro_us(model.apply_A, p, X),
        "model.apply_Astar_us": micro_us(model.apply_Astar, p, y),
        "auglag.eval_us.primal": micro_us(
            auglag.primal_objective(p, model.DualPoint(y=y, Z=P), 1.0), X),
        "auglag.eval_us.dual": micro_us(auglag.dual_objective(p, P, 1.0), y),
        "auglag.eval_us.ineq": micro_us(auglag.ineq_objective(q, z, 1.0), x),
    }
    computed = {
        "sdp_n": n, "sdp_m": m, "qp_dim": q.dim, "qp_rows": q.n_constraints,
        "project_psd_flops": EIGH_FLOPS_PER_N3 * n**3 + 2 * n**3,
        "project_psd_bytes": 8 * 3 * n * n,
        "apply_A_flops": 2 * m * n * n,
        "apply_A_bytes": 8 * (m * n * n + n * n + m),
        "eval_primal_flops": EIGH_FLOPS_PER_N3 * n**3 + 2 * n**3 + 4 * m * n * n,
        "eval_dual_flops": EIGH_FLOPS_PER_N3 * n**3 + 2 * n**3 + 4 * m * n * n,
        "eval_ineq_flops": 2 * q.dim**2 + 4 * q.n_constraints * q.dim,
    }
    return timings, computed


def layer_metrics(tracer, wl, results):
    """Per-layer numbers of one traced pass (span totals, self times, counts)."""
    summary = tracer.summary()

    def total(prefix):
        return sum(v["total_s"] for k, v in summary.items() if k.startswith(prefix))

    def self_time(prefix):
        return sum(v["self_s"] for k, v in summary.items() if k.startswith(prefix))

    counts = tracer.counts
    records = [rec for res in results if res.trace is not None for rec in res.trace.records]
    evals, steps, calls = counts["auglag.evals"], counts["inner.steps"], counts["inner.calls"]
    metrics = {
        "inner.evals": evals,
        "inner.steps": steps,
        "inner.evals_per_step": evals / steps if steps else float("nan"),
        "inner.self_s": self_time("inner."),
        "inner.converged_frac": counts["inner.converged"] / calls if calls else float("nan"),
        "inner.budget_exits": counts["inner.budget_exits"],
        "auglag.eval_s": total("auglag.eval."),
        "model.operator_mb": wl.operator_bytes() / 1e6,
        "model.residuals_s": total("model.residuals"),
        "model.build_s": total("model.build"),
        "alm.outer_iters": len(records),
        "alm.subsolves": calls,
        "alm.certified_frac": (sum(rec.certified for rec in records) / len(records)
                               if records else float("nan")),
        "alm.self_s": self_time("alm."),
        "cli.write_trace_s": total("cli.write_trace"),
    }
    layers = sorted({k.split(".")[0] for k in summary})
    extra = {
        "layer_self_s": {layer: self_time(layer + ".") for layer in layers},
        "spans": summary,
        "symcone.project_psd_s": total("symcone.project_psd"),
        "alm.ppm_link_s": total("alm.ppm_link"),
        "sdpa.read_s": total("sdpa.read"),
        "sdpa.bytes": wl.sdpa_bytes,
    }
    for name, v in summary.items():
        if name.startswith("theory."):
            extra[name + "_s"] = v["total_s"]
        if name.startswith("auglag.eval."):
            extra[name.replace("eval.", "eval_us_in_situ.")] = 1e6 * v["total_s"] / v["calls"]
    return metrics, extra


def blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def main(argv=None):
    args = parse_args(argv)
    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        sys.exit(f"passrun: {', '.join(unpinned)} must be 1 before numpy is imported")
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))

    import resource
    import tempfile

    import numpy as np

    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"passrun: unknown workload {args.workload!r}")
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="pass-") as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp),
                                                span=tracer.span if tracer else None)
        wl.setup()
        setup_s = (_now_ns() - args.spawned_ns) / 1e9
        calibration = [calibrate(), calibrate()]
        t = time.perf_counter()
        results = wl.run()
        wall_s = time.perf_counter() - t
        calibration += [calibrate(), calibrate()]
        checked = wl.check(results)
        hashes = [hashlib.sha256(path.read_bytes()).hexdigest()
                  for path in workloads.write_traces(results, Path(tmp))]
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calibration_s": calibration,
        "wall_rel": wall_s / (sum(calibration) / len(calibration)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": [{"label": label, "ok": bool(ok), **detail}
                   for label, ok, detail in checked],
        "accuracy": wl.accuracy([detail for _, _, detail in checked]),
        "trace_hashes": hashes,
        "numpy": np.__version__,
        "blas": blas_info(np),
    }
    if tracer:
        tracer.uninstall()
        metrics, extra = layer_metrics(tracer, wl, results)
        timings, computed = microbenchmarks(wl)
        metrics.update(timings)
        extra["computed"] = computed
        out["layers"] = metrics
        out["layers_extra"] = extra
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(out, default=float))


if __name__ == "__main__":
    main()
