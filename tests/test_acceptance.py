"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria with wall-clock budgets assert them via perf_counter.
"""

import dataclasses
import time

import numpy as np
import pytest

from conic_alm.alm import (AlmConfig, fit_linear_rate, pre_floor_window,
                           solve_dual_alm, solve_ineq_alm, solve_primal_alm,
                           verify_ppm_alm_link)
from conic_alm.auglag import (eval_L_dual, eval_L_ineq, eval_L_primal,
                              grad_L_dual_y, grad_L_ineq_x, grad_L_primal_X,
                              grad_L_primal_w)
from conic_alm.fixtures import (GRIDS, maxcut_fixture, svm_fixture,
                                toy_rank1_instance)
from conic_alm.model import (DualPoint, apply_A, apply_Astar, svm_instance,
                             synth_known_solution, zero_dual)
from conic_alm.symcone import (dist_psd, frob, inner, moreau_split, project_psd,
                               symmetrize)
from conic_alm.theory import (check_trace_bound, exact_penalty_equivalence,
                              no_sharp_growth_curve, verify_growth_lemma,
                              verify_qg_dual)

from oracles import fd_grad_sym, fd_grad_vec

# instance shapes for the convergence study: n -> (m, rank_x), chosen inside
# the window that makes both solution sets singletons
RATE_SHAPES = {3: (3, 1), 4: (5, 2), 5: (6, 2), 6: (8, 3), 7: (9, 3), 8: (12, 4)}


@pytest.fixture(scope="module")
def rate_traces():
    """20 certified instances (n in 3..8) solved at fixed penalty r = 1."""
    out = []
    cfg = AlmConfig(r_growth=1.0, max_outer=100, stop_eps3=1e-13,
                    inner_budget=400)
    for i in range(20):
        n = 3 + i % 6
        m, rank_x = RATE_SHAPES[n]
        inst = synth_known_solution(n=n, m=m, rank_x=rank_x, seed=100 + i)
        assert inst.primal_unique and inst.dual_unique
        trace = solve_primal_alm(inst, zero_dual(inst.problem), cfg)
        out.append((inst, trace))
    return out


def test_c01_toy_instance_exactness():
    inst = toy_rank1_instance()
    start = time.perf_counter()
    cfg = AlmConfig(stop_eps3=1e-10, max_outer=200)
    tp = solve_primal_alm(inst, zero_dual(inst.problem), cfg)
    td = solve_dual_alm(inst, np.zeros((2, 2)), cfg)
    elapsed = time.perf_counter() - start
    for trace in (tp, td):
        assert len(trace.records) <= 200
        rec = trace.final
        assert frob(rec.X - inst.x_star) <= 1e-6
        dw = np.sqrt(np.sum((rec.y - inst.y_star) ** 2)
                     + frob(rec.Z - inst.z_star) ** 2)
        assert dw <= 1e-6
        assert abs(inner(inst.problem.C, rec.X)) <= 1e-7
    assert elapsed < 5.0
    print(f"\nACCEPTANCE C1 PASS: both forms reach the exact solution "
          f"(primal {len(tp.records)} its, dual {len(td.records)} its, "
          f"{elapsed:.2f}s)")


def test_c02_kkt_residual_floor():
    cfg = AlmConfig(stop_eps3=1e-5, max_outer=500)
    names = []
    for g in ("maxcut-g1-20", "maxcut-g2-20", "maxcut-g3-20"):
        p = maxcut_fixture(g)
        start = time.perf_counter()
        trace = solve_primal_alm(p, zero_dual(p), cfg)
        elapsed = time.perf_counter() - start
        assert trace.converged and len(trace.records) <= 500
        assert trace.final.residuals.eps3 <= 1e-5
        assert elapsed < 60.0
        fit = fit_linear_rate(pre_floor_window(trace.series("eps3")),
                              tail_fraction=0.8)
        assert fit.rate_q < 1.0
        names.append(f"{g}:{len(trace.records)}its/{elapsed:.1f}s")
    q = svm_fixture(m=100, d=10, lam=1.0)
    start = time.perf_counter()
    trace = solve_ineq_alm(q, np.zeros(q.n_constraints), cfg)
    elapsed = time.perf_counter() - start
    assert trace.converged and len(trace.records) <= 500
    assert trace.final.residuals.eps3 <= 1e-5
    assert elapsed < 60.0
    names.append(f"svm:{len(trace.records)}its/{elapsed:.1f}s")
    print(f"\nACCEPTANCE C2 PASS: eps3 <= 1e-5 on {', '.join(names)}")


def test_c03_linear_convergence(rate_traces):
    worst_r2 = 1.0
    worst_q = 0.0
    for inst, trace in rate_traces:
        scale = inst.w_star.norm()
        dw = pre_floor_window(trace.series("dist_w"), scale)
        e3 = pre_floor_window(trace.series("eps3"), scale)
        fw = fit_linear_rate(dw, tail_fraction=0.5)
        f3 = fit_linear_rate(e3, tail_fraction=0.5)
        assert fw.rate_q < 1.0 and fw.r_squared >= 0.9
        assert f3.rate_q < 1.0 and f3.r_squared >= 0.9
        worst_r2 = min(worst_r2, fw.r_squared, f3.r_squared)
        worst_q = max(worst_q, fw.rate_q, f3.rate_q)
        # squared primal distance bounded by a constant times dual distance:
        # the ratio series must not blow up late in the run
        dx = trace.series("dist_x")
        dwb = trace.series("dist_w_before")
        mask = dwb > max(1e-9, 1e-7 * (1.0 + scale))
        ratios = dx[mask] ** 2 / dwb[mask]
        head = max(1, int(len(ratios) * 0.75))
        tau_hat = float(ratios[:head].max())
        late = float(ratios[head:].max()) if len(ratios) > head else 0.0
        assert np.isfinite(tau_hat)
        assert late <= 10.0 * tau_hat
    print(f"\nACCEPTANCE C3 PASS: 20 instances, all fits q < 1 "
          f"(worst q = {worst_q:.4f}, worst r^2 = {worst_r2:.4f}), "
          f"tau ratio bounded")


def test_c04_ppm_alm_inequality():
    cfg = AlmConfig(max_outer=25, stop_eps3=1e-10)
    total_rows = 0
    for seed in range(5):
        inst = synth_known_solution(n=4 + seed % 2, m=5 + seed % 2, rank_x=2,
                                    seed=300 + seed)
        trace = solve_primal_alm(inst, zero_dual(inst.problem), cfg)
        report = verify_ppm_alm_link(inst.problem, trace)
        assert report.ok, f"violations at {[r.k for r in report.violations]}"
        total_rows += len(report.rows)
    # adversarial control: a corrupted multiplier step must be flagged
    inst = synth_known_solution(n=4, m=5, rank_x=2, seed=300)
    trace = solve_primal_alm(inst, zero_dual(inst.problem), cfg)
    rec = trace.records[1]
    trace.records[1] = dataclasses.replace(rec, y=rec.y + 1.0)
    bad = verify_ppm_alm_link(inst.problem, trace)
    assert not bad.ok
    print(f"\nACCEPTANCE C4 PASS: proximal-step inequality holds at all "
          f"{total_rows} iterations over 5 runs; adversarial control flagged")


def test_c05_structural_identities(rate_traces):
    checked = 0
    for inst, trace in rate_traces:
        p = inst.problem
        y_prev = trace.start_point.y
        for rec in trace.records:
            lhs = float(np.linalg.norm(apply_A(p, rec.X) - p.b))
            rhs = float(np.linalg.norm(y_prev - rec.y)) / rec.r
            assert abs(lhs - rhs) <= 1e-10
            assert dist_psd(rec.Z) <= 1e-9 * (1.0 + frob(rec.Z))
            y_prev = rec.y
            checked += 1
    print(f"\nACCEPTANCE C5 PASS: multiplier-step identity within 1e-10 and "
          f"Z PSD within 1e-9 at all {checked} iterations")


def test_c06_quadratic_growth_reproduction():
    inst = toy_rank1_instance()
    rep = verify_qg_dual(inst, use_penalty=True, rho=4.0, y_grid=GRIDS["fig-d1"])
    assert len(rep.violated) == 0
    assert rep.min_ratio >= 0.3
    rows = no_sharp_growth_curve(np.arange(0.0, 1.0, 0.05))
    max_err = max(abs(r.penalty_value - r.closed_form) for r in rows)
    assert max_err <= 1e-10
    ratios = [r.ratio_upper_bound for r in rows]
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))
    print(f"\nACCEPTANCE C6 PASS: penalized-dual growth ratio "
          f"{rep.min_ratio:.3f} >= 0.3 on the grid; curve matches the closed "
          f"form to {max_err:.1e}")


def test_c07_growth_lemma_explicit_constant():
    start = time.perf_counter()
    inst = toy_rank1_instance()
    rep = verify_growth_lemma(inst.x_star, inst.z_star, mu=1.0, samples=10000,
                              seed=0)
    assert rep.params["kappa"] == pytest.approx(2.0 / 7.0)
    assert len(rep.violated) == 0
    rng = np.random.default_rng(77)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, n))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d1 = rng.uniform(0.5, 2.0, r)
        d2 = rng.uniform(0.5, 2.0, n - r)
        xbar = symmetrize((Q[:, :r] * d1) @ Q[:, :r].T)
        zbar = symmetrize((Q[:, r:] * d2) @ Q[:, r:].T)
        pair_rep = verify_growth_lemma(xbar, zbar, mu=1.0, samples=1000,
                                       seed=trial)
        assert len(pair_rep.violated) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE C7 PASS: explicit-constant growth holds on 10^4 toy "
          f"samples (kappa = 2/7) and 10 random pairs ({elapsed:.1f}s)")


def test_c08_trace_bound():
    rep = check_trace_bound(samples=10000, n_range=(2, 8), seed=1)
    assert len(rep.violated) == 0
    print(f"\nACCEPTANCE C8 PASS: block trace bound holds on "
          f"{rep.sampled_points} random PSD splits")


def test_c09_exact_penalty_equivalence():
    inst = toy_rank1_instance()
    rep = exact_penalty_equivalence(inst, rho=4.0)
    assert rep.dist_to_solution <= 1e-5
    assert rep.subthreshold_detected
    for seed in range(5):
        inst = synth_known_solution(n=4 + seed % 2, m=5 + seed % 2, rank_x=2,
                                    seed=400 + seed)
        rho = 1.1 * float(np.trace(inst.z_star))
        rep = exact_penalty_equivalence(inst, rho)
        assert rep.dist_to_solution <= 1e-5
        assert rep.subthreshold_detected
    print("\nACCEPTANCE C9 PASS: penalized minimizer matches x_star within "
          "1e-5 on 6 instances; sub-threshold penalties detected")


def test_c10_kernel_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(9)

    def rand_sym(n, scale=1.0):
        return symmetrize(rng.standard_normal((n, n))) * scale

    # projection idempotence and Moreau identity, 1000 draws each
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        X = rand_sym(n, float(rng.uniform(0.5, 5.0)))
        P = project_psd(X)
        assert frob(project_psd(P) - P) <= 1e-10 * (1.0 + frob(X))
        Pm, Nm = moreau_split(X)
        tol = 1e-8 * (1.0 + frob(X) ** 2)
        assert frob(X - (Pm - Nm)) <= tol
        assert abs(inner(Pm, Nm)) <= tol

    # adjoint identity, 1000 draws
    inst = synth_known_solution(n=5, m=6, rank_x=2, seed=7)
    p = inst.problem
    for _ in range(1000):
        X = rand_sym(p.n)
        y = rng.standard_normal(p.m)
        lhs = float(apply_A(p, X) @ y)
        rhs = inner(X, apply_Astar(p, y))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + frob(X) * float(np.linalg.norm(y)))

    # analytic gradients against central finite differences, 100 points per
    # operation at 1e-5 relative accuracy
    q = svm_instance(rng.standard_normal((6, 3)), rng.choice([-1.0, 1.0], 6),
                     lam=0.8)
    for _ in range(100):
        X = rand_sym(p.n)
        w = DualPoint(y=rng.standard_normal(p.m), Z=rand_sym(p.n))
        r = float(rng.uniform(0.3, 3.0))
        g = grad_L_primal_X(p, X, w, r)
        fd = fd_grad_sym(lambda M: eval_L_primal(p, symmetrize(M), w, r), X)
        assert frob(g - fd) <= 1e-5 * (1.0 + frob(fd))
        gy, gZ = grad_L_primal_w(p, X, w, r)
        fd_y = fd_grad_vec(lambda v: eval_L_primal(p, X, DualPoint(y=v, Z=w.Z), r), w.y)
        fd_Z = fd_grad_sym(
            lambda M: eval_L_primal(p, X, DualPoint(y=w.y, Z=symmetrize(M)), r), w.Z)
        assert np.linalg.norm(gy - fd_y) <= 1e-5 * (1.0 + np.linalg.norm(fd_y))
        assert frob(gZ - fd_Z) <= 1e-5 * (1.0 + frob(fd_Z))
        gd = grad_L_dual_y(p, w.y, project_psd(X), r)
        fd_d = fd_grad_vec(lambda v: eval_L_dual(p, v, project_psd(X), r), w.y)
        assert np.linalg.norm(gd - fd_d) <= 1e-5 * (1.0 + np.linalg.norm(fd_d))
        x = rng.standard_normal(q.dim)
        z = np.abs(rng.standard_normal(q.n_constraints))
        gi = grad_L_ineq_x(q, x, z, r)
        fd_i = fd_grad_vec(lambda v: eval_L_ineq(q, v, z, r), x)
        assert np.linalg.norm(gi - fd_i) <= 1e-5 * (1.0 + np.linalg.norm(fd_i))

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE C10 PASS: kernel property suites "
          f"(idempotence, Moreau, adjoint, finite differences) in "
          f"{elapsed:.1f}s")
