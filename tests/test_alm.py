"""Outer drivers: convergence, structural identities, the proximal
correspondence, and rate fitting."""

import copy
import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conic_alm.alm import (AlmConfig, fit_linear_rate, solve_dual_alm, solve_ineq_alm,
                           solve_primal_alm, truncate_at_floor, verify_ppm_alm_link)
from conic_alm import alm, auglag
from conic_alm.auglag import primal_objective
from conic_alm.fixtures import load_builtin
from conic_alm.inner import minimize_auglag
from conic_alm.model import (DualPoint, SdpProblem, SparseOperator, apply_A, apply_Astar,
                             maxcut_instance, svm_instance, synth_known_solution, zero_dual)
from conic_alm.symcone import dist_psd, face_basis, frob, inner, project_psd, symmetrize

from conftest import random_sym


def scalar_sdp():
    """min x subject to x = 1, x >= 0 (1x1 SDP)."""
    return SdpProblem(C=np.array([[1.0]]), constraint_mats=np.ones((1, 1, 1)),
                      b=np.array([1.0]), name="scalar")


class TestPrimalDriver:
    def test_toy_instance(self, toy):
        cfg = AlmConfig(stop_eps3=1e-10, max_outer=200)
        trace = solve_primal_alm(toy, zero_dual(toy.problem), cfg)
        assert trace.converged
        assert trace.final.dist_x <= 1e-6
        assert trace.final.dist_w <= 1e-6
        rec = trace.final
        assert abs(np.tensordot(toy.problem.C, rec.X, axes=2)) <= 1e-7

    def test_scalar_sdp(self):
        p = scalar_sdp()
        cfg = AlmConfig(stop_eps3=1e-10)
        trace = solve_primal_alm(p, zero_dual(p), cfg)
        rec = trace.final
        assert rec.X[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert rec.y[0] == pytest.approx(1.0, abs=1e-6)
        assert abs(rec.Z[0, 0]) <= 1e-6

    def test_certified_instance_distances(self):
        inst = synth_known_solution(n=5, m=6, rank_x=2, seed=3)
        cfg = AlmConfig(stop_eps3=1e-8, max_outer=300)
        trace = solve_primal_alm(inst, zero_dual(inst.problem), cfg)
        assert trace.final.dist_x <= 1e-5
        assert trace.final.dist_w <= 1e-5

    def test_rejects_indefinite_Z0(self, toy):
        w0 = DualPoint(y=np.zeros(2), Z=np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            solve_primal_alm(toy, w0)

    def test_dual_iterates_stay_psd(self, toy):
        trace = solve_primal_alm(toy, zero_dual(toy.problem),
                                 AlmConfig(stop_eps3=1e-9))
        for rec in trace.records:
            assert dist_psd(rec.Z) <= 1e-9 * (1.0 + frob(rec.Z))

    def test_affine_step_identity(self):
        # ||A(X_{k+1}) - b|| equals ||y_k - y_{k+1}|| / r_k at every iteration
        inst = synth_known_solution(n=4, m=5, rank_x=2, seed=5)
        p = inst.problem
        trace = solve_primal_alm(inst, zero_dual(p), AlmConfig(max_outer=40))
        y_prev = trace.start_point.y
        for rec in trace.records:
            lhs = float(np.linalg.norm(apply_A(p, rec.X) - p.b))
            rhs = float(np.linalg.norm(y_prev - rec.y)) / rec.r
            assert abs(lhs - rhs) <= 1e-10
            y_prev = rec.y

    def test_cone_step_inequality(self):
        # dist(X_{k+1}, PSD) <= ||Z_k - Z_{k+1}|| / r_k
        inst = synth_known_solution(n=4, m=5, rank_x=2, seed=5)
        trace = solve_primal_alm(inst, zero_dual(inst.problem),
                                 AlmConfig(max_outer=40))
        Z_prev = trace.start_point.Z
        for rec in trace.records:
            assert dist_psd(rec.X) <= frob(Z_prev - rec.Z) / rec.r + 1e-10
            Z_prev = rec.Z

    def test_dual_step_bound(self):
        # ||w_{k+1} - w_k|| <= dist(w_k, solution) / (1 - delta_k) when the
        # iteration certified both criteria and delta_k < 1
        inst = synth_known_solution(n=4, m=4, rank_x=2, seed=9)
        trace = solve_primal_alm(inst, zero_dual(inst.problem),
                                 AlmConfig(max_outer=60, stop_eps3=1e-11))
        for rec in trace.records:
            if rec.certified and rec.delta_k < 1.0:
                bound = rec.dist_w_before / (1.0 - rec.delta_k)
                assert rec.step_norm <= bound + 1e-9

    def test_monotone_tightening_near_convergence(self):
        # the shrinking dual step forces ever tighter subproblem targets
        inst = synth_known_solution(n=4, m=5, rank_x=2, seed=5)
        trace = solve_primal_alm(inst, zero_dual(inst.problem),
                                 AlmConfig(max_outer=40, stop_eps3=1e-11))
        targets = [(rec.delta_k * rec.step_norm) ** 2 / (2 * rec.r)
                   for rec in trace.records if rec.certified]
        assert len(targets) >= 4
        assert all(b < a for a, b in zip(targets[1:], targets[2:]))


class TestGroundTruth:
    @pytest.mark.parametrize("form", ["primal", "dual"])
    def test_distances_only_with_known_solution(self, form):
        # ground truth enters as the instance itself and leaves the iterates alone
        inst = synth_known_solution(n=4, m=4, rank_x=2, seed=2)
        assert inst.primal_unique and inst.dual_unique
        solve, start = ((solve_primal_alm, zero_dual(inst.problem)) if form == "primal"
                        else (solve_dual_alm, np.zeros((4, 4))))
        cfg = AlmConfig(max_outer=5)
        known = solve(inst, start, cfg)
        bare = solve(inst.problem, start, cfg)
        assert len(known.records) == len(bare.records) == 5
        for a, b in zip(known.records, bare.records):
            assert a.dist_x is not None and a.dist_w is not None
            assert a.dist_w_before is not None
            assert b.dist_x is None and b.dist_w is None and b.dist_w_before is None
            assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("form", ["primal", "dual"])
    def test_distance_before_matches_previous_record(self, form):
        # the multiplier before step k is the one recorded at k - 1, and both
        # distances come from the instance's one method, so they agree bit
        # for bit; the first is the start's
        inst = synth_known_solution(n=4, m=4, rank_x=2, seed=2)
        if form == "primal":
            trace = solve_primal_alm(inst, zero_dual(inst.problem), AlmConfig(max_outer=8))
            first, after = inst.dist_dual(trace.start_point), "dist_w"
        else:
            trace = solve_dual_alm(inst, np.eye(4), AlmConfig(max_outer=8))
            first, after = inst.dist_primal(trace.start_point), "dist_x"
        assert trace.records[0].dist_w_before == first
        for prev, rec in zip(trace.records, trace.records[1:]):
            assert rec.dist_w_before == getattr(prev, after)


class TestDualDriver:
    def test_toy_instance(self, toy):
        cfg = AlmConfig(stop_eps3=1e-10, max_outer=200)
        trace = solve_dual_alm(toy, np.zeros((2, 2)), cfg)
        assert trace.final.dist_x <= 1e-6
        assert np.linalg.norm(trace.final.y) <= 1e-6

    def test_certified_instance(self):
        # n = 5, rank 3 needs at least 6 constraints for a unique primal
        # solution (the solution face has dimension 6)
        inst = synth_known_solution(n=5, m=7, rank_x=3, seed=13)
        assert inst.primal_unique and inst.dual_unique
        cfg = AlmConfig(stop_eps3=1e-9, max_outer=300)
        trace = solve_dual_alm(inst, np.zeros((5, 5)), cfg)
        assert trace.final.dist_x <= 1e-5
        assert np.linalg.norm(trace.final.y - inst.y_star) <= 1e-5

    def test_fixed_point_at_solution(self):
        # one exact outer step from X* stays at X* (the multiplier update is
        # a fixed point there)
        inst = synth_known_solution(n=4, m=4, rank_x=2, seed=21)
        p = inst.problem
        X_next = project_psd(symmetrize(
            inst.x_star - 1.7 * (p.C - apply_Astar(p, inst.y_star))))
        assert frob(X_next - inst.x_star) <= 1e-10

    def test_multiplier_iterates_stay_psd(self, toy):
        trace = solve_dual_alm(toy, np.zeros((2, 2)), AlmConfig(stop_eps3=1e-9))
        for rec in trace.records:
            assert dist_psd(rec.X) <= 1e-9 * (1.0 + frob(rec.X))

    def test_slack_affine_feasible(self, toy):
        # Z_k = C - A*(y_k) by construction, so eta3 vanishes identically
        trace = solve_dual_alm(toy, np.zeros((2, 2)), AlmConfig(stop_eps3=1e-9))
        for rec in trace.records:
            assert rec.residuals.eta3 <= 1e-14

    def test_rejects_indefinite_X0(self, toy):
        with pytest.raises(ValueError):
            solve_dual_alm(toy, np.diag([1.0, -1.0]))


class TestIneqDriver:
    def test_scalar_toy(self):
        # min x^2/2 subject to 1 - x <= 0: optimum x = 1 with multiplier 1
        q_prob = svm_instance(np.array([[1.0]]), np.array([1.0]), lam=1.0)
        # build the toy directly instead: Q = [[1]], G = [[-1]], h = [1]
        from conic_alm.model import IneqProblem
        q = IneqProblem(Q=np.array([[1.0]]), c=np.zeros(1), G=np.array([[-1.0]]),
                        h=np.array([1.0]), name="toy1d")
        trace = solve_ineq_alm(q, np.zeros(1), AlmConfig(stop_eps3=1e-10))
        assert trace.final.x[0] == pytest.approx(1.0, abs=1e-7)
        assert trace.final.z[0] == pytest.approx(1.0, abs=1e-6)

    def test_unconstrained(self):
        # without constraints the run degenerates to a single inner solve
        from conic_alm.model import IneqProblem
        q = IneqProblem(Q=np.eye(2), c=np.array([-1.0, 2.0]),
                        G=np.zeros((0, 2)), h=np.zeros(0), name="free")
        trace = solve_ineq_alm(q, np.zeros(0), AlmConfig(stop_eps3=1e-10))
        assert_allclose(trace.final.x, [1.0, -2.0], atol=1e-8)
        assert len(trace.records) == 1

    def test_svm_kkt_point(self):
        q = svm_instance(np.array([[1.0]]), np.array([1.0]), lam=1.0)
        trace = solve_ineq_alm(q, np.zeros(2), AlmConfig(stop_eps3=1e-8),
                               x_star=np.array([-1.0, 0.0]), f_star=0.5)
        assert trace.final.dist_x <= 1e-6
        assert trace.final.residuals.cost_gap <= 1e-7

    def test_multipliers_stay_nonnegative(self):
        q = svm_instance(np.array([[1.0], [-2.0]]), np.array([1.0, -1.0]), lam=0.5)
        trace = solve_ineq_alm(q, np.zeros(4), AlmConfig(stop_eps3=1e-8))
        for rec in trace.records:
            assert np.all(rec.z >= 0)

    def test_svm_random_tight_tolerance(self):
        # Newton subproblem solves reach eps3 = 1e-8 on svm-random (110
        # variables, 200 rows), where gradient steps stalled near 7e-7
        q = load_builtin("svm-random")
        trace = solve_ineq_alm(q, np.zeros(q.n_constraints),
                               AlmConfig(stop_eps3=1e-8, max_outer=60))
        assert trace.converged
        assert trace.final.residuals.eps3 <= 1e-8

    def test_rejects_negative_z0(self):
        q = svm_instance(np.array([[1.0]]), np.array([1.0]), lam=1.0)
        with pytest.raises(ValueError):
            solve_ineq_alm(q, np.array([-1.0, 0.0]))

    def test_feasibility_bound(self):
        # constraint violations are bounded by the multiplier step over r
        q = svm_instance(np.array([[1.0], [-2.0]]), np.array([1.0, -1.0]), lam=0.5)
        trace = solve_ineq_alm(q, np.zeros(4), AlmConfig(max_outer=30))
        z_prev = trace.start_point
        for rec in trace.records:
            viol = np.maximum(q.constraints(rec.x), 0.0)
            bound = np.linalg.norm(z_prev - rec.z) / rec.r
            assert np.max(viol, initial=0.0) <= bound + 1e-10
            z_prev = rec.z


FORMS = ["primal", "dual", "ineq"]


def form_run(form):
    """The solver of one form with its problem and start point: primal and
    dual on a certified 4x4 SDP, ineq on lasso-random."""
    if form == "ineq":
        q = load_builtin("lasso-random")
        return solve_ineq_alm, q, np.zeros(q.n_constraints)
    inst = synth_known_solution(n=4, m=4, rank_x=2, seed=2)
    if form == "primal":
        return solve_primal_alm, inst, zero_dual(inst.problem)
    return solve_dual_alm, inst, np.zeros((4, 4))


# every builtin solve: the QPs in inequality form, max-cut in both SDP forms
BUILTIN_RUNS = [("svm-random", "ineq"), ("lasso-random", "ineq"),
                *[(f"maxcut-g{i}-20", form) for i in (1, 2, 3) for form in ("primal", "dual")]]


def builtin_run(name, form):
    """The solver of ``form`` with builtin ``name`` and its zero start point."""
    problem = load_builtin(name)
    solve, start = {"primal": (solve_primal_alm, zero_dual),
                    "dual": (solve_dual_alm, lambda p: np.zeros((p.n, p.n))),
                    "ineq": (solve_ineq_alm, lambda q: np.zeros(q.n_constraints))}[form]
    return solve, problem, start(getattr(problem, "problem", problem))


def multiplier(form, point):
    """The multiplier of a record (or of a start point) as one flat vector."""
    if form == "primal":
        return np.concatenate([point.y, point.Z.ravel()])
    if form == "dual":
        return (point if isinstance(point, np.ndarray) else point.X).ravel()
    return point if isinstance(point, np.ndarray) else point.z


class TestAllForms:
    @pytest.mark.parametrize("form", FORMS)
    def test_certified_iterations_satisfy_criteria(self, form):
        # certification holds while the targets stay above the attainable
        # floor; every certified record must satisfy both criteria literally
        # with the step it recorded, and that step is the distance between
        # consecutive recorded multipliers
        solve, problem, start = form_run(form)
        trace = solve(problem, start, AlmConfig(max_outer=30))
        w_prev = multiplier(form, trace.start_point)
        for rec in trace.records:
            if rec.certified:
                assert rec.gap_certificate <= rec.eps_k ** 2 / (2 * rec.r)
                assert rec.gap_certificate <= (rec.delta_k * rec.step_norm) ** 2 / (2 * rec.r)
            w = multiplier(form, rec)
            assert rec.step_norm == pytest.approx(np.linalg.norm(w - w_prev), rel=1e-12)
            w_prev = w
        assert all(rec.certified for rec in trace.records[:5])


def array_holders(toy):
    """One object of each type that holds arrays, by type name."""
    p, q = toy.problem, load_builtin("lasso-random")
    primal = solve_primal_alm(toy, zero_dual(p), AlmConfig(max_outer=2))
    ineq = solve_ineq_alm(q, np.zeros(q.n_constraints), AlmConfig(max_outer=2))
    objects = [p, zero_dual(p), toy, q, primal, primal.final, ineq.final,
               alm._OuterRecord(k=0, r=1.0, eps_k=1.0, delta_k=0.5, inner_iterations=0,
                                gap_certificate=0.0, certified=True, step_norm=0.0,
                                residuals=primal.final.residuals),
               minimize_auglag(primal_objective(p, zero_dual(p), 1.0), np.zeros((2, 2)), 1e-8,
                               diameter_bound=10.0),
               face_basis(toy.z_star)]
    return {type(obj).__name__: obj for obj in objects}


ARRAY_HOLDERS = ["SdpProblem", "DualPoint", "KnownSolutionInstance", "IneqProblem",
                 "AlmTrace", "IterationRecord", "IneqIterationRecord", "_OuterRecord",
                 "InnerResult", "FaceBasis"]


class TestOwnedArrays:
    @pytest.mark.parametrize("name", ARRAY_HOLDERS)
    def test_compares_and_hashes_by_identity(self, toy, name):
        # a generated == would compare the arrays, which have no single truth
        # value, and a generated hash would hash them
        a = array_holders(toy)[name]
        b = copy.copy(a)
        assert a == a and a != b
        assert hash(a) == hash(a) and a in [b, a]

    @staticmethod
    def arrays(point):
        """The arrays of a record, a DualPoint or a start point."""
        if isinstance(point, np.ndarray):
            return [point]
        return [v for v in vars(point).values() if isinstance(v, np.ndarray)]

    @pytest.mark.parametrize("form", FORMS)
    def test_records_and_start_point_are_read_only(self, form):
        solve, problem, start = form_run(form)
        trace = solve(problem, start, AlmConfig(max_outer=3))
        held = [a for rec in trace.records for a in self.arrays(rec)]
        assert len(held) == len(trace.records) * (2 if form == "ineq" else 3)
        for a in held + self.arrays(trace.start_point):
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 1.0

    @pytest.mark.parametrize("form", FORMS)
    def test_records_keep_the_arrays_the_loop_built(self, form, monkeypatch):
        # the record holds its solve's minimizer and multiplier step, not copies
        results = []

        def capture(*args, **kwargs):
            results.append(minimize_auglag(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(alm, "minimize_auglag", capture)
        solve, problem, start = form_run(form)
        trace = solve(problem, start, AlmConfig(max_outer=3))
        assert len(results) == len(trace.records) == 3
        for rec, result in zip(trace.records, results):
            x, w, _ = result.update
            assert x is result.minimizer
            if form == "primal":
                assert rec.X is x and rec.y is w.y and rec.Z is w.Z
            elif form == "dual":
                assert rec.y is x and rec.X is w
            else:
                assert rec.x is x and rec.z is w

    @pytest.mark.parametrize("form", FORMS)
    def test_start_point_is_a_copy_of_the_callers(self, form):
        # the caller's start, changed after the call, leaves start_point as it was
        solve, problem, start = form_run(form)
        trace = solve(problem, start, AlmConfig(max_outer=1))
        before = [a.copy() for a in self.arrays(trace.start_point)]
        for a in self.arrays(start):
            a += 1.0
        after = self.arrays(trace.start_point)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))
        assert not any(np.shares_memory(x, y) for x in self.arrays(start) for y in after)


ONE_SOLVE_RUNS = [("svm-random", "ineq"), ("maxcut-g1-20", "primal"),
                  ("maxcut-g1-20", "dual")]


class TestOneSolvePerSubproblem:
    """Each subproblem gets one inner solve, which stops at its own multiplier step."""

    @pytest.mark.parametrize("name,form", ONE_SOLVE_RUNS)
    def test_one_inner_solve_per_outer_iteration(self, name, form, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return minimize_auglag(*args, **kwargs)

        monkeypatch.setattr(alm, "minimize_auglag", counted)
        solve, problem, start = builtin_run(name, form)
        trace = solve(problem, start, AlmConfig(stop_eps3=1e-5))
        assert trace.converged
        assert len(calls) == len(trace.records)

    @pytest.mark.parametrize("name,form", [*ONE_SOLVE_RUNS, ("synth", "primal"),
                                           ("synth", "dual")])
    def test_multiplier_step_formulas(self, name, form):
        # the step the oracle hands over is, bit for bit, the textbook update
        # at the recorded iterate, on the sparse (max-cut) and dense (synth)
        # operators; so is the step norm criterion B measured
        solve, problem, start = builtin_run(name, form)
        trace = solve(problem, start, AlmConfig(stop_eps3=1e-5))
        p = getattr(problem, "problem", problem)
        w = trace.start_point
        for rec in trace.records:
            r = rec.r
            if form == "primal":
                y = w.y + r * (p.b - apply_A(p, rec.X))
                Z = project_psd(symmetrize(w.Z - r * rec.X))
                new = np.concatenate([y, Z.ravel()])
                step = float(np.sqrt(np.sum((y - w.y) ** 2) + np.sum((Z - w.Z) ** 2)))
                w = DualPoint(y=rec.y, Z=rec.Z)
            elif form == "dual":
                new = project_psd(symmetrize(w - r * (p.C - apply_Astar(p, rec.y))))
                step = frob(new - w)
                w = rec.X
            else:
                new = np.maximum(w + r * p.constraints(rec.x), 0.0)
                step = float(np.linalg.norm(new - w))
                w = rec.z
            assert new.tobytes() == multiplier(form, rec).tobytes()
            assert step == rec.step_norm


@pytest.mark.parametrize("name,run", [
    pytest.param("w0.y", lambda p, q: solve_primal_alm(
        p, DualPoint(y=np.full(p.m, np.nan), Z=np.zeros((p.n, p.n)))), id="nan-y"),
    pytest.param("w0.y", lambda p, q: solve_primal_alm(
        p, DualPoint(y=np.zeros((p.m, 1)), Z=np.zeros((p.n, p.n)))), id="2d-y"),
    pytest.param("w0.y", lambda p, q: solve_primal_alm(
        p, DualPoint(y=np.zeros(p.m + 1), Z=np.zeros((p.n, p.n)))), id="long-y"),
    pytest.param("w0.Z", lambda p, q: solve_primal_alm(
        p, DualPoint(y=np.zeros(p.m), Z=np.zeros((p.n + 1, p.n + 1)))), id="big-Z"),
    pytest.param("w0.Z", lambda p, q: solve_primal_alm(
        p, DualPoint(y=np.zeros(p.m), Z=np.diag([1.0, -1.0]))), id="indefinite-Z"),
    pytest.param("X0", lambda p, q: solve_dual_alm(p, np.zeros((p.n + 1, p.n + 1))),
                 id="big-X0"),
    pytest.param("X0", lambda p, q: solve_dual_alm(p, np.full((p.n, p.n), np.nan)),
                 id="nan-X0"),
    pytest.param("X0", lambda p, q: solve_dual_alm(p, np.diag([1.0, -1.0])),
                 id="indefinite-X0"),
    pytest.param("z0", lambda p, q: solve_ineq_alm(q, np.zeros(q.n_constraints + 1)),
                 id="long-z0"),
    pytest.param("z0", lambda p, q: solve_ineq_alm(q, np.full(q.n_constraints, np.nan)),
                 id="nan-z0"),
    pytest.param("z0", lambda p, q: solve_ineq_alm(q, np.full(q.n_constraints, np.inf)),
                 id="inf-z0"),
    pytest.param("z0", lambda p, q: solve_ineq_alm(q, -np.ones(q.n_constraints)),
                 id="negative-z0"),
])
def test_rejects_bad_start_point(name, run, toy):
    # a bad start point fails before the first solve, with a message that
    # names it, instead of as a broadcast error or a non-finite inner solve
    q = svm_instance(np.array([[1.0]]), np.array([1.0]), lam=1.0)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must"):
        run(toy.problem, q)


class TestNewtonSteps:
    @pytest.mark.parametrize("name,form", BUILTIN_RUNS)
    def test_evaluations_per_step(self, name, form, monkeypatch):
        # damped Newton steps take the unit step or one halving on almost
        # every step, also where the value stops resolving descent; every
        # solve descends (g.d > 0), so the inner solver's gradient-step guard
        # never runs on the library's own objectives
        evals, slopes = [], []
        factory = getattr(auglag, f"{form}_objective")

        def counted_factory(*args):
            value_and_grad = factory(*args)

            def oracle(x):
                evals.append(None)
                value, grad, solve, update = value_and_grad(x)

                def spied(g):
                    d = solve(g)
                    slopes.append(float(np.vdot(g, d).real))
                    return d

                return value, grad, spied, update

            return oracle

        monkeypatch.setattr(auglag, f"{form}_objective", counted_factory)
        solve, problem, start = builtin_run(name, form)
        trace = solve(problem, start, AlmConfig(stop_eps3=1e-5))
        assert trace.converged
        assert len(evals) <= 2 * sum(rec.inner_iterations for rec in trace.records)
        assert slopes and all(np.isfinite(slope) and slope > 0 for slope in slopes)

    def test_primal_oracle_is_exactly_symmetric(self, rng):
        # on a dense operator A*(u) and proj_psd come from GEMMs, which can
        # round a matrix off symmetry; update()'s Z is the next multiplier,
        # and check_dual_point rejects a Z that is not exactly symmetric
        p = load_builtin("synth").problem
        assert not isinstance(p.operator, SparseOperator)
        for r in (0.5, 1.0, 8.0):
            w = DualPoint(y=rng.standard_normal(p.m), Z=project_psd(random_sym(rng, p.n)))
            for _ in range(5):
                _, grad, _, update = primal_objective(p, w, r)(random_sym(rng, p.n))
                assert np.array_equal(grad, grad.T)
                Z = update()[1].Z
                assert np.array_equal(Z, Z.T)

    @pytest.mark.parametrize("n,m,rank_x,seed", [(3, 3, 1, 100), (6, 8, 3, 103)])
    def test_uncertified_solves_end_at_the_floor(self, n, m, rank_x, seed):
        # acceptance instances 0 and 3 in the C3 setting: once criterion B's
        # target sinks below what ||g|| D can reach, ||g|| sits at its
        # rounding floor two Newton steps in, and the value-floor window ends
        # the solve there; a 25-iteration window took 27 and 28 steps
        inst = synth_known_solution(n=n, m=m, rank_x=rank_x, seed=seed)
        trace = solve_primal_alm(inst, zero_dual(inst.problem),
                                 AlmConfig(r_growth=1.0, max_outer=100, stop_eps3=1e-13,
                                           inner_budget=400))
        uncertified = [rec.inner_iterations for rec in trace.records if not rec.certified]
        assert len(trace.records) == 100 and len(uncertified) >= 50
        assert max(uncertified) <= 10

    def test_c3_solve_steps(self):
        # the C3-shaped CLI solve (synth seed 100, n = 3, r = 1, 100 outer
        # iterations, every one of which runs): an uncertified solve ends at
        # the first iterate whose certificate ||g|| D is within the value's
        # resolution; running on until the value-floor window took 324 steps
        inst = synth_known_solution(n=3, m=3, rank_x=1, seed=100)
        trace = solve_primal_alm(inst, zero_dual(inst.problem),
                                 AlmConfig(r_growth=1.0, max_outer=100, stop_eps3=1e-13))
        assert len(trace.records) == 100
        assert sum(rec.inner_iterations for rec in trace.records) <= 280

    @pytest.mark.parametrize("name,outer", [("maxcut-g1-20", 11), ("maxcut-g2-20", 11),
                                            ("maxcut-g3-20", 10)])
    def test_primal_steps(self, name, outer):
        # a regularization that does not shrink with the relative residual
        # crawls on the first subproblems: rho = r min(1, ||G||) took 140,
        # 146 and 124 steps here, the law rho = r min(1, nu)^2 takes 63
        problem = load_builtin(name)
        trace = solve_primal_alm(problem, zero_dual(problem),
                                 AlmConfig(stop_eps3=1e-5))
        assert len(trace.records) == outer
        assert trace.records[-1].residuals.eps3 <= 1e-5
        assert sum(rec.inner_iterations for rec in trace.records) <= 90

    @pytest.mark.parametrize("name,form,outer", [
        ("maxcut-g1-20", "dual", 9), ("maxcut-g2-20", "dual", 6), ("maxcut-g3-20", "dual", 14),
        ("svm-random", "ineq", 18), ("lasso-random", "ineq", 18)])
    def test_outer_counts(self, name, form, outer):
        solve, problem, start = builtin_run(name, form)
        trace = solve(problem, start, AlmConfig(stop_eps3=1e-5))
        assert trace.converged and len(trace.records) == outer

    def test_no_zero_step_subsolves(self):
        # a start point within criterion A's loose early target used to be
        # returned unimproved once B's target sank to the floor: seven such
        # subsolves in a row walked the multipliers away (eps3 from 2.8e-10
        # up to 1.1e-8) and the solve took 16 outer iterations
        problem = load_builtin("maxcut-g2-20")
        trace = solve_dual_alm(problem, np.zeros((problem.n, problem.n)),
                               AlmConfig(stop_eps3=1e-10))
        assert trace.converged and len(trace.records) <= 8
        assert min(rec.inner_iterations for rec in trace.records) > 0

    def test_maxcut_80_vertices(self):
        # the scaling point: a unit-weight graph on 80 vertices at the 6 %
        # edge density of Gset G1, where the Newton systems use only the
        # rank X* block of the rotated stack
        n = 80
        rng = np.random.default_rng(10)
        iu = np.triu_indices(n, 1)
        pick = rng.choice(iu[0].size, size=round(0.06 * iu[0].size), replace=False)
        W = np.zeros((n, n))
        W[iu[0][pick], iu[1][pick]] = 1.0
        p = maxcut_instance(W + W.T)
        cfg = AlmConfig(stop_eps3=1e-5)
        primal = solve_primal_alm(p, zero_dual(p), cfg)
        dual = solve_dual_alm(p, np.zeros((n, n)), cfg)
        assert primal.converged and dual.converged
        value = inner(p.C, primal.final.X)
        assert inner(p.C, dual.final.X) == pytest.approx(value, rel=1e-4)


class TestAlmConfig:
    @pytest.mark.parametrize("name", ["r0", "r_growth", "r_max", "eps0", "delta0", "decay",
                                      "stop_eps3"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_float_field(self, name, value):
        # every check after this one is a comparison, which NaN passes
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            AlmConfig(**{name: value})

    @pytest.mark.parametrize("name", ["max_outer", "inner_budget"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_rejects_non_integer_count(self, name, value):
        # 2.5 once failed only in range(); True ran one iteration
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            AlmConfig(**{name: value})

    def test_accepts_numpy_integer_counts(self):
        cfg = AlmConfig(max_outer=np.int64(3), inner_budget=np.int32(7))
        assert (cfg.max_outer, cfg.inner_budget) == (3, 7)


class TestPenaltyEffect:
    def test_larger_r_improves_early_feasibility(self):
        # larger penalties push affine feasibility down faster early on
        inst = synth_known_solution(n=5, m=6, rank_x=2, seed=17)
        traces = {}
        for r0 in (0.5, 2.0):
            cfg = AlmConfig(r0=r0, r_growth=1.0, max_outer=6, stop_eps3=1e-14)
            traces[r0] = solve_primal_alm(inst, zero_dual(inst.problem), cfg)
        eta1_small = traces[0.5].records[5].residuals.eta1
        eta1_large = traces[2.0].records[5].residuals.eta1
        assert eta1_large < eta1_small


class TestPpm:
    def test_matches_alm_dual_iterates_on_sdp(self, toy):
        # the proximal map of the negative dual function is the multiplier
        # update at the exact subproblem minimizer; with tight inner solves
        # the two trajectories coincide
        p = toy.problem
        cfg = AlmConfig(eps0=1e-6, delta0=1e-6, r_growth=1.0, max_outer=8,
                        stop_eps3=1e-14)
        trace = solve_primal_alm(toy, zero_dual(p), cfg)

        def prox(wvec, c):
            w = DualPoint(y=wvec[:p.m], Z=wvec[p.m:].reshape(p.n, p.n))
            obj = primal_objective(p, w, c)
            res = minimize_auglag(obj, np.zeros((p.n, p.n)), tol=1e-13,
                                  max_iter=30000, diameter_bound=20.0)
            y_new = w.y + c * (p.b - apply_A(p, res.minimizer))
            Z_new = project_psd(symmetrize(w.Z - c * res.minimizer))
            return np.concatenate([y_new, Z_new.ravel()])

        w = np.zeros(p.m + p.n * p.n)
        for k, rec_alm in enumerate(trace.records):
            w = prox(w, cfg.penalty(k))
            w_alm = np.concatenate([rec_alm.y, rec_alm.Z.ravel()])
            assert np.linalg.norm(w - w_alm) <= 1e-4


class TestPpmAlmLink:
    def test_no_violations_on_clean_run(self):
        inst = synth_known_solution(n=4, m=4, rank_x=2, seed=31)
        trace = solve_primal_alm(inst, zero_dual(inst.problem),
                                 AlmConfig(max_outer=25, stop_eps3=1e-10))
        report = verify_ppm_alm_link(inst.problem, trace)
        assert report.ok
        assert len(report.rows) == len(trace.records)

    def test_loose_inner_tolerance_still_holds(self):
        inst = synth_known_solution(n=4, m=4, rank_x=2, seed=37)
        cfg = AlmConfig(eps0=5.0, delta0=0.9, max_outer=20, stop_eps3=1e-10)
        trace = solve_primal_alm(inst, zero_dual(inst.problem), cfg)
        report = verify_ppm_alm_link(inst.problem, trace)
        assert report.ok

    def test_adversarial_perturbation_flagged(self, toy):
        trace = solve_primal_alm(toy, zero_dual(toy.problem),
                                 AlmConfig(max_outer=10, stop_eps3=1e-10))
        rec = trace.records[1]
        trace.records[1] = dataclasses.replace(rec, y=rec.y + 1.0)
        report = verify_ppm_alm_link(toy.problem, trace)
        assert not report.ok
        assert any(row.k == 1 for row in report.violations)

    def test_requires_primal_trace(self, toy):
        trace = solve_dual_alm(toy, np.zeros((2, 2)), AlmConfig(max_outer=5))
        with pytest.raises(ValueError):
            verify_ppm_alm_link(toy.problem, trace)

    def test_takes_the_instance_or_its_problem(self, toy):
        trace = solve_primal_alm(toy, zero_dual(toy.problem), AlmConfig(max_outer=5))
        assert verify_ppm_alm_link(toy, trace) == verify_ppm_alm_link(toy.problem, trace)


class TestRateFit:
    def test_exact_geometric(self):
        series = 8.0 * 0.5 ** np.arange(30)
        fit = fit_linear_rate(series, tail_fraction=1.0)
        assert fit.rate_q == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        fit = fit_linear_rate(np.ones(10), tail_fraction=1.0)
        assert fit.rate_q == pytest.approx(1.0)
        assert fit.r_squared == 1.0

    def test_alm_distance_series(self):
        inst = synth_known_solution(n=4, m=5, rank_x=2, seed=41)
        cfg = AlmConfig(r_growth=1.0, max_outer=80, stop_eps3=1e-13)
        trace = solve_primal_alm(inst, zero_dual(inst.problem), cfg)
        series = truncate_at_floor(trace.series("dist_w"), 1e-9)
        fit = fit_linear_rate(series, tail_fraction=0.5)
        assert fit.rate_q < 1.0
        assert fit.r_squared >= 0.9

    def test_rejects_short_or_nonpositive(self):
        with pytest.raises(ValueError):
            fit_linear_rate([1.0, 0.5], tail_fraction=1.0)
        with pytest.raises(ValueError):
            fit_linear_rate([1.0, -0.5, 0.2], tail_fraction=1.0)

    @pytest.mark.parametrize("tail_fraction", [0.0, -0.5, 1.5, np.nan])
    def test_rejects_tail_fraction_outside_unit_interval(self, tail_fraction):
        with pytest.raises(ValueError, match=r"tail_fraction must lie in \(0, 1\]"):
            fit_linear_rate(np.ones(10), tail_fraction=tail_fraction)

    def test_truncate_at_floor(self):
        s = np.array([1.0, 0.1, 1e-10, 0.5])
        assert_allclose(truncate_at_floor(s, 1e-9), [1.0, 0.1])
        assert_allclose(truncate_at_floor(s, 1e-12), s)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlmConfig(r0=0.0)
        with pytest.raises(ValueError):
            AlmConfig(r_growth=0.9)
        with pytest.raises(ValueError):
            AlmConfig(decay=1.0)
        with pytest.raises(ValueError):
            AlmConfig(r_max=0.5, r0=1.0)
        for budget in (0, -5):
            with pytest.raises(ValueError, match="inner_budget"):
                AlmConfig(inner_budget=budget)

    @pytest.mark.parametrize("name", ["eps0", "delta0"])
    def test_rejects_negative_schedule_start(self, name):
        # a negative start would only fail inside the first criterion check
        with pytest.raises(ValueError, match=name):
            AlmConfig(**{name: -0.5})

    def test_penalty_schedule_capped(self):
        cfg = AlmConfig(r0=1.0, r_growth=2.0, r_max=5.0)
        assert cfg.penalty(0) == 1.0
        assert cfg.penalty(10) == 5.0

    def test_penalty_past_float_range_is_the_cap(self):
        # 10.0 ** 309 raises OverflowError; the schedule sits at the cap there
        cfg = AlmConfig(r_growth=10.0)
        assert cfg.penalty(309) == cfg.penalty(10_000) == cfg.r_max
        assert AlmConfig().penalty(10_000) == AlmConfig().r_max
        # below the cap every value keeps its bits
        assert [AlmConfig().penalty(k) for k in range(20)] == [min(1.4 ** k, 100.0)
                                                               for k in range(20)]

    @pytest.mark.parametrize("name,form", BUILTIN_RUNS)
    def test_default_growth_takes_no_more_outer_iterations(self, name, form):
        # the default growth against x1.25, at the default target
        solve, problem, start = builtin_run(name, form)
        fast = solve(problem, start, AlmConfig())
        slow = solve(problem, start, AlmConfig(r_growth=1.25))
        assert fast.converged and fast.final.residuals.eps3 <= AlmConfig().stop_eps3
        assert len(fast.records) <= len(slow.records)
