"""Inner solver: certificates, monotone descent, criteria arithmetic."""

import numpy as np
import pytest
from hypothesis import given

from conic_alm.auglag import ineq_objective, primal_objective
from conic_alm.fixtures import lasso_fixture, load_builtin
from conic_alm.inner import (InnerSolveError, check_criterion_A, check_criterion_B,
                             minimize_auglag)
from conic_alm.model import DualPoint
from conic_alm.symcone import frob

from conftest import ineq_subproblems, random_sym


def no_update():
    return None


def quadratic_target(T):
    """0.5 ||X - T||^2 with its exact Newton solve (the Hessian is I)."""
    def value_and_grad(X):
        d = X - T
        return 0.5 * float(np.sum(d * d)), d, lambda g: g, no_update
    return value_and_grad


class TestMinimizeAuglag:
    def test_quadratic_converges_to_target(self, rng):
        T = random_sym(rng, 4)
        obj = quadratic_target(T)
        res = minimize_auglag(obj, np.zeros((4, 4)), tol=1e-10, diameter_bound=20.0)
        assert res.converged
        assert frob(res.minimizer - T) <= 1e-9

    def test_gap_bound_dominates_true_gap(self, rng):
        # on the quadratic the true gap is computable exactly
        T = random_sym(rng, 4)
        obj = quadratic_target(T)
        values_and_bounds = []

        def spy(X):
            v, g, solve, update = obj(X)
            values_and_bounds.append((v, frob(g) * 20.0))
            return v, g, solve, update

        minimize_auglag(spy, np.zeros((4, 4)), tol=1e-8, diameter_bound=20.0)
        for v, bound in values_and_bounds:
            true_gap = v - 0.0
            assert bound >= true_gap - 1e-12

    def test_monotone_descent(self, rng, certified5):
        p = certified5.problem
        for _ in range(10):
            w = DualPoint(y=rng.standard_normal(p.m), Z=random_sym(rng, p.n))
            obj = primal_objective(p, w, 1.0)
            values = []

            def spy(X):
                # a solve runs once per accepted point (and the start point),
                # so the solve calls give the values along the accepted path
                value, grad, solve, update = obj(X)
                return value, grad, lambda g: values.append(value) or solve(g), update

            res = minimize_auglag(spy, np.zeros((p.n, p.n)), tol=1e-5, diameter_bound=50.0)
            assert res.converged
            assert len(values) >= 2
            diffs = np.diff(values)
            assert np.all(diffs <= 1e-12)

    def test_subproblem_value_below_p_star(self, toy):
        # min_X L_r(X, w) <= p* for any multipliers; check at w = (0, C), r = 1
        w = DualPoint(y=np.zeros(2), Z=toy.problem.C)
        obj = primal_objective(toy.problem, w, 1.0)
        res = minimize_auglag(obj, np.zeros((2, 2)), tol=1e-10, diameter_bound=20.0)
        assert res.converged
        assert res.value <= toy.p_star + 1e-9
        assert res.grad_norm * 20.0 <= 1e-10

    def test_certificate_sound_against_reference(self, rng, certified5):
        # gap bound at the accepted iterate dominates the reference-estimated
        # true gap from a 10x tighter solve
        p = certified5.problem
        for trial in range(5):
            w = DualPoint(y=rng.standard_normal(p.m) * 0.5,
                          Z=random_sym(rng, p.n, 0.5))
            obj = primal_objective(p, w, 1.0)
            res = minimize_auglag(obj, np.zeros((p.n, p.n)), tol=1e-6,
                                  diameter_bound=50.0)
            ref = minimize_auglag(obj, res.minimizer, tol=1e-7,
                                  max_iter=30000, diameter_bound=50.0)
            true_gap_est = res.value - ref.value
            assert res.gap_upper_bound >= true_gap_est - 1e-12

    def test_nonfinite_abort(self):
        def bad(X):
            return np.inf, np.zeros_like(X), lambda g: g, no_update

        with pytest.raises(InnerSolveError):
            minimize_auglag(bad, np.zeros((2, 2)), tol=1e-6, diameter_bound=1.0)

    @pytest.mark.parametrize("bad", ["value", "gradient"])
    def test_nonfinite_mid_solve_names_the_iteration(self, bad):
        # half Newton steps on 0.5 ||x||^2 pass the Armijo test at t = 1, so
        # evaluation k + 2 is the first trial of iteration k; from the fourth
        # on the objective is poisoned, and the halvings cannot escape it
        calls = []

        def obj(x):
            calls.append(1)
            value, grad = 0.5 * float(x @ x), x.copy()
            if len(calls) >= 4:
                if bad == "value":
                    value = np.nan
                else:
                    grad[0] = np.nan
            return value, grad, lambda g: 0.5 * g, no_update

        with pytest.raises(InnerSolveError, match="non-finite values at iteration 2 "):
            minimize_auglag(obj, np.ones(3), tol=1e-12, diameter_bound=1.0)

    @pytest.mark.parametrize("at", ["start", "mid-solve"])
    @pytest.mark.parametrize("part,bad", [
        *[pytest.param("value", kind(v), id=f"value-{kind.__name__}-{v}")
          for kind in (float, np.float64) for v in ("nan", "inf", "-inf")],
        *[pytest.param("gradient", float(v), id=f"gradient-{v}") for v in ("nan", "inf", "-inf")],
    ])
    def test_nonfinite_raises(self, part, bad, at):
        # the loop tests a Python float or an np.float64 value and every
        # gradient entry; mid-solve, evaluation 4 is iteration 2's first trial
        calls = []

        def obj(x):
            calls.append(1)
            value, grad = 0.5 * float(x @ x), x.copy()
            if len(calls) >= (1 if at == "start" else 4):
                if part == "value":
                    value = bad
                else:
                    grad[0] = bad
            return value, grad, lambda g: 0.5 * g, no_update

        match = "at the start point" if at == "start" else "at iteration 2 "
        with pytest.raises(InnerSolveError, match=match):
            minimize_auglag(obj, np.ones(3), tol=1e-12, diameter_bound=1.0)

    def test_requires_diameter(self):
        # a NaN or infinite diameter would give a NaN certificate
        for diameter in (None, 0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="diameter_bound"):
                minimize_auglag(quadratic_target(np.zeros((2, 2))), np.zeros((2, 2)),
                                tol=1e-6, diameter_bound=diameter)

    def test_requires_positive_tol(self):
        # with tol = NaN even the exact minimizer would not count as converged
        for tol in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="tol"):
                minimize_auglag(quadratic_target(np.zeros((2, 2))), np.zeros((2, 2)),
                                tol=tol, diameter_bound=1.0)

    def test_convergence_flag_matches_certificate(self, rng):
        # the reported flag must agree with the certificate arithmetic,
        # whether or not the impossible tolerance was reached
        T = random_sym(rng, 3)
        W = np.abs(random_sym(rng, 3)) + 0.5

        def obj(X):
            d = W * (X - T)
            return 0.5 * float(np.sum(d * (X - T))), d, lambda g: g / W, no_update

        res = minimize_auglag(obj, np.zeros((3, 3)), tol=1e-30,
                              diameter_bound=10.0, max_iter=5000)
        assert res.gap_upper_bound == pytest.approx(res.grad_norm * 10.0)
        assert res.converged == (res.gap_upper_bound <= 1e-30)

    def test_iteration_cap_reports_unconverged(self, rng, certified5):
        p = certified5.problem
        w = DualPoint(y=rng.standard_normal(p.m), Z=random_sym(rng, p.n))
        res = minimize_auglag(primal_objective(p, w, 1.0), np.zeros((p.n, p.n)),
                              tol=1e-12, diameter_bound=50.0, max_iter=3)
        assert not res.converged
        assert res.iterations <= 3
        assert res.gap_upper_bound > 1e-12


class TestStopTest:
    """``accept`` extends the tolerance test; the result carries its point's update."""

    def objective(self):
        q = lasso_fixture()
        z = np.ones(q.n_constraints)
        return q, z, ineq_objective(q, z, 10.0)

    def test_runs_past_the_tolerance_until_accept(self):
        q, z, obj = self.objective()
        plain = minimize_auglag(obj, np.zeros(q.dim), tol=1e-3, diameter_bound=50.0)
        seen = []
        res = minimize_auglag(obj, np.zeros(q.dim), tol=1e-3, diameter_bound=50.0,
                              accept=lambda cand: seen.append(cand)
                              or cand.gap_upper_bound <= 1e-9)
        # accept sees the points that pass the tolerance, from the one where
        # the plain solve stops, and the solve stops at the first it accepts
        assert seen[0].minimizer.tobytes() == plain.minimizer.tobytes()
        assert len(seen) >= 2 and res is seen[-1] and res.converged
        assert all(cand.gap_upper_bound <= 1e-3 for cand in seen)
        assert res.gap_upper_bound <= 1e-9 < seen[-2].gap_upper_bound
        x, z_new, step = res.update
        assert x is res.minimizer
        assert z_new.tobytes() == np.maximum(z + 10.0 * q.constraints(x), 0.0).tobytes()
        assert step == float(np.linalg.norm(z_new - z))

    def test_unaccepted_solve_returns_its_best_iterate(self):
        # no point is accepted: the solve ends at another exit and returns the
        # iterate of least gradient norm, with that iterate's own update
        q, z, obj = self.objective()
        seen = []
        res = minimize_auglag(obj, np.zeros(q.dim), tol=1e-3, diameter_bound=50.0,
                              accept=lambda cand: seen.append(cand) and False)
        assert not res.converged and seen
        assert res.grad_norm == min(cand.grad_norm for cand in seen)
        x, z_new, _ = res.update
        assert x.tobytes() == res.minimizer.tobytes()
        assert z_new.tobytes() == np.maximum(z + 10.0 * q.constraints(x), 0.0).tobytes()


class TestNullMoveReplay:
    """A null move ends the solve: searching again from the same x replays it."""

    def test_newton_null_move_ends_the_solve(self):
        # K/2 ||x - T||^2 with K = 1e20 and Newton steps of 0.4 times the
        # distance to T: x walks in whole ulps of T = 1 while every descent
        # stays resolvable in the value, and from one ulp away the unit step
        # is 0.4 ulp, so every trial x - t*d of the last search rounds to x
        T, K = np.ones(3), 1e20
        events = []

        def spy(x):
            events.append(("eval", x.tobytes()))
            point = x.tobytes()
            return (0.5 * K * float((x - T) @ (x - T)), K * (x - T),
                    lambda g: events.append(("solve", point)) or 0.4 * g / K, no_update)

        res = minimize_auglag(spy, T + 2.0 ** -30, tol=1e-8, max_iter=400, diameter_bound=1.0)
        solves = [point for kind, point in events if kind == "solve"]
        assert not res.converged
        assert np.array_equal(res.minimizer, T + np.spacing(1.0))
        # one solve at the start and at each accepted point
        assert 5 <= res.iterations == len(solves) - 1 < 400
        # the last search evaluates only the null move onto the last accepted x
        last_search = events[events.index(("solve", solves[-1])) + 1:]
        assert len(last_search) >= 2
        assert all(event == ("eval", solves[-1]) for event in last_search)

    def test_linear_objective_runs_to_max_iter(self):
        # constant gradient, unbounded below: every step descends by the same
        # amount and ||g|| never shrinks, so only max_iter ends the loop
        c = np.array([1.0, -2.0, 0.5])
        res = minimize_auglag(lambda x: (float(c @ x), c.copy(), lambda g: g, no_update),
                              np.zeros(3), tol=1e-8, max_iter=300, diameter_bound=1.0)
        assert not res.converged
        assert res.iterations == 300


class TestNewton:
    @given(ineq_subproblems())
    def test_reaches_gradient_floor(self, case):
        # Newton on the piecewise-quadratic subproblem is a finite active-set
        # method: from a random start it drives ||g|| to 1e-9 in a few dozen
        # steps, where gradient descent needs thousands at r = 100
        q, z, r, rng = case
        res = minimize_auglag(ineq_objective(q, z, r), rng.standard_normal(q.dim),
                              tol=1e-9, diameter_bound=1.0, max_iter=50)
        assert res.grad_norm <= 1e-9

    @pytest.mark.parametrize("solve", [np.negative, lambda g: np.full_like(g, np.nan)],
                             ids=["ascending", "nan"])
    def test_no_descent_direction_ends_the_solve(self, solve):
        # a solve whose g.d is not positive and finite gives no direction to
        # search: the solve ends at the start point, with no trial point
        calls = []

        def obj(x):
            calls.append(None)
            return 0.5 * float(x @ x), x.copy(), solve, no_update

        res = minimize_auglag(obj, np.ones(3), tol=1e-12, diameter_bound=1.0)
        assert res.iterations == 0 and not res.converged and len(calls) == 1
        assert res.minimizer.tobytes() == np.ones(3).tobytes()

    def test_accepts_newton_steps_at_the_value_floor(self):
        # the value rises by 3e-15, below its rounding, while the unit
        # Newton step zeroes the gradient: Armijo rejects it, the value-floor
        # test accepts it
        calls = []

        def obj(x):
            calls.append(None)
            return 1.0 - 1e-15 * float(x @ x), x.copy(), lambda g: g, no_update

        res = minimize_auglag(obj, np.ones(3), tol=1e-12, diameter_bound=1.0)
        assert res.converged and res.iterations == 1 and len(calls) == 2

    def test_calls_only_the_solve_of_the_current_iterate(self):
        # each solve is tagged with the evaluation that returned it; scaling
        # the direction by 4 makes unit steps overshoot, so line searches
        # reject trial points whose solves must never run
        q = lasso_fixture()
        obj = ineq_objective(q, np.ones(q.n_constraints), 10.0)
        values, events = [], []

        def spy(x):
            value, grad, solve, update = obj(x)
            tag = len(values)
            values.append(value)
            events.append(("eval", tag))

            def tagged(g):
                events.append(("solve", tag))
                return 4.0 * solve(g)

            return value, grad, tagged, update

        res = minimize_auglag(spy, np.zeros(q.dim), tol=1e-9, diameter_bound=50.0)
        calls = [i for i, event in enumerate(events) if event[0] == "solve"]
        tags = [events[i][1] for i in calls]
        assert len(values) > len(tags) >= 3
        # every solve runs right after its own point was evaluated and
        # accepted, once per accepted point and in order, from the start
        # point on; only the last accepted point may go without one
        assert all(events[i - 1] == ("eval", events[i][1]) for i in calls)
        assert tags[0] == 0 and tags == sorted(set(tags))
        assert len(tags) in (res.iterations, res.iterations + 1)
        # the solved points are the accepted path, so their values descend
        assert all(values[b] <= values[a] for a, b in zip(tags, tags[1:]))

    def test_backtracking_halves_the_trial_step(self):
        # f = x^2 / 2 from x = 1 with d = 1024 g: the unit step overshoots
        # grossly, and the trial steps are still 1, 1/2, 1/4, ... down to
        # 1/1024, which lands on the minimizer
        trials = []

        def obj(x):
            trials.append((1.0 - x[0]) / 1024.0)
            return 0.5 * float(x @ x), x.copy(), lambda g: 1024.0 * g, no_update

        res = minimize_auglag(obj, np.ones(1), tol=1e-12, diameter_bound=1.0)
        assert res.converged and res.iterations == 1
        assert trials[1:] == [2.0 ** -k for k in range(11)]

    @pytest.mark.parametrize("name", ["lasso-random", "svm-random"])
    def test_first_subproblem_takes_unit_steps(self, name):
        # from x = 0, z = 0 every row is on its kink (lasso) or above it
        # (svm's hinge rows) and counts active, so the first Newton system
        # is Q + r G'G and every line search passes at t = 1
        q = load_builtin(name)
        obj = ineq_objective(q, np.zeros(q.n_constraints), 1.0)
        evals = []

        def spy(x):
            evals.append(None)
            return obj(x)

        res = minimize_auglag(spy, np.zeros(q.dim), tol=1e-12, diameter_bound=1.0)
        assert res.converged and len(evals) == res.iterations + 1

    def test_value_floor_window_ends_the_solve(self):
        # 1 + max(x_0, 0): three unit Newton steps from x_0 = 2.5 descend,
        # the third onto the flat part, where the gradient is noise and no
        # value descends; the solve ends 3 iterations after the last descent,
        # before a seventh solve runs
        rng = np.random.default_rng(0)
        solves = []

        def obj(x):
            g = 1e-3 * rng.standard_normal(3)
            g[0] += float(x[0] > 0)
            return (1.0 + max(float(x[0]), 0.0), g,
                    lambda g: solves.append(x.copy()) or g, no_update)

        res = minimize_auglag(obj, np.array([2.5, 0.0, 0.0]), tol=1e-12, diameter_bound=1.0)
        assert [x[0] > 0 for x in solves] == [True] * 3 + [False] * 3
        assert res.iterations == len(solves) == 3 + 3
        assert not res.converged and res.value == 1.0

    def test_value_floor_needs_a_gradient_cut(self):
        # a Newton step that rounds the value but cuts ||g|| by less than a
        # relative 1e-4 is rejected like any other
        def obj(x):
            return 1.0 - 1e-15 * float(x @ x), x.copy(), lambda g: 1e-5 * g, no_update

        res = minimize_auglag(obj, np.ones(3), tol=1e-12, diameter_bound=1.0)
        assert not res.converged and res.grad_norm > 1.7


class TestCertificateFloor:
    """A solve ends at the first iterate whose certificate ||g|| D is within
    the value's resolution 1e-14 (1 + |f|), unless the stop test holds there."""

    @staticmethod
    def decimating(solves, evals):
        # f = 10 x and g = 3 x, with unit Newton steps to x / 10: every
        # descent stays resolvable in the value, and the certificate 3 x_k =
        # 3e-k first falls within the resolution at k = 15
        def obj(x):
            evals.append(x.copy())
            return (10.0 * float(x[0]), 3.0 * x,
                    lambda g: solves.append(x.copy()) or 0.9 * x, no_update)
        return obj

    def test_ends_at_the_first_iterate_within_the_resolution(self):
        solves, evals = [], []
        res = minimize_auglag(self.decimating(solves, evals), np.ones(1), tol=1e-30,
                              diameter_bound=1.0)
        assert not res.converged and res.iterations == 15
        assert res.minimizer.tobytes() == evals[-1].tobytes()
        assert res.gap_upper_bound <= 1e-14 * (1.0 + abs(res.value))
        assert all(3.0 * x[0] > 1e-14 * (1.0 + 10.0 * x[0]) for x in evals[:-1])
        # the exit iterate runs no solve, so no trial point follows it
        assert len(solves) == 15 and len(evals) == 16
        assert solves[-1].tobytes() == evals[-2].tobytes()

    @pytest.mark.parametrize("accepted", [True, False])
    def test_stop_test_takes_priority(self, accepted):
        # at k = 15 the certificate 3e-15 also meets tol: the stop test asks
        # accept first, and only a rejected result falls to the floor exit
        solves, evals, seen = [], [], []
        res = minimize_auglag(self.decimating(solves, evals), np.ones(1), tol=5e-15,
                              diameter_bound=1.0,
                              accept=lambda cand: seen.append(cand) or accepted)
        assert len(seen) == 1 and res.converged == accepted
        assert res.iterations == 15 and len(solves) == 15
        assert res.minimizer.tobytes() == seen[0].minimizer.tobytes()
        assert (res is seen[0]) == accepted


class TestCriteria:
    def test_zero_gap_always_passes_A(self):
        res = _result(gap=0.0)
        assert check_criterion_A(res, 0.0, 1.0)

    def test_arithmetic_A(self):
        res = _result(gap=1.0)
        assert not check_criterion_A(res, 1.0, 1.0)  # 1 <= 0.5 fails
        assert check_criterion_A(res, 2.0, 2.0)      # 1 <= 1

    def test_boundary_A_inclusive(self):
        res = _result(gap=0.5)
        assert check_criterion_A(res, 1.0, 1.0)

    def test_zero_step_requires_zero_gap_B(self):
        assert not check_criterion_B(_result(gap=1e-12), 0.5, 1.0, 0.0)
        assert check_criterion_B(_result(gap=0.0), 0.5, 1.0, 0.0)

    def test_arithmetic_B(self):
        assert check_criterion_B(_result(gap=0.005), 0.1, 1.0, 1.0)
        assert not check_criterion_B(_result(gap=0.006), 0.1, 1.0, 1.0)

    def test_rejects_bad_args(self):
        res = _result(gap=0.0)
        # NaN fails every comparison, so each check must be written to fail on it
        for args in ((-1.0, 1.0), (np.nan, 1.0), (1.0, 0.0), (1.0, np.nan)):
            with pytest.raises(ValueError):
                check_criterion_A(res, *args)
        for args in ((-0.1, 1.0, 1.0), (np.nan, 1.0, 1.0), (0.1, 0.0, 1.0),
                     (0.1, np.nan, 1.0), (0.1, 1.0, -1.0), (0.1, 1.0, np.nan)):
            with pytest.raises(ValueError):
                check_criterion_B(res, *args)


def _result(gap):
    from conic_alm.inner import InnerResult
    return InnerResult(minimizer=np.zeros(1), gap_upper_bound=gap, grad_norm=gap,
                       iterations=1, converged=True, value=0.0)
