"""The validation boundary: public entry points check their input and name
the bad argument, while the outer loop, after its start point, runs no
check on what it builds from checked arrays."""

import copy
import re

import numpy as np
import pytest

from conic_alm import alm, auglag, model
from conic_alm.alm import AlmConfig, solve_dual_alm, solve_ineq_alm, solve_primal_alm
from conic_alm.auglag import (dual_gap_lower_bound, eval_L_dual, eval_L_ineq, eval_L_primal,
                              grad_L_dual_y, grad_L_ineq_x, grad_L_primal_X, grad_L_primal_w)
from conic_alm.fixtures import maxcut_fixture
from conic_alm.model import (CertificationError, DualPoint, KnownSolutionInstance,
                             ineq_residuals, kkt_residuals, svm_instance, zero_dual)


def bad_matrix(n, kind):
    """An n x n matrix that is not exactly symmetric, not finite, or of the
    wrong shape."""
    M = np.eye(n)
    if kind == "asymmetric":
        M[0, 1] += 1e-12
    elif kind == "nonfinite":
        M[0, 0] = np.nan
    else:
        M = np.eye(n + 1)
    return M


def bad_vector(m, kind):
    return np.full(m, np.inf) if kind == "nonfinite" else np.zeros(m + 1)


ALL = ("asymmetric", "nonfinite", "shape")


# (name in the message, kinds of bad input, entry point at problem p, good
# multiplier w and bad input). A DualPoint is a plain pair; every entry point
# that takes one checks all of it. A test id holds the entry's index, so new
# entries go at the end.
MATRIX_ENTRIES = [
    ("X", ALL, lambda p, w, M: kkt_residuals(p, M, w)),
    ("X", ALL, lambda p, w, M: eval_L_primal(p, M, w, 1.0)),
    ("X", ALL, lambda p, w, M: grad_L_primal_X(p, M, w, 1.0)),
    ("X", ALL, lambda p, w, M: grad_L_primal_w(p, M, w, 1.0)),
    ("X", ALL, lambda p, w, M: eval_L_dual(p, np.zeros(p.m), M, 1.0)),
    ("X", ALL, lambda p, w, M: grad_L_dual_y(p, np.zeros(p.m), M, 1.0)),
    ("X_trial", ALL, lambda p, w, M: dual_gap_lower_bound(p, w, M, 1.0)),
    ("w.Z", ALL, lambda p, w, M: grad_L_primal_X(p, np.eye(p.n), DualPoint(w.y, M), 1.0)),
    ("w.Z", ALL, lambda p, w, M: kkt_residuals(p, np.eye(p.n), DualPoint(w.y, M))),
    ("w.Z", ALL, lambda p, w, M: eval_L_primal(p, np.eye(p.n), DualPoint(w.y, M), 1.0)),
    ("w0.Z", ALL, lambda p, w, M: solve_primal_alm(p, DualPoint(w.y, M))),
    ("X0", ALL, lambda p, w, M: solve_dual_alm(p, M)),
    ("w.Z", ALL, lambda p, w, M: grad_L_primal_w(p, np.eye(p.n), DualPoint(w.y, M), 1.0)),
    ("w.Z", ALL, lambda p, w, M: dual_gap_lower_bound(p, DualPoint(w.y, M), np.eye(p.n), 1.0)),
]
VECTOR_ENTRIES = [
    ("w.y", ALL[1:], lambda p, w, v: eval_L_primal(p, np.eye(p.n), DualPoint(v, w.Z), 1.0)),
    ("w.y", ALL[1:], lambda p, w, v: kkt_residuals(p, np.eye(p.n), DualPoint(v, w.Z))),
    ("w.y", ALL[1:], lambda p, w, v: grad_L_primal_w(p, np.eye(p.n), DualPoint(v, w.Z), 1.0)),
    ("w.y", ALL[1:], lambda p, w, v: dual_gap_lower_bound(p, DualPoint(v, w.Z), np.eye(p.n),
                                                           1.0)),
    ("y", ALL[1:], lambda p, w, v: eval_L_dual(p, v, np.eye(p.n), 1.0)),
    ("y", ALL[1:], lambda p, w, v: grad_L_dual_y(p, v, np.eye(p.n), 1.0)),
    ("w0.y", ALL[1:], lambda p, w, v: solve_primal_alm(p, DualPoint(v, w.Z))),
    ("w.y", ALL[1:], lambda p, w, v: grad_L_primal_X(p, np.eye(p.n), DualPoint(v, w.Z), 1.0)),
]


def entry_params(entries):
    return [pytest.param(name, run, kind, id=f"{name}-{i}-{kind}")
            for i, (name, kinds, run) in enumerate(entries) for kind in kinds]


@pytest.mark.parametrize("name,run,kind", entry_params(MATRIX_ENTRIES))
def test_matrix_input_is_checked(name, run, kind, toy):
    p = toy.problem
    with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
        run(p, zero_dual(p), bad_matrix(p.n, kind))


@pytest.mark.parametrize("name,run,kind", entry_params(VECTOR_ENTRIES))
def test_vector_input_is_checked(name, run, kind, toy):
    p = toy.problem
    with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
        run(p, zero_dual(p), bad_vector(p.m, kind))


@pytest.mark.parametrize("name,run", [
    ("x", lambda q, v: eval_L_ineq(q, v, np.zeros(q.n_constraints), 1.0)),
    ("x", lambda q, v: grad_L_ineq_x(q, v, np.zeros(q.n_constraints), 1.0)),
    ("z", lambda q, v: eval_L_ineq(q, np.zeros(q.dim), v, 1.0)),
    ("z", lambda q, v: grad_L_ineq_x(q, np.zeros(q.dim), v, 1.0)),
    ("x", lambda q, v: ineq_residuals(q, v, np.zeros(q.n_constraints))),
    ("z", lambda q, v: ineq_residuals(q, np.zeros(q.dim), v)),
])
@pytest.mark.parametrize("kind", ALL[1:])
def test_ineq_input_is_checked(name, run, kind):
    q = svm_instance(np.array([[1.0], [-2.0]]), np.array([1.0, -1.0]), lam=1.0)
    size = q.dim if name == "x" else q.n_constraints
    with pytest.raises(ValueError, match=f"^{name} "):
        run(q, bad_vector(size, kind))


@pytest.mark.parametrize("form", ["primal", "dual", "ineq"])
def test_loop_runs_no_input_checks(form, monkeypatch):
    # the multipliers of update() and of the dual record, and the residuals
    # of every record, come from arrays the loop built: the only check of a
    # matrix or a dual point is the primal driver's one of w0, before the
    # first subproblem, and no check of any kind follows it
    if form == "ineq":
        p = svm_instance(np.array([[1.0], [-2.0]]), np.array([1.0, -1.0]), lam=1.0)
        start = np.zeros(p.n_constraints)
    else:
        p = maxcut_fixture("maxcut-g1-20")
        start = zero_dual(p) if form == "primal" else np.zeros((p.n, p.n))
    events = []

    def spy(module, name):
        original = getattr(module, name)

        def spied(*args, **kwargs):
            events.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, spied)

    for module in (model, auglag, alm):
        for name in ("check_matrix", "check_dual_point", "check_array", "check_real"):
            if hasattr(module, name):
                spy(module, name)
    spy(alm, "minimize_auglag")
    solve = {"primal": solve_primal_alm, "dual": solve_dual_alm, "ineq": solve_ineq_alm}[form]
    trace = solve(p, start, AlmConfig(stop_eps3=1e-5))
    assert trace.converged and len(trace.records) > (2 if form == "ineq" else 5)
    first = events.index("minimize_auglag")
    assert set(events[first:]) == {"minimize_auglag"}
    assert events[:first].count("check_dual_point") == (1 if form == "primal" else 0)
    # the dual driver checks X0 as a matrix
    assert events[:first].count("check_matrix") == (0 if form == "ineq" else 1)


def test_primal_start_point_is_a_copy(toy):
    # the loop and verify_ppm_alm_link read trace.start_point after the
    # caller may have changed w0
    w0 = zero_dual(toy.problem)
    trace = solve_primal_alm(toy, w0, AlmConfig(max_outer=2))
    assert not np.shares_memory(trace.start_point.y, w0.y)
    assert not np.shares_memory(trace.start_point.Z, w0.Z)
    assert np.array_equal(trace.start_point.y, w0.y)
    assert np.array_equal(trace.start_point.Z, w0.Z)


@pytest.mark.parametrize("r", [0.0, -1.0, np.inf, np.nan])
@pytest.mark.parametrize("run", [
    lambda p, q, w, r: eval_L_primal(p, np.eye(p.n), w, r),
    lambda p, q, w, r: grad_L_primal_X(p, np.eye(p.n), w, r),
    lambda p, q, w, r: grad_L_primal_w(p, np.eye(p.n), w, r),
    lambda p, q, w, r: dual_gap_lower_bound(p, w, np.eye(p.n), r),
    lambda p, q, w, r: eval_L_dual(p, np.zeros(p.m), np.eye(p.n), r),
    lambda p, q, w, r: grad_L_dual_y(p, np.zeros(p.m), np.eye(p.n), r),
    lambda p, q, w, r: eval_L_ineq(q, np.zeros(q.dim), np.zeros(q.n_constraints), r),
    lambda p, q, w, r: grad_L_ineq_x(q, np.zeros(q.dim), np.zeros(q.n_constraints), r),
], ids=["eval_L_primal", "grad_L_primal_X", "grad_L_primal_w", "dual_gap_lower_bound",
        "eval_L_dual", "grad_L_dual_y", "eval_L_ineq", "grad_L_ineq_x"])
def test_penalty_is_checked(run, r, toy):
    # at r = inf the oracles return NaN, and dual_gap_lower_bound a NaN in
    # place of a proven bound
    p = toy.problem
    q = svm_instance(np.array([[1.0], [-2.0]]), np.array([1.0, -1.0]), lam=1.0)
    with pytest.raises(ValueError, match="^r must be a finite positive"):
        run(p, q, zero_dual(p), r)


@pytest.mark.parametrize("bad", [np.nan, np.inf, "0"], ids=["nan", "inf", "str"])
def test_kkt_residuals_checks_p_star(bad, toy):
    # an infinite p_star would scale the gap residual eta5 to 0
    with pytest.raises(ValueError, match="^p_star must be a finite real"):
        kkt_residuals(toy.problem, np.eye(2), toy.w_star, p_star=bad)


@pytest.mark.parametrize("field,bad", [
    ("p_star", np.nan), ("p_star", np.inf), ("p_star", "0"),
    ("y_star", np.full(2, np.nan)), ("y_star", np.zeros(3)),
    ("x_star", np.eye(3)), ("z_star", np.full((2, 2), np.inf)),
])
def test_known_solution_checks_its_truth(field, bad, toy):
    # NaN > tol is False: certification alone would pass a NaN p_star
    truth = dict(x_star=toy.x_star, y_star=toy.y_star, z_star=toy.z_star, p_star=toy.p_star)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        KnownSolutionInstance(problem=toy.problem, **{**truth, field: bad})


def test_certify_flags_nan(toy):
    # certification fails unless every check is a number within tolerance
    inst = copy.copy(toy)
    object.__setattr__(inst, "p_star", np.nan)
    with pytest.raises(CertificationError, match="primal value"):
        inst.certify()


@pytest.mark.parametrize("kwargs,name", [
    (dict(x_star=np.zeros(3)), "x_star"),
    (dict(x_star=np.array([np.nan, 0.0])), "x_star"),
    (dict(f_star=np.nan), "f_star"),
    (dict(f_star=np.inf), "f_star"),
    (dict(f_star="0.5"), "f_star"),
], ids=["long-x_star", "nan-x_star", "nan-f_star", "inf-f_star", "str-f_star"])
def test_ineq_driver_checks_its_truth(kwargs, name):
    # unchecked, a wrong-shaped x_star fails after the first subsolve with
    # an unnamed broadcast error, and a NaN one fills dist_x with NaN
    q = svm_instance(np.array([[1.0]]), np.array([1.0]), lam=1.0)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        solve_ineq_alm(q, np.zeros(q.n_constraints), **kwargs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, "0"], ids=["nan", "inf", "str"])
def test_ineq_residuals_checks_f_star(bad):
    # a NaN f_star gave a NaN cost_gap
    q = svm_instance(np.array([[1.0]]), np.array([1.0]), lam=1.0)
    with pytest.raises(ValueError, match="^f_star must be a finite real"):
        ineq_residuals(q, np.zeros(q.dim), np.zeros(q.n_constraints), f_star=bad)


@pytest.mark.parametrize("name,run", [
    ("X", lambda inst: inst.dist_primal(np.eye(3))),
    ("X", lambda inst: inst.dist_primal(np.zeros(2))),
    ("w.y", lambda inst: inst.dist_dual(DualPoint(np.zeros(3), np.eye(2)))),
    ("w.Z", lambda inst: inst.dist_dual(DualPoint(np.zeros(2), np.eye(3)))),
    ("w.Z", lambda inst: inst.dist_dual(DualPoint(np.zeros(2), np.zeros(2)))),
], ids=["X-3x3", "X-row", "w.y-long", "w.Z-3x3", "w.Z-row"])
def test_known_solution_distances_check_shapes(name, run, toy):
    # a mis-shaped point failed with numpy's broadcast error, or, as a row
    # of length n, broadcast to a wrong distance
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must have shape"):
        run(toy)


def test_known_solution_distances_take_nan(toy):
    # only shapes are checked: a NaN iterate is at a NaN distance
    assert np.isnan(toy.dist_primal(np.full((2, 2), np.nan)))
    assert np.isnan(toy.dist_dual(DualPoint(np.full(2, np.nan), toy.z_star)))
