"""The validation boundary: public entry points check their input and name
the bad argument, while the objects that the outer loop builds from checked
arrays skip the checks."""

import re

import numpy as np
import pytest

from conic_alm import model
from conic_alm.alm import AlmConfig, solve_dual_alm, solve_primal_alm
from conic_alm.auglag import (dual_gap_lower_bound, eval_L_dual, eval_L_ineq, eval_L_primal,
                              grad_L_dual_y, grad_L_ineq_x, grad_L_primal_X, grad_L_primal_w)
from conic_alm.fixtures import maxcut_fixture
from conic_alm.model import DualPoint, kkt_residuals, svm_instance, zero_dual


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


def unchecked(y, Z):
    """A DualPoint that skipped its own checks, as a caller's promise."""
    return DualPoint(y=y, Z=Z, checked=True)


# (name in the message, kinds of bad input, entry point at problem p, good
# multiplier w and bad input). DualPoint checks finiteness and symmetry; its
# y and Z need not match a problem. The other entry points check the shapes
# of a DualPoint against the problem and trust it for the rest; the drivers
# check all of w0.
MATRIX_ENTRIES = [
    ("X", ALL, lambda p, w, M: kkt_residuals(p, M, w)),
    ("X", ALL, lambda p, w, M: eval_L_primal(p, M, w, 1.0)),
    ("X", ALL, lambda p, w, M: grad_L_primal_X(p, M, w, 1.0)),
    ("X", ALL, lambda p, w, M: grad_L_primal_w(p, M, w, 1.0)),
    ("X", ALL, lambda p, w, M: eval_L_dual(p, np.zeros(p.m), M, 1.0)),
    ("X", ALL, lambda p, w, M: grad_L_dual_y(p, np.zeros(p.m), M, 1.0)),
    ("X_trial", ALL, lambda p, w, M: dual_gap_lower_bound(p, w, M, 1.0)),
    ("Z", ALL[:2], lambda p, w, M: DualPoint(y=w.y, Z=M)),
    ("w.Z", ALL[2:], lambda p, w, M: kkt_residuals(p, np.eye(p.n), unchecked(w.y, M))),
    ("w.Z", ALL[2:], lambda p, w, M: eval_L_primal(p, np.eye(p.n), unchecked(w.y, M), 1.0)),
    ("w0.Z", ALL, lambda p, w, M: solve_primal_alm(p, unchecked(w.y, M))),
    ("X0", ALL, lambda p, w, M: solve_dual_alm(p, M)),
]
VECTOR_ENTRIES = [
    ("y", ALL[1:2], lambda p, w, v: DualPoint(y=v, Z=w.Z)),
    ("w.y", ALL[2:], lambda p, w, v: kkt_residuals(p, np.eye(p.n), unchecked(v, w.Z))),
    ("w.y", ALL[2:], lambda p, w, v: grad_L_primal_w(p, np.eye(p.n), unchecked(v, w.Z), 1.0)),
    ("w.y", ALL[2:], lambda p, w, v: dual_gap_lower_bound(p, unchecked(v, w.Z), np.eye(p.n),
                                                           1.0)),
    ("y", ALL[1:], lambda p, w, v: eval_L_dual(p, v, np.eye(p.n), 1.0)),
    ("y", ALL[1:], lambda p, w, v: grad_L_dual_y(p, v, np.eye(p.n), 1.0)),
    ("w0.y", ALL[1:], lambda p, w, v: solve_primal_alm(p, unchecked(v, w.Z))),
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
])
@pytest.mark.parametrize("kind", ALL[1:])
def test_ineq_input_is_checked(name, run, kind):
    q = svm_instance(np.array([[1.0], [-2.0]]), np.array([1.0, -1.0]), lam=1.0)
    size = q.dim if name == "x" else q.n_constraints
    with pytest.raises(ValueError, match=f"^{name} "):
        run(q, bad_vector(size, kind))


@pytest.mark.parametrize("form", ["primal", "dual"])
def test_loop_runs_no_input_checks(form, monkeypatch):
    # the multipliers of update() and of the dual record, and the residuals
    # of every record, come from arrays the loop built: after the start
    # point no DualPoint and no residual runs a check
    p = maxcut_fixture("maxcut-g1-20")
    start = zero_dual(p) if form == "primal" else np.zeros((p.n, p.n))
    runs = {"check": 0, "skip": 0}
    post_init = DualPoint.__post_init__

    def counted(self, checked):
        runs["skip" if checked else "check"] += 1
        post_init(self, checked)

    monkeypatch.setattr(DualPoint, "__post_init__", counted)
    for name in ("check_matrix", "check_dual_point"):
        monkeypatch.setattr(model, name,
                            lambda *args, name=name: pytest.fail(f"the loop ran {name}"))
    solve = solve_primal_alm if form == "primal" else solve_dual_alm
    trace = solve(p, start, AlmConfig(stop_eps3=1e-5))
    assert trace.converged and len(trace.records) > 5
    # the primal driver copies w0 into one checked DualPoint
    assert runs["check"] == (1 if form == "primal" else 0)
    assert runs["skip"] >= len(trace.records)
