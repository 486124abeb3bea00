"""Augmented Lagrangian values and gradients for the three problem forms.

Primal form (variable X, multipliers w = (y, Z), penalty r):

    L_r(X, w) = <C, X> + (||y + r(b - A(X))||^2 + ||proj_psd(Z - rX)||^2
                          - ||y||^2 - ||Z||^2) / (2r)

Dual form (variable y, multiplier X):

    L_r(y, X) = <-b, y> + (||proj_psd(X - r(C - A*(y)))||^2 - ||X||^2) / (2r)

Inequality form (variable x, multipliers z >= 0, constraint map g = Gx + h):

    L_r(x, z) = f(x) + (||max(z + r g(x), 0)||^2 - ||z||^2) / (2r)

All three are convex and continuously differentiable in the primal variable;
the multiplier gradients recover the classical dual update rules. Each form
has one formula: the ``*_objective`` factories bundle value and gradient into
one callable for the inner solver, so the eigendecomposition is shared
between them, and ``eval_L_*``/``grad_L_*`` are validated one-liners over
those callables. The SDP factories bind the flat operator ``p.A_flat`` and
vec(C) once, so A(X), A*(u) and <C, X> cost one BLAS call each.
"""

import numpy as np

from .model import apply_A, apply_Astar
from .symcone import check_symmetric, frob, inner, project_psd, symmetrize


def _check_r(r):
    if r <= 0:
        raise ValueError("penalty parameter r must be positive")


def primal_objective(p, w, r):
    """Callable X -> (L_r(X, w), grad_X L_r) sharing one eigendecomposition."""
    _check_r(r)
    A_flat, C, c, b, y, Z, n = p.A_flat, p.C, p.C.ravel(), p.b, w.y, w.Z, p.n
    offset = float(y @ y) + inner(Z, Z)

    def value_and_grad(X):
        x = X.ravel()
        u = y + r * (b - A_flat @ x)
        lam, Q = np.linalg.eigh(Z - r * X)
        pos = np.maximum(lam, 0.0)
        P = (Q * pos) @ Q.T
        val = float(c @ x) + (float(u @ u) + float(pos @ pos) - offset) / (2.0 * r)
        grad = C - (u @ A_flat).reshape(n, n) - P
        return val, grad

    return value_and_grad


def eval_L_primal(p, X, w, r):
    """Value of the primal-form augmented Lagrangian at (X, w)."""
    return primal_objective(p, w, r)(check_symmetric(X, name="X"))[0]


def grad_L_primal_X(p, X, w, r):
    """Gradient of L_r in X: C - A*(y + r(b - A(X))) - proj_psd(Z - rX)."""
    return symmetrize(primal_objective(p, w, r)(check_symmetric(X, name="X"))[1])


def grad_L_primal_w(p, X, w, r):
    """Gradients of L_r in (y, Z): (b - A(X), (proj_psd(Z - rX) - Z) / r)."""
    _check_r(r)
    X = check_symmetric(X, name="X")
    return p.b - apply_A(p, X), (project_psd(w.Z - r * X) - w.Z) / r


def dual_objective(p, X, r):
    """Callable y -> (L_r(y, X), grad_y L_r) for the dual-form subproblem."""
    _check_r(r)
    A_flat, C, b, n = p.A_flat, p.C, p.b, p.n
    XX = inner(X, X)

    def value_and_grad(y):
        M = X - r * (C - (y @ A_flat).reshape(n, n))
        lam, Q = np.linalg.eigh(M)
        pos = np.maximum(lam, 0.0)
        P = (Q * pos) @ Q.T
        val = -float(b @ y) + (float(pos @ pos) - XX) / (2.0 * r)
        grad = -b + A_flat @ P.ravel()
        return val, grad

    return value_and_grad


def eval_L_dual(p, y, X, r):
    """Value of the dual-form augmented Lagrangian at (y, X)."""
    return dual_objective(p, X, r)(y)[0]


def grad_L_dual_y(p, y, X, r):
    """Gradient in y: -b + A(proj_psd(X - r(C - A*(y))))."""
    return dual_objective(p, X, r)(y)[1]


def ineq_objective(q, z, r):
    """Callable x -> (L_r(x, z), grad_x L_r) for the inequality subproblem."""
    _check_r(r)
    zz = float(z @ z)

    def value_and_grad(x):
        pos = np.maximum(z + r * q.constraints(x), 0.0)
        val = q.objective(x) + (float(pos @ pos) - zz) / (2.0 * r)
        grad = q.objective_grad(x) + q.G.T @ pos
        return val, grad

    return value_and_grad


def eval_L_ineq(q, x, z, r):
    """Value of the inequality-form augmented Lagrangian at (x, z)."""
    return ineq_objective(q, z, r)(x)[0]


def grad_L_ineq_x(q, x, z, r):
    """Gradient in x: grad f(x) + G' max(z + r g(x), 0)."""
    return ineq_objective(q, z, r)(x)[1]


def default_diameter(p, X):
    """Heuristic bound on the distance from X to the subproblem minimizer."""
    return 2.0 * (1.0 + frob(np.asarray(X)) + float(np.linalg.norm(p.b)) + frob(p.C))


def dual_gap_lower_bound(p, w, X_trial, r, diameter_bound=None, feas_tol=1e-11):
    """Certified lower bound on min_X L_r(X, w).

    Forms the candidate dual point u = (y + r(b - A(X)), proj_psd(Z - rX)).
    Its violation of the dual affine identity C - A*(u_y) - u_Z = 0 equals
    grad_X L_r(X_trial, w); when that is negligible the Moreau-envelope value
    g0(u) - ||u - w||^2 / (2r) is returned (a true lower bound since the
    envelope is a maximum over dual points). Otherwise falls back to the
    convexity bound L_r(X_trial, w) - ||grad|| * diameter_bound, valid
    whenever the subproblem minimizer lies within diameter_bound of X_trial.
    """
    _check_r(r)
    X_trial = check_symmetric(X_trial, name="X_trial")
    if diameter_bound is None:
        diameter_bound = default_diameter(p, X_trial)
    u_y = w.y + r * (p.b - apply_A(p, X_trial))
    u_Z = project_psd(w.Z - r * X_trial)
    residual = symmetrize(p.C - apply_Astar(p, u_y) - u_Z)
    res_norm = frob(residual)
    if res_norm <= feas_tol * (1.0 + frob(p.C)):
        g0 = float(p.b @ u_y)
        dy = u_y - w.y
        dZ = u_Z - w.Z
        return g0 - (float(dy @ dy) + inner(dZ, dZ)) / (2.0 * r)
    return eval_L_primal(p, X_trial, w, r) - res_norm * diameter_bound
