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
has one formula, its ``*_objective`` factory, whose callable x -> (value,
gradient, solve, update) is all the inner solver needs; ``eval_L_*``/
``grad_L_*`` are validated one-liners over it. ``update()`` gives the
multiplier step (x, w+, ||w+ - w||) at x, w+ being the dual candidate that
the value already computed: (y + r(b - A(X)), proj_psd(Z - rX)),
proj_psd(X - r(C - A*(y))) or max(z + r g(x), 0), so it costs no second
eigendecomposition. The SDP factories bind the problem's
constraint operator ``p.operator`` (dense or sparse, see ``model``) and
vec(C) once.

The solve g -> d of a regularized generalized Hessian system at x gives the
inner solver's Newton step. It reuses the value's eigendecomposition (or
active set) and, like the update, works only when called, so a rejected
line-search trial pays for neither. The gradients are semismooth: the
inequality form is piecewise quadratic, and the SDP forms differentiate
proj_psd through the divided-difference matrix Omega of its
eigendecomposition (SDPNAL, Zhao, Sun & Toh 2010). The primal form's
singular Hessian is regularized by the Levenberg-Marquardt law of Fan & Yuan
(Computing 2005).

On a dense operator the Newton matrices come from the full rotated stack
R (row i = vec(Q' A_i Q)), O(m n^3 + m^2 n^2) per solve. On a sparse one
they use only the rows of Q' A_i Q that Omega does not make zero (dual) or
constant (primal), as in SDPNAL+ (Yang, Sun & Toh 2015): with k such rows,
O(nnz k n + m^2 k n) per solve, and k = rank X* near a strictly
complementary solution.
"""

import numpy as np

from .model import DualPoint, SparseOperator, apply_A, apply_Astar
from .symcone import check_symmetric, frob, inner, project_psd, symmetrize


def _check_r(r):
    if not r > 0:
        raise ValueError("penalty parameter r must be positive")


def primal_objective(p, w, r):
    """Callable X -> (L_r(X, w), grad_X L_r, Newton solve, update) at X sharing
    one eigendecomposition; the solve is :func:`_primal_solve`, or
    :func:`_primal_solve_sparse` on a sparse operator."""
    _check_r(r)
    op, C, c, b, y, Z = p.operator, p.C, p.C.ravel(), p.b, w.y, w.Z
    apply, adjoint = op.apply, op.adjoint
    newton = _primal_solve_sparse if isinstance(op, SparseOperator) else _primal_solve
    offset = float(y @ y) + inner(Z, Z)
    # below this rho, I / r is lost to rounding in the m x m system, which
    # can then be exactly singular
    ridge = 1e-12 * (1.0 + r * (1.0 + op.max_col_norm2()))
    scale = 1.0 + p.C_norm

    def oracle(X):
        u = y + r * (b - apply(X))
        lam, Q = np.linalg.eigh(Z - r * X)
        pos = np.maximum(lam, 0.0)
        # the GEMM rounds P off symmetry; update()'s DualPoint(Z=P) needs an
        # exactly symmetric P
        P = symmetrize((Q * pos) @ Q.T)
        val = float(c @ X.ravel()) + (float(u @ u) + float(pos @ pos) - offset) / (2.0 * r)
        grad = C - adjoint(u) - P

        def update():
            return X, DualPoint(y=u, Z=P), float(
                np.sqrt(np.sum((u - y) ** 2) + np.sum((P - Z) ** 2)))

        return val, grad, lambda G: newton(p, r, _lm_rho(r, ridge, scale, G), lam, Q, G), update

    return oracle


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
    """Callable y -> (L_r(y, X), grad_y L_r, Newton solve, update) at y.

    The solve's generalized Hessian r A Pi'(M) A* at M = X - r(C - A*(y)) is
    r R diag(vec Omega) R', row i of R the flattened Q' A_i Q, Q from eigh(M).
    """
    _check_r(r)
    op, C, b = p.operator, p.C, p.b
    apply, adjoint = op.apply, op.adjoint
    newton = _dual_solve_sparse if isinstance(op, SparseOperator) else _dual_solve
    XX = inner(X, X)

    def oracle(y):
        M = X - r * (C - adjoint(y))
        lam, Q = np.linalg.eigh(M)
        pos = np.maximum(lam, 0.0)
        P = (Q * pos) @ Q.T
        val = -float(b @ y) + (float(pos @ pos) - XX) / (2.0 * r)
        grad = -b + apply(P)

        def update():
            X_new = symmetrize(P)
            return y, X_new, frob(X_new - X)

        return val, grad, lambda g: newton(p, r, lam, Q, g), update

    return oracle


def _dual_solve(p, r, lam, Q, g):
    """Solve (r R diag(vec Omega) R' + ridge I) d = g over the full stack R."""
    rot = p.operator.rotated(Q)
    return _ridged_solve(r * ((rot * _omega(lam).ravel()) @ rot.T), g)


def _dual_solve_sparse(p, r, lam, Q, g):
    """:func:`_dual_solve` from the rows alpha = {lam > 0} of each Q' A_i Q.

    Omega vanishes outside the alpha rows and columns, so
    R diag(vec Omega) R' = R_a diag(w) R_a' with R_a the alpha rows of the
    stack, w = Omega[alpha, :], and the alpha x beta weights doubled to
    stand for their beta x alpha mirror images.
    """
    alpha = lam > 0.0
    w = _omega(lam)[alpha]
    w[:, ~alpha] *= 2.0
    rot = p.operator.rotated(Q, alpha)
    return _ridged_solve(r * ((rot * w.ravel()) @ rot.T), g)


def _omega(lam):
    """Divided differences of max(., 0) at the eigenvalues ``lam``.

    Omega_ij = (max(l_i, 0) - max(l_j, 0)) / (l_i - l_j), with 1 on ties of
    positive and 0 on ties of nonpositive eigenvalues; written as
    (max(l_i, 0) + max(l_j, 0)) / (|l_i| + |l_j|), which needs no tie test.
    With the eigenvectors Q of M, H -> Q (Omega o Q'HQ) Q' is an element of
    the generalized Jacobian of proj_psd at M.
    """
    pos = np.maximum(lam, 0.0)
    size = np.abs(lam)
    num = pos[:, None] + pos[None, :]
    den = size[:, None] + size[None, :]
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def _ridged_solve(H, g):
    """Solve (H + ridge I) d = g, ridge = 1e-12 (1 + max |diag H|)."""
    ridge = 1e-12 * (1.0 + float(np.max(np.abs(np.diag(H)))))
    return np.linalg.solve(H + ridge * np.eye(H.shape[0]), g)


def _lm_rho(r, ridge, scale, G):
    """Regularization rho of the primal Newton system at residual G.

    G is the dual-affine residual C - A*(u_y) - u_Z of the dual candidate
    and nu = ||G|| / scale, scale = 1 + ||C||, its relative size (as in
    eta3). rho = r min(1, nu)^2 is the Levenberg-Marquardt law of Fan & Yuan
    (Computing 2005), fast under a local error bound, which strict
    complementarity gives the primal SDP. rho is floored at ``ridge``: the
    ridge of the other forms with max |diag H| bounded by
    r (1 + max_j ||A e_j||^2).
    """
    return max(r * min(1.0, frob(G) / scale) ** 2, ridge)


def _primal_solve(p, r, rho, lam, Q, G):
    """Newton solve of the primal-form subproblem, Z - rX = Q diag(lam) Q'.

    Maps G to D with (r A*A + r Pi'(Z - rX) + rho I) D = G, rho from
    :func:`_lm_rho`. In the eigenbasis Q the last two terms act entrywise
    as F = r Omega + rho, so Woodbury leaves one m x m system,
    I / r + R diag(1 / vec F) R' with row i of R the flattened Q' A_i Q.
    K is factored once, as W = K^-1 R diag(1 / vec F), for the Woodbury step
    and both refinement steps. The n^2 x n^2 Hessian is never formed; one
    solve costs O(m n^3 + m^2 n^2).
    """
    rot = p.operator.rotated(Q)
    F = r * _omega(lam).ravel() + rho
    scaled = rot / F
    W = np.linalg.solve(np.eye(p.m) / r + scaled @ rot.T, scaled)

    def woodbury(rhs):
        return (rhs - (W @ rhs) @ rot) / F

    D_rot = _refine(woodbury, lambda D: r * ((rot @ D) @ rot), F, (Q.T @ G @ Q).ravel())
    return _unrotate(Q, D_rot.reshape(p.n, p.n))


def _primal_solve_sparse(p, r, rho, lam, Q, G):
    """:func:`_primal_solve` from the rows beta = {lam <= 0} of each Q' A_i Q.

    Omega is 1 on alpha x alpha, so 1 / F there is the constant 1 / (r + rho),
    and R diag(1 / vec F) R' = Gram / (r + rho) + R_b diag(w) R_b' with R_b
    the beta rows of the stack and w = 1 / F - 1 / (r + rho) on them, the
    beta x alpha weights doubled for their mirror images. Every weight is
    >= 0, so no term cancels another. R V is applied as A(Q V Q') and
    R' z as Q' A*(z) Q, so no m x n^2 stack is formed.
    """
    op = p.operator
    F = r * _omega(lam) + rho
    beta = lam <= 0.0
    w = 1.0 / F[beta] - 1.0 / (r + rho)
    w[:, ~beta] *= 2.0
    rot = op.rotated(Q, beta)
    K = np.eye(p.m) / r + op.gram / (r + rho) + (rot * w.ravel()) @ rot.T

    def R(V):
        return op.apply(Q @ V @ Q.T)

    def R_t(z):
        return Q.T @ op.adjoint(z) @ Q

    def woodbury(rhs):
        return (rhs - R_t(np.linalg.solve(K, R(rhs / F)))) / F

    return _unrotate(Q, _refine(woodbury, lambda D: r * R_t(R(D)), F, Q.T @ G @ Q))


def _refine(woodbury, normal, F, G_rot):
    """Woodbury solve of (F + normal) D = G_rot with two refinement steps:
    for small rho the Woodbury solve loses digits to cancellation."""
    D_rot = woodbury(G_rot)
    for _ in range(2):
        D_rot = D_rot + woodbury(G_rot - F * D_rot - normal(D_rot))
    return D_rot


def _unrotate(Q, D_rot):
    # the exact D is symmetric; dividing by a small rho amplifies the
    # rounding of the rotated stack into a visible antisymmetric part
    return symmetrize(Q @ D_rot @ Q.T)


def eval_L_dual(p, y, X, r):
    """Value of the dual-form augmented Lagrangian at (y, X)."""
    return dual_objective(p, X, r)(y)[0]


def grad_L_dual_y(p, y, X, r):
    """Gradient in y: -b + A(proj_psd(X - r(C - A*(y))))."""
    return dual_objective(p, X, r)(y)[1]


def ineq_objective(q, z, r):
    """Callable x -> (L_r(x, z), grad_x L_r, Newton solve, update) at x.

    The solve's generalized Hessian is Q + r G_A' G_A over the active set
    A = {i : z_i + r g_i(x) > 0}; L_r(., z) is quadratic on each active set,
    so Newton steps on it form a finite active-set method.
    """
    _check_r(r)
    zz = float(z @ z)

    def oracle(x):
        pos = np.maximum(z + r * q.constraints(x), 0.0)
        val = q.objective(x) + (float(pos @ pos) - zz) / (2.0 * r)
        grad = q.objective_grad(x) + q.G.T @ pos

        def solve(g):
            G_A = q.G[pos > 0.0]
            return _ridged_solve(q.Q + r * (G_A.T @ G_A), g)

        return val, grad, solve, lambda: (x, pos, float(np.linalg.norm(pos - z)))

    return oracle


def eval_L_ineq(q, x, z, r):
    """Value of the inequality-form augmented Lagrangian at (x, z)."""
    return ineq_objective(q, z, r)(x)[0]


def grad_L_ineq_x(q, x, z, r):
    """Gradient in x: grad f(x) + G' max(z + r g(x), 0)."""
    return ineq_objective(q, z, r)(x)[1]


def default_diameter(p, X):
    """Heuristic bound on the distance from X to the subproblem minimizer."""
    return 2.0 * (1.0 + frob(np.asarray(X)) + p.b_norm + p.C_norm)


def dual_gap_lower_bound(p, w, X_trial, r):
    """Proven lower bound on min_X L_r(X, w), or -inf when none is at hand.

    Forms the candidate dual point u = (y + r(b - A(X)), proj_psd(Z - rX)).
    Its violation of the dual affine identity C - A*(u_y) - u_Z = 0 equals
    grad_X L_r(X_trial, w); when its norm is at most 1e-11 (1 + ||C||) the
    Moreau-envelope value g0(u) - ||u - w||^2 / (2r) is returned (a true
    lower bound since the envelope is a maximum over dual points). Otherwise
    u is not dual-feasible and the bound is -inf.
    """
    _check_r(r)
    X_trial = check_symmetric(X_trial, name="X_trial")
    u_y = w.y + r * (p.b - apply_A(p, X_trial))
    u_Z = project_psd(w.Z - r * X_trial)
    if frob(symmetrize(p.C - apply_Astar(p, u_y) - u_Z)) > 1e-11 * (1.0 + p.C_norm):
        return -np.inf
    dy = u_y - w.y
    dZ = u_Z - w.Z
    return float(p.b @ u_y) - (float(dy @ dy) + inner(dZ, dZ)) / (2.0 * r)
