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

The inequality form's Newton matrix Q + r G_A' G_A depends on x only through
the active set A, and most of it is uncoupled: the "second-order sparsity"
of SSNAL (Li, Sun & Toh, SIAM J. Optim. 2018). Its block on the slack-like
variables J of ``IneqProblem`` (no entry in Q, no row of G shared with
another) is diagonal for every A, so the solve eliminates them and factors
only the Schur complement on the other variables I: 10 x 10 instead of
110 x 110 on svm-random (|J| = 100 hinge slacks), 10 x 10 instead of
20 x 20 on lasso-random. G_A' G_A itself is never formed.

The dual Newton matrix R diag(vec Omega) R' (row i of R = vec(Q' A_i Q))
is formed on every operator from the rows of Q' A_i Q in the eigenvalue
block {lam > 0} alone, as in SDPNAL+ (Yang, Sun & Toh 2015): Omega vanishes
off that block, so with k such rows a solve costs O(nnz k n + m^2 k n), and
k = rank X* near a strictly complementary solution. The primal Newton
solve is picked by n alone, on either operator: up to DIRECT_SOLVE_MAX_N
one LU of the rotated n^2 x n^2 matrix (:func:`_primal_solve_direct`),
normwise backward stable, with no refinement; above it Woodbury through an
m x m matrix formed from the block {lam <= 0}, with refinement that stops
at rounding level (:func:`_primal_solve_block`).

Only the public functions (``eval_L_*``, ``grad_L_*``,
``dual_gap_lower_bound``) check their input against the problem, a dual
point w through ``model.check_dual_point``; the oracles and the multiplier
steps that ``update()`` builds, plain pairs, trust the arrays the inner
solver hands them (see ``model``).
"""

import numpy as np

from .model import DualPoint, check_array, check_dual_point, check_matrix
from .symcone import frob, inner, symmetrize


# Bound on the bytes of the rotated rows that one chunk of _block_gram forms.
BLOCK_GRAM_BYTES = 2 ** 24

# Largest n whose primal Newton solve is the direct LU of order n^2; above
# it the block solve is faster. Time per solve in us, block / direct (dense
# synth, m = 1.5 n, r = 1, rho = 1e-6, best of nine batches, one BLAS
# thread, 2 cores): n = 4: 112 / 35; 8: 115 / 67; 9: 82 / 97; 12: 98 / 455;
# 20: 152 / 4033; 30: 325 / 29476.
DIRECT_SOLVE_MAX_N = 8


def _check_r(r):
    if not 0 < r < np.inf:
        raise ValueError(f"r must be a finite positive penalty, got {r!r}")


def primal_objective(p, w, r):
    """Callable X -> (L_r(X, w), grad_X L_r, Newton solve, update) at X sharing
    one eigendecomposition; the solve is :func:`_primal_solve_direct` for
    n <= DIRECT_SOLVE_MAX_N, else :func:`_primal_solve_block`."""
    _check_r(r)
    op, C, c, b, y, Z = p.operator, p.C, p.C.ravel(), p.b, w.y, w.Z
    apply, adjoint = op.apply, op.adjoint
    newton = _primal_solve_direct if p.n <= DIRECT_SOLVE_MAX_N else _primal_solve_block
    offset = float(y @ y) + inner(Z, Z)
    # below this rho, rho is lost to rounding in the Newton matrix (I / r in
    # the block solve's m x m one), which can then be exactly singular
    ridge = 1e-12 * (1.0 + r * (1.0 + op.max_col_norm2))
    scale = 1.0 + p.C_norm

    def oracle(X):
        u = y + r * (b - apply(X))
        lam, Q = np.linalg.eigh(Z - r * X)
        pos = np.maximum(lam, 0.0)
        # the GEMM rounds P off symmetry; the multiplier Z = P of update()
        # must be exactly symmetric, as check_dual_point requires
        P = symmetrize((Q * pos) @ Q.T)
        val = float(c @ X.ravel()) + (float(u @ u) + float(pos @ pos) - offset) / (2.0 * r)
        grad = C - adjoint(u) - P

        def update():
            return X, DualPoint(y=u, Z=P), float(
                np.sqrt(np.sum((u - y) ** 2) + np.sum((P - Z) ** 2)))

        return val, grad, lambda G: newton(p, r, _lm_rho(r, ridge, scale, G), lam, Q, G), update

    return oracle


def _primal_at(p, X, w, r, name="X"):
    """The checked w and the primal oracle's output at X, after checking X
    (named ``name``) and w against p."""
    w = check_dual_point(p, w)
    return w, primal_objective(p, w, r)(check_matrix(p, X, name))


def eval_L_primal(p, X, w, r):
    """Value of the primal-form augmented Lagrangian at (X, w)."""
    return _primal_at(p, X, w, r)[1][0]


def grad_L_primal_X(p, X, w, r):
    """Gradient of L_r in X: C - A*(y + r(b - A(X))) - proj_psd(Z - rX)."""
    return symmetrize(_primal_at(p, X, w, r)[1][1])


def grad_L_primal_w(p, X, w, r):
    """Gradients of L_r in (y, Z): (w+ - w) / r, w+ the multiplier step at X,
    i.e. (b - A(X), (proj_psd(Z - rX) - Z) / r)."""
    w, (_, _, _, update) = _primal_at(p, X, w, r)
    u = update()[1]
    return (u.y - w.y) / r, (u.Z - w.Z) / r


def dual_objective(p, X, r):
    """Callable y -> (L_r(y, X), grad_y L_r, Newton solve, update) at y.

    The solve's generalized Hessian r A Pi'(M) A* at M = X - r(C - A*(y)) is
    r R diag(vec Omega) R', row i of R the flattened Q' A_i Q, Q from eigh(M).
    """
    _check_r(r)
    op, C, b = p.operator, p.C, p.b
    apply, adjoint = op.apply, op.adjoint
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

        return val, grad, lambda g: _dual_solve(p, r, lam, Q, g), update

    return oracle


def _dual_solve(p, r, lam, Q, g):
    """Solve (r R diag(vec Omega) R' + ridge I) d = g; Omega vanishes off the
    rows and columns of {lam > 0}, a tail slice since eigh sorts lam."""
    tail = slice(np.searchsorted(lam, 0.0, side="right"), None)
    return _ridged_solve(r * _block_gram(p.operator, Q, tail, _omega(lam)), g)


def _block_gram(op, Q, S, W):
    """R diag(vec W) R', row i of R the flattened Q' A_i Q, for a symmetric W
    that vanishes off the rows and columns in the slice S.

    Only the S rows of each Q' A_i Q meet a nonzero weight, so this is
    R_S diag(w) R_S' with R_S = op.rotated(Q, S) and w = W[S], the
    S x (not S) weights doubled to stand for their mirror images.

    R_S is formed in chunks of the rows S, each of at most BLOCK_GRAM_BYTES
    (but at least one row), and the chunks' products are summed. Each row
    of S adds m n entries to R_S, 8 m n bytes, so every problem with
    n <= 40 (m <= 820) is one chunk, the single product of the whole block;
    max-cut at n = 320 takes 20 rows a chunk. A sparse operator's
    ``rotated`` builds an (nnz, rows, n) product first, nnz / m times a
    chunk's bytes (as many for max-cut).
    """
    n = W.shape[0]
    double = np.full(n, 2.0)
    double[S] = 1.0

    def weighted(rows):
        rot = op.rotated(Q, rows)
        return (rot * (W[rows] * double).ravel()) @ rot.T

    step = max(1, BLOCK_GRAM_BYTES // (8 * op.gram.shape[0] * n))  # rows a chunk
    start, stop, _ = S.indices(n)
    H = weighted(slice(start, min(start + step, stop)))
    for lo in range(start + step, stop, step):
        H += weighted(slice(lo, min(lo + step, stop)))
    return H


def _omega(lam):
    """Divided differences of max(., 0) at the eigenvalues ``lam``, which
    must be in ascending order, as eigh returns them.

    Omega_ij = (max(l_i, 0) - max(l_j, 0)) / (l_i - l_j), with 1 on ties of
    positive and 0 on ties of nonpositive eigenvalues. With the split
    lam = (head <= 0, tail > 0) it is 0 on head x head, 1 on tail x tail and
    l_j / (l_j - l_i) on head x tail and its mirror, so no tie test and no
    n x n divide is needed. With the eigenvectors Q of M,
    H -> Q (Omega o Q'HQ) Q' is an element of the generalized Jacobian of
    proj_psd at M.
    """
    s = np.searchsorted(lam, 0.0, side="right")
    omega = np.zeros((lam.shape[0], lam.shape[0]))
    omega[s:, s:] = 1.0
    mixed = lam[s:] / (lam[s:] - lam[:s, None])
    omega[:s, s:] = mixed
    omega[s:, :s] = mixed.T
    return omega


def _ridged_solve(H, g):
    """Solve (H + ridge I) d = g, ridge = 1e-12 (1 + max |diag H|); H is
    overwritten."""
    ridge = 1e-12 * (1.0 + float(np.max(np.abs(np.diag(H)))))
    H.flat[::H.shape[0] + 1] += ridge
    return np.linalg.solve(H, g)


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


def _primal_solve_direct(p, r, rho, lam, Q, G):
    """Newton solve of the primal-form subproblem, Z - rX = Q diag(lam) Q'.

    Maps G to D with (r A*A + r Pi'(Z - rX) + rho I) D = G, rho from
    :func:`_lm_rho`. In the eigenbasis Q the last two terms act entrywise
    as F = r Omega + rho, so the rotated matrix is r R'R + diag(vec F), row
    i of R the flattened Q' A_i Q, and one LU of order n^2 solves it:
    O(m n^4 + n^6), no Woodbury step and no refinement.
    """
    rot = p.operator.rotated(Q)
    H = r * (rot.T @ rot)
    H.flat[::H.shape[0] + 1] += r * _omega(lam).ravel() + rho
    return _unrotate(Q, np.linalg.solve(H, (Q.T @ G @ Q).ravel()).reshape(p.n, p.n))


def _primal_solve_block(p, r, rho, lam, Q, G):
    """:func:`_primal_solve_direct` by Woodbury through one m x m system,
    I / r + R diag(1 / vec F) R', formed from the rows {lam <= 0} (a head
    slice) of each Q' A_i Q, with refinement that stops at rounding level.

    Omega is 1 on {lam > 0} x {lam > 0}, so 1 / F there is the constant
    1 / (r + rho), and R diag(1 / vec F) R' = Gram / (r + rho) +
    :func:`_block_gram` of W = 1 / F - 1 / (r + rho), which vanishes off the
    head. Every weight is >= 0, so no term cancels another. R and R' come
    from the operator's ``rotation``, so no m x n^2 stack is formed.

    For a small rho the Woodbury solve loses digits to cancellation. After
    it and after the first refinement step the residual
    E = G - F o D - r R'(R D) is measured, and refinement stops once
    ||E|| <= 1e-14 (max F ||D|| + ||G||), a normwise backward error at
    rounding level (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, ch. 12). H is at least diag(F), so max F <= ||H|| and the test is
    stricter than the true backward error. At most two steps are taken; at
    rho = r the Woodbury solve is usually already done.
    """
    op = p.operator
    F = r * _omega(lam) + rho
    head = slice(0, np.searchsorted(lam, 0.0, side="right"))
    K = np.eye(p.m) / r + op.gram / (r + rho) + _block_gram(
        op, Q, head, 1.0 / F - 1.0 / (r + rho))
    R, R_t = op.rotation(Q)

    def woodbury(rhs):
        return (rhs - R_t(np.linalg.solve(K, R(rhs / F)))) / F

    G_rot = Q.T @ G @ Q
    G_norm, F_max = frob(G_rot), float(np.max(F))
    D_rot = woodbury(G_rot)
    for _ in range(2):
        E = G_rot - F * D_rot - r * R_t(R(D_rot))
        if frob(E) <= 1e-14 * (F_max * frob(D_rot) + G_norm):
            break
        D_rot = D_rot + woodbury(E)
    return _unrotate(Q, D_rot)


def _unrotate(Q, D_rot):
    # the exact D is symmetric; dividing by a small rho amplifies the
    # rounding of the rotated stack into a visible antisymmetric part
    return symmetrize(Q @ D_rot @ Q.T)


def _dual_at(p, y, X, r):
    """The dual oracle's output at y, after checking y and X against p."""
    return dual_objective(p, check_matrix(p, X, "X"), r)(check_array("y", y, (p.m,)))


def eval_L_dual(p, y, X, r):
    """Value of the dual-form augmented Lagrangian at (y, X)."""
    return _dual_at(p, y, X, r)[0]


def grad_L_dual_y(p, y, X, r):
    """Gradient in y: -b + A(proj_psd(X - r(C - A*(y))))."""
    return _dual_at(p, y, X, r)[1]


def ineq_objective(q, z, r):
    """Callable x -> (L_r(x, z), grad_x L_r, Newton solve, update) at x.

    The solve's generalized Hessian is H = Q + r G_A' G_A over the closed
    active set A = {i : z_i + r g_i(x) >= 0}. Both ways of counting a row on
    its kink give a generalized Hessian; counting it active keeps the first
    step from x = 0, z = 0 (every lasso row on its kink) off the singular Q.
    L_r is quadratic on each active set, so Newton on it is a finite
    active-set method.

    The solve is the one of (H + ridge I) d = g, ridge = 1e-12 (1 + max
    |diag H|), by block elimination of the slack-like variables J of ``q``
    (I the others): with H_II = Q_II + r G_AI' G_AI, H_IJ = r G_AI' G_AJ and
    the diagonal h_J = r sum_A G_AJ^2, each ridged, it solves the |I| x |I|
    Schur complement S = H_II - H_IJ diag(h_J)^-1 H_JI for d_I and sets
    d_J = (g_J - H_JI d_I) / h_J. On svm-random S is 10 x 10 and h_J holds
    the 100 hinge slacks; on lasso-random S is 10 x 10 and h_J holds the 10
    bounds. With J empty this is the full solve, with I empty a diagonal
    one; a J variable with no active row has the ridge alone as its pivot.
    """
    _check_r(r)
    zz = float(z @ z)
    I, J, k = q.coupled, q.slack, q.coupled.size
    # G's columns and diag Q in the order (I, J); diag Q is zero on J
    order = np.concatenate((I, J))
    G_cols, diag_Q, Q_II = q.G[:, order], np.diag(q.Q)[order], q.Q[I][:, I]

    def oracle(x):
        a = z + r * q.constraints(x)
        pos = np.maximum(a, 0.0)
        val = q.objective(x) + (float(pos @ pos) - zz) / (2.0 * r)
        grad = q.objective_grad(x) + q.G.T @ pos

        def solve(g):
            G_A = G_cols[a >= 0.0]
            rows_I = r * (G_A[:, :k].T @ G_A)
            diag_H = diag_Q + r * np.einsum("ij,ij->j", G_A, G_A)
            ridge = 1e-12 * (1.0 + float(np.max(np.abs(diag_H))))
            H_II, H_IJ, h_J = Q_II + rows_I[:, :k], rows_I[:, k:], diag_H[k:] + ridge
            H_II.flat[::k + 1] += ridge
            W = H_IJ / h_J
            g_I, g_J = g[I], g[J]
            d_I = np.linalg.solve(H_II - W @ H_IJ.T, g_I - W @ g_J)
            d = np.empty_like(g)
            d[I] = d_I
            d[J] = (g_J - H_IJ.T @ d_I) / h_J
            return d

        return val, grad, solve, lambda: (x, pos, float(np.linalg.norm(pos - z)))

    return oracle


def _ineq_at(q, x, z, r):
    """The inequality oracle's output at x, after checking x and z against q."""
    return ineq_objective(q, check_array("z", z, (q.n_constraints,)), r)(
        check_array("x", x, (q.dim,)))


def eval_L_ineq(q, x, z, r):
    """Value of the inequality-form augmented Lagrangian at (x, z)."""
    return _ineq_at(q, x, z, r)[0]


def grad_L_ineq_x(q, x, z, r):
    """Gradient in x: grad f(x) + G' max(z + r g(x), 0)."""
    return _ineq_at(q, x, z, r)[1]


def default_diameter(p, X):
    """Heuristic bound on the distance from X to the subproblem minimizer."""
    return 2.0 * (1.0 + frob(np.asarray(X)) + p.b_norm + p.C_norm)


def dual_gap_lower_bound(p, w, X_trial, r):
    """Proven lower bound on min_X L_r(X, w), or -inf when none is at hand.

    The candidate dual point u = (y + r(b - A(X)), proj_psd(Z - rX)) is the
    one :func:`primal_objective` holds at X_trial, and its violation of the
    dual affine identity C - A*(u_y) - u_Z = 0 is that oracle's gradient.
    When its norm is at most 1e-11 (1 + ||C||) the Moreau-envelope value
    g0(u) - ||u - w||^2 / (2r) is returned (a true lower bound since the
    envelope is a maximum over dual points). Otherwise u is not
    dual-feasible and the bound is -inf.
    """
    w, (_, grad, _, update) = _primal_at(p, X_trial, w, r, "X_trial")
    if frob(symmetrize(grad)) > 1e-11 * (1.0 + p.C_norm):
        return -np.inf
    u = update()[1]
    dy, dZ = u.y - w.y, u.Z - w.Z
    return float(p.b @ u.y) - (float(dy @ dy) + inner(dZ, dZ)) / (2.0 * r)
