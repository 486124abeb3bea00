"""Independent oracles the tests check the library against.

Each helper recomputes a quantity by a route the library does not use:
closed-form 2x2 eigensystems, naive double-loop linear maps, tensor
contractions over the (m, n, n) constraint stack, central finite
differences, brute-force minimization over a parameter grid, scalar closed
forms, single-matrix kernels that know nothing of stacks, sampled verifiers
that loop over one point at a time, and generalized Hessians formed as
explicit matrices (Kronecker products over the eigenbasis for the SDP
forms), and the divided differences of max(., 0) as one n x n broadcast.
Expected values frozen in the tests were produced by these.
"""

import numpy as np

from conic_alm.model import DenseOperator, SparseOperator, apply_Astar
from conic_alm.symcone import face_basis, symmetrize
from conic_alm.theory import PreimageReport, _default_gamma, _ratio_report


def eig2x2(M):
    """Closed-form eigensystem of a symmetric 2x2 matrix, nonincreasing order."""
    a, c = M[0, 0], M[0, 1]
    b = M[1, 1]
    half_tr = (a + b) / 2.0
    disc = np.sqrt(((a - b) / 2.0) ** 2 + c * c)
    lam = np.array([half_tr + disc, half_tr - disc])
    vecs = []
    for l in lam:
        v = np.array([c, l - a]) if abs(c) > 1e-300 else (
            np.array([1.0, 0.0]) if abs(l - a) < abs(l - b) else np.array([0.0, 1.0]))
        vecs.append(v / np.linalg.norm(v))
    return lam, np.column_stack(vecs)


def project_psd_2x2(M):
    """PSD projection of a 2x2 symmetric matrix via the closed-form eigensystem."""
    lam, Q = eig2x2(M)
    return (Q * np.maximum(lam, 0.0)) @ Q.T


def naive_apply_A(mats, X):
    """Entrywise double-loop evaluation of the constraint map."""
    m = len(mats)
    out = np.zeros(m)
    for k in range(m):
        for i in range(X.shape[0]):
            for j in range(X.shape[1]):
                out[k] += mats[k][i, j] * X[i, j]
    return out


def tensordot_apply_A(mats, X):
    """Constraint map as a contraction of the (m, n, n) stack with X."""
    return np.tensordot(mats, X, axes=([1, 2], [0, 1]))


def tensordot_apply_Astar(mats, y):
    """Adjoint map as a contraction of y with the (m, n, n) stack."""
    return np.tensordot(y, mats, axes=(0, 0))


def tensordot_inner(A, B):
    """Trace inner product as a full two-axis contraction."""
    return float(np.tensordot(A, B, axes=2))


def fd_grad_sym(f, X, h=None):
    """Central finite-difference gradient of f over symmetric matrices.

    Perturbs entry pairs (i, j), (j, i) together; the directional derivative
    along that perturbation equals twice the gradient entry off the diagonal.
    """
    n = X.shape[0]
    if h is None:
        h = 1e-6 * (1.0 + np.linalg.norm(X))
    G = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = 1.0
            E[j, i] = 1.0
            d = (f(X + h * E) - f(X - h * E)) / (2.0 * h)
            if i == j:
                G[i, i] = d
            else:
                G[i, j] = d / 2.0
                G[j, i] = d / 2.0
    return G


def fd_grad_vec(f, x, h=None):
    """Central finite-difference gradient of f over vectors."""
    if h is None:
        h = 1e-6 * (1.0 + np.linalg.norm(x))
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        e = np.zeros_like(g)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def divided_differences(lam):
    """Divided differences of max(., 0), pair by pair: 1 on ties of positive
    eigenvalues and 0 on ties of nonpositive ones."""
    pos = np.maximum(lam, 0.0)
    n = lam.size
    omega = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if lam[i] == lam[j]:
                omega[i, j] = 1.0 if lam[i] > 0 else 0.0
            else:
                omega[i, j] = (pos[i] - pos[j]) / (lam[i] - lam[j])
    return omega


def broadcast_omega(lam):
    """Divided differences of max(., 0) in one n x n broadcast, as
    (max(l_i, 0) + max(l_j, 0)) / (|l_i| + |l_j|) with 0 where both vanish,
    for any order of lam; the library builds it from eigenvalue blocks."""
    pos = np.maximum(lam, 0.0)
    size = np.abs(lam)
    num = pos[:, None] + pos[None, :]
    den = size[:, None] + size[None, :]
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def psd_projection_jacobian(M):
    """The n^2 x n^2 matrix (Q kron Q) diag(vec Omega) (Q kron Q)' of the
    generalized Jacobian of proj_psd at M, acting on row-major vec."""
    lam, Q = np.linalg.eigh(M)
    K = np.kron(Q, Q)
    return (K * divided_differences(lam).ravel()) @ K.T


def flat_constraints(p):
    """The (m, n*n) matrix whose row i is vec(A_i)."""
    return p.constraint_mats.reshape(p.m, -1)


def both_operators(p):
    """The sparse and the dense constraint operator of the same data."""
    return (SparseOperator(p.m, p.n, *p.operator.triplets()),
            DenseOperator(p.constraint_mats))


def dense_sdpa_text(p):
    """The SDPA text of problem p, written from the dense (m + 1, n, n) stack
    of C and the A_i: the nonzeros of the upper triangles in (matno, i, j)
    order."""
    lines = [f'"problem {p.name}', str(p.m), "1", str(p.n)]
    lines.append(" ".join(f"{v:.17g}" for v in p.b))
    upper = np.triu(np.concatenate([p.C[None], p.constraint_mats]))
    lines += [f"{matno} 1 {i + 1} {j + 1} {upper[matno, i, j]:.17g}"
              for matno, i, j in zip(*np.nonzero(upper))]
    return "\n".join(lines) + "\n"


def primal_hessian_matrix(p, w, r, X):
    """r A'A + r Pi'(Z - rX) of the primal-form subproblem, n^2 x n^2."""
    flat = flat_constraints(p)
    return r * flat.T @ flat + r * psd_projection_jacobian(w.Z - r * X)


def dual_hessian_matrix(p, X, r, y):
    """r A Pi'(X - r(C - A*(y))) A* of the dual-form subproblem, m x m."""
    M = X - r * (p.C - apply_Astar(p, y))
    flat = flat_constraints(p)
    return r * flat @ psd_projection_jacobian(M) @ flat.T


def ineq_hessian_matrix(q, z, r, x):
    """Q + r G_A' G_A over the active rows z + r g(x) >= 0, one row at a time."""
    H = np.array(q.Q, dtype=float)
    for zi, gi, row in zip(z, q.constraints(x), q.G):
        if zi + r * gi >= 0:
            H = H + r * np.outer(row, row)
    return H


def brute_force_face_dist(X, p2, grid):
    """Grid minimization of ||X - p2 @ B @ p2'|| over PSD parameter matrices B.

    Supports faces of corank 1 (scalar B) and corank 2 (2x2 B filtered for
    positive semidefiniteness).
    """
    k = p2.shape[1]
    best = np.inf
    if k == 0:
        return np.linalg.norm(X)
    if k == 1:
        for b in grid:
            if b < 0:
                continue
            Y = b * np.outer(p2[:, 0], p2[:, 0])
            best = min(best, np.linalg.norm(X - Y))
        return best
    if k == 2:
        for b1 in grid:
            for b2 in grid:
                for b3 in grid:
                    if b1 < 0 or b2 < 0 or b1 * b2 < b3 * b3:
                        continue
                    B = np.array([[b1, b3], [b3, b2]])
                    Y = p2 @ B @ p2.T
                    best = min(best, np.linalg.norm(X - Y))
        return best
    raise NotImplementedError("brute force grid only covers corank <= 2")


def soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


# Single-matrix kernels: the library's 2-d arithmetic, written for one
# matrix (one vector of multipliers) at a time. The stacked kernels must
# match a loop over them bit for bit.


def frob_one(M):
    return float(np.linalg.norm(M))


def inner_one(A, B):
    return float(A.ravel() @ B.ravel())


def project_psd_one(X):
    lam, Q = np.linalg.eigh(X)
    return symmetrize((Q * np.maximum(lam, 0.0)) @ Q.T)


def moreau_split_one(X):
    lam, Q = np.linalg.eigh(X)
    return (symmetrize((Q * np.maximum(lam, 0.0)) @ Q.T),
            symmetrize((Q * np.maximum(-lam, 0.0)) @ Q.T))


def dist_psd_one(X):
    neg = np.minimum(np.linalg.eigvalsh(X), 0.0)
    return float(np.sqrt(np.sum(neg * neg)))


def exact_penalty_one(X, rho):
    return rho * max(0.0, -float(np.linalg.eigvalsh(X)[0]))


def dist_to_face_one(X, face):
    X11 = face.p1.T @ X @ face.p1
    X12 = face.p1.T @ X @ face.p2
    X22 = symmetrize(face.p2.T @ X @ face.p2) if face.p2.shape[1] else np.zeros((0, 0))
    tail = dist_psd_one(X22) if X22.size else 0.0
    return float(np.sqrt(np.sum(X11 * X11) + 2.0 * np.sum(X12 * X12) + tail * tail))


def apply_A_one(p, X):
    op = p.operator
    if isinstance(op, SparseOperator):
        return np.bincount(op.k, weights=op.val * X[op.row, op.col], minlength=op.m)
    return op.flat @ X.ravel()


def apply_Astar_one(p, y):
    op, n = p.operator, p.n
    if isinstance(op, SparseOperator):
        return np.bincount(op.row * n + op.col, weights=y[op.k] * op.val,
                           minlength=n * n).reshape(n, n)
    return (y @ op.flat).reshape(n, n)


def sym_noise_one(rng, n, sigma):
    return symmetrize(rng.standard_normal((n, n))) * sigma


def project_affine_one(p, X):
    """Least-squares correction of X onto the primal affine set A(X) = b."""
    dy = np.linalg.solve(p.operator.gram, apply_A_one(p, X) - p.b)
    return symmetrize(X - apply_Astar_one(p, dy))


# The sampled verifiers as loops over one point at a time, on the kernels
# above. The growth verifiers are as they were before they shared one ball
# sampler, each with its own unbounded rejection loop; the library's
# verify_qg_primal, verify_eb_primal, verify_qg_dual (sampled branch),
# verify_growth_lemma, verify_penalty_preimage and check_trace_bound must
# return equal reports. The preimage and trace bound loops draw in the
# library's bulk order (see the theory module docstring), one point at a
# time. verify_qg_dual_reference leaves out the y_grid branch, which does
# not sample; verify_qg_dual_grid_reference is that branch as a loop over
# the grid points.


def verify_qg_primal_reference(inst, gamma=None, ball_radius=1.0, samples=2000,
                               use_penalty=False, rho=None, seed=0):
    p = inst.problem
    if not inst.primal_unique:
        raise ValueError("growth checks need an instance with a unique primal "
                         "solution (distance to the solution set is measured "
                         "against x_star)")
    if gamma is None:
        gamma = _default_gamma(inst)
    if use_penalty:
        if rho is None or not rho > float(np.trace(inst.z_star)):
            raise ValueError("penalty variant needs rho > tr(z_star)")
    if ball_radius <= 0:
        raise ValueError("ball_radius must be positive")
    rng = np.random.default_rng(seed)
    sigma = ball_radius / 3.0
    lhs_list, dist2_list = [], []
    kept = 0
    while kept < samples:
        X = inst.x_star + sym_noise_one(rng, p.n, sigma)
        X = project_affine_one(p, X)
        if not use_penalty:
            X = project_psd_one(X)
        if frob_one(X - inst.x_star) > ball_radius:
            continue
        kept += 1
        value = inner_one(p.C, X)
        if use_penalty:
            value += exact_penalty_one(X, rho)
        lhs = value - inst.p_star + gamma * float(np.linalg.norm(apply_A_one(p, X) - p.b))
        lhs_list.append(lhs)
        dist2_list.append(frob_one(X - inst.x_star) ** 2)
    return _ratio_report(lhs_list, dist2_list,
                         dict(gamma=gamma, ball_radius=ball_radius,
                              use_penalty=use_penalty, rho=rho, seed=seed))


def verify_eb_primal_reference(inst, gamma=None, alpha=None, ball_radius=1.0,
                               samples=2000, seed=0):
    p = inst.problem
    if not inst.primal_unique:
        raise ValueError("growth checks need an instance with a unique primal "
                         "solution")
    if gamma is None:
        gamma = _default_gamma(inst)
    if alpha is None:
        alpha = _default_gamma(inst)
    rng = np.random.default_rng(seed)
    # root-mean-square ||noise||_F = 3/4 ball_radius at every n, rounded as
    # the library rounds it
    sigma = ball_radius / 3.0 * (2.25 / np.sqrt(p.n * (p.n + 1) / 2.0))
    lhs_list, dist2_list = [], []
    kept = 0
    while kept < samples:
        X = inst.x_star + sym_noise_one(rng, p.n, sigma)
        if frob_one(X - inst.x_star) > ball_radius:
            continue
        kept += 1
        lhs = (inner_one(p.C, X) - inst.p_star
               + gamma * float(np.linalg.norm(apply_A_one(p, X) - p.b))
               + alpha * dist_psd_one(X))
        lhs_list.append(lhs)
        dist2_list.append(frob_one(X - inst.x_star) ** 2)
    return _ratio_report(lhs_list, dist2_list,
                         dict(gamma=gamma, alpha=alpha, ball_radius=ball_radius,
                              seed=seed))


def verify_qg_dual_reference(inst, gamma=None, ball_radius=1.0, samples=2000,
                             use_penalty=False, rho=None, seed=0):
    p = inst.problem
    if not inst.dual_unique:
        raise ValueError("dual growth checks need an instance with a unique "
                         "dual solution")
    if gamma is None:
        gamma = 2.0 * (1.0 + float(np.linalg.norm(inst.y_star)) + frob_one(inst.z_star))
    if use_penalty:
        if rho is None or not rho > float(np.trace(inst.x_star)):
            raise ValueError("penalty variant needs rho > tr(x_star)")
    d_star = inst.p_star
    lhs_list, dist2_list = [], []

    def dual_value(y, Z):
        value = -float(p.b @ y)
        if use_penalty:
            value += exact_penalty_one(Z, rho)
        return value

    rng = np.random.default_rng(seed)
    flat = flat_constraints(p)
    lhs_mat = np.eye(p.m) + flat @ flat.T
    sigma = ball_radius / 3.0
    kept = 0
    while kept < samples:
        y = inst.y_star + rng.standard_normal(p.m) * sigma
        Z = inst.z_star + sym_noise_one(rng, p.n, sigma)
        # least-squares correction onto the dual affine set Z = C - A*(y)
        y = np.linalg.solve(lhs_mat, y + apply_A_one(p, p.C - Z))
        Z = symmetrize(p.C - apply_Astar_one(p, y))
        if not use_penalty:
            Z = project_psd_one(Z)
        dist2 = float(np.sum((y - inst.y_star) ** 2)) + frob_one(Z - inst.z_star) ** 2
        if np.sqrt(dist2) > ball_radius:
            continue
        kept += 1
        lhs = (dual_value(y, Z) + d_star
               + gamma * frob_one(p.C - apply_Astar_one(p, y) - Z))
        lhs_list.append(lhs)
        dist2_list.append(dist2)
    return _ratio_report(lhs_list, dist2_list,
                         dict(gamma=gamma, ball_radius=ball_radius,
                              use_penalty=use_penalty, rho=rho, seed=seed))


def verify_qg_dual_grid_reference(inst, y_grid, gamma=None, use_penalty=False, rho=None):
    p = inst.problem
    if gamma is None:
        gamma = 2.0 * (1.0 + float(np.linalg.norm(inst.y_star)) + frob_one(inst.z_star))
    lhs_list, dist2_list = [], []
    for y1 in y_grid:
        for y2 in y_grid:
            y = np.array([float(y1), float(y2)])
            Z = symmetrize(p.C - apply_Astar_one(p, y))
            if not use_penalty and dist_psd_one(Z) > 1e-9 * (1.0 + frob_one(Z)):
                continue
            value = -float(p.b @ y)
            if use_penalty:
                value += exact_penalty_one(Z, rho)
            lhs_list.append(value + inst.p_star)
            dist2_list.append(float(np.sum((y - inst.y_star) ** 2)))
    return _ratio_report(lhs_list, dist2_list,
                         dict(gamma=gamma, use_penalty=use_penalty, rho=rho,
                              grid_points=len(y_grid)))


def verify_growth_lemma_reference(xbar, zbar, mu, samples=10000, seed=0,
                                  penalty_rho=None):
    scale = 1.0 + frob_one(xbar) * frob_one(zbar)
    n = xbar.shape[0]
    face = face_basis(zbar)
    kappa = face.lambda1_min / (3.0 * mu + 2.0 * frob_one(xbar))
    if penalty_rho is not None:
        if face.rank == 0:
            kappa_used = penalty_rho / (n * mu)
        else:
            delta = penalty_rho - float(np.trace(zbar))
            kappa_used = min(delta / (2.0 * n * mu), kappa / 2.0)
    else:
        kappa_used = kappa
    rng = np.random.default_rng(seed)
    tol = 1e-10 * scale * (1.0 + mu) ** 2
    lhs_list, dist2_list = [], []
    for _ in range(samples):
        X = xbar + sym_noise_one(rng, n, mu / 3.0)
        radius = frob_one(X - xbar)
        if radius > mu:
            X = xbar + (X - xbar) * (mu / radius)
        if penalty_rho is None:
            X = project_psd_one(X)
            lhs_list.append(inner_one(zbar, X))
        else:
            lhs_list.append(exact_penalty_one(X, penalty_rho) + inner_one(zbar, X))
        dist2_list.append(dist_to_face_one(X, face) ** 2)
    return _ratio_report(lhs_list, dist2_list,
                         dict(kappa=kappa_used, mu=mu, seed=seed, penalty_rho=penalty_rho),
                         violated=lambda lhs, dist2: ~(lhs + tol >= kappa_used * dist2))


def verify_penalty_preimage_reference(zbar, rho, samples=50, probes=100, seed=0):
    n = zbar.shape[0]
    face = face_basis(zbar)
    k = face.p2.shape[1]
    rng = np.random.default_rng(seed)

    def l(M):
        return exact_penalty_one(M, rho) if rho > 0 else 0.0

    def holds(X, Y):
        return l(Y) >= l(X) + inner_one(-zbar, Y - X) - 1e-8

    def fixed_probes(X):
        pts = [np.zeros((n, n))]
        if k:
            B = symmetrize(face.p2.T @ X @ face.p2)
            pts.append(symmetrize(face.p2 @ project_psd_one(B) @ face.p2.T))
        return pts

    def failures(points):
        # every point's random probes come after all the points are drawn
        failed = 0
        for X in points:
            random = [X + sym_noise_one(rng, n, 1.0) for _ in range(probes)]
            if not all(holds(X, Y) for Y in random + fixed_probes(X)):
                failed += 1
        return failed

    # the face points' factors come first, all of them
    factors = [rng.standard_normal((k, k)) for _ in range(samples)] if k else []
    face_points = ([symmetrize(face.p2 @ (R @ R.T) @ face.p2.T) for R in factors] if k
                   else [np.zeros((n, n))] * samples)
    face_failures = failures(face_points)

    off_face = []
    if face.p1.shape[1]:
        while len(off_face) < samples:
            R = rng.standard_normal((n, n))
            X = symmetrize(R @ R.T)
            if dist_to_face_one(X, face) > 0.1:
                off_face.append(X)
    return PreimageReport(face_points=samples, face_failures=face_failures,
                          off_face_points=len(off_face), off_face_detected=failures(off_face))


def check_trace_bound_reference(samples=10000, n_range=(2, 8), seed=0):
    rng = np.random.default_rng(seed)
    lo, hi = n_range
    # integers with an array high draws otherwise than one scalar call per
    # point, so sizes and splits come from the same two array calls
    sizes = rng.integers(lo, hi + 1, size=samples)
    splits = rng.integers(1, sizes)
    lhs, rhs, slack = [0.0] * samples, [0.0] * samples, [0.0] * samples
    # then the matrices, size by size in increasing order
    for i in sorted(range(samples), key=lambda i: (sizes[i], i)):
        n, s = int(sizes[i]), int(splits[i])
        R = rng.standard_normal((n, n))
        M = symmetrize(R @ R.T)
        A = M[:s, :s]
        B = M[:s, s:]
        D = M[s:, s:]
        lhs[i] = float(np.linalg.eigvalsh(symmetrize(D))[-1]) * float(np.trace(A))
        rhs[i] = float(np.sum(B * B))
        slack[i] = 1e-10 * (1.0 + frob_one(M) ** 2)
    return _ratio_report(lhs, rhs, dict(n_range=n_range, seed=seed),
                         violated=lambda lhs, rhs: lhs < rhs - np.array(slack))
