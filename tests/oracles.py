"""Independent oracles the tests check the library against.

Each helper recomputes a quantity by a route the library does not use:
closed-form 2x2 eigensystems, naive double-loop linear maps, tensor
contractions over the (m, n, n) constraint stack, central finite
differences, brute-force minimization over a parameter grid, and scalar
closed forms. Expected values frozen in the tests were produced by these.
"""

import numpy as np


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
