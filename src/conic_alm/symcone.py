"""Symmetric-matrix kernels and geometry of the positive semidefinite cone.

Everything here is a pure function of its inputs: eigendecompositions with
deterministic tie-breaking, the PSD projection and its distance, the
eigenvalue-based exact penalty and a canonical subgradient, and the face of
the cone spanned by the kernel of a PSD matrix.

Matrices are plain numpy arrays; symmetry is enforced at construction
boundaries via :func:`symmetrize` and checked with :func:`check_symmetric`.
Norms are Frobenius unless noted otherwise.
"""

from dataclasses import dataclass

import numpy as np

# Relative eigenvalue-gap threshold used to group repeated eigenvalues when
# canonicalizing eigenvectors.
_CLUSTER_TOL = 1e-9

# Default relative rank cutoff (standard double-precision choice).
DEFAULT_RANK_TOL = 1e-8


def symmetrize(M):
    """Return the exactly symmetric part (M + M.T) / 2 as float64."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return (M + M.T) / 2.0


def check_symmetric(M, name="matrix"):
    """Validate that M is square, finite, and exactly symmetric."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    if not np.array_equal(M, M.T):
        raise ValueError(f"{name} is not symmetric; use symmetrize() first")
    return M


def frob(M):
    """Frobenius norm."""
    return float(np.linalg.norm(M))


def inner(A, B):
    """Trace inner product <A, B> = vec(A) . vec(B)."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch in inner product: {A.shape} vs {B.shape}")
    return float(A.ravel() @ B.ravel())


@dataclass(frozen=True)
class EigDecomp:
    """Eigendecomposition with eigenvalues sorted nonincreasing.

    Column ``eigenvectors[:, i]`` pairs with ``eigenvalues[i]``. Repeated
    eigenvalues get a canonical orthonormal basis (see :func:`eig_sym`), so
    the decomposition is a deterministic function of the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self):
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T


def _canonical_basis(B):
    """Deterministic orthonormal basis of span(B), B orthonormal n x k.

    Projects the canonical coordinate vectors e_1, e_2, ... onto the span in
    order and Gram-Schmidts them, so the result depends only on the subspace.
    """
    n, k = B.shape
    proj = B @ B.T
    cols = []
    for j in range(n):
        v = proj[:, j].copy()
        for u in cols:
            v -= (u @ v) * u
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            cols.append(v / nv)
        if len(cols) == k:
            break
    if len(cols) < k:
        # Degenerate cancellation; fall back to the input basis.
        return B
    return np.column_stack(cols)


def _fix_signs(Q):
    """Make the largest-magnitude entry of each column positive."""
    idx = np.argmax(np.abs(Q), axis=0)
    signs = np.sign(Q[idx, np.arange(Q.shape[1])])
    signs[signs == 0] = 1.0
    return Q * signs


def eig_sym(X):
    """Eigendecomposition of a symmetric matrix, deterministic and sorted.

    Eigenvalues come back in nonincreasing order. Inside each cluster of
    (numerically) repeated eigenvalues the eigenvectors are re-orthonormalized
    against the canonical coordinate basis, and every eigenvector's sign is
    fixed, so equal inputs give bitwise-equal outputs.
    """
    X = check_symmetric(X)
    lam, Q = np.linalg.eigh(X)
    lam = lam[::-1].copy()
    Q = Q[:, ::-1].copy()
    n = lam.size
    scale = _CLUSTER_TOL * (1.0 + abs(lam[0]))
    i = 0
    while i < n:
        j = i + 1
        while j < n and lam[i] - lam[j] <= scale:
            j += 1
        if j - i > 1:
            Q[:, i:j] = _canonical_basis(Q[:, i:j])
        i = j
    Q = _fix_signs(Q)
    return EigDecomp(eigenvalues=lam, eigenvectors=Q)


def project_psd(X):
    """Orthogonal projection of X onto the PSD cone (clip negative eigenvalues).

    The projection is unique, so no eigenvector canonicalization is needed;
    the raw LAPACK decomposition keeps this cheap enough for inner loops.
    """
    X = check_symmetric(X)
    lam, Q = np.linalg.eigh(X)
    P = (Q * np.maximum(lam, 0.0)) @ Q.T
    return symmetrize(P)


def dist_psd(X):
    """Frobenius distance from X to the PSD cone.

    Equals the root of the sum of squared negative eigenvalues.
    """
    X = check_symmetric(X)
    lam = np.linalg.eigvalsh(X)
    neg = np.minimum(lam, 0.0)
    return float(np.sqrt(np.sum(neg * neg)))


def moreau_split(X):
    """Split X = P - N with P, N PSD and <P, N> = 0 (Moreau decomposition)."""
    X = check_symmetric(X)
    lam, Q = np.linalg.eigh(X)
    P = symmetrize((Q * np.maximum(lam, 0.0)) @ Q.T)
    N = symmetrize((Q * np.maximum(-lam, 0.0)) @ Q.T)
    return P, N


def exact_penalty(X, rho):
    """Eigenvalue exact penalty rho * max(0, lambda_max(-X)).

    Zero exactly on the PSD cone, positive outside, and dominated by
    rho * dist_psd(X) since max(0, lambda_max(-X)) <= dist(X, PSD cone).
    """
    if rho <= 0:
        raise ValueError("penalty parameter rho must be positive")
    X = check_symmetric(X)
    lam_min = float(np.linalg.eigvalsh(X)[0])
    return rho * max(0.0, -lam_min)


def penalty_subgrad(X, rho):
    """One canonical subgradient of X -> rho * max(0, lambda_max(-X)).

    Returns the zero matrix when lambda_min(X) >= 0 (admissible on the
    boundary), and the rank-one extreme point -rho * p p^T otherwise, where p
    is the deterministic unit eigenvector for the smallest eigenvalue of X.
    """
    if rho <= 0:
        raise ValueError("penalty parameter rho must be positive")
    dec = eig_sym(X)
    lam_min = dec.eigenvalues[-1]
    n = X.shape[0]
    if lam_min >= 0.0:
        return np.zeros((n, n))
    p = dec.eigenvectors[:, -1]
    return symmetrize(-rho * np.outer(p, p))


@dataclass(frozen=True)
class FaceBasis:
    """Orthonormal split [p1 p2] induced by a PSD matrix Zbar.

    ``p1`` spans the range of Zbar (numerical rank r columns), ``p2`` its
    kernel; the face of the PSD cone exposed by Zbar is
    { p2 @ B @ p2.T : B PSD }. ``lambda1_min`` is the smallest eigenvalue of
    Zbar counted as positive by the rank cutoff (0.0 when r = 0).
    """

    p1: np.ndarray
    p2: np.ndarray
    lambda1_min: float

    @property
    def rank(self):
        return self.p1.shape[1]

    @property
    def dim(self):
        return self.p1.shape[0]


def face_basis(Zbar, rank_tol=DEFAULT_RANK_TOL):
    """Split eigenvectors of a PSD matrix by eigenvalue > rank_tol * lambda_max.

    For Zbar = 0 the rank is 0 and p2 spans everything (the face is the whole
    cone). Rejects matrices that are not PSD within tolerance.
    """
    Zbar = check_symmetric(Zbar, name="Zbar")
    dec = eig_sym(Zbar)
    lam = dec.eigenvalues
    scale = 1.0 + frob(Zbar)
    if lam[-1] < -1e-9 * scale:
        raise ValueError(f"Zbar is not PSD (lambda_min = {lam[-1]:.3e})")
    lam_max = max(float(lam[0]), 0.0)
    if lam_max > 0:
        r = int(np.count_nonzero(lam > rank_tol * lam_max))
    else:
        r = 0
    p1 = dec.eigenvectors[:, :r]
    p2 = dec.eigenvectors[:, r:]
    lam1_min = float(lam[r - 1]) if r > 0 else 0.0
    return FaceBasis(p1=p1, p2=p2, lambda1_min=lam1_min)


def dist_to_face(X, face):
    """Frobenius distance from X to the face { p2 @ B @ p2.T : B PSD }.

    In the [p1 p2] coordinates the squared distance is
    ||X11||^2 + 2 ||X12||^2 + dist(X22, PSD)^2; the last term vanishes for
    PSD X, and for rank 0 the whole expression reduces to dist_psd(X).
    """
    X = check_symmetric(X)
    if face.dim != X.shape[0]:
        raise ValueError("face and matrix dimensions do not match")
    X11 = face.p1.T @ X @ face.p1
    X12 = face.p1.T @ X @ face.p2
    X22 = symmetrize(face.p2.T @ X @ face.p2) if face.p2.shape[1] else np.zeros((0, 0))
    tail = dist_psd(X22) if X22.size else 0.0
    sq = np.sum(X11 * X11) + 2.0 * np.sum(X12 * X12) + tail * tail
    return float(np.sqrt(sq))
