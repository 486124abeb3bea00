"""Symmetric-matrix kernels and geometry of the positive semidefinite cone.

Everything here is a pure function of its inputs: the PSD projection and its
distance, the eigenvalue-based exact penalty and one of its subgradients, and
the face of the cone spanned by the kernel of a PSD matrix. Spectra come from
numpy's eigh and eigvalsh as LAPACK returns them. Inside a repeated
eigenvalue the basis is the one eigh picks; what the package reads of it
(projections, penalties, ranks, the face projector p2 p2') does not depend on
that choice beyond rounding.

Matrices are plain numpy arrays; symmetry is enforced at construction
boundaries via :func:`symmetrize` and checked with :func:`check_symmetric`.
Norms are Frobenius unless noted otherwise.

The elementwise kernels (symmetrize, check_symmetric, frob, inner,
project_psd, moreau_split, dist_psd, exact_penalty, dist_to_face) also take
stacks of shape (..., n, n) and give one value per matrix; a single matrix
still gives a float. A stack runs the arithmetic of a loop over its matrices
bit for bit: LAPACK's eigh per matrix, one BLAS call per matrix product, one
dot per inner product (:func:`rowdot`), and sums over one matrix at a time.
"""

import math
from dataclasses import dataclass

import numpy as np

# Relative rank cutoff of signed_ranks (standard double-precision choice).
_RANK_TOL = 1e-8


def _scalar(a):
    """A 0-d result as a float; a stack's results as they are."""
    return float(a) if a.ndim == 0 else a


def _flat(M):
    """Each matrix of a stack as one row vec(M), in row-major order."""
    shape = M.shape
    return M.reshape(shape[:-2] + (shape[-2] * shape[-1],)) if M.ndim > 1 else M


def symmetrize(M):
    """Return the exactly symmetric part (M + M.T) / 2 as float64."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return (M + M.swapaxes(-1, -2)) / 2.0


def check_symmetric(M, name="matrix"):
    """Validate that M (or every matrix of a stack) is square, finite, and
    exactly symmetric."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    if not np.array_equal(M, M.swapaxes(-1, -2)):
        raise ValueError(f"{name} is not symmetric; use symmetrize() first")
    return M


def rowdot(a, b):
    """Dot products over the last axis; a float for two vectors.

    Every row is the dot that ``a @ b`` runs on two vectors (a stacked row
    as a (1, k) @ (k, 1) product), so a stack of rows gives the same bits
    as a loop over them. Leading axes broadcast.
    """
    if a.ndim == 1 and b.ndim == 1:
        return float(a @ b)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def frob(M):
    """Frobenius norm."""
    F = _flat(np.asarray(M, dtype=float))
    sq = rowdot(F, F)
    return math.sqrt(sq) if F.ndim == 1 else np.sqrt(sq)


def inner(A, B):
    """Trace inner product <A, B> = vec(A) . vec(B)."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape[-2:] != B.shape[-2:]:
        raise ValueError(f"shape mismatch in inner product: {A.shape} vs {B.shape}")
    return rowdot(_flat(A), _flat(B))


def _sum_squares(M):
    """Sum of squared entries of each matrix of a stack."""
    return _scalar(np.sum(_flat(M * M), axis=-1))


def project_psd(X):
    """Orthogonal projection of X onto the PSD cone (clip negative eigenvalues).

    The projection is unique, so it does not depend on the eigenbasis that
    eigh picks inside a repeated eigenvalue.
    """
    X = check_symmetric(X)
    lam, Q = np.linalg.eigh(X)
    P = (Q * np.maximum(lam, 0.0)[..., None, :]) @ Q.swapaxes(-1, -2)
    return symmetrize(P)


def dist_psd(X, *, checked=False):
    """Frobenius distance from X to the PSD cone.

    Equals the root of the sum of squared negative eigenvalues. ``checked``
    says that X already passed :func:`check_symmetric`, which then does not
    run again.
    """
    if not checked:
        X = check_symmetric(X)
    lam = np.linalg.eigvalsh(X)
    neg = np.minimum(lam, 0.0)
    return _scalar(np.sqrt(np.sum(neg * neg, axis=-1)))


def moreau_split(X):
    """Split X = P - N with P, N PSD and <P, N> = 0 (Moreau decomposition)."""
    X = check_symmetric(X)
    lam, Q = np.linalg.eigh(X)
    QT = Q.swapaxes(-1, -2)
    P = symmetrize((Q * np.maximum(lam, 0.0)[..., None, :]) @ QT)
    N = symmetrize((Q * np.maximum(-lam, 0.0)[..., None, :]) @ QT)
    return P, N


def signed_ranks(lam):
    """Counts of entries above _RANK_TOL * max|lam| and below its negative.

    The package's one rank rule. On the joint spectrum of x - z of a
    complementary pair it gives (rank x, rank z) at one common scale, as in
    Alizadeh, Haeberly & Overton (Math. Prog. 1997).
    """
    lam = np.asarray(lam, dtype=float)
    cut = _RANK_TOL * float(np.max(np.abs(lam), initial=0.0))
    return int(np.count_nonzero(lam > cut)), int(np.count_nonzero(lam < -cut))


def exact_penalty(X, rho):
    """Eigenvalue exact penalty rho * max(0, lambda_max(-X)).

    Zero exactly on the PSD cone, positive outside, and dominated by
    rho * dist_psd(X) since max(0, lambda_max(-X)) <= dist(X, PSD cone).
    """
    if not rho > 0:
        raise ValueError("penalty parameter rho must be positive")
    X = check_symmetric(X)
    neg = -np.linalg.eigvalsh(X)[..., 0]
    # max(0.0, neg) as Python's max takes it: neg only where neg > 0
    return _scalar(rho * np.where(neg > 0.0, neg, 0.0))


def penalty_subgrad(X, rho):
    """One subgradient of X -> rho * max(0, lambda_max(-X)).

    Returns the zero matrix when lambda_min(X) >= 0 (admissible on the
    boundary), and the rank-one extreme point -rho * p p^T otherwise, where p
    is the unit eigenvector that eigh gives for the smallest eigenvalue of X.
    When lambda_min repeats, every unit vector of its eigenspace gives a
    subgradient, and this is one of them.
    """
    if not rho > 0:
        raise ValueError("penalty parameter rho must be positive")
    X = check_symmetric(X)
    if X.ndim != 2:
        raise ValueError(f"penalty_subgrad takes one matrix, got shape {X.shape}")
    lam, Q = np.linalg.eigh(X)
    if lam[0] >= 0.0:
        return np.zeros_like(X)
    p = Q[:, 0]
    return symmetrize(-rho * np.outer(p, p))


@dataclass(frozen=True, eq=False)
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


def face_basis(Zbar):
    """Split the eigenvectors of a PSD matrix at its numerical rank.

    The rank is the positive count of :func:`signed_ranks` on the spectrum.
    For Zbar = 0 the rank is 0 and p2 spans everything (the face is the whole
    cone). Rejects matrices that are not PSD within tolerance.
    """
    Zbar = check_symmetric(Zbar, name="Zbar")
    if Zbar.ndim != 2:
        raise ValueError(f"face_basis takes one matrix, got shape {Zbar.shape}")
    lam, Q = np.linalg.eigh(Zbar)
    # nonincreasing order puts the range first
    lam = lam[::-1]
    Q = Q[:, ::-1]
    scale = 1.0 + frob(Zbar)
    if lam[-1] < -1e-9 * scale:
        raise ValueError(f"Zbar is not PSD (lambda_min = {lam[-1]:.3e})")
    r = signed_ranks(lam)[0]
    p1 = Q[:, :r]
    p2 = Q[:, r:]
    lam1_min = float(lam[r - 1]) if r > 0 else 0.0
    return FaceBasis(p1=p1, p2=p2, lambda1_min=lam1_min)


def dist_to_face(X, face):
    """Frobenius distance from X to the face { p2 @ B @ p2.T : B PSD }.

    In the [p1 p2] coordinates the squared distance is
    ||X11||^2 + 2 ||X12||^2 + dist(X22, PSD)^2; the last term vanishes for
    PSD X, and for rank 0 the whole expression reduces to dist_psd(X).
    """
    X = check_symmetric(X)
    if face.dim != X.shape[-1]:
        raise ValueError("face and matrix dimensions do not match")
    X11 = face.p1.T @ X @ face.p1
    X12 = face.p1.T @ X @ face.p2
    tail = dist_psd(symmetrize(face.p2.T @ X @ face.p2)) if face.p2.shape[1] else 0.0
    sq = _sum_squares(X11) + 2.0 * _sum_squares(X12) + tail * tail
    return _scalar(np.sqrt(sq))
