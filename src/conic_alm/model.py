"""Problem data for SDPs and quadratic programs with inequality constraints.

Holds the standard-form SDP triple (C, {A_i}, b) with its constraint
operator (the linear map A, its adjoint, the rotated rows vec(Q' A_i Q) and
the Gram matrix A A*, kept dense or as COO nonzeros as the data calls for),
the KKT residual set used to monitor solver runs, instance generators
(max-cut relaxation, linear SVM, lasso), and a synthesizer that builds SDPs
around a KKT-certified optimal triple so that ground truth is available
without an external solver.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .symcone import (check_symmetric, dist_psd, eig_sym, frob, inner, signed_ranks,
                      symmetrize)

# Relative threshold on the Gram spectrum of vec(A_i) below which the
# constraint matrices are declared dependent (the linear map must stay onto).
INDEPENDENCE_TOL = 1e-10

# Absolute tolerance for certifying a synthesized optimal triple.
CERTIFY_TOL = 1e-10


class DenseOperator:
    """Constraint operator over the flat (m, n*n) view of the stacked A_i.

    Row i of ``flat`` is vec(A_i): A(X) and A*(y) cost one GEMV each,
    O(m n^2), and the rotated rows one batched product, O(m n^3). ``apply``
    and ``adjoint`` take leading batch axes (X of shape (..., n, n), y of
    shape (..., m)) and run one GEMV per item, the product a single item
    runs; a GEMM over the batch would round differently.
    """

    def __init__(self, mats, gram):
        self.mats = mats
        self.flat = mats.reshape(mats.shape[0], -1)
        self.gram = gram
        self._max_col_norm2 = float(np.max(np.sum(self.flat ** 2, axis=0)))

    def apply(self, X):
        return (self.flat @ X.reshape(X.shape[:-2] + (self.flat.shape[1], 1)))[..., 0]

    def adjoint(self, y):
        n = self.mats.shape[1]
        return np.matmul(y[..., None, :], self.flat).reshape(y.shape[:-1] + (n, n))

    def rotated(self, Q, rows=None):
        """Row i is vec(Q[:, rows]' A_i Q); all of Q' A_i Q when rows is None."""
        left = Q if rows is None else Q[:, rows]
        return (left.T @ self.mats @ Q).reshape(self.mats.shape[0], -1)

    def max_col_norm2(self):
        """max_j ||A e_j||^2 over the n^2 coordinate matrices e_j."""
        return self._max_col_norm2


class SparseOperator:
    """Constraint operator over the nonzeros of the A_i, in COO form.

    Entry t is A_{k_t}[row_t, col_t] = val_t, both triangles stored, in
    matrix-major order. A(X) and A*(y) cost O(nnz + n^2), and the rotated
    rows O(nnz |rows| n): nonzero t adds val_t Q[row_t, rows] (x)
    Q[col_t, :] to row k_t. For max-cut (A_i = e_i e_i') that outer product
    is the whole row, bitwise equal to the dense operator's. ``apply`` and
    ``adjoint`` take leading batch axes; item j of a batch sums into its own
    bins, offset by j times the bin count, in the order of a single item.
    """

    def __init__(self, mats, gram):
        self.m, self.n = mats.shape[:2]
        # np.nonzero of a 3-d array is ten times slower than of a flat mask
        idx = np.flatnonzero(mats != 0.0)
        self.k, rest = np.divmod(idx, self.n * self.n)
        self.row, self.col = np.divmod(rest, self.n)
        self.pos = rest  # index row * n + col of each nonzero in vec(A_k)
        self.val = mats.ravel()[idx]
        self.gram = gram
        # first nonzero of each matrix; no A_i is zero, since they are independent
        self.starts = np.flatnonzero(np.diff(self.k, prepend=-1))
        self._max_col_norm2 = float(np.max(np.bincount(self.row * self.n + self.col,
                                                       weights=self.val ** 2)))

    @staticmethod
    def _sum_into(bins, weights, size):
        """Sum weights (..., nnz) into ``size`` bins per batch item."""
        batch = weights.shape[:-1]
        if not batch:
            return np.bincount(bins, weights=weights, minlength=size)
        count = math.prod(batch)
        bins = (bins + size * np.arange(count)[:, None]).ravel()
        return np.bincount(bins, weights=weights.ravel(),
                           minlength=size * count).reshape(batch + (size,))

    def apply(self, X):
        return self._sum_into(self.k, self.val * X[..., self.row, self.col], self.m)

    def adjoint(self, y):
        n = self.n
        return self._sum_into(self.pos, y[..., self.k] * self.val,
                              n * n).reshape(y.shape[:-1] + (n, n))

    def rotated(self, Q, rows=None):
        """Row i is vec(Q[:, rows]' A_i Q); all of Q' A_i Q when rows is None."""
        left = Q if rows is None else Q[:, rows]
        terms = (self.val[:, None] * left[self.row])[:, :, None] * Q[self.col][:, None, :]
        terms = terms.reshape(self.k.size, -1)
        return terms if self.k.size == self.m else np.add.reduceat(terms, self.starts)

    def max_col_norm2(self):
        return self._max_col_norm2


@dataclass(frozen=True)
class SdpProblem:
    """Standard-form SDP data: minimize <C, X> s.t. <A_i, X> = b_i, X PSD.

    ``constraint_mats`` is stacked with shape (m, n, n) and stored
    C-contiguous. Construction symmetry-checks every matrix, verifies the
    A_i are numerically linearly independent, and keeps the Gram matrix of
    that check in ``operator``: a :class:`SparseOperator` when the A_i have
    at most m n nonzeros in all (max-cut has n), else a
    :class:`DenseOperator`. ``b_norm`` and ``C_norm`` are ||b|| and ||C||_F,
    which scale the residuals, the Newton regularization and the diameter
    bounds; they are computed once here.
    """

    C: np.ndarray
    constraint_mats: np.ndarray
    b: np.ndarray
    name: str = "sdp"
    operator: DenseOperator | SparseOperator = field(init=False, repr=False,
                                                     compare=False)
    b_norm: float = field(init=False, repr=False, compare=False)
    C_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        C = check_symmetric(self.C, name="C")
        mats = np.ascontiguousarray(self.constraint_mats, dtype=float)
        if mats.ndim != 3 or mats.shape[1:] != C.shape:
            raise ValueError(f"constraint matrices must have shape (m, {C.shape[0]}, {C.shape[0]})")
        for i, A in enumerate(mats):
            check_symmetric(A, name=f"A_{i + 1}")
        b = np.asarray(self.b, dtype=float)
        if b.shape != (mats.shape[0],):
            raise ValueError("b length must match the number of constraint matrices")
        if not np.all(np.isfinite(b)):
            raise ValueError("b contains non-finite entries")
        V = mats.reshape(mats.shape[0], -1)
        gram = V @ V.T
        ev = np.linalg.eigvalsh(gram)
        if ev[0] <= INDEPENDENCE_TOL * max(ev[-1], 1e-300):
            raise ValueError("constraint matrices are numerically linearly dependent")
        sparse = np.count_nonzero(mats != 0.0) <= mats.shape[0] * mats.shape[1]
        operator = (SparseOperator if sparse else DenseOperator)(mats, gram)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "constraint_mats", mats)
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "b_norm", float(np.linalg.norm(b)))
        object.__setattr__(self, "C_norm", frob(C))

    @property
    def n(self):
        return self.C.shape[0]

    @property
    def m(self):
        return self.b.shape[0]


def apply_A(p, X):
    """Linear map A(X) = [<A_1, X>, ..., <A_m, X>]; one row per matrix of a
    stack X of shape (..., n, n)."""
    X = np.asarray(X, dtype=float)
    if X.shape[-2:] != p.C.shape:
        raise ValueError(f"X must have shape {p.C.shape}, got {X.shape}")
    return p.operator.apply(X)


def apply_Astar(p, y):
    """Adjoint map A*(y) = sum_i y_i A_i; satisfies <A(X), y> = <X, A*(y)>.
    A stack y of shape (..., m) gives one matrix per row."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1:] != (p.m,):
        raise ValueError(f"y must have shape ({p.m},), got {y.shape}")
    return p.operator.adjoint(y)


@dataclass(frozen=True)
class DualPoint:
    """Dual pair w = (y, Z) for the standard-form SDP."""

    y: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1 or not np.all(np.isfinite(y)):
            raise ValueError(f"y must be a finite 1-d vector, got shape {y.shape}")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "Z", check_symmetric(self.Z, name="Z"))

    def norm(self):
        return float(np.sqrt(self.y @ self.y + np.sum(self.Z * self.Z)))

    def dist(self, other):
        dy = self.y - other.y
        dZ = self.Z - other.Z
        return float(np.sqrt(dy @ dy + np.sum(dZ * dZ)))


def zero_dual(p):
    """All-zero dual point shaped for problem p."""
    return DualPoint(y=np.zeros(p.m), Z=np.zeros((p.n, p.n)))


@dataclass(frozen=True)
class ResidualSet:
    """Relative optimality and feasibility residuals of a candidate triple.

    eps1/eps2 compare the cost values against known optima and are None when
    no reference value is supplied. eps3 = max(eta1, ..., eta5). When d_star
    is unknown, eta5 is scaled by 1 + |<b, y>| instead.
    """

    eta1: float
    eta2: float
    eta3: float
    eta4: float
    eta5: float
    eps1: float | None = None
    eps2: float | None = None

    @property
    def eps3(self):
        return max(self.eta1, self.eta2, self.eta3, self.eta4, self.eta5)


def kkt_residuals(p, X, w, p_star=None, d_star=None):
    """Relative KKT residuals of (X, y, Z) for problem p.

    eta1: affine feasibility, eta2: X cone feasibility, eta3: dual affine
    feasibility, eta4: Z cone feasibility, eta5: duality gap. X is validated
    here, Z was when ``w`` was built.
    """
    X = check_symmetric(X, name="X")
    y, Z = w.y, w.Z
    cx = inner(p.C, X)
    by = float(p.b @ y)
    eta1 = float(np.linalg.norm(apply_A(p, X) - p.b)) / (1.0 + p.b_norm)
    eta2 = dist_psd(X, checked=True) / (1.0 + frob(X))
    eta3 = frob(p.C - apply_Astar(p, y) - Z) / (1.0 + p.C_norm)
    eta4 = dist_psd(Z, checked=True) / (1.0 + frob(Z))
    gap_scale = 1.0 + (abs(d_star) if d_star is not None else abs(by))
    eta5 = abs(cx - by) / gap_scale
    eps1 = abs(cx - p_star) / (1.0 + abs(p_star)) if p_star is not None else None
    eps2 = abs(by - d_star) / (1.0 + abs(d_star)) if d_star is not None else None
    return ResidualSet(eta1=eta1, eta2=eta2, eta3=eta3, eta4=eta4, eta5=eta5,
                       eps1=eps1, eps2=eps2)


class CertificationError(ValueError):
    """A claimed optimal triple failed its KKT certification."""


@dataclass(frozen=True)
class KnownSolutionInstance:
    """An SDP bundled with an optimal triple certified to satisfy KKT.

    Certification (at construction) checks affine feasibility of x_star, the
    dual identity z_star = C - A*(y_star), cone membership of both matrices,
    complementarity, and agreement of the primal and dual optimal values,
    each to CERTIFY_TOL. ``primal_unique``/``dual_unique`` record whether the
    respective solution set provably collapses to the certified point (see
    :func:`solution_uniqueness`); distance-to-solution bookkeeping is only
    meaningful on the unique side. ``w_star`` is the pair (y_star, z_star)
    as a :class:`DualPoint`, built once.
    """

    problem: SdpProblem
    x_star: np.ndarray
    y_star: np.ndarray
    z_star: np.ndarray
    p_star: float
    primal_unique: bool = True
    dual_unique: bool = True
    w_star: DualPoint = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "x_star", check_symmetric(self.x_star, name="x_star"))
        object.__setattr__(self, "y_star", np.asarray(self.y_star, dtype=float))
        object.__setattr__(self, "z_star", check_symmetric(self.z_star, name="z_star"))
        self.certify()
        object.__setattr__(self, "w_star", DualPoint(y=self.y_star, Z=self.z_star))
        pu, du = solution_uniqueness(self)
        object.__setattr__(self, "primal_unique", pu)
        object.__setattr__(self, "dual_unique", du)

    def certify(self):
        p = self.problem
        checks = {
            "primal affine feasibility": float(np.linalg.norm(apply_A(p, self.x_star) - p.b)),
            "dual affine identity": frob(p.C - apply_Astar(p, self.y_star) - self.z_star),
            "x_star cone membership": dist_psd(self.x_star),
            "z_star cone membership": dist_psd(self.z_star),
            "complementarity": abs(inner(self.x_star, self.z_star)),
            "primal value": abs(inner(p.C, self.x_star) - self.p_star),
            "dual value": abs(float(p.b @ self.y_star) - self.p_star),
        }
        bad = {k: v for k, v in checks.items() if v > CERTIFY_TOL}
        if bad:
            raise CertificationError(f"certification failed: {bad}")
        return checks

    def dist_primal(self, X):
        """Distance to the primal solution set (valid when primal_unique)."""
        return frob(np.asarray(X) - self.x_star)

    def dist_dual(self, w):
        return w.dist(self.w_star)


def solution_uniqueness(inst):
    """Decide whether the primal and dual solution sets are singletons.

    Requires strict complementarity (else returns (False, False): nothing is
    certified), decided as in ``check_strict_complementarity`` by
    :func:`signed_ranks` on the joint spectrum of x_star - z_star. With
    [P1 P2] its eigenbasis, splitting range(x_star) from range(z_star), the
    primal solutions are exactly the PSD matrices P1 B P1' satisfying the
    affine constraints, so the set is {x_star} iff B -> A(P1 B P1') is
    injective on symmetric B. Dual multiplier moves dy keep C - A*(y) on the
    complementary face iff the blocks of A*(dy) touching P1 vanish, so the
    dual set is a singleton iff dy -> (P1' A*(dy) P1, P1' A*(dy) P2) is
    injective. Both blocks are slices of the rotated stack [P1 P2]' A_i
    [P1 P2], and both ranks count singular values with the same rule.
    """
    p = inst.problem
    dec = eig_sym(inst.x_star - inst.z_star)
    r, s = signed_ranks(dec.eigenvalues)
    if r + s != p.n:
        return False, False
    rot = p.operator.rotated(dec.eigenvectors).reshape(p.m, p.n, p.n)
    top = rot[:, :r, :r].reshape(p.m, -1)
    cross = np.sqrt(2.0) * rot[:, :r, r:].reshape(p.m, -1)
    rank = lambda M: signed_ranks(np.linalg.svd(M, compute_uv=False))[0]
    # with r = 0 the face of z_star is {0}, and every dy keeps z_star on it
    primal_unique = r == 0 or rank(top) == r * (r + 1) // 2
    dual_unique = r > 0 and rank(np.hstack([top, cross])) == p.m
    return primal_unique, dual_unique


def synth_known_solution(n, m, rank_x, seed):
    """Synthesize an SDP whose optimal triple is certified by construction.

    Draws an orthonormal basis, places X* on rank_x of its columns and Z* on
    the complementary ones (so rank(X*) + rank(Z*) = n and strict
    complementarity holds by design), then draws independent constraint
    matrices and back-solves b and C from the KKT identities. Redraws up
    to 20 times when the constraint matrices come out dependent.
    """
    if not 1 <= rank_x <= n:
        raise ValueError("rank_x must lie in [1, n]")
    if not 1 <= m <= n * (n + 1) // 2:
        raise ValueError("m must lie in [1, n(n+1)/2]")
    rng = np.random.default_rng(seed)
    for attempt in range(20):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d1 = rng.uniform(0.5, 1.5, size=rank_x)
        d2 = rng.uniform(0.5, 1.5, size=n - rank_x)
        x_star = symmetrize((Q[:, :rank_x] * d1) @ Q[:, :rank_x].T)
        z_star = symmetrize((Q[:, rank_x:] * d2) @ Q[:, rank_x:].T)
        mats = []
        for _ in range(m):
            A = symmetrize(rng.standard_normal((n, n)))
            mats.append(A / frob(A))
        mats = np.stack(mats)
        A_flat = mats.reshape(m, -1)
        y_star = rng.standard_normal(m)
        C = symmetrize((y_star @ A_flat).reshape(n, n) + z_star)
        b = A_flat @ x_star.ravel()
        try:
            problem = SdpProblem(C=C, constraint_mats=mats, b=b,
                                 name=f"synth-n{n}-m{m}-r{rank_x}-s{seed}")
        except ValueError:
            continue
        p_star = inner(C, x_star)
        return KnownSolutionInstance(problem=problem, x_star=x_star, y_star=y_star,
                                     z_star=z_star, p_star=p_star)
    raise RuntimeError("failed to draw independent constraint matrices in 20 tries")


def maxcut_instance(weights, name="maxcut"):
    """SDP relaxation of max-cut: C is the weight matrix, constraints fix diag(X) = 1."""
    W = np.asarray(weights, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("weight matrix must be square")
    if not np.array_equal(W, W.T):
        raise ValueError("weight matrix must be symmetric")
    if np.any(np.diag(W) != 0.0):
        raise ValueError("weight matrix must have zero diagonal")
    n = W.shape[0]
    mats = np.zeros((n, n, n))
    for i in range(n):
        mats[i, i, i] = 1.0
    return SdpProblem(C=W, constraint_mats=mats, b=np.ones(n), name=name)


@dataclass(frozen=True)
class IneqProblem:
    """Convex QP with affine inequalities: min 1/2 x'Qx + c'x + offset s.t. Gx + h <= 0."""

    Q: np.ndarray
    c: np.ndarray
    G: np.ndarray
    h: np.ndarray
    offset: float = 0.0
    name: str = "ineq"

    def __post_init__(self):
        Q = check_symmetric(self.Q, name="Q")
        if np.linalg.eigvalsh(Q)[0] < -1e-9 * (1.0 + frob(Q)):
            raise ValueError("Q must be positive semidefinite")
        c = np.asarray(self.c, dtype=float)
        G = np.asarray(self.G, dtype=float)
        h = np.asarray(self.h, dtype=float)
        if c.shape != (Q.shape[0],) or G.ndim != 2 or G.shape[1] != c.shape[0] \
                or h.shape != (G.shape[0],):
            raise ValueError("inconsistent dimensions in IneqProblem")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)

    @property
    def dim(self):
        return self.c.shape[0]

    @property
    def n_constraints(self):
        return self.h.shape[0]

    def objective(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ self.Q @ x) + float(self.c @ x) + self.offset

    def objective_grad(self, x):
        return self.Q @ np.asarray(x, dtype=float) + self.c

    def constraints(self, x):
        """Constraint map g(x) = Gx + h (feasible iff componentwise <= 0)."""
        return self.G @ np.asarray(x, dtype=float) + self.h


@dataclass(frozen=True)
class IneqResidualSet:
    """Relative KKT residuals for an IneqProblem candidate (x, z)."""

    feasibility: float
    dual_feasibility: float
    stationarity: float
    complementarity: float
    cost_gap: float | None = None

    @property
    def eps3(self):
        return max(self.feasibility, self.dual_feasibility,
                   self.stationarity, self.complementarity)


def ineq_residuals(q, x, z, f_star=None):
    """KKT residuals of (x, z) for the inequality problem q."""
    g = q.constraints(x)
    grad_f = q.objective_grad(x)
    feas = float(np.linalg.norm(np.maximum(g, 0.0))) / (1.0 + float(np.linalg.norm(q.h)))
    dual_feas = float(np.linalg.norm(np.minimum(z, 0.0))) / (1.0 + float(np.linalg.norm(z)))
    stat = float(np.linalg.norm(grad_f + q.G.T @ z)) / (1.0 + float(np.linalg.norm(grad_f)))
    comp = abs(float(z @ g)) / (1.0 + abs(q.objective(x)))
    gap = abs(q.objective(x) - f_star) / (1.0 + abs(f_star)) if f_star is not None else None
    return IneqResidualSet(feasibility=feas, dual_feasibility=dual_feas,
                           stationarity=stat, complementarity=comp, cost_gap=gap)


def svm_instance(A, labels, lam, name="svm"):
    """Linear SVM as a QP over (x, t): min 1/2||x||^2 + lam 1't with hinge rows.

    Constraints are diag(labels) A x + 1 <= t and 0 <= t, i.e. 2m affine
    inequality rows over d + m variables.
    """
    A = np.asarray(A, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if A.ndim != 2 or labels.shape != (A.shape[0],):
        raise ValueError("labels length must match the number of data rows")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")
    if lam <= 0:
        raise ValueError("lam must be positive")
    m, d = A.shape
    Q = np.zeros((d + m, d + m))
    Q[:d, :d] = np.eye(d)
    c = np.concatenate([np.zeros(d), lam * np.ones(m)])
    G = np.zeros((2 * m, d + m))
    h = np.zeros(2 * m)
    G[:m, :d] = labels[:, None] * A
    G[:m, d:] = -np.eye(m)
    h[:m] = 1.0
    G[m:, d:] = -np.eye(m)
    return IneqProblem(Q=Q, c=c, G=G, h=h, name=name)


def lasso_instance(A, b, lam, name="lasso"):
    """Lasso as a QP over (x, t): min 1/2||Ax - b||^2 + lam 1't, -t <= x <= t."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],):
        raise ValueError("b length must match the number of rows of A")
    if lam <= 0:
        raise ValueError("lam must be positive")
    m, n = A.shape
    Q = np.zeros((2 * n, 2 * n))
    Q[:n, :n] = symmetrize(A.T @ A)
    c = np.concatenate([-A.T @ b, lam * np.ones(n)])
    G = np.zeros((2 * n, 2 * n))
    G[:n, :n] = np.eye(n)
    G[:n, n:] = -np.eye(n)
    G[n:, :n] = -np.eye(n)
    G[n:, n:] = -np.eye(n)
    h = np.zeros(2 * n)
    return IneqProblem(Q=Q, c=c, G=G, h=h, offset=0.5 * float(b @ b), name=name)
