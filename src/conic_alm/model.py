"""Problem data for SDPs and quadratic programs with inequality constraints.

Holds the standard-form SDP triple (C, {A_i}, b) with its constraint
operator (the linear map A, its adjoint, the rotated rows vec(Q' A_i Q) and
the Gram matrix A A*, kept dense or as COO nonzeros as the data calls for),
the KKT residual set used to monitor solver runs, instance generators
(max-cut relaxation, linear SVM, lasso), and a synthesizer that builds SDPs
around a KKT-certified optimal triple so that ground truth is available
without an external solver.

The validation boundary: data is checked where it enters a computation,
at the constructors (``SdpProblem``, whose two entries share one builder,
``IneqProblem``, ``KnownSolutionInstance``; each stores read-only copies,
never the caller's arrays), the ``solve_*`` drivers (each keeps one
read-only copy of its start), the public functions of ``auglag``,
``kkt_residuals``, ``ineq_residuals`` and the CLI
(``KnownSolutionInstance.dist_primal``/``dist_dual`` check shapes only).
A check raises ``ValueError`` naming the argument (``X``, ``w.y``,
``w0.Z``, ``r``, ``p_star``, ...). A :class:`DualPoint` is a plain pair;
every entry point that takes one (``kkt_residuals``, ``eval_L_primal``,
``grad_L_primal_X``, ``grad_L_primal_w``, ``dual_gap_lower_bound``,
``solve_primal_alm``) checks all of it with :func:`check_dual_point`.
What the solvers build from checked data skips the checks: the oracles'
multiplier steps and the dual record are plain pairs, and the outer loop's
records, which keep the arrays the loop built and mark them read-only
(:func:`read_only`), call ``kkt_residuals(..., checked=True)`` and
``ineq_residuals(..., checked=True)``. A type that holds arrays compares
and hashes by identity: an array has no single truth value.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .symcone import check_symmetric, dist_psd, frob, inner, signed_ranks, symmetrize

# Relative threshold on the Gram spectrum of vec(A_i) below which the
# constraint matrices are declared dependent (the linear map must stay onto).
INDEPENDENCE_TOL = 1e-10

# Absolute tolerance for certifying a synthesized optimal triple.
CERTIFY_TOL = 1e-10


def _check_finite(name, value):
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} contains non-finite entries")


def check_real(name, value):
    """``value`` as a float; raises, naming it, unless it is a finite real."""
    if not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def _check_shape(name, value, like):
    if np.shape(value) != like.shape:
        raise ValueError(f"{name} must have shape {like.shape}, got shape {np.shape(value)}")


def check_array(name, value, shape):
    """``value`` as a float array; raises unless it is finite and of ``shape``."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape or not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite with shape {shape}, got shape {value.shape}")
    return value


def check_matrix(p, M, name):
    """``M`` as a float array; raises, naming it, unless it is a finite,
    exactly symmetric n x n matrix of problem p."""
    return check_symmetric(check_array(name, M, p.C.shape), name=name)


def check_dual_point(p, w, name="w"):
    """``w`` as a :class:`DualPoint` of float arrays; raises, naming the part
    (``w.y``, ``w.Z``), unless y is a finite vector of length m and Z a
    finite, exactly symmetric n x n matrix of problem p."""
    return DualPoint(y=check_array(f"{name}.y", w.y, (p.m,)),
                     Z=check_matrix(p, w.Z, f"{name}.Z"))


def read_only(*arrays):
    """Mark ``arrays`` read-only in place; returns them, or the one array."""
    for a in arrays:
        a.setflags(write=False)
    return arrays[0] if len(arrays) == 1 else arrays


def _stack_triplets(mats):
    """The nonzeros (k, row, col, val) of an (m, n, n) stack, both
    triangles, in matrix-major order (by k, then row, then col)."""
    n = mats.shape[1]
    # np.nonzero of a 3-d array is ten times slower than of a flat mask
    idx = np.flatnonzero(mats != 0.0)
    k, pos = np.divmod(idx, n * n)
    row, col = np.divmod(pos, n)
    return k, row, col, mats.ravel()[idx]


def _scatter(m, n, k, pos, val):
    """The (m, n, n) stack whose A_k holds val at index pos of vec(A_k)."""
    mats = np.zeros((m, n, n))
    mats.reshape(m, -1)[k, pos] = val
    return mats


class DenseOperator:
    """Constraint operator over the flat (m, n*n) view of the stacked A_i.

    Row i of ``flat`` is vec(A_i): A(X) and A*(y) cost one GEMV each,
    O(m n^2), the Gram matrix one GEMM, and the rotated rows one batched
    product, O(m n^3). ``apply`` and ``adjoint`` take leading batch axes (X
    of shape (..., n, n), y of shape (..., m)) and run one GEMV per item,
    the product a single item runs; a GEMM over the batch would round
    differently. ``mats`` must be C-contiguous, so that ``flat`` is a view.
    ``max_col_norm2`` is max_j ||A e_j||^2 over the coordinate matrices e_j.
    """

    def __init__(self, mats):
        self.mats = mats
        self.m, self.n = mats.shape[:2]
        self.flat = mats.reshape(self.m, -1)
        self.gram = self.flat @ self.flat.T
        self.max_col_norm2 = float(np.max(np.sum(self.flat ** 2, axis=0)))

    def apply(self, X):
        return (self.flat @ X.reshape(X.shape[:-2] + (self.flat.shape[1], 1)))[..., 0]

    def adjoint(self, y):
        return np.matmul(y[..., None, :], self.flat).reshape(y.shape[:-1] + (self.n, self.n))

    def rotated(self, Q, rows=None):
        """Row i is vec(Q[:, rows]' A_i Q); all of Q' A_i Q when rows is None.
        ``rows`` is a slice of the columns of Q (the Newton solves pass one)."""
        left = Q if rows is None else Q[:, rows]
        return (left.T @ self.mats @ Q).reshape(self.m, -1)

    def rotation(self, Q):
        """The maps R: V -> A(Q V Q') and R': z -> Q' A*(z) Q, row i of R
        being vec(Q' A_i Q), without the m x n^2 stack: two n x n GEMMs and
        one GEMV each."""
        return (lambda V: self.flat @ (Q @ V @ Q.T).ravel(),
                lambda z: Q.T @ self.adjoint(z) @ Q)

    def triplets(self):
        """The nonzeros (k, row, col, val), both triangles, in matrix-major
        order, as :class:`SparseOperator` holds them."""
        return _stack_triplets(self.mats)


class SparseOperator:
    """Constraint operator over the nonzeros of the A_i, in COO form.

    Built from the triplets (k, row, col, val) of m matrices of order n:
    entry t is A_{k_t}[row_t, col_t] = val_t, nonzero, both triangles
    stored, in matrix-major order (by k, then row, then col), every matrix
    with at least one entry (``SdpProblem`` checks this). No (m, n, n)
    stack is formed. A(X) and A*(y) cost O(nnz + n^2); the Gram
    matrix A A* comes from the pairs of nonzeros at a common position, and
    the rotated rows cost O(nnz |rows| n): nonzero t adds val_t Q[row_t,
    rows] (x) Q[col_t, :] to row k_t, an (nnz, |rows|, n) product, which is
    the rows themselves for max-cut (A_i = e_i e_i'), bitwise equal to the
    dense operator's. ``apply`` and ``adjoint`` take leading batch axes;
    item j of a batch sums into its own bins, offset by j times the bin
    count, in the order of a single item.
    """

    def __init__(self, m, n, k, row, col, val):
        self.m, self.n = m, n
        self.k, self.row, self.col, self.val = k, row, col, val
        self.pos = row * n + col  # index of each nonzero in vec(A_k)
        self.starts = np.flatnonzero(np.diff(k, prepend=-1))  # first nonzero of each A_i
        self.gram = self._gram()
        self.max_col_norm2 = float(np.max(np.bincount(self.pos, weights=val ** 2,
                                                      minlength=n * n)))

    def _gram(self):
        """<A_i, A_j> summed over the pairs (s, t) of nonzeros at a common
        position, in order of position: O(nnz + pairs) work and memory, and
        exactly symmetric, since bins (i, j) and (j, i) add the same
        products in the same order."""
        order = np.argsort(self.pos, kind="stable")
        run_start = np.flatnonzero(np.diff(self.pos[order], prepend=-1))
        run_len = np.diff(np.append(run_start, order.size))
        # sorted entry s pairs with each of the `width` entries of its run
        width = np.repeat(run_len, run_len)
        first = np.repeat(run_start, run_len)
        left = np.repeat(np.arange(order.size), width)
        offset = np.arange(left.size) - np.repeat(np.cumsum(width) - width, width)
        s, t = order[left], order[np.repeat(first, width) + offset]
        return np.bincount(self.k[s] * self.m + self.k[t], weights=self.val[s] * self.val[t],
                           minlength=self.m * self.m).reshape(self.m, self.m)

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
        """Row i is vec(Q[:, rows]' A_i Q); all of Q' A_i Q when rows is None.
        ``rows`` is a slice of the columns of Q (the Newton solves pass one)."""
        left = Q if rows is None else Q[:, rows]
        terms = (self.val[:, None] * left[self.row])[:, :, None] * Q[self.col][:, None, :]
        terms = terms.reshape(self.k.size, -1)
        return terms if self.k.size == self.m else np.add.reduceat(terms, self.starts)

    def rotation(self, Q):
        """The maps R: V -> A(Q V Q') and R': z -> Q' A*(z) Q, row i of R being
        vec(Q' A_i Q), without the m x n^2 stack.

        Nonzero t adds val_t Q[row_t] V Q[col_t]' to (R V)_{k_t} and
        z_{k_t} val_t Q[row_t]' Q[col_t] to R' z, so each map is one GEMM
        with the gathered rows Q[row] and Q[col], O(nnz n^2), and a sum over
        the nonzeros; Q' A*(z) Q through A*(z) takes two n x n GEMMs and a
        sum over n^2 bins.
        """
        left, right = self.val[:, None] * Q[self.row], Q[self.col]

        def R(V):
            terms = np.sum((left @ V) * right, axis=1)
            return terms if self.k.size == self.m else np.add.reduceat(terms, self.starts)

        def R_t(z):
            return left.T @ (z[self.k, None] * right)

        return R, R_t

    def triplets(self):
        return self.k, self.row, self.col, self.val


@dataclass(frozen=True, init=False, eq=False)
class SdpProblem:
    """Standard-form SDP data: minimize <C, X> s.t. <A_i, X> = b_i, X PSD.

    ``SdpProblem(C, constraint_mats, b, name)`` takes the A_i as a stack of
    shape (m, n, n), checks its shape and the length of b, and hands its
    nonzeros to the builder of :meth:`from_triplets`. That builder alone
    checks C, b and the A_i, verifies that the A_i are numerically linearly
    independent, and keeps the Gram matrix of that check in ``operator``: a
    :class:`SparseOperator` over the nonzeros when the A_i have at most m n
    of them in all (max-cut has n), else a :class:`DenseOperator` over the
    stack scattered from them, ``constraint_mats``; on a sparse problem each
    access to that builds a new read-only stack, which the solvers never do.
    C, b and the operator's arrays (the nonzeros or the stack, the Gram
    matrix) are read-only and the problem's own, never the caller's, so they
    cannot drift from ``b_norm`` and ``C_norm``, ||b|| and ||C||_F, which
    scale the residuals, the Newton regularization and the diameter bounds.
    """

    C: np.ndarray
    b: np.ndarray
    name: str
    operator: DenseOperator | SparseOperator = field(repr=False)
    b_norm: float = field(repr=False)
    C_norm: float = field(repr=False)

    def __init__(self, C, constraint_mats, b, name="sdp"):
        mats = np.asarray(constraint_mats, dtype=float)
        if mats.ndim != 3 or mats.shape[1:] != np.shape(C):
            raise ValueError(f"constraint matrices must have shape (m, n, n), C {np.shape(C)}")
        if np.shape(b) != mats.shape[:1]:
            raise ValueError("b length must match the number of constraint matrices")
        self._build(C, _stack_triplets(mats), b, name)

    @classmethod
    def from_triplets(cls, C, triplets, b, name="sdp"):
        """The problem whose A_i have the nonzeros (k, row, col, val): A_{k+1}
        (k from 0) holds val at (row, col), 0-based, both triangles given,
        in any order, integer indices, finite values. A repeated (k, row,
        col) raises, an explicit zero too; zeros are then dropped. m is the
        length of b. A stack and its nonzeros give the same problem, to the
        bit, and the same errors."""
        problem = cls.__new__(cls)
        problem._build(C, triplets, b, name)
        return problem

    def _build(self, C, triplets, b, name):
        C = np.array(check_symmetric(C, name="C"))
        n = C.shape[0]
        b = np.array(b, dtype=float)
        if b.ndim != 1 or b.size == 0:
            raise ValueError(f"b must be a nonempty vector, got shape {b.shape}")
        _check_finite("b", b)
        m = b.size
        k, row, col, val = (np.asarray(a).ravel() for a in triplets)
        for label, what, index, size in (("k", "matrix", k, m), ("row", "row", row, n),
                                         ("col", "column", col, n)):
            if index.dtype.kind not in "iu" and not np.all(np.floor(index) == index):
                raise ValueError(f"triplet {label} must hold integers")
            if index.size and not (0 <= index.min() and index.max() < size):
                raise ValueError(f"{what} index out of range [0, {size})")
        k, row, col = (index.astype(np.int64, copy=False) for index in (k, row, col))
        val = val.astype(float, copy=False)
        if not k.shape == row.shape == col.shape == val.shape:
            raise ValueError("triplets k, row, col and val must have the same length")
        if not np.all(np.isfinite(val)):
            raise ValueError(f"A_{k[np.argmin(np.isfinite(val))] + 1} contains non-finite entries")
        # sorted with the zeros, so that a repeated zero entry is caught
        key = (k * n + row) * n + col
        order = np.argsort(key, kind="stable")
        if np.any(np.diff(key[order]) == 0):
            raise ValueError("duplicate entry in the constraint triplets")
        order = order[val[order] != 0.0]
        k, row, col, val, key = k[order], row[order], col[order], val[order], key[order]
        # symmetric iff the mirrored entries, sorted the same way, match
        mirror = np.argsort((k * n + col) * n + row, kind="stable")
        bad = (key != (k[mirror] * n + col[mirror]) * n + row[mirror]) | (val != val[mirror])
        if np.any(bad):
            raise ValueError(f"A_{int(k[np.argmax(bad)]) + 1} is not symmetric")
        if k.size <= m * n:
            operator = SparseOperator(m, n, k, row, col, val)
        else:
            operator = DenseOperator(_scatter(m, n, k, row * n + col, val))
        read_only(C, b, *(a for a in vars(operator).values() if isinstance(a, np.ndarray)))
        ev = np.linalg.eigvalsh(operator.gram)
        if ev[0] <= INDEPENDENCE_TOL * max(ev[-1], 1e-300):
            raise ValueError("constraint matrices are numerically linearly dependent")
        for attr, value in (("C", C), ("b", b), ("name", name), ("operator", operator),
                            ("b_norm", float(np.linalg.norm(b))), ("C_norm", frob(C))):
            object.__setattr__(self, attr, value)

    @property
    def constraint_mats(self):
        """The (m, n, n) stack of the A_i: stored on a dense problem, built
        anew from the nonzeros on each access on a sparse one."""
        op = self.operator
        if isinstance(op, DenseOperator):
            return op.mats
        return read_only(_scatter(self.m, self.n, op.k, op.pos, op.val))

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


@dataclass(frozen=True, eq=False)
class DualPoint:
    """Dual pair w = (y, Z) for the standard-form SDP; a plain pair, which
    the entry points that take one check with :func:`check_dual_point`."""

    y: np.ndarray
    Z: np.ndarray

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
    no reference value is supplied. eps3 = max(eta1, ..., eta5). When p_star
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


def kkt_residuals(p, X, w, p_star=None, *, checked=False):
    """Relative KKT residuals of (X, y, Z) for problem p.

    eta1: affine feasibility, eta2: X cone feasibility, eta3: dual affine
    feasibility, eta4: Z cone feasibility, eta5: duality gap. ``p_star`` is
    the primal and the dual optimal value alike. X, w and p_star are
    validated here; ``checked`` says that all of them already were, as for
    the iterates of the outer loop, and skips the checks.
    """
    if not checked:
        X = check_matrix(p, X, "X")
        w = check_dual_point(p, w)
        p_star = None if p_star is None else check_real("p_star", p_star)
    y, Z = w.y, w.Z
    cx = inner(p.C, X)
    by = float(p.b @ y)
    eta1 = float(np.linalg.norm(p.operator.apply(X) - p.b)) / (1.0 + p.b_norm)
    # one eigvalsh call over the stack; LAPACK runs per matrix, so each
    # distance has the bits of its own call
    dist_x, dist_z = dist_psd(np.stack((X, Z)), checked=True)
    eta2 = float(dist_x) / (1.0 + frob(X))
    eta3 = frob(p.C - p.operator.adjoint(y) - Z) / (1.0 + p.C_norm)
    eta4 = float(dist_z) / (1.0 + frob(Z))
    gap_scale = 1.0 + (abs(p_star) if p_star is not None else abs(by))
    eta5 = abs(cx - by) / gap_scale
    eps1 = abs(cx - p_star) / (1.0 + abs(p_star)) if p_star is not None else None
    eps2 = abs(by - p_star) / (1.0 + abs(p_star)) if p_star is not None else None
    return ResidualSet(eta1=eta1, eta2=eta2, eta3=eta3, eta4=eta4, eta5=eta5,
                       eps1=eps1, eps2=eps2)


class CertificationError(ValueError):
    """A claimed optimal triple failed its KKT certification."""


@dataclass(frozen=True, eq=False)
class KnownSolutionInstance:
    """An SDP bundled with an optimal triple certified to satisfy KKT.

    Certification (at construction) checks affine feasibility of x_star, the
    dual identity z_star = C - A*(y_star), cone membership of both matrices,
    complementarity, and agreement of the primal and dual optimal values,
    each to CERTIFY_TOL. ``primal_unique``/``dual_unique`` are computed then,
    not passed in: they record whether the respective solution set provably
    collapses to the certified point (see :func:`solution_uniqueness`); on a
    side where it does not, :meth:`dist_primal`/:meth:`dist_dual` return None.
    ``w_star`` is the pair (y_star, z_star) as a :class:`DualPoint`, built
    once from the triple's read-only copies, so no verdict can go stale.
    """

    problem: SdpProblem
    x_star: np.ndarray
    y_star: np.ndarray
    z_star: np.ndarray
    p_star: float
    primal_unique: bool = field(init=False)
    dual_unique: bool = field(init=False)
    w_star: DualPoint = field(init=False, repr=False)

    def __post_init__(self):
        p = self.problem
        for attr, value in (("x_star", check_matrix(p, self.x_star, "x_star")),
                            ("y_star", check_array("y_star", self.y_star, (p.m,))),
                            ("z_star", check_matrix(p, self.z_star, "z_star"))):
            object.__setattr__(self, attr, read_only(np.array(value)))
        object.__setattr__(self, "p_star", check_real("p_star", self.p_star))
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
        bad = {k: v for k, v in checks.items() if not v <= CERTIFY_TOL}
        if bad:
            raise CertificationError(f"certification failed: {bad}")
        return checks

    def dist_primal(self, X):
        """Distance from X to the primal solution set; None unless primal_unique.

        Only the shape of X is checked: a NaN iterate is at a NaN distance."""
        X = np.asarray(X)
        _check_shape("X", X, self.x_star)
        return frob(X - self.x_star) if self.primal_unique else None

    def dist_dual(self, w):
        """Distance from w to the dual solution set; None unless dual_unique.

        Only the shapes of w.y and w.Z are checked, as in :meth:`dist_primal`."""
        _check_shape("w.y", w.y, self.y_star)
        _check_shape("w.Z", w.Z, self.z_star)
        return w.dist(self.w_star) if self.dual_unique else None


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
    lam, V = np.linalg.eigh(check_symmetric(inst.x_star - inst.z_star))
    r, s = signed_ranks(lam)
    if r + s != p.n:
        return False, False
    # nonincreasing order puts range(x_star) first
    rot = p.operator.rotated(V[:, ::-1]).reshape(p.m, p.n, p.n)
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
    """SDP relaxation of max-cut: C is the weight matrix, constraints fix diag(X) = 1.

    Built from the n nonzeros A_i[i, i] = 1, so no (n, n, n) stack is formed."""
    W = np.asarray(weights, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("weight matrix must be square")
    _check_finite("weight matrix", W)
    if not np.array_equal(W, W.T):
        raise ValueError("weight matrix must be symmetric")
    if np.any(np.diag(W) != 0.0):
        raise ValueError("weight matrix must have zero diagonal")
    n = W.shape[0]
    diag = np.arange(n)
    return SdpProblem.from_triplets(W, (diag, diag, diag, np.ones(n)), np.ones(n), name=name)


@dataclass(frozen=True, eq=False)
class IneqProblem:
    """Convex QP with affine inequalities: min 1/2 x'Qx + c'x + offset s.t. Gx + h <= 0.

    The variables are split once, at construction, into two sorted,
    read-only index arrays: ``slack`` (J), the slack-like variables, and
    ``coupled`` (I), the others. A variable is slack-like if it has no entry
    in Q and no row of G holds it together with another variable that has
    no entry in Q. So for every active set A the J x J block of the
    inequality Newton matrix Q + r G_A' G_A is diagonal, and the Newton
    solve eliminates J through a diagonal Schur complement (see
    ``auglag.ineq_objective``). The hinge slacks of an svm and the bounds t
    of a lasso are slack-like: svm-random splits into |I| = 10 and
    |J| = 100, lasso-random into 10 and 10. Q, c, G, h and the split are
    read-only copies of the data passed in, so the split cannot go stale.
    """

    Q: np.ndarray
    c: np.ndarray
    G: np.ndarray
    h: np.ndarray
    offset: float = 0.0
    name: str = "ineq"
    coupled: np.ndarray = field(init=False, repr=False)
    slack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        Q = np.array(check_symmetric(self.Q, name="Q"))
        if np.linalg.eigvalsh(Q)[0] < -1e-9 * (1.0 + frob(Q)):
            raise ValueError("Q must be positive semidefinite")
        c, G, h = (np.array(a, dtype=float) for a in (self.c, self.G, self.h))
        if c.shape != (Q.shape[0],) or G.ndim != 2 or G.shape[1] != c.shape[0] \
                or h.shape != (G.shape[0],):
            raise ValueError("inconsistent dimensions in IneqProblem")
        for name, value in (("c", c), ("G", G), ("h", h)):
            _check_finite(name, value)
        nonzero = G != 0.0
        free = ~np.any(Q != 0.0, axis=0)
        shared = np.count_nonzero(nonzero & free, axis=1) > 1
        slack = free & ~np.any(nonzero[shared], axis=0)
        for attr, value in (("Q", Q), ("c", c), ("G", G), ("h", h),
                            ("coupled", np.flatnonzero(~slack)), ("slack", np.flatnonzero(slack))):
            object.__setattr__(self, attr, read_only(value))
        object.__setattr__(self, "offset", check_real("offset", self.offset))

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


def ineq_residuals(q, x, z, f_star=None, *, checked=False):
    """KKT residuals of (x, z) for the inequality problem q.

    x (of length ``q.dim``), z (of length ``q.n_constraints``) and f_star
    are validated here; ``checked`` says that all of them already were, as
    for the iterates of the outer loop, and skips the checks.
    """
    if not checked:
        x = check_array("x", x, (q.dim,))
        z = check_array("z", z, (q.n_constraints,))
        f_star = None if f_star is None else check_real("f_star", f_star)
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
    _check_finite("A", A)
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be +1 or -1")
    if not 0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam!r}")
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
    _check_finite("A", A)
    _check_finite("b", b)
    if not 0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam!r}")
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
