import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and never time out on a
# loaded machine.
settings.register_profile("conic-alm", derandomize=True, deadline=None, database=None)
settings.load_profile("conic-alm")

from conic_alm.fixtures import toy_rank1_instance
from conic_alm.model import (DenseOperator, IneqProblem, SdpProblem, lasso_instance,
                             maxcut_instance, svm_instance, synth_known_solution)
from conic_alm.symcone import symmetrize


@pytest.fixture(scope="session")
def toy():
    """The 2x2 certified instance with rank-one solutions on both sides."""
    return toy_rank1_instance()


@pytest.fixture(scope="session")
def certified5():
    """A mid-size certified instance reused across modules."""
    return synth_known_solution(n=5, m=6, rank_x=2, seed=7)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


# SDPA files with one non-finite number (in b, in a matrix entry) and its line.
NONFINITE_SDPA = [
    pytest.param("2\n1\n2\n1 inf\n1 1 1 1 1.0\n2 1 2 2 1.0\n", 4, id="b-inf"),
    pytest.param("1\n1\n2\n1\n0 1 1 2 nan\n1 1 1 1 1.0\n", 5, id="value-nan"),
]


def assert_same_problem(p, q):
    """p and q hold the same SDP: C equal in value (an SDPA file keeps no
    -0.0), and to the bit the operator type, b, the nonzeros, the stack of a
    dense problem, the Gram matrix, b_norm, C_norm and max_col_norm2."""
    assert type(p.operator) is type(q.operator) and np.array_equal(p.C, q.C)
    pairs = [(p.b, q.b), (p.operator.gram, q.operator.gram)]
    pairs += zip(p.operator.triplets(), q.operator.triplets())
    if isinstance(p.operator, DenseOperator):
        pairs.append((p.operator.mats, q.operator.mats))
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert (p.b_norm, p.C_norm, p.operator.max_col_norm2) \
        == (q.b_norm, q.C_norm, q.operator.max_col_norm2)


def random_sym(rng, n, scale=1.0):
    return symmetrize(rng.standard_normal((n, n))) * scale


def _blocking(rng, c):
    """Coefficients that bound each variable of cost c from below through
    its own constraint row: moving against c raises the row's value."""
    return -np.sign(c) * (0.5 + rng.random(c.size))


def _inactive_rows(rng, h):
    """h with about a third of its rows lowered to -1e3, which keeps them
    inactive at moderate points, so a slack-like variable can have no
    active row and a ridge-only pivot."""
    return np.where(rng.random(h.size) < 0.3, -1e3, h)


@st.composite
def ineq_qps(draw):
    """A QP with a bounded augmented Lagrangian, of one of five kinds:
    - svm or lasso;
    - a dense G and positive definite Q (no slack-like variable);
    - a positive definite block on a few coupled variables, slack-like
      variables each with a row that bounds it below, and in some draws a
      pair of Q-free variables of zero cost that share a row (which leaves
      both of them coupled);
    - an LP-like QP of bound rows, Q = 0, every variable slack-like (those
      with no bounding row have zero cost).
    Columns of the last two kinds come in a random order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["svm", "lasso", "dense", "partial", "lp"]))
    if kind in ("svm", "lasso"):
        rows, d = draw(st.integers(1, 30)), draw(st.integers(1, 12))
        A = rng.standard_normal((rows, d))
        if kind == "svm":
            return svm_instance(A, rng.choice([-1.0, 1.0], rows), lam=1.0)
        return lasso_instance(A, rng.standard_normal(rows), 1.0)
    if kind == "dense":
        rows, d = draw(st.integers(1, 30)), draw(st.integers(1, 12))
        B = rng.standard_normal((d, d))
        return IneqProblem(Q=symmetrize(B @ B.T) + 0.1 * np.eye(d), c=rng.standard_normal(d),
                           G=rng.standard_normal((rows, d)),
                           h=_inactive_rows(rng, rng.standard_normal(rows)))
    if kind == "partial":
        k, n_J = draw(st.integers(1, 6)), draw(st.integers(1, 8))
        n_pair, extra = 2 * draw(st.integers(0, 1)), draw(st.integers(0, 10))
        n = k + n_J + n_pair
        B = rng.standard_normal((k, k))
        Q = np.zeros((n, n))
        Q[:k, :k] = symmetrize(B @ B.T) + 0.1 * np.eye(k)
        c = np.concatenate([rng.standard_normal(k + n_J), np.zeros(n_pair)])
        G = np.zeros((n_J + extra + n_pair // 2, n))
        G[:, :k] = rng.standard_normal((G.shape[0], k))
        G[np.arange(n_J), k + np.arange(n_J)] = _blocking(rng, c[k:k + n_J])
        G[-1, n - n_pair:] = rng.standard_normal(n_pair)
    else:
        n, rows = draw(st.integers(1, 10)), draw(st.integers(1, 20))
        Q = np.zeros((n, n))
        c = rng.standard_normal(n)
        var = np.concatenate([np.arange(n), rng.integers(0, n, rows)])
        coef = rng.standard_normal(var.size)
        coef[:n] = _blocking(rng, c)
        has_row = rng.random(n) < 0.8
        c[~has_row] = 0.0
        keep = np.concatenate([has_row, np.ones(rows, dtype=bool)])
        var, coef = var[keep], coef[keep]
        G = np.zeros((var.size, n))
        G[np.arange(var.size), var] = coef
    order = rng.permutation(n)
    h = _inactive_rows(rng, rng.standard_normal(G.shape[0]))
    return IneqProblem(Q=Q[np.ix_(order, order)], c=c[order], G=G[:, order], h=h)


@st.composite
def ineq_subproblems(draw):
    """A QP from :func:`ineq_qps`, multipliers z >= 0 (all zero in some
    draws), a penalty r in [0.1, 100] and a generator for points."""
    q = draw(ineq_qps())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = np.maximum(rng.standard_normal(q.n_constraints), 0.0)
    if draw(st.booleans()):
        z = np.zeros(q.n_constraints)
    r = 10.0 ** draw(st.floats(-1.0, 2.0))
    return q, z, r, rng


@st.composite
def sparse_sdps(draw, max_n=7):
    """A max-cut relaxation or a random SDP whose A_i have 1 to 3 nonzeros.

    Each random A_i owns one upper-triangle position (so the stack is
    independent for generic values) and may add more, on or off the
    diagonal, up to its drawn nonzero count; an off-diagonal position holds
    two nonzeros. Values span a drawn power of ten.
    """
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        W = np.triu(rng.random((n, n)) < draw(st.sampled_from([0.2, 0.5, 1.0])), 1)
        W = W * rng.integers(1, 4, size=(n, n))
        return maxcut_instance((W + W.T).astype(float))
    upper = list(zip(*np.triu_indices(n)))
    m = draw(st.integers(1, len(upper)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    mats = np.zeros((m, n, n))
    nonzeros = lambda i, j: 1 if i == j else 2
    for A, anchor in zip(mats, rng.permutation(len(upper))[:m]):
        i, j = upper[anchor]
        A[i, j] = A[j, i] = rng.standard_normal() * scale
        budget = int(rng.integers(1, 4)) - nonzeros(i, j)
        for pos in rng.permutation(len(upper)):
            i, j = upper[pos]
            if A[i, j] == 0.0 and nonzeros(i, j) <= budget:
                A[i, j] = A[j, i] = rng.standard_normal() * scale
                budget -= nonzeros(i, j)
    try:
        return SdpProblem(C=random_sym(rng, n), constraint_mats=mats,
                          b=rng.standard_normal(m))
    except ValueError:
        assume(False)
