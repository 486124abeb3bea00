"""Bitwise determinism of the subproblem objectives, their Newton solves
and ``eig_sym``.

A solve must write the same ``trace.csv`` on every run. That holds only if
each objective and each Newton solve is a function of the bits of its
argument, not of where those bits sit in memory, which can differ from run
to run. Each property evaluates a point as a fresh copy and as a view that
starts a few elements into a larger buffer, and compares the bits.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from conic_alm.auglag import dual_objective, ineq_objective, primal_objective
from conic_alm.model import DualPoint, SdpProblem, lasso_instance
from conic_alm.symcone import eig_sym, symmetrize

from conftest import ineq_subproblems


def relocated(x, offset):
    """A copy of x stored ``offset`` elements into a larger buffer."""
    buf = np.full(x.size + offset + 1, np.nan)
    view = buf[offset:offset + x.size].reshape(x.shape)
    view[...] = x
    return view


def bits(value, grad):
    return np.float64(value).tobytes(), np.ascontiguousarray(grad).tobytes()


def assert_same_bits(objective, x, offset):
    assert bits(*objective(x.copy())[:2]) == bits(*objective(relocated(x, offset))[:2])


def assert_same_solve(objective, x, offset):
    # the Newton direction is objective(x)[2](g) with g the gradient at x, so
    # a run-to-run identical trace needs it
    _, g, solve, _ = objective(x.copy())
    assert solve(g).tobytes() == objective(relocated(x, offset))[2](g).tobytes()


@st.composite
def sdp_cases(draw):
    """A random SDP, symmetric matrices X and Z, a vector y, r and an offset."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, n * (n + 1) // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = rng.standard_normal((m, n, n))
    mats = (mats + mats.transpose(0, 2, 1)) / 2.0
    try:
        p = SdpProblem(C=symmetrize(rng.standard_normal((n, n))), constraint_mats=mats,
                       b=rng.standard_normal(m))
    except ValueError:
        assume(False)
    X = symmetrize(rng.standard_normal((n, n)))
    Z = symmetrize(rng.standard_normal((n, n)))
    y = rng.standard_normal(m)
    r = 10.0 ** draw(st.integers(-2, 2))
    return p, X, Z, y, r, draw(st.integers(1, 7))


@st.composite
def lasso_cases(draw):
    """A random lasso QP, a point x, multipliers z >= 0, r and an offset."""
    rows, d = draw(st.integers(1, 30)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = lasso_instance(rng.standard_normal((rows, d)), rng.standard_normal(rows), 1.0)
    x = rng.standard_normal(q.dim)
    z = np.maximum(rng.standard_normal(q.n_constraints), 0.0)
    r = 10.0 ** draw(st.integers(-2, 2))
    return q, x, z, r, draw(st.integers(1, 7))


@given(sdp_cases())
def test_primal_objective_depends_only_on_bits(case):
    p, X, Z, y, r, offset = case
    assert_same_bits(primal_objective(p, DualPoint(y=y, Z=Z), r), X, offset)


@given(sdp_cases())
def test_dual_objective_depends_only_on_bits(case):
    p, X, _, y, r, offset = case
    assert_same_bits(dual_objective(p, X, r), y, offset)


@given(lasso_cases())
def test_ineq_objective_depends_only_on_bits(case):
    q, x, z, r, offset = case
    assert_same_bits(ineq_objective(q, z, r), x, offset)


@given(ineq_subproblems(), st.integers(1, 7))
def test_ineq_hessian_depends_only_on_bits(case, offset):
    q, z, r, rng = case
    x = rng.standard_normal(q.dim)
    assert_same_solve(ineq_objective(q, z, r), x, offset)


@given(sdp_cases())
def test_primal_hessian_depends_only_on_bits(case):
    p, X, Z, y, r, offset = case
    assert_same_solve(primal_objective(p, DualPoint(y=y, Z=Z), r), X, offset)


@given(sdp_cases())
def test_dual_hessian_depends_only_on_bits(case):
    p, X, _, y, r, offset = case
    assert_same_solve(dual_objective(p, X, r), y, offset)


@given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 7))
def test_eig_sym_depends_only_on_bits(n, seed, clustered, offset):
    rng = np.random.default_rng(seed)
    if clustered:
        # repeated eigenvalues exercise the in-cluster re-orthonormalization
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        X = symmetrize((Q * rng.choice([-1.0, 0.0, 2.0], size=n)) @ Q.T)
    else:
        X = symmetrize(rng.standard_normal((n, n)))
    a, b = eig_sym(X.copy()), eig_sym(relocated(X, offset))
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()
