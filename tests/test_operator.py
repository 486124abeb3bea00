"""Property tests of the constraint operators (A, its adjoint, the rotated
rows vec(Q' A_i Q) and the Gram matrix) and of the trace product."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conic_alm.fixtures import maxcut_fixture
from conic_alm.model import (DenseOperator, SdpProblem, SparseOperator, apply_A, apply_Astar,
                             maxcut_instance, synth_known_solution)
from conic_alm.symcone import frob, inner, symmetrize

from conftest import assert_same_problem, sparse_sdps
from oracles import (apply_A_one, apply_Astar_one, both_operators, flat_constraints,
                     naive_apply_A, tensordot_apply_A, tensordot_apply_Astar, tensordot_inner)

REL = 1e-14


@st.composite
def operator_cases(draw):
    """A random SDP with a symmetric point X and a multiplier y.

    Half of the constraint stacks arrive in Fortran order, so that the stack
    entry reads the nonzeros of a non-contiguous array; the problem stores
    its own contiguous stack either way.
    """
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, n * (n + 1) // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    mats = rng.standard_normal((m, n, n)) * scale
    mats = (mats + mats.transpose(0, 2, 1)) / 2.0
    if draw(st.booleans()):
        mats = np.asfortranarray(mats)
    try:
        p = SdpProblem(C=symmetrize(rng.standard_normal((n, n))), constraint_mats=mats,
                       b=rng.standard_normal(m))
    except ValueError:
        assume(False)
    X = symmetrize(rng.standard_normal((n, n)))
    y = rng.standard_normal(m)
    return p, X, y


@given(operator_cases())
def test_adjoint_identity(case):
    p, X, y = case
    lhs = float(apply_A(p, X) @ y)
    rhs = inner(X, apply_Astar(p, y))
    scale = 1.0 + frob(flat_constraints(p)) * frob(X) * float(np.linalg.norm(y))
    assert abs(lhs - rhs) <= 1e-13 * scale


@given(operator_cases())
def test_apply_A_matches_naive_double_loop(case):
    p, X, _ = case
    atol = 1e-13 * frob(flat_constraints(p)) * frob(X)
    assert_allclose(apply_A(p, X), naive_apply_A(p.constraint_mats, X), rtol=1e-13, atol=atol)


@given(operator_cases())
def test_maps_match_tensordot_reference(case):
    p, X, y = case
    mats = p.constraint_mats
    assert_allclose(apply_A(p, X), tensordot_apply_A(mats, X), rtol=REL,
                    atol=REL * frob(flat_constraints(p)) * frob(X))
    assert_allclose(apply_Astar(p, y), tensordot_apply_Astar(mats, y), rtol=REL,
                    atol=REL * frob(flat_constraints(p)) * float(np.linalg.norm(y)))
    for A in (p.C, mats[0], X):
        assert abs(inner(A, X) - tensordot_inner(A, X)) <= REL * frob(A) * frob(X)


def check_entries_agree(p):
    """The stack entry, given p's stack, and the triplet entry, given its
    nonzeros in order (the builder's unsorted path skipped) or reversed,
    each build p again, to the bit."""
    triplets = p.operator.triplets()
    for q in (SdpProblem(p.C, p.constraint_mats, p.b),
              SdpProblem.from_triplets(p.C, triplets, p.b),
              SdpProblem.from_triplets(p.C, [a[::-1] for a in triplets], p.b)):
        assert_same_problem(p, q)
        assert q.C.tobytes() == p.C.tobytes()


@given(operator_cases())
def test_flat_operator_is_a_view(case):
    p, _, _ = case
    check_entries_agree(p)
    mats = p.constraint_mats
    if isinstance(p.operator, DenseOperator):
        # a dense problem's stack is the problem's own, scattered from the
        # nonzeros and read-only, never the caller's array; its operator
        # holds it
        assert mats is p.operator.mats and not mats.flags.writeable
    flat = DenseOperator(mats).flat
    assert flat.shape == (p.m, p.n * p.n)
    assert np.shares_memory(flat, mats)
    assert mats.flags.c_contiguous
    for i, A in enumerate(mats):
        assert np.array_equal(flat[i], A.ravel())


def random_orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


@given(sparse_sdps(), st.integers(0, 2**32 - 1))
def test_sparse_operator_matches_dense(p, seed):
    check_entries_agree(p)
    sparse, dense = both_operators(p)
    rng = np.random.default_rng(seed)
    X, y = rng.standard_normal((p.n, p.n)), rng.standard_normal(p.m)
    norm_A = frob(flat_constraints(p))
    assert_allclose(sparse.apply(X), dense.apply(X), rtol=REL, atol=REL * norm_A * frob(X))
    assert_allclose(sparse.adjoint(y), dense.adjoint(y), rtol=REL,
                    atol=REL * norm_A * float(np.linalg.norm(y)))
    assert sparse.max_col_norm2 == pytest.approx(dense.max_col_norm2, rel=REL)
    # the rotated rows for a random block of Q, the empty one and all of Q
    Q = random_orthogonal(rng, p.n)
    for rows in (rng.random(p.n) < 0.5, np.zeros(p.n, bool), None):
        rot = sparse.rotated(Q, rows)
        assert rot.shape == dense.rotated(Q, rows).shape
        assert_allclose(rot, dense.rotated(Q, rows), rtol=REL, atol=REL * norm_A)
    # a block of rows is that slice of the full stack
    full = sparse.rotated(Q)
    block = rng.random(p.n) < 0.5
    assert np.array_equal(sparse.rotated(Q, block),
                          full.reshape(p.m, p.n, p.n)[:, block].reshape(p.m, -1))
    # the Gram matrix from the pairs of nonzeros is exactly symmetric and
    # matches the dense one; Q is orthogonal, so the rotated rows keep it
    gram = dense.gram
    assert np.array_equal(sparse.gram, sparse.gram.T)
    assert_allclose(sparse.gram, gram, rtol=REL, atol=REL * np.max(np.abs(gram)))
    assert_allclose(full @ full.T, gram, rtol=REL, atol=10 * REL * np.max(np.abs(gram)))
    # the stack (built on access when p is sparse) holds the nonzeros, and
    # no others
    mats = p.constraint_mats
    assert np.count_nonzero(mats) == sparse.val.size
    assert np.array_equal(mats[sparse.k, sparse.row, sparse.col], sparse.val)


def check_rotation(p, rng):
    """On each of ``both_operators(p)``, R V = A(Q V Q') and R' z = Q' A*(z) Q
    from ``op.rotation`` against the rotated rows, R V = rot vec(V) and
    R' z = rot' z, and their adjointness; the dense and the sparse maps
    agree to rounding."""
    Q = random_orthogonal(rng, p.n)
    V, z = rng.standard_normal((p.n, p.n)), rng.standard_normal(p.m)
    tol = 10 * REL * p.n * frob(flat_constraints(p))
    z_norm = float(np.linalg.norm(z))
    maps = []
    for op in both_operators(p):
        R, R_t = op.rotation(Q)
        rot = op.rotated(Q)
        RV, Rz = R(V), R_t(z)
        assert RV.shape == (p.m,) and Rz.shape == (p.n, p.n)
        assert_allclose(RV, rot @ V.ravel(), rtol=0, atol=tol * frob(V))
        assert_allclose(Rz, (rot.T @ z).reshape(p.n, p.n), rtol=0, atol=tol * z_norm)
        assert abs(float(RV @ z) - inner(V, Rz)) <= tol * frob(V) * z_norm
        maps.append((RV, Rz))
    (sparse_RV, sparse_Rz), (dense_RV, dense_Rz) = maps
    assert_allclose(sparse_RV, dense_RV, rtol=0, atol=tol * frob(V))
    assert_allclose(sparse_Rz, dense_Rz, rtol=0, atol=tol * z_norm)


@given(sparse_sdps(), st.integers(0, 2**32 - 1))
def test_rotation_maps_match_rotated_rows(p, seed):
    # max-cut draws have one nonzero per A_i, the others one to three
    check_rotation(p, np.random.default_rng(seed))


@pytest.mark.parametrize("n,m", [(3, 3), (5, 6), (8, 12)])
def test_rotation_maps_with_dense_matrices(n, m):
    # every A_i full: n^2 nonzeros each, summed per matrix
    p = synth_known_solution(n=n, m=m, rank_x=1, seed=n).problem
    check_rotation(p, np.random.default_rng(m))


@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_maxcut_rotated_stack_is_bitwise_dense(n, seed):
    rng = np.random.default_rng(seed)
    W = np.triu(rng.random((n, n)) < 0.3, 1).astype(float)
    p = maxcut_instance(W + W.T)
    sparse, dense = both_operators(p)
    Q = random_orthogonal(rng, n)
    X = symmetrize(rng.standard_normal((n, n)))
    y = rng.standard_normal(n)
    assert np.array_equal(sparse.rotated(Q), dense.rotated(Q))
    assert np.array_equal(sparse.apply(X), dense.apply(X))
    assert np.array_equal(sparse.adjoint(y), dense.adjoint(y))


def test_selection_rule():
    # sparse when the A_i hold at most m n nonzeros in all
    for name in ("maxcut-g1-20", "maxcut-g2-20", "maxcut-g3-20"):
        assert isinstance(maxcut_fixture(name).operator, SparseOperator)
    for n in range(2, 9):
        for m in (1, n, n * (n + 1) // 2):
            p = synth_known_solution(n=n, m=m, rank_x=1, seed=n + m).problem
            assert isinstance(p.operator, DenseOperator)
            check_entries_agree(p)
    mats = np.zeros((2, 2, 2))
    mats[0, 0, 1] = mats[0, 1, 0] = mats[1, 0, 0] = mats[1, 1, 1] = 1.0
    assert isinstance(SdpProblem(np.eye(2), mats, np.ones(2)).operator, SparseOperator)
    mats[1, 0, 1] = mats[1, 1, 0] = 1.0
    assert isinstance(SdpProblem(np.eye(2), mats, np.ones(2)).operator, DenseOperator)


def test_inner_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        inner(np.ones((2, 3)), np.ones((3, 2)))


STACK_SHAPES = [(1,), (5,), (2, 3), (1, 1)]


@given(st.one_of(sparse_sdps(), operator_cases().map(lambda case: case[0])),
       st.sampled_from(STACK_SHAPES), st.integers(0, 2**32 - 1))
def test_stacked_maps_match_a_loop_bitwise(p, lead, seed):
    # both operators, through the problem's maps and directly: item j of a
    # stack is the map of item j alone, and the single-matrix map of the
    # problem's own operator, to the bit
    rng = np.random.default_rng(seed)
    X = symmetrize(rng.standard_normal(lead + (p.n, p.n)))
    y = rng.standard_normal(lead + (p.m,))
    AX, Ay = apply_A(p, X), apply_Astar(p, y)
    assert AX.shape == lead + (p.m,) and Ay.shape == lead + (p.n, p.n)
    for idx in np.ndindex(*lead):
        assert AX[idx].tobytes() == apply_A_one(p, X[idx]).tobytes()
        assert Ay[idx].tobytes() == apply_Astar_one(p, y[idx]).tobytes()
    for op in both_operators(p):
        AX, Ay = op.apply(X), op.adjoint(y)
        for idx in np.ndindex(*lead):
            assert AX[idx].tobytes() == op.apply(X[idx]).tobytes()
            assert Ay[idx].tobytes() == op.adjoint(y[idx]).tobytes()


def test_maps_reject_wrong_trailing_shapes():
    p = synth_known_solution(n=3, m=4, rank_x=1, seed=0).problem
    with pytest.raises(ValueError, match="X must have shape"):
        apply_A(p, np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="y must have shape"):
        apply_Astar(p, np.zeros((2, 3)))
