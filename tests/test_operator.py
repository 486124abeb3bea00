"""Property tests of the flat constraint operator A, its adjoint and the trace product."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conic_alm.model import SdpProblem, apply_A, apply_Astar
from conic_alm.symcone import frob, inner, symmetrize

from oracles import (naive_apply_A, tensordot_apply_A, tensordot_apply_Astar,
                     tensordot_inner)

REL = 1e-14


@st.composite
def operator_cases(draw):
    """A random SDP with a symmetric point X and a multiplier y.

    Half of the constraint stacks arrive in Fortran order, so that the
    problem has to store its own contiguous copy before taking the flat view.
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
    scale = 1.0 + frob(p.A_flat) * frob(X) * float(np.linalg.norm(y))
    assert abs(lhs - rhs) <= 1e-13 * scale


@given(operator_cases())
def test_apply_A_matches_naive_double_loop(case):
    p, X, _ = case
    atol = 1e-13 * frob(p.A_flat) * frob(X)
    assert_allclose(apply_A(p, X), naive_apply_A(p.constraint_mats, X), rtol=1e-13, atol=atol)


@given(operator_cases())
def test_maps_match_tensordot_reference(case):
    p, X, y = case
    mats = p.constraint_mats
    assert_allclose(apply_A(p, X), tensordot_apply_A(mats, X), rtol=REL,
                    atol=REL * frob(p.A_flat) * frob(X))
    assert_allclose(apply_Astar(p, y), tensordot_apply_Astar(mats, y), rtol=REL,
                    atol=REL * frob(p.A_flat) * float(np.linalg.norm(y)))
    for A in (p.C, mats[0], X):
        assert abs(inner(A, X) - tensordot_inner(A, X)) <= REL * frob(A) * frob(X)


@given(operator_cases())
def test_flat_operator_is_a_view(case):
    p, _, _ = case
    assert p.A_flat.shape == (p.m, p.n * p.n)
    assert np.shares_memory(p.A_flat, p.constraint_mats)
    assert p.constraint_mats.flags.c_contiguous
    for i, A in enumerate(p.constraint_mats):
        assert np.array_equal(p.A_flat[i], A.ravel())


def test_inner_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        inner(np.ones((2, 3)), np.ones((3, 2)))
