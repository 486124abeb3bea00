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
from conic_alm.model import (SdpProblem, lasso_instance, maxcut_instance, svm_instance,
                             synth_known_solution)
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


def random_sym(rng, n, scale=1.0):
    return symmetrize(rng.standard_normal((n, n))) * scale


@st.composite
def ineq_subproblems(draw):
    """A random svm or lasso QP, multipliers z >= 0 (all zero in some draws),
    a penalty r in [0.1, 100] and a generator for points."""
    rows, d = draw(st.integers(1, 30)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((rows, d))
    if draw(st.booleans()):
        q = svm_instance(A, rng.choice([-1.0, 1.0], rows), lam=1.0)
    else:
        q = lasso_instance(A, rng.standard_normal(rows), 1.0)
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
