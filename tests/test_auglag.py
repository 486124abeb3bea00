"""Augmented Lagrangian values/gradients against finite differences and
closed-form saddle identities."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conic_alm import auglag
from conic_alm.auglag import (_block_gram, _omega, _primal_solve_block, dual_gap_lower_bound,
                              dual_objective, eval_L_dual, eval_L_ineq, eval_L_primal,
                              grad_L_dual_y, grad_L_ineq_x, grad_L_primal_X, grad_L_primal_w,
                              ineq_objective, primal_objective)
from conic_alm.fixtures import load_builtin
from conic_alm.inner import minimize_auglag
from conic_alm.model import (DenseOperator, DualPoint, IneqProblem, SparseOperator, apply_A,
                             apply_Astar, maxcut_instance, svm_instance,
                             synth_known_solution)
from conic_alm.symcone import frob, inner, symmetrize

from conftest import ineq_subproblems, random_sym, sparse_sdps
from oracles import (both_operators, broadcast_omega, divided_differences,
                     dual_hessian_matrix, fd_grad_sym, fd_grad_vec, flat_constraints,
                     ineq_hessian_matrix, primal_hessian_matrix)


def rand_dual(rng, p, scale=1.0):
    return DualPoint(y=rng.standard_normal(p.m) * scale,
                     Z=random_sym(rng, p.n, scale))


def assert_solves(K, d, g, rtol=1e-9):
    """d solves K d = g with normwise backward error at most rtol."""
    residual = np.linalg.norm(K @ d - g)
    assert residual <= rtol * (np.linalg.norm(K, 2) * np.linalg.norm(d) + np.linalg.norm(g))


@contextlib.contextmanager
def counted_solves():
    """The shape of the matrix of each np.linalg.solve call in the block."""
    calls = []
    solve = np.linalg.solve

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return solve(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "solve", counted):
        yield calls


def ridge(H):
    return 1e-12 * (1.0 + np.max(np.abs(np.diag(H))))


def spectral_margin(lam):
    """Smallest distance between two eigenvalues or from one to 0."""
    pts = np.append(lam, 0.0)
    return float(np.min(np.abs(pts[:, None] - pts[None, :]) + np.diag(np.full(pts.size, np.inf))))


class TestPrimalValue:
    def test_saddle_value_toy(self, toy):
        w_star = toy.w_star
        for r in (0.5, 1.0, 2.0, 7.3):
            val = eval_L_primal(toy.problem, toy.x_star, w_star, r)
            assert val == pytest.approx(toy.p_star, abs=1e-12)

    def test_saddle_value_certified(self, certified5):
        for r in (0.5, 1.0, 4.0):
            val = eval_L_primal(certified5.problem, certified5.x_star,
                                certified5.w_star, r)
            assert val == pytest.approx(certified5.p_star, abs=1e-8)

    def test_zero_multipliers_psd_point(self, rng, certified5):
        # with w = 0 and X PSD, the cone term drops and only the affine
        # quadratic remains
        p = certified5.problem
        X = symmetrize(certified5.x_star + 0.1 * np.eye(p.n))
        w0 = DualPoint(y=np.zeros(p.m), Z=np.zeros((p.n, p.n)))
        expected = inner(p.C, X) + 0.5 * float(np.sum((p.b - apply_A(p, X)) ** 2))
        assert eval_L_primal(p, X, w0, 1.0) == pytest.approx(expected, abs=1e-10)

    def test_rejects_bad_r(self, toy):
        # NaN fails r > 0 without satisfying r <= 0
        for r in (0.0, np.nan):
            with pytest.raises(ValueError):
                eval_L_primal(toy.problem, toy.x_star, toy.w_star, r)

    def test_convexity_in_X(self, rng, certified5):
        p = certified5.problem
        for _ in range(200):
            w = rand_dual(rng, p)
            r = float(rng.uniform(0.3, 4.0))
            X1 = random_sym(rng, p.n)
            X2 = random_sym(rng, p.n)
            v1 = eval_L_primal(p, X1, w, r)
            v2 = eval_L_primal(p, X2, w, r)
            for theta in (0.25, 0.5, 0.75):
                Xm = symmetrize(theta * X1 + (1 - theta) * X2)
                assert eval_L_primal(p, Xm, w, r) <= theta * v1 + (1 - theta) * v2 + 1e-9


class TestPrimalGradients:
    def test_gradient_zero_at_saddle_toy(self, toy):
        g = grad_L_primal_X(toy.problem, toy.x_star, toy.w_star, 1.0)
        assert frob(g) <= 1e-12

    def test_inactive_cone_branch(self, rng, certified5):
        # X strictly PD with Z = 0 and small r: projection term vanishes
        p = certified5.problem
        X = symmetrize(np.eye(p.n) * 2.0)
        y = rng.standard_normal(p.m) * 0.1
        w = DualPoint(y=y, Z=np.zeros((p.n, p.n)))
        r = 0.01
        from conic_alm.model import apply_Astar
        expected = p.C - apply_Astar(p, y + r * (p.b - apply_A(p, X)))
        assert_allclose(grad_L_primal_X(p, X, w, r), expected, atol=1e-12)

    def test_grad_X_finite_differences(self, rng, certified5):
        p = certified5.problem
        for _ in range(100):
            X = random_sym(rng, p.n)
            w = rand_dual(rng, p)
            r = float(rng.uniform(0.3, 3.0))
            g = grad_L_primal_X(p, X, w, r)
            fd = fd_grad_sym(lambda M: eval_L_primal(p, symmetrize(M), w, r), X)
            assert frob(g - fd) <= 1e-5 * (1.0 + frob(fd))

    def test_grad_w_formulas(self, rng, certified5):
        p = certified5.problem
        X = random_sym(rng, p.n)
        w = rand_dual(rng, p)
        gy, gZ = grad_L_primal_w(p, X, w, 1.5)
        assert_allclose(gy, p.b - apply_A(p, X), atol=1e-12)
        # gZ = (proj_psd(Z - rX) - Z) / r
        from conic_alm.symcone import project_psd
        assert_allclose(gZ, (project_psd(symmetrize(w.Z - 1.5 * X)) - w.Z) / 1.5,
                        atol=1e-12)

    def test_grad_y_zero_at_feasible_point(self, certified5):
        gy, _ = grad_L_primal_w(certified5.problem, certified5.x_star,
                                certified5.w_star, 2.0)
        assert np.linalg.norm(gy) <= 1e-12

    def test_grad_Z_zero_projection_branch(self, rng, certified5):
        # Z = rX with X PSD: proj_psd(Z - rX) = 0, so grad_Z = -Z / r
        p = certified5.problem
        r = 2.0
        X = symmetrize(np.eye(p.n) + 0.1 * random_sym(rng, p.n))
        from conic_alm.symcone import project_psd
        X = project_psd(X)
        w = DualPoint(y=np.zeros(p.m), Z=symmetrize(r * X))
        _, gZ = grad_L_primal_w(p, X, w, r)
        assert_allclose(gZ, -w.Z / r, atol=1e-10)

    def test_grad_w_finite_differences(self, rng, certified5):
        p = certified5.problem
        for _ in range(100):
            X = random_sym(rng, p.n)
            w = rand_dual(rng, p)
            r = float(rng.uniform(0.3, 3.0))
            gy, gZ = grad_L_primal_w(p, X, w, r)
            fd_y = fd_grad_vec(lambda v: eval_L_primal(p, X, DualPoint(y=v, Z=w.Z), r), w.y)
            fd_Z = fd_grad_sym(lambda M: eval_L_primal(p, X, DualPoint(y=w.y, Z=symmetrize(M)), r), w.Z)
            assert np.linalg.norm(gy - fd_y) <= 1e-5 * (1.0 + np.linalg.norm(fd_y))
            assert frob(gZ - fd_Z) <= 1e-5 * (1.0 + frob(fd_Z))


class TestDualForm:
    def test_saddle_value(self, certified5):
        for r in (0.5, 1.0, 4.0):
            val = eval_L_dual(certified5.problem, certified5.y_star,
                              certified5.x_star, r)
            assert val == pytest.approx(-certified5.p_star, abs=1e-8)

    def test_inactive_projection(self, toy):
        # X = 0 and C - A*(y) strictly PD: the projection term vanishes
        y = np.array([-0.5, -0.5])
        val = eval_L_dual(toy.problem, y, np.zeros((2, 2)), 1.0)
        assert val == pytest.approx(-float(toy.problem.b @ y), abs=1e-12)

    def test_grad_finite_differences(self, rng, certified5):
        p = certified5.problem
        for _ in range(100):
            y = rng.standard_normal(p.m)
            X = random_sym(rng, p.n)
            r = float(rng.uniform(0.3, 3.0))
            g = grad_L_dual_y(p, y, X, r)
            fd = fd_grad_vec(lambda v: eval_L_dual(p, v, X, r), y)
            assert np.linalg.norm(g - fd) <= 1e-5 * (1.0 + np.linalg.norm(fd))


@st.composite
def certified_subproblems(draw, max_n=6):
    """A random certified SDP (n in 2..max_n), a penalty r in [0.1, 10] and
    a generator for points and multipliers."""
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, n * (n + 1) // 2))
    rank_x = draw(st.integers(1, n))
    inst = synth_known_solution(n=n, m=m, rank_x=rank_x, seed=draw(st.integers(0, 2**16)))
    r = 10.0 ** draw(st.floats(-1.0, 1.0))
    return inst.problem, r, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


class TestObjectivesAgainstFiniteDifferences:
    @given(certified_subproblems())
    def test_primal_objective(self, case):
        p, r, rng = case
        obj = primal_objective(p, rand_dual(rng, p), r)
        X = random_sym(rng, p.n)
        fd = fd_grad_sym(lambda M: obj(symmetrize(M))[0], X)
        assert frob(obj(X)[1] - fd) <= 1e-5 * (1.0 + frob(fd))

    @given(certified_subproblems())
    def test_dual_objective(self, case):
        p, r, rng = case
        obj = dual_objective(p, random_sym(rng, p.n), r)
        y = rng.standard_normal(p.m)
        fd = fd_grad_vec(lambda v: obj(v)[0], y)
        assert np.linalg.norm(obj(y)[1] - fd) <= 1e-5 * (1.0 + np.linalg.norm(fd))


@st.composite
def sparse_subproblems(draw, max_n=5):
    """A sparse-operator SDP from ``sparse_sdps``, r as in certified_subproblems."""
    p = draw(sparse_sdps(max_n=max_n))
    assume(isinstance(p.operator, SparseOperator))
    r = 10.0 ** draw(st.floats(-1.0, 1.0))
    return p, r, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def spectrum_matrix(rng, n, spectrum):
    """A symmetric matrix whose eigenvalues are all > 0 ("positive") or all < 0."""
    B = rng.standard_normal((n, n))
    S = symmetrize(B @ B.T) + 0.1 * np.eye(n)
    return S if spectrum == "positive" else -S


def check_primal_solve(p, r, rng, log_scale, spectrum="mixed", newton=None):
    # Z - rX has the drawn spectrum; with spectrum "mixed", Z is a plain draw.
    # The solve is the oracle's, or ``newton`` called with this rho
    w, X = rand_dual(rng, p), random_sym(rng, p.n)
    if spectrum != "mixed":
        w = DualPoint(y=w.y, Z=symmetrize(r * X + spectrum_matrix(rng, p.n, spectrum)))
    G = random_sym(rng, p.n, 10.0 ** log_scale)
    floor = 1e-12 * (1.0 + r * (1.0 + np.max(np.sum(flat_constraints(p) ** 2, axis=0))))
    rho = max(r * min(1.0, frob(G) / (1.0 + frob(p.C))) ** 2, floor)
    if newton is None:
        D = primal_objective(p, w, r)(X)[2](G)
    else:
        D = newton(p, r, rho, *np.linalg.eigh(w.Z - r * X), G)
    assert D.tobytes() == D.T.tobytes()
    K = primal_hessian_matrix(p, w, r, X) + rho * np.eye(p.n * p.n)
    assert_solves(K, D.ravel(), G.ravel())
    return rho, floor


def check_primal_solve_at_floor_and_r(p, r, rng, newton=None):
    # tiny residuals G put rho at its floor, where the Newton matrix is
    # nearly singular, and large ones put it at r
    for log_scale, at_floor in ((-16.0, True), (2.0, False)):
        for _ in range(3):
            rho, floor = check_primal_solve(p, r, rng, log_scale, newton=newton)
            assert rho == (floor if at_floor else r)


def check_dual_solve(p, r, rng, log_scale, spectrum="mixed"):
    # X - r(C - A*(y)) has the drawn spectrum; with "mixed", X is a plain draw
    X, y = random_sym(rng, p.n), rng.standard_normal(p.m)
    if spectrum != "mixed":
        X = symmetrize(r * (p.C - apply_Astar(p, y)) + spectrum_matrix(rng, p.n, spectrum))
    g = rng.standard_normal(p.m) * 10.0 ** log_scale
    d = dual_objective(p, X, r)(y)[2](g)
    H = dual_hessian_matrix(p, X, r, y)
    assert_solves(H + ridge(H) * np.eye(p.m), d, g)


SPECTRA = st.sampled_from(["mixed", "positive", "nonpositive"])


class TestSdpNewtonSolves:
    """The Newton solves against the explicit Kronecker-form Hessians."""

    @given(certified_subproblems(max_n=4), st.floats(-16.0, 2.0))
    def test_primal_solve(self, case, log_scale):
        # rho = r min(1, ||G|| / (1 + ||C||))^2 takes both branches and meets
        # its floor over the drawn scales
        check_primal_solve(*case, log_scale)

    # the acceptance shapes n -> (m, rank_x); instance n has seed 100 + n - 3
    @pytest.mark.parametrize("n,m,rank_x", [(3, 3, 1), (4, 5, 2), (5, 6, 2), (6, 8, 3),
                                            (7, 9, 3), (8, 12, 4)])
    @pytest.mark.parametrize("r", [1.0, 10.0])
    def test_primal_solve_acceptance_shapes(self, n, m, rank_x, r):
        # the dense solve at the shapes the certified study runs (n = 6 lies
        # beyond the drawn strategy's n <= 4)
        p = synth_known_solution(n=n, m=m, rank_x=rank_x, seed=100 + n - 3).problem
        check_primal_solve_at_floor_and_r(p, r, np.random.default_rng(n))

    # dense synth shapes above DIRECT_SOLVE_MAX_N, m = 1.5 n
    @pytest.mark.parametrize("n,m,rank_x", [(9, 13, 4), (10, 15, 5), (11, 16, 5), (12, 18, 6)])
    @pytest.mark.parametrize("r", [0.3, 1.0, 10.0])
    def test_block_solve_on_dense_operator(self, n, m, rank_x, r):
        p = synth_known_solution(n=n, m=m, rank_x=rank_x, seed=n).problem
        assert isinstance(p.operator, DenseOperator)
        check_primal_solve_at_floor_and_r(p, r, np.random.default_rng(n), _primal_solve_block)

    @pytest.mark.parametrize("n", [2, 5, 8, 9, 12])
    def test_primal_solve_is_picked_by_n(self, n):
        # on either operator: up to DIRECT_SOLVE_MAX_N one LU of order n^2,
        # above it the block solve and its one to three solves with K
        W = np.triu(np.ones((n, n)), 1)
        sparse = maxcut_instance(W + W.T)
        dense = synth_known_solution(n=n, m=n + 1, rank_x=1, seed=n).problem
        assert isinstance(sparse.operator, SparseOperator)
        assert isinstance(dense.operator, DenseOperator)
        rng = np.random.default_rng(n)
        for p in (sparse, dense):
            w, X, G = rand_dual(rng, p), random_sym(rng, n), random_sym(rng, n)
            with mock.patch.object(auglag, "_primal_solve_block",
                                   wraps=_primal_solve_block) as block:
                solve = primal_objective(p, w, 1.0)(X)[2]
                with counted_solves() as calls:
                    solve(G)
            if n <= auglag.DIRECT_SOLVE_MAX_N:
                assert calls == [(n * n, n * n)] and block.call_count == 0
            else:
                assert block.call_count == 1
                assert 1 <= len(calls) <= 3 and set(calls) == {(p.m, p.m)}

    @given(certified_subproblems(max_n=4), st.floats(-16.0, 2.0))
    def test_dual_solve(self, case, log_scale):
        check_dual_solve(*case, log_scale)

    # on a sparse operator the solves use only the rows of Q' A_i Q in one
    # eigenvalue block; all-positive and all-nonpositive spectra make that
    # block empty or full
    @given(sparse_subproblems(), st.floats(-16.0, 2.0), SPECTRA)
    def test_primal_solve_sparse(self, case, log_scale, spectrum):
        # the oracle's solve (the direct one at the drawn n <= 5) and the
        # block solve
        p, r, rng = case
        for newton in (None, _primal_solve_block):
            check_primal_solve(p, r, rng, log_scale, spectrum, newton)

    @given(sparse_subproblems(), st.floats(-16.0, 2.0), SPECTRA)
    def test_sparse_solve_makes_at_most_three_K_solves(self, case, log_scale, spectrum):
        # the Woodbury solve and at most two refinement steps, each one
        # solve with K; the oracles of check_primal_solve call no solve
        with counted_solves() as calls:
            check_primal_solve(*case, log_scale, spectrum, newton=_primal_solve_block)
        assert 1 <= len(calls) <= 3

    @pytest.mark.parametrize("name", ["maxcut-g1-20", "maxcut-g2-20", "maxcut-g3-20"])
    @pytest.mark.parametrize("r", [1.0, 10.0, 100.0])
    def test_well_conditioned_sparse_solve_makes_one_K_solve(self, name, r):
        # ||G|| >= 1 + ||C|| puts rho at r, so F >= r and the Woodbury solve
        # is at rounding level: refinement stops before its first step
        p = load_builtin(name)
        rng = np.random.default_rng(int(r))
        for _ in range(3):
            w, X = rand_dual(rng, p), random_sym(rng, p.n)
            G = random_sym(rng, p.n, 1.0 + p.C_norm)
            assert frob(G) >= 1.0 + p.C_norm
            solve = primal_objective(p, w, r)(X)[2]
            with counted_solves() as calls:
                D = solve(G)
            assert len(calls) == 1
            K = primal_hessian_matrix(p, w, r, X) + r * np.eye(p.n * p.n)
            assert_solves(K, D.ravel(), G.ravel(), rtol=1e-13)

    @given(sparse_subproblems(), st.floats(-16.0, 2.0), SPECTRA)
    def test_dual_solve_sparse(self, case, log_scale, spectrum):
        check_dual_solve(*case, log_scale, spectrum)

    @given(sparse_sdps(), st.integers(0, 2**32 - 1), st.booleans(), st.data())
    def test_block_gram_matches_full_stack(self, p, seed, head, data):
        # R diag(vec W) R' over the full rotated stack, for W vanishing off a
        # head or tail slice of any size (empty and full ones included), on
        # the dense and the sparse operator of the same data; at n <= 40 the
        # block is one chunk, and chunks of 1 to 3 rows, forced by a smaller
        # bound, sum to the same matrix
        rng = np.random.default_rng(seed)
        k = data.draw(st.integers(0, p.n))
        rows = data.draw(st.integers(1, 3))
        S = slice(0, k) if head else slice(k, None)
        inside = np.zeros(p.n, dtype=bool)
        inside[S] = True
        W = random_sym(rng, p.n) * (inside[:, None] | inside[None, :])
        Q = np.linalg.qr(rng.standard_normal((p.n, p.n)))[0]
        # 820 = 40 * 41 / 2 independent matrices at most
        assert auglag.BLOCK_GRAM_BYTES // (8 * 820 * 40) >= 40
        for op in both_operators(p):
            R = op.rotated(Q)
            reference = (R * W.ravel()) @ R.T
            scale = np.max(np.abs(W)) * np.max(np.sum(R * R, axis=1)) + 1e-300
            with mock.patch.object(op, "rotated", wraps=op.rotated) as spy:
                single = _block_gram(op, Q, S, W)
            assert spy.call_count == 1
            assert_allclose(single, reference, rtol=0, atol=1e-13 * p.n * scale)
            with mock.patch.object(auglag, "BLOCK_GRAM_BYTES", rows * 8 * p.m * p.n), \
                    mock.patch.object(op, "rotated", wraps=op.rotated) as spy:
                chunked = _block_gram(op, Q, S, W)
            assert spy.call_count == max(1, -(-np.count_nonzero(inside) // rows))
            assert_allclose(chunked, single, rtol=0, atol=1e-13 * scale)

    @given(certified_subproblems(max_n=4))
    def test_primal_hessian_matches_gradient_differences(self, case):
        # away from eigenvalue ties and from 0, proj_psd is smooth and the
        # gradient's central differences give H v up to O(h^2)
        p, r, rng = case
        w, X, V = rand_dual(rng, p), random_sym(rng, p.n), random_sym(rng, p.n)
        margin = spectral_margin(np.linalg.eigvalsh(w.Z - r * X))
        assume(margin >= 1e-2)
        h = 1e-4 * margin / (r * frob(V))
        obj = primal_objective(p, w, r)
        fd = ((obj(X + h * V)[1] - obj(X - h * V)[1]) / (2.0 * h)).ravel()
        Hv = primal_hessian_matrix(p, w, r, X) @ V.ravel()
        assert np.linalg.norm(fd - Hv) <= 1e-6 * (1.0 + np.linalg.norm(Hv))

    @given(certified_subproblems(max_n=4))
    def test_dual_hessian_matches_gradient_differences(self, case):
        p, r, rng = case
        X, y, v = random_sym(rng, p.n), rng.standard_normal(p.m), rng.standard_normal(p.m)
        flat = flat_constraints(p)
        margin = spectral_margin(np.linalg.eigvalsh(X - r * (p.C - (y @ flat).reshape(p.n, p.n))))
        assume(margin >= 1e-2)
        h = 1e-4 * margin / (r * frob((v @ flat).reshape(p.n, p.n)))
        obj = dual_objective(p, X, r)
        fd = (obj(y + h * v)[1] - obj(y - h * v)[1]) / (2.0 * h)
        Hv = dual_hessian_matrix(p, X, r, y) @ v
        assert np.linalg.norm(fd - Hv) <= 1e-6 * (1.0 + np.linalg.norm(Hv))


@st.composite
def sorted_spectra(draw):
    """An ascending spectrum of 1 to 10 eigenvalues that is all positive, all
    nonpositive, mixed, or mixed with exact zeros of both signs; ties occur
    in some draws."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = rng.standard_normal(n) * 10.0 ** draw(st.integers(-8, 8))
    kind = draw(st.sampled_from(["positive", "nonpositive", "mixed", "zeros"]))
    if kind == "positive":
        lam = np.abs(lam) + np.finfo(float).tiny
    elif kind == "nonpositive":
        lam = -np.abs(lam)
    elif kind == "zeros":
        lam[rng.random(n) < 0.5] = rng.choice([0.0, -0.0])
    if draw(st.booleans()):
        lam = rng.choice(lam, size=n)
    return np.sort(lam)


class TestOmega:
    @given(sorted_spectra())
    def test_blocks_match_broadcast_formula(self, lam):
        # the block form is the broadcast formula bit for bit: on the mixed
        # block (0 + l_j) / (|l_i| + l_j) is l_j / (l_j - l_i) exactly
        assert _omega(lam).tobytes() == broadcast_omega(lam).tobytes()

    @given(sorted_spectra())
    def test_matches_pairwise_divided_differences(self, lam):
        assert_allclose(_omega(lam), divided_differences(lam), rtol=1e-12, atol=0)


class TestIneqForm:
    def test_inactive_constraints(self, rng):
        q = svm_instance(rng.standard_normal((4, 2)), np.array([1.0, -1.0, 1.0, -1.0]),
                         lam=1.0)
        # push t so high that every constraint is strictly inactive with z = 0
        x = np.concatenate([np.zeros(2), 50.0 * np.ones(4)])
        z = np.zeros(8)
        assert eval_L_ineq(q, x, z, 1.0) == pytest.approx(q.objective(x), abs=1e-12)

    def test_svm_toy_stationary_at_optimum(self):
        q = svm_instance(np.array([[1.0]]), np.array([1.0]), lam=1.0)
        x_opt = np.array([-1.0, 0.0])
        z_opt = np.array([1.0, 0.0])
        # with the analytic multiplier the augmented gradient vanishes at the
        # optimum for any r
        for r in (0.5, 2.0):
            g = grad_L_ineq_x(q, x_opt, z_opt, r)
            assert np.linalg.norm(g) <= 1e-12

    def test_grad_finite_differences(self, rng):
        q = svm_instance(rng.standard_normal((5, 3)), rng.choice([-1.0, 1.0], 5),
                         lam=0.7)
        for _ in range(100):
            x = rng.standard_normal(q.dim)
            z = np.abs(rng.standard_normal(q.n_constraints))
            r = float(rng.uniform(0.3, 3.0))
            g = grad_L_ineq_x(q, x, z, r)
            fd = fd_grad_vec(lambda v: eval_L_ineq(q, v, z, r), x)
            assert np.linalg.norm(g - fd) <= 1e-5 * (1.0 + np.linalg.norm(fd))

    @pytest.mark.parametrize("name", ["svm-random", "lasso-random"])
    def test_kink_rows_count_active(self, name):
        # at x = 0, z = 0 every row z_i + r g_i(x) is >= 0 (lasso's all sit
        # on the kink 0), and the closed active set takes them all: the
        # solve is the one of Q + r G'G
        q, r = load_builtin(name), 2.0
        _, g, solve, _ = ineq_objective(q, np.zeros(q.n_constraints), r)(np.zeros(q.dim))
        H = q.Q + r * (q.G.T @ q.G)
        assert_allclose(ineq_hessian_matrix(q, np.zeros(q.n_constraints), r,
                                            np.zeros(q.dim)), H, rtol=1e-12)
        assert_solves(H + ridge(H) * np.eye(q.dim), solve(g), g)

    @given(ineq_subproblems())
    def test_hessian_matches_gradient_differences(self, case):
        # away from the kinks z + r g(x) = 0 the gradient is affine, so its
        # central differences equal the Hessian up to rounding, provided the
        # step does not reach a kink
        q, z, r, rng = case
        x = rng.standard_normal(q.dim)
        margin = float(np.min(np.abs(z + r * q.constraints(x)), initial=np.inf))
        assume(margin >= 1e-6)
        H = ineq_hessian_matrix(q, z, r, x)
        h = min(1e-3, 0.5 * margin / (r * float(np.max(np.abs(q.G)))))
        grad = ineq_objective(q, z, r)
        fd = np.column_stack([(grad(x + h * e)[1] - grad(x - h * e)[1]) / (2.0 * h)
                              for e in np.eye(q.dim)])
        assert np.max(np.abs(fd - H)) <= 1e-6 * np.max(np.abs(H))
        g = grad(x)[1]
        assert_solves(H + ridge(H) * np.eye(q.dim), grad(x)[2](g), g)


    @given(ineq_subproblems())
    def test_solve_backward_error(self, case):
        # at any point, kinks included, the slack elimination solves the
        # ridged system of Q + r G_A' G_A on every kind of QP: dense G (no
        # slack-like variable), some slack-like columns, all of them
        q, z, r, rng = case
        x = rng.standard_normal(q.dim)
        _, g, solve, _ = ineq_objective(q, z, r)(x)
        H = ineq_hessian_matrix(q, z, r, x)
        assert_solves(H + ridge(H) * np.eye(q.dim), solve(g), g)

    @pytest.mark.parametrize("name", ["svm-random", "lasso-random"])
    def test_unreached_slack_pivot_is_ridge(self, name):
        # with every row inactive except those that hold no slack-like
        # variable, each slack-like pivot is the ridge alone: d_J = g_J / ridge
        q, r = load_builtin(name), 2.0
        no_slack = ~np.any(q.G[:, q.slack], axis=1)
        z = np.where(no_slack, 1.0, 0.0)
        x = np.zeros(q.dim)
        x[q.slack] = 1e3 * np.sign(q.c[q.slack])
        assert np.all((z + r * q.constraints(x) >= 0.0) == no_slack)
        _, g, solve, _ = ineq_objective(q, z, r)(x)
        H = ineq_hessian_matrix(q, z, r, x)
        assert not np.any(H[q.slack])
        d = solve(g)
        assert_allclose(d[q.slack], g[q.slack] / ridge(H), rtol=1e-12)
        assert_solves(H + ridge(H) * np.eye(q.dim), d, g)


    def test_ridge_spans_the_whole_diagonal(self):
        # two slack-like bounds, one active with pivot 100, one inactive: the
        # inactive one's pivot is the ridge 1e-12 (1 + 100) of the whole
        # diagonal, J's part included, although I is empty
        q = IneqProblem(Q=np.zeros((2, 2)), c=np.array([-1.0, 1.0]),
                        G=np.array([[10.0, 0.0], [0.0, -1.0]]), h=np.array([0.0, -1e3]))
        assert q.coupled.size == 0
        _, g, solve, _ = ineq_objective(q, np.zeros(2), 1.0)(np.ones(2))
        assert_allclose(solve(g), [g[0] / (100.0 + 101e-12), g[1] / 101e-12], rtol=1e-12)

class TestMoreauEnvelopeOrdering:
    def test_envelope_nondecreasing_in_r(self, certified5):
        # min_X L_r(X, w) is the Moreau envelope of the concave dual function
        # evaluated at w; it tightens (is nondecreasing) as r grows
        p = certified5.problem
        rng = np.random.default_rng(3)
        w = DualPoint(y=certified5.y_star + 0.3 * rng.standard_normal(p.m),
                      Z=certified5.z_star)
        values = []
        for r in (0.5, 1.0, 2.0, 4.0):
            obj = primal_objective(p, w, r)
            res = minimize_auglag(obj, certified5.x_star, tol=1e-10,
                                  max_iter=20000, diameter_bound=50.0)
            values.append(res.value)
        assert all(values[i + 1] >= values[i] - 1e-7 for i in range(len(values) - 1))


class TestDualGapLowerBound:
    def test_exact_solution_gives_p_star(self, certified5):
        p = certified5.problem
        bound = dual_gap_lower_bound(p, certified5.w_star, certified5.x_star, 1.0)
        assert bound == pytest.approx(certified5.p_star, abs=1e-8)
        val = eval_L_primal(p, certified5.x_star, certified5.w_star, 1.0)
        assert val - bound == pytest.approx(0.0, abs=1e-8)

    def test_high_accuracy_solve_bound_tight(self, certified5, rng):
        p = certified5.problem
        w = rand_dual(rng, p, scale=0.3)
        obj = primal_objective(p, w, 1.0)
        res = minimize_auglag(obj, np.zeros((p.n, p.n)), tol=1e-11,
                              max_iter=30000, diameter_bound=50.0)
        bound = dual_gap_lower_bound(p, w, symmetrize(res.minimizer), 1.0)
        # bound <= min L <= value at minimizer estimate
        assert bound <= res.value + 1e-12
        assert res.value - bound <= 1e-6

    def test_bound_below_min(self, certified5, rng):
        # the returned value never exceeds a high-accuracy estimate of min L
        p = certified5.problem
        w = rand_dual(rng, p, scale=0.2)
        obj = primal_objective(p, w, 1.0)
        ref = minimize_auglag(obj, np.zeros((p.n, p.n)), tol=1e-11,
                              max_iter=30000, diameter_bound=50.0)
        for scale in (0.0, 0.05, 0.3):
            X_trial = symmetrize(ref.minimizer + scale * np.eye(p.n))
            bound = dual_gap_lower_bound(p, w, X_trial, 1.0)
            assert bound <= ref.value + 1e-10
