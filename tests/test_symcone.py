"""Cone geometry kernels: examples with independent oracles, then properties."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conic_alm.symcone import (check_symmetric, dist_psd, dist_to_face, exact_penalty,
                               face_basis, frob, inner, moreau_split, penalty_subgrad,
                               project_psd, signed_ranks, symmetrize)

from conftest import random_sym
from oracles import (brute_force_face_dist, dist_psd_one, dist_to_face_one, eig2x2,
                     exact_penalty_one, frob_one, inner_one, moreau_split_one,
                     project_psd_2x2, project_psd_one)


class TestProjectPsd:
    def test_diagonal_clipping(self):
        assert_allclose(project_psd(np.diag([2.0, -3.0])), np.diag([2.0, 0.0]))

    def test_offdiagonal_frozen_value(self):
        # computed with the closed-form 2x2 oracle
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(project_psd(X), [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)
        assert_allclose(project_psd_2x2(X), [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)

    def test_psd_fixed_point(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert_allclose(project_psd(X), X, atol=1e-14)

    def test_idempotence_population(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            X = random_sym(rng, n, scale=float(rng.uniform(0.5, 5)))
            P = project_psd(X)
            assert frob(project_psd(P) - P) <= 1e-10 * (1.0 + frob(X))
            assert np.linalg.eigvalsh(P)[0] >= -1e-10 * (1.0 + frob(X))


class TestDistPsd:
    def test_examples(self):
        assert dist_psd(np.diag([1.0, -2.0])) == pytest.approx(2.0)
        assert dist_psd(np.eye(3)) == 0.0
        assert dist_psd(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)

    def test_matches_projection_residual(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 8))
            X = random_sym(rng, n)
            assert dist_psd(X) == pytest.approx(frob(X - project_psd(X)), abs=1e-11)


class TestExactPenalty:
    def test_examples(self):
        assert exact_penalty(np.eye(2), 4.0) == 0.0
        assert exact_penalty(-np.eye(2), 4.0) == pytest.approx(4.0)
        # penalized dual of the toy instance at y = 0: lambda_max(-C) = 0
        C = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert exact_penalty(C, 4.0) == 0.0

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            exact_penalty(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            exact_penalty(np.eye(2), -1.0)

    def test_dominated_by_distance(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 9))
            X = random_sym(rng, n, scale=float(rng.uniform(0.5, 4)))
            assert exact_penalty(X, 1.0) <= dist_psd(X) + 1e-12


class TestPenaltySubgrad:
    def test_positive_definite_gives_zero(self):
        assert_allclose(penalty_subgrad(np.eye(2), 3.0), np.zeros((2, 2)))

    def test_boundary_gives_zero(self):
        assert_allclose(penalty_subgrad(np.diag([0.0, 1.0]), 3.0), np.zeros((2, 2)))

    def test_negative_definite_rank_one(self):
        G = penalty_subgrad(-np.eye(2), 2.0)
        # -rho * p p' for a unit eigenvector p of the smallest eigenvalue
        assert np.trace(G) == pytest.approx(-2.0)
        lam = np.linalg.eigvalsh(G)
        assert_allclose(lam, [-2.0, 0.0], atol=1e-12)

    def test_rejects_bad_rho(self):
        # NaN fails rho > 0 without satisfying rho <= 0
        for rho in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="rho must be positive"):
                penalty_subgrad(np.diag([1.0, -1.0]), rho)

    @staticmethod
    def assert_subgradient(X, rho, rng):
        G = penalty_subgrad(X, rho)
        lX = exact_penalty(X, rho)
        for _ in range(200):
            Y = random_sym(rng, X.shape[0], scale=2.0)
            assert exact_penalty(Y, rho) >= lX + inner(G, Y - X) - 1e-8
        return G

    def test_subgradient_inequality_population(self, rng):
        for _ in range(20):
            self.assert_subgradient(random_sym(rng, int(rng.integers(2, 6)), scale=2.0), 1.7, rng)

    @pytest.mark.parametrize("spectrum", [[-1.0, -1.0], [-1.0, -1.0, -1.0], [-1.0, -1.0, 2.0],
                                          [-2.0, -2.0, 0.0, 3.0]])
    def test_subgradient_inequality_repeated_lambda_min(self, rng, spectrum):
        # any unit vector of the lambda_min eigenspace gives a subgradient,
        # so the one eigh picks must pass in every rotation
        n = len(spectrum)
        for _ in range(10):
            U, _ = np.linalg.qr(rng.standard_normal((n, n)))
            G = self.assert_subgradient(symmetrize((U * np.array(spectrum)) @ U.T), 1.7, rng)
            assert np.trace(G) == pytest.approx(-1.7)

    def test_rejects_nonfinite_or_asymmetric(self):
        with pytest.raises(ValueError, match="non-finite"):
            penalty_subgrad(np.full((2, 2), np.nan), 1.0)
        with pytest.raises(ValueError, match="not symmetric"):
            penalty_subgrad(np.array([[1.0, 2.0], [0.0, 1.0]]), 1.0)


class TestSignedRanks:
    def test_cut_is_relative_to_the_largest_magnitude(self):
        assert signed_ranks([2.0, 1e-7, 1e-9, 0.0, -1e-9, -0.5]) == (2, 1)
        # the cut scales with max|lam|, whichever its sign
        assert signed_ranks([1e-9, -1.0]) == (0, 1)

    def test_zero_and_empty(self):
        assert signed_ranks(np.zeros(3)) == (0, 0)
        assert signed_ranks(np.zeros(0)) == (0, 0)


class TestFaceBasis:
    def test_rank_one_diag(self):
        face = face_basis(np.diag([1.0, 0.0]))
        assert face.rank == 1
        assert_allclose(np.abs(face.p1[:, 0]), [1.0, 0.0])
        assert_allclose(np.abs(face.p2[:, 0]), [0.0, 1.0])
        assert face.lambda1_min == pytest.approx(1.0)

    def test_toy_dual_solution(self, toy):
        face = face_basis(toy.z_star)
        assert face.rank == 1
        s = 1.0 / np.sqrt(2.0)
        assert_allclose(np.abs(face.p1[:, 0]), [s, s], atol=1e-12)
        assert face.lambda1_min == pytest.approx(2.0)

    def test_zero_matrix(self):
        face = face_basis(np.zeros((3, 3)))
        assert face.rank == 0
        assert_allclose(face.p2 @ face.p2.T, np.eye(3), atol=1e-12)
        assert face.lambda1_min == 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            face_basis(np.diag([1.0, -1.0]))

    def test_rejects_nonfinite_or_asymmetric(self):
        with pytest.raises(ValueError, match="Zbar contains non-finite"):
            face_basis(np.full((2, 2), np.nan))
        with pytest.raises(ValueError, match="Zbar is not symmetric"):
            face_basis(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("spectrum", [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
                                          [2.0, 2.0, 2.0, 0.5, 0.0], [3.0, 1.0, 1.0, 0.0, 0.0, 0.0]])
    def test_rotation_equivariant_on_repeated_eigenvalues(self, rng, spectrum):
        # inside a repeated eigenvalue eigh picks some basis, but the rank,
        # lambda1_min and face projector p2 p2' follow Z under Z -> U Z U'
        n = len(spectrum)
        for _ in range(10):
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            U, _ = np.linalg.qr(rng.standard_normal((n, n)))
            Z = symmetrize((Q * np.array(spectrum)) @ Q.T)
            face, rotated = face_basis(Z), face_basis(symmetrize(U @ Z @ U.T))
            assert rotated.rank == face.rank == np.count_nonzero(spectrum)
            assert rotated.lambda1_min == pytest.approx(face.lambda1_min, rel=1e-12)
            assert_allclose(rotated.p2 @ rotated.p2.T, U @ face.p2 @ face.p2.T @ U.T,
                            atol=1e-12)

    def test_orthonormal_split(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            r = int(rng.integers(0, n + 1))
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            d = np.concatenate([rng.uniform(0.5, 2.0, r), np.zeros(n - r)])
            Z = symmetrize((Q * d) @ Q.T)
            face = face_basis(Z)
            assert face.rank == r
            P = np.hstack([face.p1, face.p2])
            assert frob(P.T @ P - np.eye(n)) <= 1e-10
            if r:
                assert frob(Z @ face.p2) <= 1e-8 * (1.0 + frob(Z))


class TestDistToFace:
    def test_identity_against_rank_one_face(self):
        face = face_basis(np.diag([1.0, 0.0]))
        assert dist_to_face(np.eye(2), face) == pytest.approx(1.0)

    def test_toy_solution_in_face(self, toy):
        face = face_basis(toy.z_star)
        assert dist_to_face(toy.x_star, face) == pytest.approx(0.0, abs=1e-12)

    def test_zero_matrix(self, toy):
        face = face_basis(toy.z_star)
        assert dist_to_face(np.zeros((2, 2)), face) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4])
    def test_rejects_dimension_mismatch(self, n):
        face = face_basis(np.diag([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="face and matrix dimensions do not match"):
            dist_to_face(np.eye(n), face)

    def test_rank_zero_face_equals_dist_psd(self, rng):
        face = face_basis(np.zeros((3, 3)))
        for _ in range(20):
            X = random_sym(rng, 3)
            assert dist_to_face(X, face) == pytest.approx(dist_psd(X), abs=1e-12)

    def test_against_brute_force_grid(self, rng):
        grid = np.linspace(0.0, 4.0, 81)
        resolution = 4.0 / 80
        for _ in range(10):
            n = 3
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            d = np.array([rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), 0.0])
            Z = symmetrize((Q * d) @ Q.T)
            face = face_basis(Z)
            X = project_psd(random_sym(rng, n))
            exact = dist_to_face(X, face)
            brute = brute_force_face_dist(X, face.p2, grid)
            assert exact <= brute + 1e-9
            assert brute - exact <= 2 * resolution


class TestMoreauSplit:
    def test_diagonal(self):
        P, N = moreau_split(np.diag([1.0, -2.0]))
        assert_allclose(P, np.diag([1.0, 0.0]), atol=1e-14)
        assert_allclose(N, np.diag([0.0, 2.0]), atol=1e-14)

    def test_psd_input(self):
        X = np.array([[2.0, 1.0], [1.0, 2.0]])
        P, N = moreau_split(X)
        assert_allclose(P, X, atol=1e-12)
        assert_allclose(N, np.zeros((2, 2)), atol=1e-12)

    def test_offdiagonal_reconstruction(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        P, N = moreau_split(X)
        assert frob(P - project_psd(X)) <= 1e-12
        assert frob(X - (P - N)) <= 1e-12
        assert abs(inner(P, N)) <= 1e-12

    def test_identity_population(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            X = random_sym(rng, n, scale=float(rng.uniform(0.5, 5)))
            P, N = moreau_split(X)
            tol = 1e-8 * (1.0 + frob(X) ** 2)
            assert frob(X - (P - N)) <= tol
            assert abs(inner(P, N)) <= tol
            assert np.linalg.eigvalsh(P)[0] >= -1e-10 * (1.0 + frob(X))
            assert np.linalg.eigvalsh(N)[0] >= -1e-10 * (1.0 + frob(X))


@st.composite
def sym_pairs(draw):
    """Two symmetric matrices of one size and scale, at a drawn distance apart."""
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    X = random_sym(rng, n, scale)
    Y = X + random_sym(rng, n, scale * 10.0 ** draw(st.integers(-8, 1)))
    return X, Y


class TestProperties:
    @given(sym_pairs())
    def test_project_psd_nonexpansive_and_idempotent(self, pair):
        X, Y = pair
        tol = 1e-13 * (1.0 + frob(X) + frob(Y))
        P, Q = project_psd(X), project_psd(Y)
        assert frob(P - Q) <= frob(X - Y) + tol
        assert frob(project_psd(P) - P) <= tol

    @given(sym_pairs())
    def test_moreau_split_orthogonal(self, pair):
        X, _ = pair
        P, N = moreau_split(X)
        assert frob(X - (P - N)) <= 1e-13 * (1.0 + frob(X))
        assert abs(inner(P, N)) <= 1e-13 * (1.0 + frob(X) ** 2)


@st.composite
def sym_stacks(draw):
    """A stack of symmetric matrices with one or two leading axes (stacks of
    one among them), at a drawn scale, some PSD and some zero, and the face
    of a PSD matrix of the same size at a drawn rank."""
    n = draw(st.integers(1, 6))
    lead = draw(st.sampled_from([(1,), (7,), (2, 3), (1, 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    S = symmetrize(rng.standard_normal(lead + (n, n))) * scale
    flat = S.reshape(-1, n, n)
    flat[rng.random(len(flat)) < 0.3] = 0.0
    psd = rng.random(len(flat)) < 0.3
    flat[psd] = symmetrize(flat[psd] @ flat[psd].transpose(0, 2, 1))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    r = draw(st.integers(0, n))
    face = face_basis(symmetrize((Q[:, :r] * rng.uniform(0.5, 2.0, r)) @ Q[:, :r].T))
    return S, face, rng


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestStacks:
    @given(sym_stacks())
    def test_stacked_kernels_match_a_loop_bitwise(self, case):
        # item j of a stack is the kernel of item j alone, and the
        # single-matrix kernel of tests/oracles.py, to the bit
        S, face, rng = case
        lead, n = S.shape[:-2], S.shape[-1]
        rho = float(rng.uniform(0.1, 10.0))
        raw = rng.standard_normal(S.shape)
        C = symmetrize(rng.standard_normal((n, n)))
        kernels = [
            (symmetrize, lambda M: (M + M.T) / 2.0, raw),
            (frob, frob_one, S),
            (lambda M: inner(C, M), lambda M: inner_one(C, M), S),
            (lambda M: inner(M, M[::-1]), None, S),
            (project_psd, project_psd_one, S),
            (lambda M: moreau_split(M)[0], lambda M: moreau_split_one(M)[0], S),
            (lambda M: moreau_split(M)[1], lambda M: moreau_split_one(M)[1], S),
            (dist_psd, dist_psd_one, S),
            (lambda M: exact_penalty(M, rho), lambda M: exact_penalty_one(M, rho), S),
            (lambda M: dist_to_face(M, face), lambda M: dist_to_face_one(M, face), S),
        ]
        for kernel, single, stack in kernels:
            out = kernel(stack)
            assert np.shape(out)[:len(lead)] == lead
            for idx in np.ndindex(*lead):
                if single is None:
                    # the inner product of two stacks, item by item
                    assert same_bits(out[idx], inner(stack[idx], stack[::-1][idx]))
                    continue
                assert same_bits(out[idx], kernel(stack[idx]))
                assert same_bits(out[idx], single(stack[idx]))
            if stack.ndim == 2:
                assert isinstance(out, float)

    def test_single_matrix_gives_float(self):
        X = np.diag([1.0, -2.0])
        for value in (frob(X), inner(X, X), dist_psd(X), exact_penalty(X, 3.0),
                      dist_to_face(X, face_basis(np.zeros((2, 2))))):
            assert type(value) is float

    @pytest.mark.parametrize("bad", ["asymmetric", "nan", "inf"])
    def test_rejects_one_bad_slice(self, bad, rng):
        S = symmetrize(rng.standard_normal((5, 3, 3)))
        if bad == "asymmetric":
            S[3, 0, 1] += 1e-12
        else:
            S[3, 1, 1] = float(bad)
        match = "not symmetric" if bad == "asymmetric" else "non-finite"
        face = face_basis(np.diag([1.0, 0.0, 0.0]))
        for kernel in (check_symmetric, project_psd, moreau_split, dist_psd,
                       lambda M: exact_penalty(M, 1.0), lambda M: dist_to_face(M, face)):
            with pytest.raises(ValueError, match=match):
                kernel(S)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (4, 2, 3)])
    def test_rejects_non_square(self, shape):
        shown = re.escape(str(shape))
        with pytest.raises(ValueError, match=f"^expected a square matrix, got shape {shown}"):
            symmetrize(np.zeros(shape))
        with pytest.raises(ValueError, match=f"^M must be square, got shape {shown}"):
            check_symmetric(np.zeros(shape), name="M")

    def test_face_basis_and_penalty_subgrad_take_one_matrix(self):
        # each rejects a stack under its own name
        with pytest.raises(ValueError, match="^face_basis takes one matrix"):
            face_basis(np.zeros((2, 3, 3)))
        with pytest.raises(ValueError, match="^penalty_subgrad takes one matrix"):
            penalty_subgrad(np.zeros((2, 3, 3)), 1.0)
