"""Problem data, linear maps, residuals, generators, and the synthesizer."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conic_alm.fixtures import load_builtin
from conic_alm.model import (CertificationError, DenseOperator, DualPoint, IneqProblem,
                             KnownSolutionInstance, SdpProblem, apply_A, apply_Astar,
                             ineq_residuals,
                             kkt_residuals, lasso_instance, maxcut_instance,
                             svm_instance, synth_known_solution, zero_dual)
from conic_alm.symcone import dist_psd, frob, inner, symmetrize

from conftest import ineq_qps, random_sym
from oracles import naive_apply_A, soft_threshold


class TestSdpProblem:
    def test_rejects_dependent_constraints(self):
        A = np.eye(2)
        mats = np.stack([A, 2.0 * A])
        with pytest.raises(ValueError, match="dependent"):
            SdpProblem(C=np.eye(2), constraint_mats=mats, b=np.array([1.0, 2.0]))

    def test_rejects_asymmetric_cost(self):
        mats = np.eye(2)[None, :, :]
        with pytest.raises(ValueError):
            SdpProblem(C=np.array([[1.0, 2.0], [0.0, 1.0]]), constraint_mats=mats,
                       b=np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_nonfinite_b(self, bad):
        with pytest.raises(ValueError, match="b contains non-finite"):
            SdpProblem(C=np.eye(2), constraint_mats=np.eye(2)[None, :, :],
                       b=np.array([bad]))

    @pytest.mark.parametrize("mats,b,message", [
        (np.eye(3)[None, :, :], np.ones(1), "constraint matrices must have shape"),
        (np.eye(2), np.ones(1), "constraint matrices must have shape"),
        (np.eye(2)[None, :, :], np.ones(2), "b length must match"),
    ], ids=["stack-of-3x3", "stack-not-3d", "b-too-long"])
    def test_rejects_mismatched_shapes(self, mats, b, message):
        with pytest.raises(ValueError, match=message):
            SdpProblem(C=np.eye(2), constraint_mats=mats, b=b)

    @pytest.mark.parametrize("triplets,b,message", [
        (([0, 0], [0, 1], [1, 0], [1.0, 2.0]), np.ones(1), "A_1 is not symmetric"),
        (([0, 1], [0, 0], [0, 1], [1.0, 1.0]), np.ones(2), "A_2 is not symmetric"),
        (([0, 0], [1, 1], [1, 1], [1.0, 1.0]), np.ones(1), "duplicate entry"),
        (([1], [0], [0], [1.0]), np.ones(1), "matrix index out of range"),
        (([0], [2], [2], [1.0]), np.ones(1), "row index out of range"),
        (([0], [0], [-1], [1.0]), np.ones(1), "column index out of range"),
        (([0], [0], [0], [np.nan]), np.ones(1), "A_1 contains non-finite"),
        (([0, 1], [0, 1], [0, 1], [1.0, np.inf]), np.ones(2), "A_2 contains non-finite"),
        (([0.9, 1.7], [0, 1], [0, 1], [1.0, 1.0]), np.ones(2), "triplet k must hold integers"),
        (([0, 1], [0, 1.99], [0, 1], [1.0, 1.0]), np.ones(2), "triplet row must hold integers"),
        (([0, 1], [0, 1], [0, 1.5], [1.0, 1.0]), np.ones(2), "triplet col must hold integers"),
        (([0, 0, 1], [0, 0, 1], [0, 0, 1], [1.0, 0.0, 1.0]), np.ones(2), "duplicate entry"),
        (([0, 0], [0], [0], [1.0]), np.ones(1), "same length"),
        (([0], [0], [0], [1.0]), np.ones((1, 1)), "b must be a nonempty vector"),
        (([], [], [], []), np.ones(0), "b must be a nonempty vector"),
        (([0], [0], [0], [1.0]), np.array([np.inf]), "b contains non-finite"),
        (([0], [0], [0], [0.0]), np.ones(1), "dependent"),
    ], ids=["asymmetric-value", "asymmetric-pattern", "duplicate", "matrix-range",
            "row-range", "column-range", "nonfinite-value", "nonfinite-names-matrix",
            "noninteger-k", "noninteger-row", "noninteger-col", "duplicate-zero", "ragged",
            "b-2d", "b-empty", "b-nonfinite", "zero-matrix"])
    def test_from_triplets_rejects(self, triplets, b, message):
        with pytest.raises(ValueError, match=message):
            SdpProblem.from_triplets(np.eye(2), triplets, b)

    @pytest.mark.parametrize("C,mats,b,message", [
        (np.eye(2), [np.eye(2), [[0.0, 1.0], [0.0, 0.0]]], np.ones(2), "^A_2 is not symmetric"),
        (np.eye(2), [[[1.0, np.inf], [np.inf, 1.0]]], np.ones(1), "^A_1 contains non-finite"),
        (np.eye(2), [np.eye(2), 2.0 * np.eye(2)], np.ones(2), "dependent"),
        (np.eye(2), [np.eye(2)], np.array([np.nan]), "^b contains non-finite"),
        ([[1.0, 2.0], [0.0, 1.0]], [np.eye(2)], np.ones(1), "^C is not symmetric"),
    ], ids=["asymmetric", "nonfinite", "dependent", "b-nonfinite", "C-asymmetric"])
    def test_stack_and_its_triplets_raise_alike(self, C, mats, b, message):
        # one builder checks both entries, so a bad stack and its nonzeros
        # fail with the same message
        mats = np.array(mats)
        k, row, col = np.nonzero(mats)
        with pytest.raises(ValueError, match=message) as from_stack:
            SdpProblem(C, mats, b)
        with pytest.raises(ValueError) as from_triplets:
            SdpProblem.from_triplets(C, (k, row, col, mats[k, row, col]), b)
        assert str(from_triplets.value) == str(from_stack.value)

    @pytest.mark.parametrize("mats", [
        [np.eye(2), [[0.0, 1.0], [1.0, 0.0]]],
        [[[1.0, 1.0], [1.0, 2.0]], [[2.0, 1.0], [1.0, 1.0]]],
    ], ids=["sparse", "dense"])
    def test_keeps_read_only_copies(self, mats):
        # the caller's arrays, changed after construction, change nothing
        # that the problem stores, and the stored arrays reject writes, as
        # does the stack that a sparse problem's constraint_mats builds
        C, mats, b = np.array([[2.0, 1.0], [1.0, 3.0]]), np.array(mats), np.array([1.0, 2.0])
        p = SdpProblem(C, mats, b)
        op = p.operator
        dense = isinstance(op, DenseOperator)
        stored = [p.C, p.b, op.gram, p.constraint_mats] + (
            [op.mats] if dense else list(op.triplets()))
        before = [a.copy() for a in stored] + [p.b_norm, p.C_norm, op.max_col_norm2]
        for a in (C, mats, b):
            a += 1.0
        after = [a.copy() for a in stored] + [p.b_norm, p.C_norm, op.max_col_norm2]
        assert all(np.array_equal(x, y) for x, y in zip(before, after))
        for a in stored:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0

    def test_dimensions(self, toy):
        assert toy.problem.n == 2
        assert toy.problem.m == 2


class TestLinearMaps:
    def test_maxcut_map_on_identity(self):
        p = maxcut_instance(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(apply_A(p, np.eye(2)), np.ones(2))

    def test_toy_solution_hits_b(self, toy):
        assert_allclose(apply_A(toy.problem, toy.x_star), toy.problem.b)

    def test_against_naive_double_loop(self, rng, certified5):
        p = certified5.problem
        for _ in range(20):
            X = random_sym(rng, p.n)
            assert_allclose(apply_A(p, X), naive_apply_A(p.constraint_mats, X),
                            atol=1e-12)

    def test_astar_zero(self, toy):
        assert_allclose(apply_Astar(toy.problem, np.zeros(2)), np.zeros((2, 2)))

    def test_toy_astar_ones_is_identity(self, toy):
        assert_allclose(apply_Astar(toy.problem, np.ones(2)), np.eye(2))

    def test_adjoint_identity_population(self, rng, certified5):
        p = certified5.problem
        for _ in range(1000):
            X = random_sym(rng, p.n)
            y = rng.standard_normal(p.m)
            lhs = apply_A(p, X) @ y
            rhs = inner(X, apply_Astar(p, y))
            scale = 1.0 + frob(X) * float(np.linalg.norm(y))
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_dimension_mismatch(self, toy):
        with pytest.raises(ValueError):
            apply_A(toy.problem, np.eye(3))
        with pytest.raises(ValueError):
            apply_Astar(toy.problem, np.zeros(3))


class TestKktResiduals:
    def test_zero_at_certified_triple(self, certified5):
        res = kkt_residuals(certified5.problem, certified5.x_star,
                            certified5.w_star, p_star=certified5.p_star)
        for v in (res.eps1, res.eps2, res.eta1, res.eta2, res.eta3, res.eta4,
                  res.eta5, res.eps3):
            assert v <= 1e-9

    def test_toy_at_identity(self, toy):
        # X = I is affine feasible but has cost 2 against p* = 0
        res = kkt_residuals(toy.problem, np.eye(2),
                            DualPoint(y=np.zeros(2), Z=toy.problem.C),
                            p_star=0.0)
        assert res.eta1 == 0.0
        assert res.eps1 == pytest.approx(2.0)

    def test_sensitive_to_perturbation(self, certified5):
        p = certified5.problem
        X = certified5.x_star + 1e-3 * np.eye(p.n)
        res = kkt_residuals(p, X, certified5.w_star, p_star=certified5.p_star)
        worst = max(res.eps1, res.eps3)
        assert worst >= 1e-5

    def test_matches_direct_recomputation(self, rng, certified5):
        p = certified5.problem
        X = random_sym(rng, p.n)
        y = rng.standard_normal(p.m)
        Z = random_sym(rng, p.n)
        res = kkt_residuals(p, X, DualPoint(y=y, Z=Z))
        from conic_alm.symcone import project_psd
        assert res.eta1 == pytest.approx(
            np.linalg.norm(apply_A(p, X) - p.b) / (1 + np.linalg.norm(p.b)))
        assert res.eta2 == pytest.approx(frob(X - project_psd(X)) / (1 + frob(X)), abs=1e-12)
        assert res.eta3 == pytest.approx(
            frob(p.C - apply_Astar(p, y) - Z) / (1 + frob(p.C)))
        assert res.eta4 == pytest.approx(dist_psd(Z) / (1 + frob(Z)), abs=1e-12)
        assert res.eps3 == max(res.eta1, res.eta2, res.eta3, res.eta4, res.eta5)

    @pytest.mark.parametrize("bad", ["asymmetric", "nan", "inf"])
    def test_rejects_bad_X(self, certified5, bad):
        # X is validated once, on entry; the cone residual's own eigenvalue
        # pass relies on that check
        p = certified5.problem
        X = certified5.x_star.copy()
        if bad == "asymmetric":
            X[0, 1] += 1e-12
        else:
            X[1, 1] = np.nan if bad == "nan" else np.inf
        with pytest.raises(ValueError, match="^X "):
            kkt_residuals(p, X, certified5.w_star)

    @given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.booleans())
    def test_cone_residuals_match_single_distances(self, n, seed, psd):
        # both cone residuals come from one eigvalsh call over the stack
        # (X, Z); LAPACK runs per matrix, so each has the bits of its own call
        rng = np.random.default_rng(seed)
        X, Z = random_sym(rng, n), random_sym(rng, n)
        if psd:
            X = symmetrize(X @ X)
        p = SdpProblem(C=random_sym(rng, n), constraint_mats=np.eye(n)[None], b=np.ones(1))
        res = kkt_residuals(p, X, DualPoint(y=np.zeros(1), Z=Z))
        assert type(res.eta2) is float and type(res.eta4) is float
        assert res.eta2 == dist_psd(X) / (1.0 + frob(X))
        assert res.eta4 == dist_psd(Z) / (1.0 + frob(Z))

    def test_norms_computed_once(self, certified5):
        # the residuals' scales are the problem's own ||b|| and ||C||, bit for bit
        p = certified5.problem
        assert p.b_norm == float(np.linalg.norm(p.b)) and p.C_norm == frob(p.C)
        res = kkt_residuals(p, certified5.x_star, certified5.w_star)
        assert res.eta1 == float(np.linalg.norm(apply_A(p, certified5.x_star) - p.b)) / (
            1.0 + float(np.linalg.norm(p.b)))


class TestMaxcutInstance:
    def test_two_node_construction(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = maxcut_instance(W)
        assert_allclose(p.C, W)
        assert_allclose(p.b, np.ones(2))
        assert_allclose(p.constraint_mats[0], np.diag([1.0, 0.0]))
        assert_allclose(p.constraint_mats[1], np.diag([0.0, 1.0]))

    def test_triangle(self):
        W = np.ones((3, 3)) - np.eye(3)
        p = maxcut_instance(W)
        assert p.m == 3
        assert_allclose(p.b, np.ones(3))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            maxcut_instance(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            maxcut_instance(np.eye(2))

    @pytest.mark.parametrize("W", [np.zeros((2, 3)), np.zeros(3)], ids=["2x3", "vector"])
    def test_rejects_non_square(self, W):
        with pytest.raises(ValueError, match="weight matrix must be square"):
            maxcut_instance(W)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_weight(self, bad):
        # NaN != NaN, so the symmetry test alone would blame symmetry
        W = np.array([[0.0, bad], [bad, 0.0]])
        with pytest.raises(ValueError, match="weight matrix contains non-finite"):
            maxcut_instance(W)


class TestSvmInstance:
    def test_structure(self, rng):
        A = rng.standard_normal((7, 3))
        labels = rng.choice([-1.0, 1.0], 7)
        q = svm_instance(A, labels, lam=0.5)
        assert q.dim == 3 + 7
        assert q.n_constraints == 14

    def test_one_dimensional_kkt_optimum(self):
        # min x^2/2 + t s.t. x + 1 <= t, 0 <= t. KKT: both constraints active,
        # x = -1, t = 0, multipliers (1, 0); value 1/2.
        q = svm_instance(np.array([[1.0]]), np.array([1.0]), lam=1.0)
        v_opt = np.array([-1.0, 0.0])
        z_opt = np.array([1.0, 0.0])
        g = q.constraints(v_opt)
        assert_allclose(g, np.zeros(2), atol=1e-14)
        assert_allclose(q.objective_grad(v_opt) + q.G.T @ z_opt, np.zeros(2),
                        atol=1e-14)
        assert q.objective(v_opt) == pytest.approx(0.5)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            svm_instance(np.ones((2, 1)), np.array([1.0, 0.5]), lam=1.0)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            svm_instance(np.ones((1, 1)), np.array([1.0]), lam=0.0)

    @pytest.mark.parametrize("A,labels", [
        (np.ones((2, 1)), np.array([1.0, -1.0, 1.0])),
        (np.ones(2), np.array([1.0, -1.0])),
    ], ids=["labels-too-long", "A-1d"])
    def test_rejects_mismatched_labels(self, A, labels):
        with pytest.raises(ValueError, match="labels length must match"):
            svm_instance(A, labels, lam=1.0)

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_rejects_nonpositive_or_nonfinite_lambda(self, lam):
        # NaN passes a lam <= 0 test
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            svm_instance(np.ones((1, 1)), np.array([1.0]), lam=lam)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_data(self, bad):
        # the error names A, not the constraint matrix G built from it
        A = np.ones((2, 2))
        A[1, 0] = bad
        with pytest.raises(ValueError, match="^A contains non-finite"):
            svm_instance(A, np.array([1.0, -1.0]), lam=1.0)


class TestLassoInstance:
    def test_scalar_soft_threshold(self):
        # A = [1], b = 2, lam = 1: optimum x = soft_threshold(2, 1) = 1,
        # objective 0.5 * 1 + 1 = 1.5
        q = lasso_instance(np.array([[1.0]]), np.array([2.0]), lam=1.0)
        x = soft_threshold(np.array([2.0]), 1.0)
        v = np.array([x[0], abs(x[0])])
        assert q.objective(v) == pytest.approx(1.5)

    def test_large_lambda_zero_solution(self, rng):
        A = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        lam = float(np.abs(A.T @ b).max()) + 0.5
        q = lasso_instance(A, b, lam)
        # subgradient optimality of x = 0: |A'b|_inf <= lam
        v0 = np.zeros(6)
        assert q.objective(v0) == pytest.approx(0.5 * b @ b)
        grad_x = q.objective_grad(v0)[:3]
        assert np.all(np.abs(grad_x) <= lam)

    def test_structure(self):
        q = lasso_instance(np.ones((4, 3)), np.ones(4), lam=1.0)
        assert q.n_constraints == 6
        assert q.dim == 6

    @pytest.mark.parametrize("lam", [0.0, np.nan, np.inf])
    def test_rejects_nonpositive_or_nonfinite_lambda(self, lam):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            lasso_instance(np.ones((2, 1)), np.ones(2), lam=lam)

    @pytest.mark.parametrize("A,b", [(np.ones((2, 1)), np.ones(3)), (np.ones(2), np.ones(2))],
                             ids=["b-too-long", "A-1d"])
    def test_rejects_mismatched_b(self, A, b):
        with pytest.raises(ValueError, match="b length must match the number of rows of A"):
            lasso_instance(A, b, lam=1.0)

    @pytest.mark.parametrize("field", ["A", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_data(self, field, bad):
        # the error names the input, not Q or c built from it
        data = dict(A=np.ones((2, 2)), b=np.ones(2))
        data[field].flat[1] = bad
        with pytest.raises(ValueError, match=f"^{field} contains non-finite"):
            lasso_instance(**data, lam=1.0)


class TestIneqProblem:
    @pytest.mark.parametrize("field", ["c", "G", "h"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_data(self, field, bad):
        # such data once failed only inside the solver: NaN in c or h as a
        # bad diameter bound, inf in G as an InnerSolveError
        data = dict(Q=np.eye(2), c=np.ones(2), G=np.ones((3, 2)), h=-np.ones(3))
        data[field] = data[field].copy()
        data[field].flat[1] = bad
        with pytest.raises(ValueError, match=f"^{field} contains non-finite"):
            IneqProblem(**data)

    @pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf, "3", None],
                             ids=["nan", "inf", "-inf", "str", "None"])
    def test_rejects_bad_offset(self, offset):
        # a non-finite offset once failed only at the first solve, with an
        # InnerSolveError, and a string with a TypeError inside objective
        with pytest.raises(ValueError, match="^offset must be a finite real number"):
            IneqProblem(Q=np.eye(2), c=np.ones(2), G=np.ones((3, 2)), h=-np.ones(3),
                        offset=offset)

    @pytest.mark.parametrize("offset", [2, np.float64(2.0), np.int64(2)],
                             ids=["int", "float64", "int64"])
    def test_accepts_real_offset(self, offset):
        q = IneqProblem(Q=np.eye(2), c=np.ones(2), G=np.ones((3, 2)), h=-np.ones(3),
                        offset=offset)
        assert type(q.offset) is float and q.objective(np.zeros(2)) == 2.0

    @pytest.mark.parametrize("field,value,message", [
        ("Q", -np.eye(2), "Q must be positive semidefinite"),
        ("c", np.ones(3), "inconsistent dimensions"),
        ("G", np.ones(3), "inconsistent dimensions"),
        ("G", np.ones((3, 3)), "inconsistent dimensions"),
        ("h", -np.ones(2), "inconsistent dimensions"),
    ], ids=["Q-indefinite", "c-length", "G-1d", "G-columns", "h-length"])
    def test_rejects_bad_structure(self, field, value, message):
        data = dict(Q=np.eye(2), c=np.ones(2), G=np.ones((3, 2)), h=-np.ones(3))
        data[field] = value
        with pytest.raises(ValueError, match=message):
            IneqProblem(**data)


@st.composite
def masked_qps(draw):
    """A QP and a list of row masks, the all-false and the all-true mask
    among them. The QP is one of :func:`conftest.ineq_qps`, or a random
    sparsity pattern: a PSD block of Q on a random subset of the variables
    and a G of drawn density, where Q-free variables often share rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        q = draw(ineq_qps())
    else:
        rows, n = draw(st.integers(1, 30)), draw(st.integers(1, 12))
        in_Q = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.7]))
        B = rng.standard_normal((n, n)) * in_Q[:, None]
        G = rng.standard_normal((rows, n)) * (rng.random((rows, n)) < draw(
            st.sampled_from([0.1, 0.3, 1.0])))
        q = IneqProblem(Q=symmetrize(B @ B.T), c=np.zeros(n), G=G, h=np.zeros(rows))
    masks = [np.zeros(q.n_constraints, dtype=bool), np.ones(q.n_constraints, dtype=bool)]
    masks += [rng.random(q.n_constraints) < 0.5 for _ in range(draw(st.integers(0, 4)))]
    return q, masks


class TestSlackSplit:
    @given(masked_qps())
    def test_partitions_the_variables(self, case):
        q = case[0]
        assert np.array_equal(np.sort(np.concatenate((q.coupled, q.slack))), np.arange(q.dim))
        assert np.all(np.diff(q.coupled) > 0) and np.all(np.diff(q.slack) > 0)

    @given(masked_qps())
    def test_slack_variables_are_uncoupled(self, case):
        # no row of G holds two slack-like variables, and Q is zero on
        # their rows and columns
        q = case[0]
        assert np.all(np.count_nonzero(q.G[:, q.slack], axis=1) <= 1)
        assert not np.any(q.Q[q.slack]) and not np.any(q.Q[:, q.slack])

    @given(masked_qps(), st.floats(0.1, 100.0))
    def test_newton_matrix_is_diagonal_on_slack(self, case, r):
        q, masks = case
        for mask in masks:
            G_A = q.G[mask]
            H_JJ = (q.Q + r * (G_A.T @ G_A))[np.ix_(q.slack, q.slack)]
            assert not np.any(H_JJ - np.diag(np.diag(H_JJ)))

    @given(masked_qps())
    def test_q_free_variable_is_slack_unless_it_shares_a_row(self, case):
        # a variable with no entry in Q is coupled only when a row of G
        # holds it with another such variable
        q = case[0]
        free = ~np.any(q.Q != 0.0, axis=0)
        nonzero = q.G != 0.0
        for j in np.flatnonzero(free):
            shared = np.count_nonzero(nonzero[nonzero[:, j]][:, free], axis=1) > 1
            assert (j in q.slack) == (not np.any(shared))

    @pytest.mark.parametrize("name,coupled,slack", [("svm-random", 10, 100),
                                                    ("lasso-random", 10, 10)])
    def test_builtin_split_sizes(self, name, coupled, slack):
        # the hinge slacks of svm and the bounds t of lasso are slack-like
        q = load_builtin(name)
        assert (q.coupled.size, q.slack.size) == (coupled, slack)

    def test_keeps_read_only_copies(self):
        # the split is computed from Q and G, so Q, c, G and h are read-only
        # copies, and so are the split's index arrays: the caller's arrays,
        # changed after construction, change neither the data nor the split
        data = dict(Q=np.diag([1.0, 0.0, 0.0]), c=np.ones(3),
                    G=np.array([[1.0, 0.0, -1.0], [0.0, 0.0, -1.0]]), h=-np.ones(2))
        q = IneqProblem(**data)
        before = {name: getattr(q, name).copy() for name in ("Q", "c", "G", "h")}
        assert q.coupled.tolist() == [0] and q.slack.tolist() == [1, 2]
        data["Q"][2, 2] = 1.0
        for name in ("c", "G", "h"):
            data[name][:] = 5.0
        assert q.coupled.tolist() == [0] and q.slack.tolist() == [1, 2]
        for name, value in before.items():
            assert np.array_equal(getattr(q, name), value)
        for array in (q.Q, q.c, q.G, q.h, q.coupled, q.slack):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0


class TestSynthKnownSolution:
    def test_full_rank_primal(self):
        inst = synth_known_solution(n=4, m=3, rank_x=4, seed=0)
        assert_allclose(inst.z_star, np.zeros((4, 4)), atol=1e-12)
        assert np.linalg.eigvalsh(inst.x_star)[0] > 0

    def test_rank_pattern_toy_shape(self):
        inst = synth_known_solution(n=2, m=2, rank_x=1, seed=1)
        lam_x = np.linalg.eigvalsh(inst.x_star)
        lam_z = np.linalg.eigvalsh(inst.z_star)
        assert np.sum(lam_x > 1e-8) + np.sum(lam_z > 1e-8) == 2

    def test_certification_is_oracle(self):
        inst = synth_known_solution(n=5, m=6, rank_x=2, seed=7)
        checks = inst.certify()
        assert max(checks.values()) <= 1e-10

    def test_rank_sum_population(self):
        for seed in range(10):
            n = 3 + seed % 5
            rank_x = 1 + seed % n
            inst = synth_known_solution(n=n, m=n, rank_x=rank_x, seed=seed)
            lam_x = np.linalg.eigvalsh(inst.x_star)
            lam_z = np.linalg.eigvalsh(inst.z_star)
            tol = 1e-8 * max(1.0, lam_x[-1], lam_z[-1])
            assert np.sum(lam_x > tol) + np.sum(lam_z > tol) == n

    def test_rejects_bad_ranks(self):
        with pytest.raises(ValueError):
            synth_known_solution(n=3, m=2, rank_x=0, seed=0)
        with pytest.raises(ValueError):
            synth_known_solution(n=3, m=7, rank_x=1, seed=0)

    def test_certification_error_raised(self, toy):
        with pytest.raises(CertificationError):
            KnownSolutionInstance(problem=toy.problem, x_star=np.eye(2),
                                  y_star=toy.y_star, z_star=toy.z_star,
                                  p_star=toy.p_star)

    def test_w_star_built_once(self, certified5):
        # one validated DualPoint per instance, not one per distance query
        w_star = certified5.w_star
        assert w_star is certified5.w_star
        assert w_star.y is certified5.y_star and w_star.Z is certified5.z_star
        assert certified5.dist_dual(w_star) == 0.0

    def test_uniqueness_flags(self, toy, certified5):
        # the toy and the (5, 6, 2) instance have singleton solution sets
        assert toy.primal_unique and toy.dual_unique
        assert certified5.primal_unique and certified5.dual_unique
        # rank 3 with only 5 constraints leaves a positive-dimensional
        # primal solution face (dimension 6 > 5)
        loose = synth_known_solution(n=5, m=5, rank_x=3, seed=13)
        assert not loose.primal_unique
        # full-rank primal solution: every affine-feasible PSD point is
        # optimal, but the dual multiplier is pinned by injectivity
        full = synth_known_solution(n=4, m=3, rank_x=4, seed=0)
        assert not full.primal_unique
        assert full.dual_unique

    @pytest.mark.parametrize("n,m,rank_x,seed,side", [
        # rank 3 needs 6 constraints to pin X on its face
        (5, 5, 3, 13, "primal"),
        # with s = 2, more than n(n+1)/2 - s(s+1)/2 = 3 constraints leave
        # room for dy on the face of z_star
        (3, 4, 1, 0, "dual"),
    ], ids=["primal", "dual"])
    def test_non_unique_side_has_no_distance(self, n, m, rank_x, seed, side):
        # the distance to the certified point is not the distance to a
        # solution set that holds more than that point
        inst = synth_known_solution(n=n, m=m, rank_x=rank_x, seed=seed)
        dists = {"primal": inst.dist_primal(inst.x_star), "dual": inst.dist_dual(inst.w_star)}
        assert inst.primal_unique == (side != "primal")
        assert inst.dual_unique == (side != "dual")
        assert dists[side] is None
        assert dists["dual" if side == "primal" else "primal"] == 0.0

    def test_keeps_read_only_copies(self, toy):
        # the caller's arrays, changed after construction, change neither
        # the certified triple nor its verdicts, and the stored arrays
        # reject writes
        x, y, z = toy.x_star.copy(), toy.y_star.copy(), toy.z_star.copy()
        inst = KnownSolutionInstance(problem=toy.problem, x_star=x, y_star=y, z_star=z,
                                     p_star=toy.p_star)
        verdicts = (inst.primal_unique, inst.dual_unique)
        for a in (x, y, z):
            a += 1.0
        inst.certify()
        assert (inst.primal_unique, inst.dual_unique) == verdicts
        for stored, value in ((inst.x_star, toy.x_star), (inst.y_star, toy.y_star),
                              (inst.z_star, toy.z_star)):
            assert np.array_equal(stored, value)
            with pytest.raises(ValueError, match="read-only"):
                stored.flat[0] = 0

    @pytest.mark.parametrize("flag", ["primal_unique", "dual_unique"])
    def test_uniqueness_flags_are_not_arguments(self, toy, flag):
        # both flags are computed at construction; passing one is an error,
        # not a setting that is silently overwritten
        with pytest.raises(TypeError, match=flag):
            KnownSolutionInstance(problem=toy.problem, x_star=toy.x_star,
                                  y_star=toy.y_star, z_star=toy.z_star,
                                  p_star=toy.p_star, **{flag: False})


class TestIneqResiduals:
    def test_zero_at_kkt_point(self):
        q = svm_instance(np.array([[1.0]]), np.array([1.0]), lam=1.0)
        res = ineq_residuals(q, np.array([-1.0, 0.0]), np.array([1.0, 0.0]),
                             f_star=0.5)
        assert res.eps3 <= 1e-14
        assert res.cost_gap <= 1e-14

    def test_detects_infeasibility(self):
        q = svm_instance(np.array([[1.0]]), np.array([1.0]), lam=1.0)
        res = ineq_residuals(q, np.array([1.0, 0.0]), np.zeros(2))
        assert res.feasibility > 0.1


def test_zero_dual_shapes(toy):
    w = zero_dual(toy.problem)
    assert w.y.shape == (2,)
    assert w.Z.shape == (2, 2)
