"""Property verifiers: positive checks on certified data plus a negative
control for each (hypothesis violated => detectable failure)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_alm import theory
from conic_alm.model import KnownSolutionInstance, SdpProblem, synth_known_solution
from conic_alm.symcone import exact_penalty, face_basis, frob, project_psd, symmetrize
from conic_alm.theory import (check_strict_complementarity, check_trace_bound,
                              exact_penalty_equivalence, minimize_penalized_affine,
                              no_sharp_growth_curve, verify_eb_primal,
                              verify_growth_lemma, verify_penalty_preimage,
                              verify_qg_dual, verify_qg_primal)
from conic_alm.fixtures import GRIDS, toy_rank1_instance
from oracles import (check_trace_bound_reference, verify_eb_primal_reference,
                     verify_growth_lemma_reference, verify_penalty_preimage_reference,
                     verify_qg_dual_grid_reference, verify_qg_dual_reference,
                     verify_qg_primal_reference)


class TestQgPrimal:
    def test_certified_instance_indicator(self, certified5):
        rep = verify_qg_primal(certified5, ball_radius=1.0, samples=1500, seed=1)
        assert len(rep.violated) == 0
        assert rep.min_ratio > 0

    def test_certified_instance_penalty(self, certified5):
        rho = float(np.trace(certified5.z_star)) + 1.0
        rep = verify_qg_primal(certified5, use_penalty=True, rho=rho,
                               ball_radius=1.0, samples=1500, seed=2)
        assert len(rep.violated) == 0
        assert rep.min_ratio > 0

    def test_n4_instance(self):
        inst = synth_known_solution(n=4, m=6, rank_x=2, seed=8)
        rep = verify_qg_primal(inst, ball_radius=1.0, samples=2000, seed=3)
        assert len(rep.violated) == 0
        assert rep.min_ratio > 0

    def test_penalty_requires_threshold(self, certified5):
        with pytest.raises(ValueError, match="rho"):
            verify_qg_primal(certified5, use_penalty=True,
                             rho=float(np.trace(certified5.z_star)) / 2)

    def test_negative_control_subthreshold_penalty(self, toy):
        # with rho = 1 < tr(z_star) = 2 the growth inequality fails: moving
        # along the affine-feasible off-diagonal direction strictly decreases
        # the penalized objective below the optimum
        p = toy.problem
        X = toy.x_star + 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
        value = float(np.tensordot(p.C, X, axes=2)) + exact_penalty(X, 1.0)
        assert value < toy.p_star - 1e-3

    def test_refuses_nonunique_instance(self):
        loose = synth_known_solution(n=5, m=5, rank_x=3, seed=13)
        with pytest.raises(ValueError, match="unique"):
            verify_qg_primal(loose)


class TestEbPrimal:
    def test_unconstrained_samples(self, certified5):
        rep = verify_eb_primal(certified5, ball_radius=1.0, samples=2000, seed=5)
        assert len(rep.violated) == 0
        assert rep.min_ratio > 0

    def test_indefinite_direction(self, certified5):
        # X* - eps I is not PSD; the distance term must pick up the slack
        p = certified5.problem
        rep = verify_eb_primal(certified5, ball_radius=0.5, samples=500, seed=6)
        assert len(rep.violated) == 0

    @pytest.mark.parametrize("n,m,rank_x", [(8, 10, 3), (12, 20, 4)])
    def test_default_radius_at_larger_n(self, n, m, rank_x, monkeypatch):
        # the noise shrinks with n, so the draws keep landing in the unit
        # ball; at entry scale 1/3 none did from n = 8 on. A generator that
        # counts its normals gives the n x n matrices drawn, however the
        # sampler groups them into calls.
        inst = synth_known_solution(n=n, m=m, rank_x=rank_x, seed=1)
        normals = []
        real_rng = np.random.default_rng

        class CountingGenerator:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def standard_normal(self, size):
                normals.append(int(np.prod(size)))
                return self.rng.standard_normal(size)

        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        rep = verify_eb_primal(inst, samples=200, seed=0)
        assert rep.sampled_points == 200 and len(rep.violated) == 0
        assert rep.min_ratio > 0
        assert sum(normals) % (n * n) == 0
        assert 200 <= sum(normals) // (n * n) <= 220

    def test_negative_control_alpha_zero(self, toy):
        # alpha = 0 removes the cone-distance compensation; indefinite
        # samples then produce negative left-hand sides
        rep = verify_eb_primal(toy, gamma=0.0, alpha=0.0, ball_radius=2.0,
                               samples=3000, seed=7)
        assert len(rep.violated) > 0


class TestQgDual:
    def test_certified_instance(self, certified5):
        rep = verify_qg_dual(certified5, ball_radius=1.0, samples=1500, seed=8)
        assert len(rep.violated) == 0
        assert rep.min_ratio > 0

    def test_toy_grid_penalty(self, toy):
        rep = verify_qg_dual(toy, use_penalty=True, rho=4.0, y_grid=GRIDS["fig-d1"])
        assert len(rep.violated) == 0
        assert rep.min_ratio >= 0.3
        assert rep.min_ratio == pytest.approx(0.4, abs=1e-12)

    @pytest.mark.parametrize("rho", [None, 4.0, 2.5], ids=["indicator", "rho4", "rho2.5"])
    @pytest.mark.parametrize("grid", [GRIDS["fig-d1"], np.linspace(-2.0, 2.0, 17), [0.0],
                                      np.linspace(-0.3, 0.7, 9)],
                             ids=["fig-d1", "wide", "origin", "offset"])
    def test_grid_matches_point_loop(self, toy, grid, rho):
        kwargs = dict(use_penalty=rho is not None, rho=rho)
        rep = verify_qg_dual(toy, y_grid=grid, **kwargs)
        ref = verify_qg_dual_grid_reference(toy, grid, **kwargs)
        assert rep.sampled_points == ref.sampled_points
        assert rep.min_ratio.hex() == ref.min_ratio.hex()
        assert rep.violated == ref.violated
        assert list(rep.params.items()) == list(ref.params.items())

    def test_penalty_requires_threshold(self, toy):
        with pytest.raises(ValueError, match="rho"):
            verify_qg_dual(toy, use_penalty=True, rho=1.0)

    @pytest.mark.parametrize("kwargs", [dict(samples=7), dict(ball_radius=1e-3),
                                        dict(samples=None), dict(samples=7, ball_radius=2.0)],
                             ids=["samples", "radius", "samples-none", "both"])
    def test_grid_rejects_ball_arguments(self, toy, kwargs):
        # the grid samples no ball, so a sample count or radius off the
        # defaults would be ignored
        with pytest.raises(ValueError, match="^y_grid samples no ball: samples and "
                                             "ball_radius would be ignored"):
            verify_qg_dual(toy, use_penalty=True, rho=4.0, y_grid=GRIDS["fig-d1"], **kwargs)
        # the defaults themselves change nothing
        assert verify_qg_dual(toy, use_penalty=True, rho=4.0, y_grid=GRIDS["fig-d1"],
                              samples=2000, ball_radius=1.0) == verify_qg_dual(
            toy, use_penalty=True, rho=4.0, y_grid=GRIDS["fig-d1"])

    def test_grid_needs_two_constraints(self, certified5):
        with pytest.raises(ValueError, match="m = 2"):
            verify_qg_dual(certified5, y_grid=np.linspace(-1, 1, 5))


class TestBallSampler:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("variant", ["qg-primal", "qg-primal-penalty", "eb-primal",
                                         "qg-dual", "qg-dual-penalty", "growth-lemma",
                                         "growth-lemma-penalty", "trace-bound"])
    @pytest.mark.parametrize("shape", [None, (4, 5, 2, 300), (5, 6, 2, 401)],
                             ids=["toy", "n4", "n5"])
    def test_matches_parent_loops(self, shape, variant, seed):
        # the verifiers as loops over one point at a time (tests/oracles.py);
        # 300 samples span two blocks
        inst = toy_rank1_instance() if shape is None else synth_known_solution(*shape)
        kwargs = dict(samples=300, seed=seed)
        if variant == "qg-primal-penalty":
            kwargs.update(use_penalty=True, rho=float(np.trace(inst.z_star)) + 1.0)
        if variant == "qg-dual-penalty":
            kwargs.update(use_penalty=True, rho=float(np.trace(inst.x_star)) + 1.0)
        args = (inst,)
        if variant.startswith("growth-lemma"):
            # at mu = 0.8 some draws land outside the ball and are pulled back
            args = (inst.x_star, inst.z_star, 0.8)
            if variant.endswith("-penalty"):
                kwargs.update(penalty_rho=float(np.trace(inst.z_star)) + 1.0)
        if variant == "trace-bound":
            # sizes 2 to n + 3 (the default range at n5), one size at toy
            args = ()
            kwargs.update(n_range=(2, inst.problem.n + 3) if shape else (3, 3))
        fn, reference = {
            "qg-primal": (verify_qg_primal, verify_qg_primal_reference),
            "eb-primal": (verify_eb_primal, verify_eb_primal_reference),
            "qg-dual": (verify_qg_dual, verify_qg_dual_reference),
            "growth-lemma": (verify_growth_lemma, verify_growth_lemma_reference),
            "trace-bound": (check_trace_bound, check_trace_bound_reference),
        }[variant.removesuffix("-penalty")]
        rep, ref = fn(*args, **kwargs), reference(*args, **kwargs)
        assert rep.sampled_points == ref.sampled_points == 300
        assert rep.min_ratio.hex() == ref.min_ratio.hex()
        assert rep.violated == ref.violated
        assert list(rep.params.items()) == list(ref.params.items())

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("shape", [None, (4, 5, 2, 300), (5, 6, 2, 401)],
                             ids=["toy", "n4", "n5"])
    def test_preimage_matches_parent_loop(self, shape, seed):
        inst = toy_rank1_instance() if shape is None else synth_known_solution(*shape)
        rho = float(np.trace(inst.z_star)) + 1.0
        # 300 probes span two blocks
        for probes in (1, 300):
            kwargs = dict(samples=12, probes=probes, seed=seed)
            assert (verify_penalty_preimage(inst.z_star, rho, **kwargs)
                    == verify_penalty_preimage_reference(inst.z_star, rho, **kwargs))

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(0, 7),
           st.integers(1, 3 * theory.BLOCK + 1))
    def test_trace_bound_chunks_match_point_loop(self, seed, lo, width, samples):
        # sizes lo..hi split the run into chunks of up to BLOCK points per size
        kwargs = dict(samples=samples, n_range=(lo, min(lo + width, 9)), seed=seed)
        rep, ref = check_trace_bound(**kwargs), check_trace_bound_reference(**kwargs)
        assert rep.sampled_points == ref.sampled_points == samples
        assert rep.min_ratio.hex() == ref.min_ratio.hex()
        assert rep.violated == ref.violated
        assert list(rep.params.items()) == list(ref.params.items())

    @settings(max_examples=30)
    @given(st.sampled_from(["example-d1", "synth"]), st.integers(0, 2**32 - 1),
           st.integers(1, 3 * theory.BLOCK + 1), st.data())
    def test_preimage_stacks_match_point_loop(self, name, seed, samples, data):
        # synth: z* of rank 2 at n = 4, so its kernel eigenvalue 0 is
        # repeated and the face is two-dimensional
        inst = (toy_rank1_instance() if name == "example-d1"
                else synth_known_solution(4, 5, 2, 300))
        assert face_basis(inst.z_star).p2.shape[1] == (1 if name == "example-d1" else 2)
        # the reference loop pays per probe: keep samples * probes near 1500
        probes = data.draw(st.integers(1, max(1, min(300, 1500 // samples))), label="probes")
        rho = float(np.trace(inst.z_star)) + 1.0
        kwargs = dict(samples=samples, probes=probes, seed=seed)
        assert (verify_penalty_preimage(inst.z_star, rho, **kwargs)
                == verify_penalty_preimage_reference(inst.z_star, rho, **kwargs))

    @pytest.mark.parametrize("verifier", [verify_qg_primal, verify_eb_primal,
                                          verify_qg_dual])
    def test_rejects_bad_arguments(self, toy, verifier):
        for samples in (0, -1):
            with pytest.raises(ValueError, match="samples must be at least 1"):
                verifier(toy, samples=samples)
        for radius in (0.0, -1.0):
            with pytest.raises(ValueError, match="ball_radius must be positive"):
                verifier(toy, ball_radius=radius)

    @staticmethod
    def counting_draw(lands_every):
        # landing draws sit on the sphere of radius 1.5, which counts as
        # inside; calls holds the sigma of each drawn point, blocks the sizes
        calls, blocks = [], []

        def draw(rng, sigma, count):
            index = np.arange(len(calls) + 1, len(calls) + count + 1)
            calls.extend([sigma] * count)
            blocks.append(count)
            return index, np.where(index % lands_every == 0, 2.25, 2.2500001)

        return draw, calls, blocks

    @staticmethod
    def lhs_of(points):
        return np.ones(len(points))

    def test_draw_cap(self):
        # 100 draws per requested sample: a 1-in-100 landing rate just fits
        draw, calls, blocks = self.counting_draw(100)
        rep = theory._ball_report(30, 1.5, 0, draw, self.lhs_of, {})
        assert rep.sampled_points == 30 and len(calls) == 3000
        assert set(calls) == {0.5} and max(blocks) == 30
        draw, calls, blocks = self.counting_draw(101)
        with pytest.raises(ValueError, match="only 29 of 3000 draws .* ball_radius 1.5"):
            theory._ball_report(30, 1.5, 0, draw, self.lhs_of, {})
        assert len(calls) == 3000

    def test_gives_up_when_nothing_lands(self):
        draw, calls, blocks = self.counting_draw(2001)
        with pytest.raises(ValueError, match="only 0 of 2000 draws"):
            theory._ball_report(1000, 1.5, 0, draw, self.lhs_of, {})
        assert len(calls) == 2000 and max(blocks) == theory.BLOCK
        # one landing point is enough to keep drawing up to the cap
        draw, calls, blocks = self.counting_draw(1999)
        with pytest.raises(ValueError, match="only 10 of 20000 draws"):
            theory._ball_report(200, 1.5, 0, draw, self.lhs_of, {})
        assert len(calls) == 20000

    def test_blocks_stop_where_single_draws_stop(self):
        # every point lands: blocks of BLOCK, then the remainder, and no more
        draw, calls, blocks = self.counting_draw(1)
        lhs = []
        rep = theory._ball_report(600, 1.5, 0, draw,
                                  lambda points: lhs.extend(points) or self.lhs_of(points), {})
        assert rep.sampled_points == 600 and blocks == [256, 256, 88]
        assert lhs == list(range(1, 601))

    def test_unreachable_radius(self, toy):
        # the affine correction moves every draw by more than 1e-20
        with pytest.raises(ValueError, match="only 0 of 2000 draws .* ball_radius 1e-20"):
            verify_qg_primal(toy, ball_radius=1e-20)


class TestArgumentChecks:
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_nonfinite_penalty_parameters(self, toy, value):
        with pytest.raises(ValueError, match="rho must be finite"):
            verify_qg_primal(toy, use_penalty=True, rho=value, samples=10)
        with pytest.raises(ValueError, match="rho must be finite"):
            verify_qg_dual(toy, use_penalty=True, rho=value, samples=10)
        with pytest.raises(ValueError, match="rho must be finite"):
            verify_penalty_preimage(toy.z_star, value, samples=10)
        with pytest.raises(ValueError, match="penalty_rho must be finite"):
            verify_growth_lemma(toy.x_star, toy.z_star, mu=1.0, samples=50,
                                penalty_rho=value)
        with pytest.raises(ValueError, match="mu must be finite"):
            verify_growth_lemma(toy.x_star, toy.z_star, mu=value, samples=50)

    @pytest.mark.parametrize("run", [
        lambda inst: verify_qg_primal(inst, rho=5.0, samples=10),
        lambda inst: verify_qg_dual(inst, rho=5.0, samples=10),
        lambda inst: verify_qg_dual(inst, rho=5.0, y_grid=GRIDS["fig-d1"]),
    ], ids=["qg-primal", "qg-dual", "qg-dual-grid"])
    def test_rejects_rho_without_penalty(self, toy, run):
        # rho would be ignored, yet reported in params
        with pytest.raises(ValueError, match=r"rho = 5\.0 is used only with use_penalty=True"):
            run(toy)

    # each sampler's count argument, and a call at a given count
    COUNTS = {
        "qg-primal": ("samples", lambda inst, v: verify_qg_primal(inst, samples=v)),
        "eb-primal": ("samples", lambda inst, v: verify_eb_primal(inst, samples=v)),
        "qg-dual": ("samples", lambda inst, v: verify_qg_dual(inst, samples=v)),
        "growth-lemma": ("samples", lambda inst, v: verify_growth_lemma(
            inst.x_star, inst.z_star, mu=1.0, samples=v)),
        "trace-bound": ("samples", lambda inst, v: check_trace_bound(samples=v)),
        "penalty-preimage": ("samples", lambda inst, v: verify_penalty_preimage(
            inst.z_star, 4.0, samples=v, probes=1)),
        "penalty-preimage-probes": ("probes", lambda inst, v: verify_penalty_preimage(
            inst.z_star, 4.0, samples=1, probes=v)),
    }

    @pytest.mark.parametrize("value", [2.5, 2.0, True, None, "2"])
    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_rejects_non_integer_count(self, toy, name, value):
        # as AlmConfig does: a bool is no count, nor is a float of integer value
        param, run = self.COUNTS[name]
        with pytest.raises(ValueError, match=rf"^{param} must be an integer, got "
                                             rf"{re.escape(repr(value))}$"):
            run(toy, value)

    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_accepts_numpy_integer_count(self, toy, name):
        self.COUNTS[name][1](toy, np.int64(1))

    # each verifier with an exact penalty: its parameter, the matrix whose
    # trace is the threshold, and a call at a given penalty
    PENALTY_THRESHOLDS = {
        "qg-primal": ("rho", "z_star", lambda inst, rho: verify_qg_primal(
            inst, use_penalty=True, rho=rho, samples=1)),
        "qg-dual": ("rho", "x_star", lambda inst, rho: verify_qg_dual(
            inst, use_penalty=True, rho=rho, samples=1)),
        "penalty-preimage": ("rho", "z_star", lambda inst, rho: verify_penalty_preimage(
            inst.z_star, rho, samples=1, probes=1)),
        "growth-lemma": ("penalty_rho", "z_star", lambda inst, rho: verify_growth_lemma(
            inst.x_star, inst.z_star, mu=1.0, samples=1, penalty_rho=rho)),
        "exact-penalty": ("rho", "z_star", exact_penalty_equivalence),
    }

    @pytest.mark.parametrize("name", sorted(PENALTY_THRESHOLDS))
    def test_penalty_threshold_is_strict(self, toy, name):
        # the paper's rule rho > tr(.): the trace itself is rejected, naming
        # the parameter, and the next double above it is accepted
        param, mat, run = self.PENALTY_THRESHOLDS[name]
        threshold = float(np.trace(getattr(toy, mat)))
        with pytest.raises(ValueError, match=rf"need {param} > tr\("):
            run(toy, threshold)
        run(toy, np.nextafter(threshold, np.inf))

    # verifiers that measure distance against the certified point of a side
    # (qg-primal: TestQgPrimal), and an instance whose solution set on that
    # side is not a point
    NON_UNIQUE = {
        "eb-primal": ((5, 5, 3, 13), lambda inst: verify_eb_primal(inst, samples=1)),
        "exact-penalty": ((5, 5, 3, 13), lambda inst: exact_penalty_equivalence(
            inst, float(np.trace(inst.z_star)) + 1.0)),
        "qg-dual": ((3, 4, 1, 0), lambda inst: verify_qg_dual(inst, samples=1)),
    }

    @pytest.mark.parametrize("name", sorted(NON_UNIQUE))
    def test_refuses_non_unique_side(self, name):
        (n, m, rank_x, seed), run = self.NON_UNIQUE[name]
        with pytest.raises(ValueError, match="unique"):
            run(synth_known_solution(n=n, m=m, rank_x=rank_x, seed=seed))

    @pytest.mark.parametrize("n_range", [(1, 8), (3, 2), (0, 0), (2.0, 5), (2, 5.5)])
    def test_trace_bound_needs_integer_range(self, n_range):
        with pytest.raises(ValueError, match="n_range must be integers 2 <= lo <= hi"):
            check_trace_bound(samples=10, n_range=n_range)

    def test_trace_bound_single_size(self):
        rep = check_trace_bound(samples=20, n_range=(np.int64(2), 2), seed=1)
        assert rep.sampled_points == 20 and rep.violated == ()

    @pytest.mark.parametrize("probes", [0, -2])
    def test_preimage_needs_probes(self, toy, probes):
        with pytest.raises(ValueError, match=f"probes must be at least 1, got {probes}"):
            verify_penalty_preimage(toy.z_star, rho=4.0, samples=5, probes=probes)


class TestNoSharpGrowth:
    def test_curve_matches_closed_form(self):
        grid = np.arange(0.0, 1.0, 0.1)
        rows = no_sharp_growth_curve(grid)
        for row in rows:
            assert abs(row.penalty_value - row.closed_form) <= 1e-10

    def test_frozen_point(self):
        rows = no_sharp_growth_curve([0.5])
        # f - f* = -0.25 / (-0.5) = 0.5, dist >= 1, ratio <= 0.5
        assert rows[0].penalty_value == pytest.approx(0.5, abs=1e-12)
        assert rows[0].dist_lower_bound == pytest.approx(1.0, abs=1e-12)
        assert rows[0].ratio_upper_bound == pytest.approx(0.5, abs=1e-12)

    def test_ratio_vanishes_monotonically(self):
        grid = np.arange(0.0, 1.0, 0.05)
        rows = no_sharp_growth_curve(grid)
        ratios = [row.ratio_upper_bound for row in rows]
        assert ratios[0] == 0.0
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            no_sharp_growth_curve([1.0])


class TestPenaltyPreimage:
    def test_zero_matrix_face_is_cone(self, rng):
        rep = verify_penalty_preimage(np.zeros((3, 3)), rho=2.0, samples=20,
                                      probes=50, seed=1)
        assert rep.face_failures == 0
        assert rep.off_face_points == 0  # rank 0: no off-face sampling

    def test_scalar_case(self):
        # rho = 2, z = 1 < 2: the preimage of -1 is {0}; on-face holds at 0,
        # any strictly positive scalar is detected off the face
        rep = verify_penalty_preimage(np.array([[1.0]]), rho=2.0, samples=10,
                                      probes=60, seed=2)
        assert rep.ok

    def test_toy_dual_solution(self, toy):
        rep = verify_penalty_preimage(toy.z_star, rho=4.0, samples=40,
                                      probes=100, seed=3)
        assert rep.ok
        assert rep.off_face_points == 40

    def test_certified_instance(self, certified5):
        rho = float(np.trace(certified5.z_star)) + 1.0
        rep = verify_penalty_preimage(certified5.z_star, rho, samples=25,
                                      probes=80, seed=4)
        assert rep.ok

    def test_rejects_threshold_violation(self, toy):
        with pytest.raises(ValueError, match="tr"):
            verify_penalty_preimage(toy.z_star, rho=1.5)

    def test_rejects_nonpositive_samples(self, toy):
        with pytest.raises(ValueError, match="samples must be at least 1, got -3"):
            verify_penalty_preimage(toy.z_star, rho=4.0, samples=-3)

    def test_negative_control_oversized_trace(self):
        # with tr(zbar) >= rho the identity's hypothesis fails: -zbar is not
        # a subgradient anywhere on the face interior, and probing sees it
        zbar = np.diag([3.0, 0.0])

        def l(M):
            return exact_penalty(M, 2.0)

        face = face_basis(zbar)
        X = symmetrize(face.p2 @ np.array([[1.0]]) @ face.p2.T)
        Y = X - np.eye(2)
        lhs = l(Y)
        rhs = l(X) + float(np.tensordot(-zbar, Y - X, axes=2))
        assert lhs < rhs - 0.5


class TestGrowthLemma:
    def test_toy_explicit_constant(self, toy):
        rep = verify_growth_lemma(toy.x_star, toy.z_star, mu=1.0, samples=3000,
                                  seed=5)
        assert rep.params["kappa"] == pytest.approx(2.0 / 7.0)
        assert len(rep.violated) == 0

    def test_zero_zbar(self, rng):
        X = project_psd(symmetrize(rng.standard_normal((3, 3))))
        rep = verify_growth_lemma(X, np.zeros((3, 3)), mu=1.0, samples=200, seed=6)
        assert len(rep.violated) == 0

    def test_random_complementary_pairs(self):
        rng = np.random.default_rng(7)
        for trial in range(4):
            n = 4
            r = int(rng.integers(1, n))
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            d1 = rng.uniform(0.5, 2.0, r)
            d2 = rng.uniform(0.5, 2.0, n - r)
            xbar = symmetrize((Q[:, :r] * d1) @ Q[:, :r].T)
            zbar = symmetrize((Q[:, r:] * d2) @ Q[:, r:].T)
            rep = verify_growth_lemma(xbar, zbar, mu=1.0, samples=1500,
                                      seed=trial)
            assert len(rep.violated) == 0

    @pytest.mark.parametrize("shape", [(4, 5, 2, 300), (5, 6, 2, 401)])
    def test_indicator_samples_stay_in_ball(self, monkeypatch, shape):
        # the explicit constant is proven on the ball of radius mu around xbar
        inst = synth_known_solution(*shape)
        seen = []

        def recording_project_psd(X):
            seen.append(X)
            return project_psd(X)

        monkeypatch.setattr(theory, "project_psd", recording_project_psd)
        rep = verify_growth_lemma(inst.x_star, inst.z_star, mu=1.0, samples=2000,
                                  seed=0)
        assert sum(len(S) for S in seen) == 2000 and len(rep.violated) == 0
        assert max(len(S) for S in seen) <= theory.BLOCK
        assert max(frob(S - inst.x_star).max() for S in seen) <= 1.0 + 1e-12

    def test_rejects_noncomplementary(self):
        with pytest.raises(ValueError, match="complementary"):
            verify_growth_lemma(np.eye(2), np.eye(2), mu=1.0, samples=10)

    @pytest.mark.parametrize("xbar,zbar", [
        (np.diag([1.0, -1.0]), np.zeros((2, 2))),
        (np.diag([1.0, 0.0]), np.diag([0.0, -1.0])),
    ], ids=["xbar", "zbar"])
    def test_rejects_non_psd(self, xbar, zbar):
        with pytest.raises(ValueError, match="must be positive semidefinite"):
            verify_growth_lemma(xbar, zbar, mu=1.0, samples=10)

    def test_rejects_nonpositive_samples(self, toy):
        with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
            verify_growth_lemma(toy.x_star, toy.z_star, mu=1.0, samples=0)

    def test_penalty_variant_explicit_constant(self, toy):
        # penalty form on unprojected samples in the ball, with the proof's
        # kappa = min((rho - tr) / (2 n mu), kappa_indicator / 2)
        rep = verify_growth_lemma(toy.x_star, toy.z_star, mu=1.0, samples=3000,
                                  seed=11, penalty_rho=4.0)
        expected = min((4.0 - 2.0) / (2 * 2 * 1.0), (2.0 / 7.0) / 2)
        assert rep.params["kappa"] == pytest.approx(expected)
        assert len(rep.violated) == 0

    def test_penalty_variant_zero_zbar(self, rng):
        X = project_psd(symmetrize(rng.standard_normal((3, 3))))
        rep = verify_growth_lemma(X, np.zeros((3, 3)), mu=1.0, samples=1000,
                                  seed=12, penalty_rho=2.0)
        assert rep.params["kappa"] == pytest.approx(2.0 / 3.0)
        assert len(rep.violated) == 0

    def test_penalty_variant_requires_threshold(self, toy):
        with pytest.raises(ValueError, match="penalty_rho"):
            verify_growth_lemma(toy.x_star, toy.z_star, mu=1.0, samples=10,
                                penalty_rho=1.0)

    def test_negative_control_inflated_constant(self, toy):
        # the inequality with 40x the proof constant must break somewhere
        face = face_basis(toy.z_star)
        kappa = face.lambda1_min / (3.0 + 2.0 * frob(toy.x_star))
        rng = np.random.default_rng(8)
        violations = 0
        for _ in range(3000):
            X = project_psd(toy.x_star + symmetrize(rng.standard_normal((2, 2))) / 3.0)
            lhs = float(np.tensordot(toy.z_star, X, axes=2))
            from conic_alm.symcone import dist_to_face
            d2 = dist_to_face(X, face) ** 2
            if lhs < 40.0 * kappa * d2 - 1e-12:
                violations += 1
        assert violations > 0


class TestTraceBound:
    def test_population(self):
        rep = check_trace_bound(samples=3000, n_range=(2, 8), seed=9)
        assert len(rep.violated) == 0
        # the empirical constant: ||D||_op tr(A) / ||B||^2 >= 1 by the lemma
        assert rep.min_ratio >= 1.0 - 1e-9

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError, match="samples must be at least 1, got -5"):
            check_trace_bound(samples=-5)

    def test_rank_one_equality(self):
        # [[1, 1], [1, 1]]: ||D||_op tr(A) = 1 = ||B||^2
        M = np.ones((2, 2))
        A, B, D = M[:1, :1], M[:1, 1:], M[1:, 1:]
        assert float(np.linalg.eigvalsh(D)[-1]) * np.trace(A) == pytest.approx(
            float(np.sum(B * B)))

    def test_zero_matrix(self):
        M = np.zeros((2, 2))
        assert 0.0 >= float(np.sum(M[:1, 1:] ** 2))

    def test_negative_control_indefinite(self):
        # the PSD hypothesis matters: an indefinite block matrix violates it
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        lhs = float(np.linalg.eigvalsh(M[1:, 1:])[-1]) * np.trace(M[:1, :1])
        rhs = float(np.sum(M[:1, 1:] ** 2))
        assert lhs < rhs


def test_nan_left_hand_side_is_violated():
    # NaN fails every comparison, so a test written as lhs < bound would pass it
    rep = theory._ratio_report([np.nan, 1.0, -1.0], [0.5, 0.5, 0.5], {})
    assert rep.violated == (0, 2)


class TestStrictComplementarity:
    def test_toy(self, toy):
        rep = check_strict_complementarity(toy.x_star, toy.z_star)
        assert rep.rank_x == 1 and rep.rank_z == 1 and rep.holds

    def test_full_rank_x(self):
        rep = check_strict_complementarity(np.eye(3), np.zeros((3, 3)))
        assert rep.rank_x == 3 and rep.rank_z == 0 and rep.holds

    def test_degenerate_fails(self):
        rep = check_strict_complementarity(np.diag([1.0, 0.0, 0.0]),
                                           np.diag([0.0, 1.0, 0.0]))
        assert rep.rank_x == 1 and rep.rank_z == 1 and not rep.holds

    def test_rejects_violated_preconditions(self):
        with pytest.raises(ValueError):
            check_strict_complementarity(np.diag([1.0, -1.0]), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            check_strict_complementarity(np.eye(2), np.eye(2))

    @pytest.mark.parametrize("eps", [1e-10, 1e-9, 1e-7, 1e-5])
    def test_agrees_with_solution_uniqueness(self, eps):
        # x* = diag(1, 0), y* = 0, C = z* = diag(0, eps): below the relative
        # rank cut of the joint spectrum, z* has numerical rank 0 for both
        mats = np.stack([np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]])])
        z = np.diag([0.0, eps])
        inst = KnownSolutionInstance(
            problem=SdpProblem(C=z, constraint_mats=mats, b=np.array([1.0, 0.0])),
            x_star=np.diag([1.0, 0.0]), y_star=np.zeros(2), z_star=z, p_star=0.0)
        rep = check_strict_complementarity(inst.x_star, inst.z_star)
        assert rep.holds == inst.primal_unique == inst.dual_unique == (eps > 1e-8)


class TestExactPenaltyEquivalence:
    def test_toy(self, toy):
        rep = exact_penalty_equivalence(toy, rho=4.0)
        assert rep.equivalent
        assert rep.dist_to_solution <= 1e-5
        assert abs(rep.value_gap) <= 1e-7
        assert rep.subthreshold_detected

    def test_larger_rho_same_minimizer(self, toy):
        r1 = exact_penalty_equivalence(toy, rho=4.0)
        r2 = exact_penalty_equivalence(toy, rho=40.0)
        assert r1.dist_to_solution <= 1e-5 and r2.dist_to_solution <= 1e-5

    def test_certified_instance(self, certified5):
        rho = 1.1 * float(np.trace(certified5.z_star))
        rep = exact_penalty_equivalence(certified5, rho)
        assert rep.equivalent
        assert rep.subthreshold_detected

    def test_rejects_subthreshold_rho(self, toy):
        with pytest.raises(ValueError, match="tr"):
            exact_penalty_equivalence(toy, rho=1.9)

    def test_direct_minimizer_quality(self, toy):
        X, value = minimize_penalized_affine(toy.problem, rho=4.0)
        assert frob(X - toy.x_star) <= 1e-8
        assert value == pytest.approx(0.0, abs=1e-10)


def prox_of_decomposition(Q, lam, rho):
    """The spectral penalty prox of Q diag(lam) Q' from that decomposition."""
    shifted = lam + theory._project_capped_simplex(-lam, rho)
    return symmetrize((Q * shifted) @ Q.T)


class TestSpectralPenaltyProx:
    """The prox takes LAPACK's eigh as it comes: it is unique, and the simplex
    projection sorts, so order, signs and cluster bases do not matter."""

    SPECTRA = [None, [-2.0, -2.0, -2.0, 1.0, 1.0], [-1.0] * 5, [-3.0, -1.0, -1.0, 0.0, 0.0],
               [2.0, 2.0, 0.5, 0.5, 0.5]]

    @pytest.mark.parametrize("spectrum", SPECTRA)
    @pytest.mark.parametrize("rho", [0.5, 2.0, 4.0, 10.0])
    def test_matches_canonical_decomposition(self, rng, spectrum, rho):
        # V is built from a known decomposition Q diag(lam) Q'; with a
        # repeated eigenvalue eigh returns another basis of its eigenspace,
        # and the prox agrees with the one from Q whether or not rho caps
        # the shift of a repeated eigenvalue. It is also orthogonally
        # equivariant: prox(U V U') = U prox(V) U'.
        for _ in range(5):
            lam = rng.standard_normal(5) if spectrum is None else np.array(spectrum)
            Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            U, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            V = symmetrize((Q * lam) @ Q.T)
            got = theory._prox_spectral_penalty(V, rho)
            assert got.tobytes() == got.T.tobytes()
            tol = 1e-12 * (1.0 + frob(V))
            assert frob(got - prox_of_decomposition(Q, lam, rho)) <= tol
            rotated = theory._prox_spectral_penalty(symmetrize(U @ V @ U.T), rho)
            assert frob(rotated - U @ got @ U.T) <= tol
