"""Quadratic growth, error bounds, and the exact penalty
=========================================================

The linear convergence of the drivers rests on structural inequalities that
can all be checked numerically on certified instances: quadratic growth of
the primal and dual objectives, the three-term error bound, the growth
inequality of the cone's indicator/penalty pair with its explicit constant,
the block trace bound behind its proof, and the equivalence of the penalized
and cone-constrained problems once the penalty clears the trace threshold.
The 2x2 builtin shows the sharpest picture: quadratic growth with constant
0.4 on a grid, yet provably no first-order growth along a curve.
"""

import numpy as np

from conic_alm import synth_known_solution
from conic_alm.fixtures import GRIDS, toy_rank1_instance
from conic_alm.theory import (check_trace_bound, exact_penalty_equivalence,
                              no_sharp_growth_curve, verify_eb_primal,
                              verify_growth_lemma, verify_penalty_preimage,
                              verify_qg_dual, verify_qg_primal)

toy = toy_rank1_instance()
inst = synth_known_solution(n=5, m=6, rank_x=2, seed=7)

# Quadratic growth of the penalized dual of the 2x2 instance over a grid.
rep = verify_qg_dual(toy, use_penalty=True, rho=4.0, y_grid=GRIDS["fig-d1"])
print(f"penalized dual growth on the grid: min ratio {rep.min_ratio:.3f}, "
      f"{len(rep.violated)} violations over {rep.sampled_points} points")

# Along y2 = y1/(y1 - 1) the objective equals -y1^2/(y1 - 1) exactly and the
# ratio to the (first power of the) distance vanishes: growth is quadratic
# but not sharp.
rows = no_sharp_growth_curve(np.arange(0.0, 1.0, 0.2))
for row in rows:
    print(f"  y1 = {row.y1:.1f}: value {row.penalty_value:+.4f} "
          f"(closed form {row.closed_form:+.4f}), "
          f"ratio to distance <= {row.ratio_upper_bound:.2f}")

# Sampled growth and error-bound checks around the certified solution.
qg = verify_qg_primal(inst, ball_radius=1.0, samples=2000, seed=0)
eb = verify_eb_primal(inst, ball_radius=1.0, samples=2000, seed=1)
print(f"primal growth: empirical kappa {qg.min_ratio:.3f}; "
      f"error bound: empirical kappa {eb.min_ratio:.3f}; "
      f"violations {len(qg.violated)} / {len(eb.violated)}")

# The indicator growth inequality with the explicit proof constant
# kappa = lambda_min / (3 mu + 2 ||X||): 2/7 for the 2x2 instance at mu = 1.
gl = verify_growth_lemma(toy.x_star, toy.z_star, mu=1.0, samples=5000, seed=2)
print(f"growth lemma: kappa = {gl.params['kappa']:.4f} (= 2/7), "
      f"{len(gl.violated)} violations")

# Its proof rests on a trace bound for PSD block matrices.
tb = check_trace_bound(samples=5000, seed=3)
print(f"trace bound: {len(tb.violated)} violations over {tb.sampled_points} splits, "
      f"tightest ||D|| tr(A) / ||B||^2 = {tb.min_ratio:.6f} (>= 1)")

# The penalty subdifferential's preimage of -Z* is exactly the face of Z*.
pr = verify_penalty_preimage(toy.z_star, rho=4.0, samples=30, seed=4)
print(f"preimage check: {pr.face_failures} on-face failures, "
      f"{pr.off_face_detected}/{pr.off_face_points} off-face detections")

# Above the trace threshold the penalized problem has the same solution;
# below it, the minimum detectably escapes.
eq = exact_penalty_equivalence(toy, rho=4.0)
print(f"exact penalty: minimizer within {eq.dist_to_solution:.1e} of X*, "
      f"sub-threshold rho {eq.subthreshold_rho} detected: "
      f"{eq.subthreshold_detected}")
