"""The proximal view of the multiplier updates, and the penalty's effect
=========================================================================

The multiplier update of the primal driver is an inexact proximal step on
the negative dual function: the deviation from the exact proximal point is
bounded by the certified subproblem gap, at every iteration. A generic
proximal loop with a closed-form oracle shows the same contraction pattern.
Sweeping the penalty parameter shows its practical tradeoff: larger r pushes
affine feasibility down faster early on, but does not necessarily win the
long run.
"""

import numpy as np

from conic_alm import (AlmConfig, ppm, solve_primal_alm, synth_known_solution,
                       verify_ppm_alm_link, zero_dual)

inst = synth_known_solution(n=4, m=5, rank_x=2, seed=31)

# Per-iteration check of the proximal-step inequality, with the reference
# proximal point computed by a ten-times-tighter subproblem solve.
trace = solve_primal_alm(inst, zero_dual(inst.problem),
                         AlmConfig(max_outer=20, stop_eps3=1e-10))
report = verify_ppm_alm_link(inst.problem, trace)
print(f"proximal correspondence: {len(report.rows)} iterations checked, "
      f"{len(report.violations)} violations")
worst = max(row.lhs / (row.bound + 1e-300) for row in report.rows)
print(f"largest lhs/bound ratio: {worst:.2e}")

# A generic inexact proximal loop with a closed-form oracle: for the
# quadratic 0.5 ||x - t||^2 the proximal map is (x + c t)/(1 + c) and the
# iterates contract toward t with factor 1/(1 + c).
t = np.array([3.0, -1.0])
records = ppm(lambda x, c: ((x + c * t) / (1 + c), 0.0), np.zeros(2),
              c_seq=1.0, max_iter=12)
errs = [np.linalg.norm(r.x - t) for r in records]
print("proximal loop errors (factor 1/2 per step):",
      " ".join(f"{e:.1e}" for e in errs[:6]))

# Penalty sweep: compare affine feasibility at iteration 5 across r values.
print("\npenalty sweep (fixed r, 8 iterations):")
print("  r     eta1@5      eps3@8")
for r0 in (0.5, 1.0, 2.0, 5.0):
    cfg = AlmConfig(r0=r0, r_growth=1.0, max_outer=8, stop_eps3=1e-14)
    tr = solve_primal_alm(inst, zero_dual(inst.problem), cfg)
    print(f"  {r0:<5.1f} {tr.records[5].residuals.eta1:.2e}  "
          f"{tr.final.residuals.eps3:.2e}")
print("\n(the same sweep is available from the command line:")
print(" conic-alm bench --builtin synth --n 4 --m 5 --rank-x 2 --seed 31"
      " --r-list 0.5,1,2,5)")
