"""Certified instances, residuals, and file round trips
========================================================

Ground truth without an external solver: SDPs are synthesized around an
optimal triple that satisfies the KKT system by construction, so solver
output can be measured as a true distance to the solution. The KKT residual
set quantifies optimality of arbitrary candidate points, and problems round
trip through a single-block SDPA-subset file format.
"""

import tempfile
from pathlib import Path

import numpy as np

from conic_alm import (kkt_residuals, sdpa_read, sdpa_write,
                       synth_known_solution)
from conic_alm.theory import check_strict_complementarity

# Draw a 5x5 SDP with 6 constraints whose solution has rank 2. The
# complementary eigenspaces force rank(X*) + rank(Z*) = 5, i.e. strict
# complementarity holds by design.
inst = synth_known_solution(n=5, m=6, rank_x=2, seed=7)
print("instance:", inst.problem.name)
print("optimal value:", inst.p_star)
print("certification:", {k: f"{v:.1e}" for k, v in inst.certify().items()})
sc = check_strict_complementarity(inst.x_star, inst.z_star)
print(f"ranks {sc.rank_x} + {sc.rank_z} = {sc.n}:", sc.holds)
print("unique solutions:", inst.primal_unique, inst.dual_unique)

# Residuals vanish at the certified triple and react to perturbations.
res = kkt_residuals(inst.problem, inst.x_star, inst.w_star, p_star=inst.p_star)
print("eps3 at the solution:", res.eps3)
off = kkt_residuals(inst.problem, inst.x_star + 1e-3 * np.eye(5), inst.w_star,
                    p_star=inst.p_star)
print("eps3 after a 1e-3 perturbation:", off.eps3)

# Problems serialize to a plain-text SDPA subset with 17 significant digits,
# so the round trip is exact.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "instance.dat-s"
    sdpa_write(inst.problem, path)
    back = sdpa_read(path)
    print("round trip exact:",
          np.array_equal(back.C, inst.problem.C)
          and np.array_equal(back.b, inst.problem.b))
    print("file preview:")
    print("\n".join(path.read_text().splitlines()[:6]))
