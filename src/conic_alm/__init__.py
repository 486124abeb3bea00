"""Inexact augmented Lagrangian methods for semidefinite programs.

A desk-scale numpy library: cone geometry kernels, three ALM drivers (primal,
dual, and inequality form) with certified inexact subproblem solves, a
synthesizer of SDPs with KKT-certified solutions for ground truth, residual
and convergence-rate tracking, and samplers that verify the quadratic-growth,
error-bound, exact-penalty, and proximal-correspondence properties the
solver's linear convergence rests on.
"""

from .alm import (AlmConfig, AlmTrace, IneqIterationRecord, IterationRecord,
                  LinkReport, RateFit, fit_linear_rate, pre_floor_window,
                  solve_dual_alm, solve_ineq_alm, solve_primal_alm,
                  truncate_at_floor, verify_ppm_alm_link)
from .auglag import (default_diameter, dual_gap_lower_bound, dual_objective,
                     eval_L_dual, eval_L_ineq, eval_L_primal, grad_L_dual_y,
                     grad_L_ineq_x, grad_L_primal_X, grad_L_primal_w,
                     ineq_objective, primal_objective)
from .inner import (InnerResult, InnerSolveError, check_criterion_A,
                    check_criterion_B, minimize_auglag)
from .model import (CertificationError, DualPoint, IneqProblem, IneqResidualSet,
                    KnownSolutionInstance, ResidualSet, SdpProblem, apply_A,
                    apply_Astar, ineq_residuals, kkt_residuals, lasso_instance,
                    maxcut_instance, svm_instance, synth_known_solution, zero_dual)
from .sdpa import SdpaFormatError, sdpa_read, sdpa_write
# symcone.inner is not re-exported: it would shadow the conic_alm.inner module.
from .symcone import (FaceBasis, dist_psd, dist_to_face, exact_penalty, face_basis,
                      frob, moreau_split, penalty_subgrad, project_psd, symmetrize)
from .theory import (ComplementarityReport, CurveRow, EquivalenceReport,
                     GrowthReport, PreimageReport, check_strict_complementarity,
                     check_trace_bound, exact_penalty_equivalence,
                     minimize_penalized_affine, no_sharp_growth_curve,
                     verify_eb_primal, verify_growth_lemma,
                     verify_penalty_preimage, verify_qg_dual, verify_qg_primal)

__version__ = "0.1.0"
