"""Outer augmented Lagrangian loop and the proximal correspondence check.

One loop runs the inexact ALM for all three forms: one inner solve per
subproblem, which stops at the first iterate where both inexactness criteria
hold against that iterate's own multiplier step, and then that step is
applied. Each form supplies three pieces: its ``auglag.*_objective``
factory, whose subproblem oracle returns value, gradient, Newton solve and
multiplier step together, a bound on the distance to the subproblem
minimizer, and the builder of its iteration record and residuals. Every
subproblem is solved by damped (semismooth) Newton steps with the solve that
the form's oracle returns. A record keeps the arrays the loop built, marked
read-only (the loop rebinds its iterates and never writes one), so no caller
can leave its distances and residuals stale.

The penalty sequence grows geometrically up to a finite cap, by default from
r0 = 1 by x1.4 per outer iteration to 100. The loop's linear rate improves
with r (1 - q grows in proportion to r, as for a proximal point step;
Rockafellar, SIAM J. Control Optim. 1976), so a faster growth leaves the
slow early regime sooner: at ``stop_eps3 = 1e-5`` x1.4 takes svm-random in
18 outer iterations instead of x1.25's 23, and the g1-g3 max-cut primal
solves in 11/11/10 instead of 13/14/13. When the criteria cannot be
certified (their targets eventually sink below the floating-point floor of
the subproblem) the solve ends at that floor or at its own exits, and the
loop keeps the iterate it returns and flags the record (``certified``).

Also here: the per-iteration verifier of the correspondence between
multiplier updates and proximal steps on the dual function, and a
least-squares estimator of empirical linear convergence rates.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from . import auglag
from .inner import check_criterion_A, check_criterion_B, minimize_auglag
# apply_A is unused here but stays a module attribute: perfbench's tracer
# rebinds alm.apply_A by name
from .model import (DualPoint, KnownSolutionInstance, apply_A, apply_Astar, check_array,
                    check_dual_point, check_matrix, check_real, ineq_residuals, kkt_residuals,
                    read_only)
from .symcone import dist_psd, frob, symmetrize

# Below this threshold a certification target is considered unreachable in
# double precision: the inner solve stops at a gap within it.
_TARGET_FLOOR = 1e-16


@dataclass(frozen=True)
class AlmConfig:
    """Outer-loop parameters shared by all three forms.

    The penalty grows as r_{k+1} = min(r_growth * r_k, r_max), keeping the
    sequence bounded. The default growth x1.4 was chosen from x1.25, x1.4,
    x1.45 and x1.5 (caps 100 and 1000) on the benchmark workloads: against
    x1.25 it cuts qp-ineq from 46 outer iterations and 99 Newton steps to
    36 and 72 and max-cut from 112 and 359 to 90 and 300, with no final
    residual or fitted rate worse; x1.45 and x1.5 take fewer steps still but
    end max-cut or the QPs less accurately than x1.4. eps_k = eps0 * decay^k
    and delta_k = delta0 * decay^k are the (summable) inexactness schedules.
    ``inner_budget`` caps the inner iterations of the one solve of each
    subproblem.
    """

    r0: float = 1.0
    r_growth: float = 1.4
    r_max: float = 100.0
    eps0: float = 1.0
    delta0: float = 0.5
    decay: float = 0.7
    max_outer: int = 500
    stop_eps3: float = 1e-8
    inner_budget: int = 4000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            # bool is an int subclass; max_outer=True would run one iteration
            if f.type is int and (isinstance(value, bool)
                                  or not isinstance(value, (int, np.integer))):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if self.r0 <= 0 or self.r_growth < 1 or self.r_max < self.r0:
            raise ValueError("need r0 > 0, r_growth >= 1, r_max >= r0")
        if not 0 < self.decay < 1:
            raise ValueError("decay must lie in (0, 1)")
        if self.eps0 < 0 or self.delta0 < 0:
            raise ValueError("need eps0 >= 0 and delta0 >= 0")
        if self.stop_eps3 <= 0 or self.max_outer < 1 or self.inner_budget < 1:
            raise ValueError("need stop_eps3 > 0, max_outer >= 1 and inner_budget >= 1")

    def penalty(self, k):
        try:
            return min(self.r0 * self.r_growth ** k, self.r_max)
        except OverflowError:
            # r_growth ** k is past the float range, so long past the cap
            return self.r_max

    def eps(self, k):
        return self.eps0 * self.decay ** k

    def delta(self, k):
        return self.delta0 * self.decay ** k


@dataclass(frozen=True, eq=False)
class _OuterRecord:
    """Fields every form records for one accepted outer iteration."""

    k: int
    r: float
    eps_k: float
    delta_k: float
    inner_iterations: int
    gap_certificate: float
    certified: bool
    step_norm: float
    residuals: object
    dist_x: float | None = None

    def lookup(self, key):
        """The record field ``key``, else the residual field of that name."""
        return getattr(self, key) if hasattr(self, key) else getattr(self.residuals, key)


# The iterate fields follow the defaulted dist_x, so they are keyword-only.
@dataclass(frozen=True, kw_only=True, eq=False)
class IterationRecord(_OuterRecord):
    """One accepted outer iteration of an SDP-form run.

    Stores the post-update iterates, the inexactness bookkeeping, and (when a
    certified instance is attached) the distances that it reports to its
    solution sets, before and after the multiplier step.
    """

    X: np.ndarray
    y: np.ndarray
    Z: np.ndarray
    dist_w: float | None = None
    dist_w_before: float | None = None


@dataclass(frozen=True, kw_only=True, eq=False)
class IneqIterationRecord(_OuterRecord):
    """One accepted outer iteration of an inequality-form run."""

    x: np.ndarray
    z: np.ndarray


@dataclass(eq=False)
class AlmTrace:
    """Append-only run record for one solver invocation."""

    form: str
    problem_name: str
    config: AlmConfig
    records: list = field(default_factory=list)
    converged: bool = False
    start_point: object = None

    def series(self, key):
        """Extract a per-iteration series; looks up residual fields too."""
        out = [rec.lookup(key) for rec in self.records]
        return np.array([np.nan if v is None else v for v in out])

    @property
    def final(self):
        return self.records[-1]


def _outer_loop(trace, cfg, p, objective, diameter_of, record, x, w):
    """The inexact ALM shared by every form; appends to ``trace`` and returns it.

    ``objective(p, w, r)`` builds the subproblem oracle in x, whose update is
    the multiplier step, ``diameter_of(x)`` bounds the distance from x to the
    subproblem minimizer, and ``record(x, w, w+, fields)`` builds the
    iteration record (with its residuals) from the shared ``fields``. The
    solve stops at the first iterate within criterion A's target (or the
    floor) whose own step meets criterion B or, after at least one inner
    step, sinks B's target to the floor.
    """
    for k in range(cfg.max_outer):
        r = cfg.penalty(k)
        eps_k, delta_k = cfg.eps(k), cfg.delta(k)

        def meets_B(result):
            # the floor escape needs a step: a start point that meets A's
            # loose early target would otherwise return unimproved, and the
            # multiplier step would repeat the last residual
            step = result.update[2]
            return (check_criterion_B(result, delta_k, r, step)
                    or (result.iterations > 0
                        and delta_k * delta_k * step * step / (2.0 * r) <= _TARGET_FLOOR))

        result = minimize_auglag(objective(p, w, r), x,
                                 max(eps_k * eps_k / (2.0 * r), _TARGET_FLOOR), cfg.inner_budget,
                                 diameter_bound=diameter_of(x), accept=meets_B)
        x, w_new, step = result.update
        certified = (check_criterion_A(result, eps_k, r)
                     and check_criterion_B(result, delta_k, r, step))
        rec = record(x, w, w_new, dict(
            k=k, r=r, eps_k=eps_k, delta_k=delta_k, inner_iterations=result.iterations,
            gap_certificate=result.gap_upper_bound, certified=certified, step_norm=step))
        trace.records.append(rec)
        w = w_new
        if rec.residuals.eps3 <= cfg.stop_eps3:
            trace.converged = True
            break
    return trace


def _sdp_record(p, oracle, X, w, dist_w_before, fields):
    """IterationRecord of the SDP iterate (X, w), with KKT residuals and the
    distances that ``oracle``, when given, reports. The loop built X and w
    from checked data, so the residuals skip the input checks."""
    return IterationRecord(
        X=read_only(X), y=read_only(w.y), Z=read_only(w.Z),
        residuals=kkt_residuals(p, X, w, p_star=oracle.p_star if oracle else None,
                                checked=True),
        dist_x=oracle.dist_primal(X) if oracle else None,
        dist_w=oracle.dist_dual(w) if oracle else None,
        dist_w_before=dist_w_before, **fields)


def solve_primal_alm(p, w0, cfg=None):
    """Inexact ALM on the primal SDP; multipliers w = (y, Z) with Z kept PSD.

    ``p`` is an SdpProblem, or a KnownSolutionInstance whose certified
    solution fills in the distance-to-solution columns; X starts at 0.
    Terminates when the KKT residual eps3 drops below ``cfg.stop_eps3`` or
    after ``cfg.max_outer`` iterations. ``w0`` is checked and copied once,
    read-only; the copy is both the loop's start and ``trace.start_point``.
    """
    cfg = cfg or AlmConfig()
    oracle = p if isinstance(p, KnownSolutionInstance) else None
    p = oracle.problem if oracle else p
    w0 = check_dual_point(p, w0, "w0")
    if dist_psd(w0.Z, checked=True) > 1e-9 * (1.0 + frob(w0.Z)):
        raise ValueError("w0.Z must be positive semidefinite")
    w0 = DualPoint(*read_only(np.array(w0.y), np.array(w0.Z)))
    trace = AlmTrace(form="primal", problem_name=p.name, config=cfg, start_point=w0)

    def record(X, w, w_new, fields):
        # w is the last record's multiplier, or w0
        before = trace.records[-1].dist_w if trace.records else (
            oracle.dist_dual(w) if oracle else None)
        return _sdp_record(p, oracle, X, w_new, before, fields)

    return _outer_loop(trace, cfg, p, auglag.primal_objective,
                       lambda Xc: auglag.default_diameter(p, Xc), record,
                       np.zeros((p.n, p.n)), w0)


def solve_dual_alm(p, X0, cfg=None):
    """Inexact ALM on the dual SDP; the multiplier X is kept PSD.

    Iterates (y_k, X_k) from (0, X0); the slack Z_k = C - A*(y_k) is
    affine-feasible by construction, so the recorded eta3 residual is always
    zero. ``p`` is taken as in :func:`solve_primal_alm`.
    """
    cfg = cfg or AlmConfig()
    oracle = p if isinstance(p, KnownSolutionInstance) else None
    p = oracle.problem if oracle else p
    X0 = read_only(np.array(check_matrix(p, X0, "X0")))
    if dist_psd(X0, checked=True) > 1e-9 * (1.0 + frob(X0)):
        raise ValueError("X0 must be positive semidefinite")
    scale = 2.0 * (1.0 + p.b_norm + p.C_norm)
    trace = AlmTrace(form="dual", problem_name=p.name, config=cfg, start_point=X0)

    def record(y, X, X_new, fields):
        w = DualPoint(y=y, Z=symmetrize(p.C - apply_Astar(p, y)))
        # X is the last record's multiplier, or X0
        before = trace.records[-1].dist_x if trace.records else (
            oracle.dist_primal(X) if oracle else None)
        return _sdp_record(p, oracle, X_new, w, before, fields)

    return _outer_loop(trace, cfg, p, auglag.dual_objective,
                       lambda yc: scale + 2.0 * float(np.linalg.norm(yc)),
                       record, np.zeros(p.m), X0)


def solve_ineq_alm(q, z0, cfg=None, x_star=None, f_star=None):
    """Inexact ALM on a convex QP with affine inequality constraints; x starts
    at 0. A known solution ``x_star`` and value ``f_star`` fill in the
    ``dist_x`` and ``cost_gap`` columns."""
    cfg = cfg or AlmConfig()
    z = read_only(np.array(check_array("z0", z0, (q.n_constraints,))))
    if not np.all(z >= 0):
        raise ValueError("z0 must be nonnegative")
    x_star = None if x_star is None else check_array("x_star", x_star, (q.dim,))
    f_star = None if f_star is None else check_real("f_star", f_star)
    scale = 2.0 * (1.0 + float(np.linalg.norm(q.c)) + float(np.linalg.norm(q.h)))

    def record(x, z, z_new, fields):
        return IneqIterationRecord(
            x=read_only(x), z=read_only(z_new),
            residuals=ineq_residuals(q, x, z_new, f_star=f_star, checked=True),
            dist_x=float(np.linalg.norm(x - x_star)) if x_star is not None else None,
            **fields)

    trace = AlmTrace(form="ineq", problem_name=q.name, config=cfg, start_point=z)
    return _outer_loop(trace, cfg, q, auglag.ineq_objective,
                       lambda xc: scale + 2.0 * float(np.linalg.norm(xc)),
                       record, np.zeros(q.dim), z)


@dataclass(frozen=True)
class LinkRow:
    """Per-iteration data of the multiplier/proximal correspondence check."""

    k: int
    lhs: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class LinkReport:
    rows: tuple
    violations: tuple

    @property
    def ok(self):
        return len(self.violations) == 0


def verify_ppm_alm_link(p, trace):
    """Check ||w_{k+1} - prox(w_k)||^2 / (2 r_k) against the certified gap.

    The reference proximal point is the exact multiplier update at the exact
    subproblem minimizer; it is approximated by the update of a re-solve of
    each subproblem to a tenth of the recorded certificate (at least 1e-15, at
    most 20000 inner iterations, warm-started at the recorded iterate). The
    tolerance composes the recorded certificate, the reference solve's own
    certificate, and a 1e-10 slack: lhs <= (sqrt(gap_k) + sqrt(gap_ref))^2
    + 1e-10.
    """
    if isinstance(p, KnownSolutionInstance):
        p = p.problem
    if trace.form != "primal":
        raise ValueError("the correspondence check expects a primal-form trace")
    rows = []
    w_prev = trace.start_point
    for rec in trace.records:
        r = rec.r
        tol_ref = max(rec.gap_certificate * 0.1, 1e-15)
        ref = minimize_auglag(auglag.primal_objective(p, w_prev, r), rec.X, tol=tol_ref,
                              max_iter=20000, diameter_bound=auglag.default_diameter(p, rec.X))
        _, w_prox, _ = ref.update
        dy = rec.y - w_prox.y
        dZ = rec.Z - w_prox.Z
        lhs = (float(dy @ dy) + float(np.sum(dZ * dZ))) / (2.0 * r)
        root = np.sqrt(rec.gap_certificate) + np.sqrt(ref.gap_upper_bound)
        bound = root * root + 1e-10
        rows.append(LinkRow(k=rec.k, lhs=lhs, bound=float(bound), ok=bool(lhs <= bound)))
        w_prev = DualPoint(y=rec.y, Z=rec.Z)
    violations = tuple(row for row in rows if not row.ok)
    return LinkReport(rows=tuple(rows), violations=violations)


@dataclass(frozen=True)
class RateFit:
    """Least-squares geometric rate over the trailing window of a series."""

    rate_q: float
    r_squared: float
    n_points: int


def fit_linear_rate(series, tail_fraction=0.5):
    """Fit log(series) ~ slope * k on the trailing window; rate_q = exp(slope)."""
    s = np.asarray(series, dtype=float)
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    if np.any(~np.isfinite(s)) or np.any(s <= 0):
        raise ValueError("series must be positive and finite")
    start = int(np.floor(len(s) * (1.0 - tail_fraction)))
    tail = s[start:]
    if tail.size < 3:
        raise ValueError("need at least 3 points in the fit window")
    ks = np.arange(tail.size, dtype=float)
    logs = np.log(tail)
    design = np.column_stack([ks, np.ones_like(ks)])
    coef, residual, _, _ = np.linalg.lstsq(design, logs, rcond=None)
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    ss_res = float(residual[0]) if residual.size else 0.0
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(rate_q=float(np.exp(coef[0])), r_squared=float(r2),
                   n_points=int(tail.size))


def truncate_at_floor(series, floor):
    """Keep the leading run of entries strictly above ``floor``."""
    s = np.asarray(series, dtype=float)
    below = np.nonzero(s <= floor)[0]
    if below.size == 0:
        return s
    return s[: int(below[0])]


def pre_floor_window(series, scale=0.0):
    """Leading stretch of a residual series above its double-precision floor.

    Distance-type series bottom out around sqrt(machine epsilon) times the
    solution scale (the augmented Lagrangian value is evaluated through a
    cancellation of order ``scale``^2). The cut is the larger of 1e-9 and
    1e-7 (1 + scale); when the series bottoms out below 1e-5 the trailing
    plateau within 3x of its minimum is dropped as well.
    """
    s = np.asarray(series, dtype=float)
    cut = max(1e-9, 1e-7 * (1.0 + scale))
    if s.size and float(s.min()) < 1e-5:
        cut = max(cut, 3.0 * float(s.min()))
    return truncate_at_floor(s, cut)
