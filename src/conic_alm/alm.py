"""Outer augmented Lagrangian loop and the generic inexact proximal loop.

One loop runs the inexact ALM for all three forms: one inner solve per
subproblem, which stops at the first iterate where both inexactness criteria
hold against that iterate's own multiplier step, and then that step is
applied. Each form supplies three pieces: its ``auglag.*_objective``
factory, whose subproblem oracle returns value, gradient, Newton solve and
multiplier step together, a bound on the distance to the subproblem
minimizer, and the builder of its iteration record and residuals. Every
subproblem is solved by damped (semismooth) Newton steps with the solve that
the form's oracle returns.

The penalty sequence grows geometrically up to a finite cap. When the
criteria cannot be certified (their targets eventually sink below the
floating-point floor of the subproblem) the solve ends at that floor or at
its own exits, and the loop keeps the iterate it returns and flags the
record (``certified``).

Also here: a generic inexact proximal point loop used to cross-check the
correspondence between multiplier updates and proximal steps on the dual
function, the per-iteration verifier of that correspondence, and a
least-squares estimator of empirical linear convergence rates.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from . import auglag
from .inner import check_criterion_A, check_criterion_B, minimize_auglag
# apply_A is unused here but stays a module attribute: perfbench's tracer
# rebinds alm.apply_A by name
from .model import (DualPoint, KnownSolutionInstance, apply_A, apply_Astar,
                    ineq_residuals, kkt_residuals)
from .symcone import dist_psd, frob, symmetrize

# Below this threshold a certification target is considered unreachable in
# double precision: the inner solve stops at a gap within it.
_TARGET_FLOOR = 1e-16


@dataclass(frozen=True)
class AlmConfig:
    """Outer-loop parameters shared by all three forms.

    The penalty grows as r_{k+1} = min(r_growth * r_k, r_max), keeping the
    sequence bounded; eps_k = eps0 * decay^k and delta_k = delta0 * decay^k
    are the (summable) inexactness schedules. ``inner_budget`` caps the inner
    iterations of the one solve of each subproblem.
    """

    r0: float = 1.0
    r_growth: float = 1.25
    r_max: float = 100.0
    eps0: float = 1.0
    delta0: float = 0.5
    decay: float = 0.7
    max_outer: int = 500
    stop_eps3: float = 1e-8
    inner_budget: int = 4000

    def __post_init__(self):
        for f in fields(self):
            if f.type is float and not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if self.r0 <= 0 or self.r_growth < 1 or self.r_max < self.r0:
            raise ValueError("need r0 > 0, r_growth >= 1, r_max >= r0")
        if not 0 < self.decay < 1:
            raise ValueError("decay must lie in (0, 1)")
        if self.eps0 < 0 or self.delta0 < 0:
            raise ValueError("need eps0 >= 0 and delta0 >= 0")
        if self.stop_eps3 <= 0 or self.max_outer < 1 or self.inner_budget < 1:
            raise ValueError("need stop_eps3 > 0, max_outer >= 1 and inner_budget >= 1")

    def penalty(self, k):
        return min(self.r0 * self.r_growth ** k, self.r_max)

    def eps(self, k):
        return self.eps0 * self.decay ** k

    def delta(self, k):
        return self.delta0 * self.decay ** k


@dataclass(frozen=True)
class _OuterRecord:
    """Fields every form records for one accepted outer iteration."""

    k: int
    r: float
    eps_k: float
    delta_k: float
    inner_iterations: int
    gap_certificate: float
    grad_norm: float
    certified: bool
    step_norm: float
    value: float
    residuals: object
    dist_x: float | None = None

    def lookup(self, key):
        """The record field ``key``, else the residual field of that name."""
        return getattr(self, key) if hasattr(self, key) else getattr(self.residuals, key)


# The iterate fields follow the defaulted dist_x, so they are keyword-only.
@dataclass(frozen=True, kw_only=True)
class IterationRecord(_OuterRecord):
    """One accepted outer iteration of an SDP-form run.

    Stores the post-update iterates, the inexactness bookkeeping, and (when a
    certified instance is attached) distances to the known solution before
    and after the multiplier step.
    """

    X: np.ndarray
    y: np.ndarray
    Z: np.ndarray
    dist_w: float | None = None
    dist_w_before: float | None = None


@dataclass(frozen=True, kw_only=True)
class IneqIterationRecord(_OuterRecord):
    """One accepted outer iteration of an inequality-form run."""

    x: np.ndarray
    z: np.ndarray


@dataclass
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
    floor) whose own step meets criterion B or sinks B's target to the floor.
    """
    for k in range(cfg.max_outer):
        r = cfg.penalty(k)
        eps_k, delta_k = cfg.eps(k), cfg.delta(k)

        def meets_B(result):
            step = result.update[2]
            return (check_criterion_B(result, delta_k, r, step)
                    or delta_k * delta_k * step * step / (2.0 * r) <= _TARGET_FLOOR)

        result = minimize_auglag(objective(p, w, r), x,
                                 max(eps_k * eps_k / (2.0 * r), _TARGET_FLOOR), cfg.inner_budget,
                                 diameter_bound=diameter_of(x), accept=meets_B)
        x, w_new, step = result.update
        certified = (check_criterion_A(result, eps_k, r)
                     and check_criterion_B(result, delta_k, r, step))
        rec = record(x, w, w_new, dict(
            k=k, r=r, eps_k=eps_k, delta_k=delta_k, inner_iterations=result.iterations,
            gap_certificate=result.gap_upper_bound, grad_norm=result.grad_norm,
            certified=certified, step_norm=step, value=result.value))
        trace.records.append(rec)
        w = w_new
        if rec.residuals.eps3 <= cfg.stop_eps3:
            trace.converged = True
            break
    return trace


def _start_array(name, value, shape):
    """``value`` as a float array; raises unless it is finite and of ``shape``."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape or not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite with shape {shape}, got shape {value.shape}")
    return value


def _sdp_record(p, oracle, X, w, dist_w_before, fields):
    """IterationRecord of the SDP iterate (X, w), with KKT residuals and,
    when ``oracle`` pins a unique solution, distances to it."""
    track_x = oracle is not None and oracle.primal_unique
    track_w = oracle is not None and oracle.dual_unique
    p_star = oracle.p_star if oracle else None
    return IterationRecord(
        X=X.copy(), y=w.y.copy(), Z=w.Z.copy(),
        residuals=kkt_residuals(p, X, w, p_star=p_star, d_star=p_star),
        dist_x=oracle.dist_primal(X) if track_x else None,
        dist_w=oracle.dist_dual(w) if track_w else None,
        dist_w_before=dist_w_before, **fields)


def solve_primal_alm(p, w0, cfg=None):
    """Inexact ALM on the primal SDP; multipliers w = (y, Z) with Z kept PSD.

    ``p`` is an SdpProblem, or a KnownSolutionInstance whose certified
    solution fills in the distance-to-solution columns; X starts at 0.
    Terminates when the KKT residual eps3 drops below ``cfg.stop_eps3`` or
    after ``cfg.max_outer`` iterations.
    """
    cfg = cfg or AlmConfig()
    oracle = p if isinstance(p, KnownSolutionInstance) else None
    p = oracle.problem if oracle else p
    _start_array("w0.y", w0.y, (p.m,))
    _start_array("w0.Z", w0.Z, (p.n, p.n))
    if dist_psd(w0.Z) > 1e-9 * (1.0 + frob(w0.Z)):
        raise ValueError("initial Z must be positive semidefinite")
    track_w = oracle is not None and oracle.dual_unique

    def record(X, w, w_new, fields):
        # w is the last record's multiplier, so its distance is that record's dist_w
        before = (trace.records[-1].dist_w if trace.records
                  else oracle.dist_dual(w) if track_w else None)
        return _sdp_record(p, oracle, X, w_new, before, fields)

    trace = AlmTrace(form="primal", problem_name=p.name, config=cfg, start_point=w0)
    return _outer_loop(trace, cfg, p, auglag.primal_objective,
                       lambda Xc: auglag.default_diameter(p, Xc), record,
                       np.zeros((p.n, p.n)), DualPoint(y=w0.y.copy(), Z=w0.Z.copy()))


def solve_dual_alm(p, X0, cfg=None):
    """Inexact ALM on the dual SDP; the multiplier X is kept PSD.

    Iterates (y_k, X_k) from (0, X0); the slack Z_k = C - A*(y_k) is
    affine-feasible by construction, so the recorded eta3 residual is always
    zero. ``p`` is taken as in :func:`solve_primal_alm`.
    """
    cfg = cfg or AlmConfig()
    oracle = p if isinstance(p, KnownSolutionInstance) else None
    p = oracle.problem if oracle else p
    X0 = symmetrize(_start_array("X0", X0, (p.n, p.n)))
    if dist_psd(X0) > 1e-9 * (1.0 + frob(X0)):
        raise ValueError("initial X must be positive semidefinite")
    scale = 2.0 * (1.0 + p.b_norm + p.C_norm)
    track_x = oracle is not None and oracle.primal_unique

    def record(y, X, X_new, fields):
        w = DualPoint(y=y, Z=symmetrize(p.C - apply_Astar(p, y)))
        # X is the last record's X, so its distance is that record's dist_x
        before = (trace.records[-1].dist_x if trace.records
                  else oracle.dist_primal(X) if track_x else None)
        return _sdp_record(p, oracle, X_new, w, before, fields)

    trace = AlmTrace(form="dual", problem_name=p.name, config=cfg, start_point=X0)
    return _outer_loop(trace, cfg, p, auglag.dual_objective,
                       lambda yc: scale + 2.0 * float(np.linalg.norm(yc)),
                       record, np.zeros(p.m), X0.copy())


def solve_ineq_alm(q, z0, cfg=None, x_star=None, f_star=None):
    """Inexact ALM on a convex QP with affine inequality constraints; x starts at 0."""
    cfg = cfg or AlmConfig()
    z = _start_array("z0", z0, (q.n_constraints,)).copy()
    if not np.all(z >= 0):
        raise ValueError("z0 must be nonnegative")
    scale = 2.0 * (1.0 + float(np.linalg.norm(q.c)) + float(np.linalg.norm(q.h)))

    def record(x, z, z_new, fields):
        return IneqIterationRecord(
            x=x.copy(), z=z_new.copy(),
            residuals=ineq_residuals(q, x, z_new, f_star=f_star),
            dist_x=float(np.linalg.norm(x - x_star)) if x_star is not None else None,
            **fields)

    trace = AlmTrace(form="ineq", problem_name=q.name, config=cfg, start_point=z.copy())
    return _outer_loop(trace, cfg, q, auglag.ineq_objective,
                       lambda xc: scale + 2.0 * float(np.linalg.norm(xc)),
                       record, np.zeros(q.dim), z)


@dataclass(frozen=True)
class PpmRecord:
    """One inexact proximal step: iterate, declared error, and criteria flags."""

    k: int
    x: np.ndarray
    c: float
    eps_k: float
    delta_k: float
    prox_error: float
    step_norm: float
    criterion_a: bool
    criterion_b: bool


def ppm(prox_oracle, x0, c_seq, eps_seq=None, delta_seq=None, max_iter=100,
        stop_step=0.0):
    """Generic inexact proximal point loop.

    ``prox_oracle(x, c) -> (x_next, error_bound)`` evaluates the proximal map
    of the underlying function with step c, declaring a bound on its own
    error. ``c_seq``/``eps_seq``/``delta_seq`` are callables of the iteration
    index (constants are promoted). Stops when the step norm falls below
    ``stop_step``. Returns the list of PpmRecord.
    """
    def as_fn(v, default):
        if v is None:
            return default
        return v if callable(v) else (lambda k, v=v: v)

    c_fn = as_fn(c_seq, lambda k: 1.0)
    eps_fn = as_fn(eps_seq, lambda k: 1.0 * 0.7 ** k)
    delta_fn = as_fn(delta_seq, lambda k: 0.5 * 0.7 ** k)
    x = np.array(x0, dtype=float)
    records = []
    for k in range(max_iter):
        c = float(c_fn(k))
        if c <= 0:
            raise ValueError("proximal steps must be positive")
        x_next, err = prox_oracle(x, c)
        x_next = np.asarray(x_next, dtype=float)
        step = float(np.linalg.norm(x_next - x))
        eps_k, delta_k = float(eps_fn(k)), float(delta_fn(k))
        records.append(PpmRecord(k=k, x=x_next.copy(), c=c, eps_k=eps_k,
                                 delta_k=delta_k, prox_error=float(err),
                                 step_norm=step,
                                 criterion_a=bool(err <= eps_k),
                                 criterion_b=bool(err <= delta_k * step)))
        x = x_next
        if step <= stop_step:
            break
    return records


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
