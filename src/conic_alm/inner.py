"""Certified approximate minimization of smooth convex subproblems.

Damped Newton steps under a monotone backtracking line search. The objective
returns, with its value and gradient at x, a solve g -> d of a regularized
generalized Hessian system at x (``auglag.*_objective``). Each step uses the
solve that came back with the current iterate: it tries the unit step along
-d and backtracks on the Armijo test with g.d in place of ||g||^2. If g.d is
not positive and finite, the step is a plain gradient step from the same
unit length, which no objective of this package takes. A Newton step is also
accepted at the value floor: when its value is within 1e-14 (1 + |f|) of f,
the Armijo test cannot resolve a decrease, and the step is taken if it cuts
||g|| by a relative 1e-4, so solves are monotone only up to the value's
rounding. On a piecewise-quadratic objective Newton is a finite active-set
method (as in SSNAL, Li, Sun & Toh 2018); on the SDP forms it is the
semismooth Newton method of SDPNAL (Zhao, Sun & Toh 2010). Either way the
optimality certificate is the convexity bound

    L(x) - min L <= ||grad L(x)|| * D

valid whenever the minimizer lies within distance D of x; D is supplied by
the caller (``diameter_bound``). The certified gap feeds the two inexactness
acceptance tests used by the outer loops: criterion A compares it against
eps_k^2 / (2 r_k) and criterion B against delta_k^2 ||w step||^2 / (2 r_k).
Both checks are conservative because the certificate overestimates the true
gap.

The loop has four exits: the certificate reaches the tolerance; no
resolvable descent in the value for 25 iterations (the value floor); the
line search cannot move x, because it found no acceptable step or because
``x - t*d`` rounds to ``x`` (a null move: x, its value and gradient stay as
they were); and ``max_iter``.
"""

from dataclasses import dataclass

import numpy as np


class InnerSolveError(RuntimeError):
    """The subproblem produced non-finite values; diagnostics in the message."""


@dataclass(frozen=True)
class InnerResult:
    """Outcome of one subproblem solve.

    ``gap_upper_bound`` is the certified bound ||grad|| * diameter_bound on
    the suboptimality of ``minimizer``; ``converged`` says whether it reached
    the requested tolerance.
    """

    minimizer: np.ndarray
    gap_upper_bound: float
    grad_norm: float
    iterations: int
    converged: bool
    value: float


def _norm(v):
    return float(np.sqrt(np.vdot(v, v).real))


def minimize_auglag(oracle, start, tol, max_iter=10000, diameter_bound=None):
    """Minimize a smooth convex objective until the certified gap is <= tol.

    ``oracle(point) -> (value, gradient, solve)`` with gradient shaped like
    the point (works for vectors and symmetric matrices alike); ``solve``
    maps ``g -> d`` with a positive definite (regularized generalized)
    Hessian at the point, and runs only for the start point and accepted
    points, at most once each. Each step halves the trial step from t = 1
    until the Armijo test (constant 1e-4) holds, at most 60 times. Stops at
    the first of the four exits in the module docstring; all but the
    tolerance give converged=False. ``iterations`` counts accepted moves.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if diameter_bound is None or not 0 < diameter_bound < np.inf:
        raise ValueError("diameter_bound must be positive and finite")
    x = np.array(start, dtype=float)
    fx, g, solve = oracle(x)
    if not np.isfinite(fx) or not np.all(np.isfinite(g)):
        raise InnerSolveError(f"objective returned non-finite values at the start point "
                              f"(value={fx!r})")
    best = (_norm(g), x.copy(), fx)
    f_ref = fx
    since_descent = 0
    it = 0
    while it < max_iter:
        gn = _norm(g)
        if gn < best[0]:
            best = (gn, x.copy(), fx)
        if gn * diameter_bound <= tol:
            break
        # Value-resolution floor: no resolvable descent for a whole window
        # means further certification progress is not measurable.
        if f_ref - fx > 1e-14 * (1.0 + abs(f_ref)):
            f_ref = fx
            since_descent = 0
        else:
            since_descent += 1
            if since_descent > 25:
                break
        # The Armijo decrease 1e-4 t g.d is written 1e-4 t slope ||g|| with
        # slope = g.d / ||g||; its rounding is part of every recorded run
        d = solve(g)
        gd = float(np.vdot(g, d).real)
        if gd > 0 and np.isfinite(gd):
            slope, f_cap = gd / gn, fx + 1e-14 * (1.0 + abs(fx))
        else:
            # the solve does not descend: take the gradient step, with no
            # value-floor acceptance
            d, slope, f_cap = g, gn, -np.inf
        t, backtracks = 1.0, 0
        while True:
            x_new = x - t * d
            f_new, g_new, solve_new = oracle(x_new)
            finite = np.isfinite(f_new)
            # value floor: a Newton step that moves the value by less than
            # its rounding is accepted when it cuts ||g||
            floor_move = finite and f_new <= f_cap and _norm(g_new) <= (1.0 - 1e-4) * gn
            if ((finite and f_new <= fx - 1e-4 * t * slope * gn) or floor_move
                    or backtracks == 60):
                break
            t *= 0.5
            backtracks += 1
        if not np.isfinite(f_new) or not np.all(np.isfinite(g_new)):
            raise InnerSolveError(f"objective returned non-finite values at iteration {it} "
                                  f"(value={f_new!r})")
        if (f_new > fx and not floor_move) or x_new.tobytes() == x.tobytes():
            # The search cannot move x: no descent, or x - t*d rounds to x.
            break
        x, fx, g, solve = x_new, f_new, g_new, solve_new
        it += 1
    gn, x, fx = best if best[0] < _norm(g) else (_norm(g), x, fx)
    gap = gn * diameter_bound
    return InnerResult(minimizer=x, gap_upper_bound=gap, grad_norm=gn,
                       iterations=it, converged=bool(gap <= tol), value=fx)


def check_criterion_A(result, eps_k, r_k):
    """Summable-inexactness test: certified gap <= eps_k^2 / (2 r_k)."""
    if not (eps_k >= 0 and r_k > 0):
        raise ValueError("need eps_k >= 0 and r_k > 0")
    return result.gap_upper_bound <= eps_k * eps_k / (2.0 * r_k)


def check_criterion_B(result, delta_k, r_k, w_step_norm):
    """Relative inexactness test: certified gap <= delta_k^2 ||w step||^2 / (2 r_k)."""
    if not (delta_k >= 0 and r_k > 0 and w_step_norm >= 0):
        raise ValueError("need delta_k >= 0, r_k > 0, and w_step_norm >= 0")
    return result.gap_upper_bound <= delta_k * delta_k * w_step_norm * w_step_norm / (2.0 * r_k)
