"""Certified approximate minimization of smooth convex subproblems.

Damped Newton steps under a monotone backtracking line search. The objective
returns, with its value and gradient at x, a solve g -> d of a regularized
generalized Hessian system at x and a lazy multiplier step at x
(``auglag.*_objective``). Each step uses the solve that came back with the
current iterate: it tries the unit step along -d and halves it, at most 60
times, until the Armijo test with g.d in place of ||g||^2 holds. A step is
also accepted at the value floor: when its value is within 1e-14 (1 + |f|)
of f, the Armijo test cannot resolve a decrease, and the step is taken if it
cuts ||g|| by a relative 1e-4, so solves are monotone only up to the value's
rounding. On a piecewise-quadratic objective Newton is a finite active-set
method (as in SSNAL, Li, Sun & Toh 2018); on the SDP forms it is the
semismooth Newton method of SDPNAL (Zhao, Sun & Toh 2010). Either way the
optimality certificate is the convexity bound

    L(x) - min L <= ||grad L(x)|| * D

valid whenever the minimizer lies within distance D of x; D is supplied by
the caller (``diameter_bound``). The certified gap feeds the two inexactness
acceptance tests used by the outer loop: criterion A compares it against
eps_k^2 / (2 r_k) and criterion B against delta_k^2 ||w step||^2 / (2 r_k).
Both checks are conservative because the certificate overestimates the true
gap. As in SSNAL, both are checked inside the solve, at each iterate's own
multiplier step: A through ``tol`` and B through the caller's ``accept``.

The loop has five exits: the stop test (the certificate within the
tolerance, and ``accept``) holds; the certificate ||g|| D is within the
value's resolution 1e-14 (1 + |f|) (the certificate floor); no resolvable
descent in the value for 3 iterations (the value floor); the line search
cannot move x, because the solve gives no descent direction (g.d not
positive and finite), because it found no acceptable step, or because
``x - t*d`` rounds to ``x`` (a null move: x, its value and gradient stay as
they were); and ``max_iter``. At the certificate floor the convexity bound
already says that no step can lower the value by a resolvable amount, so the
solve ends there rather than running on to the value floor (on the C3 study
this cut the evaluations from 894 to 679 at benchmark seed 1, with the same
outer iterations). The value-floor window is short because a Newton step taken
once the value stops resolving descent squares the relative residual: two
such steps bring ||g|| to its rounding floor, and further steps only redraw
the rounding noise there (on the C3 study they left ||g|| between 1e-15 and
4e-15, whose certificate never reaches a 1e-16 target, while a 25-iteration
window spent 91 % of the study's Newton steps on such solves).
"""

import math
from dataclasses import dataclass

import numpy as np


class InnerSolveError(RuntimeError):
    """The subproblem produced non-finite values; diagnostics in the message."""


@dataclass(frozen=True, eq=False)
class InnerResult:
    """Outcome of one subproblem solve.

    ``gap_upper_bound`` is the certified bound ||grad|| * diameter_bound on
    the suboptimality of ``minimizer``; ``converged`` says whether the stop
    test held there; ``update`` is the oracle's update at ``minimizer`` (for
    ``auglag.*_objective``, the multiplier step (x, w+, ||w+ - w||)).
    """

    minimizer: np.ndarray
    gap_upper_bound: float
    grad_norm: float
    iterations: int
    converged: bool
    value: float
    update: object = None


def _norm(v):
    return math.sqrt(np.vdot(v, v))


def minimize_auglag(oracle, start, tol, max_iter=10000, diameter_bound=None, accept=None):
    """Minimize a smooth convex objective until the stop test holds.

    ``oracle(point) -> (value, gradient, solve, update)`` with gradient shaped
    like the point (works for vectors and symmetric matrices alike);
    ``solve`` maps ``g -> d`` with a positive definite (regularized
    generalized) Hessian at the point; it and ``update()`` run only when
    needed, the solve at most once per accepted point. Each step halves the
    trial step from t = 1 until the Armijo test (constant 1e-4) holds, at
    most 60 times. A solve whose g.d is not positive and finite ends the
    solve with no step taken. The stop test holds at an iterate whose
    certified gap is <= tol and, if ``accept`` is given, of whose result
    ``accept(result)`` is true. Every other exit in the module docstring
    returns the iterate of least gradient norm with converged=False.
    ``iterations`` counts accepted moves.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if diameter_bound is None or not 0 < diameter_bound < np.inf:
        raise ValueError("diameter_bound must be positive and finite")
    x = np.array(start, dtype=float)
    fx, g, solve, update = oracle(x)
    if not math.isfinite(fx) or not np.isfinite(g).all():
        raise InnerSolveError(f"objective returned non-finite values at the start point "
                              f"(value={fx!r})")
    # iterates are rebound, never written in place, so best holds x uncopied
    best = (_norm(g), x, fx, update)
    f_ref = fx
    since_descent = 0
    it = 0

    def result_at(point, converged):
        gn, x, fx, update = point
        return InnerResult(minimizer=x, gap_upper_bound=gn * diameter_bound, grad_norm=gn,
                           iterations=it, converged=converged, value=fx, update=update())

    while True:
        gn = _norm(g)
        if gn < best[0]:
            best = (gn, x, fx, update)
        if gn * diameter_bound <= tol:
            result = result_at((gn, x, fx, update), True)
            if accept is None or accept(result):
                return result
        # Certificate floor: with ||g|| D within the value's resolution, the
        # convexity bound leaves no descent that the value could resolve
        if gn * diameter_bound <= 1e-14 * (1.0 + abs(fx)) or it >= max_iter:
            break
        # Value-resolution floor: two Newton steps past the last resolvable
        # descent take ||g|| to its rounding floor, so a third iteration
        # without one ends the solve (see the module docstring).
        if f_ref - fx > 1e-14 * (1.0 + abs(f_ref)):
            f_ref = fx
            since_descent = 0
        else:
            since_descent += 1
            if since_descent > 2:
                break
        d = solve(g)
        gd = float(np.vdot(g, d))
        if not (gd > 0 and math.isfinite(gd)):
            # no descent direction: the search cannot move x
            break
        f_cap = fx + 1e-14 * (1.0 + abs(fx))
        t, backtracks = 1.0, 0
        while True:
            x_new = x - t * d
            f_new, g_new, solve_new, update_new = oracle(x_new)
            finite = math.isfinite(f_new)
            # value floor: a step that moves the value by less than its
            # rounding is accepted when it cuts ||g||
            floor_move = finite and f_new <= f_cap and _norm(g_new) <= (1.0 - 1e-4) * gn
            if (finite and f_new <= fx - 1e-4 * t * gd) or floor_move or backtracks == 60:
                break
            t *= 0.5
            backtracks += 1
        if not finite or not np.isfinite(g_new).all():
            raise InnerSolveError(f"objective returned non-finite values at iteration {it} "
                                  f"(value={f_new!r})")
        if (f_new > fx and not floor_move) or x_new.tobytes() == x.tobytes():
            # The search cannot move x: no descent, or x - t*d rounds to x.
            break
        x, fx, g, solve, update = x_new, f_new, g_new, solve_new, update_new
        it += 1
    # every exit leaves the loop with gn = ||g|| of the current iterate
    return result_at(best if best[0] < gn else (gn, x, fx, update), False)


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
