"""Correctness checks computed with numpy from the raw problem data.

None of these call the library's residual or rate code: a change to
``model.kkt_residuals``, ``alm.pre_floor_window`` or ``alm.fit_linear_rate``
cannot make a wrong answer pass.
"""

import numpy as np


def _lam_min(M):
    return float(np.linalg.eigvalsh((M + M.T) / 2.0)[0])


def _dist_psd(M):
    lam = np.linalg.eigvalsh((M + M.T) / 2.0)
    return float(np.sqrt(np.sum(np.minimum(lam, 0.0) ** 2)))


def sdp_eps3(C, mats, b, X, y, Z, d_star):
    """Relative KKT residual eps3 = max(eta1..eta5) of (X, y, Z)."""
    AX = np.einsum("kij,ij->k", mats, X)
    Aty = np.einsum("k,kij->ij", y, mats)
    by = float(b @ y)
    etas = (np.linalg.norm(AX - b) / (1.0 + np.linalg.norm(b)),
            _dist_psd(X) / (1.0 + np.linalg.norm(X)),
            np.linalg.norm(C - Aty - Z) / (1.0 + np.linalg.norm(C)),
            _dist_psd(Z) / (1.0 + np.linalg.norm(Z)),
            abs(float(np.sum(C * X)) - by) / (1.0 + abs(d_star)))
    return float(max(etas))


def maxcut_violation(C, X, y):
    """Worst relative violation of the max-cut optimality conditions.

    diag(X) = 1, X PSD, C - Diag(y) PSD, and a zero gap <C, X> - sum(y).
    """
    n = C.shape[0]
    S = C - np.diag(y)
    dual_scale = 1.0 + max(np.linalg.norm(C), np.linalg.norm(S))
    by = float(np.sum(y))
    return float(max(
        np.linalg.norm(np.diag(X) - 1.0) / (1.0 + np.sqrt(n)),
        max(0.0, -_lam_min(X)) / (1.0 + np.linalg.norm(X)),
        max(0.0, -_lam_min(S)) / dual_scale,
        abs(float(np.sum(C * X)) - by) / (1.0 + abs(by))))


def qp_violation(q, x, z):
    """Worst relative KKT residual of (x, z) for min 1/2 x'Qx + c'x s.t. Gx + h <= 0."""
    g = q.G @ x + q.h
    grad = q.Q @ x + q.c
    value = 0.5 * float(x @ q.Q @ x) + float(q.c @ x) + q.offset
    return float(max(
        np.linalg.norm(np.maximum(g, 0.0)) / (1.0 + np.linalg.norm(q.h)),
        np.linalg.norm(np.minimum(z, 0.0)) / (1.0 + np.linalg.norm(z)),
        np.linalg.norm(grad + q.G.T @ z) / (1.0 + np.linalg.norm(grad)),
        abs(float(z @ g)) / (1.0 + abs(value))))


def floor_window(series, scale):
    """Leading stretch of a distance series above its double-precision floor.

    Same cut as the acceptance suite's C3 gate: max(1e-9, 1e-7 (1 + scale)),
    raised to 3x the minimum when the series bottoms out below 1e-5.
    """
    s = np.asarray(series, dtype=float)
    cut = max(1e-9, 1e-7 * (1.0 + scale))
    if s.size and float(s.min()) < 1e-5:
        cut = max(cut, 3.0 * float(s.min()))
    below = np.nonzero(s <= cut)[0]
    return s if below.size == 0 else s[: int(below[0])]


def linear_rate(series):
    """Least-squares log-linear fit on the trailing half: (rate q, r^2)."""
    s = np.asarray(series, dtype=float)
    tail = s[int(np.floor(len(s) * 0.5)):]
    if tail.size < 3 or np.any(tail <= 0):
        return float("inf"), 0.0
    k = np.arange(tail.size, dtype=float)
    logs = np.log(tail)
    slope, intercept = np.polyfit(k, logs, 1)
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    ss_res = float(np.sum((logs - (slope * k + intercept)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(np.exp(slope)), r2


def series_rate(series, scale=0.0):
    """Fitted linear rate of a residual series above its floor."""
    return linear_rate(floor_window(series, scale))[0]


def solve_accuracy(inst, trace):
    """Final eps3 and dist_w and the eps3 rate of a run on a certified instance.

    The rate is fitted to the eps3 series, as on the max-cut and QP runs: on
    short runs the dist_w window ends one point earlier or later depending
    on rounding, which moves its fitted rate by 8 %.
    """
    (_, _, q_3, _), final = _certified_series(inst, trace)
    return {**final, "rate_q": q_3}


def certified_study(inst, trace):
    """C3 gates on one run: fitted rates q < 1 with r^2 >= 0.9 on dist_w and eps3.

    Returns (ok, detail) where detail holds the final eps3 and dist_w and
    the dist_w rate, all recomputed from the iterates against (x*, y*, z*).
    """
    (q_w, r2_w, q_3, r2_3), final = _certified_series(inst, trace)
    ok = q_w < 1.0 and r2_w >= 0.9 and q_3 < 1.0 and r2_3 >= 0.9
    return ok, {**final, "rate_q": q_w, "r2": min(r2_w, r2_3)}


def _certified_series(inst, trace):
    p = inst.problem
    C, mats, b = p.C, p.constraint_mats, p.b
    dist_w, eps3 = [], []
    for rec in trace.records:
        dy = rec.y - inst.y_star
        dZ = rec.Z - inst.z_star
        dist_w.append(float(np.sqrt(dy @ dy + np.sum(dZ * dZ))))
        eps3.append(sdp_eps3(C, mats, b, rec.X, rec.y, rec.Z, inst.p_star))
    scale = float(np.sqrt(inst.y_star @ inst.y_star + np.sum(inst.z_star ** 2)))
    q_w, r2_w = linear_rate(floor_window(dist_w, scale))
    q_3, r2_3 = linear_rate(floor_window(eps3, scale))
    return (q_w, r2_w, q_3, r2_3), {"eps3": eps3[-1], "dist_w": dist_w[-1]}
