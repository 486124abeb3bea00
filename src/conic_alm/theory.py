"""Numerical verifiers for the structural properties behind the solver.

Each verifier samples a region around a certified solution and checks an
inequality that is supposed to hold there: quadratic growth and error bounds
of the primal and dual problems (with either the cone indicator or the
eigenvalue exact penalty in the objective), the growth inequality of the
penalty/indicator pair with its explicit constant, the preimage identity tying
the penalty subdifferential to a face of the cone, the block trace bound, the
rank-sum strict complementarity test, and the equivalence of the penalized
and cone-constrained problems above the trace threshold.

Verifiers report counts and extremal ratios instead of asserting; tests and
the command line decide what counts as failure. All sampling is seeded and
needs an integer samples >= 1 (and probes, in the preimage check). The
quadratic growth and error bound verifiers perturb the solution by noise of
scale ball_radius / 3 (the error bound verifier rescales it so that its
root-mean-square norm is 3/4 of ball_radius at every dimension), keep the
points within ball_radius > 0 of it, and give up with a ValueError after 100
draws per requested sample, or after 2000 draws when none has landed.

The samplers evaluate blocks of at most 256 points (of probes, for the
preimage check) with the stacked kernels of :mod:`symcone` and
:mod:`model`. The ball samplers and the growth lemma draw a block's noise
in one normal draw. The trace bound draws every point's size in one call
and every split in a second, then walks the sizes in increasing order,
drawing each size's matrices in chunks of at most 256 points with one
normal draw per chunk and running its algebra once per split of a chunk.
The preimage check draws all face points' factors in one call, then their
probes in point order; off the face it draws as many points as are still
needed, keeps those at distance above 0.1 from the face until it has
enough, and then draws their probes in point order. A block draws no point
past the one where a loop over single points would stop, and the stacked
kernels round as a loop over their matrices does, so every report is
identical bit for bit to that of a loop over single points that draws in
the same order (the tests keep those loops as references).
"""

from dataclasses import dataclass

import numpy as np

from .model import apply_A, apply_Astar, inner as _inner
from .symcone import (check_symmetric, dist_psd, dist_to_face, exact_penalty,
                      face_basis, frob, project_psd, rowdot, signed_ranks, symmetrize)

# Most points a sampler draws and evaluates in one block; the cap bounds the
# memory of a block's stacks.
BLOCK = 256


@dataclass(frozen=True)
class GrowthReport:
    """Outcome of a sampled growth/error-bound check.

    ``min_ratio`` is the smallest (left-hand side) / (squared distance)
    over points with squared distance above 1e-12; it is the empirical growth
    constant. ``violated`` lists sample indices whose left-hand side came out
    negative beyond rounding, or NaN, which a valid inequality never produces.
    """

    sampled_points: int
    min_ratio: float
    violated: tuple
    params: dict


def _default_gamma(inst):
    return 2.0 * (1.0 + float(np.linalg.norm(inst.y_star)) + frob(inst.x_star))


def _solve(G, rhs):
    """G^-1 rhs for rhs of shape (..., m): one LAPACK solve per row."""
    return np.linalg.solve(G, rhs[..., None])[..., 0]


def _project_affine(p, X):
    """Least-squares correction of X onto the primal affine set A(X) = b."""
    return symmetrize(X - apply_Astar(p, _solve(p.operator.gram, apply_A(p, X) - p.b)))


def _sym_noise(rng, n, sigma, count):
    """count symmetric n x n noise matrices of entry scale sigma, drawn as
    count successive (n, n) normal draws would be."""
    return symmetrize(rng.standard_normal((count, n, n))) * sigma


def _squares(norms):
    """norm ** 2 of each entry as Python's float power takes it; C pow(x, 2)
    need not round as x * x does, and the reports keep pow's bits."""
    return np.array([v ** 2 for v in norms.tolist()])


def _norms(v):
    """Euclidean norm of each row, as np.linalg.norm takes it."""
    return np.sqrt(rowdot(v, v))


def _ratio_report(lhs_list, dist2_list, params, violated=None):
    lhs = np.asarray(lhs_list)
    dist2 = np.asarray(dist2_list)
    if violated is None:  # a left-hand side negative beyond rounding, or NaN
        violated = lambda lhs, dist2: ~(lhs >= -1e-10 * (1.0 + np.abs(lhs) + dist2))
    mask = dist2 > 1e-12
    ratios = lhs[mask] / dist2[mask]
    min_ratio = float(ratios.min()) if ratios.size else float("inf")
    return GrowthReport(sampled_points=int(lhs.size), min_ratio=min_ratio,
                        violated=tuple(int(i) for i in np.nonzero(violated(lhs, dist2))[0]),
                        params=params)


def _check_samples(samples, name="samples"):
    """Raise, naming ``name``, unless ``samples`` is an integer >= 1; a bool
    is not taken for one."""
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError(f"{name} must be at least 1, got {samples}")


def _check_finite(**params):
    for name, value in params.items():
        if value is not None and not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _check_above_trace(name, rho, mat, mat_name):
    """The exact-penalty threshold tr(mat); raises unless the penalty ``rho``
    (the caller's parameter ``name``) is finite and, strictly, above it."""
    _check_finite(**{name: rho})
    threshold = float(np.trace(mat))
    if rho is None or not rho > threshold:
        raise ValueError(f"need {name} > tr({mat_name}) = {threshold:.6g}, got {rho}")
    return threshold


def _blocks(samples):
    """Sizes of the blocks that cover ``samples`` points."""
    return [min(BLOCK, samples - start) for start in range(0, samples, BLOCK)]


def _ball_report(samples, ball_radius, seed, draw, lhs_of, params):
    """Ball sampler (contract in the module docstring).

    ``draw(rng, sigma, count)`` gives a block of count points (an array with
    a leading axis of length count, or a tuple of them) and their squared
    distances to the solution; ``lhs_of(points)`` gives the lhs of each. A
    block holds min(samples - kept, BLOCK, draws left) points, where the
    draws left run to the 100-per-sample cap, or to the 2000th draw while
    none has landed, so no block draws past the point where a loop over
    single draws stops.
    """
    _check_samples(samples)
    if not ball_radius > 0:
        raise ValueError(f"ball_radius must be positive, got {ball_radius}")
    rng = np.random.default_rng(seed)
    lhs, dist2 = [], []
    kept = drawn = 0
    while kept < samples:
        # until one lands, the ball may be out of reach: give up at 2000
        cap = 100 * samples if kept else min(100 * samples, 2000)
        if drawn == cap:
            raise ValueError(f"only {kept} of {drawn} draws landed within ball_radius "
                             f"{ball_radius:g} of the solution; {samples} needed")
        count = min(samples - kept, BLOCK, cap - drawn)
        points, d2 = draw(rng, ball_radius / 3.0, count)
        drawn += count
        landed = np.sqrt(d2) <= ball_radius
        if landed.any():
            points = (tuple(a[landed] for a in points) if isinstance(points, tuple)
                      else points[landed])
            lhs.append(lhs_of(points))
            dist2.append(d2[landed])
            kept += int(np.count_nonzero(landed))
    return _ratio_report(np.concatenate(lhs), np.concatenate(dist2), params)


def verify_qg_primal(inst, gamma=None, ball_radius=1.0, samples=2000,
                     use_penalty=False, rho=None, seed=0):
    """Sampled quadratic growth of the primal objective around x_star.

    Checks f(X) - p* + gamma ||A(X) - b|| >= kappa dist(X, solution)^2 on
    perturbations of x_star corrected back onto the affine set. With the
    indicator objective the samples are additionally projected onto the PSD
    cone (the inequality is vacuous off the cone); with ``use_penalty`` the
    objective gains rho * max(0, lambda_max(-X)) and rho must exceed
    tr(z_star); a rho without ``use_penalty`` is rejected.
    """
    p = inst.problem
    if not inst.primal_unique:
        raise ValueError("growth checks need an instance with a unique primal "
                         "solution (distance to the solution set is measured "
                         "against x_star)")
    _check_finite(gamma=gamma)
    if gamma is None:
        gamma = _default_gamma(inst)
    if use_penalty:
        _check_above_trace("rho", rho, inst.z_star, "z_star")
    elif rho is not None:
        raise ValueError(f"rho = {rho!r} is used only with use_penalty=True")

    def draw(rng, sigma, count):
        X = inst.x_star + _sym_noise(rng, p.n, sigma, count)
        X = _project_affine(p, X)
        if not use_penalty:
            X = project_psd(X)
        return X, _squares(frob(X - inst.x_star))

    def lhs_of(X):
        value = _inner(p.C, X)
        if use_penalty:
            value = value + exact_penalty(X, rho)
        return value - inst.p_star + gamma * _norms(apply_A(p, X) - p.b)

    return _ball_report(samples, ball_radius, seed, draw, lhs_of,
                        dict(gamma=gamma, ball_radius=ball_radius,
                             use_penalty=use_penalty, rho=rho, seed=seed))


def verify_eb_primal(inst, gamma=None, alpha=None, ball_radius=1.0, samples=2000,
                     seed=0):
    """Sampled three-term error bound of the primal problem around x_star.

    Checks <C, X> - p* + gamma ||A(X) - b|| + alpha dist(X, PSD) >= kappa
    dist(X, solution)^2 on unconstrained perturbations (no projections).
    """
    p = inst.problem
    if not inst.primal_unique:
        raise ValueError("growth checks need an instance with a unique primal "
                         "solution")
    _check_finite(gamma=gamma, alpha=alpha)
    if gamma is None:
        gamma = _default_gamma(inst)
    if alpha is None:
        alpha = _default_gamma(inst)
    # Noise of entry scale sigma has E ||noise||_F^2 = sigma^2 n (n + 1) / 2;
    # rescaled, its root-mean-square norm is 3/4 of ball_radius at every n
    # (at scale sigma almost no draw lands in the ball from n = 8 on).
    scale = 2.25 / np.sqrt(p.n * (p.n + 1) / 2.0)

    def draw(rng, sigma, count):
        X = inst.x_star + _sym_noise(rng, p.n, scale * sigma, count)
        return X, _squares(frob(X - inst.x_star))

    def lhs_of(X):
        return (_inner(p.C, X) - inst.p_star
                + gamma * _norms(apply_A(p, X) - p.b)
                + alpha * dist_psd(X))

    return _ball_report(samples, ball_radius, seed, draw, lhs_of,
                        dict(gamma=gamma, alpha=alpha, ball_radius=ball_radius,
                             seed=seed))


def verify_qg_dual(inst, gamma=None, ball_radius=1.0, samples=2000,
                   use_penalty=False, rho=None, seed=0, y_grid=None):
    """Sampled quadratic growth of the dual objective around (y_star, z_star).

    Mirror of :func:`verify_qg_primal`: checks -<b, y> + h(Z) + d* +
    gamma ||C - A*(y) - Z|| >= kappa dist((y, Z), solution)^2 on
    perturbations corrected onto the dual affine set, with Z projected onto
    the cone in the indicator variant. ``use_penalty`` takes h(Z) =
    rho max(0, lambda_max(-Z)) and requires rho > tr(x_star); a rho without
    it is rejected.

    With ``y_grid`` the check runs on the affine slice Z = C - A*(y) over the
    given grid of y values (outer product of the grid with itself for m = 2);
    on the slice the pair is determined by y, so the distance is measured in
    y alone. This is the regime of the penalized-dual growth plot for the
    2x2 toy instance.
    """
    p = inst.problem
    if not inst.dual_unique:
        raise ValueError("dual growth checks need an instance with a unique "
                         "dual solution")
    _check_finite(gamma=gamma)
    if gamma is None:
        gamma = 2.0 * (1.0 + float(np.linalg.norm(inst.y_star)) + frob(inst.z_star))
    if use_penalty:
        _check_above_trace("rho", rho, inst.x_star, "x_star")
    elif rho is not None:
        raise ValueError(f"rho = {rho!r} is used only with use_penalty=True")

    def dual_value(y, Z):
        value = -rowdot(p.b, y)
        if use_penalty:
            value = value + exact_penalty(Z, rho)
        return value

    if y_grid is not None:
        if p.m != 2:
            raise ValueError("y_grid sampling needs a problem with m = 2")
        grid = np.asarray(y_grid, dtype=float)
        y = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
        Z = symmetrize(p.C - apply_Astar(p, y))
        if not use_penalty:  # a NaN distance keeps its point
            keep = ~(dist_psd(Z) > 1e-9 * (1.0 + frob(Z)))
            y, Z = y[keep], Z[keep]
        return _ratio_report(dual_value(y, Z) + inst.p_star,
                             np.sum((y - inst.y_star) ** 2, axis=-1),
                             dict(gamma=gamma, use_penalty=use_penalty, rho=rho,
                                  grid_points=len(y_grid)))

    lhs_mat = np.eye(p.m) + p.operator.gram

    def draw(rng, sigma, count):
        # a point draws its m entries of y, then the n^2 of Z
        noise = rng.standard_normal((count, p.m + p.n * p.n))
        y = inst.y_star + noise[:, :p.m] * sigma
        Z = inst.z_star + symmetrize(noise[:, p.m:].reshape(count, p.n, p.n)) * sigma
        # least-squares correction onto the dual affine set Z = C - A*(y)
        y = _solve(lhs_mat, y + apply_A(p, p.C - Z))
        Z = symmetrize(p.C - apply_Astar(p, y))
        if not use_penalty:
            Z = project_psd(Z)
        return (y, Z), (np.sum((y - inst.y_star) ** 2, axis=-1)
                        + _squares(frob(Z - inst.z_star)))

    def lhs_of(point):
        y, Z = point
        return dual_value(y, Z) + inst.p_star + gamma * frob(p.C - apply_Astar(p, y) - Z)

    return _ball_report(samples, ball_radius, seed, draw, lhs_of,
                        dict(gamma=gamma, ball_radius=ball_radius,
                             use_penalty=use_penalty, rho=rho, seed=seed))


@dataclass(frozen=True)
class CurveRow:
    """One point of the no-sharp-growth curve of the 2x2 toy instance."""

    y1: float
    penalty_value: float
    closed_form: float
    dist_lower_bound: float
    ratio_upper_bound: float


def no_sharp_growth_curve(t_grid, rho=4.0):
    """Evaluate the toy instance's penalized dual along y2 = y1 / (y1 - 1).

    Along that curve the penalty term vanishes, the objective equals
    -y1^2 / (y1 - 1) in closed form, and the ratio (f - f*) / dist(y, S)
    tends to 0 as y1 -> 0, ruling out sharp (first-order) growth. Points must
    lie in [0, 1).
    """
    from .fixtures import toy_rank1_instance

    _check_finite(rho=rho)
    inst = toy_rank1_instance()
    p = inst.problem
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        if not 0.0 <= t < 1.0:
            raise ValueError(f"curve parameter {t} outside [0, 1)")
        y = np.array([t, t / (t - 1.0)]) if t > 0 else np.array([0.0, 0.0])
        value = -float(p.b @ y) + exact_penalty(symmetrize(p.C - apply_Astar(p, y)), rho)
        closed = -t * t / (t - 1.0) if t > 0 else 0.0
        dist_lb = abs(t / (t - 1.0)) if t > 0 else 0.0
        ratio = value / dist_lb if dist_lb > 0 else 0.0
        rows.append(CurveRow(y1=float(t), penalty_value=value, closed_form=closed,
                             dist_lower_bound=dist_lb, ratio_upper_bound=ratio))
    return rows


@dataclass(frozen=True)
class PreimageReport:
    """Counts from the two-sided penalty-subdifferential preimage check."""

    face_points: int
    face_failures: int
    off_face_points: int
    off_face_detected: int

    @property
    def ok(self):
        return self.face_failures == 0 and self.off_face_detected == self.off_face_points


def verify_penalty_preimage(zbar, rho, samples=50, probes=100, seed=0):
    """Sampled check that the penalty preimage of -zbar is the face of zbar.

    For X on the face {p2 B p2' : B PSD}, -zbar must satisfy the subgradient
    inequality l(Y) >= l(X) + <-zbar, Y - X> - 1e-8 at every probe Y; for
    PSD X off the face (distance > 0.1) some probe must violate it. Probes
    combine random directions with the face projection of X, which witnesses
    the violation whenever <zbar, X> > 0. Requires tr(zbar) < rho.
    """
    zbar = check_symmetric(zbar, name="zbar")
    _check_above_trace("rho", rho, zbar, "zbar")
    _check_samples(samples)
    _check_samples(probes, "probes")
    n = zbar.shape[0]
    face = face_basis(zbar)
    rng = np.random.default_rng(seed)
    p2 = face.p2
    k = p2.shape[1]

    def l(M):
        return exact_penalty(M, rho) if rho > 0 else np.zeros(M.shape[:-2])

    def failures(X):
        """Count of the points X (a stack) at which some probe breaks the
        subgradient inequality. The random probes are drawn in point order
        and checked at most BLOCK at a time, all of them whatever the outcome;
        a point's fixed probes join the stack that holds its last one."""
        lX = l(X)
        fixed = [np.zeros_like(X)]
        if k:
            fixed.append(symmetrize(p2 @ project_psd(symmetrize(p2.T @ X @ p2)) @ p2.T))
        fixed = np.stack(fixed, axis=1)
        failed = np.zeros(len(X), dtype=bool)
        total = len(X) * probes
        for start in range(0, total, BLOCK):
            j = np.arange(start, min(start + BLOCK, total))
            owner = j // probes
            ending = owner[(j + 1) % probes == 0]
            Y = np.concatenate([X[owner] + _sym_noise(rng, n, 1.0, owner.size),
                                fixed[ending].reshape(-1, n, n)])
            base = np.concatenate([owner, np.repeat(ending, fixed.shape[1])])
            ok = l(Y) >= lX[base] + _inner(-zbar, Y - X[base]) - 1e-8
            failed[base[~ok]] = True
        return int(np.count_nonzero(failed))

    if k:
        R = rng.standard_normal((samples, k, k))
        X = symmetrize(p2 @ (R @ R.swapaxes(-1, -2)) @ p2.T)
    else:
        X = np.zeros((samples, n, n))
    face_failures = failures(X)

    off_points = off_detected = 0
    if face.p1.shape[1]:
        off = []
        while off_points < samples:
            R = rng.standard_normal((samples - off_points, n, n))
            X = symmetrize(R @ R.swapaxes(-1, -2))
            off.append(X[dist_to_face(X, face) > 0.1])
            off_points += len(off[-1])
        off_detected = failures(np.concatenate(off))
    return PreimageReport(face_points=samples, face_failures=face_failures,
                          off_face_points=off_points, off_face_detected=off_detected)


def verify_growth_lemma(xbar, zbar, mu, samples=10000, seed=0, penalty_rho=None):
    """Growth against squared face distance with the explicit proof constant.

    For complementary PSD xbar, zbar checks <zbar, X> >= kappa *
    dist(X, face(zbar))^2 over PSD samples in the ball of radius mu around
    xbar, with the explicit constant kappa = lambda_min(positive spectrum of
    zbar) / (3 mu + 2 ||xbar||).

    With ``penalty_rho`` (> tr(zbar)) the penalty-function variant is checked
    instead, on unprojected samples in the ball:

        rho max(0, lambda_max(-X)) >= <-zbar, X> + kappa_p dist(X, face)^2

    with the explicit constant kappa_p = rho / (n mu) when zbar = 0, else
    kappa_p = min((rho - tr(zbar)) / (2 n mu), kappa / 2).
    """
    xbar = check_symmetric(xbar, name="xbar")
    zbar = check_symmetric(zbar, name="zbar")
    scale = 1.0 + frob(xbar) * frob(zbar)
    if dist_psd(xbar) > 1e-9 * scale or dist_psd(zbar) > 1e-9 * scale:
        raise ValueError("xbar and zbar must be positive semidefinite")
    if abs(_inner(xbar, zbar)) > 1e-10 * scale:
        raise ValueError("xbar and zbar must be complementary (<xbar, zbar> = 0)")
    _check_finite(mu=mu)
    if not mu > 0:
        raise ValueError("mu must be positive")
    _check_samples(samples)
    n = xbar.shape[0]
    face = face_basis(zbar)
    kappa = face.lambda1_min / (3.0 * mu + 2.0 * frob(xbar))
    if penalty_rho is not None:
        threshold = _check_above_trace("penalty_rho", penalty_rho, zbar, "zbar")
        if face.rank == 0:
            kappa_used = penalty_rho / (n * mu)
        else:
            delta = penalty_rho - threshold
            kappa_used = min(delta / (2.0 * n * mu), kappa / 2.0)
    else:
        kappa_used = kappa
    # Not _ball_report, which would redraw the rescaled draws that the
    # rounding of dist_to_face puts an ulp outside the ball (zbar of full rank)
    rng = np.random.default_rng(seed)
    tol = 1e-10 * scale * (1.0 + mu) ** 2
    lhs_list, dist2_list = [], []
    for count in _blocks(samples):
        X = xbar + _sym_noise(rng, n, mu / 3.0, count)
        radius = frob(X - xbar)
        out = radius > mu
        X[out] = xbar + (X[out] - xbar) * (mu / radius[out])[:, None, None]
        if penalty_rho is None:
            # projecting onto the cone keeps X in the ball (xbar is PSD)
            X = project_psd(X)
            lhs_list.append(_inner(zbar, X))
        else:
            lhs_list.append(exact_penalty(X, penalty_rho) + _inner(zbar, X))
        dist2_list.append(_squares(dist_to_face(X, face)))
    return _ratio_report(np.concatenate(lhs_list), np.concatenate(dist2_list),
                         dict(kappa=kappa_used, mu=mu, seed=seed, penalty_rho=penalty_rho),
                         violated=lambda lhs, dist2: ~(lhs + tol >= kappa_used * dist2))


def check_trace_bound(samples=10000, n_range=(2, 8), seed=0):
    """Random-split check of ||D||_op tr(A) >= ||B||^2 for PSD blocks.

    Draws PSD matrices M = R R', splits them as [[A, B], [B', D]] at a random
    position, and counts violations beyond 1e-10 (1 + ||M||^2). Sizes are
    drawn from the integers lo <= n <= hi of ``n_range`` (2 <= lo).
    ``min_ratio`` is the smallest ||D||_op tr(A) / ||B||^2 sampled, which the
    bound puts at 1 or above.
    """
    _check_samples(samples)
    lo, hi = n_range
    if not (all(isinstance(v, (int, np.integer)) for v in (lo, hi)) and 2 <= lo <= hi):
        raise ValueError(f"n_range must be integers 2 <= lo <= hi, got {n_range}")
    rng = np.random.default_rng(seed)
    sizes = rng.integers(lo, hi + 1, size=samples)
    splits = rng.integers(1, sizes)
    lhs, rhs, slack = np.empty(samples), np.empty(samples), np.empty(samples)
    # the values present, in increasing order, are the nonzero bins of a
    # bincount (np.unique imports numpy.ma on its first call, which takes
    # longer than this whole check at 2000 samples)
    for n in np.flatnonzero(np.bincount(sizes)).tolist():
        points = np.flatnonzero(sizes == n)
        for start in range(0, points.size, BLOCK):
            chunk = points[start:start + BLOCK]
            R = rng.standard_normal((chunk.size, n, n))
            M = symmetrize(R @ R.swapaxes(-1, -2))
            slack[chunk] = 1e-10 * (1.0 + _squares(frob(M)))
            at = splits[chunk]
            for s in np.flatnonzero(np.bincount(at)).tolist():
                group = at == s
                G = M[group]  # M is symmetric, and so is each D
                A, B, D = G[:, :s, :s], G[:, :s, s:], G[:, s:, s:]
                lhs[chunk[group]] = (np.linalg.eigvalsh(D)[:, -1]
                                     * np.trace(A, axis1=1, axis2=2))
                rhs[chunk[group]] = np.sum((B * B).reshape(len(G), -1), axis=-1)
    return _ratio_report(lhs, rhs, dict(n_range=n_range, seed=seed),
                         violated=lambda lhs, rhs: lhs < rhs - slack)


@dataclass(frozen=True)
class ComplementarityReport:
    rank_x: int
    rank_z: int
    n: int

    @property
    def holds(self):
        return self.rank_x + self.rank_z == self.n


def check_strict_complementarity(x, z):
    """Rank-sum strict complementarity test for a complementary PSD pair.

    PSD membership and <x, z> = 0 are judged at a relative 1e-8. The ranks
    are the counts of :func:`~conic_alm.symcone.signed_ranks` on the joint
    spectrum of x - z, so both are cut at the same scale, max|lambda(x - z)|,
    by the rule ``solution_uniqueness`` applies to a certified pair.
    """
    tol = 1e-8
    x = check_symmetric(x, name="x")
    z = check_symmetric(z, name="z")
    scale = 1.0 + frob(x) + frob(z)
    if dist_psd(x) > tol * scale or dist_psd(z) > tol * scale:
        raise ValueError("x and z must be PSD within tolerance")
    if abs(_inner(x, z)) > tol * scale:
        raise ValueError("x and z must satisfy <x, z> = 0 within tolerance")
    rank_x, rank_z = signed_ranks(np.linalg.eigvalsh(x - z))
    return ComplementarityReport(rank_x=rank_x, rank_z=rank_z, n=x.shape[0])


def _project_capped_simplex(v, beta):
    """Projection onto {g >= 0, sum(g) <= beta}."""
    w = np.maximum(v, 0.0)
    if w.sum() <= beta:
        return w
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - beta
    ks = np.arange(1, v.size + 1)
    cond = u - css / ks > 0
    k = int(np.nonzero(cond)[0][-1]) + 1
    theta = css[k - 1] / k
    return np.maximum(v - theta, 0.0)


def _prox_spectral_penalty(V, rho):
    """Proximal map of rho * max(0, lambda_max(-.)) via eigenvalues.

    The prox is unique and the simplex projection sorts its input, so the
    raw LAPACK decomposition serves: no eigenvalue order, eigenvector sign
    or basis of a repeated eigenvalue changes the result beyond rounding.
    """
    lam, Q = np.linalg.eigh(V)
    lam = lam + _project_capped_simplex(-lam, rho)
    return symmetrize((Q * lam) @ Q.T)


def minimize_penalized_affine(p, rho, stop_below=None):
    """Minimize <C, X> + rho max(0, lambda_max(-X)) over the affine set A(X) = b.

    Douglas-Rachford splitting (unit step) between the linear-plus-affine-
    indicator part (prox: shifted affine projection) and the spectral penalty
    (prox: capped simplex shift of the eigenvalues). Both proximal maps are
    exact, so the nonsmooth penalty needs no smoothing. Stops at a splitting
    gap of 1e-12 (1 + ||X||) or after 50000 iterations. ``stop_below``
    aborts early once the value sinks under it (the under-penalized problem
    can be unbounded, and detecting the drop is all a negative control
    needs). Returns (minimizer, value).
    """
    s = _project_affine(p, np.zeros((p.n, p.n)))
    x = s
    for it in range(50000):
        x = _project_affine(p, s - p.C)
        z = _prox_spectral_penalty(symmetrize(2.0 * x - s), rho)
        gap = frob(z - x)
        s = symmetrize(s + z - x)
        if gap <= 1e-12 * (1.0 + frob(x)):
            break
        if stop_below is not None and it % 50 == 0:
            if _inner(p.C, x) + exact_penalty(x, rho) < stop_below:
                break
    x = _project_affine(p, s - p.C)
    value = _inner(p.C, x) + exact_penalty(x, rho)
    return x, value


@dataclass(frozen=True)
class EquivalenceReport:
    """Penalized-problem minimizer versus the certified solution.

    ``dist_to_solution``/``value_gap`` refer to the valid penalty (rho above
    the trace threshold); the ``subthreshold_*`` fields record what happened
    with rho cut below the threshold, where the penalized problem must be
    detectably different (value strictly below the optimum or minimizer off
    the solution set).
    """

    rho: float
    dist_to_solution: float
    value_gap: float
    subthreshold_rho: float | None
    subthreshold_dist: float | None
    subthreshold_value_gap: float | None

    @property
    def equivalent(self):
        return self.dist_to_solution <= 1e-5 and abs(self.value_gap) <= 1e-7

    @property
    def subthreshold_detected(self):
        if self.subthreshold_rho is None:
            return None
        return (self.subthreshold_value_gap < -1e-6
                or self.subthreshold_dist > 1e-3)


def exact_penalty_equivalence(inst, rho):
    """Verify the penalized problem reproduces the solution iff rho is large.

    With rho > tr(z_star) the affine-constrained penalized minimizer must
    coincide with x_star and its value with p_star; with rho halved below the
    threshold the minimum must drop below p_star or move away, which is the
    detectable failure mode of an under-sized penalty.
    """
    threshold = _check_above_trace("rho", rho, inst.z_star, "z_star")
    if not inst.primal_unique:
        raise ValueError("the equivalence check compares the penalized "
                         "minimizer against x_star and needs a unique primal "
                         "solution")
    p = inst.problem
    x_hat, value = minimize_penalized_affine(p, rho)
    dist = frob(x_hat - inst.x_star)
    gap = value - inst.p_star
    sub_rho = sub_dist = sub_gap = None
    if threshold > 0:
        sub_rho = threshold / 2.0
        floor = inst.p_star - 0.01 * (1.0 + abs(inst.p_star))
        x_sub, v_sub = minimize_penalized_affine(p, sub_rho, stop_below=floor)
        sub_dist = frob(x_sub - inst.x_star)
        sub_gap = v_sub - inst.p_star
    return EquivalenceReport(rho=rho, dist_to_solution=dist, value_gap=gap,
                             subthreshold_rho=sub_rho, subthreshold_dist=sub_dist,
                             subthreshold_value_gap=sub_gap)
