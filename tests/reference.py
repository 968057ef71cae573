"""Earlier implementations kept as test references.

The package replaced each of these with a leaner one that must return the
same bits; the tests compare the two on seeded inputs.
"""

import functools
import itertools
import math
import operator
from typing import NamedTuple

import numpy as np

from snapslam import (
    SPEED_OF_LIGHT,
    DegenerateGeometry,
    Hypothesis,
    LandmarkEstimate,
    NoFeasibleSolution,
    NoiseModel,
    PathLossModel,
    PathMeasurement,
    SweepResult,
    TruePath,
    measurement_model,
    path_loss_mean,
    wrap_angle,
)
from snapslam import estimator, evaluation
from snapslam.estimator import CONDITION_LIMIT
from snapslam.geometry import TWO_PI, _dot2
from snapslam.sim import _EPS, _KIND_BY_BOUNCES

_C = SPEED_OF_LIGHT


def wrap_angle_numpy(angle):
    """``wrap_angle`` as a NumPy expression over scalars and arrays."""
    a = np.asarray(angle, dtype=float)
    inside = (a > -math.pi) & (a <= math.pi)
    wrapped = math.pi - np.mod(math.pi - a, TWO_PI)
    out = np.where(inside, a, wrapped)
    if out.ndim == 0:
        return float(out)
    return out


def landmark_jacobian(ue, bs, landmark):
    """Analytic 3x2 Jacobian of (toa, aod, aoa) w.r.t. the landmark, in arrays."""
    p = np.asarray(landmark, dtype=float)
    d1 = p - bs.position
    d2 = p - ue.position
    n1 = math.hypot(d1[0], d1[1])
    n2 = math.hypot(d2[0], d2[1])
    if n1 == 0.0 or n2 == 0.0:
        raise DegenerateGeometry("landmark coincides with an antenna")
    row_toa = (d1 / n1 + d2 / n2) / SPEED_OF_LIGHT
    row_aod = np.array([-d1[1], d1[0]]) / (n1 * n1)
    row_aoa = np.array([-d2[1], d2[0]]) / (n2 * n2)
    return np.vstack([row_toa, row_aod, row_aoa])


def landmark_refine(path, ue, bs, noise=NoiseModel(), source_path=-1):
    """Gauss-Newton landmark refinement over the general N-bounce model.

    Evaluates the residual through ``measurement_model`` and the Jacobian
    through a separate call, and re-evaluates the Jacobian at the returned
    point. The initializer is looked up on ``snapslam.estimator`` at call
    time, so a test that replaces it there replaces it for both versions.
    """
    max_iter, tol, stall = 50, 1e-9, 1e-8
    z = np.array([path.toa, path.aod, path.aoa])
    sig = noise.sigmas

    def whitened_residual(pt):
        t, a, o = measurement_model(ue, bs, pt)
        return np.array([z[0] - t,
                         wrap_angle_numpy(z[1] - a),
                         wrap_angle_numpy(z[2] - o)]) / sig

    def objective(pt):
        try:
            r = whitened_residual(pt)
        except DegenerateGeometry:
            return None, math.inf
        return r, float(r @ r)

    p = estimator._initial_landmark(path, ue, bs)
    r, cost = objective(p)
    if r is None:
        p = p + 1e-6
        r, cost = objective(p)
        if r is None:
            raise DegenerateGeometry("cannot evaluate the model near the initializer")
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        try:
            jac = landmark_jacobian(ue, bs, p) / sig[:, None]
        except DegenerateGeometry:
            break
        ata = jac.T @ jac
        atr = jac.T @ r
        try:
            step = np.linalg.solve(ata, atr)
        except np.linalg.LinAlgError:
            break
        if float(np.hypot(*step)) < tol:
            converged = True
            break
        scale = 1.0
        accepted = False
        for _ in range(9):
            cand = p + scale * step
            r_new, cost_new = objective(cand)
            if r_new is not None and cost_new <= cost:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            # at the optimum if the step predicts no decrease above rounding
            converged = float(np.sum((jac @ step) ** 2)) < stall * cost
            break
        p, r, cost = cand, r_new, cost_new
        if float(np.hypot(*(scale * step))) < tol:
            converged = True
            break

    try:
        jac = landmark_jacobian(ue, bs, p) / sig[:, None]
    except DegenerateGeometry as exc:
        raise DegenerateGeometry("Jacobian undefined at the optimum") from exc
    ata = jac.T @ jac
    sv = np.linalg.svd(ata, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] >= CONDITION_LIMIT:
        raise DegenerateGeometry("rank-deficient Jacobian at the optimum")
    cov = np.linalg.inv(ata)
    cov = 0.5 * (cov + cov.T)
    return LandmarkEstimate(position=p.copy(), covariance=cov,
                            source_path=source_path, converged=converged,
                            iterations=iterations)


class NearParallel(Exception):
    """Raised by ``bounce_fraction`` where the rays nearly cancel."""


def bounce_fraction(ue, path, bs):
    """The bounce fraction of ``geometry._bounce`` on NumPy 2-vectors, with
    its own near-parallel threshold 0.1: raises NearParallel at or below it,
    and DegenerateGeometry at a zero path length."""
    a = bs.orientation + path.aod
    b = ue.orientation + path.aoa
    u = np.array([math.cos(a), math.sin(a)])
    v = np.array([math.cos(b), math.sin(b)])
    nu = u + v
    s = float(nu[0] * nu[0] + nu[1] * nu[1])
    if s <= 0.1:
        raise NearParallel(f"||u + v||^2 = {s:.3g} <= {0.1:.3g}")
    d = SPEED_OF_LIGHT * (path.toa - ue.clock_bias)
    if d == 0.0:
        raise DegenerateGeometry("zero path length")
    r = (ue.position - bs.position) + d * v
    return float(nu[0] * r[0] + nu[1] * r[1]) / (d * s)


def initial_landmark(path, ue, bs):
    """The landmark initializer on NumPy 2-vectors: the midpoint of the two
    ray endpoints at the clamped bounce fraction."""
    try:
        gam = bounce_fraction(ue, path, bs)
        if not math.isfinite(gam):
            gam = 0.5
        elif not 0.0 <= gam <= 1.0:
            gam = min(max(gam, 0.05), 0.95)
    except (NearParallel, DegenerateGeometry):
        gam = 0.5
    a = bs.orientation + path.aod
    b = ue.orientation + path.aoa
    u = np.array([math.cos(a), math.sin(a)])
    v = np.array([math.cos(b), math.sin(b)])
    d = SPEED_OF_LIGHT * (path.toa - ue.clock_bias)
    anchor_side = bs.position + d * gam * u
    user_side = ue.position + d * (1.0 - gam) * v
    return 0.5 * (anchor_side + user_side)


# --- interleaved solver kernels ---------------------------------------------
#
# The solver's per-path terms were once interleaved, (M headings, n paths,
# component); they are now planar. These are the interleaved kernels, kept
# to check that the planar ones return the same bits. ``CONDITION_LIMIT``
# is looked up on ``snapslam.estimator`` at call time, as the package's
# kernel does.


class PathTerms(NamedTuple):
    """Interleaved per-(heading, path) terms: M headings by n paths.

    ``normal`` packs each path's normal-matrix block and right-hand side as
    (a00, a01, a02, a11, a12, a22, b0, b1, b2) on its last axis.
    """

    tau: np.ndarray       # (n,)
    eta: np.ndarray       # (n,)
    v: np.ndarray         # (M, n, 2)
    nu: np.ndarray        # (M, n, 2)
    nu_sq: np.ndarray     # (M, n)
    nubar: np.ndarray     # (M, n, 2)  zero rows where the projector is identity
    mu: np.ndarray        # (M, n, 2)
    normal: np.ndarray    # (M, n, 9)


def _dot2(x, y):
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1]


def build_terms(paths, bs, alphas, los_index=None):
    """Per-path solver terms for every heading in ``alphas``, interleaved."""
    alphas = np.asarray(alphas, dtype=float)
    tau = np.array([p.toa for p in paths])
    eta = np.array([p.gain for p in paths])
    aod = np.array([p.aod for p in paths])
    aoa = np.array([p.aoa for p in paths])

    dep = bs.orientation + aod
    u = np.stack([np.cos(dep), np.sin(dep)], axis=-1)
    arr = alphas[:, None] + aoa[None, :]
    v = np.stack([np.cos(arr), np.sin(arr)], axis=-1)

    nu = u[None, :, :] + v
    nu_sq = _dot2(nu, nu)
    identity_proj = nu_sq == 0.0
    if los_index is not None:
        identity_proj = identity_proj.copy()
        identity_proj[:, los_index] = True
    with np.errstate(divide="ignore", invalid="ignore"):
        nubar = np.where(identity_proj[..., None], 0.0,
                         nu / np.sqrt(nu_sq)[..., None])

    mu = bs.position[None, None, :] - (_C * tau)[None, :, None] * v

    w = v - nubar * _dot2(nubar, v)[..., None]
    g = mu - nubar * _dot2(nubar, mu)[..., None]
    normal = np.stack([1.0 - nubar[..., 0] * nubar[..., 0],
                       -nubar[..., 0] * nubar[..., 1],
                       -w[..., 0],
                       1.0 - nubar[..., 1] * nubar[..., 1],
                       -w[..., 1],
                       _dot2(v, w),
                       g[..., 0],
                       g[..., 1],
                       -_dot2(v, g)], axis=-1)
    normal *= np.ldexp(eta, -np.frexp(eta.max())[1])[None, :, None]
    return PathTerms(tau, eta, v, nu, nu_sq, nubar, mu, normal)


def _ldl_factors(s):
    """(l10, l20, l21, d1, d2) of the unpivoted LDL^T of packed systems
    ``s`` (..., 9); the first pivot is a00."""
    a00, a01, a02, a11, a12, a22 = np.moveaxis(s, -1, 0)[:6]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        l10 = a01 / a00
        l20 = a02 / a00
        d1 = a11 - l10 * a01
        l21 = (a12 - l20 * a01) / d1
        d2 = a22 - l20 * a02 - l21 * l21 * d1
    return l10, l20, l21, d1, d2


def condition_estimate(s):
    """The condition gate's estimate of packed systems ``s`` (..., 9):
    trace(A) trace(adj A) / (a00 d1 d2) where the LDL^T pivots and the
    estimate are positive, +inf elsewhere. A system passes the gate if and
    only if its estimate is below ``CONDITION_LIMIT``."""
    a00, a01, a02, a11, a12, a22 = np.moveaxis(s, -1, 0)[:6]
    _, _, _, d1, d2 = _ldl_factors(s)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        adj = (a11 * a22 - a12 * a12) + (a00 * a22 - a02 * a02) + (a00 * a11 - a01 * a01)
        cond = (a00 + a11 + a22) * adj / (a00 * d1 * d2)
    return np.where((a00 > 0.0) & (d1 > 0.0) & (d2 > 0.0) & (cond > 0.0), cond, np.inf)


def solve_packed(s):
    """Gate and solve packed systems, ``s`` (..., 9); returns x (..., 3), ok."""
    ok = condition_estimate(s) < estimator.CONDITION_LIMIT
    a00, b0, b1, b2 = np.moveaxis(s, -1, 0)[[0, 6, 7, 8]]
    l10, l20, l21, d1, d2 = _ldl_factors(s)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z1 = b1 - l10 * b0
        z2 = b2 - l20 * b0 - l21 * z1
        x2 = z2 / d2
        x1 = z1 / d1 - l21 * x2
        x0 = b0 / a00 - l10 * x1 - l20 * x2
    x = np.stack([x0, x1, x2], axis=-1)
    return np.where(ok[..., None], x, 0.0), ok


def residuals(terms, x):
    """Raw 2-D residuals, (..., M, n, 2) for x of shape (..., M, 3)."""
    return x[..., None, :2] - x[..., 2, None, None] * terms.v - terms.mu


def costs(terms, x, r=None):
    """Squared projected residual of every path at every row's state, (..., M, n)."""
    r = residuals(terms, x) if r is None else r
    pr = r - terms.nubar * _dot2(terms.nubar, r)[..., None]
    return _dot2(pr, pr)


def gammas(terms, x, r):
    """Bounce fraction of every path at every row's state, (..., M, n)."""
    d = _C * terms.tau - x[..., 2, None]
    num = _dot2(terms.nu, r)
    den = d * terms.nu_sq
    with np.errstate(divide="ignore", invalid="ignore"):
        gam = num / den
    return np.where(den == 0.0, np.inf, gam)


def feasibility_mask(terms, x, inlier, r):
    """Feasibility of each row's (state, inlier set), (..., M): every
    inlier has a non-negative bias-corrected path length c tau - x[2], and
    a bounce fraction in [0, 1] unless its rays nearly cancel
    (||u + v||^2 <= 0.1)."""
    d = _C * terms.tau - x[..., 2, None]
    gam = gammas(terms, x, r)
    in_range = (gam >= 0.0) & (gam <= 1.0)
    return np.all((d >= 0.0) & (in_range | (terms.nu_sq <= 0.1)) | ~inlier, axis=-1)


def path_order_sum(parts):
    """The sum of per-path terms listed in ascending path order, one path
    added after the other: ((p0 + p1) + p2) + ..."""
    return functools.reduce(operator.add, parts)


def row_costs(terms, x, ok, member, t_eps=None):
    """Gated cost of each row's state over its member set, (..., M)."""
    r = residuals(terms, x)
    weighted = member * terms.eta * costs(terms, x, r)
    cost = path_order_sum(weighted[..., i] for i in range(len(terms.eta)))
    valid = ok
    if t_eps is not None:
        outliers = (1.0 - member) * terms.eta
        cost = cost + path_order_sum(outliers[..., i] for i in range(len(terms.eta))) * t_eps
        valid = ok & feasibility_mask(terms, x, member, r)
    return np.where(valid & np.isfinite(cost), cost, np.inf)


def cell_costs(terms, rows, member, t_eps=None):
    """States (K, 3) and gated costs (K,) of cells at heading ``rows`` with
    member rows ``member``, each system the path-order sum of the members'
    rows of ``normal``."""
    taken = terms._replace(**{name: getattr(terms, name)[rows]
                              for name in ("v", "nu", "nu_sq", "nubar", "mu", "normal")})
    x, ok = solve_packed(path_order_sum(member[:, i, None] * taken.normal[:, i]
                                        for i in range(len(terms.eta))))
    return x, row_costs(taken, x, ok, member, t_eps)


def polish_heading(paths, bs, alpha, x, cost, inlier_row, config):
    """``robust._polish_heading`` one round per scan: 14 scans of 9 probes,
    each over every path with the frozen set's non-members weighted 0."""
    width = 2.0 * math.pi / 360
    member = np.broadcast_to(inlier_row, (9, len(paths)))
    best = (alpha, x, cost)
    center = alpha
    for _ in range(14):
        probes = center + np.linspace(-width, width, 9)
        xs, scan = cell_costs(build_terms(paths, bs, probes), np.arange(9), member, config.t_eps)
        k = int(np.argmin(scan))
        if np.isfinite(scan[k]) and scan[k] < best[2]:
            center = float(probes[k])
            best = (center, xs[k], float(scan[k]))
        width /= 4.0
    return best


def los_sensitivity_sweep(snapshots, config, p_grid, trials, seed, exclude_ids=()):
    """``los_sensitivity_sweep`` on valid arguments, as it was when it solved
    both branches of every snapshot. ``robust_solve`` is looked up on
    ``snapslam.evaluation`` at call time, so a test that replaces it there
    replaces it for both versions."""
    err_los, err_nlos, los_truth, ids = [], [], [], []
    for snap in snapshots:
        errors = []
        for hyp in (Hypothesis.LOS, Hypothesis.NLOS):
            try:
                sol = evaluation.robust_solve(snap, hyp, config)
            except NoFeasibleSolution:
                errors.append(None)
            else:
                errors.append(math.hypot(*(sol.ue.position - snap.truth.ue.position)))
        e0, e1 = errors
        if e0 is None and e1 is None:
            continue
        err_los.append(e0 if e0 is not None else e1)
        err_nlos.append(e1 if e1 is not None else e0)
        los_truth.append(snap.truth.has_los)
        ids.append(snap.id)
    e0, e1, los = np.array(err_los), np.array(err_nlos), np.array(los_truth)
    coins = np.random.Generator(np.random.Philox(key=seed)).random((trials, len(ids)))
    include = np.array([sid not in set(exclude_ids) for sid in ids])

    def curve(col_mask):
        if not col_mask.any():
            return tuple(float("nan") for _ in p_grid)
        vals = []
        for p in p_grid:
            err = np.where(los[None, :] & (coins < p), e0[None, :], e1[None, :])[:, col_mask]
            vals.append(float(np.sqrt(np.mean(err * err))))
        return tuple(vals)

    return SweepResult(tuple(float(p) for p in p_grid), curve(np.ones(len(ids), dtype=bool)),
                       curve(include), trials)


def _interior_crossing(p, q, a, b):
    """Parameter u along a->b where segment p->q crosses inside both, or None."""
    r = (q[0] - p[0], q[1] - p[1])
    s = (b[0] - a[0], b[1] - a[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if denom == 0.0:
        return None
    w = (a[0] - p[0], a[1] - p[1])
    t = (w[0] * s[1] - w[1] * s[0]) / denom
    u = (w[0] * r[1] - w[1] * r[0]) / denom
    if _EPS < t < 1.0 - _EPS and _EPS < u < 1.0 - _EPS:
        return u
    return None


def _blocked(p, q, walls):
    return any(_interior_crossing(p, q, w.a, w.b) is not None for w in walls)


def _mirror(p, a, b):
    d = b - a
    return 2.0 * (a + _dot2(p - a, d) / _dot2(d, d) * d) - p


def _unfold(scene, seq, ue):
    walls = scene.walls
    images = [scene.bs.position]
    for wi in seq:
        images.append(_mirror(images[-1], walls[wi].a, walls[wi].b))
    chain = [scene.bs.position, *[None] * len(seq), ue.position]
    for j in range(len(seq), 0, -1):
        w = walls[seq[j - 1]]
        u = _interior_crossing(images[j], chain[j + 1], w.a, w.b)
        if u is None:
            return None
        chain[j] = w.a + u * (w.b - w.a)
    for leg_a, leg_b in zip(chain[:-1], chain[1:]):
        if _blocked(leg_a, leg_b, walls):
            return None
    return chain


def _chain_measurement(ue, bs, chain):
    length = 0.0
    for a, b in zip(chain[:-1], chain[1:]):
        seg = math.hypot(b[0] - a[0], b[1] - a[1])
        if seg == 0.0:
            raise DegenerateGeometry("coincident consecutive points on path")
        length += seg
    first = chain[1] - chain[0]
    last = chain[-2] - chain[-1]
    toa = length / SPEED_OF_LIGHT + ue.clock_bias
    aod = wrap_angle(math.atan2(first[1], first[0]) - bs.orientation)
    aoa = wrap_angle(math.atan2(last[1], last[0]) - ue.orientation)
    return length, toa, aod, aoa


def trace_paths_reference(scene, ue, max_bounces):
    """``trace_paths`` as it was when every point was a NumPy 2-vector: the
    walls' endpoints, images and reflection points are arrays, and each leg's
    arithmetic runs on NumPy scalars."""
    entries = []
    for k in range(max_bounces + 1):
        for seq in itertools.product(range(len(scene.walls)), repeat=k):
            if any(seq[i] == seq[i + 1] for i in range(k - 1)):
                continue
            chain = _unfold(scene, seq, ue)
            if chain is None:
                continue
            length, toa, aod, aoa = _chain_measurement(ue, scene.bs, chain)
            loss = float(sum(scene.walls[wi].loss_db for wi in seq))
            entries.append(TruePath(_KIND_BY_BOUNCES[k], tuple(chain[1:-1]), toa, aod, aoa,
                                    length_m=length, reflection_loss_db=loss))
    return sorted(entries, key=lambda e: e.toa)


def synthesize_gains_scalar(paths, model=PathLossModel(), per_bounce_extra_db=6.0, rng=None,
                            sigma_db=None):
    """``synthesize_gains`` as it was with one scalar draw per path, in path order."""
    scale = model.sigma_db if sigma_db is None else float(sigma_db)
    out = []
    for p in paths:
        gdb = (path_loss_mean(p.length_m, model) - p.reflection_loss_db
               - per_bounce_extra_db * len(p.incidence_points))
        if rng is not None:
            gdb += scale * rng.standard_normal()
        out.append(TruePath(p.kind, p.incidence_points, p.toa, p.aod, p.aoa,
                            10.0 ** (gdb / 10.0), p.length_m, p.reflection_loss_db))
    return out


def path_measurement_fields(toa, aod, aoa, gain=1.0):
    """The (toa, aod, aoa, gain) that ``PathMeasurement`` stored when it
    re-set all four fields on every construction, after the same checks."""
    if not math.isfinite(toa + aod + aoa + gain):
        for name, value in zip(("toa", "aod", "aoa", "gain"), (toa, aod, aoa, gain)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
    if gain <= 0.0:
        raise ValueError("gain must be strictly positive")
    return float(toa), wrap_angle(float(aod)), wrap_angle(float(aoa)), float(gain)


def corrupt_scalar(paths, noise, rng=None):
    """The measurements of ``sim._noisy`` as they were drawn with three
    scalar draws per path, in (toa, aod, aoa) order."""
    if noise is None:
        return [PathMeasurement(p.toa, p.aod, p.aoa, p.gain) for p in paths]
    out = []
    for p in paths:
        toa = p.toa + noise.sigma_toa * rng.standard_normal()
        aod = wrap_angle(p.aod + noise.sigma_aod * rng.standard_normal())
        aoa = wrap_angle(p.aoa + noise.sigma_aoa * rng.standard_normal())
        out.append(PathMeasurement(toa, aod, aoa, p.gain))
    return out
