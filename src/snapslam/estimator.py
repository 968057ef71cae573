"""Snapshot state estimation from multipath channel parameters.

Given the anchor pose and a set of path measurements, and conditioning on a
candidate user heading, the user position and clock bias solve a weighted
linear least-squares problem: each path constrains the state to a line in
(position, bias) space, obtained by eliminating the unknown bounce fraction
with an orthogonal projector. The heading itself comes either in closed form
from the line-of-sight path or from a grid search over the conditional cost.

Internally the clock bias is carried in meters (c * seconds) so the 3x3
normal matrix is well scaled; public results are in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateGeometry, NearParallel, SingularGeometry
from .geometry import (
    SPEED_OF_LIGHT,
    NoiseModel,
    PathMeasurement,
    Pose,
    UeState,
    bounce_fraction,
    measurement_model,
    rotation,
    unit_vectors,
    wrap_angle,
)

_C = SPEED_OF_LIGHT

CONDITION_LIMIT = 1e12
"""Condition number of the scaled normal matrix above which the geometry is
treated as singular.

The search gates its 3x3 normal matrices in closed form: the largest
eigenvalue from the trigonometric solution of the characteristic cubic
(O. K. Smith, "Eigenvalues of a symmetric 3x3 matrix", CACM 1961), the
other two from their sum and their product, the product from the pivots of
an LDL^T factorization. The smallest eigenvalue then carries an absolute
error of a few ulps of the largest, as LAPACK's SVD does. Rows whose
closed-form condition falls inside ``_COND_GUARD_BAND`` are rechecked with
``np.linalg.svd``, so every gate decision is the one an SVD-only gate
makes."""

_COND_GUARD_BAND = (1e9, 1e15)
"""Closed-form condition numbers in this closed interval are rechecked by
SVD; below it a row passes, above it (or at or below zero, or when an LDL^T
pivot is not positive) it fails."""


@dataclass(frozen=True)
class ConditionalEstimate:
    """Position and clock bias estimated for one fixed heading.

    Attributes
    ----------
    position : ndarray, shape (2,)
    clock_bias : float
        Seconds.
    per_path_cost : tuple of (int, float)
        Unweighted squared projected residual of each used path, m^2,
        evaluated at this estimate.
    total_cost : float
        Gain-weighted sum of the per-path costs over the used set, m^2.
    """

    position: np.ndarray
    clock_bias: float
    per_path_cost: tuple
    total_cost: float


@dataclass(frozen=True)
class LandmarkEstimate:
    """Refined reflection point of one single-bounce path.

    ``covariance`` is the Gauss-Newton covariance (J^T R^-1 J)^-1 at the
    final iterate, m^2. ``converged`` is False when the iteration stopped on
    the step budget or a non-improving step rather than the step tolerance.
    """

    position: np.ndarray
    covariance: np.ndarray
    source_path: int = -1
    converged: bool = True
    iterations: int = 0


class _PathTerms(NamedTuple):
    """Per-(heading, path) arrays used by the batched conditional solver.

    Shapes: M headings by n paths. ``normal`` packs each path's
    gain-weighted normal-matrix block A and right-hand side b as (a00, a01,
    a02, a11, a12, a22, b0, b1, b2): the upper triangle of the symmetric A
    row by row, then b. Sums of packed systems are packed systems, so a
    subset's system is the sum of its paths' rows.
    """

    tau: np.ndarray       # (n,)
    eta: np.ndarray       # (n,)
    v: np.ndarray         # (M, n, 2)
    nu: np.ndarray        # (M, n, 2)
    nu_sq: np.ndarray     # (M, n)
    nubar: np.ndarray     # (M, n, 2)  zero rows where the projector is identity
    mu: np.ndarray        # (M, n, 2)
    normal: np.ndarray    # (M, n, 9)


_UNPACK = [0, 1, 2, 1, 3, 4, 2, 4, 5]   # packed index of A[i, j], row-major


def _dot2(x, y):
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1]


def _build_terms(paths: Sequence[PathMeasurement], bs: Pose, alphas: np.ndarray,
                 los_index: int | None = None) -> _PathTerms:
    """Precompute per-path solver terms for every heading in ``alphas``.

    ``los_index`` marks the path hypothesized as line of sight: its projector
    is the identity (both residual components constrain the state). Paths
    whose departure/arrival rays cancel exactly get the same treatment, the
    correct limit of the eliminated-bounce constraint.
    """
    alphas = np.asarray(alphas, dtype=float)
    tau = np.array([p.toa for p in paths])
    eta = np.array([p.gain for p in paths])
    aod = np.array([p.aod for p in paths])
    aoa = np.array([p.aoa for p in paths])

    dep = bs.orientation + aod                      # world departure angle
    u = np.stack([np.cos(dep), np.sin(dep)], axis=-1)
    arr = alphas[:, None] + aoa[None, :]            # (M, n) world arrival angle
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

    # Per-path normal-matrix block for state [p_x, p_y, c*b]:
    #   A_i = eta * H^T P H,  rhs_i = eta * H^T P mu,  H = [I2 | -v], P = I - nubar nubar^T
    w = v - nubar * _dot2(nubar, v)[..., None]      # P v
    g = mu - nubar * _dot2(nubar, mu)[..., None]    # P mu
    normal = np.stack([1.0 - nubar[..., 0] * nubar[..., 0],
                       -nubar[..., 0] * nubar[..., 1],
                       -w[..., 0],
                       1.0 - nubar[..., 1] * nubar[..., 1],
                       -w[..., 1],
                       _dot2(v, w),
                       g[..., 0],
                       g[..., 1],
                       -_dot2(v, g)], axis=-1)
    # weights scaled by a power of two so the largest is in [0.5, 1): exact,
    # and it keeps the kernel's squared entries in range for any gain scale
    normal *= np.ldexp(eta, -np.frexp(eta.max())[1])[None, :, None]
    return _PathTerms(tau, eta, v, nu, nu_sq, nubar, mu, normal)


def _solve_packed(s: np.ndarray):
    """Gate and solve a batch of packed symmetric PSD 3x3 systems.

    ``s`` has any leading batch shape and a last axis packed as
    ``_PathTerms.normal``. Returns (x, ok): x (..., 3) solves A x = b on
    rows whose condition number is below ``CONDITION_LIMIT`` and is zero
    elsewhere.

    Everything is elementwise: the condition number in closed form (see
    ``CONDITION_LIMIT``), rechecked by SVD on the rare rows inside
    ``_COND_GUARD_BAND``, and the solve by an unpivoted LDL^T
    factorization, which is backward stable for positive semi-definite
    matrices.
    """
    a00, a01, a02, a11, a12, a22, b0, b1, b2 = np.moveaxis(s, -1, 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # A = L D L^T with unit lower L = [[1], [l10, 1], [l20, l21, 1]]
        l10 = a01 / a00
        l20 = a02 / a00
        d1 = a11 - l10 * a01
        l21 = (a12 - l20 * a01) / d1
        d2 = a22 - l20 * a02 - l21 * l21 * d1
        pivots_ok = (a00 > 0.0) & (d1 > 0.0) & (d2 > 0.0)

        # largest eigenvalue from the trigonometric form of the cubic
        trace = a00 + a11 + a22
        q = trace / 3.0
        c00, c11, c22 = a00 - q, a11 - q, a22 - q
        p = np.sqrt((c00 * c00 + c11 * c11 + c22 * c22
                     + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
        # det((A - qI) / p) / 2, scaled before the product so that a tiny
        # spread p (a near-multiple of I) cannot underflow p**3 to zero
        inv_p = 1.0 / p
        c00, c11, c22 = c00 * inv_p, c11 * inv_p, c22 * inv_p
        e01, e02, e12 = a01 * inv_p, a02 * inv_p, a12 * inv_p
        det_c = (c00 * (c11 * c22 - e12 * e12) - e01 * (e01 * c22 - e12 * e02)
                 + e02 * (e01 * e12 - c11 * e02))
        r = np.clip(0.5 * det_c, -1.0, 1.0)
        lam_max = np.where(p > 0.0, q + 2.0 * p * np.cos(np.arccos(r) / 3.0), q)

        # the other two from their sum and their product det(A) / lam_max;
        # the pivots give det(A) to the backward error of the factorization
        rest = trace - lam_max
        prod = a00 * d1 * d2 / lam_max
        lam_mid = 0.5 * (rest + np.sqrt(np.maximum(rest * rest - 4.0 * prod, 0.0)))
        # lam_min <= lam_mid; the bound holds where rounding left no real pair
        lam_min = np.minimum(prod / lam_mid, lam_mid)
        cond = np.where(pivots_ok, lam_max / lam_min, -1.0)

        lo, hi = _COND_GUARD_BAND
        ok = (cond > 0.0) & (cond < lo)
        band = (cond >= lo) & (cond <= hi)
        if band.any():
            sv = np.linalg.svd(s[band][:, _UNPACK].reshape(-1, 3, 3), compute_uv=False)
            ok[band] = sv[:, 0] / sv[:, 2] < CONDITION_LIMIT

        # forward substitution, diagonal, back substitution
        z1 = b1 - l10 * b0
        z2 = b2 - l20 * b0 - l21 * z1
        x2 = z2 / d2
        x1 = z1 / d1 - l21 * x2
        x0 = b0 / a00 - l10 * x1 - l20 * x2
    x = np.stack([x0, x1, x2], axis=-1)
    return np.where(ok[..., None], x, 0.0), ok


def _take_rows(terms: _PathTerms, rows: np.ndarray) -> _PathTerms:
    """The terms of the given heading rows, in that order.

    The result is a ``_PathTerms`` whose M axis lists ``rows``, and every
    system, residual, cost and bounce fraction computed from it equals the
    one computed from ``terms`` at that heading, to the bit.
    """
    return terms._replace(v=terms.v[rows], nu=terms.nu[rows], nu_sq=terms.nu_sq[rows],
                          nubar=terms.nubar[rows], mu=terms.mu[rows],
                          normal=terms.normal[rows])


def _residuals(terms: _PathTerms, x: np.ndarray) -> np.ndarray:
    """Raw 2-D residuals H x - mu, shape (..., M, n, 2) for x of shape (..., M, 3)."""
    return x[..., None, :2] - x[..., 2, None, None] * terms.v - terms.mu


def _costs(terms: _PathTerms, x: np.ndarray, r: np.ndarray | None = None) -> np.ndarray:
    """Squared projected residual of every path at every row's state, (..., M, n).

    ``r`` passes in ``_residuals(terms, x)`` when the caller already has it.
    """
    r = _residuals(terms, x) if r is None else r
    pr = r - terms.nubar * _dot2(terms.nubar, r)[..., None]
    return _dot2(pr, pr)


def _weighted_total(costs: np.ndarray, eta: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Gain-weighted cost of each row over a member mask, (..., M)."""
    return (member * eta * costs).sum(axis=-1)


def _gammas(terms: _PathTerms, x: np.ndarray, r: np.ndarray | None = None) -> np.ndarray:
    """Bounce fraction of every path at every row's state, (..., M, n).

    Rows where the fraction is undefined (zero length or cancelled rays)
    come back infinite so that range checks fail. ``r`` is as in ``_costs``.
    """
    d = _C * terms.tau - x[..., 2, None]
    r = _residuals(terms, x) if r is None else r
    num = _dot2(terms.nu, r)
    den = d * terms.nu_sq
    with np.errstate(divide="ignore", invalid="ignore"):
        gam = num / den
    return np.where(den == 0.0, np.inf, gam)


def _outlier_penalty(eta, member, t_eps):
    """Per-path penalty summed over each row's outliers, (..., M)."""
    return ((1.0 - member) * eta).sum(axis=-1) * t_eps


def _feasibility_mask(terms: _PathTerms, x: np.ndarray, inlier: np.ndarray, n_min: int,
                      t_nu: float, r: np.ndarray | None = None) -> np.ndarray:
    """Vectorized feasibility of each row's (state, inlier set), (..., M).

    ``x`` is (..., M, 3) and ``inlier`` (..., M, n) for any leading batch
    shape; ``r`` optionally passes in the residuals at ``x``. Checks, per
    row: enough inliers; non-negative bias-corrected delay of the earliest
    inlier j; bounce fraction of j in [0, 1] unless its rays nearly cancel
    (near-LoS geometry); bounce fraction of every other inlier in [0, 1].
    """
    count_ok = inlier.sum(axis=-1) >= n_min
    j = np.argmin(np.where(inlier, terms.tau, np.inf), axis=-1)
    delay_ok = _C * terms.tau[j] - x[..., 2] >= 0.0
    gam = _gammas(terms, x, r)
    in_range = (gam >= 0.0) & (gam <= 1.0)
    j_cols = np.arange(inlier.shape[-1]) == j[..., None]
    j_in_range = (in_range & j_cols).any(axis=-1)
    j_near_los = ((terms.nu_sq <= t_nu) & j_cols).any(axis=-1)
    others_ok = np.all(in_range | ~inlier | j_cols, axis=-1)
    return count_ok & delay_ok & (j_in_range | j_near_los) & others_ok


def _row_costs(terms: _PathTerms, x: np.ndarray, ok: np.ndarray, member: np.ndarray,
               gate: tuple | None = None) -> np.ndarray:
    """Cost of each row's state over its member set, (..., M).

    ``member`` is a boolean (..., M, n) mask and ``ok`` flags the rows
    whose solve passed. The cost is the gain-weighted sum of the members'
    squared projected residuals. A ``gate`` (n_min, t_nu, t_eps) adds the
    per-path penalty t_eps for each non-member and requires the row to
    pass ``_feasibility_mask``; the weighted sum is non-negative, so a
    gated cost is never below its ``_outlier_penalty``. Rows whose solve
    failed, that fail the gate, or whose cost is not finite get +inf.
    """
    weights = member.astype(float)
    r = _residuals(terms, x)
    cost = _weighted_total(_costs(terms, x, r), terms.eta, weights)
    valid = ok
    if gate is not None:
        n_min, t_nu, t_eps = gate
        cost = cost + _outlier_penalty(terms.eta, weights, t_eps)
        valid = ok & _feasibility_mask(terms, x, member, n_min, t_nu, r)
    return np.where(valid & np.isfinite(cost), cost, np.inf)


def _best_cell(terms: _PathTerms, rows: np.ndarray, member: np.ndarray,
               gate: tuple | None = None):
    """First minimum of the gated costs of a batch of (heading, member set) cells.

    Cell k is heading row ``rows[k]`` of ``terms`` with the boolean (n,)
    member row ``member[k]``. Each cell's system is the sum of its members'
    packed rows at its heading; it is solved by ``_solve_packed``, then
    costed and gated by ``_row_costs``. Returns (k, state (3,), cost) of the
    first minimum, or None if every cell is +inf.

    A cell's result does not depend on the other cells of the batch, but
    its last bits depend on the member mask's memory layout: ``astype``
    copies a broadcast member row column-major, and NumPy then sums it in
    another order than a C-ordered row (at 6, 7, 10 and 11 paths, say).
    """
    taken = _take_rows(terms, rows)
    x, ok = _solve_packed((member.astype(float)[:, None, :] @ taken.normal)[:, 0])
    cost = _row_costs(taken, x, ok, member, gate)
    k = int(np.argmin(cost))
    if not np.isfinite(cost[k]):
        return None
    return k, x[k], float(cost[k])


def _fixed_set_estimate(paths, bs, alphas, index_set, los_index, message):
    """``_best_cell`` over ``alphas`` for one index set, as a ConditionalEstimate.

    Returns (heading index, estimate); raises ``SingularGeometry`` with
    ``message`` when no heading is usable.
    """
    idx = sorted(int(i) for i in index_set)
    if not idx:
        raise ValueError("index_set must be non-empty")
    terms = _build_terms(paths, bs, alphas, los_index)
    member_row = np.zeros(len(paths), dtype=bool)
    member_row[idx] = True
    best = _best_cell(terms, np.arange(len(alphas)),
                      np.broadcast_to(member_row, terms.nu_sq.shape))
    if best is None:
        raise SingularGeometry(message)
    k, x, total = best
    costs = _costs(_take_rows(terms, np.array([k])), x[None])[0]
    return k, ConditionalEstimate(position=x[:2].copy(),
                                  clock_bias=float(x[2]) / _C,
                                  per_path_cost=tuple((i, float(costs[i])) for i in idx),
                                  total_cost=total)


def conditional_estimate(paths: Sequence[PathMeasurement], index_set, alpha_ue: float,
                         bs: Pose, los_index: int | None = None) -> ConditionalEstimate:
    """Closed-form position and clock bias for a fixed user heading.

    Parameters
    ----------
    paths : sequence of PathMeasurement
    index_set : iterable of int
        Indices of the paths entering the fit. Must be non-empty.
    alpha_ue : float
        Conditioning heading, radians.
    bs : Pose
    los_index : int, optional
        Index of the path treated as line of sight (identity projector);
        must be in ``index_set`` if given. ``None`` treats every path as a
        single bounce.

    Raises
    ------
    SingularGeometry
        If the 3x3 normal matrix has condition number >= 1e12 (e.g. a lone
        LoS path, or all rays parallel), or the cost is not finite.
    """
    return _fixed_set_estimate(paths, bs, np.array([float(alpha_ue)]), index_set,
                               los_index,
                               "conditional normal matrix is singular or ill-conditioned")[1]


def path_cost(path: PathMeasurement, position, clock_bias: float, alpha_ue: float,
              bs: Pose, is_los: bool = False) -> float:
    """Squared projected residual (m^2) of one path at a given state.

    ``is_los`` selects the identity projector (both residual components
    count); otherwise the component along the bounce direction is removed.
    """
    terms = _build_terms([path], bs, np.array([float(alpha_ue)]),
                         0 if is_los else None)
    x = np.array([[position[0], position[1], _C * clock_bias]])
    return float(_costs(terms, x)[0, 0])


def los_orientation(path: PathMeasurement, bs: Pose) -> float:
    """User heading implied by a line-of-sight path, closed form.

    The arrival ray of a LoS path points back at the anchor, which pins the
    heading given the departure direction and the local arrival angle.
    """
    u, _ = unit_vectors(path.aod, 0.0, bs.orientation, 0.0)
    xy = -rotation(-path.aoa) @ u
    return wrap_angle(math.atan2(xy[1], xy[0]))


def orientation_grid(size: int = 361) -> np.ndarray:
    """Uniform heading grid over [-pi, pi] with ``size`` points.

    Both interval endpoints are included (they alias to the same heading);
    the default matches the solver's 1-degree resolution.
    """
    if size < 1:
        raise ValueError("grid size must be >= 1")
    return np.linspace(-math.pi, math.pi, size)


def nlos_orientation_search(paths: Sequence[PathMeasurement], index_set, grid,
                            bs: Pose) -> tuple[float, ConditionalEstimate]:
    """Grid search over headings minimizing the conditional total cost.

    Returns the best grid heading and its conditional estimate. Grid points
    whose normal matrix is singular or whose cost is not finite are
    skipped; ties keep the smallest grid index.

    Raises
    ------
    SingularGeometry
        If every grid point is skipped.
    """
    grid = np.asarray(grid, dtype=float)
    k, est = _fixed_set_estimate(paths, bs, grid, index_set, None,
                                 "no heading on the grid yields an invertible system")
    return float(grid[k]), est


def landmark_jacobian(ue: UeState, bs: Pose, landmark) -> np.ndarray:
    """Analytic 3x2 Jacobian of (toa, aod, aoa) w.r.t. the landmark position.

    Raises
    ------
    DegenerateGeometry
        If the landmark coincides with the anchor or the user.
    """
    p = np.asarray(landmark, dtype=float)
    d1 = p - bs.position
    d2 = p - ue.position
    n1 = math.hypot(d1[0], d1[1])
    n2 = math.hypot(d2[0], d2[1])
    if n1 == 0.0 or n2 == 0.0:
        raise DegenerateGeometry("landmark coincides with an antenna")
    row_toa = (d1 / n1 + d2 / n2) / _C
    row_aod = np.array([-d1[1], d1[0]]) / (n1 * n1)
    row_aoa = np.array([-d2[1], d2[0]]) / (n2 * n2)
    return np.vstack([row_toa, row_aod, row_aoa])


def _initial_landmark(path: PathMeasurement, ue: UeState, bs: Pose) -> np.ndarray:
    """Initializer: midpoint of the two ray endpoints at the recovered fraction.

    The fraction is clamped to [0.05, 0.95] when it falls outside [0, 1] and
    defaults to 0.5 when undefined (near-parallel rays, ||u + v||^2 <= 0.1).
    """
    try:
        gam = bounce_fraction(ue, path, bs)
        if not math.isfinite(gam):
            gam = 0.5
        elif not 0.0 <= gam <= 1.0:
            gam = min(max(gam, 0.05), 0.95)
    except (NearParallel, DegenerateGeometry):
        gam = 0.5
    u, v = unit_vectors(path.aod, path.aoa, bs.orientation, ue.orientation)
    d = SPEED_OF_LIGHT * (path.toa - ue.clock_bias)
    anchor_side = bs.position + d * gam * u
    user_side = ue.position + d * (1.0 - gam) * v
    return 0.5 * (anchor_side + user_side)


def landmark_refine(path: PathMeasurement, ue: UeState, bs: Pose,
                    noise: NoiseModel = NoiseModel(),
                    source_path: int = -1) -> LandmarkEstimate:
    """Gauss-Newton refinement of a single-bounce reflection point.

    Minimizes the noise-whitened squared residual between the measured
    (toa, aod, aoa) and the single-bounce forward model at the given user
    state. Steps that increase the objective are halved up to 8 times; the
    iteration converges when the step norm drops below 1e-9 m.

    Returns the best iterate with ``converged=False`` if that tolerance was
    not reached within 50 iterations.

    Raises
    ------
    DegenerateGeometry
        If the Jacobian is rank-deficient at the final iterate.
    """
    max_iter, tol = 50, 1e-9
    z = np.array([path.toa, path.aod, path.aoa])
    sig = noise.sigmas

    def whitened_residual(pt):
        t, a, o = measurement_model(ue, bs, pt)
        return np.array([z[0] - t,
                         wrap_angle(z[1] - a),
                         wrap_angle(z[2] - o)]) / sig

    def objective(pt):
        try:
            r = whitened_residual(pt)
        except DegenerateGeometry:
            return None, math.inf
        return r, float(r @ r)

    p = _initial_landmark(path, ue, bs)
    r, cost = objective(p)
    if r is None:
        # initializer landed on an antenna; nudge off it
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
            converged = True    # already at a stationary point
            break
        scale = 1.0
        accepted = False
        for _ in range(9):  # full step, then up to 8 halvings
            cand = p + scale * step
            r_new, cost_new = objective(cand)
            if r_new is not None and cost_new <= cost:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
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
