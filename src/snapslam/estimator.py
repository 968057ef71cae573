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

from .errors import DegenerateGeometry, SingularGeometry
from .geometry import (
    SPEED_OF_LIGHT,
    NoiseModel,
    PathMeasurement,
    Pose,
    UeState,
    _T_NU,
    _bounce,
    _dot2,
    wrap_angle,
)

_C = SPEED_OF_LIGHT

CONDITION_LIMIT = 1e12
"""Condition number of the scaled normal matrix above which the geometry is
treated as singular.

Every gate, ``_condition_ok`` on the 3x3 cell systems (restated in
Python floats by ``_gated_solve``) and ``landmark_refine`` on its 2x2
landmark normal matrix, decides by one estimate of the condition number of a symmetric positive definite A:
trace(A) * trace(A^-1) = trace(A) * trace(adj A) / det(A), with det(A) the
product of the LDL^T pivots (a c - b^2 for the 2x2 [[a, b], [b, c]]). A
system passes if and only if its pivots are positive and the estimate is
below this limit. For eigenvalues l_1 >= ... >= l_n > 0 the estimate is
(sum l_i) * (sum 1 / l_i), which lies between cond(A) = l_1 / l_n and
n^2 cond(A) (Golub and Van Loan, Matrix Computations, section 2.3), and
LDL^T of a positive definite matrix is backward stable (Higham, Accuracy
and Stability of Numerical Algorithms, ch. 10). So a gate admits only
systems with cond(A) below the limit, up to rounding of order u cond(A),
and admits every system with cond(A) below the limit / 9 (the limit / 4
for 2x2); one with cond(A) in between may fail. A system whose pivot
product underflows to zero fails."""


@dataclass(frozen=True)
class LandmarkEstimate:
    """Refined reflection point of one single-bounce path.

    ``covariance`` is the Gauss-Newton covariance (J^T R^-1 J)^-1 at the
    final iterate, m^2. ``converged`` says whether ``landmark_refine`` met
    one of its two convergence rules (a step below 1e-9 m, or a stalled step
    predicting a decrease below 1e-8 of the objective).
    """

    position: np.ndarray
    covariance: np.ndarray
    source_path: int = -1
    converged: bool = True
    iterations: int = 0


class _PathConstants(NamedTuple):
    """The heading-free part of ``_build_terms``: per-path arrays that every
    heading shares, built once per search and once per frozen set.

    ``u`` is the departure unit vector, ``ctau`` is c tau, ``scale`` holds
    the gains times the power of two that puts the largest in [0.5, 1), and
    ``los`` marks the path hypothesized as line of sight, the one place a
    path's LoS role is named. Each is shaped to broadcast against the (n, M)
    planes of ``_PathTerms``, which carries them as ``const``: the kernel
    reads every per-path constant from there and derives none of them again.
    """

    eta: np.ndarray       # (n,)
    aoa: np.ndarray       # (n,)
    u: np.ndarray         # (2, n, 1)
    ctau: np.ndarray      # (n, 1)
    anchor: np.ndarray    # (2, 1, 1)  anchor position
    scale: np.ndarray     # (n, 1)
    los: np.ndarray       # (n, 1)  bool


class _PathTerms(NamedTuple):
    """Per-(path, heading) arrays used by the batched conditional solver.

    The layout is planar and path-major: every plane is n paths by M
    headings, and a 2-D vector or a packed system keeps its components on a
    leading axis of their own, so each component is one contiguous (n, M)
    plane in which a path's row runs over the headings. ``normal`` packs
    each path's gain-weighted normal-matrix block A and right-hand side b
    as the nine planes (a00, a01, a02, a11, a12, a22, b0, b1, b2): the
    upper triangle of the symmetric A row by row, then b. Sums of packed
    systems are packed systems, so a subset's system is the sum of its
    paths' rows.

    Every packed system, cost and penalty of a cell is a sum over its
    paths in ascending path order, ((p0 + p1) + p2) + ...: the search's
    minimal-subset systems over the subset's paths, the rest through
    ``_path_sum`` over every path with non-members weighted 0. A frozen set
    (``_frozen_set``) builds its members' terms alone; a non-member adds an
    exact zero to such a sum, so that gives the same bits. The bits of a
    cell's result therefore depend neither on the batch it is evaluated in
    nor on any memory layout.

    ``const`` holds the paths' ``_PathConstants``. Every field after it is
    a per-heading plane with the heading on its last axis, so one
    expression gathers all of them (``_take_rows``).
    """

    const: _PathConstants
    v: np.ndarray         # (2, n, M)
    nu: np.ndarray        # (2, n, M)
    nu_sq: np.ndarray     # (n, M)
    nubar: np.ndarray     # (2, n, M)  zero where the projector is identity
    mu: np.ndarray        # (2, n, M)
    normal: np.ndarray    # (9, n, M)


def _path_sum(a):
    """Sum of ``a`` over its path axis, the second to last, in ascending
    path order: ((a_0 + a_1) + a_2) + ...

    ``sum`` would not keep that order: NumPy sums the innermost axis of its
    loop pairwise from 8 terms up, and which axis that is depends on the
    layout and on how many cells there are. ``np.add.accumulate`` is a
    recurrence along the axis, so it keeps the order, but it runs one inner
    loop per number of a path; past 128 numbers per path (about where the
    two cost the same) a loop over the paths, which adds in the same order,
    is faster.
    """
    if a[..., 0, :].size <= 128:
        return np.add.accumulate(a, axis=-2)[..., -1, :]
    total = a[..., 0, :].copy()
    for i in range(1, a.shape[-2]):
        total += a[..., i, :]
    return total


def _path_constants(paths: Sequence[PathMeasurement], bs: Pose,
                    los_index: int | None = None) -> _PathConstants:
    """The per-path constants of ``paths`` seen from anchor ``bs``, with
    path ``los_index``, if any, in the LoS role."""
    tau = np.array([p.toa for p in paths])
    eta = np.array([p.gain for p in paths])
    aod = np.array([p.aod for p in paths])
    aoa = np.array([p.aoa for p in paths])
    dep = bs.orientation + aod                      # world departure angle
    u = np.array([np.cos(dep), np.sin(dep)])[:, :, None]
    # weights scaled by a power of two so the largest is in [0.5, 1): exact,
    # and it keeps the kernel's squared entries in range for any gain scale
    scale = np.ldexp(eta, -np.frexp(eta.max())[1])[:, None]
    los = (np.arange(len(paths)) == los_index)[:, None]    # all False for None
    return _PathConstants(eta, aoa, u, (_C * tau)[:, None], bs.position[:, None, None],
                          scale, los)


def _heading_terms(const: _PathConstants, alphas: np.ndarray) -> _PathTerms:
    """The terms of ``_build_terms`` at every heading of ``alphas`` from the
    paths' constants: all of its per-heading arithmetic."""
    arr = const.aoa[:, None] + alphas               # (n, M) world arrival angle
    v = np.array([np.cos(arr), np.sin(arr)])

    nu = const.u + v
    nu_sq = _dot2(nu, nu)
    identity_proj = (nu_sq == 0.0) | const.los
    with np.errstate(divide="ignore", invalid="ignore"):
        nubar = np.where(identity_proj, 0.0, nu / np.sqrt(nu_sq))

    mu = const.anchor - const.ctau * v

    # Per-path normal-matrix block for state [p_x, p_y, c*b]:
    #   A_i = eta * H^T P H,  rhs_i = eta * H^T P mu,  H = [I2 | -v], P = I - nubar nubar^T
    w = v - nubar * _dot2(nubar, v)                 # P v
    g = mu - nubar * _dot2(nubar, mu)               # P mu
    normal = np.empty((9,) + nu_sq.shape)
    normal[0] = 1.0 - nubar[0] * nubar[0]
    normal[1] = -nubar[0] * nubar[1]
    normal[2] = -w[0]
    normal[3] = 1.0 - nubar[1] * nubar[1]
    normal[4] = -w[1]
    normal[5] = _dot2(v, w)
    normal[6:8] = g
    normal[8] = -_dot2(v, g)
    normal *= const.scale
    return _PathTerms(const, v, nu, nu_sq, nubar, mu, normal)


def _build_terms(paths: Sequence[PathMeasurement], bs: Pose, alphas: np.ndarray,
                 los_index: int | None = None) -> _PathTerms:
    """Precompute per-path solver terms for every heading in ``alphas``.

    ``los_index`` marks the path hypothesized as line of sight, recorded as
    ``const.los``: its projector is the identity (both residual components
    constrain the state). Paths
    whose departure/arrival rays cancel exactly get the same treatment, the
    correct limit of the eliminated-bounce constraint.
    """
    return _heading_terms(_path_constants(paths, bs, los_index), np.asarray(alphas, dtype=float))


def _ldl_solve(s):
    """Solve a batch of packed symmetric 3x3 systems, every row, ungated.

    ``s`` holds the nine planes of ``_PathTerms.normal`` on its first axis
    and any batch shape after it. Returns x (3, ...) from an unpivoted
    LDL^T factorization, which is backward stable for positive semi-definite
    matrices, and its second and third pivots d1 and d2 (the first is a00).
    Only rows that ``_condition_ok`` passes have a meaningful x.
    """
    a00, a01, a02, a11, a12, a22, b0, b1, b2 = s
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # A = L D L^T with unit lower L = [[1], [l10, 1], [l20, l21, 1]]
        l10 = a01 / a00
        l20 = a02 / a00
        d1 = a11 - l10 * a01
        l21 = (a12 - l20 * a01) / d1
        d2 = a22 - l20 * a02 - l21 * l21 * d1
        # forward substitution, diagonal, back substitution
        z1 = b1 - l10 * b0
        z2 = b2 - l20 * b0 - l21 * z1
        x2 = z2 / d2
        x1 = z1 / d1 - l21 * x2
        x0 = b0 / a00 - l10 * x1 - l20 * x2
    return np.array([x0, x1, x2]), d1, d2


def _condition_ok(s, d1, d2):
    """Condition gate of packed systems whose ``_ldl_solve`` pivots are d1, d2.

    ``s`` holds at least the six planes of A. True where the pivots a00, d1
    and d2 are positive and the estimate trace(A) * trace(adj A) /
    (a00 d1 d2) is below ``CONDITION_LIMIT``, the rule stated there; an
    estimate at or below zero, from a trace(adj A) that cancelled, fails.
    """
    a00, a01, a02, a11, a12, a22 = s[:6]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        adj = (a11 * a22 - a12 * a12) + (a00 * a22 - a02 * a02) + (a00 * a11 - a01 * a01)
        cond = (a00 + a11 + a22) * adj / (a00 * d1 * d2)
    return (a00 > 0.0) & (d1 > 0.0) & (d2 > 0.0) & (cond > 0.0) & (cond < CONDITION_LIMIT)


def _solve_packed(s: np.ndarray):
    """Gate and solve a batch of packed symmetric PSD 3x3 systems.

    ``s`` holds the nine planes of ``_PathTerms.normal`` on its first axis
    and any batch shape after it. Returns (x, ok): x (3, ...) solves
    A x = b on rows that ``_condition_ok`` passes and is zero elsewhere: by
    the rule of ``CONDITION_LIMIT``, every row with condition number below
    the limit / 9 and no row with one above the limit, up to rounding.
    Everything is elementwise: ``_ldl_solve`` solves, ``_condition_ok``
    gates by the trace estimate from the same pivots. It gates the systems
    it is given and no other: the search's minimal-subset systems are gated
    once per flush, in ``robust._evaluate_block``, before their cells get
    here.
    """
    x, d1, d2 = _ldl_solve(s)
    ok = _condition_ok(s, d1, d2)
    return np.where(ok, x, 0.0), ok


def _gated_solve(s):
    """``_solve_packed`` of one packed system in Python floats.

    ``s`` holds the nine entries of a ``_PathTerms.normal`` row. Returns x
    as a 3-tuple where ``_condition_ok`` passes the system, and None where
    it fails it, with the bits of ``_ldl_solve`` and the same rule. The
    gate is decided before x is solved, and a zero pivot or a zero pivot
    product fails it: Python raises where NumPy divides by zero.
    """
    a00, a01, a02, a11, a12, a22, b0, b1, b2 = s
    if not a00 > 0.0:
        return None
    l10 = a01 / a00
    l20 = a02 / a00
    d1 = a11 - l10 * a01
    if not d1 > 0.0:
        return None
    l21 = (a12 - l20 * a01) / d1
    d2 = a22 - l20 * a02 - l21 * l21 * d1
    pivots = a00 * d1 * d2
    if not (d2 > 0.0 and pivots != 0.0):
        return None
    adj = (a11 * a22 - a12 * a12) + (a00 * a22 - a02 * a02) + (a00 * a11 - a01 * a01)
    if not 0.0 < (a00 + a11 + a22) * adj / pivots < CONDITION_LIMIT:
        return None
    z1 = b1 - l10 * b0
    z2 = b2 - l20 * b0 - l21 * z1
    x2 = z2 / d2
    x1 = z1 / d1 - l21 * x2
    return b0 / a00 - l10 * x1 - l20 * x2, x1, x2


def _take_rows(terms: _PathTerms, rows: np.ndarray) -> _PathTerms:
    """The terms of the given heading rows, in that order.

    The result is a ``_PathTerms`` whose M axis lists ``rows``, and every
    residual, cost and bounce fraction computed from it equals the one
    computed from ``terms`` at that heading, to the bit.
    """
    return _PathTerms(terms.const, *(plane[..., rows] for plane in terms[1:]))


def _residuals(terms: _PathTerms, x: np.ndarray) -> np.ndarray:
    """Raw 2-D residuals H x - mu, (2, n, ...) for states x of shape (3, ...).

    The states' batch shape broadcasts against the (n, M) planes of
    ``terms`` with the path axis in front.
    """
    r = x[2] * terms.v
    np.subtract(x[:2, None], r, out=r)
    r -= terms.mu
    return r


def _costs(terms: _PathTerms, x: np.ndarray, r: np.ndarray | None = None) -> np.ndarray:
    """Squared projected residual of every path at every state, (n, ...).

    ``r`` passes in ``_residuals(terms, x)`` when the caller already has it.
    """
    pr = _residuals(terms, x) if r is None else r.copy()
    pr -= terms.nubar * _dot2(terms.nubar, pr)
    pr *= pr
    return pr[0] + pr[1]


def _line_terms(terms: _PathTerms) -> np.ndarray:
    """The (n, 1, M) planes c_q of ``_line_costs``, built once per search.

    A bounce path's projector is P = I - nubar nubar^T = q q^T, with q
    nubar turned by 90 degrees, (-nubar_1, nubar_0). So its squared
    projected residual is (q . r)^2. With r = [x0, x1] - x2 v - mu and
    mu = p_bs - c tau v, q . r = q0 (x0 - p_bs,0) + q1 (x1 - p_bs,1) +
    c_q (x2 - c tau) is linear in the state, with c_q = -q . v fixed per
    (path, heading); c tau and the anchor p_bs are read from ``terms.const``.
    Shifting the state that way holds one plane per search, where adding
    -q . mu would hold a second one through stage 2. A path whose projector
    is the identity (the LoS candidate, or rays that cancel exactly) has
    nubar = 0, so q = 0 and c_q = 0: its linear form reads 0.
    """
    cq = terms.nubar[::-1] * terms.v              # (nubar_1 v0, nubar_0 v1)
    return (cq[0] - cq[1])[:, None]


def _line_costs(terms: _PathTerms, cq: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stage-1 statistic of every path at states x (3, L, M), (n, L, M):
    its linear form q . r, squared, with c_q from ``_line_terms(terms)``.

    It equals the squared projected residual of ``_costs`` up to rounding
    for a bounce path. An identity-projector path has q = 0, so its
    statistic is 0 at any finite state and it passes stage 1; stage 2
    costs both of its residual components.
    """
    nubar, const = terms.nubar[:, :, None], terms.const
    with np.errstate(invalid="ignore", over="ignore"):
        q = x[2] - const.ctau[:, None]              # (n, 1, 1) against (L, M)
        q *= cq
        part = nubar[0] * (x[1] - const.anchor[1])
        q += part
        np.multiply(nubar[1], x[0] - const.anchor[0], out=part)
        q -= part
        q *= q
    return q


def _outlier_penalty(eta, member, t_eps):
    """Per-path penalty summed over each cell's outliers, (K,).

    ``member`` holds the (n, K) member masks.
    """
    return _path_sum((1.0 - member) * eta[:, None]) * t_eps


def _feasibility_mask(terms: _PathTerms, x: np.ndarray, inlier: np.ndarray | None,
                      r: np.ndarray) -> np.ndarray:
    """Vectorized feasibility of each cell's (state, inlier set), (K,).

    ``x`` is (3, K), ``inlier`` holds the boolean (n, K) inlier masks, or is
    None when every path is an inlier of every cell, and ``r`` is
    ``_residuals(terms, x)``. One rule per path, judged by its own geometry:
    a cell is feasible if and only if every inlier has a non-negative
    bias-corrected path length d = c tau - x[2], and a bounce fraction in
    [0, 1] unless its rays nearly cancel (||u + v||^2 <= ``_T_NU``, near-LoS
    geometry, no identifiable bounce point: the test of the map rule,
    ``robust._refine_landmarks``). No rule reads a path's rank in delay. The
    fraction nu . r / (d ||u + v||^2) is infinite or NaN, so out
    of range, where d or ||u + v|| is zero. Whether a cell has enough
    inliers is the search's stage-1 test (``robust._search``), not this one.
    """
    d = terms.const.ctau - x[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        gam = _dot2(terms.nu, r) / (d * terms.nu_sq)
    ok = (d >= 0.0) & (((gam >= 0.0) & (gam <= 1.0)) | (terms.nu_sq <= _T_NU))
    if inlier is not None:
        ok |= ~inlier
    return np.all(ok, axis=0)


def _row_costs(terms: _PathTerms, x: np.ndarray, ok: np.ndarray, member: np.ndarray | None,
               t_eps: float | None = None) -> np.ndarray:
    """Cost of each cell's state over its member set, (K,).

    ``x`` is (3, K), ``member`` holds the boolean (n, K) member masks (None:
    every path is a member of every cell) and ``ok`` flags the cells whose
    solve passed. The cost is the gain-weighted ``_path_sum`` of the
    members' squared projected residuals. A gate ``t_eps`` (None: ungated)
    adds the per-path penalty t_eps for each non-member and requires the
    cell to pass ``_feasibility_mask``; the weighted sum is non-negative, so
    a gated cost is never below its ``_outlier_penalty``. Cells whose solve
    failed, that fail the gate, or whose cost is not finite get +inf.
    """
    r = _residuals(terms, x)
    eta = terms.const.eta[:, None]
    cost = _path_sum((eta if member is None else member * eta) * _costs(terms, x, r))
    valid = ok
    if t_eps is not None:
        # with no non-member the penalty is +0.0, and a cost is never -0.0
        if member is not None:
            cost = cost + _outlier_penalty(terms.const.eta, member, t_eps)
        valid = ok & _feasibility_mask(terms, x, member, r)
    return np.where(valid & np.isfinite(cost), cost, np.inf)


def _cell_costs(terms: _PathTerms, rows: np.ndarray | None, member: np.ndarray | None,
                t_eps: float | None = None):
    """States and gated costs of a batch of (heading, member set) cells.

    Cell k is heading row ``rows[k]`` of ``terms`` (heading k when ``rows``
    is None) with the boolean (n,) member mask ``member[:, k]``; a
    ``member`` of None makes every path a member of every cell, with the
    bits of an all-True mask (a weight of 1.0 changes no product). Each
    cell's system is the ``_path_sum`` of its members' packed rows; it is
    solved and condition-gated by ``_solve_packed``, then costed and gated
    under ``t_eps`` (None: ungated) by ``_row_costs``. A search cell's
    minimal-subset system is not gated here but in
    ``robust._evaluate_block``, which drops the cells it fails.
    Returns x (3, K) and cost (K,). A cell's result, to the bit, depends
    neither on the other cells of the batch nor on its place among them.
    """
    if rows is not None:
        terms = _take_rows(terms, rows)
    x, ok = _solve_packed(_path_sum(terms.normal if member is None else member * terms.normal))
    return x, _row_costs(terms, x, ok, member, t_eps)


class _FrozenSet(NamedTuple):
    """One member set held fixed over heading scans, from ``_frozen_set``.

    ``members`` holds the members' ``_PathConstants``, ``t_eps`` the gate
    or None (ungated), and ``penalty`` the non-members' outlier penalty
    under it (0.0 without a gate): neither depends on the heading.
    """

    members: _PathConstants
    t_eps: float | None
    penalty: float


def _frozen_set(paths, bs: Pose, member_row: np.ndarray, t_eps: float | None = None) -> _FrozenSet:
    """The frozen set of the paths in the boolean (n,) mask ``member_row``,
    every one treated as a single bounce; one path at least.

    Built once per set, it holds all that its ``_heading_costs`` scans
    share. Only the members' terms are built, and the non-members' penalty
    is added once. A scan has the bits of ``_cell_costs`` over every path
    with the non-members weighted 0: such a path adds an exact zero to each
    path-order sum and is not judged by the feasibility gate, and the
    power-of-two weight scale of ``_build_terms`` (set by the largest
    member gain here) cancels exactly in the solve and the condition
    estimate, while the costs weigh by the unscaled gains. That holds while
    no non-member's squared residual overflows and no member's scaled
    weight is subnormal.
    """
    members = _path_constants([paths[i] for i in np.flatnonzero(member_row)], bs)
    penalty = 0.0
    if t_eps is not None:
        eta = np.array([p.gain for p in paths])
        penalty = float(_outlier_penalty(eta, member_row[:, None], t_eps)[0])
    return _FrozenSet(members, t_eps, penalty)


def _heading_costs(frozen: _FrozenSet, alphas: np.ndarray):
    """``_cell_costs`` at every heading of ``alphas`` for one frozen set.

    Returns x (3, M) and cost (M,); a heading's result does not depend on
    the other headings. Each scan builds the members' per-heading terms
    alone and runs the kernel with every one a member. A cost is never
    -0.0, so adding a penalty of 0.0 changes no bits.
    """
    x, cost = _cell_costs(_heading_terms(frozen.members, alphas), None, None, frozen.t_eps)
    return x, cost + frozen.penalty


def path_cost(path: PathMeasurement, position, clock_bias: float, alpha_ue: float,
              bs: Pose) -> float:
    """Squared projected residual (m^2) of one path at a given state, taken
    as a single bounce: the component along the bounce direction is removed.
    """
    terms = _build_terms([path], bs, np.array([float(alpha_ue)]))
    x = np.array([[position[0]], [position[1]], [_C * clock_bias]])
    return float(_costs(terms, x)[0, 0])


def los_orientation(path: PathMeasurement, bs: Pose) -> float:
    """User heading implied by a line-of-sight path, closed form.

    The arrival ray of a LoS path points back at the anchor, which pins the
    heading given the departure direction and the local arrival angle: the
    path arrives along its departure ray reversed, at world angle
    ``bs.orientation + aod + pi``.
    """
    return wrap_angle(bs.orientation + path.aod + math.pi - path.aoa)


_GRID_STEPS = 360
"""Steps of ``orientation_grid`` over [-pi, pi]: a 1-degree resolution."""


def orientation_grid() -> np.ndarray:
    """Uniform heading grid over [-pi, pi], ``_GRID_STEPS`` + 1 points.

    Both interval endpoints are included (they alias to the same heading).
    """
    return np.linspace(-math.pi, math.pi, _GRID_STEPS + 1)


def nlos_orientation_search(paths: Sequence[PathMeasurement], index_set, grid,
                            bs: Pose) -> tuple[UeState, float]:
    """Grid search over headings minimizing the conditional total cost.

    Returns the user state at the best grid heading, with the position and
    clock bias of the closed-form fit of the paths in ``index_set`` there,
    and its gain-weighted total cost (m^2). Every path is treated as a
    single bounce. A one-point grid gives the closed-form estimate at that
    heading. Grid points whose normal matrix is singular or whose cost is
    not finite are skipped; ties keep the smallest grid index.

    Raises
    ------
    ValueError
        If ``index_set`` is empty or holds an index outside 0..n-1.
    SingularGeometry
        If every grid point is skipped (e.g. all rays parallel).
    """
    indices = [int(i) for i in index_set]
    if not indices:
        raise ValueError("index_set must be non-empty")
    if not all(0 <= i < len(paths) for i in indices):
        raise ValueError(f"index_set {indices} has an index outside 0..{len(paths) - 1}")
    member_row = np.zeros(len(paths), dtype=bool)
    member_row[indices] = True
    grid = np.asarray(grid, dtype=float)
    x, cost = _heading_costs(_frozen_set(paths, bs, member_row), grid)
    k = int(np.argmin(cost))
    if not np.isfinite(cost[k]):
        raise SingularGeometry("no heading on the grid yields an invertible system")
    return UeState(x[:2, k], grid[k], float(x[2, k]) / _C), float(cost[k])


def _bounce_model(ue: UeState, bs: Pose, landmark):
    """(toa, aod, aoa) of a single-bounce path and their landmark Jacobian.

    Returns (h, jac) in Python floats: h is the 3-tuple of model values,
    equal to ``measurement_model``'s to the bit, and jac the 3x2 Jacobian
    w.r.t. the landmark as the 6-tuple (d toa/dx, d toa/dy, d aod/dx,
    d aod/dy, d aoa/dx, d aoa/dy), row by row. Returns None if the landmark
    coincides with the anchor or the user, where the model is undefined, or
    lies so close to one that a leg's squared norm underflows to 0.
    """
    px, py = float(landmark[0]), float(landmark[1])
    bx, by = bs.position.tolist()
    ux, uy = ue.position.tolist()
    d1x, d1y = px - bx, py - by
    d2x, d2y = px - ux, py - uy
    n1 = math.hypot(d1x, d1y)
    n2 = math.hypot(d2x, d2y)
    n1_sq, n2_sq = n1 * n1, n2 * n2
    if n1_sq == 0.0 or n2_sq == 0.0:
        return None
    h = ((n1 + n2) / _C + ue.clock_bias,
         wrap_angle(math.atan2(d1y, d1x) - bs.orientation),
         wrap_angle(math.atan2(d2y, d2x) - ue.orientation))
    jac = ((d1x / n1 + d2x / n2) / _C, (d1y / n1 + d2y / n2) / _C,
           -d1y / n1_sq, d1x / n1_sq,
           -d2y / n2_sq, d2x / n2_sq)
    return h, jac


def _whitened(path: PathMeasurement, h, sigmas):
    """Whitened residual of ``path`` against model values h, and its squared norm.

    ``sigmas`` are the (toa, aod, aoa) standard deviations; the residual is
    a 3-tuple.
    """
    s0, s1, s2 = sigmas
    r = ((path.toa - h[0]) / s0, wrap_angle(path.aod - h[1]) / s1,
         wrap_angle(path.aoa - h[2]) / s2)
    return r, r[0] * r[0] + r[1] * r[1] + r[2] * r[2]


def _normal_2x2(jac, sigmas):
    """Whitened Jacobian J_w = R^-1/2 J of a ``_bounce_model`` jac, as a
    6-tuple in its layout, and the entries (a, b, c) of J_w^T J_w =
    [[a, b], [b, c]]."""
    s0, s1, s2 = sigmas
    w = (jac[0] / s0, jac[1] / s0, jac[2] / s1, jac[3] / s1, jac[4] / s2, jac[5] / s2)
    a = w[0] * w[0] + w[2] * w[2] + w[4] * w[4]
    b = w[0] * w[1] + w[2] * w[3] + w[4] * w[5]
    c = w[1] * w[1] + w[3] * w[3] + w[5] * w[5]
    return w, a, b, c


def _initial_landmark(path: PathMeasurement, ue: UeState, bs: Pose) -> np.ndarray:
    """Initializer: midpoint of the two ray endpoints at the recovered fraction.

    The fraction is clamped to [0.05, 0.95] when it falls outside [0, 1] and
    defaults to 0.5 when undefined (near-parallel rays, ||u + v||^2 <= _T_NU,
    a zero path length) or not finite. Worked in Python floats, as
    ``_bounce_model`` is.
    """
    u, v, s, d, gam = _bounce(ue, path, bs)
    if s <= _T_NU or d == 0.0 or not math.isfinite(gam):
        gam = 0.5
    elif not 0.0 <= gam <= 1.0:
        gam = min(max(gam, 0.05), 0.95)
    (bx, by), (ux, uy) = bs.position.tolist(), ue.position.tolist()
    a, b = d * gam, d * (1.0 - gam)
    return np.array([0.5 * ((bx + a * u[0]) + (ux + b * v[0])),
                     0.5 * ((by + a * u[1]) + (uy + b * v[1]))])


def landmark_refine(path: PathMeasurement, ue: UeState, bs: Pose,
                    noise: NoiseModel = NoiseModel(),
                    source_path: int = -1) -> LandmarkEstimate:
    """Gauss-Newton refinement of a single-bounce reflection point.

    Minimizes the noise-whitened squared residual between the measured
    (toa, aod, aoa) and the single-bounce forward model at the given user
    state. Each step solves the 2x2 normal equations by an unpivoted LDL^T
    factorization, as ``_ldl_solve`` does. Steps that increase the objective
    are halved up to 8 times; the iteration converges when the step norm
    drops below 1e-9 m, or when no halving lowers the objective and the full
    step's Gauss-Newton predicted decrease ||J_w s||^2 is below 1e-8 of the
    objective: the iterate is then at the optimum to rounding (such steps
    predict at most ~3e-13 of it, and steps stalled away from the optimum
    1e-3 or more). Everything runs in Python floats: at these sizes a NumPy
    call costs more than the arithmetic it does.

    Returns the best iterate with ``converged=False`` when it stopped
    otherwise: after 50 iterations, on a non-positive LDL^T pivot of the
    normal equations, or on a step predicting a real decrease that no
    halving of it achieves. The covariance is the closed-form inverse of
    J^T R^-1 J at the returned iterate. Its rank gate is the rule of
    ``CONDITION_LIMIT``: it passes if and only if det = a c - b^2 > 0 and
    (a + c)^2 / det < ``CONDITION_LIMIT``, so it passes every matrix with
    condition number below the limit / 4 and none above the limit, up to
    rounding.

    Raises
    ------
    DegenerateGeometry
        If the initializer and the initializer moved by 1e-6 m in each
        coordinate both coincide with an antenna, so the model cannot be
        evaluated at either; or if J^T R^-1 J at the returned iterate is
        singular or fails the rank gate (e.g. a point on the anchor-user
        segment, where both legs are collinear).
    """
    max_iter, tol, stall = 50, 1e-9, 1e-8
    sig = noise.sigmas.tolist()

    px, py = _initial_landmark(path, ue, bs).tolist()
    model = _bounce_model(ue, bs, (px, py))
    if model is None:
        # initializer landed on an antenna; nudge off it
        px, py = px + 1e-6, py + 1e-6
        model = _bounce_model(ue, bs, (px, py))
        if model is None:
            raise DegenerateGeometry("cannot evaluate the model near the initializer")
    h, jac = model
    r, cost = _whitened(path, h, sig)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w, a, b, c = _normal_2x2(jac, sig)
        g0 = w[0] * r[0] + w[2] * r[1] + w[4] * r[2]
        g1 = w[1] * r[0] + w[3] * r[1] + w[5] * r[2]
        # [[a, b], [b, c]] = L D L^T with L = [[1, 0], [l10, 1]], D = diag(a, d1)
        if not a > 0.0:
            break
        l10 = b / a
        d1 = c - l10 * b
        if not d1 > 0.0:
            break
        dy = (g1 - l10 * g0) / d1
        dx = g0 / a - l10 * dy
        if math.hypot(dx, dy) < tol:
            converged = True    # already at a stationary point
            break
        scale = 1.0
        for _ in range(9):  # full step, then up to 8 halvings
            cx, cy = px + scale * dx, py + scale * dy
            model = _bounce_model(ue, bs, (cx, cy))
            if model is not None:
                cand_r, cand_cost = _whitened(path, model[0], sig)
                if cand_cost <= cost:
                    break
            scale *= 0.5
        else:
            e0, e1, e2 = (w[0] * dx + w[1] * dy, w[2] * dx + w[3] * dy,
                          w[4] * dx + w[5] * dy)
            converged = e0 * e0 + e1 * e1 + e2 * e2 < stall * cost
            break
        px, py, r, cost, jac = cx, cy, cand_r, cand_cost, model[1]
        if math.hypot(scale * dx, scale * dy) < tol:
            converged = True
            break

    _, a, b, c = _normal_2x2(jac, sig)
    det = a * c - b * b
    if not (det > 0.0 and (a + c) * (a + c) / det < CONDITION_LIMIT):
        raise DegenerateGeometry("rank-deficient Jacobian at the optimum")
    cov = np.array([[c / det, -b / det], [-b / det, a / det]])
    return LandmarkEstimate(position=np.array([px, py]), covariance=cov,
                            source_path=source_path, converged=converged,
                            iterations=iterations)
