"""Outlier-robust snapshot solving.

The solver does not know which paths are line-of-sight, single-bounce, or
higher-order reflections. It hypothesizes a propagation condition (LoS
available or not), enumerates minimal path subsets, solves each on a heading
grid, re-partitions all paths into inliers/outliers by their per-path cost at
the minimal-set estimate, re-solves on the inliers, gates the result with
physical feasibility checks, and keeps the cheapest feasible cell. Excluded
paths pay a fixed per-path penalty so that explaining a path is never worse
than discarding it.

The search is batched over headings and subsets together: it takes whole
subsets in chunks of at most ``_CHUNK_ROW_PATHS`` (heading x subset) cells
times paths, which caps its working memory at about a megabyte whatever the
path count, and solves every cell's 3x3 normal system elementwise (see
``estimator.CONDITION_LIMIT``). Each chunk runs in two stages, as a RANSAC
hypothesize-and-verify loop does (Fischler & Bolles, CACM 1981): every cell
gets its minimal-subset solve and inlier partition, but only the cells that
can still win are re-solved on their inliers, costed and gated. A cell with
too few inliers, or whose outlier penalty alone exceeds the best gated cost
so far, cannot win, so the pruning is exact: the search returns what
evaluating every cell returns, to the bit.

``benchmark_solve`` is the non-robust reference: every path, NLoS model,
grid search only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateGeometry, NoFeasibleSolution, SingularGeometry, TooFewPaths
from .estimator import (
    LandmarkEstimate,
    _build_terms,
    _costs,
    _gammas,
    _member_systems,
    _residuals,
    _solve_members,
    _solve_packed,
    _take_rows,
    _weighted_total,
    landmark_refine,
    los_orientation,
    orientation_grid,
)
from .geometry import SPEED_OF_LIGHT, NoiseModel, PathMeasurement, Pose, UeState, wrap_angle

_C = SPEED_OF_LIGHT

_CHUNK_ROW_PATHS = 8192
"""Rows (heading x subset cells) times paths evaluated together by the
search; whole subsets are batched, one at least. The minimal-subset stage
keeps ~25 bytes per row and path alive across the chunk, and each surviving
row adds ~90 more per path for its gathered terms and its gate. Even when
every row survives, this bounds the search's working memory at ~0.9 MB on
top of the per-path terms, whatever the snapshot size. The worst chunks of
the benchmark corpora pass about half their rows; most pass a few percent."""

_SURVIVOR_BLOCK = 32
"""The cells that reach the inlier re-solve are padded to a multiple of
this many, with copies of the last one, so that the re-solve's arrays come
in few sizes. NumPy keeps up to seven freed buffers of each size below
1 KiB for reuse; survivor counts of every size fill that cache, which held
~0.45 MB after three passes over the field_nlos corpus without padding and
~0.08 MB with it."""


class Hypothesis(Enum):
    """Propagation condition the solver conditions on."""

    LOS = "los"
    NLOS = "nlos"


def minimal_counts(hypothesis: Hypothesis) -> tuple[int, int]:
    """(LoS paths, single-bounce paths) in a minimal identifiable subset.

    One LoS plus one bounce when LoS is assumed available; four bounces
    otherwise (the heading comes from the grid, not from data closed-form).
    """
    if hypothesis is Hypothesis.LOS:
        return 1, 1
    return 0, 4


@dataclass(frozen=True)
class RobustConfig:
    """Knobs of the robust search.

    t_eps : inlier threshold on the per-path squared projected residual, m^2;
        also the per-path penalty charged for each excluded path.
    t_nu : near-parallel threshold on ||u + v||^2 under which the bounce
        fraction of the earliest inlier is not range-checked.
    grid_size : number of heading grid points under the NLoS hypothesis.
    noise : measurement noise model used for landmark refinement.
    """

    t_eps: float = 0.1
    t_nu: float = 0.1
    grid_size: int = 361
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        if not (self.t_eps > 0.0 and self.t_nu > 0.0):
            raise ValueError("thresholds must be strictly positive")
        if self.grid_size < 1:
            raise ValueError("grid_size must be >= 1")


@dataclass(frozen=True)
class SlamSolution:
    """Joint snapshot solution.

    ``landmarks`` holds one refined LandmarkEstimate per inlier treated as a
    bounce (``source_path`` identifies the path). ``inliers`` / ``outliers``
    are sorted path-index tuples partitioning the snapshot. ``cost`` is the
    winning cell's total: weighted inlier costs plus the per-path penalty for
    each outlier.
    """

    ue: UeState
    landmarks: tuple
    inliers: tuple
    outliers: tuple
    hypothesis: Hypothesis
    cost: float
    feasible: bool = True


def enumerate_combinations(n_paths: int, hypothesis: Hypothesis,
                           los_candidate: int = 0) -> list[tuple[int, ...]]:
    """Minimal path subsets to try, in deterministic lexicographic order.

    Under LOS each subset pairs the LoS candidate with one other path;
    under NLOS every 4-subset of the path indices is tried.

    Raises
    ------
    TooFewPaths
        If ``n_paths`` is below the minimal subset size.
    """
    n_los, n_nlos = minimal_counts(hypothesis)
    n_min = n_los + n_nlos
    if n_paths < n_min:
        raise TooFewPaths(f"need at least {n_min} paths, got {n_paths}")
    if hypothesis is Hypothesis.LOS:
        if not 0 <= los_candidate < n_paths:
            raise ValueError("los_candidate out of range")
        return [tuple(sorted((los_candidate, i)))
                for i in range(n_paths) if i != los_candidate]
    return list(itertools.combinations(range(n_paths), n_nlos))


def _feasibility_mask(terms, x: np.ndarray, inlier: np.ndarray, n_min: int,
                      t_nu: float, r: Optional[np.ndarray] = None) -> np.ndarray:
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


def feasibility_check(position, clock_bias: float, alpha_ue: float, inliers,
                      paths: Sequence[PathMeasurement], bs: Pose,
                      hypothesis: Hypothesis,
                      config: RobustConfig = RobustConfig()) -> bool:
    """Physical feasibility of a candidate state and inlier set.

    Scalar entry point over the same rules the search applies per cell.
    """
    idx = sorted(int(i) for i in inliers)
    n_los, n_nlos = minimal_counts(hypothesis)
    terms = _build_terms(paths, bs, np.array([float(alpha_ue)]), None)
    mask = np.zeros((1, len(paths)), dtype=bool)
    mask[0, idx] = True
    x = np.array([[position[0], position[1], _C * clock_bias]])
    return bool(_feasibility_mask(terms, x, mask, n_los + n_nlos, config.t_nu)[0])


def _outlier_penalty(eta, member, t_eps):
    """Per-path penalty summed over each row's outliers, (..., M)."""
    return ((1.0 - member) * eta).sum(axis=-1) * t_eps


def _gated_cost(terms, x, ok, inlier, n_min, config):
    """Gated cost of each row's (state, inlier set), (..., M).

    Weighted inlier costs plus the per-path penalty for each outlier;
    infinite where the solve failed (``ok`` False) or the feasibility gate
    rejects the row. The weighted costs are non-negative, so a row's gated
    cost is never below its ``_outlier_penalty``.
    """
    member = inlier.astype(float)
    r = _residuals(terms, x)
    cost = (_weighted_total(_costs(terms, x, r), terms.eta, member)
            + _outlier_penalty(terms.eta, member, config.t_eps))
    feasible = _feasibility_mask(terms, x, inlier, n_min, config.t_nu, r) & ok
    with np.errstate(invalid="ignore"):
        return np.where(feasible & np.isfinite(cost), cost, np.inf)


def _search(paths, bs, alphas, combos, los_index, n_min, config):
    """Evaluate every (heading, subset) cell; return the winning cell.

    Returns (cost, heading index, subset index, x, inlier_row) of the
    cheapest feasible cell with ties broken by smallest heading index then
    smallest subset index, or None if every cell is infeasible. Subsets
    are evaluated in chunks of whole subsets, each at most
    ``_CHUNK_ROW_PATHS`` cells times paths (one subset at least).

    Each chunk runs in two stages. The minimal-subset stage solves every
    cell and partitions the paths into inliers and outliers at that state.
    Only the cells that can still win go on to the inlier re-solve, cost
    and feasibility gate: those with at least ``n_min`` inliers whose
    outlier penalty is not above the best gated cost so far (a gated cost
    is never below its penalty; the test is strict so that a tie on an
    earlier heading still wins). The survivors are taken in heading-major
    order, so the first minimum among them is the first minimum of the
    whole chunk whenever it can beat the running best. Every cell's
    arithmetic is independent of the chunking and of which other cells
    survive.
    """
    alphas = np.asarray(alphas, dtype=float)
    terms = _build_terms(paths, bs, alphas, los_index)
    m, n = terms.nu_sq.shape
    by_path = terms.normal.swapaxes(0, 1)               # (n, M, 9)
    combos = np.asarray(combos)
    step = max(1, _CHUNK_ROW_PATHS // (m * n))
    best = None
    for lo in range(0, len(combos), step):
        x0, ok0 = _solve_packed(by_path[combos[lo:lo + step]].sum(axis=1))
        inlier = (_costs(terms, x0) <= config.t_eps) & ok0[..., None]   # (L, M, n)
        member = inlier.astype(float)
        live = inlier.sum(axis=-1) >= n_min
        if best is not None:
            live &= ~(_outlier_penalty(terms.eta, member, config.t_eps) > best[0])
        # heading-major: smallest heading, then subset
        h, l = np.nonzero(live.T)
        if h.size == 0:
            continue
        # trailing copies of the last survivor cannot be a first minimum
        pad = np.minimum(np.arange(-(-h.size // _SURVIVOR_BLOCK) * _SURVIVOR_BLOCK),
                         h.size - 1)
        h, l = h[pad], l[pad]
        # a survivor has inliers, so its minimal-subset solve passed the gate
        x1, ok1 = _solve_packed(_member_systems(terms, member)[l, h])
        inlier = inlier[l, h]
        cost = _gated_cost(_take_rows(terms, h), x1, ok1, inlier, n_min, config)
        k = int(np.argmin(cost))
        if cost[k] < math.inf and (best is None or (float(cost[k]), h[k]) < best[:2]):
            best = (float(cost[k]), int(h[k]), lo + int(l[k]), x1[k].copy(),
                    inlier[k].copy())
    return best


def _fixed_set_scan(paths, bs, alphas, inlier_row, los_index, n_min, config):
    """Cheapest feasible heading for a frozen inlier set, or None.

    Same solve, cost, and gate as one search cell, but the membership is
    given instead of re-partitioned, so results are comparable with the
    winning cell's cost.
    """
    alphas = np.asarray(alphas, dtype=float)
    inlier = np.broadcast_to(inlier_row[None, :], (len(alphas), inlier_row.size))
    terms = _build_terms(paths, bs, alphas, los_index)
    x, ok = _solve_members(terms, inlier.astype(float))
    cost = _gated_cost(terms, x, ok, inlier, n_min, config)
    k = int(np.argmin(cost))
    if not np.isfinite(cost[k]):
        return None
    return float(alphas[k]), x[k], float(cost[k])


def _polish_heading(paths, bs, alpha, x, cost, inlier_row, n_min, config):
    """Shrink the heading past grid resolution around the winning cell.

    The grid argmin lands within one step of the continuous optimum, so a
    multi-resolution scan over one step each side with the cell's inlier set
    frozen removes the quantization. A probe is adopted only when it is
    feasible and strictly cheaper, so this never worsens the grid answer.
    """
    if config.grid_size < 2:
        return alpha, x, cost
    width = 2.0 * math.pi / (config.grid_size - 1)
    best = (alpha, x, cost)
    center = alpha
    for _ in range(14):
        probes = center + np.linspace(-width, width, 9)
        hit = _fixed_set_scan(paths, bs, probes, inlier_row, None, n_min, config)
        if hit is not None and hit[2] < best[2]:
            best = hit
            center = hit[0]
        width /= 4.0
    return best


def _refine_landmarks(paths, inlier_indices, ue, bs, noise, skip=()):
    # A path that fits the direct-path geometry has no identifiable bounce
    # point (any point on the segment explains it); skip those silently.
    out = []
    for i in inlier_indices:
        if i in skip:
            continue
        try:
            out.append(landmark_refine(paths[i], ue, bs, noise, source_path=i))
        except DegenerateGeometry:
            continue
    return tuple(out)


def robust_solve(snapshot, hypothesis: Hypothesis,
                 config: RobustConfig = RobustConfig(),
                 bs: Optional[Pose] = None) -> SlamSolution:
    """Robust snapshot solution under a fixed propagation hypothesis.

    Under LOS the earliest path is the LoS candidate, the heading comes in
    closed form from it, and minimal subsets pair it with one other path.
    Under NLOS the heading is grid-searched, minimal subsets are all
    4-subsets, and the winning heading is refined past grid resolution with
    the cell's inlier set held fixed. See the module docstring for the
    search itself.

    Raises
    ------
    NoFeasibleSolution
        If no (heading, subset) cell passes the feasibility gate, including
        the trivial case of fewer paths than the minimal subset size.
    """
    bs = bs if bs is not None else snapshot.bs
    paths = list(snapshot.paths)
    n = len(paths)
    n_los, n_nlos = minimal_counts(hypothesis)
    n_min = n_los + n_nlos
    if n < n_min:
        raise NoFeasibleSolution(f"need at least {n_min} paths, got {n}")
    if hypothesis is Hypothesis.LOS:
        candidate = int(np.argmin([p.toa for p in paths]))
        alphas = np.array([los_orientation(paths[candidate], bs)])
        combos = enumerate_combinations(n, hypothesis, candidate)
        los_index = candidate
    else:
        candidate = None
        alphas = orientation_grid(config.grid_size)
        combos = enumerate_combinations(n, hypothesis)
        los_index = None

    best = _search(paths, bs, alphas, combos, los_index, n_min, config)
    if best is None:
        raise NoFeasibleSolution("every (heading, subset) cell failed feasibility")
    cost, h, _, x, inlier_row = best
    alpha = float(alphas[h])
    if hypothesis is Hypothesis.NLOS:
        alpha, x, cost = _polish_heading(paths, bs, alpha, x, cost, inlier_row,
                                         n_min, config)
    ue = UeState(x[:2].copy(), wrap_angle(alpha), float(x[2]) / _C)
    inliers = tuple(int(i) for i in np.flatnonzero(inlier_row))
    outliers = tuple(int(i) for i in np.flatnonzero(~inlier_row))
    skip = (candidate,) if hypothesis is Hypothesis.LOS else ()
    landmarks = _refine_landmarks(paths, inliers, ue, bs, config.noise, skip)
    return SlamSolution(ue=ue, landmarks=landmarks, inliers=inliers,
                        outliers=outliers, hypothesis=hypothesis, cost=cost,
                        feasible=True)


def benchmark_solve(snapshot, grid=None, bs: Optional[Pose] = None,
                    noise: NoiseModel = NoiseModel()) -> SlamSolution:
    """Non-robust reference solver: all paths, NLoS model, grid search.

    No LoS handling, no outlier rejection, no feasibility gate. Every path
    is treated as a single bounce and refined into a landmark.

    Raises
    ------
    TooFewPaths
        If the snapshot has fewer than 4 paths.
    SingularGeometry
        If every grid heading yields a singular system.
    """
    bs = bs if bs is not None else snapshot.bs
    paths = list(snapshot.paths)
    n = len(paths)
    if n < 4:
        raise TooFewPaths(f"benchmark needs at least 4 paths, got {n}")
    alphas = orientation_grid() if grid is None else np.asarray(grid, dtype=float)
    terms = _build_terms(paths, bs, alphas, None)
    member = np.ones((len(alphas), n))
    x, ok = _solve_members(terms, member)
    costs = _costs(terms, x)
    total = _weighted_total(costs, terms.eta, member)
    with np.errstate(invalid="ignore"):
        total = np.where(ok & np.isfinite(total), total, np.inf)
    m = int(np.argmin(total))
    if not np.isfinite(total[m]):
        raise SingularGeometry("no grid heading yields an invertible system")
    ue = UeState(x[m, :2].copy(), wrap_angle(float(alphas[m])), float(x[m, 2]) / _C)
    landmarks = _refine_landmarks(paths, range(n), ue, bs, noise)
    return SlamSolution(ue=ue, landmarks=landmarks, inliers=tuple(range(n)),
                        outliers=(), hypothesis=Hypothesis.NLOS,
                        cost=float(total[m]), feasible=True)
