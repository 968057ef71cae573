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
can still win go to ``estimator._best_cell``, which builds their inlier
systems alone, solves, costs and gates them. A cell with too few inliers, or
whose outlier penalty alone exceeds the best gated cost so far, cannot win,
so the pruning is exact: the search returns what evaluating every cell
returns, to the bit.

``benchmark_solve`` is the non-robust reference: every path, NLoS model,
grid search only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DegenerateGeometry, NoFeasibleSolution, TooFewPaths
from .estimator import (
    _best_cell,
    _build_terms,
    _costs,
    _feasibility_mask,
    _outlier_penalty,
    _solve_packed,
    landmark_refine,
    los_orientation,
    nlos_orientation_search,
    orientation_grid,
)
from .geometry import SPEED_OF_LIGHT, NoiseModel, PathMeasurement, Pose, UeState, wrap_angle

_C = SPEED_OF_LIGHT

_CHUNK_ROW_PATHS = 8192
"""Rows (heading x subset cells) times paths evaluated together by the
search; whole subsets are batched, one at least. The minimal-subset stage
takes ~70 bytes per row and path, most of it freed before the survivors are
evaluated, and each surviving row takes ~225 per path for its gathered terms
and system, its residuals and its gate. Even when every row survives, this
bounds the search's working memory at ~1.8 MB on top of the per-path terms,
whatever the snapshot size. The worst chunks of the benchmark corpora pass
about half their rows; most pass a few percent."""


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


def _search(paths, bs, alphas, combos, los_index, n_min, config):
    """Evaluate every (heading, subset) cell; return the winning cell.

    Returns (cost, heading index, subset index, x, inlier_row) of the
    cheapest feasible cell with ties broken by smallest heading index then
    smallest subset index, or None if every cell is infeasible. Subsets
    are evaluated in chunks of whole subsets, each at most
    ``_CHUNK_ROW_PATHS`` cells times paths (one subset at least).

    Each chunk runs in two stages. The minimal-subset stage solves every
    cell and partitions the paths into inliers and outliers at that state.
    Only the cells that can still win go on: those with at least ``n_min``
    inliers whose outlier penalty is not above the best gated cost so far
    (a gated cost is never below its penalty; the test is strict so that a
    tie on an earlier heading still wins). ``_best_cell`` builds and solves
    their inlier systems alone, then costs and gates them. The survivors
    are taken in heading-major order, so the first minimum among them is
    the first minimum of the whole chunk whenever it can beat the running
    best. Every cell's arithmetic is independent of the chunking and of
    which other cells survive.
    """
    alphas = np.asarray(alphas, dtype=float)
    terms = _build_terms(paths, bs, alphas, los_index)
    m, n = terms.nu_sq.shape
    by_path = terms.normal.swapaxes(0, 1)               # (n, M, 9)
    combos = np.asarray(combos)
    gate = (n_min, config.t_nu, config.t_eps)
    step = max(1, _CHUNK_ROW_PATHS // (m * n))
    best = None
    for lo in range(0, len(combos), step):
        x0, ok0 = _solve_packed(by_path[combos[lo:lo + step]].sum(axis=1))
        inlier = (_costs(terms, x0) <= config.t_eps) & ok0[..., None]   # (L, M, n)
        live = inlier.sum(axis=-1) >= n_min
        if best is not None:
            live &= ~(_outlier_penalty(terms.eta, inlier, config.t_eps) > best[0])
        # heading-major: smallest heading, then subset
        h, l = np.nonzero(live.T)
        if h.size == 0:
            continue
        # a survivor has inliers, so its minimal-subset solve passed the gate
        hit = _best_cell(terms, h, inlier[l, h], gate)
        if hit is not None and (best is None or (hit[2], h[hit[0]]) < best[:2]):
            k, x, cost = hit
            best = (cost, int(h[k]), lo + int(l[k]), x.copy(), inlier[l[k], h[k]].copy())
    return best


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
    gate = (n_min, config.t_nu, config.t_eps)
    best = (alpha, x, cost)
    center = alpha
    for _ in range(14):
        probes = center + np.linspace(-width, width, 9)
        terms = _build_terms(paths, bs, probes)
        hit = _best_cell(terms, np.arange(len(probes)),
                         np.broadcast_to(inlier_row, terms.nu_sq.shape), gate)
        if hit is not None and hit[2] < best[2]:
            center = float(probes[hit[0]])
            best = (center, hit[1], hit[2])
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
                 config: RobustConfig = RobustConfig()) -> SlamSolution:
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
    bs = snapshot.bs
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
                        outliers=outliers, hypothesis=hypothesis, cost=cost)


def benchmark_solve(snapshot, noise: NoiseModel = NoiseModel()) -> SlamSolution:
    """Non-robust reference solver: all paths, NLoS model, default heading grid.

    No LoS handling, no outlier rejection, no feasibility gate. Every path
    is treated as a single bounce and refined into a landmark.

    Raises
    ------
    TooFewPaths
        If the snapshot has fewer than 4 paths.
    SingularGeometry
        If every grid heading yields a singular system.
    """
    bs = snapshot.bs
    paths = list(snapshot.paths)
    n = len(paths)
    if n < 4:
        raise TooFewPaths(f"benchmark needs at least 4 paths, got {n}")
    alpha, est = nlos_orientation_search(paths, range(n), orientation_grid(), bs)
    ue = UeState(est.position, wrap_angle(alpha), est.clock_bias)
    landmarks = _refine_landmarks(paths, range(n), ue, bs, noise)
    return SlamSolution(ue=ue, landmarks=landmarks, inliers=tuple(range(n)),
                        outliers=(), hypothesis=Hypothesis.NLOS,
                        cost=est.total_cost)
