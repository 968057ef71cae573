"""Dataset-level evaluation: error metrics, truth-based stripping, sweeps.

Everything here is deterministic given its inputs and seeds; Monte Carlo
randomness comes from counter-based streams so results are reproducible
across runs and process counts.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detector import DEFAULT_T_LOS, mixed_solve
from .errors import (
    DegenerateGeometry,
    EmptyInput,
    MissingTruth,
    NoFeasibleSolution,
    SlamError,
)
from .estimator import _whitened, landmark_refine, path_cost
from .geometry import (_T_NU, NoiseModel, PathLossModel, Pose, UeState, _bounce,
                       measurement_model, wrap_angle)
from .robust import Hypothesis, RobustConfig, SlamSolution, benchmark_solve, robust_solve
from .sim import GroundTruth, Snapshot

_log = logging.getLogger("snapslam")


@dataclass(frozen=True)
class ErrorRecord:
    """Per-snapshot solution errors against truth.

    ``heading_error`` is radians and ``bias_error`` seconds (internal units);
    file writers convert to degrees / nanoseconds. ``solve_time`` is seconds
    of wall clock around the solver call only.
    """

    snapshot_id: str
    position_error: float
    heading_error: float
    bias_error: float
    solve_time: float
    hypothesis_decided: Hypothesis
    hypothesis_true: Hypothesis


def make_error_record(snapshot: Snapshot, solution: SlamSolution,
                      solve_time: float = float("nan")) -> ErrorRecord:
    """Errors of one solution against the snapshot's truth.

    Raises
    ------
    MissingTruth
        If the snapshot has no truth attached.
    """
    if snapshot.truth is None:
        raise MissingTruth(f"snapshot {snapshot.id} has no truth")
    true_ue = snapshot.truth.ue
    pos_err = math.hypot(*(solution.ue.position - true_ue.position))
    head_err = abs(wrap_angle(solution.ue.orientation - true_ue.orientation))
    bias_err = abs(solution.ue.clock_bias - true_ue.clock_bias)
    true_hyp = Hypothesis.LOS if snapshot.truth.has_los else Hypothesis.NLOS
    return ErrorRecord(snapshot_id=snapshot.id, position_error=pos_err,
                       heading_error=head_err, bias_error=bias_err,
                       solve_time=solve_time,
                       hypothesis_decided=solution.hypothesis,
                       hypothesis_true=true_hyp)


def rmse(records: Sequence[ErrorRecord]) -> tuple[float, float, float]:
    """Root mean square (position m, heading rad, bias s) over records.

    Raises
    ------
    EmptyInput
        If ``records`` is empty.
    """
    if not records:
        raise EmptyInput("no records")
    arr = np.array([[r.position_error, r.heading_error, r.bias_error]
                    for r in records])
    out = np.sqrt(np.mean(arr * arr, axis=0))
    return float(out[0]), float(out[1]), float(out[2])


STRIP_CHI2_LOS = 11.344866730144373
"""Chi-square 0.99 quantile, 3 dof: a LoS path's residual at the true state."""

STRIP_CHI2_BOUNCE = 6.6348966010212145
"""Chi-square 0.99 quantile, 1 dof: 3 bounce residuals less the 2-D landmark fit."""


def strip_outliers_by_truth(snapshot: Snapshot, noise: NoiseModel = NoiseModel()) -> Snapshot:
    """Drop paths whose best single-bounce fit at the true state misfits.

    Each truth-labeled LoS path is scored against the LoS model directly;
    every other path gets a Gauss-Newton landmark fit at the true state and
    is scored at the fitted point. Paths whose squared Mahalanobis residual
    exceeds the 0.99 chi-square quantile of its degrees of freedom
    (``STRIP_CHI2_LOS``, ``STRIP_CHI2_BOUNCE``) are removed, together with
    their truth entries, so noise alone strips about 1 true path in 100.

    Raises
    ------
    MissingTruth
        If the snapshot has no truth attached.
    EmptyInput
        If stripping would remove every path.
    """
    if snapshot.truth is None:
        raise MissingTruth(f"snapshot {snapshot.id} has no truth")
    truth = snapshot.truth
    ue, bs = truth.ue, snapshot.bs
    keep = []
    for i, path in enumerate(snapshot.paths):
        if truth.labels[i] == "los":
            h, gate = measurement_model(ue, bs, None), STRIP_CHI2_LOS
        else:
            try:
                h = measurement_model(ue, bs, landmark_refine(path, ue, bs, noise).position)
            except DegenerateGeometry:
                continue
            gate = STRIP_CHI2_BOUNCE
        if _whitened(path, h, noise.sigmas)[1] <= gate:
            keep.append(i)
    if not keep:
        raise EmptyInput("stripping removed every path")
    truth_kept = GroundTruth(ue=ue,
                             labels=tuple(truth.labels[i] for i in keep),
                             incidence=tuple(truth.incidence[i] for i in keep))
    return Snapshot(id=snapshot.id, bs=bs,
                    paths=tuple(snapshot.paths[i] for i in keep),
                    truth=truth_kept)


def is_single_bounce_consistent(path, ue_true: UeState, bs: Pose,
                                t_eps: float = RobustConfig.t_eps) -> bool:
    """Whether a path fits the single-bounce model at the true state.

    Requires both a small projected residual and a bounce fraction inside
    [0, 1], the fraction being defined only where ||u + v||^2 exceeds
    ``geometry._T_NU``. Multi-bounce paths passing this test are
    indistinguishable from single bounces at this snapshot and are expected
    to be absorbed as inliers.

    Raises
    ------
    ValueError
        If ``t_eps`` is not finite and strictly positive, as ``RobustConfig``
        rules.
    """
    RobustConfig(t_eps=t_eps)
    cost = path_cost(path, ue_true.position, ue_true.clock_bias,
                     ue_true.orientation, bs)
    _, _, s, d, gam = _bounce(ue_true, path, bs)
    return cost <= t_eps and s > _T_NU and d != 0.0 and 0.0 <= gam <= 1.0


@dataclass(frozen=True)
class ClassificationReport:
    """Selected-inlier set versus the truth labels of one snapshot.

    ``expected`` holds the indices labeled los/single; ``extra``/``missing``
    are the symmetric difference with the solution's inliers; ``consistent_extra``
    the subset of extras that are multi-bounce and pass the single-bounce
    consistency test. ``exact`` means no extra and no missing path;
    ``acceptable`` relaxes it to allow the absorption of consistent
    multi-bounce paths.
    """

    expected: tuple
    selected: tuple
    extra: tuple
    missing: tuple
    consistent_extra: tuple
    exact: bool
    acceptable: bool


def classification_report(solution: SlamSolution, snapshot: Snapshot,
                          t_eps: float = RobustConfig.t_eps) -> ClassificationReport:
    """Compare a solution's inlier set against the snapshot's truth labels.

    Raises
    ------
    ValueError
        If ``t_eps`` is not finite and strictly positive, as
        ``RobustConfig`` rules; checked before any path is looked at.
    MissingTruth
        If the snapshot has no truth attached.
    """
    RobustConfig(t_eps=t_eps)
    if snapshot.truth is None:
        raise MissingTruth(f"snapshot {snapshot.id} has no truth")
    truth = snapshot.truth
    expected = tuple(i for i, lab in enumerate(truth.labels) if lab in ("los", "single"))
    selected = tuple(solution.inliers)
    extra = tuple(i for i in selected if i not in expected)
    missing = tuple(i for i in expected if i not in selected)
    consistent_extra = tuple(
        i for i in extra
        if truth.labels[i] == "multi"
        and is_single_bounce_consistent(snapshot.paths[i], truth.ue, snapshot.bs, t_eps))
    exact = not extra and not missing
    acceptable = not missing and extra == consistent_extra
    return ClassificationReport(expected=expected, selected=selected,
                                extra=extra, missing=missing,
                                consistent_extra=consistent_extra,
                                exact=exact, acceptable=acceptable)


MODES = ("robust_mixed", "robust_h0", "robust_h1", "benchmark")


def solve_snapshot(snapshot: Snapshot, mode: str,
                   config: RobustConfig = RobustConfig(),
                   model: PathLossModel = PathLossModel(),
                   threshold: float = DEFAULT_T_LOS):
    """Dispatch one snapshot to a solver mode.

    Returns (solution, detection) where detection is None for every mode but
    robust_mixed.
    """
    if mode == "robust_mixed":
        return mixed_solve(snapshot, config, model, threshold)
    if mode == "robust_h0":
        return robust_solve(snapshot, Hypothesis.LOS, config), None
    if mode == "robust_h1":
        return robust_solve(snapshot, Hypothesis.NLOS, config), None
    if mode == "benchmark":
        return benchmark_solve(snapshot, noise=config.noise), None
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


@dataclass(frozen=True)
class SweepResult:
    """RMSE of the mixed pipeline versus the LoS detection probability.

    One RMSE (m) per grid probability, pooled over trials and snapshots;
    ``rmse_excluding`` repeats the curve with the exclusion list applied
    (identical to ``rmse`` when nothing is excluded).
    """

    p_grid: tuple
    rmse: tuple
    rmse_excluding: tuple
    trials: int


_MAX_COINS = 2 ** 24
"""Most coins, trials times snapshots, that ``los_sensitivity_sweep`` draws:
128 MB of doubles, and each grid point builds three arrays of that many
cells on top. Checked before any snapshot is solved, so an oversized
``trials`` fails at once rather than in a ``MemoryError`` after every
solve."""


def los_sensitivity_sweep(snapshots: Sequence[Snapshot],
                          config: RobustConfig = RobustConfig(),
                          p_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
                          trials: int = 1000, seed: int = 0,
                          exclude_ids=()) -> SweepResult:
    """Position RMSE as a function of the LoS detection probability.

    Replaces the gain detector with a synthetic coin: per trial and per
    LoS-truth snapshot, the LoS-hypothesis branch is taken with probability
    p, the NLoS-hypothesis branch otherwise; NLoS-truth snapshots always
    take the NLoS branch. Both branch solutions are deterministic, so they
    are solved once per snapshot and reused across all trials and grid
    points; the coin matrix comes from one counter-based Philox stream keyed
    on ``seed`` (trials x snapshots, row-major), shared by every grid point.

    A snapshot whose forced branch fails falls back to the other branch; a
    snapshot where both branches fail is dropped from the sweep. So the LoS
    branch of an NLoS-truth snapshot, which no coin takes, is solved only
    when its NLoS branch fails.

    Raises
    ------
    ValueError
        If ``trials`` is below 1 or times the snapshot count exceeds
        ``_MAX_COINS``, a grid probability lies outside [0, 1], or an
        id of ``exclude_ids`` names no snapshot of ``snapshots``.
    EmptyInput
        If no snapshot is usable.
    MissingTruth
        If any snapshot lacks truth.
    """
    p_grid = tuple(float(p) for p in p_grid)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not snapshots:
        raise EmptyInput("no snapshots")
    if trials * len(snapshots) > _MAX_COINS:
        raise ValueError(f"{trials} trials x {len(snapshots)} snapshots > {_MAX_COINS} coins")
    if any(not 0.0 <= p <= 1.0 for p in p_grid):
        raise ValueError("grid probabilities must lie in [0, 1]")
    exclude = set(exclude_ids)
    unknown = exclude.difference(snap.id for snap in snapshots)
    if unknown:
        raise ValueError(f"exclude_ids name no snapshot: {', '.join(sorted(unknown))}")

    err_los, err_nlos, los_truth, ids = [], [], [], []
    for snap in snapshots:
        if snap.truth is None:
            raise MissingTruth(f"snapshot {snap.id} has no truth")
        truth_pos = snap.truth.ue.position

        def branch_error(hyp):
            try:
                sol = robust_solve(snap, hyp, config)
            except NoFeasibleSolution:
                return None
            return math.hypot(*(sol.ue.position - truth_pos))

        e1 = branch_error(Hypothesis.NLOS)
        e0 = branch_error(Hypothesis.LOS) if snap.truth.has_los or e1 is None else e1
        if e0 is None and e1 is None:
            continue
        err_los.append(e0 if e0 is not None else e1)
        err_nlos.append(e1 if e1 is not None else e0)
        los_truth.append(snap.truth.has_los)
        ids.append(snap.id)
    if not ids:
        raise EmptyInput("no usable snapshots")

    e0 = np.array(err_los)
    e1 = np.array(err_nlos)
    los = np.array(los_truth)
    coins = np.random.Generator(np.random.Philox(key=seed)).random((trials, len(ids)))
    include = np.array([sid not in exclude for sid in ids])

    def curve(col_mask):
        if not col_mask.any():
            return tuple(float("nan") for _ in p_grid)
        vals = []
        for p in p_grid:
            take_los = los[None, :] & (coins < p)
            err = np.where(take_los, e0[None, :], e1[None, :])
            err = err[:, col_mask]
            vals.append(float(np.sqrt(np.mean(err * err))))
        return tuple(vals)

    return SweepResult(p_grid=p_grid, rmse=curve(np.ones(len(ids), dtype=bool)),
                       rmse_excluding=curve(include), trials=trials)


def run_snapshot(snapshot: Snapshot, mode: str,
                 config: RobustConfig = RobustConfig(),
                 model: PathLossModel = PathLossModel(),
                 threshold: float = DEFAULT_T_LOS):
    """Solve and time one snapshot; never raises for a failed solve.

    Returns (result, elapsed, error): on success the (solution, detection)
    of ``solve_snapshot``, seconds of wall clock around that call and None;
    on any exception (None, None, "Type: message"). An exception that is
    not a ``SlamError`` also logs its traceback to the ``snapslam`` logger.
    """
    start = time.perf_counter()
    try:
        result = solve_snapshot(snapshot, mode, config, model, threshold)
    except Exception as exc:
        # one snapshot's failure, expected or not, must not end the run
        if not isinstance(exc, SlamError):
            _log.exception("snapshot %s: unexpected error", snapshot.id)
        return None, None, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - start, None
