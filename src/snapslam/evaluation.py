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

from .detector import DEFAULT_T_LOS, PathLossModel, mixed_solve
from .errors import (
    DegenerateGeometry,
    EmptyInput,
    MissingTruth,
    NearParallel,
    NoFeasibleSolution,
    SingularGeometry,
    SlamError,
    TooFewPaths,
)
from .estimator import landmark_refine, path_cost
from .geometry import NoiseModel, Pose, UeState, bounce_fraction, measurement_model, wrap_angle
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
    pos_err = float(np.hypot(*(solution.ue.position - true_ue.position)))
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


def error_cdf(records: Sequence[ErrorRecord]) -> list[tuple[float, float]]:
    """Empirical CDF of the position error: sorted (error, fraction <=) pairs.

    Raises
    ------
    EmptyInput
        If ``records`` is empty.
    """
    if not records:
        raise EmptyInput("no records")
    errs = sorted(r.position_error for r in records)
    n = len(errs)
    return [(e, (k + 1) / n) for k, e in enumerate(errs)]


def _mahalanobis_sq(z, h, noise: NoiseModel) -> float:
    r = np.array([z[0] - h[0], wrap_angle(z[1] - h[1]), wrap_angle(z[2] - h[2])])
    r /= noise.sigmas
    return float(r @ r)


def strip_outliers_by_truth(snapshot: Snapshot, noise: NoiseModel = NoiseModel()) -> Snapshot:
    """Drop paths whose best single-bounce fit at the true state misfits.

    Each truth-labeled LoS path is scored against the LoS model directly;
    every other path gets a Gauss-Newton landmark fit at the true state and
    is scored at the fitted point. Paths with squared Mahalanobis residual
    above 3 are removed, together with their truth entries.

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
        z = (path.toa, path.aod, path.aoa)
        if truth.labels[i] == "los":
            h = measurement_model(ue, bs, None)
            m2 = _mahalanobis_sq(z, h, noise)
        else:
            try:
                lm = landmark_refine(path, ue, bs, noise)
                h = measurement_model(ue, bs, lm.position)
                m2 = _mahalanobis_sq(z, h, noise)
            except (DegenerateGeometry, NearParallel):
                m2 = math.inf
        if m2 <= 3.0:
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
                                t_eps: float = RobustConfig.t_eps,
                                t_nu: float = RobustConfig.t_nu) -> bool:
    """Whether a path fits the single-bounce model at the true state.

    Requires both a small projected residual and a bounce fraction inside
    [0, 1]. Multi-bounce paths passing this test are indistinguishable from
    single bounces at this snapshot and are expected to be absorbed as
    inliers.
    """
    cost = path_cost(path, ue_true.position, ue_true.clock_bias,
                     ue_true.orientation, bs)
    if not cost <= t_eps:
        return False
    try:
        gam = bounce_fraction(ue_true, path, bs, t_nu)
    except (NearParallel, DegenerateGeometry):
        return False
    return 0.0 <= gam <= 1.0


@dataclass(frozen=True)
class ClassificationReport:
    """Selected-inlier set versus the truth labels of one snapshot.

    ``expected`` holds the indices labeled los/single; ``extra``/``missing``
    are the symmetric difference with the solution's inliers; ``consistent_extra``
    the subset of extras that are multi-bounce and pass the single-bounce
    consistency test. ``acceptable`` is exactness, optionally relaxed to
    allow consistent multi-bounce absorption (reporting choice flag).
    """

    expected: tuple
    selected: tuple
    extra: tuple
    missing: tuple
    consistent_extra: tuple
    exact: bool
    acceptable: bool


def classification_report(solution: SlamSolution, snapshot: Snapshot,
                          t_eps: float = RobustConfig.t_eps,
                          t_nu: float = RobustConfig.t_nu,
                          count_consistent_as_errors: bool = False) -> ClassificationReport:
    """Compare a solution's inlier set against the snapshot's truth labels.

    Raises
    ------
    MissingTruth
        If the snapshot has no truth attached.
    """
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
        and is_single_bounce_consistent(snapshot.paths[i], truth.ue, snapshot.bs,
                                        t_eps, t_nu))
    exact = not extra and not missing
    if count_consistent_as_errors:
        acceptable = exact
    else:
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
    snapshot where both branches fail is dropped from the sweep.

    Raises
    ------
    ValueError
        If ``trials`` is below 1 or a grid probability lies outside [0, 1].
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
    if any(not 0.0 <= p <= 1.0 for p in p_grid):
        raise ValueError("grid probabilities must lie in [0, 1]")

    err_los, err_nlos, los_truth, ids = [], [], [], []
    for snap in snapshots:
        if snap.truth is None:
            raise MissingTruth(f"snapshot {snap.id} has no truth")
        truth_pos = snap.truth.ue.position

        def branch_error(hyp):
            try:
                sol = robust_solve(snap, hyp, config)
            except (NoFeasibleSolution, SingularGeometry, TooFewPaths):
                return None
            return float(np.hypot(*(sol.ue.position - truth_pos)))

        e0 = branch_error(Hypothesis.LOS)
        e1 = branch_error(Hypothesis.NLOS)
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
    include = np.array([sid not in set(exclude_ids) for sid in ids])

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


def evaluate_dataset(snapshots: Sequence[Snapshot], mode: str,
                     config: RobustConfig = RobustConfig(),
                     model: PathLossModel = PathLossModel(),
                     threshold: float = DEFAULT_T_LOS):
    """Solve every snapshot in one mode with ``run_snapshot``.

    Returns (results, records, failures): per-snapshot (solution, detection)
    tuples (None where solving failed), ErrorRecords for solved snapshots
    having truth, and (snapshot_id, error message) pairs for failures.
    """
    results, records, failures = [], [], []
    for snap in snapshots:
        result, elapsed, error = run_snapshot(snap, mode, config, model, threshold)
        results.append(result)
        if error is not None:
            failures.append((snap.id, error))
        elif snap.truth is not None:
            records.append(make_error_record(snap, result[0], elapsed))
    return results, records, failures
