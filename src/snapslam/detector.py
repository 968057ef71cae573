"""Line-of-sight availability detection from path gain.

The earliest path of a snapshot is always the LoS candidate. If LoS is truly
available its gain should match a distance-dependent dB model evaluated at
the estimated user position; a bounce masquerading as LoS traveled further
and carries extra reflection loss, so its gain is inconsistent with the
straight-line distance. The detection statistic is the Gaussian negative log
likelihood of the candidate's dB gain under the model, compared against a
fixed threshold.

``mixed_solve`` chains the LoS-hypothesis solve, the gain test, and the
NLoS-hypothesis fallback into the full pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, NoFeasibleSolution, TooFewPaths
from .geometry import Pose
from .robust import Hypothesis, RobustConfig, SlamSolution, robust_solve

DEFAULT_T_LOS = 10.8
"""Default decision threshold on the negative log likelihood statistic."""


@dataclass(frozen=True)
class PathLossModel:
    """Distance model of the LoS gain in dB.

    mean(d) = l0_db + 10 * zeta * log10(d), with Gaussian scatter sigma_db.
    """

    l0_db: float = 13.0
    zeta: float = 1.7
    sigma_db: float = 1.8

    def __post_init__(self):
        if not (math.isfinite(self.sigma_db) and self.sigma_db > 0.0):
            raise ValueError("sigma_db must be finite and strictly positive")
        if not (math.isfinite(self.l0_db) and math.isfinite(self.zeta)):
            raise ValueError("l0_db and zeta must be finite")


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of the LoS test.

    ``decided`` is LOS iff ``statistic <= threshold``. ``candidate`` is the
    index of the tested (earliest) path; -1 when unknown.
    """

    decided: Hypothesis
    statistic: float
    threshold: float
    candidate: int = -1


def path_loss_mean(distance: float, model: PathLossModel = PathLossModel()) -> float:
    """Model mean of the LoS gain in dB at a given distance (m).

    Raises
    ------
    DegenerateGeometry
        If ``distance`` is not strictly positive.
    """
    if not distance > 0.0:
        raise DegenerateGeometry("distance must be strictly positive")
    return model.l0_db + 10.0 * model.zeta * math.log10(distance)


def los_test(gain_db: float, estimated_position, bs: Pose,
             model: PathLossModel = PathLossModel(),
             threshold: float = DEFAULT_T_LOS, candidate: int = -1) -> DetectionResult:
    """Gaussian NLL test of a candidate gain against the distance model.

    ``gain_db`` is the candidate path's gain in dB; ``estimated_position``
    the user position estimate the straight-line distance is taken to.
    """
    p = np.asarray(estimated_position, dtype=float)
    dist = float(np.hypot(*(bs.position - p)))
    mean = path_loss_mean(dist, model)
    z = (gain_db - mean) / model.sigma_db
    statistic = 0.5 * (math.log(2.0 * math.pi * model.sigma_db ** 2) + z * z)
    decided = Hypothesis.LOS if statistic <= threshold else Hypothesis.NLOS
    return DetectionResult(decided=decided, statistic=statistic,
                           threshold=threshold, candidate=candidate)


def mixed_solve(snapshot, config: RobustConfig = RobustConfig(),
                model: PathLossModel = PathLossModel(),
                threshold: float = DEFAULT_T_LOS) -> tuple[SlamSolution, DetectionResult]:
    """Full pipeline: LoS-hypothesis solve, gain test, NLoS fallback.

    The LoS-hypothesis branch runs first; if it is feasible, the earliest
    path's gain is tested at the branch's position estimate, and an accepted
    test returns that solution unchanged (bit-identical to calling
    ``robust_solve`` under LOS directly). A rejected test, or an infeasible
    LoS branch (no position to test at; statistic reported as +inf), falls
    through to the NLoS-hypothesis solve.

    Raises
    ------
    TooFewPaths
        If the snapshot has fewer than 2 paths.
    NoFeasibleSolution
        If both branches fail.
    """
    paths = list(snapshot.paths)
    if len(paths) < 2:
        raise TooFewPaths(f"need at least 2 paths, got {len(paths)}")
    candidate = int(np.argmin([p.toa for p in paths]))

    los_solution = None
    try:
        los_solution = robust_solve(snapshot, Hypothesis.LOS, config)
    except NoFeasibleSolution:
        pass

    if los_solution is not None:
        gain_db = 10.0 * math.log10(paths[candidate].gain)
        detection = los_test(gain_db, los_solution.ue.position, snapshot.bs, model,
                             threshold, candidate)
        if detection.decided is Hypothesis.LOS:
            return los_solution, detection
    else:
        detection = DetectionResult(decided=Hypothesis.NLOS, statistic=math.inf,
                                    threshold=threshold, candidate=candidate)

    try:
        nlos_solution = robust_solve(snapshot, Hypothesis.NLOS, config)
    except TooFewPaths as exc:
        raise NoFeasibleSolution("both hypotheses failed") from exc
    return nlos_solution, detection
