"""Line-of-sight availability detection from path gain.

The earliest path of a snapshot is always the LoS candidate. If LoS is truly
available its gain should match a distance-dependent dB model evaluated at
the estimated user position; a bounce masquerading as LoS traveled further
and carries extra reflection loss, so its gain is inconsistent with the
straight-line distance. The detection statistic is the Gaussian negative log
likelihood of the candidate's dB gain under the model, compared against a
fixed threshold. The model, ``geometry.PathLossModel``, is the one the
simulator draws its gains from.

``mixed_solve`` chains the LoS-hypothesis solve, the gain test, and the
NLoS-hypothesis fallback into the full pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoFeasibleSolution, TooFewPaths
from .geometry import PathLossModel, Pose, path_loss_mean
from .robust import (Hypothesis, RobustConfig, SlamSolution, _los_candidate, minimal_counts,
                     robust_solve)

DEFAULT_T_LOS = 10.8
"""Default decision threshold on the negative log likelihood statistic."""


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


def los_test(gain_db: float, estimated_position, bs: Pose,
             model: PathLossModel = PathLossModel(),
             threshold: float = DEFAULT_T_LOS, candidate: int = -1) -> DetectionResult:
    """Gaussian NLL test of a candidate gain against the distance model.

    ``gain_db`` is the candidate path's gain in dB; ``estimated_position``
    the user position estimate the straight-line distance is taken to.

    Raises
    ------
    ValueError
        If ``gain_db`` or ``threshold`` is not finite.
    DegenerateGeometry
        If the estimated position coincides with the anchor.
    """
    if not math.isfinite(gain_db):
        raise ValueError(f"gain_db must be finite, got {gain_db}")
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    p = np.asarray(estimated_position, dtype=float)
    dist = math.hypot(*(bs.position - p))
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
    ValueError
        If ``threshold`` is not finite; checked before any solve.
    TooFewPaths
        If the snapshot has fewer than 2 paths, the LoS branch's minimal
        subset.
    NoFeasibleSolution
        If both branches fail.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    paths = list(snapshot.paths)
    n_min = sum(minimal_counts(Hypothesis.LOS))
    if len(paths) < n_min:
        raise TooFewPaths(f"need at least {n_min} paths, got {len(paths)}")
    candidate = _los_candidate(paths)

    try:
        los_solution = robust_solve(snapshot, Hypothesis.LOS, config)
    except NoFeasibleSolution:
        detection = DetectionResult(decided=Hypothesis.NLOS, statistic=math.inf,
                                    threshold=threshold, candidate=candidate)
    else:
        gain_db = 10.0 * math.log10(paths[candidate].gain)
        detection = los_test(gain_db, los_solution.ue.position, snapshot.bs, model,
                             threshold, candidate)
        if detection.decided is Hypothesis.LOS:
            return los_solution, detection

    return robust_solve(snapshot, Hypothesis.NLOS, config), detection
