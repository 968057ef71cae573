import math

import numpy as np
import pytest

from snapslam import (
    DEFAULT_T_LOS,
    DegenerateGeometry,
    Hypothesis,
    NoFeasibleSolution,
    PathLossModel,
    PathMeasurement,
    Snapshot,
    TooFewPaths,
    los_test,
    measurement_model,
    mixed_solve,
    path_loss_mean,
    robust_solve,
    wrap_angle,
)
from snapslam import detector
from helpers import gain_for, random_h0_snapshot, random_h1_snapshot


def test_path_loss_mean_oracle():
    assert path_loss_mean(10.0) == pytest.approx(30.0, abs=1e-12)
    assert path_loss_mean(1.0) == pytest.approx(13.0, abs=1e-12)
    with pytest.raises(DegenerateGeometry):
        path_loss_mean(0.0)
    with pytest.raises(DegenerateGeometry):
        path_loss_mean(-3.0)


def test_path_loss_model_validation():
    with pytest.raises(ValueError):
        PathLossModel(sigma_db=0.0)
    m = PathLossModel(l0_db=20.0, zeta=2.0, sigma_db=3.0)
    assert path_loss_mean(10.0, m) == pytest.approx(40.0, abs=1e-12)


def test_los_test_statistic_values():
    # exact match: 0.5 * log(2 pi 1.8^2) = 1.5067252; 10 sigma off adds 50
    bs = __import__("snapslam").Pose([0.0, 0.0])
    res = los_test(30.0, [10.0, 0.0], bs)
    assert res.statistic == pytest.approx(1.5067252, abs=1e-6)
    assert res.decided is Hypothesis.LOS
    res10 = los_test(30.0 + 10 * 1.8, [10.0, 0.0], bs)
    assert res10.statistic == pytest.approx(51.5067252, abs=1e-6)
    assert res10.decided is Hypothesis.NLOS


def test_los_test_decision_boundary():
    # statistic hits 10.8 at |deviation| = 1.8 * sqrt(21.6 - log(2 pi 3.24))
    bs = __import__("snapslam").Pose([0.0, 0.0])
    edge = 1.8 * math.sqrt(2 * DEFAULT_T_LOS - math.log(2 * math.pi * 1.8 ** 2))
    inside = los_test(30.0 + edge - 1e-3, [10.0, 0.0], bs)
    outside = los_test(30.0 + edge + 1e-3, [10.0, 0.0], bs)
    assert inside.decided is Hypothesis.LOS
    assert outside.decided is Hypothesis.NLOS
    below = los_test(30.0 - edge - 1e-3, [10.0, 0.0], bs)
    assert below.decided is Hypothesis.NLOS


def test_default_threshold_value():
    assert DEFAULT_T_LOS == 10.8


def test_mixed_solve_accepts_los_snapshot():
    for seed in range(5):
        snap = random_h0_snapshot(seed, n_single=3)
        sol, det = mixed_solve(snap)
        assert det.decided is Hypothesis.LOS
        assert det.candidate == 0
        assert det.statistic == pytest.approx(1.5067252, abs=1e-6)
        direct = robust_solve(snap, Hypothesis.LOS)
        assert tuple(sol.ue.position) == tuple(direct.ue.position)
        assert sol.ue.clock_bias == direct.ue.clock_bias


def test_mixed_solve_falls_back_on_nlos_snapshot():
    for seed in range(5):
        snap = random_h1_snapshot(seed, n_single=4, on_grid=True)
        sol, det = mixed_solve(snap)
        assert det.decided is Hypothesis.NLOS
        assert sol.hypothesis is Hypothesis.NLOS
        t = snap.truth
        assert np.hypot(*(sol.ue.position - t.ue.position)) < 1e-9


def test_non_finite_threshold_is_rejected_before_any_solve(monkeypatch):
    # a NaN threshold would decide NLoS everywhere and write "threshold": NaN
    bs = __import__("snapslam").Pose([0.0, 0.0])
    snap = random_h0_snapshot(0)

    def forbidden(*args, **kwargs):
        raise AssertionError("mixed_solve solved before checking its threshold")

    monkeypatch.setattr(detector, "robust_solve", forbidden)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="threshold must be finite"):
            los_test(30.0, [10.0, 0.0], bs, threshold=bad)
        with pytest.raises(ValueError, match="threshold must be finite"):
            mixed_solve(snap, threshold=bad)


def test_non_finite_gain_is_rejected():
    # a NaN gain would decide NLoS with statistic NaN, which
    # solution_to_dict writes as "statistic": NaN, not valid JSON
    bs = __import__("snapslam").Pose([0.0, 0.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="gain_db must be finite"):
            los_test(bad, [10.0, 0.0], bs)


def test_mixed_solve_needs_two_paths():
    snap = random_h0_snapshot(1)
    one = Snapshot(id="o", bs=snap.bs, paths=snap.paths[:1], truth=None)
    with pytest.raises(TooFewPaths, match="need at least 2 paths, got 1"):
        mixed_solve(one)


def test_mixed_solve_infeasible_los_branch_reports_inf():
    # prepend an earliest path whose arrival ray is flipped: every LoS-branch
    # pairing puts its bounce split outside [0, 1], so the branch dies and
    # the statistic is reported as +inf before the NLoS solve succeeds
    snap = random_h1_snapshot(0, n_single=4, on_grid=True)
    t = snap.truth
    first = min(p.toa for p in snap.paths)
    bad = PathMeasurement(first - 5e-9, 0.3, wrap_angle(0.3 + math.pi),
                          gain_for(10.0, 20.0))
    dirty = Snapshot(id="inf", bs=snap.bs, paths=(bad, *snap.paths), truth=None)
    sol, det = mixed_solve(dirty)
    assert det.statistic == math.inf
    assert det.decided is Hypothesis.NLOS
    assert sol.hypothesis is Hypothesis.NLOS
    assert np.hypot(*(sol.ue.position - t.ue.position)) < 1e-6


def test_mixed_solve_both_branches_fail():
    # two paths only and a flipped arrival ray: LoS pairing is infeasible and
    # the NLoS fallback lacks paths
    snap = random_h0_snapshot(4, n_single=1)
    t = snap.truth
    toa, aod, aoa = measurement_model(t.ue, snap.bs, snap.truth.incidence[1])
    flipped = PathMeasurement(toa, aod, wrap_angle(aoa + math.pi))
    pair = Snapshot(id="f", bs=snap.bs, paths=(snap.paths[0], flipped), truth=None)
    with pytest.raises(NoFeasibleSolution):
        mixed_solve(pair)
    # three bounces: no LoS pairing is feasible, and the NLoS branch raises
    # its own NoFeasibleSolution for lack of a fourth path
    triple = random_h1_snapshot(0, n_single=3)
    with pytest.raises(NoFeasibleSolution):
        robust_solve(triple, Hypothesis.LOS)
    with pytest.raises(NoFeasibleSolution, match="need at least 4 paths, got 3"):
        mixed_solve(triple)
