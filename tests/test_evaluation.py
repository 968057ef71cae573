import dataclasses
import math

import numpy as np
import pytest

from snapslam import (
    EmptyInput,
    ErrorRecord,
    GroundTruth,
    Hypothesis,
    MissingTruth,
    NoiseModel,
    PathMeasurement,
    Pose,
    SlamSolution,
    Snapshot,
    UeState,
    classification_report,
    error_cdf,
    evaluate_dataset,
    is_single_bounce_consistent,
    los_sensitivity_sweep,
    make_error_record,
    measurement_model,
    mixed_solve,
    rmse,
    robust_solve,
    solve_snapshot,
    strip_outliers_by_truth,
    wrap_angle,
)
from snapslam import evaluation
from helpers import (
    add_multibounce,
    build_snapshot,
    expected_inliers,
    random_h0_snapshot,
    random_h1_snapshot,
)


def _record(pos=0.0, head=0.0, bias=0.0, sid="s"):
    return ErrorRecord(snapshot_id=sid, position_error=pos, heading_error=head,
                       bias_error=bias, solve_time=0.0,
                       hypothesis_decided=Hypothesis.LOS,
                       hypothesis_true=Hypothesis.LOS)


def test_make_error_record_oracle():
    snap = random_h0_snapshot(0)
    t = snap.truth.ue
    shifted = UeState(t.position + np.array([3.0, 4.0]),
                      wrap_angle(t.orientation + 0.2), t.clock_bias + 2e-9)
    sol = SlamSolution(ue=shifted, landmarks=(), inliers=(0,), outliers=(),
                       hypothesis=Hypothesis.LOS, cost=0.0)
    rec = make_error_record(snap, sol, solve_time=1.5)
    assert rec.position_error == pytest.approx(5.0, abs=1e-12)
    assert rec.heading_error == pytest.approx(0.2, abs=1e-12)
    assert rec.bias_error == pytest.approx(2e-9, abs=1e-21)
    assert rec.solve_time == 1.5
    assert rec.hypothesis_true is Hypothesis.LOS
    no_truth = Snapshot(id="x", bs=snap.bs, paths=snap.paths, truth=None)
    with pytest.raises(MissingTruth):
        make_error_record(no_truth, sol)


def test_heading_error_wraps():
    snap = random_h0_snapshot(1)
    t = snap.truth.ue
    flipped = UeState(t.position, wrap_angle(t.orientation + 2 * math.pi - 0.1),
                      t.clock_bias)
    sol = SlamSolution(ue=flipped, landmarks=(), inliers=(0,), outliers=(),
                       hypothesis=Hypothesis.LOS, cost=0.0)
    rec = make_error_record(snap, sol)
    assert rec.heading_error == pytest.approx(0.1, abs=1e-12)


def test_rmse_oracle():
    out = rmse([_record(pos=3.0, head=0.1, bias=1e-9),
                _record(pos=4.0, head=0.3, bias=3e-9)])
    assert out[0] == pytest.approx(math.sqrt(12.5), abs=1e-12)
    assert out[1] == pytest.approx(math.sqrt(0.05), abs=1e-12)
    assert out[2] == pytest.approx(math.sqrt(5e-18), abs=1e-27)
    with pytest.raises(EmptyInput):
        rmse([])


def test_error_cdf_oracle():
    cdf = error_cdf([_record(pos=3.0), _record(pos=1.0), _record(pos=2.0)])
    assert cdf == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)),
                   (3.0, pytest.approx(1.0))]
    with pytest.raises(EmptyInput):
        error_cdf([])


def test_strip_outliers_keeps_true_paths():
    rng = np.random.default_rng(21)
    snap = random_h0_snapshot(5, n_single=3)
    n_true = len(snap.paths)
    dirty = add_multibounce(snap, rng, count=2)
    stripped = strip_outliers_by_truth(dirty)
    assert len(stripped.paths) == n_true
    assert stripped.paths == dirty.paths[:n_true]
    assert stripped.truth.labels == dirty.truth.labels[:n_true]
    assert set(stripped.truth.labels) == {"los", "single"}


def test_strip_outliers_requires_truth_and_survivors():
    snap = random_h0_snapshot(2)
    bare = Snapshot(id="b", bs=snap.bs, paths=snap.paths, truth=None)
    with pytest.raises(MissingTruth):
        strip_outliers_by_truth(bare)
    # one LoS path displaced far beyond the noise scale strips to nothing
    t = snap.truth
    bad = PathMeasurement(snap.paths[0].toa + 1e-6, snap.paths[0].aod,
                          snap.paths[0].aoa, snap.paths[0].gain)
    lone = Snapshot(id="l", bs=snap.bs, paths=(bad,),
                    truth=GroundTruth(ue=t.ue, labels=("los",),
                                      incidence=(None,)))
    with pytest.raises(EmptyInput):
        strip_outliers_by_truth(lone)


def test_single_bounce_consistency_check():
    snap = random_h0_snapshot(3, n_single=2)
    t = snap.truth
    for i, lab in enumerate(t.labels):
        if lab == "single":
            assert is_single_bounce_consistent(snap.paths[i], t.ue, snap.bs)
    toa, aod, aoa = measurement_model(t.ue, snap.bs, [1.0, 4.0])
    ghost = PathMeasurement(toa, aod, aoa)
    assert is_single_bounce_consistent(ghost, t.ue, snap.bs)
    flipped = PathMeasurement(toa, aod, wrap_angle(aoa + math.pi))
    assert not is_single_bounce_consistent(flipped, t.ue, snap.bs)
    late = PathMeasurement(toa + 3e-8, aod, aoa)
    assert not is_single_bounce_consistent(late, t.ue, snap.bs)


def test_classification_report_exact():
    snap = random_h0_snapshot(7, n_single=3)
    sol = robust_solve(snap, Hypothesis.LOS)
    rep = classification_report(sol, snap)
    assert rep.expected == expected_inliers(snap)
    assert rep.exact and rep.acceptable
    assert rep.extra == () and rep.missing == ()


def test_classification_report_missing_path():
    snap = random_h0_snapshot(7, n_single=3)
    sol = robust_solve(snap, Hypothesis.LOS)
    hobbled = dataclasses.replace(sol, inliers=sol.inliers[:-1],
                                  outliers=(sol.inliers[-1],))
    rep = classification_report(hobbled, snap)
    assert rep.missing == (sol.inliers[-1],)
    assert not rep.exact and not rep.acceptable


def test_classification_report_consistent_absorption():
    # a path that copies the single-bounce model but is labeled multi is
    # absorbed by the solver; the report flags it consistent, not an error
    snap = random_h0_snapshot(9, n_single=2)
    t = snap.truth
    toa, aod, aoa = measurement_model(t.ue, snap.bs, [0.5, 3.5])
    ghost = PathMeasurement(toa, aod, aoa, snap.paths[-1].gain)
    truth = GroundTruth(ue=t.ue, labels=(*t.labels, "multi"),
                        incidence=(*t.incidence, None))
    dirty = Snapshot(id=snap.id, bs=snap.bs, paths=(*snap.paths, ghost),
                     truth=truth)
    sol = robust_solve(dirty, Hypothesis.LOS)
    rep = classification_report(sol, dirty)
    assert rep.extra == (len(dirty.paths) - 1,)
    assert rep.consistent_extra == rep.extra
    assert not rep.exact and rep.acceptable
    strict = classification_report(sol, dirty, count_consistent_as_errors=True)
    assert not strict.acceptable


def test_solve_snapshot_modes():
    snap = random_h0_snapshot(4, n_single=3)
    for mode in ("robust_mixed", "robust_h0", "robust_h1", "benchmark"):
        sol, det = solve_snapshot(snap, mode)
        assert sol.ue.position is not None
        assert (det is None) == (mode != "robust_mixed")
    with pytest.raises(ValueError):
        solve_snapshot(snap, "nonsense")


def test_evaluate_dataset_counts_failures(monkeypatch, caplog):
    snaps = [random_h0_snapshot(s, n_single=3, sid=f"s{s}") for s in range(3)]
    lone = Snapshot(id="lone", bs=snaps[0].bs, paths=snaps[0].paths[:1],
                    truth=None)
    results, records, failures = evaluate_dataset([*snaps, lone], "robust_mixed")
    assert len(results) == 4 and results[3] is None
    assert len(records) == 3
    assert [f[0] for f in failures] == ["lone"]
    assert all(r.position_error < 1e-9 for r in records)
    assert all(r.solve_time > 0 for r in records)

    # an unexpected error in one snapshot is recorded; the rest still solve
    solve = evaluation.solve_snapshot

    def flaky(snap, *args):
        if snap.id == "s1":
            raise ValueError("bad row")
        return solve(snap, *args)

    monkeypatch.setattr(evaluation, "solve_snapshot", flaky)
    with caplog.at_level("ERROR", logger="snapslam"):
        results, records, failures = evaluate_dataset([*snaps, lone], "robust_mixed")
    assert [r is None for r in results] == [False, True, False, True]
    assert [r.snapshot_id for r in records] == ["s0", "s2"]
    assert failures[0] == ("s1", "ValueError: bad row")
    assert [f[0] for f in failures] == ["s1", "lone"]
    assert "s1" in caplog.text and "Traceback" in caplog.text


def _sweep_set():
    snaps = [random_h0_snapshot(s, n_single=3, sid=f"h0_{s}") for s in range(3)]
    snaps.append(random_h1_snapshot(50, n_single=4, on_grid=True, sid="h1_0"))
    return snaps


def test_sweep_monotone_and_deterministic():
    snaps = _sweep_set()
    sweep = los_sensitivity_sweep(snaps, p_grid=(0.0, 0.5, 1.0), trials=200,
                                  seed=1)
    assert sweep.trials == 200
    assert sweep.rmse[0] >= sweep.rmse[1] >= sweep.rmse[2]
    assert sweep.rmse[2] < 1e-6
    again = los_sensitivity_sweep(snaps, p_grid=(0.0, 0.5, 1.0), trials=200,
                                  seed=1)
    assert sweep.rmse == again.rmse
    assert sweep.rmse == sweep.rmse_excluding


def test_sweep_exclusion_column():
    snaps = _sweep_set()
    sweep = los_sensitivity_sweep(snaps, p_grid=(0.0, 1.0), trials=50, seed=2,
                                  exclude_ids=("h1_0",))
    # the NLoS snapshot solves exactly on-grid either way; dropping it moves
    # the p=0 pooled value only through the divisor
    assert sweep.rmse_excluding != sweep.rmse
    everything = [s.id for s in snaps]
    nan_sweep = los_sensitivity_sweep(snaps, p_grid=(0.0,), trials=5, seed=2,
                                      exclude_ids=tuple(everything))
    assert math.isnan(nan_sweep.rmse_excluding[0])


def test_sweep_validation(monkeypatch):
    snaps = _sweep_set()
    with pytest.raises(ValueError):
        los_sensitivity_sweep(snaps, p_grid=(0.0, 1.5))
    with pytest.raises(EmptyInput):
        los_sensitivity_sweep([])
    bare = Snapshot(id="b", bs=snaps[0].bs, paths=snaps[0].paths, truth=None)
    with pytest.raises(MissingTruth):
        los_sensitivity_sweep([bare])

    def no_solve(*args):
        raise AssertionError("solved before validating trials")

    monkeypatch.setattr(evaluation, "robust_solve", no_solve)
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            los_sensitivity_sweep(snaps, trials=trials)
