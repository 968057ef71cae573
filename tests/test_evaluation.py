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
    NoFeasibleSolution,
    NoiseModel,
    PathMeasurement,
    RobustConfig,
    SlamSolution,
    Snapshot,
    UeState,
    classification_report,
    is_single_bounce_consistent,
    los_sensitivity_sweep,
    make_error_record,
    measurement_model,
    rmse,
    robust_solve,
    solve_snapshot,
    strip_outliers_by_truth,
    wrap_angle,
)
from snapslam import evaluation
import reference
from helpers import (
    add_multibounce,
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


def test_strip_gates_are_the_chi_square_99_quantiles():
    from scipy.stats import chi2
    assert evaluation.STRIP_CHI2_LOS == pytest.approx(chi2.ppf(0.99, 3), rel=1e-12)
    assert evaluation.STRIP_CHI2_BOUNCE == pytest.approx(chi2.ppf(0.99, 1), rel=1e-12)


def test_strip_outliers_keeps_noisy_true_paths_at_the_quantile_rate():
    # every path is true, so each one stripped is a false alarm of the gate;
    # at the 0.99 quantiles that is ~4 of 400 LoS paths and ~12 of 1200
    # bounces (a gate of 3.0 on every path stripped 158 and 102)
    stripped = {"los": 0, "single": 0}
    for seed in range(400):
        snap = random_h0_snapshot(seed, n_single=3, noise=NoiseModel())
        kept = strip_outliers_by_truth(snap).truth.labels
        for label in stripped:
            stripped[label] += snap.truth.labels.count(label) - kept.count(label)
    assert stripped["los"] <= 12
    assert stripped["single"] <= 30


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


@pytest.mark.parametrize("name", ["t_eps"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_evaluation_thresholds_are_validated_as_robust_config_does(name, value):
    # A threshold that RobustConfig refuses would make every path "not
    # consistent"; both functions refuse it, classification_report before
    # it looks at the snapshot (a truthless one raises no MissingTruth).
    snap = random_h0_snapshot(3, n_single=2)
    t = snap.truth
    with pytest.raises(ValueError, match="t_eps must be finite") as refused:
        RobustConfig(**{name: value})
    with pytest.raises(ValueError, match=str(refused.value)):
        is_single_bounce_consistent(snap.paths[1], t.ue, snap.bs, **{name: value})
    sol = robust_solve(snap, Hypothesis.LOS)
    for target in (snap, Snapshot(id="bare", bs=snap.bs, paths=snap.paths, truth=None)):
        with pytest.raises(ValueError, match=str(refused.value)):
            classification_report(sol, target, **{name: value})


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


def test_solve_snapshot_modes():
    snap = random_h0_snapshot(4, n_single=3)
    for mode in ("robust_mixed", "robust_h0", "robust_h1", "benchmark"):
        sol, det = solve_snapshot(snap, mode)
        assert sol.ue.position is not None
        assert (det is None) == (mode != "robust_mixed")
    with pytest.raises(ValueError):
        solve_snapshot(snap, "nonsense")


def test_run_snapshot_records_failures(monkeypatch, caplog):
    snaps = [random_h0_snapshot(s, n_single=3, sid=f"s{s}") for s in range(3)]
    lone = Snapshot(id="lone", bs=snaps[0].bs, paths=snaps[0].paths[:1],
                    truth=None)
    with caplog.at_level("ERROR", logger="snapslam"):
        assert evaluation.run_snapshot(lone, "robust_mixed") == \
            (None, None, "TooFewPaths: need at least 2 paths, got 1")
    assert caplog.text == ""

    # an unexpected error in one snapshot is recorded with its traceback;
    # the others still solve
    solve = evaluation.solve_snapshot

    def flaky(snap, *args):
        if snap.id == "s1":
            raise ValueError("bad row")
        return solve(snap, *args)

    monkeypatch.setattr(evaluation, "solve_snapshot", flaky)
    with caplog.at_level("ERROR", logger="snapslam"):
        runs = [evaluation.run_snapshot(snap, "robust_mixed") for snap in snaps]
    assert runs[1] == (None, None, "ValueError: bad row")
    assert "s1" in caplog.text and "Traceback" in caplog.text
    for snap, (result, elapsed, error) in zip(snaps[::2], runs[::2]):
        assert error is None and elapsed > 0
        assert make_error_record(snap, result[0], elapsed).position_error < 1e-9


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


def test_sweep_rejects_an_exclude_id_that_names_no_snapshot(monkeypatch):
    # a typo would otherwise exclude nothing and report rmse_excluding == rmse
    calls = []
    monkeypatch.setattr(evaluation, "robust_solve", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="exclude_ids name no snapshot: h1_7, h1_9$"):
        los_sensitivity_sweep(_sweep_set(), p_grid=(0.0,), trials=5,
                              exclude_ids=("h1_9", "h1_0", "h1_7", "h1_9"))
    assert calls == []


def test_sweep_bounds_its_coin_matrix_before_any_solve(monkeypatch):
    # the trials x snapshots coins would take 128 MB and more: refused up
    # front, with no snapshot solved and no coin drawn
    calls = []
    monkeypatch.setattr(evaluation, "robust_solve", lambda *args: calls.append(args))
    snaps = _sweep_set()
    limit = evaluation._MAX_COINS
    trials = limit // len(snaps) + 1
    with pytest.raises(ValueError, match=f"^{trials} trials x 4 snapshots > {limit} coins$"):
        los_sensitivity_sweep(snaps, p_grid=(0.0,), trials=trials)
    assert calls == []


def test_sweep_solves_the_los_branch_of_an_nlos_truth_snapshot_only_as_fallback(monkeypatch):
    # No coin takes the LoS branch of an NLoS-truth snapshot, so it is solved
    # only where the NLoS branch fails: h1_1 falls back to it, and h1_2,
    # whose branches both fail, is dropped. The LoS-truth h0_0 solves both.
    # The result is the one of the sweep that solved both branches of all.
    snaps = [random_h1_snapshot(50 + s, n_single=4 + s % 2, on_grid=True, sid=f"h1_{s}")
             for s in range(4)]
    snaps.append(random_h0_snapshot(0, n_single=3, sid="h0_0"))
    los, nlos = Hypothesis.LOS, Hypothesis.NLOS
    fail = {("h1_1", nlos), ("h1_2", nlos), ("h1_2", los)}
    calls = []
    solve = evaluation.robust_solve

    def scripted(snap, hyp, config):
        calls.append((snap.id, hyp))
        if (snap.id, hyp) in fail:
            raise NoFeasibleSolution("scripted")
        return solve(snap, hyp, config)

    monkeypatch.setattr(evaluation, "robust_solve", scripted)
    args = (snaps, RobustConfig(), (0.0, 0.5, 1.0), 50, 3, ("h1_3",))
    got = los_sensitivity_sweep(*args)
    assert calls == [("h1_0", nlos), ("h1_1", nlos), ("h1_1", los), ("h1_2", nlos),
                     ("h1_2", los), ("h1_3", nlos), ("h0_0", nlos), ("h0_0", los)]
    calls.clear()
    assert got == reference.los_sensitivity_sweep(*args)
    assert len(calls) == 2 * len(snaps)
    assert all(math.isfinite(v) for v in got.rmse + got.rmse_excluding)


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
