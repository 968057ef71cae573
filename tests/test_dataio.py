import json
import math

import numpy as np
import pytest

from snapslam import (
    DegenerateGeometry,
    DetectionResult,
    ErrorRecord,
    Hypothesis,
    Pose,
    Scene,
    SlamSolution,
    Snapshot,
    SweepResult,
    UeState,
    Wall,
    failure_to_dict,
    read_config,
    read_dataset,
    read_jsonl,
    read_positions,
    read_scene,
    snapshot_from_dict,
    snapshot_to_dict,
    solution_to_dict,
    write_dataset,
    write_jsonl,
    write_metrics_csv,
    write_positions,
    write_scene,
    write_sweep_csv,
)
from helpers import random_h0_snapshot, square_scene


def _paths_tuplewise(s):
    return [(m.toa, m.aod, m.aoa, m.gain) for m in s.paths]


def test_snapshot_dict_round_trip():
    snap = random_h0_snapshot(0, n_single=2)
    back = snapshot_from_dict(snapshot_to_dict(snap))
    assert back.id == snap.id
    assert tuple(back.bs.position) == tuple(snap.bs.position)
    assert back.bs.orientation == snap.bs.orientation
    assert _paths_tuplewise(back) == _paths_tuplewise(snap)
    t, bt = snap.truth, back.truth
    assert tuple(bt.ue.position) == tuple(t.ue.position)
    assert bt.ue.orientation == t.ue.orientation
    assert bt.ue.clock_bias == t.ue.clock_bias
    assert bt.labels == t.labels
    for a, b in zip(bt.incidence, t.incidence):
        assert (a is None) == (b is None)
        if a is not None:
            assert tuple(a) == tuple(b)


def test_snapshot_dict_without_truth():
    snap = random_h0_snapshot(1)
    bare = Snapshot(id="b", bs=snap.bs, paths=snap.paths, truth=None)
    row = snapshot_to_dict(bare)
    assert row["truth"] is None
    assert snapshot_from_dict(row).truth is None


def test_dataset_file_round_trip_is_stable(tmp_path):
    snaps = [random_h0_snapshot(s, n_single=2, sid=f"s{s}") for s in range(3)]
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_dataset(snaps, p1)
    again = read_dataset(p1)
    write_dataset(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert [s.id for s in again] == ["s0", "s1", "s2"]
    assert _paths_tuplewise(again[0]) == _paths_tuplewise(snaps[0])


def test_jsonl_skips_blank_lines(tmp_path):
    p = tmp_path / "rows.jsonl"
    p.write_text('{"a": 1}\n\n{"b": 2}\n')
    assert read_jsonl(p) == [{"a": 1}, {"b": 2}]
    write_jsonl([{"x": [1, 2]}], p)
    assert p.read_text() == '{"x": [1, 2]}\n'


def test_solution_to_dict_layout():
    sol = SlamSolution(ue=UeState([1.0, 2.0], 0.5, 3e-9), landmarks=(),
                       inliers=(0, 2), outliers=(1,),
                       hypothesis=Hypothesis.NLOS, cost=4.5)
    row = solution_to_dict("snap7", sol, mode="robust_h1")
    assert row["id"] == "snap7" and row["failed"] is False
    assert row["mode"] == "robust_h1"
    assert row["hypothesis"] == "nlos"
    assert row["ue"] == {"pos": [1.0, 2.0], "ori": 0.5,
                         "bias_ns": pytest.approx(3.0)}
    assert row["inliers"] == [0, 2] and row["outliers"] == [1]
    assert row["detection"] is None

    det = DetectionResult(decided=Hypothesis.LOS, statistic=1.5,
                          threshold=10.8, candidate=0)
    row = solution_to_dict("s", sol, det)
    assert row["detection"] == {"decided": "los", "statistic": 1.5,
                                "threshold": 10.8, "candidate": 0}
    inf_det = DetectionResult(decided=Hypothesis.NLOS, statistic=math.inf,
                              threshold=10.8, candidate=0)
    row = solution_to_dict("s", sol, inf_det)
    assert row["detection"]["statistic"] is None

    fail = failure_to_dict("s9", "TooFewPaths: need 2", mode="robust_mixed")
    assert fail == {"id": "s9", "failed": True, "mode": "robust_mixed",
                    "error": "TooFewPaths: need 2"}


def test_metrics_csv_golden(tmp_path):
    rec = ErrorRecord(snapshot_id="pos_000", position_error=0.25,
                      heading_error=math.radians(2.0), bias_error=1.5e-9,
                      solve_time=0.01, hypothesis_decided=Hypothesis.LOS,
                      hypothesis_true=Hypothesis.NLOS)
    p = tmp_path / "m.csv"
    write_metrics_csv([rec], p)
    lines = p.read_text().splitlines()
    assert lines[0] == ("id,position_error_m,heading_error_deg,bias_error_ns,"
                        "hypothesis_decided,hypothesis_true")
    fields = lines[1].split(",")
    assert fields[0] == "pos_000"
    assert float(fields[1]) == 0.25
    assert float(fields[2]) == pytest.approx(2.0, abs=1e-12)
    assert float(fields[3]) == pytest.approx(1.5, abs=1e-12)
    assert fields[4] == "los" and fields[5] == "nlos"


def test_sweep_csv_golden(tmp_path):
    sweep = SweepResult(p_grid=(0.0, 1.0), rmse=(2.0, 0.5),
                        rmse_excluding=(1.75, 0.5), trials=10)
    p = tmp_path / "s.csv"
    write_sweep_csv(sweep, p)
    assert p.read_text() == "p_los,rmse_m,rmse_excluding_m\n0.0,2.0,1.75\n1.0,0.5,0.5\n"


def test_scene_file_round_trip(tmp_path):
    scene = square_scene()
    p = tmp_path / "scene.txt"
    write_scene(scene, p)
    back = read_scene(p)
    assert tuple(back.bs.position) == tuple(scene.bs.position)
    assert back.bs.orientation == scene.bs.orientation
    assert len(back.walls) == len(scene.walls)
    for wa, wb in zip(back.walls, scene.walls):
        assert tuple(wa.a) == tuple(wb.a) and tuple(wa.b) == tuple(wb.b)
        assert wa.loss_db == wb.loss_db


def test_scene_parsing(tmp_path):
    p = tmp_path / "scene.txt"
    p.write_text("# room\n"
                 "bs = [0.0, 1.0, 0.25]  # anchor\n"
                 "wall = [[0, 0], [4, 0]]\n"
                 "wall = [[4, 0], [4, 3], 2.5]\n")
    scene = read_scene(p)
    assert tuple(scene.bs.position) == (0.0, 1.0)
    assert scene.walls[0].loss_db == 0.0
    assert scene.walls[1].loss_db == 2.5

    p.write_text("wall = [[0, 0], [4, 0]]\n")
    with pytest.raises(ValueError, match="no 'bs"):
        read_scene(p)
    p.write_text("bs = [0, 0, 0]\nbs = [1, 1, 0]\n")
    with pytest.raises(ValueError, match="line 2: duplicate"):
        read_scene(p)
    p.write_text("bs = [0, 0, 0]\nwall = [[0, 0], [1]]\n")
    with pytest.raises(ValueError, match="line 2: wall 0"):
        read_scene(p)
    p.write_text("bs = [0, 0, 0]\nnope = 3\n")
    with pytest.raises(ValueError, match="line 2"):
        read_scene(p)
    p.write_text("bs = [0, 0, 0]\nwall = [[0, 0], [0, 0]]\n")
    with pytest.raises(DegenerateGeometry, match="wall 0"):
        read_scene(p)


def test_positions_file(tmp_path):
    p = tmp_path / "pos.txt"
    write_positions([np.array([1.0, 2.0]), np.array([-3.5, 0.25])], p)
    out = read_positions(p)
    assert [tuple(q) for q in out] == [(1.0, 2.0), (-3.5, 0.25)]

    p.write_text("# grid\n[0.0, 1.0]\n\n[2.0, 3.0]  # corner\n")
    assert len(read_positions(p)) == 2
    p.write_text("[1.0, 2.0, 3.0]\n")
    with pytest.raises(ValueError, match="line 1"):
        read_positions(p)
    p.write_text("not json\n")
    with pytest.raises(ValueError, match="line 1"):
        read_positions(p)
    # a non-numeric or non-finite coordinate names its line
    for bad in ('["a", 1]', "[null, 1]", "[NaN, 1]", "[1e999, 0]"):
        p.write_text(f"[0.0, 1.0]\n{bad}\n")
        with pytest.raises(ValueError, match="line 2: coordinates must be finite numbers"):
            read_positions(p)
    p.write_text("# nothing\n")
    with pytest.raises(ValueError, match="empty"):
        read_positions(p)


def test_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# solver\nt_eps = 0.2\ngrid_size = 181  # coarse\n\n")
    assert read_config(p) == {"t_eps": "0.2", "grid_size": "181"}
    p.write_text("t_eps 0.2\n")
    with pytest.raises(ValueError, match="line 1"):
        read_config(p)
    p.write_text("t_eps =\n")
    with pytest.raises(ValueError, match="line 1"):
        read_config(p)


def test_read_dataset_names_line_and_field(tmp_path):
    p = tmp_path / "d.jsonl"
    write_dataset([random_h0_snapshot(s, sid=f"s{s}") for s in range(2)], p)
    first, second = p.read_text().splitlines()
    row = json.loads(second)
    del row["bs"]
    p.write_text(first + "\n\n" + json.dumps(row) + "\n")
    with pytest.raises(ValueError, match=r"line 3: missing field 'bs'"):
        read_dataset(p)
    p.write_text(first + "\n" + second[:40] + "\n")
    with pytest.raises(ValueError, match=r"line 2: "):
        read_dataset(p)
