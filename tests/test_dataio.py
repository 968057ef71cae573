import csv
import json
import math
import re

import numpy as np
import pytest

from snapslam import (
    DegenerateGeometry,
    DetectionResult,
    ErrorRecord,
    Hypothesis,
    Pose,
    Scene,
    SimConfig,
    SlamSolution,
    Snapshot,
    SweepResult,
    UeState,
    Wall,
    failure_to_dict,
    generate_dataset,
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


def test_truth_points_come_back_read_only(tmp_path):
    # generate_dataset hands back read-only truth points; a snapshot read
    # back from a file must too, or writing one of its points rewrites truth
    (snap,) = generate_dataset(square_scene(), [np.array([1.0, 0.5])], SimConfig(max_bounces=1))
    path = tmp_path / "d.jsonl"
    write_dataset([snap], path)
    for made in (snap, read_dataset(path)[0], snapshot_from_dict(snapshot_to_dict(snap))):
        points = [p for p in made.truth.incidence if p is not None]
        assert points and not any(p.flags.writeable for p in points)
        with pytest.raises(ValueError, match="read-only"):
            points[0][0] = 99.0


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


def test_metrics_csv_keeps_an_id_in_one_field(tmp_path):
    rec = ErrorRecord(snapshot_id='room A, pos "7"', position_error=0.25,
                      heading_error=0.0, bias_error=0.0, solve_time=0.01,
                      hypothesis_decided=Hypothesis.LOS,
                      hypothesis_true=Hypothesis.LOS)
    p = tmp_path / "m.csv"
    write_metrics_csv([rec], p)
    with open(p, newline="") as fh:
        header, row = csv.reader(fh)
    assert len(header) == len(row) == 6
    assert row[0] == 'room A, pos "7"' and float(row[1]) == 0.25


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
    # a non-numeric or non-finite value names its line
    p.write_text("bs = [0, 0, 0]\nwall = [[0, 1], [1, 1], 'x']\n")
    with pytest.raises(ValueError, match="line 2: wall 0: could not convert"):
        read_scene(p)
    for bad in ("['a', 0, 0]", "[0, 1e999, 0]"):
        p.write_text(f"# anchor\nbs = {bad}\n")
        with pytest.raises(ValueError, match="line 2: bs: "):
            read_scene(p)
    # the file readers' one number rule: a bool, a string or an integer past
    # the float range is not a number, and the last raised OverflowError
    huge = "1" + "0" * 400
    for text, message in (
            (f"bs = [0, {huge}, 0]\n", "line 1: bs: could not convert y "),
            (f"bs = [0, 5, 0]\nwall = [[0, 0], [{huge}, 1]]\n",
             "line 2: wall 0: could not convert x2 "),
            ("bs = [0, 5, 0]\nwall = [[0, 0], [1, 1], True]\n",
             "line 2: wall 0: could not convert loss_db "),
            ("bs = [0, 5, 0]\nwall = [[0, '0'], [1, 1]]\n",
             "line 2: wall 0: could not convert y1 ")):
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^{message}"):
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
    p.write_text("# solver\nt_eps = 0.2\ntrials = 181  # fewer\n\n")
    assert read_config(p) == {"t_eps": "0.2", "trials": "181"}
    p.write_text("t_eps 0.2\n")
    with pytest.raises(ValueError, match="line 1"):
        read_config(p)
    p.write_text("t_eps =\n")
    with pytest.raises(ValueError, match="line 1"):
        read_config(p)
    # a repeated key would otherwise let the last value win silently
    p.write_text("t_eps = 0.2\n# again\ntrials = 5\nt_eps = 3\n")
    with pytest.raises(ValueError, match="line 4: duplicate key 't_eps', first on line 1$"):
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
    # a label other than los/single/multi would silently drop a path from
    # has_los and the classification report
    row = json.loads(second)
    row["truth"]["labels"][0] = "LOS"
    p.write_text(first + "\n" + json.dumps(row) + "\n")
    with pytest.raises(ValueError, match=r"line 2: unknown path label 'LOS'"):
        read_dataset(p)


_HUGE = int("1" + "0" * 400)


@pytest.mark.parametrize("field, value, named", [
    (("paths", 0, "toa_ns"), "30", "toa_ns"),
    (("paths", 1, "gain"), True, "gain"),
    (("paths", 0, "aod_rad"), _HUGE, "aod_rad"),
    (("bs", "pos"), ["1", "2"], "bs.pos"),
    (("bs", "ori"), False, "bs.ori"),
    (("truth", "ue", "bias_ns"), _HUGE, "truth.ue.bias_ns"),
    (("truth", "ue", "pos"), [1.0, True], "truth.ue.pos"),
    (("truth", "incidence", 1), [1.0, 2.0, 3.0], "truth.incidence"),
    (("truth", "incidence", 1), [math.nan, 2.0], "truth.incidence"),
    (("truth", "incidence", 1), [1.0], "truth.incidence"),
], ids=["string", "bool", "huge_int", "string_point", "bool_angle", "huge_bias",
        "bool_coordinate", "long_incidence", "nan_incidence", "short_incidence"])
def test_read_dataset_applies_the_number_rule(tmp_path, field, value, named):
    # every number in a row is an int or a float, not a bool, of magnitude
    # at most the largest float; before, strings and bools were coerced, an
    # incidence point could have any length or a NaN, and a huge integer
    # escaped as OverflowError
    p = tmp_path / "d.jsonl"
    write_dataset([random_h0_snapshot(s, n_single=2, sid=f"s{s}") for s in range(2)], p)
    first, second = p.read_text().splitlines()
    row = json.loads(second)
    *parents, last = field
    target = row
    for key in parents:
        target = target[key]
    target[last] = value
    p.write_text(first + "\n" + json.dumps(row) + "\n")
    with pytest.raises(ValueError, match=f"line 2: .*{re.escape(named)}"):
        read_dataset(p)
    # integers within the float range are numbers
    target[last] = [1, 2] if isinstance(value, list) else 3
    p.write_text(first + "\n" + json.dumps(row) + "\n")
    assert len(read_dataset(p)) == 2


@pytest.mark.parametrize("change, message", [
    (lambda row: {**row, "id": None}, "id must be a string, got NoneType"),
    (lambda row: {**row, "id": [1, 2]}, "id must be a string, got list"),
    (lambda row: {**row, "truth": {**row["truth"], "labels": "los"}},
     "truth.labels must be an array, got str"),
    (lambda row: {**row, "paths": {"a": 1}}, "paths must be an array, got dict"),
    (lambda row: [row], "row must be an object, got list"),
    (lambda row: {**row, "paths": [1, *row["paths"][1:]]}, "path must be an object, got int"),
    (lambda row: {**row, "bs": [0, 0]}, "bs must be an object, got list"),
    (lambda row: {**row, "truth": [1]}, "truth must be an object or null, got list"),
    (lambda row: {**row, "truth": {**row["truth"], "ue": "x"}},
     "truth.ue must be an object, got str"),
], ids=["null_id", "array_id", "string_labels", "object_paths", "array_row",
        "int_path", "array_bs", "array_truth", "string_ue"])
def test_read_dataset_names_a_field_that_is_not_of_its_json_type(tmp_path, change, message):
    # before, an id went through str() ("None", "[1, 2]"), a labels string
    # was split into labels of one character, and a paths object, an array
    # row, a path that is a number, and a bs, truth or truth.ue that is not
    # an object failed on an index, naming no field
    p = tmp_path / "d.jsonl"
    write_dataset([random_h0_snapshot(s, n_single=2, sid=f"s{s}") for s in range(2)], p)
    first, second = p.read_text().splitlines()
    p.write_text(first + "\n" + json.dumps(change(json.loads(second))) + "\n")
    with pytest.raises(ValueError, match=f"line 2: {re.escape(message)}$"):
        read_dataset(p)
