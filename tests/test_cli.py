import dataclasses
import json
import math
from pathlib import Path

import pytest

from snapslam import (
    DEFAULT_T_LOS,
    NoiseModel,
    PathLossModel,
    RobustConfig,
    SimConfig,
    Snapshot,
    read_dataset,
    read_jsonl,
    write_dataset,
    write_positions,
    write_scene,
)
from snapslam import cli, evaluation
from snapslam.cli import RunConfig, build_run_config, main, parse_p_grid
from helpers import random_h0_snapshot, square_scene


def _build_no_grid_point(monkeypatch):
    """Fail the test at the first grid point ``parse_p_grid`` builds, so a
    refused grid allocates nothing even where the count check is missing."""
    def refuse(*args):
        raise AssertionError("a grid point was built")
    monkeypatch.setattr(cli, "round", refuse, raising=False)


def test_parse_p_grid(monkeypatch):
    grid = parse_p_grid("0:0.1:1")
    assert len(grid) == 11
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert grid[3] == pytest.approx(0.3, abs=1e-12)
    assert parse_p_grid("0.5") == (0.5,)
    assert parse_p_grid("0:0.3:1") == (0.0, 0.3, 0.6, 0.9)
    assert parse_p_grid("0:0.25:1") == (0.0, 0.25, 0.5, 0.75, 1.0)
    with pytest.raises(ValueError):
        parse_p_grid("0:0:1")
    with pytest.raises(ValueError):
        parse_p_grid("1:0.1:0")
    with pytest.raises(ValueError):
        parse_p_grid("0:1")
    assert len(parse_p_grid("0:1e-4:1")) == 10001
    # non-finite bounds, a step so small that the point count overflows,
    # and one whose 10^12 points are refused before any is built
    _build_no_grid_point(monkeypatch)
    for text in ("0:0.1:inf", "-inf:1:0", "0:1e-320:1", "0:1e-12:1"):
        with pytest.raises(ValueError, match=f"p_grid '{text}'"):
            parse_p_grid(text)


def test_run_config_layering(tmp_path, monkeypatch):
    monkeypatch.delenv("SNAPSLAM_CONFIG", raising=False)
    rc = build_run_config(None, {})
    assert rc == RunConfig()

    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_eps = 0.2\ntrials = 181\nbias_range_ns = [-50, 50]\n")
    rc = build_run_config(cfg, {})
    assert rc.t_eps == 0.2
    assert rc.trials == 181
    assert rc.bias_range_ns == (-50.0, 50.0)

    rc = build_run_config(cfg, {"trials": "361", "seed": None})
    assert rc.trials == 361 and rc.t_eps == 0.2

    monkeypatch.setenv("SNAPSLAM_CONFIG", str(cfg))
    rc = build_run_config(None, {})
    assert rc.trials == 181

    bad = tmp_path / "bad.cfg"
    bad.write_text("not_a_knob = 3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        build_run_config(bad, {})
    bad.write_text("bias_range_ns = [5, 1]\n")
    with pytest.raises(ValueError, match="bias_range_ns"):
        build_run_config(bad, {})
    cfg.write_text("bias_range_ns = [5, 5]\n")
    assert build_run_config(cfg, {}).bias_range_ns == (5.0, 5.0)


def _field_text(value):
    return f"{value[0]!r}, {value[1]!r}" if isinstance(value, tuple) else repr(value)


def test_run_config_types_every_field_from_its_default(tmp_path, monkeypatch):
    monkeypatch.delenv("SNAPSLAM_CONFIG", raising=False)
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    assert len(defaults) == 14
    # integral text for every field: a float field must still come back float
    integral = {k: "-5, 5" if isinstance(v, tuple) else "2" for k, v in defaults.items()}
    for texts, expected in ((integral, None),
                            ({k: _field_text(v) for k, v in defaults.items()}, RunConfig())):
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{k} = {t}\n" for k, t in texts.items()))
        from_file = build_run_config(cfg, {})
        argv = ["solve", "--data", "d", "--out", "o"]
        for k, t in texts.items():
            argv += [f"--{k}", t]
        from_flags = build_run_config(None, vars(cli.build_parser().parse_args(argv)))
        assert from_file == from_flags
        if expected is not None:
            assert from_file == expected
        for k, v in defaults.items():
            got = getattr(from_file, k)
            assert type(got) is type(v), k
            if isinstance(v, tuple):
                assert all(type(x) is float for x in got), k


def test_run_config_unit_conversion():
    rc = RunConfig(sigma_toa_ns=2.0, sigma_aod_deg=3.0, sigma_aoa_deg=4.0)
    noise = rc.noise_model()
    assert noise.sigma_toa == pytest.approx(2e-9)
    assert noise.sigma_aod == pytest.approx(math.radians(3.0))
    assert noise.sigma_aoa == pytest.approx(math.radians(4.0))
    robust = rc.robust_config()
    assert robust.t_eps == rc.t_eps
    sim = rc.sim_config(noiseless=True)
    assert sim.noise is None and sim.gain_sigma_db == 0.0
    assert sim.bias_range == (-100e-9, 100e-9)
    noisy = rc.sim_config(noiseless=False)
    assert noisy.noise is not None


def test_run_config_defaults_are_the_library_defaults():
    # the defaults are converted from the library's; the conversions back
    # to library units must reproduce them exactly
    rc = RunConfig()
    assert rc.robust_config() == RobustConfig()
    assert rc.noise_model() == NoiseModel()
    assert rc.gain_model() == PathLossModel()
    assert rc.sim_config() == SimConfig()
    assert rc.t_los == DEFAULT_T_LOS


@pytest.fixture
def scene_files(tmp_path):
    scene = tmp_path / "scene.txt"
    pos = tmp_path / "pos.txt"
    write_scene(square_scene(), scene)
    write_positions([[3.0, -4.0], [0.0, 0.5], [-6.0, 4.0]], pos)
    return scene, pos


def test_cli_simulate_solve_sweep(tmp_path, scene_files, capsys):
    scene, pos = scene_files
    data = tmp_path / "data.jsonl"
    # a range with lo == hi fixes the clock bias, as SimConfig allows
    code = main(["simulate", "--scene", str(scene), "--positions", str(pos),
                 "--out", str(data), "--noiseless", "--max_bounces", "2",
                 "--seed", "7", "--bias_range_ns", "[5, 5]"])
    assert code == 0
    assert "wrote 3 snapshots" in capsys.readouterr().out
    snaps = read_dataset(data)
    assert len(snaps) == 3 and snaps[0].truth is not None
    assert all(s.truth.ue.clock_bias == 5e-9 for s in snaps)

    sols = tmp_path / "sols.jsonl"
    metrics = tmp_path / "metrics.csv"
    code = main(["solve", "--data", str(data), "--out", str(sols),
                 "--mode", "robust_mixed", "--metrics", str(metrics)])
    assert code == 0
    assert "solved 3/3" in capsys.readouterr().out
    rows = read_jsonl(sols)
    assert [r["id"] for r in rows] == [s.id for s in snaps]
    for row, snap in zip(rows, snaps):
        assert row["failed"] is False
        assert row["hypothesis"] == "los"
        true_pos = snap.truth.ue.position
        assert math.hypot(row["ue"]["pos"][0] - true_pos[0],
                          row["ue"]["pos"][1] - true_pos[1]) < 1e-6
        assert row["detection"]["decided"] == "los"
    lines = metrics.read_text().splitlines()
    assert len(lines) == 4 and lines[0].startswith("id,position_error_m")

    curve = tmp_path / "curve.csv"
    code = main(["sweep", "--data", str(data), "--out", str(curve),
                 "--p_grid", "0:0.5:1", "--trials", "20"])
    assert code == 0
    assert "p_los=1.000" in capsys.readouterr().out
    rows = curve.read_text().splitlines()
    assert rows[0] == "p_los,rmse_m,rmse_excluding_m"
    assert len(rows) == 4
    vals = [float(r.split(",")[1]) for r in rows[1:]]
    assert vals[0] >= vals[1] >= vals[2]


def test_cli_seed_changes_dataset(tmp_path, scene_files):
    scene, pos = scene_files
    a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
    base = ["simulate", "--scene", str(scene), "--positions", str(pos),
            "--max_bounces", "1"]
    assert main([*base, "--out", str(a), "--seed", "1"]) == 0
    assert main([*base, "--out", str(b), "--seed", "1"]) == 0
    assert main([*base, "--out", str(c), "--seed", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_cli_flag_beats_config(tmp_path, scene_files, monkeypatch):
    scene, pos = scene_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\nmax_bounces = 1\n")
    monkeypatch.setenv("SNAPSLAM_CONFIG", str(cfg))
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    base = ["simulate", "--scene", str(scene), "--positions", str(pos)]
    assert main([*base, "--out", str(a)]) == 0
    assert main([*base, "--out", str(b), "--seed", "2"]) == 0
    follows_cfg = read_dataset(a)
    follows_flag = read_dataset(b)
    assert follows_cfg[0].paths[0].toa != follows_flag[0].paths[0].toa


def test_cli_workers_do_not_change_output(tmp_path, scene_files):
    scene, pos = scene_files
    data = tmp_path / "data.jsonl"
    main(["simulate", "--scene", str(scene), "--positions", str(pos),
          "--out", str(data), "--max_bounces", "2"])
    one, two = tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"
    m_one, m_two = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(["solve", "--data", str(data), "--out", str(one),
                 "--metrics", str(m_one), "--workers", "1"]) == 0
    assert main(["solve", "--data", str(data), "--out", str(two),
                 "--metrics", str(m_two), "--workers", "2"]) == 0
    assert one.read_bytes() == two.read_bytes()
    assert m_one.read_bytes() == m_two.read_bytes()


def test_cli_asks_for_no_more_workers_than_snapshots(tmp_path, monkeypatch):
    # a stand-in pool that records its size and maps in-process: no real
    # process is started
    asked = []

    class InProcess:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcess)
    data, lone = tmp_path / "data.jsonl", tmp_path / "lone.jsonl"
    write_dataset([random_h0_snapshot(seed) for seed in range(4)], data)
    write_dataset([random_h0_snapshot(0)], lone)
    one, many = tmp_path / "w1.jsonl", tmp_path / "w64.jsonl"
    assert main(["solve", "--data", str(data), "--out", str(one), "--workers", "1"]) == 0
    assert main(["solve", "--data", str(data), "--out", str(many), "--workers", "64"]) == 0
    assert asked == [4]
    assert one.read_bytes() == many.read_bytes()
    # one snapshot takes the serial path
    assert main(["solve", "--data", str(lone), "--out", str(many), "--workers", "64"]) == 0
    assert asked == [4]


def test_cli_error_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["solve", "--data", str(tmp_path / "missing.jsonl"),
                 "--out", str(tmp_path / "o.jsonl")]) == 2
    assert "missing.jsonl" in capsys.readouterr().err

    bad_scene = tmp_path / "scene.txt"
    bad_scene.write_text("wall = [[0, 0], [1, 0]]\n")
    pos = tmp_path / "pos.txt"
    pos.write_text("[1.0, 1.0]\n")
    assert main(["simulate", "--scene", str(bad_scene), "--positions",
                 str(pos), "--out", str(tmp_path / "d.jsonl")]) == 2
    capsys.readouterr()
    # a number past the float range is bad input, not an OverflowError
    bad_scene.write_text(f"bs = [0, 1{'0' * 400}, 0]\n")
    assert main(["simulate", "--scene", str(bad_scene), "--positions",
                 str(pos), "--out", str(tmp_path / "d.jsonl")]) == 2
    assert "line 1: bs: could not convert y to a finite number" in capsys.readouterr().err
    huge = tmp_path / "huge.jsonl"
    write_dataset([random_h0_snapshot(0)], huge)
    row = json.loads(huge.read_text())
    row["bs"]["ori"] = 10 ** 400
    huge.write_text(json.dumps(row))
    assert main(["solve", "--data", str(huge), "--out", str(tmp_path / "o.jsonl")]) == 2
    assert "line 1: could not convert bs.ori to a finite number" in capsys.readouterr().err
    assert not (tmp_path / "o.jsonl").exists()

    # a receiver on the anchor is named by its index
    room = Path(__file__).resolve().parents[1] / "demos" / "room.scene"
    write_positions([[3.0, 2.0], [-5.0, 2.0]], pos)
    assert main(["simulate", "--scene", str(room), "--positions", str(pos),
                 "--out", str(tmp_path / "d.jsonl")]) == 2
    assert "InvalidPosition: position 1 coincides with the anchor" in capsys.readouterr().err
    assert not (tmp_path / "d.jsonl").exists()

    # a dataset with no snapshots is bad input to every command
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    for command in ("solve", "sweep"):
        assert main([command, "--data", str(empty), "--out", str(tmp_path / "e.out")]) == 2
        assert "empty.jsonl holds no snapshots" in capsys.readouterr().err
        assert not (tmp_path / "e.out").exists()

    # a dataset nothing can solve: single-path snapshots
    snap = random_h0_snapshot(0)
    lone = Snapshot(id="lone", bs=snap.bs, paths=snap.paths[:1], truth=None)
    data = tmp_path / "lone.jsonl"
    write_dataset([lone], data)
    sols = tmp_path / "sols.jsonl"
    assert main(["solve", "--data", str(data), "--out", str(sols)]) == 3
    assert "every snapshot failed" in capsys.readouterr().err
    row = read_jsonl(sols)[0]
    assert row["failed"] is True and "TooFewPaths" in row["error"]

    # a sweep with fewer than one trial is rejected before any snapshot
    curve = tmp_path / "c.csv"
    for trials in ("0", "-3"):
        assert main(["sweep", "--data", str(data), "--out", str(curve),
                     "--trials", trials]) == 2
        assert "trials must be >= 1" in capsys.readouterr().err
    assert not curve.exists()

    # an excluded id that names no snapshot is rejected before any solve
    assert main(["sweep", "--data", str(data), "--out", str(curve),
                 "--exclude", "lone, lnoe"]) == 2
    assert "exclude_ids name no snapshot: lnoe" in capsys.readouterr().err
    assert not curve.exists()

    # a grid with an infinite bound is rejected before the dataset is read
    assert main(["sweep", "--data", str(tmp_path / "missing.jsonl"), "--out", str(curve),
                 "--p_grid", "0:0.1:inf"]) == 2
    assert "p_grid '0:0.1:inf': start, step, stop and the point count must be finite" in (
        capsys.readouterr().err)
    assert not curve.exists()
    with monkeypatch.context() as patch:
        _build_no_grid_point(patch)
        assert main(["sweep", "--data", str(data), "--out", str(curve),
                     "--p_grid", "0:1e-12:1"]) == 2
    assert "p_grid '0:1e-12:1': 1000000000001 points, more than 10001" in (
        capsys.readouterr().err)
    assert not curve.exists()

    # a coin matrix past the sweep's bound is rejected before any solve
    assert main(["sweep", "--data", str(data), "--out", str(curve), "--trials", "20000000"]) == 2
    assert "20000000 trials x 1 snapshots > 16777216 coins" in capsys.readouterr().err
    assert not curve.exists()

    # simulation settings the generator cannot draw from
    scene = tmp_path / "room.scene"
    scene.write_text("bs = [0, 0, 0]\nwall = [[-5, 5], [5, 5]]\n")
    for flag, value, message in (
            ("--bias_range_ns", "[-inf, 0]", "bias_range must be two finite numbers lo <= hi"),
            ("--per_bounce_extra_db", "nan", "per_bounce_extra_db must be finite")):
        assert main(["simulate", "--scene", str(scene), "--positions", str(pos),
                     "--out", str(tmp_path / "d.jsonl"), flag, value]) == 2
        assert message in capsys.readouterr().err, flag
    assert not (tmp_path / "d.jsonl").exists()

    # a config file that sets a key twice
    twice = tmp_path / "twice.cfg"
    twice.write_text("t_eps = 0.2\nt_eps = 0.3\n")
    assert main(["solve", "--data", str(data), "--out", str(sols), "--config", str(twice)]) == 2
    assert "line 2: duplicate key 't_eps', first on line 1" in capsys.readouterr().err

    # a threshold the gate cannot use is rejected before any snapshot is solved
    out = tmp_path / "rejected.jsonl"
    assert main(["solve", "--data", str(data), "--out", str(out), "--t_eps", "inf"]) == 2
    assert "t_eps must be finite and strictly positive, got inf" in capsys.readouterr().err
    assert not out.exists()

    # the near-parallel threshold is a constant, not a setting
    with pytest.raises(SystemExit) as refused:
        main(["solve", "--data", str(data), "--out", str(out), "--t_nu", "0.2"])
    assert refused.value.code == 2
    assert "unrecognized arguments: --t_nu 0.2" in capsys.readouterr().err
    near = tmp_path / "near.cfg"
    near.write_text("t_nu = 0.2\n")
    assert main(["solve", "--data", str(data), "--out", str(out), "--config", str(near)]) == 2
    assert "unknown config key 't_nu'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_bad_settings_before_any_solve(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    write_dataset([random_h0_snapshot(0)], data)
    out = tmp_path / "sols.jsonl"
    for flag, value, message in (("--t_los", "nan", "t_los must be finite"),
                                 ("--t_los", "inf", "t_los must be finite"),
                                 ("--workers", "0", "workers must be >= 1"),
                                 ("--workers", "-2", "workers must be >= 1")):
        assert main(["solve", "--data", str(data), "--out", str(out), flag, value]) == 2
        assert message in capsys.readouterr().err, (flag, value)
        assert not out.exists()


def test_cli_names_the_flag_of_a_value_that_does_not_convert(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    write_dataset([random_h0_snapshot(0)], data)
    curve = tmp_path / "c.csv"
    assert main(["sweep", "--data", str(data), "--out", str(curve), "--trials", "2.5"]) == 2
    assert "error: --trials: invalid literal" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 2.5\n")
    assert main(["sweep", "--data", str(data), "--out", str(curve), "--config", str(cfg)]) == 2
    assert "error: config key 'trials': invalid literal" in capsys.readouterr().err
    assert not curve.exists()


def test_cli_sweep_exclude(tmp_path, scene_files, capsys):
    scene, pos = scene_files
    data = tmp_path / "data.jsonl"
    main(["simulate", "--scene", str(scene), "--positions", str(pos),
          "--out", str(data), "--noiseless", "--max_bounces", "1"])
    curve = tmp_path / "c.csv"
    assert main(["sweep", "--data", str(data), "--out", str(curve),
                 "--p_grid", "1.0", "--trials", "5",
                 "--exclude", "pos_000, pos_001"]) == 0
    capsys.readouterr()
    line = curve.read_text().splitlines()[1]
    p, r_all, r_excl = (float(t) for t in line.split(","))
    assert p == 1.0 and r_all < 1e-6 and r_excl < 1e-6


def test_cli_solve_isolates_unexpected_errors(tmp_path, monkeypatch, capsys):
    snaps = [random_h0_snapshot(s, sid=f"s{s}") for s in range(3)]
    data = tmp_path / "data.jsonl"
    write_dataset(snaps, data)
    real = evaluation.solve_snapshot

    def flaky(snapshot, *args):
        if snapshot.id == "s1":
            raise ValueError("bad snapshot")
        return real(snapshot, *args)

    monkeypatch.setattr(evaluation, "solve_snapshot", flaky)
    sols = tmp_path / "sols.jsonl"
    assert main(["solve", "--data", str(data), "--out", str(sols),
                 "--workers", "1"]) == 0
    assert "solved 2/3" in capsys.readouterr().out
    rows = read_jsonl(sols)
    assert [r["id"] for r in rows] == ["s0", "s1", "s2"]
    assert [r["failed"] for r in rows] == [False, True, False]
    assert rows[1]["error"] == "ValueError: bad snapshot"


def test_cli_names_the_line_of_a_truncated_row(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    write_dataset([random_h0_snapshot(s, sid=f"s{s}") for s in range(2)], data)
    first, second = data.read_text().splitlines()
    data.write_text(first + "\n" + second[:second.index('"bs"')].rstrip(", ") + "}\n")
    assert main(["solve", "--data", str(data), "--out", str(tmp_path / "o.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "'bs'" in err
