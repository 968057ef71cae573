"""File formats: JSONL datasets and solutions, scene text, CSV reports.

Times cross the file boundary in nanoseconds and angles in radians; the
in-memory types keep seconds. Floats are written with Python's shortest
round-trip repr, so a write/read cycle reproduces every value bit for bit
(stored times are canonical fixpoints of the nanosecond conversion).
"""

from __future__ import annotations

import ast
import json
import math
import sys
from typing import Iterable, Optional, Sequence

import numpy as np

from .detector import DetectionResult
from .evaluation import ErrorRecord, SweepResult
from .geometry import PathMeasurement, Pose, UeState
from .robust import SlamSolution
from .sim import GroundTruth, Scene, Snapshot, Wall, canonical_seconds

NS = 1e9


def _point(x) -> list:
    return [float(x[0]), float(x[1])]


def snapshot_to_dict(snapshot: Snapshot) -> dict:
    """Plain-python dict form of a snapshot (the JSONL row layout)."""
    paths = [{"toa_ns": float(m.toa * NS), "aod_rad": float(m.aod),
              "aoa_rad": float(m.aoa), "gain": float(m.gain)}
             for m in snapshot.paths]
    row = {"id": snapshot.id,
           "bs": {"pos": _point(snapshot.bs.position),
                  "ori": float(snapshot.bs.orientation)},
           "paths": paths}
    truth = snapshot.truth
    if truth is None:
        row["truth"] = None
    else:
        row["truth"] = {
            "ue": {"pos": _point(truth.ue.position),
                   "ori": float(truth.ue.orientation),
                   "bias_ns": float(truth.ue.clock_bias * NS)},
            "labels": list(truth.labels),
            "incidence": [None if p is None else _point(p) for p in truth.incidence],
        }
    return row


def snapshot_from_dict(row: dict) -> Snapshot:
    """Inverse of :func:`snapshot_to_dict`; times are re-canonicalized."""
    bs = Pose(position=row["bs"]["pos"], orientation=float(row["bs"]["ori"]))
    paths = tuple(PathMeasurement(toa=canonical_seconds(float(p["toa_ns"]) / NS),
                                  aod=float(p["aod_rad"]), aoa=float(p["aoa_rad"]),
                                  gain=float(p["gain"]))
                  for p in row["paths"])
    truth_row = row.get("truth")
    truth = None
    if truth_row is not None:
        ue = UeState(position=truth_row["ue"]["pos"],
                     orientation=float(truth_row["ue"]["ori"]),
                     clock_bias=canonical_seconds(float(truth_row["ue"]["bias_ns"]) / NS))
        truth = GroundTruth(ue=ue, labels=tuple(truth_row["labels"]),
                            incidence=tuple(None if p is None else np.array(p, dtype=float)
                                            for p in truth_row["incidence"]))
    return Snapshot(id=str(row["id"]), bs=bs, paths=paths, truth=truth)


def write_jsonl(rows: Iterable[dict], path) -> None:
    """One JSON object per line, in input order."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row))
            fh.write("\n")


def _numbered_lines(path):
    """(line number, stripped text) of every non-blank line."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield lineno, line


def read_jsonl(path) -> list[dict]:
    return [json.loads(line) for _, line in _numbered_lines(path)]


def write_dataset(snapshots: Sequence[Snapshot], path) -> None:
    write_jsonl((snapshot_to_dict(s) for s in snapshots), path)


def read_dataset(path) -> list[Snapshot]:
    """Snapshots of a dataset file, in file order.

    Raises ValueError naming the file line, and the field if one is
    missing, for a row that is not valid JSON or not a snapshot.
    """
    out = []
    for lineno, line in _numbered_lines(path):
        try:
            out.append(snapshot_from_dict(json.loads(line)))
        except KeyError as exc:
            raise ValueError(f"{path}, line {lineno}: missing field "
                             f"{exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:   # JSONDecodeError is a ValueError
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
    return out


def solution_to_dict(snapshot_id: str, solution: SlamSolution,
                     detection: Optional[DetectionResult] = None,
                     mode: str = "") -> dict:
    """Solution row for the output JSONL."""
    row = {"id": snapshot_id,
           "failed": False,
           "mode": mode,
           "hypothesis": solution.hypothesis.value,
           "ue": {"pos": _point(solution.ue.position),
                  "ori": float(solution.ue.orientation),
                  "bias_ns": float(solution.ue.clock_bias * NS)},
           "inliers": list(solution.inliers),
           "outliers": list(solution.outliers),
           "cost": float(solution.cost),
           "landmarks": [{"pos": _point(lm.position),
                          "source_path": int(lm.source_path)}
                         for lm in solution.landmarks]}
    if detection is None:
        row["detection"] = None
    else:
        stat = detection.statistic
        row["detection"] = {"decided": detection.decided.value,
                            "statistic": None if math.isinf(stat) else float(stat),
                            "threshold": float(detection.threshold),
                            "candidate": int(detection.candidate)}
    return row


def failure_to_dict(snapshot_id: str, message: str, mode: str = "") -> dict:
    return {"id": snapshot_id, "failed": True, "mode": mode, "error": message}


def write_metrics_csv(records: Sequence[ErrorRecord], path) -> None:
    """Per-snapshot error table; heading in degrees, bias in nanoseconds."""
    with open(path, "w") as fh:
        fh.write("id,position_error_m,heading_error_deg,bias_error_ns,"
                 "hypothesis_decided,hypothesis_true\n")
        for r in records:
            fh.write(f"{r.snapshot_id},{r.position_error!r},"
                     f"{math.degrees(r.heading_error)!r},"
                     f"{r.bias_error * NS!r},{r.hypothesis_decided.value},"
                     f"{r.hypothesis_true.value}\n")


def write_sweep_csv(sweep: SweepResult, path) -> None:
    with open(path, "w") as fh:
        fh.write("p_los,rmse_m,rmse_excluding_m\n")
        for p, a, b in zip(sweep.p_grid, sweep.rmse, sweep.rmse_excluding):
            fh.write(f"{p!r},{a!r},{b!r}\n")


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def read_scene(path) -> Scene:
    """Parse a scene file: one ``bs = [x, y, ori]`` line and ``wall =`` lines.

    Walls are ``wall = [[x1, y1], [x2, y2]]`` with an optional trailing
    per-reflection loss in dB. ``#`` starts a comment. Raises ValueError on
    malformed input, naming the offending line.
    """
    bs = None
    walls = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _strip_comment(raw).strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in ("bs", "wall"):
                raise ValueError(f"line {lineno}: expected 'bs = ...' or 'wall = ...'")
            try:
                parsed = ast.literal_eval(value.strip())
            except (ValueError, SyntaxError) as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if key == "bs":
                if bs is not None:
                    raise ValueError(f"line {lineno}: duplicate bs")
                if not (isinstance(parsed, (list, tuple)) and len(parsed) == 3):
                    raise ValueError(f"line {lineno}: bs needs [x, y, orientation]")
                bs = Pose(position=(float(parsed[0]), float(parsed[1])),
                          orientation=float(parsed[2]))
            else:
                k = len(walls)
                if not (isinstance(parsed, (list, tuple)) and len(parsed) in (2, 3)):
                    raise ValueError(
                        f"line {lineno}: wall {k} needs [[x1, y1], [x2, y2]] "
                        "with optional loss_db")
                a, b = parsed[0], parsed[1]
                loss = float(parsed[2]) if len(parsed) == 3 else 0.0
                if not (isinstance(a, (list, tuple)) and len(a) == 2
                        and isinstance(b, (list, tuple)) and len(b) == 2):
                    raise ValueError(f"line {lineno}: wall {k} endpoints must be pairs")
                try:
                    walls.append(Wall(a=a, b=b, loss_db=loss))
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: wall {k}: {exc}") from None
    if bs is None:
        raise ValueError("scene file has no 'bs = [x, y, orientation]' line")
    return Scene(walls=tuple(walls), bs=bs)


def write_scene(scene: Scene, path) -> None:
    with open(path, "w") as fh:
        p = _point(scene.bs.position)
        fh.write(f"bs = [{p[0]!r}, {p[1]!r}, {scene.bs.orientation!r}]\n")
        for w in scene.walls:
            a, b = _point(w.a), _point(w.b)
            fh.write(f"wall = [[{a[0]!r}, {a[1]!r}], [{b[0]!r}, {b[1]!r}], "
                     f"{w.loss_db!r}]\n")


def read_positions(path) -> list[np.ndarray]:
    """Receiver positions, one JSON ``[x, y]`` pair per line."""
    out = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _strip_comment(raw).strip()
            if not line:
                continue
            try:
                pair = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValueError(f"line {lineno}: expected [x, y]")
            # false for NaN; compares a huge JSON integer without converting it
            if not all(type(c) in (int, float) and abs(c) <= sys.float_info.max
                       for c in pair):
                raise ValueError(f"line {lineno}: coordinates must be finite numbers, "
                                 f"got {pair!r}")
            out.append(np.array(pair, dtype=float))
    if not out:
        raise ValueError("positions file is empty")
    return out


def write_positions(positions, path) -> None:
    with open(path, "w") as fh:
        for p in positions:
            fh.write(f"[{float(p[0])!r}, {float(p[1])!r}]\n")


def read_config(path) -> dict[str, str]:
    """``key = value`` pairs; values stay strings for the caller to type."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _strip_comment(raw).strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"line {lineno}: expected 'key = value'")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise ValueError(f"line {lineno}: expected 'key = value'")
            out[key] = value
    return out
