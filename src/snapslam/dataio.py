"""File formats: JSONL datasets and solutions, scene text, CSV reports.

Times cross the file boundary in nanoseconds and angles in radians; the
in-memory types keep seconds. Floats are written with Python's shortest
round-trip repr, so a write/read cycle reproduces every value bit for bit
(stored times are canonical fixpoints of the nanosecond conversion).
"""

from __future__ import annotations

import ast
import csv
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


def _is_number(value) -> bool:
    """The readers' one number rule: an int or a float, not a bool, of
    magnitude at most ``sys.float_info.max``.

    False for NaN and infinities; compares a huge integer without converting
    it, which would raise OverflowError.
    """
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _number(value, field: str) -> float:
    """``value`` as a float if ``_is_number``; else ValueError naming ``field``."""
    if _is_number(value):
        return float(value)
    raise ValueError(f"could not convert {field} to a finite number: {value!r}")


def _pair(value, field: str) -> list:
    """``value`` as [x, y] floats if it is a list or tuple of two numbers
    under ``_is_number``; else ValueError naming ``field``."""
    if (type(value) in (list, tuple) and len(value) == 2
            and _is_number(value[0]) and _is_number(value[1])):
        return [float(value[0]), float(value[1])]
    raise ValueError(f"{field} must be an [x, y] pair of finite numbers, got {value!r}")


def _typed(value, kinds, field: str, what: str):
    """``value`` if it is an instance of ``kinds``; else ValueError naming
    ``field``, ``what`` it must be and the type it has."""
    if isinstance(value, kinds):
        return value
    raise ValueError(f"{field} must be {what}, got {type(value).__name__}")


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


_PATH_FIELDS = ("toa_ns", "aod_rad", "aoa_rad", "gain")


def _measurement(p: dict) -> PathMeasurement:
    """A dataset row's path, an object, as a PathMeasurement; every field
    under ``_number``."""
    p = _typed(p, dict, "path", "an object")
    toa, aod, aoa, gain = p["toa_ns"], p["aod_rad"], p["aoa_rad"], p["gain"]
    # four finite floats in one test, the row as write_dataset writes it; the
    # sum can overflow only where every field passes
    if not (type(toa) is type(aod) is type(aoa) is type(gain) is float
            and math.isfinite(toa + aod + aoa + gain)):
        toa, aod, aoa, gain = (_number(v, name) for v, name
                               in zip((toa, aod, aoa, gain), _PATH_FIELDS))
    return PathMeasurement(canonical_seconds(toa / NS), aod, aoa, gain)


def snapshot_from_dict(row: dict) -> Snapshot:
    """Inverse of :func:`snapshot_to_dict`; times are re-canonicalized.

    The row must be an object (a dict) with a string ``id``, objects for
    ``bs``, each path, ``truth`` (or null) and ``truth.ue``, and arrays for
    ``paths``, ``truth.labels`` and ``truth.incidence``. Every number must
    pass ``_is_number``, and every point be an [x, y] pair of them;
    otherwise ValueError names the field.
    """
    row = _typed(row, dict, "row", "an object")
    bs_row = _typed(row["bs"], dict, "bs", "an object")
    bs = Pose(position=_pair(bs_row["pos"], "bs.pos"),
              orientation=_number(bs_row["ori"], "bs.ori"))
    paths = tuple(map(_measurement, _typed(row["paths"], (list, tuple), "paths", "an array")))
    truth_row = row.get("truth")
    truth = None
    if truth_row is not None:
        truth_row = _typed(truth_row, dict, "truth", "an object or null")
        ue_row = _typed(truth_row["ue"], dict, "truth.ue", "an object")
        ue = UeState(position=_pair(ue_row["pos"], "truth.ue.pos"),
                     orientation=_number(ue_row["ori"], "truth.ue.ori"),
                     clock_bias=canonical_seconds(_number(ue_row["bias_ns"],
                                                          "truth.ue.bias_ns") / NS))
        labels = _typed(truth_row["labels"], (list, tuple), "truth.labels", "an array")
        incidence = _typed(truth_row["incidence"], (list, tuple), "truth.incidence", "an array")
        truth = GroundTruth(ue=ue, labels=tuple(labels),
                            incidence=tuple(None if p is None
                                            else np.array(_pair(p, "truth.incidence"))
                                            for p in incidence))
    return Snapshot(id=_typed(row["id"], str, "id", "a string"), bs=bs, paths=paths, truth=truth)


def write_jsonl(rows: Iterable[dict], path) -> None:
    """One JSON object per line, in input order."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row))
            fh.write("\n")


def _numbered_lines(path, comments: bool = False):
    """(line number, stripped text) of every non-blank line.

    With ``comments``, a ``#`` and the rest of its line are dropped first.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if comments:
                line = line.partition("#")[0]
            line = line.strip()
            if line:
                yield lineno, line


def read_jsonl(path) -> list[dict]:
    """The JSON object of every non-blank line, in file order."""
    return [json.loads(line) for _, line in _numbered_lines(path)]


def write_dataset(snapshots: Sequence[Snapshot], path) -> None:
    """Snapshots as a JSONL dataset, one ``snapshot_to_dict`` row per line."""
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
    """Output JSONL row of a snapshot whose solve failed with ``message``."""
    return {"id": snapshot_id, "failed": True, "mode": mode, "error": message}


def write_metrics_csv(records: Sequence[ErrorRecord], path) -> None:
    """Per-snapshot error table; heading in degrees, bias in nanoseconds.

    Rows are CSV-quoted, so an id with a comma or a quote stays one field.
    """
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["id", "position_error_m", "heading_error_deg", "bias_error_ns",
                      "hypothesis_decided", "hypothesis_true"])
        for r in records:
            out.writerow([r.snapshot_id, r.position_error, math.degrees(r.heading_error),
                          r.bias_error * NS, r.hypothesis_decided.value,
                          r.hypothesis_true.value])


def write_sweep_csv(sweep: SweepResult, path) -> None:
    """One row per grid probability: p_los, RMSE and RMSE with exclusions, m."""
    with open(path, "w") as fh:
        fh.write("p_los,rmse_m,rmse_excluding_m\n")
        for p, a, b in zip(sweep.p_grid, sweep.rmse, sweep.rmse_excluding):
            fh.write(f"{p!r},{a!r},{b!r}\n")


def read_scene(path) -> Scene:
    """Parse a scene file: one ``bs = [x, y, ori]`` line and ``wall =`` lines.

    Walls are ``wall = [[x1, y1], [x2, y2]]`` with an optional trailing
    per-reflection loss in dB. ``#`` starts a comment. Raises ValueError on
    malformed input, naming the offending line.
    """
    bs = None
    walls = []
    for lineno, line in _numbered_lines(path, comments=True):
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
            try:
                bs = Pose(position=(_number(parsed[0], "x"), _number(parsed[1], "y")),
                          orientation=_number(parsed[2], "orientation"))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bs: {exc}") from None
        else:
            k = len(walls)
            if not (isinstance(parsed, (list, tuple)) and len(parsed) in (2, 3)):
                raise ValueError(
                    f"line {lineno}: wall {k} needs [[x1, y1], [x2, y2]] "
                    "with optional loss_db")
            a, b = parsed[0], parsed[1]
            if not (isinstance(a, (list, tuple)) and len(a) == 2
                    and isinstance(b, (list, tuple)) and len(b) == 2):
                raise ValueError(f"line {lineno}: wall {k} endpoints must be pairs")
            try:
                x1, y1, x2, y2 = (_number(v, name) for v, name in
                                  zip((*a, *b), ("x1", "y1", "x2", "y2")))
                loss = _number(parsed[2], "loss_db") if len(parsed) == 3 else 0.0
                walls.append(Wall(a=(x1, y1), b=(x2, y2), loss_db=loss))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: wall {k}: {exc}") from None
    if bs is None:
        raise ValueError("scene file has no 'bs = [x, y, orientation]' line")
    return Scene(walls=tuple(walls), bs=bs)


def write_scene(scene: Scene, path) -> None:
    """Scene file that ``read_scene`` reads back: the anchor line, then the walls."""
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
    for lineno, line in _numbered_lines(path, comments=True):
        try:
            pair = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"line {lineno}: expected [x, y]")
        if not (_is_number(pair[0]) and _is_number(pair[1])):
            raise ValueError(f"line {lineno}: coordinates must be finite numbers, "
                             f"got {pair!r}")
        out.append(np.array(pair, dtype=float))
    if not out:
        raise ValueError("positions file is empty")
    return out


def write_positions(positions, path) -> None:
    """Positions file that ``read_positions`` reads back, one ``[x, y]`` per line."""
    with open(path, "w") as fh:
        for p in positions:
            fh.write(f"[{float(p[0])!r}, {float(p[1])!r}]\n")


def read_config(path) -> dict[str, str]:
    """``key = value`` pairs; values stay strings for the caller to type.

    A key set twice is an error naming both lines.
    """
    seen: dict[str, tuple[int, str]] = {}
    for lineno, line in _numbered_lines(path, comments=True):
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}, first on line {seen[key][0]}")
        seen[key] = (lineno, value)
    return {key: value for key, (_, value) in seen.items()}
