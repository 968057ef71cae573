"""Seeded inputs of the benchmark workloads.

Every workload is a fixed-size corpus of truth-annotated snapshots drawn
from the workload seed alone; the program under test only ever sees the
dataset file written from it.

* room corpora trace ``demos/room.scene`` with the package simulator at
  ``max_bounces = 2`` (LoS + 4 single + 8 double bounces = 13 paths);
  positions are uniform inside the walls, kept off the walls and the anchor.
* the field corpus is open-field random geometry in the style of the test
  builders: 5-7 noisy single bounces, 0-2 multi-bounce outliers, no LoS.
  Scenes with exactly the minimal 4 single bounces are left out: about one
  in ten of them has no feasible cell once noise is added and fails with
  ``NoFeasibleSolution``, and a workload must not fail operations.
  The path counts are stratified, not drawn: snapshot ``k`` takes the
  ``k % 9``-th of the nine (single, multi) pairs. Search time doubles with
  every path, so a drawn mix would move the latency statistics with the
  seed more than any code change; the seed draws the geometry and noise.
"""

from __future__ import annotations

import math
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import snapslam
from snapslam import (
    GroundTruth,
    NoiseModel,
    PathLossModel,
    PathMeasurement,
    Pose,
    SimConfig,
    Snapshot,
    UeState,
    path_loss_mean,
    polyline_measurement,
    wrap_angle,
)

ROOM_SCENE = Path("demos") / "room.scene"
ROOM_MAX_BOUNCES = 2
WALL_MARGIN_M = 0.3
ANCHOR_CLEARANCE_M = 1.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Every run solves all ``snapshots`` of the corpus, whatever the machine
    speed, so output digests and exact counts repeat. ``check`` (at most
    ``snapshots``) is the prefix solved again through the command line
    front end and compared row by row.
    """

    name: str
    scene: str          # "room" or "field"
    mode: str
    snapshots: int
    check: int

    def __post_init__(self):
        if not 1 <= self.check <= self.snapshots:
            raise ValueError("need 1 <= check <= snapshots")


WORKLOADS = {w.name: w for w in (
    # not in BENCHMARK.json: one 13-path search is too noisy on a shared machine to gate
    Workload("room_nlos", "room", "robust_h1", snapshots=1, check=1),
    Workload("room_mixed", "room", "robust_mixed", snapshots=100, check=20),
    Workload("field_nlos", "field", "robust_h1", snapshots=36, check=10),
)}


def room_positions(scene, count: int, seed: int) -> list[np.ndarray]:
    """Receiver positions uniform inside the walls' bounding box.

    Rejection keeps every position ``WALL_MARGIN_M`` inside the box and
    ``ANCHOR_CLEARANCE_M`` away from the anchor.
    """
    corners = np.array([p for w in scene.walls for p in (w.a, w.b)])
    lo = corners.min(axis=0) + WALL_MARGIN_M
    hi = corners.max(axis=0) - WALL_MARGIN_M
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    out = []
    while len(out) < count:
        p = rng.uniform(lo, hi)
        if float(np.hypot(*(p - scene.bs.position))) > ANCHOR_CLEARANCE_M:
            out.append(p)
    return out


def room_corpus(root: Path, count: int, seed: int) -> list[Snapshot]:
    scene = snapslam.read_scene(root / ROOM_SCENE)
    positions = room_positions(scene, count, seed)
    # looked up at call time so that a traced run sees the wrapper
    return snapslam.generate_dataset(scene, positions,
                                     SimConfig(max_bounces=ROOM_MAX_BOUNCES),
                                     seed=seed)


# --- open field ----------------------------------------------------------

# (single bounces, multi-bounce outliers) of snapshot k: FIELD_MIX[k % 9]
FIELD_MIX = tuple(itertools.product((5, 6, 7), (0, 1, 2)))
_GAIN_MODEL = PathLossModel()
_SINGLE_EXCESS_DB = 8.0
_MULTI_EXCESS_DB = 15.0


def _gain(length_m: float, excess_db: float) -> float:
    return 10.0 ** ((path_loss_mean(length_m, _GAIN_MODEL) - excess_db) / 10.0)


def _clearance(p, a, b) -> float:
    d = b - a
    t = min(max(float((p - a) @ d) / float(d @ d), 0.0), 1.0)
    return float(np.hypot(*(p - (a + t * d))))


def _noisy(z, noise: NoiseModel, rng) -> tuple[float, float, float]:
    toa, aod, aoa = z
    return (toa + noise.sigma_toa * rng.standard_normal(),
            wrap_angle(aod + noise.sigma_aod * rng.standard_normal()),
            wrap_angle(aoa + noise.sigma_aoa * rng.standard_normal()))


def field_snapshot(sid: str, rng, n_single: int, n_multi: int,
                   noise: NoiseModel = NoiseModel()) -> Snapshot:
    """Random anchor, user, landmarks and outlier corners; the path counts are given."""
    bs = Pose(rng.uniform(-5.0, 5.0, size=2), float(rng.uniform(-math.pi, math.pi)))
    while True:
        pos = rng.uniform(-15.0, 15.0, size=2)
        if float(np.hypot(*(pos - bs.position))) > 3.0:
            break
    ue = UeState(pos, float(rng.uniform(-math.pi, math.pi)),
                 float(rng.uniform(-100e-9, 100e-9)))

    paths, labels, incidence = [], [], []
    while len(paths) < n_single:
        lm = rng.uniform(-25.0, 25.0, size=2)
        if (np.hypot(*(lm - bs.position)) < 1.0 or np.hypot(*(lm - ue.position)) < 1.0
                or _clearance(lm, bs.position, ue.position) < 1.5):
            continue
        length = float(np.hypot(*(lm - bs.position)) + np.hypot(*(ue.position - lm)))
        toa, aod, aoa = _noisy(polyline_measurement(ue, bs, [lm]), noise, rng)
        paths.append(PathMeasurement(toa, aod, aoa, _gain(length, _SINGLE_EXCESS_DB)))
        labels.append("single")
        incidence.append(lm)
    direct = float(np.hypot(*(ue.position - bs.position)))
    while len(labels) < n_single + n_multi:
        corners = [rng.uniform(-25.0, 25.0, size=2)
                   for _ in range(int(rng.integers(2, 4)))]
        chain = [bs.position, *corners, ue.position]
        if min(np.hypot(*(b - a)) for a, b in zip(chain[:-1], chain[1:])) < 1.0:
            continue
        # gain set at the direct distance, as for the test builders' outliers
        toa, aod, aoa = _noisy(polyline_measurement(ue, bs, corners), noise, rng)
        paths.append(PathMeasurement(toa, aod, aoa, _gain(direct, _MULTI_EXCESS_DB)))
        labels.append("multi")
        incidence.append(None)
    truth = GroundTruth(ue=ue, labels=tuple(labels), incidence=tuple(incidence))
    return Snapshot(id=sid, bs=bs, paths=tuple(paths), truth=truth)


def field_corpus(count: int, seed: int) -> list[Snapshot]:
    children = np.random.SeedSequence([seed, 1]).spawn(count)
    return [field_snapshot(f"field_{k:04d}", np.random.default_rng(child),
                           *FIELD_MIX[k % len(FIELD_MIX)])
            for k, child in enumerate(children)]


def make_corpus(workload: Workload, root: Path, seed: int) -> list[Snapshot]:
    if workload.scene == "room":
        return room_corpus(root, workload.snapshots, seed)
    return field_corpus(workload.snapshots, seed)
