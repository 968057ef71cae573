"""Synthetic scene simulator: mirror-image multipath tracing.

Scenes are 2-D: an anchor pose plus straight wall segments with per-wall
reflection loss. Paths up to triple bounces are enumerated with the image
method (mirror the anchor across each wall of an ordered wall sequence, then
unfold the reflection points back), keeping only paths whose reflection
points fall strictly inside their walls and whose legs are not blocked by
other walls. The direct path is the empty wall sequence, traced, tested and
measured like every other. Gains follow the same distance model the
detector tests against, so simulated data is self-consistent end to end.

The tracer works on (x, y) pairs of Python floats, and only the stored
reflection points become arrays. Python floats round as NumPy does, and on
2-vectors a NumPy call costs more than the arithmetic it does. What depends
on the scene alone, the image tree (every wall sequence with the anchor's
images across it), is built once per scene and depth and kept on the
``Scene``; each receiver then costs only its own unfold, blocking tests and
measurement. Each snapshot draws its gain scatter in one call and its noise
in another, from the same stream and in the same order as one scalar draw
per value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateGeometry, InvalidPosition
from .geometry import (
    NoiseModel,
    PathLossModel,
    PathMeasurement,
    Pose,
    UeState,
    _as_point,
    _chain_measurement,
    _dot2,
    _frozen_point,
    _mirror,
    path_loss_mean,
    wrap_angle,
)

_EPS = 1e-9  # parameter tolerance for segment interiority
_ON_WALL_M = 1e-9  # distance within which a user position lies on a wall

KIND_LOS = "los"
KIND_SINGLE = "single_bounce"
KIND_DOUBLE = "double_bounce"
KIND_TRIPLE = "triple_bounce"
_KIND_BY_BOUNCES = {0: KIND_LOS, 1: KIND_SINGLE, 2: KIND_DOUBLE, 3: KIND_TRIPLE}


_LABELS = ("los", "single", "multi")


def dataset_label(kind: str) -> str:
    """Collapse a path kind to its dataset truth label: los/single/multi."""
    if kind == KIND_LOS:
        return "los"
    if kind == KIND_SINGLE:
        return "single"
    return "multi"


def canonical_seconds(t: float) -> float:
    """Fixed point of the seconds -> nanoseconds -> seconds float round trip.

    Values returned here survive serialization as nanoseconds exactly. The
    map x -> (x * 1e9) / 1e9 is weakly monotone, so iteration cannot cycle;
    it converges within a step or two.
    """
    t = float(t)
    for _ in range(8):
        t2 = (t * 1e9) / 1e9
        if t2 == t:
            return t
        t = t2
    return t


@dataclass(frozen=True)
class Wall:
    """Straight reflective segment with a specular loss in dB (both sides)."""

    a: np.ndarray
    b: np.ndarray
    loss_db: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", _frozen_point(self.a))
        object.__setattr__(self, "b", _frozen_point(self.b))
        object.__setattr__(self, "loss_db", float(self.loss_db))
        if self.loss_db < 0.0 or not math.isfinite(self.loss_db):
            raise ValueError("wall loss must be finite and non-negative")


@dataclass(frozen=True)
class Scene:
    """Anchor pose plus wall list.

    Raises
    ------
    DegenerateGeometry
        Naming the wall index, if any wall has zero length.
    """

    walls: tuple
    bs: Pose
    # {max_bounces: _image_tree}; per instance, since equal coordinates can
    # have different images (-0.0 == 0.0, yet a zero's sign can carry over)
    _trees: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        walls = tuple(self.walls)
        object.__setattr__(self, "walls", walls)
        for k, w in enumerate(walls):
            if _dot2(w.b - w.a, w.b - w.a) == 0.0:
                raise DegenerateGeometry(f"wall {k} has zero length")


@dataclass(frozen=True)
class TruePath:
    """One traced path with noiseless channel parameters.

    ``incidence_points`` are the reflection points from the anchor side to
    the user side (empty for LoS). ``length_m`` and ``reflection_loss_db``
    are recorded at trace time so gain synthesis needs no scene access.
    """

    kind: str
    incidence_points: tuple
    toa: float
    aod: float
    aoa: float
    gain: float = 1.0
    length_m: float = 0.0
    reflection_loss_db: float = 0.0


@dataclass(frozen=True)
class GroundTruth:
    """Truth attached to a snapshot: state, per-path labels, incidence points.

    ``labels`` holds one of ``los``, ``single`` and ``multi`` per path, the
    labels of ``dataset_label``; any other raises ValueError naming it.
    ``incidence`` carries the reflection point of single-bounce paths and
    ``None`` elsewhere (LoS and multi-bounce), matching the file format.
    """

    ue: UeState
    labels: tuple
    incidence: tuple

    def __post_init__(self):
        for label in self.labels:
            if label not in _LABELS:
                raise ValueError(f"unknown path label {label!r}; expected one of {_LABELS}")

    @property
    def has_los(self) -> bool:
        return "los" in self.labels


@dataclass(frozen=True)
class Snapshot:
    """One channel observation: anchor pose, measured paths, optional truth."""

    id: str
    bs: Pose
    paths: tuple
    truth: Optional[GroundTruth] = None

    def __post_init__(self):
        paths = tuple(self.paths)
        object.__setattr__(self, "paths", paths)
        if not paths:
            raise ValueError("snapshot must contain at least one path")
        if self.truth is not None:
            if len(self.truth.labels) != len(paths) or len(self.truth.incidence) != len(paths):
                raise ValueError("truth arrays must align with paths")


def _check_max_bounces(max_bounces) -> None:
    """The one depth rule: an int, not a bool, from 0 to 3."""
    if (isinstance(max_bounces, bool) or not isinstance(max_bounces, int)
            or not 0 <= max_bounces <= 3):
        raise ValueError(f"max_bounces must be an int between 0 and 3, got {max_bounces!r}")


def _wall_pairs(walls) -> tuple:
    """Each wall's endpoints as ((ax, ay), (bx, by)) in Python floats."""
    return tuple((tuple(w.a.tolist()), tuple(w.b.tolist())) for w in walls)


def _interior_crossing(p, q, a, b):
    """Parameter u along a->b where segment p->q crosses it, or None.

    The crossing counts only inside both segments: its parameters t along
    p->q and u along a->b must both lie in (_EPS, 1 - _EPS). Parallel
    segments never cross.
    """
    (px, py), (qx, qy), (ax, ay), (bx, by) = p, q, a, b
    rx, ry = qx - px, qy - py
    sx, sy = bx - ax, by - ay
    denom = rx * sy - ry * sx
    if denom == 0.0:
        return None
    wx, wy = ax - px, ay - py
    t = (wx * sy - wy * sx) / denom
    u = (wx * ry - wy * rx) / denom
    if _EPS < t < 1.0 - _EPS and _EPS < u < 1.0 - _EPS:
        return u
    return None


def _blocked(p, q, walls) -> bool:
    """True if the open segment p->q crosses any wall's interior."""
    for a, b in walls:
        if _interior_crossing(p, q, a, b) is not None:
            return True
    return False


def _image_tree(scene: Scene, max_bounces: int):
    """The scene's ``_wall_pairs`` and its branches at depth ``max_bounces``.

    A branch is (wall sequence, kind, total wall loss, images): every
    ordered sequence of 0 to ``max_bounces`` walls without immediate
    repeats, in ``itertools.product`` order by length, with the anchor
    followed by its image across each prefix of the sequence. Built once
    per scene and depth, and kept on the scene.
    """
    tree = scene._trees.get(max_bounces)
    if tree is None:
        walls = _wall_pairs(scene.walls)
        level = [((), (tuple(scene.bs.position.tolist()),))]
        branches = []
        for k in range(max_bounces + 1):
            if k:
                level = [(seq + (wi,), images + (_mirror(images[-1], *walls[wi]),))
                         for seq, images in level for wi in range(len(walls))
                         if not seq or seq[-1] != wi]
            branches += [(seq, _KIND_BY_BOUNCES[k],
                          float(sum(scene.walls[wi].loss_db for wi in seq)), images)
                         for seq, images in level]
        tree = scene._trees[max_bounces] = (walls, tuple(branches))
    return tree


def _unfold(walls, seq: tuple[int, ...], images, ue):
    """Anchor-to-user chain of the wall sequence via the image method, or None.

    ``walls`` are ``_wall_pairs``; ``images`` are the anchor and its images
    across each prefix of ``seq``, and ``ue`` is the user, all float pairs.
    The chain is the anchor, the reflection points in order, then the user;
    None if a point falls outside its wall's interior or a leg is blocked.
    """
    chain = [images[0], *[None] * len(seq), ue]
    for j in range(len(seq), 0, -1):
        a, b = walls[seq[j - 1]]
        u = _interior_crossing(images[j], chain[j + 1], a, b)
        if u is None:
            return None
        (ax, ay), (bx, by) = a, b
        chain[j] = (ax + u * (bx - ax), ay + u * (by - ay))
    for leg_a, leg_b in zip(chain[:-1], chain[1:]):
        if _blocked(leg_a, leg_b, walls):
            return None
    return chain


def trace_paths(scene: Scene, ue: UeState, max_bounces: int = 3) -> list[TruePath]:
    """All propagation paths from the scene's anchor to the user.

    Enumerates every ordered wall sequence of 0 to ``max_bounces``
    reflections without immediate wall repeats; the empty sequence is the
    direct (LoS) path. The sequences and the anchor's images across them
    depend on the scene alone, and are built on the first call for a scene
    and depth. Each call unfolds them back from the user, and measures each
    unblocked chain once, for its length, delay and angles. Results are
    sorted by increasing delay (stable within ties).

    Raises ValueError unless ``max_bounces`` is an int (not a bool) from 0
    to 3.
    """
    _check_max_bounces(max_bounces)
    walls, branches = _image_tree(scene, max_bounces)
    user = tuple(ue.position.tolist())
    entries = []
    for seq, kind, loss, images in branches:
        chain = _unfold(walls, seq, images, user)
        if chain is None:
            continue
        length, toa, aod, aoa = _chain_measurement(ue, scene.bs, chain)
        entries.append(TruePath(kind, tuple(_frozen_point(pt) for pt in chain[1:-1]),
                                toa, aod, aoa, length_m=length, reflection_loss_db=loss))
    return sorted(entries, key=lambda e: e.toa)


def synthesize_gains(paths: Sequence[TruePath], model: PathLossModel = PathLossModel(),
                     per_bounce_extra_db: float = 6.0, rng=None,
                     sigma_db: Optional[float] = None) -> list[TruePath]:
    """Assign linear gains from the distance model minus bounce losses.

    gain_db = mean(length) - total wall loss - per_bounce_extra_db * bounces
    + Gaussian scatter, so a reflected path always carries excess loss over
    the direct-path fit and a correspondingly lower weight in the solvers.
    The scatter scale is ``sigma_db`` if given, else the model's; no scatter
    is drawn when ``rng`` is None (one draw per path otherwise, in path
    order).

    Raises ValueError unless ``per_bounce_extra_db`` is finite and
    ``sigma_db`` is None or finite and non-negative.
    """
    _check_gain_rule(per_bounce_extra_db, sigma_db, "sigma_db")
    gains = _gains(paths, model, per_bounce_extra_db, rng, sigma_db)
    return [TruePath(p.kind, p.incidence_points, p.toa, p.aod, p.aoa, gain,
                     p.length_m, p.reflection_loss_db) for p, gain in zip(paths, gains)]


def _check_gain_rule(per_bounce_extra_db, sigma_db, sigma_name: str) -> None:
    """The one gain-parameter rule: a finite bounce loss and a scatter scale
    that is None or finite and non-negative. ``sigma_name`` names the scale
    in the message."""
    if not math.isfinite(per_bounce_extra_db):
        raise ValueError(f"per_bounce_extra_db must be finite, got {per_bounce_extra_db}")
    if sigma_db is not None and not 0.0 <= sigma_db < math.inf:
        raise ValueError(f"{sigma_name} must be None or finite and >= 0")


def _gains(paths, model, per_bounce_extra_db, rng, sigma_db) -> list[float]:
    """Linear gain of each path as ``synthesize_gains`` assigns it."""
    gains_db = [path_loss_mean(p.length_m, model) - p.reflection_loss_db
                - per_bounce_extra_db * len(p.incidence_points) for p in paths]
    if rng is not None:
        scale = model.sigma_db if sigma_db is None else float(sigma_db)
        gains_db = [g + scale * z
                    for g, z in zip(gains_db, rng.standard_normal(len(gains_db)).tolist())]
    return [10.0 ** (g / 10.0) for g in gains_db]


def _noisy(paths, noise, rng) -> list[tuple[float, float, float]]:
    """Measured (toa, aod, aoa) of each path: additive Gaussian noise per
    component, angles re-wrapped.

    ``noise=None`` copies the true parameters exactly and draws nothing.
    Otherwise the noise is one (paths, 3) draw, which fills row by row from
    the same stream as one scalar draw per component in (toa, aod, aoa)
    order.
    """
    if noise is None:
        return [(p.toa, p.aod, p.aoa) for p in paths]
    if rng is None:
        raise ValueError("rng is required when noise is given")
    z = rng.standard_normal((len(paths), 3)).tolist()
    return [(p.toa + noise.sigma_toa * dt, wrap_angle(p.aod + noise.sigma_aod * dd),
             wrap_angle(p.aoa + noise.sigma_aoa * da)) for p, (dt, dd, da) in zip(paths, z)]


@dataclass(frozen=True)
class SimConfig:
    """Dataset generation knobs.

    ``noise=None`` produces noiseless measurements. ``gain_sigma_db=None``
    uses the gain model's own scatter. The clock bias is drawn uniformly
    from ``bias_range`` seconds per snapshot.

    Raises ValueError unless ``max_bounces`` is an int (not a bool) from 0
    to 3, ``bias_range`` is two finite numbers lo <= hi a finite distance
    apart (the uniform draw needs hi - lo finite), ``per_bounce_extra_db``
    is finite and ``gain_sigma_db`` is None or finite and non-negative.
    """

    max_bounces: int = 3
    noise: Optional[NoiseModel] = field(default_factory=NoiseModel)
    gain_model: PathLossModel = field(default_factory=PathLossModel)
    per_bounce_extra_db: float = 6.0
    gain_sigma_db: Optional[float] = None
    bias_range: tuple = (-100e-9, 100e-9)

    def __post_init__(self):
        _check_max_bounces(self.max_bounces)
        lo, hi = self.bias_range
        if not (lo <= hi and math.isfinite(hi - lo)):
            raise ValueError(f"bias_range must be two finite numbers lo <= hi, got {lo}, {hi}")
        _check_gain_rule(self.per_bounce_extra_db, self.gain_sigma_db, "gain_sigma_db")


def _on_any_wall(p, walls) -> bool:
    """True if the float pair ``p`` lies within _ON_WALL_M of a ``_wall_pairs`` wall."""
    px, py = p
    for (ax, ay), (bx, by) in walls:
        d = (bx - ax, by - ay)
        t = min(max(_dot2((px - ax, py - ay), d) / _dot2(d, d), 0.0), 1.0)
        if math.hypot(px - (ax + t * d[0]), py - (ay + t * d[1])) <= _ON_WALL_M:
            return True
    return False


def generate_dataset(scene: Scene, ue_positions, config: SimConfig = SimConfig(),
                     seed: int = 0) -> list[Snapshot]:
    """One truth-annotated snapshot per user position.

    Per snapshot, an independent child stream of ``seed`` draws, in order:
    the clock bias (uniform over ``config.bias_range``), the user heading
    (uniform over (-pi, pi]; positions files carry no heading), one gain
    scatter per path, then the measurement noise, three per path in (toa,
    aod, aoa) order. The scatter and the noise are one draw call each, with
    the values of one scalar draw per value. Seed mixing uses
    ``numpy.random.SeedSequence(seed).spawn``, which is stable across runs
    and platforms, so any subset of positions reproduces identically.

    Each position is one ``trace_paths`` call; the scene's image tree is
    built on the first and serves the rest. Gains come from the same helper
    as ``synthesize_gains``'s, without a second ``TruePath`` per path.

    Delays are canonicalized so the nanosecond file round trip is exact.

    Raises
    ------
    InvalidPosition
        Naming the snapshot index, if a position lies on a wall, coincides
        with the anchor or no path reaches it.
    """
    positions = list(ue_positions)
    children = np.random.SeedSequence(seed).spawn(len(positions))
    walls = _wall_pairs(scene.walls)
    anchor = tuple(scene.bs.position.tolist())
    snapshots = []
    for k, given in enumerate(positions):
        pos = _as_point(given)
        pair = tuple(pos.tolist())
        if _on_any_wall(pair, walls):
            raise InvalidPosition(f"position {k} lies on a wall")
        if pair == anchor:
            raise InvalidPosition(f"position {k} coincides with the anchor")
        rng = np.random.default_rng(children[k])
        bias = canonical_seconds(rng.uniform(*config.bias_range))
        heading = wrap_angle(rng.uniform(-math.pi, math.pi))
        ue = UeState(pos, heading, bias)
        traced = trace_paths(scene, ue, config.max_bounces)
        if not traced:
            raise InvalidPosition(f"no propagation path reaches position {k}")
        gains = _gains(traced, config.gain_model, config.per_bounce_extra_db, rng,
                       config.gain_sigma_db)
        measured = [PathMeasurement(canonical_seconds(toa), aod, aoa, gain)
                    for (toa, aod, aoa), gain in zip(_noisy(traced, config.noise, rng), gains)]
        labels = tuple(dataset_label(t.kind) for t in traced)
        incidence = tuple(t.incidence_points[0] if t.kind == KIND_SINGLE else None
                          for t in traced)
        truth = GroundTruth(ue=ue, labels=labels, incidence=incidence)
        snapshots.append(Snapshot(id=f"pos_{k:03d}", bs=scene.bs,
                                  paths=tuple(measured), truth=truth))
    return snapshots
