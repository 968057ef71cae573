"""Seeded scenario builders shared by the unit and acceptance tests."""

import math

import numpy as np

from snapslam import (
    GroundTruth,
    NoiseModel,
    PathLossModel,
    PathMeasurement,
    Pose,
    Snapshot,
    UeState,
    measurement_model,
    orientation_grid,
    path_loss_mean,
    polyline_measurement,
    wrap_angle,
)

GAIN_MODEL = PathLossModel()

# A bounce whose rays cancel exactly, ||u + v||^2 == 0, when the anchor and
# the user both face heading 0: (aod, aoa), found by a search over floats.
CANCEL = (2.5934197786078093, -0.548172874981984)


def gain_for(length_m, excess_db=0.0, model=GAIN_MODEL):
    """Linear gain on the detector's fit, ``excess_db`` below it."""
    return 10.0 ** ((path_loss_mean(length_m, model) - excess_db) / 10.0)


def _chain_length(points):
    return float(sum(np.hypot(*(b - a)) for a, b in zip(points[:-1], points[1:])))


def _segment_clearance(p, a, b):
    d = b - a
    t = float((p - a) @ d) / float(d @ d)
    t = min(max(t, 0.0), 1.0)
    return float(np.hypot(*(p - (a + t * d))))


def random_state(rng, on_grid=False):
    """Random anchor pose and user state, a few meters apart."""
    bs = Pose(rng.uniform(-5.0, 5.0, size=2), float(rng.uniform(-math.pi, math.pi)))
    while True:
        pos = rng.uniform(-15.0, 15.0, size=2)
        if float(np.hypot(*(pos - bs.position))) > 3.0:
            break
    if on_grid:
        grid = orientation_grid()
        heading = float(grid[rng.integers(1, len(grid) - 1)])
    else:
        heading = float(rng.uniform(-math.pi, math.pi))
    bias = float(rng.uniform(-100e-9, 100e-9))
    return bs, UeState(pos, heading, bias)


def random_landmarks(rng, count, bs, ue, clearance=1.5):
    """Reflection points comfortably off the direct segment and both ends."""
    out = []
    while len(out) < count:
        p = rng.uniform(-25.0, 25.0, size=2)
        if np.hypot(*(p - bs.position)) < 1.0 or np.hypot(*(p - ue.position)) < 1.0:
            continue
        if _segment_clearance(p, bs.position, ue.position) < clearance:
            continue
        out.append(p)
    return out


def build_snapshot(sid, bs, ue, landmarks, with_los=True,
                   single_excess_db=8.0, noise=None, rng=None,
                   gain_sigma_db=0.0):
    """Snapshot from explicit geometry, truth attached.

    Gains follow the detector's distance fit: exact for the LoS path,
    ``single_excess_db`` below it for each bounce. Measurement noise (and
    gain scatter) are only drawn when a model and rng are supplied.
    """
    paths, labels, incidence = [], [], []

    def add(z, gain, label, point):
        toa, aod, aoa = z
        if noise is not None:
            toa += noise.sigma_toa * rng.standard_normal()
            aod = wrap_angle(aod + noise.sigma_aod * rng.standard_normal())
            aoa = wrap_angle(aoa + noise.sigma_aoa * rng.standard_normal())
        if gain_sigma_db and rng is not None:
            gain *= 10.0 ** (gain_sigma_db * rng.standard_normal() / 10.0)
        paths.append(PathMeasurement(toa, aod, aoa, gain))
        labels.append(label)
        incidence.append(point)

    if with_los:
        dist = float(np.hypot(*(ue.position - bs.position)))
        add(measurement_model(ue, bs), gain_for(dist), "los", None)
    for lm in landmarks:
        lm = np.asarray(lm, dtype=float)
        length = _chain_length([bs.position, lm, ue.position])
        add(measurement_model(ue, bs, lm), gain_for(length, single_excess_db),
            "single", lm)
    truth = GroundTruth(ue=ue, labels=tuple(labels), incidence=tuple(incidence))
    return Snapshot(id=sid, bs=bs, paths=tuple(paths), truth=truth)


def add_multibounce(snapshot, rng, count, excess_db=15.0, noise=None):
    """Append double/triple-bounce paths (truth label ``multi``).

    Gains sit ``excess_db`` below the fit at the DIRECT distance, not at the
    polyline length; a long polyline would otherwise out-weigh the true
    paths and invert the solver's discard ordering.
    """
    truth = snapshot.truth
    ue, bs = truth.ue, snapshot.bs
    paths = list(snapshot.paths)
    labels = list(truth.labels)
    incidence = list(truth.incidence)
    made = 0
    while made < count:
        corners = [rng.uniform(-25.0, 25.0, size=2)
                   for _ in range(int(rng.integers(2, 4)))]
        pts = [bs.position, *corners, ue.position]
        if min(np.hypot(*(b - a)) for a, b in zip(pts[:-1], pts[1:])) < 1.0:
            continue
        toa, aod, aoa = polyline_measurement(ue, bs, corners)
        if noise is not None:
            toa += noise.sigma_toa * rng.standard_normal()
            aod = wrap_angle(aod + noise.sigma_aod * rng.standard_normal())
            aoa = wrap_angle(aoa + noise.sigma_aoa * rng.standard_normal())
        direct = float(np.hypot(*(ue.position - bs.position)))
        gain = gain_for(direct, excess_db)
        paths.append(PathMeasurement(toa, aod, aoa, gain))
        labels.append("multi")
        incidence.append(None)
        made += 1
    new_truth = GroundTruth(ue=ue, labels=tuple(labels), incidence=tuple(incidence))
    return Snapshot(id=snapshot.id, bs=bs, paths=tuple(paths), truth=new_truth)


def random_h0_snapshot(seed, n_single=3, noise=None, sid=None):
    """LoS plus ``n_single`` single bounces; noiseless unless asked."""
    rng = np.random.default_rng(seed)
    bs, ue = random_state(rng)
    landmarks = random_landmarks(rng, n_single, bs, ue)
    return build_snapshot(sid or f"h0_{seed}", bs, ue, landmarks,
                          with_los=True, noise=noise, rng=rng)


def random_h1_snapshot(seed, n_single=4, on_grid=False, noise=None, sid=None):
    """``n_single`` single bounces, no direct path."""
    rng = np.random.default_rng(seed)
    bs, ue = random_state(rng, on_grid=on_grid)
    landmarks = random_landmarks(rng, n_single, bs, ue)
    return build_snapshot(sid or f"h1_{seed}", bs, ue, landmarks,
                          with_los=False, noise=noise, rng=rng)


def expected_inliers(snapshot):
    return tuple(i for i, lab in enumerate(snapshot.truth.labels)
                 if lab in ("los", "single"))


SQUARE_WALLS = (((-8.0, 6.0), (8.0, 6.0), 3.0),
                ((8.0, 6.0), (8.0, -6.0), 2.0),
                ((8.0, -6.0), (-8.0, -6.0), 3.0),
                ((-8.0, -6.0), (-8.0, 6.0), 2.0))


def square_scene(loss_db=None, extra_walls=()):
    """Rectangular room with the anchor inside; loss_db overrides all walls."""
    from snapslam import Scene, Wall
    walls = tuple(Wall(a, b, loss if loss_db is None else loss_db)
                  for a, b, loss in SQUARE_WALLS)
    return Scene(walls=walls + tuple(extra_walls), bs=Pose((-5.0, 2.0), 0.3))
