import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snapslam import (
    SPEED_OF_LIGHT,
    DegenerateGeometry,
    InvalidPosition,
    NoiseModel,
    PathLossModel,
    Pose,
    Scene,
    SimConfig,
    UeState,
    Wall,
    canonical_seconds,
    dataset_label,
    generate_dataset,
    measurement_model,
    polyline_measurement,
    read_scene,
    synthesize_gains,
    trace_paths,
)
from snapslam.geometry import _mirror
from snapslam.sim import _noisy
from helpers import square_scene
from reference import corrupt_scalar, synthesize_gains_scalar, trace_paths_reference

ROOM = read_scene(Path(__file__).resolve().parents[1] / "demos" / "room.scene")


def test_canonical_seconds_is_a_fixpoint():
    rng = np.random.default_rng(11)
    for t in rng.uniform(-2e-7, 2e-7, size=300):
        c = canonical_seconds(float(t))
        assert canonical_seconds(c) == c
        assert (c * 1e9) / 1e9 == c
    assert canonical_seconds(0.0) == 0.0


def test_dataset_label_collapses_bounce_counts():
    assert dataset_label("los") == "los"
    assert dataset_label("single_bounce") == "single"
    assert dataset_label("double_bounce") == "multi"
    assert dataset_label("triple_bounce") == "multi"


def test_wall_and_scene_validation():
    with pytest.raises(ValueError):
        Wall([0.0, 0.0], [1.0, 0.0], loss_db=-1.0)
    walls = (Wall([0.0, 0.0], [1.0, 0.0]), Wall([2.0, 2.0], [2.0, 2.0]))
    with pytest.raises(DegenerateGeometry, match="wall 1"):
        Scene(walls=walls, bs=Pose([0.0, 5.0]))


def test_trace_paths_open_space():
    scene = Scene(walls=(), bs=Pose([0.0, 0.0], 0.0))
    ue = UeState([10.0, 0.0], 0.0, 5e-9)
    paths = trace_paths(scene, ue)
    assert len(paths) == 1
    p = paths[0]
    assert p.kind == "los"
    assert p.toa == pytest.approx(10.0 / SPEED_OF_LIGHT + 5e-9, abs=1e-18)
    assert p.length_m == pytest.approx(10.0, abs=1e-12)
    assert p.incidence_points == ()


def test_trace_paths_square_room_counts():
    scene = square_scene()
    ue = UeState([3.0, -4.0], 0.7, 20e-9)
    one = trace_paths(scene, ue, max_bounces=1)
    kinds = [p.kind for p in one]
    assert kinds.count("los") == 1
    assert kinds.count("single_bounce") == 4
    toas = [p.toa for p in one]
    assert toas == sorted(toas)
    assert one[0].kind == "los"
    zero = trace_paths(scene, ue, max_bounces=0)
    assert [p.kind for p in zero] == ["los"]
    with pytest.raises(ValueError):
        trace_paths(scene, ue, max_bounces=4)


def _wall_of(point, walls, tol=1e-9):
    for k, w in enumerate(walls):
        d = w.b - w.a
        t = float((point - w.a) @ d) / float(d @ d)
        if -tol <= t <= 1 + tol:
            foot = w.a + min(max(t, 0.0), 1.0) * d
            if float(np.hypot(*(point - foot))) <= tol:
                return k
    raise AssertionError("incidence point is not on any wall")


def test_traced_lengths_match_mirror_images():
    # image method check: the polyline length of a k-bounce path equals the
    # straight distance from the successively mirrored anchor to the user.
    # Each path is also its chain measured once, bit for bit: (toa, aod, aoa)
    # is polyline_measurement of its reflection points, length_m the
    # left-to-right sum of its legs, and the direct path, when present, the
    # empty polyline.
    # an interior wall across the room blocks the direct path behind it
    inner = square_scene(extra_walls=(Wall([0.0, -3.0], [0.0, 4.0], 1.0),))
    rng = np.random.default_rng(17)
    for scene in (ROOM, inner):
        blocked = 0
        ues = [UeState([3.0, -4.0], 0.0, 0.0)] + [
            UeState(rng.uniform([-7.5, -5.5], [7.5, 5.5]), rng.uniform(-3.0, 3.0),
                    rng.uniform(-1e-7, 1e-7)) for _ in range(12)]
        for ue in ues:
            for max_bounces in range(4):
                paths = trace_paths(scene, ue, max_bounces)
                for p in paths:
                    image = scene.bs.position.tolist()
                    for pt in p.incidence_points:
                        w = scene.walls[_wall_of(pt, scene.walls)]
                        image = _mirror(image, w.a.tolist(), w.b.tolist())
                    direct = float(np.hypot(*(np.array(image) - ue.position)))
                    assert p.length_m == pytest.approx(direct, abs=1e-9)
                    assert p.toa - ue.clock_bias == pytest.approx(
                        p.length_m / SPEED_OF_LIGHT, abs=1e-18)
                    assert (p.toa, p.aod, p.aoa) == polyline_measurement(
                        ue, scene.bs, p.incidence_points)
                    chain = [scene.bs.position, *p.incidence_points, ue.position]
                    length = 0.0
                    for a, b in zip(chain[:-1], chain[1:]):
                        length += math.hypot(b[0] - a[0], b[1] - a[1])
                    assert p.length_m == length
                direct = [p for p in paths if p.kind == "los"]
                assert len(direct) <= 1 and all(p.incidence_points == () for p in direct)
                if direct:
                    assert (direct[0].toa, direct[0].aod, direct[0].aoa) == \
                        polyline_measurement(ue, scene.bs, [])
                else:
                    blocked += 1
        assert (blocked > 0) == (scene is inner)


# the room with two interior walls, so that `_blocked` rejects some chains
WALLED = Scene(walls=(*ROOM.walls, Wall([0.0, -3.0], [0.0, 4.0], 1.0),
                      Wall([-4.0, 1.0], [3.0, -2.5], 2.5)), bs=ROOM.bs)


def _traced_fields(trace, scene, ue, max_bounces):
    """Every traced field of every path, floats as bytes; or the error raised.

    A reflection point is a float pair in ``trace_paths`` and an array in
    the reference; both give the same bytes as a float array."""
    try:
        paths = trace(scene, ue, max_bounces)
    except DegenerateGeometry as exc:
        return str(exc)
    return [(p.kind, [np.asarray(q, dtype=float).tobytes() for q in p.incidence_points],
             np.array([p.toa, p.aod, p.aoa, p.length_m, p.reflection_loss_db]).tobytes())
            for p in paths]


@settings(max_examples=150, deadline=None)
@given(scene=st.sampled_from([ROOM, WALLED]), x=st.floats(-9.0, 9.0), y=st.floats(-7.0, 7.0),
       heading=st.floats(-3.2, 3.2), bias=st.floats(-1e-7, 1e-7))
@example(scene=WALLED, x=3.0, y=2.0, heading=0.0, bias=0.0)    # direct path blocked
@example(scene=ROOM, x=-5.0, y=2.0, heading=0.0, bias=0.0)     # on the anchor: both raise
def test_trace_paths_has_the_bits_of_the_numpy_tracer(scene, x, y, heading, bias):
    ue = UeState([x, y], heading, bias)
    for max_bounces in range(4):
        assert (_traced_fields(trace_paths, scene, ue, max_bounces)
                == _traced_fields(trace_paths_reference, scene, ue, max_bounces))


def test_each_scene_keeps_its_own_image_tree():
    # receivers of two scenes traced in turn, at every depth: each gets its
    # own scene's paths, bit for bit, so no scene's image tree serves the
    # other. The scenes differ only in the anchor, then only in one wall; an
    # interior wall blocks some chains in both.
    inner = Wall([0.0, -3.0], [0.0, 4.0], 1.0)
    walls = (*ROOM.walls, inner)
    tilted = (Wall([-8.0, 6.5], [8.0, 5.5], 3.0), *ROOM.walls[1:], inner)
    pairs = ((Scene(walls, ROOM.bs), Scene(walls, Pose([-5.0, -2.0], 0.3))),
             (Scene(walls, ROOM.bs), Scene(tilted, ROOM.bs)))
    rng = np.random.default_rng(23)
    ues = [UeState(rng.uniform([-7.5, -5.5], [7.5, 5.5]), rng.uniform(-3.0, 3.0),
                   rng.uniform(-1e-7, 1e-7)) for _ in range(6)]
    for pair in pairs:
        for ue in ues:
            for max_bounces in range(4):
                got = [_traced_fields(trace_paths, scene, ue, max_bounces) for scene in pair]
                assert got == [_traced_fields(trace_paths_reference, scene, ue, max_bounces)
                               for scene in pair]
            assert got[0] != got[1]     # at depth 3, so a shared tree would show


def test_traced_single_bounces_close_the_measurement_model():
    scene = square_scene()
    ue = UeState([2.0, 3.5], -1.1, 40e-9)
    for p in trace_paths(scene, ue, max_bounces=1):
        if p.kind != "single_bounce":
            continue
        toa, aod, aoa = measurement_model(ue, scene.bs, p.incidence_points[0])
        assert toa == pytest.approx(p.toa, abs=1e-18)
        assert aod == pytest.approx(p.aod, abs=1e-12)
        assert aoa == pytest.approx(p.aoa, abs=1e-12)


def test_trace_paths_blocking():
    # a short wall in the middle of the bs-ue segment kills the LoS
    blocker = Wall([1.0, -1.0], [1.0, 1.0], loss_db=3.0)
    scene = Scene(walls=(*square_scene().walls, blocker),
                  bs=Pose([-5.0, 0.0], 0.0))
    ue = UeState([5.0, 0.0], 0.0, 0.0)
    kinds = {p.kind for p in trace_paths(scene, ue, max_bounces=1)}
    assert "los" not in kinds
    assert "single_bounce" in kinds
    clear = UeState([-5.0, 3.0], 0.0, 0.0)
    kinds = {p.kind for p in trace_paths(scene, clear, max_bounces=1)}
    assert "los" in kinds


def test_synthesize_gains_oracle():
    scene = Scene(walls=(), bs=Pose([0.0, 0.0], 0.0))
    ue = UeState([10.0, 0.0], 0.0, 0.0)
    paths = trace_paths(scene, ue)
    out = synthesize_gains(paths)
    # 13 + 17 log10(10) = 30 dB on the fit, no scatter without an rng
    assert out[0].gain == pytest.approx(10.0 ** 3.0, rel=1e-12)
    model = PathLossModel(l0_db=20.0, zeta=2.0, sigma_db=1.0)
    out = synthesize_gains(paths, model)
    assert out[0].gain == pytest.approx(10.0 ** 4.0, rel=1e-12)


def test_synthesize_gains_bounce_penalty():
    scene = square_scene(loss_db=2.0)
    ue = UeState([3.0, -4.0], 0.0, 0.0)
    paths = trace_paths(scene, ue, max_bounces=2)
    out = synthesize_gains(paths, per_bounce_extra_db=6.0)
    for p in out:
        bounces = len(p.incidence_points)
        expect_db = (13.0 + 17.0 * math.log10(p.length_m)
                     - 2.0 * bounces - 6.0 * bounces)
        assert 10.0 * math.log10(p.gain) == pytest.approx(expect_db, abs=1e-9)


def test_synthesize_gains_scatter_is_seeded():
    scene = square_scene()
    ue = UeState([1.0, 2.0], 0.0, 0.0)
    paths = trace_paths(scene, ue, max_bounces=1)
    a = synthesize_gains(paths, rng=np.random.default_rng(5))
    b = synthesize_gains(paths, rng=np.random.default_rng(5))
    assert [p.gain for p in a] == [p.gain for p in b]
    c = synthesize_gains(paths, rng=np.random.default_rng(6))
    assert [p.gain for p in a] != [p.gain for p in c]
    quiet = synthesize_gains(paths, rng=np.random.default_rng(5), sigma_db=0.0)
    exact = synthesize_gains(paths)
    assert [p.gain for p in quiet] == [p.gain for p in exact]


def test_synthesize_gains_applies_the_gain_rule():
    # SimConfig's rule; before, an infinite bounce loss gave the direct path
    # a NaN gain (inf x 0 bounces), and a NaN or negative scale passed
    paths = trace_paths(ROOM, UeState([3.0, 2.0]), 1)
    with pytest.raises(ValueError, match="^per_bounce_extra_db must be finite, got inf$"):
        synthesize_gains(paths, per_bounce_extra_db=math.inf)
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^sigma_db must be None or finite and >= 0$"):
            synthesize_gains(paths, rng=np.random.default_rng(0), sigma_db=sigma)


def _draws_as_bytes(paths):
    return np.array([[p.toa, p.aod, p.aoa, p.gain] for p in paths]).tobytes()


def test_gains_and_noise_draw_as_scalar_draws():
    # one draw call per kind fills from the same stream, in the same order,
    # as the scalar draws it replaced: the same bits, and the generator left
    # in the same state
    ue = UeState([3.0, 2.0], 0.4, 3e-8)
    for paths in (trace_paths(ROOM, ue, 3), trace_paths(ROOM, ue, 0), []):
        for seed in (None, 5):
            for kwargs in ({}, {"model": PathLossModel(10.0, 2.0, 3.0), "sigma_db": 0.5,
                                "per_bounce_extra_db": 4.0}):
                rngs = [None if seed is None else np.random.default_rng(seed) for _ in "ab"]
                got = synthesize_gains(paths, rng=rngs[0], **kwargs)
                want = synthesize_gains_scalar(paths, rng=rngs[1], **kwargs)
                assert got == want and _draws_as_bytes(got) == _draws_as_bytes(want)
                if seed is not None:
                    assert rngs[0].standard_normal() == rngs[1].standard_normal()
        gained = synthesize_gains(paths)
        for noise in (None, NoiseModel(), NoiseModel(2e-9, 0.05, 0.02)):
            rngs = [np.random.default_rng(7) for _ in "ab"]
            got = np.array(_noisy(gained, noise, rngs[0]), dtype=float)
            want = [[m.toa, m.aod, m.aoa] for m in corrupt_scalar(gained, noise, rngs[1])]
            assert got.tobytes() == np.array(want, dtype=float).tobytes()
            assert rngs[0].standard_normal() == rngs[1].standard_normal()


def test_corrupt_noiseless_copies_exactly():
    scene = square_scene()
    ue = UeState([3.0, -4.0], 0.7, 20e-9)
    paths = synthesize_gains(trace_paths(scene, ue, max_bounces=1))
    out = _noisy(paths, None, None)
    assert out == [(p.toa, p.aod, p.aoa) for p in paths]


def test_corrupt_requires_rng_with_noise():
    scene = Scene(walls=(), bs=Pose([0.0, 0.0], 0.0))
    paths = trace_paths(scene, UeState([10.0, 0.0], 0.0, 0.0))
    with pytest.raises(ValueError, match="rng is required"):
        _noisy(paths, NoiseModel(), None)


def test_corrupt_noise_scale():
    scene = Scene(walls=(), bs=Pose([0.0, 0.0], 0.0))
    paths = trace_paths(scene, UeState([10.0, 0.0], 0.0, 0.0)) * 10000
    noise = NoiseModel(sigma_toa=1e-9, sigma_aod=math.radians(1.0),
                       sigma_aoa=math.radians(1.0))
    out = _noisy(paths, noise, np.random.default_rng(7))
    assert out == _noisy(paths, noise, np.random.default_rng(7))
    dt = np.array([toa - p.toa for (toa, _, _), p in zip(out, paths)])
    da = np.array([aod - p.aod for (_, aod, _), p in zip(out, paths)])
    assert abs(dt.std() / 1e-9 - 1.0) < 0.03
    assert abs(da.std() / math.radians(1.0) - 1.0) < 0.03
    assert abs(dt.mean()) < 3e-11


def test_generate_dataset_shape_and_truth():
    scene = square_scene()
    positions = [[3.0, -4.0], [0.0, 0.5], [-6.0, 4.0]]
    snaps = generate_dataset(scene, positions, SimConfig(max_bounces=2), seed=3)
    assert [s.id for s in snaps] == ["pos_000", "pos_001", "pos_002"]
    for s, pos in zip(snaps, positions):
        t = s.truth
        assert tuple(t.ue.position) == tuple(pos)
        assert len(t.labels) == len(s.paths) == len(t.incidence)
        assert t.has_los and t.labels[0] == "los"
        assert -100e-9 <= t.ue.clock_bias <= 100e-9
        assert t.ue.clock_bias == canonical_seconds(t.ue.clock_bias)
        for lab, inc in zip(t.labels, t.incidence):
            assert (inc is not None) == (lab == "single")
        for m in s.paths:
            assert m.toa == canonical_seconds(m.toa)


def test_generate_dataset_noiseless_closure():
    scene = square_scene()
    cfg = SimConfig(max_bounces=1, noise=None, gain_sigma_db=0.0)
    (snap,) = generate_dataset(scene, [[3.0, -4.0]], cfg, seed=9)
    t = snap.truth
    for m, lab, inc in zip(snap.paths, t.labels, t.incidence):
        if lab != "single":
            continue
        toa, aod, aoa = measurement_model(t.ue, snap.bs, inc)
        assert m.toa == pytest.approx(toa, abs=1e-15)
        assert m.aod == pytest.approx(aod, abs=1e-12)
        assert m.aoa == pytest.approx(aoa, abs=1e-12)


def test_generate_dataset_freezes_the_traced_single_bounce_points():
    # the traced paths keep float pairs; the truth keeps each single
    # bounce's point as a read-only array with the traced bits
    positions = [[3.0, 2.0], [-2.5, -4.0], [6.5, 4.5], [-6.0, -4.5]]
    for max_bounces in (1, 2, 3):
        snaps = generate_dataset(WALLED, positions, SimConfig(max_bounces=max_bounces), seed=4)
        singles = 0
        for snap in snaps:
            traced = trace_paths(WALLED, snap.truth.ue, max_bounces)
            assert len(traced) == len(snap.truth.incidence)
            for p, inc in zip(traced, snap.truth.incidence):
                assert all(type(q) is tuple and len(q) == 2
                           and all(type(c) is float for c in q) for q in p.incidence_points)
                if p.kind != "single_bounce":
                    assert inc is None
                    continue
                singles += 1
                assert isinstance(inc, np.ndarray) and not inc.flags.writeable
                assert inc.tobytes() == np.array(p.incidence_points[0], dtype=float).tobytes()
        assert singles >= len(positions)


def test_generate_dataset_is_deterministic():
    scene = square_scene()
    positions = [[3.0, -4.0], [0.0, 0.5], [-6.0, 4.0]]
    a = generate_dataset(scene, positions, seed=42)
    b = generate_dataset(scene, positions, seed=42)
    for sa, sb in zip(a, b):
        assert [(m.toa, m.aod, m.aoa, m.gain) for m in sa.paths] == \
               [(m.toa, m.aod, m.aoa, m.gain) for m in sb.paths]
        assert sa.truth.ue.orientation == sb.truth.ue.orientation
    prefix = generate_dataset(scene, positions[:1], seed=42)
    assert [(m.toa, m.gain) for m in prefix[0].paths] == \
           [(m.toa, m.gain) for m in a[0].paths]
    other = generate_dataset(scene, positions, seed=43)
    assert a[0].paths[0].toa != other[0].paths[0].toa


def test_generate_dataset_rejects_bad_positions():
    scene = square_scene()
    with pytest.raises(InvalidPosition, match="position 1"):
        generate_dataset(scene, [[0.0, 0.0], [10.0, 3.0]], seed=0)
    blocker = Wall([1.0, -1.0], [1.0, 1.0])
    open_scene = Scene(walls=(blocker,), bs=Pose([-5.0, 0.0], 0.0))
    with pytest.raises(InvalidPosition, match="position 0"):
        generate_dataset(open_scene, [[5.0, 0.0]],
                         SimConfig(max_bounces=0), seed=0)
    # the direct path there would have zero length
    with pytest.raises(InvalidPosition, match="^position 1 coincides with the anchor$"):
        generate_dataset(ROOM, [[3, 2], [-5, 2]])


def test_sim_config_validates_its_fields():
    # each would fail late otherwise: an infinite or overflowing bias range
    # in the uniform draw, a NaN bounce loss as a non-finite path gain
    for bias_range in ((-math.inf, 0.0), (0.0, math.nan), (1e-9, -1e-9), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="bias_range must be two finite numbers lo <= hi"):
            SimConfig(bias_range=bias_range)
    with pytest.raises(ValueError, match="per_bounce_extra_db must be finite"):
        SimConfig(per_bounce_extra_db=math.nan)
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="gain_sigma_db must be None or finite and >= 0"):
            SimConfig(gain_sigma_db=sigma)
    # the tracer's own depth rule, checked before any trace: 2.5 and 2.0
    # would fail in itertools.product, and True would mean 1
    for max_bounces in (5, -1, 2.5, 2.0, True):
        with pytest.raises(ValueError, match="max_bounces must be an int between 0 and 3"):
            SimConfig(max_bounces=max_bounces)
        with pytest.raises(ValueError, match="max_bounces must be an int between 0 and 3"):
            trace_paths(ROOM, UeState([1.0, 1.0]), max_bounces)
    fixed = SimConfig(bias_range=(5e-9, 5e-9), gain_sigma_db=0.0)
    snaps = generate_dataset(square_scene(), [[1.0, 1.0]], fixed, seed=0)
    assert snaps[0].truth.ue.clock_bias == canonical_seconds(5e-9)


def test_generate_dataset_blocked_los_label():
    blocker = Wall([1.0, -1.0], [1.0, 1.0], loss_db=3.0)
    scene = Scene(walls=(*square_scene().walls, blocker),
                  bs=Pose([-5.0, 0.0], 0.0))
    snaps = generate_dataset(scene, [[5.0, 0.0], [-5.0, 3.0]],
                             SimConfig(max_bounces=1), seed=2)
    assert not snaps[0].truth.has_los
    assert snaps[1].truth.has_los
