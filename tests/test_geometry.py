import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snapslam import (
    SPEED_OF_LIGHT,
    DegenerateGeometry,
    NoiseModel,
    PathMeasurement,
    Pose,
    UeState,
    measurement_model,
    polyline_measurement,
    wrap_angle,
)

from snapslam.geometry import _T_NU, _bounce, _dot2, _mirror, _rays
from reference import path_measurement_fields, wrap_angle_numpy

C = SPEED_OF_LIGHT


def test_wrap_angle_hand_values():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2, abs=1e-15)
    assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-15)
    assert wrap_angle(-7 * math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-14)


def test_wrap_angle_is_exact_inside_range():
    # in-range values must come back bit-identical, not just close
    rng = np.random.default_rng(3)
    for a in rng.uniform(-math.pi + 1e-12, math.pi, size=200):
        assert wrap_angle(float(a)) == float(a)


def test_wrap_angle_array_and_idempotent():
    rng = np.random.default_rng(4)
    for a in rng.uniform(-50.0, 50.0, size=500).tolist():
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert wrap_angle(w) == w
        # wrapping preserves the angle modulo 2 pi
        residue = (w - a + math.pi) % (2 * math.pi) - math.pi
        assert abs(residue) <= 1e-9


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(math.pi)
@example(-math.pi)
@example(2 * math.pi)
@example(-2 * math.pi)
@example(1e300)
@example(-1e-300)
@example(5e-324)
@example(-5e-324)
def test_wrap_angle_matches_the_numpy_formula_bit_for_bit(a):
    assert struct.pack("<d", wrap_angle(a)) == struct.pack("<d", wrap_angle_numpy(a))


def test_unit_vectors_oracle():
    u, v = _rays(0.0, math.pi / 2, 0.0, 0.0)
    assert np.allclose(u, [1.0, 0.0])
    assert np.allclose(v, [0.0, 1.0])
    # frames rotate with the antenna headings
    u2, _ = _rays(0.0, 0.0, math.pi / 2, 0.0)
    assert np.allclose(u2, [0.0, 1.0])


def test_measurement_model_los_oracle():
    ue = UeState([10.0, 0.0], math.pi, 5e-9)
    toa, aod, aoa = measurement_model(ue, Pose([0.0, 0.0]))
    assert toa == pytest.approx(10.0 / C + 5e-9, abs=1e-18)
    assert aod == pytest.approx(0.0, abs=1e-15)
    assert aoa == pytest.approx(0.0, abs=1e-15)


def test_measurement_model_single_bounce_oracle():
    # bs at origin facing +x, ue at (4, 0), landmark at (2, 2): both legs 2*sqrt(2)
    ue = UeState([4.0, 0.0], 0.0, 0.0)
    toa, aod, aoa = measurement_model(ue, Pose([0.0, 0.0]), [2.0, 2.0])
    assert toa * C == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-9)
    assert aod == pytest.approx(math.pi / 4, abs=1e-12)
    assert aoa == pytest.approx(3 * math.pi / 4, abs=1e-12)


def test_los_rays_anti_parallel():
    rng = np.random.default_rng(11)
    for _ in range(50):
        ue = UeState(rng.uniform(-10, 10, 2), rng.uniform(-math.pi, math.pi))
        bs = Pose(rng.uniform(-10, 10, 2), rng.uniform(-math.pi, math.pi))
        if np.hypot(*(ue.position - bs.position)) < 1e-6:
            continue
        toa, aod, aoa = measurement_model(ue, bs)
        u, v = _rays(aod, aoa, bs.orientation, ue.orientation)
        assert np.allclose(np.add(u, v), 0.0, atol=1e-12)


def test_polyline_matches_single_bounce_model():
    ue = UeState([3.0, -2.0], 0.7, 12e-9)
    bs = Pose([-1.0, 4.0], -0.4)
    lm = np.array([5.0, 5.0])
    assert polyline_measurement(ue, bs, [lm]) == measurement_model(ue, bs, lm)
    assert polyline_measurement(ue, bs, []) == measurement_model(ue, bs)


def test_polyline_rejects_coincident_points():
    ue = UeState([3.0, 0.0])
    bs = Pose([0.0, 0.0])
    with pytest.raises(DegenerateGeometry):
        polyline_measurement(ue, bs, [[1.0, 1.0], [1.0, 1.0]])


def test_mirror_point_oracle_and_involution():
    assert _mirror((1.0, 2.0), (0.0, 0.0), (5.0, 0.0)) == (1.0, -2.0)
    rng = np.random.default_rng(7)
    for _ in range(50):
        p, a, b = (tuple(rng.uniform(-10, 10, 2).tolist()) for _ in range(3))
        if math.hypot(b[0] - a[0], b[1] - a[1]) < 1e-6:
            continue
        image = _mirror(p, a, b)
        assert np.allclose(_mirror(image, a, b), p, atol=1e-9)
        # points on the mirror line are fixed, distances preserved
        assert math.hypot(image[0] - a[0], image[1] - a[1]) == pytest.approx(
            math.hypot(p[0] - a[0], p[1] - a[1]), abs=1e-9)


_coordinate = st.floats(-1.0, 1.0)
_point = st.tuples(_coordinate, _coordinate)


@settings(max_examples=300, deadline=None)
@given(p=_point, a=_point, b=_point, scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_mirror_has_the_bits_of_the_numpy_formula(p, a, b, scale):
    p, a, b = (scale * np.array(q) for q in (p, a, b))
    d = b - a
    if _dot2(d, d) == 0.0:
        return
    want = 2.0 * (a + _dot2(p - a, d) / _dot2(d, d) * d) - p
    got = np.array(_mirror(p.tolist(), a.tolist(), b.tolist()))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_bounce_fraction_recovers_leg_split():
    rng = np.random.default_rng(21)
    for _ in range(50):
        bs = Pose(rng.uniform(-5, 5, 2), rng.uniform(-math.pi, math.pi))
        ue = UeState(rng.uniform(-15, 15, 2), rng.uniform(-math.pi, math.pi),
                     rng.uniform(-1e-7, 1e-7))
        lm = rng.uniform(-20, 20, 2)
        d1 = np.hypot(*(lm - bs.position))
        d2 = np.hypot(*(ue.position - lm))
        if d1 < 1.0 or d2 < 1.0:
            continue
        toa, aod, aoa = measurement_model(ue, bs, lm)
        path = PathMeasurement(toa, aod, aoa)
        _, _, s, _, gam = _bounce(ue, path, bs)
        if s <= _T_NU:
            continue
        assert gam == pytest.approx(d1 / (d1 + d2), abs=1e-9)


def test_bounce_fraction_undefined_for_los():
    # a LoS path's rays cancel, so every reader of the fraction takes it as
    # undefined
    ue = UeState([10.0, 0.0], math.pi)
    bs = Pose([0.0, 0.0])
    toa, aod, aoa = measurement_model(ue, bs)
    s = _bounce(ue, PathMeasurement(toa, aod, aoa), bs)[2]
    assert s <= _T_NU and s == pytest.approx(0.0, abs=1e-24)


def test_bounce_fraction_along_departure_ray_hits_landmark():
    ue = UeState([6.0, 1.0], -0.3, 30e-9)
    bs = Pose([0.0, 0.0], 0.2)
    lm = np.array([2.0, 5.0])
    toa, aod, aoa = measurement_model(ue, bs, lm)
    path = PathMeasurement(toa, aod, aoa)
    u, _, s, d, gam = _bounce(ue, path, bs)
    assert s > _T_NU and d == C * (toa - ue.clock_bias)
    assert np.allclose(bs.position + gam * d * np.array(u), lm, atol=1e-9)


def test_pose_and_state_validation():
    with pytest.raises(ValueError):
        Pose([0.0, 0.0], math.nan)
    with pytest.raises(ValueError):
        UeState([0.0, math.inf])
    ue = UeState([1.0, 2.0], 3 * math.pi)  # heading wrapped on construction
    assert ue.orientation == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        ue.position[0] = 9.0  # stored arrays are read-only


def test_path_measurement_validation():
    with pytest.raises(ValueError):
        PathMeasurement(1e-9, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        PathMeasurement(math.nan, 0.0, 0.0)
    m = PathMeasurement(1e-9, 3 * math.pi / 2, -3 * math.pi / 2)
    assert m.aod == pytest.approx(-math.pi / 2)
    assert m.aoa == pytest.approx(math.pi / 2)


def _construction(make, *fields):
    """The stored fields of ``make(*fields)`` as (type, bits) pairs, or the
    error it raised as (type, message)."""
    try:
        # NumPy scalars may overflow in the finiteness sum; both sides then
        # see the same inf
        with np.errstate(all="ignore"):
            made = make(*fields)
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)
    if isinstance(made, PathMeasurement):
        made = (made.toa, made.aod, made.aoa, made.gain)
    return [(type(v), struct.pack("<d", v)) for v in made]


_ANGLES_AT_PI = [math.pi, -math.pi, math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, 0.0),
                 math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, -4.0)]
_FIELD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-20.0, 20.0),                                 # angles in and out of (-pi, pi]
    st.sampled_from(_ANGLES_AT_PI + [1e308, -1e308, 0.0, -0.0, 1e-300]),
    st.integers(-10, 10),
    st.integers(-2 ** 1100, 2 ** 1100),                     # past float range
    st.floats(-1e308, 1e308).map(np.float64),
    st.sampled_from(_ANGLES_AT_PI).map(np.float64),
    st.booleans(),
)


@settings(max_examples=400, deadline=None)
@given(toa=_FIELD, aod=_FIELD, aoa=_FIELD, gain=_FIELD)
@example(toa=1e-8, aod=math.pi, aoa=-math.pi, gain=1.0)
@example(toa=1e-8, aod=0.5, aoa=0.25, gain=2)
@example(toa=np.float64(1e-8), aod=0.5, aoa=0.25, gain=1.0)
@example(toa=1e308, aod=1e308, aoa=0.0, gain=1.0)
def test_path_measurement_keeps_the_always_reset_fields(toa, aod, aoa, gain):
    # the constructor skips the re-set only where it is the identity: the
    # same field bits and types as re-setting every field, and the same
    # inputs rejected with the same message
    assert (_construction(PathMeasurement, toa, aod, aoa, gain)
            == _construction(path_measurement_fields, toa, aod, aoa, gain))


def test_noise_model_defaults_and_validation():
    nm = NoiseModel()
    assert nm.sigma_toa == 1e-9
    assert nm.sigma_aod == pytest.approx(math.radians(1.0))
    assert np.allclose(nm.sigmas, [1e-9, math.radians(1.0), math.radians(1.0)])
    with pytest.raises(ValueError):
        NoiseModel(sigma_toa=0.0)
