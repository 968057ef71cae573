"""Planar geometry of single-anchor multipath radio channels.

Conventions used throughout the package:

* World coordinates are 2-D, in meters. Orientations are counterclockwise
  angles in radians, wrapped to the half-open interval (-pi, pi].
* A transmitting anchor (base station) and a receiving user each have a pose
  (position + heading). Departure angles are measured in the anchor's local
  frame, arrival angles in the user's local frame.
* Propagation delays are in seconds everywhere inside the library; file
  formats use nanoseconds (see :mod:`snapslam.dataio`).
* A path is either line-of-sight or a chain of specular reflections. The
  single-bounce case, where the reflection point acts as a point landmark,
  is the one the estimator can invert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry

SPEED_OF_LIGHT = 299792458.0
"""Exact SI speed of light, m/s."""

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Wrap a scalar angle to the interval (-pi, pi].

    Values already inside the interval are returned bit-for-bit unchanged,
    which keeps repeated wrapping idempotent at the float level.

    Example
    -------
    >>> wrap_angle(3 * math.pi / 2)
    -1.5707963267948966
    """
    a = float(angle)
    return a if -math.pi < a <= math.pi else math.pi - (math.pi - a) % TWO_PI


def _dot2(x, y):
    """x[0] y[0] + x[1] y[1]: the package's one product of 2-vectors.

    Written out rather than left to ``@``, whose BLAS kernel is chosen by
    the CPU and may round differently, so every output is the same on any
    machine. Works elementwise on stacked vectors of shape (2, ...).
    """
    return x[0] * y[0] + x[1] * y[1]


def _as_point(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape != (2,):
        raise ValueError(f"expected a 2-D point, got shape {arr.shape}")
    # two scalar checks: a NumPy reduction over two elements costs more
    if not (math.isfinite(arr[0]) and math.isfinite(arr[1])):
        raise ValueError("point coordinates must be finite")
    return arr


def _frozen_point(p) -> np.ndarray:
    arr = _as_point(np.array(p, dtype=float))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Pose:
    """Position (m) and heading (rad, wrapped to (-pi, pi]) of an antenna."""

    position: np.ndarray
    orientation: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "position", _frozen_point(self.position))
        if not math.isfinite(self.orientation):
            raise ValueError("orientation must be finite")
        object.__setattr__(self, "orientation", wrap_angle(float(self.orientation)))


@dataclass(frozen=True)
class UeState:
    """User state: position (m), heading (rad), receiver clock bias (s).

    The clock bias is additive on every measured delay: a path of geometric
    length L is observed at L / c + clock_bias seconds.
    """

    position: np.ndarray
    orientation: float = 0.0
    clock_bias: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "position", _frozen_point(self.position))
        if not (math.isfinite(self.orientation) and math.isfinite(self.clock_bias)):
            raise ValueError("orientation and clock_bias must be finite")
        object.__setattr__(self, "orientation", wrap_angle(float(self.orientation)))
        object.__setattr__(self, "clock_bias", float(self.clock_bias))


@dataclass(frozen=True)
class PathMeasurement:
    """One resolved propagation path.

    Attributes
    ----------
    toa : float
        Biased time of arrival in seconds (geometric delay + receiver clock bias).
    aod : float
        Angle of departure in the anchor frame, radians in (-pi, pi].
    aoa : float
        Angle of arrival in the user frame, radians in (-pi, pi].
    gain : float
        Dimensionless linear path power; used as the weight of this path in
        the estimator objective. Strictly positive.
    """

    toa: float
    aod: float
    aoa: float
    gain: float = 1.0

    def __post_init__(self):
        toa, aod, aoa, gain = self.toa, self.aod, self.aoa, self.gain
        # the sum is finite if every field is, unless it overflows: the loop
        # runs only to name a non-finite field
        if not math.isfinite(toa + aod + aoa + gain):
            for name in ("toa", "aod", "aoa", "gain"):
                if not math.isfinite(getattr(self, name)):
                    raise ValueError(f"{name} must be finite")
        if gain <= 0.0:
            raise ValueError("gain must be strictly positive")
        # the tracer and the readers pass floats with wrapped angles, which
        # float() and wrap_angle would return unchanged
        if (type(toa) is type(aod) is type(aoa) is type(gain) is float
                and -math.pi < aod <= math.pi and -math.pi < aoa <= math.pi):
            return
        object.__setattr__(self, "toa", float(toa))
        object.__setattr__(self, "aod", wrap_angle(float(aod)))
        object.__setattr__(self, "aoa", wrap_angle(float(aoa)))
        object.__setattr__(self, "gain", float(gain))


@dataclass(frozen=True)
class NoiseModel:
    """Per-component measurement noise, diagonal covariance.

    Defaults: 1 ns delay noise, 1 degree on each angle.
    """

    sigma_toa: float = 1e-9
    sigma_aod: float = math.radians(1.0)
    sigma_aoa: float = math.radians(1.0)

    def __post_init__(self):
        for name in ("sigma_toa", "sigma_aod", "sigma_aoa"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and strictly positive")

    @property
    def sigmas(self) -> np.ndarray:
        """Component standard deviations as a length-3 vector (toa, aod, aoa)."""
        return np.array([self.sigma_toa, self.sigma_aod, self.sigma_aoa])


@dataclass(frozen=True)
class PathLossModel:
    """Distance model of the LoS gain in dB, the one the simulator draws
    gains from and the detector tests against.

    mean(d) = l0_db + 10 * zeta * log10(d), with Gaussian scatter sigma_db.
    """

    l0_db: float = 13.0
    zeta: float = 1.7
    sigma_db: float = 1.8

    def __post_init__(self):
        if not (math.isfinite(self.sigma_db) and self.sigma_db > 0.0):
            raise ValueError("sigma_db must be finite and strictly positive")
        if not (math.isfinite(self.l0_db) and math.isfinite(self.zeta)):
            raise ValueError("l0_db and zeta must be finite")


def path_loss_mean(distance: float, model: PathLossModel = PathLossModel()) -> float:
    """Model mean of the LoS gain in dB at a given distance (m).

    Raises
    ------
    DegenerateGeometry
        If ``distance`` is not strictly positive.
    """
    if not distance > 0.0:
        raise DegenerateGeometry("distance must be strictly positive")
    return model.l0_db + 10.0 * model.zeta * math.log10(distance)


_T_NU = 0.1
"""The near-parallel threshold on s = ||u + v||^2: at or below it the
departure and arrival rays are close to anti-parallel and the bounce
fraction is treated as undefined. The one such threshold; it is read by
``estimator._initial_landmark``, ``estimator._feasibility_mask``,
``robust._refine_landmarks`` and ``evaluation.is_single_bounce_consistent``."""


def _rays(aod: float, aoa: float, alpha_bs: float, alpha_ue: float):
    """World-frame unit vectors (u, v) of a path's departure and arrival
    rays, as two (x, y) tuples of Python floats.

    ``aod`` and ``aoa`` are the path's local-frame angles, ``alpha_bs`` and
    ``alpha_ue`` the anchor and user headings. u points from the anchor
    toward the path's first interaction (the landmark, or the user itself
    for line of sight); v points from the user toward the last interaction
    (landmark or anchor). For a line-of-sight path v = -u.
    """
    a, b = alpha_bs + aod, alpha_ue + aoa
    return (math.cos(a), math.sin(a)), (math.cos(b), math.sin(b))


def _bounce(ue: UeState, path: PathMeasurement, bs: Pose):
    """(u, v, s, d, gamma) of ``path`` at user state ``ue``, in Python floats.

    u and v are the rays of ``_rays``, s = ||u + v||^2, d = c (toa -
    clock_bias) the path length, and gamma the bounce fraction, the share
    of d spent on the anchor-side leg: nu . r / (d s) with nu = u + v and
    r = p_ue - p_bs + d v; gamma is nan where d s is 0. For a single bounce
    consistent with the state, the reflection point sits at p_bs + gamma d u,
    and gamma lies in [0, 1]. gamma is undefined where the rays nearly
    cancel (s <= ``_T_NU``); every reader tests s first. Floats round as
    NumPy does, and on 2-vectors a NumPy call costs more than the
    arithmetic it does.
    """
    u, v = _rays(path.aod, path.aoa, bs.orientation, ue.orientation)
    nu = (u[0] + v[0], u[1] + v[1])
    s = _dot2(nu, nu)
    d = SPEED_OF_LIGHT * (path.toa - ue.clock_bias)
    (ux, uy), (bx, by) = ue.position.tolist(), bs.position.tolist()
    r = ((ux - bx) + d * v[0], (uy - by) + d * v[1])
    return u, v, s, d, _dot2(nu, r) / (d * s) if d * s != 0.0 else math.nan


def _chain_measurement(ue: UeState, bs: Pose, chain) -> tuple[float, float, float, float]:
    """(length, toa, aod, aoa) of an anchor-to-user chain of validated points.

    ``chain`` runs from ``bs.position`` through the reflection points to
    ``ue.position``, each point an (x, y) pair of Python floats. The length
    is the left-to-right sum of the legs from 0.0.

    Raises
    ------
    DegenerateGeometry
        If any two consecutive chain points coincide.
    """
    length = 0.0
    for (ax, ay), (bx, by) in zip(chain[:-1], chain[1:]):
        seg = math.hypot(bx - ax, by - ay)
        if seg == 0.0:
            raise DegenerateGeometry("coincident consecutive points on path")
        length += seg
    (x0, y0), (x1, y1) = chain[0], chain[1]
    (xu, yu), (xl, yl) = chain[-1], chain[-2]
    toa = length / SPEED_OF_LIGHT + ue.clock_bias
    aod = wrap_angle(math.atan2(y1 - y0, x1 - x0) - bs.orientation)
    aoa = wrap_angle(math.atan2(yl - yu, xl - xu) - ue.orientation)
    return length, toa, aod, aoa


def polyline_measurement(ue: UeState, bs: Pose, points) -> tuple[float, float, float]:
    """Noiseless (toa, aod, aoa) of a path reflecting at ``points`` in order.

    ``points`` is the (possibly empty) sequence of reflection points from the
    anchor side to the user side; an empty sequence is the line-of-sight path.
    The returned delay includes the user clock bias.

    Raises
    ------
    DegenerateGeometry
        If any two consecutive chain points coincide.
    """
    chain = [bs.position.tolist(), *[_as_point(p).tolist() for p in points],
             ue.position.tolist()]
    return _chain_measurement(ue, bs, chain)[1:]


def measurement_model(ue: UeState, bs: Pose, landmark=None) -> tuple[float, float, float]:
    """Noiseless channel parameters of a LoS or single-bounce path.

    Parameters
    ----------
    ue : UeState
        User position, heading and clock bias.
    bs : Pose
        Anchor pose.
    landmark : array-like of shape (2,), optional
        Reflection point for a single-bounce path; ``None`` for line of sight.

    Returns
    -------
    (toa, aod, aoa) : tuple of float
        Biased delay in seconds and the two local-frame angles in (-pi, pi].

    Example
    -------
    Anchor at the origin facing +x, user 10 m away facing back at it:

    >>> toa, aod, aoa = measurement_model(UeState([10.0, 0.0], math.pi), Pose([0.0, 0.0]))
    >>> (round(toa * SPEED_OF_LIGHT, 9), aod, aoa)
    (10.0, 0.0, 0.0)
    """
    pts = [] if landmark is None else [landmark]
    return polyline_measurement(ue, bs, pts)


def _mirror(p, a, b) -> tuple[float, float]:
    """Reflection of the point ``p`` across the infinite line through the
    wall endpoints ``a != b``, all (x, y) pairs of Python floats.

    The image is 2 (a + t d) - p for d = b - a and t = (p - a) . d / d . d,
    rounded as NumPy rounds it on 2-vectors; on pairs a NumPy call costs
    more than the arithmetic it does.
    """
    (px, py), (ax, ay), (bx, by) = p, a, b
    d = (bx - ax, by - ay)
    t = _dot2((px - ax, py - ay), d) / _dot2(d, d)
    return 2.0 * (ax + t * d[0]) - px, 2.0 * (ay + t * d[1]) - py
