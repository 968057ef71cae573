"""Earlier implementations kept as test references.

The package replaced each of these with a leaner one that must return the
same bits; the tests compare the two on seeded inputs.
"""

import math

import numpy as np

from snapslam import (
    SPEED_OF_LIGHT,
    DegenerateGeometry,
    LandmarkEstimate,
    NoiseModel,
    measurement_model,
)
from snapslam import estimator
from snapslam.estimator import CONDITION_LIMIT
from snapslam.geometry import TWO_PI


def wrap_angle_numpy(angle):
    """``wrap_angle`` as a NumPy expression over scalars and arrays."""
    a = np.asarray(angle, dtype=float)
    inside = (a > -math.pi) & (a <= math.pi)
    wrapped = math.pi - np.mod(math.pi - a, TWO_PI)
    out = np.where(inside, a, wrapped)
    if out.ndim == 0:
        return float(out)
    return out


def landmark_jacobian(ue, bs, landmark):
    """Analytic 3x2 Jacobian of (toa, aod, aoa) w.r.t. the landmark, in arrays."""
    p = np.asarray(landmark, dtype=float)
    d1 = p - bs.position
    d2 = p - ue.position
    n1 = math.hypot(d1[0], d1[1])
    n2 = math.hypot(d2[0], d2[1])
    if n1 == 0.0 or n2 == 0.0:
        raise DegenerateGeometry("landmark coincides with an antenna")
    row_toa = (d1 / n1 + d2 / n2) / SPEED_OF_LIGHT
    row_aod = np.array([-d1[1], d1[0]]) / (n1 * n1)
    row_aoa = np.array([-d2[1], d2[0]]) / (n2 * n2)
    return np.vstack([row_toa, row_aod, row_aoa])


def landmark_refine(path, ue, bs, noise=NoiseModel(), source_path=-1):
    """Gauss-Newton landmark refinement over the general N-bounce model.

    Evaluates the residual through ``measurement_model`` and the Jacobian
    through a separate call, and re-evaluates the Jacobian at the returned
    point. The initializer is looked up on ``snapslam.estimator`` at call
    time, so a test that replaces it there replaces it for both versions.
    """
    max_iter, tol = 50, 1e-9
    z = np.array([path.toa, path.aod, path.aoa])
    sig = noise.sigmas

    def whitened_residual(pt):
        t, a, o = measurement_model(ue, bs, pt)
        return np.array([z[0] - t,
                         wrap_angle_numpy(z[1] - a),
                         wrap_angle_numpy(z[2] - o)]) / sig

    def objective(pt):
        try:
            r = whitened_residual(pt)
        except DegenerateGeometry:
            return None, math.inf
        return r, float(r @ r)

    p = estimator._initial_landmark(path, ue, bs)
    r, cost = objective(p)
    if r is None:
        p = p + 1e-6
        r, cost = objective(p)
        if r is None:
            raise DegenerateGeometry("cannot evaluate the model near the initializer")
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        try:
            jac = landmark_jacobian(ue, bs, p) / sig[:, None]
        except DegenerateGeometry:
            break
        ata = jac.T @ jac
        atr = jac.T @ r
        try:
            step = np.linalg.solve(ata, atr)
        except np.linalg.LinAlgError:
            break
        if float(np.hypot(*step)) < tol:
            converged = True
            break
        scale = 1.0
        accepted = False
        for _ in range(9):
            cand = p + scale * step
            r_new, cost_new = objective(cand)
            if r_new is not None and cost_new <= cost:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break
        p, r, cost = cand, r_new, cost_new
        if float(np.hypot(*(scale * step))) < tol:
            converged = True
            break

    try:
        jac = landmark_jacobian(ue, bs, p) / sig[:, None]
    except DegenerateGeometry as exc:
        raise DegenerateGeometry("Jacobian undefined at the optimum") from exc
    ata = jac.T @ jac
    sv = np.linalg.svd(ata, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] >= CONDITION_LIMIT:
        raise DegenerateGeometry("rank-deficient Jacobian at the optimum")
    cov = np.linalg.inv(ata)
    cov = 0.5 * (cov + cov.T)
    return LandmarkEstimate(position=p.copy(), covariance=cov,
                            source_path=source_path, converged=converged,
                            iterations=iterations)
