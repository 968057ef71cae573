import math

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
    SingularGeometry,
    UeState,
    conditional_estimate,
    landmark_jacobian,
    landmark_refine,
    los_orientation,
    measurement_model,
    nlos_orientation_search,
    orientation_grid,
    path_cost,
)
from snapslam.estimator import (
    CONDITION_LIMIT,
    _build_terms,
    _row_costs,
    _solve_packed,
)
from helpers import random_h0_snapshot, random_h1_snapshot

C = SPEED_OF_LIGHT


def test_conditional_estimate_exact_at_true_heading():
    for seed in range(10):
        snap = random_h1_snapshot(seed, n_single=4)
        t = snap.truth
        est = conditional_estimate(snap.paths, range(len(snap.paths)),
                                   t.ue.orientation, snap.bs)
        assert np.allclose(est.position, t.ue.position, atol=1e-9)
        assert est.clock_bias == pytest.approx(t.ue.clock_bias, abs=1e-15)
        assert est.total_cost == pytest.approx(0.0, abs=1e-12)
        assert all(c == pytest.approx(0.0, abs=1e-12) for _, c in est.per_path_cost)


def test_conditional_estimate_los_marked_path():
    for seed in range(10):
        snap = random_h0_snapshot(seed, n_single=2)
        t = snap.truth
        est = conditional_estimate(snap.paths, range(len(snap.paths)),
                                   t.ue.orientation, snap.bs, los_index=0)
        assert np.allclose(est.position, t.ue.position, atol=1e-9)
        assert est.clock_bias == pytest.approx(t.ue.clock_bias, abs=1e-15)


def test_conditional_estimate_total_is_weighted_sum():
    snap = random_h1_snapshot(42, n_single=5)
    est = conditional_estimate(snap.paths, range(5), 0.3, snap.bs)
    manual = sum(snap.paths[i].gain * c for i, c in est.per_path_cost)
    assert est.total_cost == pytest.approx(manual, rel=1e-12, abs=1e-15)
    assert est.total_cost >= 0.0


def test_conditional_estimate_weight_scale_invariance():
    snap = random_h1_snapshot(5, n_single=4)
    scaled = [PathMeasurement(p.toa, p.aod, p.aoa, p.gain * 7.25)
              for p in snap.paths]
    a = conditional_estimate(snap.paths, range(4), 0.8, snap.bs)
    b = conditional_estimate(scaled, range(4), 0.8, snap.bs)
    assert np.allclose(a.position, b.position, atol=1e-9)
    assert a.clock_bias == pytest.approx(b.clock_bias, abs=1e-15)
    assert b.total_cost == pytest.approx(7.25 * a.total_cost, rel=1e-9, abs=1e-18)


def test_conditional_estimate_rejects_empty_and_singular():
    snap = random_h1_snapshot(8)
    with pytest.raises(ValueError):
        conditional_estimate(snap.paths, [], 0.0, snap.bs)
    # four copies of one ray span a rank-2 system
    p = snap.paths[0]
    with pytest.raises(SingularGeometry):
        conditional_estimate([p, p, p, p], range(4), 0.0, snap.bs)


def test_path_cost_zero_at_truth_positive_off_truth():
    snap = random_h1_snapshot(13, n_single=4)
    t = snap.truth
    for p in snap.paths:
        at_truth = path_cost(p, t.ue.position, t.ue.clock_bias,
                             t.ue.orientation, snap.bs)
        assert at_truth == pytest.approx(0.0, abs=1e-15)
        shifted = path_cost(p, t.ue.position + [2.0, -1.0], t.ue.clock_bias,
                            t.ue.orientation, snap.bs)
        assert shifted > 1e-3


def test_path_cost_los_projector_counts_both_components():
    ue = UeState([10.0, 0.0], math.pi, 0.0)
    bs = Pose([0.0, 0.0])
    toa, aod, aoa = measurement_model(ue, bs)
    p = PathMeasurement(toa, aod, aoa)
    assert path_cost(p, ue.position, 0.0, ue.orientation, bs, is_los=True) == \
        pytest.approx(0.0, abs=1e-18)
    # moving 1 m along the ray plus 1 m of bias leaves a 2 m range residual;
    # an exactly-LoS path has u + v = 0, so the bounce projector degenerates
    # to the identity as well and both flags count it fully
    along = path_cost(p, [11.0, 0.0], 1.0 / C, ue.orientation, bs, is_los=True)
    assert along == pytest.approx(4.0, rel=1e-6)
    assert path_cost(p, [11.0, 0.0], 1.0 / C, ue.orientation, bs) == \
        pytest.approx(4.0, rel=1e-6)


def test_path_cost_bounce_projector_null_direction():
    # bs origin, ue (4,0), landmark (2,2): u+v = (0, sqrt(2)); shifting the
    # user along it changes only the (unobservable) bounce split
    ue = UeState([4.0, 0.0], 0.0, 0.0)
    bs = Pose([0.0, 0.0])
    toa, aod, aoa = measurement_model(ue, bs, [2.0, 2.0])
    p = PathMeasurement(toa, aod, aoa)
    shifted = [4.0, 0.5]
    assert path_cost(p, ue.position, 0.0, 0.0, bs) == pytest.approx(0.0, abs=1e-12)
    assert path_cost(p, shifted, 0.0, 0.0, bs) == pytest.approx(0.0, abs=1e-12)
    # identity projector keeps the unprojected residual gamma*d*nu:
    # gamma=1/2, d=4*sqrt(2), |nu|^2=2 -> cost 16 at the true position
    assert path_cost(p, ue.position, 0.0, 0.0, bs, is_los=True) == \
        pytest.approx(16.0, rel=1e-9)


def test_los_orientation_closed_form():
    rng = np.random.default_rng(31)
    for _ in range(50):
        bs = Pose(rng.uniform(-5, 5, 2), rng.uniform(-math.pi, math.pi))
        ue = UeState(rng.uniform(-15, 15, 2), rng.uniform(-math.pi, math.pi),
                     rng.uniform(-1e-7, 1e-7))
        if np.hypot(*(ue.position - bs.position)) < 1.0:
            continue
        toa, aod, aoa = measurement_model(ue, bs)
        got = los_orientation(PathMeasurement(toa, aod, aoa), bs)
        assert got == pytest.approx(ue.orientation, abs=1e-12)


def test_orientation_grid_shape():
    g = orientation_grid()
    assert len(g) == 361
    assert g[0] == -math.pi and g[-1] == math.pi
    assert np.allclose(np.diff(g), math.pi / 180.0)
    with pytest.raises(ValueError):
        orientation_grid(0)


def test_nlos_search_recovers_on_grid_heading():
    for seed in range(5):
        snap = random_h1_snapshot(seed, n_single=4, on_grid=True)
        t = snap.truth
        alpha, est = nlos_orientation_search(snap.paths, range(4),
                                             orientation_grid(), snap.bs)
        assert alpha == pytest.approx(t.ue.orientation, abs=1e-12)
        assert np.allclose(est.position, t.ue.position, atol=1e-9)
        assert est.total_cost == pytest.approx(0.0, abs=1e-12)


def test_nlos_search_off_grid_within_one_step():
    snap = random_h1_snapshot(77, n_single=5, on_grid=False)
    t = snap.truth
    alpha, _ = nlos_orientation_search(snap.paths, range(5),
                                       orientation_grid(), snap.bs)
    assert abs(alpha - t.ue.orientation) <= math.radians(1.0)


def test_row_costs_send_failed_and_non_finite_rows_to_inf():
    # the grid search takes the argmin of these costs: neither a failed
    # solve nor a NaN cost may win it
    snap = random_h1_snapshot(5, n_single=5)
    terms = _build_terms(snap.paths, snap.bs, orientation_grid(6))
    member = np.ones(terms.nu_sq.shape, dtype=bool)
    x, ok = _solve_packed((member.astype(float)[:, None, :] @ terms.normal)[:, 0])
    assert ok.all()
    x[1] = np.nan
    ok[2] = False
    cost = _row_costs(terms, x, ok, member)
    assert np.isinf(cost[1:3]).all()
    assert np.isfinite(np.delete(cost, [1, 2])).all()


def test_landmark_jacobian_matches_finite_differences():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 30:
        bs = Pose(rng.uniform(-5, 5, 2), rng.uniform(-math.pi, math.pi))
        ue = UeState(rng.uniform(-15, 15, 2), rng.uniform(-math.pi, math.pi),
                     rng.uniform(-1e-7, 1e-7))
        lm = rng.uniform(-20, 20, 2)
        if (np.hypot(*(lm - bs.position)) < 1.0
                or np.hypot(*(lm - ue.position)) < 1.0):
            continue
        jac = landmark_jacobian(ue, bs, lm)
        eps = 1e-6
        fd = np.empty((3, 2))
        for k in range(2):
            d = np.zeros(2)
            d[k] = eps
            hi = np.array(measurement_model(ue, bs, lm + d))
            lo = np.array(measurement_model(ue, bs, lm - d))
            fd[:, k] = (hi - lo) / (2 * eps)
        assert np.allclose(jac, fd, rtol=1e-5, atol=1e-8)
        checked += 1


def test_landmark_jacobian_degenerate_at_antennas():
    bs = Pose([0.0, 0.0])
    ue = UeState([5.0, 0.0])
    with pytest.raises(DegenerateGeometry):
        landmark_jacobian(ue, bs, [0.0, 0.0])
    with pytest.raises(DegenerateGeometry):
        landmark_jacobian(ue, bs, [5.0, 0.0])


def test_landmark_refine_noiseless_strict():
    rng = np.random.default_rng(23)
    for _ in range(20):
        bs = Pose(rng.uniform(-5, 5, 2), rng.uniform(-math.pi, math.pi))
        ue = UeState(rng.uniform(-15, 15, 2), rng.uniform(-math.pi, math.pi),
                     rng.uniform(-1e-7, 1e-7))
        lm = rng.uniform(-20, 20, 2)
        seg = ue.position - bs.position
        t = float((lm - bs.position) @ seg) / float(seg @ seg)
        foot = bs.position + min(max(t, 0.0), 1.0) * seg
        if (np.hypot(*(lm - bs.position)) < 1.5
                or np.hypot(*(lm - ue.position)) < 1.5
                or np.hypot(*(lm - foot)) < 1.5):
            continue
        toa, aod, aoa = measurement_model(ue, bs, lm)
        est = landmark_refine(PathMeasurement(toa, aod, aoa), ue, bs,
                              source_path=3)
        assert est.converged
        assert est.iterations <= 5
        assert est.source_path == 3
        assert np.allclose(est.position, lm, atol=1e-6)
        # covariance is symmetric positive definite
        assert np.allclose(est.covariance, est.covariance.T)
        assert np.all(np.linalg.eigvalsh(est.covariance) > 0.0)


def test_landmark_refine_noisy_stays_close():
    rng = np.random.default_rng(29)
    noise = NoiseModel()
    bs = Pose([0.0, 0.0], 0.1)
    ue = UeState([12.0, -3.0], 0.7, 20e-9)
    lm = np.array([6.0, 8.0])
    toa, aod, aoa = measurement_model(ue, bs, lm)
    noisy = PathMeasurement(toa + noise.sigma_toa * rng.standard_normal(),
                            aod + noise.sigma_aod * rng.standard_normal(),
                            aoa + noise.sigma_aoa * rng.standard_normal())
    est = landmark_refine(noisy, ue, bs, noise)
    assert est.converged
    assert np.hypot(*(est.position - lm)) < 1.5


# --- closed-form cell kernel against LAPACK -------------------------------

def _svd_gate(a):
    sv = np.linalg.svd(a, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sv[:, 0] / sv[:, 2]
    return np.isfinite(cond) & (cond < CONDITION_LIMIT), cond


def _quaternion_rotation(q):
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def _psd_matrix(kind, log_cond, mid, log_gain, quat):
    """Gain * R diag(1, cond^-mid, 1/cond) R^T, or a rank-deficient variant."""
    lam = np.array([1.0, 10.0 ** (-mid * log_cond), 10.0 ** -log_cond])
    if kind == "rank2":
        lam[2] = 0.0
    elif kind == "rank1":
        lam[1:] = 0.0
    elif kind == "zero":
        lam[:] = 0.0
    rot = _quaternion_rotation(quat)
    a = 10.0 ** log_gain * (rot * lam) @ rot.T
    return 0.5 * (a + a.T)


_unit_floats = st.floats(-1.0, 1.0)
_psd_draw = st.tuples(
    st.sampled_from(["full", "full", "full", "rank2", "rank1", "zero"]),
    st.floats(0.0, 16.0),           # log10 of the condition number
    st.floats(0.0, 1.0),            # middle eigenvalue, as a share of log10 cond
    st.floats(-12.0, 3.0),          # log10 of the gain
    st.lists(_unit_floats, min_size=4, max_size=4).filter(
        lambda q: sum(t * t for t in q) > 1e-2),
    st.lists(_unit_floats, min_size=3, max_size=3).filter(
        lambda b: sum(t * t for t in b) > 1e-2),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_psd_draw, min_size=1, max_size=24))
# 100 I up to an off-diagonal of ~1e-148: the eigenvalue spread p cubed underflows
@example([("full", 0.0, 0.0, 2.0, [0.0, 0.0, 1.0, 7.4e-135], [0.0, 0.0, 1.0])])
def test_closed_form_gate_and_solve_match_lapack(draws):
    a = np.array([_psd_matrix(*d[:5]) for d in draws])
    b = np.array([d[5] for d in draws]) * np.array([10.0 ** d[3] for d in draws])[:, None]
    packed = np.concatenate([a[:, [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]], b], axis=1)
    x, ok = _solve_packed(packed)
    ref_ok, cond = _svd_gate(a)
    assert np.array_equal(ok, ref_ok), (cond, ok, ref_ok)
    assert np.all(x[~ok] == 0.0)
    if ok.any():
        ref_x = np.linalg.solve(a[ok], b[ok][..., None])[..., 0]
        err = np.linalg.norm(x[ok] - ref_x, axis=1)
        assert np.all(err <= cond[ok] * 1e-13 * np.linalg.norm(ref_x, axis=1))


def test_closed_form_kernel_keeps_batch_shape():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((2, 5, 4, 3))
    a = np.einsum("...ki,...kj->...ij", h, h)
    packed = np.concatenate([a[..., [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]],
                             rng.standard_normal((2, 5, 3))], axis=-1)
    x, ok = _solve_packed(packed)
    assert x.shape == (2, 5, 3) and ok.shape == (2, 5) and ok.all()
    flat_x, flat_ok = _solve_packed(packed.reshape(10, 9))
    assert np.array_equal(flat_x, x.reshape(10, 3)) and np.array_equal(flat_ok, ok.ravel())
