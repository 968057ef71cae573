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
    landmark_refine,
    los_orientation,
    measurement_model,
    nlos_orientation_search,
    orientation_grid,
    path_cost,
    wrap_angle,
)
from snapslam import estimator
from snapslam.estimator import (
    CONDITION_LIMIT,
    _bounce_model,
    _build_terms,
    _costs,
    _row_costs,
    _solve_packed,
)
from snapslam.geometry import _T_NU, _bounce
import reference
from helpers import random_h0_snapshot, random_h1_snapshot, random_landmarks, random_state

C = SPEED_OF_LIGHT


def _conditional_estimate(paths, index_set, alpha, bs):
    """The closed-form fit at one fixed heading: a one-point grid search."""
    return nlos_orientation_search(paths, index_set, [alpha], bs)


def test_conditional_estimate_exact_at_true_heading():
    for seed in range(10):
        snap = random_h1_snapshot(seed, n_single=4)
        t = snap.truth
        ue, cost = _conditional_estimate(snap.paths, range(len(snap.paths)),
                                         t.ue.orientation, snap.bs)
        assert np.allclose(ue.position, t.ue.position, atol=1e-9)
        assert ue.orientation == t.ue.orientation
        assert ue.clock_bias == pytest.approx(t.ue.clock_bias, abs=1e-15)
        assert cost == pytest.approx(0.0, abs=1e-12)
        for p in snap.paths:
            assert path_cost(p, ue.position, ue.clock_bias, ue.orientation, snap.bs) == \
                pytest.approx(0.0, abs=1e-12)


def test_conditional_estimate_los_marked_path():
    # no public route marks a path as LoS in a fixed-set fit; the terms do:
    # with the LoS path's identity projector the fit is exact at the truth
    for seed in range(10):
        snap = random_h0_snapshot(seed, n_single=2)
        t = snap.truth
        terms = _build_terms(snap.paths, snap.bs, np.array([t.ue.orientation]), 0)
        x, ok = _solve_packed(terms.normal.sum(axis=1))
        assert ok[0]
        assert np.allclose(x[:2, 0], t.ue.position, atol=1e-9)
        assert x[2, 0] / C == pytest.approx(t.ue.clock_bias, abs=1e-15)
        assert np.allclose(_costs(terms, x), 0.0, atol=1e-12)


def test_conditional_estimate_total_is_weighted_sum():
    snap = random_h1_snapshot(42, n_single=5)
    ue, cost = _conditional_estimate(snap.paths, range(5), 0.3, snap.bs)
    manual = sum(p.gain * path_cost(p, ue.position, ue.clock_bias, 0.3, snap.bs)
                 for p in snap.paths)
    assert cost == pytest.approx(manual, rel=1e-12, abs=1e-15)
    assert cost >= 0.0


def test_conditional_estimate_weight_scale_invariance():
    snap = random_h1_snapshot(5, n_single=4)
    scaled = [PathMeasurement(p.toa, p.aod, p.aoa, p.gain * 7.25)
              for p in snap.paths]
    a, cost_a = _conditional_estimate(snap.paths, range(4), 0.8, snap.bs)
    b, cost_b = _conditional_estimate(scaled, range(4), 0.8, snap.bs)
    assert np.allclose(a.position, b.position, atol=1e-9)
    assert a.clock_bias == pytest.approx(b.clock_bias, abs=1e-15)
    assert cost_b == pytest.approx(7.25 * cost_a, rel=1e-9, abs=1e-18)


def test_conditional_estimate_rejects_empty_and_singular():
    snap = random_h1_snapshot(8)
    with pytest.raises(ValueError):
        _conditional_estimate(snap.paths, [], 0.0, snap.bs)
    # four copies of one ray span a rank-2 system
    p = snap.paths[0]
    with pytest.raises(SingularGeometry):
        _conditional_estimate([p, p, p, p], range(4), 0.0, snap.bs)


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


def _los_cost(path, position, clock_bias, alpha_ue, bs):
    """Squared residual (m^2) of ``path`` as the LoS branch costs its
    candidate: marked LoS, with the identity projector."""
    x = np.array([[position[0]], [position[1]], [C * clock_bias]])
    return float(_costs(_build_terms([path], bs, [alpha_ue], 0), x)[0, 0])


def test_path_cost_los_projector_counts_both_components():
    ue = UeState([10.0, 0.0], math.pi, 0.0)
    bs = Pose([0.0, 0.0])
    toa, aod, aoa = measurement_model(ue, bs)
    p = PathMeasurement(toa, aod, aoa)
    assert _los_cost(p, ue.position, 0.0, ue.orientation, bs) == \
        pytest.approx(0.0, abs=1e-18)
    # moving 1 m along the ray plus 1 m of bias leaves a 2 m range residual;
    # an exactly-LoS path has u + v = 0, so the bounce projector degenerates
    # to the identity as well and both count it fully
    along = _los_cost(p, [11.0, 0.0], 1.0 / C, ue.orientation, bs)
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
    assert _los_cost(p, ue.position, 0.0, 0.0, bs) == pytest.approx(16.0, rel=1e-9)


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


def test_nlos_search_recovers_on_grid_heading():
    for seed in range(5):
        snap = random_h1_snapshot(seed, n_single=4, on_grid=True)
        t = snap.truth
        ue, cost = nlos_orientation_search(snap.paths, range(4),
                                           orientation_grid(), snap.bs)
        assert ue.orientation == pytest.approx(t.ue.orientation, abs=1e-12)
        assert np.allclose(ue.position, t.ue.position, atol=1e-9)
        assert ue.clock_bias == pytest.approx(t.ue.clock_bias, abs=1e-15)
        assert cost == pytest.approx(0.0, abs=1e-12)


def test_nlos_search_off_grid_within_one_step():
    snap = random_h1_snapshot(77, n_single=5, on_grid=False)
    t = snap.truth
    ue, _ = nlos_orientation_search(snap.paths, range(5),
                                    orientation_grid(), snap.bs)
    assert abs(wrap_angle(ue.orientation - t.ue.orientation)) <= math.radians(1.0)


def test_nlos_search_rejects_indices_outside_the_snapshot():
    # -1 would select the last path and 5 would index past it
    snap = random_h1_snapshot(3, n_single=5)
    for index_set in ([0, 1, 2, -1], [0, 1, 2, 5]):
        with pytest.raises(ValueError, match="index_set"):
            nlos_orientation_search(snap.paths, index_set, orientation_grid(), snap.bs)


def test_row_costs_send_failed_and_non_finite_rows_to_inf():
    # the grid search takes the argmin of these costs: neither a failed
    # solve nor a NaN cost may win it
    snap = random_h1_snapshot(5, n_single=5)
    terms = _build_terms(snap.paths, snap.bs, np.linspace(-math.pi, math.pi, 6))
    member = np.ones(terms.nu_sq.shape, dtype=bool)            # (n, M) member masks
    x, ok = _solve_packed(terms.normal.sum(axis=1))
    assert ok.all()
    x[:, 1] = np.nan
    ok[2] = False
    cost = _row_costs(terms, x, ok, member)
    assert np.isinf(cost[1:3]).all()
    assert np.isfinite(np.delete(cost, [1, 2])).all()


def _jacobian(ue, bs, landmark):
    """The 3x2 landmark Jacobian of ``_bounce_model``, which
    ``landmark_refine`` steps by."""
    return np.array(_bounce_model(ue, bs, landmark)[1]).reshape(3, 2)


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
        jac = _jacobian(ue, bs, lm)
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
    # the model is undefined at either antenna
    bs = Pose([0.0, 0.0])
    ue = UeState([5.0, 0.0])
    assert _bounce_model(ue, bs, [0.0, 0.0]) is None
    assert _bounce_model(ue, bs, [5.0, 0.0]) is None


def test_landmark_model_degenerate_where_a_squared_leg_underflows():
    # so close to an antenna that a leg's squared norm underflows to 0,
    # though the norm does not: the Jacobian would divide by zero
    bs = Pose([0.0, 0.0])
    ue = UeState([5.0, 0.0])
    assert _bounce_model(ue, bs, [0.0, 1e-300]) is None
    assert _bounce_model(ue, bs, [5.0, 1e-300]) is None
    for landmark in ([0.0, 1e-150], [5.0, 1e-150]):
        h, jac = _bounce_model(ue, bs, landmark)
        assert all(map(math.isfinite, h + jac))


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



# --- single-bounce kernel against the general-model reference -------------

def _estimate_or_error(refine, *args):
    """A refinement's estimate, or its error as (type name, message)."""
    try:
        return refine(*args)
    except DegenerateGeometry as exc:
        return type(exc).__name__, str(exc)


def _refine_outcome(args):
    """Every field of ``landmark_refine(*args)``, as bytes where it is an
    array, or its error."""
    est = _estimate_or_error(landmark_refine, *args)
    if isinstance(est, tuple):
        return est
    return (est.position.tobytes(), est.covariance.tobytes(), est.iterations,
            est.converged, est.source_path)


def _refine_cases():
    """Seeded single-bounce refinements, one geometry per seed.

    Kinds by seed mod 6: noiseless; noisy; landmark 1e-9..1e-2 m from an
    antenna; landmark 1e-8..1 m off the anchor-user line (near-parallel
    rays); the LoS path itself; an arbitrary measurement.
    """
    noise = NoiseModel()
    for seed in range(240):
        rng = np.random.default_rng(seed)
        bs, ue = random_state(rng)
        kind = seed % 6
        if kind <= 1:
            lm = random_landmarks(rng, 1, bs, ue)[0]
        elif kind == 2:
            ang = rng.uniform(-math.pi, math.pi)
            lm = ((bs, ue)[seed % 2].position
                  + 10.0 ** rng.uniform(-9, -2) * np.array([math.cos(ang), math.sin(ang)]))
        elif kind == 3:
            seg = ue.position - bs.position
            normal = np.array([-seg[1], seg[0]]) / np.hypot(*seg)
            lm = (bs.position + rng.uniform(-0.5, 1.5) * seg
                  + 10.0 ** rng.uniform(-8, 0) * normal)
        else:
            lm = None
        if kind == 5:
            path = PathMeasurement(ue.clock_bias + rng.uniform(1.0, 60.0) / C,
                                   rng.uniform(-math.pi, math.pi),
                                   rng.uniform(-math.pi, math.pi))
        else:
            toa, aod, aoa = measurement_model(ue, bs, lm)
            if kind != 0:
                toa += noise.sigma_toa * rng.standard_normal()
                aod += noise.sigma_aod * rng.standard_normal()
                aoa += noise.sigma_aoa * rng.standard_normal()
            path = PathMeasurement(toa, aod, aoa)
        yield path, ue, bs, noise, seed


def _keeps_the_reference_contract(args):
    """Check the float kernel against the NumPy reference on one refinement.

    The contract: the same exit (a return, or a raise with the same
    message), the same ``converged`` flag, positions within 1e-6 m, and a
    covariance equal to inv(J^T R^-1 J) at the kernel's own returned point
    within 4 cond eps of its largest entry. Iteration counts may differ:
    the two evaluate the same arithmetic in a different order, and an
    iterate that moves by rounding can take a step more or less. Returns
    the kernel's estimate, or its error as (type name, message).
    """
    est = _estimate_or_error(landmark_refine, *args)
    ref = _estimate_or_error(reference.landmark_refine, *args)
    if isinstance(est, tuple) or isinstance(ref, tuple):
        assert est == ref, args
        return est
    assert est.converged == ref.converged and est.source_path == ref.source_path, args
    assert np.hypot(*(est.position - ref.position)) <= 1e-6, args
    _, ue, bs = args[:3]
    noise = args[3] if len(args) > 3 else NoiseModel()
    jac = reference.landmark_jacobian(ue, bs, est.position) / noise.sigmas[:, None]
    ata = jac.T @ jac
    want = np.linalg.inv(ata)
    err = np.abs(est.covariance - want).max()
    assert err <= 4.0 * np.linalg.cond(ata) * np.finfo(float).eps * np.abs(want).max(), args
    return est


def test_landmark_refine_matches_the_general_model_reference():
    outcomes = [_keeps_the_reference_contract(args[:4]) for args in _refine_cases()]
    assert len(outcomes) >= 200
    estimates = [o for o in outcomes if not isinstance(o, tuple)]
    # the cases reach every exit: converged, stopped early, and raised
    assert any(est.converged for est in estimates)
    assert any(not est.converged and est.iterations == 50 for est in estimates)
    assert any(not est.converged and est.iterations < 50 for est in estimates)
    assert len(estimates) < len(outcomes)


def _next_step(est, path, ue, bs, noise):
    """Norm of the full Gauss-Newton step from a refinement's returned point."""
    h = measurement_model(ue, bs, est.position)
    r = np.array([path.toa - h[0], wrap_angle(path.aod - h[1]),
                  wrap_angle(path.aoa - h[2])]) / noise.sigmas
    jac = _jacobian(ue, bs, est.position) / noise.sigmas[:, None]
    return float(np.hypot(*np.linalg.solve(jac.T @ jac, jac.T @ r)))


def test_landmark_refine_reports_converged_at_the_optimum():
    # Where the next Gauss-Newton step is below 1e-6 m the refinement sits at
    # the optimum, even when no halving of that step lowers the objective
    # any more (30 cases stop that way, with steps of 1e-9..2e-7 m). Where
    # it is 1e-2 m or more the refinement is not there, whatever the exit.
    at_optimum, away = [], []
    for path, ue, bs, noise, _ in _refine_cases():
        try:
            est = landmark_refine(path, ue, bs, noise)
        except DegenerateGeometry:
            continue
        step = _next_step(est, path, ue, bs, noise)
        if step < 1e-6:
            at_optimum.append(est)
        elif step >= 1e-2:
            away.append(est)
    assert len(at_optimum) >= 100 and len(away) >= 40
    assert all(est.converged for est in at_optimum)
    assert not any(est.converged for est in away)


def _on_the_anchor(path, ue, bs):
    return bs.position.copy()


def _antenna_cases():
    """Refinements that start on an antenna, as (args, initializer); an
    initializer of None keeps the package's own."""
    # zero delay puts the initializer on the anchor, which is also the user
    yield (PathMeasurement(1e-8, 0.2, -1.1), UeState([1.0, -2.0], 0.5, 1e-8),
           Pose([1.0, -2.0], 0.3)), None
    # the initializer is on the anchor: the nudged point is used
    ue, bs = UeState([6.0, 4.0], 0.5, 1e-8), Pose([0.0, 0.0])
    yield (PathMeasurement(*measurement_model(ue, bs, [3.0, 5.0])), ue, bs), _on_the_anchor
    # and its nudge is on the user: no point near the initializer evaluates
    yield ((PathMeasurement(12.0 / C, 0.2, -1.1), UeState([1e-6, 1e-6]), Pose([0.0, 0.0])),
           _on_the_anchor)


def _gate_cases():
    """Every refinement case as (args, initializer): the seeded ones, the
    antenna ones, and a landmark on the anchor-user segment, whose normal
    matrix is exactly singular."""
    for path, ue, bs, noise, _ in _refine_cases():
        yield (path, ue, bs, noise), None
    yield from _antenna_cases()
    ue, bs = UeState([10.0, 0.0], 0.4), Pose([0.0, 0.0], -0.2)
    yield (PathMeasurement(*measurement_model(ue, bs, [4.0, 0.0])), ue, bs), None


def _run_case(monkeypatch, run, args, initializer):
    with monkeypatch.context() as patch:
        if initializer is not None:
            patch.setattr(estimator, "_initial_landmark", initializer)
        return run(args)


def test_landmark_refine_matches_the_reference_from_an_antenna_initializer(monkeypatch):
    colocated = next(_antenna_cases())[0]
    assert np.array_equal(estimator._initial_landmark(*colocated), colocated[2].position)
    outcomes = [_run_case(monkeypatch, _keeps_the_reference_contract, args, init)
                for args, init in _antenna_cases()]
    assert np.allclose(outcomes[1].position, [3.0, 5.0], atol=1e-9)
    assert outcomes[2] == ("DegenerateGeometry",
                           "cannot evaluate the model near the initializer")


def _initializer_cases():
    """(path, ue, bs) for every path of seeded builder snapshots, at the true
    state and at five perturbed ones, then the fraction's edge cases."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        build = random_h0_snapshot if seed % 2 else random_h1_snapshot
        snap = build(seed, n_single=4, noise=NoiseModel() if seed % 4 >= 2 else None)
        true = snap.truth.ue
        states = [true] + [UeState(true.position + rng.normal(0.0, 2.0, 2),
                                   true.orientation + rng.normal(0.0, 0.3),
                                   true.clock_bias + rng.normal(0.0, 2e-8)) for _ in range(5)]
        for ue in states:
            for path in snap.paths:
                yield path, ue, snap.bs
    ue, bs = UeState([6.0, 4.0], 0.5, 1e-8), Pose([1.0, -2.0], 0.3)
    yield PathMeasurement(*measurement_model(ue, bs)), ue, bs           # LoS: ||u + v||^2 ~ 0
    yield PathMeasurement(1e-8, 0.2, -1.1), ue, bs                      # zero path length
    yield PathMeasurement(1e308, 0.2, -1.1), UeState([6.0, 4.0], 0.5, -1e308), bs   # d = inf


def _fraction_or_error(fraction, path, ue, bs):
    try:
        return fraction(ue, path, bs)
    except (reference.NearParallel, DegenerateGeometry) as exc:
        return type(exc).__name__, str(exc)


def test_initial_landmark_matches_the_numpy_reference_bit_for_bit():
    kinds = set()
    for path, ue, bs in _initializer_cases():
        got = estimator._initial_landmark(path, ue, bs)
        with np.errstate(all="ignore"):         # NumPy warns where d is infinite
            want = reference.initial_landmark(path, ue, bs)
        assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()
        gam = _fraction_or_error(reference.bounce_fraction, path, ue, bs)
        _, _, s, d, got_gam = _bounce(ue, path, bs)
        if isinstance(gam, tuple):
            kinds.add(gam[0])
            assert s <= _T_NU if gam[0] == "NearParallel" else s > _T_NU and d == 0.0
        else:
            assert s > _T_NU and d != 0.0
            assert np.array(got_gam).tobytes() == np.array(gam).tobytes()
            kinds.add("inside" if 0.0 <= gam <= 1.0 else
                      "outside" if math.isfinite(gam) else "not finite")
    assert kinds == {"inside", "outside", "not finite", "NearParallel", "DegenerateGeometry"}


_RANK_FAILURE = ("DegenerateGeometry", "rank-deficient Jacobian at the optimum")


def _gate_matrix_spy(monkeypatch):
    """Record the (a, b, c) of the last ``_normal_2x2`` call, which is the
    matrix the rank gate decides on when a refinement reaches it."""
    seen = []
    normal = estimator._normal_2x2

    def spy(jac, sig):
        out = normal(jac, sig)
        seen[:] = [out[1:]]
        return out

    monkeypatch.setattr(estimator, "_normal_2x2", spy)
    return seen


def test_landmark_refine_rank_gate_decides_by_the_trace_estimate(monkeypatch):
    # The fit passes if and only if det = a c - b^2 > 0 and (a + c)^2 / det
    # < CONDITION_LIMIT, on the last matrix the refinement built. The
    # near-antenna and near-parallel kinds reach conditions of 1e9..2e14, on
    # both sides of the limit, and the segment case is singular; moving the
    # limit to L / 2 and 8 L moves the decisions with the estimate and
    # changes nothing else of a fit that passes.
    cases = list(_gate_cases())
    want = [_run_case(monkeypatch, _refine_outcome, *case) for case in cases]
    seen = _gate_matrix_spy(monkeypatch)
    for limit in (CONDITION_LIMIT, CONDITION_LIMIT / 2, 8 * CONDITION_LIMIT):
        monkeypatch.setattr(estimator, "CONDITION_LIMIT", limit)
        for case, outcome in zip(cases, want):
            del seen[:]
            got = _run_case(monkeypatch, _refine_outcome, *case)
            if not seen:        # stopped before the gate: no point to evaluate
                assert got == outcome == ("DegenerateGeometry",
                                          "cannot evaluate the model near the initializer")
                continue
            (a, b, c), = seen
            det = a * c - b * b
            passes = det > 0.0 and (a + c) * (a + c) / det < limit
            assert (got != _RANK_FAILURE) == passes, (limit, a, b, c)
            assert got == outcome or _RANK_FAILURE in (got, outcome)
    assert sum(o == _RANK_FAILURE for o in want) >= 5


def test_landmark_refine_makes_no_numpy_solve_and_no_svd(monkeypatch):
    # The refinement's 2x2 algebra, its rank gate included, runs in floats.
    cases = list(_gate_cases())
    want = [_run_case(monkeypatch, _refine_outcome, *case) for case in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("landmark_refine called np.linalg")

    for name in ("solve", "inv", "svd", "eigvalsh", "eigh", "cond"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for case, outcome in zip(cases, want):
        assert _run_case(monkeypatch, _refine_outcome, *case) == outcome


def test_landmark_jacobian_matches_the_reference():
    for path, ue, bs, _, seed in _refine_cases():
        lm = np.random.default_rng(seed).uniform(-20.0, 20.0, 2)
        assert _jacobian(ue, bs, lm).tobytes() == reference.landmark_jacobian(ue, bs, lm).tobytes()


def test_bounce_model_equals_measurement_model_to_the_bit():
    # both measure each leg with math.hypot; the draws include legs where
    # NumPy's hypot, the C library's, rounds differently, so a length
    # computed by it anywhere on either side fails here
    rng = np.random.default_rng(20)
    disagree = 0
    for _ in range(1000):
        bs, ue = random_state(rng)
        lm = rng.uniform(-25.0, 25.0, 2)
        assert estimator._bounce_model(ue, bs, lm)[0] == measurement_model(ue, bs, lm)
        for leg in (lm - bs.position, lm - ue.position):
            disagree += math.hypot(*leg) != float(np.hypot(*leg))
    assert disagree > 0

# --- the condition gates against an SVD oracle ------------------------------
#
# Both gates pass a symmetric A if and only if its LDL^T pivots are positive
# and the estimate trace(A) trace(A^-1) is below the limit L. The estimate
# lies in [kappa, n^2 kappa], kappa = cond(A) (see CONDITION_LIMIT), so the
# contract against the SVD's condition number cond is: every admitted
# system has cond < L (1 + delta), and every system with cond < L / n^2
# (1 - delta) is admitted. delta bounds the rounding of the estimate and of
# the oracle, to first order in the unit roundoff u, at kappa <= 1.01 L (an
# admitted system has kappa <= L / (1 - 27u kappa), below 1.01 L):
# - 3x3, trace(A) trace(adj A) / (a00 d1 d2). The trace rounds twice: 2u.
#   A principal 2x2 minor a_ii a_jj - a_ij^2 errs by at most
#   2u a_ii a_jj + u |minor| (A is PSD, so a_ij^2 <= a_ii a_jj); the three,
#   summed twice, err by at most 2u * sum a_ii a_jj + 3u trace(adj A) <=
#   6u l1^2 + 3u trace(adj A), and trace(adj A) >= 2 l1 l3: relatively
#   3u kappa + 3u. The pivots are the exact ones of A + E with
#   ||E||_2 <= n gamma_(n+1) ||A||_2 ~ 12u l1 (Higham, Accuracy and
#   Stability of Numerical Algorithms, Theorem 10.3 and the norm bound
#   after it), which moves each l_i by at most 12u l1, so their product by
#   at most 12u (1 + 2 kappa) relatively, and it rounds twice. The last
#   product and quotient round once each. In all: 27u kappa + 21u.
# - 2x2, (a + c)^2 / (a c - b^2): the square rounds to 3u, the determinant
#   errs by at most 2u a c + u det <= 2u l1^2 + u det, relatively
#   2u kappa + u, and the quotient rounds once: 2u kappa + 5u.
# - The oracle. LAPACK's singular values are those of A + F with
#   ||F||_2 <= p(n) u ||A||_2; its error bounds take p(n) as 1 (LAPACK
#   Users' Guide, section 4.9.1), and here it is n^2. So sigma_min moves by
#   n^2 u kappa relatively, sigma_max by n^2 u, and their ratio rounds:
#   9u kappa + 10u for 3x3, 4u kappa + 5u for 2x2.
# The sums, at kappa = 1.01 L, are 36.4u L and 6.1u L (the u terms add
# under 1e-6 of that at any limit from 1e6 up), so delta = 40u L and 8u L. The constants below are
# delta / L, so they serve any limit.
_U = np.finfo(float).eps / 2.0
_DELTA_3X3 = 40.0 * _U
_DELTA_2X2 = 8.0 * _U


def _svd_condition(a):
    """Condition numbers of a stack of matrices by LAPACK's SVD; inf where
    the smallest singular value is zero."""
    sv = np.linalg.svd(a, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sv[..., 0] / sv[..., -1]
    return np.where(np.isfinite(cond), cond, np.inf)


def _assert_gate_contract(ok, cond, limit, n, delta):
    """The gate contract on decisions ``ok`` of n x n systems whose SVD
    condition numbers are ``cond``, at ``limit``, with ``delta`` per unit
    of the limit."""
    ok, cond = np.asarray(ok), np.asarray(cond)
    rel = delta * limit
    assert np.all(cond[ok] < limit * (1.0 + rel)), (limit, cond[ok].max())
    assert np.all(ok[cond < limit / n ** 2 * (1.0 - rel)]), (limit, cond[~ok].min())


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


def _packed(a, b):
    """The nine planes of packed systems A x = b, A (K, 3, 3) and b (K, 3)."""
    return np.concatenate([a[:, [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]], b], axis=1).T


_unit_floats = st.floats(-1.0, 1.0)
_quaternions = st.lists(_unit_floats, min_size=4, max_size=4).filter(
    lambda q: sum(t * t for t in q) > 1e-2)
_psd_draw = st.tuples(
    st.sampled_from(["full", "full", "full", "rank2", "rank1", "zero"]),
    st.floats(0.0, 16.0),           # log10 of the condition number
    st.floats(0.0, 1.0),            # middle eigenvalue, as a share of log10 cond
    st.floats(-12.0, 3.0),          # log10 of the gain
    _quaternions,
    st.lists(_unit_floats, min_size=3, max_size=3).filter(
        lambda b: sum(t * t for t in b) > 1e-2),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_psd_draw, min_size=1, max_size=24))
# 100 I up to an off-diagonal of ~1e-148: a near-multiple of I, on which an
# eigenvalue formula that cubes the eigenvalue spread underflows
@example([("full", 0.0, 0.0, 2.0, [0.0, 0.0, 1.0, 7.4e-135], [0.0, 0.0, 1.0])])
def test_closed_form_gate_and_solve_match_lapack(draws):
    # The gate keeps its contract with LAPACK's condition number at the
    # limit and at a limit moved to 1e6, inside the drawn range of 1..1e16.
    a = np.array([_psd_matrix(*d[:5]) for d in draws])
    b = np.array([d[5] for d in draws]) * np.array([10.0 ** d[3] for d in draws])[:, None]
    cond = _svd_condition(a)
    for limit in (CONDITION_LIMIT, 1e6):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimator, "CONDITION_LIMIT", limit)
            x, ok = _solve_packed(_packed(a, b))
        x = x.T
        _assert_gate_contract(ok, cond, limit, 3, _DELTA_3X3)
        assert np.all(x[~ok] == 0.0)
        if ok.any():
            ref_x = np.linalg.solve(a[ok], b[ok][..., None])[..., 0]
            err = np.linalg.norm(x[ok] - ref_x, axis=1)
            assert np.all(err <= cond[ok] * 1e-13 * np.linalg.norm(ref_x, axis=1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(10.0, 14.0), st.floats(0.0, 1.0), st.floats(-12.0, 3.0),
                          _quaternions), min_size=1, max_size=24))
def test_cell_gate_keeps_its_contract_across_the_limit(draws):
    # Positive definite systems whose condition numbers straddle the limit,
    # from L / 100 to 100 L.
    a = np.array([_psd_matrix("full", *d) for d in draws])
    _, ok = _solve_packed(_packed(a, np.ones((len(a), 3))))
    _assert_gate_contract(ok, _svd_condition(a), CONDITION_LIMIT, 3, _DELTA_3X3)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(9.0, 15.0))
def test_landmark_gate_keeps_its_contract_across_the_limit(seed, log_cond):
    # A noiseless single bounce with angle sigmas large against the delay
    # sigma: the normal matrix at the fit is near the delay row's outer
    # product, and its condition number follows (sigma_ang d / (c
    # sigma_toa))^2 within ~0.3 decades, so the draws straddle the limit.
    rng = np.random.default_rng(seed)
    bs, ue = random_state(rng)
    lm = random_landmarks(rng, 1, bs, ue)[0]
    d = math.hypot(*(lm - bs.position)) + math.hypot(*(lm - ue.position))
    sigma = 10.0 ** (log_cond / 2.0) * 1e-9 * C / d
    path = PathMeasurement(*measurement_model(ue, bs, lm))
    with pytest.MonkeyPatch.context() as patch:
        seen = _gate_matrix_spy(patch)
        outcome = _estimate_or_error(landmark_refine, path, ue, bs,
                                     NoiseModel(1e-9, sigma, sigma))
    assert not isinstance(outcome, tuple) or outcome == _RANK_FAILURE
    (a, b, c), = seen
    cond = _svd_condition(np.array([[[a, b], [b, c]]]))
    _assert_gate_contract([outcome != _RANK_FAILURE], cond, CONDITION_LIMIT, 2, _DELTA_2X2)


def test_closed_form_kernel_keeps_batch_shape():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((2, 5, 4, 3))
    a = np.einsum("...ki,...kj->...ij", h, h)
    packed = np.concatenate([a[..., [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]],
                             rng.standard_normal((2, 5, 3))], axis=-1)
    x, ok = _solve_packed(np.moveaxis(packed, -1, 0))
    assert x.shape == (3, 2, 5) and ok.shape == (2, 5) and ok.all()
    flat_x, flat_ok = _solve_packed(packed.reshape(10, 9).T)
    assert np.array_equal(flat_x, x.reshape(3, 10)) and np.array_equal(flat_ok, ok.ravel())
