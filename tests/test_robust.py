import ast
import functools
import itertools
import math
import operator
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snapslam import (
    SPEED_OF_LIGHT,
    Hypothesis,
    NoFeasibleSolution,
    NoiseModel,
    PathMeasurement,
    Pose,
    RobustConfig,
    SimConfig,
    Snapshot,
    TooFewPaths,
    UeState,
    benchmark_solve,
    enumerate_combinations,
    generate_dataset,
    is_single_bounce_consistent,
    los_orientation,
    minimal_counts,
    mixed_solve,
    orientation_grid,
    read_scene,
    robust_solve,
    wrap_angle,
)
from snapslam import estimator, robust
from snapslam.estimator import (
    _build_terms,
    _condition_ok,
    _costs,
    _feasibility_mask,
    _ldl_solve,
    _outlier_penalty,
    _residuals,
    _row_costs,
    _solve_packed,
)
from snapslam.evaluation import MODES, solve_snapshot
from snapslam.geometry import _T_NU, _bounce
from snapslam.robust import _los_candidate, _search
import reference
from helpers import (
    CANCEL,
    add_multibounce,
    build_snapshot,
    expected_inliers,
    random_h0_snapshot,
    random_h1_snapshot,
    random_landmarks,
    random_state,
)


def test_minimal_counts():
    assert minimal_counts(Hypothesis.LOS) == (1, 1)
    assert minimal_counts(Hypothesis.NLOS) == (0, 4)


def test_enumerate_combinations_los():
    combos = enumerate_combinations(5, Hypothesis.LOS, los_candidate=2)
    assert list(combos) == [(0, 2), (1, 2), (2, 3), (2, 4)]
    with pytest.raises(TooFewPaths):
        enumerate_combinations(1, Hypothesis.LOS, los_candidate=0)


def test_enumerate_combinations_nlos():
    combos = enumerate_combinations(6, Hypothesis.NLOS)
    assert len(combos) == math.comb(6, 4)
    assert list(combos) == list(itertools.combinations(range(6), 4))
    with pytest.raises(TooFewPaths):
        enumerate_combinations(3, Hypothesis.NLOS)


def test_robust_config_validation():
    with pytest.raises(ValueError):
        RobustConfig(t_eps=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            RobustConfig(t_eps=bad)


def test_h0_clean_exact():
    for seed in range(8):
        snap = random_h0_snapshot(seed, n_single=3)
        t = snap.truth
        sol = robust_solve(snap, Hypothesis.LOS)
        assert np.hypot(*(sol.ue.position - t.ue.position)) < 1e-9
        assert abs(wrap_angle(sol.ue.orientation - t.ue.orientation)) < 1e-9
        assert abs(sol.ue.clock_bias - t.ue.clock_bias) < 1e-15
        assert sol.inliers == expected_inliers(snap)
        assert sol.outliers == ()
        assert sol.hypothesis is Hypothesis.LOS
        # one landmark per single-bounce inlier, none for the LoS path
        assert tuple(lm.source_path for lm in sol.landmarks) == sol.inliers[1:]


def test_h0_rejects_injected_outliers():
    for seed in range(8):
        rng = np.random.default_rng(1000 + seed)
        snap = add_multibounce(random_h0_snapshot(seed, n_single=3), rng, 2)
        t = snap.truth
        sol = robust_solve(snap, Hypothesis.LOS)
        assert np.hypot(*(sol.ue.position - t.ue.position)) < 1e-9
        assert sol.inliers == expected_inliers(snap)
        assert set(sol.outliers) == {4, 5}


def test_h1_on_grid_exact():
    for seed in range(6):
        snap = random_h1_snapshot(seed, n_single=4, on_grid=True)
        t = snap.truth
        sol = robust_solve(snap, Hypothesis.NLOS)
        assert np.hypot(*(sol.ue.position - t.ue.position)) < 1e-9
        assert sol.ue.orientation == pytest.approx(t.ue.orientation, abs=1e-12)
        assert abs(sol.ue.clock_bias - t.ue.clock_bias) < 1e-15
        assert sol.inliers == expected_inliers(snap)


def test_h1_off_grid_heading_within_half_degree():
    for seed in range(6):
        snap = random_h1_snapshot(100 + seed, n_single=5, on_grid=False)
        t = snap.truth
        sol = robust_solve(snap, Hypothesis.NLOS)
        assert abs(wrap_angle(sol.ue.orientation - t.ue.orientation)) <= \
            math.radians(0.5) + 1e-12


def test_h1_rejects_injected_outliers():
    for seed in range(6):
        rng = np.random.default_rng(2000 + seed)
        snap = add_multibounce(random_h1_snapshot(seed, n_single=4, on_grid=True),
                               rng, 2)
        sol = robust_solve(snap, Hypothesis.NLOS)
        assert sol.inliers == expected_inliers(snap)
        assert np.hypot(*(sol.ue.position - snap.truth.ue.position)) < 1e-9


def test_too_few_paths_raises():
    snap = random_h0_snapshot(3, n_single=3)
    one = Snapshot(id="x", bs=snap.bs, paths=snap.paths[:1], truth=None)
    with pytest.raises(NoFeasibleSolution):
        robust_solve(one, Hypothesis.LOS)
    three = Snapshot(id="y", bs=snap.bs, paths=snap.paths[:3], truth=None)
    with pytest.raises(NoFeasibleSolution):
        robust_solve(three, Hypothesis.NLOS)


def _costs_at(ue, paths, bs):
    """``_row_costs`` of one state over every path: (ungated, gated)."""
    terms = _build_terms(paths, bs, np.array([ue.orientation]))
    x = np.array([[ue.position[0]], [ue.position[1]], [SPEED_OF_LIGHT * ue.clock_bias]])
    ok = np.ones(1, dtype=bool)
    member = np.ones((len(paths), 1), dtype=bool)
    return (_row_costs(terms, x, ok, member)[0],
            _row_costs(terms, x, ok, member, RobustConfig.t_eps)[0])


def test_feasibility_check_at_truth_and_off():
    snap = random_h1_snapshot(7, n_single=4)
    t = snap.truth
    ungated, gated = _costs_at(t.ue, snap.paths, snap.bs)
    assert np.isfinite(gated) and gated == ungated
    # a clock bias larger than every delay makes all ranges negative
    bad_bias = max(p.toa for p in snap.paths) + 1e-6
    ungated, gated = _costs_at(UeState(t.ue.position, t.ue.orientation, bad_bias),
                               snap.paths, snap.bs)
    assert np.isfinite(ungated) and gated == np.inf


def test_feasibility_check_gamma_range():
    # reflect the user across the landmark: the arrival ray now points away,
    # putting the implied bounce split outside [0, 1]
    snap = random_h1_snapshot(11, n_single=4)
    t = snap.truth
    flipped = [PathMeasurement(p.toa, p.aod, wrap_angle(p.aoa + math.pi), p.gain)
               for p in snap.paths]
    ungated, gated = _costs_at(t.ue, flipped, snap.bs)
    assert np.isfinite(ungated) and gated == np.inf


def test_feasibility_exempts_any_inlier_whose_rays_nearly_cancel():
    # Anchor at the origin, user at (10, 0.5) with heading 0 and no clock
    # bias. Path 0 is the earliest, a single bounce off (5, 3). Path 1
    # arrives later, its rays nearly cancel and its bounce fraction is out
    # of range: it has no identifiable bounce point, so the gate does not
    # range-check it, whichever path arrives first.
    bs = Pose(np.zeros(2), 0.0)
    x = np.array([[10.0], [0.5], [0.0]])
    lm = np.array([5.0, 3.0])
    to_user = lm - x[:2, 0]
    bounce = PathMeasurement((math.hypot(*lm) + math.hypot(*to_user)) / SPEED_OF_LIGHT,
                             math.atan2(lm[1], lm[0]), math.atan2(to_user[1], to_user[0]),
                             1.0)
    near_los = PathMeasurement(12.0 / SPEED_OF_LIGHT, 0.01, math.pi, 1.0)
    ue = UeState(x[:2, 0], 0.0, 0.0)
    (*_, s0, d0, gam0), (*_, s1, d1, gam1) = (_bounce(ue, p, bs) for p in (bounce, near_los))
    assert bounce.toa < near_los.toa and d0 > 0.0 and d1 > 0.0
    assert 0.0 <= gam0 <= 1.0 and s0 > _T_NU
    assert gam1 > 1.0 and s1 <= _T_NU
    terms = _build_terms([bounce, near_los], bs, np.array([0.0]))
    r = _residuals(terms, x)
    both = np.ones((2, 1), dtype=bool)
    assert _feasibility_mask(terms, x, both, r).tolist() == [True]
    assert _feasibility_mask(terms, x, None, r).tolist() == [True]


def _edge_bounce(s, bs, ue):
    """A reflection point whose rays give ||u + v||^2 = 2 + 2 cos(a - b) = s
    at ``ue``: the departure ray a turns 0.3 rad off the line of sight, and
    the arrival ray b = a + acos(s / 2 - 1) meets it."""
    e = ue.position - bs.position
    a = math.atan2(e[1], e[0]) + 0.3
    b = a + math.acos(s / 2.0 - 1.0)
    u, v = np.array([math.cos(a), math.sin(a)]), np.array([math.cos(b), math.sin(b)])
    t, w = np.linalg.solve(np.column_stack([u, -v]), e)
    assert t > 0.0 and w > 0.0
    return bs.position + t * u


def test_every_near_parallel_reader_switches_at_the_one_threshold():
    # geometry._T_NU is the one near-parallel threshold. Just under it a
    # path's rays nearly cancel, and every reader takes its bounce fraction
    # as undefined; just over it, none does.
    rng = np.random.default_rng(5)
    bs, ue = random_state(rng, on_grid=True)
    others = random_landmarks(rng, 4, bs, ue)
    x = np.array([[ue.position[0]], [ue.position[1]], [SPEED_OF_LIGHT * ue.clock_bias]])
    for s in (_T_NU - 1e-6, _T_NU + 1e-6):
        near = s < _T_NU
        lm = _edge_bounce(s, bs, ue)
        snap = build_snapshot("edge", bs, ue, others + [lm], with_los=False)
        path = snap.paths[4]
        u, v, got_s, d, gam = _bounce(ue, path, bs)
        assert abs(got_s - s) < 1e-12 and 0.0 < gam < 1.0
        # the same rays 10 ns early have a bounce fraction below 0
        early = PathMeasurement(path.toa - 1e-8, path.aod, path.aoa, path.gain)
        assert _bounce(ue, early, bs)[4] < 0.0
        terms = _build_terms([early], bs, np.array([ue.orientation]))
        inlier = np.ones((1, 1), dtype=bool)
        assert _feasibility_mask(terms, x, inlier, _residuals(terms, x)).tolist() == [near]
        assert is_single_bounce_consistent(path, ue, bs) is not near
        # the initializer falls back to the fraction 0.5, else starts on the point
        half = 0.5 * ((bs.position + 0.5 * d * np.array(u))
                      + (ue.position + 0.5 * d * np.array(v)))
        assert np.hypot(*(half - lm)) > 1.0
        start = estimator._initial_landmark(path, ue, bs)
        assert np.allclose(start, half if near else lm, rtol=0.0, atol=1e-9)
        assert len(robust._refine_landmarks(snap.paths, [4], ue, bs, NoiseModel())) == 1 - near
        for sol in (robust_solve(snap, Hypothesis.NLOS), benchmark_solve(snap)):
            assert sol.inliers == (0, 1, 2, 3, 4)
            assert (4 in [m.source_path for m in sol.landmarks]) is not near


def test_nlos_keeps_a_los_path_that_a_close_bounce_arrives_ahead_of():
    # A single bounce 0.3 m from the user, on the anchor's side, arrives
    # 0.21 m after the direct path; with the LoS delay 1 ns late the bounce
    # is the earliest path. The LoS path's rays nearly cancel, so the gate
    # does not range-check its bounce fraction, and both stay inliers.
    rng = np.random.default_rng(2)
    bs, ue = random_state(rng)
    others = random_landmarks(rng, 4, bs, ue)
    e = (ue.position - bs.position) / math.hypot(*(ue.position - bs.position))
    near = ue.position + 0.3 * (-0.3 * e + math.sqrt(0.91) * np.array([-e[1], e[0]]))
    snap = build_snapshot("close", bs, ue, [near] + others)
    los = snap.paths[0]
    paths = (PathMeasurement(los.toa + 1e-9, los.aod, los.aoa, los.gain),) + snap.paths[1:]
    late = Snapshot(id="late", bs=bs, paths=paths, truth=snap.truth)
    assert snap.truth.labels[:2] == ("los", "single")
    assert _los_candidate(paths) == 1
    sol = robust_solve(late, Hypothesis.NLOS)
    assert {0, 1} <= set(sol.inliers)


def test_benchmark_treats_everything_as_inlier():
    rng = np.random.default_rng(55)
    snap = add_multibounce(random_h1_snapshot(5, n_single=4, on_grid=True), rng, 2)
    sol = benchmark_solve(snap)
    assert sol.inliers == tuple(range(6))
    assert sol.outliers == ()
    with pytest.raises(TooFewPaths, match="benchmark needs at least 4 paths, got 3"):
        benchmark_solve(Snapshot(id="z", bs=snap.bs, paths=snap.paths[:3],
                                 truth=None))


def test_benchmark_equals_robust_on_clean_h1_data():
    # no outliers, every cell keeps all paths: the two solvers reduce to the
    # same grid argmin and must agree to the bit
    snap = random_h1_snapshot(9, n_single=4, on_grid=True)
    a = robust_solve(snap, Hypothesis.NLOS)
    b = benchmark_solve(snap)
    assert tuple(a.ue.position) == tuple(b.ue.position)
    assert a.ue.orientation == b.ue.orientation
    assert a.ue.clock_bias == b.ue.clock_bias


def test_solver_is_deterministic():
    rng = np.random.default_rng(77)
    snap = add_multibounce(random_h0_snapshot(21, n_single=3), rng, 2)
    a = robust_solve(snap, Hypothesis.LOS)
    b = robust_solve(snap, Hypothesis.LOS)
    assert tuple(a.ue.position) == tuple(b.ue.position)
    assert a.ue.clock_bias == b.ue.clock_bias
    assert a.cost == b.cost
    assert a.inliers == b.inliers


def _map_cases():
    noise = NoiseModel()
    for seed in range(4):
        rng = np.random.default_rng(seed)
        yield add_multibounce(random_h0_snapshot(seed, n_single=3, noise=noise), rng, 2,
                              noise=noise)
        yield add_multibounce(random_h1_snapshot(seed, n_single=4, noise=noise), rng, 2,
                              noise=noise)
    scene = read_scene(Path(__file__).resolve().parents[1] / "demos" / "room.scene")
    yield from generate_dataset(scene, [np.array([3.0, 2.0])], SimConfig(max_bounces=2), seed=1)


def test_no_landmark_from_an_inlier_whose_rays_nearly_cancel():
    # one geometric map rule in every mode: a landmark's rays leave a bounce
    # point at the returned state, ||u + v||^2 > _T_NU; a LoS path taken as
    # an NLoS inlier (every h0 builder snapshot and the room under NLOS
    # here) is not mapped
    for snap in _map_cases():
        for mode in MODES:
            try:
                sol, _ = solve_snapshot(snap, mode)
            except NoFeasibleSolution:
                assert mode == "robust_h0" and not snap.truth.has_los
                continue
            for lm in sol.landmarks:
                assert lm.source_path in sol.inliers
                assert _bounce(sol.ue, snap.paths[lm.source_path], snap.bs)[2] > _T_NU
            if mode == "robust_h1" and snap.truth.has_los:
                assert snap.truth.labels[0] == "los" and 0 in sol.inliers, snap.id
                assert 0 not in [lm.source_path for lm in sol.landmarks], snap.id


@pytest.mark.xfail(strict=True, reason="known defect: the map rule keeps a landmark on the "
                   "estimated user; the per-path whitened test or the wall test is to drop it")
def test_no_landmark_lies_on_the_estimated_user():
    # room_mixed at seed 99, pos_081: the LoS branch maps path 1 0.11 mm from
    # the user it estimates, and that refinement does not converge. Its rays
    # do not cancel (||u + v||^2 = 3.89), so the map rule keeps it. When a
    # fix removes it, this test passes and the strict marker fails the run,
    # so the marker goes with the fix.
    scene = read_scene(Path(__file__).resolve().parents[1] / "demos" / "room.scene")
    snap = generate_dataset(scene, [[-7.694817601409837, 2.5673422140613438]] * 82,
                            SimConfig(max_bounces=2), seed=99)[-1]
    assert snap.id == "pos_081"
    sol, _ = mixed_solve(snap)
    assert all(math.hypot(*(lm.position - sol.ue.position)) >= 1e-3 for lm in sol.landmarks)


def test_solution_cost_includes_outlier_penalty():
    rng = np.random.default_rng(88)
    clean = random_h0_snapshot(31, n_single=3)
    dirty = add_multibounce(clean, rng, 1, excess_db=15.0)
    cfg = RobustConfig()
    sol_clean = robust_solve(clean, Hypothesis.LOS, cfg)
    sol_dirty = robust_solve(dirty, Hypothesis.LOS, cfg)
    penalty = dirty.paths[-1].gain * cfg.t_eps
    assert sol_dirty.cost == pytest.approx(sol_clean.cost + penalty, rel=1e-12)


_GAIN_SCALE_SNAP = add_multibounce(random_h0_snapshot(47, n_single=4, noise=NoiseModel()),
                                   np.random.default_rng(470), 1, noise=NoiseModel())


@functools.lru_cache(maxsize=None)
def _unscaled_solution(hypothesis):
    return robust_solve(_GAIN_SCALE_SNAP, hypothesis)


@settings(max_examples=20, deadline=None)
@given(k=st.integers(-900, 900))
@example(k=600)
@example(k=-600)
def test_robust_solve_is_exactly_gain_scale_invariant(k):
    # scaling every gain by 2**k scales each cost term exactly, so the
    # solution is the same to the bit and its cost is scaled exactly
    paths = tuple(PathMeasurement(p.toa, p.aod, p.aoa, math.ldexp(p.gain, k))
                  for p in _GAIN_SCALE_SNAP.paths)
    scaled = Snapshot(id="scaled", bs=_GAIN_SCALE_SNAP.bs, paths=paths, truth=None)
    for hypothesis in Hypothesis:
        want = _unscaled_solution(hypothesis)
        got = robust_solve(scaled, hypothesis)
        assert (got.inliers, got.outliers) == (want.inliers, want.outliers)
        assert np.array_equal(got.ue.position, want.ue.position)
        assert got.ue.orientation == want.ue.orientation
        assert got.ue.clock_bias == want.ue.clock_bias
        assert got.cost == math.ldexp(want.cost, k)


# Reordering the paths reorders every floating-point sum over them. Under LoS
# the heading comes in closed form from the same path, so only the position
# and bias move, by rounding. Under NLoS the heading polish stops where cost
# differences reach rounding level, so it may stop elsewhere: over 400 seeds
# the largest moves were 4e-8 rad, 2.3e-6 m and 1.4e-14 s.
_ORDER_TOLERANCE = {Hypothesis.LOS: (0.0, 1e-10, 1e-19),
                    Hypothesis.NLOS: (1e-6, 1e-5, 1e-13)}   # rad, m, s


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hypothesis=st.sampled_from(list(Hypothesis)), seed=st.integers(0, 10**6),
       data=st.data())
def test_robust_solve_does_not_depend_on_path_order(hypothesis, seed, data):
    noise = NoiseModel()
    snap = (random_h0_snapshot(seed, n_single=3, noise=noise) if hypothesis is Hypothesis.LOS
            else random_h1_snapshot(seed, n_single=4, noise=noise))
    snap = add_multibounce(snap, np.random.default_rng(seed), 1, noise=noise)
    order = data.draw(st.permutations(range(len(snap.paths))))
    permuted = Snapshot(id="permuted", bs=snap.bs, paths=[snap.paths[i] for i in order])
    try:
        want = robust_solve(snap, hypothesis)
    except NoFeasibleSolution:
        with pytest.raises(NoFeasibleSolution):
            robust_solve(permuted, hypothesis)
        return
    got = robust_solve(permuted, hypothesis)
    assert tuple(sorted(order[j] for j in got.inliers)) == want.inliers
    heading_tol, position_tol, bias_tol = _ORDER_TOLERANCE[hypothesis]
    assert abs(wrap_angle(got.ue.orientation - want.ue.orientation)) <= heading_tol
    assert np.hypot(*(got.ue.position - want.ue.position)) <= position_tol
    assert abs(got.ue.clock_bias - want.ue.clock_bias) <= bias_tol


# Moving the anchor and the user together by a rigid motion leaves every
# measurement unchanged, since the angles are local to each antenna. A turn
# by whole degrees maps the 1-degree heading grid onto itself up to
# rounding, so the solvers must return the same inliers and hypothesis and
# the moved state. Only rounding differs, but an ill-conditioned fit
# amplifies it. Largest moves over random draws of this test's inputs
# (1900 LoS, 900 NLoS, 1600 mixed): under LoS 1.8e-15 rad, 1.2e-6 m and
# 4e-15 s, the largest on two-inlier fits 50 to 1300 m off; under NLoS,
# where the heading polish stops at rounding level, 4.2e-8 rad, 7.3e-6 m
# and 1.3e-13 s.
_RIGID_TOLERANCE = {Hypothesis.LOS: (1e-12, 1e-5, 1e-13),
                    Hypothesis.NLOS: (1e-6, 1e-4, 1e-12)}   # rad, m, s


@pytest.mark.parametrize("solver", [Hypothesis.LOS, Hypothesis.NLOS, "mixed"],
                         ids=["los", "nlos", "mixed"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), degrees=st.integers(-180, 180),
       shift=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)))
def test_solvers_follow_a_rigid_motion_of_the_scene(solver, seed, degrees, shift):
    noise = NoiseModel()
    snap = (random_h1_snapshot(seed, n_single=4, noise=noise) if solver is Hypothesis.NLOS
            else random_h0_snapshot(seed, n_single=3, noise=noise))
    snap = add_multibounce(snap, np.random.default_rng(seed), 1, noise=noise)
    turn = math.radians(degrees)
    rot = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
    bs = Pose(rot @ snap.bs.position + shift, snap.bs.orientation + turn)
    moved = Snapshot(id="moved", bs=bs, paths=snap.paths)
    solve = ((lambda s: mixed_solve(s)[0]) if solver == "mixed"
             else functools.partial(robust_solve, hypothesis=solver))
    try:
        want = solve(snap)
    except NoFeasibleSolution:
        with pytest.raises(NoFeasibleSolution):
            solve(moved)
        return
    got = solve(moved)
    assert (got.inliers, got.hypothesis) == (want.inliers, want.hypothesis)
    heading_tol, position_tol, bias_tol = _RIGID_TOLERANCE[want.hypothesis]
    assert abs(wrap_angle(got.ue.orientation - want.ue.orientation - turn)) <= heading_tol
    assert np.hypot(*(got.ue.position - rot @ want.ue.position - shift)) <= position_tol
    assert abs(got.ue.clock_bias - want.ue.clock_bias) <= bias_tol


# --- batched search against a per-combination reference --------------------

def _reference_search(paths, bs, alphas, combos, los_index, config):
    """One subset at a time over every heading, every cell kept, one argmin.

    A cell with fewer inliers than a subset has paths costs +inf, as stage 1 of
    ``_search`` rules it out before the gate. Stage 1 partitions by the
    projected residual, read as 0 on an identity-projector row, so such a
    path is an inlier of every cell at its heading. Every system is summed
    path by path in ascending order, the inlier systems over every path
    weighted by its inlier mask, as ``_search`` sums them, so every cell's
    arithmetic is the same and the result must match to the bit; no cell
    is pruned.
    """
    terms = _build_terms(paths, bs, alphas, los_index)
    costs, states, masks = [], [], []
    for combo in combos:
        x0, ok0 = _solve_packed(functools.reduce(operator.add,
                                                 (terms.normal[:, i] for i in combo)))
        stage_1 = np.where(terms.nubar.any(axis=0), _costs(terms, x0), 0.0)
        inlier = (stage_1 <= config.t_eps) & ok0                    # (n, M)
        x1, ok1 = _solve_packed(functools.reduce(
            operator.add, (inlier[i] * terms.normal[:, i] for i in range(len(paths)))))
        cost = estimator._row_costs(terms, x1, ok0 & ok1, inlier, config.t_eps)
        costs.append(np.where(inlier.sum(axis=0) >= len(combo), cost, np.inf))
        states.append(x1)
        masks.append(inlier)
    table = np.stack(costs, axis=1)                 # (M, L), heading-major
    h, l = divmod(int(np.argmin(table)), len(combos))
    if not np.isfinite(table[h, l]):
        return None
    return float(table[h, l]), h, l, states[l][:, h], masks[l][:, h]


def _search_cases():
    noise = NoiseModel()
    for seed in range(4):
        rng = np.random.default_rng(500 + seed)
        snap = random_h0_snapshot(40 + seed, n_single=3 + seed, noise=noise)
        yield add_multibounce(snap, rng, seed % 2, noise=noise), Hypothesis.LOS
        snap = random_h1_snapshot(60 + seed, n_single=4 + seed % 3, noise=noise)
        yield add_multibounce(snap, rng, seed % 3, noise=noise), Hypothesis.NLOS


def _search_inputs(snap, hypothesis, config=RobustConfig()):
    paths, bs = list(snap.paths), snap.bs
    if hypothesis is Hypothesis.LOS:
        candidate = _los_candidate(paths)
        alphas = np.array([los_orientation(paths[candidate], bs)])
        combos = enumerate_combinations(len(paths), hypothesis, candidate)
        los_index = candidate
    else:
        alphas = orientation_grid()
        combos = enumerate_combinations(len(paths), hypothesis)
        los_index = None
    return paths, bs, alphas, combos, los_index, config


def _same_cell(got, want):
    if want is None:
        return got is None
    return (got is not None and got[:3] == want[:3]
            and np.array_equal(got[3], want[3]) and np.array_equal(got[4], want[4]))


@pytest.mark.parametrize("case", range(8))
def test_batched_search_matches_per_combination_reference(case):
    snap, hypothesis = list(_search_cases())[case]
    assert 4 <= len(snap.paths) <= 8
    args = _search_inputs(snap, hypothesis)
    got = _search(*args)
    want = _reference_search(*args)
    assert got is not None and want is not None
    assert got[1:3] == want[1:3]                    # heading index, subset index
    assert np.array_equal(got[4], want[4])          # inlier row
    assert got[0] == pytest.approx(want[0], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("case", range(8))
def test_batched_search_is_chunk_invariant(case, monkeypatch):
    snap, hypothesis = list(_search_cases())[case]
    args = _search_inputs(snap, hypothesis)
    default = _search(*args)
    results = []
    for budget in (1, 10 ** 9):                     # one subset per chunk, one chunk
        monkeypatch.setattr(robust, "_CHUNK_ROW_PATHS", budget)
        results.append(_search(*args))
    for got in results:
        assert got[:3] == default[:3]               # cost, heading, subset
        assert np.array_equal(got[3], default[3])   # state
        assert np.array_equal(got[4], default[4])   # inlier row


@pytest.mark.parametrize("t_eps", [1e-9, 1e-6, RobustConfig().t_eps, 1e6])
@pytest.mark.parametrize("case", range(8))
def test_pruned_search_equals_every_cell_reference(case, t_eps, monkeypatch):
    # At 1e-9 no NLoS cell keeps four inliers (at 1e-6 one 4-subset of case 3
    # still does); a LoS minimal subset fits its own two paths exactly, so
    # its cells always pass the count test. At 1e6 every path is an inlier
    # of every cell, no cell pays a penalty, and every cell is gated.
    snap, hypothesis = list(_search_cases())[case]
    args = _search_inputs(snap, hypothesis, RobustConfig(t_eps=t_eps))
    want = _reference_search(*args)
    gated_rows = []

    def counted(terms, x, *rest):
        gated_rows.append(x.shape[-1])
        return _row_costs(terms, x, *rest)

    monkeypatch.setattr(estimator, "_row_costs", counted)
    cells = len(args[2]) * len(args[3])
    for budget in (1, robust._CHUNK_ROW_PATHS, 10 ** 9):
        monkeypatch.setattr(robust, "_CHUNK_ROW_PATHS", budget)
        gated_rows.clear()
        assert _same_cell(_search(*args), want)
        assert sum(gated_rows) <= cells
        if t_eps == 1e-9 and hypothesis is Hypothesis.NLOS:
            assert want is None and sum(gated_rows) == 0
        if t_eps == 1e6:
            assert sum(gated_rows) >= cells


@pytest.mark.parametrize("t_eps", [RobustConfig().t_eps, 10.0])
@pytest.mark.parametrize("case", range(8))
def test_pruned_search_keeps_cells_whose_penalty_ties_the_best(case, t_eps, monkeypatch):
    # Scored as if every inlier fit exactly, a cell's gated cost is its
    # outlier penalty, and cells with the same outlier set tie exactly. A
    # cell whose penalty equals the best so far can still win on an earlier
    # heading, so the penalty test must not prune it (case 5 at 10.0 has
    # such cells in later subsets).
    def penalty_only(terms, x, ok, member, gate):
        cost = _outlier_penalty(terms.const.eta, member, gate)
        return np.where(ok, cost, np.inf)

    monkeypatch.setattr(estimator, "_row_costs", penalty_only)
    args = _search_inputs(*list(_search_cases())[case], RobustConfig(t_eps=t_eps))
    want = _reference_search(*args)
    for budget in (1, robust._CHUNK_ROW_PATHS, 10 ** 9):
        monkeypatch.setattr(robust, "_CHUNK_ROW_PATHS", budget)
        assert _same_cell(_search(*args), want)


@pytest.mark.parametrize("t_eps", [1e-9, RobustConfig().t_eps])
def test_search_passes_a_bounce_whose_rays_cancel_at_a_grid_heading(t_eps, monkeypatch):
    # Four noiseless single bounces seen at user heading 0.0, grid index 180,
    # from an anchor facing heading 0, plus a bounce with the CANCEL angles:
    # its rays cancel exactly at that heading, so its projector is the
    # identity there and stage 1 passes it in every cell of that heading,
    # while stage 2 costs both of its residual components.
    rng = np.random.default_rng(0)
    bs, ue = random_state(rng)
    bs, ue = Pose(bs.position, 0.0), UeState(ue.position, 0.0, ue.clock_bias)
    snap = build_snapshot("cancel", bs, ue, random_landmarks(rng, 4, bs, ue), with_los=False)
    paths = snap.paths + (PathMeasurement(5e-8, *CANCEL, 0.5),)
    args = _search_inputs(Snapshot(id="cancel", bs=bs, paths=paths), Hypothesis.NLOS,
                          RobustConfig(t_eps=t_eps))
    assert orientation_grid()[180] == 0.0
    assert _build_terms(*args[:3]).nu_sq[-1, 180] == 0.0
    want = _reference_search(*args)
    if t_eps == 1e-9:
        # only the four exact bounces and the cancelling path pass: the
        # winner is at heading 180, with the cancelling path an inlier
        assert want[1] == 180 and want[4].all()
    for budget in (1, robust._CHUNK_ROW_PATHS, 10 ** 9):
        monkeypatch.setattr(robust, "_CHUNK_ROW_PATHS", budget)
        assert _same_cell(_search(*args), want)


def test_batched_search_breaks_exact_ties_heading_first(monkeypatch):
    snap, hypothesis = list(_search_cases())[3]     # NLoS, 6 paths, 15 subsets
    # gains scaled down so that no cell's outlier penalty reaches a scripted
    # cost and the penalty test prunes nothing; the cells are otherwise the same
    paths = [PathMeasurement(p.toa, p.aod, p.aoa, math.ldexp(p.gain, -16))
             for p in snap.paths]
    args = _search_inputs(Snapshot(id="tie", bs=snap.bs, paths=paths, truth=None),
                          hypothesis)
    paths, bs, alphas, combos, los_index, config = args
    terms = _build_terms(paths, bs, alphas, los_index)
    assert _outlier_penalty(terms.const.eta, 0.0, config.t_eps) < 1.0
    # A cell's gated cost depends on its heading and its inlier set alone,
    # so the script is keyed by those: the heading's arrival rays and the
    # inlier row of the cell's minimal-subset solve. Subsets 0-2 select
    # other inlier rows than subset 3 at heading 2.
    scripted = {}
    for subset, heading in ((6, 2), (0, 7), (3, 2), (12, 336)):
        x0, ok0 = _solve_packed(terms.normal[:, list(combos[subset])].sum(axis=1)[:, heading])
        inlier = (_costs(terms, x0[:, None])[:, heading] <= config.t_eps) & ok0
        assert inlier.sum() >= len(combos[subset])  # survives the count test
        scripted[terms.v[..., heading].tobytes(), inlier.tobytes()] = 1.0
    assert len(scripted) == 4

    def scripted_cost(terms, x, ok, member, gate):
        return np.array([scripted.get((v.tobytes(), row.tobytes()), 5.0)
                         for v, row in zip(np.moveaxis(terms.v, -1, 0), member.T)])

    monkeypatch.setattr(estimator, "_row_costs", scripted_cost)
    for budget in (1, robust._CHUNK_ROW_PATHS, 10 ** 9):
        monkeypatch.setattr(robust, "_CHUNK_ROW_PATHS", budget)
        assert _search(*args)[:3] == (1.0, 2, 3)    # smallest heading, then subset


def _bits(cell):
    """A search result with its arrays as bytes, for a bit-for-bit comparison."""
    return None if cell is None else cell[:3] + (cell[3].tobytes(), cell[4].tobytes())


def _flushes(case):
    """What stage 1 hands to stage 2 on a real NLoS search: the arguments
    (terms, waiting, gate, block, best) of every ``_evaluate_block`` call."""
    calls = []
    evaluate_block = robust._evaluate_block

    def recorded(*args):
        calls.append(args)
        return evaluate_block(*args)

    snap, hypothesis = list(_search_cases())[case]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(robust, "_evaluate_block", recorded)
        assert hypothesis is Hypothesis.NLOS and _search(*_search_inputs(snap, hypothesis))
    return calls


@pytest.mark.parametrize("case", [3, 5])
def test_block_winner_does_not_depend_on_the_order_of_its_cells(case):
    # Record the flushes of a real NLoS search (6 and 8 paths: several
    # chunks wait for each block), then replay every block with its entries
    # and their rows reversed, against the best cell the search held and
    # against none, in its own block size and in blocks of 7.
    calls = _flushes(case)
    evaluate_block = robust._evaluate_block
    assert any(len(waiting) > 1 for _, waiting, _, _, _ in calls)
    for terms, waiting, gate, block, best in calls:
        backwards = [tuple(part[..., ::-1] for part in entry) for entry in reversed(waiting)]
        for start, size in itertools.product((best, None), (block, 7)):
            want = evaluate_block(terms, waiting, gate, size, start)
            assert want is not None
            assert _bits(evaluate_block(terms, backwards, gate, size, start)) == _bits(want)


@pytest.mark.parametrize("case", [3, 5])
def test_block_drops_a_cell_whose_minimal_subset_system_is_singular(case):
    # The flush gates each waiting cell's minimal-subset system and drops
    # the cells that fail before scoring them. Give the block winner the
    # packed system of one bounce path, which has rank one: the block must
    # then return what it returns on its entries without that cell.
    for terms, waiting, gate, block, best in _flushes(case):
        cell = robust._evaluate_block(terms, waiting, gate, block, None)[1:3]
        e, k = next((e, int(k)) for e, (h, l, *_) in enumerate(waiting)
                    for k in np.flatnonzero((h == cell[0]) & (l == cell[1])))
        system = terms.normal[:, 0, cell[0]]
        _, d1, d2 = _ldl_solve(system)
        assert not _condition_ok(system, d1, d2)
        h, l, member, a, e1, e2 = (part.copy() for part in waiting[e])
        a[:, k], e1[k], e2[k] = system[:6], d1, d2
        singular = waiting[:e] + [(h, l, member, a, e1, e2)] + waiting[e + 1:]
        without = [tuple(np.delete(part, k, axis=-1) for part in entry) if i == e else entry
                   for i, entry in enumerate(waiting)]
        for start, size in itertools.product((best, None), (block, 7)):
            want = robust._evaluate_block(terms, without, gate, size, start)
            got = robust._evaluate_block(terms, singular, gate, size, start)
            assert _bits(got) == _bits(want)
            assert got is None or got[1:3] != cell


def test_block_winner_breaks_exact_ties_by_heading_then_subset(monkeypatch):
    # Every cell costs the same; the entries list the headings backwards and
    # a block holds two cells, so the least (heading, subset) is found last,
    # behind another cell of its block and heading.
    # A cell's state is its (heading, subset, 0) and its member mask its
    # subset; its minimal-subset system is the identity, which the flush's
    # condition gate passes.
    def level(terms, rows, member, gate):
        return np.array([rows, member[0], 0 * rows], dtype=float), np.ones(len(rows))

    monkeypatch.setattr(robust, "_cell_costs", level)

    def entry(headings, subsets):
        k = len(headings)
        return (np.array(headings), np.array(subsets), np.array(subsets)[None, :],
                np.repeat([[1.0], [0.0], [0.0], [1.0], [0.0], [1.0]], k, axis=1),
                np.ones(k), np.ones(k))

    waiting = [entry([5, 3, 3], [0, 2, 1]), entry([4, 2, 2], [0, 9, 4])]
    for best in (None, (1.0, 2, 5), (2.0, 0, 0)):
        if best is not None:
            best = best + (np.zeros(3), np.zeros(1))
        got = robust._evaluate_block(None, waiting, None, 2, best)
        assert got[:3] == (1.0, 2, 4)
        assert np.array_equal(got[3], [2.0, 4.0, 0.0]) and np.array_equal(got[4], [4])
    held = (1.0, 1, 99, np.zeros(3), np.zeros(1))
    assert robust._evaluate_block(None, waiting, None, 2, held) is held


# --- the deferred condition gate ----------------------------------------------

def _estimate(terms, combo):
    """The condition gate's estimate of the minimal-subset systems of
    ``combo`` at every heading, summed as ``_reference_search`` sums them."""
    system = functools.reduce(operator.add, (terms.normal[:, i] for i in combo))
    return reference.condition_estimate(system.T)


def test_search_gates_the_minimal_subset_solve_of_every_live_cell(monkeypatch):
    # Case 0 (LoS, 6 paths) at t_eps = 1e6: every cell is live and every path
    # is an inlier of it. The limit is the least condition estimate of any
    # minimal-subset system, so every one of them fails and no cell may win;
    # some inlier systems have a lower estimate than that, so a search that
    # gated only the inlier systems would still return a cell.
    args = _search_inputs(*list(_search_cases())[0], RobustConfig(t_eps=1e6))
    paths, bs, alphas, combos, los_index, _ = args
    terms = _build_terms(paths, bs, alphas, los_index)
    limit = min(_estimate(terms, c).min() for c in combos)
    assert (_estimate(terms, range(len(paths))) < limit).any()
    monkeypatch.setattr(estimator, "CONDITION_LIMIT", limit)
    assert _reference_search(*args) is None
    for budget in (1, robust._CHUNK_ROW_PATHS):
        monkeypatch.setattr(robust, "_CHUNK_ROW_PATHS", budget)
        assert _search(*args) is None


@pytest.mark.parametrize("case", [2, 3, 5, 6, 7])
def test_search_matches_reference_when_the_gate_fails_some_cells(case, monkeypatch):
    # The limit is the condition estimate of the unpatched winner's
    # minimal-subset system: that cell and every one with a higher estimate
    # fail, the others pass, and another cell wins. In cases 2 and 3 the
    # winner's inlier system is better conditioned than its minimal-subset
    # system, so only the minimal-subset gate moves the answer there.
    args = _search_inputs(*list(_search_cases())[case])
    paths, bs, alphas, combos, los_index, _ = args
    _, h, l, _, _ = _reference_search(*args)
    terms = _build_terms(paths, bs, alphas, los_index)
    monkeypatch.setattr(estimator, "CONDITION_LIMIT", _estimate(terms, combos[l])[h])
    want = _reference_search(*args)
    assert want is not None and want[1:3] != (h, l)
    for budget in (1, robust._CHUNK_ROW_PATHS, 10 ** 9):
        monkeypatch.setattr(robust, "_CHUNK_ROW_PATHS", budget)
        assert _same_cell(_search(*args), want)


def test_search_gate_rejects_the_subsets_of_three_nearly_coincident_bounces(monkeypatch):
    # Three of five noiseless single bounces come off landmarks 3 um apart:
    # at every heading they give one constraint, so the minimal-subset
    # system of a subset holding all three is singular and the flush's
    # condition gate must reject its cells, unscripted, at every chunk budget.
    rng = np.random.default_rng(0)
    bs, ue = random_state(rng, on_grid=True)
    landmarks = random_landmarks(rng, 3, bs, ue)
    landmarks += [landmarks[0] + [3e-6, 0.0], landmarks[0] + [0.0, 3e-6]]
    snap = build_snapshot("close", bs, ue, landmarks, with_los=False)
    args = _search_inputs(snap, Hypothesis.NLOS)
    want = _reference_search(*args)
    assert want is not None
    rejected = []

    def counted(a, d1, d2):
        ok = _condition_ok(a, d1, d2)
        rejected.append(int(ok.size - ok.sum()))
        return ok

    monkeypatch.setattr(robust, "_condition_ok", counted)
    for budget in (1, robust._CHUNK_ROW_PATHS, 10 ** 9):
        monkeypatch.setattr(robust, "_CHUNK_ROW_PATHS", budget)
        rejected.clear()
        assert _bits(_search(*args)) == _bits(want)
        assert sum(rejected) >= 1


# --- working memory ------------------------------------------------------------

_SEARCH_BYTES_PER_ROW_PATH = 80     # the budget the _CHUNK_ROW_PATHS docstring states


def _search_peaks(t_eps, budgets):
    """(budget, peak, bound) of one traced NLoS search per chunk budget.

    The search runs on a 13-path room snapshot: 715 subsets by 361 headings.
    ``peak`` is the tracemalloc peak less the terms the search holds, in
    bytes; ``bound`` is the stated budget for it. It sets
    ``robust._CHUNK_ROW_PATHS``, so it is meant for a fresh interpreter.
    """
    scene = read_scene(Path(__file__).resolve().parents[1] / "demos" / "room.scene")
    (snap,) = generate_dataset(scene, [np.array([3.0, 2.0])], SimConfig(max_bounces=2), seed=1)
    assert len(snap.paths) == 13
    args = _search_inputs(snap, Hypothesis.NLOS, RobustConfig(t_eps=t_eps))
    terms = _build_terms(*args[:3])
    held = sum(a.nbytes for a in terms.const + terms[1:])
    subset = len(args[2]) * len(snap.paths)
    out = []
    for budget in budgets:
        robust._CHUNK_ROW_PATHS = budget
        tracemalloc.start()
        try:
            _search(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out.append((budget, peak - held, _SEARCH_BYTES_PER_ROW_PATH * max(budget, subset)))
    return out


@pytest.mark.parametrize("t_eps", [RobustConfig().t_eps, 1e6])
def test_search_memory_stays_within_the_chunk_budget(t_eps):
    # At 1e6 every cell survives to the inlier stage, which must still take
    # its cells in bounded blocks. A chunk holds one subset at least, so under
    # a budget below 361 x 13 row-paths the bound is one subset's. That is a
    # stage-1 matter, checked at the default t_eps; at 1e6 the small budget
    # would only split stage 2 into ~14 000 blocks.
    # The searches run in a fresh interpreter, so the reading does not
    # depend on which tests ran before.
    budgets = (robust._CHUNK_ROW_PATHS,) + ((2048,) if t_eps < 1.0 else ())
    tests = Path(__file__).resolve().parent
    src = str(Path(robust.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, str(tests), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c",
         f"import test_robust; print(test_robust._search_peaks({t_eps!r}, {budgets!r}))"],
        capture_output=True, text=True, timeout=300, env=env, cwd=tests)
    assert run.returncode == 0, run.stderr
    for budget, peak, bound in ast.literal_eval(run.stdout.splitlines()[-1]):
        assert peak <= bound, (budget, peak, bound)
