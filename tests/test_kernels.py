"""The planar solver kernels against their interleaved references, bit for bit.

``tests/reference.py`` keeps the kernels as they were when the per-path
terms were interleaved (M headings, n paths, component). The planar kernels
do the same arithmetic on another layout, so every value must come out with
the same bits: the same numbers, the same signs of zero and the same NaNs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snapslam import (
    SPEED_OF_LIGHT,
    Hypothesis,
    NoiseModel,
    PathMeasurement,
    Pose,
    RobustConfig,
    enumerate_combinations,
    orientation_grid,
    robust_solve,
)
from snapslam import estimator, robust
from snapslam.estimator import (
    _build_terms,
    _cell_costs,
    _costs,
    _feasibility_mask,
    _frozen_set,
    _heading_costs,
    _ldl_solve,
    _line_costs,
    _line_terms,
    _outlier_penalty,
    _residuals,
    _solve_packed,
    _take_rows,
)
import reference
from helpers import CANCEL, add_multibounce, random_h1_snapshot


def _same(got, want):
    """Equal values, NaNs in the same places and zeros of the same sign."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got) | np.isnan(got),
                               np.signbit(want) | np.isnan(want)))


def _interleaved(planes):
    """A planar (component, n, M) array as an interleaved (M, n, component) one."""
    return np.transpose(planes, (2, 1, 0))


_angle = st.floats(-math.pi, math.pi)
_path = st.tuples(st.floats(1e-9, 3e-7), _angle, _angle, st.floats(1e-6, 1.0))
_scene = st.fixed_dictionaries({
    "paths": st.lists(_path, min_size=1, max_size=13),
    # every gain scaled by 2**scale: the kernels must be exact at any gain scale
    "scale": st.sampled_from([-600, 0, 600]),
    "bs": st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), _angle),
    "alphas": st.lists(_angle, min_size=1, max_size=12),
    "los": st.integers(-1, 11),
})


def _inputs(scene):
    paths = [PathMeasurement(toa, aod, aoa, math.ldexp(gain, scene["scale"]))
             for toa, aod, aoa, gain in scene["paths"]]
    x, y, heading = scene["bs"]
    los = scene["los"] if 0 <= scene["los"] < len(paths) else None
    return paths, Pose(np.array([x, y]), heading), np.array(scene["alphas"]), los


@settings(max_examples=200, deadline=None)
@given(_scene)
def test_planar_terms_match_interleaved(scene):
    paths, bs, alphas, los = _inputs(scene)
    got = _build_terms(paths, bs, alphas, los)
    want = reference.build_terms(paths, bs, alphas, los)
    assert _same(got.const.ctau[:, 0], SPEED_OF_LIGHT * want.tau)
    assert _same(got.const.eta, want.eta)
    assert _same(got.nu_sq.T, want.nu_sq)
    for name in ("v", "nu", "nubar", "mu", "normal"):
        assert _same(_interleaved(getattr(got, name)), getattr(want, name)), name
    if los is not None:
        assert not got.nubar[:, los].any()          # the LoS path's projector is I


@settings(max_examples=100, deadline=None)
@given(_scene, st.data())
def test_terms_keep_the_heading_on_the_last_axis_of_every_plane(scene, data):
    # Every field after ``const`` is a per-heading plane, heading last, so
    # one expression gathers heading rows (``_take_rows``), and it gives
    # the planes built directly at those headings.
    paths, bs, alphas, los = _inputs(scene)
    terms = _build_terms(paths, bs, alphas, los)
    one = _build_terms(paths, bs, alphas[:1], los)
    assert terms._fields[0] == "const" and isinstance(terms.const, estimator._PathConstants)
    for name, plane, single in zip(terms._fields[1:], terms[1:], one[1:]):
        assert plane.shape == single.shape[:-1] + (len(alphas),), name
        assert plane.shape[-2] == len(paths), name
    rows = np.array(data.draw(st.lists(st.integers(0, len(alphas) - 1), min_size=1,
                                       max_size=20)))
    taken = _take_rows(terms, rows)
    built = _build_terms(paths, bs, alphas[rows], los)
    assert taken.const is terms.const
    for name, got, want in zip(terms._fields[1:], taken[1:], built[1:]):
        assert _same(got, want), name


_value = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, math.inf, -math.inf,
                                                           math.nan]))


@settings(max_examples=200, deadline=None)
@given(_scene, st.data())
def test_planar_cost_kernels_match_interleaved(scene, data):
    paths, bs, alphas, los = _inputs(scene)
    m, n = len(alphas), len(paths)
    planar = _build_terms(paths, bs, alphas, los)
    inter = reference.build_terms(paths, bs, alphas, los)
    # a path whose rays cancel at one heading: no projector, no bounce fraction
    cancel = data.draw(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)) | st.none())
    if cancel is not None:
        h, i = cancel
        planar.nu[:, i, h] = planar.nubar[:, i, h] = planar.nu_sq[i, h] = 0.0
        inter.nu[h, i] = inter.nubar[h, i] = inter.nu_sq[h, i] = 0.0
    # one state per heading near the anchor, some of them not finite
    x = np.array(data.draw(st.lists(st.tuples(_value, _value, _value), min_size=m,
                                    max_size=m)))
    member = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                         min_size=m, max_size=m)))
    with np.errstate(all="ignore"):
        r, want_r = _residuals(planar, x.T), reference.residuals(inter, x)
        assert _same(_interleaved(r), want_r)
        assert _same(_costs(planar, x.T).T, reference.costs(inter, x))
        assert _same(_costs(planar, x.T, r).T, reference.costs(inter, x, want_r))
        got = _feasibility_mask(planar, x.T, member.T, r)
        want = reference.feasibility_mask(inter, x, member, want_r)
    assert np.array_equal(got, want)


def _systems(scene, data):
    """Packed systems (K, 9): sums of path rows, some entries not finite."""
    paths, bs, alphas, los = _inputs(scene)
    normal = reference.build_terms(paths, bs, alphas, los).normal     # (M, n, 9)
    member = np.array(data.draw(st.lists(st.booleans(), min_size=len(paths),
                                         max_size=len(paths))))
    s = normal[:, member].sum(axis=1)
    for k, c, value in data.draw(st.lists(st.tuples(st.integers(0, len(s) - 1),
                                                    st.integers(0, 8), _value), max_size=3)):
        s[k, c] = value
    return s


@settings(max_examples=200, deadline=None)
@given(_scene, st.data())
def test_planar_solve_matches_interleaved(scene, data):
    s = _systems(scene, data)
    want_x, want_ok = reference.solve_packed(s)
    for planes in (s.T, np.ascontiguousarray(s.T)):       # strided and contiguous planes
        x, ok = _solve_packed(planes)
        assert np.array_equal(ok, want_ok)
        assert _same(x.T, want_x)


@settings(max_examples=100, deadline=None)
@given(_scene, st.data())
def test_cell_costs_match_interleaved(scene, data):
    # path-major member masks as the search gathers them, and one mask
    # broadcast over every heading as a frozen-set heading scan passes it
    paths, bs, alphas, los = _inputs(scene)
    m, n = len(alphas), len(paths)
    planar = _build_terms(paths, bs, alphas, los)
    inter = reference.build_terms(paths, bs, alphas, los)
    rows = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=20)))
    member = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                         min_size=len(rows), max_size=len(rows))))
    gate = data.draw(st.none() | st.just(0.1))
    with np.errstate(all="ignore"):
        x, cost = _cell_costs(planar, rows, member.T, gate)
        want_x, want_cost = reference.cell_costs(inter, rows, member, gate)
        assert _same(x.T, want_x) and _same(cost, want_cost)
        x, cost = _cell_costs(planar, None, np.broadcast_to(member[0][:, None], (n, m)), gate)
        want_x, want_cost = reference.cell_costs(inter, np.arange(m),
                                                 np.broadcast_to(member[0], (m, n)), gate)
    assert _same(x.T, want_x) and _same(cost, want_cost)


@pytest.mark.parametrize("n", [8, 9, 13])
def test_cell_sums_add_the_paths_in_ascending_order(n, monkeypatch):
    # NumPy sums an axis pairwise from 8 terms up when that axis is the
    # innermost of its loop, as the path axis of a single cell is. Gains
    # spread over six decades make pairwise and sequential sums differ.
    # Batches of up to 14 cells accumulate their systems, larger ones loop
    # over the paths; up to 128 cells accumulate their costs and penalties.
    rng = np.random.default_rng(n)
    snap = random_h1_snapshot(n, n_single=n)
    paths = [PathMeasurement(p.toa, p.aod, p.aoa, p.gain * 10.0 ** rng.uniform(-6.0, 0.0))
             for p in snap.paths]
    planar = _build_terms(paths, snap.bs, orientation_grid())
    inter = reference.build_terms(paths, snap.bs, orientation_grid())
    systems = []

    def solve(s):
        systems.append(s)
        return _solve_packed(s)

    monkeypatch.setattr(estimator, "_solve_packed", solve)
    for k in (1, 2, 7, 20, 150):
        rows = rng.integers(0, 361, k)
        member = rng.random((n, k)) < 0.9
        for gate in (None, 1e-3):
            systems.clear()
            with np.errstate(all="ignore"):
                x, cost = _cell_costs(planar, rows, member, gate)
                want_x, want_cost = reference.cell_costs(inter, rows, member.T, gate)
            want_s = reference.path_order_sum(member[i] * planar.normal[:, i, rows]
                                              for i in range(n))
            assert _same(systems[0], want_s), (k, gate)
            assert _same(x.T, want_x) and _same(cost, want_cost), (k, gate)
        masks = [member, ~member] + list(rng.random((20, n, 1)) < 0.5)   # and single cells
        for mask in masks:
            penalty = reference.path_order_sum((1.0 - mask[i]) * planar.const.eta[i]
                                               for i in range(n))
            assert _same(_outlier_penalty(planar.const.eta, mask, 1e-3), penalty * 1e-3), k


_U = 2.0 ** -53     # unit roundoff of float64


@settings(max_examples=200, deadline=None)
@given(_scene, st.data())
def test_line_costs_decide_as_costs(scene, data):
    # The stage-1 statistic of the search against _costs. States solve random
    # 2- to 4-subsets, so some paths sit near any threshold, and some are
    # drawn outright. Some scenes have identity-projector rows, the LoS
    # candidate or a bounce whose rays cancel at heading 0: q = 0 there, so
    # the statistic is exactly 0 at a finite state and NaN at any other,
    # while _costs counts both components. Such a row passes stage 1 and
    # stage 2 costs it.
    #
    # Elsewhere both values are the square of one residual rho = q . r of
    # the stored terms. Write S = |x0| + |x1| + |x2| + |mu0| + |mu1| +
    # |p_bs,0| + |p_bs,1| + c tau (|v| and |nubar| are 1 to rounding). The
    # linear form shifts the state by the anchor and c tau, multiplies by
    # q0, q1 and c_q (rounded twice) and adds: error <= 8 u S; it takes mu
    # as p_bs - c tau v, which the stored mu rounds: <= 2 u S. _costs rounds
    # r (3 u S per component), then the projection and its dot product:
    # <= 23 u S on |P r|. A stored nubar is a unit vector to ~4 u, which
    # moves (q . r)^2 against |P r|^2 by that relative amount: <= 3 u S on
    # the root. The test's own square roots add <= 2 u S. So
    # |sqrt(line) - sqrt(costs)| <= 38 u S; delta = 40 u S. Decisions may
    # differ only where the threshold's root lies within delta of the root
    # of the _costs value.
    paths, bs, alphas, los = _inputs(scene)
    cancel = data.draw(st.booleans())
    if cancel:
        k = data.draw(st.integers(0, len(paths)))
        paths.insert(k, PathMeasurement(5e-8, *CANCEL, 0.5))
        bs = Pose(bs.position, 0.0)
        j = data.draw(st.integers(0, len(alphas) - 1))
        alphas[j] = 0.0
    terms = _build_terms(paths, bs, alphas, los)
    assert not cancel or terms.nu_sq[k, j] == 0.0
    n, m = terms.nu_sq.shape
    subsets = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=4),
                                 min_size=1, max_size=6))
    with np.errstate(all="ignore"):
        x = np.stack([_ldl_solve(sum(terms.normal[:, i] for i in subset))[0]
                      for subset in subsets], axis=1)                       # (3, L, M)
    drawn = data.draw(st.lists(st.tuples(_value, _value, _value), min_size=m, max_size=m))
    x = np.concatenate([x, np.array(drawn).T[:, None]], axis=1)
    spread = terms._replace(v=terms.v[:, :, None], nubar=terms.nubar[:, :, None],
                            mu=terms.mu[:, :, None])
    with np.errstate(all="ignore"):
        want = _costs(spread, x)                                            # (n, L, M)
        got = _line_costs(terms, _line_terms(terms), x)
        size = (np.abs(x).sum(axis=0) + np.abs(terms.mu).sum(axis=0)[:, None]
                + (np.abs(bs.position).sum() + terms.const.ctau)[:, None])
    identity = np.broadcast_to(((terms.nu_sq == 0.0) | terms.const.los)[:, None], got.shape)
    state = np.broadcast_to(np.isfinite(x).all(axis=0), got.shape)
    assert (got[identity & state] == 0.0).all()
    assert np.isnan(got[identity & ~state]).all()
    assert not np.isfinite(got[~state]).any()          # fails every threshold
    # The bound needs a finite _costs value. A singular system can give a
    # finite state so large (|x2| ~ 1e171 from a LoS path and a bounce
    # whose rays are parallel) that _costs squares a rounding error past
    # the float range, while the linear form, with c_q exactly 0, reads
    # ~0. No such state passes the condition gate of stage 2.
    finite = np.isfinite(want) & ~identity
    delta = 40.0 * _U * size
    assert (np.abs(np.sqrt(got[finite]) - np.sqrt(want[finite])) <= delta[finite]).all()
    values = want[finite & (want > 0.0)]
    for t_eps in (1e-9, 0.1, 10.0) + ((data.draw(st.sampled_from(values)),) if values.size else ()):
        decided = ~(np.abs(np.sqrt(want) - math.sqrt(t_eps)) <= delta) & finite
        assert np.array_equal((got <= t_eps)[decided], (want <= t_eps)[decided])


def _field_winners():
    """Winning NLoS cells of field-style scenes: 5-7 noisy single bounces
    and 0-2 multi-bounce outliers, as ``field_nlos`` draws them."""
    for seed in range(18):
        snap, paths, alphas, config, best = _winning_cell(seed, 5 + seed % 3, seed // 3 % 3)
        yield snap, paths, alphas, config.t_eps, best


def test_a_cell_has_the_same_bits_alone_in_a_block_and_in_a_heading_scan():
    # The search evaluates its winner inside a block of cells, the polish
    # re-costs it inside its first scan of the frozen set, the (9, 9) grid
    # of 81 headings whose centre, flat index 40, is the winner's heading
    # itself, and it can be evaluated alone; all three must agree to the bit.
    for snap, paths, alphas, gate, best in _field_winners():
        assert best is not None
        cost, h, _, x, row = best
        terms = _build_terms(paths, snap.bs, alphas)
        alone_x, alone_cost = _cell_costs(terms, np.array([h]), row[:, None], gate)
        width = 2.0 * math.pi / 360
        centres = alphas[h] + np.linspace(-width, width, 9)
        probes = (centres[:, None] + np.linspace(-width / 4.0, width / 4.0, 9)).ravel()
        assert len(probes) == 81 and probes[40] == alphas[h]
        scan_x, scan_cost = _heading_costs(_frozen_set(paths, snap.bs, row, gate), probes)
        for got_x, got_cost in ((alone_x[:, 0], alone_cost[0]), (scan_x[:, 40], scan_cost[40])):
            assert got_cost == cost and _same(got_x, x), h


def _all_path_scan(paths, bs, alphas, member_row, gate):
    """A frozen-set heading scan over every path, non-members weighted 0:
    ``reference.cell_costs`` at every heading."""
    member = np.broadcast_to(member_row, (len(alphas), len(paths)))
    x, cost = reference.cell_costs(reference.build_terms(paths, bs, alphas),
                                   np.arange(len(alphas)), member, gate)
    return x.T, cost


def _member_only_cases():
    """(paths, bs, member_row, probes) with non-members that change the
    terms of a member-only scan: the largest gain, so the power-of-two
    weight scale, and the earliest delay, which the feasibility gate must
    not read for a non-member."""
    noise = NoiseModel()
    for seed in range(3):
        snap = random_h1_snapshot(70 + seed, n_single=6, noise=noise)
        paths = list(snap.paths)
        top = max(p.gain for p in paths)
        first = min(p.toa for p in paths)
        paths[1] = PathMeasurement(paths[1].toa, paths[1].aod, paths[1].aoa, 8.0 * top)
        paths[4] = PathMeasurement(first - 1e-9, paths[4].aod, paths[4].aoa, paths[4].gain)
        member_row = np.array([True, False, True, True, False, True])
        truth = snap.truth.ue.orientation
        yield paths, snap.bs, member_row, truth + np.linspace(-0.05, 0.05, 25)


@pytest.mark.parametrize("gate", [None, 0.1, 1e6], ids=["None", "gate1", "gate2"])
def test_member_only_scan_matches_the_all_path_scan(gate):
    for paths, bs, member_row, probes in _member_only_cases():
        assert np.frexp(paths[1].gain)[1] > np.frexp(max(p.gain for p, keep
                                                         in zip(paths, member_row) if keep))[1]
        assert min(range(len(paths)), key=lambda i: paths[i].toa) == 4
        x, cost = _heading_costs(_frozen_set(paths, bs, member_row, gate), probes)
        want_x, want_cost = _all_path_scan(paths, bs, probes, member_row, gate)
        assert np.isfinite(cost).any()
        assert _same(x, want_x) and _same(cost, want_cost)


def test_member_only_scan_matches_the_all_path_scan_near_the_condition_limit(monkeypatch):
    # Three members fit exactly, and their system is singular where the rows
    # [q0, q1, c] of their linear forms are dependent. Next to such a heading
    # the condition number lies between 1e10 and 1e13. The limit is placed on
    # the condition estimate of the worst conditioned of three probes there,
    # so that probe fails and the other two pass, on a system whose weights
    # the member-only scan scales by another power of two than the all-path
    # one.
    paths, bs, _, _ = next(_member_only_cases())
    member_row = np.array([True, False, True, False, False, True])
    members = [p for p, keep in zip(paths, member_row) if keep]
    grid = np.linspace(-math.pi, math.pi, 3601)
    s = _build_terms(members, bs, grid).normal
    a = np.moveaxis(s.sum(axis=1)[[0, 1, 2, 1, 3, 4, 2, 4, 5]], 0, -1).reshape(-1, 3, 3)
    sv = np.linalg.svd(a, compute_uv=False)
    h = int(np.argmax(sv[:, 0] / sv[:, 2]))
    assert 1e10 <= sv[h, 0] / sv[h, 2] <= 1e13
    probes = grid[h - 1:h + 2]
    estimate = reference.condition_estimate(
        estimator._path_sum(_build_terms(members, bs, probes).normal).T)
    assert estimate[1] > max(estimate[0], estimate[2])
    monkeypatch.setattr(estimator, "CONDITION_LIMIT", estimate[1])
    for gate in (None, 0.1):
        x, cost = _heading_costs(_frozen_set(paths, bs, member_row, gate), probes)
        want_x, want_cost = _all_path_scan(paths, bs, probes, member_row, gate)
        assert np.isfinite(want_cost).any()
        assert _same(x, want_x) and _same(cost, want_cost)
        assert gate is not None or np.array_equal(np.isfinite(cost), [True, False, True])


def _winning_cell(seed, n_single, n_multi):
    noise = NoiseModel()
    snap = random_h1_snapshot(seed, n_single=n_single, noise=noise)
    snap = add_multibounce(snap, np.random.default_rng(seed), n_multi, noise=noise)
    paths, config = list(snap.paths), RobustConfig()
    alphas = orientation_grid()
    combos = enumerate_combinations(len(paths), Hypothesis.NLOS)
    best = robust._search(paths, snap.bs, alphas, combos, None, config)
    return snap, paths, alphas, config, best


@pytest.mark.parametrize("seed", range(12))
def test_two_round_polish_matches_one_round_reference(seed):
    n_single = 4 + seed % 6                     # and an outlier, up to 9 paths
    snap, paths, alphas, config, best = _winning_cell(seed, n_single, seed % 2 * (n_single < 9))
    assert 4 <= len(paths) <= 9 and best is not None
    cost, h, _, x, row = best
    args = (paths, snap.bs, float(alphas[h]), x, cost, row, config)
    got, want = robust._polish_heading(*args), reference.polish_heading(*args)
    assert got[0] == want[0] and got[2] == want[2]
    assert _same(got[1], want[1])


def test_polish_scans_two_rounds_per_kernel_call(monkeypatch):
    builds, scans = [], []

    def counted_build(paths, *rest):
        builds.append(len(paths))
        return frozen_set(paths, *rest)

    def counted_scan(frozen, alphas):
        scans.append(len(alphas))
        return heading_costs(frozen, alphas)

    frozen_set, heading_costs = robust._frozen_set, robust._heading_costs
    monkeypatch.setattr(robust, "_frozen_set", counted_build)
    monkeypatch.setattr(robust, "_heading_costs", counted_scan)
    snap = random_h1_snapshot(3, n_single=6, noise=NoiseModel())
    robust_solve(snap, Hypothesis.NLOS)
    assert builds == [6]                        # one frozen set per polish
    assert scans == [81] * 7                    # 9 follow-ups of each of 9 probes


@pytest.mark.parametrize("gate", [None, 0.1, 1e6], ids=["None", "gate1", "gate2"])
def test_every_member_kernel_matches_an_all_true_mask(gate):
    # member=None skips the mask products, the in-kernel penalty and the
    # gate's mask of non-members; the bits stay those of a
    # broadcast all-True mask, over every path (the earliest is path 4, the
    # largest gain path 1) and over the members alone
    for paths, bs, member_row, probes in _member_only_cases():
        for subset in (paths, [p for p, keep in zip(paths, member_row) if keep]):
            terms = _build_terms(subset, bs, probes)
            everyone = np.broadcast_to(True, terms.nu_sq.shape)
            x, cost = _cell_costs(terms, None, None, gate)
            want_x, want_cost = _cell_costs(terms, None, everyone, gate)
            assert np.isfinite(cost).any()
            assert _same(x, want_x) and _same(cost, want_cost)


def test_polish_offsets_are_the_linspace_rows_of_each_scan():
    width = 2.0 * math.pi / estimator._GRID_STEPS
    assert robust._POLISH_OFFSETS.shape == (7, 2, 9)
    for centres, follow_ups in robust._POLISH_OFFSETS:
        assert _same(centres, np.linspace(-width, width, 9))
        assert _same(follow_ups, np.linspace(-width / 4.0, width / 4.0, 9))
        assert centres[4] == 0.0 and follow_ups[4] == 0.0
        width /= 16.0
