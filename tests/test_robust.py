import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snapslam import (
    Hypothesis,
    NoFeasibleSolution,
    NoiseModel,
    PathMeasurement,
    RobustConfig,
    SingularGeometry,
    Snapshot,
    TooFewPaths,
    UeState,
    benchmark_solve,
    enumerate_combinations,
    feasibility_check,
    los_orientation,
    minimal_counts,
    orientation_grid,
    robust_solve,
    wrap_angle,
)
from snapslam import estimator, robust
from snapslam.estimator import (
    _build_terms,
    _costs,
    _outlier_penalty,
    _row_costs,
    _solve_packed,
)
from snapslam.robust import _search
from helpers import (
    add_multibounce,
    expected_inliers,
    random_h0_snapshot,
    random_h1_snapshot,
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
    with pytest.raises(ValueError):
        RobustConfig(t_nu=-1.0)
    with pytest.raises(ValueError):
        RobustConfig(grid_size=0)


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


def test_feasibility_check_at_truth_and_off():
    snap = random_h1_snapshot(7, n_single=4)
    t = snap.truth
    ok = feasibility_check(t.ue.position, t.ue.clock_bias, t.ue.orientation,
                           range(4), snap.paths, snap.bs, Hypothesis.NLOS)
    assert ok
    # a clock bias larger than every delay makes all ranges negative
    bad_bias = max(p.toa for p in snap.paths) + 1e-6
    assert not feasibility_check(t.ue.position, bad_bias, t.ue.orientation,
                                 range(4), snap.paths, snap.bs, Hypothesis.NLOS)


def test_feasibility_check_gamma_range():
    # reflect the user across the landmark: the arrival ray now points away,
    # putting the implied bounce split outside [0, 1]
    snap = random_h1_snapshot(11, n_single=4)
    t = snap.truth
    flipped = [PathMeasurement(p.toa, p.aod, wrap_angle(p.aoa + math.pi), p.gain)
               for p in snap.paths]
    assert not feasibility_check(t.ue.position, t.ue.clock_bias,
                                 t.ue.orientation, range(4), flipped, snap.bs,
                                 Hypothesis.NLOS)


def test_benchmark_treats_everything_as_inlier():
    rng = np.random.default_rng(55)
    snap = add_multibounce(random_h1_snapshot(5, n_single=4, on_grid=True), rng, 2)
    sol = benchmark_solve(snap)
    assert sol.inliers == tuple(range(6))
    assert sol.outliers == ()
    with pytest.raises(TooFewPaths):
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


# --- batched search against a per-combination reference --------------------

def _reference_search(paths, bs, alphas, combos, los_index, n_min, config):
    """One subset at a time over every heading, every cell kept, one argmin.

    The minimal-subset systems are summed path by path and the inlier
    systems of every heading built in one C-ordered product, as ``_search``
    builds its survivors' systems, so every cell's arithmetic is the same
    and the result must match to the bit; no cell is pruned.
    """
    terms = _build_terms(paths, bs, alphas, los_index)
    costs, states, masks = [], [], []
    for combo in combos:
        x0, ok0 = _solve_packed(terms.normal[:, list(combo)].sum(axis=1))
        inlier = (_costs(terms, x0) <= config.t_eps) & ok0[:, None]
        x1, ok1 = _solve_packed((inlier.astype(float)[:, None, :] @ terms.normal)[:, 0])
        costs.append(estimator._row_costs(terms, x1, ok0 & ok1, inlier,
                                          (n_min, config.t_nu, config.t_eps)))
        states.append(x1)
        masks.append(inlier)
    table = np.stack(costs, axis=1)                 # (M, L), heading-major
    h, l = divmod(int(np.argmin(table)), len(combos))
    if not np.isfinite(table[h, l]):
        return None
    return float(table[h, l]), h, l, states[l][h], masks[l][h]


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
    n_los, n_nlos = minimal_counts(hypothesis)
    if hypothesis is Hypothesis.LOS:
        candidate = int(np.argmin([p.toa for p in paths]))
        alphas = np.array([los_orientation(paths[candidate], bs)])
        combos = enumerate_combinations(len(paths), hypothesis, candidate)
        los_index = candidate
    else:
        alphas = orientation_grid()
        combos = enumerate_combinations(len(paths), hypothesis)
        los_index = None
    return paths, bs, alphas, combos, los_index, n_los + n_nlos, config


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
        gated_rows.append(len(x))
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
        n_min, _, t_eps = gate
        cost = _outlier_penalty(terms.eta, member.astype(float), t_eps)
        return np.where(ok & (member.sum(axis=-1) >= n_min), cost, np.inf)

    monkeypatch.setattr(estimator, "_row_costs", penalty_only)
    args = _search_inputs(*list(_search_cases())[case], RobustConfig(t_eps=t_eps))
    want = _reference_search(*args)
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
    paths, bs, alphas, combos, los_index, n_min, config = args
    terms = _build_terms(paths, bs, alphas, los_index)
    assert _outlier_penalty(terms.eta, 0.0, config.t_eps) < 1.0
    # A cell's gated cost depends on its heading and its inlier set alone,
    # so the script is keyed by those: the heading's arrival rays and the
    # inlier row of the cell's minimal-subset solve. Subsets 0-2 select
    # other inlier rows than subset 3 at heading 2.
    scripted = {}
    for subset, heading in ((6, 2), (0, 7), (3, 2), (12, 336)):
        x0, ok0 = _solve_packed(terms.normal[heading, list(combos[subset])].sum(axis=0))
        inlier = (_costs(terms, x0[None])[heading] <= config.t_eps) & ok0
        assert inlier.sum() >= n_min                # survives the count test
        scripted[terms.v[heading].tobytes(), inlier.tobytes()] = 1.0
    assert len(scripted) == 4

    def scripted_cost(terms, x, ok, member, gate):
        return np.array([scripted.get((v.tobytes(), row.tobytes()), 5.0)
                         for v, row in zip(terms.v, member)])

    monkeypatch.setattr(estimator, "_row_costs", scripted_cost)
    for budget in (1, robust._CHUNK_ROW_PATHS, 10 ** 9):
        monkeypatch.setattr(robust, "_CHUNK_ROW_PATHS", budget)
        assert _search(*args)[:3] == (1.0, 2, 3)    # smallest heading, then subset
