"""Outlier-robust snapshot solving.

The solver does not know which paths are line-of-sight, single-bounce, or
higher-order reflections. It hypothesizes a propagation condition (LoS
available or not), enumerates minimal path subsets, solves each on a heading
grid, re-partitions all paths into inliers/outliers by their per-path cost at
the minimal-set estimate, re-solves on the inliers, gates the result with
physical feasibility checks, and keeps the cheapest feasible cell. Excluded
paths pay a fixed per-path penalty so that explaining a path is never worse
than discarding it. The gate is one number, ``RobustConfig.t_eps``: the
inlier threshold and the per-path penalty. The near-parallel threshold of
the feasibility and map rules is the constant ``geometry._T_NU``.

The search is batched over headings and subsets together and runs in two
stages, as a RANSAC hypothesize-and-verify loop does (Fischler & Bolles,
CACM 1981). Stage 1 takes whole subsets in chunks of at most
``_CHUNK_ROW_PATHS`` (heading x subset) cells times paths, solves every
cell's 3x3 minimal-subset system elementwise by LDL^T on path-major planes
(see ``estimator._PathTerms``) and partitions the paths into inliers and
outliers at that state. The partition compares ``estimator._line_costs``
with the threshold: one scalar residual per path, linear in the state with
coefficients fixed per (path, heading). For a bounce path it equals
``estimator._costs`` up to rounding. An identity-projector path (the LoS
candidate, or rays that cancel exactly) reads 0 and passes; stage 2 and
every reported cost use ``_costs``, which counts both of its residual
components. Stage 1 alone applies the count rule: a cell with
fewer inliers than a minimal subset has paths cannot win. Nor can one whose
outlier penalty alone exceeds the best gated cost so far; the others wait,
across chunks, until they fill a block. Stage 2 runs once per flush of
the waiting cells: ``_evaluate_block`` gates every cell's minimal-subset
system once, by ``estimator._condition_ok`` on the LDL^T pivots stage 1
kept (see ``estimator.CONDITION_LIMIT``), drops the cells that fail, and
passes the rest a block at a time to ``estimator._cell_costs``, which
builds, solves, costs and gates each inlier system. The winner is the least
(cost, heading index, subset index) among the feasible cells, so it does not
depend on the order in which cells are found. The pruning is exact: the
search returns what evaluating every cell returns, to the bit. Its working
memory has a fixed bound that grows with the path count only once one
subset's cells exceed the chunk budget (see ``_CHUNK_ROW_PATHS``).

That search, ``_search``, runs the NLoS grid. Under LOS there is one
heading, the closed form of ``estimator.los_orientation``, and n - 1 pair
subsets, a dozen cells for a room snapshot, where a NumPy call on a dozen
numbers costs more than its arithmetic. ``_los_search`` runs that search
in Python floats and returns ``_search``'s answer at that heading, bit for
bit. It restates the per-path terms, the condition gate, the line
statistic, the feasibility rule and the path-order sums, each with its
plane twin's operations in their order. It gates every pair before its
line statistic, visits the live cells best-first in (penalty, subset)
order, stops at the first penalty above the best cost, and scores each
distinct inlier row once, over its members alone. Those shortcuts are
exact while every non-member adds exactly +0.0 to each path-order sum
(see ``_LOS_BOUND`` and ``_los_cell``); outside that domain it returns
``_search``'s answer.

``benchmark_solve`` is the non-robust reference: every path, NLoS model,
grid search only.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGeometry, NoFeasibleSolution, TooFewPaths
from .estimator import (
    _GRID_STEPS,
    _build_terms,
    _cell_costs,
    _condition_ok,
    _frozen_set,
    _gated_solve,
    _heading_costs,
    _ldl_solve,
    _line_costs,
    _line_terms,
    _outlier_penalty,
    landmark_refine,
    los_orientation,
    nlos_orientation_search,
    orientation_grid,
)
from .geometry import _T_NU, SPEED_OF_LIGHT, NoiseModel, UeState, _bounce, _rays, wrap_angle

_C = SPEED_OF_LIGHT

_CHUNK_ROW_PATHS = 8192
"""Rows (heading x subset cells) times paths of one stage-1 chunk of the
search; whole subsets are batched, one at least. Measured with tracemalloc
over one chunk on builder snapshots of 5 to 13 paths, at this budget and
at 2048, stage 1 takes 34-57 bytes per row and path: ~17 for the cost
plane of ``estimator._line_costs``, its scratch plane and the inlier
mask, the rest for each cell's minimal-subset system and LDL^T solve,
shared by its n paths. Of that, a cell that survives stage 1 keeps its
six A entries and pivots d1, d2 (64 bytes) until the flush that gates
them (``_evaluate_block``); the rest is not held through stage 2.
The c_q planes of ``estimator._line_terms`` hold 8 bytes per path and
heading for the whole search. A row and path of stage 2 takes ~160
(gathered terms and system, residuals, costs and gate), so a stage-2 block
holds an eighth as many. A chunk holds one subset at least, M headings by n paths, so the
search's working memory on top of its per-path terms stays under 80 bytes
times max(``_CHUNK_ROW_PATHS``, M n), however many cells survive: whole
searches on builder snapshots of 5 to 13 paths took 45-75 at t_eps 0.1
and 1e6. On the default 361-point grid the second term takes over from 23
paths on; below that the bound is ~650 KB."""


class Hypothesis(Enum):
    """Propagation condition the solver conditions on."""

    LOS = "los"
    NLOS = "nlos"


def minimal_counts(hypothesis: Hypothesis) -> tuple[int, int]:
    """(LoS paths, single-bounce paths) in a minimal identifiable subset.

    One LoS plus one bounce when LoS is assumed available; four bounces
    otherwise (the heading comes from the grid, not from data closed-form).
    """
    if hypothesis is Hypothesis.LOS:
        return 1, 1
    return 0, 4


@dataclass(frozen=True)
class RobustConfig:
    """Knobs of the robust search.

    t_eps : inlier threshold on the per-path squared projected residual, m^2;
        also the per-path penalty charged for each excluded path. It is the
        search's whole gate: the near-parallel threshold of the feasibility
        and map rules is the constant ``geometry._T_NU``.
    noise : measurement noise model used for landmark refinement.

    Under the NLoS hypothesis the heading is searched on ``orientation_grid()``.
    """

    t_eps: float = 0.1
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        if not 0.0 < self.t_eps < math.inf:
            raise ValueError(f"t_eps must be finite and strictly positive, got {self.t_eps}")


@dataclass(frozen=True)
class SlamSolution:
    """Joint snapshot solution.

    ``landmarks`` holds one refined LandmarkEstimate per inlier whose rays
    leave a bounce point at ``ue`` (``source_path`` identifies the path); an
    inlier whose rays nearly cancel there maps none. ``inliers`` / ``outliers``
    are sorted path-index tuples partitioning the snapshot. ``cost`` is the
    winning cell's total: weighted inlier costs plus the per-path penalty for
    each outlier.
    """

    ue: UeState
    landmarks: tuple
    inliers: tuple
    outliers: tuple
    hypothesis: Hypothesis
    cost: float


def enumerate_combinations(n_paths: int, hypothesis: Hypothesis,
                           los_candidate: int = 0) -> list[tuple[int, ...]]:
    """Minimal path subsets to try, in deterministic lexicographic order.

    Under LOS each subset pairs the LoS candidate with one other path;
    under NLOS every 4-subset of the path indices is tried.

    Raises
    ------
    TooFewPaths
        If ``n_paths`` is below the minimal subset size.
    """
    n_los, n_nlos = minimal_counts(hypothesis)
    n_min = n_los + n_nlos
    if n_paths < n_min:
        raise TooFewPaths(f"need at least {n_min} paths, got {n_paths}")
    if hypothesis is Hypothesis.LOS:
        if not 0 <= los_candidate < n_paths:
            raise ValueError("los_candidate out of range")
        return [tuple(sorted((los_candidate, i)))
                for i in range(n_paths) if i != los_candidate]
    return list(itertools.combinations(range(n_paths), n_nlos))


def _los_candidate(paths) -> int:
    """Index of the path the LoS branch treats as line of sight: the earliest.

    Ties go to the lowest index; every ``toa`` is finite
    (``PathMeasurement`` checks it), so the comparison is a total order.
    """
    return min(range(len(paths)), key=lambda i: paths[i].toa)


def _search(paths, bs, alphas, combos, los_index, config):
    """Evaluate every (heading, subset) cell; return the winning cell.

    Returns (cost, heading index, subset index, x, inlier_row) of the
    feasible cell with the least (cost, heading index, subset index), or
    None if every cell is infeasible.

    Subsets are taken in chunks of whole subsets, each at most
    ``_CHUNK_ROW_PATHS`` cells times paths (one subset at least). The
    minimal-subset stage solves every cell of a chunk and partitions the
    paths into inliers and outliers at that state by ``_line_costs``, whose
    c_q planes ``_line_terms`` builds once per search. Only the cells that can
    still win go on: those with at least as many inliers as a subset has
    paths (the one place this count is tested) whose outlier penalty is not
    above the best gated cost so far (a gated cost is never below its
    penalty; the test is strict because a cell that ties the best cost can
    still win on heading or subset). They wait, across chunks, until they fill a stage-2 block
    (an eighth of ``_CHUNK_ROW_PATHS`` cells times paths) or the chunks run
    out; ``_evaluate_block`` then gates their minimal-subset systems and
    evaluates the cells that pass. Every cell's arithmetic
    is independent of the chunking, of which other cells survive and of
    their order.
    """
    terms = _build_terms(paths, bs, alphas, los_index)
    cq = _line_terms(terms)
    n, m = terms.nu_sq.shape
    slots = np.asarray(combos).T                        # (subset size, L)
    step = max(1, _CHUNK_ROW_PATHS // (m * n))
    block = max(1, _CHUNK_ROW_PATHS // (8 * n))         # stage-2 cells; see _CHUNK_ROW_PATHS
    best, waiting, count = None, [], 0
    for lo in range(0, len(combos), step):
        chunk = slots[:, lo:lo + step]
        # the (9, L, M) systems, summed path by path: ((a + b) + c) + d
        s = terms.normal[:, chunk[0]]
        for path in chunk[1:]:
            s += terms.normal[:, path]
        x, d1, d2 = _ldl_solve(s)
        inlier = _line_costs(terms, cq, x) <= config.t_eps      # (n, L, M)
        l, h = np.nonzero(inlier.sum(axis=0) >= len(slots))
        member = inlier[:, l, h]                        # (n, K)
        if best is not None:
            keep = ~(_outlier_penalty(terms.const.eta, member, config.t_eps) > best[0])
            h, l, member = h[keep], l[keep], member[:, keep]
        if h.size:
            waiting.append((h, lo + l, member, s[:6, l, h], d1[l, h], d2[l, h]))
            count += h.size
        del s, x, d1, d2, inlier                        # not held through stage 2
        if count >= block or (count and lo + step >= len(combos)):
            best = _evaluate_block(terms, waiting, config.t_eps, block, best)
            waiting, count = [], 0
    return best


def _evaluate_block(terms, waiting, t_eps, block, best):
    """Evaluate the waiting cells; return the new best cell.

    ``waiting`` lists one (heading, subset, inlier mask, A, d1, d2) entry
    per chunk, its last axis running over the cells in any order: the
    inlier masks are (n, K) and the six A entries (6, K). This is the one
    place a cell's minimal-subset system is gated: ``_condition_ok`` takes
    its six A entries and LDL^T pivots d1, d2 once per flush, and the cells
    that fail are dropped. At most ``block`` of the rest go to one
    ``_cell_costs`` call, which gates their inlier systems under ``t_eps``.
    A cell replaces ``best`` when its cost is finite and its (cost, heading,
    subset) is the least seen so far.
    """
    h, l, member, a, d1, d2 = (np.concatenate(part, axis=-1) for part in zip(*waiting))
    ok = _condition_ok(a, d1, d2)
    h, l, member = h[ok], l[ok], member[:, ok]
    for lo in range(0, h.size, block):
        cells = slice(lo, lo + block)
        x, cost = _cell_costs(terms, h[cells], member[:, cells], t_eps)
        k = np.lexsort((l[cells], h[cells], cost))[0]
        cell = (float(cost[k]), int(h[lo + k]), int(l[lo + k]))
        if math.isfinite(cell[0]) and (best is None or cell < best[:3]):
            best = cell + (x[:, k].copy(), member[:, lo + k].copy())
    return best


_LOS_BOUND = 1e150
"""Magnitude bound of ``_los_search``'s exact domain. While every anchor
coordinate, every path's c tau and every state it scores stay below it, no
path's squared projected residual overflows (each stays below ~2e302), so
a path weighted 0 adds an exact +0.0 to a cost sum, never 0 * inf = NaN."""


class _Inexact(Exception):
    """Raised where ``_los_search`` leaves its exact domain."""


class _LosTerms(NamedTuple):
    """The per-path terms of ``_build_terms`` at the LoS heading, as Python
    floats, each list indexed by path: what ``_los_search`` reads."""

    anchor: tuple       # (x, y)
    normal: list        # the nine packed entries of _PathTerms.normal
    lines: list         # (c tau, c_q, nubar_0, nubar_1) of _line_costs
    fits: list          # (v, mu, nubar, nu, ||nu||^2, c tau, gain) of _row_costs
    eta: list           # the gains


def _los_terms(paths, bs, alpha, candidate) -> _LosTerms:
    """``_build_terms(paths, bs, [alpha], candidate)`` in Python floats.

    Each path's rays come from ``geometry._rays``; every other value takes
    the operations of ``estimator._heading_terms`` and ``_line_terms`` in
    their order, so every bit is theirs. Raises ``_Inexact`` where an
    anchor coordinate or a c tau reaches ``_LOS_BOUND``; below it every
    term is finite.
    """
    ax, ay = bs.position.tolist()
    if not (abs(ax) < _LOS_BOUND and abs(ay) < _LOS_BOUND):
        raise _Inexact
    shift = -math.frexp(max(p.gain for p in paths))[1]
    normal, lines, fits = [], [], []
    for i, p in enumerate(paths):
        (u0, u1), (v0, v1) = _rays(p.aod, p.aoa, bs.orientation, alpha)
        ctau = _C * p.toa
        if not abs(ctau) < _LOS_BOUND:
            raise _Inexact
        nu0, nu1 = u0 + v0, u1 + v1
        nu_sq = nu0 * nu0 + nu1 * nu1
        n0 = n1 = 0.0                                   # identity projector
        if nu_sq != 0.0 and i != candidate:
            root = math.sqrt(nu_sq)
            n0, n1 = nu0 / root, nu1 / root
        m0, m1 = ax - ctau * v0, ay - ctau * v1
        nv, nm = n0 * v0 + n1 * v1, n0 * m0 + n1 * m1
        w0, w1 = v0 - n0 * nv, v1 - n1 * nv             # P v
        g0, g1 = m0 - n0 * nm, m1 - n1 * nm             # P mu
        s = math.ldexp(p.gain, shift)
        normal.append(((1.0 - n0 * n0) * s, -n0 * n1 * s, -w0 * s, (1.0 - n1 * n1) * s,
                       -w1 * s, (v0 * w0 + v1 * w1) * s, g0 * s, g1 * s,
                       -(v0 * g0 + v1 * g1) * s))
        lines.append((ctau, n1 * v0 - n0 * v1, n0, n1))
        fits.append((v0, v1, m0, m1, n0, n1, nu0, nu1, nu_sq, ctau, p.gain))
    return _LosTerms((ax, ay), normal, lines, fits, [p.gain for p in paths])


def _los_system(terms: _LosTerms, members):
    """The packed system of ``members``: their ``normal`` rows summed in
    that order, ((p0 + p1) + p2) + ..."""
    s = terms.normal[members[0]]
    for j in members[1:]:
        s = tuple(map(operator.add, s, terms.normal[j]))
    return s


def _los_live_cells(terms: _LosTerms, combos, t_eps):
    """Stage 1 of ``_search`` on every subset: (penalty, subset, inlier row)
    of each cell that can win.

    A cell lives when ``estimator._gated_solve`` passes its minimal-subset
    system, the sum of its paths' rows in subset order, and its inlier row
    (``_line_costs`` at most ``t_eps``, the same operations path by path)
    holds as many paths as the subset. A cell the gate fails is dropped
    by ``_evaluate_block`` as well, so gating it first changes no answer.
    The penalty is ``_outlier_penalty``'s path-order sum.
    """
    ax, ay = terms.anchor
    cells = []
    for l, combo in enumerate(combos):
        x = _gated_solve(_los_system(terms, combo))
        if x is None:
            continue
        x0, x1, x2 = x
        dx, dy = x0 - ax, x1 - ay
        q = [(x2 - ctau) * cq + n0 * dy - n1 * dx for ctau, cq, n0, n1 in terms.lines]
        row = tuple([e * e <= t_eps for e in q])
        if sum(row) >= len(combo):
            outside = 0.0
            for eta, inlier in zip(terms.eta, row):
                if not inlier:
                    outside += eta
            cells.append((outside * t_eps, l, row))
    return cells


def _los_cell(terms: _LosTerms, row, penalty):
    """Stage 2 of ``_search`` on one inlier row: (cost, x), or None where
    ``estimator._cell_costs`` gives +inf.

    The system, cost and feasibility sums run over the members alone, in
    path order. That has ``_cell_costs``'s bits while each non-member adds
    an exact zero to them (see ``_PathTerms``), which holds unless a
    member-only system entry is 0.0, whose sign a non-member's +-0.0 could
    set, or the state reaches ``_LOS_BOUND``; there it raises ``_Inexact``.
    """
    members = [j for j, inlier in enumerate(row) if inlier]
    s = _los_system(terms, members)
    if 0.0 in s:
        raise _Inexact
    x = _gated_solve(s)
    if x is None:
        return None
    x0, x1, x2 = x
    if not (abs(x0) < _LOS_BOUND and abs(x1) < _LOS_BOUND and abs(x2) < _LOS_BOUND):
        raise _Inexact
    cost = 0.0
    for j in members:
        v0, v1, m0, m1, n0, n1, nu0, nu1, nu_sq, ctau, eta = terms.fits[j]
        r0, r1 = x0 - x2 * v0 - m0, x1 - x2 * v1 - m1
        # the feasibility rule of _feasibility_mask; a zero denominator,
        # where NumPy divides to inf or NaN, fails it
        d = ctau - x2
        if not d >= 0.0:
            return None
        if nu_sq > _T_NU:
            den = d * nu_sq
            if den == 0.0 or not 0.0 <= (nu0 * r0 + nu1 * r1) / den <= 1.0:
                return None
        nr = n0 * r0 + n1 * r1
        p0, p1 = r0 - n0 * nr, r1 - n1 * nr
        cost += eta * (p0 * p0 + p1 * p1)
    cost += penalty
    return (cost, x) if math.isfinite(cost) else None


def _los_search(paths, bs, alpha, combos, candidate, config):
    """``_search(paths, bs, np.array([alpha]), combos, candidate, config)``,
    bit for bit, in Python floats: the LoS branch's one heading and n - 1
    pairs.

    Stage 1 (``_los_live_cells``) keeps the cells that can win. Stage 2
    visits them best-first, in (penalty, subset) order, and stops at the
    first whose penalty is above the best cost so far: its cost, and that
    of every cell after it, is at least its penalty. It scores each
    distinct inlier row once (``_los_cell``); a row's cost does not depend
    on the subset, so the lowest subset that carries it is the one that
    can win. Outside the exact domain of ``_los_terms`` and ``_los_cell``
    it returns ``_search``'s answer.
    """
    try:
        terms = _los_terms(paths, bs, alpha, candidate)
        best, seen = None, set()
        for penalty, l, row in sorted(_los_live_cells(terms, combos, config.t_eps)):
            if best is not None and penalty > best[0]:
                break
            if row in seen:
                continue
            seen.add(row)
            cell = _los_cell(terms, row, penalty)
            if cell is not None and (best is None or (cell[0], l) < (best[0], best[2])):
                best = (cell[0], 0, l, cell[1], row)
    except _Inexact:
        return _search(paths, bs, np.array([alpha]), combos, candidate, config)
    if best is None:
        return None
    cost, h, l, x, row = best
    return cost, h, l, np.array(x), np.array(row)


_POLISH_OFFSETS = np.array([(np.linspace(-w, w, 9), np.linspace(-w / 4.0, w / 4.0, 9))
                            for w in (2.0 * math.pi / _GRID_STEPS / 16.0 ** i for i in range(7))])
"""The (7, 2, 9) heading offsets of ``_polish_heading``'s scans: scan i
takes ``linspace(-w, w, 9)`` for its centres and ``linspace(-w / 4, w / 4,
9)`` around each, w being one step of ``orientation_grid()`` over 16 ** i,
an exact division by a power of two."""


def _polish_heading(paths, bs, alpha, x, cost, inlier_row, config):
    """Shrink the heading past grid resolution around the winning cell.

    The grid argmin lands within one step of the continuous optimum, so a
    multi-resolution scan over one step each side with the cell's inlier set
    frozen removes the quantization: 14 rounds of 9 probes, each round a
    quarter as wide as the one before and centred on the best heading so
    far. A probe is adopted only when it is feasible and strictly cheaper,
    so this never worsens the grid answer. The frozen set passed the
    search's inlier count, so the gate does not count it again; it is
    built once, and each scan builds only its per-heading terms.

    Rounds are scanned two at a time, at the offsets of
    ``_POLISH_OFFSETS``. The next round's centre is always one of this
    round's probes, so one scan takes the 9 follow-up probes around each of
    them: row r of the (9, 9) grid is centred on probe r. Column 4 holds
    the probes themselves (``linspace(-w, w, 9)[4] == 0.0``), so the rule
    above picks round one's outcome from column 4 and round two's from the
    row of the adopted probe, or from row 4 if none was adopted.
    """
    frozen = _frozen_set(paths, bs, inlier_row, config.t_eps)
    best = (alpha, x, cost)
    for centres, follow_ups in _POLISH_OFFSETS:
        probes = ((best[0] + centres)[:, None] + follow_ups).ravel()
        xs, costs = _heading_costs(frozen, probes)
        start, step = 4, 9                      # round one: column 4
        for _ in range(2):
            k = start + step * int(np.argmin(costs[start:start + 9 * step:step]))
            adopted = costs[k] < best[2]
            if adopted:
                best = (float(probes[k]), xs[:, k], float(costs[k]))
            start, step = 9 * (k // 9 if adopted else 4), 1
    return best


def _refine_landmarks(paths, inlier_indices, ue, bs, noise):
    # The one map rule: an inlier whose rays nearly cancel at ue
    # (||u + v||^2 <= _T_NU) fits the direct-path geometry and has no
    # identifiable bounce point (any point on the segment explains it), so
    # it maps no landmark. That covers the LoS candidate, whose rays cancel
    # at its closed-form heading, and a LoS path taken as an NLoS inlier.
    out = []
    for i in inlier_indices:
        if _bounce(ue, paths[i], bs)[2] <= _T_NU:
            continue
        try:
            out.append(landmark_refine(paths[i], ue, bs, noise, source_path=i))
        except DegenerateGeometry:
            continue
    return tuple(out)


def robust_solve(snapshot, hypothesis: Hypothesis,
                 config: RobustConfig = RobustConfig()) -> SlamSolution:
    """Robust snapshot solution under a fixed propagation hypothesis.

    Under LOS the earliest path is the LoS candidate, the heading comes in
    closed form from it, minimal subsets pair it with one other path, and
    ``_los_search`` searches them in Python floats. Under NLOS the heading
    is grid-searched by ``_search``, minimal subsets are all 4-subsets, and
    the winning heading is refined past grid resolution with the cell's
    inlier set held fixed. See the module docstring for the searches. Each
    inlier is refined into a landmark where its rays leave a bounce point
    at the returned state, ||u + v||^2 > ``geometry._T_NU``.
    The rule is geometric, not by role: it maps neither the LoS candidate,
    whose rays cancel at its closed-form heading, nor a LoS path that the
    NLoS branch takes as an inlier.

    Raises
    ------
    NoFeasibleSolution
        If no (heading, subset) cell passes the feasibility gate, including
        the trivial case of fewer paths than the minimal subset size.
    """
    bs = snapshot.bs
    paths = list(snapshot.paths)
    n = len(paths)
    n_min = sum(minimal_counts(hypothesis))
    if n < n_min:
        raise NoFeasibleSolution(f"need at least {n_min} paths, got {n}")
    if hypothesis is Hypothesis.LOS:
        candidate = _los_candidate(paths)
        alpha = los_orientation(paths[candidate], bs)
        best = _los_search(paths, bs, alpha, enumerate_combinations(n, hypothesis, candidate),
                           candidate, config)
    else:
        alphas = orientation_grid()
        best = _search(paths, bs, alphas, enumerate_combinations(n, hypothesis), None, config)
    if best is None:
        raise NoFeasibleSolution("every (heading, subset) cell failed feasibility")
    cost, h, _, x, inlier_row = best
    if hypothesis is Hypothesis.NLOS:
        alpha, x, cost = _polish_heading(paths, bs, float(alphas[h]), x, cost, inlier_row, config)
    ue = UeState(x[:2].copy(), wrap_angle(alpha), float(x[2]) / _C)
    inliers = tuple(int(i) for i in np.flatnonzero(inlier_row))
    outliers = tuple(int(i) for i in np.flatnonzero(~inlier_row))
    landmarks = _refine_landmarks(paths, inliers, ue, bs, config.noise)
    return SlamSolution(ue=ue, landmarks=landmarks, inliers=inliers,
                        outliers=outliers, hypothesis=hypothesis, cost=cost)


def benchmark_solve(snapshot, noise: NoiseModel = NoiseModel()) -> SlamSolution:
    """Non-robust reference solver: all paths, NLoS model, default heading grid.

    No LoS handling, no outlier rejection, no feasibility gate. Every path
    is treated as a single bounce, and refined into a landmark where its
    rays leave a bounce point: ||u + v||^2 above the near-parallel
    threshold ``geometry._T_NU`` at the returned state, as in ``robust_solve``.

    Raises
    ------
    TooFewPaths
        If the snapshot has fewer than 4 paths.
    SingularGeometry
        If every grid heading yields a singular system.
    """
    bs = snapshot.bs
    paths = list(snapshot.paths)
    n = len(paths)
    n_min = sum(minimal_counts(Hypothesis.NLOS))
    if n < n_min:
        raise TooFewPaths(f"benchmark needs at least {n_min} paths, got {n}")
    ue, cost = nlos_orientation_search(paths, range(n), orientation_grid(), bs)
    landmarks = _refine_landmarks(paths, range(n), ue, bs, noise)
    return SlamSolution(ue=ue, landmarks=landmarks, inliers=tuple(range(n)),
                        outliers=(), hypothesis=Hypothesis.NLOS, cost=cost)
