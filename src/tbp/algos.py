"""Sampling algorithms: tree searches, baselines, and their recorded trajectories.

The tree searches walk the extended binary tree of :mod:`tbp.tree`, spending a
fixed per-arm budget at each visited node.  Estimates are per *arm*: when two
slots of a node reference the same arm (leaves have ``M == L``), they share
one estimate.  Sentinel arms return their exact value at zero cost, so budget
is only charged for real arms.  This module holds what a sweep runs: the
lockstep walkers, their budget and shape rules, and :data:`ALGORITHMS`.  The
recorded walks of :mod:`tbp.walks` and the diagnostics of :mod:`tbp.diagnostics`
load on first use of one of their names here (PEP 562).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .env import (Classification, Problem, ShapeClass, VariateBlock, _above, _band_labels,
                  augment, shape_check)

__all__ = [
    "Action", "StepRecord", "Trajectory", "AlgoResult", "BatchResult", "GradState", "BudgetError",
    "ShapeError", "budget_split", "explore", "dexplore", "gradexplore", "ctb", "ctb_check", "naive",
    "uniform", "explore_batch", "naive_batch", "uniform_batch", "ctb_batch", "Algorithm",
    "ALGORITHMS", "distance_series", "favorable_series",
]


def __getattr__(name: str):
    # Every other name comes from the recorded walks, loaded on its first use.
    if not name.startswith("__"):
        from . import walks
        if name in vars(walks):
            value = globals()[name] = vars(walks)[name]
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_this = sys.modules[__name__]  # its attribute lookups reach the recorded walks too


class BudgetError(ValueError):
    """The sampling budget is too small for the requested algorithm."""


class ShapeError(ValueError):
    """The instance violates the algorithm's shape precondition."""


@dataclass(frozen=True, eq=False)
class BatchResult:
    """Outcome of one lockstep run over a :class:`VariateBlock` of replications.

    Row ``j`` is replication ``start + j`` and holds what the scalar walker
    returns on a fresh ``RngStream(seed, start + j)``: ``k_hat`` (``None``
    for :func:`uniform_batch`; ``0`` in a :func:`ctb_batch` row where
    :func:`ctb` returns ``None``), the labels of the ``n`` original arms, and
    the budget spent.  A tree search labels a band of arms above, so it keeps
    only each row's band ends ``band = (l, r)`` (:func:`~tbp.env._band_labels`;
    ``r`` may be the scalar ``n``); :func:`uniform_batch` keeps ``above``, one
    ``bool`` per label.  :attr:`labels` builds the ``+/-1`` labels when read.
    """

    k_hat: Optional[np.ndarray]
    total_budget: np.ndarray
    n: int
    band: Optional[Tuple[np.ndarray, np.ndarray]] = None
    above: Optional[np.ndarray] = None

    @property
    def labels(self) -> np.ndarray:
        """The ``+/-1`` labels, one row per replication, built on each read."""
        if self.band is None:
            return np.where(self.above, 1, -1)
        return _band_labels(self.n, *self.band)


def budget_split(K: int, T: int) -> Tuple[int, int]:
    """Number of walk steps ``T1 = ceil(6 ln K)`` and per-arm budget ``T2 = floor(T / (3 T1))``."""
    if K < 3:
        raise ValueError("K must be >= 3")
    if T < 1:
        raise ValueError("T must be >= 1")
    t1 = math.ceil(6.0 * math.log(K))
    t2 = T // (3 * t1)
    if t2 < 1:
        raise BudgetError(f"budget {T} too small: need T >= {3 * t1} for K = {K}")
    return t1, t2


def max_depth(K: int) -> int:
    """Depth bound ``floor(log2(K)) + 1`` of the original tree: :func:`naive`'s walk length."""
    if K < 3:
        raise ValueError("K must be >= 3")
    return K.bit_length()  # == floor(log2(K)) + 1 for K >= 1


def _explore_split(K: int, T: int) -> Tuple[int, int, int]:
    """Prefix width ``3 T1`` of one :func:`explore` replication (at most three variates per
    step) and ``(T1, T2) = budget_split(K, T)``."""
    t1, t2 = budget_split(K, T)
    return 3 * t1, t1, t2


def _naive_split(K: int, T: int) -> Tuple[int, int]:
    """Walk length ``H = max_depth(K)``, also the prefix width of one replication (at most one
    variate per step), and per-step draws ``floor(T / H)`` of :func:`naive`."""
    H = max_depth(K)
    n = T // H
    if n < 1:
        raise BudgetError(f"budget {T} too small: need T >= {H}")
    return H, n


def _grad_split(K: int, budget: int) -> Tuple[int, int]:
    """``budget_split(K, 3 * budget)`` of :func:`gradexplore`, which needs ``T2 >= 12``."""
    if budget >= 1:
        t1, t2 = budget_split(K, 3 * budget)
        if t2 >= 12:
            return t1, t2
    raise BudgetError(f"budget {budget} too small: need floor(budget / T1) >= 12")


def _uniform_split(problem: Problem, T: int) -> Tuple[int, int]:
    """The ``K`` real arms of ``problem``, also the prefix width of one :func:`uniform`
    replication (one variate per arm), and per-arm draws ``floor(T / K)``."""
    K = problem.n_original
    if T < K:
        raise BudgetError(f"budget {T} too small: need T >= K = {K}")
    return K, T // K


def _as_monotone_walk_problem(problem: Problem, check_shape: bool) -> Problem:
    work = problem if problem.sentinels is not None else augment(problem, ShapeClass.MONOTONE)
    if check_shape and not shape_check(work, ShapeClass.RELAXED_MONOTONE):
        raise ShapeError("means are not relaxed-monotone around the threshold")
    return work


def _crossing_labels(work: Problem, k_hat_aug):
    """Crossing in original indices (``1..K+1``) and its labels; broadcasts over a row vector."""
    crossing = k_hat_aug - 1
    return crossing, _band_labels(work.n_original, crossing, work.n_original)


def _crossing(work: Problem, r: int) -> Tuple[int, Classification]:
    """:func:`_crossing_labels` of one walk's final ``r``, its labels one frozen object."""
    k_hat, labels = _crossing_labels(work, r)
    return k_hat, Classification(labels)


def ctb_check(problem: Problem, T: int, *, check_shape: bool = True) -> Tuple[int, int]:
    """Raise what :func:`ctb` raises before its first draw; else the slope walk's ``(T1, T2)``."""
    if problem.sentinels is not None:
        raise ValueError("ctb expects an un-augmented problem")
    if check_shape and not shape_check(problem, ShapeClass.CONCAVE):
        raise ShapeError("means are not concave")
    return _grad_split(problem.K + 2, T // 3)


def _segments(problem: Problem, k_hat: int) -> Tuple[Problem, Problem]:
    """:func:`ctb`'s increasing segment ``[1, k_hat]`` and decreasing segment ``[k_hat, K]``."""
    return (Problem(problem.means[:k_hat], problem.sigma, problem.tau),
            Problem(problem.means[k_hat - 1:], problem.sigma, problem.tau))


def _uniform_estimates(problem: Problem, n: int, z: np.ndarray) -> np.ndarray:
    """:func:`uniform`'s sample means for each row of ``z``, one variate per real arm."""
    # No gap |mu - tau| overflows (Problem refuses it), so an overflowed mean is on its arm's side.
    with np.errstate(over="ignore"):
        est = (problem.sigma / math.sqrt(n)) * z
        est += problem.original_means
    return est


class _Descent:
    """The state every lockstep tree walk shares: each row's node ``(L, R)``, depth, ancestor
    stack and variate cursor.

    Row ``j`` starts at the root ``(1, K[j])`` and walks ``t1[j]`` steps, ``t1`` sorted
    longest first.  It reads its variates from ``z[zrow[j]]`` starting at ``cursor[j]``, and
    ``mean_at(arm, n)`` returns the true means of ``arm`` for rows ``0..n`` as a new array.
    ``K``, ``scale`` and ``cursor`` may be scalars.
    """

    def __init__(self, K, t1: np.ndarray, scale, mean_at: Callable, z: np.ndarray,
                 zrow: np.ndarray, cursor=0) -> None:
        rows, steps = t1.size, int(t1[0]) if t1.size else 0
        self.walking = np.searchsorted(-t1, -np.arange(steps))  # rows walking at each step
        self.mean_at, self.z, self.zrow = mean_at, z, zrow
        self.scale = np.broadcast_to(scale, (rows,))
        self.L, self.R = np.ones(rows, dtype=np.int64), np.full(rows, K, dtype=np.int64)
        self.cursor = np.full(rows, cursor, dtype=np.int64)
        self.depth = np.zeros(rows, dtype=np.int64)
        # Row j's ancestors are stack_l/stack_r[base[j]:base[j] + depth[j]], the parent last.
        self.steps, self.base = steps, np.arange(rows) * steps
        self.stack_l = np.empty(rows * steps, dtype=np.int64)
        self.stack_r = np.empty(rows * steps, dtype=np.int64)

    def __iter__(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Each step's number ``n`` of walking rows, a prefix, and views of their ``L`` and
        ``R``.  An overflowing draw is an infinity, as in the scalar walkers, with no warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            for n in self.walking:
                self._rows = self.zrow[:n], self.cursor[:n], self.scale[:n]
                yield n, self.L[:n], self.R[:n]

    def draw(self, arm: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """The walking rows' estimates of the slot on ``arm``: where ``draws``, its mean plus
        the noise of the next variate, which the cursor then passes; else its exact mean."""
        zrow, cursor, scale = self._rows
        noise = self.z[zrow, cursor] * draws  # zero where the slot does not draw
        noise *= scale
        cursor += draws
        return self.mean_at(arm, cursor.size) + noise

    def move(self, M: np.ndarray, down: np.ndarray, right: np.ndarray, up: np.ndarray) -> None:
        """Push the node of each ``down`` row and descend to ``(M, R)`` where ``right``, else to
        ``(L, M)``; pop the parent of each other ``up`` row below the root."""
        n = M.size
        l, r, depth = self.L[:n], self.R[:n], self.depth[:n]
        # Every row writes its node above its stack's top; the down rows then keep it.
        at = self.base[:n] + depth
        self.stack_l[at], self.stack_r[at] = l, r
        depth += down
        np.copyto(l, M, where=down & right)
        np.copyto(r, M, where=down & ~right)
        rows = (up & (depth > 0)).nonzero()[0]
        depth[rows] -= 1
        at = self.base[rows] + depth[rows]
        l[rows], r[rows] = self.stack_l[at], self.stack_r[at]


def _bracket_walk(K, t1: np.ndarray, tau, scale, mean_at: Callable, z: np.ndarray,
                  zrow: np.ndarray, cursor=0) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`explore`'s walk for every row at once, rows as in :class:`_Descent`.

    Row ``j`` walks the tree over ``K[j]`` augmented arms, whose sentinels
    are arms ``1`` and ``K[j]``, reading one variate per distinct
    non-sentinel arm of its node in slot order.  ``tau`` may be a scalar.
    Returns each row's final ``R`` and its cursor.
    """
    walk = _Descent(K, t1, scale, mean_at, z, zrow, cursor)
    K, tau = (np.broadcast_to(x, t1.shape) for x in (K, tau))
    for n, l, r in walk:
        tn = tau[:n]
        M = (l + r) // 2
        leaf = M == l  # slots l and m share one arm, hence one estimate
        # Sentinels are exact infinities: only l can be arm 1 and only r can be arm K.
        ml = walk.draw(l, l > 1)
        mm = np.where(leaf, ml, walk.draw(M, ~leaf))
        mr = walk.draw(r, r < K[:n])
        bracket = (ml <= tn) & (tn <= mr)
        walk.move(M, bracket, mm <= tn, ~bracket)
    return walk.R, walk.cursor


def explore_batch(problem: Problem, T: int, variates: VariateBlock) -> BatchResult:
    """:func:`explore` for every replication of ``variates`` in lockstep.

    Raises before reading any variate when the shape or budget rule fails.
    """
    work = _as_monotone_walk_problem(problem, True)
    width, t1, t2 = _explore_split(work.K, T)
    reps = variates.reps
    R, cursor = _bracket_walk(work.K, np.full(reps, t1), work.tau, work.sigma / math.sqrt(t2),
                              lambda arm, _: work.means[arm - 1], variates.prefix(width),
                              np.arange(reps))
    n = work.n_original
    return BatchResult(R - 1, t2 * cursor, n, band=(R - 1, n))


def naive_batch(problem: Problem, T: int, variates: VariateBlock) -> BatchResult:
    """:func:`naive` for every replication of ``variates`` in lockstep."""
    work = _as_monotone_walk_problem(problem, True)
    H, n = _naive_split(work.K, T)
    reps, tau = variates.reps, work.tau
    walk = _Descent(work.K, np.full(reps, H), work.sigma / math.sqrt(n),
                    lambda arm, _: work.means[arm - 1], variates.prefix(H), np.arange(reps))
    down, up = np.ones(reps, dtype=bool), np.zeros(reps, dtype=bool)  # no row backtracks
    for _, l, r in walk:
        M = (l + r) // 2
        est = walk.draw(M, M > 1)  # arm 1, the low sentinel, is free
        walk.move(M, down, (est <= tau) | (M == l), up)  # a leaf descends into its duplicate
    K, R = work.n_original, walk.R
    return BatchResult(R - 1, n * walk.cursor, K, band=(R - 1, K))


#: Most ``rows x T1`` elements one lockstep :func:`ctb` walk spans.  Its
#: ``rows x T1`` int64 arrays, at most three alive at once, then take at
#: most 2 MiB each; :func:`ctb_batch` splits its problems to stay under it.
#: A row block of :func:`uniform_batch` and of its scoring spans as many arms.
_CTB_ELEMENTS = 1 << 18


def _row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Consecutive slices of ``rows`` rows of ``width`` elements, each at most
    ``_CTB_ELEMENTS`` elements or one row."""
    step = max(1, _CTB_ELEMENTS // max(width, 1))
    return (slice(i, i + step) for i in range(0, rows, step))


def uniform_batch(problem: Problem, T: int, variates: VariateBlock) -> BatchResult:
    """:func:`uniform` for every replication of ``variates``, thresholded in row blocks."""
    K, n = _uniform_split(problem, T)
    z = variates.prefix(K)
    above = np.empty(z.shape, dtype=bool)
    for rows in _row_blocks(*z.shape):
        _above(_uniform_estimates(problem, n, z[rows]), problem.tau, out=above[rows])
    return BatchResult(None, np.full(variates.reps, n * K, dtype=np.int64), K, above=above)


def _slopes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:func:`~tbp.walks._slope` elementwise; a :class:`_Descent` step silences its overflows."""
    return np.where((lo == -math.inf) & (hi == -math.inf), -math.inf, hi - lo)


def _slope_walk(Ka: np.ndarray, t1: np.ndarray, tau: np.ndarray, scale: np.ndarray,
                mean_at: Callable, z: np.ndarray, zrow: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`gradexplore`'s walk for every row at once, rows as in :class:`_Descent`.

    Row ``j`` walks the concave-augmented tree over ``Ka[j]`` arms, where
    arms ``1``, ``Ka[j]`` and ``Ka[j] + 1`` are free ``-inf`` arms.  Returns
    the lower median of each row's appended arms (meaningless where it
    appended none), how many it appended, and its cursor.
    """
    walk = _Descent(Ka, t1, scale, mean_at, z, zrow)
    rows, steps = Ka.size, walk.steps
    count = np.zeros(rows, dtype=np.int64)
    appended = np.empty((rows, steps), dtype=np.int64)
    for n, l, r in walk:
        tn, ka = tau[:n], Ka[:n]
        M = (l + r) // 2
        inner = M > l  # not a leaf
        m_new = M > l + 1  # slot m's arm differs from slots l and l+1
        r_new = r > M + 1  # slot r's arm differs from slot m+1 (at a leaf, from l+1)
        # The slots {l, l+1, m, m+1, r, r+1} in order; a slot draws when its
        # arm is new and not free.  Arms only grow along the slots, so each
        # slot reads the variate after those its predecessors drew.
        e_l, e_l1, e_m, e_m1, e_r, e_r1 = [walk.draw(arm, draws) for arm, draws in (
            (l, l > 1), (l + 1, l + 1 < ka), (M, m_new), (M + 1, inner & (M + 1 < ka)),
            (r, r_new & (r < ka)), (r + 1, r + 1 < ka))]
        # A repeated arm shares the estimate of its first slot.
        e_m = np.where(m_new, e_m, np.where(inner, e_l1, e_l))
        e_m1 = np.where(inner, e_m1, e_l1)
        e_r = np.where(r_new, e_r, e_m1)
        hit_l, hit_m, hit_r = e_l > tn, e_m > tn, e_r > tn
        miss = ~(hit_l | hit_m | hit_r)
        hit = np.flatnonzero(~miss)
        appended[hit, count[hit]] = np.where(hit_l, l, np.where(hit_m, M, r))[hit]
        count[hit] += 1
        down = miss & (_slopes(e_l, e_l1) > 0) & (_slopes(e_r, e_r1) < 0)
        walk.move(M, down, _slopes(e_m, e_m1) >= 0, miss & ~down)
    appended[np.arange(steps) >= count[:, None]] = np.iinfo(np.int64).max
    appended.sort(axis=1)
    return appended[np.arange(rows), (count - 1) // 2], count, walk.cursor


def _splits_by_row(K: np.ndarray, T: int) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`budget_split` of every row's ``K``, one call per distinct value."""
    values, where = np.unique(K, return_inverse=True)
    t = np.array([budget_split(int(k), T) for k in values], dtype=np.int64).reshape(-1, 2)
    return t[where, 0], t[where, 1]


def _ctb_walk(problems: Sequence[Problem], splits: Sequence[Tuple[int, int]], T: int,
              z: np.ndarray) -> Iterator[BatchResult]:
    """One lockstep :func:`ctb` walk over every (problem, row of ``z``) pair."""
    reps, b = z.shape[0], T // 3
    # Rows run cell-major, cells sorted by slope-walk length, longest first.
    order = np.argsort([-t1 for t1, _ in splits], kind="stable")
    cells = [problems[c] for c in order]
    Kc = np.array([p.K for p in cells], dtype=np.int64)
    # Every cell's means, each framed by two -inf arms: the concave sentinels
    # and the free virtual arm past them, and the reversed search's low sentinel.
    framed = [np.full(2, -math.inf)]
    for p in cells:
        framed += [p.means, np.full(2, -math.inf)]
    flat = np.concatenate(framed)
    K = np.repeat(Kc, reps)
    first = np.repeat(2 + np.concatenate(([0], np.cumsum(Kc[:-1] + 2))), reps)  # arm 1's slot
    t1 = np.repeat([splits[c][0] for c in order], reps)
    n = np.repeat([splits[c][1] // 12 for c in order], reps)
    tau = np.repeat([p.tau for p in cells], reps)
    sigma = np.repeat([p.sigma for p in cells], reps)
    zrow = np.tile(np.arange(reps), len(cells))

    # Slope walk on the concave-augmented instance: arm a is original arm a - 1.
    median, count, cursor = _slope_walk(K + 2, t1, tau, sigma / np.sqrt(n),
                                        lambda arm, m: flat[first[:m] + arm - 2], z, zrow)
    spent = n * cursor
    # Too few appended arms declares every arm below: l = K + 1 > r = 0.
    go = np.flatnonzero(4 * count > t1)
    l, r, k_hat = K + 1, np.zeros_like(K), np.zeros_like(K)
    k_hat[go] = median[go] - 1

    def search(Kw: np.ndarray, base: np.ndarray, sign: int, at: np.ndarray) -> np.ndarray:
        # explore on the monotone-augmented sub-instance of rows ``go``, whose
        # arm a < Kw is original arm ``(base + sign * a) - first + 1``.
        t1w, t2w = _splits_by_row(Kw, b)
        p = np.argsort(-t1w, kind="stable")
        kw, bp = Kw[p], base[p]
        R, end = _bracket_walk(
            kw, t1w[p], tau[go][p], sigma[go][p] / np.sqrt(t2w[p]),
            lambda arm, m: np.where(arm == kw[:m], math.inf, flat[bp[:m] + sign * arm]),
            z, zrow[go][p], at[p])
        out = np.empty_like(R)
        out[p], cursor[go[p]] = R, end
        spent[go[p]] += t2w[p] * (end - at[p])
        return out

    kg, fg = k_hat[go], first[go]
    l[go] = search(kg + 2, fg - 2, 1, cursor[go]) - 1
    # The reversed segment means[k_hat - 1:][::-1]: arm a is original K + 2 - a.
    r[go] = K[go] + 2 - search(K[go] - kg + 3, fg + K[go] + 1, -1, cursor[go])

    for i in np.argsort(order):
        rows = slice(i * reps, (i + 1) * reps)
        yield BatchResult(k_hat[rows], spent[rows], int(Kc[i]), band=(l[rows], r[rows]))


def ctb_batch(problems: Sequence[Problem], T: int, variates: VariateBlock) -> Iterator[BatchResult]:
    """:func:`ctb` for every replication of ``variates`` on each problem, in lockstep.

    Each (problem, replication) pair is one row of one walk, so a sweep of
    many small cells walks as a single array.  A row carries its own ``K``,
    ``T1``, scales and variate cursor, and reads the slope walk's variates,
    then the increasing search's, then the decreasing search's, as
    :func:`ctb` draws them from one stream.  Means come from one flat array
    of the problems' means.  Problems are walked in groups of at most
    ``_CTB_ELEMENTS`` rows times ``T1``, each group when the results reach
    it.  Yields one :class:`BatchResult` per problem, in order.  Raises, on
    the call and before reading any variate, when any problem fails
    :func:`ctb`'s shape or budget rule.
    """
    splits = [ctb_check(p, T) for p in problems]
    return _ctb_groups(problems, splits, T, variates)


def _ctb_width(t1: int) -> int:
    """Prefix width ``12 T1`` of one :func:`ctb` replication whose slope walk takes ``t1``
    steps: each phase draws at most six (slope walk) or three variates per step, over at
    most ``T1`` steps, as the sub-instances are no longer than the instance."""
    return 12 * t1


def _ctb_groups(problems: Sequence[Problem], splits: Sequence[Tuple[int, int]], T: int,
                variates: VariateBlock) -> Iterator[BatchResult]:
    if not problems:
        return
    z = variates.prefix(max(_ctb_width(t1) for t1, _ in splits))
    start = 0
    while start < len(problems):
        stop, t1 = start + 1, splits[start][0]
        while (stop < len(problems) and (stop + 1 - start) * variates.reps
               * max(t1, splits[stop][0]) <= _CTB_ELEMENTS):
            t1 = max(t1, splits[stop][0])
            stop += 1
        yield from _ctb_walk(problems[start:stop], splits[start:stop], T, z)
        start = stop


class Algorithm(NamedTuple):
    """One entry of :data:`ALGORITHMS`; a part the algorithm lacks is ``None``."""

    #: ``(problem, T)``: raises what the walk raises before a draw, else returns the
    #: prefix width one replication of the walk reads
    check: Optional[Callable] = None
    lockstep: Optional[Callable] = None  # (problems, T, variates): a BatchResult per problem
    trace: Optional[Callable] = None  # (problem, T, rng): the scalar walk's Trajectory


#: Every algorithm by name.  The walkers are looked up in this module when
#: called, so patching ``algos.explore_batch`` and the like reaches every caller,
#: and the recorded walkers load only when a trace first calls one.
ALGORITHMS = {
    "explore": Algorithm(
        lambda p, T: _explore_split(_as_monotone_walk_problem(p, True).K, T)[0],
        lambda ps, T, v: (explore_batch(p, T, v) for p in ps),
        lambda p, T, rng: _this.explore(p, T, rng).trajectory),
    "dexplore": Algorithm(trace=lambda p, T, rng: _this.dexplore(p, T, rng).trajectory),
    "naive": Algorithm(
        lambda p, T: _naive_split(_as_monotone_walk_problem(p, True).K, T)[0],
        lambda ps, T, v: (naive_batch(p, T, v) for p in ps),
        lambda p, T, rng: _this.naive(p, T, rng).trajectory),
    "gradexplore": Algorithm(trace=lambda p, T, rng: _this.gradexplore(p, T, rng)[1]),
    "uniform": Algorithm(lambda p, T: _uniform_split(p, T)[0],
                         lambda ps, T, v: (uniform_batch(p, T, v) for p in ps)),
    "ctb": Algorithm(
        lambda p, T: _ctb_width(ctb_check(p, T)[0]),
        lambda ps, T, v: ctb_batch(ps, T, v),
        lambda p, T, rng: _this.ctb(p, T, rng).trajectory),
}
