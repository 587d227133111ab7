"""Sampling algorithms: tree searches, baselines, and trajectory diagnostics.

The tree searches walk the extended binary tree of :mod:`tbp.tree`, spending a
fixed per-arm budget at each visited node.  Estimates are per *arm*: when two
slots of a node reference the same arm (leaves have ``M == L``), they share
one estimate.  Sentinel arms return their exact value at zero cost, so budget
is only charged for real arms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .env import (
    Classification,
    Problem,
    RngStream,
    ShapeClass,
    VariateBlock,
    augment,
    gaps,
    sample_mean,
    shape_check,
)
from .tree import Node, children, is_leaf, max_depth, parent, root

__all__ = [
    "Action",
    "StepRecord",
    "Trajectory",
    "AlgoResult",
    "BatchResult",
    "GradState",
    "BudgetError",
    "ShapeError",
    "budget_split",
    "explore",
    "dexplore",
    "gradexplore",
    "ctb",
    "ctb_check",
    "naive",
    "uniform",
    "explore_batch",
    "naive_batch",
    "uniform_batch",
    "ctb_batch",
    "distance_series",
    "favorable_series",
]


class BudgetError(ValueError):
    """The sampling budget is too small for the requested algorithm."""


class ShapeError(ValueError):
    """The instance violates the algorithm's shape precondition."""


class Action(Enum):
    LEFT = "left"
    RIGHT = "right"
    PARENT = "parent"
    STAY_APPEND = "stay_append"
    DUP_DESCEND = "dup_descend"


@dataclass(frozen=True, eq=False)
class StepRecord:
    """One walk step: the node visited, its slot estimates, and the move made."""

    node: Node
    slot_means: Dict[str, float]
    action: Action
    budget_spent: int
    appended_arm: Optional[int] = None


@dataclass(frozen=True, eq=False)
class Trajectory:
    steps: Tuple[StepRecord, ...]
    t1: int
    t2: int
    final_node: Node


@dataclass(frozen=True, eq=False)
class AlgoResult:
    """Outcome of one algorithm run.

    ``k_hat`` is reported in original (de-augmented) arm indices: for the
    increasing searches it is the crossing index in ``1..K+1`` (``K + 1``
    meaning every arm is below threshold), for :func:`dexplore` the last
    above-threshold index in ``0..K``, and for :func:`ctb` the arm picked by
    the slope walk.  ``problem`` is the instance the recorded walk actually
    ran on (augmented, and reversed for :func:`dexplore`), kept for
    trajectory diagnostics.
    """

    k_hat: Optional[int]
    q_hat: Classification
    total_budget: int
    trajectory: Optional[Trajectory]
    problem: Optional[Problem] = None


@dataclass(frozen=True, eq=False)
class BatchResult:
    """Outcome of one lockstep run over a :class:`VariateBlock` of replications.

    Row ``j`` is replication ``start + j`` and holds what the scalar walker
    returns on a fresh ``RngStream(seed, start + j)``: ``k_hat`` (``None``
    for :func:`uniform_batch`; ``0`` in a :func:`ctb_batch` row where
    :func:`ctb` returns ``None``), the ``+/-1`` labels of the original arms,
    and the budget spent.
    """

    k_hat: Optional[np.ndarray]
    labels: np.ndarray
    total_budget: np.ndarray


@dataclass(frozen=True, eq=False)
class GradState:
    """Arms appended by the slope walk, plus how many are truly above threshold."""

    arms: Tuple[int, ...]
    above_count: int


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


def _naive_split(K: int, T: int) -> Tuple[int, int]:
    """Walk length ``H = max_depth(K)`` and per-step draws ``floor(T / H)`` of :func:`naive`."""
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


def _uniform_split(K: int, T: int) -> int:
    """Per-arm draws ``floor(T / K)`` of :func:`uniform`."""
    if T < K:
        raise BudgetError(f"budget {T} too small: need T >= K = {K}")
    return T // K


def _real_arms(problem: Problem) -> np.ndarray:
    """Mask of the arms that cost budget: every arm but the sentinels."""
    real = np.ones(problem.K, dtype=bool)
    if problem.sentinels is not None:
        real[[0, -1]] = False
    return real


def _estimate(problem: Problem, arm: int, n: int, rng: RngStream) -> Tuple[float, int]:
    # Index K+1 is the virtual arm past the augmented range: a Dirac at -inf.
    if arm == problem.K + 1:
        return -math.inf, 0
    return sample_mean(problem, arm, n, rng)


def _sample_slots(
    problem: Problem, slot_arms: List[Tuple[str, int]], n: int, rng: RngStream
) -> Tuple[Dict[str, float], Dict[int, float], int]:
    """Sample each distinct arm once (slot order), sharing estimates across slots."""
    by_arm: Dict[int, float] = {}
    spent = 0
    for _, arm in slot_arms:
        if arm not in by_arm:
            est, cost = _estimate(problem, arm, n, rng)
            by_arm[arm] = est
            spent += cost
    slot_means = {slot: by_arm[arm] for slot, arm in slot_arms}
    return slot_means, by_arm, spent


def _as_monotone_walk_problem(problem: Problem, check_shape: bool) -> Problem:
    work = problem if problem.sentinels is not None else augment(problem, ShapeClass.MONOTONE)
    if check_shape and not shape_check(work, ShapeClass.RELAXED_MONOTONE):
        raise ShapeError("means are not relaxed-monotone around the threshold")
    return work


def _crossing_labels(work: Problem, k_hat_aug):
    """Crossing in original indices (``1..K+1``) and its labels; broadcasts over a row vector."""
    crossing = k_hat_aug - 1
    arms = np.arange(1, work.n_original + 1)
    return crossing, np.where(arms >= np.expand_dims(crossing, -1), 1, -1)


def explore(problem: Problem, T: int, rng: RngStream, *, check_shape: bool = True) -> AlgoResult:
    """Backtracking binary search for the point the means cross the threshold.

    ``problem`` may be given raw (it is then augmented with ``-inf``/``+inf``
    sentinels) or already augmented.  The walk runs ``T1`` steps from the
    root, sampling each distinct arm of the current node ``T2`` times, and
    moves to the parent when the threshold falls outside the sampled bracket,
    otherwise toward the child whose bracket contains it; the right branch
    wins ties.  The final node's right index is the estimated crossing.
    """
    work = _as_monotone_walk_problem(problem, check_shape)
    tau = work.tau
    t1, t2 = budget_split(work.K, T)
    v = root(work.K)
    steps: List[StepRecord] = []
    total = 0
    for _ in range(t1):
        slot_arms = [("l", v.left), ("m", v.mid), ("r", v.right)]
        slot_means, _, spent = _sample_slots(work, slot_arms, t2, rng)
        total += spent
        ml, mm, mr = slot_means["l"], slot_means["m"], slot_means["r"]
        if not (ml <= tau <= mr):
            nxt, act = parent(v), Action.PARENT
        elif mm <= tau <= mr:
            nxt = children(v)[1]
            act = Action.DUP_DESCEND if is_leaf(v) else Action.RIGHT
        elif ml <= tau <= mm:
            lc = children(v)[0]
            if lc is None:  # unreachable: leaf slots l and m share one estimate
                raise RuntimeError("left child requested at a leaf")
            nxt, act = lc, Action.LEFT
        else:  # unreachable: the three tests are exhaustive
            raise RuntimeError("no branch matched")
        steps.append(StepRecord(v, slot_means, act, spent))
        v = nxt
    k_hat, labels = _crossing_labels(work, v.right)
    return AlgoResult(k_hat, Classification(labels), total, Trajectory(tuple(steps), t1, t2, v), work)


def dexplore(problem: Problem, T: int, rng: RngStream, *, check_shape: bool = True) -> AlgoResult:
    """:func:`explore` for non-increasing means, via the index reversal ``k -> K + 1 - k``.

    Takes the raw (un-augmented) problem; ``k_hat`` is mapped back to the last
    above-threshold index (``0`` when every arm is below).  The attached
    trajectory is the walk on the reversed, augmented instance.
    """
    if problem.sentinels is not None:
        raise ValueError("dexplore expects an un-augmented problem")
    reversed_problem = Problem(problem.means[::-1], problem.sigma, problem.tau)
    res = explore(reversed_problem, T, rng, check_shape=check_shape)
    K = problem.K
    last_above = K + 1 - res.k_hat
    q_hat = Classification(res.q_hat.labels[::-1])
    return AlgoResult(last_above, q_hat, res.total_budget, res.trajectory, res.problem)


def _slope(lo: float, hi: float) -> float:
    # Right-boundary convention: the slope between two -inf sentinels is
    # decreasing, keeping the bracket test valid at right-spine nodes.
    if lo == -math.inf and hi == -math.inf:
        return -math.inf
    return hi - lo


def gradexplore(
    problem: Problem, budget: int, rng: RngStream, *, check_shape: bool = True
) -> Tuple[GradState, Trajectory, int]:
    """Slope-guided walk collecting arms whose sampled mean exceeds the threshold.

    Expects a concave problem (augmented with two ``-inf`` sentinels, or raw,
    in which case it augments).  Each step samples the six arms
    ``{l, l+1, m, m+1, r, r+1}`` with ``floor(T2 / 12)`` draws per distinct
    arm, where ``(T1, T2) = budget_split(K, 3 * budget)``; index ``K + 1`` is
    a free Dirac at ``-inf``.  If a slot estimate clears the threshold, the
    lowest such slot's arm is appended and the walk stays put.  Otherwise it
    backtracks unless the left slope is positive and the right negative, and
    descends by the sign of the middle slope.
    """
    if problem.sentinels is None:
        problem = augment(problem, ShapeClass.CONCAVE)
    if check_shape and not shape_check(problem, ShapeClass.CONCAVE):
        raise ShapeError("means are not concave")
    tau = problem.tau
    t1, t2 = _grad_split(problem.K, budget)
    n = max(1, t2 // 12)
    v = root(problem.K)
    steps: List[StepRecord] = []
    appended: List[int] = []
    total = 0
    for _ in range(t1):
        slot_arms = [
            ("l", v.left),
            ("l+1", v.left + 1),
            ("m", v.mid),
            ("m+1", v.mid + 1),
            ("r", v.right),
            ("r+1", v.right + 1),
        ]
        slot_means, by_arm, spent = _sample_slots(problem, slot_arms, n, rng)
        total += spent
        hit = next(
            (arm for _, arm in (("l", v.left), ("m", v.mid), ("r", v.right)) if by_arm[arm] > tau),
            None,
        )
        if hit is not None:
            appended.append(hit)
            steps.append(StepRecord(v, slot_means, Action.STAY_APPEND, spent, appended_arm=hit))
            continue
        s_l = _slope(by_arm[v.left], by_arm[v.left + 1])
        s_m = _slope(by_arm[v.mid], by_arm[v.mid + 1])
        s_r = _slope(by_arm[v.right], by_arm[v.right + 1])
        if not (s_l > 0 and s_r < 0):
            nxt, act = parent(v), Action.PARENT
        elif s_m >= 0:
            nxt = children(v)[1]
            act = Action.DUP_DESCEND if is_leaf(v) else Action.RIGHT
        else:
            lc = children(v)[0]
            if lc is None:  # unreachable: leaf slopes s_l and s_m coincide
                raise RuntimeError("left child requested at a leaf")
            nxt, act = lc, Action.LEFT
        steps.append(StepRecord(v, slot_means, act, spent))
        v = nxt
    above = sum(1 for arm in appended if problem.mean(arm) > tau)
    state = GradState(tuple(appended), above)
    return state, Trajectory(tuple(steps), t1, t2, v), total


def _lower_median(values: Tuple[int, ...]) -> int:
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def ctb_check(problem: Problem, T: int, *, check_shape: bool = True) -> Tuple[int, int]:
    """Raise what :func:`ctb` raises before its first draw; else the slope walk's ``(T1, T2)``."""
    if problem.sentinels is not None:
        raise ValueError("ctb expects an un-augmented problem")
    if check_shape and not shape_check(problem, ShapeClass.CONCAVE):
        raise ShapeError("means are not concave")
    return _grad_split(problem.K + 2, T // 3)


def ctb(problem: Problem, T: int, rng: RngStream, *, check_shape: bool = True) -> AlgoResult:
    """Concave thresholding: slope walk, then two directional crossing searches.

    Splits the budget in three.  :func:`gradexplore` proposes an arm above the
    threshold; if its list stays short (``<= T1 / 4``) every arm is declared
    below.  Otherwise the lower median ``k_hat`` splits the problem into the
    increasing segment ``[1, k_hat]`` (searched by :func:`explore`) and the
    decreasing segment ``[k_hat, K]`` (searched by :func:`dexplore`), and arm
    ``k`` is labeled above iff ``l <= k <= r`` for the two crossings found.
    """
    ctb_check(problem, T, check_shape=check_shape)
    K = problem.K
    b = T // 3
    state, traj, spent = gradexplore(problem, b, rng, check_shape=False)
    if 4 * len(state.arms) <= traj.t1:
        q_hat = Classification(np.full(K, -1, dtype=np.int64))
        return AlgoResult(None, q_hat, spent, traj, augment(problem, ShapeClass.CONCAVE))
    k_aug = _lower_median(state.arms)
    k_hat = k_aug - 1  # appended arms are never sentinels
    left = Problem(problem.means[:k_hat], problem.sigma, problem.tau)
    right = Problem(problem.means[k_hat - 1 :], problem.sigma, problem.tau)
    res_l = explore(left, b, rng, check_shape=False)
    res_r = dexplore(right, b, rng, check_shape=False)
    l = res_l.k_hat
    r = k_hat - 1 + res_r.k_hat
    arms = np.arange(1, K + 1)
    q_hat = Classification(np.where((arms >= l) & (arms <= r), 1, -1))
    total = spent + res_l.total_budget + res_r.total_budget
    return AlgoResult(k_hat, q_hat, total, traj, augment(problem, ShapeClass.CONCAVE))


def naive(problem: Problem, T: int, rng: RngStream, *, check_shape: bool = True) -> AlgoResult:
    """Binary search without corrections: descend on the middle arm's estimate.

    Walks ``H = max_depth(K)`` steps from the root, sampling only the middle
    arm ``floor(T / H)`` times per step, going right when its estimate is at
    or below the threshold.  Leaves absorb the remaining steps through their
    duplicate chain.
    """
    work = _as_monotone_walk_problem(problem, check_shape)
    tau = work.tau
    H, n = _naive_split(work.K, T)
    v = root(work.K)
    steps: List[StepRecord] = []
    total = 0
    for _ in range(H):
        est, spent = _estimate(work, v.mid, n, rng)
        total += spent
        if is_leaf(v):
            nxt, act = children(v)[1], Action.DUP_DESCEND
        elif est <= tau:
            nxt, act = children(v)[1], Action.RIGHT
        else:
            nxt, act = children(v)[0], Action.LEFT
        steps.append(StepRecord(v, {"m": est}, act, spent))
        v = nxt
    k_hat, labels = _crossing_labels(work, v.right)
    return AlgoResult(k_hat, Classification(labels), total, Trajectory(tuple(steps), H, n, v), work)


def uniform(problem: Problem, T: int, rng: RngStream) -> AlgoResult:
    """Sample every arm ``floor(T / K)`` times and threshold the sample means."""
    n = _uniform_split(problem.K, T)
    real = _real_arms(problem)
    est = problem.means.copy()
    draws = rng.generator.standard_normal(int(real.sum()))
    est[real] = est[real] + (problem.sigma / math.sqrt(n)) * draws
    labels = np.where(est >= problem.tau, 1, -1)
    if problem.sentinels is not None:
        labels = labels[1:-1]
    total = n * int(real.sum())
    return AlgoResult(None, Classification(labels), total, None, problem)


def _walking(t1: np.ndarray) -> np.ndarray:
    """Rows still walking at each step, for ``t1`` sorted longest first: they are a prefix."""
    return np.searchsorted(-t1, -np.arange(int(t1[0]) if t1.size else 0), side="left")


def _bracket_walk(K, t1: np.ndarray, tau, scale, mean_at: Callable, z: np.ndarray,
                  zrow: np.ndarray, cursor: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`explore`'s walk for every row at once.

    Row ``r`` walks the tree over ``K[r]`` augmented arms, whose sentinels
    are arms ``1`` and ``K[r]``, for ``t1[r]`` steps; ``t1`` is sorted longest
    first.  It reads its variates from ``z[zrow[r]]`` starting at
    ``cursor[r]``, one per distinct non-sentinel arm of its node in slot
    order, and ``mean_at(arm, n)`` gives the true means of ``arm`` for rows
    ``0..n``.  ``K``, ``tau`` and ``scale`` may be scalars.  A leaf's
    duplicate descent pushes the same ``(L, R)``; ``PARENT`` pops, and the
    root stays put.  Returns each row's final ``R`` and its cursor.
    """
    rows = cursor.size
    K, tau, scale = (np.broadcast_to(x, (rows,)) for x in (K, tau, scale))
    L = np.ones(rows, dtype=np.int64)
    R = K.astype(np.int64)
    depth = np.zeros(rows, dtype=np.int64)
    cursor = cursor.copy()
    steps = int(t1[0]) if rows else 0
    stack_l = np.empty((rows, steps), dtype=np.int64)
    stack_r = np.empty((rows, steps), dtype=np.int64)
    for n in _walking(t1):
        # Views of the walking rows: writes through them update the state.
        l, r, c, zr, sc, tn = L[:n], R[:n], cursor[:n], zrow[:n], scale[:n], tau[:n]
        M = (l + r) // 2
        leaf = M == l  # slots l and m share one arm, hence one estimate
        # Sentinels are exact infinities, unmoved by the variate they skip;
        # only l can be arm 1 and only r can be arm K.
        ml = mean_at(l, n) + sc * z[zr, c]
        c += l > 1
        mm = np.where(leaf, ml, mean_at(M, n) + sc * z[zr, c])
        c += ~leaf
        mr = mean_at(r, n) + sc * z[zr, c]
        c += r < K[:n]
        bracket = (ml <= tn) & (tn <= mr)
        right = bracket & (mm <= tn)
        down = np.flatnonzero(bracket)
        stack_l[down, depth[down]] = l[down]
        stack_r[down, depth[down]] = r[down]
        depth[down] += 1
        np.copyto(l, M, where=right)
        np.copyto(r, M, where=bracket & ~right)
        up = np.flatnonzero(~bracket & (depth[:n] > 0))
        depth[up] -= 1
        l[up] = stack_l[up, depth[up]]
        r[up] = stack_r[up, depth[up]]
    return R, cursor


def explore_batch(
    problem: Problem, T: int, variates: VariateBlock, *, check_shape: bool = True
) -> BatchResult:
    """:func:`explore` for every replication of ``variates`` in lockstep.

    Raises before reading any variate when the shape or budget rule fails.
    """
    work = _as_monotone_walk_problem(problem, check_shape)
    t1, t2 = budget_split(work.K, T)
    z = variates.prefix(3 * t1)
    reps = variates.reps
    R, cursor = _bracket_walk(work.K, np.full(reps, t1), work.tau, work.sigma / math.sqrt(t2),
                              lambda arm, n: work.means[arm - 1], z, np.arange(reps),
                              np.zeros(reps, dtype=np.int64))
    k_hat, labels = _crossing_labels(work, R)
    return BatchResult(k_hat, labels, t2 * cursor)


def naive_batch(
    problem: Problem, T: int, variates: VariateBlock, *, check_shape: bool = True
) -> BatchResult:
    """:func:`naive` for every replication of ``variates`` in lockstep."""
    work = _as_monotone_walk_problem(problem, check_shape)
    H, n = _naive_split(work.K, T)
    z = variates.prefix(H)
    reps, tau = variates.reps, work.tau
    rows = np.arange(reps)
    scale = work.sigma / math.sqrt(n)
    L = np.ones(reps, dtype=np.int64)
    R = np.full(reps, work.K, dtype=np.int64)
    cursor = np.zeros(reps, dtype=np.int64)
    for _ in range(H):
        M = (L + R) // 2
        est = work.means[M - 1] + scale * z[rows, cursor]
        cursor += M > 1  # arm 1, the low sentinel, is free
        inner = R > L + 1  # a leaf descends into its own duplicate
        L = np.where(inner & (est <= tau), M, L)
        R = np.where(inner & (est > tau), M, R)
    k_hat, labels = _crossing_labels(work, R)
    return BatchResult(k_hat, labels, n * cursor)


def uniform_batch(problem: Problem, T: int, variates: VariateBlock) -> BatchResult:
    """:func:`uniform` for every replication of ``variates`` at once."""
    n = _uniform_split(problem.K, T)
    real = _real_arms(problem)
    n_real = int(real.sum())
    z = variates.prefix(n_real)
    est = np.tile(problem.means, (variates.reps, 1))
    est[:, real] = problem.means[real] + (problem.sigma / math.sqrt(n)) * z
    labels = np.where(est >= problem.tau, 1, -1)
    if problem.sentinels is not None:
        labels = labels[:, 1:-1]
    return BatchResult(None, labels, np.full(variates.reps, n * n_real, dtype=np.int64))


#: Most ``rows x T1`` elements one lockstep :func:`ctb` walk spans.  Its
#: ``(rows, T1)`` int64 arrays, at most three alive at once, then take at
#: most 2 MiB each; :func:`ctb_batch` splits its problems to stay under it.
_CTB_ELEMENTS = 1 << 18


def _slopes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:func:`_slope` elementwise."""
    with np.errstate(invalid="ignore"):
        return np.where((lo == -math.inf) & (hi == -math.inf), -math.inf, hi - lo)


def _slope_walk(Ka: np.ndarray, t1: np.ndarray, tau: np.ndarray, scale: np.ndarray,
                mean_at: Callable, z: np.ndarray, zrow: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`gradexplore`'s walk for every row at once, rows as in :func:`_bracket_walk`.

    Row ``r`` walks the concave-augmented tree over ``Ka[r]`` arms, where
    arms ``1``, ``Ka[r]`` and ``Ka[r] + 1`` are free ``-inf`` arms.  Returns
    the lower median of each row's appended arms (meaningless where it
    appended none), how many it appended, and its cursor.
    """
    rows = Ka.size
    L = np.ones(rows, dtype=np.int64)
    R = Ka.copy()
    depth = np.zeros(rows, dtype=np.int64)
    cursor = np.zeros(rows, dtype=np.int64)
    count = np.zeros(rows, dtype=np.int64)
    steps = int(t1[0]) if rows else 0
    stack_l = np.empty((rows, steps), dtype=np.int64)
    stack_r = np.empty((rows, steps), dtype=np.int64)
    appended = np.empty((rows, steps), dtype=np.int64)
    for n in _walking(t1):
        l, r, c, zr, sc, tn, ka = L[:n], R[:n], cursor[:n], zrow[:n], scale[:n], tau[:n], Ka[:n]
        M = (l + r) // 2
        inner = M > l  # not a leaf
        m_new = M > l + 1  # slot m's arm differs from slots l and l+1
        r_new = r > M + 1  # slot r's arm differs from slot m+1 (at a leaf, from l+1)
        # The slots {l, l+1, m, m+1, r, r+1} in order; a slot draws when its
        # arm is new and not free.  Arms only grow along the slots, so each
        # slot reads the variate after those its predecessors drew.
        est = []
        for arm, draws in ((l, l > 1), (l + 1, l + 1 < ka), (M, m_new),
                           (M + 1, inner & (M + 1 < ka)), (r, r_new & (r < ka)),
                           (r + 1, r + 1 < ka)):
            est.append(mean_at(arm, n) + sc * z[zr, c])
            c += draws
        e_l, e_l1, e_m, e_m1, e_r, e_r1 = est
        # A repeated arm shares the estimate of its first slot.
        e_m = np.where(m_new, e_m, np.where(inner, e_l1, e_l))
        e_m1 = np.where(inner, e_m1, e_l1)
        e_r = np.where(r_new, e_r, e_m1)
        hit_l, hit_m, hit_r = e_l > tn, e_m > tn, e_r > tn
        hit = np.flatnonzero(hit_l | hit_m | hit_r)
        appended[hit, count[hit]] = np.where(hit_l, l, np.where(hit_m, M, r))[hit]
        count[hit] += 1
        s_m = _slopes(e_m, e_m1)
        walk = ~(hit_l | hit_m | hit_r)
        down = walk & (_slopes(e_l, e_l1) > 0) & (_slopes(e_r, e_r1) < 0)
        right = down & (s_m >= 0)
        rows_down = np.flatnonzero(down)
        stack_l[rows_down, depth[rows_down]] = l[rows_down]
        stack_r[rows_down, depth[rows_down]] = r[rows_down]
        depth[rows_down] += 1
        np.copyto(l, M, where=right)
        np.copyto(r, M, where=down & ~right)
        up = np.flatnonzero(walk & ~down & (depth[:n] > 0))
        depth[up] -= 1
        l[up] = stack_l[up, depth[up]]
        r[up] = stack_r[up, depth[up]]
    appended[np.arange(steps) >= count[:, None]] = np.iinfo(np.int64).max
    appended.sort(axis=1)
    return appended[np.arange(rows), (count - 1) // 2], count, cursor


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

    # Labels are built per cell as it is consumed: one cell's at a time.
    for i in np.argsort(order):
        rows = slice(i * reps, (i + 1) * reps)
        arms = np.arange(1, Kc[i] + 1)
        labels = np.where((arms >= l[rows, None]) & (arms <= r[rows, None]), 1, -1)
        yield BatchResult(k_hat[rows], labels, spent[rows])


def ctb_batch(problems: Sequence[Problem], T: int, variates: VariateBlock, *,
              check_shape: bool = True) -> Iterator[BatchResult]:
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
    splits = [ctb_check(p, T, check_shape=check_shape) for p in problems]
    return _ctb_groups(problems, splits, T, variates)


def _ctb_groups(problems: Sequence[Problem], splits: Sequence[Tuple[int, int]], T: int,
                variates: VariateBlock) -> Iterator[BatchResult]:
    if not problems:
        return
    # Each phase draws at most six (slope walk) or three variates per step,
    # over at most T1 steps: the sub-instances are no longer than the instance.
    z = variates.prefix(12 * max(t1 for t1, _ in splits))
    start = 0
    while start < len(problems):
        stop, t1 = start + 1, splits[start][0]
        while (stop < len(problems) and (stop + 1 - start) * variates.reps
               * max(t1, splits[stop][0]) <= _CTB_ELEMENTS):
            t1 = max(t1, splits[stop][0])
            stop += 1
        yield from _ctb_walk(problems[start:stop], splits[start:stop], T, z)
        start = stop


def _slot_arm(node: Node, slot: str) -> int:
    base = {"l": node.left, "m": node.mid, "r": node.right}
    if slot.endswith("+1"):
        return base[slot[0]] + 1
    return base[slot]


def _node_sequence(trajectory: Trajectory) -> List[Node]:
    return [rec.node for rec in trajectory.steps] + [trajectory.final_node]


def distance_series(
    trajectory: Trajectory, problem: Problem, mode: ShapeClass, *, max_arms: int = 2048
) -> np.ndarray:
    """Tree-distance potential from each visited node to the target region.

    ``problem`` must be the instance the walk ran on (``AlgoResult.problem``).
    In Monotone mode the target is the unique leaf bracketing the threshold
    and the potential may go negative along its duplicate chain; in Concave
    mode the target is the set of nodes holding an above-threshold arm and
    the potential is clamped at zero inside it.  The returned vector covers
    the ``T1`` visited nodes plus the terminal one.
    """
    if problem.K > max_arms:
        raise ValueError(f"K = {problem.K} exceeds the exhaustive-search cap {max_arms}")
    means, tau = problem.means, problem.tau
    nodes = _node_sequence(trajectory)

    if mode is ShapeClass.MONOTONE:
        lo, hi = means[:-1], means[1:]
        bracket_pairs = np.flatnonzero((lo <= tau) & (tau <= hi))
        if bracket_pairs.size != 1:
            raise ValueError("no unique threshold-bracketing leaf")

        def brackets(node: Node) -> bool:
            return bool(means[node.left - 1] <= tau <= means[node.right - 1])

        v = root(problem.K)
        while not is_leaf(v):
            cands = [c for c in children(v) if c is not None and brackets(c)]
            if len(cands) != 1:
                raise ValueError("bracket descent is ambiguous")
            v = cands[0]
        target_depth = v.depth

        def w_depth(node: Node) -> int:
            for w in (node, *reversed(node.path)):
                if brackets(w):
                    return w.depth
            raise RuntimeError("no bracketing ancestor (root should bracket)")

        out = [(n.depth - w_depth(n)) + (target_depth - w_depth(n)) for n in nodes]
        return np.asarray(out, dtype=np.int64)

    if mode is ShapeClass.CONCAVE:
        above = np.flatnonzero(means > tau)
        if above.size == 0:
            raise ValueError("no arm above the threshold")
        a, b = int(above[0]) + 1, int(above[-1]) + 1

        def in_region(node: Node) -> bool:
            return any(means[arm - 1] > tau for arm in node.triple)

        def overlaps(node: Node) -> bool:
            return node.left <= b and a <= node.right

        z = root(problem.K)
        while not in_region(z):
            cands = [c for c in children(z) if c is not None and overlaps(c)]
            if len(cands) != 1:
                raise RuntimeError("region descent is ambiguous")
            z = cands[0]
        z_depth = z.depth

        def w_depth(node: Node) -> int:
            for w in (node, *reversed(node.path)):
                if overlaps(w):
                    return w.depth
            raise RuntimeError("no overlapping ancestor (root should overlap)")

        out = [(n.depth - w_depth(n)) + max(z_depth - w_depth(n), 0) for n in nodes]
        return np.asarray(out, dtype=np.int64)

    raise ValueError("mode must be Monotone or Concave")


def favorable_series(trajectory: Trajectory, problem: Problem) -> np.ndarray:
    """Per-step indicator that every sampled slot is within ``delta_min`` of truth.

    Sentinel slots (and the virtual arm past the augmented range) are exact
    and always count as favorable.
    """
    delta_min = gaps(problem).delta_min
    out = []
    for rec in trajectory.steps:
        ok = True
        for slot, est in rec.slot_means.items():
            arm = _slot_arm(rec.node, slot)
            if arm > problem.K or problem.is_sentinel(arm):
                continue
            if abs(est - problem.mean(arm)) > delta_min:
                ok = False
                break
        out.append(ok)
    return np.asarray(out, dtype=bool)
