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
from typing import Dict, List, Optional, Tuple

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
    "naive",
    "uniform",
    "explore_batch",
    "naive_batch",
    "uniform_batch",
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
    for :func:`uniform_batch`), the ``+/-1`` labels of the original arms, and
    the budget spent.
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
    t1, t2 = budget_split(problem.K, 3 * budget)
    if t2 < 12:
        raise BudgetError(f"budget {budget} too small: need floor(budget / T1) >= 12")
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


def ctb(problem: Problem, T: int, rng: RngStream, *, check_shape: bool = True) -> AlgoResult:
    """Concave thresholding: slope walk, then two directional crossing searches.

    Splits the budget in three.  :func:`gradexplore` proposes an arm above the
    threshold; if its list stays short (``<= T1 / 4``) every arm is declared
    below.  Otherwise the lower median ``k_hat`` splits the problem into the
    increasing segment ``[1, k_hat]`` (searched by :func:`explore`) and the
    decreasing segment ``[k_hat, K]`` (searched by :func:`dexplore`), and arm
    ``k`` is labeled above iff ``l <= k <= r`` for the two crossings found.
    """
    if problem.sentinels is not None:
        raise ValueError("ctb expects an un-augmented problem")
    if check_shape and not shape_check(problem, ShapeClass.CONCAVE):
        raise ShapeError("means are not concave")
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


def explore_batch(
    problem: Problem, T: int, variates: VariateBlock, *, check_shape: bool = True
) -> BatchResult:
    """:func:`explore` for every replication of ``variates`` in lockstep.

    The walk state is a few ``(reps,)`` arrays: the bracket ``L, R`` (with
    ``M = (L + R) // 2``), the depth, and each row's read cursor into its
    variates, plus an ancestor stack.  A row consumes one variate per
    distinct non-sentinel arm of its node, in slot order, as the scalar walk
    does.  A leaf's duplicate descent pushes the same ``(L, R)``; ``PARENT``
    pops, and the root stays put.  Raises before reading any variate when
    the shape or budget rule fails.
    """
    work = _as_monotone_walk_problem(problem, check_shape)
    t1, t2 = budget_split(work.K, T)
    z = variates.prefix(3 * t1)
    reps, K, tau = variates.reps, work.K, work.tau
    rows = np.arange(reps)
    scale = work.sigma / math.sqrt(t2)
    L = np.ones(reps, dtype=np.int64)
    R = np.full(reps, K, dtype=np.int64)
    depth = np.zeros(reps, dtype=np.int64)
    cursor = np.zeros(reps, dtype=np.int64)
    stack_l = np.empty((reps, t1), dtype=np.int64)
    stack_r = np.empty((reps, t1), dtype=np.int64)

    def sample(arm: np.ndarray, drawn: np.ndarray) -> np.ndarray:
        # Sentinels are exact infinities, unmoved by the variate they skip.
        nonlocal cursor
        est = work.means[arm - 1] + scale * z[rows, cursor]
        cursor = cursor + drawn
        return est

    for _ in range(t1):
        M = (L + R) // 2
        leaf = M == L  # slots l and m share one arm, hence one estimate
        # Arms 1 and K are the sentinels; only l can be 1 and only r can be K.
        ml = sample(L, L > 1)
        mm = np.where(leaf, ml, sample(M, ~leaf))
        mr = sample(R, R < K)
        bracket = (ml <= tau) & (tau <= mr)
        right = bracket & (mm <= tau)
        down = np.flatnonzero(bracket)
        stack_l[down, depth[down]] = L[down]
        stack_r[down, depth[down]] = R[down]
        depth[down] += 1
        L = np.where(right, M, L)
        R = np.where(bracket & ~right, M, R)
        up = np.flatnonzero(~bracket & (depth > 0))
        depth[up] -= 1
        L[up] = stack_l[up, depth[up]]
        R[up] = stack_r[up, depth[up]]
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
