"""Sampling algorithms: tree searches, baselines, and their recorded trajectories.

The tree searches walk the extended binary tree of :mod:`tbp.tree`, spending a
fixed per-arm budget at each visited node.  Estimates are per *arm*: when two
slots of a node reference the same arm (leaves have ``M == L``), they share
one estimate.  Sentinel arms return their exact value at zero cost, so budget
is only charged for real arms.  The trajectory diagnostics live in
:mod:`tbp.diagnostics` and are importable from here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .diagnostics import distance_series, favorable_series
from .env import (
    Classification,
    Problem,
    RngStream,
    ShapeClass,
    VariateBlock,
    augment,
    shape_check,
)
from .tree import Node, NodeViews, max_depth

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
    "Algorithm",
    "ALGORITHMS",
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
    """One walk step: the node visited, its slot estimates, and the move made.

    ``slot_means`` maps each slot (``"l"``, ``"m"``, ``"r"``, and ``"l+1"``,
    ``"m+1"``, ``"r+1"`` for :func:`gradexplore`) to its arm's estimate;
    slots on one arm share one estimate.  ``budget_spent`` counts the draws
    of the step, and ``appended_arm`` is the arm :func:`gradexplore`
    appended, if any.  A :class:`Trajectory` builds these views of its
    columns on demand.
    """

    node: Node
    slot_means: Dict[str, float]
    action: Action
    budget_spent: int
    appended_arm: Optional[int] = None


class _Slots(tuple):
    """The names of a walk's estimate columns, one per slot of its node."""

    @cached_property
    def arm_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per slot, the column of the node's ``(l, m, r)`` its arm is in, and ``1`` for a
        ``"+1"`` slot."""
        return (np.array(["lmr".index(s[0]) for s in self], dtype=np.int64),
                np.array([s.endswith("+1") for s in self], dtype=np.int64))


#: The slots of explore, gradexplore and naive.
_LMR, _MID = _Slots(("l", "m", "r")), _Slots(("m",))
_GRAD_SLOTS = _Slots(("l", "l+1", "m", "m+1", "r", "r+1"))

#: The ``Trajectory.action`` codes: indices into ``Action``.
_ACTIONS = tuple(Action)
_LEFT, _RIGHT, _PARENT, _STAY, _DUP = range(5)  # in Action's order


class _Walk:
    """A node moving through the tree, recorded row by row for a :class:`Trajectory`.

    The node is the tuple ``(l, m, r, depth, dup, up)``: ``dup`` duplicate
    copies above it, and ``up`` the step at which its parent was visited
    (``-1`` at the root).  ``stack`` holds its ancestors' tuples.  A leaf's
    duplicate descent keeps ``(l, m, r)``; ``PARENT`` returns to the node on
    top of the stack, and the root stays put.
    """

    def __init__(self, K: int) -> None:
        self.node = (1, (1 + K) // 2, K, 0, 0, -1)
        self.stack: List[tuple] = []
        self.rows: List[int] = []  # 9 ints per step: the node's 6, action, budget, appended arm
        self.estimates: List[float] = []

    def step(self, action: int, spent: int, estimates, appended: int = 0) -> tuple:
        """Record the current node and the move made from it, then make the move; returns
        the new node."""
        node, rows = self.node, self.rows
        rows += node
        rows += (action, spent, appended)
        self.estimates += estimates
        if action == _PARENT:
            if self.stack:
                self.node = self.stack.pop()
        elif action != _STAY:
            self.stack.append(node)
            l, m, r, depth, dup, _ = node
            t = len(rows) // 9 - 1  # this step
            if action == _RIGHT:
                self.node = (m, (m + r) // 2, r, depth + 1, dup, t)
            elif action == _LEFT:
                self.node = (l, (l + m) // 2, m, depth + 1, dup, t)
            else:
                self.node = (l, m, r, depth + 1, dup + 1, t)
        return self.node

    def trajectory(self, slots: _Slots, t1: int, t2: int, views: NodeViews) -> "Trajectory":
        """The recorded steps, with the current node as the final one."""
        traj = Trajectory.__new__(Trajectory)
        traj._load(self, slots, t1, t2, views)
        return traj


def _node_views(problem: Problem) -> NodeViews:
    """The views of the nodes of ``problem``'s tree, shared by every walk on it."""
    return NodeViews(problem.K)


class Trajectory:
    """A recorded walk of ``t1`` steps, held as columns.

    Row ``t`` of the node columns ``left``, ``right``, ``depth``,
    ``dup_count`` and ``parent_step`` is the node visited at step ``t``; row
    ``t1`` is the final node.  ``parent_step[t]`` is the step at which that
    node's parent was visited (``-1`` at the root), so following it walks
    the node's ancestors.  Row ``t`` of ``action`` (an index into
    ``Action``), ``budget``, ``appended`` (``0`` for none) and the
    ``(t1, len(slots))`` array ``estimates`` is the move made at step ``t``;
    ``slots`` names the estimate columns, and ``t2`` is the walk's per-arm
    draw count.  ``steps`` builds :class:`StepRecord` views on first access.
    Their nodes and ``final_node`` are :class:`Node` views, ancestor paths
    included, shared by every walk on the instance.

    ``Trajectory(steps, t1, t2, final_node)`` replays the records' moves from
    the root into the same columns, and raises ``ValueError`` unless each
    record's node is where its walk stands.
    """

    def __init__(self, steps: Sequence[StepRecord], t1: int, t2: int, final_node: Node) -> None:
        slots = _Slots(steps[0].slot_means if steps else ())
        K = (steps[0].node if steps else final_node).right
        walk = _Walk(K)
        for rec in steps:
            walk.step(_ACTIONS.index(rec.action), rec.budget_spent,
                      [rec.slot_means[s] for s in slots], rec.appended_arm or 0)
        self._load(walk, slots, t1, t2, NodeViews(K))
        if self._node_views != [rec.node for rec in steps] + [final_node]:
            raise ValueError("the recorded nodes do not follow the recorded moves")

    def _load(self, walk: _Walk, slots: _Slots, t1: int, t2: int,
              views: NodeViews) -> None:
        walk.rows += walk.node  # the final node, with no move
        walk.rows += (0, 0, 0)
        # The walk's own lists stay too: the records read them as they are.
        self._walk, self.slots, self.t1, self.t2, self._views = walk, slots, t1, t2, views
        rows = np.fromiter(walk.rows, np.int64, len(walk.rows)).reshape(-1, 9)
        self._nodes = rows[:, :6]  # l, m, r, depth, dup, parent step
        self.left, self.right = rows[:, 0], rows[:, 2]
        self.depth, self.dup_count, self.parent_step = rows[:, 3], rows[:, 4], rows[:, 5]
        self.action, self.budget, self.appended = rows[:-1, 6:].T
        estimates = np.fromiter(walk.estimates, np.float64, len(walk.estimates))
        self.estimates = estimates.reshape(len(rows) - 1, len(slots))

    @property
    def slot_arms(self) -> np.ndarray:
        """The ``(t1, len(slots))`` arms each estimate is of: one gather from the nodes'
        ``(l, m, r)``, plus one for a ``"+1"`` slot."""
        column, offset = self.slots.arm_index
        return self._nodes[:-1, column] + offset

    @cached_property
    def _node_views(self) -> List[Node]:
        rows = self._walk.rows
        return list(map(self._views.__getitem__, zip(rows[0::9], rows[2::9], rows[4::9])))

    @cached_property
    def steps(self) -> Tuple[StepRecord, ...]:
        # Views of the columns, valid by construction: each record's fields are
        # filled in place, in field order, without the per-field checks.
        rows, width = self._walk.rows, len(self.slots)
        per_step = (zip(*[iter(self._walk.estimates)] * width) if width
                    else repeat((), len(rows) // 9 - 1))
        records = []
        for node, slot_means, act, spent, arm in zip(
                self._node_views, map(dict, map(zip, repeat(self.slots), per_step)),
                rows[6::9], rows[7::9], rows[8::9]):
            rec = object.__new__(StepRecord)
            fields = rec.__dict__
            fields["node"], fields["slot_means"], fields["action"] = node, slot_means, _ACTIONS[act]
            fields["budget_spent"], fields["appended_arm"] = spent, arm or None
            records.append(rec)
        return tuple(records)

    @property
    def final_node(self) -> Node:
        return self._node_views[-1]


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


def _crossing(work: Problem, r: int) -> Tuple[int, Classification]:
    """:func:`_crossing_labels` of one walk's final ``r``, its labels one frozen object."""
    k_hat, labels = _crossing_labels(work, r)
    return k_hat, Classification(labels)


def _float_means(problem: Problem) -> Tuple[float, ...]:
    """The means as floats for the scalar walkers, then :func:`gradexplore`'s virtual arm
    ``K + 1`` at ``-inf``."""
    return (*problem.means.tolist(), -math.inf)


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
    K, tau, mu = work.K, work.tau, work.derived(_float_means)
    t1, t2 = budget_split(K, T)
    scale = work.sigma / math.sqrt(t2)
    z, c = rng.read_ahead(3 * t1), 0
    walk = _Walk(K)
    node = walk.node
    for _ in range(t1):
        l, m, r = node[0], node[1], node[2]
        c0 = c
        # Sentinels are exact and free: only l can be arm 1 and only r arm K.
        # At a leaf m == l, and the two slots share one estimate.
        ml = mu[0] if l == 1 else mu[l - 1] + scale * z[c]
        c += l > 1
        if m > l:
            mm = mu[m - 1] + scale * z[c]
            c += 1
        else:
            mm = ml
        mr = mu[r - 1] if r == K else mu[r - 1] + scale * z[c]
        c += r < K
        if not (ml <= tau <= mr):
            act = _PARENT
        elif mm <= tau:
            act = _RIGHT if m > l else _DUP
        else:
            act = _LEFT
        node = walk.step(act, t2 * (c - c0), (ml, mm, mr))
    rng.consume(c)  # exactly the variates read
    k_hat, q_hat = work.derived(_crossing, node[2])
    traj = walk.trajectory(_LMR, t1, t2, work.derived(_node_views))
    return AlgoResult(k_hat, q_hat, t2 * c, traj, work)


def dexplore(problem: Problem, T: int, rng: RngStream, *, check_shape: bool = True) -> AlgoResult:
    """:func:`explore` for non-increasing means, via the index reversal ``k -> K + 1 - k``.

    Takes the raw (un-augmented) problem; ``k_hat`` is mapped back to the last
    above-threshold index (``0`` when every arm is below).  The attached
    trajectory is the walk on the reversed, augmented instance.
    """
    if problem.sentinels is not None:
        raise ValueError("dexplore expects an un-augmented problem")
    res = explore(problem.derived(_reversed), T, rng, check_shape=check_shape)
    last_above, q_hat = res.problem.derived(_reversed_crossing, res.k_hat)
    return AlgoResult(last_above, q_hat, res.total_budget, res.trajectory, res.problem)


def _reversed(problem: Problem) -> Problem:
    """The instance with its arms in reverse order."""
    return Problem(problem.means[::-1], problem.sigma, problem.tau)


def _reversed_crossing(work: Problem, k_hat: int) -> Tuple[int, Classification]:
    """:func:`dexplore`'s ``k_hat`` and labels from the crossing ``k_hat`` that
    :func:`explore` found on ``work``, the reversed instance's augmented twin."""
    labels = work.derived(_crossing, k_hat + 1)[1].labels
    return work.n_original + 1 - k_hat, Classification(labels[::-1])


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
    K, tau, mu = problem.K, problem.tau, problem.derived(_float_means)
    t1, t2 = _grad_split(K, budget)
    n = max(1, t2 // 12)
    scale = problem.sigma / math.sqrt(n)
    z, c = rng.read_ahead(6 * t1), 0
    walk = _Walk(K)
    node = walk.node
    appended: List[int] = []
    for _ in range(t1):
        l, m, r = node[0], node[1], node[2]
        c0 = c
        # The distinct arms of the slots l, l+1, m, m+1, r, r+1 ascend in slot
        # order and draw in that order; a repeated arm shares the estimate of
        # its first slot.  Arms 1, K and K + 1 are exact and free.
        e_l = mu[0] if l == 1 else mu[l - 1] + scale * z[c]
        c += l > 1
        e_l1 = mu[l] + scale * z[c] if l + 1 < K else mu[l]
        c += l + 1 < K
        if m == l:  # a leaf: r == l + 1
            e_m, e_m1 = e_l, e_l1
        else:
            if m == l + 1:
                e_m = e_l1
            else:
                e_m = mu[m - 1] + scale * z[c]
                c += 1
            e_m1 = mu[m] + scale * z[c] if m + 1 < K else mu[m]
            c += m + 1 < K
        if r == m + 1:
            e_r = e_m1
        else:
            e_r = mu[r - 1] + scale * z[c] if r < K else mu[r - 1]
            c += r < K
        e_r1 = mu[r] + scale * z[c] if r + 1 < K else mu[r]
        c += r + 1 < K
        est = (e_l, e_l1, e_m, e_m1, e_r, e_r1)
        hit = l if e_l > tau else m if e_m > tau else r if e_r > tau else 0
        if hit:
            appended.append(hit)
            node = walk.step(_STAY, n * (c - c0), est, hit)
            continue
        # The signs of _slope: two -inf arms give NaN, which compares false, where
        # _slope gives -inf, so "negative" reads "not >= 0".
        if not (e_l1 - e_l > 0 and not e_r1 - e_r >= 0):
            act = _PARENT
        elif e_m1 - e_m >= 0:
            act = _RIGHT if m > l else _DUP
        else:
            act = _LEFT
        node = walk.step(act, n * (c - c0), est)
    rng.consume(c)  # exactly the variates read
    state = GradState(tuple(appended), sum(1 for arm in appended if mu[arm - 1] > tau))
    traj = walk.trajectory(_GRAD_SLOTS, t1, t2, problem.derived(_node_views))
    return state, traj, n * c


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
    b = T // 3
    state, traj, spent = gradexplore(problem, b, rng, check_shape=False)
    if 4 * len(state.arms) <= traj.t1:  # every arm below: l = K + 1 > r = 0
        q_hat = problem.derived(_band, problem.K + 1, 0)
        return AlgoResult(None, q_hat, spent, traj, augment(problem, ShapeClass.CONCAVE))
    k_hat = _lower_median(state.arms) - 1  # appended arms are never sentinels
    left, right = problem.derived(_segments, k_hat)
    res_l = explore(left, b, rng, check_shape=False)
    res_r = dexplore(right, b, rng, check_shape=False)
    q_hat = problem.derived(_band, res_l.k_hat, k_hat - 1 + res_r.k_hat)
    total = spent + res_l.total_budget + res_r.total_budget
    return AlgoResult(k_hat, q_hat, total, traj, augment(problem, ShapeClass.CONCAVE))


def _segments(problem: Problem, k_hat: int) -> Tuple[Problem, Problem]:
    """:func:`ctb`'s increasing segment ``[1, k_hat]`` and decreasing segment ``[k_hat, K]``."""
    return (Problem(problem.means[:k_hat], problem.sigma, problem.tau),
            Problem(problem.means[k_hat - 1:], problem.sigma, problem.tau))


def _band(problem: Problem, l: int, r: int) -> Classification:
    """Arm ``k`` labeled above iff ``l <= k <= r``."""
    arms = np.arange(1, problem.K + 1)
    return Classification(np.where((arms >= l) & (arms <= r), 1, -1))


def naive(problem: Problem, T: int, rng: RngStream, *, check_shape: bool = True) -> AlgoResult:
    """Binary search without corrections: descend on the middle arm's estimate.

    Walks ``H = max_depth(K)`` steps from the root, sampling only the middle
    arm ``floor(T / H)`` times per step, going right when its estimate is at
    or below the threshold.  Leaves absorb the remaining steps through their
    duplicate chain.
    """
    work = _as_monotone_walk_problem(problem, check_shape)
    K, tau, mu = work.K, work.tau, work.derived(_float_means)
    H, n = _naive_split(K, T)
    scale = work.sigma / math.sqrt(n)
    z, c = rng.read_ahead(H), 0
    walk = _Walk(K)
    node = walk.node
    for _ in range(H):
        l, m = node[0], node[1]
        est = mu[0] if m == 1 else mu[m - 1] + scale * z[c]  # arm 1, the low sentinel, is free
        drew = m > 1
        c += drew
        act = _DUP if m == l else _RIGHT if est <= tau else _LEFT
        node = walk.step(act, n * drew, (est,))
    rng.consume(c)  # exactly the variates read
    k_hat, q_hat = work.derived(_crossing, node[2])
    traj = walk.trajectory(_MID, H, n, work.derived(_node_views))
    return AlgoResult(k_hat, q_hat, n * c, traj, work)


def uniform(problem: Problem, T: int, rng: RngStream) -> AlgoResult:
    """Sample every arm ``floor(T / K)`` times and threshold the sample means."""
    n = _uniform_split(problem.K, T)
    n_real = int(_real_arms(problem).sum())
    (labels,) = _uniform_labels(problem, n, rng.generator.standard_normal((1, n_real)))
    return AlgoResult(None, Classification(labels), n * n_real, None, problem)


def _uniform_labels(problem: Problem, n: int, z: np.ndarray) -> np.ndarray:
    """:func:`uniform`'s labels for each row of ``z``, one variate per real arm."""
    real = _real_arms(problem)
    est = np.tile(problem.means, (z.shape[0], 1))
    est[:, real] = problem.means[real] + (problem.sigma / math.sqrt(n)) * z
    labels = np.where(est >= problem.tau, 1, -1)
    return labels[:, 1:-1] if problem.sentinels is not None else labels


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


def explore_batch(problem: Problem, T: int, variates: VariateBlock) -> BatchResult:
    """:func:`explore` for every replication of ``variates`` in lockstep.

    Raises before reading any variate when the shape or budget rule fails.
    """
    work = _as_monotone_walk_problem(problem, True)
    t1, t2 = budget_split(work.K, T)
    z = variates.prefix(3 * t1)
    reps = variates.reps
    R, cursor = _bracket_walk(work.K, np.full(reps, t1), work.tau, work.sigma / math.sqrt(t2),
                              lambda arm, n: work.means[arm - 1], z, np.arange(reps),
                              np.zeros(reps, dtype=np.int64))
    k_hat, labels = _crossing_labels(work, R)
    return BatchResult(k_hat, labels, t2 * cursor)


def naive_batch(problem: Problem, T: int, variates: VariateBlock) -> BatchResult:
    """:func:`naive` for every replication of ``variates`` in lockstep."""
    work = _as_monotone_walk_problem(problem, True)
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
    n_real = int(_real_arms(problem).sum())
    labels = _uniform_labels(problem, n, variates.prefix(n_real))
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


class Algorithm(NamedTuple):
    """One entry of :data:`ALGORITHMS`; a part the algorithm lacks is ``None``."""

    check: Optional[Callable] = None  # (problem, T): raises what the walk raises before a draw
    lockstep: Optional[Callable] = None  # (problems, T, variates): a BatchResult per problem
    trace: Optional[Callable] = None  # (problem, T, rng): the scalar walk's Trajectory


#: Every algorithm by name.  The walkers are looked up in this module when
#: called, so patching ``algos.explore_batch`` and the like reaches every caller.
ALGORITHMS = {
    "explore": Algorithm(
        lambda p, T: budget_split(_as_monotone_walk_problem(p, True).K, T),
        lambda ps, T, v: (explore_batch(p, T, v) for p in ps),
        lambda p, T, rng: explore(p, T, rng).trajectory),
    "dexplore": Algorithm(trace=lambda p, T, rng: dexplore(p, T, rng).trajectory),
    "naive": Algorithm(
        lambda p, T: _naive_split(_as_monotone_walk_problem(p, True).K, T),
        lambda ps, T, v: (naive_batch(p, T, v) for p in ps),
        lambda p, T, rng: naive(p, T, rng).trajectory),
    "gradexplore": Algorithm(trace=lambda p, T, rng: gradexplore(p, T, rng)[1]),
    "uniform": Algorithm(lambda p, T: _uniform_split(p.K, T),
                         lambda ps, T, v: (uniform_batch(p, T, v) for p in ps)),
    "ctb": Algorithm(ctb_check, lambda ps, T, v: ctb_batch(ps, T, v),
                     lambda p, T, rng: ctb(p, T, rng).trajectory),
}
