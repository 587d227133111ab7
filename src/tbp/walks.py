"""Recorded walks: the scalar tree searches, each recording its steps as :class:`Trajectory`
columns from one :class:`~tbp.env.RngStream`, where the lockstep walkers of :mod:`tbp.algos`
return the same labels.  Only ``tbp trace``, the library and the lemma checks use them, so
this module loads on first use of one of its names through :mod:`tbp.algos`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import algos
from .algos import (ShapeError, _as_monotone_walk_problem, _crossing, _explore_split, _grad_split,
                    _naive_split, _uniform_estimates, _uniform_split, ctb_check)
from .diagnostics import distance_series, favorable_series  # noqa: F401 (tbp.algos re-exports them)
from .env import (Classification, Problem, RngStream, ShapeClass, _band_labels, _threshold_labels,
                  augment, shape_check)
from .tree import Node, NodeViews


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
    (``-1`` at the root).  A leaf's duplicate descent keeps ``(l, m, r)``;
    ``PARENT`` returns to the parent as ``rows`` recorded it at step ``up``,
    and the root stays put.
    """

    def __init__(self, K: int) -> None:
        self.node = (1, (1 + K) // 2, K, 0, 0, -1)
        self.rows: List[int] = []  # 9 ints per step: the node's 6, action, budget, appended arm
        self.estimates: List[float] = []

    def step(self, action: int, spent: int, estimates, appended: int = 0) -> tuple:
        """Record the current node and the move made from it, then make the move; returns
        the new node."""
        node, rows = self.node, self.rows
        rows += node
        rows += (action, spent, appended)
        self.estimates += estimates
        l, m, r, depth, dup, up = node
        if action == _PARENT:
            if up >= 0:
                self.node = tuple(rows[9 * up:9 * up + 6])
        elif action != _STAY:
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
class GradState:
    """Arms appended by the slope walk, plus how many are truly above threshold."""

    arms: Tuple[int, ...]
    above_count: int


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
    width, t1, t2 = _explore_split(K, T)
    scale = work.sigma / math.sqrt(t2)
    z, c = rng.read_ahead(width), 0
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
    """:func:`dexplore`'s last arm above and labels, the band ``[1, last]``, from ``work``'s
    crossing ``k_hat``: ``work`` is the reversed instance's augmented twin."""
    last = work.n_original + 1 - k_hat
    return last, Classification(_band_labels(work.n_original, 1, last))


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
    width, t1, t2 = _grad_split(K, budget)
    n = t2 // 12
    scale = problem.sigma / math.sqrt(n)
    z, c = rng.read_ahead(width), 0
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
    left, right = problem.derived(algos._segments, k_hat)  # a patch on tbp.algos is seen
    res_l = explore(left, b, rng, check_shape=False)
    res_r = dexplore(right, b, rng, check_shape=False)
    q_hat = problem.derived(_band, res_l.k_hat, k_hat - 1 + res_r.k_hat)
    total = spent + res_l.total_budget + res_r.total_budget
    return AlgoResult(k_hat, q_hat, total, traj, augment(problem, ShapeClass.CONCAVE))


def _band(problem: Problem, l: int, r: int) -> Classification:
    """Arm ``k`` labeled above iff ``l <= k <= r``."""
    return Classification(_band_labels(problem.K, l, r))


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
    """Sample each real arm ``floor(T / n_original)`` times and threshold the sample means."""
    K, n = _uniform_split(problem, T)
    z = rng.generator.standard_normal(K)
    labels = _threshold_labels(_uniform_estimates(problem, n, z), problem.tau)
    return AlgoResult(None, Classification(labels), n * K, None, problem)
