"""Reference walkers: one Node per step, one ``sample_mean`` call per variate.

These are the tree searches and lemma series as first written, kept as the
oracle the column walkers of :mod:`tbp.algos` must reproduce bit for bit.
Each walk returns ``(k_hat, labels, total_budget, Walk)``; the lemma series
take the :class:`Walk`.
"""
import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from tbp import Action, Node, Problem, ShapeClass, StepRecord, augment, gaps, sample_mean
from tbp.algos import _as_monotone_walk_problem, _crossing_labels, _grad_split, _naive_split, _slope
from tbp.tree import children, is_leaf, parent, root
from tbp import budget_split


class Walk(NamedTuple):
    steps: Tuple[StepRecord, ...]
    final_node: Node
    t1: int
    t2: int


def _estimate(problem, arm, n, rng):
    if arm == problem.K + 1:  # the virtual arm past the augmented range
        return -math.inf, 0
    return sample_mean(problem, arm, n, rng)


def _sample_slots(problem, slot_arms, n, rng):
    by_arm, spent = {}, 0
    for _, arm in slot_arms:
        if arm not in by_arm:
            by_arm[arm], cost = _estimate(problem, arm, n, rng)
            spent += cost
    return {slot: by_arm[arm] for slot, arm in slot_arms}, by_arm, spent


def explore(problem, T, rng):
    work = _as_monotone_walk_problem(problem, True)
    tau = work.tau
    t1, t2 = budget_split(work.K, T)
    v, steps, total = root(work.K), [], 0
    for _ in range(t1):
        slot_means, _, spent = _sample_slots(work, [("l", v.left), ("m", v.mid), ("r", v.right)],
                                             t2, rng)
        total += spent
        ml, mm, mr = slot_means["l"], slot_means["m"], slot_means["r"]
        if not (ml <= tau <= mr):
            nxt, act = parent(v), Action.PARENT
        elif mm <= tau <= mr:
            nxt, act = children(v)[1], Action.DUP_DESCEND if is_leaf(v) else Action.RIGHT
        else:
            nxt, act = children(v)[0], Action.LEFT
        steps.append(StepRecord(v, slot_means, act, spent))
        v = nxt
    k_hat, labels = _crossing_labels(work, v.right)
    return k_hat, labels, total, Walk(tuple(steps), v, t1, t2)


def dexplore(problem, T, rng):
    k_hat, labels, total, walk = explore(Problem(problem.means[::-1], problem.sigma, problem.tau),
                                         T, rng)
    return problem.K + 1 - k_hat, labels[::-1], total, walk


def naive(problem, T, rng):
    work = _as_monotone_walk_problem(problem, True)
    H, n = _naive_split(work.K, T)
    v, steps, total = root(work.K), [], 0
    for _ in range(H):
        est, spent = _estimate(work, v.mid, n, rng)
        total += spent
        if is_leaf(v):
            nxt, act = children(v)[1], Action.DUP_DESCEND
        elif est <= work.tau:
            nxt, act = children(v)[1], Action.RIGHT
        else:
            nxt, act = children(v)[0], Action.LEFT
        steps.append(StepRecord(v, {"m": est}, act, spent))
        v = nxt
    k_hat, labels = _crossing_labels(work, v.right)
    return k_hat, labels, total, Walk(tuple(steps), v, H, n)


def gradexplore(problem, budget, rng):
    if problem.sentinels is None:
        problem = augment(problem, ShapeClass.CONCAVE)
    tau = problem.tau
    _, t1, t2 = _grad_split(problem.K, budget)
    n = max(1, t2 // 12)
    v, steps, appended, total = root(problem.K), [], [], 0
    for _ in range(t1):
        slot_arms = [("l", v.left), ("l+1", v.left + 1), ("m", v.mid), ("m+1", v.mid + 1),
                     ("r", v.right), ("r+1", v.right + 1)]
        slot_means, by_arm, spent = _sample_slots(problem, slot_arms, n, rng)
        total += spent
        hit: Optional[int] = next((a for a in (v.left, v.mid, v.right) if by_arm[a] > tau), None)
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
            nxt, act = children(v)[1], Action.DUP_DESCEND if is_leaf(v) else Action.RIGHT
        else:
            nxt, act = children(v)[0], Action.LEFT
        steps.append(StepRecord(v, slot_means, act, spent))
        v = nxt
    return tuple(appended), total, Walk(tuple(steps), v, t1, t2)


def _slot_arm(node, slot):
    base = {"l": node.left, "m": node.mid, "r": node.right}[slot[0]]
    return base + 1 if slot.endswith("+1") else base


def distance_series(walk, problem, mode):
    means, tau = problem.means, problem.tau
    nodes = [rec.node for rec in walk.steps] + [walk.final_node]
    if mode is ShapeClass.MONOTONE:
        if np.flatnonzero((means[:-1] <= tau) & (tau <= means[1:])).size != 1:
            raise ValueError("no unique threshold-bracketing leaf")

        def hit(node):
            return bool(means[node.left - 1] <= tau <= means[node.right - 1])
    else:
        above = np.flatnonzero(means > tau)
        if above.size == 0:
            raise ValueError("no arm above the threshold")
        a, b = int(above[0]) + 1, int(above[-1]) + 1

        def hit(node):
            return node.left <= b and a <= node.right

    def target(node):
        return is_leaf(node) if mode is ShapeClass.MONOTONE else any(
            means[arm - 1] > tau for arm in node.triple)

    v = root(problem.K)
    while not target(v):
        cands = [c for c in children(v) if c is not None and hit(c)]
        if len(cands) != 1:
            raise (ValueError("bracket descent is ambiguous") if mode is ShapeClass.MONOTONE
                   else RuntimeError("region descent is ambiguous"))
        v = cands[0]

    def w_depth(node):
        return next(w.depth for w in (node, *reversed(node.path)) if hit(w))

    if mode is ShapeClass.MONOTONE:
        out = [(n.depth - w_depth(n)) + (v.depth - w_depth(n)) for n in nodes]
    else:
        out = [(n.depth - w_depth(n)) + max(v.depth - w_depth(n), 0) for n in nodes]
    return np.asarray(out, dtype=np.int64)


def favorable_series(walk, problem):
    delta_min = gaps(problem).delta_min
    out = []
    for rec in walk.steps:
        arms = [(_slot_arm(rec.node, slot), est) for slot, est in rec.slot_means.items()]
        out.append(all(arm > problem.K or problem.is_sentinel(arm)
                       or abs(est - problem.mean(arm)) <= delta_min for arm, est in arms))
    return np.asarray(out, dtype=bool)
