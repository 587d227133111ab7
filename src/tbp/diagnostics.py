"""Trajectory diagnostics: the proof quantities of a recorded walk.

:func:`distance_series` is the tree-distance potential the drift and
terminal lemmas bound, and :func:`favorable_series` marks the steps whose
estimates all fall within ``delta_min`` of the truth.  Both read the columns
of an :class:`~tbp.algos.Trajectory`.  What they need of the instance (the
way to the target, its depth, the true mean behind each slot) depends on the
instance alone, so each is computed once per instance through
:meth:`~tbp.env.Problem.derived`.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from .env import Problem, ShapeClass

if TYPE_CHECKING:
    from .algos import Trajectory

__all__ = ["distance_series", "favorable_series"]


def _lemma_target(problem: Problem, mode: ShapeClass) -> Tuple[np.ndarray, np.ndarray, int]:
    """Masks ``starts`` and ``ends`` indexed by arm (entry ``0`` unused), such that node
    ``(l, r)`` is on the way to the target iff ``starts[l] & ends[r]``, and the target's
    depth."""
    means, tau = problem.means, problem.tau
    monotone, above = mode is ShapeClass.MONOTONE, means > tau
    if monotone:
        starts, ends = means <= tau, tau <= means  # the node brackets the threshold
        if np.count_nonzero(starts[:-1] & ends[1:]) != 1:
            raise ValueError("no unique threshold-bracketing leaf")
    elif mode is ShapeClass.CONCAVE:
        if not above.any():
            raise ValueError("no arm above the threshold")
        first, last = np.flatnonzero(above)[[0, -1]]
        arms = np.arange(problem.K)  # the node overlaps the above-threshold arms
        starts, ends = arms <= last, arms >= first
    else:
        raise ValueError("mode must be Monotone or Concave")
    # Descend from the root to the target (a leaf in Monotone mode, a node
    # holding an above-threshold arm in Concave mode) through the one child on
    # the way.  Every leaf reached is a target: in Concave mode a leaf reached
    # through lone overlapping children holds the first or last such arm.
    l, r, target = 1, problem.K, 0
    while not (r == l + 1 if monotone else above[l - 1] or above[(l + r) // 2 - 1] or above[r - 1]):
        m = (l + r) // 2
        cands = [(x, y) for x, y in ((l, m), (m, r)) if starts[x - 1] and ends[y - 1]]
        if len(cands) != 1:
            raise (ValueError("bracket descent is ambiguous") if monotone
                   else RuntimeError("region descent is ambiguous"))
        (l, r), target = cands[0], target + 1
    # Every walk starts at the root: off the way, it would have no ancestor on the way.
    if not (starts[0] and ends[-1]):
        raise RuntimeError("the root is not on the way to the target")
    return np.r_[False, starts], np.r_[False, ends], target


def distance_series(trajectory: Trajectory, problem: Problem, mode: ShapeClass) -> np.ndarray:
    """Tree-distance potential from each visited node to the target region.

    ``problem`` must be the instance the walk ran on (``AlgoResult.problem``).
    In Monotone mode the target is the unique leaf bracketing the threshold
    and the potential may go negative along its duplicate chain; in Concave
    mode the target is the set of nodes holding an above-threshold arm and
    the potential is clamped at zero inside it.  The returned vector covers
    the ``T1`` visited nodes plus the terminal one.  A node's potential
    comes from its deepest ancestor-or-self on the way to the target, which
    one pass over ``trajectory.parent_step`` finds for every node.
    """
    starts, ends, target = problem.derived(_lemma_target, mode)
    hits = (starts[trajectory.left] & ends[trajectory.right]).tolist()
    deepest: List[int] = []  # depth of each node's deepest ancestor-or-self on the way
    for hit, d, up in zip(hits, trajectory.depth.tolist(), trajectory.parent_step.tolist()):
        deepest.append(d if hit else deepest[up])
    w = np.array(deepest, dtype=np.int64)
    if mode is ShapeClass.MONOTONE:
        return (trajectory.depth - w) + (target - w)
    return (trajectory.depth - w) + np.maximum(target - w, 0)


def _slot_truth(problem: Problem) -> Tuple[np.ndarray, float]:
    """Per arm ``0..K+1``, the mean its estimates are drawn around, NaN where an estimate
    is exact (the sentinels, and the virtual arm ``K + 1``); and ``delta_min`` as
    :func:`~tbp.env.gaps` has it."""
    first = 1 if problem.sentinels is None else 2
    truth = np.full(problem.K + 2, np.nan)
    truth[first:first + problem.n_original] = problem.original_means
    return truth, float(np.min(np.abs(problem.means - problem.tau)))


def favorable_series(trajectory: Trajectory, problem: Problem) -> np.ndarray:
    """Per-step indicator that every sampled slot is within ``delta_min`` of truth.

    Sentinel slots (and the virtual arm past the augmented range) are exact
    and always count as favorable: their NaN truth compares false.
    """
    truth, delta_min = problem.derived(_slot_truth)
    return ~(np.abs(trajectory.estimates - truth[trajectory.slot_arms]) > delta_min).any(axis=1)
