"""Column walkers and lemma series against the Node-path oracle of ``oracle.py``.

On the same stream, each walker must record the oracle's steps (node with
its path and duplicate count, slot means bit for bit, action, budget,
appended arm), return its ``k_hat``, labels and budget, give the same
``D`` and ``xi`` (or the same refusal), and leave the stream where the
oracle leaves it: a later consumer, such as ``ctb``'s next phase, must draw
the same variate.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from tbp import (Action, Problem, RngStream, ShapeClass, StepRecord, Trajectory, augment,
                 budget_split, dexplore, distance_series, explore, favorable_series,
                 gradexplore, naive)
from tbp.tree import max_depth
from test_lockstep import concave_instances, instances

WALKERS = {"explore": explore, "dexplore": dexplore, "naive": naive}


def bits(values):
    return np.asarray(list(values), dtype=np.float64).tobytes()


def outcome(series, *args):
    try:
        return series(*args).tolist()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def lineage(node):
    """The node and its ancestors as plain tuples (``Node ==`` recurses through every path)."""
    return [(n.triple, n.depth, n.dup_count) for n in node.path + (node,)]


def assert_same_walk(traj, walk, problem, mode):
    assert (traj.t1, traj.t2) == (walk.t1, walk.t2)
    assert len(traj.steps) == len(walk.steps) == traj.t1
    for t, (got, ref) in enumerate(zip(traj.steps, walk.steps)):
        assert lineage(got.node) == lineage(ref.node), t
        assert list(got.slot_means) == list(ref.slot_means), t
        assert bits(got.slot_means.values()) == bits(ref.slot_means.values()), t
        assert got.action is ref.action, t
        assert (got.budget_spent, got.appended_arm) == (ref.budget_spent, ref.appended_arm), t
    assert lineage(traj.final_node) == lineage(walk.final_node)
    assert (outcome(distance_series, traj, problem, mode)
            == outcome(oracle.distance_series, walk, problem, mode))
    assert np.array_equal(favorable_series(traj, problem), oracle.favorable_series(walk, problem))
    # The records rebuild the same columns.
    again = Trajectory(traj.steps, traj.t1, traj.t2, traj.final_node)
    for name in ("left", "right", "depth", "dup_count", "parent_step", "action", "budget",
                 "appended"):
        assert np.array_equal(getattr(again, name), getattr(traj, name)), name
    assert again.estimates.tobytes() == traj.estimates.tobytes()


def streams(seed, rep, pre):
    """Two equal streams, each ``pre`` draws in, as a walk after another phase sees them."""
    pair = RngStream(seed, rep), RngStream(seed, rep)
    for s in pair:
        s.generator.standard_normal(pre)
    return pair


@settings(max_examples=150, deadline=None)
@given(problem=instances(), algo=st.sampled_from(sorted(WALKERS)),
       scale=st.sampled_from([1, 1, 2, 10]), slack=st.integers(0, 30),
       seed=st.integers(0, 2**32 - 1), rep=st.integers(0, 10**6), pre=st.integers(0, 3))
def test_monotone_walkers_equal_oracle(problem, algo, scale, slack, seed, rep, pre):
    check_monotone_walker(problem, algo, scale, slack, seed, rep, pre)


def check_monotone_walker(problem, algo, scale, slack, seed, rep, pre):
    if algo == "dexplore":
        problem = Problem(problem.means[::-1], problem.sigma, problem.tau)
    Ka = problem.K + 2
    floor = max_depth(Ka) if algo == "naive" else 3 * budget_split(Ka, 10**9)[0]
    T = scale * floor + slack
    ours, ref = streams(seed, rep, pre)
    res = WALKERS[algo](problem, T, ours)
    k_hat, labels, total, walk = getattr(oracle, algo)(problem, T, ref)
    assert res.k_hat == k_hat
    assert np.array_equal(res.q_hat.labels, labels)
    assert res.total_budget == total == int(res.trajectory.budget.sum())
    assert_same_walk(res.trajectory, walk, res.problem, ShapeClass.MONOTONE)
    assert ours.generator.standard_normal() == ref.generator.standard_normal()


@pytest.mark.parametrize("algo", sorted(WALKERS))
def test_noiseless_ties_exhaustive(algo):
    # With sigma = 0 an arm at the threshold estimates exactly tau, which
    # exercises every tie-breaking comparison of the walk.
    for K in range(1, 9):
        for below in range(K + 1):
            for ties in range(K - below + 1):
                means = [-1.0] * below + [0.0] * ties + [1.0] * (K - below - ties)
                check_monotone_walker(Problem(means, 0.0, 0.0), algo, 2, 0, 0, 0, 0)


@settings(max_examples=150, deadline=None)
@given(problem=concave_instances(), scale=st.sampled_from([1, 1, 2, 5]),
       slack=st.integers(0, 40), seed=st.integers(0, 2**32 - 1), rep=st.integers(0, 10**6),
       pre=st.integers(0, 3))
def test_gradexplore_equals_oracle(problem, scale, slack, seed, rep, pre):
    aug = augment(problem, ShapeClass.CONCAVE)
    budget = scale * 12 * budget_split(aug.K, 10**9)[0] + slack
    ours, ref = streams(seed, rep, pre)
    state, traj, total = gradexplore(problem, budget, ours)
    arms, ref_total, walk = oracle.gradexplore(problem, budget, ref)
    assert state.arms == arms
    assert state.above_count == sum(aug.mean(a) > aug.tau for a in arms)
    assert total == ref_total == int(traj.budget.sum())
    assert_same_walk(traj, walk, aug, ShapeClass.CONCAVE)
    assert ours.generator.standard_normal() == ref.generator.standard_normal()


def test_records_must_follow_their_moves():
    res = explore(Problem([-2.0, -1.0, 1.0, 2.0], 1.0, 0.0), 300, RngStream(4))
    first, second = res.trajectory.steps[:2]
    assert first.action is not Action.PARENT  # the walk leaves the root
    t2 = res.trajectory.t2
    assert Trajectory((first,), 1, t2, second.node).final_node == second.node
    stay = StepRecord(first.node, first.slot_means, Action.PARENT, first.budget_spent)
    with pytest.raises(ValueError, match="do not follow"):
        Trajectory((stay,), 1, t2, second.node)
