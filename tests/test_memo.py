"""The per-instance memo (``Problem.derived``): each fact is computed once, and no result changes.

An instance keeps its augmented twin, its shape verdicts and the lemma
series' facts (the way to the target and its depth, the truth behind each
slot).  A fact is computed on first use and kept while the instance lives; a
computation that raises keeps nothing.  Walks and lemma series on a warmed
instance must equal those on a fresh instance with the same means, and both
must equal the reference walkers of ``oracle.py``.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from tbp import (BudgetError, Problem, RngStream, Setting, ShapeClass, ShapeError, StepRecord,
                 Trajectory, algos, augment, budget_split, ctb, dexplore, diagnostics,
                 distance_series, env, explore, favorable_series, gradexplore, make_setting, naive,
                 shape_check)
from test_lockstep import concave_instances, instances
from test_trajectory import assert_same_walk, bits, lineage, outcome


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name``, where its callers look it up; returns the list of its calls."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_fact_is_computed_once_per_instance(monkeypatch):
    s1 = make_setting(Setting.S1, 100, 0.2, 0.0, 1.0)  # raw: explore augments it
    tent = augment(make_setting(Setting.S2_CONCAVE, 100, 0.2, 0.0, 1.0), ShapeClass.CONCAVE)
    calls = {name: count_calls(monkeypatch, env, name)
             for name in ("_relaxed_monotone", "_concave", "_augmented")}
    calls.update({name: count_calls(monkeypatch, diagnostics, name)
                  for name in ("_lemma_target", "_slot_truth")})
    ran_on = set()
    for rep in range(200):
        res = explore(s1, 1000, RngStream(5, rep))
        ran_on.add(id(res.problem))
        distance_series(res.trajectory, res.problem, ShapeClass.MONOTONE)
        favorable_series(res.trajectory, res.problem)
    assert ran_on == {id(augment(s1, ShapeClass.MONOTONE))}  # one twin for every walk
    for rep in range(200):
        _, traj, _ = gradexplore(tent, 1000, RngStream(6, rep))
        distance_series(traj, tent, ShapeClass.CONCAVE)
        favorable_series(traj, tent)
    # The tent's own checks ran when it was built, before the counters.
    assert {name: len(c) for name, c in calls.items()} == {
        "_relaxed_monotone": 1, "_concave": 1, "_augmented": 1,
        "_lemma_target": 2, "_slot_truth": 2}


def test_refusals_are_never_memoized(monkeypatch):
    lemma = count_calls(monkeypatch, diagnostics, "_lemma_target")
    augmenting = count_calls(monkeypatch, env, "_augmented")
    ties = Problem([-1.0, 0.0, 0.0, 1.0], 0.0, 0.0)  # three leaves bracket the threshold
    res = explore(ties, 300, RngStream(0))
    for _ in range(2):
        with pytest.raises(ValueError, match="no unique threshold-bracketing leaf"):
            distance_series(res.trajectory, res.problem, ShapeClass.MONOTONE)
    below = augment(Problem([-3.0, -1.0, -2.0], 1.0, 0.0), ShapeClass.CONCAVE)
    for _ in range(2):
        with pytest.raises(ValueError, match="no arm above the threshold"):
            distance_series(res.trajectory, below, ShapeClass.CONCAVE)
    assert len(lemma) == 4
    bent = Problem([0.0, -1.0, 1.0], 1.0, 0.0)  # not concave: a verdict, kept as False
    for _ in range(2):
        with pytest.raises(ShapeError):
            gradexplore(bent, 3000, RngStream(0))
    twin = augment(bent, ShapeClass.CONCAVE)
    for _ in range(2):
        with pytest.raises(ValueError, match="already augmented"):
            augment(twin, ShapeClass.MONOTONE)
    # ties, below and bent were each augmented once; the twin's refusal ran twice.
    assert len(augmenting) == 5


def test_facts_are_kept_per_argument():
    p = Problem([-2.0, -1.0, 0.5, 3.0], 1.0, 0.0)
    shapes = list(ShapeClass)
    first = [shape_check(p, shape) for shape in shapes]
    assert first == [shape_check(Problem(p.means, 1.0, 0.0), shape) for shape in shapes]
    assert [shape_check(p, shape) for shape in reversed(shapes)] == first[::-1]
    mono, conc = augment(p, ShapeClass.MONOTONE), augment(p, ShapeClass.CONCAVE)
    assert (mono.sentinels, conc.sentinels) == ((-math.inf, math.inf), (-math.inf, -math.inf))
    assert augment(p, ShapeClass.MONOTONE) is mono and augment(p, ShapeClass.CONCAVE) is conc
    res = explore(p, 600, RngStream(3))
    D = distance_series(res.trajectory, res.problem, ShapeClass.MONOTONE)
    fresh = Problem(res.problem.means, 1.0, 0.0, sentinels=res.problem.sentinels)
    assert np.array_equal(distance_series(res.trajectory, res.problem, ShapeClass.CONCAVE),
                          distance_series(res.trajectory, fresh, ShapeClass.CONCAVE))
    assert np.array_equal(distance_series(res.trajectory, res.problem, ShapeClass.MONOTONE), D)


def test_a_root_off_the_way_is_refused():
    # An un-augmented instance whose root does not bracket the threshold: the
    # walk's first node, the root, has no ancestor on the way to the target.
    res = explore(Problem([0.5], 1.0, 0.0), 300, RngStream(1))
    assert res.problem.K == 3
    for _ in range(2):
        with pytest.raises(RuntimeError, match="root is not on the way"):
            distance_series(res.trajectory, Problem([1.0, -1.0, 2.0], 1.0, 0.0),
                            ShapeClass.MONOTONE)


def test_step_records_stay_frozen_views():
    res = explore(make_setting(Setting.S1, 20, 0.3, 0.0, 1.0), 600, RngStream(2))
    steps = res.trajectory.steps
    assert all(type(rec) is StepRecord for rec in steps)
    assert res.trajectory.steps is steps  # built once
    with pytest.raises(dataclasses.FrozenInstanceError):
        steps[0].budget_spent = 0
    again = Trajectory(steps, res.trajectory.t1, res.trajectory.t2, res.trajectory.final_node)
    assert steps[0] == steps[0] and again.steps[0] != steps[0]  # identity equality
    assert [vars(rec) for rec in again.steps] == [vars(rec) for rec in steps]
    assert list(vars(steps[0])) == [f.name for f in dataclasses.fields(StepRecord)]


def observe(problem, algo, T, seed, rep):
    """``algo``'s walk on ``problem`` from stream ``(seed, rep)`` and its lemma series,
    as plain values, with the trajectory and the instance it ran on; or the refusal."""
    try:
        if algo == "explore":
            res = explore(problem, T, RngStream(seed, rep))
            out, traj, ran_on = (res.k_hat, res.q_hat.labels.tolist(), res.total_budget), \
                res.trajectory, res.problem
        else:
            state, traj, total = gradexplore(problem, T, RngStream(seed, rep))
            out = (state.arms, state.above_count, total)
            ran_on = problem if problem.sentinels is not None else augment(problem,
                                                                          ShapeClass.CONCAVE)
    except ValueError as exc:
        return (type(exc), str(exc)), None, None
    mode = ShapeClass.MONOTONE if algo == "explore" else ShapeClass.CONCAVE
    records = [(lineage(rec.node), list(rec.slot_means), bits(rec.slot_means.values()),
                rec.action, rec.budget_spent, rec.appended_arm) for rec in traj.steps]
    seen = (out, records, lineage(traj.final_node), outcome(distance_series, traj, ran_on, mode),
            favorable_series(traj, ran_on).tolist())
    return seen, traj, ran_on


@settings(max_examples=150, deadline=None)
@given(problem=st.one_of(instances(), concave_instances()),
       algo=st.sampled_from(["explore", "gradexplore"]), scale=st.sampled_from([1, 2, 5]),
       slack=st.integers(0, 40), seed=st.integers(0, 2**32 - 1), rep=st.integers(0, 10**6))
def test_memoized_instance_equals_fresh_and_oracle(problem, algo, scale, slack, seed, rep):
    t1 = budget_split(problem.K + 2, 10**9)[0]
    T = scale * (3 if algo == "explore" else 12) * t1 + slack
    observe(problem, algo, T, seed, rep + 1)  # warms every fact of the instance
    warm, traj, ran_on = observe(problem, algo, T, seed, rep)
    fresh, _, fresh_ran_on = observe(Problem(problem.means, problem.sigma, problem.tau),
                                              algo, T, seed, rep)
    assert warm == fresh
    if traj is None:  # refused alike
        return
    assert ran_on is observe(problem, algo, T, seed, rep)[2]  # the same memoized twin
    assert fresh_ran_on is not ran_on
    if algo == "explore":
        *_, walk = oracle.explore(problem, T, RngStream(seed, rep))
        assert_same_walk(traj, walk, ran_on, ShapeClass.MONOTONE)
    else:
        *_, walk = oracle.gradexplore(problem, T, RngStream(seed, rep))
        assert_same_walk(traj, walk, ran_on, ShapeClass.CONCAVE)


def test_dexplore_and_ctb_reuse_their_instances(monkeypatch):
    augmenting = count_calls(monkeypatch, env, "_augmented")
    down = Problem(make_setting(Setting.S1, 100, 0.2, 0.0, 1.0).means[::-1], 1.0, 0.0)
    walks = [dexplore(down, 1000, RngStream(4, rep)) for rep in range(5)]
    assert len(augmenting) == 1  # one reversed twin, augmented once
    assert len({id(res.problem) for res in walks}) == 1
    shared = {}
    for res in walks:  # one labels object per crossing, through the reversed twin
        assert res.q_hat is shared.setdefault(res.k_hat, res.q_hat)
    segments = count_calls(monkeypatch, algos, "_segments")
    tent = make_setting(Setting.S2_CONCAVE, 41, 0.3, 0.0, 1.0)
    del augmenting[:]
    k_hats = set()
    for rep in range(5):
        res = ctb(tent, 30000, RngStream(5, rep))
        fresh = ctb(Problem(tent.means, 1.0, 0.0), 30000, RngStream(5, rep))
        assert (res.k_hat, res.q_hat.labels.tolist(), res.total_budget) == \
            (fresh.k_hat, fresh.q_hat.labels.tolist(), fresh.total_budget)
        k_hats.add(res.k_hat)
    assert None not in k_hats
    # Each of the 5 fresh copies augments for its slope walk and both segments.
    # The tent does that once, and once per distinct k_hat for the segments.
    assert len(augmenting) == 5 * 3 + 1 + 2 * len(k_hats)
    assert len(segments) == 5 + len(k_hats)


def test_crossing_labels_are_built_once_per_crossing(monkeypatch):
    building = count_calls(monkeypatch, algos, "_crossing_labels")
    s2 = make_setting(Setting.S2, 60, 0.3, 0.0, 1.0)  # small gaps: the crossings vary
    walks = [explore(s2, 400, RngStream(6, rep)) for rep in range(200)]
    walks += [naive(s2, 400, RngStream(7, rep)) for rep in range(200)]
    shared = {}
    for res in walks:
        assert res.q_hat is shared.setdefault(res.k_hat, res.q_hat)  # one object per crossing
        assert np.array_equal(res.q_hat.labels, np.where(np.arange(1, 61) >= res.k_hat, 1, -1))
        assert not res.q_hat.labels.flags.writeable
    assert len(shared) > 1 and len(building) == len(shared)


def test_walks_on_one_instance_share_node_views():
    s1 = make_setting(Setting.S1, 100, 0.2, 0.0, 1.0)
    trajs = [explore(s1, 1000, RngStream(8, rep)).trajectory for rep in range(2)]
    trajs += [naive(s1, 1000, RngStream(9, rep)).trajectory for rep in range(2)]
    views, seen = {}, 0
    for traj in trajs:
        for node in [rec.node for rec in traj.steps] + [traj.final_node]:
            assert views.setdefault((node.left, node.right, node.dup_count), node) is node
            seen += 1
    assert len(views) < seen  # the walks met, at the root at least
    root = views[1, 102, 0]
    assert root.depth == 0 and root.path == ()
    for (l, r, dup), node in views.items():
        assert node.path == (node.path[-1].path + (node.path[-1],) if node.path else ())
        assert (node.triple, node.dup_count, node.depth) == ((l, (l + r) // 2, r), dup,
                                                              len(node.path))


def test_a_refused_walk_raises_on_every_call():
    bent = Problem([0.5, -0.1, 0.2], 1.0, 0.0)
    tent = make_setting(Setting.S2_CONCAVE, 21, 0.3, 0.0, 1.0)
    cases = [
        (explore, bent, 300, ShapeError),
        (naive, bent, 300, ShapeError),
        (dexplore, Problem([-0.5, 0.1, 0.2], 1.0, 0.0), 300, ShapeError),
        (dexplore, augment(tent, ShapeClass.MONOTONE), 3000, ValueError),
        (explore, make_setting(Setting.S1, 100, 0.2, 0.0, 1.0), 10, BudgetError),
        (gradexplore, tent, 10, BudgetError),
        (ctb, Problem([0.0, -1.0, 1.0], 1.0, 0.0), 30000, ShapeError),
        (ctb, tent, 30, BudgetError),
    ]
    for walker, problem, T, error in cases:
        for _ in range(3):
            with pytest.raises(error):
                walker(problem, T, RngStream(0))
