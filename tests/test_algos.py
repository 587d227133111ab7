import math

import numpy as np
import pytest

from tbp import (
    Action,
    BudgetError,
    Problem,
    RngStream,
    Setting,
    ShapeClass,
    ShapeError,
    augment,
    budget_split,
    ctb,
    dexplore,
    distance_series,
    explore,
    favorable_series,
    gradexplore,
    make_setting,
    naive,
    true_labels,
    uniform,
)
from tbp.algos import ctb_check
from conftest import random_concave_means, random_relaxed_means


def P(means, sigma=0.0, tau=0.0):
    return Problem(np.asarray(means, dtype=float), sigma, tau)


class TestBudgetSplit:
    def test_examples(self):
        assert budget_split(100, 1000) == (28, 11)
        assert budget_split(5, 200) == (10, 6)
        t1 = math.ceil(6 * math.log(3))
        assert budget_split(3, 3 * t1) == (t1, 1)

    def test_too_small(self):
        with pytest.raises(BudgetError):
            budget_split(100, 50)


class TestExplore:
    def test_deterministic_walk(self):
        aug = augment(P([-2, -1, -0.5, 1, 2]), ShapeClass.MONOTONE)
        res = explore(aug, 300, RngStream(0))
        visited = [s.node.triple for s in res.trajectory.steps]
        assert visited[:3] == [(1, 4, 7), (4, 5, 7), (4, 4, 5)]
        assert all(t == (4, 4, 5) for t in visited[2:])
        assert res.trajectory.final_node.triple == (4, 4, 5)
        assert res.trajectory.final_node.right == 5  # augmented crossing
        assert res.k_hat == 4
        assert list(res.q_hat.labels) == [-1, -1, -1, 1, 1]

    def test_auto_augments_raw_input(self):
        raw = explore(P([-2, -1, -0.5, 1, 2]), 300, RngStream(0))
        assert list(raw.q_hat.labels) == [-1, -1, -1, 1, 1]

    def test_all_above(self):
        res = explore(P([1, 2, 3]), 300, RngStream(0))
        assert res.k_hat == 1
        assert list(res.q_hat.labels) == [1, 1, 1]

    def test_single_arm_below(self):
        t1 = math.ceil(6 * math.log(3))
        res = explore(P([-1.0]), 3 * t1, RngStream(0))
        assert res.k_hat == 2  # crossing past the only arm
        assert list(res.q_hat.labels) == [-1]

    def test_budget_and_step_costs(self):
        res = explore(make_setting(Setting.S2, 10, 0.3, 0.0), 500, RngStream(3))
        t2 = res.trajectory.t2
        assert res.total_budget <= 500
        for rec in res.trajectory.steps:
            node = rec.node
            work = res.problem
            arms = {node.left, node.mid, node.right}
            real = sum(1 for a in arms if not work.is_sentinel(a))
            assert rec.budget_spent == t2 * real

    def test_one_edge_property(self):
        from tbp.tree import children, parent

        res = explore(make_setting(Setting.S2, 20, 0.2, 0.0), 800, RngStream(11))
        nodes = [s.node for s in res.trajectory.steps] + [res.trajectory.final_node]
        for prev, nxt in zip(nodes, nodes[1:]):
            options = [parent(prev)] + [c for c in children(prev) if c is not None]
            assert nxt in options

    def test_determinism(self):
        p = make_setting(Setting.S1, 30, 0.2, 0.0)
        a = explore(p, 1000, RngStream(5, 9))
        b = explore(p, 1000, RngStream(5, 9))
        assert np.array_equal(a.q_hat.labels, b.q_hat.labels)
        assert a.k_hat == b.k_hat and a.total_budget == b.total_budget
        for ra, rb in zip(a.trajectory.steps, b.trajectory.steps):
            assert ra.node == rb.node and ra.slot_means == rb.slot_means

    def test_shape_precondition(self):
        with pytest.raises(ShapeError):
            explore(P([1, -1, 1]), 300, RngStream(0))
        explore(P([1, -1, 1]), 300, RngStream(0), check_shape=False)

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            explore(P([-1, 1, 2]), 10, RngStream(0))


class TestDexplore:
    def test_decreasing_example(self):
        res = dexplore(P([2, 1, -0.5, -1, -2]), 300, RngStream(0))
        assert list(res.q_hat.labels) == [1, 1, -1, -1, -1]
        assert res.k_hat == 2  # last above-threshold arm

    def test_reversal_round_trip(self):
        means = [-2, -1, -0.5, 1, 2]
        fwd = explore(P(means), 300, RngStream(0))
        rev = dexplore(P(means[::-1]), 300, RngStream(0))
        assert list(rev.q_hat.labels) == list(fwd.q_hat.labels)[::-1]

    def test_all_below(self):
        res = dexplore(P([-1, -2, -3]), 300, RngStream(0))
        assert list(res.q_hat.labels) == [-1, -1, -1]
        assert res.k_hat == 0

    def test_rejects_augmented(self):
        aug = augment(P([2, 1, -1]), ShapeClass.CONCAVE)
        with pytest.raises(ValueError):
            dexplore(aug, 300, RngStream(0))


class TestGradexplore:
    def test_appends_mid_arm_forever(self):
        aug = augment(P([-3, -1, 1, 0.5, -2]), ShapeClass.CONCAVE)
        state, traj, total = gradexplore(aug, 3000, RngStream(0))
        assert state.arms == (4,) * traj.t1
        assert state.above_count == traj.t1
        assert all(s.action is Action.STAY_APPEND for s in traj.steps)
        assert total <= 3000

    def test_no_arm_above_keeps_list_empty(self):
        state, traj, _ = gradexplore(P([-3, -1, -0.5, -1, -3]), 3000, RngStream(0))
        assert state.arms == ()
        assert state.above_count == 0

    def test_list_growth_bounded(self):
        aug = augment(make_setting(Setting.S2_CONCAVE, 30, 0.3, 0.0), ShapeClass.CONCAVE)
        for rep in range(20):
            state, traj, _ = gradexplore(aug, 2000, RngStream(17, rep))
            sizes = np.cumsum([1 if s.appended_arm is not None else 0 for s in traj.steps])
            assert np.all(np.diff(np.concatenate(([0], sizes))) <= 1)
            assert len(state.arms) == sizes[-1]

    def test_budget_too_small(self):
        with pytest.raises(BudgetError):
            gradexplore(P([-1, 1, -1]), 30, RngStream(0))


class TestCtb:
    def test_deterministic_example(self):
        res = ctb(P([-3, -1, 1, 0.5, -2]), 3000, RngStream(0))
        assert res.k_hat == 3
        assert list(res.q_hat.labels) == [-1, -1, 1, 1, -1]

    def test_all_below(self):
        res = ctb(P([-3, -1, -0.5, -1, -3]), 3000, RngStream(0))
        assert list(res.q_hat.labels) == [-1] * 5
        assert res.k_hat is None

    def test_single_arm_above(self):
        res = ctb(P([-2, -0.5, 1, -0.5, -2]), 3000, RngStream(0))
        assert list(res.q_hat.labels) == [-1, -1, 1, -1, -1]

    def test_budget(self):
        p = make_setting(Setting.S2_CONCAVE, 20, 0.3, 0.0)
        res = ctb(p, 5000, RngStream(1, 4))
        assert res.total_budget <= 5000

    def test_shape_precondition(self):
        with pytest.raises(ShapeError):
            ctb(P([0, -1, 1]), 3000, RngStream(0))


class TestNaive:
    def test_matches_explore_noiseless(self):
        p = P([-2, -1, -0.5, 1, 2])
        rn = naive(p, 300, RngStream(0))
        re = explore(p, 300, RngStream(0))
        assert list(rn.q_hat.labels) == list(re.q_hat.labels)

    def test_per_step_budget(self):
        res = naive(P([-2, -1, -0.5, 1, 2]), 300, RngStream(0))
        assert res.trajectory.t1 == 3  # depth of the 7-arm tree
        assert res.trajectory.t2 == 100
        assert res.total_budget <= 300

    def test_random_noiseless_agreement(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            K = int(rng.integers(3, 12))
            split = int(rng.integers(0, K + 1))
            p = P(random_relaxed_means(rng, K, split))
            rn = naive(p, 10 * K, RngStream(0))
            assert np.array_equal(rn.q_hat.labels, true_labels(p).labels)

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            naive(P([-1, 1, 2]), 2, RngStream(0))


class TestUniform:
    def test_noiseless_truth(self):
        p = P([-1, 0.5, 2])
        res = uniform(p, 30, RngStream(0))
        assert np.array_equal(res.q_hat.labels, true_labels(p).labels)
        assert res.trajectory is None and res.k_hat is None

    def test_budget_accounting(self):
        res = uniform(P([0.1] * 7, sigma=1.0), 50, RngStream(1))
        assert res.total_budget == 7 * (50 // 7) <= 50

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            uniform(P([0.1] * 7, sigma=1.0), 6, RngStream(0))


class TestNoiselessExactness:
    @pytest.mark.parametrize("K", range(3, 8))
    def test_explore_all_splits(self, K):
        rng = np.random.default_rng(K)
        T = 3 * math.ceil(6 * math.log(K + 2))
        for split in range(K + 1):
            p = P(random_relaxed_means(rng, K, split))
            res = explore(p, T, RngStream(0))
            assert np.array_equal(res.q_hat.labels, true_labels(p).labels)

    @pytest.mark.parametrize("K", range(3, 8))
    def test_ctb_random_concave(self, K):
        rng = np.random.default_rng(100 + K)
        for _ in range(20):
            p = P(random_concave_means(rng, K))
            res = ctb(p, 1800, RngStream(0))
            assert np.array_equal(res.q_hat.labels, true_labels(p).labels)


class TestDiagnostics:
    def test_distance_zero_then_negative_at_target(self):
        aug = augment(P([-2, -1, -0.5, 1, 2]), ShapeClass.MONOTONE)
        res = explore(aug, 300, RngStream(0))
        D = distance_series(res.trajectory, res.problem, ShapeClass.MONOTONE)
        # walk reaches the bracketing leaf at step 3 and duplicates after
        assert D[2] == 0
        assert list(np.diff(D[2:])) == [-1] * (len(D) - 3)

    def test_initial_distance_is_target_depth(self):
        aug = augment(P([-2, -1, -0.5, 1, 2]), ShapeClass.MONOTONE)
        res = explore(aug, 300, RngStream(0))
        D = distance_series(res.trajectory, res.problem, ShapeClass.MONOTONE)
        assert D[0] == 2  # leaf {4,4,5} sits at depth 2; D_1 = |v_delta|
        assert D[0] <= math.floor(math.log2(aug.K)) + 1

    def test_concave_zero_inside_region(self):
        aug = augment(P([-3, -1, 1, 0.5, -2]), ShapeClass.CONCAVE)
        state, traj, _ = gradexplore(aug, 3000, RngStream(0))
        D = distance_series(traj, aug, ShapeClass.CONCAVE)
        assert np.all(D == 0)  # root already holds an above-threshold arm

    def test_concave_requires_above_arm(self):
        aug = augment(P([-3, -1, -0.5, -1, -3]), ShapeClass.CONCAVE)
        _, traj, _ = gradexplore(aug, 3000, RngStream(0))
        with pytest.raises(ValueError):
            distance_series(traj, aug, ShapeClass.CONCAVE)

    def test_favorable_all_true_noiseless(self):
        res = explore(P([-2, -1, -0.5, 1, 2]), 300, RngStream(0))
        assert favorable_series(res.trajectory, res.problem).all()

    def test_favorable_flags_deviation(self):
        p = make_setting(Setting.S1, 10, 0.2, 0.0)
        res = explore(p, 400, RngStream(21))
        xi = favorable_series(res.trajectory, res.problem)
        # doctor one recorded slot mean by 2 * delta_min
        rec = res.trajectory.steps[0]
        bad = dict(rec.slot_means)
        slot = next(s for s in ("l", "m", "r") if not res.problem.is_sentinel(
            {"l": rec.node.left, "m": rec.node.mid, "r": rec.node.right}[s]))
        bad[slot] = res.problem.mean({"l": rec.node.left, "m": rec.node.mid, "r": rec.node.right}[slot]) + 0.4
        from tbp.algos import StepRecord, Trajectory

        doctored = Trajectory(
            (StepRecord(rec.node, bad, rec.action, rec.budget_spent),) + res.trajectory.steps[1:],
            res.trajectory.t1,
            res.trajectory.t2,
            res.trajectory.final_node,
        )
        xi2 = favorable_series(doctored, res.problem)
        assert not xi2[0]
        assert np.array_equal(xi[1:], xi2[1:])

    def test_monotone_drift_on_noisy_runs(self):
        p = make_setting(Setting.S1, 40, 0.25, 0.0)
        for rep in range(50):
            res = explore(p, 1000, RngStream(77, rep))
            D = distance_series(res.trajectory, res.problem, ShapeClass.MONOTONE)
            xi = favorable_series(res.trajectory, res.problem)
            steps = np.diff(D)
            assert np.all(steps <= 1)
            assert np.all(steps[xi] <= -1)


@pytest.mark.parametrize("walk", [
    pytest.param(lambda p: ctb_check(p, 3000), id="ctb_check"),
    pytest.param(lambda p: ctb(p, 3000, RngStream(0)), id="ctb"),
])
def test_ctb_refuses_an_augmented_instance(walk):
    twin = augment(P([-3, -1, 1, 0.5, -2]), ShapeClass.CONCAVE)
    with pytest.raises(ValueError, match="un-augmented"):
        walk(twin)
