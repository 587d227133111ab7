"""Lockstep walkers against the scalar walkers, replication by replication.

Row ``j`` of a lockstep run over ``VariateBlock(seed, start, stop)`` must
equal the scalar walker on a fresh ``RngStream(seed, start + j)``: same
``k_hat``, labels and budget, bit for bit.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tbp import BudgetError, Problem, RngStream, Setting, ShapeError, make_setting
from tbp.algos import (
    budget_split,
    explore,
    explore_batch,
    naive,
    naive_batch,
    uniform,
    uniform_batch,
)
from tbp.env import VariateBlock
from tbp.tree import max_depth

PAIRS = {"explore": (explore, explore_batch), "naive": (naive, naive_batch),
         "uniform": (uniform, uniform_batch)}


def budget_floor(algo, K):
    """Smallest budget each walker accepts on a raw K-armed instance."""
    if algo == "uniform":
        return K
    if algo == "naive":
        return max_depth(K + 2)
    return 3 * budget_split(K + 2, 10**9)[0]


@st.composite
def instances(draw):
    tau = draw(st.sampled_from([0.0, -1.5, 0.25, 7.0]))
    sigma = draw(st.sampled_from([0.0, 0.3, 1.0, 2.5]))
    kind = draw(st.sampled_from(["s1", "s2", "custom"]))
    if kind == "custom":
        # Relaxed-monotone offsets with ties at the threshold: no strictly
        # positive offset precedes a strictly negative one.
        below = draw(st.lists(st.sampled_from([-1.3, -0.2, 0.0]), max_size=150))
        above = draw(st.lists(st.sampled_from([0.0, 0.4, 2.0]), max_size=150))
        offsets = below + above or [0.0]
        return Problem(tau + np.asarray(offsets), sigma, tau)
    K = draw(st.integers(3, 300))
    delta = draw(st.sampled_from([0.05, 0.3, 1.0]))
    return make_setting(Setting.S1 if kind == "s1" else Setting.S2, K, delta, tau, sigma)


def assert_rows_match(algo, problem, T, seed, start, stop, block=None):
    scalar, batch = PAIRS[algo]
    got = batch(problem, T, block or VariateBlock(seed, start, stop))
    for j, rep in enumerate(range(start, stop)):
        ref = scalar(problem, T, RngStream(seed, rep))
        assert np.array_equal(got.labels[j], ref.q_hat.labels), (algo, rep)
        assert got.total_budget[j] == ref.total_budget, (algo, rep)
        if ref.k_hat is not None:
            assert got.k_hat[j] == ref.k_hat, (algo, rep)


@settings(max_examples=150, deadline=None)
@given(problem=instances(), algo=st.sampled_from(sorted(PAIRS)),
       scale=st.sampled_from([1, 1, 2, 10]), slack=st.integers(0, 30),
       seed=st.integers(0, 2**32 - 1), start=st.integers(1, 10**6), count=st.integers(1, 12))
def test_lockstep_equals_scalar(problem, algo, scale, slack, seed, start, count):
    T = scale * budget_floor(algo, problem.K) + slack
    assert_rows_match(algo, problem, T, seed, start, start + count)


@pytest.mark.parametrize("algo", sorted(PAIRS))
def test_noiseless_ties_exhaustive(algo):
    # With sigma = 0 an arm at the threshold estimates exactly tau, which
    # exercises every tie-breaking comparison of the walk.
    for K in range(1, 9):
        for below in range(K + 1):
            for ties in range(K - below + 1):
                means = [-1.0] * below + [0.0] * ties + [1.0] * (K - below - ties)
                problem = Problem(means, 0.0, 0.0)
                assert_rows_match(algo, problem, 2 * budget_floor(algo, K), 0, 0, 1)


@pytest.mark.parametrize("algo", sorted(PAIRS))
def test_budget_error_before_any_draw(algo):
    problem = make_setting(Setting.S1, 50, 0.3, 0.0, 1.0)
    block = VariateBlock(1, 0, 4)
    with pytest.raises(BudgetError):
        PAIRS[algo][1](problem, budget_floor(algo, problem.K) - 1, block)
    assert block._generators is None  # no stream was even built


@pytest.mark.parametrize("algo", ["explore", "naive"])
def test_shape_error(algo):
    with pytest.raises(ShapeError):
        PAIRS[algo][1](Problem([0.5, -0.1, 0.2], 1.0, 0.0), 300, VariateBlock(0, 0, 2))


def test_prefix_is_the_streams_scalar_draws():
    block = VariateBlock(9, 3, 7)
    block.prefix(5)
    z = block.prefix(40)
    for j, rep in enumerate(range(3, 7)):
        gen = RngStream(9, rep).generator
        assert np.array_equal(z[j], [gen.standard_normal() for _ in range(40)])


def test_cell_from_grown_block_equals_fresh_streams():
    seed, start, stop = 2024, 17, 45
    shared = VariateBlock(seed, start, stop)
    small = make_setting(Setting.S2, 9, 0.2, 0.0, 1.0)
    wide = make_setting(Setting.S1, 240, 0.2, 0.0, 1.0)
    cell = make_setting(Setting.S1, 100, 0.3, 0.0, 1.0)
    uniform_batch(small, 90, shared)
    explore_batch(wide, 2000, shared)
    uniform_batch(wide, 2400, shared)
    assert shared._block.shape[1] == 240  # wider than every later cell needs
    for algo, T in (("explore", 1000), ("naive", 1000), ("uniform", 1000)):
        assert_rows_match(algo, cell, T, seed, start, stop, block=shared)
        fresh = PAIRS[algo][1](cell, T, VariateBlock(seed, start, stop))
        again = PAIRS[algo][1](cell, T, shared)
        assert np.array_equal(fresh.labels, again.labels)
        assert np.array_equal(fresh.total_budget, again.total_budget)

