"""Lockstep walkers against the scalar walkers, replication by replication.

Row ``j`` of a lockstep run over ``VariateBlock(seed, start, stop)`` must
equal the scalar walker on a fresh ``RngStream(seed, start + j)``: same
``k_hat``, labels and budget, bit for bit.  ``ctb_batch`` runs several
cells at once and reports ``k_hat = 0`` where ``ctb`` returns ``None``.
"""
import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tbp import (BudgetError, Problem, RngStream, Setting, ShapeClass, ShapeError, augment,
                 make_setting, true_labels)
import tbp.algos
from tbp.algos import (
    ALGORITHMS,
    budget_split,
    ctb,
    ctb_batch,
    explore,
    explore_batch,
    gradexplore,
    naive,
    naive_batch,
    uniform,
    uniform_batch,
)
from tbp.env import VariateBlock
from tbp.tree import max_depth

PAIRS = {"explore": (explore, explore_batch), "naive": (naive, naive_batch),
         "uniform": (uniform, uniform_batch)}

#: Means whose sample means overflow: sigma * z is an infinity for a few variates, and a free
#: sentinel must still read its exact mean.  The second is concave.
OVERFLOWING = Problem([-1.7e308, 1.7e308], 1e308, 0.0)
OVERFLOWING_CONCAVE = Problem([-1e308, 1e308, 1e308, -1e308], 1e308, 0.0)


def budget_floor(algo, K):
    """Smallest budget each walker accepts on a raw K-armed instance."""
    if algo == "ctb":
        return ctb_floor(K)
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
@example(problem=OVERFLOWING, algo="explore", scale=1, slack=0, seed=2, start=1, count=12)
@example(problem=OVERFLOWING, algo="naive", scale=1, slack=0, seed=2, start=1, count=12)
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


@pytest.mark.parametrize("algo", [name for name, entry in ALGORITHMS.items() if entry.lockstep])
def test_budget_error_before_any_draw(algo):
    # Means on a line with half-integer steps are exactly relaxed-monotone
    # and concave in floats, so every algorithm's shape rule passes.
    problem = Problem(np.arange(-25, 25) + 0.5, 1.0, 0.0)
    entry, T = ALGORITHMS[algo], budget_floor(algo, problem.K)
    entry.check(problem, T)
    with pytest.raises(BudgetError):
        entry.check(problem, T - 1)
    block = VariateBlock(1, 0, 4)
    with pytest.raises(BudgetError):
        list(entry.lockstep([problem], T - 1, block))
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


def test_ascending_prefixes_grow_geometrically():
    # An ascending K sweep asks for one more column per cell; growing to
    # twice the width keeps the growths logarithmic in the requests.
    block, k = VariateBlock(31, 2, 6), 200
    widths = set()
    for n in range(1, k + 1):
        z = block.prefix(n)
        assert z.shape == (4, n)
        widths.add(block._block.shape[1])
    assert len(widths) <= k.bit_length() + 1  # 1, 2, 4, ..., 256
    assert block._block.shape[1] <= 2 * k
    for j, rep in enumerate(range(2, 6)):
        assert np.array_equal(z[j], RngStream(31, rep).generator.standard_normal(k))


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



def ctb_floor(K):
    """Smallest budget ctb accepts on a raw K-armed instance."""
    return 3 * 12 * budget_split(K + 2, 10**9)[0]


@st.composite
def concave_instances(draw):
    tau = draw(st.sampled_from([0.0, -1.5, 0.25, 7.0]))
    sigma = draw(st.sampled_from([0.0, 0.3, 1.0, 2.5]))
    if draw(st.booleans()):
        K = draw(st.integers(3, 400))
        delta = draw(st.sampled_from([0.05, 0.3, 1.0]))
        return make_setting(Setting.S2_CONCAVE, K, delta, tau, sigma)
    # Dyadic steps in non-increasing order: exactly concave, with arms that
    # can sit exactly at the threshold.
    K = draw(st.integers(1, 60))
    steps = sorted(draw(st.lists(st.sampled_from([2.0, 1.0, 0.5, 0.0, -0.5, -1.0, -2.0]),
                                 min_size=K - 1, max_size=K - 1)), reverse=True)
    offsets = np.cumsum([draw(st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.5]))] + steps)
    if draw(st.booleans()):  # peak at the threshold, or every arm below it
        offsets = offsets - offsets.max() - draw(st.sampled_from([0.0, 0.5]))
    return Problem(tau + offsets, sigma, tau)


def assert_ctb_rows_match(problems, T, seed, start, stop, block=None):
    results = list(ctb_batch(problems, T, block or VariateBlock(seed, start, stop)))
    assert len(results) == len(problems)
    for problem, got in zip(problems, results):
        for j, rep in enumerate(range(start, stop)):
            ref = ctb(problem, T, RngStream(seed, rep))
            assert np.array_equal(got.labels[j], ref.q_hat.labels), (problem.K, rep)
            assert got.total_budget[j] == ref.total_budget, (problem.K, rep)
            assert got.k_hat[j] == (0 if ref.k_hat is None else ref.k_hat), (problem.K, rep)
    return results


@settings(max_examples=100, deadline=None)
@given(problems=st.lists(concave_instances(), min_size=1, max_size=4),
       scale=st.sampled_from([1, 1, 2, 5]), slack=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1), start=st.integers(1, 10**6), count=st.integers(1, 6))
@example(problems=[OVERFLOWING_CONCAVE], scale=1, slack=0, seed=2, start=5, count=6)
def test_ctb_lockstep_equals_scalar(problems, scale, slack, seed, start, count):
    T = scale * max(ctb_floor(p.K) for p in problems) + slack
    assert_ctb_rows_match(problems, T, seed, start, start + count)


def test_ctb_noiseless_exhaustive():
    # Every concave sequence over {-2, -1, 0, 1} up to K = 6, at tau = 0 with
    # sigma = 0: estimates are exact, so every tie of the walk is exercised.
    for K in range(1, 7):
        problems = [Problem(m, 0.0, 0.0)
                    for m in itertools.product((-2.0, -1.0, 0.0, 1.0), repeat=K)
                    if np.all(0.5 * np.asarray(m[:-2]) + 0.5 * np.asarray(m[2:]) <= m[1:-1])]
        for T in (ctb_floor(K), 3 * ctb_floor(K) + 2):
            assert_ctb_rows_match(problems, T, 0, 0, 1)


@pytest.mark.parametrize("K,delta,rep", [(5, 0.1, 196), (12, 0.2, 277)])
def test_ctb_all_below_rule_at_its_boundary(K, delta, rep):
    # Replication rep's slope walk appends exactly T1 / 4 arms, which
    # still declares every arm below.
    problem = make_setting(Setting.S2_CONCAVE, K, delta, 0.0, 1.0)
    T = ctb_floor(K)
    t1 = budget_split(K + 2, T // 3 * 3)[0]
    state, _, _ = gradexplore(problem, T // 3, RngStream(3, rep))
    assert 4 * len(state.arms) == t1
    (got,) = assert_ctb_rows_match([problem], T, 3, rep - 4, rep + 4)
    assert got.k_hat[4] == 0


def test_ctb_cell_rows_do_not_depend_on_neighbours(monkeypatch):
    seed, start, stop, T = 77, 5, 13, 6000
    cells = [make_setting(Setting.S2_CONCAVE, K, 0.3, 0.0, 1.0) for K in (301, 3, 40, 9)]
    cells.append(Problem([-1.0, 0.0, 0.5, 0.0, -1.0], 0.7, 0.0))
    together = assert_ctb_rows_match(cells, T, seed, start, stop)
    monkeypatch.setattr(tbp.algos, "_CTB_ELEMENTS", 1)  # one cell per walk
    apart = list(ctb_batch(cells, T, VariateBlock(seed, start, stop)))
    for i, cell in enumerate(cells):
        (alone,) = ctb_batch([cell], T, VariateBlock(seed, start, stop))
        for other in (alone, apart[i]):
            assert np.array_equal(other.labels, together[i].labels)
            assert np.array_equal(other.k_hat, together[i].k_hat)
            assert np.array_equal(other.total_budget, together[i].total_budget)


def test_ctb_budget_error_before_any_draw():
    small, wide = (make_setting(Setting.S2_CONCAVE, K, 0.3, 0.0, 1.0) for K in (5, 257))
    block = VariateBlock(1, 0, 4)
    with pytest.raises(BudgetError):
        ctb_batch([small, wide], ctb_floor(wide.K) - 1, block)
    assert block._generators is None  # no stream was even built
    assert len(list(ctb_batch([small], ctb_floor(wide.K) - 1, block))) == 1  # it alone fits


def test_ctb_shape_error():
    with pytest.raises(ShapeError):
        ctb_batch([Problem([0.5, -0.1, 0.2], 1.0, 0.0)], 3000, VariateBlock(0, 0, 2))


@pytest.mark.parametrize("shape", [ShapeClass.MONOTONE, ShapeClass.CONCAVE])
def test_uniform_on_an_augmented_twin_is_uniform_on_the_instance(shape):
    # The free sentinels take no share of the budget: every real arm gets T / 4 draws.
    problem = Problem([-0.4, -0.1, 0.2, 0.5], 1.0, 0.0)
    twin = augment(problem, shape)
    raw = uniform(problem, 600, RngStream(3, 1))
    assert raw.total_budget == 600
    ALGORITHMS["uniform"].check(twin, 4)
    with pytest.raises(BudgetError):
        ALGORITHMS["uniform"].check(twin, 3)
    got = uniform(twin, 600, RngStream(3, 1))
    assert np.array_equal(got.q_hat.labels, raw.q_hat.labels) and got.total_budget == 600
    (rows,) = ALGORITHMS["uniform"].lockstep([twin], 600, VariateBlock(3, 1, 2))
    assert np.array_equal(rows.labels, [raw.q_hat.labels]) and rows.total_budget.tolist() == [600]


class RecordingBlock(VariateBlock):
    """A :class:`VariateBlock` that records every prefix width it is asked for."""

    def __init__(self, *args):
        super().__init__(*args)
        self.requests = []

    def prefix(self, n):
        self.requests.append(n)
        return super().prefix(n)


@settings(max_examples=200, deadline=None)
@given(problem=st.one_of(instances(), concave_instances(),
                         instances().map(lambda p: augment(p, ShapeClass.MONOTONE))),
       scale=st.sampled_from([1, 2, 10]), slack=st.integers(0, 30))
def test_check_returns_the_widest_prefix_its_walker_reads(problem, scale, slack):
    for name, entry in ALGORITHMS.items():
        if not entry.lockstep:
            continue
        T = scale * budget_floor(name, problem.K) + slack
        try:
            width = entry.check(problem, T)
        except ValueError:  # a budget or shape rule fails, or ctb refuses an augmented twin
            continue
        block = RecordingBlock(5, 0, 3)
        list(entry.lockstep([problem], T, block))
        assert max(block.requests) == width, name


class RecordingStream(RngStream):
    """An :class:`RngStream` that records every read-ahead width it is asked for."""

    def __init__(self, *args):
        super().__init__(*args)
        self.requests = []

    def read_ahead(self, n):
        self.requests.append(n)
        return super().read_ahead(n)


@settings(max_examples=100, deadline=None)
@given(problem=instances(), concave=concave_instances(), scale=st.sampled_from([1, 2, 10]),
       slack=st.integers(0, 30))
def test_scalar_walkers_read_ahead_the_registry_width(problem, concave, scale, slack):
    """Each scalar walk reads ahead the width its registry ``check`` gives, by the same rule."""
    for name, walk in (("explore", explore), ("naive", naive)):
        T = scale * budget_floor(name, problem.K) + slack
        rng = RecordingStream(5, 0)
        walk(problem, T, rng)
        assert rng.requests == [ALGORITHMS[name].check(problem, T)], name
    T = scale * ctb_floor(concave.K) + slack
    rng = RecordingStream(5, 0)
    ctb(concave, T, rng)
    # The slope walk reads half of ctb's width; the two searches together at most as much.
    slope, *searches = rng.requests
    assert 2 * slope == ALGORITHMS["ctb"].check(concave, T)
    assert len(searches) in (0, 2) and sum(searches) <= slope


def test_ctb_on_no_problems_yields_nothing_and_draws_nothing():
    block = VariateBlock(5, 0, 3)
    assert list(ctb_batch([], 300, block)) == []
    assert block._generators is None


#: The recorded walker of every algorithm with a lockstep walker.
SCALAR = {"explore": explore, "naive": naive, "uniform": uniform, "ctb": ctb}


def assert_noiseless_is_the_truth(problem, scale, slack):
    """At sigma = 0 every algorithm whose shape and budget rules pass labels every arm right,
    in every lockstep row and in its recorded walk."""
    assert set(SCALAR) == {name for name, entry in ALGORITHMS.items() if entry.lockstep}
    truth = true_labels(problem).labels
    for name, walk in SCALAR.items():
        entry, T = ALGORITHMS[name], scale * budget_floor(name, problem.K) + slack
        try:
            entry.check(problem, T)
        except (BudgetError, ShapeError):
            continue
        (rows,) = entry.lockstep([problem], T, VariateBlock(5, 0, 3))
        assert np.array_equal(rows.labels, np.tile(truth, (3, 1))), name
        assert np.array_equal(walk(problem, T, RngStream(5, 0)).q_hat.labels, truth), name


@pytest.mark.parametrize("setting", [Setting.S1, Setting.S2, Setting.S2_CONCAVE])
@pytest.mark.parametrize("K", [3, 4, 9, 100])
@pytest.mark.parametrize("delta,tau", [(0.05, 0.0), (1.0, -1.5)])
def test_noiseless_families_are_classified_exactly(setting, K, delta, tau):
    assert_noiseless_is_the_truth(make_setting(setting, K, delta, tau, 0.0), 1, 0)


@settings(max_examples=200, deadline=None)
@given(problem=st.one_of(instances(), concave_instances()), scale=st.sampled_from([1, 2, 10]),
       slack=st.integers(0, 30))
def test_noiseless_instances_are_classified_exactly(problem, scale, slack):
    assume(not np.any(problem.means == problem.tau))  # ties at tau are the tie rule's
    assert_noiseless_is_the_truth(Problem(problem.means, 0.0, problem.tau), scale, slack)
