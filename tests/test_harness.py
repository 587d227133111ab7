import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

import tbp.algos
import tbp.harness
from tbp import (ExperimentConfig, Problem, Setting, gaps, make_setting, run_experiment, run_trial,
                 true_labels, wilson_interval, write_csv)
from tbp.env import VariateBlock, _band_labels
from tbp.harness import (ALGORITHMS, CSV_HEADER, _band_chunk, _outcomes, _row_line, _run_task,
                         _scored, plan_tasks, simple_regret)


def cfg(**overrides):
    base = dict(
        setting=Setting.S2,
        algos=("uniform",),
        K=4,
        T=400,
        delta=5.0,
        sigma=1.0,
        tau=0.0,
        reps=10,
        base_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_needs_algorithms(self):
        with pytest.raises(ValueError):
            cfg(algos=())

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            cfg(algos=("bogus",))

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            cfg(sweep_param="delta", sweep_values=(0.2, 0.1))

    def test_custom_requires_means(self):
        with pytest.raises(ValueError):
            cfg(setting=Setting.CUSTOM, custom_means=None)

    @pytest.mark.parametrize("overrides", [
        dict(K=2),
        dict(sweep_param="K", sweep_values=(2, 4)),
        dict(delta=float("nan")),
        dict(delta=float("inf")),
        dict(sweep_param="delta", sweep_values=(0.1, float("inf"))),
        dict(sweep_param="delta", sweep_values=(-0.1, 0.2)),
        dict(sigma=float("inf")),
        dict(sigma=float("nan")),
        dict(sigma=-1.0),
        dict(tau=float("inf")),
        dict(setting=Setting.CUSTOM, custom_means=(0.1,), K=1, sigma=float("inf")),
        dict(T=0),
        dict(setting=Setting.S1, delta=150.0),
        dict(setting=Setting.S1, sweep_param="delta", sweep_values=(0.5, 100.0)),
        dict(tau=1e17, delta=0.1),
        dict(setting=Setting.S1, tau=-1e17, delta=0.1),
        dict(setting=Setting.S2_CONCAVE, tau=1e17, delta=0.1),
        dict(tau=1e15, sweep_param="delta", sweep_values=(0.01, 0.1)),
        dict(sweep_param="K", sweep_values=(3.7, 5)),
        dict(sweep_param="K", sweep_values=(3, float("inf"))),
        dict(setting=Setting.CUSTOM, custom_means=(0.1, float("nan")), K=2),
        dict(K=2, sweep_param="K", sweep_values=(3, 5)),
        dict(T=400.5),
        dict(reps=2.5),
        dict(K=4.5),
    ])
    def test_rejects_values_no_instance_can_honour(self, overrides):
        with pytest.raises(ValueError):
            cfg(**overrides)


class TestWilson:
    @pytest.mark.parametrize("errors,n", [(0, 10), (3, 10), (50, 1000), (1000, 1000), (1, 100000)])
    def test_matches_scipy(self, errors, n):
        lo, hi = wilson_interval(errors, n)
        ref = scipy.stats.binomtest(errors, n).proportion_ci(confidence_level=0.95, method="wilson")
        assert lo == pytest.approx(ref.low, abs=1e-12)
        assert hi == pytest.approx(ref.high, abs=1e-12)

    def test_brackets_rate(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 5000))
            e = int(rng.integers(0, n + 1))
            lo, hi = wilson_interval(e, n)
            assert 0.0 <= lo <= e / n <= hi <= 1.0


class TestSimpleRegret:
    def test_perfect_is_zero(self):
        assert simple_regret([1, -1], [1, -1], [0.1, 0.3]) == 0.0

    def test_fully_mislabeled_takes_max_gap(self):
        assert simple_regret([-1, 1], [1, -1], [0.1, 0.3]) == 0.3

    def test_partial(self):
        assert simple_regret([1, 1, -1], [1, -1, -1], [0.5, 0.2, 0.9]) == 0.2


@settings(max_examples=300, deadline=None)
@given(
    tau=st.floats(-2, 2),
    # A zero offset puts an arm exactly at tau, where the truth is +1 and the gap 0.
    offsets=st.lists(st.one_of(st.just(0.0), st.floats(-5, 5)), min_size=1, max_size=40),
    flips=st.lists(st.lists(st.booleans(), min_size=40, max_size=40), max_size=6),
)
def test_a_cell_is_scored_by_the_true_labels_and_gaps_of_its_instance(tau, offsets, flips):
    problem = Problem([tau + x for x in offsets], 1.0, tau)
    right, gap_values = true_labels(problem).labels, gaps(problem).gaps
    # The all-correct row first, then rows with random arms flipped.
    labels = right * np.where(np.array([[False] * 40, *flips])[:, :len(right)], -1, 1)
    erred, regrets = _outcomes(problem, labels)
    for row, e, regret in zip(labels, erred, regrets):
        mismatch = row != right
        assert e == mismatch.any()
        assert regret == (gap_values[mismatch].max() if mismatch.any() else 0.0)
        assert simple_regret(row, right, gap_values) == regret


@st.composite
def bands(draw):
    """An instance with arms at tau, and band ends (l, r) as the tree searches return them."""
    tau = draw(st.sampled_from([0.0, -1.5, 2.25]))
    offsets = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.5, 0.5, 3.0]), st.floats(-5, 5)),
                            min_size=1, max_size=30))
    n = len(offsets)
    rows = draw(st.integers(1, 12))
    # explore/naive: a suffix l..n, l = n + 1 when every arm is labelled below.
    l = draw(st.lists(st.integers(1, n + 1), min_size=rows, max_size=rows))
    if draw(st.booleans()):
        return Problem([tau + x for x in offsets], 1.0, tau), np.array(l), n
    # ctb: any band, empty ones (l > r: l = n + 1, r = 0) included.
    r = draw(st.lists(st.integers(0, n), min_size=rows, max_size=rows))
    return Problem([tau + x for x in offsets], 1.0, tau), np.array(l), np.array(r)


@settings(max_examples=400, deadline=None)
@given(band=bands())
def test_a_band_is_scored_from_its_ends_as_its_labels_are(band):
    problem, l, r = band
    want = _outcomes(problem, _band_labels(problem.K, l, r))
    (got,) = _band_chunk([problem], [(l, r)])
    for row, (w, g) in enumerate(zip(want, got)):
        assert g.dtype == w.dtype and np.array_equal(g, w), (row, l, r)


@st.composite
def band_cells(draw):
    """Consecutive cells of one sweep, each a small instance with arms at tau and 1-7 band
    rows, ends out of range (``l <= 0``, ``r > n``) and empty bands (``l > r``) included; a
    cell of an explore-like search has the scalar ``r = n``."""
    cells, tau = [], draw(st.sampled_from([0.0, -1.5, 2.25]))
    for _ in range(draw(st.integers(1, 6))):
        offsets = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.5, 0.5]), st.floats(-5, 5)),
                                min_size=1, max_size=60))
        n, rows = len(offsets), draw(st.integers(1, 7))
        l = np.array(draw(st.lists(st.integers(-2, n + 2), min_size=rows, max_size=rows)))
        r = n if draw(st.booleans()) else np.array(
            draw(st.lists(st.integers(-2, n + 2), min_size=rows, max_size=rows)))
        cells.append((Problem([tau + x for x in offsets], 1.0, tau), l, r))
    return cells


@settings(max_examples=300, deadline=None)
@given(cells=band_cells())
def test_band_cells_are_scored_in_chunks_as_their_labels_are(cells):
    want = [_outcomes(problem, _band_labels(problem.K, l, r)) for problem, l, r in cells]
    problems = [problem for problem, _, _ in cells]
    results = [tbp.algos.BatchResult(None, np.zeros(np.size(l), dtype=np.int64), problem.K,
                                     band=(l, r)) for problem, l, r in cells]
    # One arm a chunk scores every cell alone, three arms group some, the default all of them.
    for arms in (1, 3, tbp.harness._CHUNK_ARMS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tbp.harness, "_CHUNK_ARMS", arms)
            got = list(_scored(problems, results))
        assert len(got) == len(want)
        for cell, ((w_err, w_reg), (g_err, g_reg)) in enumerate(zip(want, got)):
            assert g_err.dtype == w_err.dtype and np.array_equal(g_err, w_err), (arms, cell)
            assert g_reg.dtype == w_reg.dtype and np.array_equal(g_reg, w_reg), (arms, cell)


def test_a_chunk_holds_at_most_its_bound_of_arms_and_rows_and_is_scored_when_full(monkeypatch):
    events = []
    monkeypatch.setattr(tbp.harness, "_band_chunk",
                        lambda problems, bands: events.append([p.K for p in problems])
                        or [(None, None)] * len(problems))
    monkeypatch.setattr(tbp.harness, "_CHUNK_ARMS", 10)
    monkeypatch.setattr(tbp.harness, "_CHUNK_ROWS", 6)
    sizes = [4, 5, 12, 1, 3, 3, 3, 2]
    problems = [Problem(np.linspace(-1, 1, k), 1.0, 0.0) for k in sizes]

    def walks():  # a lockstep call's results, each walked when it is asked for
        for n in sizes:
            events.append(n)
            yield tbp.algos.BatchResult(None, np.zeros(2, dtype=np.int64), n,
                                        band=(np.ones(2, dtype=np.int64), n))
    assert len(list(_scored(problems, walks()))) == len(sizes)
    # 12 arms exceed the bound, so that cell goes alone; 2 rows more than 1 + 3 + 3's 6 would
    # pass the row bound.  A chunk is scored before the cell that does not fit in it is walked.
    assert events == [4, 5, [4, 5], 12, [12], 1, 3, 3, [1, 3, 3], 3, 2, [3, 2]]


@pytest.mark.parametrize("reps", [1, 7, 9, 129, 1025, 2049])
def test_the_mean_regret_is_the_sum_of_every_replication_over_reps(monkeypatch, reps):
    """However the replications split into tasks, a cell's mean regret is one sum over all of
    them, divided by ``reps``, never a sum of per-task sums.  A task's outcomes depend only on
    its replications, so one task over all of them gives their concatenation."""
    means = tuple(np.round(np.linspace(-1.3, 0.9, 24) ** 3, 4))  # 24 distinct gaps
    config = cfg(setting=Setting.CUSTOM, algos=("explore", "naive", "uniform"), K=24, T=200,
                 sigma=2.0, reps=reps, custom_means=means)
    want = [np.sum(regrets) / reps for _, regrets in _run_task(config, 0, reps)]
    for task_reps in (tbp.harness._TASK_REPS, 4):
        monkeypatch.setattr(tbp.harness, "_TASK_REPS", task_reps)
        got = [row.estimate.mean_simple_regret for row in run_experiment(config)]
        assert got == [float(w) for w in want], task_reps
    assert reps == 1 or all(w > 0 for w in want)


@pytest.mark.parametrize("problem", [
    make_setting(Setting.S2, 40, 0.15, 0.3, 1.0),  # small gaps: many rows err
    make_setting(Setting.S1, 33, 0.1, 0.0, 1.0),
    make_setting(Setting.S2_CONCAVE, 21, 0.05, -1.0, 1.0),
    Problem([-1.0, -0.2, 0.0, 0.0, 0.3, 2.0], 1.0, 0.0),  # arms at tau
    Problem([-1.0, 0.0, 0.4, 0.0, -1.0], 1.0, 0.0),  # a concave one with arms at tau
], ids=["s2", "s1", "tent", "ties", "concave-ties"])
def test_every_lockstep_cell_is_scored_as_its_labels(monkeypatch, problem):
    monkeypatch.setattr(tbp.algos, "_CTB_ELEMENTS", 100)  # several uniform row blocks
    for name in ALGORITHMS:
        entry = tbp.algos.ALGORITHMS[name]
        try:
            entry.check(problem, 3000)
        except ValueError:
            continue
        (res,) = entry.lockstep([problem], 3000, VariateBlock(11, 3, 40))
        ((erred, regrets),) = _scored([problem], [res])
        want_erred, want_regrets = _outcomes(problem, res.labels)
        assert np.array_equal(erred, want_erred) and np.array_equal(regrets, want_regrets), name


def test_tree_search_cells_build_no_label_matrix():
    """explore, naive and ctb cells at K = 5,001 over 1,024 replications are scored from band
    ends: a task's traced peak stays under 12 MB, where one cell's int64 labels took 41 MB and
    scoring them as many again."""
    runs = [cfg(setting=Setting.S2, algos=("explore", "naive"), K=5001, T=200_000, delta=0.1),
            cfg(setting=Setting.S2_CONCAVE, algos=("ctb",), K=5001, T=6000, delta=0.001)]
    for config in runs:
        config = ExperimentConfig(**{**config.__dict__, "reps": 1024})
        tracemalloc.start()
        try:
            rows = run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not any(row.skipped for row in rows)
        assert peak < 12 * 2**20, (config.algos, peak)


def test_a_sweep_keeps_its_instances_and_no_copies_of_them():
    """A task scores each cell as its labels arrive: its traced peak stays within twice the
    bytes of its instances' means, where one truth kept per grid point (int64 labels and
    float64 gaps) took it past three times."""
    grid = tuple(range(3, 1499, 5))
    config = cfg(setting=Setting.S2_CONCAVE, K=3, T=6000, delta=0.3, reps=5, base_seed=3,
                 sweep_param="K", sweep_values=grid)
    run_experiment(config)  # first-use imports and caches stay out of the measurement
    tracemalloc.start()
    try:
        run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / sum(8 * K for K in grid) < 2


def recorded_blocks(monkeypatch):
    """The variate blocks the harness builds from now on, each recording the widths it draws."""
    blocks = []

    class Recording(VariateBlock):
        def __init__(self, *args):
            super().__init__(*args)
            self.draws = []
            blocks.append(self)

        def prefix(self, n):
            if n > self._block.shape[1]:
                self.draws.append(n)
            return super().prefix(n)

    monkeypatch.setattr(tbp.harness, "VariateBlock", Recording)
    return blocks


@pytest.mark.parametrize("overrides,width", [
    # uniform reads K = 100; explore 3 T1 = 84 and naive H = 7 are slices of it.
    (dict(setting=Setting.S1, algos=("explore", "naive", "uniform"), K=100, T=1000), 100),
    # uniform (K = 100 > T) is skipped, so explore's 84 is the widest.
    (dict(setting=Setting.S1, algos=("explore", "naive", "uniform"), K=100, T=90), 84),
    # ctb at K = 2,500 reads 12 T1 = 564; uniform's 2,500 arms exceed T and are skipped.
    (dict(setting=Setting.S2_CONCAVE, algos=("ctb", "uniform"), K=10, T=2000, delta=0.3,
          sweep_param="K", sweep_values=(10, 100, 2500)), 564),
], ids=["delta-uniform-widest", "delta-uniform-skipped", "K-ctb-uniform"])
def test_each_task_draws_its_block_once_at_the_widest_checked_width(monkeypatch, overrides,
                                                                   width):
    monkeypatch.setattr(tbp.harness, "_TASK_REPS", 4)
    blocks = recorded_blocks(monkeypatch)
    overrides = {"sweep_param": "delta", "sweep_values": (0.1, 0.3, 0.5), **overrides}
    rows = run_experiment(cfg(reps=10, **overrides))
    assert [(b.start, b.stop) for b in blocks] == [(0, 4), (4, 8), (8, 10)]
    for block in blocks:
        assert block.draws == [width] and block._block.shape[1] == width
    assert not all(row.skipped for row in rows)


def test_a_task_whose_cells_are_all_skipped_draws_nothing(monkeypatch):
    blocks = recorded_blocks(monkeypatch)
    config = cfg(setting=Setting.S1, algos=("explore", "naive", "uniform"), K=100, T=5, delta=0.2)
    assert all(row.skipped for row in run_experiment(config))
    (block,) = blocks
    assert block._generators is None and block.draws == []


def test_a_task_draws_no_second_block():
    """A uniform K sweep over 2,999 and 3,000 arms at 1,024 replications draws one 1,024 x 3,000
    float64 block: its traced peak stays under 1.5 such blocks, where growing the block to 5,998
    columns with the narrower one alive took 3."""
    config = cfg(K=2999, T=6000, delta=0.1, reps=1024, sweep_param="K", sweep_values=(2999, 3000))
    tracemalloc.start()
    try:
        run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * 1024 * 3000, peak


class TestRunTrial:
    def test_noiseless_perfect(self):
        c = cfg(sigma=0.0, algos=("explore",), T=300, delta=0.3)
        assert run_trial(c, "explore", 0) == (False, 0.0)

    def test_deterministic(self):
        c = cfg(algos=("explore",), T=300, delta=0.2, sigma=1.0)
        assert run_trial(c, "explore", 3) == run_trial(c, "explore", 3)

    def test_reps_differ(self):
        c = cfg(setting=Setting.CUSTOM, custom_means=(0.05,), algos=("uniform",), T=1, K=1)
        outcomes = {run_trial(c, "uniform", rep) for rep in range(64)}
        assert len(outcomes) == 2  # both error and success occur across streams


class TestRunExperiment:
    def test_easy_uniform_rate(self):
        rows = run_experiment(cfg(reps=1000))
        (row,) = rows
        assert row.estimate.errors <= 10
        assert row.estimate.rate <= 0.01

    def test_single_rep_rate_is_binary(self):
        rows = run_experiment(cfg(reps=1, delta=0.01))
        assert rows[0].estimate.rate in (0.0, 1.0)

    def test_skipped_row_on_budget_failure(self):
        rows = run_experiment(cfg(algos=("explore", "uniform"), T=50, K=50, reps=5))
        by_algo = {r.algo: r for r in rows}
        assert by_algo["explore"].skipped
        assert not by_algo["uniform"].skipped

    def test_ctb_without_slope_budget_is_skipped(self):
        # T // 3 == 0 leaves the slope walk no budget at all.
        rows = run_experiment(cfg(setting=Setting.S2_CONCAVE, algos=("ctb", "uniform"), K=3,
                                  T=2, delta=0.3, reps=3))
        assert [r.skipped for r in rows] == [True, True]

    def test_grid_major_row_order(self):
        c = cfg(algos=("uniform", "explore"), T=400, delta=0.5, reps=2,
                sweep_param="delta", sweep_values=(0.5, 1.0))
        rows = run_experiment(c)
        assert [(r.delta, r.algo) for r in rows] == [
            (0.5, "uniform"), (0.5, "explore"), (1.0, "uniform"), (1.0, "explore")]

    def test_parallel_matches_serial(self, tmp_path):
        c = cfg(algos=("explore", "uniform"), T=400, delta=0.3, reps=64)
        serial = run_experiment(c, threads=1)
        parallel = run_experiment(c, threads=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(serial, a)
        write_csv(parallel, b)
        assert a.read_bytes() == b.read_bytes()

    def test_errors_bounded_by_reps(self):
        rows = run_experiment(cfg(reps=30, delta=0.05))
        for row in rows:
            est = row.estimate
            assert 0 <= est.errors <= row.reps
            assert est.ci_low <= est.rate <= est.ci_high


class TestPlanTasks:
    def test_single_replication_gets_one_worker(self):
        assert plan_tasks(1, 64, 2) == (1, [(0, 1)])

    def test_workers_capped_by_cores(self):
        assert plan_tasks(500, 4, 2) == (2, [(0, 250), (250, 500)])

    def test_workers_capped_by_replications(self):
        assert plan_tasks(3, 8, 16) == (3, [(0, 1), (1, 2), (2, 3)])

    def test_serial_runs_one_range(self):
        assert plan_tasks(1000, 1, 8) == (1, [(0, 1000)])

    def test_ranges_bounded_and_contiguous(self):
        workers, ranges = plan_tasks(5000, 2, 2)
        assert workers == 2
        assert ranges[0][0] == 0 and ranges[-1][1] == 5000
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert max(stop - start for start, stop in ranges) <= 1024

    @pytest.mark.parametrize("args", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_rejects_nonpositive(self, args):
        with pytest.raises(ValueError):
            plan_tasks(*args)


class TestNoHiddenTrials:
    def test_ctb_runs_once_per_replication(self, monkeypatch):
        calls = []
        real_batch = tbp.algos.ctb_batch

        def counting_batch(problems, T, variates, **kwargs):
            calls.append([p.K for p in problems for _ in range(variates.reps)])
            return real_batch(problems, T, variates, **kwargs)

        def no_scalar_ctb(*args, **kwargs):
            raise AssertionError("the harness walks ctb only through ctb_batch")

        monkeypatch.setattr(tbp.algos, "ctb_batch", counting_batch)
        monkeypatch.setattr(tbp.algos, "ctb", no_scalar_ctb)
        # K = 257 needs floor(400 / 34) >= 12 and is skipped.
        c = cfg(setting=Setting.S2_CONCAVE, algos=("ctb", "uniform"), T=1200, delta=0.3,
                reps=4, sweep_param="K", sweep_values=(3, 9, 257))
        rows = run_experiment(c)
        assert [r.skipped for r in rows if r.algo == "ctb"] == [False, False, True]
        (walked,) = calls  # one lockstep walk spans every ctb cell of the task
        assert walked.count(3) == walked.count(9) == c.reps
        assert 257 not in walked  # skipped by the budget rule, never walked

    @pytest.mark.parametrize("walker", ["explore_batch", "naive_batch", "uniform_batch",
                                        "ctb_batch"])
    def test_patched_lockstep_walker_is_seen(self, monkeypatch, walker):
        # A tracer wraps the lockstep walkers by module attribute, so the
        # harness must look each of them up there when it walks.
        calls = []
        real = getattr(tbp.algos, walker)

        def counting(*args, **kwargs):
            calls.append(walker)
            return real(*args, **kwargs)

        monkeypatch.setattr(tbp.algos, walker, counting)
        # Means on a line are both relaxed-monotone and concave: every algorithm runs.
        c = cfg(setting=Setting.CUSTOM, custom_means=tuple(np.arange(-4, 4) + 0.5), K=8,
                algos=ALGORITHMS, T=3000, reps=3)
        assert not any(row.skipped for row in run_experiment(c))
        assert calls


class TestCsv:
    def test_header_and_float_format(self, tmp_path):
        rows = run_experiment(cfg(reps=4))
        path = tmp_path / "out.csv"
        write_csv(rows, path, comment="demo")
        lines = path.read_text().splitlines()
        assert lines[0] == "# demo"
        assert lines[1] == CSV_HEADER
        assert len(lines) == 3

    def test_six_decimal_places(self):
        row = run_experiment(cfg(reps=4))[0]
        object.__setattr__(row.estimate, "rate", 0.02275)
        assert ",0.022750," in _row_line(row)

    def test_rewrite_is_byte_identical(self, tmp_path):
        c = cfg(reps=16, delta=0.4)
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        write_csv(run_experiment(c), p1, comment="x")
        write_csv(run_experiment(c), p2, comment="x")
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "nope.csv")


class TestCalibration:
    def test_single_arm_uniform_smoke(self):
        # Down-scaled version of the analytic calibration (full run in acceptance).
        c = ExperimentConfig(setting=Setting.CUSTOM, algos=("uniform",), K=1, T=100,
                             delta=0.1, sigma=1.0, tau=0.0, reps=4000, base_seed=42,
                             custom_means=(0.2,))
        (row,) = run_experiment(c)
        target = NormalDist().cdf(-2)
        assert row.estimate.rate == pytest.approx(target, abs=0.008)


@pytest.mark.parametrize("seed", [2.5, -1, 2**64, float("nan"), "3"])
def test_a_seed_no_stream_can_take_is_refused(seed):
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        cfg(base_seed=seed)


def test_a_whole_float_seed_is_the_integer_seed():
    config = cfg(base_seed=2.0, reps=3)
    assert config.base_seed == 2 and type(config.base_seed) is int
    rows = run_experiment(config)
    assert rows == run_experiment(cfg(base_seed=2, reps=3))
    assert [str(row.seed) for row in rows] == ["2"]  # the CSV's seed column


def test_whole_float_fields_are_the_integers():
    config = cfg(K=4.0, T=400.0, reps=3.0)
    assert (config.K, config.T, config.reps) == (4, 400, 3)
    assert all(type(v) is int for v in (config.K, config.T, config.reps))
    rows = run_experiment(config)
    assert rows == run_experiment(cfg(K=4, T=400, reps=3))
    assert _row_line(rows[0]).split(",")[2:4] == ["4", "400"]  # the CSV's K and T columns


def test_a_custom_k_field_must_count_the_means():
    # The K field is written to the CSV: it must describe the instance that ran.
    with pytest.raises(ValueError, match="number of custom means, 2, got 7"):
        cfg(setting=Setting.CUSTOM, algos=("uniform",), K=7, T=100, delta=0.2, reps=3,
            custom_means=(0.2, 0.5))
    (row,) = run_experiment(cfg(setting=Setting.CUSTOM, K=2, custom_means=(0.2, 0.5), reps=3))
    assert _row_line(row).split(",")[2] == "2"


@pytest.mark.parametrize("T", [2**63, 10**20])
def test_a_budget_int64_cannot_hold_is_refused(T):
    with pytest.raises(ValueError, match=r"T must be a nonnegative integer below 2\*\*63"):
        cfg(T=T)


@pytest.mark.parametrize("overrides,match", [
    pytest.param(dict(sweep_param="sigma", sweep_values=(0.5, 1.0)), "sweep_param",
                 id="unknown-sweep-param"),
    pytest.param(dict(sweep_param="delta", sweep_values=()), "nonempty", id="empty-sweep"),
    pytest.param(dict(setting=Setting.CUSTOM, K=2, custom_means=(0.2, 0.5), sweep_param="delta",
                      sweep_values=(0.1, 0.2)), "custom", id="custom-sweep"),
])
def test_a_sweep_no_run_can_make_is_refused(overrides, match):
    with pytest.raises(ValueError, match=match):
        cfg(**overrides)


def test_an_empty_sample_and_no_worker_are_refused():
    with pytest.raises(ValueError, match="n >= 1"):
        wilson_interval(0, 0)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        run_experiment(cfg(), threads=0)
