from statistics import NormalDist

import numpy as np
import pytest
import scipy.stats

import tbp.algos
from tbp import ExperimentConfig, Setting, run_experiment, run_trial, wilson_interval, write_csv
from tbp.harness import ALGORITHMS, CSV_HEADER, _row_line, plan_tasks, simple_regret


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
