"""The benchmark's own tests: its output checks must count bad output as failed.

Run with ``python3 -m pytest bench`` from the repository root.
"""
import hashlib

import pytest

import checks
import run
from workloads import Sweep

MONO = Sweep("small-monotone", "1", ("explore", "naive", "uniform"), T=1000,
             sweep="delta", reps=50, K=20, points=3)
TIGHT = Sweep("small-budget", "1", ("explore", "naive", "uniform"), T=60,
              sweep="delta", reps=20, K=100, points=2)
CONCAVE = Sweep("small-concave", "2c", ("ctb", "uniform"), T=6000,
                sweep="K", reps=3, delta=0.3, points=4)


@pytest.fixture(scope="module")
def runner():
    return run.Runner(120.0)


def _csv(runner, wl, seed=5):
    res = runner.spawn("-m", "tbp", *wl.argv(seed, 1))
    assert res["code"] == 0
    return res["out"]


@pytest.mark.parametrize("wl", [MONO, TIGHT, CONCAVE], ids=lambda w: w.name)
def test_correct_output_passes(runner, wl):
    text = _csv(runner, wl)
    assert checks.check_sweep_csv(wl, 5, text) == [""] * len(wl.cells(5))


def test_budget_rule_predicts_skipped_cells():
    assert [checks.expected_skip("1", a, 100, 60) for a in TIGHT.algos] == [True, False, True]


def test_flipped_digit_fails_its_cell(runner):
    lines = _csv(runner, MONO).split("\n")
    fields = lines[4].split(",")          # uniform at the first grid point
    fields[8] = str(int(fields[8]) + 1)
    lines[4] = ",".join(fields)
    verdicts = checks.check_sweep_csv(MONO, 5, "\n".join(lines))
    assert [bool(v) for v in verdicts] == [i == 2 for i in range(len(verdicts))]


def test_missing_row_fails_its_cell(runner):
    lines = _csv(runner, MONO).split("\n")
    del lines[-2]
    verdicts = checks.check_sweep_csv(MONO, 5, "\n".join(lines))
    assert verdicts[-1] == "missing row" and sum(map(bool, verdicts)) == 1


def test_nonzero_exit_fails_every_cell(runner):
    res = runner.spawn("-m", "tbp", *MONO.argv(5, 1), "--sigma", "nan")
    assert res["code"] != 0
    out = run.judge_sweep(MONO, 5, res["code"], res["out"], {})
    assert out["failed"] == out["attempted"] == len(MONO.cells(5))


def test_changed_bytes_fail_the_sample(runner):
    text = _csv(runner, MONO)
    refs = {5: hashlib.sha256(text.encode()).hexdigest()}
    assert run.judge_sweep(MONO, 5, 0, text, refs)["failed"] == 0
    assert run.judge_sweep(MONO, 5, 0, text.replace("# ", "#  ", 1), refs)["failed"] == 9


def test_lemma_crash_and_violation_count_as_failed():
    assert run.judge_lemmas(1, None, 10, {})["failed"] == 10
    out = {"walks": 10, "failed": 2, "digest": "x"}
    assert run.judge_lemmas(1, out, 10, {})["failed"] == 2


def test_uniform_law_rejects_implausible_counts():
    p = checks.uniform_error_prob([-1.0, 1.0], 2, 1.0, 0.0)
    assert p == pytest.approx(1 - (1 - 0.15865525393145707) ** 2)
    assert checks.binomial_plausible(round(1000 * p), 1000, p)
    assert not checks.binomial_plausible(0, 1000, p)
    assert not checks.binomial_plausible(1, 1000, 0.0)
