"""Golden bytes: the sha256 of CLI outputs, pinned to the seeding contract.

Replication ``i`` of every cell draws from ``RngStream(seed, i)``, so each CSV
below is a pure function of its argv for a fixed numpy version.  The digests
were recorded from the scalar per-replication engine; any engine change that
shifts a single variate, reorders rows or changes float formatting fails
here, at every thread count.  The ``naive``, ``dexplore`` and ``gradexplore``
traces and the lemma digest were recorded on the walkers that built one
``Node`` per step and drew one variate per ``sample_mean`` call.
"""
import hashlib

import numpy as np
import pytest

from tbp import (Problem, RngStream, Setting, ShapeClass, augment, ctb, dexplore,
                 distance_series, explore, favorable_series, gradexplore, make_setting, naive)
from tbp.cli import dispatch

CSV_CASES = {
    "run-s1": (
        ["run", "--setting", "1", "--algo", "explore,naive,uniform", "--K", "100",
         "--T", "1000", "--delta", "0.3", "--reps", "200", "--seed", "606"],
        "32b33b734730b478e6e72287240161e94e3dfb21cf9de003ae0c358563005ef4",
    ),
    "run-s2": (
        ["run", "--setting", "2", "--algo", "explore,naive,uniform", "--K", "20",
         "--T", "400", "--delta", "0.4", "--sigma", "1.5", "--tau", "0.25",
         "--reps", "200", "--seed", "99"],
        "5740d912c741d4fffa3b6709dd6ac62ca1f6b3b34f493ded3c7e7e4a008b4837",
    ),
    "run-2c": (
        ["run", "--setting", "2c", "--algo", "ctb,uniform", "--K", "21", "--T", "6000",
         "--delta", "0.3", "--reps", "20", "--seed", "5"],
        "c5347b51ead49ce90afab9861941804d3c4ae6236c1cba93ba6e8f792a766a07",
    ),
    "run-custom": (
        # Increasing and concave, with one arm tied at the threshold.
        ["run", "--setting", "custom", "--means=-1.5,-0.5,0.0,0.25,0.375",
         "--algo", "explore,naive,uniform,ctb", "--T", "600", "--reps", "100", "--seed", "3"],
        "8cbb0e86c19eb99e254098df269e24413be3d55ac7ec2fffe842df7e6e16bb30",
    ),
    "run-noiseless": (
        ["run", "--setting", "2", "--algo", "explore,naive,uniform", "--K", "7",
         "--T", "200", "--delta", "0.1", "--sigma", "0", "--reps", "5", "--seed", "1"],
        "0e7f4a65b540d9d780db66eb292ecd2d392632208ca8999e31ee8d178cbadb09",
    ),
    "sweep-delta-s1": (
        ["sweep", "--setting", "1", "--algo", "explore,naive,uniform", "--K", "100",
         "--T", "1000", "--sweep", "delta", "--grid", "0.1:0.5:0.1", "--reps", "200",
         "--seed", "606"],
        "5b1b2d406cf2a82b922ac006513caca448bb3cd2eddfca074e71582ccd6f6b65",
    ),
    "sweep-delta-s2": (
        ["sweep", "--setting", "2", "--algo", "uniform,naive,explore", "--K", "33",
         "--T", "500", "--sweep", "delta", "--grid", "0.2,0.35,0.6", "--reps", "100",
         "--seed", "12"],
        "eb670cfa092608caf3bd17c9296e23b281ac63bc9c61a8d0aa49938a0f574545",
    ),
    "sweep-K-skipped": (
        # explore is skipped from K = 27 and uniform at K = 63 (T < K).
        ["sweep", "--setting", "1", "--algo", "explore,naive,uniform", "--T", "60",
         "--delta", "0.4", "--sweep", "K", "--grid", "3:63:3", "--reps", "50"],
        "2b17b23a34e596a46f99097161ab15b2b687168af1f218380506c39e99e6614b",
    ),
    "sweep-K-2c": (
        # ctb is skipped from K = 5 on.
        ["sweep", "--setting", "2c", "--algo", "ctb,uniform", "--T", "400",
         "--delta", "0.3", "--sweep", "K", "--grid", "3,5,9,17", "--reps", "10", "--seed", "4"],
        "bbdaa15ffdc3d0c95a5a80f1a2a3171e7356c4dd8cd42becaa9b40b8adc7a54e",
    ),
}

TRACE_CASES = {
    "trace-explore": (
        ["trace", "--setting", "1", "--algo", "explore", "--K", "100", "--T", "1000",
         "--delta", "0.2", "--seed", "3", "--rep", "4"],
        "9efbbbc28ae0dd444869cadff8165c7218163ae12f0a65e3a236ffd4b55028c1",
    ),
    "trace-ctb": (
        ["trace", "--setting", "2c", "--algo", "ctb", "--K", "31", "--T", "6000",
         "--delta", "0.3", "--seed", "8"],
        "642a4f5fb1fb64ea6d2f64a65900f85ede398668c51559225be07a4448b692bc",
    ),
    "trace-naive": (
        ["trace", "--setting", "2", "--algo", "naive", "--K", "40", "--T", "300",
         "--delta", "0.3", "--seed", "6", "--rep", "2"],
        "24d7eb7825656383df16aa46a6ce41f2f7a948e11229a1fcb75cc79ff2f6ae98",
    ),
    "trace-dexplore": (
        # Custom non-increasing means with an arm tied at the threshold.
        ["trace", "--setting", "custom", "--means=2,1,0.5,0,-0.5,-1,-1,-3", "--algo",
         "dexplore", "--T", "900", "--sigma", "0.8", "--seed", "10", "--rep", "1"],
        "4a04af8bb32865409d7fe7d292710d2c84e31762d67708ad41ea2fc505880329",
    ),
    "trace-gradexplore": (
        ["trace", "--setting", "2c", "--algo", "gradexplore", "--K", "41", "--T", "2000",
         "--delta", "0.25", "--seed", "13"],
        "4b3f728742c4f719130eb968e9959e56ff1c38a18669ca22ebcfd697f7d40a07",
    ),
}


def _digest(argv, tmp_path, capsys):
    out = tmp_path / "out.txt"
    code = dispatch(argv + ["--out", str(out)])
    capsys.readouterr()
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_csv_bytes(case, threads, tmp_path, capsys):
    argv, expected = CSV_CASES[case]
    assert _digest(argv + ["--threads", threads], tmp_path, capsys) == expected


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_trace_bytes(case, tmp_path, capsys):
    argv, expected = TRACE_CASES[case]
    assert _digest(argv, tmp_path, capsys) == expected


def _lemma_digest():
    """sha256 of the recorded walks' lemma outputs over 1,400 walks.

    Each walk contributes its ``k_hat``, ``D`` (or the error that refuses it:
    a tie at the threshold leaves no unique bracketing leaf), ``xi``, the
    appended arms and every recorded slot mean.
    """
    h = hashlib.sha256()

    def add(traj, problem, mode, k_hat=None):
        try:
            D = distance_series(traj, problem, mode).astype("<i8").tobytes()
        except (ValueError, RuntimeError) as exc:
            D = repr(exc).encode()
        xi = favorable_series(traj, problem)
        means = [v for rec in traj.steps for v in rec.slot_means.values()]
        h.update(repr(k_hat).encode() + D + xi.tobytes()
                 + repr([rec.appended_arm for rec in traj.steps]).encode()
                 + np.asarray(means, dtype="<f8").tobytes())

    mono, conc = ShapeClass.MONOTONE, ShapeClass.CONCAVE
    s1 = make_setting(Setting.S1, 100, 0.2, 0.0, 1.0)
    tent = augment(make_setting(Setting.S2_CONCAVE, 100, 0.2, 0.0, 1.0), conc)
    tied = Problem([-1.5, -0.5, 0.0, 0.0, 0.25, 1.0], 0.7, 0.0)
    tied_cap = augment(Problem([-1.0, 0.0, 0.5, 0.0, -1.0], 0.7, 0.0), conc)
    for rep in range(200):
        res = explore(s1, 1000, RngStream(505, rep))
        add(res.trajectory, res.problem, mono, res.k_hat)
        s2 = make_setting(Setting.S2, 3 + rep % 60, 0.3, 0.25, 0.0)
        res = explore(s2, 300 + 7 * rep, RngStream(506, rep))
        add(res.trajectory, res.problem, mono, res.k_hat)
        _, traj, spent = gradexplore(tent, 1000, RngStream(507, rep))
        add(traj, tent, conc, spent)
        res = explore(tied, 400, RngStream(508, rep))
        add(res.trajectory, res.problem, mono, res.k_hat)
        _, traj, spent = gradexplore(tied_cap, 800, RngStream(509, rep))
        add(traj, tied_cap, conc, spent)
        res = naive(s1, 300, RngStream(510, rep))
        add(res.trajectory, res.problem, mono, res.k_hat)
        res = dexplore(Problem(s1.means[::-1], 1.0, 0.0), 1000, RngStream(511, rep))
        add(res.trajectory, res.problem, mono, res.k_hat)
    return h.hexdigest()


def test_lemma_outputs():
    assert _lemma_digest() == "c15d834fe73d7d8b3ad2bf46860837da699c1fbce34f5a2cef1f2f32ec05b5ec"


def _large_budget_digest():
    """sha256 of 200 walks each of ``explore``, ``naive``, ``dexplore`` and ``ctb`` at ``T = 1e5``.

    Each walk contributes its ``k_hat``, labels and budget, every column of
    its trajectory (with ``favorable_series`` for ``explore``, as c10 reads
    it), and the next variate of its stream, which pins where the walk left it.
    """
    h = hashlib.sha256()
    s1 = make_setting(Setting.S1, 100, 0.2, 0.0, 1.0)
    s1_down = Problem(s1.means[::-1], 1.0, 0.0)
    tent = make_setting(Setting.S2_CONCAVE, 61, 0.2, 0.0, 1.0)
    walks = (
        (lambda rng: explore(s1, 100_000, rng), 1020, True),
        (lambda rng: naive(s1, 100_000, rng), 1021, False),
        (lambda rng: dexplore(s1_down, 100_000, rng), 1022, False),
        (lambda rng: ctb(tent, 100_000, rng), 1023, False),
    )
    for walk, seed, xi in walks:
        for rep in range(200):
            rng = RngStream(seed, rep)
            res = walk(rng)
            traj = res.trajectory
            h.update(repr((res.k_hat, res.total_budget, traj.slots, traj.t1, traj.t2)).encode()
                     + res.q_hat.labels.astype("<i8").tobytes())
            for name in ("left", "right", "depth", "dup_count", "parent_step", "action",
                         "budget", "appended"):
                h.update(getattr(traj, name).astype("<i8").tobytes())
            h.update(traj.estimates.astype("<f8").tobytes())
            if xi:
                h.update(favorable_series(traj, res.problem).tobytes())
            h.update(np.float64(rng.generator.standard_normal()).tobytes())
    return h.hexdigest()


def test_large_budget_walks():
    expected = "b4a9fd7bfd4f3d03fee4c15888e1ab78bca39de9bf79b13f6b3b7c2667329869"
    assert _large_budget_digest() == expected
