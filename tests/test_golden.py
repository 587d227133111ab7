"""Golden bytes: the sha256 of CLI outputs, pinned to the seeding contract.

Replication ``i`` of every cell draws from ``RngStream(seed, i)``, so each CSV
below is a pure function of its argv for a fixed numpy version.  The digests
were recorded from the scalar per-replication engine; any engine change that
shifts a single variate, reorders rows or changes float formatting fails
here, at every thread count.
"""
import hashlib

import pytest

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
