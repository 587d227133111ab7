import re
import subprocess
import sys

import pytest

from tbp import cli, harness
from tbp.algos import ALGORITHMS
from tbp.cli import (MAX_GRID_POINTS, MAX_K, MAX_OUTCOMES, ConfigError, _parse_grid, build_parser,
                     dispatch)


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTree:
    def test_preorder_dump(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "--K", "5")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "0,1,3,5,0"
        assert len(lines) == 7

    def test_small_k_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "tree", "--K", "2")
        assert code == 1
        assert "config error" in err


class TestBounds:
    def test_monotone_lower_value(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--shape", "monotone", "--side", "lower",
                               "--delta-min", "0.2", "--T", "1000", "--sigma", "1")
        assert code == 0
        assert "1.06209e-18" in out

    def test_both_sides(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--shape", "concave", "--delta-min", "0.5",
                               "--T", "100000", "--sigma", "1", "--K", "10")
        lines = out.splitlines()
        assert code == 0
        assert lines[0].startswith("shape,side,")
        assert len(lines) == 3

    def test_unstructured(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--shape", "unstructured",
                               "--gaps", "0.1,0.2,0.5", "--T", "1290", "--K", "3")
        assert code == 0
        assert "-52.73" in out

    def test_missing_delta_min(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--shape", "monotone", "--T", "100")
        assert code == 1


class TestRun:
    def test_uniform_example(self, capsys, tmp_path):
        out_path = tmp_path / "r.csv"
        code, _, _ = run_cli(capsys, "run", "--setting", "2", "--algo", "uniform",
                             "--K", "4", "--T", "400", "--delta", "5", "--reps", "1000",
                             "--seed", "7", "--out", str(out_path), "--threads", "1")
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# setting=s2")
        assert lines[1].startswith("setting,algo,")
        assert len(lines) == 3
        rate = float(lines[2].split(",")[9])
        assert rate <= 0.01

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--setting", "2", "--algo", "uniform",
                               "--K", "3", "--T", "30", "--delta", "1", "--reps", "2",
                               "--threads", "1")
        assert code == 0
        assert out.splitlines()[1].startswith("setting,algo,")

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        args = ["run", "--setting", "1", "--algo", "explore,uniform", "--K", "10",
                "--T", "300", "--delta", "0.3", "--reps", "50", "--seed", "3", "--threads", "1"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert dispatch(args + ["--out", str(a)]) == 0
        assert dispatch(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_threads_do_not_change_bytes(self, capsys, tmp_path):
        args = ["run", "--setting", "2", "--algo", "explore", "--K", "8", "--T", "300",
                "--delta", "0.4", "--reps", "40", "--seed", "11"]
        files = []
        for threads in ("1", "2", "4"):
            path = tmp_path / f"t{threads}.csv"
            assert dispatch(args + ["--threads", threads, "--out", str(path)]) == 0
            files.append(path.read_bytes())
        capsys.readouterr()
        assert files[0] == files[1] == files[2]

    def test_custom_setting(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--setting", "custom", "--means", "0.2",
                               "--algo", "uniform", "--T", "100", "--reps", "10",
                               "--threads", "1")
        assert code == 0


class TestSweep:
    def test_delta_grid(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--setting", "2", "--algo", "uniform",
                             "--K", "4", "--T", "400", "--sweep", "delta",
                             "--grid", "0.5,1.0,2.0", "--reps", "20",
                             "--out", str(out_path), "--threads", "1")
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 5  # comment + header + 3 points
        assert [line.split(",")[4] for line in lines[2:]] == ["0.500000", "1.000000", "2.000000"]

    def test_range_grid_spec(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--setting", "2", "--algo", "uniform",
                               "--K", "3", "--T", "60", "--sweep", "delta",
                               "--grid", "0.1:0.3:0.1", "--reps", "2", "--threads", "1")
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--setting", "2", "--algo", "uniform",
                               "--K", "3", "--T", "60", "--sweep", "delta",
                               "--grid", "0.3,0.1", "--reps", "2", "--threads", "1")
        assert code == 1


class TestTrace:
    def test_explore_trace_format(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--setting", "1", "--algo", "explore",
                               "--K", "10", "--T", "400", "--delta", "0.3", "--seed", "5")
        lines = out.splitlines()
        assert code == 0
        assert lines[0].startswith("# setting=s1")
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0"  # step 1 at depth 0
        assert first[2:5] == ["1", "6", "12"]  # root of the 12-arm augmented tree
        assert first[6] in {"left", "right", "parent", "stay_append", "dup_descend"}

    def test_budget_too_small_is_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "trace", "--setting", "1", "--algo", "explore",
                               "--K", "100", "--T", "10", "--delta", "0.3")
        assert code == 2

    def test_gradexplore_trace(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--setting", "2c", "--algo", "gradexplore",
                               "--K", "9", "--T", "2000", "--delta", "0.4")
        assert code == 0
        assert len(out.splitlines()) > 5


class TestDispatch:
    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        capsys.readouterr()

    def test_subcommand_help_lists_flags(self, capsys):
        assert dispatch(["run", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--setting", "--algo", "--K", "--T", "--delta", "--sigma", "--tau",
                     "--reps", "--seed", "--out", "--threads", "--config"):
            assert flag in out

    def test_unknown_verb(self, capsys):
        assert dispatch(["frobnicate"]) == 1
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert dispatch(["tree", "--K", "5", "--bogus", "1"]) == 1
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert dispatch(["run", "--setting", "2"]) == 1
        capsys.readouterr()

    def test_config_file(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("setting=2\nalgo=uniform\nK=4\nT=400\ndelta=5\nreps=20\nseed=7\nthreads=1\n")
        direct = tmp_path / "direct.csv"
        via_file = tmp_path / "via_file.csv"
        assert dispatch(["run", "--setting", "2", "--algo", "uniform", "--K", "4",
                         "--T", "400", "--delta", "5", "--reps", "20", "--seed", "7",
                         "--threads", "1", "--out", str(direct)]) == 0
        assert dispatch(["run", "--config", str(conf), "--out", str(via_file)]) == 0
        capsys.readouterr()
        assert direct.read_bytes() == via_file.read_bytes()

    def test_config_flag_override(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("setting=2\nalgo=uniform\nK=4\nT=400\ndelta=5\nreps=20\nthreads=1\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(conf), "--reps", "3")
        assert code == 0
        assert ",3," in out.splitlines()[2]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--setting", "1", "--algo", "explore", "--T", "300", "--delta", "0.3",
         "--sweep", "K", "--grid", "2,4"],
        ["run", "--setting", "1", "--algo", "explore", "--K", "10", "--T", "300",
         "--delta", "nan"],
        ["run", "--setting", "1", "--algo", "explore", "--K", "10", "--T", "300",
         "--delta", "0.3", "--sigma", "inf"],
        ["run", "--setting", "custom", "--means=0.1,0.2", "--algo", "uniform", "--T", "30",
         "--tau", "inf"],
        ["run", "--setting", "1", "--K", "10", "--T", "0", "--delta", "0.3", "--algo", "uniform"],
        ["run", "--setting", "1", "--K", "10", "--T", "300", "--delta", "150", "--algo", "explore"],
        ["sweep", "--setting", "1", "--algo", "explore", "--K", "10", "--T", "300",
         "--sweep", "delta", "--grid", "0.5,150"],
        ["run", "--setting", "2", "--K", "4", "--T", "300", "--delta", "0.1", "--tau", "1e17",
         "--algo", "uniform"],
        ["run", "--setting", "1", "--K", "4", "--T", "300", "--delta", "0.1", "--tau", "1e15",
         "--algo", "uniform"],
        ["trace", "--setting", "1", "--K", "10", "--T", "0", "--delta", "0.1", "--algo", "explore"],
        ["trace", "--setting", "2c", "--K", "5", "--T", "3000", "--delta", "0.1", "--tau", "1e15",
         "--algo", "gradexplore"],
        ["sweep", "--setting", "1", "--algo", "explore", "--delta", "0.3", "--T", "3000",
         "--sweep", "K", "--grid", "3.7,5", "--reps", "2"],
        ["sweep", "--setting", "1", "--algo", "explore", "--delta", "0.3", "--T", "3000",
         "--sweep", "K", "--grid", "3:9:2.5", "--reps", "2"],
        ["sweep", "--setting", "2", "--algo", "uniform", "--K", "3", "--T", "60",
         "--sweep", "delta", "--grid", "a:b:c"],
        ["sweep", "--setting", "2", "--algo", "uniform", "--K", "3", "--T", "60",
         "--sweep", "delta", "--grid", "0.1:inf:0.1"],
        ["run", "--setting", "custom", "--means=0.1,abc", "--algo", "uniform", "--T", "30"],
        ["run", "--setting", "custom", "--means=0.1,nan", "--algo", "uniform", "--T", "30"],
        # ~10^18 points: refused from its count, before a single value is built.
        ["sweep", "--setting", "2", "--algo", "uniform", "--K", "3", "--T", "60",
         "--sweep", "delta", "--grid", "0:1e9:1e-9"],
        ["sweep", "--setting", "1", "--algo", "uniform", "--K", "2", "--T", "300",
         "--delta", "0.3", "--sweep", "K", "--grid", "3,5", "--reps", "2"],
        # Seeds and replication indices no stream can take.
        ["run", "--setting", "1", "--algo", "explore", "--K", "20", "--T", "400",
         "--delta", "0.4", "--reps", "3", "--seed", "-1"],
        ["run", "--setting", "1", "--algo", "explore", "--K", "20", "--T", "400",
         "--delta", "0.4", "--reps", "3", "--seed", "18446744073709551616"],
        ["trace", "--setting", "1", "--algo", "explore", "--K", "20", "--T", "400",
         "--delta", "0.4", "--rep", "-1"],
        # Arms and kept outcomes past their caps: refused before any task is planned.
        ["run", "--setting", "1", "--algo", "uniform", "--K", "10001", "--T", "20002",
         "--delta", "0.3"],
        ["run", "--setting", "1", "--algo", "uniform", "--K", "10", "--T", "300",
         "--delta", "0.3", "--reps", "1000000000000"],
        ["sweep", "--setting", "1", "--algo", "explore,uniform", "--K", "10", "--T", "300",
         "--sweep", "delta", "--grid", "0.2,0.3,0.4", "--reps", "1666667"],
        ["sweep", "--setting", "2c", "--algo", "uniform", "--delta", "0.3", "--T", "1000000000",
         "--sweep", "K", "--grid", "3,1000000000"],
        ["trace", "--setting", "1", "--algo", "explore", "--K", "1000000000000", "--T", "400",
         "--delta", "0.4"],
        # Bound inputs that are not finite: NaN passes a `< 0` test, and an infinite sigma
        # erases the rate term.
        ["bounds", "--shape", "monotone", "--side", "lower", "--delta-min", "nan", "--T", "1000",
         "--sigma", "1"],
        ["bounds", "--shape", "monotone", "--side", "upper", "--K", "10", "--sigma", "nan",
         "--delta-min", "0.1", "--T", "1000"],
        ["bounds", "--shape", "monotone", "--side", "upper", "--K", "10", "--sigma", "inf",
         "--delta-min", "0.1", "--T", "1000"],
        ["bounds", "--shape", "concave", "--delta-min", "inf", "--T", "1000", "--K", "10"],
        ["bounds", "--shape", "unstructured", "--gaps", "0.1,0.2", "--K", "2", "--T", "100",
         "--sigma", "nan"],
        # Gaps that H would silently drop.
        ["bounds", "--shape", "unstructured", "--gaps", "nan,0.2", "--K", "2", "--T", "100"],
        ["bounds", "--shape", "unstructured", "--gaps=-5,0.2", "--K", "2", "--T", "100"],
        # Finite means whose gap |mean - tau| overflows.
        ["run", "--setting", "custom", "--means=-1.7e308,1.7e308", "--tau", "1e308",
         "--sigma", "1e308", "--algo", "uniform", "--T", "100", "--reps", "20"],
        # A tree of more arms than any instance may have.
        ["tree", "--K", str(MAX_K + 1)],
    ])
    def test_unhonourable_values_are_config_errors(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--threads", "1")
        assert code == 1
        assert "config error" in err

    def test_algorithm_names_come_from_the_registry(self, capsys):
        assert dispatch(["run", "--help"]) == 0
        listed = re.search(r"comma-separated:\s+(\S+)", capsys.readouterr().out).group(1)
        assert listed.split(",") == [n for n, entry in ALGORITHMS.items() if entry.lockstep]
        parser = build_parser()
        for name, entry in [*ALGORITHMS.items(), ("bogus", None)]:
            argv = ["trace", "--setting", "1", "--T", "10", "--algo", name]
            if entry is not None and entry.trace:
                assert parser.parse_args(argv).algo == name
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)
        capsys.readouterr()

    def test_a_tent_partner_runs_under_ctb(self, capsys):
        # The concave lower-bound pair of a tent, its partner's means written out in full.
        from tbp import Setting, concave_perturb, make_setting
        partner = concave_perturb(make_setting(Setting.S2_CONCAVE, 5, 0.01, 0.0))
        means = ",".join(repr(float(m)) for m in partner.means)
        code, out, err = run_cli(capsys, "run", "--setting", "custom", f"--means={means}",
                                 "--algo", "ctb,uniform", "--T", "3000", "--reps", "3",
                                 "--threads", "1")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 4  # comment, header, one row per algorithm

    def test_shape_violation_is_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--setting", "custom", "--means=0.5,-0.1,0.2",
                               "--algo", "explore", "--T", "300", "--threads", "1")
        assert code == 2
        assert "relaxed-monotone" in err

    def test_env_threads(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TBP_THREADS", "1")
        out_path = tmp_path / "env.csv"
        assert dispatch(["run", "--setting", "2", "--algo", "uniform", "--K", "3",
                         "--T", "30", "--delta", "1", "--reps", "2", "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert out_path.exists()


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "tbp", "tree", "--K", "5"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "0,1,3,5,0"


@pytest.mark.parametrize("algo,T", [("uniform", 100), ("explore", 100), ("naive", 100),
                                    ("ctb", 400)])
def test_an_overflowing_sample_mean_warns_nothing(capsys, algo, T):
    # sigma * z overflows to an infinity on the side of tau its arm's mean is on, so uniform's
    # labels are exact; no gap overflows, which the instance check would refuse.  The tree
    # searches' free sentinels read their exact means.
    argv = ["run", "--setting", "custom", "--means=-1.7e308,1.7e308", "--tau", "0",
            "--sigma", "1e308", "--algo", algo, "--T", str(T), "--reps", "20", "--threads", "1"]
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "tbp", *argv],
                            capture_output=True, text=True, timeout=60)
    code, out, _ = run_cli(capsys, *argv)
    assert (result.returncode, result.stderr, code) == (0, "", 0)
    assert result.stdout == out
    if algo == "uniform":
        assert out.splitlines()[-1].split(",")[8] == "0"  # no replication errs


@pytest.fixture(autouse=True)
def _grids_stay_small(monkeypatch):
    """Fail at once, instead of exhausting memory, should a grid range larger than
    ``MAX_GRID_POINTS`` ever reach the point where its values are built."""
    def bounded_range(*args):
        span = range(*args)
        assert len(span) <= MAX_GRID_POINTS, f"a grid of {len(span)} values was built"
        return span
    monkeypatch.setattr(cli, "range", bounded_range, raising=False)


class TestGridBound:
    def test_the_documented_count_is_the_limit(self):
        assert len(_parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
        assert len(_parse_grid(",".join(["0.5"] * MAX_GRID_POINTS))) == MAX_GRID_POINTS
        for spec in (f"0:{MAX_GRID_POINTS}:1", ",".join(["0.5"] * (MAX_GRID_POINTS + 1)),
                     "0:1:1e-5", "0:1e9:1e-9", "0:1e308:1e-308"):
            with pytest.raises(ConfigError, match=f"at most {MAX_GRID_POINTS} values"):
                _parse_grid(spec)


@pytest.fixture(autouse=True)
def _runs_stay_small(monkeypatch):
    """Fail at once, instead of exhausting memory, should a run keeping more than
    ``MAX_OUTCOMES`` outcomes start or an instance of more than ``MAX_K`` arms be built."""
    run, build = harness.run_experiment, harness.build_instance

    def bounded_run(config, threads=1):
        outcomes = config.reps * len(harness._grid(config)) * len(config.algos)
        assert outcomes <= MAX_OUTCOMES, f"a run keeping {outcomes} outcomes was started"
        return run(config, threads)

    def bounded_build(config, K, delta):
        assert K <= MAX_K, f"an instance of {K} arms was built"
        return build(config, K, delta)
    monkeypatch.setattr(harness, "run_experiment", bounded_run)
    monkeypatch.setattr(harness, "build_instance", bounded_build)


class TestRunBound:
    """A run at a cap is planned; one past it is refused before it is planned."""

    @pytest.fixture
    def planned(self, monkeypatch):
        reached = []

        def plan(reps, threads, cores):  # stands in for the run, which is never made
            reached.append(reps)
            raise RuntimeError("planned")
        monkeypatch.setattr(harness, "plan_tasks", plan)
        return reached

    @pytest.mark.parametrize("argv,at_cap,over", [
        (["run", "--setting", "1", "--algo", "uniform", "--T", "20000", "--delta", "0.3",
          "--K"], MAX_K, MAX_K + 1),
        (["sweep", "--setting", "2c", "--algo", "uniform", "--T", "20000", "--delta", "0.3",
          "--sweep", "K", "--grid"], f"3,{MAX_K}", f"3,{MAX_K + 1}"),
        (["run", "--setting", "1", "--algo", "uniform", "--K", "10", "--T", "300",
          "--delta", "0.3", "--reps"], MAX_OUTCOMES, MAX_OUTCOMES + 1),
        (["sweep", "--setting", "1", "--algo", "explore,uniform", "--K", "10", "--T", "300",
          "--sweep", "delta", "--grid", "0.2,0.3", "--reps"], MAX_OUTCOMES // 4,
         MAX_OUTCOMES // 4 + 1),
    ])
    def test_the_documented_counts_are_the_limits(self, capsys, planned, argv, at_cap, over):
        code, _, err = run_cli(capsys, *argv, str(at_cap), "--threads", "1")
        assert (code, err.strip(), len(planned)) == (2, "error: planned", 1)
        code, _, err = run_cli(capsys, *argv, str(over), "--threads", "1")
        assert (code, len(planned)) == (1, 1)
        assert "config error" in err


class TestBudgetBound:
    """The largest budget is ``2**63 - 1``: the walkers keep budgets in int64 arrays."""

    @pytest.fixture
    def planned(self, monkeypatch):
        reached = []

        def plan(reps, threads, cores):  # stands in for the run, which is never made
            reached.append(reps)
            raise RuntimeError("planned")
        monkeypatch.setattr(harness, "plan_tasks", plan)
        return reached

    @pytest.mark.parametrize("argv", [
        ["run", "--algo", "uniform,explore"],
        ["sweep", "--algo", "uniform,explore", "--sweep", "delta", "--grid", "0.2,0.3"],
        ["trace", "--algo", "explore"],
    ])
    @pytest.mark.parametrize("T", [2**63, 10**20])
    def test_a_larger_budget_is_a_config_error(self, capsys, planned, argv, T):
        code, out, err = run_cli(capsys, *argv, "--setting", "1", "--K", "10", "--T", str(T),
                                 "--delta", "0.3", "--threads", "1")
        assert (code, out, planned) == (1, "", [])
        assert "config error: T must be a nonnegative integer below 2**63" in err

    @pytest.mark.parametrize("setting,names", [("1", ["explore", "naive", "uniform"]),
                                               ("2c", ["ctb", "uniform"])])
    def test_the_largest_budget_runs_every_algorithm(self, capsys, setting, names):
        assert set(names) <= set(harness.ALGORITHMS)
        code, out, err = run_cli(capsys, "run", "--setting", setting, "--algo", ",".join(names),
                                 "--K", "10", "--T", str(2**63 - 1), "--delta", "0.3",
                                 "--reps", "2", "--threads", "1")
        assert code == 0, err
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert [row[1] for row in rows] == names
        # Nothing skipped, and at that budget every estimate is exact enough to err nowhere.
        assert [(row[3], row[8], row[14]) for row in rows] == [(str(2**63 - 1), "0", "0")] * len(names)


def test_a_ctb_sweep_whose_every_cell_is_over_budget_still_runs(capsys):
    sweep = ["sweep", "--setting", "2c", "--K", "9", "--T", "100", "--sweep", "delta",
             "--grid", "0.3,0.5", "--reps", "3"]
    code, out, err = run_cli(capsys, *sweep, "--algo", "ctb,uniform")
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert [(row[1], row[14]) for row in rows] == [("ctb", "1"), ("uniform", "0")] * 2
    code, alone, _ = run_cli(capsys, *sweep, "--algo", "uniform")
    assert code == 0
    assert [",".join(row) for row in rows[1::2]] == alone.splitlines()[2:]


_RUN = ["run", "--setting", "2", "--algo", "uniform", "--K", "4", "--T", "400", "--delta", "5"]


@pytest.mark.parametrize("argv,env,config,message", [
    pytest.param(["run", "--config"], None, None, "requires a path", id="config-without-a-path"),
    pytest.param(["run", "--config", "{missing}"], None, None, "cannot read",
                 id="unreadable-config"),
    pytest.param(["run", "--config", "{conf}"], None, "setting=2\nalgo uniform\n", "key=value",
                 id="config-line-without-equals"),
    pytest.param(_RUN, "abc", None, "TBP_THREADS must be an integer",
                 id="threads-env-not-an-integer"),
    pytest.param(_RUN, "0", None, "threads must be >= 1", id="threads-env-zero"),
    pytest.param(["run", "--setting", "7", *_RUN[3:]], None, None, "unknown setting",
                 id="unknown-setting"),
])
def test_a_refused_invocation_is_a_config_error(capsys, monkeypatch, tmp_path, argv, env, config,
                                                message):
    conf = tmp_path / "tbp.conf"
    if config is not None:
        conf.write_text(config)
    if env is not None:
        monkeypatch.setenv("TBP_THREADS", env)
    argv = [a.format(missing=tmp_path / "missing.conf", conf=conf) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("config error") and message in err, err
