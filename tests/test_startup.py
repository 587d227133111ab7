"""Start-up contract: a 1-worker sweep loads only the modules it runs, and the
package resolves its re-exports on first use."""
import importlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import tbp
from tbp import harness

#: Modules a 1-worker sweep never uses: the process pool, ``statistics`` and
#: the bounds module.
UNUSED = ("concurrent.futures.process", "multiprocessing", "statistics", "tbp.bounds")

_SCRIPT = """
import runpy, sys
unused = {unused!r}

def loaded(step):
    found = [m for m in unused if m in sys.modules]
    assert not found, f"{{step}} loaded {{found}}"

import tbp
assert not [m for m in sys.modules if m.startswith("tbp.")], "import tbp loaded a submodule"
import tbp.cli
loaded("import tbp.cli")
sys.argv = ["tbp", "sweep", "--setting", "1", "--algo", "explore,naive,uniform", "--K", "8",
            "--T", "300", "--sweep", "delta", "--grid", "0.3,0.5", "--reps", "4",
            "--threads", "1", "--out", {out!r}]
try:
    runpy.run_module("tbp", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, f"sweep exited {{exc.code}}"
loaded("a 1-worker sweep")
assert tbp.bounds.monotone_lower is tbp.monotone_lower
"""


def test_one_worker_sweep_imports_only_what_it_runs(tmp_path):
    out = tmp_path / "sweep.csv"
    src = str(Path(tbp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(unused=UNUSED, out=str(out))],
        capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    assert len(out.read_text().splitlines()) == 2 + 2 * 3  # comment, header, 6 cells


_NO_RANDOM = """
import contextlib, io, sys
import tbp.cli
assert "numpy.random" not in sys.modules, "import tbp.cli loaded numpy.random"
for argv in (["tree", "--K", "9"], ["bounds", "--shape", "concave", "--delta-min", "0.2",
                                    "--T", "1000", "--K", "50"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert tbp.cli.dispatch(argv) == 0, argv
    assert "numpy.random" not in sys.modules, f"tbp {argv[0]} loaded numpy.random"
"""


def test_cli_tree_and_bounds_load_no_numpy_random():
    # numpy.random's first import costs ~10-15 ms and ~6 MB: only a run's streams need it.
    src = str(Path(tbp.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", _NO_RANDOM], capture_output=True, text=True,
                            timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr


def test_z95_literal_is_the_normal_quantile():
    assert harness._Z95 == statistics.NormalDist().inv_cdf(0.975)


class TestLazyPackage:
    @pytest.mark.parametrize("name", tbp.__all__)
    def test_export_is_its_home_module_object(self, name):
        value = getattr(tbp, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("tbp.")
        assert getattr(home, name) is value

    def test_dir_lists_every_export(self):
        assert set(tbp.__all__) <= set(dir(tbp))

    def test_star_import_binds_all(self):
        ns = {}
        exec("from tbp import *", ns)
        assert set(ns) - {"__builtins__"} == set(tbp.__all__)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            tbp.no_such_name  # noqa: B018
        assert not hasattr(tbp, "no_such_name")


def _fresh(*args):
    """Run ``python args...`` in a fresh interpreter that imports tbp from this source tree."""
    src = str(Path(tbp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          env=env)


#: The tbp modules a sweep loads: the lockstep engine and what it runs on.
SWEEP_MODULES = ["tbp", "tbp.algos", "tbp.cli", "tbp.env", "tbp.harness"]

_SWEEP_MODULES = """
import contextlib, io, json, sys

def step(name):
    print(json.dumps([name, sorted(m for m in sys.modules if m.split(".")[0] == "tbp")]))

import tbp.cli
step("import tbp.cli")
from tbp.algos import ALGORITHMS, BudgetError  # probes tbp.algos.__path__ too
step("from tbp.algos import ALGORITHMS")
for argv in (["--setting", "1", "--algo", "explore,naive,uniform", "--K", "8"],
             ["--setting", "2c", "--algo", "ctb,uniform", "--K", "9"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = tbp.cli.dispatch(["sweep", *argv, "--T", "600", "--sweep", "delta",
                                 "--grid", "0.3,0.5", "--reps", "4", "--threads", "1"])
    assert code == 0, argv
    step("a 1-worker sweep of " + argv[3])
"""


def test_a_sweep_loads_only_the_lockstep_engine():
    result = _fresh("-c", _SWEEP_MODULES)
    assert result.returncode == 0, result.stderr
    steps = [json.loads(line) for line in result.stdout.splitlines()]
    assert len(steps) == 4
    for step, modules in steps:
        assert modules == SWEEP_MODULES, step


#: The recorded walks' public names: ``tbp.algos`` and ``tbp`` resolve them on first use.
RECORDED = ("Action", "AlgoResult", "GradState", "StepRecord", "Trajectory", "ctb", "dexplore",
            "explore", "gradexplore", "naive", "uniform")


@pytest.mark.parametrize("name", RECORDED)
def test_a_recorded_name_is_the_walks_module_object(name):
    from tbp import walks

    value = vars(walks)[name]
    assert value.__module__ == "tbp.walks"
    assert getattr(tbp.algos, name) is value
    assert getattr(tbp, name) is value


def test_private_and_re_exported_names_resolve_from_algos():
    from tbp import diagnostics, walks
    from tbp.algos import _slope, distance_series, favorable_series

    assert _slope is walks._slope
    assert (distance_series, favorable_series) == (diagnostics.distance_series,
                                                   diagnostics.favorable_series)
    ns = {}
    exec("from tbp.algos import *", ns)
    assert set(ns) - {"__builtins__"} == set(tbp.algos.__all__)


def test_an_unknown_algos_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'tbp.algos' has no attribute 'no_such_name'"):
        tbp.algos.no_such_name  # noqa: B018
    assert not hasattr(tbp.algos, "no_such_name")
    assert not hasattr(tbp.algos, "__no_such_dunder__")


# The tree over 9 arms has 8 leaves, so 15 nodes.  A trace prints a header, then one line
# per step: T1 = ceil(6 ln 11) = 15 on the 9 arms and 2 sentinels.
@pytest.mark.parametrize("argv,lines", [
    (["tree", "--K", "9"], 15),
    (["trace", "--setting", "1", "--algo", "explore", "--K", "9", "--T", "300", "--delta", "0.3",
      "--seed", "3"], 1 + 15),
    (["trace", "--setting", "2c", "--algo", "ctb", "--K", "9", "--T", "6000", "--delta", "0.3"],
     1 + 15),
])
def test_tree_and_trace_run_in_a_fresh_interpreter(capsys, argv, lines):
    from tbp.cli import dispatch

    result = _fresh("-m", "tbp", *argv)
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == lines
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == result.stdout
