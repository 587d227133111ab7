"""Benchmark of the tbp simulator, driven from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N]   # every workload, both modes

``--trace 0`` measures the end-to-end metrics: after an untimed warm-up run,
closed-loop runs of the workload for ``--seconds`` seconds, each timed from
spawn to exit and each preceded by a set-up probe of a fresh interpreter.
``--trace 1`` runs the workload untraced at the sweep worker count and at one
worker, then traced in one process, and reports the per-layer metrics.  Every
output is checked; the last stdout line is the JSON result, the line before it
the machine facts.
A full report, and the spans of a traced run, go to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import DEFAULT_SEED, WORKLOADS, Sweep, parallel_workers, workers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

IMPORT_REPEATS = 3
#: Rounds of one set-up probe and one timed sample: at least five, so each
#: median has five values and repeats of the run's seed are compared.
MIN_ROUNDS = 5
#: Every run must finish inside this many seconds.
RUN_LIMIT_S = 170.0
GOLDEN = json.loads((BENCH / "golden.json").read_text())


class Runner:
    """Spawns the program's processes with a controlled environment and a deadline."""

    def __init__(self, limit_s: float) -> None:
        self.deadline = time.perf_counter() + limit_s
        self.env = {k: v for k, v in os.environ.items() if k != "TBP_THREADS"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.log = []

    def spawn(self, *args: str) -> dict:
        """Run ``python3 args...`` from the checkout; wall time is spawn to exit."""
        load = os.getloadavg()[0]
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)   # the tbp process and its pool workers
            out, err = proc.communicate()
        wall = time.perf_counter() - start
        rec = {"args": [a if len(a) < 80 else a[:77] + "..." for a in args], "code": proc.returncode,
               "wall_s": wall, "load_1min": [load, os.getloadavg()[0]], "stderr": err[-400:]}
        self.log.append(rec)
        return {"code": proc.returncode, "wall": wall, "out": out}

    def child(self, *args: str) -> dict:
        res = self.spawn(str(BENCH / "child.py"), *args)
        res["json"] = json.loads(res["out"].splitlines()[-1]) if res["code"] == 0 else None
        return res


def sweep_sample(runner: Runner, wl: Sweep, seed: int, threads: int, refs: dict) -> dict:
    """One untraced ``tbp sweep``; every cell is checked, bytes against ``refs[seed]``."""
    res = runner.spawn("-m", "tbp", *wl.argv(seed, threads))
    return judge_sweep(wl, seed, res["code"], res["out"], refs) | {"wall": res["wall"]}


def judge_sweep(wl: Sweep, seed: int, code: int, text: str, refs: dict) -> dict:
    cells = wl.cells(seed)
    useful = wl.reps * sum(not checks.expected_skip(wl.setting, a, K, wl.T) for K, _, a in cells)
    if code != 0:
        return {"attempted": len(cells), "failed": len(cells), "useful": useful,
                "problem": f"exit code {code}"}
    verdicts = checks.check_sweep_csv(wl, seed, text)
    failed = sum(bool(v) for v in verdicts)
    problem = next((v for v in verdicts if v), "")
    digest = hashlib.sha256(text.encode()).hexdigest()
    if refs.setdefault(seed, digest) != digest:
        failed, problem = len(cells), f"CSV bytes differ from the reference for seed {seed}"
    return {"attempted": len(cells), "failed": failed, "useful": useful, "problem": problem}


def lemma_sample(runner: Runner, seed: int, refs: dict) -> dict:
    walks = 2 * WORKLOADS["trajectory-lemmas"].walks
    res = runner.child("lemmas", str(seed))
    return judge_lemmas(seed, res["json"], walks, refs) | {"wall": res["wall"]}


def judge_lemmas(seed: int, out, walks: int, refs: dict) -> dict:
    if out is None:
        return {"attempted": walks, "failed": walks, "useful": walks, "problem": "lemma run crashed"}
    failed, problem = out["failed"], ("lemma violated" if out["failed"] else "")
    if out["walks"] != walks:
        failed, problem = walks, f"{out['walks']} walks for {walks}"
    elif refs.setdefault(seed, out["digest"]) != out["digest"]:
        failed, problem = walks, f"walk outputs differ from the reference for seed {seed}"
    return {"attempted": walks, "failed": failed, "useful": walks, "problem": problem}


def sample(runner: Runner, name: str, seed: int, threads: int, refs: dict) -> dict:
    wl = WORKLOADS[name]
    if isinstance(wl, Sweep):
        return sweep_sample(runner, wl, seed, threads, refs)
    return lemma_sample(runner, seed, refs)


def measure(runner: Runner, name: str, seed: int, seconds: float) -> tuple:
    """End-to-end metrics from set-up probes and closed-loop samples.

    The ``seconds`` window holds an untimed warm-up sample of the default-seed
    inputs, checked against golden.json, then rounds of one set-up probe and
    one timed sample of the run's seed.  Spreading the probes over the window
    lets their median see the same machine states as the samples' median.
    No round starts that would end more than half a round past the window,
    so a run's length stays within a few seconds of ``seconds``.
    """
    refs = {DEFAULT_SEED: GOLDEN[name]}
    stop = time.perf_counter() + seconds
    warm = sample(runner, name, DEFAULT_SEED, workers(), refs) | {"seed": DEFAULT_SEED}
    setup, samples = [], []
    while len(samples) < MIN_ROUNDS or time.perf_counter() + 0.5 * statistics.median(
            s["wall"] + r["wall"] for s, r in zip(samples, setup)) < stop:
        setup.append(runner.child("setup", name, str(seed), str(workers())))
        samples.append(sample(runner, name, seed, workers(), refs) | {"seed": seed})
    bad_setup = sum(r["code"] != 0 for r in setup)
    metrics = {
        "trials_per_s": statistics.median(s["useful"] / s["wall"] for s in samples),
        "setup_s": statistics.median(r["wall"] for r in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    checked = [warm, *samples]
    attempted = sum(s["attempted"] for s in checked) + len(setup)
    failed = sum(s["failed"] for s in checked) + bad_setup
    problems = [p for p in (s["problem"] for s in checked) if p]
    problems += ["set-up probe failed"] * bool(bad_setup)
    return metrics, attempted, failed, problems, {"warm_up": warm, "samples": samples}


def trace(runner: Runner, name: str, seed: int) -> tuple:
    """Per-layer metrics: untraced runs at the worker count and at 1 worker, then traced."""
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[name]
    imports = [runner.child("import") for _ in range(IMPORT_REPEATS)]
    refs = {}
    fast = sample(runner, name, seed, parallel_workers(), refs) if isinstance(wl, Sweep) else None
    base = sample(runner, name, seed, 1, refs)
    csv_path = OUT / f"{name}-traced.csv"
    csv_path.unlink(missing_ok=True)
    res = runner.child("trace", name, str(seed), str(OUT))
    if isinstance(wl, Sweep):
        ok = res["json"] is not None and res["json"]["exit_code"] == 0 and csv_path.is_file()
        text = csv_path.read_text() if ok else ""
        traced = judge_sweep(wl, seed, 0 if ok else 1, text, refs)
    else:
        traced = judge_lemmas(seed, res["json"], base["attempted"], refs)
    runs = [r for r in (fast, base, traced) if r is not None]
    layers = dict(res["json"]["metrics"]) if res["json"] else {}
    # Walks are issued by the harness in a sweep and by the lemma loop itself.
    issued = layers.get("harness.trials_run") or sum(
        layers.get(f"algos.{n}.calls", 0) for n in ("explore", "gradexplore"))
    layers.update({
        "cli.import_s": statistics.median(
            [r["json"]["import_s"] for r in imports if r["json"]] or [0.0]),
        "harness.useful_trial_ratio": base["useful"] / issued if issued else 0.0,
        # One worker on the lemma workload: its speed-up is 1 by definition.
        "harness.parallel_speedup": base["wall"] / fast["wall"] if fast else 1.0,
        "trace.overhead": res["wall"] / base["wall"],
    })
    attempted = sum(r["attempted"] for r in runs) + len(imports)
    failed = sum(r["failed"] for r in runs) + sum(r["code"] != 0 for r in imports)
    problems = [r["problem"] for r in runs if r["problem"]]
    return layers, attempted, failed, problems, {"runs": runs, "layers": layers}


def git_commit() -> str | None:
    """HEAD of the checkout's own git repository, if it has one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def machine_facts() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tbp").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"usable_cores": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "tbp_commit": git_commit(),
            "tbp_src_sha256": src.hexdigest(), "workers": workers(),
            "parallel_workers": parallel_workers()}


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if traced else "end_to_end"]
    facts = machine_facts() | {"load_1min_before": os.getloadavg()[0]}
    runner = Runner(RUN_LIMIT_S)
    if traced:
        values, attempted, failed, problems, detail = trace(runner, name, seed)
    else:
        values, attempted, failed, problems, detail = measure(runner, name, seed, seconds)
    facts["load_1min_after"] = os.getloadavg()[0]
    OUT.mkdir(exist_ok=True)
    report = {"workload": name, "seed": seed, "trace": int(traced), "facts": facts,
              "values": values, "attempted": attempted, "failed": failed,
              "problems": problems[:20], "children": runner.log, **detail}
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(report, indent=1))
    if traced:
        print(json.dumps({"layers": values}))
    print(json.dumps({"facts": facts}))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    problems += [f"{name} not measured" for name in missing]
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in a fresh benchmark process; prints a table."""
    rows = []
    for name in WORKLOADS:
        for traced in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", traced],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_LIMIT_S + 10)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={traced}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            shown = json.loads(lines[0])["layers"] if traced == "1" else result["metrics"]
            for metric, value in shown.items():
                value = value["value"] if isinstance(value, dict) else value
                rows.append((name, metric, value))
            if traced == "0":
                rows.append((name, "failed_frac", result["failed"] / result["attempted"]))
    for name, metric, value in rows:
        print(f"{name:18} {metric:30} {value:.6g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tbp" / "__init__.py").is_file():
        print(f"bench: no tbp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds)
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
