"""Child-process entry points of the benchmark; ``run.py`` spawns them.

    child.py import                         seconds to import tbp.cli
    child.py setup  WORKLOAD SEED WORKERS   get ready for the first trial, run none
    child.py lemmas SEED                    one trajectory-lemma sample
    child.py trace  WORKLOAD SEED OUT_DIR   one traced 1-worker run

Each prints one JSON line.  Only ``sys`` and ``time`` are imported before a
mode starts, so ``import`` times tbp.cli from a fresh interpreter.
"""
import sys
import time


def _import():
    start = time.perf_counter()
    import tbp.cli  # noqa: F401
    return {"import_s": time.perf_counter() - start}


def _setup(name, seed, workers):
    from concurrent.futures import ProcessPoolExecutor
    import os

    import tbp
    import tbp.cli
    from workloads import WORKLOADS, Sweep

    wl = WORKLOADS[name]
    if not isinstance(wl, Sweep):
        tbp.make_setting(tbp.Setting.S1, wl.K, wl.delta, 0.0, 1.0)
        tbp.augment(tbp.make_setting(tbp.Setting.S2_CONCAVE, wl.K, wl.delta, 0.0, 1.0),
                    tbp.ShapeClass.CONCAVE)
        return {"cells": 2}
    ns = tbp.cli.build_parser().parse_args(wl.argv(seed, workers))
    cast = int if ns.sweep == "K" else float
    grid = tuple(cast(v) for v in ns.grid.split(","))
    setting = {"1": tbp.Setting.S1, "2c": tbp.Setting.S2_CONCAVE}[ns.setting]
    config = tbp.ExperimentConfig(
        setting=setting, algos=tuple(ns.algo.split(",")),
        K=ns.K if ns.K is not None else grid[0],
        T=ns.T, delta=ns.delta if ns.delta is not None else grid[0],
        sigma=ns.sigma, tau=ns.tau, reps=ns.reps, base_seed=ns.seed,
        sweep_param=ns.sweep, sweep_values=grid)
    points = [(config.K, v) if config.sweep_param == "delta" else (v, config.delta)
              for v in config.sweep_values]
    for K, delta in points:
        for _ in config.algos:
            tbp.make_setting(config.setting, K, delta, config.tau, config.sigma)
    if ns.threads > 1:
        with ProcessPoolExecutor(max_workers=ns.threads) as pool:
            for fut in [pool.submit(os.getpid) for _ in range(ns.threads)]:
                fut.result()
    return {"cells": len(points) * len(config.algos)}


def _lemmas(seed):
    import lemmas
    from workloads import WORKLOADS

    wl = WORKLOADS["trajectory-lemmas"]
    return lemmas.run(wl.walks, wl.stream_seeds(seed), wl.K, wl.T, wl.delta)


def _trace(name, seed, out_dir):
    import json
    import os

    from tracer import Tracer
    from workloads import WORKLOADS, Sweep

    wl = WORKLOADS[name]
    tracer = Tracer()
    tracer.install()
    result = {}
    if isinstance(wl, Sweep):
        import tbp.cli

        result["exit_code"] = tbp.cli.dispatch(
            wl.argv(seed, 1) + ["--out", os.path.join(out_dir, f"{name}-traced.csv")])
    else:
        import lemmas

        result.update(lemmas.run(wl.walks, wl.stream_seeds(seed), wl.K, wl.T, wl.delta))
    with open(os.path.join(out_dir, f"{name}-spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "name", "start_s", "dur_s", "self_s"],
                   "spans": tracer.spans,
                   "counted": [[p, n, c, s] for (p, n), (c, s) in tracer.counts.items()]}, fh)
    result["metrics"] = tracer.metrics()
    return result


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "import":
        out = _import()
    elif mode == "setup":
        out = _setup(rest[0], int(rest[1]), int(rest[2]))
    elif mode == "lemmas":
        out = _lemmas(int(rest[0]))
    elif mode == "trace":
        out = _trace(rest[0], int(rest[1]), rest[2])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    import json

    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
