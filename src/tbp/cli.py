"""Command-line entry point: run / sweep / bounds / tree / trace.

Every flag has a ``key=value`` twin readable through ``--config <path>``;
explicit flags override file values.  Exit codes: 0 success, 1 configuration
error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from . import algos, harness
from .env import RngStream, Setting, ShapeClass

if TYPE_CHECKING:
    from .bounds import BoundReport

__all__ = ["dispatch", "main"]

VERBS = ("run", "sweep", "bounds", "tree", "trace")

_SETTINGS = {
    "1": Setting.S1,
    "s1": Setting.S1,
    "2": Setting.S2,
    "s2": Setting.S2,
    "2c": Setting.S2_CONCAVE,
    "s2concave": Setting.S2_CONCAVE,
    "concave": Setting.S2_CONCAVE,
    "custom": Setting.CUSTOM,
}

_SHAPES = {
    "monotone": ShapeClass.MONOTONE,
    "concave": ShapeClass.CONCAVE,
    "unstructured": ShapeClass.UNSTRUCTURED,
}


#: Most values a ``--grid`` may hold.  A range's point count is checked before
#: any value is built, so ``--grid 0:1e9:1e-9`` is refused at once.
MAX_GRID_POINTS = 10_000
#: Most arms, and most outcomes (reps x grid points x algorithms) a run may keep, both
#: refused before any array is built: a task's variates are then at most 1,024 rows of
#: 2 * MAX_K floats (160 MB), and a run's outcomes, a flag and a regret each, 90 MB.
MAX_K, MAX_OUTCOMES = 10_000, 10**7


class ConfigError(ValueError):
    """Invalid or inconsistent command-line configuration."""


def _comma_list(text: str) -> List[str]:
    return [tok for tok in (t.strip() for t in text.split(",")) if tok]


def _parse_grid(spec: str) -> List[float]:
    """Grid values: either ``v1,v2,...`` or ``start:stop:step`` (inclusive).

    A grid holds at most ``MAX_GRID_POINTS`` values; a range's count is
    checked before any of its values is built.
    """
    is_range = ":" in spec
    try:
        if is_range:
            start, stop, step = (float(p) for p in spec.split(":"))
        else:
            values = [float(tok) for tok in _comma_list(spec)]
    except ValueError as exc:
        raise ConfigError(f"bad grid value: {exc} (use v1,v2,... or start:stop:step)") from exc
    if is_range:
        if not (step > 0 and -math.inf < start <= stop < math.inf):
            raise ConfigError("grid range must be finite, with step > 0 and stop >= start")
        span = (stop - start) / step + 1e-9  # the point count less one; inf for a huge range
        count = int(min(span, MAX_GRID_POINTS)) + 1
    else:
        count = len(values)
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"a grid holds at most {MAX_GRID_POINTS} values")
    if is_range:
        values = [round(start + i * step, 10) for i in range(count)]
    return values


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value file supplying flag defaults")
    sub.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    sub.add_argument("--threads", type=int, help="worker processes (default: TBP_THREADS or 1; "
                          "capped at the usable cores and the replications)")


def _add_instance_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--setting", required=True, help="1, 2, 2c (concave), or custom")
    sub.add_argument("--K", type=int, help="number of arms")
    sub.add_argument("--T", type=int, required=True, help="sampling budget")
    sub.add_argument("--delta", type=float, help="instance gap parameter")
    sub.add_argument("--sigma", type=float, default=1.0, help="noise scale (default 1)")
    sub.add_argument("--tau", type=float, default=0.0, help="threshold (default 0)")
    sub.add_argument("--means",
                     help="comma-separated means for --setting custom "
                          "(use --means=-0.4,... when the first value is negative)")


def build_parser() -> argparse.ArgumentParser:
    algo_help = "comma-separated: " + ",".join(harness.ALGORITHMS)
    parser = argparse.ArgumentParser(prog="tbp", description="Thresholding-bandit simulation toolkit")
    subs = parser.add_subparsers(dest="verb", required=True)

    p_run = subs.add_parser("run", help="run algorithms at one grid point, emit CSV")
    _add_instance_flags(p_run)
    p_run.add_argument("--algo", required=True, help=algo_help)
    p_run.add_argument("--reps", type=int, default=1, help="Monte-Carlo replications")
    p_run.add_argument("--out", help="CSV output path (default: stdout)")
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = subs.add_parser("sweep", help="run algorithms over a parameter grid, emit CSV")
    _add_instance_flags(p_sweep)
    p_sweep.add_argument("--algo", required=True, help=algo_help)
    p_sweep.add_argument("--reps", type=int, default=1, help="Monte-Carlo replications per point")
    p_sweep.add_argument("--sweep", required=True, choices=("delta", "K"), help="swept parameter")
    p_sweep.add_argument("--grid", required=True, help="values v1,v2,... or start:stop:step")
    p_sweep.add_argument("--out", help="CSV output path (default: stdout)")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bounds = subs.add_parser("bounds", help="evaluate theoretical error bounds")
    p_bounds.add_argument("--shape", required=True, choices=sorted(_SHAPES), help="bound family")
    p_bounds.add_argument("--side", default="both", choices=("lower", "upper", "both"))
    p_bounds.add_argument("--delta-min", dest="delta_min", type=float, help="minimum gap")
    p_bounds.add_argument("--T", type=int, required=True, help="sampling budget")
    p_bounds.add_argument("--sigma", type=float, default=1.0)
    p_bounds.add_argument("--K", type=int, help="number of arms (upper bounds)")
    p_bounds.add_argument("--gaps", help="comma-separated gaps (unstructured bounds)")
    _add_common(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_tree = subs.add_parser("tree", help="dump the search tree in preorder")
    p_tree.add_argument("--K", type=int, required=True, help="number of arms")
    _add_common(p_tree)
    p_tree.set_defaults(func=_cmd_tree)

    p_trace = subs.add_parser("trace", help="dump one replication's walk, step by step")
    _add_instance_flags(p_trace)
    p_trace.add_argument("--algo", required=True,
                         choices=[name for name, a in algos.ALGORITHMS.items() if a.trace])
    p_trace.add_argument("--rep", type=int, default=0, help="replication index (default 0)")
    p_trace.add_argument("--out", help="output path (default: stdout)")
    _add_common(p_trace)
    p_trace.set_defaults(func=_cmd_trace)

    return parser


def _inject_config_tokens(argv: List[str]) -> List[str]:
    """Splice ``key=value`` pairs from a --config file in as leading flags."""
    if not argv or argv[0] not in VERBS or "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ConfigError("--config requires a path")
    path = argv[idx + 1]
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    tokens: List[str] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        tokens += [f"--{key}", value]
    return [argv[0]] + tokens + argv[1:]


def _resolve_threads(args: argparse.Namespace) -> int:
    if getattr(args, "threads", None) is not None:
        threads = args.threads
    elif os.environ.get("TBP_THREADS"):
        try:
            threads = int(os.environ["TBP_THREADS"])
        except ValueError as exc:
            raise ConfigError("TBP_THREADS must be an integer") from exc
    else:
        threads = 1
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    return threads


def _parse_setting(text: str) -> Setting:
    key = text.strip().lower()
    if key not in _SETTINGS:
        raise ConfigError(f"unknown setting {text!r}")
    return _SETTINGS[key]


def _experiment_config(args: argparse.Namespace, algo_names: Sequence[str],
                       sweep_param: Optional[str] = None,
                       sweep_values: Optional[Tuple[float, ...]] = None) -> harness.ExperimentConfig:
    """The config of run, sweep and trace; its refusals become :class:`ConfigError`,
    so the three verbs refuse the same instances."""
    setting = _parse_setting(args.setting)
    try:
        means = tuple(float(x) for x in _comma_list(args.means)) if args.means else None
        if setting is Setting.CUSTOM:
            if not means:
                raise ConfigError("custom setting requires --means")
            K = len(means)
            delta = args.delta if args.delta is not None else 0.0
        else:
            K, delta = args.K, args.delta
            # A swept parameter needs no flag; its grid supplies the values.
            if K is None and sweep_param == "K":
                K = sweep_values[0]
            if delta is None and sweep_param == "delta":
                delta = float(sweep_values[0])
            if K is None:
                raise ConfigError("--K is required for non-custom settings")
            if delta is None:
                raise ConfigError("--delta is required for non-custom settings")
        reps = getattr(args, "reps", 1)
        if max((K, *sweep_values) if sweep_param == "K" else (K,)) > MAX_K:
            raise ConfigError(f"an instance has at most {MAX_K} arms")
        if reps * len(sweep_values or (0,)) * len(algo_names) > MAX_OUTCOMES:
            raise ConfigError(f"a run keeps at most {MAX_OUTCOMES} outcomes "
                              "(reps x grid points x algorithms)")
        return harness.ExperimentConfig(
            setting=setting,
            algos=tuple(algo_names),
            K=K,
            T=args.T,
            delta=delta,
            sigma=args.sigma,
            tau=args.tau,
            reps=reps,
            base_seed=args.seed,
            sweep_param=sweep_param,
            sweep_values=sweep_values,
            custom_means=means,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _config_comment(config: harness.ExperimentConfig) -> str:
    parts = [
        f"setting={config.setting.value}",
        f"algo={','.join(config.algos)}",
        f"K={config.K}",
        f"T={config.T}",
        f"delta={config.delta}",
        f"sigma={config.sigma}",
        f"tau={config.tau}",
        f"reps={config.reps}",
        f"seed={config.base_seed}",
    ]
    if config.sweep_param is not None:
        parts.append(f"sweep={config.sweep_param}")
        parts.append("grid=" + ",".join(str(v) for v in config.sweep_values))
    if config.custom_means is not None:
        parts.append("means=" + ",".join(str(m) for m in config.custom_means))
    return " ".join(parts)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_and_emit(args: argparse.Namespace, config: harness.ExperimentConfig) -> int:
    rows = harness.run_experiment(config, threads=_resolve_threads(args))
    _emit(harness.render_csv(rows, comment=_config_comment(config)), args.out)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    return _run_and_emit(args, _experiment_config(args, _comma_list(args.algo)))


def _cmd_sweep(args: argparse.Namespace) -> int:
    values = _parse_grid(args.grid)
    if args.sweep == "K":  # integral values print as ints; the config refuses the rest
        values = [int(v) if v % 1 == 0 else v for v in values]
    config = _experiment_config(args, _comma_list(args.algo), sweep_param=args.sweep,
                                sweep_values=tuple(values))
    return _run_and_emit(args, config)


def _bound_rows(args: argparse.Namespace) -> List[BoundReport]:
    from . import bounds  # only this verb uses it; the sweep path never loads it

    shape = _SHAPES[args.shape]
    sides = ("lower", "upper") if args.side == "both" else (args.side,)
    if shape is ShapeClass.UNSTRUCTURED:
        if not args.gaps:
            raise ConfigError("unstructured bounds require --gaps")
        if args.K is None:
            raise ConfigError("unstructured bounds require --K")
        gap_values = [float(x) for x in _comma_list(args.gaps)]
        lower, upper = bounds.unstructured_bounds(gap_values, args.T, args.sigma, args.K)
        return [r for r in (lower, upper) if r.side in sides]
    if args.delta_min is None:
        raise ConfigError("--delta-min is required for monotone/concave bounds")
    out: List[BoundReport] = []
    for side in sides:
        if side == "lower":
            fn = bounds.monotone_lower if shape is ShapeClass.MONOTONE else bounds.concave_lower
            out.append(fn(args.delta_min, args.T, args.sigma))
        else:
            if args.K is None:
                raise ConfigError("upper bounds require --K")
            fn = bounds.monotone_upper if shape is ShapeClass.MONOTONE else bounds.concave_upper
            out.append(fn(args.delta_min, args.T, args.sigma, args.K))
    return out


def _cmd_bounds(args: argparse.Namespace) -> int:
    try:
        reports = _bound_rows(args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print("shape,side,exponent,raw_value,clamped_value,regime_ok")
    for rep in reports:
        print(f"{rep.shape.value},{rep.side},{rep.exponent:.6g},"
              f"{rep.value:.6g},{rep.clamped:.6g},{int(rep.regime_ok)}")
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    from . import tree  # only this verb uses it; the sweep path never loads it

    if args.K is None or args.K < 3:
        raise ConfigError("--K must be >= 3")
    for line in tree.dump_lines(args.K):
        print(line)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    # Not every traced walker is a harness algorithm; the config's instance
    # checks, the same as run's and sweep's, do not depend on the algorithm.
    config = _experiment_config(args, harness.ALGORITHMS)
    problem = harness.build_instance(config, config.K, config.delta)
    try:
        rng = RngStream(config.base_seed, args.rep)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    trajectory = algos.ALGORITHMS[args.algo].trace(problem, args.T, rng)
    header = (f"# setting={config.setting.value} algo={args.algo} K={config.K} T={args.T} "
              f"delta={config.delta} sigma={args.sigma} tau={args.tau} "
              f"seed={args.seed} rep={args.rep}")
    lines = [header]
    actions = [action.value for action in algos.Action]
    columns = (trajectory.depth, trajectory.left, trajectory.right, trajectory.dup_count,
               trajectory.action, trajectory.budget)  # the final node has no move: zip drops it
    for t, (depth, left, right, dup, act, spent) in enumerate(
            zip(*(column.tolist() for column in columns)), start=1):
        lines.append(f"{t},{depth},{left},{(left + right) // 2},{right},{dup},{actions[act]},{spent}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def dispatch(argv: Sequence[str]) -> int:
    """Route ``argv`` to a verb; returns the process exit code."""
    parser = build_parser()
    try:
        tokens = _inject_config_tokens(list(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        args = parser.parse_args(tokens)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
