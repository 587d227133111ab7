"""Seeded Monte-Carlo experiment runner with CSV emission.

Replication ``i`` of every cell always draws from a fresh
``RngStream(base_seed, i)``: its variates are a prefix of that stream.  A
task covers one replication range across every cell of the sweep, reading
each replication's prefix from one shared :class:`~tbp.env.VariateBlock`,
so results are identical whether the range runs as one task in process or
split across a pool.  Per-replication outcomes are gathered into arrays
indexed by replication before reduction, making the aggregation
independent of scheduling and chunking.
"""
from __future__ import annotations

import math
import os
from contextlib import suppress
from dataclasses import dataclass
from itertools import product, repeat
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import algos
from .env import (Problem, Setting, VariateBlock, _above, _threshold_gaps, _whole,
                  check_setting, make_setting)

__all__ = [
    "ALGORITHMS",
    "ExperimentConfig",
    "ErrorEstimate",
    "ResultRow",
    "CSV_HEADER",
    "wilson_interval",
    "simple_regret",
    "plan_tasks",
    "build_instance",
    "run_trial",
    "run_experiment",
    "render_csv",
    "write_csv",
]

#: The algorithms a sweep can run: those with a lockstep walker.
ALGORITHMS = tuple(name for name, entry in algos.ALGORITHMS.items() if entry.lockstep)

CSV_HEADER = (
    "setting,algo,K,T,delta,sigma,tau,reps,errors,error_rate,"
    "ci_low,ci_high,mean_simple_regret,seed,skipped"
)

#: Two-sided 95% normal quantile used by the Wilson interval,
#: ``statistics.NormalDist().inv_cdf(0.975)`` exactly.
_Z95 = 1.9599639845400536

#: Most replications one task covers, which bounds a task's variate block
#: and kept labels at this many rows times the widest cell.
_TASK_REPS = 1024


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep definition: instance family, algorithms, budget, and seeding."""

    setting: Setting
    algos: Tuple[str, ...]
    K: int
    T: int
    delta: float
    sigma: float = 1.0
    tau: float = 0.0
    reps: int = 1
    base_seed: int = 0
    sweep_param: Optional[str] = None  # "delta" or "K"
    sweep_values: Optional[Tuple[float, ...]] = None
    custom_means: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "algos", tuple(self.algos))
        if not self.algos:
            raise ValueError("algos must be nonempty")
        for name in self.algos:
            if name not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {name!r}")
        # T below 2**63 keeps every walker's int64 budget arrays exact; streams take seeds < 2**64.
        for name, what, bits in (("K", "K", None), ("T", "T", 63), ("reps", "reps", None),
                                 ("base_seed", "seed", 64)):
            object.__setattr__(self, name, _whole(getattr(self, name), what, bits))
        if min(self.T, self.reps) < 1:
            raise ValueError("T and reps must be >= 1")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and nonnegative")
        if not math.isfinite(self.tau):
            raise ValueError("tau must be finite")
        if self.setting is Setting.CUSTOM:
            if not self.custom_means:
                raise ValueError("custom setting requires custom_means")
            object.__setattr__(self, "custom_means", tuple(float(x) for x in self.custom_means))
            if self.K != len(self.custom_means):  # the CSV's K field
                raise ValueError(f"K must be the number of custom means, {len(self.custom_means)}, "
                                 f"got {self.K}")
            Problem(self.custom_means, self.sigma, self.tau)  # refuses what build_instance would
        elif not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be finite and positive")
        elif self.K < 3:  # a K sweep's K field too, as a delta sweep's delta field above
            raise ValueError(f"K must be >= 3, got {self.K}")
        if self.sweep_param is not None:
            if self.sweep_param not in ("delta", "K"):
                raise ValueError("sweep_param must be 'delta' or 'K'")
            vals = tuple(self.sweep_values or ())
            if not vals:
                raise ValueError("sweep_values must be nonempty when sweeping")
            if any(y <= x for x, y in zip(vals, vals[1:])):
                raise ValueError("sweep_values must be strictly increasing")
            if self.sweep_param == "K" and any(v % 1 for v in vals):
                raise ValueError("K sweep values must be integers")
            if self.setting is Setting.CUSTOM:
                raise ValueError("sweeps are not supported for custom instances")
            object.__setattr__(self, "sweep_values", vals)
        if self.setting is not Setting.CUSTOM:
            for K, delta in _grid(self):
                check_setting(self.setting, K, delta, self.tau)


@dataclass(frozen=True)
class ErrorEstimate:
    """Aggregated mis-classification statistics over one cell of the sweep."""

    errors: int
    rate: float
    ci_low: float
    ci_high: float
    mean_simple_regret: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.ci_low <= self.rate <= self.ci_high <= 1.0:
            raise ValueError("confidence interval must bracket the rate")


@dataclass(frozen=True)
class ResultRow:
    setting: str
    algo: str
    K: int
    T: int
    delta: float
    sigma: float
    tau: float
    reps: int
    seed: int
    skipped: bool
    estimate: Optional[ErrorEstimate] = None


def wilson_interval(errors: int, n: int, z: float = _Z95) -> Tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n < 1 or not 0 <= errors <= n:
        raise ValueError("need 0 <= errors <= n with n >= 1")
    p = errors / n
    z2n = z * z / n
    denom = 1.0 + z2n
    center = (p + z2n / 2.0) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z2n / (4.0 * n))
    # The score interval brackets p exactly; guard the float boundary cases.
    return min(max(0.0, center - half), p), max(min(1.0, center + half), p)


def build_instance(config: ExperimentConfig, K: int, delta: float) -> Problem:
    """The instance at grid point ``(K, delta)`` of ``config``."""
    if config.setting is Setting.CUSTOM:
        return Problem(np.asarray(config.custom_means), config.sigma, config.tau)
    return make_setting(config.setting, K, delta, config.tau, config.sigma)


def simple_regret(predicted: np.ndarray, truth: np.ndarray, gap_values: np.ndarray) -> float:
    """Largest gap among mislabeled arms; 0 when the classification is perfect."""
    return float(_regrets(np.asarray(predicted) != np.asarray(truth), gap_values))


def _regrets(mismatch: np.ndarray, gap_values) -> np.ndarray:
    """Per row of ``mismatch``: the largest gap among its mismatched arms, 0 if there is none."""
    return np.max(np.where(mismatch, gap_values, 0.0), axis=-1, initial=0.0)


def _outcomes(problem: Problem, labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per row of ``labels`` (``+/-1``, or ``bool`` for above): whether it mislabels a real
    arm of ``problem``, and its regret."""
    means, tau = problem.original_means, problem.tau
    mismatch = (labels > 0) != _above(means, tau)
    return mismatch.any(axis=1), _regrets(mismatch, _threshold_gaps(means, tau))


def _band_outcomes(values, tau, l, r) -> Tuple[np.ndarray, np.ndarray]:
    """Per row, the band rule's labels for arms ``l..r`` scored against the threshold rule.

    Returns whether the row mislabels an arm of ``values`` and the largest gap among the arms
    it mislabels (0 if none), as :func:`_outcomes` of :func:`~tbp.env._band_labels`
    ``(values.size, l, r)`` would, without building the labels: from prefix and suffix tables
    over the arms, and one range maximum per row for the gaps inside its band.
    """
    n = values.size
    above = _above(values, tau)
    gap = _threshold_gaps(values, tau)
    gap_above, gap_below = np.where(above, gap, 0.0), np.where(above, 0.0, gap)
    count = np.concatenate(([0], np.cumsum(above)))  # arms above among 1..k
    first = np.concatenate(([0.0], np.maximum.accumulate(gap_above)))  # largest above gap in 1..k
    last = np.append(np.maximum.accumulate(gap_above[::-1])[::-1], 0.0)  # ... in k+1..n
    # The band labels arms s+1..e above and the rest below, s <= e; an empty band has s == e.
    s = np.clip(l - 1, 0, n)
    e = np.clip(r, s, n)
    above_out = count[s] + count[n] - count[e]
    below_in = (e - s) - (count[e] - count[s])
    # Segment 2i of the interleaved ends is arms s_i+1..e_i; an empty one reads 0.
    inside = np.maximum.reduceat(np.append(gap_below, 0.0), np.stack([s, e], -1).ravel())[::2]
    inside[s == e] = 0.0
    return above_out + below_in > 0, np.maximum(np.maximum(first[s], last[e]), inside)


def _scored(problem: Problem, res: algos.BatchResult) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_outcomes` of ``res.labels``, from a tree search's band ends or, in row
    blocks, from :func:`~tbp.algos.uniform_batch`'s labels: no ``reps x K`` array is built."""
    if res.band is not None:
        return _band_outcomes(problem.original_means, problem.tau, *res.band)
    erred, regrets = np.empty(res.above.shape[0], dtype=bool), np.empty(res.above.shape[0])
    for rows in algos._row_blocks(*res.above.shape):
        erred[rows], regrets[rows] = _outcomes(problem, res.above[rows])
    return erred, regrets


def run_trial(config: ExperimentConfig, algo: str, rep_index: int) -> Tuple[bool, float]:
    """Run replication ``rep_index`` of ``algo``; returns ``(error occurred, simple regret)``.

    The regret of a perfect replication is 0; otherwise it is the largest gap
    among mislabeled arms.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    problem = build_instance(config, config.K, config.delta)
    variates = VariateBlock(config.base_seed, rep_index, rep_index + 1)
    (res,) = algos.ALGORITHMS[algo].lockstep([problem], config.T, variates)
    errs, regrets = _scored(problem, res)
    return bool(errs[0]), float(regrets[0])


def _grid(config: ExperimentConfig) -> List[Tuple[int, float]]:
    if config.sweep_param == "delta":
        return [(config.K, float(v)) for v in config.sweep_values]
    if config.sweep_param == "K":
        return [(int(v), config.delta) for v in config.sweep_values]
    return [(config.K, config.delta)]


def _run_task(config: ExperimentConfig, start: int,
              stop: int) -> List[Optional[Tuple[np.ndarray, np.ndarray]]]:
    """Replications ``start..stop`` of every (grid point, algorithm) cell, grid-major.

    A cell whose budget rule fails yields ``None``.  Budget rules depend
    only on the instance and ``T``, so every task skips the same cells.
    Every cell is checked first, and the block is drawn once, at the widest prefix a
    checked cell reads, so no walk grows it.  Each algorithm walks all the cells that pass
    its rule in one lockstep call, and each cell is scored from its instance as its labels
    arrive, so a task keeps no truth arrays.
    """
    problems = [build_instance(config, K, delta) for K, delta in _grid(config)]
    kept, widest = {}, 0  # algorithm -> grid points that pass its rule; their widest prefix
    for name in config.algos:
        kept[name] = []
        for g, problem in enumerate(problems):
            with suppress(algos.BudgetError):
                widest = max(widest, algos.ALGORITHMS[name].check(problem, config.T))
                kept[name].append(g)
    variates = VariateBlock(config.base_seed, start, stop)
    variates.prefix(widest)  # draws nothing when every cell is skipped
    out = {}  # (grid point, algorithm) -> outcomes
    for name, cells in kept.items():
        results = algos.ALGORITHMS[name].lockstep([problems[g] for g in cells], config.T, variates)
        for g, res in zip(cells, results):
            out[g, name] = _scored(problems[g], res)
    return [out.get(cell) for cell in product(range(len(problems)), config.algos)]


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def plan_tasks(reps: int, threads: int, cores: int) -> Tuple[int, List[Tuple[int, int]]]:
    """Worker count and the replication ranges ``(start, stop)`` of the tasks.

    Workers are ``min(threads, cores, tasks)``: never more than requested,
    than the machine can run at once, or than there are tasks.  The ranges
    split ``0..reps`` evenly across the workers, at most ``_TASK_REPS`` each.
    """
    if min(reps, threads, cores) < 1:
        raise ValueError("reps, threads and cores must be >= 1")
    workers = min(threads, cores, reps)
    size = min(_TASK_REPS, -(-reps // workers))
    return workers, [(s, min(s + size, reps)) for s in range(0, reps, size)]


def run_experiment(config: ExperimentConfig, threads: int = 1) -> List[ResultRow]:
    """Run the sweep and aggregate each (grid point, algorithm) cell.

    Grid points whose budget precondition fails are emitted with the
    ``skipped`` flag instead of aborting the sweep; other exceptions
    propagate.  Output is identical for every ``threads`` value.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    workers, ranges = plan_tasks(config.reps, threads, _usable_cores())
    if workers == 1:
        parts = [_run_task(config, start, stop) for start, stop in ranges]
    else:
        # Imported here: the pool's modules cost a 1-worker run start-up time.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_task, repeat(config), *zip(*ranges)))
    rows: List[ResultRow] = []
    for c, ((K, delta), algo) in enumerate(product(_grid(config), config.algos)):
        est = None
        if parts[0][c] is not None:
            errs = np.concatenate([part[c][0] for part in parts])
            regrets = np.concatenate([part[c][1] for part in parts])
            n_err = int(errs.sum())
            ci_low, ci_high = wilson_interval(n_err, config.reps)
            with np.errstate(over="ignore"):  # regrets near the float maximum overflow a sum
                total = np.sum(regrets)
            regret = total / config.reps if np.isfinite(total) else np.sum(regrets / config.reps)
            est = ErrorEstimate(n_err, n_err / config.reps, ci_low, ci_high, float(regret))
        rows.append(ResultRow(config.setting.value, algo, K, config.T, delta, config.sigma,
                              config.tau, config.reps, config.base_seed,
                              skipped=est is None, estimate=est))
    return rows


def _f(x: float) -> str:
    return f"{x:.6f}"


def _row_line(row: ResultRow) -> str:
    est = row.estimate
    errors = est.errors if est else 0
    rate = est.rate if est else 0.0
    ci_low = est.ci_low if est else 0.0
    ci_high = est.ci_high if est else 0.0
    regret = est.mean_simple_regret if est else 0.0
    fields = [
        row.setting, row.algo, str(row.K), str(row.T), _f(row.delta), _f(row.sigma),
        _f(row.tau), str(row.reps), str(errors), _f(rate), _f(ci_low), _f(ci_high),
        _f(regret), str(row.seed), str(int(row.skipped)),
    ]
    return ",".join(fields)


def render_csv(rows: Sequence[ResultRow], comment: Optional[str] = None) -> str:
    """Render rows in the fixed schema (floats with six decimal places).

    ``comment`` (the reproducing configuration) is emitted first as a
    ``#``-prefixed line.  Rows are rendered in the order given, which
    ``run_experiment`` produces grid-major, algorithm-minor.
    """
    if not rows:
        raise ValueError("rows must be nonempty")
    lines = []
    if comment is not None:
        lines.append("# " + comment)
    lines.append(CSV_HEADER)
    lines.extend(_row_line(r) for r in rows)
    return "\n".join(lines) + "\n"


def write_csv(rows: Sequence[ResultRow], path, comment: Optional[str] = None) -> None:
    """Write :func:`render_csv` output to ``path`` with byte-stable newlines."""
    text = render_csv(rows, comment)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
