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
from itertools import chain, islice, product, repeat
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

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


def _range_max(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row, the largest of ``values[lo:hi]``, 0 if it is empty; ``lo <= hi < values.size``."""
    out = np.maximum.reduceat(values, np.stack([lo, hi], -1).ravel())[::2]
    out[lo == hi] = 0.0
    return out


def _band_chunk(problems: Sequence[Problem], bands) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per cell ``(problem, (l, r))``, :func:`_outcomes` of its band rule's labels
    :func:`~tbp.env._band_labels` ``(n, l, r)``, without building them; the cells share a ``tau``.

    The cells' real means are laid end to end, and the threshold and gap rules are applied to
    them once: prefix counts of arms above, and their gaps.  A row is scored by lookups at its
    band's absolute ends and by three range maxima: the above gaps before and after its band
    in its cell, and the below gaps inside it.
    """
    sizes = [problem.n_original for problem in problems]
    reps = [np.size(l) for l, _ in bands]
    values = np.concatenate([problem.original_means for problem in problems])
    above = _above(values, problems[0].tau)
    gap = _threshold_gaps(values, problems[0].tau)
    count = np.zeros(values.size + 1, dtype=np.intp)  # arms above among the first k
    np.cumsum(above, out=count[1:])
    gap_above, gap_below = np.zeros((2, values.size + 1))  # a last 0: every end is an index
    np.copyto(gap_above[:-1], gap, where=above)
    np.copyto(gap_below[:-1], gap, where=~above)
    first, last, l, r = np.empty((4, sum(reps)), dtype=np.intp)  # per row: cell ends, band ends
    cells, row, arm = [], 0, 0
    for (cl, cr), k, n in zip(bands, reps, sizes):
        rows = slice(row, row + k)
        first[rows], last[rows], l[rows], r[rows] = arm, arm + n, cl, cr
        cells.append(rows)
        row, arm = row + k, arm + n
    # The band labels the arms after s and up to e above, the rest of its cell below,
    # first <= s <= e <= last; an empty band has s == e.
    s = np.minimum(np.maximum(l - 1, 0) + first, last)
    e = np.minimum(np.maximum(r + first, s), last)
    above_out = count[s] - count[first] + count[last] - count[e]
    below_in = (e - s) - (count[e] - count[s])
    erred = above_out + below_in > 0
    outside = np.maximum(_range_max(gap_above, first, s), _range_max(gap_above, e, last))
    regrets = np.maximum(outside, _range_max(gap_below, s, e))
    return [(erred[rows], regrets[rows]) for rows in cells]


#: Most arms, and most rows, one :func:`_band_chunk` spans; a larger cell is scored alone.
_CHUNK_ARMS, _CHUNK_ROWS = 1 << 12, 1 << 9


def _scored(problems: Sequence[Problem],
            results: Iterable[algos.BatchResult]) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """:func:`_outcomes` of each result's labels on its problem, in order, building no
    ``reps x K`` array: tree-search cells from their band ends, consecutive cells a chunk at
    a time (:func:`_band_chunk`), and :func:`~tbp.algos.uniform_batch`'s labels in row
    blocks.  ``results`` are one lockstep call's, with one ``tau`` and one row count; each
    chunk is scored as soon as the next cell would overflow it, before that cell is walked."""
    chunk, arms, rows = [], 0, 0
    successors = chain(islice(problems, 1, None), [None])
    for problem, res, successor in zip(problems, results, successors):
        k = res.total_budget.size
        if res.band is None:
            erred, regrets = np.empty(k, dtype=bool), np.empty(k)
            for block in algos._row_blocks(*res.above.shape):
                erred[block], regrets[block] = _outcomes(problem, res.above[block])
            yield erred, regrets
            continue
        chunk.append((problem, res.band))
        arms, rows = arms + problem.n_original, rows + k
        if (successor is None or arms + successor.n_original > _CHUNK_ARMS
                or rows + k > _CHUNK_ROWS):
            yield from _band_chunk(*zip(*chunk))
            chunk, arms, rows = [], 0, 0


def run_trial(config: ExperimentConfig, algo: str, rep_index: int) -> Tuple[bool, float]:
    """Run replication ``rep_index`` of ``algo``; returns ``(error occurred, simple regret)``.

    The regret of a perfect replication is 0; otherwise it is the largest gap
    among mislabeled arms.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    problem = build_instance(config, config.K, config.delta)
    variates = VariateBlock(config.base_seed, rep_index, rep_index + 1)
    results = algos.ALGORITHMS[algo].lockstep([problem], config.T, variates)
    ((errs, regrets),) = _scored([problem], results)
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
    its rule in one lockstep call, and the cells are scored from their instances as their
    labels arrive (:func:`_scored`), so a task keeps no truth arrays.
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
        cell_problems = [problems[g] for g in cells]
        results = algos.ALGORITHMS[name].lockstep(cell_problems, config.T, variates)
        for g, outcomes in zip(cells, _scored(cell_problems, results)):
            out[g, name] = outcomes
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
    reps, setting = config.reps, config.setting.value
    with np.errstate(over="ignore"):  # regrets near the float maximum overflow a sum
        for c, ((K, delta), algo) in enumerate(product(_grid(config), config.algos)):
            est = None
            if parts[0][c] is not None:
                errs, regrets = parts[0][c] if len(parts) == 1 else (
                    np.concatenate(arrays) for arrays in zip(*(part[c] for part in parts)))
                n_err = np.count_nonzero(errs)
                total = float(regrets.sum())  # np.sum's reduction, without its wrapper
                regret = total / reps if math.isfinite(total) else float((regrets / reps).sum())
                est = ErrorEstimate(n_err, n_err / reps, *wilson_interval(n_err, reps), regret)
            rows.append(ResultRow(setting, algo, K, config.T, delta, config.sigma,
                                  config.tau, reps, config.base_seed,
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
