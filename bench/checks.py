"""Output checks that feed the benchmark's ``failed`` count.

A sweep's operation is one CSV cell (grid point x algorithm).  Every cell is
checked independently of the program's own code: the row must be present and
well formed, ``skipped`` must follow the budget rule, the Wilson interval must
recompute from ``errors`` / ``reps``, and ``uniform`` cells must agree with
the exact error law of that algorithm.
"""
from __future__ import annotations

import math
from statistics import NormalDist
from typing import List, Sequence

from workloads import Sweep, expected_skip, true_means

HEADER = ("setting,algo,K,T,delta,sigma,tau,reps,errors,error_rate,"
          "ci_low,ci_high,mean_simple_regret,seed,skipped")
SETTING_NAMES = {"1": "s1", "2c": "s2concave"}
_Z95 = NormalDist().inv_cdf(0.975)
#: Slack for values the CSV rounds to six decimals.
_TOL = 1.5e-6
#: Per-cell, per-tail false-alarm level of the exact ``uniform`` law test.  A
#: run checks at most two distinct outputs (repeats of one argv must be
#: byte-identical) of at most 200 uniform cells, so correct code fails a run
#: with probability below 2 * 2 * 200 * 1e-10 < 1e-6.
UNIFORM_ALPHA = 1e-10


def wilson(errors: int, n: int) -> tuple:
    p = errors / n
    z2n = _Z95 * _Z95 / n
    denom = 1.0 + z2n
    center = (p + z2n / 2.0) / denom
    half = (_Z95 / denom) * math.sqrt(p * (1.0 - p) / n + z2n / (4.0 * n))
    return min(max(0.0, center - half), p), max(min(1.0, center + half), p)


def uniform_error_prob(means: Sequence[float], T: int, sigma: float, tau: float) -> float:
    """P(some arm mislabeled) for ``uniform``: 1 - prod_k (1 - Phi(-g_k sqrt(T // K) / sigma))."""
    root_n = math.sqrt(T // len(means))
    log_ok = 0.0
    for mu in means:
        q = 0.5 * math.erfc(abs(mu - tau) * root_n / sigma / math.sqrt(2.0))
        log_ok += math.log1p(-q) if q < 1.0 else -math.inf
    return -math.expm1(log_ok)


def _binom_pmf(k: int, n: int, p: float) -> float:
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    + k * math.log(p) + (n - k) * math.log1p(-p))


def binomial_plausible(errors: int, n: int, p: float, alpha: float = UNIFORM_ALPHA) -> bool:
    """Neither exact binomial tail at ``errors`` is below ``alpha``."""
    lower = sum(_binom_pmf(k, n, p) for k in range(0, errors + 1))
    upper = sum(_binom_pmf(k, n, p) for k in range(errors, n + 1))
    return lower >= alpha and upper >= alpha


def _close(text: str, value: float) -> bool:
    return abs(float(text) - value) <= _TOL


def check_row(fields: List[str], wl: Sweep, cell: tuple, tbp_seed: int) -> str:
    """Empty string when the row is right for ``cell``, otherwise the reason."""
    K, delta, algo = cell
    if len(fields) != 15:
        return f"{len(fields)} fields"
    setting, r_algo, r_K, r_T, r_delta, sigma, tau, reps, errors, rate, lo, hi, regret, seed, skipped = fields
    expect = (SETTING_NAMES[wl.setting], algo, str(K), str(wl.T), f"{delta:.6f}",
              "1.000000", "0.000000", str(wl.reps), str(tbp_seed))
    if (setting, r_algo, r_K, r_T, r_delta, sigma, tau, reps, seed) != expect:
        return "identity fields differ from the requested cell"
    if skipped != str(int(expected_skip(wl.setting, algo, K, wl.T))):
        return "skipped flag disagrees with the budget rule"
    if skipped == "1":
        return "" if (errors, rate, lo, hi, regret) == ("0",) + ("0.000000",) * 4 else "skipped row carries data"
    try:
        n_err = int(errors)
        values = [float(x) for x in (rate, lo, hi, regret)]
    except ValueError:
        return "non-numeric field"
    if not 0 <= n_err <= wl.reps or not all(math.isfinite(v) for v in values):
        return "errors out of range"
    ci_low, ci_high = wilson(n_err, wl.reps)
    if not (_close(rate, n_err / wl.reps) and _close(lo, ci_low) and _close(hi, ci_high)):
        return "rate or Wilson interval does not recompute from errors/reps"
    if (values[3] == 0.0) != (n_err == 0):
        return "simple regret disagrees with the error count"
    if algo == "uniform":
        p = uniform_error_prob(true_means(wl.setting, K, delta), wl.T, 1.0, 0.0)
        if not binomial_plausible(n_err, wl.reps, p):
            return f"{n_err}/{wl.reps} errors implausible under the exact law p={p:.3g}"
    return ""


def check_sweep_csv(wl: Sweep, seed: int, text: str) -> List[str]:
    """One entry per expected cell: ``""`` when right, else why it failed."""
    cells = wl.cells(seed)
    lines = text.split("\n")
    if len(lines) < 2 or not lines[0].startswith("# ") or lines[1] != HEADER or lines[-1] != "":
        return ["malformed CSV preamble or missing final newline"] * len(cells)
    rows = lines[2:-1]
    if len(rows) > len(cells):
        return [f"{len(rows)} rows for {len(cells)} cells"] * len(cells)
    rows += [None] * (len(cells) - len(rows))
    tbp_seed = wl.tbp_seed(seed)
    return ["missing row" if row is None else check_row(row.split(","), wl, cell, tbp_seed)
            for row, cell in zip(rows, cells)]
