"""Closed-form error-rate bounds and adversarial instance constructors.

All logarithms are natural.  Probability-scale bounds are reported raw (they
can exceed 1 at desk-scale budgets) together with their exponent; use
``BoundReport.clamped`` for a value in [0, 1].
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple, Union

import numpy as np

from .env import GapVector, Problem, ShapeClass, _concave, _enforce_float_concavity, shape_check

__all__ = [
    "BoundReport",
    "PerturbationError",
    "monotone_lower",
    "monotone_upper",
    "concave_lower",
    "concave_upper",
    "unstructured_complexity",
    "unstructured_bounds",
    "adversarial_monotone_pair",
    "concave_perturb",
]

MONOTONE_RATE_CONSTANT = 1.0 / 48.0
CONCAVE_RATE_CONSTANT = 1.0 / 576.0
LOG_K_CONSTANT = 12.0
MONOTONE_REGIME_FACTOR = 36.0
CONCAVE_REGIME_FACTOR = 108.0


class PerturbationError(RuntimeError):
    """No candidate perturbation passed the (a)-(d) verifier."""


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: ``value = leading * exp(exponent)``."""

    shape: ShapeClass
    side: str
    value: float
    exponent: float
    leading: float
    regime_ok: bool
    params: Dict[str, float] = field(default_factory=dict)

    @property
    def clamped(self) -> float:
        return min(1.0, self.value)


def _report(shape, side, exponent, leading, regime_ok, **params) -> BoundReport:
    return BoundReport(
        shape=shape,
        side=side,
        value=leading * math.exp(exponent),
        exponent=exponent,
        leading=leading,
        regime_ok=regime_ok,
        params={k: float(v) for k, v in params.items()},
    )


def _check_domain(sigma: float, delta_min: float = 0.0, T: int = 1, K: int = 1) -> None:
    """Raise ``ValueError`` unless ``sigma`` is finite and positive, ``delta_min`` finite and
    nonnegative, and ``T`` and ``K`` at least 1."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    if not (math.isfinite(delta_min) and delta_min >= 0) or T < 1 or K < 1:
        raise ValueError("need a finite delta_min >= 0, T >= 1 and K >= 1")


def monotone_lower(delta_min: float, T: int, sigma: float) -> BoundReport:
    """Worst-case error floor ``(1/4) exp(-T delta_min^2 / sigma^2)``."""
    _check_domain(sigma, delta_min, T)
    exponent = -T * delta_min**2 / sigma**2
    return _report(ShapeClass.MONOTONE, "lower", exponent, 0.25, True,
                   delta_min=delta_min, T=T, sigma=sigma)


def monotone_upper(delta_min: float, T: int, sigma: float, K: int) -> BoundReport:
    """Guarantee ``exp(-T delta_min^2 / (48 sigma^2) + 12 ln K)``; regime ``T > 36 ln K``."""
    _check_domain(sigma, delta_min, T, K)
    exponent = -MONOTONE_RATE_CONSTANT * T * delta_min**2 / sigma**2 + LOG_K_CONSTANT * math.log(K)
    regime_ok = T > MONOTONE_REGIME_FACTOR * math.log(K)
    return _report(ShapeClass.MONOTONE, "upper", exponent, 1.0, regime_ok,
                   delta_min=delta_min, T=T, sigma=sigma, K=K)


def concave_lower(delta_min: float, T: int, sigma: float) -> BoundReport:
    """Worst-case error floor ``(1/4) exp(-9 T delta_min^2 / sigma^2)``."""
    _check_domain(sigma, delta_min, T)
    exponent = -9.0 * T * delta_min**2 / sigma**2
    return _report(ShapeClass.CONCAVE, "lower", exponent, 0.25, True,
                   delta_min=delta_min, T=T, sigma=sigma)


def concave_upper(delta_min: float, T: int, sigma: float, K: int) -> BoundReport:
    """Guarantee ``3 exp(-T delta_min^2 / (576 sigma^2) + 12 ln K)``; regime ``T > 108 ln K``."""
    _check_domain(sigma, delta_min, T, K)
    exponent = -CONCAVE_RATE_CONSTANT * T * delta_min**2 / sigma**2 + LOG_K_CONSTANT * math.log(K)
    regime_ok = T > CONCAVE_REGIME_FACTOR * math.log(K)
    return _report(ShapeClass.CONCAVE, "upper", exponent, 3.0, regime_ok,
                   delta_min=delta_min, T=T, sigma=sigma, K=K)


def _gap_values(gap_vector: Union[GapVector, np.ndarray, list, tuple]) -> np.ndarray:
    if isinstance(gap_vector, GapVector):
        return np.asarray(gap_vector.gaps, dtype=np.float64)
    return np.asarray(gap_vector, dtype=np.float64)


def unstructured_complexity(gap_vector: Union[GapVector, np.ndarray, list, tuple]) -> float:
    """Sample-complexity measure ``sum over positive gaps of gap^-2``; refuses a NaN or
    negative gap with ``ValueError``."""
    g = _gap_values(gap_vector)
    if not np.all(g >= 0):  # NaN too
        raise ValueError("gaps must be nonnegative numbers")
    positive = g[g > 0]
    return float(np.sum(positive**-2.0))


def unstructured_bounds(
    gap_vector: Union[GapVector, np.ndarray, list, tuple], T: int, sigma: float, K: int
) -> Tuple[BoundReport, BoundReport]:
    """Unconstrained-class bounds driven by ``H = sum gap^-2`` (lower, upper)."""
    if T < 2:
        raise ValueError("T must be >= 2")
    _check_domain(sigma)
    H = unstructured_complexity(gap_vector)
    if H == 0:
        raise ValueError("all gaps are zero: complexity H is undefined")
    s2 = sigma**2
    low_exp = -(3.0 / s2) * (T / H) - (4.0 / s2) * math.log(12.0 * (math.log(T) + 1.0) * K)
    up_exp = -(1.0 / (64.0 * s2)) * (T / H) + 2.0 * math.log((math.log(T) + 1.0) * K)
    lower = _report(ShapeClass.UNSTRUCTURED, "lower", low_exp, 1.0, True,
                    T=T, sigma=sigma, K=K, H=H)
    upper = _report(ShapeClass.UNSTRUCTURED, "upper", up_exp, 1.0, True,
                    T=T, sigma=sigma, K=K, H=H)
    return lower, upper


def adversarial_monotone_pair(
    gap_vector: Union[GapVector, np.ndarray, list, tuple], sigma: float, tau: float
) -> Tuple[Problem, Problem]:
    """The two monotone instances that disagree only on the smallest-gap arm.

    With ``i`` the first index attaining the minimum gap, the first problem
    puts arm ``i`` at ``tau + gap_i`` and the second at ``tau - gap_i``; all
    other arms sit at ``tau - gap`` before ``i`` and ``tau + gap`` after.
    """
    g = _gap_values(gap_vector)
    if g.size == 0 or np.any(g < 0):
        raise ValueError("gaps must be a nonempty nonnegative vector")
    i = int(np.argmin(g))
    signs = np.where(np.arange(g.size) >= i, 1.0, -1.0)
    mu_plus = tau + signs * g
    mu_minus = mu_plus.copy()
    mu_minus[i] = tau - g[i]
    plus = Problem(mu_plus, sigma, tau)
    minus = Problem(mu_minus, sigma, tau)
    if not (shape_check(plus, ShapeClass.MONOTONE) and shape_check(minus, ShapeClass.MONOTONE)):
        raise ValueError("gap vector is not realizable as a monotone instance")
    return plus, minus


def _verify_perturbation(mu: np.ndarray, mu2: np.ndarray, tau: float) -> bool:
    eps = 1e-9
    dmin = float(np.min(np.abs(mu - tau)))
    if not _concave(mu2):  # (a), exactly as shape_check(CONCAVE) and so ctb test it
        return False
    if not np.any((mu >= tau) != (mu2 >= tau)):  # (b)
        return False
    if np.max(np.abs(mu2 - mu)) > 3.0 * dmin + eps:  # (c)
        return False
    d, d2 = np.abs(mu - tau), np.abs(mu2 - tau)
    if np.any(d2 < d / 10.0 - eps) or np.any(d2 > 3.0 * d + eps):  # (d)
        return False
    return True


def _dip_candidate(mu: np.ndarray, target: int) -> np.ndarray:
    # Flip one above-threshold arm with an extra-deep dip, shifting the rest
    # by half its gap. ``target`` is a 0-based index.
    gap = abs(mu[target])  # caller works in tau-centered coordinates
    out = mu - gap / 2.0
    out[target] = mu[target] - 9.0 * gap / 8.0
    return out


def concave_perturb(problem: Problem) -> Problem:
    """A nearby concave instance flipping at least one label.

    Applies the structural case analysis on the position of the smallest-gap
    arm (uniform vertical shifts, or a single-arm dip when the means are flat
    around the threshold), trying the case-selected shift first and the
    remaining admissible shifts as fallbacks.  Every candidate is verified
    against the four contract conditions (concavity, a flipped label, shifts
    bounded by three minimum gaps, gap ratios in [1/10, 3]); the first
    verified candidate is returned and failure of all candidates raises.
    A candidate concave up to rounding has its middles raised by a few ulps
    (as :func:`~tbp.env.make_setting` raises a tent's) before it is verified,
    so the partner passes ``shape_check(CONCAVE)`` and :func:`~tbp.algos.ctb` runs on it.
    """
    if problem.sentinels is not None:
        raise ValueError("concave_perturb expects an un-augmented problem")
    if not shape_check(problem, ShapeClass.CONCAVE):
        raise ValueError("problem is not concave")
    tau = problem.tau
    mu = problem.means - tau  # center so the threshold is 0
    if not np.any(mu > 0):
        raise ValueError("need at least one arm above the threshold")
    d = np.abs(mu)
    dmin = float(np.min(d))
    if dmin == 0:
        raise ValueError("an arm sits exactly at the threshold")
    k_star = int(np.argmin(d))
    above = np.flatnonzero(mu > 0)
    a, b = int(above[0]), int(above[-1])

    candidates: list[np.ndarray] = []
    if mu[k_star] < 0:
        # Smallest gap below threshold: shift everything up. The branch test
        # looks at the below-threshold arm on the other side of the block.
        other = b + 1 if k_star == a - 1 else a - 1
        other_gap = d[other] if 0 <= other < mu.size else math.inf
        shifts = [2.0 * dmin, 1.25 * dmin]
        if other_gap > 1.5 * dmin:
            shifts.reverse()
        candidates += [mu + s for s in shifts]
    elif above.size == 1:
        candidates.append(mu - 2.0 * dmin)
        candidates += [mu - 9.0 * dmin / 8.0, mu - 11.0 * dmin / 8.0]
    else:
        inner_gap = min(d[a + 1], d[b - 1])
        far_end = b if k_star == a else a
        uniform_shifts = [9.0 * dmin / 8.0, 11.0 * dmin / 8.0]
        if d[far_end] < 1.25 * dmin:
            uniform_shifts.reverse()
        dips = [_dip_candidate(mu, a), _dip_candidate(mu, b)]
        if d[b] < d[a]:
            dips.reverse()
        if inner_gap >= 1.5 * dmin:
            candidates += [mu - s for s in uniform_shifts]
            candidates += dips + [mu - 2.0 * dmin]
        else:
            candidates += dips
            candidates += [mu - s for s in uniform_shifts] + [mu - 2.0 * dmin]

    for cand in candidates:
        if not _concave(cand, tol=1e-12):  # not concave by more than rounding
            continue
        cand = _enforce_float_concavity(cand + tau)
        if _verify_perturbation(problem.means, cand, tau):
            return Problem(cand, problem.sigma, tau)
    raise PerturbationError("no admissible perturbation found for this instance")
