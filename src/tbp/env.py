"""Bandit problems, shape classes, deterministic sampling, and instance families.

Arms are indexed ``1..K`` in every public API, matching the usual bandit
convention.  Vector quantities (means, gaps, labels) are stored positionally,
so arm ``k`` lives at array index ``k - 1``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

__all__ = [
    "LARGE_GAP",
    "ShapeClass",
    "Setting",
    "Problem",
    "GapVector",
    "Classification",
    "RngStream",
    "VariateBlock",
    "true_labels",
    "gaps",
    "shape_check",
    "sample_mean",
    "make_setting",
    "check_setting",
    "GAP_RTOL",
    "gap_distorted",
    "augment",
]

#: Gap assigned to the "very large" arms of the one-small-gap instance family.
LARGE_GAP = 100.0

#: numpy's ``SeedSequence`` hash constants (a pool of 4 words) and PCG64's multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M128 = 0xCA01F9DD, 0x4973F715, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: The hash constant is multiplied at every hash, whatever the data.  A seed's pool takes 16
#: hashes (4 words in, 12 cross-mixes), so a spawn key's word meets the 16th to 20th constants;
#: ``generate_state``'s 8 words meet the first 9 of their own sequence.
_KEY_HASH = tuple(_INIT_A * pow(_MULT_A, k, 1 << 32) & 0xFFFFFFFF for k in range(16, 21))
_STATE_HASH = tuple(_INIT_B * pow(_MULT_B, k, 1 << 32) & 0xFFFFFFFF for k in range(9))


def _frozen(values, dtype) -> np.ndarray:
    """A copy of ``values`` over an immutable ``bytes`` buffer, so it can never be made writable."""
    a = np.asarray(values, dtype=dtype)
    return np.frombuffer(a.tobytes(), dtype=dtype).reshape(a.shape)


class ShapeClass(Enum):
    """Structural constraint on the sequence of arm means."""

    UNSTRUCTURED = "unstructured"
    MONOTONE = "monotone"
    MONOTONE_DECREASING = "monotone_decreasing"
    RELAXED_MONOTONE = "relaxed_monotone"
    CONCAVE = "concave"


class Setting(Enum):
    """Named experiment instance families (plus a custom escape hatch)."""

    S1 = "s1"
    S2 = "s2"
    S2_CONCAVE = "s2concave"
    CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class Problem:
    """A K-armed Gaussian threshold-classification instance.

    Parameters
    ----------
    means : array-like of float
        Arm means, arm ``k`` at index ``k - 1``.  Non-sentinel means must be
        finite, and so must their gaps ``|mean - tau|``.
    sigma : float
        Noise scale; samples of arm ``k`` are ``Normal(mu_k, sigma**2)``.
    tau : float
        Known classification threshold.
    sentinels : (float, float), optional
        When set, arms ``1`` and ``K`` are deterministic sentinel arms with
        exactly these values (``-inf`` low and ``+inf`` or ``-inf`` high).
        Sampling a sentinel costs zero budget.

    ``means`` is a read-only view of an immutable buffer, so the instance
    never changes, and :meth:`derived` keeps the facts computed from it.
    """

    means: np.ndarray
    sigma: float
    tau: float
    sentinels: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        means = _frozen(self.means, np.float64)
        if means.ndim != 1 or means.size < 1:
            raise ValueError("means must be a non-empty 1-d vector")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "_derived", {})
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "tau", float(self.tau))
        if not math.isfinite(self.tau):
            raise ValueError("tau must be finite")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be finite and nonnegative")
        if self.sentinels is not None:
            lo, hi = self.sentinels
            if means.size < 3:
                raise ValueError("an augmented problem needs at least one real arm")
            if not (math.isinf(lo) and lo < 0):
                raise ValueError("low sentinel must be -inf")
            if not math.isinf(hi):
                raise ValueError("high sentinel must be infinite")
            if means[0] != lo or means[-1] != hi:
                raise ValueError("sentinel values must match the boundary means")
            interior = means[1:-1]
        else:
            interior = means
        if not np.all(np.isfinite(interior)):
            raise ValueError("non-sentinel means must be finite")
        # The largest gap |mean - tau| is at the lowest or highest mean; a Python float
        # overflows to inf without a warning.
        lo, hi = float(np.min(interior)), float(np.max(interior))
        if not math.isfinite(max(hi - self.tau, self.tau - lo)):
            raise ValueError(f"a mean's gap to tau {self.tau!r} overflows")

    def derived(self, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(self, *args)``, computed on the first call and kept while the instance lives.

        Every fact that depends only on the instance (its augmented twin, a
        shape verdict, a lemma series' target) is kept here, keyed by
        ``(fn, *args)``.  A call that raises keeps nothing, so it raises
        again on the next call.
        """
        memo, key = self._derived, (fn, *args)
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = fn(self, *args)
            return value

    def __reduce__(self):
        # A copy is built afresh: its means frozen again, its memo empty.
        return Problem, (self.means, self.sigma, self.tau, self.sentinels)

    @property
    def K(self) -> int:
        """Number of arms, sentinels included."""
        return int(self.means.size)

    @property
    def n_original(self) -> int:
        """Number of non-sentinel arms."""
        return self.K - 2 if self.sentinels is not None else self.K

    @property
    def original_means(self) -> np.ndarray:
        """Means of the non-sentinel arms."""
        return self.means[1:-1] if self.sentinels is not None else self.means

    def mean(self, arm: int) -> float:
        """True mean of ``arm`` (1-based)."""
        if not 1 <= arm <= self.K:
            raise IndexError(f"arm {arm} out of range 1..{self.K}")
        return float(self.means[arm - 1])

    def is_sentinel(self, arm: int) -> bool:
        if not 1 <= arm <= self.K:
            raise IndexError(f"arm {arm} out of range 1..{self.K}")
        return self.sentinels is not None and (arm == 1 or arm == self.K)

    def to_original(self, arm: int) -> int:
        """Map an augmented arm index back to the pre-augmentation index."""
        if self.sentinels is None:
            raise ValueError("problem has no sentinels")
        if not 2 <= arm <= self.K - 1:
            raise IndexError(f"arm {arm} is not a non-sentinel augmented index")
        return arm - 1

    def to_augmented(self, arm: int) -> int:
        """Map a pre-augmentation arm index into the augmented problem."""
        if self.sentinels is None:
            raise ValueError("problem has no sentinels")
        if not 1 <= arm <= self.n_original:
            raise IndexError(f"arm {arm} out of range 1..{self.n_original}")
        return arm + 1


@dataclass(frozen=True, eq=False)
class GapVector:
    """Per-arm distances to the threshold and their minimum."""

    gaps: np.ndarray
    delta_min: float

    def __post_init__(self) -> None:
        g = _frozen(self.gaps, np.float64)
        object.__setattr__(self, "gaps", g)
        object.__setattr__(self, "delta_min", float(self.delta_min))
        if np.any(g < 0):
            raise ValueError("gaps must be nonnegative")
        if g.size and self.delta_min != float(np.min(g)):
            raise ValueError("delta_min must equal the minimum gap")

    def __reduce__(self):
        return GapVector, (self.gaps, self.delta_min)


@dataclass(frozen=True, eq=False)
class Classification:
    """A +/-1 label per arm (+1 means the mean is at or above the threshold)."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        lab = _frozen(self.labels, np.int64)
        if lab.ndim != 1:
            raise ValueError("labels must be 1-d")
        if not np.all((lab == 1) | (lab == -1)):
            raise ValueError("labels must be +/-1")
        object.__setattr__(self, "labels", lab)

    def __reduce__(self):
        return Classification, (self.labels,)

    def __len__(self) -> int:
        return int(self.labels.size)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Classification):
            return np.array_equal(self.labels, other.labels)
        return NotImplemented


def _whole(value: Any, what: str, bits: Optional[int] = None) -> int:
    """``value`` as an ``int``; raises ``ValueError`` unless it is a nonnegative whole
    number, below ``2**bits`` when ``bits`` is given."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or whole < 0 or (bits is not None and whole >> bits):
        below = "" if bits is None else f" below 2**{bits}"
        raise ValueError(f"{what} must be a nonnegative integer{below}, got {value!r}")
    return whole


@dataclass(eq=False)
class RngStream:
    """A reproducible random stream identified by ``(seed, stream_index)``.

    Two streams built from the same pair yield bit-identical draw sequences;
    distinct ``stream_index`` values give statistically independent streams
    (PCG64 seeded by numpy through ``SeedSequence(seed, spawn_key=(stream_index,))``;
    :class:`VariateBlock` computes the same seeded states for many streams at once).
    ``seed`` must be a whole number in ``[0, 2**64)`` and ``stream_index`` a
    nonnegative one; anything else raises ``ValueError``.  Streams are
    stateful and must not be shared between concurrent consumers.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        self.seed = _whole(self.seed, "seed", 64)
        self.stream_index = _whole(self.stream_index, "stream_index")
        self._generator: Optional[np.random.Generator] = None
        self._ahead: Optional[tuple] = None  # (generator, state before a read-ahead, variates used)

    @property
    def generator(self) -> np.random.Generator:
        """The stream's generator, past every variate drawn or consumed so far."""
        if self._generator is None:
            if self._ahead is None:
                ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_index,))
                self._generator = np.random.Generator(np.random.PCG64(ss))
            else:  # settle the last read-ahead: rewind, then redraw what was consumed
                gen, state, used = self._ahead
                self._ahead = None
                gen.bit_generator.state = state
                gen.standard_normal(used)
                self._generator = gen
        return self._generator

    def read_ahead(self, n: int) -> List[float]:
        """The stream's next ``n`` standard normals, none of them consumed yet.

        A caller that uses the first ``c`` of them says so with
        :meth:`consume`.  The stream is settled only when it is read again:
        the next use of :attr:`generator` rewinds it and redraws the ``c``
        consumed variates.  ``standard_normal(n)`` yields the same values as
        ``n`` scalar draws, so the stream moves on as if each variate had been
        drawn alone, a later consumer sees the sequence it always did, and a
        stream that is never read again pays for no rewind.
        """
        gen = self.generator
        self._generator, self._ahead = None, (gen, gen.bit_generator.state, 0)
        return gen.standard_normal(n).tolist()

    def consume(self, c: int) -> None:
        """Move the stream past its next ``c`` standard normals: after :meth:`read_ahead`,
        the first ``c`` it returned."""
        if self._ahead is None:
            self.generator.standard_normal(c)
        else:
            gen, state, used = self._ahead
            self._ahead = (gen, state, used + c)


class VariateBlock:
    """Standard-normal prefixes of the streams ``RngStream(seed, i)``, ``start <= i < stop``.

    Row ``i - start`` of :meth:`prefix` holds the first variates stream ``i``
    yields, as a scalar walk on a fresh stream draws them.  The block keeps
    no generator per stream, only each stream's seeded PCG64 ``(state, inc)``,
    computed with numpy's bytes: its documented ``SeedSequence`` mixing of the
    seed's words and the spawn key ``(i,)``, then PCG64's seeding, in one
    ``uint32`` array pass over every ``i``.  A block reaching past ``2**32``,
    where a spawn key takes more words, asks numpy for each stream's state.
    Rows are drawn by setting one shared PCG64 to their states.  The harness
    asks once, for the widest prefix its task reads, so later requests are
    slices.  A library caller needing a longer prefix grows the block: every
    row is redrawn at least twice as wide, so ``k`` ascending requests cost
    ``O(log k)`` growths and the block is never wider than twice the longest
    prefix requested.
    """

    def __init__(self, seed: int, start: int, stop: int) -> None:
        self.seed, self.start = _whole(seed, "seed", 64), _whole(start, "start")
        self.stop = _whole(stop, "stop")
        if not self.start < self.stop:
            raise ValueError("need 0 <= start < stop")
        self._bits = self._generators = None  # the shared PCG64; each row's (state, inc)
        self._block = np.empty((self.stop - self.start, 0))

    @property
    def reps(self) -> int:
        return self.stop - self.start

    def _seeded(self) -> Tuple[np.random.PCG64, List[Tuple[int, int]]]:
        """A PCG64 to draw with, and each stream's seeded ``(state, inc)``."""
        if self.stop > 1 << 32:
            seeded = []
            for i in range(self.start, self.stop):
                bits = np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=(i,)))
                state = bits.state["state"]
                seeded.append((state["state"], state["inc"]))
            return bits, seeded
        # SeedSequence(seed) leaves the pool every stream of the seed starts from (it hashes a
        # zero for each pool word the seed lacks, as a stream's zero padding does); each stream
        # then hashes its spawn key's one word into every pool word.
        ss = np.random.SeedSequence(self.seed)
        a, b = (np.array(c, dtype=np.uint32)[:, None] for c in (_KEY_HASH, _STATE_HASH))
        h = (np.arange(self.start, self.stop, dtype=np.uint32) ^ a[:-1]) * a[1:]
        h ^= h >> 16
        pool = ss.pool[:, None] * _MIX_L - h * _MIX_R
        pool ^= pool >> 16
        # generate_state(4, uint64): 8 words cycling over the pool, paired little-endian.
        words = (np.concatenate([pool, pool]) ^ b[:-1]) * b[1:]
        words = (words ^ words >> 16).astype(np.uint64)
        seeded = []
        for u0, u1, u2, u3 in (words[0::2] | words[1::2] << 32).T.tolist():  # PCG64's seeding
            inc = ((u2 << 64 | u3) << 1 | 1) & _M128
            seeded.append((((inc + (u0 << 64 | u1)) * _PCG_MULT + inc) & _M128, inc))
        return np.random.PCG64(ss), seeded

    def prefix(self, n: int) -> np.ndarray:
        """The first ``n`` variates of every stream, as a read-only ``(reps, n)`` view."""
        have = self._block.shape[1]
        if n > have:
            if self._generators is None:
                self._bits, self._generators = self._seeded()
            block = np.empty((self.reps, max(n, 2 * have)))
            gen = np.random.Generator(self._bits)
            for row, (state, inc) in zip(block, self._generators):
                self._bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                    "state": {"state": state, "inc": inc}}
                gen.standard_normal(out=row)
            block.setflags(write=False)
            self._block = block
        return self._block[:, :n]


def _above(values, tau, out=None) -> np.ndarray:
    """The threshold rule's predicate: whether each value is at or above ``tau``."""
    return np.greater_equal(values, tau, out=out)


def _threshold_labels(values, tau) -> np.ndarray:
    """The threshold rule: ``+1`` where a value is at or above ``tau``, else ``-1``."""
    return np.where(_above(values, tau), 1, -1)


def _threshold_gaps(values, tau) -> np.ndarray:
    """The gap rule: each value's distance ``|value - tau|`` to the threshold."""
    return np.abs(values - tau)


def _band_labels(n: int, l, r) -> np.ndarray:
    """The band rule: ``+1`` for arms ``l..r`` of ``1..n``, else ``-1``; rows broadcast."""
    arms = np.arange(1, n + 1)
    return np.where((arms >= np.expand_dims(l, -1)) & (arms <= np.expand_dims(r, -1)), 1, -1)


def true_labels(problem: Problem) -> Classification:
    """Ground-truth classification of the non-sentinel arms."""
    return Classification(_threshold_labels(problem.original_means, problem.tau))


def gaps(problem: Problem) -> GapVector:
    """Distances |mu_k - tau| for every arm (sentinels map to +inf)."""
    g = _threshold_gaps(problem.means, problem.tau)
    return GapVector(g, float(np.min(g)))


def _relaxed_monotone(means: np.ndarray, tau: float) -> bool:
    above = means > tau
    below = means < tau
    # Violated iff a strictly-above arm precedes a strictly-below arm.
    return not bool(np.any(below & (np.cumsum(above) > 0)))


def _concave(means: np.ndarray, tol: float = 0.0) -> bool:
    """Whether every midpoint of neighbours is at most the middle mean plus ``tol``."""
    if means.size < 3:
        return True
    mid = 0.5 * means[:-2] + 0.5 * means[2:]
    with np.errstate(invalid="ignore"):
        ok = mid <= means[1:-1] + tol
    # NaN (from inf - inf midpoints) compares False, i.e. not concave.
    return bool(np.all(ok))


def shape_check(problem: Problem, shape: ShapeClass) -> bool:
    """Whether the mean sequence (sentinels included) belongs to ``shape``; once per instance."""
    return problem.derived(_in_shape, shape)


def _in_shape(problem: Problem, shape: ShapeClass) -> bool:
    m = problem.means
    if shape is ShapeClass.UNSTRUCTURED:
        return True
    if shape is ShapeClass.MONOTONE:
        return bool(np.all(m[1:] >= m[:-1]))
    if shape is ShapeClass.MONOTONE_DECREASING:
        return bool(np.all(m[1:] <= m[:-1]))
    if shape is ShapeClass.RELAXED_MONOTONE:
        return _relaxed_monotone(m, problem.tau)
    if shape is ShapeClass.CONCAVE:
        return _concave(m)
    raise ValueError(f"unknown shape class {shape!r}")


def sample_mean(problem: Problem, arm: int, n: int, rng: RngStream) -> Tuple[float, int]:
    """Sample arm ``arm`` ``n`` times and return ``(sample mean, budget spent)``.

    Sentinel arms are deterministic and free: their exact value is returned at
    zero cost.  For regular arms the returned value is drawn directly from
    ``Normal(mu, sigma**2 / n)``, which has exactly the law of an average of
    ``n`` independent draws; one generator variate is consumed per call.
    """
    if not 1 <= arm <= problem.K:
        raise IndexError(f"arm {arm} out of range 1..{problem.K}")
    if problem.is_sentinel(arm):
        return problem.mean(arm), 0
    if n < 1:
        raise ValueError("n must be >= 1")
    mu = problem.mean(arm)
    scale = problem.sigma / math.sqrt(n)
    return mu + scale * float(rng.generator.standard_normal()), n


def _enforce_float_concavity(means: np.ndarray) -> np.ndarray:
    """Raise middles by at most a few ulps so the float midpoint inequality holds.

    The tent's flanks satisfy the defining inequality with exact equality in
    real arithmetic, which per-element rounding can flip by one ulp for
    unlucky (tau, delta) pairs.
    """
    m = means.copy()
    for _ in range(200):
        avg = 0.5 * m[:-2] + 0.5 * m[2:]
        bad = avg > m[1:-1]
        if not bad.any():
            return m
        m[np.flatnonzero(bad) + 1] = avg[bad]
    raise RuntimeError("could not restore floating-point concavity")


#: Largest relative error :func:`gap_distorted` lets rounding put on a gap.
GAP_RTOL = 1e-6


def gap_distorted(delta: float, tau: float) -> bool:
    """Whether rounding moves an arm placed ``delta`` from ``tau`` off that gap.

    True when the realized gap ``|(tau + delta) - tau|`` or
    ``|(tau - delta) - tau|`` differs from ``delta`` by more than
    ``GAP_RTOL * delta``.  The error is at most half a unit in the last place
    of ``tau + delta``, so it stays within the tolerance while
    ``|tau| / delta`` is below about ``9e9``: at ``tau = 1e15`` a gap of
    ``0.1`` realizes as ``0.125``, and at ``tau = 1e17`` it vanishes.  No
    instance family can then honour ``delta``.
    """
    return any(abs(abs((tau + s * delta) - tau) - delta) > GAP_RTOL * delta for s in (1.0, -1.0))


def check_setting(setting: Setting, K: int, delta: float, tau: float) -> None:
    """Raise ``ValueError`` unless ``K >= 3`` and ``delta`` is finite, positive, undistorted
    next to ``tau`` (:func:`gap_distorted`) and, for ``S1``, below ``LARGE_GAP``."""
    if K < 3:
        raise ValueError(f"K must be >= 3, got {K}")
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be finite and positive, got {delta}")
    if setting is Setting.S1 and delta >= LARGE_GAP:
        raise ValueError(f"S1 requires delta < {LARGE_GAP}, got {delta}")
    if gap_distorted(delta, tau):
        raise ValueError(f"delta {delta} rounds away next to tau {tau}")


def make_setting(setting: Setting, K: int, delta: float, tau: float, sigma: float = 1.0) -> Problem:
    """Build one of the named benchmark instances.

    ``S1``: monotone means, a single arm at ``tau + delta`` (the first arm
    above threshold) and every other gap equal to ``LARGE_GAP``, the below
    block occupying the first ``K // 2`` arms.  ``S2``: monotone means with
    every gap equal to ``delta``, split at ``K // 2``.  ``S2_CONCAVE``: a
    symmetric tent with consecutive means ``2 * delta`` apart, peak at
    ``tau + 3 * delta`` on the center arm, so every gap is an odd multiple
    of ``delta``.  Every family raises ``ValueError`` for what
    :func:`check_setting` refuses.
    """
    check_setting(setting, K, delta, tau)
    half = K // 2
    if setting is Setting.S1:
        means = np.empty(K)
        means[:half] = tau - LARGE_GAP
        means[half] = tau + delta
        means[half + 1 :] = tau + LARGE_GAP
    elif setting is Setting.S2:
        means = np.empty(K)
        means[:half] = tau - delta
        means[half:] = tau + delta
    elif setting is Setting.S2_CONCAVE:
        center = half + 1
        k = np.arange(1, K + 1)
        means = _enforce_float_concavity(tau + delta * (3.0 - 2.0 * np.abs(k - center)))
    else:
        raise ValueError(f"make_setting does not build {setting!r} instances")
    problem = Problem(means, sigma, tau)
    if setting is Setting.S2_CONCAVE:
        # Construct-and-check: the tent must be concave with all gaps >= delta/2
        # and at least one arm above threshold.
        if not shape_check(problem, ShapeClass.CONCAVE):
            raise RuntimeError("emitted tent instance is not concave")
        if np.min(_threshold_gaps(means, tau)) < delta / 2 or not np.any(means > tau):
            raise RuntimeError("emitted tent instance violates its gap contract")
    return problem


def augment(problem: Problem, shape: ShapeClass) -> Problem:
    """Append deterministic sentinel arms for a tree search.

    Monotone augmentation brackets the threshold with ``-inf`` and ``+inf``
    sentinels; concave augmentation adds ``-inf`` on both ends.  The original
    arm ``j`` sits at augmented index ``j + 1`` (see ``Problem.to_original`` /
    ``Problem.to_augmented``).  Every call on one instance returns the same twin.
    """
    return problem.derived(_augmented, shape)


def _augmented(problem: Problem, shape: ShapeClass) -> Problem:
    if problem.sentinels is not None:
        raise ValueError("problem is already augmented")
    if shape is ShapeClass.MONOTONE:
        lo, hi = -math.inf, math.inf
    elif shape is ShapeClass.CONCAVE:
        lo, hi = -math.inf, -math.inf
    else:
        raise ValueError("augment supports Monotone and Concave only")
    means = np.concatenate(([lo], problem.means, [hi]))
    return Problem(means, problem.sigma, problem.tau, sentinels=(lo, hi))
