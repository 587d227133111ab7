"""The benchmark's workloads: how a seed becomes the program's inputs.

Each workload turns a benchmark seed into the exact argv (sweeps) or loop
parameters (lemmas) the program receives.  The seed only moves the RNG seed
and small offsets of the grid, never its size, so every seed costs the same
work and run-to-run spread measures the machine, not the inputs.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import List, Tuple

#: Seed of the inputs whose output digests are recorded in ``golden.json``.
#: Every measured run executes these inputs once, so each run checks them.
DEFAULT_SEED = 0


def workers() -> int:
    """Worker processes of a measured sweep: 2, keeping one usable core free.

    On a 2-vCPU virtual machine, concave-ksweep runs at 2 workers took 4.4 to
    6.9 s, losing up to 3 s to hypervisor steal time; interleaved runs at 1
    worker took 4.1 to 4.7 s.
    """
    return max(1, min(2, len(os.sched_getaffinity(0)) - 1))


def parallel_workers() -> int:
    """Worker count of the traced run's parallel speed-up: 2, capped at the usable cores."""
    return min(2, len(os.sched_getaffinity(0)))


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


@dataclass(frozen=True)
class Sweep:
    """One ``tbp sweep`` invocation shape; the seed picks its grid and RNG seed."""

    name: str
    setting: str          # CLI spelling: "1" or "2c"
    algos: Tuple[str, ...]
    T: int
    sweep: str            # "delta" or "K"
    reps: int
    K: int = 0            # fixed K of a delta sweep
    delta: float = 0.0    # fixed delta of a K sweep
    points: int = 10

    def grid(self, seed: int) -> List[float]:
        rng = _rng(self.name, seed)
        if self.sweep == "delta":
            # Strictly increasing deltas in (0.01, 1.0], one per tenth.
            return [round(0.1 * i - 0.09 * rng.random(), 3) for i in range(1, self.points + 1)]
        start = 3 + rng.randrange(5)
        return [start + 5 * i for i in range(self.points)]

    def tbp_seed(self, seed: int) -> int:
        return _rng(self.name, seed).randrange(2**31) if seed != DEFAULT_SEED else 0

    def cells(self, seed: int) -> List[Tuple[int, float, str]]:
        """``(K, delta, algo)`` per CSV row, grid-major and algorithm-minor."""
        points = [(self.K, float(v)) if self.sweep == "delta" else (int(v), self.delta)
                  for v in self.grid(seed)]
        return [(K, delta, algo) for K, delta in points for algo in self.algos]

    def argv(self, seed: int, threads: int) -> List[str]:
        fixed = ["--K", str(self.K)] if self.sweep == "delta" else ["--delta", str(self.delta)]
        grid = ",".join(str(v) for v in self.grid(seed))
        return ["sweep", "--setting", self.setting, "--algo", ",".join(self.algos),
                "--T", str(self.T), *fixed, "--sweep", self.sweep, "--grid", grid,
                "--reps", str(self.reps), "--seed", str(self.tbp_seed(seed)),
                "--threads", str(threads)]


@dataclass(frozen=True)
class Lemmas:
    """c03's trajectory-lemma loop through the public API, ``walks`` of each walk per sample."""

    name: str
    walks: int            # explore walks, and as many gradexplore walks
    K: int = 100
    T: int = 1000
    delta: float = 0.2

    def stream_seeds(self, seed: int) -> Tuple[int, int]:
        if seed == DEFAULT_SEED:
            return 303, 304   # the seeds of acceptance check c03
        rng = _rng(self.name, seed)
        return rng.randrange(2**31), rng.randrange(2**31)


WORKLOADS = {
    w.name: w
    for w in (
        Sweep("monotone-sweep", "1", ("explore", "naive", "uniform"), T=1000,
              sweep="delta", reps=500, K=100),
        Sweep("concave-ksweep", "2c", ("ctb", "uniform"), T=6000,
              sweep="K", reps=5, delta=0.3, points=200),
        Lemmas("trajectory-lemmas", walks=1500),
    )
}


def expected_skip(setting: str, algo: str, K: int, T: int) -> bool:
    """Whether the harness must emit a cell as skipped (its budget rule fails).

    Tree searches run on the instance augmented with two sentinel arms.
    """
    Ka = K + 2
    if algo == "uniform":
        return T < K
    if algo == "naive":
        return T // Ka.bit_length() < 1
    t1 = math.ceil(6.0 * math.log(Ka))
    if algo == "explore":
        return T // (3 * t1) < 1
    if algo == "ctb":
        return (T // 3) // t1 < 12
    raise ValueError(f"no budget rule for {algo!r}")


def true_means(setting: str, K: int, delta: float, tau: float = 0.0) -> List[float]:
    """Arm means of the named instance families, written out from their definitions."""
    half = K // 2
    if setting == "1":
        return [tau - 100.0] * half + [tau + delta] + [tau + 100.0] * (K - half - 1)
    if setting == "2c":
        return [tau + delta * (3.0 - 2.0 * abs(k - (half + 1))) for k in range(1, K + 1)]
    raise ValueError(f"no means for setting {setting!r}")
