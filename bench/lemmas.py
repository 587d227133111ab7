"""The trajectory-lemma workload: acceptance check c03's loop, counted per walk.

Each explore walk on S1 and each gradexplore walk on the augmented concave
tent is checked against the drift, favorable-step and terminal lemmas with
zero tolerance.  A walk that breaks any of them counts as one failure.  The
digest covers every walk's recorded outputs, so reruns can be compared byte
for byte.
"""
from __future__ import annotations

import hashlib

import numpy as np

import tbp


def _explore_ok(problem, seed: int, rep: int, T: int, h) -> bool:
    res = tbp.explore(problem, T, tbp.RngStream(seed, rep))
    D = tbp.distance_series(res.trajectory, res.problem, tbp.ShapeClass.MONOTONE)
    xi = tbp.favorable_series(res.trajectory, res.problem)
    h.update(np.int64(res.k_hat).tobytes() + D.astype("<i8").tobytes() + xi.tobytes())
    steps = np.diff(D)
    n_bar = int((~xi).sum())
    return bool(np.all(steps <= 1) and np.all(steps[xi] <= -1)
                and D[-1] <= 2 * n_bar - 0.75 * res.trajectory.t1)


def _gradexplore_ok(problem, seed: int, rep: int, T: int, h) -> bool:
    _, traj, _ = tbp.gradexplore(problem, T, tbp.RngStream(seed, rep))
    D = tbp.distance_series(traj, problem, tbp.ShapeClass.CONCAVE)
    xi = tbp.favorable_series(traj, problem)
    appended = [rec.appended_arm for rec in traj.steps]
    h.update(D.astype("<i8").tobytes() + xi.tobytes() + repr(appended).encode())
    if not np.all(np.diff(D) <= 1):
        return False
    sizes = np.cumsum([a is not None for a in appended])
    if not np.all(np.diff(np.concatenate(([0], sizes))) <= 1):
        return False
    for t in np.flatnonzero(xi):
        if D[t + 1] > max(D[t] - 1, 0):
            return False
        if D[t] == 0 and not (appended[t] is not None and problem.mean(appended[t]) > problem.tau):
            return False
    return True


def run(walks: int, seeds, K: int, T: int, delta: float) -> dict:
    """``walks`` explore walks, then as many gradexplore walks."""
    s1 = tbp.make_setting(tbp.Setting.S1, K, delta, 0.0, 1.0)
    tent = tbp.augment(tbp.make_setting(tbp.Setting.S2_CONCAVE, K, delta, 0.0, 1.0),
                       tbp.ShapeClass.CONCAVE)
    h = hashlib.sha256()
    failed = sum(not _explore_ok(s1, seeds[0], rep, T, h) for rep in range(walks))
    failed += sum(not _gradexplore_ok(tent, seeds[1], rep, T, h) for rep in range(walks))
    return {"walks": 2 * walks, "failed": failed, "digest": h.hexdigest()}
