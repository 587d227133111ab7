"""In-process tracing of tbp's public functions, installed from outside the package.

Calls into ``cli``, ``harness`` and ``algos`` become spans (name, start,
duration, self time, parent span).  The far more frequent ``env`` and ``tree``
calls are only counted, with their self time, under the span that made them,
so memory stays bounded.  A function is wrapped wherever callers look it up:
every ``tbp`` module attribute bound to it is replaced.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

SPANS = {
    "cli": ("dispatch",),
    "harness": ("run_experiment", "render_csv"),
    "algos": ("explore", "dexplore", "gradexplore", "ctb", "naive", "uniform",
              "distance_series", "favorable_series"),
}
COUNTED = {"env": ("make_setting", "sample_mean"), "tree": ("children", "parent")}
WALKS = ("explore", "dexplore", "gradexplore", "ctb", "naive", "uniform")


class Tracer:
    def __init__(self) -> None:
        self.t0 = perf_counter()
        self.spans = []                         # (id, parent id, name, start, duration, self)
        self.counts = defaultdict(lambda: [0, 0.0])   # (enclosing span name, name) -> [calls, self]
        # A frame is [span id, span name, time spent in traced children].
        self._stack = [[0, None, 0.0]]
        self._next_id = 0

    def span(self, name, fn):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            self._next_id += 1
            frame = [self._next_id, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                parent[2] += dur
                spans.append((frame[0], parent[0], name, start - self.t0, dur, dur - frame[2]))
        return traced

    def counted(self, name, fn):
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0], parent[1], 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                parent[2] += dur
                acc = counts[(parent[1], name)]
                acc[0] += 1
                acc[1] += dur - frame[2]
        return traced

    def install(self) -> None:
        """Wrap the traced functions in every loaded ``tbp`` module namespace."""
        import tbp.cli  # noqa: F401  (loads every tbp module)
        from tbp.env import RngStream

        mods = [m for n, m in list(sys.modules.items()) if n == "tbp" or n.startswith("tbp.")]
        for kind, table in ((self.span, SPANS), (self.counted, COUNTED)):
            for modname, names in table.items():
                module = sys.modules[f"tbp.{modname}"]
                for fname in names:
                    orig = getattr(module, fname)
                    wrapped = kind(f"{modname}.{fname}", orig)
                    for mod in mods:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, attr, wrapped)
        # RngStream builds its generator lazily on first use; time that build
        # as part of the stream instead of inside the first sample_mean.
        RngStream.__init__ = self.counted("env.rng_stream.init", RngStream.__init__)
        build = self.counted("env.rng_stream.generator", RngStream.generator.fget)

        def generator(stream):
            return build(stream) if stream._generator is None else stream._generator
        RngStream.generator = property(generator)

    def metrics(self) -> dict:
        """Per-layer figures: counts, self times, and per-call means in microseconds."""
        by_id = {s[0]: s[2] for s in self.spans}
        per_name = defaultdict(lambda: [0, 0.0, 0.0])    # name -> [calls, duration, self]
        trials_run = 0
        for _, parent, name, _, dur, own in self.spans:
            acc = per_name[name]
            acc[0] += 1
            acc[1] += dur
            acc[2] += own
            if name.startswith("algos.") and by_id.get(parent) == "harness.run_experiment":
                trials_run += 1
        counted = defaultdict(lambda: [0, 0.0])
        for (_, name), (calls, own) in self.counts.items():
            counted[name][0] += calls
            counted[name][1] += own

        def us(calls, seconds):
            return seconds / calls * 1e6 if calls else 0.0

        streams = counted["env.rng_stream.init"][0]
        out = {
            "cli.self_s": per_name["cli.dispatch"][2],
            "harness.self_s": per_name["harness.run_experiment"][2],
            "harness.render_csv_ms": per_name["harness.render_csv"][1] * 1e3,
            "harness.trials_run": trials_run,
            "harness.instance_builds": self.counts[("harness.run_experiment", "env.make_setting")][0],
            "algos.walk_self_s": sum(per_name[f"algos.{n}"][2] for n in WALKS),
            "env.rng_streams": streams,
            "env.rng_stream_us": us(streams, counted["env.rng_stream.init"][1]
                                    + counted["env.rng_stream.generator"][1]),
        }
        for n in WALKS:
            calls, _, own = per_name[f"algos.{n}"]
            out[f"algos.{n}.calls"] = calls
            out[f"algos.{n}.self_us"] = us(calls, own)
        for n in ("distance_series", "favorable_series"):
            out[f"algos.{n}_us"] = us(per_name[f"algos.{n}"][0], per_name[f"algos.{n}"][2])
        for name in ("env.sample_mean", "tree.children", "tree.parent"):
            out[f"{name}_calls"] = counted[name][0]
            out[f"{name}_us"] = us(*counted[name])
        out["env.make_setting_us"] = us(*counted["env.make_setting"])
        return out
