"""Timing wrappers installed from outside the program, and the per-layer metrics.

The wrappers replace the names callers look up (``harness.make_rng``,
``fc_algos.sample_n``, ``fb_algos.optimal_alpha``, ...) for the length of
one traced pass and restore them afterwards.  Calls into the experiment
runner, the CSV writer and the LIL walk are kept as individual spans with
their parent; everything below an experiment (per replication, per chunk,
per solver step) is folded into the enclosing kept span as count, total
time and self time, so self time stays computable without holding millions
of spans.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

from bestarm import complexity, fb_algos, fc_algos, harness, records_io

#: (module, attribute, span name, mode): "keep" records an individual span,
#: "fold" adds the call's count and times to the enclosing kept span, and
#: "count" only counts calls (for the solver's inner evaluations, where
#: timing every call would double the solve's cost).
_TARGETS = (
    (harness, "run_fc_experiment", "harness.experiment", "keep"),
    (harness, "run_fb_experiment", "harness.experiment", "keep"),
    (harness, "empirical_lil_crossing", "harness.lil", "keep"),
    (records_io, "write_records", "records_io.write_records", "keep"),
    (harness, "mix_seed", "rng.mix_seed", "fold"),
    (harness, "make_rng", "rng.make_rng", "fold"),
    (fc_algos, "run_elimination", "fc_algos.run", "fold"),
    (fc_algos, "run_alpha_elimination", "fc_algos.run", "fold"),
    (fc_algos, "run_sglrt", "fc_algos.run", "fold"),
    (fc_algos, "run_sprt_oracle", "fc_algos.run", "fold"),
    (fc_algos, "default_tau_max", "fc_algos.default_tau_max", "fold"),
    (fc_algos, "sample_n", "fc_algos.sample_n", "fold"),
    (fb_algos, "sample_n", "fb_algos.sample_n", "fold"),
    (fb_algos, "allocation_for", "fb_algos.allocation_for", "fold"),
    (fb_algos, "run_static", "fb_algos.run_static", "fold"),
    (fb_algos, "optimal_alpha", "complexity.optimal_alpha", "fold"),
    (complexity, "g_alpha", "complexity.g_alpha", "count"),
)

#: Every per-layer metric: (name, unit, better, what it should move).
PER_LAYER = (
    ("rng.generators", "count", "lower", "reps_per_s on mc-easy; no change on mc-hard"),
    ("rng.us_per_generator", "us", "lower", "reps_per_s on mc-easy; no change on mc-hard"),
    ("harness.replications", "count", "higher", "reps_per_s on mc-easy"),
    ("harness.cells", "count", "higher", "reps_per_s on mc-easy"),
    ("harness.self_us_per_rep", "us", "lower", "reps_per_s on mc-easy"),
    ("harness.lil_us_per_path", "us", "lower", "reps_per_s on mc-hard"),
    ("harness.pool_overhead_s", "s", "lower", "reps_per_s on mc-easy-w2 only"),
    ("dists.calls", "count", "lower", "draws_per_s on mc-hard"),
    ("dists.draws_sampled", "count", "lower", "draws_per_s on mc-hard"),
    ("dists.ns_per_draw.gaussian", "ns", "lower",
     "draws_per_s on mc-hard; reps_per_s on fb-optimal at large budgets only"),
    ("dists.ns_per_draw.bernoulli", "ns", "lower",
     "draws_per_s on mc-hard; reps_per_s on fb-optimal at large budgets only"),
    ("dists.ns_per_draw.exponential", "ns", "lower",
     "reps_per_s on fb-optimal at large budgets only"),
    ("dists.useful_draw_ratio", "ratio", "higher",
     "reps_per_s on mc-easy; draws_per_s on mc-hard"),
    ("fc_algos.runs", "count", "lower", "draws_per_s on mc-hard"),
    ("fc_algos.chunks_per_run", "count", "lower", "reps_per_s on mc-easy"),
    ("fc_algos.exhausted", "count", "lower", "draws_per_s on mc-hard"),
    ("fc_algos.self_ns_per_step", "ns", "lower", "draws_per_s on mc-hard"),
    ("fc_algos.setup_us_per_run", "us", "lower", "reps_per_s on mc-easy"),
    ("complexity.calls", "count", "lower", "reps_per_s on fb-optimal; no change on mc-hard"),
    ("complexity.us_per_call", "us", "lower", "reps_per_s on fb-optimal; no change on mc-hard"),
    ("complexity.g_alpha_evals_per_solve", "count", "lower",
     "reps_per_s on fb-optimal; no change on mc-hard"),
    ("fb_algos.allocations", "count", "lower", "reps_per_s on fb-optimal"),
    ("fb_algos.allocation_us", "us", "lower", "reps_per_s on fb-optimal"),
    ("fb_algos.run_us", "us", "lower", "reps_per_s on fb-optimal"),
    ("records_io.bytes", "bytes", "lower", "negligible everywhere"),
    ("records_io.write_ms", "ms", "lower", "negligible everywhere"),
    ("trace.overhead_frac", "ratio", "lower", "none: traced vs untraced time of one pass"),
)

FAMILIES = ("gaussian", "bernoulli", "exponential")


def _family(dist) -> str:
    return dist.family.split("(")[0]


class Bucket:
    """Span totals and counters of one traced pass."""

    def __init__(self):
        self.count = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = Counter()

    def exact(self) -> dict:
        """Everything recorded that must repeat exactly when the inputs do."""
        return {**self.count, **{k: v for k, v in self.counters.items()
                                 if not k.startswith("time_ns.")}}


class Tracer:
    def __init__(self):
        self.spans = []       # kept spans, as dicts
        self.buckets = []
        self._stack = []      # frames: [start, child seconds, kept span or None]
        self._installed = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Start a new bucket and wrap every target."""
        self.buckets.append(Bucket())
        for module, attr, name, mode in _TARGETS:
            orig = getattr(module, attr)
            wrapper = (self._counter(orig, name) if mode == "count"
                       else self._wrapper(orig, name, mode == "keep"))
            setattr(module, attr, wrapper)
            self._installed.append((module, attr, orig))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, orig = self._installed.pop()
            setattr(module, attr, orig)

    def call(self, name, fn, *args):
        """fn(*args) inside a kept span: the root span of one benchmark op."""
        return self._wrapper(fn, name, True)(*args)

    # -- recording ----------------------------------------------------------

    def _counter(self, orig, name):
        count = self.buckets[-1].count

        def wrapper(*args, **kwargs):
            count[name] += 1
            return orig(*args, **kwargs)

        wrapper.__wrapped__ = orig
        return wrapper

    def _wrapper(self, orig, name, keep):
        stack = self._stack

        def wrapper(*args, **kwargs):
            span = None
            if keep:
                parent = next((f[2]["id"] for f in reversed(stack) if f[2]), None)
                span = {"id": len(self.spans), "parent": parent, "name": name,
                        "folded": {}}
                self.spans.append(span)
            frame = [time.perf_counter(), 0.0, span]
            stack.append(frame)
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                self._record(name, frame[0], end, dur - frame[1], span)
            self._count(name, args, result, dur)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _record(self, name, start, end, self_s, span) -> None:
        bucket = self.buckets[-1]
        bucket.count[name] += 1
        bucket.total_s[name] += end - start
        bucket.self_s[name] += self_s
        if span is not None:
            span.update(start=start, end=end, self_s=self_s)
            return
        owner = next((f[2] for f in reversed(self._stack) if f[2]), None)
        if owner is not None:
            c, t, s = owner["folded"].get(name, (0, 0.0, 0.0))
            owner["folded"][name] = (c + 1, t + end - start, s + self_s)

    def _count(self, name, args, result, dur) -> None:
        counters = self.buckets[-1].counters
        if name.endswith(".sample_n"):
            fam = _family(args[0])
            counters[f"draws.{fam}"] += int(args[2])
            counters[f"time_ns.{fam}"] += dur * 1e9
        elif name == "fc_algos.run":
            counters["fc.tau"] += result.tau
            counters["fc.exhausted"] += int(result.exhausted)
        elif name == "fb_algos.run_static":
            counters["fb.tau"] += result.tau
        elif name == "records_io.write_records":
            counters["records_io.bytes"] += os.path.getsize(args[1])
        elif name == "harness.lil":
            counters["lil.paths"] += int(args[4])


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, cells: int, pool_overhead_s: float,
                  overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics: counts from the first traced pass, times over all of them.

    Every traced pass repeats the same inputs, so counts repeat exactly;
    timing ratios pool all passes.  A ratio whose layer did no work in the
    workload reads 0.
    """
    first = tracer.buckets[0]
    n = Counter()
    tot = defaultdict(float)
    slf = defaultdict(float)
    ctr = Counter()
    for b in tracer.buckets:
        n.update(b.count)
        ctr.update(b.counters)
        for k, v in b.total_s.items():
            tot[k] += v
        for k, v in b.self_s.items():
            slf[k] += v

    draws_first = sum(first.counters[f"draws.{f}"] for f in FAMILIES)
    useful_first = first.counters["fc.tau"] + first.counters["fb.tau"]
    reps = n["fc_algos.run"] + n["fb_algos.run_static"]
    return {
        "rng.generators": float(first.count["rng.make_rng"]),
        "rng.us_per_generator": _ratio(tot["rng.make_rng"] + tot["rng.mix_seed"],
                                       n["rng.make_rng"], 1e6),
        "harness.replications": float(first.count["fc_algos.run"]
                                      + first.count["fb_algos.run_static"]),
        "harness.cells": float(cells),
        "harness.self_us_per_rep": _ratio(slf["harness.experiment"], reps, 1e6),
        "harness.lil_us_per_path": _ratio(tot["harness.lil"], ctr["lil.paths"], 1e6),
        "harness.pool_overhead_s": pool_overhead_s,
        "dists.calls": float(first.count["fc_algos.sample_n"] + first.count["fb_algos.sample_n"]),
        "dists.draws_sampled": float(draws_first),
        **{f"dists.ns_per_draw.{fam}": _ratio(ctr[f"time_ns.{fam}"], ctr[f"draws.{fam}"])
           for fam in FAMILIES},
        "dists.useful_draw_ratio": _ratio(useful_first, draws_first),
        "fc_algos.runs": float(first.count["fc_algos.run"]),
        "fc_algos.chunks_per_run": _ratio(first.count["fc_algos.sample_n"],
                                          2 * first.count["fc_algos.run"]),
        "fc_algos.exhausted": float(first.counters["fc.exhausted"]),
        "fc_algos.self_ns_per_step": _ratio(slf["fc_algos.run"], ctr["fc.tau"], 1e9),
        "fc_algos.setup_us_per_run": _ratio(tot["fc_algos.default_tau_max"],
                                            n["fc_algos.run"], 1e6),
        "complexity.calls": float(first.count["complexity.optimal_alpha"]),
        "complexity.us_per_call": _ratio(tot["complexity.optimal_alpha"],
                                         n["complexity.optimal_alpha"], 1e6),
        "complexity.g_alpha_evals_per_solve": _ratio(first.count["complexity.g_alpha"],
                                                     first.count["complexity.optimal_alpha"]),
        "fb_algos.allocations": float(first.count["fb_algos.allocation_for"]),
        "fb_algos.allocation_us": _ratio(tot["fb_algos.allocation_for"],
                                         n["fb_algos.allocation_for"], 1e6),
        "fb_algos.run_us": _ratio(tot["fb_algos.run_static"], n["fb_algos.run_static"], 1e6),
        "records_io.bytes": float(first.counters["records_io.bytes"]),
        "records_io.write_ms": _ratio(tot["records_io.write_records"],
                                      n["records_io.write_records"], 1e3),
        "trace.overhead_frac": overhead_frac,
    }
