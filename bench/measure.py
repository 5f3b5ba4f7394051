"""Measurement: timed and traced passes, set-up probes, and the correctness tally."""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import speed
import workloads
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9


class Tally:
    """Operations attempted and failed, with the first few failure texts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, notes=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.notes.extend(list(notes)[: max(0, 20 - len(self.notes))])


def check_pass(results, tally: Tally) -> None:
    """Parse every output and run the per-cell oracles on it."""
    for res in results:
        op = res.op
        if op.kind == "lil":
            why = [res.error] if res.error else oracles.check_lil(res.lil_frequency, op)
            tally.add(1, int(bool(why)), [f"lil seed {res.seed}: {w}" for w in why])
            continue
        configs = workloads.expected_configs(op, res.seed)
        if res.error:
            cells = sum(len(cfg.grid) for cfg in configs)
            tally.add(cells, cells, [f"{op.label} seed {res.seed}: {res.error}"])
            continue
        workloads.load_output(res)
        attempted, failures = oracles.check_records(res.records, configs)
        tally.add(attempted, len(failures), [f"{op.label} seed {res.seed}: {f}" for f in failures])


def self_test(results, tally: Tally) -> None:
    """Each deliberately corrupted copy of clean records must fail a check."""
    for res in results:
        if res.records is None:
            continue
        configs = workloads.expected_configs(res.op, res.seed)
        for name, bad in oracles.corruptions(res.records, configs):
            _, failures = oracles.check_records(bad, configs)
            tally.add(1, int(not failures),
                      [] if failures else [f"self-test: {name} in {res.op.label} not caught"])


def compare_bytes(reference, results, what: str, tally: Tally) -> None:
    """Each op's output must equal the reference run of the same seed, byte for byte."""
    for a, b in zip(reference, results):
        same = a.payload == b.payload and not a.error and not b.error
        tally.add(1, int(not same),
                  [] if same else [f"{a.op.label} seed {a.seed}: output differs ({what})"])


def timed_pass(workload, seed: int, workers: int, scratch: str, tracer=None):
    t0 = time.perf_counter()
    results = workloads.run_pass(workload, seed, workers, scratch, tracer)
    return time.perf_counter() - t0, results


def probed_pass(workload, seed: int, scratch: str):
    """(wall seconds, reference seconds, results) of one pass, probing host speed per op."""
    wall = ref = 0.0
    results = []
    before = speed.slowdown(workload.probe)
    for op in workload.ops:
        t0 = time.perf_counter()
        results.append(workloads.run_guarded(op, seed, workload.workers, scratch))
        dt = time.perf_counter() - t0
        after = speed.slowdown(workload.probe)
        wall += dt
        ref += speed.reference_seconds(dt, before, after)
        before = after
    return wall, ref, results


def spawn(args) -> tuple[float, str, int]:
    """Seconds until a child interpreter's first output line, that line, and its exit code."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    return elapsed, line.strip(), proc.returncode


def measure_setup(workload, seed: int, tally: Tally) -> list[float]:
    """Reference seconds from spawning an interpreter to its workload being built and validated.

    Each sample is scaled by the yardstick spawns just before and after it.
    """
    yardstick = [spawn(speed.SPAWN_CHILD)[0]]
    samples = []
    for _ in range(SETUP_PROBES):
        elapsed, line, code = spawn([str(HERE / "setup_probe.py"), workload.name, str(seed)])
        ok = line == "ready" and code == 0
        tally.add(1, int(not ok), [] if ok else [f"set-up probe exited {code}"])
        yardstick.append(spawn(speed.SPAWN_CHILD)[0])
        samples.append(speed.reference_seconds(elapsed, yardstick[-2] / speed.SPAWN_REF_S,
                                               yardstick[-1] / speed.SPAWN_REF_S))
    return samples


def run_untraced(workload, seed: int, seconds: float, scratch: str, tally: Tally):
    """End-to-end metrics: set-up probes, a warm-up pass, then probed passes until the deadline."""
    setup = measure_setup(workload, seed, tally)
    speed.slowdown(workload.probe)  # the kernels' first call pays one-off costs
    _, first = timed_pass(workload, workloads.pass_seed(seed, 0), workload.workers, scratch)
    check_pass(first, tally)
    self_test(first, tally)
    reps_rates, draw_rates, wall_rates = [], [], []
    deadline = time.perf_counter() + seconds
    k = 1
    while k == 1 or time.perf_counter() < deadline:
        wall, ref, results = probed_pass(workload, workloads.pass_seed(seed, k), scratch)
        check_pass(results, tally)
        reps = sum(r.reps for r in results)
        reps_rates.append(reps / ref)
        draw_rates.append(sum(r.draws for r in results) / ref)
        wall_rates.append(reps / wall)
        k += 1
    _, again = timed_pass(workload, workloads.pass_seed(seed, 0), 1, scratch)
    compare_bytes(first, again, f"workers={workload.workers} vs a repeat at workers=1", tally)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "reps_per_s": statistics.median(reps_rates),
        "draws_per_s": statistics.median(draw_rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "ops_ok_frac": 1.0 - tally.failed / max(tally.attempted, 1),
    }
    detail = {"timed_passes": len(reps_rates), "reps_per_s_quartiles": _quartiles(reps_rates),
              "draws_per_s_quartiles": _quartiles(draw_rates),
              "wall_reps_per_s_quartiles": _quartiles(wall_rates), "setup_s_samples": setup}
    return metrics, first, detail


def run_traced(workload, seed: int, seconds: float, scratch: str, tally: Tally):
    """Per-layer metrics from traced repeats of pass 0, each next to an untraced repeat."""
    s0 = workloads.pass_seed(seed, 0)
    _, reference = timed_pass(workload, s0, workload.workers, scratch)
    check_pass(reference, tally)
    tracer = Tracer()
    untraced, traced, pooled = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        dt, results = timed_pass(workload, s0, 1, scratch)
        untraced.append(dt)
        check_pass(results, tally)
        compare_bytes(reference, results, "untraced repeat", tally)
        tracer.install()
        try:
            dt, results = timed_pass(workload, s0, 1, scratch, tracer)
        finally:
            tracer.uninstall()
        traced.append(dt)
        check_pass(results, tally)
        compare_bytes(reference, results, "traced repeat", tally)
        cells = sum(len(r.records or ()) for r in results)
        if workload.workers > 1:
            dt, results = timed_pass(workload, s0, workload.workers, scratch)
            pooled.append(dt)
            compare_bytes(reference, results, f"workers={workload.workers} repeat", tally)
    first = tracer.buckets[0]
    same = all(b.exact() == first.exact() for b in tracer.buckets[1:])
    tally.add(1, int(not same), [] if same else ["traced call counts differ between repeats"])
    pool_overhead = (statistics.median(p - u / workload.workers for p, u in zip(pooled, untraced))
                     if pooled else 0.0)
    overhead = statistics.median(t / u - 1.0 for t, u in zip(traced, untraced))
    metrics = layer_metrics(tracer, cells, pool_overhead, overhead)
    detail = {"traced_passes": len(traced), "untraced_s": untraced, "traced_s": traced,
              "pooled_s": pooled}
    return metrics, reference, detail, tracer


def _quartiles(values):
    if len(values) < 2:
        return values
    return statistics.quantiles(values, n=4)
