"""The bestarm benchmark: one command for every end-to-end and per-layer metric.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs installing).  Workloads are defined in
``workloads.py`` and listed, with the reason each exists, in
``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics: set-up time is the median of
several fresh interpreters that import the package and build and validate
the workload's configs; then an untimed warm-up pass; then timed passes,
each on its own pass seed, until ``--seconds`` have gone by; rates are
medians over the timed passes.  ``--trace 1`` gives the per-layer metrics
instead: it repeats the pass-0 inputs, alternating an untraced and a
traced pass at one worker (plus, on a multi-worker workload, an untraced
pass at its worker count), and writes the kept spans to
``.bench_out/trace-<workload>-seed<seed>.json``.

Times are in reference seconds (see ``speed.py``).  Every record of every
pass goes through the oracles of ``oracles.py``; every repeat of a pass
seed must reproduce the CSV bytes.  ``tracer.PER_LAYER`` names the
end-to-end metric and workload each per-layer metric should move.  The
last line of standard output is the result object; the line before it is
a report with the environment stamp, the CSV digests and the first
failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("reps_per_s", "1/s", "higher"),
    ("draws_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ops_ok_frac", "ratio", "higher"),
)


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def env_stamp() -> dict:
    import numpy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(index / "size")
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True)
        if head.returncode == 0:
            sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    digest = hashlib.sha256()
    for path in sorted((SRC / "bestarm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": model,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": digest.hexdigest(),
        "note": (f"{nproc} usable cores: worker scaling stops there, so mc-easy-w2 "
                 "probes process-pool overhead rather than drawing a scaling curve"),
    }


def _check_spec(per_layer) -> str:
    """Why BENCHMARK.json disagrees with the metrics this file emits, or ''."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return f"cannot read BENCHMARK.json: {exc}"
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec.get("end_to_end", ())]
    layer = [(m["name"], m["unit"], m["better"]) for m in spec.get("per_layer", ())]
    if e2e != list(END_TO_END):
        return "BENCHMARK.json end_to_end does not match run.py"
    if layer != [row[:3] for row in per_layer]:
        return "BENCHMARK.json per_layer does not match tracer.PER_LAYER"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bestarm" / "__init__.py").is_file():
        return fail(f"no bestarm sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import bestarm

    if Path(bestarm.__file__).resolve().parent != SRC / "bestarm":
        return fail(f"imported bestarm from {bestarm.__file__}, not from {SRC}")
    import measure
    import tracer
    import workloads

    why = _check_spec(tracer.PER_LAYER)
    if why:
        return fail(why)
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    OUT_DIR.mkdir(exist_ok=True)
    tally = measure.Tally()
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env_stamp()}
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="scratch-") as scratch:
        if args.trace:
            metrics, first, detail, trace = measure.run_traced(
                workload, args.seed, args.seconds, scratch, tally)
            units = {name: unit for name, unit, _, _ in tracer.PER_LAYER}
        else:
            metrics, first, detail = measure.run_untraced(
                workload, args.seed, args.seconds, scratch, tally)
            units = {name: unit for name, unit, _ in END_TO_END}
    report["detail"] = detail
    report["csv_sha256"] = {r.op.label: hashlib.sha256(r.payload).hexdigest() for r in first}
    report["failures"] = tally.notes
    if args.trace:
        path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        path.write_text(json.dumps({**report, "metrics": metrics, "spans": trace.spans,
                                    "moves": {n: m for n, _, _, m in tracer.PER_LAYER}},
                                   indent=1) + "\n")
        report["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
