#!/usr/bin/env python3
"""Check that two source trees draw records of the same law, cell by cell.

    python scripts/layout_check.py PARENT_SRC CHANGE_SRC [--presets NAME ...]
        [--reps N] [--seeds PARENT CHANGE]

A change of draw layout (which variates a replication reads, or in what
order) moves record bytes but must not move the law of any cell.  This
script runs ``reproduce-figure`` for each preset under each ``src/`` in a
subprocess (``PYTHONPATH``), the parent tree at one master seed and the
changed tree at another, so the two runs are independent samples, and
reads only the CSVs: it shares no code with the engine it checks.

Per cell (algorithm, instance, parameter, grid value) it compares the
error counts with a two-sided two-proportion z-test (pooled) and mean tau
with Welch's two-sided t-test from ``mean_tau`` and ``std_tau`` (the
population deviation the records carry).  Holm's step-down method (Holm
1979, Scand. J. Statist. 6) controls the family-wise level over every cell
of every preset and both statistics, at ``LEVEL``, fixed before any run.
It prints one line per preset and the worst cell, and exits 1 when Holm
rejects any hypothesis: the trees' laws differ somewhere.

Cells of one run at several deltas are coupled (they read one stream per
replication); Holm's method holds under any dependence between tests.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import scipy.stats

PRESETS = ("fig3-easy", "fig4-left", "fig3-hard", "fig4-right")
#: Replications per cell of each preset: the easy figures' cells take
#: microseconds per replication, the hard ones milliseconds.
REPS = {"fig3-easy": 10_000, "fig4-left": 10_000, "fig3-hard": 1000, "fig4-right": 1000}
SEEDS = (1, 2)
#: The family-wise level, fixed before the first run.
LEVEL = 1e-3


def run_preset(src: str, preset: str, reps: int, seed: int, out: pathlib.Path):
    """The subprocess that writes ``preset``'s records under ``src`` to ``out``."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(src).resolve())}
    argv = [sys.executable, "-m", "bestarm", "reproduce-figure", preset, "--reps", str(reps),
            "--seed", str(seed), "--out", str(out)]
    return subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)


def read_cells(path: pathlib.Path) -> dict:
    """Cell key -> (replications, errors, mean tau, std tau) of a records CSV."""
    cells = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            n = int(row["replications"])
            key = (row["algorithm"], row["instance"], row["param"], row["metric_grid_value"])
            cells[key] = (n, round(float(row["error_rate"]) * n), float(row["mean_tau"]),
                          float(row["std_tau"]))
    return cells


def proportion_p(n1: int, k1: int, n2: int, k2: int) -> float:
    """Two-sided p-value of the pooled two-proportion z-test of k1/n1 against k2/n2."""
    pooled = (k1 + k2) / (n1 + n2)
    var = pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)
    if var == 0.0:  # no error in either run, or every replication erred in both
        return 1.0
    return 2.0 * scipy.stats.norm.sf(abs(k1 / n1 - k2 / n2) / math.sqrt(var))


def welch_p(n1: int, m1: float, s1: float, n2: int, m2: float, s2: float) -> float:
    """Two-sided p-value of Welch's t-test; ``s1``, ``s2`` are population deviations."""
    if s1 == 0.0 and s2 == 0.0:  # both constant: a static cell's budget, a cap every row reaches
        return 1.0 if m1 == m2 else 0.0
    sample1, sample2 = s1 * math.sqrt(n1 / max(n1 - 1, 1)), s2 * math.sqrt(n2 / max(n2 - 1, 1))
    return scipy.stats.ttest_ind_from_stats(m1, sample1, n1, m2, sample2, n2,
                                            equal_var=False).pvalue


def holm(pvalues: list[float], level: float) -> list[bool]:
    """Holm's step-down rejections of each hypothesis at family-wise level ``level``."""
    order = sorted(range(len(pvalues)), key=pvalues.__getitem__)
    rejected = [False] * len(pvalues)
    for rank, i in enumerate(order):
        if pvalues[i] > level / (len(pvalues) - rank):
            break
        rejected[i] = True
    return rejected


def compare(parent: dict, change: dict) -> list[tuple]:
    """(cell, statistic, p-value, parent value, change value) of every test of two runs."""
    if parent.keys() != change.keys():
        raise SystemExit(f"the runs hold different cells: {sorted(parent.keys() ^ change.keys())}")
    tests = []
    for key, (n1, k1, m1, s1) in parent.items():
        n2, k2, m2, s2 = change[key]
        tests.append((key, "error rate", proportion_p(n1, k1, n2, k2), k1 / n1, k2 / n2))
        tests.append((key, "mean tau", welch_p(n1, m1, s1, n2, m2, s2), m1, m2))
    return tests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--presets", nargs="+", choices=PRESETS, default=list(PRESETS))
    parser.add_argument("--reps", type=int, default=None,
                        help="replications per cell of every preset (default: per preset)")
    parser.add_argument("--seeds", type=int, nargs=2, default=SEEDS,
                        metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    tests, per_preset = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for preset in args.presets:
            reps = args.reps or REPS[preset]
            outs = [pathlib.Path(tmp) / f"{side}-{preset}.csv" for side in ("parent", "change")]
            procs = [run_preset(src, preset, reps, seed, out) for src, seed, out
                     in zip((args.parent_src, args.change_src), args.seeds, outs)]
            for proc, src in zip(procs, (args.parent_src, args.change_src)):
                _, err = proc.communicate()
                if proc.returncode:
                    print(f"error: {preset} under {src} exited {proc.returncode}: {err.strip()}",
                          file=sys.stderr)
                    return 2
            found = compare(*(read_cells(out) for out in outs))
            per_preset.append((preset, reps, len(found)))
            tests += found
    rejected = holm([p for _, _, p, _, _ in tests], LEVEL)
    for preset, reps, count in per_preset:
        print(f"{preset}: {count // 2} cells at {reps} reps, seeds {args.seeds[0]} and "
              f"{args.seeds[1]}")
    worst = min(range(len(tests)), key=lambda i: tests[i][2])
    (algorithm, instance, param, grid), statistic, p, before, after = tests[worst]
    verdict = "FAIL" if any(rejected) else "pass"
    print(f"{verdict}: {sum(rejected)} of {len(tests)} tests rejected by Holm at level "
          f"{LEVEL:g}; worst cell {algorithm} {instance} {param} {grid}: {statistic} "
          f"{before:.6g} -> {after:.6g}, p = {p:.3g} (Bonferroni bound "
          f"{LEVEL / len(tests):.3g})")
    return 1 if any(rejected) else 0


if __name__ == "__main__":
    raise SystemExit(main())
