#!/usr/bin/env python3
"""Print a sha256 of every record file a fixed set of runs writes.

A loop over ``bestarm`` commands: each figure preset at seeds 0 and
1000003 and at 1 and 2 workers, then ``simulate-fb --alloc optimal`` on a
Bernoulli and an exponential instance, then alpha-elimination (which no
preset runs) on a Gaussian instance of unequal variances at the same seeds
and worker counts, then the easy figures again past one 128-row block
and at 3 workers (an uneven split of 67 replications).  Each run prints
one line,
``label seed workers sha256``.  Records are a pure function of the config,
so two checkouts that should draw the same numbers print the same lines;
diff the output of one against the other.  The bytes depend on the numpy
build, so compare runs made with the same one.

    python scripts/record_digests.py > digests.txt
"""

import contextlib
import hashlib
import io
import pathlib
import tempfile

from bestarm import cli

#: Replications per cell of each preset: the easy figures run past one
#: 64-row block (the engine's block before it took 128 rows), the hard ones
#: run long rows.
FIGURE_REPS = {"fig3-easy": 67, "fig4-left": 67, "fig3-hard": 3, "fig4-right": 3}
SEEDS = (0, 1000003)
WORKERS = (1, 2)
#: (label, family, means) of each fixed-budget run.
FIXED_BUDGET = (("fb-bernoulli", "bernoulli", "0.2,0.1"),
                ("fb-exponential", "exponential", "1.0,0.5"))
#: Replications per cell of the easy figures' runs past one 128-row block.
LONG_REPS = 131
ALPHA_ELIMINATION = ["simulate-fc", "--family", "gaussian", "--means", "0.5,0",
                     "--variances", "1,0.25", "--algo", "alpha-elimination",
                     "--rate", "alpha-elim", "--deltas", "0.1,0.01", "--reps", "67"]


def runs():
    """(label, seed, workers, argv without --out) of every run, in print order."""
    for name, reps in FIGURE_REPS.items():
        for seed in SEEDS:
            for workers in WORKERS:
                yield name, seed, workers, ["reproduce-figure", name, "--reps", str(reps),
                                            "--seed", str(seed), "--workers", str(workers)]
    for label, family, means in FIXED_BUDGET:
        yield label, 0, 1, ["simulate-fb", "--family", family, "--means", means,
                            "--alloc", "optimal", "--budgets", "20:200:20", "--reps", "25",
                            "--seed", "0", "--workers", "1"]
    for seed in SEEDS:
        for workers in WORKERS:
            yield "fc-alpha-elimination", seed, workers, [
                *ALPHA_ELIMINATION, "--seed", str(seed), "--workers", str(workers)]
    for name in ("fig3-easy", "fig4-left"):
        for reps, worker_counts in ((LONG_REPS, WORKERS), (FIGURE_REPS[name], (3,))):
            for seed in SEEDS:
                for workers in worker_counts:
                    yield f"{name}-{reps}", seed, workers, [
                        "reproduce-figure", name, "--reps", str(reps), "--seed", str(seed),
                        "--workers", str(workers)]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "records.csv"
        for label, seed, workers, argv in runs():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--out", str(out)])
            if code:
                return code
            print(label, seed, workers, hashlib.sha256(out.read_bytes()).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
