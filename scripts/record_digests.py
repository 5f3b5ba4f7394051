#!/usr/bin/env python3
"""Print a sha256 of every record file a fixed set of runs writes.

The first line is ``numpy <version>``, the build the bytes depend on.  Then
comes a loop over ``bestarm`` commands: each figure preset at seeds 0 and
1000003 and at 1 and 2 workers, then ``simulate-fb --alloc optimal`` on a
Bernoulli and an exponential instance, then alpha-elimination (which no
preset runs) on a Gaussian instance of unequal variances at the same seeds
and worker counts, then the easy figures again past one 128-row block
and at 3 workers (an uneven split of 67 replications), then the known-gap
SPRT with the paper's statistic on fig3-easy's instance and with a cap at
which most rows exhaust, so that the lead at the cap is hashed, at the same
seeds and worker counts, then elimination with a sigma proxy on an
exponential instance (a running difference of draws that are not
integers) at two rates, and, at caps where most rows exhaust, the SGLRT
and elimination on fig4-right's instance, alpha-elimination on its
instance and sigma-elimination on the exponential one, so that the lead
at the cap is hashed on every sequential draw layout, and the SGLRT and
elimination on fig4-right's instance again at a cap in the middle of a
window of a chunk that the engine's box test cuts, at the same seeds and
worker counts.  Each run prints one line,
``label seed workers sha256``.  Records are a pure function of the config,
so two checkouts that should draw the same numbers print the same lines;
diff the output of one against the other.  The bytes depend on the numpy
build, so compare runs made with the same one.

Then come the solvers' bits, one line ``label seed pairs sha256`` per
quantity and family over seeded random two-armed instances: ``alpha-*``
hashes ``float.hex`` of (alpha*, g(alpha*)) from ``optimal_alpha``, which
sets the optimal static allocations, for Bernoulli and exponential arms
(Gaussian arms allocate by their standard deviations, not alpha*) and for
Bernoulli arms whose means lie in a tail, within 1e-2 of 0 or of 1, and
``rates-*`` every ``complexity_report`` field, for Bernoulli, exponential
and Gaussian arms of unequal variances.

``record_digests.txt`` beside this script holds the lines of the current
code, and ``tests/test_record_digests.py`` reruns the script and compares.
A change that moves a line regenerates the file in the same commit:

    PYTHONPATH=src python scripts/record_digests.py > scripts/record_digests.txt
"""

import contextlib
import hashlib
import io
import pathlib
import tempfile

import numpy as np

from bestarm import cli
from bestarm.complexity import _expfam_params, complexity_report, optimal_alpha

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
ALPHA_ELIMINATION = ["--family", "gaussian", "--means", "0.5,0", "--variances", "1,0.25",
                     "--algo", "alpha-elimination", "--rate", "alpha-elim"]
#: (label, extra flags) of each SPRT run, on a common-variance Gaussian instance.
SPRT = (("sprt-paper", ["--means", "0.5,0", "--variances", "0.25,0.25",
                        "--sprt-paper-statistic"]),
        ("sprt-capped", ["--means", "0.5,0", "--variances", "4,4", "--tau-max", "41"]))
#: (label, simulate-fc flags) of the runs after the SPRT's: sigma-elimination on
#: exponential arms at two rates, then at caps most rows reach: fig4-right's instance,
#: alpha-elimination's and sigma-elimination's on exponential arms, and fig4-right's
#: instance again at a cap inside a chunk cut into windows.
EXPONENTIAL_SIGMA = ["--family", "exponential", "--means", "1.0,0.5", "--algo", "elimination",
                     "--sigma", "1"]
FIG4_RIGHT_CAPPED = ["--family", "bernoulli", "--means", "0.51,0.5", "--tau-max", "3001"]
#: fig4-right's instance at 5,532 paired steps, mid-window 1,500 steps into the first
#: 4096-step chunk, which the engine cuts into windows: most rows exhaust there.
FIG4_RIGHT_WINDOWED = ["--family", "bernoulli", "--means", "0.51,0.5", "--tau-max", "11065"]
LATE = (("sigma-exponential-robbins", [*EXPONENTIAL_SIGMA, "--rate", "robbins"]),
        ("sigma-exponential-plain-log", [*EXPONENTIAL_SIGMA, "--rate", "plain-log"]),
        ("fig4-right-capped-sglrt", [*FIG4_RIGHT_CAPPED, "--algo", "sglrt",
                                     "--rate", "conjectured"]),
        ("fig4-right-capped-elimination", [*FIG4_RIGHT_CAPPED, "--algo", "elimination",
                                           "--rate", "plain-log", "--sigma", "0.5"]),
        ("alpha-elimination-capped", [*ALPHA_ELIMINATION, "--tau-max", "80"]),
        ("sigma-exponential-capped", [*EXPONENTIAL_SIGMA, "--rate", "robbins",
                                      "--tau-max", "161"]),
        ("fig4-right-windowed-sglrt", [*FIG4_RIGHT_WINDOWED, "--algo", "sglrt",
                                       "--rate", "conjectured"]),
        ("fig4-right-windowed-elimination", [*FIG4_RIGHT_WINDOWED, "--algo", "elimination",
                                             "--rate", "plain-log", "--sigma", "0.5"]))
#: The deltas and replications of every simulate-fc run.
FC = ["--deltas", "0.1,0.01", "--reps", "67"]
#: (label, seeds, worker counts, argv without --seed, --workers and --out) of each
#: family of runs, in print order.
RUNS = [
    *((name, SEEDS, WORKERS, ["reproduce-figure", name, "--reps", str(reps)])
      for name, reps in FIGURE_REPS.items()),
    *((label, (0,), (1,), ["simulate-fb", "--family", family, "--means", means, "--alloc",
                           "optimal", "--budgets", "20:200:20", "--reps", "25"])
      for label, family, means in FIXED_BUDGET),
    ("fc-alpha-elimination", SEEDS, WORKERS, ["simulate-fc", *ALPHA_ELIMINATION, *FC]),
    *((f"{name}-{reps}", SEEDS, worker_counts, ["reproduce-figure", name, "--reps", str(reps)])
      for name in ("fig3-easy", "fig4-left")
      for reps, worker_counts in ((LONG_REPS, WORKERS), (FIGURE_REPS[name], (3,)))),
    *((label, SEEDS, WORKERS, ["simulate-fc", "--family", "gaussian", *flags, "--algo", "sprt",
                               *FC])
      for label, flags in SPRT),
    *((label, SEEDS, WORKERS, ["simulate-fc", *flags, *FC]) for label, flags in LATE),
]
#: Seed and number of the random instances per family whose solver bits are hashed.
PAIR_SEED = 0
PAIRS = 1000


def runs():
    """(label, seed, workers, argv without --out) of every run, in print order."""
    for label, seeds, worker_counts, argv in RUNS:
        for seed in seeds:
            for workers in worker_counts:
                yield label, seed, workers, [*argv, "--seed", str(seed), "--workers", str(workers)]


def instances(family):
    """PAIRS seeded random two-armed instances: Bernoulli means uniform in
    (0.005, 0.995), "bernoulli-tails" means both within 10^-U(2, 9) of 0 or
    both of 1, exponential means log-uniform in [1e-3, 1e3], Gaussian means
    uniform in (-1, 1) with variances log-uniform in [0.1, 10]."""
    rng = np.random.default_rng(PAIR_SEED)
    for _ in range(PAIRS):
        if family == "bernoulli":
            yield cli.build_instance(family, rng.uniform(0.005, 0.995, 2).tolist(), None)
        elif family == "bernoulli-tails":
            gaps = 10.0 ** -rng.uniform(2, 9, 2)
            means = 1.0 - gaps if rng.random() < 0.5 else gaps
            yield cli.build_instance("bernoulli", means.tolist(), None)
        elif family == "exponential":
            yield cli.build_instance(family, (10.0 ** rng.uniform(-3, 3, 2)).tolist(), None)
        else:
            yield cli.build_instance(family, rng.uniform(-1, 1, 2).tolist(),
                                     (10.0 ** rng.uniform(-1, 1, 2)).tolist())


def solver_digests():
    """(label, sha256) of the alpha* and rate bits of each family, in print order."""
    quantities = (
        ("alpha", ("bernoulli", "exponential", "bernoulli-tails"),
         lambda instance: optimal_alpha(*_expfam_params(instance))),
        ("rates", ("bernoulli", "exponential", "gaussian"),
         lambda instance: complexity_report(instance).as_dict().values()),
    )
    for quantity, families, values in quantities:
        for family in families:
            digest = hashlib.sha256()
            for instance in instances(family):
                digest.update(" ".join(v.hex() for v in values(instance)).encode() + b"\n")
            yield f"{quantity}-{family}", digest.hexdigest()


def main() -> int:
    print("numpy", np.__version__, flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "records.csv"
        for label, seed, workers, argv in runs():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--out", str(out)])
            if code:
                return code
            print(label, seed, workers, hashlib.sha256(out.read_bytes()).hexdigest(), flush=True)
    for label, digest in solver_digests():
        print(label, PAIR_SEED, PAIRS, digest, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
