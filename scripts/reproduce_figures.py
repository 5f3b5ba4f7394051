#!/usr/bin/env python3
"""Run every figure preset and write one CSV per figure.

A loop over ``bestarm reproduce-figure``.  Desk scale by default (1000
replications); pass --reps 1000000 to match the reference protocol if you
have the patience.

    python scripts/reproduce_figures.py --reps 1000 --seed 42 --outdir results/
"""

import argparse
import pathlib

from bestarm import cli, presets


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--figures", nargs="*", default=list(presets.FIGURE_PRESETS))
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in args.figures:
        code = cli.main(["reproduce-figure", name, "--reps", str(args.reps),
                         "--seed", str(args.seed), "--workers", str(args.workers),
                         "--out", str(outdir / f"{name}.csv")])
        if code:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
