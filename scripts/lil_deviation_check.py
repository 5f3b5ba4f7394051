#!/usr/bin/env python3
"""Tabulate the self-normalized deviation bound against empirical crossing
frequencies of Gaussian random walks over the loglog envelope.

A loop over ``bestarm lil-check``, one output line per (x, beta) pair.

    python scripts/lil_deviation_check.py --horizon 10000 --paths 10000
"""

import argparse

from bestarm import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--xs", type=float, nargs="*", default=[3.0, 5.0, 8.0])
    parser.add_argument("--betas", type=float, nargs="*", default=[1.5, 2.0])
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--horizon", type=int, default=10000)
    parser.add_argument("--paths", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for x in args.xs:
        for beta in args.betas:
            code = cli.main(["lil-check", "--x", repr(x), "--beta", repr(beta),
                             "--sigma", repr(args.sigma), "--horizon", str(args.horizon),
                             "--paths", str(args.paths), "--seed", str(args.seed)])
            if code:
                return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
