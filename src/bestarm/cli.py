"""Command-line surface: complexity reports, bounds, simulations, presets.

Exit code 0 on success, 2 on any configuration or domain error (single-line
diagnostic on stderr).  ``--workers`` caps the process pool (env fallback
``BAI_WORKERS``); outputs are byte-identical for any worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import bounds, harness, presets, records_io
from .complexity import complexity_report
from .dists import EXPONENTIAL_FAMILY, Bernoulli, ExpFamilyArm, Gaussian
from .errors import BestArmError
from .fc_algos import ExplorationRate
from .harness import AlgorithmSpec, ExperimentConfig
from .instances import BanditInstance

_FMT = records_io.format_float


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def parse_grid(text: str, integer: bool = False) -> tuple[float, ...]:
    """Comma list or inclusive start:stop:step range."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise BestArmError(f"range grids are start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise BestArmError(f"bad range grid {text!r}")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        values = [start + i * step for i in range(count)]
    else:
        values = _parse_floats(text)
    if not values:
        raise BestArmError(f"empty grid {text!r}")
    if integer:
        out = []
        for v in values:
            if abs(v - round(v)) > 1e-9:
                raise BestArmError(f"budget {v} is not an integer")
            out.append(float(int(round(v))))
        return tuple(out)
    return tuple(values)


def build_instance(family: str, means: list[float],
                   variances: list[float] | None) -> BanditInstance:
    if family == "gaussian":
        if not variances or len(variances) != len(means):
            raise BestArmError("gaussian instances need one variance per mean")
        arms = tuple(Gaussian(m, v) for m, v in zip(means, variances))
    elif family == "bernoulli":
        if variances:
            raise BestArmError("bernoulli instances take no variances")
        arms = tuple(Bernoulli(m) for m in means)
    elif family == "exponential":
        if variances:
            raise BestArmError("exponential instances take no variances")
        arms = tuple(ExpFamilyArm(EXPONENTIAL_FAMILY, -1.0 / m) for m in means)
    else:
        raise BestArmError(f"unknown family {family!r}")
    return BanditInstance(arms)


def _resolve_workers(args) -> int:
    """--workers (or the config file's value), else BAI_WORKERS, else 1; must be >= 1."""
    workers = getattr(args, "workers", None)
    source = "--workers"
    if workers is None:
        workers = os.environ.get("BAI_WORKERS", "").strip() or 1
        source = "BAI_WORKERS"
    try:
        count = int(workers)
    except (TypeError, ValueError):
        raise BestArmError(f"{source} must be an integer, got {workers!r}") from None
    if count < 1:
        raise BestArmError(f"{source} must be >= 1, got {count}")
    return count


def _apply_config_file(args: argparse.Namespace) -> None:
    """Fill unset CLI fields from a JSON config mirroring ExperimentConfig."""
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    inst = cfg.get("instance", {})
    algo = cfg.get("algorithm", {})
    mapping = {
        "family": inst.get("family"),
        "means": ",".join(str(x) for x in inst["means"]) if "means" in inst else None,
        "variances": ",".join(str(x) for x in inst["variances"]) if "variances" in inst else None,
        "algo": algo.get("kind"),
        "rate": algo.get("rate"),
        "alpha": algo.get("alpha"),
        "tau_max": algo.get("tau_max"),
        "sigma": algo.get("sigma"),
        "alloc": algo.get("allocation"),
        "grid": ",".join(str(x) for x in cfg["grid"]) if "grid" in cfg else None,
        "reps": cfg.get("replications"),
        "seed": cfg.get("master_seed"),
        "workers": cfg.get("workers"),
        "out": cfg.get("out"),
    }
    for dest, value in mapping.items():
        if value is not None and getattr(args, dest, None) is None:
            setattr(args, dest, value)


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise BestArmError(f"missing required option --{name.replace('_', '-')}")


def cmd_complexity(args) -> int:
    instance = build_instance(args.family, _parse_floats(args.means),
                              _parse_floats(args.variances) if args.variances else None)
    report = complexity_report(instance)
    row = " ".join(f"{k}={_FMT(v)}" for k, v in report.as_dict().items())
    print(row)
    return 0


def cmd_bound(args) -> int:
    instance = build_instance(args.family, _parse_floats(args.means),
                              _parse_floats(args.variances) if args.variances else None)
    if args.m != 1:
        instance = BanditInstance(instance.arms, m=args.m)
    delta = args.delta
    print(f"fc_general={_FMT(bounds.fc_lower_bound_general(instance, delta))}")
    if instance.k == 2 and instance.m == 1:
        general, uniform = bounds.fc_two_armed_bounds(instance, delta)
        print(f"fc_two_armed_general={_FMT(general)}")
        print(f"fc_two_armed_uniform={_FMT(uniform)}")
    if args.eps is not None:
        value = bounds.fc_lower_bound_eps_relaxed(instance, args.eps, delta)
        print(f"fc_eps_relaxed={_FMT(value)}")
    if args.budget is not None:
        profile = bounds.gap_profile(instance)
        bound_m1, bound_general = bounds.fb_error_lower_bounds(profile, args.budget)
        print(f"fb_error_m1={_FMT(bound_m1)}")
        print(f"fb_error_general={_FMT(bound_general)}")
    return 0


def _run_and_write(configs: list[ExperimentConfig], out: str, workers: int) -> int:
    records = []
    for cfg in configs:
        runner = harness.run_fb_experiment if cfg.algorithm.is_fixed_budget \
            else harness.run_fc_experiment
        records.extend(runner(cfg, workers=workers))
    records_io.write_records(records, out)
    print(f"wrote {len(records)} records to {out}")
    return 0


def cmd_simulate_fc(args) -> int:
    _apply_config_file(args)
    _require(args, "family", "means", "algo", "grid", "reps", "seed", "out")
    instance = build_instance(args.family, _parse_floats(args.means),
                              _parse_floats(args.variances) if args.variances else None)
    rate = ExplorationRate(args.rate) if args.rate else None
    spec = AlgorithmSpec(
        kind=args.algo,
        rate=rate,
        alpha=float(args.alpha) if args.alpha is not None else None,
        tau_max=int(args.tau_max) if args.tau_max is not None else None,
        sigma=float(args.sigma) if args.sigma is not None else None,
        sprt_paper_statistic=bool(args.sprt_paper_statistic),
    )
    cfg = ExperimentConfig(instance, spec, parse_grid(args.grid),
                           int(args.reps), int(args.seed))
    return _run_and_write([cfg], args.out, _resolve_workers(args))


def cmd_simulate_fb(args) -> int:
    _apply_config_file(args)
    _require(args, "family", "means", "grid", "reps", "seed", "out")
    instance = build_instance(args.family, _parse_floats(args.means),
                              _parse_floats(args.variances) if args.variances else None)
    spec = AlgorithmSpec(kind="static", allocation=args.alloc or "uniform")
    cfg = ExperimentConfig(instance, spec, parse_grid(args.grid, integer=True),
                           int(args.reps), int(args.seed))
    return _run_and_write([cfg], args.out, _resolve_workers(args))


def cmd_lil_check(args) -> int:
    bound = harness.deviation_bound(args.x, args.beta)
    freq = harness.empirical_lil_crossing(
        args.sigma, args.x, args.beta, int(args.horizon), int(args.paths),
        int(args.seed))
    print(f"x={_FMT(args.x)} beta={_FMT(args.beta)} sigma={_FMT(args.sigma)} "
          f"horizon={int(args.horizon)} paths={int(args.paths)} "
          f"deviation_bound={_FMT(bound)} empirical_frequency={_FMT(freq)}")
    return 0


def cmd_reproduce_figure(args) -> int:
    out = args.out or f"{args.figure}.csv"
    configs = presets.figure_configs(args.figure, int(args.reps), int(args.seed))
    return _run_and_write(configs, out, _resolve_workers(args))


def _add_instance_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--family", choices=("gaussian", "bernoulli", "exponential"),
                   required=required)
    p.add_argument("--means", required=required,
                   help="comma-separated arm means, best first or any order")
    p.add_argument("--variances", default=None,
                   help="comma-separated variances (gaussian only)")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--reps", type=int, default=None, help="replications per cell")
    p.add_argument("--seed", type=int, default=None, help="64-bit master seed")
    p.add_argument("--out", default=None, help="output CSV path")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (BAI_WORKERS fallback, default 1)")
    p.add_argument("--config", default=None,
                   help="JSON config file; flags override its fields")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bestarm",
        description="Best-arm identification: complexity quantities, lower "
                    "bounds, and deterministic Monte Carlo comparisons.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complexity", help="two-armed complexity report")
    _add_instance_flags(p)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("bound", help="lower-bound values for an instance")
    _add_instance_flags(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--m", type=int, default=1, help="number of best arms sought")
    p.add_argument("--eps", type=float, default=None,
                   help="epsilon for the relaxed Bernoulli bound")
    p.add_argument("--budget", type=int, default=None,
                   help="budget for the fixed-budget error bounds (gaussian)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate-fc", help="fixed-confidence Monte Carlo runs")
    _add_instance_flags(p, required=False)
    p.add_argument("--algo", default=None,
                   choices=("elimination", "alpha-elimination", "sglrt", "sprt"))
    p.add_argument("--rate", default=None,
                   choices=[r.value for r in ExplorationRate])
    p.add_argument("--alpha", type=float, default=None,
                   help="allocation for alpha-elimination (default auto)")
    p.add_argument("--tau-max", dest="tau_max", type=int, default=None)
    p.add_argument("--sigma", type=float, default=None,
                   help="subgaussian proxy for elimination on bounded arms")
    p.add_argument("--sprt-paper-statistic", action="store_true",
                   help="use the unscaled display statistic instead of the exact LLR")
    p.add_argument("--deltas", dest="grid", default=None,
                   help="delta grid: comma list or start:stop:step")
    _add_run_flags(p)
    p.set_defaults(func=cmd_simulate_fc)

    p = sub.add_parser("simulate-fb", help="fixed-budget Monte Carlo runs")
    _add_instance_flags(p, required=False)
    p.add_argument("--alloc", default=None, choices=("uniform", "optimal"))
    p.add_argument("--budgets", dest="grid", default=None,
                   help="budget grid: comma list or start:stop:step")
    _add_run_flags(p)
    p.set_defaults(func=cmd_simulate_fb)

    p = sub.add_parser("lil-check",
                       help="deviation bound vs empirical crossing frequency")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--horizon", type=int, default=10000)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_lil_check)

    p = sub.add_parser("reproduce-figure",
                       help="run a preset comparison grid and write its CSV")
    p.add_argument("figure", choices=presets.FIGURE_PRESETS)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_reproduce_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BestArmError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
