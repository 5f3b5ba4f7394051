"""Command-line surface: complexity reports, bounds, simulations, presets.

Exit code 0 on success, 2 on any configuration or domain error or failed
allocation (single-line diagnostic on stderr).  ``--workers k`` (env
fallback ``BAI_WORKERS``) runs a command's simulations on a pool of k
worker processes, one task per worker, which later commands of the same
process reuse at the same k; outputs are byte-identical for any worker
count.

Importing the module loads only what every command needs.  The modules
that some commands need load where those commands first use them:
``bestarm.bounds`` in :func:`cmd_bound`, ``fractions`` (with ``decimal``)
in :func:`_parse_budgets`, ``json`` in :func:`_apply_config_file`, and the
process-pool stack in :func:`bestarm.harness._run_on_pool`.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

from . import harness, presets, records_io
from .complexity import complexity_report
from .dists import EXPONENTIAL_FAMILY, Bernoulli, ExpFamilyArm, Gaussian, mean_to_nat
from .engine import MAX_GRID_CELLS
from .errors import BestArmError
from .fc_algos import ExplorationRate
from .harness import AlgorithmSpec, ExperimentConfig
from .instances import BanditInstance

_FMT = records_io.format_float


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise BestArmError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_budgets(text: str) -> list:
    """Comma-separated budgets, read exactly: integers of magnitude <= 2**53, as Fractions."""
    from fractions import Fraction

    _parse_floats(text)  # same syntax as every other number list
    try:
        values = [Fraction(x) for x in text.split(",") if x.strip() != ""]
        if any(v.denominator != 1 for v in values):
            raise ValueError
    except ValueError:  # also nan and inf
        raise BestArmError(f"budgets must be integers, got {text!r}") from None
    if any(abs(v) > harness.MAX_COUNT for v in values):
        raise BestArmError(f"budgets must be <= 2**53, got {text!r}")
    return values


def parse_grid(text: str, integer: bool = False) -> tuple[float, ...]:
    """Comma list or inclusive start:stop:step range.

    ``integer=True`` reads a budget grid: every number in it is parsed
    exactly and must be an integer of magnitude at most 2**53, so no budget
    is rounded on its way to a float.
    """
    parse = _parse_budgets if integer else _parse_floats
    if ":" in text:
        parts = text.split(":")
        bounds = [v for part in parts for v in parse(part)]
        if len(parts) != 3 or len(bounds) != 3:
            raise BestArmError(f"range grids are start:stop:step, got {text!r}")
        start, stop, step = bounds
        if not all(map(math.isfinite, bounds)) or step <= 0 or stop < start:
            raise BestArmError(f"bad range grid {text!r}")
        # exact budgets need no slack for rounding in the quotient
        steps = (stop - start) / step + (0 if integer else 1e-9)
        if not steps < MAX_GRID_CELLS:  # also where the quotient overflows
            raise BestArmError(f"range grid {text!r} has more than {MAX_GRID_CELLS} cells")
        count = math.floor(steps) + 1
        values = [start + i * step for i in range(count)]
    else:
        values = parse(text)
    if not values:
        raise BestArmError(f"empty grid {text!r}")
    return tuple(float(v) for v in values)


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
        arms = tuple(ExpFamilyArm(EXPONENTIAL_FAMILY, mean_to_nat(EXPONENTIAL_FAMILY, m))
                     for m in means)
    else:
        raise BestArmError(f"unknown family {family!r}")
    return BanditInstance(arms)


def _instance(args) -> BanditInstance:
    """The instance of a command's --family, --means and --variances."""
    return build_instance(args.family, _parse_floats(args.means),
                          _parse_floats(args.variances) if args.variances else None)


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


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise BestArmError(f"config {where} must be a JSON object, got {value!r}")
    return value


def _comma_list(value) -> str:
    """A JSON list as the comma list its flag takes."""
    if not isinstance(value, list):
        raise TypeError("not a list")
    return ",".join(str(x) for x in value)


def _one_value(convert):
    """The conversion of a one-value field: a JSON scalar, from its text."""
    def one(value):
        if isinstance(value, (list, dict)):
            raise TypeError("not a single value")
        return convert(str(value))
    return one


def _json_bool(value) -> bool:
    """The value of an on/off flag's field: a JSON bool."""
    if not isinstance(value, bool):
        raise TypeError("not a bool")
    return value


def _apply_config_file(args: argparse.Namespace) -> None:
    """Fill unset CLI fields from a JSON config mirroring ExperimentConfig.

    Scalars convert from their text as their flags' arguments do; lists
    become the comma lists their flags take; an on/off flag's field takes a
    JSON bool.  Every field present is checked, also one a flag overrides,
    and a field that no flag reads is an error.
    """
    path = getattr(args, "config", None)
    if not path:
        return
    import json

    with open(path, encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise BestArmError(str(exc)) from None
    cfg = _object(document, "document")
    inst = _object(cfg.get("instance", {}), "instance")
    algo = _object(cfg.get("algorithm", {}), "algorithm")
    fields = {  # dest: (config field, its value, conversion)
        "family": ("instance.family", inst.get("family"), _one_value(str)),
        "means": ("instance.means", inst.get("means"), _comma_list),
        "variances": ("instance.variances", inst.get("variances"), _comma_list),
        "algo": ("algorithm.kind", algo.get("kind"), _one_value(str)),
        "rate": ("algorithm.rate", algo.get("rate"), _one_value(ExplorationRate)),
        "alpha": ("algorithm.alpha", algo.get("alpha"), _one_value(float)),
        "tau_max": ("algorithm.tau_max", algo.get("tau_max"), _one_value(int)),
        "sigma": ("algorithm.sigma", algo.get("sigma"), _one_value(float)),
        "alloc": ("algorithm.allocation", algo.get("allocation"), _one_value(str)),
        "sprt_paper_statistic": ("algorithm.sprt_paper_statistic",
                                 algo.get("sprt_paper_statistic"), _json_bool),
        "grid": ("grid", cfg.get("grid"), _comma_list),
        "reps": ("replications", cfg.get("replications"), _one_value(int)),
        "seed": ("master_seed", cfg.get("master_seed"), _one_value(int)),
        "workers": ("workers", cfg.get("workers"), _one_value(int)),
        "out": ("out", cfg.get("out"), _one_value(str)),
    }
    known = {"instance", "algorithm", *(field for field, _, _ in fields.values())}
    for prefix, table in (("", cfg), ("instance.", inst), ("algorithm.", algo)):
        for key in table:
            if "." in key or prefix + key not in known:
                raise BestArmError(f"config field {prefix}{key} is unknown")
    for dest, (field, value, convert) in fields.items():
        if value is None:
            continue
        try:
            converted = convert(value)
        except (TypeError, ValueError):
            raise BestArmError(f"config field {field} is invalid: {value!r}") from None
        current = getattr(args, dest, None)
        if current is None or current is False:  # an on/off flag left off reads False
            setattr(args, dest, converted)


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise BestArmError(f"missing required option --{name.replace('_', '-')}")


def cmd_complexity(args) -> int:
    report = complexity_report(_instance(args))
    row = " ".join(f"{k}={_FMT(v)}" for k, v in report.as_dict().items())
    print(row)
    return 0


def cmd_bound(args) -> int:
    from . import bounds

    instance = _instance(args)
    if args.budget is not None and not (
            instance.is_gaussian and len({arm.variance for arm in instance.arms}) == 1):
        raise BestArmError("--budget needs gaussian arms of one common variance")
    if args.m != 1:
        instance = BanditInstance(instance.arms, m=args.m)
    delta = args.delta
    # every value is computed before any is printed, so an error prints alone
    values = {"fc_general": bounds.fc_lower_bound_general(instance, delta)}
    if instance.k == 2 and instance.m == 1:
        values["fc_two_armed_general"], values["fc_two_armed_uniform"] = \
            bounds.fc_two_armed_bounds(instance, delta)
    if args.eps is not None:
        values["fc_eps_relaxed"] = bounds.fc_lower_bound_eps_relaxed(instance, args.eps, delta)
    if args.budget is not None:
        profile = bounds.gap_profile(instance)
        values["fb_error_m1"], values["fb_error_general"] = \
            bounds.fb_error_lower_bounds(profile, args.budget)
    print("\n".join(f"{name}={_FMT(value)}" for name, value in values.items()))
    return 0


def _run_and_write(jobs: list[tuple[list[ExperimentConfig], str]], workers: int) -> int:
    """Run each (configs, out) job in turn and write its records to out.

    Every out is checked before the first run, so an out that names a
    directory or lies in a missing one fails at once, not after the runs
    before it.
    """
    for _, out in jobs:
        if os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or "."):
            raise BestArmError(f"--out {out!r} is not a file in an existing directory")
    for configs, out in jobs:
        records = harness.run_experiments(configs, workers)
        records_io.write_records(records, out)
        print(f"wrote {len(records)} records to {out}")
    return 0


def _algorithm_spec(args) -> AlgorithmSpec:
    """The spec of every algorithm flag and ``algorithm.*`` config field given.

    A simulate command's parser lacks the flags of the other command, but
    its config file may still set their fields; they all reach the spec, so
    ``ExperimentConfig.validate`` rejects a knob the kind does not take.
    """
    kind = getattr(args, "algo", None) or "static"
    if (kind == "static") != (args.command == "simulate-fb"):
        raise BestArmError(f"{args.command} cannot run the {kind} algorithm")
    rate = getattr(args, "rate", None)
    return AlgorithmSpec(
        kind=kind,
        rate=ExplorationRate(rate) if rate else None,
        alpha=getattr(args, "alpha", None),
        tau_max=getattr(args, "tau_max", None),
        sigma=getattr(args, "sigma", None),
        sprt_paper_statistic=getattr(args, "sprt_paper_statistic", False),
        allocation=getattr(args, "alloc", None),
    )


def cmd_simulate(args) -> int:
    """simulate-fc (grid of deltas) or simulate-fb (grid of integer budgets)."""
    _apply_config_file(args)
    fixed_budget = args.command == "simulate-fb"
    _require(args, "family", "means", *(() if fixed_budget else ("algo",)),
             "grid", "reps", "seed", "out")
    # arguments evaluate in order: an instance error is reported before a spec error
    cfg = ExperimentConfig(_instance(args), _algorithm_spec(args),
                           parse_grid(args.grid, integer=fixed_budget), args.reps, args.seed)
    return _run_and_write([([cfg], args.out)], _resolve_workers(args))


def cmd_lil_check(args) -> int:
    xs, betas = _parse_floats(args.x), _parse_floats(args.beta)
    if not xs or not betas:
        raise BestArmError("--x and --beta each need at least one number")
    # every bound (and so every domain check) comes before any walk, so an error prints alone
    pairs = [(x, beta, harness.deviation_bound(x, beta)) for x in xs for beta in betas]
    for x, beta, bound in pairs:
        freq = harness.empirical_lil_crossing(args.sigma, x, beta, args.horizon, args.paths,
                                              args.seed)
        print(f"x={_FMT(x)} beta={_FMT(beta)} sigma={_FMT(args.sigma)} "
              f"horizon={args.horizon} paths={args.paths} "
              f"deviation_bound={_FMT(bound)} empirical_frequency={_FMT(freq)}")
    return 0


def cmd_reproduce_figure(args) -> int:
    names = presets.FIGURE_PRESETS if "all" in args.figures else dict.fromkeys(args.figures)
    if len(names) > 1 and "{figure}" not in args.out:
        raise BestArmError(f"--out {args.out!r} names one file for {len(names)} figures: "
                           "put {figure} in it")
    return _run_and_write([(presets.figure_configs(name, args.reps, args.seed),
                            args.out.replace("{figure}", name)) for name in names],
                          _resolve_workers(args))


def _add_instance_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--family", choices=("gaussian", "bernoulli", "exponential"),
                   required=required)
    p.add_argument("--means", required=required,
                   help="comma-separated arm means, best first or any order")
    p.add_argument("--variances", default=None,
                   help="comma-separated variances (gaussian only)")


_SEED_HELP = "master seed, an integer in [0, 2**64)"


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--reps", type=int, default=None, help="replications per cell")
    p.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    p.add_argument("--out", default=None, help="output CSV path")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (BAI_WORKERS fallback, default 1)")
    p.add_argument("--config", default=None,
                   help="JSON config file; flags override its fields")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token starting with -digit or -.digit as a value.

    argparse's own test takes only plain negative numbers, so a comma list or
    an exponent after its flag (``--means -0.5,2``, ``--sigma -1e-3``) would
    be taken for an unknown option.  No flag of ours looks like a number, and
    the subparsers are of this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("simulate-fb", help="fixed-budget Monte Carlo runs")
    _add_instance_flags(p, required=False)
    p.add_argument("--alloc", default=None, choices=("uniform", "optimal"))
    p.add_argument("--budgets", dest="grid", default=None,
                   help="budget grid: comma list or start:stop:step")
    _add_run_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("lil-check",
                       help="deviation bound vs empirical crossing frequency")
    p.add_argument("--x", required=True, help="comma-separated x values")
    p.add_argument("--beta", required=True, help="comma-separated beta values")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--horizon", type=int, default=10000)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    p.set_defaults(func=cmd_lil_check)

    p = sub.add_parser("reproduce-figure",
                       help="run preset comparison grids, one CSV each")
    p.add_argument("figures", nargs="+", choices=(*presets.FIGURE_PRESETS, "all"),
                   help="presets to run in turn; all runs every one")
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    p.add_argument("--out", default="{figure}.csv",
                   help="output CSV path; {figure} stands for each preset's name")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_reproduce_figure)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads every command line with, built on first use.

    Building one takes longer than a short simulation; parsing keeps no
    state in it, since each ``parse_args`` fills a fresh namespace.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (BestArmError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
