"""Deterministic Monte Carlo experiment engine.

Replication r of a cell reads the PCG64 stream of
``SeedSequence(master_seed, spawn_key=(key,))`` jumped r times (see
:mod:`bestarm.rng`), so its draws depend only on (master_seed, key, r) and
never on execution order, block layout or the worker count.  The key of
a static cell is its grid index g; every sequential cell reads grid index
0's stream, so the deltas of a sequential config are coupled (common
random numbers across the grid): each row's tau is non-increasing in
delta, and the cells are not independent samples of one another.
:func:`run_experiments` is the one entry point.  In the parent it
validates every config by building its stopping rules, once per config
and before any pool opens, so a config that cannot run fails there.  Then
``workers = k`` gives each of the k workers exactly one task: the rules
and its contiguous share of the replications of every cell of every
config.  The tasks run on the process's one pool of one worker per task
with rows (k, unless every config has fewer than k replications), opened
by the first call that splits its work and kept warm for every later call
with as many tasks; a call with another count replaces it, so a one-shot
CLI run still forks its workers once.  The pool stack
(``concurrent.futures.process`` and multiprocessing) is imported by
:func:`_run_on_pool`, when a call first opens a pool, so a run at one worker
never loads it; ``harness.ProcessPoolExecutor`` stays a module attribute,
resolved on first access.  A worker runs rows through the batched engine
:func:`engine.run_group`, one call for the cells of its task that share a
stream and a draw layout (equal master seed, stream key, rows and
:meth:`engine.StoppingRule.layout`, which holds no cap), so their draws
are filled once, following each row's slowest cell, and each cell reads
the variates it reads alone, up to its own cap.  Each block the call yields is
folded at once into exact integer sums (errors, tau, tau^2, exhausted),
which commute exactly, so memory is flat in the replication count and
records come out byte-identical for any ``workers`` value; configs
sharing a master seed see the same draws (common random numbers).

The module also houses the self-normalized deviation-bound calculator
(zeta-series bound on the probability that a subgaussian random walk ever
crosses the sqrt(2 sigma^2 t (x + beta loglog(e t))) envelope) and its
finite-horizon empirical certification.
"""

from __future__ import annotations

import atexit
import dataclasses
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from . import engine, fb_algos, fc_algos
from .dists import _fill_normal
from .engine import MAX_COUNT
from .errors import DomainError
from .instances import BanditInstance
from .rng import (  # noqa: F401  (mix_seed: re-exported name)
    check_seed, make_rng, mix_seed)

_WILSON_Z = 1.959963984540054  # two-sided 95%


#: Each algorithm kind's rule class and knobs, in the order the rule takes
#: them after (instance, grid value); any other knob must keep its default.
_KINDS = {
    "elimination": (fc_algos.EliminationRule, ("rate", "tau_max", "sigma")),
    "alpha-elimination": (fc_algos.AlphaEliminationRule, ("rate", "alpha", "tau_max")),
    "sglrt": (fc_algos.SglrtRule, ("rate", "tau_max")),
    "sprt": (fc_algos.SprtRule, ("tau_max", "sprt_paper_statistic")),
    "static": (fb_algos.StaticRule, ("allocation",)),
}


@dataclass(frozen=True)
class AlgorithmSpec:
    """Which strategy to run and with which knobs.

    ``kind`` is one of elimination | alpha-elimination | sglrt | sprt
    (fixed confidence, grid = deltas) or static (fixed budget, grid =
    budgets).  ``alpha=None`` means the auto allocation for
    alpha-elimination; ``sigma`` is the subgaussian proxy override for
    elimination on non-Gaussian arms; ``allocation`` ("uniform", the
    default, or "optimal") applies to static runs only.
    """

    kind: str
    rate: fc_algos.ExplorationRate | None = None
    alpha: float | None = None
    tau_max: int | None = None
    sigma: float | None = None
    sprt_paper_statistic: bool = False
    allocation: str | None = None

    def __post_init__(self):
        if self.kind == "static" and self.allocation is None:
            object.__setattr__(self, "allocation", "uniform")

    @property
    def is_fixed_budget(self) -> bool:
        return self.kind == "static"

    def label(self) -> str:
        if self.is_fixed_budget:
            return f"static[{self.allocation}]"
        if self.kind == "sprt":
            return "sprt[paper]" if self.sprt_paper_statistic else "sprt[exact]"
        return f"{self.kind}[{self.rate.value}]"

    def param(self) -> str:
        if self.is_fixed_budget:
            return self.allocation
        if self.kind == "sprt":
            return "paper-statistic" if self.sprt_paper_statistic else "exact-llr"
        return self.rate.value


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an instance, an algorithm, a grid, N and a seed."""

    instance: BanditInstance
    algorithm: AlgorithmSpec
    grid: tuple[float, ...]
    replications: int
    master_seed: int

    def validate(self) -> list[engine.StoppingRule]:
        """The stopping rule of each grid cell, in grid order.

        Building the rules is the validation: each rule's constructor checks
        its own domain (delta range, exploration rate, arm family, tau_max,
        budget, allocation policy) and raises DomainError outside it.  A
        knob the algorithm kind does not take must keep its default.
        Replication counts and budgets must be at most 2**53.
        """
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if self.replications > MAX_COUNT:
            raise DomainError(f"replications must be <= 2**53, got {self.replications}")
        check_seed(self.master_seed)
        if not self.grid:
            raise DomainError("the grid must be non-empty")
        spec, instance, grid = self.algorithm, self.instance, self.grid
        if spec.kind not in _KINDS:
            raise DomainError(f"unknown algorithm kind {spec.kind!r}")
        rule, knobs = _KINDS[spec.kind]
        for knob in dataclasses.fields(spec):
            if (knob.name not in ("kind", *knobs)
                    and getattr(spec, knob.name) != knob.default):
                raise DomainError(f"the {spec.kind} algorithm takes no {knob.name}")
        if not spec.is_fixed_budget:
            values = [getattr(spec, knob) for knob in knobs]
            return [rule(instance, delta, *values) for delta in grid]
        if not all(float(t).is_integer() for t in grid):
            raise DomainError("budgets must be integers")
        if max(grid) > MAX_COUNT:
            raise DomainError(f"budgets must be <= 2**53, got {max(grid):g}")
        allocs = fb_algos.allocations_for(instance, [int(t) for t in grid], spec.allocation)
        return [rule(instance, alloc) for alloc in allocs]


@dataclass(frozen=True)
class ExperimentRecord:
    """Aggregated Monte Carlo statistics for one (algorithm, instance, cell)."""

    algorithm: str
    instance: str
    family: str
    param: str
    grid_value: float
    replications: int
    error_rate: float
    error_ci_halfwidth: float
    mean_tau: float
    std_tau: float
    exhausted_count: int
    master_seed: int


def wilson_halfwidth(errors: int, n: int) -> float:
    """Half-width of the Wilson 95% score interval for errors/n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    p, z2 = errors / n, _WILSON_Z * _WILSON_Z
    return _WILSON_Z / (1.0 + z2 / n) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))


def _run_task(task: list[tuple]) -> list[list[list[int]]]:
    """One worker's task: for each (config index, master seed, rules, rows),
    rows ``rows`` of every cell, cell g running ``rules[g]``.

    Cell g reads the stream key ``(g,)`` if it is static, whose "sums"
    layout draws its budget's sums directly, and ``(0,)`` if it is
    sequential, so all deltas of a sequential config read one stream.
    Cells that read one stream with one draw layout (equal master seed,
    key, rows and ``rule.layout``, which names the arms and any allocation
    or alpha, not the cap) run as one :func:`engine.run_group`, which fills
    their draws once and runs each rule to its own cap.  Each block it
    yields is folded at once into its cells' exact integer sums [errors,
    sum tau, sum tau^2, exhausted], which are returned per config and cell.
    """
    sums = [[[0, 0, 0, 0] for _ in rules] for _, _, rules, _ in task]
    groups = {}  # (seed, key, rows, layout) -> (rule, sums) of each cell that reads it
    for (_, seed, rules, rows), cells in zip(task, sums):
        for g, (rule, cell) in enumerate(zip(rules, cells)):
            key = g if rule.layout[0] == "sums" else 0
            groups.setdefault((seed, key, rows, rule.layout), []).append((rule, cell))
    for (seed, key, rows, _), cells in groups.items():
        for block in engine.run_group([rule for rule, _ in cells], make_rng(seed, key), rows):
            for (rule, cell), outcomes in zip(cells, block):
                tau, recommended, _, exhausted = zip(*outcomes)
                cell[0] += recommended.count(1 - rule.best_arm)
                cell[1] += sum(tau)
                cell[2] += sum(map(operator.mul, tau, tau))
                cell[3] += exhausted.count(True)
    return sums


def _aggregate(cfg: ExperimentConfig, grid_index: int, sums: list[int]) -> ExperimentRecord:
    n = cfg.replications
    errors, sum_tau, sumsq_tau, exhausted = sums
    mean_tau = sum_tau / n
    # population variance from exact integer moments
    var_tau = max(sumsq_tau / n - mean_tau * mean_tau, 0.0)
    return ExperimentRecord(
        algorithm=cfg.algorithm.label(),
        instance=cfg.instance.label(),
        family=cfg.instance.family.split("(")[0],
        param=cfg.algorithm.param(),
        grid_value=cfg.grid[grid_index],
        replications=n,
        error_rate=errors / n,
        error_ci_halfwidth=wilson_halfwidth(errors, n),
        mean_tau=mean_tau,
        std_tau=math.sqrt(var_tau),
        exhausted_count=exhausted,
        master_seed=cfg.master_seed,
    )


#: The process's one worker pool (a ``ProcessPoolExecutor``) and its size:
#: opened by the first call whose work splits, reused while the number of
#: tasks stays the same, replaced when it changes.
_POOL = None
_POOL_WORKERS = 0


def __getattr__(name: str):
    """``ProcessPoolExecutor``, the class the pool is made of, imported on first use.

    The pool stack (``concurrent.futures.process`` with multiprocessing,
    socket, selectors, logging and subprocess) costs more to import than a
    short run, and a run at one worker never opens a pool.  The class stays
    a module attribute, so setting ``harness.ProcessPoolExecutor`` changes
    the class the next pool is made of.
    """
    if name == "ProcessPoolExecutor":
        from concurrent.futures.process import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def close_pool(wait: bool = True, cancel_futures: bool = False) -> None:
    """Shut the module's worker pool down, if one is open; the next split call opens another."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown(wait=wait, cancel_futures=cancel_futures)


def _run_on_pool(tasks: list[list[tuple]]) -> list[list[list[tuple]]]:
    """Each task's partial sums, run on the module's pool of one worker per task.

    A pool found broken (a worker died, even while idle) is dropped and the
    call retried once on a fresh one: tasks are pure, so a rerun returns the
    same sums.  Any other exception out of the map, an interrupt included,
    shuts the pool down without waiting for its running tasks and drops it.
    """
    from concurrent.futures.process import BrokenProcessPool

    global _POOL, _POOL_WORKERS
    workers = len(tasks)
    for attempt in range(2):
        if _POOL is not None and _POOL_WORKERS != workers:
            close_pool()
        if _POOL is None:
            atexit.unregister(close_pool)
            atexit.register(close_pool)
            pool_class = sys.modules[__name__].ProcessPoolExecutor
            _POOL, _POOL_WORKERS = pool_class(max_workers=workers), workers
        try:
            return list(_POOL.map(_run_task, tasks))
        except BrokenProcessPool:
            close_pool()
            if attempt:
                raise
        except BaseException:
            close_pool(wait=False, cancel_futures=True)
            raise


def run_experiments(configs: list[ExperimentConfig], workers: int = 1) -> list[ExperimentRecord]:
    """The records of every config, in order, each config's cells in grid order.

    Every config's rules are built (and so validated) once, here, before
    any work starts and before any pool opens; workers receive the rules.
    Worker i of
    w = ``workers`` takes the replications [round(i n / w), round((i+1) n / w))
    of every cell of every config (n that config's replication count) as
    one task.  When more than one task has rows, they run on the module's
    pool of one worker per such task (see :func:`_run_on_pool`), which
    later calls with as many tasks reuse; when only one does
    (``workers == 1``, or too few replications to split), the call runs it
    here and touches no pool.
    The parent sums the workers' integer partials.
    """
    configs = list(configs)
    rules = [cfg.validate() for cfg in configs]
    if workers < 1:
        raise DomainError("workers must be >= 1")
    tasks = []  # one per worker that has rows
    for i in range(workers):
        task = []
        for c, cfg in enumerate(configs):
            n = cfg.replications
            rows = range(round(i * n / workers), round((i + 1) * n / workers))
            if rows:
                task.append((c, cfg.master_seed, rules[c], rows))
        if task:
            tasks.append(task)
    if len(tasks) > 1:
        results = _run_on_pool(tasks)
    else:
        results = [_run_task(task) for task in tasks]
    totals = [[[0, 0, 0, 0] for _ in cfg.grid] for cfg in configs]
    for task, sums in zip(tasks, results):
        for (c, *_), cells in zip(task, sums):
            for total, cell in zip(totals[c], cells):
                total[:] = map(operator.add, total, cell)
    return [_aggregate(cfg, g, total) for cfg, cells in zip(configs, totals)
            for g, total in enumerate(cells)]


def run_fc_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[ExperimentRecord]:
    """N replications per delta in the grid; deterministic in the config."""
    if cfg.algorithm.is_fixed_budget:
        raise DomainError("run_fc_experiment needs a fixed-confidence algorithm")
    return run_experiments([cfg], workers)


def run_fb_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[ExperimentRecord]:
    """N replications per budget in the grid; mean_tau equals the budget."""
    if not cfg.algorithm.is_fixed_budget:
        raise DomainError("run_fb_experiment needs a fixed-budget algorithm")
    return run_experiments([cfg], workers)


# ---------------------------------------------------------------------------
# deviation bound (law-of-iterated-logarithm envelope)
# ---------------------------------------------------------------------------

X_MIN = 8.0 / (math.e - 1.0) ** 2
_ZETA_TOL = 1e-12  # bound on the first term zeta omits


def zeta(u: float) -> float:
    """Riemann zeta for u > 1 via partial sum plus integral-tail estimate.

    Euler-Maclaurin correction terms (K^-u/2, u K^-(u+1)/12) are added to
    the K^(1-u)/(u-1) tail so the first omitted term, bounded by
    u(u+1)(u+2) K^-(u+3)/720, is below _ZETA_TOL; otherwise reaching 1e-12
    near u=1 would need astronomically many terms.  The result is finite
    for every finite u > 1.
    """
    if not 1.0 < u < math.inf:
        raise DomainError(f"zeta requires finite u > 1, got {u}")
    ratio = u * (u + 1.0) * (u + 2.0) / 720.0 / _ZETA_TOL
    # for huge u the ratio overflows to inf while its (u+3)-th root tends to 1
    k = 16 if math.isinf(ratio) else max(16, math.ceil(ratio ** (1.0 / (u + 3.0))))
    ks = np.arange(1, k, dtype=float)
    partial = float(np.sum(ks ** (-u)))
    tail = k ** (1.0 - u) / (u - 1.0) + 0.5 * k ** (-u) + u / 12.0 * k ** (-u - 1.0)
    return partial + tail


def _check_lil_domain(x: float, beta: float) -> None:
    """Raise DomainError unless beta is finite and > 1 and x finite and >= 8/(e-1)^2."""
    if not 1.0 < beta < math.inf:
        raise DomainError(f"beta must be finite and exceed 1, got {beta}")
    if not X_MIN <= x < math.inf:
        raise DomainError(f"x must be finite and >= 8/(e-1)^2 = {X_MIN:.6f}, got {x}")


def deviation_bound(x: float, beta: float) -> float:
    """sqrt(e) zeta(beta(1-1/(2x))) (sqrt(x)/(2 sqrt(2)) + 1)^beta exp(-x).

    Upper bound on the probability that a sigma-subgaussian random walk ever
    exceeds sqrt(2 sigma^2 t (x + beta loglog(e t))); requires beta > 1,
    x >= 8/(e-1)^2 and beta(1-1/(2x)) > 1 (zeta convergence), both finite.
    The power and exp(-x) are combined in log space, so a large power never
    meets an underflowed exp(-x); a bound past the float range raises
    DomainError.
    """
    _check_lil_domain(x, beta)
    u = beta * (1.0 - 1.0 / (2.0 * x))
    if not u > 1.0:
        raise DomainError(f"beta(1 - 1/(2x)) = {u} must exceed 1")
    try:  # the exponent overflows to inf, or exp of a finite one does
        bound = zeta(u) * math.exp(0.5 + beta * math.log1p(math.sqrt(x) / (2.0 * math.sqrt(2.0)))
                                   - x)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise DomainError(f"the deviation bound at x={x}, beta={beta} exceeds the float range")
    return bound


def empirical_lil_crossing(sigma: float, x: float, beta: float, horizon: int,
                           paths: int, master_seed: int) -> float:
    """Fraction of Gaussian random-walk paths crossing the envelope by ``horizon``.

    A walk sigma S_t crosses sqrt(2 sigma^2 t (x + beta loglog(e t))) exactly
    when S_t crosses the envelope of sigma 1, so the walks are read at sigma
    1, where no scaling can underflow or overflow; sigma is only checked.

    A finite-horizon lower estimate of the infinite-horizon crossing
    probability bounded by :func:`deviation_bound`.  Path i reads the PCG64
    stream of ``SeedSequence(master_seed)`` jumped i times, filled in blocks
    by :func:`bestarm.engine.filled_rows`, so the estimate is monotone in
    the horizon for a fixed seed (nested draw prefixes).  x and beta must
    lie where :func:`deviation_bound` takes them.
    """
    if not (1 <= horizon <= MAX_COUNT and 1 <= paths <= MAX_COUNT):
        raise DomainError(f"horizon and paths must lie in [1, 2**53], got {horizon} and {paths}")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be finite and > 0, got {sigma}")
    _check_lil_domain(x, beta)
    check_seed(master_seed)
    t = np.arange(1, horizon + 1, dtype=float)
    with np.errstate(over="ignore"):  # an infinite envelope is never crossed
        threshold = np.sqrt(2.0 * t * (x + beta * np.log(np.log(math.e * t))))
    crossed = 0
    for _, z in engine.filled_rows(make_rng(master_seed), paths, horizon, _fill_normal):
        walks = np.cumsum(z, axis=1, out=z)
        crossed += int(np.count_nonzero((walks > threshold).any(axis=1)))
    return crossed / paths
