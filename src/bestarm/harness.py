"""Deterministic Monte Carlo experiment engine.

Replication r of grid cell g reads the PCG64 stream of
``SeedSequence(master_seed, spawn_key=(g,))`` from offset r * 2**64 (see
:mod:`bestarm.rng`), so its draws depend only on (master_seed, g, r) and
never on execution order, block layout or the worker count.  Each cell
(or worker task) validates its stopping rule once and runs its
replications through the batched engine :func:`engine.run_rows`;
aggregation reduces integer counts and integer sums (tau and tau^2), which
commute exactly.  Records therefore come out byte-identical for any
``workers`` value, and configs sharing a master seed see the same draws
(common random numbers).

The module also houses the self-normalized deviation-bound calculator
(zeta-series bound on the probability that a subgaussian random walk ever
crosses the sqrt(2 sigma^2 t (x + beta loglog(e t))) envelope) and its
finite-horizon empirical certification.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import engine, fb_algos, fc_algos
from .errors import DomainError
from .instances import BanditInstance
from .rng import make_rng, mix_seed, seek  # noqa: F401  (mix_seed: re-exported name)

_WILSON_Z = 1.959963984540054  # two-sided 95%

FC_KINDS = ("elimination", "alpha-elimination", "sglrt", "sprt")
FB_KINDS = ("static",)


@dataclass(frozen=True)
class AlgorithmSpec:
    """Which strategy to run and with which knobs.

    ``kind`` is one of elimination | alpha-elimination | sglrt | sprt
    (fixed confidence, grid = deltas) or static (fixed budget, grid =
    budgets).  ``alpha=None`` means the auto allocation for
    alpha-elimination; ``sigma`` is the subgaussian proxy override for
    elimination on non-Gaussian arms; ``allocation`` ("uniform" or
    "optimal") applies to static runs.
    """

    kind: str
    rate: fc_algos.ExplorationRate | None = None
    alpha: float | None = None
    tau_max: int | None = None
    sigma: float | None = None
    sprt_paper_statistic: bool = False
    allocation: str = "uniform"

    def validate(self) -> None:
        if self.kind in FC_KINDS:
            if self.kind != "sprt" and self.rate is None:
                raise DomainError(f"{self.kind} needs an exploration rate")
        elif self.kind in FB_KINDS:
            if self.allocation not in ("uniform", "optimal"):
                raise DomainError(f"unknown allocation {self.allocation!r}")
        else:
            raise DomainError(f"unknown algorithm kind {self.kind!r}")

    @property
    def is_fixed_budget(self) -> bool:
        return self.kind in FB_KINDS

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

    def validate(self) -> None:
        self.algorithm.validate()
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if not self.grid:
            raise DomainError("the grid must be non-empty")
        if self.algorithm.is_fixed_budget:
            if any(t < 2 or t != int(t) for t in self.grid):
                raise DomainError("budgets must be integers >= 2")
        else:
            for delta in self.grid:
                if not (0.0 < delta < 1.0):
                    raise DomainError(f"delta {delta} outside (0, 1)")
                if self.algorithm.kind == "elimination" and delta > 0.15:
                    raise DomainError(
                        f"elimination requires delta <= 0.15, got {delta}")
                if self.algorithm.rate is not None:
                    fc_algos.validate_rate(self.algorithm.rate, delta)


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


def wilson_halfwidth(errors: int, n: int, z: float = _WILSON_Z) -> float:
    """Half-width of the Wilson 95% score interval for errors/n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    p = errors / n
    denom = 1.0 + z * z / n
    return (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))


def _plan(cfg: ExperimentConfig, grid_index: int) -> engine.StoppingRule:
    """The validated stopping rule of one grid cell."""
    spec, instance, value = cfg.algorithm, cfg.instance, cfg.grid[grid_index]
    if spec.kind == "elimination":
        return fc_algos.EliminationRule(instance, value, spec.rate, spec.tau_max, spec.sigma)
    if spec.kind == "alpha-elimination":
        return fc_algos.AlphaEliminationRule(instance, value, spec.rate, spec.alpha,
                                             spec.tau_max)
    if spec.kind == "sglrt":
        return fc_algos.SglrtRule(instance, value, spec.rate, spec.tau_max)
    if spec.kind == "sprt":
        return fc_algos.SprtRule(instance, value, spec.tau_max, spec.sprt_paper_statistic)
    if spec.kind == "static":
        alloc = fb_algos.allocation_for(instance, int(value), spec.allocation)
        return fb_algos.StaticRule(instance, alloc)
    raise DomainError(f"unknown algorithm kind {spec.kind!r}")


def _cell_chunk(cfg: ExperimentConfig, grid_index: int,
                r_start: int, r_stop: int) -> tuple[int, int, int, int]:
    """Exact integer partial sums (errors, sum tau, sum tau^2, exhausted)."""
    rule = _plan(cfg, grid_index)
    rng = make_rng(cfg.master_seed, grid_index)
    tau, recommended, _, exhausted = engine.run_rows(rule, rng, range(r_start, r_stop))
    taus = tau.tolist()
    return (int(np.count_nonzero(recommended != rule.best_arm)), sum(taus),
            sum(t * t for t in taus), int(np.count_nonzero(exhausted)))


def _cell_chunk_star(args) -> tuple[int, int, int, int]:
    return _cell_chunk(*args)


def _aggregate(cfg: ExperimentConfig, grid_index: int,
               partials: list[tuple[int, int, int, int]]) -> ExperimentRecord:
    n = cfg.replications
    errors = sum(p[0] for p in partials)
    sum_tau = sum(p[1] for p in partials)
    sumsq_tau = sum(p[2] for p in partials)
    exhausted = sum(p[3] for p in partials)
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


def _run_experiment(cfg: ExperimentConfig, workers: int) -> list[ExperimentRecord]:
    cfg.validate()
    if workers < 1:
        raise DomainError("workers must be >= 1")
    n = cfg.replications
    records = []
    if workers == 1 or n < 2 * workers:
        for g in range(len(cfg.grid)):
            records.append(_aggregate(cfg, g, [_cell_chunk(cfg, g, 0, n)]))
        return records
    bounds = [round(i * n / workers) for i in range(workers + 1)]
    tasks = [
        (cfg, g, bounds[i], bounds[i + 1])
        for g in range(len(cfg.grid))
        for i in range(workers)
        if bounds[i] < bounds[i + 1]
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        partials = list(pool.map(_cell_chunk_star, tasks, chunksize=1))
    per_cell: dict[int, list[tuple[int, int, int, int]]] = {}
    for (_, g, _, _), part in zip(tasks, partials):
        per_cell.setdefault(g, []).append(part)
    for g in range(len(cfg.grid)):
        records.append(_aggregate(cfg, g, per_cell[g]))
    return records


def run_fc_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[ExperimentRecord]:
    """N replications per delta in the grid; deterministic in the config."""
    if cfg.algorithm.is_fixed_budget:
        raise DomainError("run_fc_experiment needs a fixed-confidence algorithm")
    return _run_experiment(cfg, workers)


def run_fb_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[ExperimentRecord]:
    """N replications per budget in the grid; mean_tau equals the budget."""
    if not cfg.algorithm.is_fixed_budget:
        raise DomainError("run_fb_experiment needs a fixed-budget algorithm")
    return _run_experiment(cfg, workers)


# ---------------------------------------------------------------------------
# deviation bound (law-of-iterated-logarithm envelope)
# ---------------------------------------------------------------------------

X_MIN = 8.0 / (math.e - 1.0) ** 2


def zeta(u: float, tol: float = 1e-12) -> float:
    """Riemann zeta for u > 1 via partial sum plus integral-tail estimate.

    Euler-Maclaurin correction terms (K^-u/2, u K^-(u+1)/12) are added to
    the K^(1-u)/(u-1) tail so the first omitted term, bounded by
    u(u+1)(u+2) K^-(u+3)/720, is below ``tol``; otherwise reaching 1e-12
    near u=1 would need astronomically many terms.
    """
    if not u > 1.0:
        raise DomainError(f"zeta requires u > 1, got {u}")
    c = u * (u + 1.0) * (u + 2.0) / 720.0
    k = max(16, math.ceil((c / tol) ** (1.0 / (u + 3.0))))
    ks = np.arange(1, k, dtype=float)
    partial = float(np.sum(ks ** (-u)))
    tail = k ** (1.0 - u) / (u - 1.0) + 0.5 * k ** (-u) + u / 12.0 * k ** (-u - 1.0)
    return partial + tail


def deviation_bound(x: float, beta: float) -> float:
    """sqrt(e) zeta(beta(1-1/(2x))) (sqrt(x)/(2 sqrt(2)) + 1)^beta exp(-x).

    Upper bound on the probability that a sigma-subgaussian random walk ever
    exceeds sqrt(2 sigma^2 t (x + beta loglog(e t))); requires beta > 1,
    x >= 8/(e-1)^2 and beta(1-1/(2x)) > 1 (zeta convergence).
    """
    if not beta > 1.0:
        raise DomainError(f"beta must exceed 1, got {beta}")
    if not x >= X_MIN:
        raise DomainError(f"x must be >= 8/(e-1)^2 = {X_MIN:.6f}, got {x}")
    u = beta * (1.0 - 1.0 / (2.0 * x))
    if not u > 1.0:
        raise DomainError(f"beta(1 - 1/(2x)) = {u} must exceed 1")
    return math.sqrt(math.e) * zeta(u) * (math.sqrt(x) / (2.0 * math.sqrt(2.0)) + 1.0) ** beta \
        * math.exp(-x)


def lil_envelope(sigma: float, x: float, beta: float, horizon: int) -> np.ndarray:
    """sqrt(2 sigma^2 t (x + beta loglog(e t))) for t = 1..horizon."""
    t = np.arange(1, horizon + 1, dtype=float)
    return np.sqrt(2.0 * sigma**2 * t * (x + beta * np.log(np.log(math.e * t))))


def empirical_lil_crossing(sigma: float, x: float, beta: float, horizon: int,
                           paths: int, master_seed: int) -> float:
    """Fraction of Gaussian random-walk paths crossing the envelope by ``horizon``.

    A finite-horizon lower estimate of the infinite-horizon crossing
    probability bounded by :func:`deviation_bound`.  Path i reads the PCG64
    stream of ``SeedSequence(master_seed)`` from offset i * 2**64, so the
    estimate is monotone in the horizon for a fixed seed (nested draw
    prefixes).  Paths are scanned in blocks of at most
    ``engine.BLOCK_ELEMENTS`` draws.
    """
    if horizon < 1 or paths < 1:
        raise DomainError("horizon and paths must be >= 1")
    threshold = lil_envelope(sigma, x, beta, horizon)
    rng = make_rng(master_seed)
    root = rng.bit_generator.state
    per_block = max(1, engine.BLOCK_ELEMENTS // horizon)
    crossed = 0
    for lo in range(0, paths, per_block):
        z = np.empty((min(per_block, paths - lo), horizon))
        for i, row in enumerate(z):
            seek(rng.bit_generator, root, lo + i)
            rng.standard_normal(out=row)
        walks = np.cumsum(sigma * z, axis=1)
        crossed += int(np.count_nonzero((walks > threshold).any(axis=1)))
    return crossed / paths
