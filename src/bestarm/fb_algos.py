"""Fixed-budget static strategies and their error bounds.

A static strategy draws n1 and n2 = t - n1 samples from the two arms and
recommends the empirically best one (ties toward arm index 0, matching the
fixed-confidence strategies).  Optimal allocations: sigma1/(sigma1+sigma2)
for Gaussian arms, the g_alpha maximizer for exponential families.
Allocations are clamped to [1, t-1] so both arms are always observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .complexity import _expfam_params, g_alpha, optimal_alpha
from .dists import (  # noqa: F401  (sample_n: re-exported name)
    ExpFamilyArm, Gaussian, _square, gaussian_family, sample_n, sum_sampler)
from .errors import DegenerateInstance, DomainError
from .instances import BanditInstance, require_two_armed
from .engine import RunOutcome, StoppingRule, run_one


@dataclass(frozen=True)
class StaticAllocation:
    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise DomainError(f"both arms need at least one draw, got {self}")

    @property
    def budget(self) -> int:
        return self.n1 + self.n2

    @property
    def alpha(self) -> float:
        return self.n1 / self.budget


def _clamped(n1: int, t: int) -> StaticAllocation:
    """The allocation of budget t >= 2 with n1 clamped to [1, t-1]."""
    if t < 2:
        raise DomainError(f"budget must be at least 2, got {t}")
    n1 = min(max(n1, 1), t - 1)
    return StaticAllocation(n1, t - n1)


def gaussian_allocation(sigma1: float, sigma2: float, t: int) -> StaticAllocation:
    """n1 = ceil(sigma1 t / (sigma1+sigma2)), clamped to [1, t-1]."""
    if sigma1 <= 0 or sigma2 <= 0:
        raise DomainError("standard deviations must be positive")
    return _clamped(math.ceil(sigma1 * t / (sigma1 + sigma2)), t)


def uniform_allocation(t: int) -> StaticAllocation:
    return _clamped(math.ceil(t / 2), t)


def allocations_for(instance: BanditInstance, budgets, policy: str) -> list[StaticAllocation]:
    """The ``policy`` ("uniform" or "optimal") allocation at each budget; alpha* is solved once."""
    require_two_armed(instance)
    if policy == "uniform":
        return [uniform_allocation(t) for t in budgets]
    if policy == "optimal":
        a1, a2 = instance.arms
        if isinstance(a1, Gaussian):
            return [gaussian_allocation(a1.sigma, a2.sigma, t) for t in budgets]
        alpha, _ = optimal_alpha(*_expfam_params(instance))
        return [_clamped(math.ceil(alpha * t), t) for t in budgets]
    raise DomainError(f"unknown allocation policy {policy!r}")


def allocation_for(instance: BanditInstance, t: int, policy: str) -> StaticAllocation:
    """:func:`allocations_for` at one budget; the benchmark's oracles and tracer call it."""
    return allocations_for(instance, (t,), policy)[0]


class StaticRule(StoppingRule):
    """Draw the allocation, recommend the larger empirical mean (tie -> arm 0).

    One step that always stops.  The decision reads only the per-arm sums,
    so a row draws one sum per arm (:func:`bestarm.dists.sum_sampler`).
    """

    def __init__(self, instance: BanditInstance, alloc: StaticAllocation):
        require_two_armed(instance)
        super().__init__(instance, 1, "sums", alloc.n1, alloc.n2)

    def scan(self, shared, sums):
        return np.ones((len(sums[0]), 1), np.bool_)


def run_static(instance: BanditInstance, alloc: StaticAllocation,
               rng: np.random.Generator) -> RunOutcome:
    """Draw the allocation, recommend the larger empirical mean (tie -> arm 0)."""
    return run_one(StaticRule(instance, alloc), rng)


def theoretical_error_bound(instance: BanditInstance, alloc: StaticAllocation) -> float:
    """Closed-form upper bound on the misidentification probability.

    Gaussian: exp(-(sigma1^2/n1 + sigma2^2/n2)^-1 (mu1-mu2)^2 / 2).
    Exponential families: exp(-(n1+n2) g_alpha(theta1, theta2)) with
    alpha = n1/(n1+n2); g_alpha is symmetric under swapping the arms
    together with alpha <-> 1-alpha, so the orientation does not matter.
    """
    require_two_armed(instance)
    a1, a2 = instance.arms
    if isinstance(a1, Gaussian):
        var_hat = a1.variance / alloc.n1 + a2.variance / alloc.n2
        return math.exp(-_square(a1.mean - a2.mean) / (2.0 * var_hat))
    return math.exp(-alloc.budget * g_alpha(*_expfam_params(instance), alloc.alpha))


def tilted_error(instance: BanditInstance, alloc: StaticAllocation, reps: int,
                 rng: np.random.Generator) -> tuple[float, float]:
    """Importance-sampled misidentification probability of a static allocation.

    Returns (estimate, standard error) from ``reps`` replications.  Each arm
    is tilted exponentially to a point where both tilted arms share one mean,
    so about half the tilted runs err, and each error is weighted by the
    exact likelihood ratio of the untilted arms, which depends on a row only
    through its per-arm sums.  Bernoulli and exponential arms tilt both
    natural parameters to alpha*theta1 + (1-alpha)*theta2 with alpha = n1/t,
    the point that attains ``g_alpha``; on the error event the weight is at
    most exp(-t g_alpha).  Gaussian arms shift their means to the common point
    mu1 - Delta w1, w1 = (sigma1^2/n1) / (sigma1^2/n1 + sigma2^2/n2), which
    puts E[mean1 - mean2] at 0.  The tilted arms are of the instance's own
    classes.  The decision is :class:`StaticRule`'s, so ties go to arm 0.  At
    a fixed budget the relative standard error is of order 1/sqrt(reps),
    where plain sampling needs about 1/p replications to see a single error.

    Replication r draws its arm-1 sum then its arm-2 sum, as
    :class:`StaticRule` does, from the stream of ``rng``'s bit generator
    jumped r times from its state on entry (the harness's per-replication
    layout): ``rng``'s bit generator is given each replication's state in
    turn by :func:`bestarm.engine.filled_rows`, so the result does not
    depend on how rows are blocked.  Memory is one float per replication.
    """
    rule = StaticRule(instance, alloc)
    if reps < 1:
        raise DomainError(f"reps must be >= 1, got {reps}")
    a1, a2 = instance.arms
    if a1.mean == a2.mean:
        raise DegenerateInstance("equal means: error probability undefined")
    n1, n2 = alloc.n1, alloc.n2
    if isinstance(a1, Gaussian):
        fams = (gaussian_family(a1.variance), gaussian_family(a2.variance))
        thetas = (a1.mean / a1.variance, a2.mean / a2.variance)
        v1, v2 = a1.variance / n1, a2.variance / n2
        common = a1.mean - (a1.mean - a2.mean) * v1 / (v1 + v2)
        tilts = (common / a1.variance, common / a2.variance)
    else:
        fam, theta1, theta2 = _expfam_params(instance)
        fams, thetas = (fam, fam), (theta1, theta2)
        mix = alloc.alpha * theta1 + (1.0 - alloc.alpha) * theta2
        tilts = (mix, mix)
    tilted = tuple(replace(arm, theta=s) if isinstance(arm, ExpFamilyArm)
                   else replace(arm, mean=f.mean_map(s))
                   for arm, f, s in zip(instance.arms, fams, tilts))
    fill, finish1, finish2 = sum_sampler(tilted, (n1, n2))
    *_, leads = engine.samplers(rule.layout)
    # log dP/dQ of a row = sum_i (theta_i - theta'_i) S_i - n_i (b_i(theta_i) - b_i(theta'_i)),
    # with b(theta) - b(theta') = K(theta', theta) + b'(theta') (theta - theta')
    shift1, shift2 = thetas[0] - tilts[0], thetas[1] - tilts[1]
    offset = sum(n * (f.kl(s, t) + f.mean_map(s) * (t - s))
                 for n, f, t, s in zip((n1, n2), fams, thetas, tilts))
    weighted = np.zeros(reps)  # likelihood ratio on error rows, 0 elsewhere
    for lo, z in engine.filled_rows(rng, reps, 2, fill):
        x, y = finish1(z[:, :1]), finish2(z[:, 1:])
        wrong = leads((x, y), slice(None), 0, 0) != (rule.best_arm == 0)
        log_w = shift1 * x[wrong, 0] + shift2 * y[wrong, 0] - offset
        weighted[lo:lo + len(z)][wrong] = np.exp(log_w)
    estimate = float(weighted.mean())
    std_error = math.sqrt(weighted.var(ddof=1) / reps) if reps > 1 else math.inf
    return estimate, std_error
