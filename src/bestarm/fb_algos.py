"""Fixed-budget static strategies and their error bounds.

A static strategy draws n1 and n2 = t - n1 samples from the two arms and
recommends the empirically best one (ties toward arm index 0, matching the
fixed-confidence strategies).  Optimal allocations: sigma1/(sigma1+sigma2)
for Gaussian arms, the g_alpha maximizer for exponential families.
Allocations are clamped to [1, t-1] so both arms are always observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexity import g_alpha, optimal_alpha
from .dists import (  # noqa: F401  (sample_n: re-exported name)
    BERNOULLI_FAMILY, Bernoulli, ExpFamilyArm, Gaussian, sample_n)
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


def _clamp_n1(n1: int, t: int) -> int:
    return min(max(n1, 1), t - 1)


def gaussian_allocation(sigma1: float, sigma2: float, t: int) -> StaticAllocation:
    """n1 = ceil(sigma1 t / (sigma1+sigma2)), clamped to [1, t-1]."""
    if t < 2:
        raise DomainError(f"budget must be at least 2, got {t}")
    if sigma1 <= 0 or sigma2 <= 0:
        raise DomainError("standard deviations must be positive")
    n1 = _clamp_n1(math.ceil(sigma1 * t / (sigma1 + sigma2)), t)
    return StaticAllocation(n1, t - n1)


def expfam_allocation(fam, theta1: float, theta2: float, t: int) -> StaticAllocation:
    """n1 = ceil(alpha* t) with alpha* the g_alpha maximizer, clamped."""
    if t < 2:
        raise DomainError(f"budget must be at least 2, got {t}")
    alpha, _ = optimal_alpha(fam, theta1, theta2)
    n1 = _clamp_n1(math.ceil(alpha * t), t)
    return StaticAllocation(n1, t - n1)


def uniform_allocation(t: int) -> StaticAllocation:
    if t < 2:
        raise DomainError(f"budget must be at least 2, got {t}")
    n1 = _clamp_n1(math.ceil(t / 2), t)
    return StaticAllocation(n1, t - n1)


def allocation_for(instance: BanditInstance, t: int, policy: str) -> StaticAllocation:
    """Resolve a named allocation policy ("uniform" or "optimal") for an instance."""
    require_two_armed(instance)
    if policy == "uniform":
        return uniform_allocation(t)
    if policy == "optimal":
        a1, a2 = instance.arms
        if a1.mean == a2.mean:
            raise DegenerateInstance("equal means: no optimal allocation")
        if isinstance(a1, Gaussian):
            return gaussian_allocation(a1.sigma, a2.sigma, t)
        if isinstance(a1, Bernoulli):
            return expfam_allocation(BERNOULLI_FAMILY, a1.theta, a2.theta, t)
        if isinstance(a1, ExpFamilyArm):
            return expfam_allocation(a1.family_desc, a1.theta, a2.theta, t)
        raise DomainError(f"unsupported family {instance.family!r}")
    raise DomainError(f"unknown allocation policy {policy!r}")


class StaticRule(StoppingRule):
    """Draw the allocation, recommend the larger empirical mean (tie -> arm 0).

    One step that always stops: the engine draws n1 then n2 samples per row.
    """

    def __init__(self, instance: BanditInstance, alloc: StaticAllocation):
        require_two_armed(instance)
        super().__init__(instance, 1)
        self.alloc = alloc

    def chunk(self, done, n):
        return self.alloc.n1, self.alloc.n2, None

    def scan(self, shared, carry, x, y):
        leads = (x.sum(axis=1) / self.alloc.n1 >= y.sum(axis=1) / self.alloc.n2)[:, None]
        return np.ones_like(leads), leads, carry

    def draws(self, steps):
        return self.alloc.budget, self.alloc.n1


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
    if a1.mean == a2.mean:
        raise DegenerateInstance("equal means: error bound undefined")
    if isinstance(a1, Gaussian):
        var_hat = a1.variance / alloc.n1 + a2.variance / alloc.n2
        return math.exp(-((a1.mean - a2.mean) ** 2) / (2.0 * var_hat))
    if isinstance(a1, Bernoulli):
        fam, t1, t2 = BERNOULLI_FAMILY, a1.theta, a2.theta
    elif isinstance(a1, ExpFamilyArm):
        fam, t1, t2 = a1.family_desc, a1.theta, a2.theta
    else:
        raise DomainError(f"unsupported family {instance.family!r}")
    return math.exp(-alloc.budget * g_alpha(fam, t1, t2, alloc.alpha))
