"""Bandit instances: ordered arm collections with a best-set target."""

from __future__ import annotations

from dataclasses import dataclass

from .dists import (
    ArmDistribution,
    Bernoulli,
    Gaussian,
    same_family,
)
from .errors import DegenerateInstance, DomainError, FamilyMismatch


@dataclass(frozen=True)
class BanditInstance:
    """K >= 2 arms from one family, of which the m highest-mean ones are sought.

    Arms keep their user-supplied order; a stable sort permutation by
    decreasing mean is derived so rank-based quantities can be computed
    without disturbing user indices.  Identifiability requires the m-th and
    (m+1)-th largest means to differ strictly.
    """

    arms: tuple[ArmDistribution, ...]
    m: int = 1

    def __post_init__(self):
        object.__setattr__(self, "arms", tuple(self.arms))
        if len(self.arms) < 2:
            raise DomainError("a bandit instance needs at least two arms")
        if not (1 <= self.m < len(self.arms)):
            raise DomainError(f"m must satisfy 1 <= m < K, got m={self.m}, K={len(self.arms)}")
        first = self.arms[0]
        for arm in self.arms[1:]:
            if not same_family(first, arm):
                raise FamilyMismatch("all arms must come from the same family")
        mus = self.sorted_means
        if not mus[self.m - 1] > mus[self.m]:
            raise DegenerateInstance(
                f"mu_[{self.m}] == mu_[{self.m + 1}] == {mus[self.m]}: "
                "the best set is not identifiable")

    @property
    def k(self) -> int:
        return len(self.arms)

    @property
    def means(self) -> tuple[float, ...]:
        return tuple(arm.mean for arm in self.arms)

    @property
    def sorted_order(self) -> tuple[int, ...]:
        """Arm indices sorted by decreasing mean (stable in original order)."""
        return tuple(sorted(range(self.k), key=lambda i: (-self.arms[i].mean, i)))

    @property
    def sorted_means(self) -> tuple[float, ...]:
        return tuple(self.arms[i].mean for i in self.sorted_order)

    @property
    def best_set(self) -> frozenset[int]:
        """Original indices of the m best arms."""
        return frozenset(self.sorted_order[: self.m])

    @property
    def best_arm(self) -> int:
        return self.sorted_order[0]

    @property
    def family(self) -> str:
        return self.arms[0].family

    @property
    def is_gaussian(self) -> bool:
        return isinstance(self.arms[0], Gaussian)

    @property
    def is_bernoulli(self) -> bool:
        return isinstance(self.arms[0], Bernoulli)

    def label(self) -> str:
        """Compact comma-free identifier used in experiment records."""
        mus = "|".join(f"{arm.mean:.10g}" for arm in self.arms)
        if self.is_gaussian:
            var = "|".join(f"{arm.variance:.10g}" for arm in self.arms)
            core = f"gaussian({mus};{var})"
        elif self.is_bernoulli:
            core = f"bernoulli({mus})"
        else:
            core = f"{self.family}({mus})"
        return core if self.m == 1 else f"{core};m={self.m}"


def two_armed_gaussian(mu1: float, mu2: float, var1: float, var2: float | None = None) -> BanditInstance:
    if var2 is None:
        var2 = var1
    return BanditInstance((Gaussian(mu1, var1), Gaussian(mu2, var2)))


def two_armed_bernoulli(mu1: float, mu2: float) -> BanditInstance:
    return BanditInstance((Bernoulli(mu1), Bernoulli(mu2)))


def require_two_armed(instance: BanditInstance) -> BanditInstance:
    if instance.k != 2 or instance.m != 1:
        raise DomainError("this operation is defined for two-armed instances with m=1")
    return instance
