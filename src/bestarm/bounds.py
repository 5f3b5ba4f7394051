"""Lower-bound formulas and adversarial modified instances.

Fixed confidence: the generic K-armed bound (valid for delta <= 0.15 under
the identifiability assumption on the arm class; computing it for an
instance presumes that assumption holds for the surrounding class), its
epsilon-relaxed Bernoulli variant, and the sharper two-armed pair based on
c_* and I_*.

Fixed budget: the Gaussian gap quantities H, H2, H', H+, H-, Htilde, the
modified instances nu^[a] and nu^[a,b] whose best set differs from the
original, and the resulting error lower bounds exp(-4t/H') (m=1) and
exp(-4t/Htilde)/4 (general m).  The H'-family quantities are stated by the
theory for common-variance Gaussian models only, so requesting them for
another family is a DomainError rather than a silent subgaussian
approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .complexity import _in_range, c_star_fc, i_star_fc
from .dists import bernoulli_kl, kl
from .errors import DomainError
from .instances import BanditInstance, require_two_armed

DELTA_MAX = 0.15


@dataclass(frozen=True)
class GapProfile:
    """Per-arm gaps and the derived hardness sums for one (instance, m).

    ``gaps`` follows the user arm order.  ``h`` = sum 1/gap^2 and ``h2`` are
    mean-only quantities; the 2 sigma^2-scaled ``h_prime``/``h_plus``/
    ``h_minus``/``h_tilde`` are present only for common-variance Gaussian
    instances (None otherwise).  h = h_plus + h_minus and
    h_tilde = h*min(h+,h-)/(h+min(h+,h-)) up to the sigma^2 scaling of the
    plus/minus terms.
    """

    gaps: tuple[float, ...]
    h: float
    h2: float
    h_prime: float | None
    h_plus: float | None
    h_minus: float | None
    h_tilde: float | None


def _gaps(instance: BanditInstance) -> tuple[float, ...]:
    order = instance.sorted_order
    mus = instance.means
    mu_m = mus[order[instance.m - 1]]
    mu_m1 = mus[order[instance.m]]
    best = instance.best_set
    return tuple(
        (mu - mu_m1) if i in best else (mu_m - mu)
        for i, mu in enumerate(mus)
    )


def gap_profile(instance: BanditInstance, sigma2: float | None = None) -> GapProfile:
    """Gap quantities of an instance; Gaussian-only sums need a common sigma^2.

    ``sigma2`` defaults to the arms' shared variance for Gaussian instances;
    passing it for a non-Gaussian instance raises DomainError.
    """
    gaps = _gaps(instance)
    h = sum(1.0 / g**2 for g in gaps)
    mus_sorted = instance.sorted_means
    mu_best = mus_sorted[0]
    h2 = max(
        (rank + 1) / (mu_best - mu) ** 2
        for rank, mu in enumerate(mus_sorted)
        if mu < mu_best
    )

    if not instance.is_gaussian:
        if sigma2 is not None:
            raise DomainError(
                "H', H+, H-, Htilde are defined for common-variance Gaussian "
                "instances only; refusing a subgaussian approximation")
        return GapProfile(gaps, h, h2, None, None, None, None)

    variances = {arm.variance for arm in instance.arms}
    if sigma2 is None:
        if len(variances) != 1:
            raise DomainError("arms have unequal variances; pass sigma2 explicitly")
        sigma2 = variances.pop()
    if not sigma2 > 0:
        raise DomainError(f"sigma2 must be positive, got {sigma2}")

    order = instance.sorted_order
    mus = instance.means
    m = instance.m
    mu_m = mus[order[m - 1]]
    mu_m1 = mus[order[m]]
    h_prime = sum(2.0 * sigma2 / (mu_best - mus[i]) ** 2 for i in order[1:])
    h_plus = sum(2.0 * sigma2 / (mus[i] - mu_m1) ** 2 for i in order[:m])
    h_minus = sum(2.0 * sigma2 / (mu_m - mus[i]) ** 2 for i in order[m:])
    h_total = h_plus + h_minus
    h_min = min(h_plus, h_minus)
    h_tilde = h_total * h_min / (h_total + h_min)
    return GapProfile(gaps, h, h2, h_prime, h_plus, h_minus, h_tilde)


def _check_delta(delta: float) -> float:
    if not (0.0 < delta <= DELTA_MAX):
        raise DomainError(
            f"the bound requires 0 < delta <= {DELTA_MAX}, got {delta}")
    return delta


def fc_lower_bound_general(instance: BanditInstance, delta: float) -> float:
    """Generic fixed-confidence bound on E[tau] for any delta-PAC algorithm.

    [sum_{a in S*} 1/K(nu_a, nu_[m+1]) + sum_{a not in S*} 1/K(nu_a, nu_[m])]
    * log(1/(2 delta)), where nu_[j] is the j-th best arm's distribution.
    """
    _check_delta(delta)
    order = instance.sorted_order
    arm_m = instance.arms[order[instance.m - 1]]
    arm_m1 = instance.arms[order[instance.m]]
    best = instance.best_set
    total = 0.0
    for i, arm in enumerate(instance.arms):
        divergence = kl(arm, arm_m1 if i in best else arm_m)
        total += 1.0 / divergence if divergence else math.inf  # 0: it underflowed
    return _in_range("fc_general", total * math.log(1.0 / (2.0 * delta)), instance)


def fc_lower_bound_eps_relaxed(instance: BanditInstance, eps: float, delta: float) -> float:
    """Epsilon-relaxed bound for Bernoulli single-best-arm identification.

    [(|{a: mu_a >= mu_[1]-eps}| - 1)/d(mu_[1], mu_[1]-eps)
     + sum_{a: mu_a <= mu_[1]-eps} 1/d(mu_a, mu_[1]+eps)] * log(1/(2 delta)).
    """
    _check_delta(delta)
    if not instance.is_bernoulli:
        raise DomainError("the epsilon-relaxed bound is stated for Bernoulli arms")
    if instance.m != 1:
        raise DomainError("the epsilon-relaxed bound is stated for m=1")
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    mu_best = instance.sorted_means[0]
    if not (0.0 < mu_best - eps < mu_best < mu_best + eps < 1.0):
        raise DomainError(f"mu_[1] +- eps must stay inside (0, 1) and differ from "
                          f"mu_[1] as doubles: mu_[1]={mu_best}, eps={eps}")
    mus = instance.means
    near = sum(1 for mu in mus if mu >= mu_best - eps)
    total = (near - 1) / float(bernoulli_kl(mu_best, mu_best - eps))
    for mu in mus:
        if mu <= mu_best - eps:
            total += 1.0 / float(bernoulli_kl(mu, mu_best + eps))
    return total * math.log(1.0 / (2.0 * delta))


def fc_two_armed_bounds(instance: BanditInstance, delta: float) -> tuple[float, float]:
    """(general, uniform-sampling) two-armed bounds on E[tau].

    log(1/(2 delta)) / c_star_fc for any delta-PAC algorithm and
    log(1/(2 delta)) / i_star_fc for those sampling uniformly.
    """
    require_two_armed(instance)
    _check_delta(delta)
    log_term = math.log(1.0 / (2.0 * delta))
    c_value, _ = c_star_fc(instance)
    return (_in_range("fc_two_armed_general", log_term / c_value, instance),
            _in_range("fc_two_armed_uniform", log_term / i_star_fc(instance), instance))


def fb_modified_instance(instance: BanditInstance, a: int, b: int | None = None) -> BanditInstance:
    """Adversarial Gaussian instance nu^[a] (b=None) or nu^[a,b].

    Indices are 1-based ranks in the sorted-by-mean order, as in the bound
    statements: nu^[a] needs m=1 and a >= 2, and moves mu_a up by 2*Delta_a;
    nu^[a,b] needs a in the best set and b outside it, and swaps their roles
    by moving mu_a down by 2*Delta_b and mu_b up by 2*Delta_a.  The returned
    instance keeps the user arm order and always has a different best set.
    """
    if not instance.is_gaussian:
        raise DomainError("modified instances are defined for Gaussian models")
    order = instance.sorted_order
    k, m = instance.k, instance.m
    gaps = _gaps(instance)
    arms = list(instance.arms)
    if b is None:
        if m != 1:
            raise DomainError("nu^[a] requires m=1")
        if not 2 <= a <= k:
            raise DomainError(f"nu^[a] requires 2 <= a <= K, got a={a}")
        idx = order[a - 1]
        arms[idx] = replace(arms[idx], mean=arms[idx].mean + 2.0 * gaps[idx])
    else:
        if not 1 <= a <= m:
            raise DomainError(f"nu^[a,b] requires 1 <= a <= m, got a={a}")
        if not m + 1 <= b <= k:
            raise DomainError(f"nu^[a,b] requires m+1 <= b <= K, got b={b}")
        ia, ib = order[a - 1], order[b - 1]
        arms[ia] = replace(arms[ia], mean=arms[ia].mean - 2.0 * gaps[ib])
        arms[ib] = replace(arms[ib], mean=arms[ib].mean + 2.0 * gaps[ia])
    return BanditInstance(tuple(arms), m=m)


def fb_error_lower_bounds(profile: GapProfile, t: int) -> tuple[float, float]:
    """Fixed-budget error lower bounds (exp(-4t/H'), exp(-4t/Htilde)/4).

    The first applies to m=1, the second to general m; both hold for the
    pair (instance, modified instance) in the max sense.  An H that
    underflows to 0 gives exp(-4t/H)'s limit: 1 at t = 0 and 0 after.
    """
    if profile.h_prime is None or profile.h_tilde is None:
        raise DomainError("profile lacks the Gaussian-only quantities H', Htilde")
    if t < 0:
        raise DomainError(f"budget must be nonnegative, got {t}")

    def decay(h: float) -> float:
        return math.exp(-4.0 * t / h) if h else float(t == 0)
    return decay(profile.h_prime), 0.25 * decay(profile.h_tilde)
