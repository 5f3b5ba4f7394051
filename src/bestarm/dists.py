"""Arm distributions, divergences and sampling.

Three arm models are supported:

* ``Gaussian(mean, variance)`` -- known, possibly unequal variances;
* ``Bernoulli(mean)`` -- mean strictly inside (0, 1);
* ``ExpFamilyArm(family, theta)`` -- a canonical one-parameter exponential
  family with density exp(theta*x - b(theta)), described by an
  :class:`ExpFamilyDescriptor` carrying the log-partition ``b``, its
  derivatives and the inverse mean map.

All divergences use natural logarithms.  Bernoulli means are validated to
``[1e-9, 1-1e-9]`` at construction; empirical means produced downstream may
hit 0 or 1 and are handled by the ``0*log(0) = 0`` convention, never by
clamping observed data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Union

import numpy as np

from .errors import DomainError, FamilyMismatch

BERNOULLI_MEAN_MARGIN = 1e-9


# ---------------------------------------------------------------------------
# scalar/array divergence helpers
# ---------------------------------------------------------------------------

def binary_entropy(x):
    """Binary entropy -x log x - (1-x) log(1-x), with 0 log 0 = 0.

    Accepts scalars or numpy arrays in [0, 1]; raises DomainError outside.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"binary_entropy argument outside [0, 1]: {x}")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.where(arr > 0.0, arr * np.log(arr), 0.0) \
              - np.where(arr < 1.0, (1.0 - arr) * np.log1p(-arr), 0.0)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def bernoulli_kl(x, y):
    """Binary relative entropy d(x, y) = x log(x/y) + (1-x) log((1-x)/(1-y)).

    ``x`` may touch 0 or 1 (empirical means; 0 log 0 = 0); ``y`` must lie
    strictly inside (0, 1); NaN lies in neither.  Vectorized over numpy
    arrays.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if not np.all((ya > 0.0) & (ya < 1.0)):
        raise DomainError("bernoulli_kl second argument must lie in (0, 1)")
    if not np.all((xa >= 0.0) & (xa <= 1.0)):
        raise DomainError("bernoulli_kl first argument must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = bernoulli_kl_kernel(xa, ya)
    return float(out) if out.ndim == 0 else out


def bernoulli_kl_kernel(xa: np.ndarray, ya: np.ndarray) -> np.ndarray:
    """:func:`bernoulli_kl` of float arrays already in its domain, as an array.

    It checks nothing and sets no error state, which halves the cost of a
    call on a few elements.  A log1p whose term is dropped (x at 0 or 1)
    reads 0, so no floating-point warning is raised unless x/y rounds
    to 0 or (1-x)/(1-y) does.
    """
    # log1p keeps each term accurate relative to its size; where |h| is below
    # 1e-6 min(y, 1-y) the two terms still cancel to rounding noise (the sum
    # could come out negative), and the third-order Taylor series in
    # a = -h/y, b = h/(1-y) is used instead: d = sum_k [y a^k + (1-y) b^k] / (k(k-1)).
    h = xa - ya
    out = np.asarray(xa * np.log1p(np.where(xa > 0.0, h / ya, 0.0))
                     + (1.0 - xa) * np.log1p(np.where(xa < 1.0, -h / (1.0 - ya), 0.0)))
    near = np.abs(h) < 1e-6 * np.minimum(ya, 1.0 - ya)
    if np.any(near):
        y = np.broadcast_to(ya, near.shape)[near]
        a = -h[near] / y
        b = h[near] / (1.0 - y)
        out[near] = y * a * a * (0.5 + a / 6.0) + (1.0 - y) * b * b * (0.5 + b / 6.0)
    return out


def gaussian_kl(mu1: float, var1: float, mu2: float, var2: float) -> float:
    """KL(N(mu1, var1) || N(mu2, var2)) in closed form."""
    ratio = var1 / var2
    return (mu1 - mu2) ** 2 / (2.0 * var2) + 0.5 * (ratio - 1.0 - math.log(ratio))


# ---------------------------------------------------------------------------
# one-parameter exponential families
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExpFamilyDescriptor:
    """Canonical one-parameter exponential family exp(theta*x - b(theta)).

    ``log_partition`` must be strictly convex on the open natural domain
    ``theta_domain`` (variance_map > 0 everywhere), which makes ``mean_map``
    strictly increasing and ``nat_of_mean`` its inverse.  ``divergence``,
    where given, is the family's KL in a form that keeps its accuracy
    between near-equal members, where the Bregman form's terms cancel.
    Descriptors are compared by ``family_id``.
    """

    family_id: str
    log_partition: Callable[[float], float]
    mean_map: Callable[[float], float]
    variance_map: Callable[[float], float]
    nat_of_mean: Callable[[float], float]
    theta_domain: tuple[float, float]
    mean_domain: tuple[float, float]
    known_variance: float | None = None  # sampling parameter for gaussian_kv
    divergence: Callable[[float, float], float] | None = None

    def check_theta(self, theta: float) -> float:
        lo, hi = self.theta_domain
        if not (lo < theta < hi) or not math.isfinite(theta):
            raise DomainError(
                f"theta={theta} outside the open natural domain {self.theta_domain} "
                f"of family {self.family_id}")
        return float(theta)

    def check_mean(self, mu: float) -> float:
        lo, hi = self.mean_domain
        if not (lo < mu < hi) or not math.isfinite(mu):
            raise DomainError(
                f"mean={mu} outside the open mean range {self.mean_domain} "
                f"of family {self.family_id}")
        return float(mu)

    def kl(self, theta1: float, theta2: float) -> float:
        """KL between members: ``divergence``, else the Bregman form b(t2)-b(t1)-b'(t1)(t2-t1)."""
        if self.divergence is not None:
            return self.divergence(theta1, theta2)
        b = self.log_partition
        return b(theta2) - b(theta1) - self.mean_map(theta1) * (theta2 - theta1)

    def same_family(self, other: "ExpFamilyDescriptor") -> bool:
        return self.family_id == other.family_id


def _bern_b(theta: float) -> float:
    # log(1 + e^theta), overflow-safe
    if theta > 35.0:
        return theta + math.log1p(math.exp(-theta))
    return math.log1p(math.exp(theta))


def _bern_mean(theta: float) -> float:
    if theta >= 0:
        return 1.0 / (1.0 + math.exp(-theta))
    e = math.exp(theta)
    return e / (1.0 + e)


def _bern_var(theta: float) -> float:
    m = _bern_mean(theta)
    return m * (1.0 - m)


def _bern_nat(mu: float) -> float:
    return math.log(mu / (1.0 - mu))


def _gauss_b(theta: float, variance: float) -> float:
    return 0.5 * variance * theta * theta


def _gauss_mean(theta: float, variance: float) -> float:
    return variance * theta


def _gauss_var(theta: float, variance: float) -> float:
    return variance


def _gauss_nat(mu: float, variance: float) -> float:
    return mu / variance


def _expo_b(theta: float) -> float:
    return -math.log(-theta)


def _expo_mean(theta: float) -> float:
    return -1.0 / theta


def _expo_var(theta: float) -> float:
    return 1.0 / (theta * theta)


def _expo_nat(mu: float) -> float:
    return -1.0 / mu


def _expo_kl(theta1: float, theta2: float) -> float:
    # the Bregman form is x - log1p(x) with x = theta2/theta1 - 1 (= mu1/mu2 - 1),
    # whose terms are of order x and cancel to x^2/2: below |x| = 1e-3, where the
    # cancellation would cost over 4e-13 relative, Taylor's series to x^7 is
    # exact to 3e-19 relative.  Towards x = -1, log1p(x) would magnify the
    # rounding of x, and the log of the ratio is the accurate form.
    x = (theta2 - theta1) / theta1
    if abs(x) < 1e-3:
        return x * x * (0.5 - x * (1 / 3 - x * (0.25 - x * (0.2 - x * (1 / 6 - x / 7)))))
    return x - (math.log1p(x) if x > -0.5 else math.log(theta2 / theta1))


BERNOULLI_FAMILY = ExpFamilyDescriptor(
    family_id="bernoulli",
    log_partition=_bern_b,
    mean_map=_bern_mean,
    variance_map=_bern_var,
    nat_of_mean=_bern_nat,
    theta_domain=(-math.inf, math.inf),
    mean_domain=(0.0, 1.0),
)

#: Exponential distributions with rate -theta; b is Fenchel self-conjugate
#: (up to affine terms), which makes the reversed and plain Chernoff
#: quantities coincide -- useful as an invariant probe.
EXPONENTIAL_FAMILY = ExpFamilyDescriptor(
    family_id="exponential",
    log_partition=_expo_b,
    mean_map=_expo_mean,
    variance_map=_expo_var,
    nat_of_mean=_expo_nat,
    theta_domain=(-math.inf, 0.0),
    mean_domain=(0.0, math.inf),
    divergence=_expo_kl,
)


def gaussian_family(variance: float) -> ExpFamilyDescriptor:
    """Gaussian location family with known variance, as an exponential family."""
    if not (variance > 0.0) or not math.isfinite(variance):
        raise DomainError(f"variance must be positive, got {variance}")
    return ExpFamilyDescriptor(
        family_id=f"gaussian_kv({variance:.17g})",
        log_partition=partial(_gauss_b, variance=variance),
        mean_map=partial(_gauss_mean, variance=variance),
        variance_map=partial(_gauss_var, variance=variance),
        nat_of_mean=partial(_gauss_nat, variance=variance),
        theta_domain=(-math.inf, math.inf),
        mean_domain=(-math.inf, math.inf),
        known_variance=variance,
    )


def nat_to_mean(fam: ExpFamilyDescriptor, theta: float) -> float:
    """Mean map b'(theta); DomainError outside the open natural domain."""
    return fam.mean_map(fam.check_theta(theta))


def mean_to_nat(fam: ExpFamilyDescriptor, mu: float) -> float:
    """Inverse mean map in closed form per family."""
    return fam.nat_of_mean(fam.check_mean(mu))


# ---------------------------------------------------------------------------
# arm distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gaussian:
    mean: float
    variance: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise DomainError(f"Gaussian mean must be finite, got {self.mean}")
        if not (self.variance > 0.0) or not math.isfinite(self.variance):
            raise DomainError(f"Gaussian variance must be > 0, got {self.variance}")

    @property
    def family(self) -> str:
        return "gaussian"

    @property
    def sigma(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class Bernoulli:
    mean: float

    def __post_init__(self):
        lo = BERNOULLI_MEAN_MARGIN
        if not (lo <= self.mean <= 1.0 - lo):
            raise DomainError(
                f"Bernoulli mean must lie in [{lo}, {1 - lo}], got {self.mean}")

    @property
    def family(self) -> str:
        return "bernoulli"

    @property
    def theta(self) -> float:
        return _bern_nat(self.mean)


@dataclass(frozen=True)
class ExpFamilyArm:
    family_desc: ExpFamilyDescriptor
    theta: float

    def __post_init__(self):
        self.family_desc.check_theta(self.theta)

    @property
    def family(self) -> str:
        return self.family_desc.family_id

    @property
    def mean(self) -> float:
        return self.family_desc.mean_map(self.theta)


ArmDistribution = Union[Gaussian, Bernoulli, ExpFamilyArm]


def same_family(p: ArmDistribution, q: ArmDistribution) -> bool:
    if type(p) is not type(q):
        return False
    if isinstance(p, ExpFamilyArm):
        return p.family_desc.same_family(q.family_desc)
    return True


def _law(dist: ArmDistribution) -> tuple:
    """("gaussian", mean, sd), ("bernoulli", p) or ("exponential", scale) of one arm."""
    if isinstance(dist, ExpFamilyArm):
        fid = dist.family_desc.family_id
        if fid.startswith("gaussian_kv"):
            return "gaussian", dist.mean, math.sqrt(dist.family_desc.known_variance)
        if fid in ("bernoulli", "exponential"):
            return fid, dist.mean
        raise DomainError(f"no sampler for exponential family {fid!r}")
    if isinstance(dist, Gaussian):
        return "gaussian", dist.mean, dist.sigma
    if isinstance(dist, Bernoulli):
        return "bernoulli", dist.mean
    raise FamilyMismatch(f"not an arm distribution: {dist!r}")


def sampler(dist: ArmDistribution):
    """(fill, finish) for one arm: ``fill(rng, out)`` writes standard variates
    into ``out`` and ``finish(raw)`` maps an array of them to draws.

    Splitting the two lets a caller fill many rows, each from its own
    stream, and finish them all in one pass; draws equal :func:`sample_n`'s.
    Arms of one standard law share one ``fill`` object, so a caller can
    fill both arms' variates in one call where ``fill1 is fill2``.
    """
    kind, *params = _law(dist)
    if kind == "gaussian":
        mean, sd = params
        return _fill_normal, lambda z: mean + sd * z
    if kind == "bernoulli":
        p, = params
        return _fill_uniform, lambda u: (u < p).astype(float)
    scale, = params
    return _fill_exponential, lambda e: scale * e


def sum_sampler(dist: ArmDistribution, n: int):
    """(fill, finish), as :func:`sampler`, of the sum of n draws from one arm.

    ``fill(rng, out)`` writes one variate into the one-element ``out``, and
    the finished draw is exact in law: N(n mean, n sd^2) for Gaussian arms,
    binomial(n, p) for Bernoulli arms and scale * Gamma(n) for exponential
    arms.  Scalar draws: numpy's size/out handling costs more than a
    binomial or gamma variate at these sizes.
    """
    kind, *params = _law(dist)
    if kind == "gaussian":
        mean, sd = params
        mean, sd = n * mean, math.sqrt(n) * sd

        def fill(rng, out):
            out[0] = rng.standard_normal()
        return fill, lambda z: mean + sd * z
    if kind == "bernoulli":
        p, = params

        def fill(rng, out):
            out[0] = rng.binomial(n, p)
        return fill, _identity
    scale, = params

    def fill(rng, out):
        out[0] = rng.standard_gamma(n)
    return fill, lambda g: scale * g


def _identity(x):
    return x


def _fill_uniform(rng, out):
    rng.random(out=out)


def _fill_normal(rng, out):
    rng.standard_normal(out=out)


def _fill_exponential(rng, out):
    rng.standard_exponential(out=out)


def sample_n(dist: ArmDistribution, rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. draws from one arm (float array)."""
    fill, finish = sampler(dist)
    raw = np.empty(n)
    fill(rng, raw)
    return finish(raw)


def kl(p: ArmDistribution, q: ArmDistribution) -> float:
    """KL divergence K(p, q) between two arms of the same family.

    Gaussian: (mu1-mu2)^2/(2 var2) + [var1/var2 - 1 - log(var1/var2)]/2.
    Bernoulli: binary relative entropy d(mu1, mu2).
    Exponential family: the family's divergence (Bregman form of the
    log-partition unless it has its own).
    """
    if not same_family(p, q):
        raise FamilyMismatch(f"cannot take KL between {p!r} and {q!r}")
    if isinstance(p, Gaussian):
        return gaussian_kl(p.mean, p.variance, q.mean, q.variance)
    if isinstance(p, Bernoulli):
        return float(bernoulli_kl(p.mean, q.mean))
    return p.family_desc.kl(p.theta, q.theta)
