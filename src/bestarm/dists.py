"""Arm distributions, divergences and sampling.

Three arm models are supported:

* ``Gaussian(mean, variance)`` -- known, possibly unequal variances;
* ``Bernoulli(mean)`` -- mean strictly inside (0, 1);
* ``ExpFamilyArm(family, theta)`` -- a canonical one-parameter exponential
  family with density exp(theta*x - b(theta)), described by an
  :class:`ExpFamilyDescriptor` carrying the mean map b', its inverse and
  the family's divergence.  Only exponential arms of this kind sample;
  Gaussian and Bernoulli arms sample as their own classes.

All divergences use natural logarithms.  Bernoulli means are validated to
``[1e-9, 1-1e-9]`` at construction; empirical means produced downstream may
hit 0 or 1 and are handled by the ``0*log(0) = 0`` convention, never by
clamping observed data.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
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
    reads 0, so no floating-point warning is raised unless 1 + (x-y)/y
    rounds to 0 or 1 - (x-y)/(1-y) does; that term is then recomputed as
    x log(x/y) (or (1-x) log((1-x)/(1-y))).
    """
    # log1p keeps each term accurate relative to its size; where |h| is below
    # 1e-6 min(y, 1-y) the two terms still cancel to rounding noise (the sum
    # could come out negative), and the third-order Taylor series in
    # a = -h/y, b = h/(1-y) is used instead: d = sum_k [y a^k + (1-y) b^k] / (k(k-1)).
    h = xa - ya
    out = np.asarray(xa * np.log1p(np.where(xa > 0.0, h / ya, 0.0))
                     + (1.0 - xa) * np.log1p(np.where(xa < 1.0, -h / (1.0 - ya), 0.0)))
    lost = np.isneginf(out)
    if lost.any():
        # x/y (or (1-x)/(1-y)) below 2**-54: h/y rounds to -1 and log1p
        # reads -inf, while the log of the ratio itself is accurate there
        x, y, hl = (np.broadcast_to(a, lost.shape)[lost] for a in (xa, ya, h))
        r1, r2 = hl / y, -hl / (1.0 - y)
        out[lost] = (x * np.where(r1 == -1.0, np.log(x / y), np.log1p(r1))
                     + (1.0 - x) * np.where(r2 == -1.0, np.log((1.0 - x) / (1.0 - y)),
                                            np.log1p(r2)))
    near = np.abs(h) < 1e-6 * np.minimum(ya, 1.0 - ya)
    if near.any():
        y = np.broadcast_to(ya, near.shape)[near]
        a = -h[near] / y
        b = h[near] / (1.0 - y)
        out[near] = y * a * a * (0.5 + a / 6.0) + (1.0 - y) * b * b * (0.5 + b / 6.0)
    return out


def _square(x: float) -> float:
    """x ** 2, or inf where ``**`` would raise OverflowError."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def gaussian_kl(mu1: float, var1: float, mu2: float, var2: float) -> float:
    """KL(N(mu1, var1) || N(mu2, var2)) in closed form; inf past the largest double.

    Where var1/var2 falls below the normal doubles its log is the difference
    of the variances' logs, and where it overflows the divergence is inf.
    """
    ratio = var1 / var2
    if ratio == math.inf:
        return math.inf
    log_ratio = (math.log(ratio) if ratio >= sys.float_info.min
                 else math.log(var1) - math.log(var2))
    return _square(mu1 - mu2) / (2.0 * var2) + 0.5 * (ratio - 1.0 - log_ratio)


# ---------------------------------------------------------------------------
# one-parameter exponential families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpFamilyDescriptor:
    """Canonical one-parameter exponential family exp(theta*x - b(theta)).

    b is strictly convex on the open natural domain ``theta_domain``, so
    ``mean_map`` (b') is strictly increasing and ``nat_of_mean`` is its
    inverse.  ``kl(theta1, theta2)`` is the family's divergence, equal to
    b(theta2) - b(theta1) - b'(theta1)(theta2 - theta1) but in a form that
    keeps its accuracy between near-equal members, where the terms of that
    Bregman form cancel.  Descriptors are compared and hashed by
    ``family_id`` and their domains, never by their functions, so an
    unpickled descriptor equals the one it was pickled from.
    """

    family_id: str
    mean_map: Callable[[float], float] = field(compare=False)
    nat_of_mean: Callable[[float], float] = field(compare=False)
    theta_domain: tuple[float, float]
    mean_domain: tuple[float, float]
    kl: Callable[[float, float], float] = field(compare=False)

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


def _bern_b(theta: float) -> float:
    # log(1 + e^theta), overflow-safe
    if theta > 35.0:
        return theta + math.log1p(math.exp(-theta))
    return math.log1p(math.exp(theta))


def _bern_mean(theta: float) -> float:
    return _bern_means(theta)[0]


def _bern_means(theta: float) -> tuple[float, float]:
    """(mean, 1 - mean) at theta, each to full relative accuracy, from one exp."""
    e = math.exp(-abs(theta))
    big, small = 1.0 / (1.0 + e), e / (1.0 + e)
    return (big, small) if theta >= 0 else (small, big)


def _bern_kl(theta1: float, theta2: float) -> float:
    # d(x, y) of the means as bernoulli_kl_kernel takes it (log1p terms, and
    # its third-order series where those cancel), with h from the means' small
    # side of 1/2.  A log1p argument leaves (-1, inf) where one mean is below
    # 2^-53 times the other, or 0; the log of that ratio then comes from the
    # natural parameters, log x = theta - b(theta) and log(1 - x) = -b(theta).
    x, x_bar = _bern_means(theta1)
    y, y_bar = _bern_means(theta2)
    h = x - y if y <= 0.5 else y_bar - x_bar
    if abs(h) < 1e-6 * min(y, y_bar):
        a, b = -h / y, h / y_bar
        return y * a * a * (0.5 + a / 6.0) + y_bar * b * b * (0.5 + b / 6.0)
    r1 = h / y if y else math.inf
    r2 = -h / y_bar if y_bar else math.inf
    log1 = (math.log1p(r1) if -1.0 < r1 < math.inf
            else (theta1 - _bern_b(theta1)) - (theta2 - _bern_b(theta2)))
    log2 = math.log1p(r2) if -1.0 < r2 < math.inf else _bern_b(theta2) - _bern_b(theta1)
    # past |theta| of about 745 a subnormal mean leaves one unit of noise of
    # either sign where d is below the smallest subnormal
    return max(x * log1 + x_bar * log2, 0.0)


def _bern_nat(mu: float) -> float:
    return math.log(mu / (1.0 - mu))


def _gauss_kl(theta1: float, theta2: float, variance: float) -> float:
    return 0.5 * variance * _square(theta1 - theta2)


def _gauss_mean(theta: float, variance: float) -> float:
    return variance * theta


def _gauss_nat(mu: float, variance: float) -> float:
    return mu / variance


def _expo_mean(theta: float) -> float:
    return -1.0 / theta


def _expo_nat(mu: float) -> float:
    return -1.0 / mu


def _expo_kl(theta1: float, theta2: float) -> float:
    # the Bregman form is x - log1p(x) with x = theta2/theta1 - 1 (= mu1/mu2 - 1),
    # whose terms are of order x and cancel to x^2/2: below |x| = 1e-3, where the
    # cancellation would cost over 4e-13 relative, Taylor's series to x^7 is
    # exact to 3e-19 relative.  Towards x = -1, log1p(x) would magnify the
    # rounding of x, and the log of the ratio is the accurate form, or the
    # difference of logs where the ratio is below the normal doubles.
    x = (theta2 - theta1) / theta1
    if abs(x) < 1e-3:
        return x * x * (0.5 - x * (1 / 3 - x * (0.25 - x * (0.2 - x * (1 / 6 - x / 7)))))
    if x > -0.5:
        return x - math.log1p(x) if x < math.inf else x
    ratio = theta2 / theta1
    return x - (math.log(ratio) if ratio >= sys.float_info.min
                else math.log(-theta2) - math.log(-theta1))


BERNOULLI_FAMILY = ExpFamilyDescriptor(
    family_id="bernoulli",
    mean_map=_bern_mean,
    nat_of_mean=_bern_nat,
    theta_domain=(-math.inf, math.inf),
    mean_domain=(0.0, 1.0),
    kl=_bern_kl,
)

#: Exponential distributions with rate -theta; b is Fenchel self-conjugate
#: (up to affine terms), which makes the reversed and plain Chernoff
#: quantities coincide -- useful as an invariant probe.
EXPONENTIAL_FAMILY = ExpFamilyDescriptor(
    family_id="exponential",
    mean_map=_expo_mean,
    nat_of_mean=_expo_nat,
    theta_domain=(-math.inf, 0.0),
    mean_domain=(0.0, math.inf),
    kl=_expo_kl,
)


def gaussian_family(variance: float) -> ExpFamilyDescriptor:
    """Gaussian location family with known variance, as an exponential family."""
    if not (variance > 0.0) or not math.isfinite(variance):
        raise DomainError(f"variance must be positive, got {variance}")
    return ExpFamilyDescriptor(
        family_id=f"gaussian_kv({variance:.17g})",
        mean_map=partial(_gauss_mean, variance=variance),
        nat_of_mean=partial(_gauss_nat, variance=variance),
        theta_domain=(-math.inf, math.inf),
        mean_domain=(-math.inf, math.inf),
        kl=partial(_gauss_kl, variance=variance),
    )


def nat_to_mean(fam: ExpFamilyDescriptor, theta: float) -> float:
    """Mean map b'(theta); DomainError outside the open natural domain."""
    return fam.mean_map(fam.check_theta(theta))


def mean_to_nat(fam: ExpFamilyDescriptor, mu: float) -> float:
    """Inverse mean map in closed form per family; DomainError where it is not finite."""
    theta = fam.nat_of_mean(fam.check_mean(mu))
    if not math.isfinite(theta):
        raise DomainError(f"mean={mu} has no finite natural parameter in family {fam.family_id}")
    return theta


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
        return p.family_desc.family_id == q.family_desc.family_id
    return True


def _law(dist: ArmDistribution) -> tuple:
    """("gaussian", mean, sd), ("bernoulli", p) or ("exponential", scale) of one arm."""
    if isinstance(dist, Gaussian):
        return "gaussian", dist.mean, dist.sigma
    if isinstance(dist, Bernoulli):
        return "bernoulli", dist.mean
    if isinstance(dist, ExpFamilyArm):
        fid = dist.family_desc.family_id
        if fid == "exponential":
            return fid, dist.mean
        raise DomainError(f"no sampler for exponential family {fid!r}")
    raise FamilyMismatch(f"not an arm distribution: {dist!r}")


#: Bounds on numpy's standard variates (its ziggurat samplers, on uniforms of
#: 53 bits, so a tail draw's -log(1 - u) is at most 53 log 2 = 36.74): a
#: normal is at most 3.6542 + 36.74 / 3.6542 = 13.71 in magnitude, and an
#: exponential at most 7.6971 + 36.74 = 44.43.
_NORMAL_MAX = 14.0
_EXPONENTIAL_MAX = 45.0


def _check_sums(dist: ArmDistribution, n: int) -> None:
    """DomainError unless every sum of ``n`` draws of ``dist``, as sampled here, is finite.

    It bounds each sum as the samplers compute it, with numpy's variates
    bounded by ``_NORMAL_MAX`` and ``_EXPONENTIAL_MAX``.  A sum of n > 1
    exponential draws is scale * Gamma(n), and numpy's Gamma(n) (Marsaglia
    and Tsang's method) is b (1 + z / sqrt(9 b))^3 of a standard normal z,
    with b = n - 1/3.  Bernoulli sums are counts, always finite.
    """
    kind, *params = _law(dist)
    if kind == "gaussian":
        mean, sd = params
        largest = abs(n * mean) + math.sqrt(n) * sd * _NORMAL_MAX
    elif kind == "exponential":
        b = n - 1.0 / 3.0
        largest = params[0] * (_EXPONENTIAL_MAX if n == 1 else
                               b * (1.0 + _NORMAL_MAX / math.sqrt(9.0 * b)) ** 3)
    else:
        return
    if not math.isfinite(largest):
        what = "a draw" if n == 1 else f"a sum of {n} draws"
        raise DomainError(f"{what} of the {kind} arm of mean {dist.mean:g} can exceed "
                          "the largest double")


def sampler(dist: ArmDistribution):
    """(fill, finish) for one arm: ``fill(rng, out)`` writes standard variates
    into ``out`` and ``finish(raw)`` maps a float array of them to draws.

    A finish may overwrite its input: each one maps ``raw`` in place and
    returns it.  Splitting the two lets a caller fill many rows, each from
    its own stream, and finish them all in one pass; draws equal
    :func:`sample_n`'s.  An arm whose largest draw may not be finite
    (:func:`_check_sums`) raises DomainError, so a rule refuses it when it
    is built.
    """
    _check_sums(dist, 1)
    kind, *params = _law(dist)
    if kind == "gaussian":
        mean, sd = params

        def finish(z):
            z *= sd
            z += mean
            return z
        return _fill_normal, finish
    if kind == "bernoulli":
        p, = params
        return _fill_uniform, lambda u: np.less(u, p, out=u)
    scale, = params

    def finish(e):
        e *= scale
        return e
    return _fill_exponential, finish


def sum_sampler(arms, ns):
    """(fill, finish1, finish2) of the sums of ns[0] draws from arms[0] and ns[1] from arms[1].

    ``fill(rng, out)`` writes arm 1's variate into out[0], then arm 2's into
    out[1], and each finished draw is exact in law: N(n mean, n sd^2),
    binomial(n, p) or scale * Gamma(n).  Scalar draws: numpy's size/out
    handling costs more than a binomial or gamma variate at these sizes.
    An arm whose sum may not be finite (:func:`_check_sums`) raises
    DomainError, so a static rule refuses it when it is built.
    """
    for arm, n in zip(arms, ns):
        _check_sums(arm, n)
    (kind, *params1), (_, *params2) = (_law(arm) for arm in arms)
    n1, n2 = ns
    if kind == "gaussian":
        (mean1, sd1), (mean2, sd2) = params1, params2

        def fill(rng, out):
            out[0] = rng.standard_normal()
            out[1] = rng.standard_normal()
        return (fill, lambda z: n1 * mean1 + math.sqrt(n1) * sd1 * z,
                lambda z: n2 * mean2 + math.sqrt(n2) * sd2 * z)
    if kind == "bernoulli":
        (p1,), (p2,) = params1, params2

        def fill(rng, out):
            out[0] = rng.binomial(n1, p1)
            out[1] = rng.binomial(n2, p2)
        return fill, np.asarray, np.asarray
    (scale1,), (scale2,) = params1, params2

    def fill(rng, out):
        out[0] = rng.standard_gamma(n1)
        out[1] = rng.standard_gamma(n2)
    return fill, lambda g: scale1 * g, lambda g: scale2 * g


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
    Exponential family: the descriptor's ``kl`` of the natural parameters.
    """
    if not same_family(p, q):
        raise FamilyMismatch(f"cannot take KL between {p!r} and {q!r}")
    if isinstance(p, Gaussian):
        return gaussian_kl(p.mean, p.variance, q.mean, q.variance)
    if isinstance(p, Bernoulli):
        return float(bernoulli_kl(p.mean, q.mean))
    return p.family_desc.kl(p.theta, q.theta)
