"""Informational complexity of two-armed best-arm identification.

Four quantities govern the problem for a two-armed instance nu with
distinct means:

* ``c_star_fc`` -- the fixed-confidence complexity: the common value of
  K(nu_1, nu') = K(nu_2, nu') at the crossing distribution nu' between the
  arms ("reversed Chernoff" quantity).  Sample-complexity lower bounds
  scale like log(1/(2 delta)) / c_star_fc.
* ``i_star_fc`` -- its uniform-sampling counterpart, the average of the two
  divergences to the mean-midpoint distribution.
* ``c_star_fb`` -- the fixed-budget complexity: the Chernoff information,
  i.e. the common value of K(nu', nu_1) = K(nu', nu_2) at the crossing.
  Error exponents of consistent strategies are capped by it.
* ``i_star_fb`` -- its uniform-sampling counterpart, evaluated at the
  natural-parameter midpoint.

All four have closed forms.  For one-parameter exponential families the
three-point identity of Bregman divergences makes the difference of two
divergences to a common point affine, in theta for the reversed crossing
and in the mean for the Chernoff crossing, so each crossing is one
division (:func:`_crossing`).  ``optimal_alpha`` -- the fraction alpha*
of a static allocation that maximizes the error exponent g_alpha -- reads
the Chernoff crossing: alpha* mixes the natural parameters onto theta*,
and g(alpha*) is the Chernoff information.
Averages use the analytic midpoint identities, which stationarity makes
exact, rather than a generic infimum search.

Equal means are rejected with DegenerateInstance: the complexities are
undefined there and the instance class excludes the tie.  A rate outside
the normal doubles (means too close or too far apart) raises DomainError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable

import numpy as np

from .dists import (
    BERNOULLI_FAMILY,
    Bernoulli,
    ExpFamilyArm,
    ExpFamilyDescriptor,
    Gaussian,
    _square,
    bernoulli_kl,
    bernoulli_kl_kernel,
    mean_to_nat,
)
from .errors import DegenerateInstance, DomainError
from .instances import BanditInstance, require_two_armed


def _crossing(d1: Callable[[float], float], d2: Callable[[float], float],
              x1: float, x2: float, y1: float, y2: float,
              y_of: Callable[[float], float]) -> tuple[float, float, float, float]:
    """(value, x*, y*, w) at the crossing d1 = d2, w = (y* - y2)/(y1 - y2).

    ``d_i(y)`` is arm i's divergence to the point at coordinate y = y_of(x),
    and arm i sits at (x_i, y_i).  By the three-point identity of Bregman
    divergences d1 - d2 is affine in the dual coordinate x, with slope
    -(y1 - y2), so x* = x2 + d1(y2)/(y1 - y2) = x1 - d2(y1)/(y1 - y2), read
    from the smaller divergence: the other may overflow.  value is flat in
    y at the crossing, so an error in y* moves it to second order only.
    """
    d12, d21 = d1(y2), d2(y1)
    x_star = x2 + d12 / (y1 - y2) if d12 <= d21 else x1 - d21 / (y1 - y2)
    y_star = y_of(x_star)
    w = (y_star - y2) / (y1 - y2)
    return w * d1(y_star) + (1.0 - w) * d2(y_star), x_star, y_star, w


def _in_range(name: str, value: float, instance: BanditInstance) -> float:
    """``value`` if it is a normal double, so that its reciprocal is finite too.

    Gaussian rates read the means on the scale of the variances, so the
    error names the variances too.
    """
    if not sys.float_info.min <= value <= sys.float_info.max:
        scale = (" for the variances " + ", ".join(f"{arm.variance:g}" for arm in instance.arms)
                 if instance.is_gaussian else "")
        raise DomainError(f"{name} = {value:.3g} lies outside the normal doubles: "
                          f"the means are too close together or too far apart{scale}")
    return value


def _two_arms(instance: BanditInstance):
    require_two_armed(instance)
    a1, a2 = instance.arms
    if a1.mean == a2.mean:
        raise DegenerateInstance("equal means: two-armed complexity undefined")
    return a1, a2


def _expfam_params(instance: BanditInstance) -> tuple[ExpFamilyDescriptor, float, float]:
    """Descriptor and natural parameters for a non-Gaussian two-armed instance."""
    a1, a2 = instance.arms
    if isinstance(a1, Bernoulli):
        return BERNOULLI_FAMILY, a1.theta, a2.theta
    if isinstance(a1, ExpFamilyArm):
        return a1.family_desc, a1.theta, a2.theta
    raise DomainError(f"unsupported family {instance.family!r}")


def c_star_fc(instance: BanditInstance) -> tuple[float, float]:
    """Fixed-confidence complexity and its crossing parameter.

    Gaussian: (mu1-mu2)^2 / (2 (sigma1+sigma2)^2), crossing reported as the
    sigma-weighted mean point.  Exponential families: K(theta1, theta_) -
    K(theta2, theta_) is affine in theta_, so the crossing is
    theta_ = theta2 + K(theta1, theta2)/(mu1 - mu2) (:func:`_crossing`).
    Bernoulli instances take :func:`bernoulli_kl` of the means: the natural
    parameters logit(mean) would carry their rounding into near ties.
    Bernoulli ``ExpFamilyArm`` pairs with theta1 + theta2 > 0 are solved on
    their mirror (-theta1, -theta2).
    """
    a1, a2 = _two_arms(instance)
    if isinstance(a1, Gaussian):
        # crossing: the point mu with (mu1-mu)/sigma1 = (mu-mu2)/sigma2; the
        # symmetric midpoint when the variances agree
        s1, s2 = a1.sigma, a2.sigma
        crossing = a2.mean + (a1.mean - a2.mean) * (s2 / (s1 + s2))
        value = _square(a1.mean - a2.mean) / (2.0 * _square(s1 + s2))
        return _in_range("c_star_fc", value, instance), crossing
    fam, t1, t2 = _expfam_params(instance)
    if isinstance(a1, ExpFamilyArm) and fam.family_id == BERNOULLI_FAMILY.family_id \
            and t1 + t2 > 0.0:
        # means near 1 keep no digits of their difference, which the crossing
        # divides by: solve the mirror near 0, as _chernoff does
        mirror = BanditInstance((ExpFamilyArm(fam, -t1), ExpFamilyArm(fam, -t2)))
        value, theta_star = c_star_fc(mirror)
        return value, -theta_star
    if isinstance(a1, Bernoulli):
        d1, d2 = partial(bernoulli_kl, a1.mean), partial(bernoulli_kl, a2.mean)
    else:
        d1, d2 = (lambda mu: fam.kl(t1, fam.nat_of_mean(mu)),
                  lambda mu: fam.kl(t2, fam.nat_of_mean(mu)))
    value, theta_star, _, _ = _crossing(d1, d2, t1, t2, a1.mean, a2.mean, fam.mean_map)
    return _in_range("c_star_fc", value, instance), theta_star


def i_star_fc(instance: BanditInstance) -> float:
    """Uniform-sampling fixed-confidence rate: average KL to the mean midpoint.

    Bernoulli instances take :func:`i_star_bernoulli` of the means: the
    natural parameters logit(mean) would carry their rounding into near
    ties.
    """
    a1, a2 = _two_arms(instance)
    if isinstance(a1, Gaussian):
        value = _square(a1.mean - a2.mean) / (4.0 * (a1.variance + a2.variance))
    elif isinstance(a1, Bernoulli):
        value = i_star_bernoulli(a1.mean, a2.mean)
    else:
        fam, t1, t2 = _expfam_params(instance)
        mid = mean_to_nat(fam, 0.5 * (fam.mean_map(t1) + fam.mean_map(t2)))
        value = 0.5 * (fam.kl(t1, mid) + fam.kl(t2, mid))
    return _in_range("i_star_fc", value, instance)


def c_star_fb(instance: BanditInstance) -> tuple[float, float]:
    """Fixed-budget complexity (Chernoff information) and its crossing.

    Exponential families: K(theta_, theta1) = K(theta_, theta2) in closed
    form (:func:`_chernoff`).  Gaussian instances return the same value as
    :func:`c_star_fc` (the KL is symmetric in the means when the variances
    are held fixed).
    """
    a1, _ = _two_arms(instance)
    if isinstance(a1, Gaussian):
        return c_star_fc(instance)
    value, theta_star, _ = _chernoff(*_expfam_params(instance))
    return _in_range("c_star_fb", value, instance), theta_star


def _chernoff(fam: ExpFamilyDescriptor, theta1: float, theta2: float):
    """(Chernoff information, theta*, alpha*) at K(theta*, theta1) = K(theta*, theta2).

    K(theta, theta1) - K(theta, theta2) is affine in the mean of theta, so
    the crossing is the mean (b(theta1) - b(theta2))/(theta1 - theta2) =
    mu2 + K(theta2, theta1)/(theta1 - theta2) (:func:`_crossing`).  A
    Bernoulli pair with theta1 + theta2 > 0 solves its mirror (-theta1,
    -theta2): logit(mu*) keeps no digits of 1 - mu* near 1.
    """
    if fam.family_id == BERNOULLI_FAMILY.family_id and theta1 + theta2 > 0.0:
        value, theta_star, alpha = _chernoff(fam, -theta1, -theta2)
        return value, -theta_star, alpha
    value, _, theta_star, alpha = _crossing(
        lambda t: fam.kl(t, theta1), lambda t: fam.kl(t, theta2),
        fam.mean_map(theta1), fam.mean_map(theta2), theta1, theta2, fam.nat_of_mean)
    return value, theta_star, alpha


def i_star_fb(instance: BanditInstance) -> float:
    """Uniform-sampling fixed-budget exponent: KLs from the natural midpoint.

    Bernoulli instances take :func:`bernoulli_kl` from the midpoint's mean,
    sqrt(m1 m2) / (sqrt(m1 m2) + sqrt((1-m1)(1-m2))), computed from the means.
    """
    a1, a2 = _two_arms(instance)
    if isinstance(a1, Gaussian):
        # symmetric KL in the means makes this coincide with i_star_fc
        return i_star_fc(instance)
    if isinstance(a1, Bernoulli):
        m1, m2 = a1.mean, a2.mean
        root, root_bar = math.sqrt(m1 * m2), math.sqrt((1.0 - m1) * (1.0 - m2))
        mid = root / (root + root_bar)
        value = 0.5 * (bernoulli_kl(mid, m1) + bernoulli_kl(mid, m2))
    else:
        fam, t1, t2 = _expfam_params(instance)
        mid = 0.5 * (t1 + t2)
        value = 0.5 * (fam.kl(mid, t1) + fam.kl(mid, t2))
    return _in_range("i_star_fb", value, instance)


def g_alpha(fam: ExpFamilyDescriptor, theta1: float, theta2: float, alpha: float) -> float:
    """Error exponent of the static allocation drawing a fraction alpha from arm 1.

    g_alpha = alpha*K(mix, theta1) + (1-alpha)*K(mix, theta2) with
    mix = alpha*theta1 + (1-alpha)*theta2; strictly concave in alpha and
    vanishing at the boundary.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if theta1 == theta2:
        raise DegenerateInstance("equal natural parameters")
    fam.check_theta(theta1)
    fam.check_theta(theta2)
    mix = alpha * theta1 + (1.0 - alpha) * theta2
    return alpha * fam.kl(mix, theta1) + (1.0 - alpha) * fam.kl(mix, theta2)


def optimal_alpha(fam: ExpFamilyDescriptor, theta1: float, theta2: float) -> tuple[float, float]:
    """(alpha*, g(alpha*)): the maximizer of g_alpha over alpha in (0, 1) and its value.

    The slope of g_alpha, K(mix, theta1) - K(mix, theta2), vanishes where
    mix is the Chernoff crossing theta*, the natural parameter of the mean
    (b(theta1) - b(theta2))/(theta1 - theta2), so alpha* =
    (theta* - theta2)/(theta1 - theta2), and g(alpha*) is :func:`c_star_fb`'s
    Chernoff information, bit for bit.
    """
    if theta1 == theta2:
        raise DegenerateInstance("equal natural parameters")
    fam.check_theta(theta1)
    fam.check_theta(theta2)
    value, _, alpha = _chernoff(fam, theta1, theta2)
    return alpha, value


def i_star_bernoulli(x, y):
    """I_* for Bernoulli means, from the average-KL definition; array-safe.

    Equals H((x+y)/2) - [H(x)+H(y)]/2 with H the binary entropy (verified
    numerically; a published variant showing H(x/2), H(y/2) does not match
    and is a suspected typo).  Arguments may touch 0 or 1, where the
    0*log(0)=0 convention applies; I_*(x, x) = 0.  Arguments outside
    [0, 1], NaN included, raise DomainError.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if not (np.all((xa >= 0.0) & (xa <= 1.0)) and np.all((ya >= 0.0) & (ya <= 1.0))):
        raise DomainError("i_star_bernoulli arguments must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = i_star_bernoulli_kernel(*np.broadcast_arrays(xa, ya))
    return float(out) if out.ndim == 0 else out


def i_star_bernoulli_kernel(xa: np.ndarray, ya: np.ndarray) -> np.ndarray:
    """:func:`i_star_bernoulli` of same-shape float arrays in [0, 1]; checks nothing."""
    mid = 0.5 * (xa + ya)
    interior = (mid > 0.0) & (mid < 1.0) & (xa != ya)
    # one call for both divergences: its fixed cost dominates on a few elements
    kl = bernoulli_kl_kernel(np.stack((xa, ya)), np.where(interior, mid, 0.5))
    return np.where(interior, 0.5 * (kl[0] + kl[1]), 0.0)


@dataclass(frozen=True)
class TwoArmedComplexityReport:
    """All two-armed complexity quantities for one instance.

    ``theta_star_reversed``/``theta_star_chernoff`` hold the crossing points
    (natural parameters for exponential families, the sigma-weighted mean
    point for Gaussian instances).  ``kappa_C_lower`` = 1/c_star_fc is the
    lower bound on the fixed-confidence complexity; ``kappa_B`` = 1/c_star_fb
    is the fixed-budget complexity.
    """

    c_star_fc: float
    i_star_fc: float
    c_star_fb: float
    i_star_fb: float
    theta_star_reversed: float
    theta_star_chernoff: float
    kappa_C_lower: float
    kappa_B: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


def complexity_report(instance: BanditInstance) -> TwoArmedComplexityReport:
    c_fc, theta_rev = c_star_fc(instance)
    c_fb, theta_ch = c_star_fb(instance)
    return TwoArmedComplexityReport(
        c_star_fc=c_fc,
        i_star_fc=i_star_fc(instance),
        c_star_fb=c_fb,
        i_star_fb=i_star_fb(instance),
        theta_star_reversed=theta_rev,
        theta_star_chernoff=theta_ch,
        kappa_C_lower=1.0 / c_fc,
        kappa_B=1.0 / c_fb,
    )
