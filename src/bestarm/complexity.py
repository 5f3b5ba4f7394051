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

For Gaussian arms with known variances all four have closed forms; for
one-parameter exponential families the crossings are found by bisection
(the two divergences are monotone in opposite directions across the
bracket formed by the arm parameters, so a sign change is guaranteed).
``optimal_alpha`` -- the fraction alpha* of a static allocation that
maximizes the error exponent g_alpha -- is found by the same bisection,
applied to the strictly decreasing slope of g_alpha.
Averages use the analytic midpoint identities, which stationarity makes
exact, rather than a generic infimum search.

Equal means are rejected with DegenerateInstance: the complexities are
undefined there and the instance class excludes the tie.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .dists import (
    BERNOULLI_FAMILY,
    Bernoulli,
    ExpFamilyArm,
    ExpFamilyDescriptor,
    Gaussian,
    bernoulli_kl_kernel,
    mean_to_nat,
)
from .errors import DegenerateInstance, DomainError, SolverError
from .instances import BanditInstance, require_two_armed

BISECT_REL_TOL = 1e-12
BISECT_MAX_ITER = 200
_CHECK_TOL = 1e-8


def bisect_root(f: Callable[[float], float], lo: float, hi: float,
                rel_tol: float = BISECT_REL_TOL,
                max_iter: int = BISECT_MAX_ITER) -> float:
    """Root of f on [lo, hi] by bisection; requires a sign change.

    The interval is shrunk until its width falls below
    rel_tol * max(|lo|, |hi|, 1); exceeding ``max_iter`` iterations raises
    SolverError.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise SolverError(f"no sign change on bracket [{lo}, {hi}]")
    scale = max(abs(lo), abs(hi), 1.0)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel_tol * scale:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    raise SolverError(f"bisection did not converge in {max_iter} iterations")


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
    sigma-weighted mean point.  Exponential families: solve
    Kb(theta1, theta_) = Kb(theta2, theta_) by bisection on the mean
    parameter; the crossing is reported as a natural parameter.
    """
    a1, a2 = _two_arms(instance)
    if isinstance(a1, Gaussian):
        # crossing: the point mu with (mu1-mu)/sigma1 = (mu-mu2)/sigma2; the
        # symmetric midpoint when the variances agree
        s1, s2 = a1.sigma, a2.sigma
        crossing = (s2 * a1.mean + s1 * a2.mean) / (s1 + s2)
        return (a1.mean - a2.mean) ** 2 / (2.0 * (s1 + s2) ** 2), crossing
    fam, t1, t2 = _expfam_params(instance)
    mu1, mu2 = fam.mean_map(t1), fam.mean_map(t2)
    lo, hi = min(mu1, mu2), max(mu1, mu2)

    def gap(mu: float) -> float:
        t = fam.nat_of_mean(mu)
        return fam.kl(t1, t) - fam.kl(t2, t)

    mu_star = bisect_root(gap, lo, hi)
    theta_star = fam.nat_of_mean(mu_star)
    return fam.kl(t1, theta_star), theta_star


def i_star_fc(instance: BanditInstance) -> float:
    """Uniform-sampling fixed-confidence rate: average KL to the mean midpoint."""
    a1, a2 = _two_arms(instance)
    if isinstance(a1, Gaussian):
        return (a1.mean - a2.mean) ** 2 / (4.0 * (a1.variance + a2.variance))
    fam, t1, t2 = _expfam_params(instance)
    mid = mean_to_nat(fam, 0.5 * (fam.mean_map(t1) + fam.mean_map(t2)))
    return 0.5 * (fam.kl(t1, mid) + fam.kl(t2, mid))


def c_star_fb(instance: BanditInstance) -> tuple[float, float]:
    """Fixed-budget complexity (Chernoff information) and its crossing.

    Exponential families: solve Kb(theta_, theta1) = Kb(theta_, theta2) by
    bisection on the natural parameter.  Gaussian instances return the same
    value as :func:`c_star_fc` (the KL is symmetric in the means when the
    variances are held fixed).
    """
    a1, _ = _two_arms(instance)
    if isinstance(a1, Gaussian):
        return c_star_fc(instance)
    return _chernoff(*_expfam_params(instance))


def _chernoff(fam: ExpFamilyDescriptor, theta1: float, theta2: float) -> tuple[float, float]:
    """Chernoff information and its crossing: Kb(theta_, theta1) = Kb(theta_, theta2)."""
    theta_star = bisect_root(lambda t: fam.kl(t, theta1) - fam.kl(t, theta2),
                             min(theta1, theta2), max(theta1, theta2))
    return fam.kl(theta_star, theta1), theta_star


def i_star_fb(instance: BanditInstance) -> float:
    """Uniform-sampling fixed-budget exponent: KLs from the natural midpoint."""
    a1, _ = _two_arms(instance)
    if isinstance(a1, Gaussian):
        # symmetric KL in the means makes this coincide with i_star_fc
        return i_star_fc(instance)
    fam, t1, t2 = _expfam_params(instance)
    mid = 0.5 * (t1 + t2)
    return 0.5 * (fam.kl(mid, t1) + fam.kl(mid, t2))


def g_alpha(fam: ExpFamilyDescriptor, theta1: float, theta2: float, alpha: float) -> float:
    """Error exponent of the static allocation drawing a fraction alpha from arm 1.

    g_alpha = alpha*Kb(mix, theta1) + (1-alpha)*Kb(mix, theta2) with
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


def _g_alpha_slope(fam: ExpFamilyDescriptor, theta1: float, theta2: float,
                   alpha: float) -> float:
    # d g_alpha / d alpha = Kb(mix, theta1) - Kb(mix, theta2) (the mix-term
    # derivatives cancel); strictly decreasing in alpha by convexity of b
    mix = alpha * theta1 + (1.0 - alpha) * theta2
    return fam.kl(mix, theta1) - fam.kl(mix, theta2)


def optimal_alpha(fam: ExpFamilyDescriptor, theta1: float, theta2: float) -> tuple[float, float]:
    """Maximize g_alpha over alpha in (0, 1).

    g_alpha is strictly concave, so its slope Kb(mix, theta1) - Kb(mix, theta2)
    is strictly decreasing and has exactly one root on (0, 1): one bisection
    of that stationarity gap finds the maximizer.  The maximizer satisfies
    alpha*theta1 + (1-alpha)*theta2 = theta^ (the Chernoff crossing) and
    g(alpha*) equals the Chernoff information; both identities are verified
    to 1e-8 and a violation raises SolverError.
    """
    if theta1 == theta2:
        raise DegenerateInstance("equal natural parameters")
    fam.check_theta(theta1)
    fam.check_theta(theta2)
    alpha = bisect_root(lambda a: _g_alpha_slope(fam, theta1, theta2, a),
                        1e-12, 1.0 - 1e-12)
    g_value = g_alpha(fam, theta1, theta2, alpha)
    cb_value, theta_star = _chernoff(fam, theta1, theta2)
    mix = alpha * theta1 + (1.0 - alpha) * theta2
    scale = max(abs(theta1), abs(theta2), 1.0)
    if abs(mix - theta_star) > _CHECK_TOL * scale:
        raise SolverError(
            f"optimal_alpha crossing check failed: mix={mix}, theta*={theta_star}")
    if abs(g_value - cb_value) > _CHECK_TOL * max(cb_value, 1.0):
        raise SolverError(
            f"optimal_alpha value check failed: g={g_value}, chernoff={cb_value}")
    return alpha, g_value


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
        out = i_star_bernoulli_kernel(xa, ya)
    return float(out) if out.ndim == 0 else out


def i_star_bernoulli_kernel(xa: np.ndarray, ya: np.ndarray) -> np.ndarray:
    """:func:`i_star_bernoulli` of float arrays in [0, 1], as an array; checks nothing."""
    mid = 0.5 * (xa + ya)
    interior = (mid > 0.0) & (mid < 1.0) & (xa != ya)
    mid_safe = np.where(interior, mid, 0.5)
    return np.where(
        interior,
        0.5 * (bernoulli_kl_kernel(xa, mid_safe) + bernoulli_kl_kernel(ya, mid_safe)),
        0.0,
    )


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
