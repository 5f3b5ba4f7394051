"""Fixed-confidence strategies for two-armed instances.

Each strategy is a :class:`~bestarm.engine.StoppingRule`, validated once
per cell, that supplies only its per-chunk threshold and its statistic;
its ``layout`` states what it draws and counts, from which
:func:`bestarm.engine.samplers` gives each chunk's draws, tau and the
lead, and :mod:`bestarm.engine` runs it.  All stop on a data-dependent
rule governed by an exploration rate beta(t, delta) and recommend the
empirically best arm (ties broken toward the lowest index, deterministically):

* :class:`EliminationRule` -- paired uniform sampling of a common-variance
  Gaussian instance; stops once |sum of paired differences| exceeds
  sqrt(2 sigma^2 t beta(t, delta)).  Also usable for any bounded/
  subgaussian arms via an explicit ``sigma`` proxy (bounded supports in
  [0,1] are 1/4-subgaussian, sigma=1/2).
* :class:`AlphaEliminationRule` -- deterministic schedule keeping
  N1(t) = ceil(alpha*t); stops once the empirical mean difference exceeds
  sqrt(2 sigma_t^2(alpha) beta(t, delta)) with
  sigma_t^2 = sigma1^2/N1 + sigma2^2/N2.  alpha=None resolves to
  sigma1/(sigma1+sigma2), the allocation that attains the two-armed
  complexity.
* :class:`SglrtRule` -- uniform sampling of Bernoulli arms; at even t the
  generalized-likelihood-ratio statistic t * I_*(mu1_hat, mu2_hat) is
  compared to beta(t, delta).
* :class:`SprtRule` -- the known-gap sequential probability ratio test
  (only the sign of the gap is unknown): paired elimination with a constant
  threshold, stopping once the exact Gaussian log-likelihood ratio
  (Delta/sigma^2) * sum of paired differences leaves (-log 1/delta, log 1/delta).

A safety cap ``tau_max`` (default ceil(50 log(1/delta) / I_*(nu))) bounds
the sampling and is surfaced via the ``exhausted`` flag, never as an
error.  A cap above 2**53, default or given, is rejected when the rule is
built, as is a cap under which beta(t, delta), a threshold or an arm's
sum can leave the doubles, and a delta below the smallest normal double.

The ``run_*`` functions run one replication of a rule on the caller's
Generator, in place.  They are one-row wrappers, kept for the tests and
for ``bench/tracer.py``, which counts runs by their names, until the
tracer is re-pointed at the engine.
"""

from __future__ import annotations

import math
import sys
import warnings
from enum import Enum

import numpy as np

from .complexity import i_star_bernoulli_kernel, i_star_fc
from .dists import Gaussian, sample_n  # noqa: F401  (sample_n: re-exported name)
from .engine import MAX_COUNT, RunOutcome, StoppingRule, arm1_counts, run_one, workspace
from .errors import DomainError
from .instances import BanditInstance, require_two_armed

#: Above this delta the iterated-log rate's "delta small enough" guarantee
#: is undocumented; evaluation proceeds with a warning.
ITERATED_LOG_SAFE_DELTA = 0.01


class ExplorationRate(str, Enum):
    """The exploration-rate formulas beta(t, delta), natural logs throughout.

    ROBBINS_LOG_T       ((t+1)/t) log((t+1)/(2 delta))
    ITERATED_LOG        log(1/delta) + (3/4) loglog(1/delta)
                        + (3/2) log(1 + log(t/2)); needs delta < 1/e,
                        provably safe only for small delta
    ALPHA_ELIM          log(t/delta) + 2 loglog(6t)
    SGLRT               2 log(t (log 3t)^2 / delta)
    CONJECTURED_LOG_LOG log((log t + 1)/delta); conjectured safe, never
                        documented as guaranteed
    PLAIN_LOG           log(1/delta); the fixed-sample threshold
    """

    ROBBINS_LOG_T = "robbins"
    ITERATED_LOG = "iterated-log"
    ALPHA_ELIM = "alpha-elim"
    SGLRT = "sglrt"
    CONJECTURED_LOG_LOG = "conjectured"
    PLAIN_LOG = "plain-log"


def _check_delta(delta: float) -> None:
    # below the normal doubles 1/delta overflows, and log(1/delta) with it
    if not (sys.float_info.min <= delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1) and be at least the smallest normal "
                          f"double {sys.float_info.min:g}, got {delta}")


def validate_rate(rate: ExplorationRate, delta: float) -> None:
    """Reject out-of-domain (rate, delta) pairs; warn on undocumented regimes."""
    if not isinstance(rate, ExplorationRate):
        raise DomainError(f"the exploration rate must be an ExplorationRate, got {rate!r}")
    _check_delta(delta)
    if rate is ExplorationRate.ITERATED_LOG:
        if delta >= 1.0 / math.e:
            raise DomainError(
                f"the iterated-log rate needs delta < 1/e, got {delta}")
        if delta > ITERATED_LOG_SAFE_DELTA:
            warnings.warn(
                f"iterated-log rate: delta={delta} exceeds the documented "
                f"{ITERATED_LOG_SAFE_DELTA} threshold; the delta-PAC guarantee "
                "is proved only for delta small enough",
                RuntimeWarning, stacklevel=3)


def _rate_values(rate: ExplorationRate, t: np.ndarray, delta: float) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if rate is ExplorationRate.ROBBINS_LOG_T:
        return (t + 1.0) / t * np.log((t + 1.0) / (2.0 * delta))
    if rate is ExplorationRate.ITERATED_LOG:
        z = math.log(1.0 / delta)
        return z + 0.75 * math.log(z) + 1.5 * np.log1p(np.log(t / 2.0))
    if rate is ExplorationRate.ALPHA_ELIM:
        return np.log(t / delta) + 2.0 * np.log(np.log(6.0 * t))
    if rate is ExplorationRate.SGLRT:
        return 2.0 * np.log(t * np.log(3.0 * t) ** 2 / delta)
    if rate is ExplorationRate.CONJECTURED_LOG_LOG:
        return np.log((np.log(t) + 1.0) / delta)
    if rate is ExplorationRate.PLAIN_LOG:
        return np.full_like(t, math.log(1.0 / delta))
    raise DomainError(f"unknown exploration rate {rate!r}")


def _rate_at_cap(rate: ExplorationRate, delta: float, t: int) -> float:
    """beta(t, delta) at a rule's cap t >= 2; DomainError where it is not finite.

    In every rate the term that can overflow (t / delta and the like) grows
    with t, so a beta finite at the cap is finite at every step under it.
    """
    with np.errstate(over="ignore"):
        beta = float(_rate_values(rate, t, delta))
    if not math.isfinite(beta):
        raise DomainError(f"the {rate.value} exploration rate at delta={delta:g} overflows "
                          f"at the cap t = {t}; set a smaller --tau-max or a larger delta")
    return beta


def eval_rate(rate: ExplorationRate, t, delta: float):
    """beta(t, delta) for finite t >= 2 (scalar or array), with domain validation."""
    validate_rate(rate, delta)
    arr = np.asarray(t, dtype=float)
    if not np.all((arr >= 2) & np.isfinite(arr)):
        raise DomainError("exploration rates are defined for finite t >= 2")
    out = _rate_values(rate, arr, delta)
    return float(out) if out.ndim == 0 else out


def default_tau_max(instance: BanditInstance, delta: float) -> int:
    """Safety cap ceil(50 log(1/delta) / I_*(nu)) on the total draw count.

    A cap above 2**53 (a near tie, down to an I_* that underflows to 0)
    raises DomainError: rows could run that long without stopping.
    """
    scale, i_star = 50.0 * math.log(1.0 / delta), i_star_fc(instance)
    if not scale <= MAX_COUNT * i_star:
        raise DomainError(f"the default tau_max at delta={delta:g}, 50 log(1/delta) / I_* "
                          f"with I_* = {i_star:.3g}, exceeds 2**53; "
                          "set --tau-max to at most 2**53")
    return int(math.ceil(scale / i_star))


def _equal_variance_sigma(instance: BanditInstance) -> float:
    a1, a2 = instance.arms
    if not isinstance(a1, Gaussian):
        raise DomainError(
            "this strategy needs Gaussian arms (or an explicit subgaussian sigma)")
    if a1.variance != a2.variance:
        raise DomainError("this strategy needs equal known variances")
    return a1.sigma


def _resolve_tau_max(instance: BanditInstance, delta: float, tau_max: int | None) -> int:
    """The cap of a rule of any kind, default or given: an integer in [0, 2**53].

    An exhausted row's tau is the cap, and it must fit in int64.
    """
    if tau_max is None:
        return default_tau_max(instance, delta)
    if tau_max < 0:
        raise DomainError(f"tau_max must be >= 0, got {tau_max}")
    if tau_max > MAX_COUNT:
        raise DomainError(f"tau_max must be <= 2**53, got {tau_max}; "
                          "set --tau-max to at most 2**53")
    return tau_max


def _paired_steps(instance: BanditInstance, delta: float, tau_max: int | None) -> int:
    """Paired steps (two draws each) within the cap; at least one under the default cap."""
    steps = _resolve_tau_max(instance, delta, tau_max) // 2
    return steps if tau_max is not None else max(1, steps)


class EliminationRule(StoppingRule):
    """Paired-sampling elimination; see the module docstring for the rule.

    The statistic reads only the paired differences, so on Gaussian arms a
    step draws one difference; other arms draw both arms per step.  It
    compares |S| of the running sum of differences the engine keeps, or
    |S1 - S2| of the Bernoulli arm sums, which is the same integer.
    """

    def __init__(self, instance: BanditInstance, delta: float, rate: ExplorationRate,
                 tau_max: int | None = None, sigma: float | None = None):
        require_two_armed(instance)
        if delta > 0.15:
            raise DomainError(f"elimination requires delta <= 0.15, got {delta}")
        validate_rate(rate, delta)
        if sigma is None:
            sigma = _equal_variance_sigma(instance)
        steps = _paired_steps(instance, delta, tau_max)
        # t beta(t) is non-decreasing, so the threshold at the cap is the largest
        t = 2 * max(steps, 1)
        beta = _rate_at_cap(rate, delta, t)
        if not (sigma > 0 and math.isfinite(2.0 * sigma * sigma * t * beta)):
            raise DomainError(f"sigma must be positive with the threshold "
                              f"sqrt(2 sigma^2 t beta(t)) finite up to t = {t}, got {sigma}")
        super().__init__(instance, steps,
                         "difference" if isinstance(instance.arms[0], Gaussian) else "both")
        self.rate, self.delta, self.sigma = rate, delta, sigma

    def chunk(self, done, n):
        ts = 2 * np.arange(done + 1, done + n + 1)
        return np.sqrt(2.0 * self.sigma**2 * ts * _rate_values(self.rate, ts, self.delta))

    def scan(self, thresholds, sums):
        size = workspace("tmp0", sums[0].shape)
        # one running difference, or Bernoulli arm sums, whose difference is exact
        gap = sums[0] if len(sums) == 1 else np.subtract(*sums, out=size)
        return np.greater(np.abs(gap, out=size), thresholds,
                          out=workspace("hits", size.shape, np.bool_))


class AlphaEliminationRule(StoppingRule):
    """Deterministic-schedule elimination with N1(t) = ceil(alpha*t), one draw per step."""

    def __init__(self, instance: BanditInstance, delta: float, rate: ExplorationRate,
                 alpha: float | None = None, tau_max: int | None = None):
        require_two_armed(instance)
        a1, a2 = instance.arms
        if not (isinstance(a1, Gaussian) and isinstance(a2, Gaussian)):
            raise DomainError("alpha-elimination needs Gaussian arms with known variances")
        validate_rate(rate, delta)
        if alpha is None:
            alpha = a1.sigma / (a1.sigma + a2.sigma)
        if not (0.0 < alpha < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
        steps = _resolve_tau_max(instance, delta, tau_max)
        # var1/N1 + var2/N2 <= var1 + var2, and beta is largest at t = 2 or at the cap
        t = max(steps, 2)
        beta = max(_rate_at_cap(rate, delta, 2), _rate_at_cap(rate, delta, t))
        if not math.isfinite(2.0 * (a1.variance + a2.variance) * beta):
            raise DomainError(f"the variances must keep the threshold sqrt(2 (var1/N1 + "
                              f"var2/N2) beta(t)) finite up to t = {t}, got "
                              f"{a1.variance:g} and {a2.variance:g}")
        super().__init__(instance, steps, "schedule", alpha)
        self.rate, self.delta, self.alpha = rate, delta, alpha
        self.var1, self.var2 = a1.variance, a2.variance

    def chunk(self, done, n):
        ts, n1 = np.arange(done + 1, done + n + 1), arm1_counts(self.alpha, done, n)[1:]
        n2 = ts - n1
        testable = (n1 >= 1) & (n2 >= 1) & (ts >= 2)
        n1, n2 = np.maximum(n1, 1), np.maximum(n2, 1)
        var_t = self.var1 / n1 + self.var2 / n2
        thr = np.sqrt(2.0 * var_t * _rate_values(self.rate, np.maximum(ts, 2), self.delta))
        return n1, n2, testable, thr

    def scan(self, shared, sums):
        n1, n2, testable, thr = shared
        m1, m2 = sums[0] / n1, sums[1] / n2
        with np.errstate(over="ignore"):  # finite means an infinite gap apart: a crossing
            return testable & (np.abs(m1 - m2) > thr)


#: Relative margin that a bound on t I_* must keep from beta to decide an
#: SGLRT step without the exact statistic; see :class:`SglrtRule`.
_SCREEN_EPS = 1e-6
_LN4 = 2.0 * math.log(2.0)


def _coarse_screen(s1, s2, k, low, high):
    """(surely t I_* > beta, surely not) from L0 <= t I_* <= L0 (1 + (2 log 2 - 1) v).

    ``s1``, ``s2`` are integer arm sums after k paired steps (t = 2k), of
    one shape, ``low`` and ``high`` beta less and plus its margin, all
    broadcast along the last axis.  Products only, so D = 0 with A B = 0
    compares 0 with 0 and is surely no crossing.  The flags and the products
    live in :func:`~bestarm.engine.workspace` slots.
    """
    dd, sums, rest, ab = (workspace(f"tmp{i}", s1.shape) for i in range(4))
    np.square(np.subtract(s1, s2, out=dd), out=dd)
    np.add(s1, s2, out=sums)
    np.subtract(2.0 * k, sums, out=rest)
    np.multiply(sums, rest, out=ab)
    n2 = np.square(np.minimum(sums, rest, out=sums), out=sums)
    hits = np.greater(dd, np.multiply(ab, high / k, out=rest),
                      out=workspace("hits", s1.shape, np.bool_))
    # dd (n2 + (2 log 2 - 1) dd) <= (low / k) ab n2, in that order of operations
    lhs = np.multiply(dd, _LN4 - 1.0, out=rest)
    lhs += n2
    lhs *= dd
    rhs = np.multiply(ab, low / k, out=ab)
    rhs *= n2
    return hits, np.less_equal(lhs, rhs, out=workspace("misses", s1.shape, np.bool_))


class SglrtRule(StoppingRule):
    """Sequential GLRT on Bernoulli arms, uniform sampling, even-t stopping.

    After k paired steps with arm sums S1, S2 (t = 2k) the rule stops once
    t I_*(S1/k, S2/k) > beta(t, delta).  Almost no step is near beta, so
    ``scan`` decides a step from bounds on t I_* that take no logarithm, and
    computes I_* only where they leave it open, with the unchecked kernel
    of ``i_star_bernoulli`` (its sums lie in [0, k]).  Its hits equal the
    unscreened comparison up to each row's first crossing, which is all the
    engine reads of them (see ``StoppingRule.scan``); a step after its
    row's first sure crossing may read as no crossing.  It reads the arm
    sums the engine keeps for its "both" layout, and arm 0 leads where
    S1 >= S2.

    The bracket.  With A = S1 + S2, B = 2k - A and D = S1 - S2,
    t I_* = [A g(D/A) + B g(D/B)] / 2, where g(a) = (1+a) log(1+a) +
    (1-a) log(1-a) = a^2 G(a^2), and Taylor's series of g about 0 gives
    G(s) = sum_j s^(j-1) / (j (2j - 1)): positive coefficients, so G is
    increasing and convex on [0, 1], with G(0) = 1 and G(1) = 2 log 2.
    Hence 1 <= G(s) <= 1 + (2 log 2 - 1) s, and every step gets the bracket
    L0 <= t I_* <= L0 (1 + (2 log 2 - 1) v), with L0 = k D^2 / (A B) and
    v = D^2 / min(A, B)^2 <= 1 (:func:`_coarse_screen`).  A step it leaves
    open, before its row's first sure crossing, is decided by the reference
    comparison 2k I_*(S1/k, S2/k) > beta itself.

    The margin.  The bracket decides a step only when it clears beta by the
    relative margin ``_SCREEN_EPS`` + k 2^-49.  ``_SCREEN_EPS`` = 1e-6
    covers the rounding of the bounds (k D^2 can exceed 2^53) and the error
    of the exact statistic, which ``bernoulli_kl`` computes to about 1e-9
    relative near its switch to a Taylor series.  The k term covers the
    rounding of S/k before the exact statistic sees it: up to about 2k/|D|
    units of 2^-53, an eighth of the k term at |D| = 1.  A step with D = 0
    (S1 = S2, also at 0 or k) is surely no crossing, because beta > 0 for
    every rate at t >= 2 and delta in (0, 1).
    """

    def __init__(self, instance: BanditInstance, delta: float, rate: ExplorationRate,
                 tau_max: int | None = None):
        require_two_armed(instance)
        if not instance.is_bernoulli:
            raise DomainError("the sequential GLRT is defined for Bernoulli arms")
        validate_rate(rate, delta)
        steps = _paired_steps(instance, delta, tau_max)
        _rate_at_cap(rate, delta, 2 * max(steps, 1))
        super().__init__(instance, steps, "both")
        self.rate, self.delta = rate, delta

    def chunk(self, done, n):
        ks = np.arange(done + 1, done + n + 1, dtype=float)
        beta = _rate_values(self.rate, 2.0 * ks, self.delta)
        margin = _SCREEN_EPS + ks * 2.0**-49
        return ks, beta, beta * (1.0 - margin), beta * (1.0 + margin)

    def scan(self, shared, sums):
        ks, beta, low, high = shared
        cum1, cum2 = sums
        hits, misses = _coarse_screen(cum1, cum2, ks, low, high)
        rows, cols = np.nonzero(np.equal(hits, misses, out=misses))
        if rows.size:
            first = np.where(hits.any(axis=1), hits.argmax(axis=1), hits.shape[1])
            before = cols < first[rows]
            rows, cols = rows[before], cols[before]
            if rows.size:  # open steps may all lie after their rows' first sure hits
                k = ks[cols]
                stat = 2.0 * k * i_star_bernoulli_kernel(cum1[rows, cols] / k,
                                                         cum2[rows, cols] / k)
                hits[rows, cols] = stat > beta[cols]
        return hits


class SprtRule(EliminationRule):
    """Known-gap SPRT on a common-variance Gaussian instance: paired elimination.

    The exact paired log-likelihood ratio coef * S, with coef = Delta/sigma^2
    and S the sum of paired differences, leaves (-log(1/delta), log(1/delta))
    when |S| exceeds the constant threshold log(1/delta) / coef, with the sign
    of S.  ``use_paper_statistic`` drops the 1/sigma^2 factor to match the
    plotted statistic |Delta * S| of the reference experiments.
    """

    def __init__(self, instance: BanditInstance, delta: float, tau_max: int | None = None,
                 use_paper_statistic: bool = False):
        require_two_armed(instance)
        _check_delta(delta)
        sigma = _equal_variance_sigma(instance)
        gap = abs(instance.arms[0].mean - instance.arms[1].mean)
        self.coef = gap if use_paper_statistic else gap / sigma**2
        if self.coef < sys.float_info.min:
            name = "Delta" if use_paper_statistic else "Delta/sigma^2"
            raise DomainError(f"the SPRT coefficient {name} = {self.coef:.3g} is below "
                              "the smallest normal double")
        self.threshold = math.log(1.0 / delta) / self.coef
        if not math.isfinite(self.threshold):
            raise DomainError(f"the SPRT threshold log(1/delta) / coef at delta={delta:g} and "
                              f"coef = {self.coef:.3g} exceeds the largest double")
        StoppingRule.__init__(self, instance, _paired_steps(instance, delta, tau_max), "difference")

    def chunk(self, done, n):
        return self.threshold


def run_elimination(instance: BanditInstance, delta: float, rate: ExplorationRate,
                    rng: np.random.Generator, tau_max: int | None = None,
                    sigma: float | None = None) -> RunOutcome:
    """Paired-sampling elimination; see the module docstring for the rule."""
    return run_one(EliminationRule(instance, delta, rate, tau_max, sigma), rng)


def run_alpha_elimination(instance: BanditInstance, delta: float,
                          rate: ExplorationRate, rng: np.random.Generator,
                          alpha: float | None = None,
                          tau_max: int | None = None) -> RunOutcome:
    """Deterministic-schedule elimination with N1(t) = ceil(alpha*t)."""
    return run_one(AlphaEliminationRule(instance, delta, rate, alpha, tau_max), rng)


def run_sglrt(instance: BanditInstance, delta: float, rate: ExplorationRate,
              rng: np.random.Generator, tau_max: int | None = None) -> RunOutcome:
    """Sequential GLRT on Bernoulli arms, uniform sampling, even-t stopping."""
    return run_one(SglrtRule(instance, delta, rate, tau_max), rng)


def run_sprt_oracle(instance: BanditInstance, delta: float,
                    rng: np.random.Generator, tau_max: int | None = None,
                    use_paper_statistic: bool = False) -> RunOutcome:
    """Known-gap SPRT on a common-variance Gaussian instance (see :class:`SprtRule`)."""
    return run_one(SprtRule(instance, delta, tau_max, use_paper_statistic), rng)
