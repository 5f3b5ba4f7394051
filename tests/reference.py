"""A reference interpreter for bestarm's stopping rules: one plain loop per rule.

It shares no code with ``bestarm.engine``: no chunked decisions, no scan,
no screen, no workspace and no groups.  Each row is run alone, one step at
a time, from the rule's definition:

* elimination and the SPRT (paired rules) stop at the first k with
  |S_k| > threshold, S_k the sum of the k paired differences, with the
  threshold sqrt(2 sigma^2 t beta(t, delta)) at t = 2k, or the SPRT's
  constant log(1/delta) / coef; arm 0 leads where S >= 0;
* the SGLRT stops at the first k with t I_*(S1/k, S2/k) > beta(t, delta),
  t = 2k, from the Bernoulli arm sums; arm 0 leads where S1 >= S2;
* alpha-elimination draws arm 1 at the steps t that raise N1(t) =
  ceil(alpha t), and stops at the first t >= 2 with N1, N2 >= 1 and
  |S1/N1 - S2/N2| > sqrt(2 (var1/N1 + var2/N2) beta(t, delta)); arm 0
  leads where S1/N1 >= S2/N2, each count at least 1;
* a static allocation (n1, n2) draws one sum per arm, stops at once, and
  arm 0 leads where x/n1 >= y/n2.

A row that reaches the cap without stopping is exhausted there and
recommends the arm that leads at the cap; a cap with no step recommends
arm 0.  tau counts draws: 2k for the paired rules, t for alpha-elimination
and n1 + n2 for a static allocation.

Each row's variates are read in the record layout: row r draws from a
generator given ``row_states(root, ...)``'s state for r, in chunks of 64
steps doubling to 4096, the last one whole whatever the cap, and each
chunk holds its c1 arm-1 variates then its c2 arm-2 variates, from one
call (a paired Gaussian rule draws one difference X - Y per step on arm 1
and nothing on arm 2, and a static allocation draws its two sums by two
scalar calls).  A row reads its steps up to its own cap.  A draw is its
standard variate mapped as the layout maps it, in double arithmetic.

Sums are exact: every double is an integer multiple of 2**-1074, so the
reference sums draws as integers in that unit (``UNIT``), and the SGLRT
statistic is evaluated in ``decimal`` at 40 digits.  The engine sums in
doubles, so where the exact statistic lies within rounding of the
threshold (or of a tie, for the lead) the two may differ: such a row is
reported as ambiguous rather than decided.
"""

import decimal
import functools
import math

import numpy as np

from bestarm.dists import Bernoulli, Gaussian
from bestarm.fb_algos import StaticRule
from bestarm.fc_algos import AlphaEliminationRule, ExplorationRate, SglrtRule, SprtRule
from bestarm.rng import row_states

CHUNK0, CHUNK_MAX = 64, 4096
#: 1 in units of 2**-1074, the spacing of the smallest doubles.
UNIT = 1 << 1074
#: Relative distance within which double sums and thresholds may decide either way.
TOL = 1e-9
_DECIMAL = decimal.Context(prec=40)
_LN2 = _DECIMAL.ln(2)


def run(rule, root: dict, rows: range):
    """((tau, recommended, n1, exhausted), ambiguous) per row of ``rows``."""
    if isinstance(rule, StaticRule):
        row = _static_row
    elif isinstance(rule, AlphaEliminationRule):
        row = _alpha_row
    else:
        row = _paired_row
    gen = np.random.Generator(np.random.PCG64(0))
    out = []
    for state in row_states(root, rows):
        gen.bit_generator.state = state
        out.append(row(rule, gen))
    return out


def beta(rate: ExplorationRate, t: int, delta: float) -> float:
    """The exploration rate beta(t, delta) of the ``ExplorationRate`` docstring."""
    if rate is ExplorationRate.ROBBINS_LOG_T:
        return (t + 1) / t * math.log((t + 1) / (2 * delta))
    if rate is ExplorationRate.ITERATED_LOG:
        z = math.log(1 / delta)
        return z + 0.75 * math.log(z) + 1.5 * math.log(1 + math.log(t / 2))
    if rate is ExplorationRate.ALPHA_ELIM:
        return math.log(t / delta) + 2 * math.log(math.log(6 * t))
    if rate is ExplorationRate.SGLRT:
        return 2 * math.log(t * math.log(3 * t) ** 2 / delta)
    if rate is ExplorationRate.CONJECTURED_LOG_LOG:
        return math.log((math.log(t) + 1) / delta)
    return math.log(1 / delta)


def chunks(steps: int):
    """(done, n, m) of each chunk a row of ``steps`` steps draws: n steps, m of them under the cap.

    Chunks follow the schedule whole: the last one is not cut at the cap.
    """
    done, size = 0, CHUNK0
    while done < steps:
        yield done, size, min(size, steps - done)
        done, size = done + size, min(2 * size, CHUNK_MAX)


def exact(x: float) -> int:
    """The double ``x`` in units of 2**-1074."""
    n, d = x.as_integer_ratio()
    return n << (1075 - d.bit_length())


def _variates(arm, gen, count: int) -> list:
    """``count`` standard variates of ``arm``'s family, from one call."""
    if isinstance(arm, Gaussian):
        return gen.standard_normal(count).tolist()
    if isinstance(arm, Bernoulli):
        return gen.random(count).tolist()
    return gen.standard_exponential(count).tolist()


def _draw(arm, variate):
    """(the draw in units, its magnitude as a bound on its rounding) of a standard variate.

    Bernoulli draws sum to integers, which doubles hold exactly: magnitude 0.
    """
    if isinstance(arm, Bernoulli):
        return (UNIT if variate < arm.mean else 0), 0.0
    x = variate * arm.sigma + arm.mean if isinstance(arm, Gaussian) else variate * arm.mean
    return exact(x), abs(x)


def _near(value: float, threshold: float, scale: float) -> bool:
    return abs(abs(value) - threshold) <= TOL * (threshold + scale)


def _paired_steps(rule, gen):
    """(x, y, rounding scale) per paired step, read chunk by chunk as the row runs.

    A Gaussian step draws one difference X - Y, returned as (X - Y, 0).
    """
    a1, a2 = rule.arms
    if isinstance(a1, Gaussian):
        difference = Gaussian(a1.mean - a2.mean, a1.variance + a2.variance)
        for _, n, m in chunks(rule.steps):
            for z in _variates(a1, gen, n)[:m]:
                d, scale = _draw(difference, z)
                yield d, 0, scale
        return
    for _, n, m in chunks(rule.steps):
        z = _variates(a1, gen, 2 * n)
        for u, v in zip(z[:m], z[n:n + m]):
            (x, sx), (y, sy) = _draw(a1, u), _draw(a2, v)
            yield x, y, sx + sy


@functools.cache
def _xlogx(n: int) -> decimal.Decimal:
    return _DECIMAL.multiply(n, _DECIMAL.ln(n)) if n else decimal.Decimal(0)


def _glr(k: int, s1: int, s2: int) -> decimal.Decimal:
    """t I_*(s1/k, s2/k) at t = 2k: the sum of c log(c / expected) over the four cells."""
    a, b = s1 + s2, 2 * k - s1 - s2
    with decimal.localcontext(_DECIMAL):
        return (_xlogx(s1) + _xlogx(s2) - _xlogx(a) + _xlogx(k - s1) + _xlogx(k - s2)
                - _xlogx(b) + 2 * k * _LN2)


def _paired_row(rule, gen):
    s1 = s2 = k = 0
    scale, ambiguous = 0.0, False
    for k, (x, y, rounding) in enumerate(_paired_steps(rule, gen), 1):
        s1, s2, scale = s1 + x, s2 + y, scale + rounding
        if isinstance(rule, SglrtRule):
            crossing = beta(rule.rate, 2 * k, rule.delta)
            stat = _glr(k, s1 // UNIT, s2 // UNIT)
            stops = stat > decimal.Decimal(crossing)
            ambiguous |= abs(float(stat) - crossing) <= 1e-8 * crossing
        else:
            threshold = (rule.threshold if isinstance(rule, SprtRule) else
                         math.sqrt(2 * rule.sigma**2 * 2 * k * beta(rule.rate, 2 * k, rule.delta)))
            stops = abs(s1 - s2) > exact(threshold)
            ambiguous |= _near((s1 - s2) / UNIT, threshold, scale)
        if stops:
            return (2 * k, 0 if s1 >= s2 else 1, k, False), ambiguous
    ambiguous |= abs((s1 - s2) / UNIT) < TOL * scale
    return (2 * k, 0 if s1 >= s2 else 1, k, True), ambiguous


def _alpha_row(rule, gen):
    a1, a2 = rule.arms
    s1 = s2 = t = 0
    scale1 = scale2 = 0.0
    ambiguous = False
    for done, n, m in chunks(rule.steps):
        c1 = math.ceil(rule.alpha * (done + n)) - math.ceil(rule.alpha * done)
        z = _variates(a1, gen, n)
        arm1, arm2 = iter(z[:c1]), iter(z[c1:])
        for t in range(done + 1, done + m + 1):
            n1 = math.ceil(rule.alpha * t)
            if n1 > math.ceil(rule.alpha * (t - 1)):
                x, rounding = _draw(a1, next(arm1))
                s1, scale1 = s1 + x, scale1 + rounding
            else:
                y, rounding = _draw(a2, next(arm2))
                s2, scale2 = s2 + y, scale2 + rounding
            n2 = t - n1
            if t < 2 or n1 < 1 or n2 < 1:
                continue
            gap = s1 * n2 - s2 * n1  # S1/N1 - S2/N2, times N1 N2
            threshold = math.sqrt(2 * (rule.var1 / n1 + rule.var2 / n2)
                                  * beta(rule.rate, t, rule.delta))
            ambiguous |= _near(gap / (UNIT * n1 * n2), threshold, scale1 / n1 + scale2 / n2)
            if abs(gap) > exact(threshold) * n1 * n2:
                return (t, 0 if gap >= 0 else 1, n1, False), ambiguous
    n1 = math.ceil(rule.alpha * t)
    gap = s1 * max(t - n1, 1) - s2 * max(n1, 1)
    ambiguous |= abs(gap / UNIT) < TOL * (scale1 * max(t - n1, 1) + scale2 * max(n1, 1))
    return (t, 0 if gap >= 0 else 1, n1, True), ambiguous


def _static_row(rule, gen):
    n1, n2 = (int(n) for n in rule.layout[2:])
    draws, scale = [], 0.0
    for arm, n in zip(rule.arms, (n1, n2)):
        if isinstance(arm, Bernoulli):
            draws.append(int(gen.binomial(n, arm.mean)) * UNIT)
            continue
        if isinstance(arm, Gaussian):
            x = n * arm.mean + math.sqrt(n) * arm.sigma * gen.standard_normal()
        else:
            x = arm.mean * gen.standard_gamma(n)
        draws.append(exact(x))
        scale += abs(x) / n
    gap = draws[0] * n2 - draws[1] * n1  # x/n1 - y/n2, times n1 n2
    ambiguous = abs(gap / (UNIT * n1 * n2)) < TOL * scale
    return (n1 + n2, 0 if gap >= 0 else 1, n1, False), ambiguous
