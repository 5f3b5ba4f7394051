"""Per-cell correctness checks against exact oracles.

Every check is an oracle that holds for any correct draw layout, never a
pinned output:

* structure -- the record names the config it came from, carries N
  replications, has finite fields and a consistent Wilson half-width;
  static rows report mean_tau == budget;
* static rows -- the error count is tested against the exact error
  probability: Phi(-Delta/sqrt(s1^2/n1 + s2^2/n2)) for Gaussian arms, a
  log-space binomial double sum for Bernoulli arms, and (one-sided) the
  closed-form bound of ``fb_algos.theoretical_error_bound`` for
  exponential arms;
* fixed-confidence rows of a rule with a proved delta guarantee
  (elimination with the Robbins rate): error rate <= delta, and mean_tau
  >= the general two-armed lower bound on E[tau].  The plain-log and
  conjectured rates and the known-gap SPRT carry no guarantee and get the
  structural checks only;
* LIL walks -- the crossing frequency does not exceed ``deviation_bound``.

Each statistical test rejects a correct program with probability at most
``ALPHA`` per tail, so a run of ~10^3 cells fails spuriously with
probability ~1e-6.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from itertools import accumulate

from bestarm import bounds, fb_algos, harness
from bestarm.dists import Bernoulli, Gaussian
from bestarm.fc_algos import ExplorationRate

ALPHA = 1e-9
#: one-sided normal quantile for ALPHA
Z_ALPHA = 5.9978
_WILSON_Z = 1.959963984540054
_REL = 1e-9


def _log_binom_pmf(n: int, p: float) -> list[float]:
    if p <= 0.0 or p >= 1.0:
        hit = 0 if p <= 0.0 else n
        return [0.0 if i == hit else -math.inf for i in range(n + 1)]
    lp, lq, lfn = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    return [lfn - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * lp + (n - i) * lq
            for i in range(n + 1)]


def binom_pmf(n: int, p: float) -> list[float]:
    return [math.exp(v) for v in _log_binom_pmf(n, p)]


def binom_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P[X <= k], P[X >= k]) for X ~ Binomial(n, p)."""
    pmf = binom_pmf(n, p)
    return math.fsum(pmf[:k + 1]), math.fsum(pmf[k:])


def wilson_halfwidth(errors: int, n: int) -> float:
    z2 = _WILSON_Z * _WILSON_Z
    p = errors / n
    return _WILSON_Z / (1.0 + z2 / n) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))


def bernoulli_static_error(p0: float, p1: float, n0: int, n1: int, best: int) -> float:
    """Exact P(recommendation != best) of the static rule on Bernoulli arms.

    The rule recommends arm 1 iff S0/n0 < S1/n1, i.e. S0 <= (s1*n0 - 1)//n1
    given S1 = s1, so the double sum over (s0, s1) collapses to
    sum_s1 P(S1 = s1) P(S0 <= (s1*n0 - 1)//n1).
    """
    cdf0 = list(accumulate(binom_pmf(n0, p0)))
    pmf1 = binom_pmf(n1, p1)
    rec1 = math.fsum(pmf1[s1] * cdf0[(s1 * n0 - 1) // n1] for s1 in range(1, n1 + 1))
    rec1 = min(max(rec1, 0.0), 1.0)
    return rec1 if best == 0 else 1.0 - rec1


@lru_cache(maxsize=None)
def static_error(instance, t: int, policy: str) -> tuple[float, bool]:
    """(error probability, exact?) of the static rule at budget t."""
    alloc = fb_algos.allocation_for(instance, t, policy)
    a0, a1 = instance.arms
    if isinstance(a0, Gaussian):
        s = math.sqrt(a0.variance / alloc.n1 + a1.variance / alloc.n2)
        return 0.5 * math.erfc(abs(a0.mean - a1.mean) / (s * math.sqrt(2.0))), True
    if isinstance(a0, Bernoulli):
        return bernoulli_static_error(a0.mean, a1.mean, alloc.n1, alloc.n2,
                                      instance.best_arm), True
    return min(fb_algos.theoretical_error_bound(instance, alloc), 1.0), False


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL * max(abs(a), abs(b), 1e-300)


def check_cell(rec, cfg, g: int) -> list[str]:
    """Reasons the record for cell g of cfg is wrong; empty when it passes."""
    n = cfg.replications
    spec = cfg.algorithm
    grid_value = cfg.grid[g]
    floats = (rec.grid_value, rec.error_rate, rec.error_ci_halfwidth, rec.mean_tau, rec.std_tau)
    if not all(math.isfinite(v) for v in floats):
        return [f"non-finite field in {rec}"]
    why = []
    if rec.replications != n:
        why.append(f"replications {rec.replications} != {n}")
    if rec.master_seed != cfg.master_seed:
        why.append(f"seed {rec.master_seed} != {cfg.master_seed}")
    if rec.algorithm != spec.label() or rec.instance != cfg.instance.label():
        why.append(f"labels {rec.algorithm}/{rec.instance} do not match the config")
    if not _close(rec.grid_value, grid_value):
        why.append(f"grid value {rec.grid_value} != {grid_value}")
    errors = round(rec.error_rate * n)
    if not (0 <= errors <= n) or abs(errors - rec.error_rate * n) > 1e-6:
        why.append(f"error_rate {rec.error_rate} is not a count over {n}")
        return why
    if not _close(rec.error_ci_halfwidth, wilson_halfwidth(errors, n)):
        why.append(f"Wilson half-width {rec.error_ci_halfwidth} is wrong")
    if not (0 <= rec.exhausted_count <= n) or rec.std_tau < 0.0:
        why.append("exhausted_count or std_tau out of range")
    if spec.is_fixed_budget:
        t = int(grid_value)
        if rec.mean_tau != t or rec.std_tau != 0.0 or rec.exhausted_count != 0:
            why.append(f"static row: mean_tau={rec.mean_tau} std={rec.std_tau} at budget {t}")
        p, exact = static_error(cfg.instance, t, spec.allocation)
        low, high = binom_tails(errors, n, p)
        if high < ALPHA or (exact and low < ALPHA):
            kind = "exact error" if exact else "error bound"
            why.append(f"{errors}/{n} errors against {kind} {p:.6g} at budget {t}")
        return why
    if rec.mean_tau < 2.0:
        why.append(f"mean_tau {rec.mean_tau} below 2")
    if spec.kind == "elimination" and spec.rate is ExplorationRate.ROBBINS_LOG_T:
        _, high = binom_tails(errors, n, grid_value)
        if high < ALPHA:
            why.append(f"{errors}/{n} errors exceed delta={grid_value}")
        general, _ = bounds.fc_two_armed_bounds(cfg.instance, grid_value)
        if rec.mean_tau + Z_ALPHA * rec.std_tau / math.sqrt(n) < general:
            why.append(f"mean_tau {rec.mean_tau} below the lower bound {general:.6g}")
    return why


def check_records(records, configs) -> tuple[int, list[str]]:
    """(cells attempted, failure descriptions) for one op's records."""
    cells = [(cfg, g) for cfg in configs for g in range(len(cfg.grid))]
    failures = []
    for i, (cfg, g) in enumerate(cells):
        if i >= len(records):
            failures.append(f"missing record for {cfg.algorithm.label()} at {cfg.grid[g]}")
            continue
        why = check_cell(records[i], cfg, g)
        if why:
            failures.append(f"{cfg.algorithm.label()} at {cfg.grid[g]}: " + "; ".join(why))
    extra = len(records) - len(cells)
    failures.extend(f"unexpected extra record {r}" for r in records[len(cells):])
    return len(cells) + max(extra, 0), failures


def check_lil(frequency: float, op) -> list[str]:
    paths = op.reps
    if not (math.isfinite(frequency) and 0.0 <= frequency <= 1.0):
        return [f"LIL frequency {frequency} outside [0, 1]"]
    crossed = round(frequency * paths)
    if abs(crossed - frequency * paths) > 1e-6:
        return [f"LIL frequency {frequency} is not a count over {paths}"]
    bound = harness.deviation_bound(op.x, op.beta)
    _, high = binom_tails(crossed, paths, min(bound, 1.0))
    if high < ALPHA:
        return [f"{crossed}/{paths} crossings exceed the deviation bound {bound:.6g}"]
    return []


def corruptions(records, configs):
    """Deliberately wrong copies of clean records, each of which must be caught."""
    cells = [cfg for cfg in configs for _ in cfg.grid]
    last = max(i for i, cfg in enumerate(cells) if cfg.algorithm.is_fixed_budget)
    n = records[last].replications
    yield "replications off by one", _swap(records, 0, replications=records[0].replications - 1)
    yield "non-finite std_tau", _swap(records, 0, std_tau=math.nan)
    yield "static mean_tau off budget", _swap(records, last, mean_tau=records[last].mean_tau + 1)
    # consistent half-width, so only the error-probability oracle can object
    yield "every static run wrong", _swap(records, last, error_rate=1.0,
                                          error_ci_halfwidth=wilson_halfwidth(n, n))


def _swap(records, i, **changes):
    out = list(records)
    out[i] = replace(out[i], **changes)
    return out
