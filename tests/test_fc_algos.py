import decimal
import functools
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.signal
import scipy.special
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bestarm import engine, fc_algos, harness, presets
from bestarm.complexity import i_star_bernoulli, i_star_fc
from bestarm.dists import EXPONENTIAL_FAMILY, ExpFamilyArm
from bestarm.errors import DomainError
from bestarm.fc_algos import (
    ExplorationRate,
    SglrtRule,
    _coarse_screen,
    default_tau_max,
    eval_rate,
    run_alpha_elimination,
    run_elimination,
    run_sglrt,
    run_sprt_oracle,
    validate_rate,
)
from bestarm.instances import BanditInstance, two_armed_bernoulli, two_armed_gaussian
from bestarm.rng import make_rng, mix_seed

EASY = two_armed_gaussian(0.5, 0.0, 0.25)
HUGE_GAP = two_armed_gaussian(100.0, -100.0, 0.25)
B21 = two_armed_bernoulli(0.2, 0.1)


# --- exploration rates --------------------------------------------------------

def test_eval_rate_hand_values():
    assert eval_rate(ExplorationRate.ROBBINS_LOG_T, 2, 0.1) == pytest.approx(
        1.5 * math.log(15.0), rel=1e-12)
    assert eval_rate(ExplorationRate.ROBBINS_LOG_T, 2, 0.1) == pytest.approx(4.0621, abs=1e-4)
    expected = math.log(100.0) + 0.75 * math.log(math.log(100.0))
    assert eval_rate(ExplorationRate.ITERATED_LOG, 2, 0.01) == pytest.approx(
        expected, rel=1e-12)
    assert eval_rate(ExplorationRate.ITERATED_LOG, 2, 0.01) == pytest.approx(5.7506, abs=1e-4)
    assert eval_rate(ExplorationRate.PLAIN_LOG, 17, math.exp(-1.0)) == pytest.approx(
        1.0, rel=1e-12)
    assert eval_rate(ExplorationRate.ALPHA_ELIM, 10, 0.1) == pytest.approx(
        math.log(100.0) + 2 * math.log(math.log(60.0)), rel=1e-12)
    assert eval_rate(ExplorationRate.SGLRT, 10, 0.1) == pytest.approx(
        2 * math.log(10 * math.log(30.0) ** 2 / 0.1), rel=1e-12)
    assert eval_rate(ExplorationRate.CONJECTURED_LOG_LOG, 10, 0.1) == pytest.approx(
        math.log((math.log(10.0) + 1.0) / 0.1), rel=1e-12)


def test_eval_rate_vectorized_matches_scalar():
    ts = np.array([2, 5, 10, 100])
    for rate in ExplorationRate:
        delta = 0.005
        vec = eval_rate(rate, ts, delta)
        for t, v in zip(ts, vec):
            assert eval_rate(rate, int(t), delta) == pytest.approx(v, rel=1e-14)


def test_eval_rate_domain():
    with pytest.raises(DomainError):
        eval_rate(ExplorationRate.PLAIN_LOG, 1, 0.1)
    with pytest.raises(DomainError):
        eval_rate(ExplorationRate.PLAIN_LOG, 4, 0.0)
    with pytest.raises(DomainError):
        eval_rate(ExplorationRate.PLAIN_LOG, 4, 1.0)
    with pytest.raises(DomainError):
        eval_rate(ExplorationRate.ITERATED_LOG, 4, 0.5)  # needs delta < 1/e


def test_eval_rate_rejects_non_finite_t():
    # NaN passed the t < 2 check: robbins returned nan, plain-log 6.9078
    for rate in ExplorationRate:
        for t in (math.nan, math.inf, -math.inf, [4.0, math.nan]):
            with pytest.raises(DomainError, match="finite t >= 2"):
                eval_rate(rate, t, 0.001)


def test_iterated_log_warns_above_documented_threshold():
    with pytest.warns(RuntimeWarning):
        validate_rate(ExplorationRate.ITERATED_LOG, 0.1)


# --- elimination ---------------------------------------------------------------

def test_elimination_huge_gap_stops_immediately():
    for r in range(100):
        out = run_elimination(HUGE_GAP, 0.01, ExplorationRate.ROBBINS_LOG_T,
                              make_rng(mix_seed(1, r)))
        assert out.tau == 2
        assert out.recommended == 0
        assert out.correct and not out.exhausted
        assert out.draws_per_arm == (1, 1)


def test_elimination_structure_and_pac():
    n = 2000
    delta = 0.1
    errors = 0
    for r in range(n):
        out = run_elimination(EASY, delta, ExplorationRate.ROBBINS_LOG_T,
                              make_rng(mix_seed(2, r)))
        assert out.tau % 2 == 0
        assert out.draws_per_arm == (out.tau // 2, out.tau // 2)
        errors += not out.correct
    assert errors / n <= delta + 3 * math.sqrt(delta * (1 - delta) / n)


def test_elimination_tau_ratio_bands():
    # the delta->0 limit of E[tau]/log(1/delta) is 8 sigma^2/gap^2 = 8; at
    # delta=1e-3 the Robbins rate inflates it to ~12.4 (near t = 86 it is
    # ((t+1)/t) log((t+1)/(2 delta)) = 10.8, 1.56 log(1/delta)), while the
    # plain-log rate sits within the +-40% band around 8
    n = 1500
    delta = 1e-3
    taus_r, taus_p = [], []
    for r in range(n):
        taus_r.append(run_elimination(EASY, delta, ExplorationRate.ROBBINS_LOG_T,
                                      make_rng(mix_seed(3, r))).tau)
        taus_p.append(run_elimination(EASY, delta, ExplorationRate.PLAIN_LOG,
                                      make_rng(mix_seed(3, r))).tau)
    log_inv = math.log(1.0 / delta)
    ratio_r = np.mean(taus_r) / log_inv
    ratio_p = np.mean(taus_p) / log_inv
    assert 8.0 * 0.6 <= ratio_r <= 8.0 * 1.7
    assert 8.0 * 0.6 <= ratio_p <= 8.0 * 1.4


def test_elimination_requires_equal_variances():
    inst = two_armed_gaussian(0.5, 0.0, 0.25, 0.5)
    with pytest.raises(DomainError):
        run_elimination(inst, 0.05, ExplorationRate.ROBBINS_LOG_T, make_rng(0))
    # explicit subgaussian proxy unlocks bounded arms
    out = run_elimination(B21, 0.1, ExplorationRate.PLAIN_LOG, make_rng(0), sigma=0.5)
    assert out.tau % 2 == 0


def test_elimination_delta_domain():
    with pytest.raises(DomainError):
        run_elimination(EASY, 0.2, ExplorationRate.ROBBINS_LOG_T, make_rng(0))


def test_elimination_exhaustion():
    hard = two_armed_gaussian(1e-4, 0.0, 0.25)
    out = run_elimination(hard, 0.01, ExplorationRate.ROBBINS_LOG_T,
                          make_rng(5), tau_max=100)
    assert out.exhausted
    assert out.tau == 100
    assert out.recommended in (0, 1)


@pytest.mark.parametrize("cap", [0, 1, 2, 3])
def test_a_given_cap_bounds_tau_on_every_row(cap):
    # a paired rule takes cap // 2 steps of two draws; alpha-elimination cap steps of one
    rules = [
        fc_algos.EliminationRule(EASY, 0.1, ExplorationRate.ROBBINS_LOG_T, tau_max=cap),
        fc_algos.EliminationRule(B21, 0.1, ExplorationRate.ROBBINS_LOG_T, tau_max=cap,
                                 sigma=0.5),
        fc_algos.SglrtRule(B21, 0.1, ExplorationRate.ROBBINS_LOG_T, tau_max=cap),
        fc_algos.SprtRule(HUGE_GAP, 0.1, tau_max=cap),
        fc_algos.AlphaEliminationRule(EASY, 0.1, ExplorationRate.ALPHA_ELIM, tau_max=cap),
    ]
    for rule in rules:
        tau, _, _, exhausted = engine.run_rows(rule, make_rng(29), range(40))
        assert tau.max() <= cap
        if cap < 2 and not isinstance(rule, fc_algos.AlphaEliminationRule):
            assert (tau == 0).all() and exhausted.all()


def test_rate_monotonicity_coupled_runs():
    # pointwise-smaller rates stop no later on the same sample path; equal
    # stopping times give identical recommendations
    for r in range(200):
        seed = mix_seed(4, r)
        big = run_elimination(EASY, 0.01, ExplorationRate.ROBBINS_LOG_T, make_rng(seed))
        small = run_elimination(EASY, 0.01, ExplorationRate.CONJECTURED_LOG_LOG,
                                make_rng(seed))
        tiny = run_elimination(EASY, 0.01, ExplorationRate.PLAIN_LOG, make_rng(seed))
        assert small.tau <= big.tau
        assert tiny.tau <= small.tau
        if small.tau == big.tau:
            assert small.recommended == big.recommended


# --- alpha-elimination ------------------------------------------------------------

def test_alpha_elimination_symmetric_schedule():
    out = run_alpha_elimination(EASY, 0.05, ExplorationRate.ALPHA_ELIM, make_rng(11))
    n1, n2 = out.draws_per_arm
    assert n1 == math.ceil(0.5 * out.tau)
    assert n1 + n2 == out.tau
    assert abs(n1 - n2) <= 1


def test_alpha_elimination_allocation_limit():
    inst = two_armed_gaussian(1.0, 0.0, 1.0, 0.25)  # sigma1=1, sigma2=0.5
    alpha = 1.0 / 1.5
    fractions = []
    for r in range(200):
        out = run_alpha_elimination(inst, 0.01, ExplorationRate.ALPHA_ELIM,
                                    make_rng(mix_seed(6, r)))
        assert out.draws_per_arm[0] == math.ceil(alpha * out.tau)
        fractions.append(out.draws_per_arm[0] / out.tau)
    assert np.mean(fractions) == pytest.approx(2.0 / 3.0, abs=0.02)


def test_alpha_elimination_pac_and_tau_band():
    # asymptotic constant 2(s1+s2)^2/gap^2 = 4.5; finite-delta inflation from
    # the log(t/delta) rate puts the measured ratio near 11 (near t = 50 the
    # rate log(t/delta) + 2 loglog(6t) = 12.0 is 2.6 log(1/delta))
    inst = two_armed_gaussian(1.0, 0.0, 1.0, 0.25)
    n = 1500
    delta = 0.01
    errors = 0
    taus = []
    for r in range(n):
        out = run_alpha_elimination(inst, delta, ExplorationRate.ALPHA_ELIM,
                                    make_rng(mix_seed(7, r)))
        errors += not out.correct
        taus.append(out.tau)
    assert errors / n <= delta + 3 * math.sqrt(delta * (1 - delta) / n)
    ratio = np.mean(taus) / math.log(1.0 / delta)
    assert 4.5 * 0.8 <= ratio <= 4.5 * 3.0


def test_alpha_elimination_explicit_alpha_validation():
    with pytest.raises(DomainError):
        run_alpha_elimination(EASY, 0.05, ExplorationRate.ALPHA_ELIM, make_rng(0),
                              alpha=1.0)
    with pytest.raises(DomainError):
        run_alpha_elimination(B21, 0.05, ExplorationRate.ALPHA_ELIM, make_rng(0))


# --- SGLRT --------------------------------------------------------------------------

def test_sglrt_statistic_zero_on_ties():
    assert float(i_star_bernoulli(0.25, 0.25)) == 0.0


def test_sglrt_structure_and_pac():
    n = 1500
    delta = 0.1
    errors = 0
    for r in range(n):
        out = run_sglrt(B21, delta, ExplorationRate.SGLRT, make_rng(mix_seed(8, r)))
        assert out.tau % 2 == 0
        assert out.draws_per_arm == (out.tau // 2, out.tau // 2)
        errors += not out.correct
    assert errors / n <= delta + 3 * math.sqrt(delta * (1 - delta) / n)


def test_sglrt_requires_bernoulli():
    with pytest.raises(DomainError):
        run_sglrt(EASY, 0.05, ExplorationRate.SGLRT, make_rng(0))


def test_sglrt_tau_against_bounds():
    # SGLRT with its provably safe rate must respect the uniform-sampling
    # lower bound log(1/(2 delta))/I_*; the paper's asymptotic factor-2 cap
    # is unreachable at this delta (for t >= 1000 the rate
    # 2 log(t (log 3t)^2 / delta) exceeds 5 log(1/delta)), so only an honest
    # cap is pinned
    n = 400
    delta = 1e-3
    taus = []
    for r in range(n):
        taus.append(run_sglrt(B21, delta, ExplorationRate.SGLRT,
                              make_rng(mix_seed(9, r))).tau)
    mean_tau = float(np.mean(taus))
    i_star = i_star_fc(B21)
    assert mean_tau >= math.log(1.0 / (2 * delta)) / i_star
    assert mean_tau / math.log(1.0 / delta) <= 650.0
    # the conjectured log-log rate does satisfy the asymptotic factor-2 cap
    taus_c = [run_sglrt(B21, delta, ExplorationRate.CONJECTURED_LOG_LOG,
                        make_rng(mix_seed(10, r))).tau for r in range(n)]
    assert np.mean(taus_c) / math.log(1.0 / delta) <= 2.2 / i_star


# --- the SGLRT screen -------------------------------------------------------------

def _t_i_star(s1: int, s2: int, k: int) -> float:
    """t I_*(s1/k, s2/k), t = 2k, to 50 digits, as the G-test sum of n log n terms."""
    def xlnx(n):
        return n * decimal.Decimal(n).ln() if n else decimal.Decimal(0)

    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a = s1 + s2
        value = (xlnx(s1) + xlnx(k - s1) + xlnx(s2) + xlnx(k - s2) - xlnx(a)
                 - xlnx(2 * k - a) + 2 * k * decimal.Decimal(2).ln())
    return float(value)


def _arm_sum(k: int, near: int | None = None):
    """An arm sum after k steps: 0, k, anything, or within a few sqrt(k) of ``near``."""
    options = [st.sampled_from((0, k)), st.integers(0, k)]
    if near is not None:
        spread = 3 * math.isqrt(k) + 3
        options.append(st.integers(max(0, near - spread), min(k, near + spread)))
    return st.one_of(options)


@st.composite
def _integer_sums(draw):
    k = draw(st.one_of(st.integers(1, 64), st.integers(1, 2**40)))
    s1 = draw(_arm_sum(k))
    return s1, draw(_arm_sum(k, near=s1)), k


@given(_integer_sums())
@settings(max_examples=300, deadline=None)
def test_sglrt_bounds_bracket_the_statistic(sums):
    s1, s2, k = sums
    assume(s1 != s2)
    truth = _t_i_star(s1, s2, k)
    a1, a2, ak = (np.array([float(v)]) for v in sums)
    # the coarse bracket: no sure crossing when beta is just above t I_*, no sure
    # miss just below it, and both sure at a factor of 2
    for scale, sure_hit, sure_miss in ((1 + 1e-12, False, None), (1 - 1e-12, None, False),
                                       (2.0, False, True), (0.5, True, False)):
        beta = np.array([truth * scale])
        hits, misses = _coarse_screen(a1, a2, ak, beta, beta)
        assert sure_hit in (None, hits[0]) and sure_miss in (None, misses[0])


def _coarse_screen_out_of_place(s1, s2, k, low, high):
    # the screen's products as fresh arrays, in the same order of operations
    dd = (s1 - s2) ** 2
    sums = s1 + s2
    rest = 2.0 * k - sums
    ab = sums * rest
    n2 = np.minimum(sums, rest) ** 2
    return (dd > (high / k) * ab,
            dd * (n2 + (2.0 * math.log(2.0) - 1.0) * dd) <= (low / k) * ab * n2)


def test_coarse_screen_takes_rows_and_single_rows_alike():
    # the workspace's slots take the shape of the sums: a block of rows, or
    # one row as 1-D arrays, gives the flags the out-of-place products give
    rng = np.random.default_rng(41)
    k = np.arange(1.0, 301.0)
    s1 = np.cumsum(rng.random((5, 300)) < 0.7, axis=1).astype(float)
    s2 = np.cumsum(rng.random((5, 300)) < 0.2, axis=1).astype(float)
    beta = 2.0 * np.log(2.0 * k / 0.05)
    low, high = beta * (1.0 - 1e-6), beta * (1.0 + 1e-6)
    want = _coarse_screen_out_of_place(s1, s2, k, low, high)
    got = [flags.copy() for flags in _coarse_screen(s1, s2, k, low, high)]
    assert want[0].any() and want[1].any() and not want[0].all()
    for flags, expected in zip(got, want):
        np.testing.assert_array_equal(flags, expected)
    for r in range(5):
        row = _coarse_screen(s1[r], s2[r], k, low, high)
        for flags, expected in zip(row, want):
            np.testing.assert_array_equal(flags, expected[r])


@functools.cache
def _partial_sums(length):
    """(lo, hi), (length + 1, length) arrays: over every 0/1 path of ``length``
    steps with t ones, its sum after j + 1 steps takes every value in [lo[t, j], hi[t, j]]."""
    reached = [[set() for _ in range(length)] for _ in range(length + 1)]
    for path in itertools.product((0, 1), repeat=length):
        partial = list(itertools.accumulate(path))
        for j, s in enumerate(partial):
            reached[partial[-1]][j].add(s)
    lo = np.array([[min(r) for r in reached[t]] for t in range(length + 1)])
    hi = np.array([[max(r) for r in reached[t]] for t in range(length + 1)])
    for t, sets in enumerate(reached):
        assert all(r == set(range(lo[t, j], hi[t, j] + 1)) for j, r in enumerate(sets))
    return lo, hi


@pytest.mark.parametrize("kind", ["sglrt", "elimination"])
@pytest.mark.parametrize("rate", list(ExplorationRate))
def test_a_box_the_rule_calls_safe_holds_no_hit(kind, rate):
    # every box of `length` steps after `done`, from every pair of start sums
    # in [0, done] with every pair of increments: where the rule calls it
    # safe, no step of any pair of 0/1 paths through it is a hit of its scan
    found = {"safe": 0, "held": 0}
    for delta, done, length in itertools.product((0.1, 0.01, 1e-4), (0, 7, 30), (1, 4, 10)):
        if rate is ExplorationRate.ITERATED_LOG:
            delta = min(delta, 0.01)  # the rate warns by design above 0.01
        rule = (SglrtRule(B21, delta, rate) if kind == "sglrt"
                else fc_algos.EliminationRule(B21, delta, rate, sigma=0.5))
        side, last = done + 1, done + length
        # the scan's flags at every step k and every pair of sums (S1, S2) <= k
        k = np.arange(done + 1, last + 1)
        s1, s2 = (np.minimum(s.reshape(-1, 1), k).astype(float)
                  for s in np.meshgrid(np.arange(last + 1), np.arange(last + 1), indexing="ij"))
        hits = rule.scan(rule.chunk(done, length), (s1, s2)).reshape(last + 1, last + 1, length)
        # the box's verdict, per start sums and increments, from the engine's bounds
        a1, a2, t1, t2 = np.meshgrid(np.arange(side), np.arange(side), np.arange(length + 1),
                                     np.arange(length + 1), indexing="ij")
        x, y = (np.arange(length) < t.reshape(-1, 1) for t in (t1, t2))
        starts = np.array([0])
        box, _ = engine._box(np.column_stack([a1.ravel(), a2.ravel()]).astype(float),
                             x.astype(float), y.astype(float), done, starts)
        safe = rule.safe(engine._window_floors(rule.chunk(done, length), starts), box)
        safe = safe.reshape(a1.shape)
        # whether a pair of paths through the box hits: after j + 1 steps the
        # arms' sums range over a rectangle, a1 + [lo, hi] by a2 + [lo, hi], so
        # count the hits in it by prefix sums
        lo, hi = _partial_sums(length)
        count = np.zeros((length, last + 2, last + 2), dtype=np.int64)
        count[:, 1:, 1:] = np.moveaxis(hits, 2, 0).cumsum(axis=1).cumsum(axis=2)
        held = np.zeros_like(safe)
        for j in range(length):
            r0, r1 = a1 + lo[t1, j], a1 + hi[t1, j] + 1
            c0, c1 = a2 + lo[t2, j], a2 + hi[t2, j] + 1
            held |= count[j, r1, c1] - count[j, r0, c1] - count[j, r1, c0] + count[j, r0, c0] > 0
        assert not (safe & held).any(), (delta, done, length)
        found["safe"] += safe.sum()
        found["held"] += held.sum()
    assert found["safe"] and found["held"]


def _accumulate(rule, carry, x, y, done):
    # the running sums the engine keeps for the rule's layout
    return engine.samplers(rule.layout)[3](carry, x, y, done)


def _all_leads(rule, sums, done):
    # the lead at every step of every row, as the rule's layout reads it
    rows, n = sums[0].shape
    leads = engine.samplers(rule.layout)[6]
    return leads(sums, *np.divmod(np.arange(rows * n), n), done).reshape(rows, n)


EXPONENTIAL = BanditInstance((ExpFamilyArm(EXPONENTIAL_FAMILY, -1.0),
                              ExpFamilyArm(EXPONENTIAL_FAMILY, -2.0)))


@pytest.mark.parametrize("rule, paired", [
    (fc_algos.EliminationRule(EASY, 0.05, ExplorationRate.ROBBINS_LOG_T), True),
    (fc_algos.EliminationRule(B21, 0.05, ExplorationRate.ROBBINS_LOG_T, sigma=0.5), False),
    (fc_algos.SprtRule(EASY, 0.05), True),
    (fc_algos.EliminationRule(EXPONENTIAL, 0.05, ExplorationRate.ROBBINS_LOG_T, sigma=1.0),
     False),
], ids=["gaussian-elimination", "bernoulli-elimination", "sprt", "exponential-elimination"])
def test_scans_equal_their_out_of_place_sums(rule, paired):
    # the running sums built in workspace slots are carry + cumsum bit for bit:
    # of the paired differences, of each Bernoulli arm, or of the drawn
    # differences of other arms; the scan and the leads decide from them
    rng = np.random.default_rng(43)
    x, y = rng.normal(0.3, 1.7, (6, 200)), rng.normal(-0.2, 0.9, (6, 0 if paired else 200))
    carry = rng.normal(0.0, 30.0, (6, 2))
    for a in (x, y):
        a.setflags(write=False)
    shared = rule.chunk(500, 200)
    assert engine.samplers(rule.layout)[4](500, 200) == (200, 0 if paired else 200)
    if rule.layout[0] == "both" and rule.arms[0].family == "bernoulli":
        want = (carry[:, :1] + np.cumsum(x, axis=1), carry[:, 1:] + np.cumsum(y, axis=1))
        gap, leads = want[0] - want[1], want[0] >= want[1]
    else:
        want = (carry[:, :1] + np.cumsum(x if paired else x - y, axis=1),)
        gap = want[0]
        leads = gap >= 0.0
    sums = _accumulate(rule, carry, x, y, 500)
    assert [s.tobytes() for s in sums] == [s.tobytes() for s in want]
    np.testing.assert_array_equal(rule.scan(shared, sums), np.abs(gap) > shared)
    np.testing.assert_array_equal(_all_leads(rule, sums, 500), leads)


def test_bernoulli_arm_sums_differ_by_the_running_difference():
    # on 0/1 draws every partial sum is an integer below 2**53, so S1 - S2 of
    # the kept arm sums is carry + cumsum(x - y) bit for bit, as is its sign
    rule = fc_algos.EliminationRule(B21, 0.05, ExplorationRate.ROBBINS_LOG_T, sigma=0.5)
    rng = np.random.default_rng(47)
    x, y = (rng.random((6, 300)) < 0.6).astype(float), (rng.random((6, 300)) < 0.4).astype(float)
    carry = rng.integers(0, 2**40, (6, 2)).astype(float)
    s1, s2 = _accumulate(rule, carry, x, y, 2**41)
    running = (carry[:, :1] - carry[:, 1:]) + np.cumsum(x - y, axis=1)
    assert (s1 - s2).tobytes() == running.tobytes()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_sprt_scan_is_the_scaled_llr_decision(data):
    # the scan compares the unscaled sum S with log(1/delta) / coef; the SPRT's
    # definition compares coef S with log(1/delta).  They agree except where
    # rounding can split them, within 1e-12 relative of the threshold.
    gap = data.draw(st.floats(1e-6, 1e6))
    var = data.draw(st.floats(1e-6, 1e6))
    delta = data.draw(st.floats(1e-12, 0.999))
    paper = data.draw(st.booleans())
    rule = fc_algos.SprtRule(two_armed_gaussian(gap, 0.0, var), delta, tau_max=10,
                             use_paper_statistic=paper)
    rows, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 64))
    scale = math.log(1.0 / delta) / rule.coef
    carry = np.array([[data.draw(st.floats(-3.0, 3.0))] for _ in range(rows)]) * scale
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(gap, math.sqrt(2.0 * var), (rows, n))
    x.setflags(write=False)
    shared, (c1, c2) = rule.chunk(0, n), engine.samplers(rule.layout)[4](0, n)
    kept = _accumulate(rule, carry, x, np.empty((rows, c2)), 0)
    hits, leads = rule.scan(shared, kept), _all_leads(rule, kept, 0)
    sums = carry + np.cumsum(x, axis=1)
    llr = rule.coef * sums
    bound = math.log(1.0 / delta)
    near = np.abs(np.abs(llr) - bound) <= 1e-12 * bound
    assert not near.any(), f"steps within rounding of the threshold: {np.argwhere(near)}"
    np.testing.assert_array_equal(hits, np.abs(llr) > bound)
    np.testing.assert_array_equal(leads, llr >= 0.0)
    assert kept[0].tobytes() == sums.tobytes()


def test_sprt_and_elimination_share_one_layout():
    # the SPRT is paired elimination: one draw layout, so one stream in a group
    rate = ExplorationRate.ROBBINS_LOG_T
    assert (fc_algos.SprtRule(EASY, 0.05, tau_max=500).layout
            == fc_algos.EliminationRule(EASY, 0.1, rate, tau_max=500).layout)


def _first(hits):
    return np.where(hits.any(axis=1), hits.argmax(axis=1), -1)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_sglrt_screen_matches_the_unscreened_scan(data):
    rate = data.draw(st.sampled_from(list(ExplorationRate)))
    top = 0.3 if rate is ExplorationRate.ITERATED_LOG else 0.999
    delta = data.draw(st.floats(1e-9, top))
    rows, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 48))
    done = data.draw(st.one_of(st.sampled_from((0, 2**40 - n)), st.integers(0, 2**40 - n)))
    carry = []
    for _ in range(rows):
        s1 = data.draw(_arm_sum(done))
        carry.append((s1, data.draw(_arm_sum(done, near=s1))))
    carry = np.array(carry, dtype=float)
    p1, p2 = (data.draw(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0, 1)))
              for _ in range(2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = (rng.random((rows, n)) < p1).astype(float)
    y = (rng.random((rows, n)) < p2).astype(float)

    ks = np.arange(done + 1, done + n + 1)
    cum1 = carry[:, :1] + np.cumsum(x, axis=1)
    cum2 = carry[:, 1:] + np.cumsum(y, axis=1)
    stat = 2 * ks * i_star_bernoulli(cum1 / ks, cum2 / ks)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # iterated-log above 0.01
        rule = SglrtRule(B21, delta, rate)
        beta = eval_rate(rate, 2 * ks, delta)
    # beta equal to one row's statistic, or one ulp either side of it
    tie = data.draw(st.none() | st.integers(0, rows - 1))
    if tie is not None:
        at = stat[tie] > 0
        beta = np.where(at, stat[tie], beta)
        side = data.draw(st.sampled_from((0.0, -np.inf, np.inf)))
        if side:
            beta = np.where(at, np.nextafter(beta, side), beta)
    with mock.patch.object(fc_algos, "_rate_values", lambda *args: beta):
        shared = rule.chunk(done, n)

    sums = _accumulate(rule, carry, x, y, done)
    hits = rule.scan(shared, sums)
    leads = _all_leads(rule, sums, done)
    want_hits, want_leads = stat > beta, cum1 / ks >= cum2 / ks
    first = _first(hits)
    np.testing.assert_array_equal(first, _first(want_hits))
    stopped = np.flatnonzero(first >= 0)
    np.testing.assert_array_equal(leads[stopped, first[stopped]],
                                  want_leads[stopped, first[stopped]])
    np.testing.assert_array_equal(leads[:, -1], want_leads[:, -1])
    np.testing.assert_array_equal(sums, (cum1, cum2))


def test_sglrt_screen_evaluates_few_steps_exactly(monkeypatch):
    # fig4-right's SGLRT configs: the exact statistic sees under 0.1% of the
    # row-steps scanned (every one of them before the screen), over cells
    # that run more than 500,000 row-steps, scanned or skipped by the box test
    seen = {"steps": 0, "scanned": 0, "exact": 0}
    real_i_star, real_scan = fc_algos.i_star_bernoulli_kernel, SglrtRule.scan
    real_run_group = engine.run_group

    def i_star(x, y):
        seen["exact"] += np.size(x)
        return real_i_star(x, y)

    def scan(self, shared, sums):
        seen["scanned"] += sums[0].size
        return real_scan(self, shared, sums)

    def run_group(rules, rng, rows):
        # a row of a paired rule runs tau / 2 steps
        for block in real_run_group(rules, rng, rows):
            seen["steps"] += sum(tau for rule, part in zip(rules, block)
                                 if isinstance(rule, SglrtRule) for tau, *_ in part) // 2
            yield block

    monkeypatch.setattr(fc_algos, "i_star_bernoulli_kernel", i_star)
    monkeypatch.setattr(SglrtRule, "scan", scan)
    monkeypatch.setattr(engine, "run_group", run_group)
    configs = [c for c in presets.figure_configs("fig4-right", 10, 1000003)
               if c.algorithm.kind == "sglrt"]
    harness.run_experiments(configs, 1)
    assert seen["steps"] > 500_000
    assert seen["exact"] < 1e-3 * seen["scanned"]


# --- SPRT oracle ----------------------------------------------------------------------

def test_sprt_mean_tau_and_error():
    inst = two_armed_gaussian(1.0, 0.0, 0.25)  # gap 1, sigma 0.5
    n = 3000
    delta = 1e-3
    taus = []
    errors = 0
    for r in range(n):
        out = run_sprt_oracle(inst, delta, make_rng(mix_seed(11, r)))
        taus.append(out.tau)
        errors += not out.correct
        assert out.tau % 2 == 0
    theoretical = 2 * 0.25 / 1.0 * math.log(1.0 / delta)  # ~3.45
    assert theoretical <= np.mean(taus) <= 2.5 * theoretical
    assert errors / n <= delta + 3 * math.sqrt(delta * (1 - delta) / n)


def test_sprt_error_at_moderate_delta():
    inst = two_armed_gaussian(1.0, 0.0, 0.25)
    n = 30000
    for delta in (0.1, 0.01):
        errors = sum(
            not run_sprt_oracle(inst, delta, make_rng(mix_seed(12, r))).correct
            for r in range(n))
        assert errors / n <= delta + 3 * math.sqrt(delta * (1 - delta) / n)


def test_sprt_sign_flip_symmetry():
    flipped = two_armed_gaussian(0.0, 1.0, 0.25)
    inst = two_armed_gaussian(1.0, 0.0, 0.25)
    n = 2000
    rec_a = [run_sprt_oracle(inst, 0.01, make_rng(mix_seed(13, r))) for r in range(n)]
    rec_b = [run_sprt_oracle(flipped, 0.01, make_rng(mix_seed(13, r))) for r in range(n)]
    # correctness targets swap, tau distributions agree
    assert np.mean([o.correct for o in rec_a]) > 0.98
    assert np.mean([o.correct for o in rec_b]) > 0.98
    mean_a, mean_b = np.mean([o.tau for o in rec_a]), np.mean([o.tau for o in rec_b])
    assert abs(mean_a - mean_b) < 0.5


def test_sprt_paper_statistic_switch():
    inst = two_armed_gaussian(1.0, 0.0, 0.25)
    # unscaled statistic needs |gap * sum| > log(1/delta): longer runs
    taus_exact = [run_sprt_oracle(inst, 0.01, make_rng(mix_seed(14, r))).tau
                  for r in range(500)]
    taus_paper = [run_sprt_oracle(inst, 0.01, make_rng(mix_seed(14, r)),
                                  use_paper_statistic=True).tau
                  for r in range(500)]
    assert np.mean(taus_paper) > np.mean(taus_exact)


def test_default_tau_max_formula():
    assert default_tau_max(EASY, 0.01) == math.ceil(50 * math.log(100.0) / 0.125)


@pytest.mark.parametrize("run", [
    lambda rng: run_elimination(EASY, 0.05, ExplorationRate.ROBBINS_LOG_T, rng, tau_max=-5),
    lambda rng: run_alpha_elimination(EASY, 0.05, ExplorationRate.ALPHA_ELIM, rng,
                                      tau_max=-5),
    lambda rng: run_sglrt(B21, 0.05, ExplorationRate.SGLRT, rng, tau_max=-5),
    lambda rng: run_sprt_oracle(EASY, 0.05, rng, tau_max=-5),
], ids=["elimination", "alpha-elimination", "sglrt", "sprt"])
def test_negative_tau_max_is_rejected(run):
    with pytest.raises(DomainError):
        run(make_rng(0))


def test_rate_must_be_an_exploration_rate():
    with pytest.raises(DomainError):
        validate_rate("robbins", 0.1)
    with pytest.raises(DomainError):
        run_elimination(EASY, 0.05, None, make_rng(0))


def test_elimination_rejects_non_finite_sigma():
    for sigma in (math.inf, math.nan, 0.0):
        with pytest.raises(DomainError):
            run_elimination(B21, 0.1, ExplorationRate.PLAIN_LOG, make_rng(0), sigma=sigma)


def _paired_walk_exit(drift, var, bounds, h):
    """First exit of S_k = D_1 + ... + D_k, D_s ~ N(drift, var) iid, from (-b_k, b_k).

    Density recursion on the lattice x = j h: the walk's law inside the
    band after k steps is kept as masses at the lattice points (midpoint
    rule, with the cells that straddle a bound cut at it); one step convolves
    them with the N(drift, var) density, and the exit probabilities of step
    k are the exact normal tails from every mass.  Returns per-step
    probabilities of leaving above and below, and the masses (with their
    points) still inside after the last step run, which is the last bound or
    the first step where under 1e-15 is left.
    """
    sd = math.sqrt(var)
    reach = math.ceil((abs(drift) + 10.0 * sd) / h)
    offsets = h * np.arange(-reach, reach + 1)
    kernel = h * scipy.stats.norm.pdf(offsets, drift, sd)
    lo, mass = 0, np.ones(1)  # mass[i] sits at (lo + i) h; S_0 = 0
    up, down = [], []
    for b in bounds:
        x = h * (lo + np.arange(mass.size))
        up.append(float(mass @ scipy.special.ndtr((x + drift - b) / sd)))
        down.append(float(mass @ scipy.special.ndtr((-b - x - drift) / sd)))
        half = math.floor(b / h + 0.5)  # new lattice -half..half covers (-b, b)
        start = -half - (lo - reach)
        density = scipy.signal.fftconvolve(mass, kernel)[start:start + 2 * half + 1] / h
        lo = -half
        x = h * (lo + np.arange(density.size))
        mass = np.maximum(density, 0.0) * (np.minimum(x + h / 2, b) - np.maximum(x - h / 2, -b))
        if mass.sum() < 1e-15:
            break
    return np.array(up), np.array(down), mass, h * (lo + np.arange(mass.size))


def _plainlog_elimination_exact(delta, h):
    """(error, mean tau, sd tau) of plain-log elimination on EASY.

    The rule stops at the first step k with |X_1 - Y_1 + ... + X_k - Y_k| >
    sqrt(2 sigma^2 (2k) log(1/delta)), sigma^2 = 1/4, where X_s - Y_s ~
    N(1/2, 1/2), and errs when the sum is negative there (or at the cap).
    """
    steps = default_tau_max(EASY, delta) // 2
    ks = np.arange(1, steps + 1)
    up, down, inside, x = _paired_walk_exit(0.5, 0.5, np.sqrt(ks * math.log(1.0 / delta)), h)
    taus = 2.0 * ks[:up.size]
    stop = up + down
    # mass left inside counts as stopping at the last step run: exact at the
    # cap, and under 1e-15 before it
    error = math.fsum(down) + math.fsum(inside[x < 0])
    mean = math.fsum(taus * stop) + taus[-1] * inside.sum()
    second = math.fsum(taus * taus * stop) + taus[-1] ** 2 * inside.sum()
    return error, mean, math.sqrt(second - mean * mean)


def test_plainlog_error_slope_tracks_complexity():
    # Figure-3-style check: log error vs mean tau is near-linear with slope
    # on the order of -c_star_fc = -0.125. At desk scale (errors >= 1e-4)
    # the slope runs ~1.45x the asymptotic exponent, so the band is
    # [0.8, 1.5]x rather than the asymptotic +-20%.  The slope is fitted to
    # the exact errors and mean taus of a first-passage recursion (a fit to
    # Monte Carlo records at N = 1e5 swings by about 0.01 with the seed,
    # across the band's edge), and each Monte Carlo record must agree with
    # its exact values.
    from bestarm.harness import AlgorithmSpec, ExperimentConfig, run_fc_experiment

    n = 100_000
    deltas = (0.1, 0.03, 0.01)
    cfg = ExperimentConfig(EASY, AlgorithmSpec("elimination", rate=ExplorationRate.PLAIN_LOG),
                           deltas, n, 314)
    recs = run_fc_experiment(cfg, workers=4)
    exact = []
    for rec, delta in zip(recs, deltas):
        error, mean_tau, sd_tau = _plainlog_elimination_exact(delta, 0.004)
        error_se = math.sqrt(error * (1 - error) / n)
        tau_se = sd_tau / math.sqrt(n)
        # the grid error, seen by halving the step, is below 1/10 of a standard error
        fine_error, fine_mean, _ = _plainlog_elimination_exact(delta, 0.002)
        assert abs(fine_error - error) <= 0.1 * error_se
        assert abs(fine_mean - mean_tau) <= 0.1 * tau_se
        assert abs(rec.error_rate - error) <= 4 * error_se
        assert abs(rec.mean_tau - mean_tau) <= 4 * tau_se
        exact.append((mean_tau, math.log(error)))
    taus, logs = np.array(exact).T
    slope, intercept = np.polyfit(taus, logs, 1)
    fitted = slope * taus + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    assert 1 - ss_res / ss_tot >= 0.95
    assert -0.125 * 1.5 <= slope <= -0.125 * 0.8
