import dataclasses
import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bestarm.complexity import (
    _expfam_params,
    c_star_fb,
    c_star_fc,
    complexity_report,
    g_alpha,
    i_star_bernoulli,
    i_star_bernoulli_kernel,
    i_star_fb,
    i_star_fc,
    optimal_alpha,
)
from bestarm.dists import (
    BERNOULLI_FAMILY,
    EXPONENTIAL_FAMILY,
    ExpFamilyArm,
    bernoulli_kl,
    binary_entropy,
    gaussian_family,
    mean_to_nat,
)
from bestarm.errors import DegenerateInstance, DomainError
from bestarm.instances import BanditInstance, two_armed_bernoulli, two_armed_gaussian

EASY = two_armed_gaussian(0.5, 0.0, 0.25)
B21 = two_armed_bernoulli(0.2, 0.1)

# Frozen oracle values for Bernoulli(0.2, 0.1), computed with an independent
# 200-step bisection on the binary relative entropy and a golden-section scan.
C_STAR_FC_ORACLE = 0.009988333284034548
MU_STAR_FC_ORACLE = 0.1476447308783599
C_STAR_FB_ORACLE = 0.01012451657995915
MU_STAR_FB_ORACLE = 0.14524435432427257
I_STAR_FC_ORACLE = 0.009966389341172874
I_STAR_FB_ORACLE = 0.010101353658759717
ALPHA_STAR_ORACLE = 0.523875508150534

mean_pairs = st.tuples(
    st.floats(min_value=0.02, max_value=0.98),
    st.floats(min_value=0.02, max_value=0.98),
).filter(lambda p: abs(p[0] - p[1]) > 1e-4)


def _logit(x):
    return math.log(x / (1.0 - x))


# --- Gaussian closed forms ----------------------------------------------------

def test_gaussian_easy_instance():
    value, crossing = c_star_fc(EASY)
    assert value == 0.125
    assert crossing == pytest.approx(0.25, abs=1e-15)
    assert i_star_fc(EASY) == 0.125
    value_fb, _ = c_star_fb(EASY)
    assert value_fb == 0.125
    assert i_star_fb(EASY) == 0.125


def test_gaussian_mismatched_variances():
    inst = two_armed_gaussian(1.0, 0.0, 1.0, 0.25)
    value, _ = c_star_fc(inst)
    assert value == pytest.approx(1.0 / (2 * 1.5**2), rel=1e-14)
    assert i_star_fc(inst) == pytest.approx(1.0 / (4 * 1.25), rel=1e-14)
    # uniform sampling is sub-optimal by at most a factor of two
    assert value / i_star_fc(inst) <= 2.0 + 1e-12


def test_swapped_arms_same_value():
    for inst, swapped in [
        (EASY, two_armed_gaussian(0.0, 0.5, 0.25)),
        (B21, two_armed_bernoulli(0.1, 0.2)),
    ]:
        assert c_star_fc(inst)[0] == pytest.approx(c_star_fc(swapped)[0], rel=1e-12)
        assert c_star_fb(inst)[0] == pytest.approx(c_star_fb(swapped)[0], rel=1e-12)


def test_degenerate_means_rejected():
    with pytest.raises(DegenerateInstance):
        two_armed_gaussian(0.3, 0.3, 0.25)
    with pytest.raises(DegenerateInstance):
        two_armed_bernoulli(0.4, 0.4)


# --- Bernoulli oracle values ---------------------------------------------------

def test_bernoulli_c_star_fc_oracle():
    value, theta_star = c_star_fc(B21)
    assert value == pytest.approx(C_STAR_FC_ORACLE, abs=1e-9)
    assert value == pytest.approx(0.009986, abs=1e-5)
    assert theta_star == pytest.approx(_logit(MU_STAR_FC_ORACLE), abs=1e-8)


def test_bernoulli_c_star_fb_oracle():
    value, theta_star = c_star_fb(B21)
    assert value == pytest.approx(C_STAR_FB_ORACLE, abs=1e-9)
    assert value == pytest.approx(0.010124, abs=1e-5)
    assert theta_star == pytest.approx(_logit(MU_STAR_FB_ORACLE), abs=1e-8)
    assert value > c_star_fc(B21)[0]


def test_bernoulli_i_star_values():
    assert i_star_fc(B21) == pytest.approx(I_STAR_FC_ORACLE, abs=1e-12)
    assert i_star_fc(B21) == pytest.approx(0.009967, abs=1e-5)
    # natural-parameter midpoint sits at mean 1/7
    mid = 0.5 * (_logit(0.2) + _logit(0.1))
    assert 1.0 / (1.0 + math.exp(-mid)) == pytest.approx(1.0 / 7.0, abs=1e-12)
    assert i_star_fb(B21) == pytest.approx(I_STAR_FB_ORACLE, abs=1e-12)
    assert i_star_fb(B21) == pytest.approx(0.010102, abs=1e-5)


def test_i_star_continuity_at_small_gap():
    assert i_star_fc(two_armed_bernoulli(0.300001, 0.3)) < 1e-9


def _i_star_reference(x: float, y: float) -> float:
    """I_*(x, y) of the two double means, to 40 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x, y = decimal.Decimal(x), decimal.Decimal(y)
        mid = (x + y) / 2

        def kl(p):
            return p * (p / mid).ln() + (1 - p) * ((1 - p) / (1 - mid)).ln()

        return float((kl(x) + kl(y)) / 2)


@pytest.mark.parametrize("gap", [1e-8, 1e-10])
def test_bernoulli_i_star_fc_near_ties(gap):
    # read on the means: logit(mean) carried its rounding into I_* here, up to
    # 1e-7 relative at a relative gap of 1e-8 and 1e-5 at 1e-10
    rng = np.random.default_rng(1708)
    for x in rng.uniform(0.02, 0.98, size=200):
        x = float(x)
        y = x * (1.0 + gap)
        reference = _i_star_reference(x, y)
        assert i_star_fc(two_armed_bernoulli(x, y)) == pytest.approx(reference, rel=1e-10,
                                                                     abs=0.0)


def _crossing_references(x: float, y: float) -> tuple[float, float]:
    """(c_star_fc, i_star_fb) of the two double means, to 40 digits.

    d(x, mu) - d(y, mu) = H(y) - H(x) - (x - y) logit(mu), with H the binary
    entropy, so c_star_fc's crossing is logit(mu*) = (H(y) - H(x)) / (x - y);
    i_star_fb's midpoint is the mean at the midpoint of logit(x), logit(y).
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x, y = decimal.Decimal(x), decimal.Decimal(y)

        def kl(p, q):
            return p * (p / q).ln() + (1 - p) * ((1 - p) / (1 - q)).ln()

        def entropy(p):
            return -p * p.ln() - (1 - p) * (1 - p).ln()

        logit = (entropy(y) - entropy(x)) / (x - y)
        mu_star = 1 / (1 + (-logit).exp())
        root, root_bar = (x * y).sqrt(), ((1 - x) * (1 - y)).sqrt()
        mid = root / (root + root_bar)
        return float(kl(x, mu_star)), float((kl(mid, x) + kl(mid, y)) / 2)


@pytest.mark.parametrize("gap", [1e-8, 1e-10])
def test_bernoulli_c_star_fc_and_i_star_fb_near_ties(gap):
    # the rates must read the means: rates of logit(mean) carry its rounding,
    # up to 1e-7 relative at a relative gap of 1e-8 and 5e-6 at 1e-10
    rng = np.random.default_rng(1818)
    for x in rng.uniform(0.02, 0.98, size=60):
        x = float(x)
        y = x * (1.0 + gap)
        c_reference, i_reference = _crossing_references(x, y)
        instance = two_armed_bernoulli(x, y)
        assert c_star_fc(instance)[0] == pytest.approx(c_reference, rel=1e-9, abs=0.0)
        assert i_star_fb(instance) == pytest.approx(i_reference, rel=1e-9, abs=0.0)


def test_expfam_bernoulli_rates_near_ties_far_from_one_half():
    # at theta down to -600 and gaps of 1e-6 to 1e-5 all four rates are
    # b''(theta bar) dtheta^2 / 8 to within 1e-6 relative: the divergence's
    # terms must not cancel there, and the rates fall below 1e-162, where a
    # product of two of them underflows
    rng = np.random.default_rng(1819)
    for theta, step, up in zip(rng.uniform(-600.0, 0.0, 300), rng.uniform(1e-6, 1e-5, 300),
                               rng.random(300) < 0.5):
        t1, t2 = float(theta), float(theta) + (step if up else -step)
        instance = BanditInstance((ExpFamilyArm(BERNOULLI_FAMILY, t1),
                                   ExpFamilyArm(BERNOULLI_FAMILY, t2)))
        mean = BERNOULLI_FAMILY.mean_map(0.5 * (t1 + t2))
        reference = mean * (1.0 - mean) * (t1 - t2) ** 2 / 8.0
        for value in (c_star_fc(instance)[0], i_star_fc(instance), c_star_fb(instance)[0],
                      i_star_fb(instance)):
            assert value == pytest.approx(reference, rel=1e-6, abs=0.0)


D = decimal.Decimal

# log-partition b, mean map b' and its inverse of each family, in 40-digit decimals
_BERNOULLI_DECIMAL = (lambda t: (1 + t.exp()).ln(), lambda t: 1 / (1 + (-t).exp()),
                      lambda m: (m / (1 - m)).ln())
_EXPONENTIAL_DECIMAL = (lambda t: -(-t).ln(), lambda t: -1 / t, lambda m: -1 / m)


def _closed_form_references(family, t1, t2):
    """(c_star_fc, c_star_fb, alpha*) of the decimal natural parameters t1, t2, to 40 digits.

    K(t, u) = b(u) - b(t) - b'(t)(u - t).  The reversed crossing is
    theta = (b*(mu1) - b*(mu2))/(mu1 - mu2) with b*(mu) = mu theta - b(theta)
    the conjugate, and the Chernoff crossing is the mean
    (b(t1) - b(t2))/(t1 - t2): the roots of the two affine differences.
    """
    b, mean, nat = family
    with decimal.localcontext() as ctx:
        ctx.prec = 40

        def kl(t, u):
            return b(u) - b(t) - mean(t) * (u - t)

        def conjugate(t):
            return mean(t) * t - b(t)

        reversed_ = (conjugate(t1) - conjugate(t2)) / (mean(t1) - mean(t2))
        chernoff = nat((b(t1) - b(t2)) / (t1 - t2))
        return (float(kl(t1, reversed_)), float(kl(chernoff, t1)),
                float((chernoff - t2) / (t1 - t2)))


def _assert_closed_forms(instance, fc_thetas):
    """c_star_fc against the references of ``fc_thetas``, c_star_fb and alpha*
    against those of the instance's own natural parameters, to 1e-12 relative."""
    fam, t1, t2 = _expfam_params(instance)
    family = _BERNOULLI_DECIMAL if fam is BERNOULLI_FAMILY else _EXPONENTIAL_DECIMAL
    c_fc, _, _ = _closed_form_references(family, *fc_thetas)
    _, c_fb, alpha_ref = _closed_form_references(family, D(t1), D(t2))
    alpha, g_value = optimal_alpha(fam, t1, t2)
    assert c_star_fc(instance)[0] == pytest.approx(c_fc, rel=1e-12, abs=0.0)
    assert c_star_fb(instance)[0] == pytest.approx(c_fb, rel=1e-12, abs=0.0)
    assert g_value == pytest.approx(c_fb, rel=1e-12, abs=0.0)
    assert alpha == pytest.approx(alpha_ref, rel=1e-12, abs=0.0)


def _bernoulli_decimal_thetas(x, y):
    """logit of the two double means, to 40 digits: c_star_fc reads the means."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return tuple(_BERNOULLI_DECIMAL[2](D(m)) for m in (x, y))


def test_crossings_match_40_digit_closed_forms():
    # 100 Bernoulli and 100 exponential pairs at least 1e-2 apart
    rng = np.random.default_rng(2020)
    pairs = 0
    while pairs < 100:
        x, y = (float(m) for m in rng.uniform(0.01, 0.99, 2))
        if abs(x - y) >= 1e-2:
            pairs += 1
            _assert_closed_forms(two_armed_bernoulli(x, y), _bernoulli_decimal_thetas(x, y))
    pairs = 0
    while pairs < 100:
        means = (10.0 ** rng.uniform(-3, 3, 2)).tolist()
        if abs(means[0] - means[1]) >= 1e-2 * max(means):
            pairs += 1
            thetas = [mean_to_nat(EXPONENTIAL_FAMILY, m) for m in means]
            instance = BanditInstance(tuple(ExpFamilyArm(EXPONENTIAL_FAMILY, t)
                                            for t in thetas))
            _assert_closed_forms(instance, [D(t) for t in thetas])


@pytest.mark.parametrize("t1, t2", [(30.0, 30.5), (-30.0, -30.5), (30.5, 30.0),
                                    (36.0, 40.0), (-1.0, 3.0), (0.5, -0.2)])
def test_expfam_bernoulli_reversed_crossing_matches_50_digits(t1, t2):
    # means near 1 keep no digits of their difference, which the crossing
    # divides by: a pair with t1 + t2 > 0 is solved on its mirror near 0
    b, mean, _ = _BERNOULLI_DECIMAL
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        d1, d2 = D(t1), D(t2)
        kl_12 = b(d2) - b(d1) - mean(d1) * (d2 - d1)
        theta = d2 + kl_12 / (mean(d1) - mean(d2))
        rate = b(theta) - b(d1) - mean(d1) * (theta - d1)
    instance = BanditInstance((ExpFamilyArm(BERNOULLI_FAMILY, t1),
                               ExpFamilyArm(BERNOULLI_FAMILY, t2)))
    value, theta_star = c_star_fc(instance)
    assert value == pytest.approx(float(rate), rel=1e-12, abs=0.0)
    assert theta_star == pytest.approx(float(theta), rel=1e-12, abs=0.0)


def test_bernoulli_alpha_star_in_the_tails():
    # means within 1e-9 of 1: theta* = logit(mu*) keeps no digits of 1 - mu*
    # there, so the Chernoff crossing is read on the mirrored pair near 0
    rng = np.random.default_rng(2021)
    gaps = [(1e-9, 2e-9)] + [tuple(1e-9 * (1.0 + 9.0 * rng.random(2))) for _ in range(40)]
    for a, b in gaps:
        if abs(a - b) < 1e-2 * max(a, b):
            continue
        for x, y in ((1.0 - a, 1.0 - b), (a, b)):
            fam, t1, t2 = _expfam_params(two_armed_bernoulli(x, y))
            _, _, reference = _closed_form_references(_BERNOULLI_DECIMAL, D(t1), D(t2))
            assert optimal_alpha(fam, t1, t2)[0] == pytest.approx(reference, rel=1e-12,
                                                                  abs=0.0)


# --- ordering invariants --------------------------------------------------------

@given(mean_pairs)
@settings(max_examples=60, deadline=None)
def test_averages_below_maxima(pair):
    inst = two_armed_bernoulli(*pair)
    # symmetric pairs attain equality; allow the solvers' relative tolerance
    assert i_star_fc(inst) <= c_star_fc(inst)[0] * (1 + 1e-9)
    assert i_star_fb(inst) <= c_star_fb(inst)[0] * (1 + 1e-9)


def test_bernoulli_chernoff_strictly_larger():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = rng.uniform(0.05, 0.95, size=2)
        if abs(x - y) < 0.01:
            y = x + 0.05 if x < 0.9 else x - 0.05
        inst = two_armed_bernoulli(x, y)
        assert c_star_fb(inst)[0] > c_star_fc(inst)[0]


def test_exponential_family_self_conjugate_equality():
    # c_* == c^* when the log-partition is self-conjugate (exponential dists)
    rng = np.random.default_rng(11)
    for _ in range(15):
        l1, l2 = rng.uniform(0.2, 5.0, size=2)
        if abs(l1 - l2) < 1e-3:
            l2 = l1 * 1.5
        inst = BanditInstance((ExpFamilyArm(EXPONENTIAL_FAMILY, -l1),
                               ExpFamilyArm(EXPONENTIAL_FAMILY, -l2)))
        assert c_star_fc(inst)[0] == pytest.approx(c_star_fb(inst)[0], abs=1e-8)


def test_gaussian_kv_descriptor_matches_gaussian_closed_form():
    fam = gaussian_family(0.25)
    inst = BanditInstance((ExpFamilyArm(fam, 0.5 / 0.25), ExpFamilyArm(fam, 0.0)))
    assert c_star_fc(inst)[0] == pytest.approx(0.125, abs=1e-11)
    assert c_star_fb(inst)[0] == pytest.approx(0.125, abs=1e-11)
    assert i_star_fc(inst) == pytest.approx(0.125, abs=1e-12)
    assert i_star_fb(inst) == pytest.approx(0.125, abs=1e-12)


def test_reversed_chernoff_tightness():
    # 1/Kb_* >= 1/Kb(t1,t2) + 1/Kb(t2,t1) on a Bernoulli grid
    grid = np.linspace(0.08, 0.92, 10)
    for x in grid:
        for y in grid:
            if abs(x - y) < 0.03:
                continue
            inst = two_armed_bernoulli(float(x), float(y))
            lhs = 1.0 / c_star_fc(inst)[0]
            rhs = 1.0 / float(bernoulli_kl(x, y)) + 1.0 / float(bernoulli_kl(y, x))
            assert lhs >= rhs - 1e-9 * rhs


def test_pinsker_direction():
    grid = np.linspace(0.1, 0.9, 9)
    for x in grid:
        for y in grid:
            if abs(x - y) < 0.05:
                continue
            assert i_star_fc(two_armed_bernoulli(float(x), float(y))) > (x - y) ** 2 / 2.0


# --- solver behavior -------------------------------------------------------------

def test_bisection_crossing_balance():
    for pair in [(0.2, 0.1), (0.7, 0.15), (0.45, 0.4)]:
        inst = two_armed_bernoulli(*pair)
        _, theta_rev = c_star_fc(inst)
        t1, t2 = _logit(pair[0]), _logit(pair[1])
        left = BERNOULLI_FAMILY.kl(t1, theta_rev)
        right = BERNOULLI_FAMILY.kl(t2, theta_rev)
        assert abs(left - right) <= 1e-10 * max(left, right)
        _, theta_ch = c_star_fb(inst)
        left = BERNOULLI_FAMILY.kl(theta_ch, t1)
        right = BERNOULLI_FAMILY.kl(theta_ch, t2)
        assert abs(left - right) <= 1e-10 * max(left, right)


# --- g_alpha and the optimal allocation ------------------------------------------

def test_g_alpha_midpoint_matches_i_star_fb():
    t1, t2 = _logit(0.2), _logit(0.1)
    assert g_alpha(BERNOULLI_FAMILY, t1, t2, 0.5) == pytest.approx(
        i_star_fb(B21), abs=1e-14)


def test_g_alpha_boundary():
    t1, t2 = _logit(0.2), _logit(0.1)
    with pytest.raises(DomainError):
        g_alpha(BERNOULLI_FAMILY, t1, t2, 0.0)
    with pytest.raises(DomainError):
        g_alpha(BERNOULLI_FAMILY, t1, t2, 1.0)
    # vanishes toward the edges
    assert g_alpha(BERNOULLI_FAMILY, t1, t2, 1e-9) < 1e-8
    assert g_alpha(BERNOULLI_FAMILY, t1, t2, 1 - 1e-9) < 1e-8


def test_g_alpha_unique_interior_maximum():
    t1, t2 = _logit(0.2), _logit(0.1)
    alphas = np.linspace(0.01, 0.99, 99)
    values = np.array([g_alpha(BERNOULLI_FAMILY, t1, t2, a) for a in alphas])
    peak = int(np.argmax(values))
    assert 0 < peak < len(alphas) - 1
    assert np.all(np.diff(values[:peak + 1]) > 0)
    assert np.all(np.diff(values[peak:]) < 0)


def test_optimal_alpha_gaussian_symmetric():
    fam = gaussian_family(0.25)
    alpha, _ = optimal_alpha(fam, 2.0, 0.0)
    assert alpha == pytest.approx(0.5, abs=1e-9)


def test_optimal_alpha_bernoulli_oracle():
    t1, t2 = _logit(0.2), _logit(0.1)
    alpha, g_value = optimal_alpha(BERNOULLI_FAMILY, t1, t2)
    assert alpha == pytest.approx(ALPHA_STAR_ORACLE, abs=1e-7)
    assert g_value == pytest.approx(C_STAR_FB_ORACLE, abs=1e-9)
    # the appendix complement (theta*-t2)/(t1-t2) matches, not its mirror
    _, theta_star = c_star_fb(B21)
    assert alpha == pytest.approx((theta_star - t2) / (t1 - t2), abs=1e-8)
    assert abs(alpha - (theta_star - t1) / (t2 - t1)) > 0.04


def test_optimal_alpha_reads_the_chernoff_solve():
    # alpha* and g(alpha*) come from c_star_fb's own crossing, so they agree
    # with it exactly, not to a tolerance
    bernoulli = [two_armed_bernoulli(*p) for p in
                 ((0.2, 0.1), (0.5, 0.4999), (0.9, 0.3), (0.03, 0.97), (0.61, 0.6))]
    exponential = [BanditInstance(tuple(ExpFamilyArm(EXPONENTIAL_FAMILY,
                                                     mean_to_nat(EXPONENTIAL_FAMILY, m))
                                        for m in means))
                   for means in ((1.0, 0.5), (9.958417606645, 9.958417392758204))]
    for instance in bernoulli + exponential:
        fam, t1, t2 = _expfam_params(instance)
        alpha, g_value = optimal_alpha(fam, t1, t2)
        value, theta_star = c_star_fb(instance)
        assert g_value == value
        assert alpha == (theta_star - t2) / (t1 - t2)
    # one closed-form solve: two divergences at the arms, two at the crossing
    calls = []

    def counting(theta1, theta2):
        calls.append(1)
        return BERNOULLI_FAMILY.kl(theta1, theta2)

    fam = dataclasses.replace(BERNOULLI_FAMILY, kl=counting)
    optimal_alpha(fam, _logit(0.2), _logit(0.1))
    assert len(calls) == 4


@given(mean_pairs)
@settings(max_examples=40, deadline=None)
def test_optimal_alpha_dominates_uniform(pair):
    t1, t2 = _logit(pair[0]), _logit(pair[1])
    _, g_value = optimal_alpha(BERNOULLI_FAMILY, t1, t2)
    assert g_value >= g_alpha(BERNOULLI_FAMILY, t1, t2, 0.5) - 1e-12


# alpha* for near-tied Bernoulli pairs at theta = _logit(p), computed once with
# mpmath at 50 digits (hard-coded here: mpmath is not a test dependency)
NEAR_TIE_ALPHA = [
    ((0.5, 0.4999), 0.50000000166666670),
    ((0.3, 0.29999), 0.50000079367819397),
    ((0.9, 0.89999), 0.49999629650718807),
]


@pytest.mark.parametrize("pair, reference", NEAR_TIE_ALPHA)
def test_optimal_alpha_near_tie_reference(pair, reference):
    alpha, _ = optimal_alpha(BERNOULLI_FAMILY, _logit(pair[0]), _logit(pair[1]))
    assert abs(alpha - reference) <= 1e-7


near_tie_pairs = st.tuples(
    st.floats(min_value=0.02, max_value=0.98),
    st.floats(min_value=1e-6, max_value=5e-3),
    st.booleans(),
).map(lambda p: (p[0], p[0] + p[1] if p[2] else p[0] - p[1])).filter(
    lambda p: 1e-6 <= abs(p[0] - p[1]) <= 5e-3)


@given(near_tie_pairs)
@settings(max_examples=200, deadline=None)
def test_optimal_alpha_near_tie_crossing(pair):
    # the band 1e-6 <= |x - y| <= 5e-3 that criterion 7's sampler skips
    t1, t2 = _logit(pair[0]), _logit(pair[1])
    alpha, _ = optimal_alpha(BERNOULLI_FAMILY, t1, t2)
    _, theta_star = c_star_fb(two_armed_bernoulli(*pair))
    assert abs(alpha * t1 + (1 - alpha) * t2 - theta_star) <= 1e-8


def test_optimal_alpha_exponential_near_tie():
    # means 2e-8 apart in relative terms, where the Bregman form of the
    # divergence lost its sign at both ends of the bracket
    means = (9.958417606645, 9.958417392758204)
    t1, t2 = (mean_to_nat(EXPONENTIAL_FAMILY, m) for m in means)
    alpha, g_value = optimal_alpha(EXPONENTIAL_FAMILY, t1, t2)
    assert alpha == pytest.approx(0.5, abs=1e-7)
    # Chernoff information to leading order: b''(theta) (t1 - t2)^2 / 8 = x^2 / 8
    x = (t2 - t1) / t1
    assert g_value == pytest.approx(x * x / 8.0, rel=1e-6, abs=0.0)
    # c_star_fb reads the crossing to a precision relative to the gap, not to theta
    arms = tuple(ExpFamilyArm(EXPONENTIAL_FAMILY, t) for t in (t1, t2))
    assert c_star_fb(BanditInstance(arms))[0] == pytest.approx(g_value, rel=1e-9, abs=0.0)


# --- Bernoulli I_* identities ------------------------------------------------------

def test_i_star_entropy_identity():
    # I_*(x,y) = H((x+y)/2) - [H(x)+H(y)]/2; the H(x/2),H(y/2) variant is a typo
    grid = np.linspace(0.05, 0.95, 12)
    for x in grid:
        for y in grid:
            via_kl = float(i_star_bernoulli(x, y))
            via_entropy = binary_entropy((x + y) / 2) - 0.5 * (
                binary_entropy(x) + binary_entropy(y))
            assert via_kl == pytest.approx(via_entropy, abs=1e-12)
    x, y = 0.2, 0.1
    halved = binary_entropy((x + y) / 2) - 0.5 * (binary_entropy(x / 2) + binary_entropy(y / 2))
    assert abs(float(i_star_bernoulli(x, y)) - halved) > 0.1


def test_i_star_bernoulli_boundaries():
    assert float(i_star_bernoulli(0.3, 0.3)) == 0.0
    assert float(i_star_bernoulli(0.0, 0.0)) == 0.0
    assert float(i_star_bernoulli(1.0, 1.0)) == 0.0
    assert float(i_star_bernoulli(0.0, 1.0)) == pytest.approx(math.log(2.0), abs=1e-12)
    arr = i_star_bernoulli(np.array([0.0, 0.2, 0.5]), np.array([0.4, 0.2, 0.5]))
    assert arr.shape == (3,)
    assert arr[1] == 0.0 and arr[2] == 0.0 and arr[0] > 0.0


def _i_star_where_form(x, y):
    """I_* in the form it had before the unchecked kernel: each KL term under
    np.where, warnings off, Taylor's series where |x - mid| < 1e-6 min(mid, 1 - mid)."""
    mid = 0.5 * (x + y)
    interior = (mid > 0.0) & (mid < 1.0) & (x != y)
    m = np.where(interior, mid, 0.5)

    def kl(p):
        h = p - m
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (np.where(p > 0.0, p * np.log1p(h / m), 0.0)
                   + np.where(p < 1.0, (1.0 - p) * np.log1p(-h / (1.0 - m)), 0.0))
        a, b = -h / m, h / (1.0 - m)
        series = m * a * a * (0.5 + a / 6.0) + (1.0 - m) * b * b * (0.5 + b / 6.0)
        return np.where(np.abs(h) < 1e-6 * np.minimum(m, 1.0 - m), series, out)

    return np.where(interior, 0.5 * (kl(x) + kl(y)), 0.0)


@given(k=st.one_of(st.integers(1, 2**22), st.integers(2**21, 2**22)), data=st.data())
@settings(max_examples=300, deadline=None)
def test_i_star_kernel_equals_checked_on_integer_sums(k, data):
    # the SGLRT's exact statistic skips the public checks: on arm sums
    # 0 <= s1, s2 <= k it must equal i_star_bernoulli, and the form both had
    # before the split, bit for bit, and raise no floating-point warning.
    # Sums 1 or 2 apart at k >= 2**21 reach its Taylor branch.
    sums = []
    for _ in range(data.draw(st.integers(1, 6))):
        s1 = data.draw(st.integers(0, k))
        near = st.integers(max(0, s1 - 2), min(k, s1 + 2))
        sums.append((s1, data.draw(st.one_of(st.integers(0, k), near))))
    s1, s2 = (np.array(v, dtype=float) for v in zip(*sums))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = i_star_bernoulli_kernel(s1 / k, s2 / k)
    assert kernel.tobytes() == i_star_bernoulli(s1 / k, s2 / k).tobytes()
    assert kernel.tobytes() == _i_star_where_form(s1 / k, s2 / k).tobytes()


def test_i_star_bernoulli_rejects_means_outside_the_unit_interval():
    for x, y in ((1.5, 0.2), (0.2, -0.1), (math.nan, 0.3), (0.3, math.nan)):
        with pytest.raises(DomainError):
            i_star_bernoulli(x, y)


# --- report -------------------------------------------------------------------------

def test_complexity_report_fields():
    rep = complexity_report(EASY)
    assert rep.kappa_C_lower == 8.0
    assert rep.kappa_B == 8.0
    assert rep.c_star_fc == rep.c_star_fb == 0.125
    d = rep.as_dict()
    assert set(d) == {
        "c_star_fc", "i_star_fc", "c_star_fb", "i_star_fb",
        "theta_star_reversed", "theta_star_chernoff", "kappa_C_lower", "kappa_B",
    }


def test_report_invariants_random_bernoulli():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, y = rng.uniform(0.05, 0.95, size=2)
        assume_gap = abs(x - y) > 0.02
        if not assume_gap:
            continue
        rep = complexity_report(two_armed_bernoulli(x, y))
        assert 0 < rep.i_star_fc <= rep.c_star_fc
        assert 0 < rep.i_star_fb <= rep.c_star_fb
        assert math.isfinite(rep.kappa_C_lower) and rep.kappa_C_lower > 0
