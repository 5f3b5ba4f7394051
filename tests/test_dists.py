import decimal
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bestarm.dists import (
    BERNOULLI_FAMILY,
    EXPONENTIAL_FAMILY,
    Bernoulli,
    ExpFamilyArm,
    Gaussian,
    bernoulli_kl,
    binary_entropy,
    gaussian_family,
    kl,
    mean_to_nat,
    nat_to_mean,
    sample_n,
)
from bestarm.errors import DomainError, FamilyMismatch
from bestarm.rng import make_rng

means_inside = st.floats(min_value=0.01, max_value=0.99)


# --- construction guards ----------------------------------------------------

def test_invalid_arms_rejected():
    with pytest.raises(DomainError):
        Gaussian(0.0, 0.0)
    with pytest.raises(DomainError):
        Gaussian(0.0, -1.0)
    with pytest.raises(DomainError):
        Bernoulli(0.0)
    with pytest.raises(DomainError):
        Bernoulli(1.0)
    with pytest.raises(DomainError):
        ExpFamilyArm(EXPONENTIAL_FAMILY, 0.5)  # theta must be negative


def test_family_mismatch():
    with pytest.raises(FamilyMismatch):
        kl(Gaussian(0.0, 1.0), Bernoulli(0.5))
    with pytest.raises(FamilyMismatch):
        kl(ExpFamilyArm(BERNOULLI_FAMILY, 0.0), ExpFamilyArm(EXPONENTIAL_FAMILY, -1.0))


# --- sampling ---------------------------------------------------------------

def test_bernoulli_support():
    rng = make_rng(1)
    draws = sample_n(Bernoulli(0.5), rng, 1000)
    assert set(np.unique(draws)) <= {0.0, 1.0}


def test_gaussian_mean_clt():
    # CLT oracle: |mean| <= 4 sigma / sqrt(N) = 0.0063, spec bound 0.01
    rng = make_rng(123)
    draws = sample_n(Gaussian(0.0, 0.25), rng, 100_000)
    assert abs(draws.mean()) < 0.01


def test_bernoulli_mean_clt():
    rng = make_rng(123)
    draws = sample_n(Bernoulli(0.2), rng, 100_000)
    assert abs(draws.mean() - 0.2) < 0.006


@pytest.mark.parametrize("arm,se", [
    (Gaussian(1.3, 0.49), 0.7),
    (Bernoulli(0.37), math.sqrt(0.37 * 0.63)),
    (ExpFamilyArm(BERNOULLI_FAMILY, 0.4), None),
    (ExpFamilyArm(gaussian_family(2.0), -0.7), None),
    (ExpFamilyArm(EXPONENTIAL_FAMILY, -2.5), None),
])
def test_empirical_mean_within_five_se(arm, se):
    n = 100_000
    if se is None:
        se = math.sqrt(arm.family_desc.variance_map(arm.theta))
    draws = sample_n(arm, make_rng(77), n)
    assert abs(draws.mean() - arm.mean) < 5 * se / math.sqrt(n)


# --- divergences ------------------------------------------------------------

def test_kl_gaussian_hand_value():
    assert kl(Gaussian(0.5, 0.25), Gaussian(0.0, 0.25)) == pytest.approx(0.5, abs=1e-15)


def test_kl_identity_is_zero():
    for p in (Gaussian(0.3, 2.0), Bernoulli(0.42), ExpFamilyArm(EXPONENTIAL_FAMILY, -3.0)):
        assert kl(p, p) == pytest.approx(0.0, abs=1e-15)


def test_kl_bernoulli_hand_value():
    value = kl(Bernoulli(0.2), Bernoulli(0.1))
    assert value == pytest.approx(0.04440300758688234, abs=1e-12)
    assert value == pytest.approx(0.04441, abs=1e-4)


def test_kl_gaussian_different_variances():
    # hand evaluation of the closed form
    expected = 0.5**2 / (2 * 2.0) + 0.5 * (1.0 / 2.0 - 1 - math.log(1.0 / 2.0))
    assert kl(Gaussian(0.5, 1.0), Gaussian(0.0, 2.0)) == pytest.approx(expected, rel=1e-14)


@given(means_inside, means_inside)
@settings(max_examples=100, deadline=None)
def test_kl_nonnegative_zero_iff_equal(x, y):
    value = kl(Bernoulli(x), Bernoulli(y))
    assert value >= 0.0
    if x == y:
        assert value == 0.0
    else:
        assert value > 0.0


@given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
@settings(max_examples=100, deadline=None)
def test_gaussian_equal_variance_symmetry(mu1, mu2):
    var = 0.7
    assert kl(Gaussian(mu1, var), Gaussian(mu2, var)) == pytest.approx(
        kl(Gaussian(mu2, var), Gaussian(mu1, var)), rel=1e-12, abs=1e-15)


def test_bernoulli_monotonicity_in_first_argument():
    # x -> d(x, y) increases above y and decreases below y
    y = 0.35
    xs_up = np.linspace(y, 0.99, 40)
    vals_up = bernoulli_kl(xs_up, y)
    assert np.all(np.diff(vals_up) > 0)
    xs_down = np.linspace(y, 0.01, 40)
    vals_down = bernoulli_kl(xs_down, y)
    assert np.all(np.diff(vals_down) > 0)  # increasing as x moves away below


def test_bregman_matches_direct_bernoulli():
    grid = np.linspace(0.04, 0.96, 20)
    for x in grid:
        for y in grid:
            direct = float(bernoulli_kl(x, y))
            via_theta = BERNOULLI_FAMILY.kl(mean_to_nat(BERNOULLI_FAMILY, x),
                                            mean_to_nat(BERNOULLI_FAMILY, y))
            assert direct == pytest.approx(via_theta, abs=1e-10)


def test_exponential_family_kl_closed_form():
    # KL(Exp(l1) || Exp(l2)) = log(l1/l2) + l2/l1 - 1
    l1, l2 = 1.0, 2.0
    value = kl(ExpFamilyArm(EXPONENTIAL_FAMILY, -l1), ExpFamilyArm(EXPONENTIAL_FAMILY, -l2))
    assert value == pytest.approx(math.log(l1 / l2) + l2 / l1 - 1.0, rel=1e-12)


@given(st.floats(min_value=-20, max_value=20), st.floats(min_value=-40, max_value=3),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_exponential_kl_is_accurate_near_a_tie_and_far_from_it(log_rate, log_gap, up):
    # against x - log(1 + x), x = t2/t1 - 1, at 60 digits: the Bregman form
    # cancels to noise at relative gaps below about 1e-8
    t1 = -math.exp(log_rate)
    t2 = -math.exp(log_rate + math.copysign(math.exp(log_gap), 1.0 if up else -1.0))
    assume(t1 != t2)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = (decimal.Decimal(t2) - decimal.Decimal(t1)) / decimal.Decimal(t1)
        reference = float(x - (1 + x).ln())
    assert EXPONENTIAL_FAMILY.kl(t1, t2) == pytest.approx(reference, rel=1e-12, abs=0.0)


# --- entropy ----------------------------------------------------------------

def test_binary_entropy_values():
    assert binary_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.2) == pytest.approx(0.5004024235381879, abs=1e-12)


def test_binary_entropy_domain():
    with pytest.raises(DomainError):
        binary_entropy(-0.1)
    with pytest.raises(DomainError):
        binary_entropy(1.1)


# --- natural/mean maps ------------------------------------------------------

def test_nat_mean_hand_values():
    assert nat_to_mean(BERNOULLI_FAMILY, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert mean_to_nat(BERNOULLI_FAMILY, 0.2) == pytest.approx(math.log(0.25), abs=1e-12)


@pytest.mark.parametrize("fam,mus", [
    (BERNOULLI_FAMILY, np.linspace(0.01, 0.99, 99)),
    (gaussian_family(0.25), np.linspace(-3.0, 3.0, 25)),
    (EXPONENTIAL_FAMILY, np.linspace(0.1, 10.0, 25)),
])
def test_round_trip_mean_nat(fam, mus):
    for mu in mus:
        assert nat_to_mean(fam, mean_to_nat(fam, mu)) == pytest.approx(float(mu), abs=1e-12)


@pytest.mark.parametrize("fam,thetas", [
    (BERNOULLI_FAMILY, np.linspace(-4, 4, 17)),
    (gaussian_family(0.5), np.linspace(-4, 4, 17)),
    (EXPONENTIAL_FAMILY, np.linspace(-5, -0.2, 17)),
])
def test_descriptor_convexity_and_inverse(fam, thetas):
    for theta in thetas:
        theta = float(theta)
        assert fam.variance_map(theta) > 0.0
        mu = fam.mean_map(theta)
        assert fam.nat_of_mean(mu) == pytest.approx(theta, abs=1e-10)


def test_out_of_domain_maps():
    with pytest.raises(DomainError):
        mean_to_nat(BERNOULLI_FAMILY, 1.5)
    with pytest.raises(DomainError):
        nat_to_mean(EXPONENTIAL_FAMILY, 1.0)
