import math

import numpy as np
import pytest

from bestarm.complexity import c_star_fb, g_alpha, i_star_fb, optimal_alpha
from bestarm.dists import BERNOULLI_FAMILY, gaussian_family
from bestarm.errors import DomainError
from bestarm.fb_algos import (
    StaticAllocation,
    allocation_for,
    expfam_allocation,
    gaussian_allocation,
    run_static,
    theoretical_error_bound,
    uniform_allocation,
)
from bestarm.instances import two_armed_bernoulli, two_armed_gaussian
from bestarm.rng import make_rng, mix_seed

EASY = two_armed_gaussian(0.5, 0.0, 0.25)
B21 = two_armed_bernoulli(0.2, 0.1)


def _logit(x):
    return math.log(x / (1.0 - x))


# --- allocations ------------------------------------------------------------

def test_gaussian_allocation_symmetric():
    assert gaussian_allocation(0.5, 0.5, 100) == StaticAllocation(50, 50)


def test_gaussian_allocation_hand_value():
    assert gaussian_allocation(1.0, 0.5, 99).n1 == 66


def test_gaussian_allocation_clamp_and_domain():
    assert gaussian_allocation(10.0, 1e-9, 2) == StaticAllocation(1, 1)
    with pytest.raises(DomainError):
        gaussian_allocation(1.0, 1.0, 1)


def test_static_allocation_validation():
    with pytest.raises(DomainError):
        StaticAllocation(0, 5)


def test_expfam_allocation_symmetric_gaussian():
    fam = gaussian_family(0.25)
    alloc = expfam_allocation(fam, 1.0, -1.0, 101)
    assert alloc.n1 == math.ceil(101 / 2)


def test_expfam_allocation_bernoulli_oracle():
    # alpha* = 0.523875... so n1 = ceil(523.875...) = 524
    alloc = expfam_allocation(BERNOULLI_FAMILY, _logit(0.2), _logit(0.1), 1000)
    assert alloc.n1 == 524
    alpha_star, g_star = optimal_alpha(BERNOULLI_FAMILY, _logit(0.2), _logit(0.1))
    got = g_alpha(BERNOULLI_FAMILY, _logit(0.2), _logit(0.1), alloc.n1 / 1000)
    assert abs(got - g_star) < 1e-4


def test_allocation_agreement_gaussian_vs_descriptor():
    fam = gaussian_family(0.25)
    for t in (10, 37, 100, 999):
        a = gaussian_allocation(0.5, 0.5, t)
        b = expfam_allocation(fam, 0.8, -0.4, t)
        assert abs(a.n1 - b.n1) <= 1


def test_allocation_for_policies():
    assert allocation_for(EASY, 10, "uniform") == StaticAllocation(5, 5)
    assert allocation_for(EASY, 10, "optimal") == StaticAllocation(5, 5)
    alloc = allocation_for(B21, 1000, "optimal")
    assert alloc.n1 == 524
    with pytest.raises(DomainError):
        allocation_for(EASY, 10, "bogus")


# --- runs ---------------------------------------------------------------------

def test_run_static_huge_gap():
    inst = two_armed_gaussian(100.0, -100.0, 0.25)
    errors = 0
    for r in range(10_000):
        out = run_static(inst, StaticAllocation(1, 1), make_rng(mix_seed(20, r)))
        assert out.tau == 2
        assert out.draws_per_arm == (1, 1)
        assert not out.exhausted
        errors += not out.correct
    assert errors == 0


def test_run_static_counts_exact():
    out = run_static(B21, StaticAllocation(7, 13), make_rng(3))
    assert out.tau == 20
    assert out.draws_per_arm == (7, 13)


# --- theoretical bounds ----------------------------------------------------------

def test_bound_easy_gaussian_hand_value():
    assert theoretical_error_bound(EASY, StaticAllocation(50, 50)) == pytest.approx(
        math.exp(-12.5), rel=1e-12)


def test_bound_uniform_bernoulli_matches_i_star_fb():
    for t in (100, 400, 1000):
        bound = theoretical_error_bound(B21, uniform_allocation(t))
        assert bound == pytest.approx(math.exp(-t * i_star_fb(B21)), rel=1e-10)


def test_bound_optimal_matches_chernoff_up_to_rounding():
    c_fb, _ = c_star_fb(B21)
    for t in (500, 2000, 10000):
        alloc = allocation_for(B21, t, "optimal")
        bound = theoretical_error_bound(B21, alloc)
        assert math.log(bound) == pytest.approx(-t * c_fb, rel=1e-4)


def test_bound_optimal_dominates_uniform():
    # maximizer dominance is exact for the unrounded alpha*; the ceil-rounded
    # allocation can overshoot past alpha* at small t (e.g. B21 at t=10 gives
    # alpha=0.6, farther from alpha*=0.5239 than 0.5 is), so the rounded form
    # is asserted once the 1/t granularity is fine enough
    for inst in (B21, two_armed_bernoulli(0.7, 0.4), two_armed_gaussian(1.0, 0.0, 1.0, 0.25)):
        for t in (100, 1000):
            b_opt = theoretical_error_bound(inst, allocation_for(inst, t, "optimal"))
            b_uni = theoretical_error_bound(inst, allocation_for(inst, t, "uniform"))
            assert b_opt <= b_uni * (1 + 1e-12)


def test_bound_dominance_exact_alpha():
    t1, t2 = _logit(0.7), _logit(0.4)
    alpha_star, g_star = optimal_alpha(BERNOULLI_FAMILY, t1, t2)
    for alpha in (0.3, 0.5, 0.65, 0.9):
        assert g_star >= g_alpha(BERNOULLI_FAMILY, t1, t2, alpha) - 1e-12


def test_empirical_error_within_bound():
    # uniform Bernoulli: p_t <= exp(-t I^*) + 3 MC standard errors
    n = 4000
    for t in (100, 200):
        alloc = uniform_allocation(t)
        errors = sum(
            not run_static(B21, alloc, make_rng(mix_seed(21 + t, r))).correct
            for r in range(n))
        p_hat = errors / n
        bound = theoretical_error_bound(B21, alloc)
        se = math.sqrt(max(p_hat * (1 - p_hat), 1e-9) / n)
        assert p_hat <= bound + 3 * se


def test_fb_slope_measurable_grid():
    # sound desk-scale variant of the error-exponent check: on budgets where
    # p_t is estimable at this N, the log-error slope matches -1/8 within 20%
    # (the acceptance criterion's literal {40..200} grid starves beyond t=40;
    # see the README's known caveat)
    budgets = (16, 24, 32, 40, 48, 56)
    n = 100_000
    points = []
    for g, t in enumerate(budgets):
        alloc = uniform_allocation(t)
        errors = 0
        for r in range(n):
            errors += not run_static(EASY, alloc, make_rng(mix_seed(900, g, r))).correct
        if errors > 0:
            points.append((t, math.log(errors / n)))
    assert len(points) >= 4
    ts = np.array([p[0] for p in points], dtype=float)
    logs = np.array([p[1] for p in points])
    slope = float(np.polyfit(ts, logs, 1)[0])
    assert -0.125 * 1.2 <= slope <= -0.125 * 0.8


def test_tie_breaks_toward_lowest_index_and_counts_as_error():
    # arm 0 is NOT the best here; a tied empirical mean must still pick it
    inst = two_armed_bernoulli(0.1, 0.2)
    alloc = StaticAllocation(2, 2)
    tie_seen = False
    for seed in range(400):
        rng = make_rng(seed)
        out = run_static(inst, alloc, rng)
        draws_rng = make_rng(seed)
        m1 = float(np.mean((draws_rng.random(2) < 0.1).astype(float)))
        m2 = float(np.mean((draws_rng.random(2) < 0.2).astype(float)))
        if m1 == m2:
            tie_seen = True
            assert out.recommended == 0
            assert not out.correct
    assert tie_seen
