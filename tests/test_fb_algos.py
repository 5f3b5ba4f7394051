import math
import tracemalloc

import numpy as np
import pytest
import scipy.special

from bestarm import engine
from bestarm.complexity import c_star_fb, g_alpha, i_star_fb, optimal_alpha
from bestarm.dists import (
    BERNOULLI_FAMILY, EXPONENTIAL_FAMILY, Bernoulli, ExpFamilyArm, gaussian_family)
from bestarm.errors import DegenerateInstance, DomainError
from bestarm.fb_algos import (
    StaticAllocation,
    StaticRule,
    allocation_for,
    gaussian_allocation,
    run_static,
    theoretical_error_bound,
    tilted_error,
    uniform_allocation,
)
from bestarm.harness import AlgorithmSpec, ExperimentConfig, run_fb_experiment
from bestarm.instances import BanditInstance, two_armed_bernoulli, two_armed_gaussian
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


def _expfam(fam, theta1, theta2):
    return BanditInstance((ExpFamilyArm(fam, theta1), ExpFamilyArm(fam, theta2)))


def test_optimal_allocation_symmetric_gaussian_descriptor():
    alloc = allocation_for(_expfam(gaussian_family(0.25), 1.0, -1.0), 101, "optimal")
    assert alloc.n1 == math.ceil(101 / 2)


def test_optimal_allocation_bernoulli_descriptor_oracle():
    # alpha* = 0.523875... so n1 = ceil(523.875...) = 524
    alloc = allocation_for(_expfam(BERNOULLI_FAMILY, _logit(0.2), _logit(0.1)), 1000,
                           "optimal")
    assert alloc.n1 == 524
    alpha_star, g_star = optimal_alpha(BERNOULLI_FAMILY, _logit(0.2), _logit(0.1))
    got = g_alpha(BERNOULLI_FAMILY, _logit(0.2), _logit(0.1), alloc.n1 / 1000)
    assert abs(got - g_star) < 1e-4


def test_allocation_agreement_gaussian_vs_descriptor():
    fam = gaussian_family(0.25)
    for t in (10, 37, 100, 999):
        a = gaussian_allocation(0.5, 0.5, t)
        b = allocation_for(_expfam(fam, 0.8, -0.4), t, "optimal")
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
    # a squared gap past the float range is an infinite exponent, not an OverflowError
    far = two_armed_gaussian(1e200, -1e200, 0.25)
    assert theoretical_error_bound(far, StaticAllocation(50, 50)) == 0.0


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
    # plain-sampling variant of the error-exponent check: on budgets where
    # p_t is estimable at this N, the log-error slope matches -1/8 within 20%
    # (plain sampling sees no errors beyond t=40 on the acceptance criterion's
    # literal {40..200} grid, which criterion 5 measures by importance
    # sampling; see the README's known caveat)
    # (one rule per budget; each block of rows runs as run_static runs one
    # row, each row on its own generator)
    budgets = (16, 24, 32, 40, 48, 56)
    n = 100_000
    points = []
    for g, t in enumerate(budgets):
        rule = StaticRule(EASY, uniform_allocation(t))
        errors = 0
        for lo in range(0, n, 64):
            gens = [make_rng(mix_seed(900, g, r)) for r in range(lo, min(lo + 64, n))]
            rows, = engine._run_block([rule], gens)
            errors += sum(rec != rule.best_arm for _, rec, _, _ in rows)
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
        # a static row draws each arm's success count: binomial(n1, p1), then binomial(n2, p2)
        draws_rng = make_rng(seed)
        k1 = int(draws_rng.binomial(2, 0.1, size=1)[0])
        k2 = int(draws_rng.binomial(2, 0.2, size=1)[0])
        if k1 == k2:
            tie_seen = True
            assert out.recommended == 0
            assert not out.correct
    assert tie_seen


# --- importance-sampled error probabilities ------------------------------------
# Each estimate must lie within 4 of its standard errors of the reference and
# have a relative standard error below 3%, so a tilt that barely errs (and
# reports a tiny, meaningless standard error) cannot pass either.

TILT_REPS = 20_000


def _assert_matches(estimate, std_error, exact):
    assert std_error <= 0.03 * exact
    assert abs(estimate - exact) <= 4 * std_error


def _gaussian_error(instance, alloc):
    # Phi(-Delta / sqrt(sigma1^2/n1 + sigma2^2/n2)); a tie has probability 0
    a1, a2 = instance.arms
    z = abs(a1.mean - a2.mean) / math.sqrt(a1.variance / alloc.n1 + a2.variance / alloc.n2)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _log_binom_pmf(n, p):
    return [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p) for k in range(n + 1)]


def _bernoulli_error(instance, alloc):
    # exact double sum over the success counts; k1/n1 >= k2/n2 recommends arm 0
    n1, n2 = alloc.n1, alloc.n2
    pmf1, pmf2 = (np.exp(_log_binom_pmf(n, arm.mean))
                  for n, arm in ((n1, instance.arms[0]), (n2, instance.arms[1])))
    k1, k2 = np.meshgrid(np.arange(n1 + 1), np.arange(n2 + 1), indexing="ij")
    wrong = (k1 * n2 >= k2 * n1) != (instance.best_arm == 0)
    return math.fsum((np.outer(pmf1, pmf2) * wrong).ravel())


GAUSSIAN_TILT_CASES = [
    (EASY, uniform_allocation(40)),
    (EASY, uniform_allocation(160)),  # p ~ 1.3e-10
    (two_armed_gaussian(1.0, 0.0, 1.0, 0.25), gaussian_allocation(1.0, 0.5, 60)),
    (two_armed_gaussian(1.0, 0.0, 1.0, 0.25), uniform_allocation(60)),
    (two_armed_gaussian(0.0, 0.5, 0.25, 1.0), gaussian_allocation(0.5, 1.0, 90)),  # best arm 1
]


def test_tilted_error_gaussian_oracle():
    for g, (instance, alloc) in enumerate(GAUSSIAN_TILT_CASES):
        estimate, std_error = tilted_error(instance, alloc, TILT_REPS, make_rng(31, g))
        _assert_matches(estimate, std_error, _gaussian_error(instance, alloc))


def test_tilted_error_bernoulli_oracle():
    cases = [(B21, allocation_for(B21, t, policy))
             for t in (100, 400, 1000) for policy in ("uniform", "optimal")]
    # best arm 1: a tie recommends arm 0 and so counts as an error
    swapped = two_armed_bernoulli(0.1, 0.2)
    cases += [(swapped, uniform_allocation(100)), (swapped, uniform_allocation(400))]
    for g, (instance, alloc) in enumerate(cases):
        estimate, std_error = tilted_error(instance, alloc, TILT_REPS, make_rng(32, g))
        _assert_matches(estimate, std_error, _bernoulli_error(instance, alloc))


def test_tilted_error_exponential_matches_plain_record():
    # means 2 and 1: plain sampling sees ~1.5k errors at N=1e5, t=40
    instance = BanditInstance((ExpFamilyArm(EXPONENTIAL_FAMILY, -0.5),
                               ExpFamilyArm(EXPONENTIAL_FAMILY, -1.0)))
    n = 100_000
    for g, policy in enumerate(("uniform", "optimal")):
        rec, = run_fb_experiment(ExperimentConfig(
            instance, AlgorithmSpec("static", allocation=policy), (40.0,), n, 33))
        estimate, std_error = tilted_error(instance, allocation_for(instance, 40, policy),
                                           TILT_REPS, make_rng(34, g))
        assert std_error <= 0.03 * estimate
        plain_se = math.sqrt(estimate * (1 - estimate) / n)
        assert abs(estimate - rec.error_rate) <= 4 * math.hypot(std_error, plain_se)


def _exponential_error(instance, alloc):
    # S_i = mu_i G_i with G_i ~ Gamma(n_i): arm 0 leads iff B = G1/(G1+G2) ~ Beta(n1, n2)
    # is at least x = r/(1+r), r = n1 mu2/(n2 mu1), and P(B < x) = I_x(n1, n2)
    # = P(Bin(n1 + n2 - 1, x) >= n1); ties have probability 0
    (mu1, mu2), n1, n2 = instance.means, alloc.n1, alloc.n2
    r = n1 * mu2 / (n2 * mu1)
    pmf = np.exp(_log_binom_pmf(n1 + n2 - 1, r / (1.0 + r)))
    return math.fsum(pmf[n1:] if instance.best_arm == 0 else pmf[:n1])


EXPO_21 = BanditInstance((ExpFamilyArm(EXPONENTIAL_FAMILY, -0.5),
                          ExpFamilyArm(EXPONENTIAL_FAMILY, -1.0)))  # means 2 and 1


def test_static_exponential_oracle():
    swapped = BanditInstance(EXPO_21.arms[::-1])
    cases = [(inst, allocation_for(inst, t, policy)) for inst in (EXPO_21, swapped)
             for t in (40, 200, 1000) for policy in ("uniform", "optimal")]
    for g, (instance, alloc) in enumerate(cases):
        exact = _exponential_error(instance, alloc)
        (mu1, mu2), n1, n2 = instance.means, alloc.n1, alloc.n2
        x = n1 * mu2 / (n1 * mu2 + n2 * mu1)
        # 1 - I_x(n1, n2) = I_{1-x}(n2, n1)
        reference = (scipy.special.betainc(n1, n2, x) if instance.best_arm == 0
                     else scipy.special.betainc(n2, n1, 1.0 - x))
        assert exact == pytest.approx(reference, rel=1e-9)
        estimate, std_error = tilted_error(instance, alloc, TILT_REPS, make_rng(36, g))
        _assert_matches(estimate, std_error, exact)


def test_static_records_match_exact_errors():
    # plain records at budgets where plain sampling sees errors; at the
    # smallest budgets one draw more or less per arm moves the error by
    # many standard errors
    n = 10_000
    cases = [(EASY, _gaussian_error, (2, 5, 20)),
             (B21, _bernoulli_error, (2, 5, 30)),
             (two_armed_bernoulli(0.1, 0.2), _bernoulli_error, (2, 5, 30)),
             (EXPO_21, _exponential_error, (2, 5, 40))]
    for instance, exact_error, budgets in cases:
        for policy in ("uniform", "optimal"):
            records = run_fb_experiment(ExperimentConfig(
                instance, AlgorithmSpec("static", allocation=policy),
                tuple(map(float, budgets)), n, 37))
            for rec, t in zip(records, budgets):
                exact = exact_error(instance, allocation_for(instance, t, policy))
                assert abs(rec.error_rate - exact) <= 4 * math.sqrt(exact * (1 - exact) / n)


def test_run_static_memory_does_not_grow_with_the_budget():
    for instance in (B21, EASY, EXPO_21):
        alloc = uniform_allocation(10**9)
        run_static(instance, uniform_allocation(10), make_rng(0))  # first-call set-up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = run_static(instance, alloc, make_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.tau == 10**9
        assert peak - base < 2**20


def test_static_rule_refuses_sums_past_the_doubles():
    # the largest sum is |n mu| + 14 sqrt(n) sigma (Gaussian) or mu times numpy's
    # largest Gamma(n) variate, at most 45 for n = 1 (exponential)
    cases = [(two_armed_gaussian(9e307, 0.0, 1.0), 2),
             (BanditInstance((ExpFamilyArm(EXPONENTIAL_FAMILY, -1 / 3e306),
                              ExpFamilyArm(EXPONENTIAL_FAMILY, -1.0))), 2)]
    for instance, n in cases:
        StaticRule(instance, StaticAllocation(n - 1, 1))
        with pytest.raises(DomainError, match="can exceed the largest double"):
            StaticRule(instance, StaticAllocation(n, 1))


def test_tilted_error_independent_of_block_size(monkeypatch):
    cases = [(B21, uniform_allocation(101)), (EASY, gaussian_allocation(0.5, 0.5, 30))]
    default = [tilted_error(inst, alloc, 300, make_rng(35)) for inst, alloc in cases]
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 64)
    assert [tilted_error(inst, alloc, 300, make_rng(35)) for inst, alloc in cases] == default


def test_tilted_error_rejects_bad_input():
    with pytest.raises(DegenerateInstance):
        tilted_error(two_armed_bernoulli(0.3, 0.3), uniform_allocation(10), 10, make_rng(0))
    # BanditInstance refuses the tie itself; one built around that check
    # reaches the estimator's own guard
    tied = object.__new__(BanditInstance)
    object.__setattr__(tied, "arms", (Bernoulli(0.3), Bernoulli(0.3)))
    object.__setattr__(tied, "m", 1)
    with pytest.raises(DegenerateInstance):
        tilted_error(tied, uniform_allocation(10), 10, make_rng(0))
    for reps in (0, -1):
        with pytest.raises(DomainError):
            tilted_error(B21, uniform_allocation(10), reps, make_rng(0))
