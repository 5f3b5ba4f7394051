import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from bestarm import engine, fb_algos, fc_algos
from bestarm.errors import DomainError
from bestarm.fc_algos import ExplorationRate
from bestarm.harness import (
    AlgorithmSpec,
    ExperimentConfig,
    _aggregate,
    deviation_bound,
    empirical_lil_crossing,
    run_fb_experiment,
    run_fc_experiment,
    wilson_halfwidth,
    zeta,
)
from bestarm.instances import two_armed_bernoulli, two_armed_gaussian
from bestarm.rng import STREAM_STRIDE, make_rng, mix_seed, splitmix64

EASY = two_armed_gaussian(0.5, 0.0, 0.25)
B21 = two_armed_bernoulli(0.2, 0.1)

ELIM = AlgorithmSpec("elimination", rate=ExplorationRate.ROBBINS_LOG_T)
STATIC = AlgorithmSpec("static", allocation="uniform")


# --- seeding ----------------------------------------------------------------

def test_mix_seed_distinct():
    seen = set()
    for g in range(4):
        for r in range(5000):
            seen.add(mix_seed(12345, g, r))
    assert len(seen) == 20000


def test_splitmix_avalanche():
    a = splitmix64(1)
    b = splitmix64(2)
    assert bin(a ^ b).count("1") > 16  # neighboring inputs diverge broadly


# --- experiment engine --------------------------------------------------------

def test_fc_determinism():
    cfg = ExperimentConfig(EASY, ELIM, (0.1, 0.05), 200, 99)
    first = run_fc_experiment(cfg)
    second = run_fc_experiment(cfg)
    assert first == second
    assert [r.grid_value for r in first] == [0.1, 0.05]


def test_fc_worker_invariance():
    cfg = ExperimentConfig(EASY, ELIM, (0.1,), 240, 7)
    assert run_fc_experiment(cfg, workers=1) == run_fc_experiment(cfg, workers=3)


def test_fb_worker_invariance():
    cfg = ExperimentConfig(B21, STATIC, (100.0, 200.0), 300, 11)
    assert run_fb_experiment(cfg, workers=1) == run_fb_experiment(cfg, workers=4)


def test_single_replication_record():
    cfg = ExperimentConfig(EASY, ELIM, (0.1,), 1, 5)
    rec, = run_fc_experiment(cfg)
    assert rec.error_rate in (0.0, 1.0)
    assert rec.std_tau == 0.0
    assert rec.mean_tau == float(int(rec.mean_tau))
    assert rec.mean_tau >= 2
    assert rec.replications == 1


def test_fb_mean_tau_is_budget():
    cfg = ExperimentConfig(B21, STATIC, (100.0, 250.0), 50, 3)
    records = run_fb_experiment(cfg)
    assert [r.mean_tau for r in records] == [100.0, 250.0]
    assert all(r.std_tau == 0.0 for r in records)


def test_kind_grid_validation():
    with pytest.raises(DomainError):
        run_fc_experiment(ExperimentConfig(B21, STATIC, (0.1,), 5, 0))
    with pytest.raises(DomainError):
        run_fb_experiment(ExperimentConfig(EASY, ELIM, (100.0,), 5, 0))
    with pytest.raises(DomainError):
        run_fb_experiment(ExperimentConfig(B21, STATIC, (), 5, 0))
    with pytest.raises(DomainError):
        run_fb_experiment(ExperimentConfig(B21, STATIC, (1.0,), 5, 0))
    with pytest.raises(DomainError):
        run_fc_experiment(ExperimentConfig(EASY, ELIM, (0.5,), 5, 0))  # > 0.15
    with pytest.raises(DomainError):
        ExperimentConfig(EASY, AlgorithmSpec("bogus"), (0.1,), 5, 0).validate()


def test_fc_pac_cells():
    cfg = ExperimentConfig(
        EASY, AlgorithmSpec("elimination", rate=ExplorationRate.ITERATED_LOG),
        (0.1, 0.01), 2000, 21)
    with pytest.warns(RuntimeWarning):
        records = run_fc_experiment(cfg)
    for rec in records:
        delta = rec.grid_value
        assert rec.error_rate <= delta + 3 * math.sqrt(delta * (1 - delta) / rec.replications)
        assert rec.exhausted_count == 0


# --- engine properties -------------------------------------------------------------

MISMATCHED = two_armed_gaussian(1.0, 0.0, 1.0, 0.25)
SEEDS = st.integers(min_value=0, max_value=2**64 - 1)


@given(reps=st.integers(min_value=1, max_value=40), seed=SEEDS)
@settings(max_examples=4, deadline=None)
def test_records_identical_for_one_two_three_workers(reps, seed):
    configs = [
        ExperimentConfig(EASY, ELIM, (0.1, 0.01), reps, seed),
        ExperimentConfig(B21, AlgorithmSpec("static", allocation="optimal"),
                         (20.0, 60.0), reps, seed),
    ]
    for cfg in configs:
        runner = run_fb_experiment if cfg.algorithm.is_fixed_budget else run_fc_experiment
        first = runner(cfg, workers=1)
        assert runner(cfg, workers=2) == first
        assert runner(cfg, workers=3) == first


@given(seed=SEEDS, cell=st.integers(min_value=0, max_value=50),
       delta=st.sampled_from([0.1, 0.01, 0.001]), reps=st.integers(min_value=1, max_value=300))
@settings(max_examples=15, deadline=None)
def test_engine_tau_pathwise_monotone_in_the_rate(seed, cell, delta, reps):
    # plain-log <= conjectured <= robbins pointwise, so on shared streams no
    # replication stops later under a smaller threshold
    taus = []
    for rate in (ExplorationRate.PLAIN_LOG, ExplorationRate.CONJECTURED_LOG_LOG,
                 ExplorationRate.ROBBINS_LOG_T):
        rule = fc_algos.EliminationRule(EASY, delta, rate)
        taus.append(engine.run_rows(rule, make_rng(seed, cell), range(reps))[0])
    assert np.all(taus[0] <= taus[1])
    assert np.all(taus[1] <= taus[2])


def _single_run(spec, instance, value, rng):
    if spec.kind == "elimination":
        return fc_algos.run_elimination(instance, value, spec.rate, rng,
                                        tau_max=spec.tau_max, sigma=spec.sigma)
    if spec.kind == "alpha-elimination":
        return fc_algos.run_alpha_elimination(instance, value, spec.rate, rng,
                                              alpha=spec.alpha, tau_max=spec.tau_max)
    if spec.kind == "sglrt":
        return fc_algos.run_sglrt(instance, value, spec.rate, rng, tau_max=spec.tau_max)
    if spec.kind == "sprt":
        return fc_algos.run_sprt_oracle(instance, value, rng, tau_max=spec.tau_max,
                                        use_paper_statistic=spec.sprt_paper_statistic)
    alloc = fb_algos.allocation_for(instance, int(value), spec.allocation)
    return fb_algos.run_static(instance, alloc, rng)


CELLS = [
    (EASY, AlgorithmSpec("elimination", rate=ExplorationRate.ROBBINS_LOG_T), (0.1, 0.01)),
    (B21, AlgorithmSpec("elimination", rate=ExplorationRate.PLAIN_LOG, sigma=0.5), (0.05,)),
    (MISMATCHED, AlgorithmSpec("alpha-elimination", rate=ExplorationRate.ALPHA_ELIM),
     (0.1, 0.01)),
    (EASY, AlgorithmSpec("alpha-elimination", rate=ExplorationRate.PLAIN_LOG, alpha=0.8,
                         tau_max=90), (0.05,)),
    (B21, AlgorithmSpec("sglrt", rate=ExplorationRate.CONJECTURED_LOG_LOG), (0.1, 0.01)),
    (two_armed_bernoulli(0.51, 0.5), AlgorithmSpec("sglrt", rate=ExplorationRate.SGLRT,
                                                   tau_max=300), (0.1,)),
    (EASY, AlgorithmSpec("sprt", sprt_paper_statistic=True), (0.1, 0.001)),
    (B21, AlgorithmSpec("static", allocation="optimal"), (30.0, 101.0)),
    (EASY, AlgorithmSpec("static", allocation="uniform"), (2.0, 17.0)),
]


@given(case=st.sampled_from(CELLS), seed=SEEDS, reps=st.integers(min_value=1, max_value=300))
@settings(max_examples=20, deadline=None)
def test_harness_cell_equals_single_runs_on_row_streams(case, seed, reps):
    instance, spec, grid = case
    cfg = ExperimentConfig(instance, spec, grid, reps, seed)
    runner = run_fb_experiment if spec.is_fixed_budget else run_fc_experiment
    records = runner(cfg)
    for g in range(len(grid)):
        assert records[g] == _single_runs_record(cfg, g)


def _single_runs_record(cfg, g):
    """Cell g's record aggregated from single runs on each replication's stream."""
    outcomes = []
    for r in range(cfg.replications):
        rng = make_rng(cfg.master_seed, g)
        rng.bit_generator.advance(r * STREAM_STRIDE)
        outcomes.append(_single_run(cfg.algorithm, cfg.instance, cfg.grid[g], rng))
    partial = (sum(not o.correct for o in outcomes), sum(o.tau for o in outcomes),
               sum(o.tau * o.tau for o in outcomes), sum(o.exhausted for o in outcomes))
    return _aggregate(cfg, g, [partial])


def test_one_row_blocks_read_their_own_stream_on_every_chunk():
    # 65 replications end in a one-row lockstep block (row 64), and 130 split
    # over 2 workers end each task in one (rows 64 and 129); such a row must
    # keep reading its stream past its first 64 steps, as a single run does
    spec = AlgorithmSpec("sglrt", rate=ExplorationRate.SGLRT, tau_max=300)
    for reps in (65, 130):
        cfg = ExperimentConfig(two_armed_bernoulli(0.51, 0.5), spec, (0.1,), reps, 11)
        records = run_fc_experiment(cfg)
        assert records[0].mean_tau > 128  # most rows run past the first chunk
        assert records[0] == _single_runs_record(cfg, 0)
        assert run_fc_experiment(cfg, workers=2) == records


# --- Wilson interval -------------------------------------------------------------

def test_wilson_halfwidth_scaling():
    a = wilson_halfwidth(100, 1000)
    b = wilson_halfwidth(400, 4000)
    assert a / b == pytest.approx(2.0, abs=0.05)
    assert wilson_halfwidth(0, 1000) > 0.0


def test_wilson_against_scipy():
    lo, hi = scipy.stats.binomtest(137, 2000).proportion_ci(0.95, method="wilson")
    assert wilson_halfwidth(137, 2000) == pytest.approx((hi - lo) / 2, rel=1e-9)


# --- zeta and the deviation bound --------------------------------------------------

def test_zeta_known_values():
    assert zeta(2.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-9)
    assert zeta(1.5) == pytest.approx(2.612375348685488, abs=1e-9)
    assert zeta(60.0) == pytest.approx(1.0, abs=1e-12)


def test_zeta_against_scipy():
    for u in (1.05, 1.25, 1.4, 1.8, 2.5, 4.0, 10.0):
        assert zeta(u) == pytest.approx(float(scipy.special.zeta(u, 1)), abs=1e-10)


def test_zeta_domain():
    with pytest.raises(DomainError):
        zeta(1.0)
    with pytest.raises(DomainError):
        zeta(0.5)


def test_deviation_bound_series_oracle():
    # independent recomputation with scipy's zeta
    for x, beta in ((3.0, 2.0), (5.0, 1.5), (10.0, 3.0)):
        u = beta * (1 - 1 / (2 * x))
        expected = (math.sqrt(math.e) * float(scipy.special.zeta(u, 1))
                    * (math.sqrt(x) / (2 * math.sqrt(2)) + 1) ** beta * math.exp(-x))
        assert deviation_bound(x, beta) == pytest.approx(expected, rel=1e-9)


def test_deviation_bound_vanishes_for_large_x():
    assert deviation_bound(80.0, 2.0) < 1e-30


def test_deviation_bound_domain():
    with pytest.raises(DomainError):
        deviation_bound(1.0, 2.0)  # x below 8/(e-1)^2
    with pytest.raises(DomainError):
        deviation_bound(3.0, 1.0)  # beta must exceed 1
    with pytest.raises(DomainError):
        deviation_bound(3.0, 1.05)  # beta(1-1/(2x)) = 0.875 < 1
    # exact boundary beta(1-1/(2x)) == 1
    with pytest.raises(DomainError):
        deviation_bound(4.0, 1.0 / 0.875)


# --- empirical crossing frequency ---------------------------------------------------

def test_lil_crossing_rare_for_large_x():
    assert empirical_lil_crossing(1.0, 50.0, 2.0, 1000, 1000, 17) == 0.0


def test_lil_crossing_monotone_in_horizon():
    f_short = empirical_lil_crossing(1.0, 3.0, 1.5, 500, 500, 23)
    f_long = empirical_lil_crossing(1.0, 3.0, 1.5, 1000, 500, 23)
    assert f_long >= f_short


def test_lil_crossing_below_bound_light():
    freq = empirical_lil_crossing(1.0, 3.0, 1.5, 2000, 2000, 29)
    bound = deviation_bound(3.0, 1.5)
    se = math.sqrt(max(freq * (1 - freq), 1e-9) / 2000)
    assert freq <= bound + 3 * se


def test_config_surfaces_elimination_delta_cap_before_running():
    cfg = ExperimentConfig(EASY, ELIM, (0.2,), 5, 0)
    with pytest.raises(DomainError):
        cfg.validate()


def test_alpha_elimination_extreme_alpha():
    from bestarm.fc_algos import run_alpha_elimination
    from bestarm.rng import make_rng

    out = run_alpha_elimination(EASY, 0.05, ExplorationRate.ALPHA_ELIM,
                                make_rng(31), alpha=0.9)
    assert out.draws_per_arm[0] == math.ceil(0.9 * out.tau)
    assert out.draws_per_arm[1] >= 1


def test_fc_pac_grid_with_small_delta():
    cfg = ExperimentConfig(
        EASY, AlgorithmSpec("elimination", rate=ExplorationRate.ITERATED_LOG),
        (0.001,), 2000, 33)
    rec, = run_fc_experiment(cfg)
    assert rec.error_rate <= 0.001 + 3 * math.sqrt(0.001 * 0.999 / 2000)


def test_fb_budget_two_huge_gap():
    inst = two_armed_gaussian(100.0, -100.0, 0.25)
    cfg = ExperimentConfig(inst, STATIC, (2.0,), 2000, 41)
    rec, = run_fb_experiment(cfg)
    assert rec.error_rate == 0.0
    assert rec.mean_tau == 2.0


def test_fb_hard_bernoulli_error_decay():
    # near-tied arms: error starts near one half and decreases with budget
    hard = two_armed_bernoulli(0.51, 0.5)
    cfg = ExperimentConfig(hard, STATIC, (10.0, 1000.0, 40000.0), 3000, 43)
    records = run_fb_experiment(cfg)
    rates = [r.error_rate for r in records]
    # ties at tiny budgets resolve to the (best) lowest index, pulling the
    # smallest-budget error slightly below the coin-flip level
    assert 0.30 <= rates[0] <= 0.55
    assert rates[0] > rates[1] > rates[2]


def test_exhausted_count_surfaces_in_records():
    hard = two_armed_bernoulli(0.51, 0.5)
    spec = AlgorithmSpec("sglrt", rate=ExplorationRate.SGLRT, tau_max=20)
    cfg = ExperimentConfig(hard, spec, (0.1,), 50, 44)
    rec, = run_fc_experiment(cfg)
    assert rec.exhausted_count == 50
    assert rec.mean_tau == 20.0
