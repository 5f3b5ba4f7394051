import dataclasses
import math
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from bestarm import engine, fb_algos, fc_algos, harness, presets
from bestarm.errors import DomainError
from bestarm.fc_algos import ExplorationRate
from bestarm.harness import (
    AlgorithmSpec,
    ExperimentConfig,
    _aggregate,
    deviation_bound,
    empirical_lil_crossing,
    run_experiments,
    run_fb_experiment,
    run_fc_experiment,
    wilson_halfwidth,
    zeta,
)
from bestarm.instances import two_armed_bernoulli, two_armed_gaussian
from bestarm.rng import STREAM_STRIDE, make_rng, mix_seed, row_states, splitmix64

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


_JUMPS = (0, 1, 63, 64, 65, 12345, 2**53 - 1)


def test_replication_stream_is_numpy_jump():
    # each replication's state, alone or inside a range, is PCG64.jumped(r)'s
    for key in ((), (0,), (1,), (3, 1)):
        root = make_rng(3, *key).bit_generator
        for r in _JUMPS:
            assert list(row_states(root.state, range(r, r + 1))) == [root.jumped(r).state]
        for start in (0, 60, 2**53 - 3):
            rows = range(start, start + 8)
            assert list(row_states(root.state, rows)) == [root.jumped(r).state for r in rows]


def test_replication_stream_ignores_a_buffered_half_word():
    # a root holding a buffered 32-bit half word: jumped(r) drops it, and so
    # does every row state (has_uint32 and uinteger 0)
    rng = make_rng(11, 2)
    rng.integers(0, 2**32, dtype=np.uint32)
    root = rng.bit_generator
    assert root.state["has_uint32"] == 1
    for r in _JUMPS:
        assert list(row_states(root.state, range(r, r + 1))) == [root.jumped(r).state]
    assert list(row_states(root.state, range(60, 68))) == [root.jumped(r).state
                                                           for r in range(60, 68)]
    assert all(state["has_uint32"] == 0 and state["uinteger"] == 0
               for state in row_states(root.state, range(3)))


def test_replication_streams_are_independent():
    # column means of 4000 replications x 16 uniforms: under independence the
    # squared z-scores sum to a chi2(16) variate, above 50 with probability
    # 2.3e-5.  Offsets in multiples of 2**64 share the low half of the LCG
    # state across replications and gave 68-158 here on 10 seeds.
    n, k = 4000, 16
    rng = make_rng(7, 0)
    u = np.empty((n, k))
    for r, state in enumerate(row_states(rng.bit_generator.state, range(n))):
        rng.bit_generator.state = state
        rng.random(out=u[r])
    z = (u.mean(axis=0) - 0.5) / math.sqrt(1.0 / (12.0 * n))
    assert float(np.sum(z * z)) < 50.0


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


_NEAR_TIE_GAUSSIAN = two_armed_gaussian(0.5, 0.4999999999, 0.25)
_NEAR_TIE_BERNOULLI = two_armed_bernoulli(0.5, 0.4999999999)


@pytest.mark.parametrize("instance, spec", [
    (_NEAR_TIE_GAUSSIAN, ELIM),
    (_NEAR_TIE_GAUSSIAN, AlgorithmSpec("alpha-elimination", rate=ExplorationRate.ALPHA_ELIM)),
    (_NEAR_TIE_BERNOULLI, AlgorithmSpec("sglrt", rate=ExplorationRate.SGLRT)),
    (_NEAR_TIE_GAUSSIAN, AlgorithmSpec("sprt")),
], ids=["elimination", "alpha-elimination", "sglrt", "sprt"])
def test_validate_rejects_a_cap_above_2_53(instance, spec):
    # the near tie's default caps (2.3e22 draws Gaussian, 1.8e28 Bernoulli)
    # would run for ever; a given cap is held to the same limit
    def cells(tau_max):
        cfg = ExperimentConfig(instance, dataclasses.replace(spec, tau_max=tau_max),
                               (0.1,), 2, 1)
        return cfg.validate()

    for tau_max in (None, harness.MAX_COUNT + 1, 10**20):
        with pytest.raises(DomainError, match="tau_max"):
            cells(tau_max)
    rule, = cells(harness.MAX_COUNT)
    assert rule.steps in (harness.MAX_COUNT, harness.MAX_COUNT // 2)


@pytest.mark.parametrize("seed", [-1, 2**64, 18446744073709551621, -18446744073709551611])
def test_seeds_outside_64_bits_are_rejected(seed):
    # make_rng reads a seed mod 2**64: these would draw another seed's numbers
    with pytest.raises(DomainError, match="seed"):
        ExperimentConfig(EASY, ELIM, (0.1,), 5, seed).validate()
    with pytest.raises(DomainError, match="seed"):
        empirical_lil_crossing(1.0, 3.0, 1.5, 10, 10, seed)


def test_seeds_at_the_ends_of_64_bits_run():
    for seed in (0, 2**64 - 1):
        ExperimentConfig(EASY, ELIM, (0.1,), 5, seed).validate()
        assert 0.0 <= empirical_lil_crossing(1.0, 3.0, 1.5, 10, 10, seed) <= 1.0


def test_validate_passes_every_knob_to_its_rule_parameter():
    # every knob off its default and distinct from the others, so a knob
    # passed in another parameter's place changes what the rule carries
    rate = ExplorationRate.CONJECTURED_LOG_LOG
    unequal = two_armed_gaussian(0.5, 0.0, 0.25, 1.0)

    def rule(instance, spec):
        built, = ExperimentConfig(instance, spec, (0.05,), 1, 0).validate()
        return built

    elim = rule(EASY, AlgorithmSpec("elimination", rate=rate, tau_max=1001, sigma=0.7))
    assert (type(elim), elim.rate, elim.steps, elim.sigma) == (
        fc_algos.EliminationRule, rate, 500, 0.7)
    alpha = rule(unequal, AlgorithmSpec("alpha-elimination", rate=rate, alpha=0.3,
                                        tau_max=1203))
    assert (type(alpha), alpha.rate, alpha.steps, alpha.alpha) == (
        fc_algos.AlphaEliminationRule, rate, 1203, 0.3)
    sglrt = rule(B21, AlgorithmSpec("sglrt", rate=rate, tau_max=1405))
    assert (type(sglrt), sglrt.rate, sglrt.steps) == (fc_algos.SglrtRule, rate, 702)
    sprt = rule(EASY, AlgorithmSpec("sprt", tau_max=1607, sprt_paper_statistic=True))
    assert (type(sprt), sprt.steps, sprt.coef) == (fc_algos.SprtRule, 803, 0.5)
    # the exact statistic scales the gap by 1/sigma^2 = 4
    assert rule(EASY, AlgorithmSpec("sprt", tau_max=1607)).coef == 2.0


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


def _mixed_configs():
    """fig3-easy's configs plus a static-optimal Bernoulli one, at uneven replication counts."""
    configs = presets.figure_configs("fig3-easy", 1, 13)
    configs.append(ExperimentConfig(B21, AlgorithmSpec("static", allocation="optimal"),
                                    (20.0, 60.0, 101.0), 1, 13))
    return [dataclasses.replace(cfg, replications=(65, 3, 1)[i % 3])
            for i, cfg in enumerate(configs)]


def test_run_experiments_matches_per_config_runs_at_any_worker_count():
    configs = _mixed_configs()
    expected = []
    for cfg in configs:
        runner = run_fb_experiment if cfg.algorithm.is_fixed_budget else run_fc_experiment
        expected.extend(runner(cfg, workers=1))
    assert [r.replications for r in expected[:2]] == [65, 65]
    for workers in (1, 2, 3):
        assert run_experiments(configs, workers) == expected


def test_the_pool_class_is_a_module_attribute():
    # resolved on first access, so importing the harness loads no pool stack
    from concurrent.futures import ProcessPoolExecutor

    assert harness.ProcessPoolExecutor is ProcessPoolExecutor
    assert not hasattr(harness, "ThreadPoolExecutor")


class _CountingPool(harness.ProcessPoolExecutor):
    opened = 0
    shut = 0

    def __init__(self, *args, **kwargs):
        type(self).opened += 1
        super().__init__(*args, **kwargs)

    def shutdown(self, *args, **kwargs):
        type(self).shut += 1
        super().shutdown(*args, **kwargs)


@pytest.fixture
def counting_pool(monkeypatch):
    """Counts the pools run_experiments opens and shuts, starting with none open."""
    harness.close_pool()
    monkeypatch.setattr(_CountingPool, "opened", 0)
    monkeypatch.setattr(_CountingPool, "shut", 0)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _CountingPool)
    yield _CountingPool
    harness.close_pool()


@pytest.mark.parametrize("workers, reps, pools", [(2, None, 1), (1, None, 0), (2, 1, 0)])
def test_run_experiments_opens_at_most_one_pool(counting_pool, workers, reps, pools):
    configs = _mixed_configs()
    if reps is not None:
        configs = [dataclasses.replace(cfg, replications=reps) for cfg in configs]
    for _ in range(2):  # the second call reuses the first call's pool
        records = run_experiments(configs, workers)
        assert len(records) == sum(len(cfg.grid) for cfg in configs)
    assert (counting_pool.opened, counting_pool.shut) == (pools, 0)


def test_a_new_worker_count_replaces_the_pool(counting_pool):
    configs = _mixed_configs()
    expected = run_experiments(configs, 1)
    assert run_experiments(configs, 2) == expected
    first = harness._POOL
    assert run_experiments(configs, 3) == expected
    assert (counting_pool.opened, counting_pool.shut) == (2, 1)
    assert harness._POOL is not first and harness._POOL._max_workers == 3
    # never more workers than tasks with rows: two replications split in two
    few = [dataclasses.replace(cfg, replications=2) for cfg in configs]
    assert run_experiments(few, 3) == run_experiments(few, 1)
    assert (counting_pool.opened, counting_pool.shut) == (3, 2)
    assert harness._POOL._max_workers == 2


def test_a_worker_killed_between_calls_costs_one_new_pool(counting_pool):
    configs = _mixed_configs()
    expected = run_experiments(configs, 1)
    assert run_experiments(configs, 2) == expected
    worker = next(iter(harness._POOL._processes.values()))
    os.kill(worker.pid, signal.SIGKILL)
    assert multiprocessing.connection.wait([worker.sentinel], timeout=30)
    assert run_experiments(configs, 2) == expected
    assert (counting_pool.opened, counting_pool.shut) == (2, 1)


def test_run_experiments_validates_every_config_before_running(monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "_run_task", lambda task: ran.append(task))
    configs = [ExperimentConfig(EASY, ELIM, (0.1,), 5, 0),
               ExperimentConfig(EASY, ELIM, (0.5,), 5, 0)]  # delta > 0.15
    with pytest.raises(DomainError):
        run_experiments(configs, 1)
    assert ran == []


def test_an_interrupt_drops_the_pool(counting_pool, monkeypatch):
    configs = _mixed_configs()
    run_experiments(configs, 2)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(counting_pool, "map", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_experiments(configs, 2)
    assert harness._POOL is None
    assert (counting_pool.opened, counting_pool.shut) == (1, 1)


@pytest.mark.parametrize("spec", [
    AlgorithmSpec("sglrt", rate=ExplorationRate.ROBBINS_LOG_T),  # needs Bernoulli arms
    AlgorithmSpec("elimination", rate="robbins"),  # a string, not an ExplorationRate
])
def test_config_only_a_rule_rejects_fails_before_any_pool(counting_pool, spec):
    configs = [ExperimentConfig(EASY, ELIM, (0.1,), 20, 0),
               ExperimentConfig(EASY, spec, (0.1,), 20, 0)]
    with pytest.raises(DomainError):
        run_experiments(configs, workers=2)
    assert _CountingPool.opened == 0


def _forbidden(*args, **kwargs):
    raise AssertionError("a worker built a rule or re-solved a cell")


def test_workers_only_run_rules_built_in_the_parent(counting_pool, monkeypatch):
    # once the pool opens, building a rule, a tau_max or an allocation fails;
    # forked workers inherit that, so they must run the parent's rules as given
    # (the fixture closes the module pool around the test, so this call forks)
    class _GuardedPool(_CountingPool):
        def __init__(self, *args, **kwargs):
            monkeypatch.setattr(engine.StoppingRule, "__init__", _forbidden)
            monkeypatch.setattr(fc_algos, "default_tau_max", _forbidden)
            monkeypatch.setattr(fb_algos, "optimal_alpha", _forbidden)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(_GuardedPool, "opened", 0)
    configs = _mixed_configs()
    expected = run_experiments(configs, 1)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _GuardedPool)
    assert run_experiments(configs, 2) == expected
    assert _GuardedPool.opened == 1


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
    sums = [sum(not o.correct for o in outcomes), sum(o.tau for o in outcomes),
            sum(o.tau * o.tau for o in outcomes), sum(o.exhausted for o in outcomes)]
    return _aggregate(cfg, g, sums)


def test_one_row_blocks_read_their_own_stream_on_every_chunk():
    # B + 1 replications (B rows per block) end in a one-row lockstep block
    # (row B), and 2B + 2 split over 2 workers end each task in one (rows B
    # and 2B + 1); such a row must keep reading its stream past its first 64
    # steps, as a single run does
    spec = AlgorithmSpec("sglrt", rate=ExplorationRate.SGLRT, tau_max=300)
    for reps in (engine._BLOCK_ROWS + 1, 2 * engine._BLOCK_ROWS + 2):
        cfg = ExperimentConfig(two_armed_bernoulli(0.51, 0.5), spec, (0.1,), reps, 11)
        records = run_fc_experiment(cfg)
        assert records[0].mean_tau > 128  # most rows run past the first chunk
        assert records[0] == _single_runs_record(cfg, 0)
        assert run_fc_experiment(cfg, workers=2) == records


HARD_BERNOULLI = two_armed_bernoulli(0.51, 0.5)


def _row(out, r):
    return tuple(int(column[r]) for column in out)


def _rule_rows(blocks, k):
    """Rule k's rows of :func:`engine.run_group`'s blocks, as an array of (rows, 4) int64.

    ``np.column_stack(engine.run_rows(...))`` gives the same rows in the same form.
    """
    return np.array([row for block in blocks for row in block[k]], dtype=np.int64).reshape(-1, 4)


def _tau(rule, steps):
    """tau after ``steps`` steps of ``rule``, as its layout counts them."""
    return engine.samplers(rule.layout)[5](steps)[0]


def test_row_generators_carry_nothing_between_calls():
    # 2B + 2 rows (B rows per block) make two full blocks and a third; rows
    # running past 64 + 128 steps draw three chunks from their generator
    rows = 2 * engine._BLOCK_ROWS + 2
    rule_a = fc_algos.SglrtRule(HARD_BERNOULLI, 0.1, ExplorationRate.SGLRT, tau_max=600)
    rule_b = fb_algos.StaticRule(B21, fb_algos.uniform_allocation(30))
    rng = make_rng(13, 2)
    entry = rng.bit_generator.state
    first = engine.run_rows(rule_a, rng, range(rows))
    assert rng.bit_generator.state == entry
    engine.run_rows(rule_b, make_rng(14, 0), range(engine._BLOCK_ROWS + 6))
    second = engine.run_rows(rule_a, rng, range(rows))
    assert rng.bit_generator.state == entry
    assert (first[0] > _tau(rule_a, 64 + 128)).any()
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)
    for r in range(rows):
        run = engine.run_one(rule_a, np.random.Generator(make_rng(13, 2).bit_generator.jumped(r)))
        assert _row(first, r) == (run.tau, run.recommended, run.draws_per_arm[0], run.exhausted)


@pytest.mark.parametrize("rule", [
    fc_algos.SglrtRule(HARD_BERNOULLI, 0.1, ExplorationRate.SGLRT, tau_max=600),
    fc_algos.EliminationRule(HARD_BERNOULLI, 0.05, ExplorationRate.PLAIN_LOG, tau_max=600,
                             sigma=0.5),
    fc_algos.AlphaEliminationRule(two_armed_gaussian(0.1, 0.0, 1.0, 0.25), 0.1,
                                  ExplorationRate.ALPHA_ELIM, tau_max=400),
], ids=["sglrt", "bernoulli-elimination", "alpha-elimination"])
def test_one_fill_call_per_row_draws_what_one_call_per_arm_draws(monkeypatch, rule):
    # the split layout fills each row's c1 arm-1 variates and its c2 arm-2
    # variates of a chunk in two calls
    fill, finish1, finish2, accumulate, counts, draws, leads = engine.samplers(rule.layout)
    arm1_counts = []

    def split_counts(done, n):
        c1, c2 = counts(done, n)
        arm1_counts.append(c1)
        return c1, c2

    def fill_per_arm(rng, out):
        fill(rng, out[:arm1_counts[-1]])
        fill(rng, out[arm1_counts[-1]:])

    merged = engine.run_rows(rule, make_rng(21, 3), range(70))
    assert (merged[0] > draws(64 + 128)[0]).any()
    monkeypatch.setattr(engine, "samplers", lambda layout: (
        fill_per_arm, finish1, finish2, accumulate, split_counts, draws, leads))
    for a, b in zip(merged, engine.run_rows(rule, make_rng(21, 3), range(70))):
        np.testing.assert_array_equal(a, b)


#: Groups whose first rule runs rows past 256-step chunks; the rules stop apart.
BLOCK_GROUPS = {
    "sglrt+elimination": [
        fc_algos.SglrtRule(two_armed_bernoulli(0.6, 0.45), 0.05, ExplorationRate.SGLRT,
                           tau_max=3000),
        fc_algos.EliminationRule(two_armed_bernoulli(0.6, 0.45), 0.05,
                                 ExplorationRate.ROBBINS_LOG_T, tau_max=3000, sigma=0.5)],
    "elimination+sprt": [
        fc_algos.EliminationRule(two_armed_gaussian(0.12, 0.0, 0.25), 0.05,
                                 ExplorationRate.ROBBINS_LOG_T, tau_max=3000),
        fc_algos.SprtRule(two_armed_gaussian(0.12, 0.0, 0.25), 0.05, tau_max=3000)],
    "static": [fb_algos.StaticRule(B21, fb_algos.uniform_allocation(30))],
}


@pytest.mark.parametrize("name", list(BLOCK_GROUPS))
def test_a_group_does_not_depend_on_the_sub_block_size(monkeypatch, name):
    # 2**6 elements scan one row per sub-block from the 64-step chunk on,
    # 2**13 split 128-row blocks from the 128-step chunk on, 2**15 from 512
    rules = BLOCK_GROUPS[name]
    runs = []
    for elements in (2**6, 2**13, 2**15):
        monkeypatch.setattr(engine, "BLOCK_ELEMENTS", elements)
        runs.append(list(engine.run_group(rules, make_rng(31, 2), range(150))))
    if name != "static":
        assert (_rule_rows(runs[0], 0)[:, 0] > _tau(rules[0], 64 + 128 + 256)).any()
    for run in runs[1:]:
        assert run == runs[0]


def test_the_workspace_is_allocated_on_first_use_and_kept_when_outgrown(monkeypatch):
    src = os.path.dirname(os.path.dirname(engine.__file__))
    code = "import bestarm.cli, bestarm.engine as e; print(len(e._WORKSPACE))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "0"
    rules = BLOCK_GROUPS["sglrt+elimination"]
    want = list(engine.run_group(rules, make_rng(32, 0), range(40)))
    # slots grown for larger sub-blocks serve smaller ones from their prefix
    monkeypatch.setattr(engine, "_WORKSPACE", {})
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 2**17)
    list(engine.run_group(rules, make_rng(33, 0), range(40)))
    grown = dict(engine._WORKSPACE)
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 2**15)
    got = list(engine.run_group(rules, make_rng(32, 0), range(40)))
    assert grown and all(engine._WORKSPACE[slot] is buf for slot, buf in grown.items())
    assert got == want


def _preset_group(name, g, tau_max):
    """The fixed-confidence rules of preset ``name`` at its g-th delta, with cap ``tau_max``."""
    rules = []
    for cfg in presets.figure_configs(name, 1, 0):
        if not cfg.algorithm.is_fixed_budget:
            spec = dataclasses.replace(cfg.algorithm, tau_max=tau_max)
            rules.append(dataclasses.replace(cfg, algorithm=spec).validate()[g])
    return rules


#: (preset, its delta count, a cap at which every rule exhausts a third of its rows or more)
GROUPS = [("fig3-easy", 5, 6), ("fig4-left", 4, 80)]


@given(group=st.sampled_from(GROUPS), capped=st.booleans(), g=st.integers(0, 4),
       seed=SEEDS, reps=st.integers(min_value=1, max_value=300))
@settings(max_examples=20, deadline=None)
def test_a_group_equals_its_rules_run_alone(group, capped, g, seed, reps):
    # the four fixed-confidence rules of a preset at one delta share one layout
    # (paired Gaussian elimination and the SPRT; the SGLRT and Bernoulli
    # elimination), so one fill serves all four, and each reads what it reads alone
    name, deltas, cap = group
    rules = _preset_group(name, g % deltas, cap if capped else None)
    assert len(rules) == 4 and len({rule.layout for rule in rules}) == 1
    grouped = list(engine.run_group(rules, make_rng(seed, g), range(reps)))
    for k, rule in enumerate(rules):
        out = _rule_rows(grouped, k)
        alone = engine.run_rows(rule, make_rng(seed, g), range(reps))
        np.testing.assert_array_equal(out, np.column_stack(alone))
        if capped and reps >= 50:
            assert out[:, 3].any()


@pytest.mark.parametrize("name", ["fig4-left", "fig3-easy"])
def test_each_rule_of_a_group_scans_the_row_steps_it_scans_alone(monkeypatch, name):
    # a rule of a group scans only the rows it still runs, so it scans the
    # row-steps it scans alone, in two blocks of rows; scanning each rule over
    # every row that some rule of the group runs would scan more at the
    # preset's last delta, where the rules' rows end furthest apart
    rules = _preset_group(name, -1, None)
    scanned = [0] * len(rules)
    for k, rule in enumerate(rules):
        def scan(shared, sums, k=k, real=rule.scan):
            scanned[k] += sums[0].size
            return real(shared, sums)
        monkeypatch.setattr(rule, "scan", scan)
    rows = range(engine._BLOCK_ROWS + 22)
    list(engine.run_group(rules, make_rng(1, 0), rows))
    grouped, scanned[:] = scanned[:], [0] * len(rules)
    for rule in rules:
        engine.run_rows(rule, make_rng(1, 0), rows)
    assert grouped == scanned


def test_rules_that_differ_only_in_their_cap_do_not_share():
    short, long_ = (fc_algos.EliminationRule(EASY, 0.1, ExplorationRate.PLAIN_LOG, tau_max=cap)
                    for cap in (20, 200))
    assert short.layout != long_.layout
    with pytest.raises(ValueError):
        list(engine.run_group([short, long_], make_rng(4, 0), range(10)))
    # the harness runs them apart, each as it runs alone
    configs = [ExperimentConfig(EASY, dataclasses.replace(ELIM, tau_max=cap), (0.1,), 70, 4)
               for cap in (20, 200)]
    assert run_experiments(configs) == [run_fc_experiment(cfg)[0] for cfg in configs]
    # static rules of one allocation, and alpha-elimination rules of one alpha,
    # share one layout, and each reads in a group the rows it reads alone
    alloc = fb_algos.uniform_allocation(30)
    static = [fb_algos.StaticRule(EASY, alloc) for _ in range(2)]
    alpha = [fc_algos.AlphaEliminationRule(MISMATCHED, 0.1, ExplorationRate.ALPHA_ELIM)
             for _ in range(2)]
    for pair in (static, alpha):
        assert pair[0].layout == pair[1].layout
        grouped = list(engine.run_group(pair, make_rng(4, 0), range(10)))
        for k, rule in enumerate(pair):
            alone = engine.run_rows(rule, make_rng(4, 0), range(10))
            np.testing.assert_array_equal(_rule_rows(grouped, k), np.column_stack(alone))
    # another allocation, or another alpha, draws otherwise
    other_alloc = fb_algos.StaticRule(EASY, fb_algos.uniform_allocation(31))
    other_alpha = fc_algos.AlphaEliminationRule(MISMATCHED, 0.1, ExplorationRate.ALPHA_ELIM,
                                                alpha=0.3)
    for rules in ([static[0], other_alloc], [alpha[0], other_alpha]):
        assert rules[0].layout != rules[1].layout
        with pytest.raises(ValueError):
            list(engine.run_group(rules, make_rng(4, 0), range(10)))


def _chunk_counts(rule):
    """(c1, c2) of each chunk of ``rule``'s steps, on the engine's schedule."""
    counts, done, chunk = [], 0, engine._CHUNK0
    while done < rule.steps:
        n = min(chunk, rule.steps - done)
        counts.append(engine.samplers(rule.layout)[4](done, n))
        done += n
        chunk = min(2 * chunk, engine._CHUNK_MAX)
    return counts


_RATES = [ExplorationRate.ROBBINS_LOG_T, ExplorationRate.PLAIN_LOG, ExplorationRate.ALPHA_ELIM,
          ExplorationRate.SGLRT, ExplorationRate.CONJECTURED_LOG_LOG]


@given(gaussian=st.booleans(), cap=st.integers(min_value=0, max_value=20_000), data=st.data())
@settings(max_examples=25, deadline=None)
def test_rules_of_one_layout_draw_alike_and_others_do_not_group(gaussian, cap, data):
    # a block fills each chunk with the (c1, c2) of the group's layout, so
    # rules of one layout draw the same counts in every chunk
    inst = two_armed_gaussian(0.3, 0.0, 0.25) if gaussian else two_armed_bernoulli(0.6, 0.45)
    delta = st.sampled_from([0.01, 0.05, 0.1])
    rate = st.sampled_from(_RATES)
    sigma = None if gaussian else 0.5
    rules = []
    for _ in range(2):
        budget = data.draw(st.sampled_from([10, 11, 30]))
        rules.append(fb_algos.StaticRule(inst, fb_algos.uniform_allocation(budget)))
        rules.append(fc_algos.EliminationRule(inst, data.draw(delta), data.draw(rate),
                                              tau_max=cap, sigma=sigma))
        if gaussian:
            rules.append(fc_algos.SprtRule(inst, data.draw(delta), tau_max=cap))
            rules.append(fc_algos.AlphaEliminationRule(
                inst, data.draw(delta), data.draw(rate),
                alpha=data.draw(st.sampled_from([0.25, 0.5, 0.7])), tau_max=cap))
        else:
            rules.append(fc_algos.SglrtRule(inst, data.draw(delta), data.draw(rate),
                                            tau_max=cap))
    for a in rules:
        for b in rules:
            if a.layout == b.layout:
                assert _chunk_counts(a) == _chunk_counts(b)
            else:
                with pytest.raises(ValueError):
                    list(engine.run_group([a, b], make_rng(5, 0), range(3)))


def test_a_task_runs_each_shared_stream_once(monkeypatch):
    # fig3-easy: the four fixed-confidence configs share each of 5 deltas'
    # streams and the static config has 10 cells of its own
    groups = []
    run_group = engine.run_group

    def counting(rules, rng, rows):
        groups.append(len(rules))
        return run_group(rules, rng, rows)

    monkeypatch.setattr(engine, "run_group", counting)
    configs = presets.figure_configs("fig3-easy", 30, 9)
    records = run_experiments(configs)
    assert sorted(groups) == [1] * 10 + [4] * 5
    monkeypatch.setattr(engine, "run_group", run_group)
    assert records == [r for cfg in configs for r in run_experiments([cfg])]


def test_run_experiments_memory_does_not_grow_with_the_replications():
    # each block of rows is folded into its cell's sums as it finishes, so a
    # cell of 8N replications peaks no higher than one of N; the first run
    # grows the engine's workspace and row generators, which are kept
    cfg = ExperimentConfig(EASY, ELIM, (0.1,), 2000, 5)
    run_experiments([dataclasses.replace(cfg, replications=8 * 2000)])
    peaks = []
    for reps in (2000, 8 * 2000):
        tracemalloc.start()
        try:
            run_experiments([dataclasses.replace(cfg, replications=reps)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**18


class _WritingSprt(fc_algos.SprtRule):
    def scan(self, shared, sums):
        sums[0] *= 1.0
        return super().scan(shared, sums)


def test_a_scan_cannot_write_the_shared_sums():
    writing = _WritingSprt(EASY, 0.1)
    with pytest.raises(ValueError):
        engine.run_rows(writing, make_rng(6, 0), range(5))
    with pytest.raises(ValueError):
        list(engine.run_group([fc_algos.SprtRule(EASY, 0.1), writing], make_rng(6, 0), range(5)))


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


@pytest.mark.parametrize("x, beta", [(math.nan, 1.5), (3.0, math.nan), (math.inf, 1.5),
                                     (-50.0, 1.5), (3.0, -5.0)])
def test_lil_crossing_rejects_what_the_bound_rejects(x, beta):
    # each of these read 0.0 (with at most a RuntimeWarning) from a NaN envelope
    with pytest.raises(DomainError, match="must be finite"):
        deviation_bound(x, beta)
    with pytest.raises(DomainError, match="must be finite"):
        empirical_lil_crossing(1.0, x, beta, 10, 10, 0)


def test_lil_crossing_reuses_the_rows_slot(monkeypatch):
    # every block of both calls is the engine's "rows" workspace, not a fresh array
    blocks = []
    filled_rows = engine.filled_rows

    def spy(*args):
        for lo, z in filled_rows(*args):
            blocks.append(z.__array_interface__["data"][0])
            yield lo, z

    monkeypatch.setattr(engine, "filled_rows", spy)
    for seed in (23, 24):
        empirical_lil_crossing(1.0, 3.0, 1.5, 500, 500, seed)
    assert len(blocks) > 2 and len(set(blocks)) == 1
    assert blocks[0] == engine.workspace("rows", (1,)).__array_interface__["data"][0]


def test_lil_crossing_monotone_in_horizon():
    f_short = empirical_lil_crossing(1.0, 3.0, 1.5, 500, 500, 23)
    f_long = empirical_lil_crossing(1.0, 3.0, 1.5, 1000, 500, 23)
    assert f_long >= f_short


@pytest.mark.parametrize("sigma", [1e-200, 1e-5, 3.0, 1e200, 1e300])
def test_lil_crossing_is_invariant_in_sigma(sigma):
    # sigma Z crosses sigma env exactly when Z does; scaling the walk made
    # sigma^2 underflow (a zero envelope) or overflow (an OverflowError)
    reference = empirical_lil_crossing(1.0, 3.0, 1.5, 500, 500, 23)
    assert empirical_lil_crossing(sigma, 3.0, 1.5, 500, 500, 23) == reference


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
