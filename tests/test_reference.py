"""The engine agrees with a plain step-by-step interpreter of each rule.

``reference.py`` runs every row alone from the rule's definition, with
exact sums, sharing no code with ``bestarm.engine``.  Cases cover every
rule kind, groups of rules that share a draw layout, easy and hard
instances, caps that end mid-chunk, on a chunk boundary or before any
step, up to the first 4096-step chunk and a few steps past it, and
sub-blocks of a few rows (the engine's output does not depend on their
size), so that rows of one chunk are scanned in several parts.
"""

import functools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from bestarm import engine
from bestarm.cli import build_instance
from bestarm.fb_algos import StaticAllocation, StaticRule
from bestarm.fc_algos import (AlphaEliminationRule, EliminationRule, ExplorationRate,
                              SglrtRule, SprtRule)
from bestarm.rng import make_rng

#: Steps at which a chunk ends (64, then 64 + 128, ...), and caps with no step or one.
STEPS = [0, 1, 64, 192, 448, 960, 1984]
#: Steps at which the 2048-step chunk and the first 4096-step chunk end.
LONG_STEPS = [4032, 8128]
#: Most row-steps one case runs, so that a case takes a fraction of a second.
ROW_STEPS = 12_000
DELTAS = [0.1, 0.05, 0.01, 1e-3]
#: Floats per arm in one sub-block: the engine's own, and a few rows of a long chunk.
BLOCK_ELEMENTS = [engine.BLOCK_ELEMENTS, 4096, 256]
#: Arm means, from near ties to wide gaps.
MEANS = {"gaussian": [0.0, 0.05, 0.3, 1.0, -0.5], "bernoulli": [0.1, 0.3, 0.45, 0.5, 0.55, 0.9],
         "exponential": [0.3, 0.5, 0.95, 1.0, 2.0]}
VARIANCES = [0.25, 1.0, 4.0]


@st.composite
def _delta_and_rate(draw):
    rate = draw(st.sampled_from(ExplorationRate))
    delta = draw(st.sampled_from(DELTAS))
    # the iterated-log rate warns by design above 0.01
    return min(delta, 0.01) if rate is ExplorationRate.ITERATED_LOG else delta, rate


@st.composite
def _instance(draw, family, equal_variances=False):
    means = st.sampled_from(MEANS[family])
    first = draw(means)
    second = draw(means.filter(lambda m: m != first))
    if family != "gaussian":
        return build_instance(family, [first, second], None)
    variances = [draw(st.sampled_from(VARIANCES))] * 2
    if not equal_variances:
        variances[1] = draw(st.sampled_from(VARIANCES))
    return build_instance(family, [first, second], variances)


@st.composite
def _rules(draw, kind, steps=st.one_of(st.sampled_from(STEPS), st.integers(0, 2100)),
           sizes=st.one_of(st.integers(1, 3), st.integers(1, 500))):
    """1-3 rules of one draw layout, of ``steps`` steps, or a static allocation of ``sizes``."""
    steps = draw(steps)
    cap = 2 * steps + draw(st.integers(0, 1))
    count = draw(st.integers(1, 3))
    if kind == "difference":
        instance = draw(_instance("gaussian", equal_variances=True))
        elimination = st.builds(lambda dr: EliminationRule(instance, *dr, tau_max=cap),
                                _delta_and_rate())
        sprt = st.builds(lambda delta, paper: SprtRule(instance, delta, tau_max=cap,
                                                       use_paper_statistic=paper),
                         st.sampled_from(DELTAS), st.booleans())
        return [draw(st.one_of(elimination, sprt)) for _ in range(count)]
    if kind in ("bernoulli", "exponential"):
        instance = draw(_instance(kind))
        choices = [st.builds(lambda dr, sigma: EliminationRule(instance, *dr, tau_max=cap,
                                                               sigma=sigma),
                             _delta_and_rate(), st.sampled_from([0.5, 1.0, 2.0]))]
        if kind == "bernoulli":
            choices.append(st.builds(lambda dr: SglrtRule(instance, *dr, tau_max=cap),
                                     _delta_and_rate()))
        return [draw(st.one_of(choices)) for _ in range(count)]
    if kind == "schedule":
        instance = draw(_instance("gaussian"))
        alpha = draw(st.one_of(st.none(), st.sampled_from([0.05, 0.3, 0.5, 0.61, 0.95])))
        return [AlphaEliminationRule(instance, *draw(_delta_and_rate()), alpha=alpha,
                                     tau_max=steps) for _ in range(count)]
    instance = draw(_instance(draw(st.sampled_from(sorted(MEANS)))))
    return [StaticRule(instance, StaticAllocation(draw(sizes), draw(sizes)))]


@pytest.mark.parametrize("kind", ["difference", "bernoulli", "exponential", "schedule", "sums"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_engine_agrees_with_the_reference_interpreter(kind, data):
    rules = data.draw(_rules(kind))
    longest = max(max(rule.steps for rule in rules), 1)
    count = data.draw(st.integers(1, max(1, min(300, ROW_STEPS // longest))))
    start = data.draw(st.integers(0, 10**6))
    rows, seed = range(start, start + count), data.draw(st.integers(0, 2**32))
    got = [[] for _ in rules]
    with mock.patch.object(engine, "BLOCK_ELEMENTS", data.draw(st.sampled_from(BLOCK_ELEMENTS))):
        for block in engine.run_group(rules, make_rng(seed), rows):
            for outcomes, part in zip(got, block):
                outcomes += part
    for rule, outcomes in zip(rules, got):
        expected = reference.run(rule, make_rng(seed).bit_generator.state, rows)
        assert sum(ambiguous for _, ambiguous in expected) <= max(1, count // 100)
        for row, ((outcome, ambiguous), engine_outcome) in enumerate(zip(expected, outcomes)):
            if not ambiguous:
                assert tuple(engine_outcome) == outcome, (type(rule).__name__, start + row)


@pytest.mark.parametrize("kind", ["difference", "bernoulli", "exponential", "schedule", "sums"])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_engine_agrees_with_the_reference_interpreter_in_long_chunks(kind, data):
    # caps at the end of the 2048-step chunk or the first 4096-step one, or a
    # few steps past it, and static allocations of as many draws per arm; a
    # few rows, scanned one or two to a sub-block from the 2048-step chunk on
    steps = st.builds(int.__add__, st.sampled_from(LONG_STEPS), st.integers(0, 5))
    rules = data.draw(_rules(kind, steps, steps))
    start, count = data.draw(st.integers(0, 10**6)), data.draw(st.integers(1, 4))
    rows, seed = range(start, start + count), data.draw(st.integers(0, 2**32))
    got = [[] for _ in rules]
    with mock.patch.object(engine, "BLOCK_ELEMENTS", data.draw(st.sampled_from([4096, 256]))):
        for block in engine.run_group(rules, make_rng(seed), rows):
            for outcomes, part in zip(got, block):
                outcomes += part
    for rule, outcomes in zip(rules, got):
        expected = reference.run(rule, make_rng(seed).bit_generator.state, rows)
        assert sum(ambiguous for _, ambiguous in expected) <= 1
        for row, ((outcome, ambiguous), engine_outcome) in enumerate(zip(expected, outcomes)):
            if not ambiguous:
                assert tuple(engine_outcome) == outcome, (type(rule).__name__, start + row)


#: Caps whose last chunk, 1,500 steps into the 2048-step chunk or the first
#: 4096-step one, is cut into windows by the box test and ends mid-window.
BOX_STEPS = [1984 + 1500, 4032 + 1500]
#: Near ties, whose rows run long and mostly far from every threshold, and
#: small gaps, whose rows stop in the long chunks.
NEAR_TIES = [(0.51, 0.5), (0.5, 0.51), (0.3, 0.31), (0.9, 0.89), (0.54, 0.5), (0.3, 0.34)]


def test_the_engine_agrees_with_the_reference_interpreter_through_skipped_windows():
    # Bernoulli rules of the "both" layout on near ties, to caps where most
    # rows exhaust: the engine scans a row only from the first window that a
    # rule running it calls unsafe, and ends a row that no window of the
    # cap's chunk can stop from the window sums alone
    seen = {"windows": 0, "ended": 0}
    real_unsafe_rows = engine._unsafe_rows

    def unsafe_rows(rule, floors, flags, box):
        rows, window, skipped = real_unsafe_rows(rule, floors, flags, box)
        seen["windows"] += len(skipped) * box.d_max.shape[1] + len(rows) * window
        if rule.at_cap:
            seen["ended"] += len(skipped)
        return rows, window, skipped

    def chunk(rule, done, n, real):
        rule.at_cap = done + n == rule.steps
        return real(done, n)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        steps = data.draw(st.sampled_from(BOX_STEPS)) + data.draw(st.integers(0, 30))
        instance = build_instance("bernoulli", list(data.draw(st.sampled_from(NEAR_TIES))), None)
        elimination = st.builds(lambda dr, sigma: EliminationRule(instance, *dr,
                                                                  tau_max=2 * steps, sigma=sigma),
                                _delta_and_rate(), st.sampled_from([0.5, 1.0, 2.0]))
        sglrt = st.builds(lambda dr: SglrtRule(instance, *dr, tau_max=2 * steps),
                          _delta_and_rate())
        rules = [data.draw(st.one_of(elimination, sglrt)) for _ in range(data.draw(
            st.integers(1, 3)))]
        start, count = data.draw(st.integers(0, 10**6)), data.draw(st.integers(1, 4))
        rows, seed = range(start, start + count), data.draw(st.integers(0, 2**32))
        for rule in rules:
            rule.chunk = functools.partial(chunk, rule, real=rule.chunk)
        got = [[] for _ in rules]
        with mock.patch.object(engine, "BLOCK_ELEMENTS", data.draw(st.sampled_from([4096, 256]))):
            for block in engine.run_group(rules, make_rng(seed), rows):
                for outcomes, part in zip(got, block):
                    outcomes += part
        for rule, outcomes in zip(rules, got):
            expected = reference.run(rule, make_rng(seed).bit_generator.state, rows)
            assert sum(ambiguous for _, ambiguous in expected) <= 1
            for row, ((outcome, ambiguous), engine_outcome) in enumerate(zip(expected, outcomes)):
                if not ambiguous:
                    assert tuple(engine_outcome) == outcome, (type(rule).__name__, start + row)

    with mock.patch.object(engine, "_unsafe_rows", unsafe_rows):
        check()
    assert seen["windows"] and seen["ended"]
