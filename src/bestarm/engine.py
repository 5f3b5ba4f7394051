"""The stopping engine every strategy runs on.

A :class:`StoppingRule` is one strategy validated for one cell: it
supplies its per-chunk thresholds and its statistic, nothing else, and
states what it draws in its ``layout``, whose :func:`samplers` it reads.
:func:`run_group` advances the replications of rules that share one layout
in lockstep blocks and yields each block's outcomes, keeping none (the
harness folds each into exact sums, so memory is flat in the replication
count); :func:`run_rows` collects one rule's blocks.  Each row draws from
a generator of its own, given its replication's state
(:func:`bestarm.rng.row_states`) once, before its first chunk.  Per chunk
of steps (64 doubling to 4096) each row that some rule of the group still
runs fills its chunk with one call of the layout's ``fill``, its arm-1
variates then its arm-2 variates; the rows are stacked into (rows, n)
arrays and finished once, and each rule scans its own active rows for
first crossings at once, with its own thresholds and running sums, and
drops the rows that stopped.  Rules of one layout draw the same variates
from one stream, so each reads exactly what it reads when run alone.  A
rule draws what its statistic reads: a rule that reads only paired
differences draws them on arm 1 and nothing on arm 2, and a static rule
draws one sum per arm.  Thresholds are computed once per chunk, block and
rule, and shared by all of the rule's rows.

The lockstep loop allocates no array of a sub-block's size: rows fill and
finish in place in the process's workspace (:func:`workspace`), and the
scans write their running sums and flags into it too.  A scan only reads
``x`` and ``y``, and the arrays it returns may live in the workspace until
the next scan call, so the engine reads them before it scans again.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .dists import Gaussian, _check_sums, sampler, sum_sampler
from .errors import DomainError
from .instances import BanditInstance
from .rng import row_states

#: Largest replication count, budget or tau_max a run takes: every integer
#: up to it is exact as a float (budget grids are floats) and in int64.
MAX_COUNT = 2**53
_CHUNK0 = 64
_CHUNK_MAX = 4096
#: Floats per arm in one sub-block's stacked (rows, draws) arrays.  It bounds
#: memory only: every row reads its own stream, so output never depends on it.
#: At 2**15 a 128-row block scans chunks of up to 256 steps in one call.
BLOCK_ELEMENTS = 2**15
_BLOCK_ROWS = 128
#: The generators rows of a block draw from, grown as blocks need them.
#: :func:`run_group` positions each one before its block's first draw, so none
#: carries state from one block to the next.
_ROW_GENERATORS: list[np.random.Generator] = []
#: The arrays :func:`workspace` hands out, one per (slot, dtype), grown on demand.
_WORKSPACE: dict[tuple, np.ndarray] = {}


def workspace(slot: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialised array of ``shape`` in the process's workspace slot ``slot``.

    Each slot holds one buffer, grown when a request outsizes it and never
    freed, so the lockstep loop does not allocate, free and fault in its
    sub-block temporaries over and over.  The array is valid until the
    slot's next request.  The engine's own slots are "fill" (a sub-block's
    variates), "x" and "y" (a rule's rows of them) and "rows" (filled_rows').
    """
    size = math.prod(shape)
    buf = _WORKSPACE.get((slot, dtype))
    if buf is None or buf.size < size:
        buf = _WORKSPACE[slot, dtype] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


@dataclass(frozen=True)
class RunOutcome:
    """One algorithm execution: total draws, recommendation and bookkeeping."""

    tau: int
    recommended: int
    correct: bool
    draws_per_arm: tuple[int, int]
    exhausted: bool


@functools.cache
def samplers(layout: tuple):
    """(fill, finish1, finish2) of a rule's ``layout``, built once per layout and process.

    ``fill(rng, out)`` writes a row's c1 arm-1 then c2 arm-2 variates of a
    chunk, and each finish maps its arm's to draws.  A "difference" step
    draws one X - Y on arm 1 and nothing on arm 2; "both" and "schedule"
    draw both arms from one standard law; "sums" draws one sum per arm.
    Raises DomainError where a draw, or a sum a scan keeps, can leave the doubles.
    """
    kind, arms, steps, *params = layout
    if kind == "sums":
        return sum_sampler(arms, params)
    a1, a2 = arms
    if kind == "difference":
        gap, var = a1.mean - a2.mean, a1.variance + a2.variance
        try:
            fill, finish = sampler(Gaussian(gap, var))
        except DomainError:
            raise DomainError(f"a paired difference X - Y ~ N(mu1 - mu2, var1 + var2) with "
                              f"mu1 - mu2 = {gap:g} and var1 + var2 = {var:g} can exceed "
                              "the largest double") from None
        return fill, finish, np.asarray
    (fill, finish1), (_, finish2) = sampler(a1), sampler(a2)
    if kind == "schedule":  # a scan sums every draw of an arm under the cap
        n1 = math.ceil(params[0] * steps)
        _check_sums(a1, n1)
        _check_sums(a2, steps - n1)
    return fill, finish1, finish2


class StoppingRule:
    """A strategy validated for one cell: what it draws, its thresholds and statistic.

    A rule runs at most ``steps`` steps, each paired (one draw per arm, t = 2k)
    unless ``draws`` says otherwise.  ``layout`` says what it draws, as the
    tuple ``(kind, arms, steps, *params)`` that :func:`samplers` reads;
    the constructor builds its samplers once, so a rule whose draws can
    leave the doubles is refused when it is built.  ``chunk(done, n)``
    gives the arm-1 and arm-2 variate counts of steps done+1..done+n, equal
    for equal layouts, and the data every row shares (thresholds);
    :meth:`scan` decides them.  A rule holds plain data only.
    """

    width = 1

    def __init__(self, instance: BanditInstance, steps: int, kind: str, *params):
        self.best_arm = instance.best_arm
        self.arms = instance.arms
        self.steps = steps
        self.layout = (kind, self.arms, steps, *params)
        samplers(self.layout)

    def chunk(self, done: int, n: int):
        return n, n, None

    def scan(self, shared, carry, x, y):
        """(hits, leads, carry) of steps done+1..done+n for a block of rows.

        ``x`` and ``y`` are the rows' finished arm-1 and arm-2 variates of
        the chunk and ``carry`` their ``width`` running sums before it.  Every
        rule of a group reads the same ``x`` and ``y``, so a scan must not
        write to them: the engine hands them over read-only.  A scan may
        keep its temporaries and the arrays it returns in :func:`workspace`
        slots other than the engine's ("fill", "x", "y" and "rows"); what it
        returns need stay valid only until the next scan call.
        ``hits`` and ``leads`` are (rows, n) flags: the rule stops here, and
        arm 0 is recommended here.  The engine reads only each row's first
        hit, the lead there, the lead in the last column and the returned
        carry (the running sums after the chunk); every other entry of
        ``hits`` and ``leads`` may be anything.
        """
        raise NotImplementedError

    def draws(self, steps: int) -> tuple[int, int]:
        """(tau, arm-1 draws) after ``steps`` steps."""
        return 2 * steps, steps


def run_rows(rule: StoppingRule, rng: np.random.Generator, rows: range):
    """Replications ``rows`` of ``rule`` as arrays (tau, recommended, n1, exhausted).

    Row r draws from the stream of ``rng``'s PCG64 bit generator jumped r
    times from its state on entry (:func:`bestarm.rng.row_states`), so no
    row's draws depend on which rows share its block.  ``rng``'s state only
    names the stream family: the rows draw from generators of their own,
    and ``rng`` is left as it was.  The arrays collect :func:`run_group`'s blocks.
    """
    out = [row for block in run_group([rule], rng, rows) for row in block[0]]
    tau, recommended, n1, exhausted = np.array(out, dtype=np.int64).reshape(-1, 4).T
    return tau, recommended, n1, exhausted.astype(bool)


def run_group(rules: list[StoppingRule], rng: np.random.Generator, rows: range):
    """Per block of ``rows``, in order, each rule's (tau, recommended, n1, exhausted) per row.

    ``rules`` must share one ``layout``.  Each row's generator is positioned
    once, and each chunk is filled and finished once for the rows that some
    rule still runs; every rule reads the variates it reads alone, so its
    rows equal ``run_rows(rule, rng, rows)``.  Nothing of a block is kept
    once it is yielded.
    """
    for rule in rules[1:]:
        if rule.layout != rules[0].layout:
            raise ValueError("the rules of a group must share one draw layout")
    group_samplers = samplers(rules[0].layout)
    states = row_states(rng.bit_generator.state, rows)
    while len(_ROW_GENERATORS) < min(len(rows), _BLOCK_ROWS):
        _ROW_GENERATORS.append(np.random.Generator(np.random.PCG64(0)))
    for lo in range(0, len(rows), _BLOCK_ROWS):
        gens = _ROW_GENERATORS[:min(_BLOCK_ROWS, len(rows) - lo)]
        for gen, state in zip(gens, states):
            gen.bit_generator.state = state
        yield _run_block(rules, gens, group_samplers)


def filled_rows(rng: np.random.Generator, reps: int, width: int, fill):
    """(lo, z) per block of replications 0..reps-1, in order; row i is replication lo+i.

    Each row holds a replication's first ``width`` variates: ``rng``'s bit
    generator is given the replication's state (:func:`bestarm.rng.row_states`)
    and ``fill(rng, row)`` writes them.  A block holds at most BLOCK_ELEMENTS
    floats, and one row at least; rows do not depend on it.  ``z`` is the
    workspace slot "rows", valid until the next iteration.
    """
    bit_generator = rng.bit_generator
    states = row_states(bit_generator.state, range(reps))
    per_block = max(1, BLOCK_ELEMENTS // width)
    for lo in range(0, reps, per_block):
        z = workspace("rows", (min(per_block, reps - lo), width))
        for row, state in zip(z, states):
            bit_generator.state = state
            fill(rng, row)
        yield lo, z


def _run_block(rules: list[StoppingRule], gens: list, samplers: tuple) -> list[list]:
    """(tau, recommended, n1, exhausted) per row of one lockstep block, per rule.

    The rules share one layout, and ``samplers`` are its :func:`samplers`.
    Row i draws from ``gens[i]`` in place, one fill call per chunk while
    some rule still runs it, every chunk in stream order, so no state is
    saved or restored between chunks.  A sub-block's
    finished arrays go to every rule with rows in it, read-only: a rule
    that runs all of the sub-block's rows reads them whole, any other the
    rows it runs.
    """
    fill, finish1, finish2 = samplers
    steps = rules[0].steps
    # per rule: a stopped row's outcome, and until then whether arm 0 leads (ties
    # and no draws: yes); the rows it still runs; their running sums, in that order
    results, actives, carries = [], [], []
    for rule in rules:
        results.append([True] * len(gens))
        actives.append(list(range(len(gens))))
        carries.append(np.zeros((len(gens), rule.width)))
    rows = actives[0]  # the rows some rule still runs, in order
    done, chunk = 0, _CHUNK0
    while done < steps:
        n = min(chunk, steps - done)
        scans = []  # per rule that runs rows: [k, shared, first position not scanned, kept]
        for k, active in enumerate(actives):
            if active:
                c1, c2, shared = rules[k].chunk(done, n)  # c1, c2: equal for one layout
                scans.append([k, shared, 0, []])
        step = max(1, BLOCK_ELEMENTS // max(c1, c2, 1))
        # each row's position in rows, for a rule that runs only some of a sub-block's
        where = {j: p for p, j in enumerate(rows)} if len(rules) > 1 else None
        for lo in range(0, len(rows), step):
            idx = rows[lo:lo + step]
            z = workspace("fill", (len(idx), c1 + c2))
            for i, j in enumerate(idx):
                fill(gens[j], z[i])
            x, y = finish1(z[:, :c1]), finish2(z[:, c1:])
            x.setflags(write=False)
            y.setflags(write=False)
            for scan in scans:
                k, shared, a, kept = scan
                active = actives[k]
                b = scan[2] = bisect_right(active, idx[-1], a)
                if b - a == len(idx):
                    ids, xs, ys = idx, x, y
                elif b > a:
                    ids = active[a:b]
                    pick = [where[j] - lo for j in ids]
                    # every index is in range; mode "raise" would buffer the output
                    xs = np.take(x, pick, axis=0, mode="clip",
                                 out=workspace("x", (len(ids), c1)))
                    ys = np.take(y, pick, axis=0, mode="clip",
                                 out=workspace("y", (len(ids), c2)))
                    xs.setflags(write=False)
                    ys.setflags(write=False)
                else:
                    continue
                rule, result = rules[k], results[k]
                hits, leads, carries[k][a:b] = rule.scan(shared, carries[k][a:b], xs, ys)
                for i, at in enumerate(hits.argmax(axis=1).tolist()):
                    if hits[i, at]:
                        tau, n1 = rule.draws(done + 1 + at)
                        result[ids[i]] = (tau, 0 if leads[i, at] else 1, n1, False)
                    else:
                        result[ids[i]] = leads[i, -1]
                        kept.append(a + i)
        done += n
        chunk = min(2 * chunk, _CHUNK_MAX)
        stopped = False
        for k, _, _, kept in scans:
            if len(kept) < len(actives[k]):
                actives[k] = [actives[k][i] for i in kept]
                if kept:
                    carries[k] = carries[k][kept]
                stopped = True
        if stopped:
            rows = actives[0] if len(rules) == 1 else sorted(set().union(*actives))
            if not rows:
                return results
    for rule, active, result in zip(rules, actives, results):
        tau, n1 = rule.draws(steps)
        for j in active:
            result[j] = (tau, 0 if result[j] else 1, n1, True)
    return results


def run_one(rule: StoppingRule, rng: np.random.Generator) -> RunOutcome:
    """One replication of ``rule``, drawing from ``rng`` in place."""
    (tau, rec, n1, exhausted), = _run_block([rule], [rng], samplers(rule.layout))[0]
    return RunOutcome(tau=tau, recommended=rec, correct=(rec == rule.best_arm),
                      draws_per_arm=(n1, tau - n1), exhausted=exhausted)
