"""The stopping engine every strategy runs on.

A :class:`StoppingRule` is one strategy validated for one cell: it
supplies its per-chunk thresholds and its statistic, nothing else, and
states what it draws and counts in its ``layout``, which :func:`samplers` reads.
:func:`run_group` advances the replications of rules that share one layout
in lockstep blocks and yields each block's outcomes, keeping none (the
harness folds each into exact sums, so memory is flat in the replication
count); :func:`run_rows` collects one rule's blocks.  Each row draws from
a generator of its own, given its replication's state
(:func:`bestarm.rng.row_states`) once, before its first chunk.  Per chunk
of steps (64 doubling to 4096) each row that some rule of the group still
runs fills its chunk with one call of the layout's ``fill``, its arm-1
variates then its arm-2 variates; the rows are stacked into (rows, n)
arrays, finished once, and turned once into the running sums the layout
keeps (its ``accumulate``), from one carry per row for the whole group:
the sums after the chunks before.  Each rule then compares its own active
rows' sums with its own thresholds at once, for first crossings, and
drops the rows that stopped.  Rules of one layout draw the same variates
from one stream and keep the same sums, so each reads exactly what it
reads when run alone.  A rule draws what its statistic reads: a rule that
reads only paired differences draws them on arm 1 and nothing on arm 2,
and a static rule draws one sum per arm.  Thresholds are computed once per
chunk, block and rule, and shared by all of the rule's rows.

The lockstep loop allocates no array of a sub-block's size: rows fill,
finish and accumulate in place in the process's workspace
(:func:`workspace`), and the scans write their flags into it too.  A scan
only reads the sums, and the flags it returns may live in the workspace
until the next scan call, so the engine reads them before it scans again.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .dists import Bernoulli, Gaussian, _check_sums, sampler, sum_sampler
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
    variates), "sum1" and "sum2" (their running sums), "pick1" and "pick2" (a
    rule's rows of those) and "rows" (filled_rows').
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
    """(fill, finish1, finish2, accumulate, counts, draws, leads) of ``layout``, built once.

    ``counts(done, n)`` gives a row's c1 arm-1 and c2 arm-2 variates of
    steps done+1..done+n, which ``fill(rng, out)`` writes, and each finish
    maps its arm's to draws.  ``accumulate(carry, x, y, done)`` gives, from
    a sub-block's finished draws x and y and the rows' running sums before
    them (``carry``, two columns, of which a layout that keeps one sum reads
    the first), the tuple of (rows, n) running sums the layout keeps.
    ``draws(k)`` gives (tau, arm-1 draws) after k steps, and ``leads(sums,
    rows, cols, done)`` whether arm 0 leads (ties: yes) at the entries
    [rows, cols] of the sums: arrays of rows and a step of each, or every
    row and one step.

    * "difference" draws one X - Y per step on arm 1 and nothing on arm 2,
      keeps S = carry + cumsum(x) and leads where S >= 0;
    * "both" draws both arms per step.  On Bernoulli arms it keeps the arm
      sums (S1, S2), exact integers, so S1 - S2 is the running difference
      bit for bit, and leads where S1 >= S2; on other arms S1 - S2 would
      round apart from it, so it keeps the running difference of the draws
      instead.  Both paired kinds take tau = 2k, k of them on arm 1;
    * "schedule" draws arm 1 at the steps that raise N1(t) = ceil(alpha t),
      arm 2 at the others, keeps (S1, S2) at every step, an arm's sum
      unchanged at a step that draws the other, and leads where S1/N1 >=
      S2/N2, each count at least 1;
    * "sums" draws one sum per arm of its allocation (n1, n2) and keeps the
      draws: it has one step, no carry and nothing to add.  It leads where
      S1/n1 >= S2/n2.

    Each running sum's last column is the carry of the next chunk.  Raises
    DomainError where a draw, or a sum the engine keeps, can leave the doubles.
    """
    kind, arms, steps, *params = layout
    if kind == "sums":
        n1, n2 = params
        return (*sum_sampler(arms, params), _drawn_sums, lambda done, n: (1, 1),
                lambda k: (n1 + n2, n1), functools.partial(_mean_leads, n1, n2))
    a1, a2 = arms
    if kind == "difference":
        gap, var = a1.mean - a2.mean, a1.variance + a2.variance
        try:
            difference = Gaussian(gap, var)
            fill, finish = sampler(difference)
            _check_sums(difference, steps)
        except DomainError:
            raise DomainError(f"a paired difference X - Y ~ N(mu1 - mu2, var1 + var2) with "
                              f"mu1 - mu2 = {gap:g} and var1 + var2 = {var:g}, or a sum of "
                              f"{steps} of them, can exceed the largest double") from None
        return (fill, finish, np.asarray, _difference, lambda done, n: (n, 0),
                lambda k: (2 * k, k), _sum_leads)
    (fill, finish1), (_, finish2) = sampler(a1), sampler(a2)
    if kind == "both":
        accumulate = _arm_sums if isinstance(a1, Bernoulli) else _drawn_difference
        return (fill, finish1, finish2, accumulate, lambda done, n: (n, n),
                lambda k: (2 * k, k), _sum_leads)
    alpha = params[0]
    n1 = math.ceil(alpha * steps)  # "schedule": the engine sums every draw under the cap
    _check_sums(a1, n1)
    _check_sums(a2, steps - n1)

    def counts(done, n):
        c1 = math.ceil(alpha * (done + n)) - math.ceil(alpha * done)
        return c1, n - c1
    return (fill, finish1, finish2, functools.partial(_scheduled_sums, alpha), counts,
            lambda k: (k, math.ceil(alpha * k)), functools.partial(_scheduled_leads, alpha))


def arm1_counts(alpha: float, done: int, n: int) -> np.ndarray:
    """N1(t) = ceil(alpha t) at t = done, ..., done+n: arm 1's draws of a "schedule" layout."""
    return np.ceil(alpha * np.arange(done, done + n + 1)).astype(np.int64)


def _difference(carry, x, y, done):
    s = np.cumsum(x, axis=1, out=workspace("sum1", x.shape))
    s += carry[:, :1]
    return s,


def _drawn_difference(carry, x, y, done):
    return _difference(carry, np.subtract(x, y, out=workspace("sum1", x.shape)), None, done)


def _arm_sums(carry, x, y, done):
    s1 = np.cumsum(x, axis=1, out=workspace("sum1", x.shape))
    s1 += carry[:, :1]
    s2 = np.cumsum(y, axis=1, out=workspace("sum2", y.shape))
    s2 += carry[:, 1:]
    return s1, s2


def _scheduled_sums(alpha, carry, x, y, done):
    n1 = arm1_counts(alpha, done, x.shape[1] + y.shape[1])
    takes_arm1 = n1[1:] != n1[:-1]
    sums = []
    for slot, draws, takes, before in (("sum1", x, takes_arm1, carry[:, :1]),
                                       ("sum2", y, ~takes_arm1, carry[:, 1:])):
        s = workspace(slot, (len(carry), takes.size))
        s[:, ~takes] = 0.0
        s[:, takes] = draws
        np.cumsum(s, axis=1, out=s)
        s += before
        sums.append(s)
    return tuple(sums)


def _drawn_sums(carry, x, y, done):
    return x, y


def _sum_leads(sums, rows, cols, done):
    if len(sums) == 1:
        return sums[0][rows, cols] >= 0.0
    return sums[0][rows, cols] >= sums[1][rows, cols]


def _mean_leads(n1, n2, sums, rows, cols, done=0):
    return sums[0][rows, cols] / n1 >= sums[1][rows, cols] / n2


def _scheduled_leads(alpha, sums, rows, cols, done):
    t = done + 1 + np.asarray(cols)
    n1 = np.ceil(alpha * t).astype(np.int64)
    return _mean_leads(np.maximum(n1, 1), np.maximum(t - n1, 1), sums, rows, cols)


class StoppingRule:
    """A strategy validated for one cell: what it draws, its thresholds and comparison.

    ``layout`` says what the rule draws and counts, as the tuple ``(kind,
    arms, steps, *params)`` whose :func:`samplers` the engine reads: the
    variates of a chunk, tau and the lead.  The constructor builds them
    once, so a rule whose draws can leave the doubles is refused when it is
    built.  ``chunk(done, n)`` gives the data every row shares over steps
    done+1..done+n (thresholds), and :meth:`scan` decides them.  A rule
    holds plain data only.
    """

    def __init__(self, instance: BanditInstance, steps: int, kind: str, *params):
        self.best_arm = instance.best_arm
        self.arms = instance.arms
        self.steps = steps
        self.layout = (kind, self.arms, steps, *params)
        samplers(self.layout)

    def chunk(self, done: int, n: int):
        return None

    def scan(self, shared, sums):
        """(rows, n) flags of steps done+1..done+n for a block of rows: the rule stops here.

        ``sums`` are the rows' running sums after each step, as the layout
        keeps them (:func:`samplers`), from the engine's one carry per row.
        Every rule of a group reads the same sums, so a scan must not write
        to them: the engine hands them over read-only.  A scan may keep its
        temporaries and the flags it returns in :func:`workspace` slots
        other than the engine's ("fill", "sum1", "sum2", "pick1", "pick2"
        and "rows"); the flags need stay valid only until the next scan
        call.  The engine reads only each row's first hit; every flag after
        it may be anything.
        """
        raise NotImplementedError


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
    saved or restored between chunks.  A sub-block's running sums are
    accumulated once, from one carry per row, and go to every rule with
    rows in it, read-only: a rule that runs all of the sub-block's rows
    reads them whole, any other the rows it runs.
    """
    fill, finish1, finish2, accumulate, counts, draws, leads_at = samplers
    steps = rules[0].steps
    # per rule: a stopped row's outcome, and until then whether arm 0 leads (ties
    # and no draws: yes); the rows it still runs, in order
    results = [[True] * len(gens) for _ in rules]
    actives = [list(range(len(gens))) for _ in rules]
    rows = actives[0]  # the rows some rule still runs, in order
    carry = np.zeros((len(rows), 2))  # their running sums, in that order
    ordinal = np.arange(len(rows))
    done, chunk = 0, _CHUNK0
    while done < steps:
        n = min(chunk, steps - done)
        c1, c2 = counts(done, n)
        # per rule that runs rows: [k, shared, first position not scanned, kept]
        scans = [[k, rules[k].chunk(done, n), 0, []] for k, active in enumerate(actives) if active]
        step = max(1, BLOCK_ELEMENTS // max(c1, c2, 1))
        # each row's position in rows, for a rule that runs only some of a sub-block's
        where = {j: p for p, j in enumerate(rows)} if len(rules) > 1 else None
        for lo in range(0, len(rows), step):
            idx = rows[lo:lo + step]
            z = workspace("fill", (len(idx), c1 + c2))
            for i, j in enumerate(idx):
                fill(gens[j], z[i])
            before = carry[lo:lo + len(idx)]
            sums = accumulate(before, finish1(z[:, :c1]), finish2(z[:, c1:]), done)
            if done + n < steps:
                for column, s in zip(before.T, sums):
                    column[:] = s[:, -1]
            for s in sums:
                s.setflags(write=False)
            for scan in scans:
                k, shared, a, kept = scan
                active = actives[k]
                b = scan[2] = bisect_right(active, idx[-1], a)
                if b - a == len(idx):
                    ids, picked = idx, sums
                elif b > a:
                    ids = active[a:b]
                    pick = [where[j] - lo for j in ids]
                    # every index is in range; mode "raise" would buffer the output
                    picked = tuple(np.take(s, pick, axis=0, mode="clip",
                                           out=workspace(f"pick{i}", (len(ids), s.shape[1])))
                                   for i, s in enumerate(sums, 1))
                    for s in picked:
                        s.setflags(write=False)
                else:
                    continue
                result = results[k]
                hits = rules[k].scan(shared, picked)
                at = hits.argmax(axis=1)
                hit = hits[ordinal[:len(ids)], at]
                # whether arm 0 leads at the chunk's last step, and at each row's first hit
                leads = leads_at(picked, slice(None), n - 1, done)
                if n > 1 and hit.any():
                    early = (hit & (at < n - 1)).nonzero()[0]
                    leads[early] = leads_at(picked, early, at[early], done)
                for i, (stops, col, lead) in enumerate(zip(hit.tolist(), at.tolist(),
                                                           leads.tolist())):
                    if stops:
                        tau, n1 = draws(done + 1 + col)
                        result[ids[i]] = (tau, 0 if lead else 1, n1, False)
                    else:
                        result[ids[i]] = lead
                        kept.append(a + i)
        done += n
        chunk = min(2 * chunk, _CHUNK_MAX)
        stopped = False
        for k, _, _, kept in scans:
            if len(kept) < len(actives[k]):
                actives[k] = [actives[k][i] for i in kept]
                stopped = True
        if stopped:
            previous = rows
            rows = actives[0] if len(rules) == 1 else sorted(set().union(*actives))
            if not rows:
                return results
            carry = carry[np.searchsorted(previous, rows)]
    tau, n1 = draws(steps)
    for active, result in zip(actives, results):
        for j in active:
            result[j] = (tau, 0 if result[j] else 1, n1, True)
    return results


def run_one(rule: StoppingRule, rng: np.random.Generator) -> RunOutcome:
    """One replication of ``rule``, drawing from ``rng`` in place."""
    (tau, rec, n1, exhausted), = _run_block([rule], [rng], samplers(rule.layout))[0]
    return RunOutcome(tau=tau, recommended=rec, correct=(rec == rule.best_arm),
                      draws_per_arm=(n1, tau - n1), exhausted=exhausted)
