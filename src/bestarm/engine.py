"""The stopping engine every strategy runs on.

A :class:`StoppingRule` is one strategy validated for one cell: it
supplies its per-chunk thresholds, its statistic and which windows of
steps cannot stop it, nothing else, and states what it draws and counts
in its ``layout``, which :func:`samplers` reads.
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
drops each row at its first hit, or at the cap, where it is exhausted,
writing its outcome once.  Rules of one layout draw the same variates
from one stream and keep the same sums, so each reads exactly what it
reads when run alone.  A rule draws what its statistic reads: a rule that
reads only paired differences draws them on arm 1 and nothing on arm 2,
and a static rule draws one sum per arm.  Thresholds are computed once per
chunk, block and rule, and shared by all of the rule's rows.

Bernoulli arm sums are exact integers, so on a "both" layout's chunks of
at least 1024 steps the engine first takes exact sums of 64-step windows,
which bound every step inside, and each rule says from them alone which
windows cannot stop it (:meth:`StoppingRule.safe`).  A rule scans only
the rows it runs that have a window it calls unsafe, from the first such
window of the sub-block, and a row no rule scans is not accumulated: its
carry, and its lead where it ends exhausted at the cap, come from the
window sums.  Records are the same bytes as a scan of every step.

The lockstep loop allocates no array of a sub-block's size: rows fill,
finish and accumulate in place in the process's workspace
(:func:`workspace`), and the scans write their flags into it too.  A scan
only reads the sums, and the flags it returns may live in the workspace
until the next scan call, so the engine reads them before it scans again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, compress
from typing import NamedTuple

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
#: Steps per window of the box test, and the shortest Bernoulli "both" chunk it
#: runs on (see :func:`_run_block`); shorter chunks are scanned whole.
_WINDOW = 64
_SKIP_MIN = 1024
_LN4 = 2.0 * math.log(2.0)
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
    rule's rows of those), "live1" and "live2" (the draws of the rows
    some rule scans, in a chunk the box test cuts) and "rows" (filled_rows').
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
    [rows, cols] of the sums: arrays of rows and a step of each, as the
    engine reads it, or every row and one step, as only
    ``fb_algos.tilted_error`` does.

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


class Box(NamedTuple):
    """Bounds on each window of a sub-block's rows, as (rows, windows) arrays (:func:`_box`).

    ``d_max`` bounds |S1 - S2| at every step of the window, and ``bracket``
    bounds the SGLRT statistic t I_*(S1/k, S2/k) there.
    """

    d_max: np.ndarray
    bracket: np.ndarray


class StoppingRule:
    """A strategy validated for one cell: what it draws, its thresholds and comparison.

    ``layout`` says what the rule draws and counts, as the tuple ``(kind,
    arms, steps, *params)`` whose :func:`samplers` the engine reads: the
    variates of a chunk, tau and the lead.  The constructor builds them
    once, so a rule whose draws can leave the doubles is refused when it is
    built.  ``chunk(done, n)`` gives the data every row shares over steps
    done+1..done+n (thresholds), :meth:`scan` decides them, and
    :meth:`safe` tells from bounds on a window's sums alone that none of
    its steps can stop the rule.  A rule holds plain data only.
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

    def safe(self, shared, box: Box):
        """(rows, windows) flags: no step of the window can be a hit of :meth:`scan`.

        The engine asks this on Bernoulli "both" chunks it cuts into
        windows, and does not scan a row's windows before the first one a
        rule calls unsafe.  ``shared`` is what :meth:`chunk` gave for the
        chunk, each per-step array reduced to its minimum over each window,
        and ``box`` bounds the rows' sums in each window.  A flag may say
        unsafe where no step stops (the row is then scanned), never safe
        where one does.  A rule that does not define it calls every window
        unsafe.
        """
        return np.zeros(box.d_max.shape, dtype=bool)


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
    rows in it, read-only.  Each rule keeps one flag per running row, "it
    still runs the row", and scans the rows it runs; it skips the sub-block
    where it runs none.  A row's outcome is written once, at its first hit
    or at the cap, where it is exhausted, and the rule's flag is cleared
    there.  After each chunk one mask, "some rule still runs the row",
    compresses the running rows, every rule's flags and the carry.

    A Bernoulli "both" chunk of at least ``_SKIP_MIN`` steps is first cut
    into ``_WINDOW``-step windows, whose exact sums bound every step inside
    (:func:`_box`), and each rule says from them alone which windows cannot
    stop it (:meth:`StoppingRule.safe`).  A rule then scans only the rows
    it runs that have a window it calls unsafe, from the first window of
    the sub-block it calls unsafe in any of them, and the sums are
    accumulated only for the rows some rule scans, from the first window
    any rule does.  The other rows need only their carry, the last window
    end sums; in the cap's chunk a rule ends each row it runs but does not
    scan there, exhausted, with the lead of those end sums.
    """
    fill, finish1, finish2, accumulate, counts, draws, leads_at = samplers
    steps = rules[0].steps
    if not steps:  # a cap with no step: every row is exhausted, and arm 0 leads (ties: yes)
        tau, n1 = draws(0)
        return [[(tau, 0, n1, True)] * len(gens) for _ in rules]
    results = [[None] * len(gens) for _ in rules]
    rows = list(range(len(gens)))  # the rows some rule still runs, in order
    runs = [[True] * len(rows) for _ in rules]  # per rule: it still runs rows[p]
    carry = np.zeros((len(rows), 2))  # their running sums, in that order
    ordinal = np.arange(len(rows))
    done, chunk = 0, _CHUNK0
    while rows:
        n = min(chunk, steps - done)
        last = done + n == steps
        c1, c2 = counts(done, n)
        shared = [rule.chunk(done, n) if any(run) else None for rule, run in zip(rules, runs)]
        starts = np.arange(0, n, _WINDOW) if accumulate is _arm_sums and n >= _SKIP_MIN else None
        if starts is not None:
            floors = [_window_floors(share, starts) for share in shared]
        step = max(1, BLOCK_ELEMENTS // max(c1, c2, 1))
        for lo in range(0, len(rows), step):
            idx = rows[lo:lo + step]
            z = workspace("fill", (len(idx), c1 + c2))
            for i, j in enumerate(idx):
                fill(gens[j], z[i])
            before = carry[lo:lo + len(idx)]
            x, y = finish1(z[:, :c1]), finish2(z[:, c1:])
            flags = [run[lo:lo + len(idx)] for run in runs]
            live, first, ends = range(len(idx)), 0, None
            if starts is None:  # every rule scans every row it runs, whole
                plans = [(live if all(f) else list(compress(live, f)), 0, ()) for f in flags]
            else:
                box, ends = _box(before, x, y, done, starts)
                plans = [_unsafe_rows(rule, floor, f, box) for rule, floor, f
                         in zip(rules, floors, flags)]
                scanned = set().union(*(pick for pick, _, _ in plans))
                if len(scanned) < len(idx):
                    live = sorted(scanned)
                first = min((window for pick, window, _ in plans if pick), default=0)
            if live:
                sums = _accumulate_from(accumulate, before, x, y, done, live, first, ends)
                for s in sums:
                    s.setflags(write=False)
            if not last:
                for column, s in zip(before.T, sums if ends is None else ends):
                    column[:] = s[:, -1]
            for rule, run, share, (pick, window, skipped), result in zip(rules, runs, shared,
                                                                         plans, results):
                # (i, column - off, lead) of each row pick[i] that ends here
                ended, crossed, off = (), [], 0
                if pick:
                    off = window * _WINDOW  # the scan's first column
                    cut = off - first * _WINDOW  # the columns of sums before it
                    if len(pick) == len(live):
                        picked = tuple(s[:, cut:] for s in sums) if cut else sums
                    else:
                        at_rows = pick if len(live) == len(idx) else np.searchsorted(live, pick)
                        # every index is in range; mode "raise" would buffer the output
                        picked = tuple(np.take(s[:, cut:], at_rows, axis=0, mode="clip",
                                               out=workspace(f"pick{i}", (len(pick),
                                                                          s.shape[1] - cut)))
                                       for i, s in enumerate(sums, 1))
                        for s in picked:
                            s.setflags(write=False)
                    hits = rule.scan(_per_step(lambda a: a[off:], share) if off else share,
                                     picked)
                    at = hits.argmax(axis=1)
                    hit = hits[ordinal[:len(pick)], at]
                    if not last:
                        stops = hit.nonzero()[0]
                        cols = at[stops]
                    else:  # the cap: a row that did not stop ends at its last step, exhausted
                        stops, cols = ordinal[:len(pick)], np.where(hit, at, n - 1 - off)
                    crossed = hit.tolist()
                    ended = zip(stops.tolist(), cols.tolist(),
                                leads_at(picked, stops, cols, done + off).tolist())
                if last and skipped:  # rows the rule runs, none of whose windows can stop it
                    at_end = np.full(len(skipped), ends[0].shape[1] - 1)
                    ended = chain(ended, zip(range(len(pick), len(pick) + len(skipped)),
                                             [n - 1 - off] * len(skipped),
                                             leads_at(ends, skipped, at_end, done).tolist()))
                    pick, crossed = [*pick, *skipped], crossed + [False] * len(skipped)
                for i, col, lead in ended:
                    p = lo + pick[i]
                    tau, n1 = draws(done + 1 + off + col)
                    result[rows[p]] = (tau, 0 if lead else 1, n1, not crossed[i])
                    run[p] = False
        done += n
        if last:  # every row has ended, at the cap at the latest
            break
        chunk = min(2 * chunk, _CHUNK_MAX)
        keep = list(map(any, zip(*runs)))
        if not all(keep):
            rows = list(compress(rows, keep))
            runs = [list(compress(run, keep)) for run in runs]
            carry = carry[keep]
    return results


def _per_step(f, shared):
    """``shared``, a rule's chunk data, with ``f`` applied to each of its per-step arrays.

    The data is an array, a constant, or a tuple of them.
    """
    if isinstance(shared, tuple):
        return tuple(f(s) if isinstance(s, np.ndarray) else s for s in shared)
    return f(shared) if isinstance(shared, np.ndarray) else shared


def _window_floors(shared, starts):
    """A rule's chunk data ``shared`` with each per-step array reduced to its minimum per window."""
    return _per_step(lambda a: np.minimum.reduceat(a, starts), shared)


def _box(before, x, y, done, starts):
    """(box, (e1, e2)) of the windows of a sub-block's finished 0/1 draws ``x``, ``y``.

    Window j holds steps done + starts[j] + 1 to the next window's start, or
    to the chunk's end; ``before`` are the rows' arm sums before the chunk.
    Every sum is an exact integer, so the end sums (e1, e2), (rows,
    windows) arrays, equal the running sums' values at the window ends bit
    for bit.  With start sums (S1a, S2a) after k_a steps and increments
    dS1, dS2, D = S1 - S2 at any step of the window lies in [D_a - dS2, D_a
    + dS1] (the bounds from the end sums, D_b - dS1 and D_b + dS2, are the
    same), and A = S1 + S2 >= A_a and B = 2k - A >= B_a, as both count
    draws.  Hence ``d_max`` bounds |D| in the window, and ``bracket`` bounds
    the SGLRT statistic t I_* there by the upper bracket of its screen
    (``fc_algos.SglrtRule``): k_b D_max^2 / (A_a B_a) (1 + (2 log 2 - 1)
    D_max^2 / min(A_a, B_a)^2), infinite where A_a B_a = 0 < D_max and 0
    where D_max = 0.
    """
    d1, d2 = np.add.reduceat(x, starts, axis=1), np.add.reduceat(y, starts, axis=1)
    e1, e2 = np.cumsum(d1, axis=1), np.cumsum(d2, axis=1)
    e1 += before[:, :1]
    e2 += before[:, 1:]
    a1, a2 = e1 - d1, e2 - d2
    gap = a1 - a2
    d_max = np.maximum(gap + d1, d2 - gap)
    a = a1 + a2
    b = np.subtract(2.0 * (done + starts), a, out=a2)
    dd = np.square(d_max)
    n2 = np.square(np.minimum(a, b, out=gap), out=gap)
    bound = np.multiply(dd, _LN4 - 1.0, out=a1)
    bound += n2
    bound *= dd
    bound *= done + np.minimum(starts + _WINDOW, x.shape[1])
    a *= b
    a *= n2
    with np.errstate(divide="ignore", invalid="ignore"):  # inf where A_a B_a = 0 < D_max
        bound /= a
    return Box(d_max, np.fmax(bound, 0.0, out=bound)), (e1, e2)  # 0 for 0/0, at D_max = 0


def _unsafe_rows(rule, floors, flags, box):
    """(rows, window, skipped) of ``rule`` in a sub-block cut into windows.

    ``rows`` are the rows it runs (``flags``) with a window it calls unsafe,
    ``window`` the first window it calls unsafe in any of them, and
    ``skipped`` the other rows it runs.
    """
    if not any(flags):
        return [], 0, []
    safe = rule.safe(floors, box)
    rows, skipped = [], []
    for p, runs, skips in zip(range(len(flags)), flags, safe.all(axis=1).tolist()):
        if runs:
            (skipped if skips else rows).append(p)
    return rows, int(safe[rows].all(axis=0).argmin()) if rows else 0, skipped


def _accumulate_from(accumulate, before, x, y, done, live, first, ends):
    """The layout's running sums of rows ``live`` of a sub-block, from window ``first`` on.

    ``live`` is every row (a range) or a sorted list of them; ``ends``, the
    window end sums of :func:`_box`, give the carry before window ``first``,
    and None means the chunk is accumulated whole, from ``before``.
    """
    if ends is None:
        return accumulate(before, x, y, done)
    cut = first * _WINDOW
    x, y = x[:, cut:], y[:, cut:]
    if first:
        before = np.column_stack([e[:, first - 1] for e in ends])
    if len(live) < len(before):
        before = before[live]
        x, y = (np.take(a, live, axis=0, mode="clip",
                        out=workspace(f"live{i}", (len(live), a.shape[1])))
                for i, a in enumerate((x, y), 1))
    return accumulate(before, x, y, done + cut)


def run_one(rule: StoppingRule, rng: np.random.Generator) -> RunOutcome:
    """One replication of ``rule``, drawing from ``rng`` in place."""
    (tau, rec, n1, exhausted), = _run_block([rule], [rng], samplers(rule.layout))[0]
    return RunOutcome(tau=tau, recommended=rec, correct=(rec == rule.best_arm),
                      draws_per_arm=(n1, tau - n1), exhausted=exhausted)
