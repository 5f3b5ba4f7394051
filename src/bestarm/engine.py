"""The stopping engine every strategy runs on.

A :class:`StoppingRule` is one strategy validated for one cell: it
supplies its per-chunk thresholds, its statistic and which windows of
steps cannot stop it, nothing else, and states what it draws and counts
in its ``layout``, which :func:`samplers` reads.  :func:`run_group`
advances the replications of rules that share one layout in lockstep
blocks and yields each block's outcomes, keeping none (the harness folds
each into exact sums, so memory is flat in the replication count);
:func:`run_rows` collects one rule's blocks.  Each row draws from a
generator of its own, given its replication's state
(:func:`bestarm.rng.row_states`) once, before its first chunk.  A rule
draws what its statistic reads: paired differences on arm 1 alone, or a
static rule's one sum per arm.  Rules of one layout draw the same
variates from one stream and keep the same running sums, from one carry
per row, so each reads exactly what it reads when run alone.

Per chunk of steps (64 doubling to 4096) and sub-block of rows, one plan
names the rows each rule scans and from which column, and one executor
accumulates their sums once, writes every row's carry, and has each rule
compare its rows' sums with its thresholds, computed once per chunk, for
first crossings (:func:`_run_block`).  A row ends at its first hit or,
once the cap's chunk is done, at the cap, exhausted, with the lead of its
carry.  Bernoulli arm sums are exact integers, so on a "both" layout's
long chunks exact 64-step window sums bound every step inside, and the
plan skips the windows no rule can stop in (:meth:`StoppingRule.safe`).
Records are the same bytes as a scan of every step.

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
from itertools import compress
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
_SKIP_MIN = 2048
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
    slot's next request.  The engine's own slots, which no rule may use, are
    "fill" (a sub-block's variates), "live1" and "live2" (the draws of the
    rows some rule scans, where not every row is), "sum1" and "sum2" (their
    running sums), "pick1" and "pick2" (a rule's rows of those, where it
    does not scan them all) and "rows" (:func:`filled_rows`').
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
        other than the engine's own, which that function lists; the flags
        need stay valid only until the next scan call.  The engine reads
        only each row's first hit; every flag after it may be anything.
        """
        raise NotImplementedError

    def safe(self, shared, box: Box):
        """(rows, windows) flags: no step of the window can be a hit of :meth:`scan`.

        The engine's plan asks this on Bernoulli "both" chunks it cuts into
        windows, and scans a row the rule runs only from the first window of
        the sub-block it calls unsafe, and not at all where it calls every
        window safe.  ``shared`` is what :meth:`chunk` gave for the chunk,
        each per-step array reduced to its minimum over each window, and
        ``box`` bounds the rows' sums in each window.  A flag may say unsafe
        where no step stops (the row is then scanned), never safe where one
        does.  A rule that does not define it calls every window unsafe.
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
    saved or restored between chunks.  Each rule keeps one flag per running
    row, "it still runs the row".  Per sub-block the executor accumulates,
    once and from the carry, the sums of the rows :func:`_plan` names, writes
    every row's carry, and hands each rule the sums of the rows it scans,
    read-only; the rule ends a row at its first hit, writes its outcome once
    and clears its flag.  After each chunk one mask, "some rule still runs
    the row", compresses the rows, the flags and the carry.  Once the cap's
    chunk is done, every row a rule still runs ends at the cap, exhausted,
    with the lead of its carry.  A Bernoulli "both" chunk of ``_SKIP_MIN``
    steps or more by the schedule is cut into ``_WINDOW``-step windows for
    the plan (:func:`_box`), and a row's carry is its last window end sums.
    """
    fill, finish1, finish2, accumulate, counts, draws, leads_at = samplers
    steps = rules[0].steps
    results = [[None] * len(gens) for _ in rules]
    rows = list(range(len(gens)))  # the rows some rule still runs, in order
    runs = [[True] * len(rows) for _ in rules]  # per rule: it still runs rows[p]
    carry = np.zeros((len(rows), 2))  # their running sums, in that order
    ordinal = np.arange(len(rows))
    done, chunk = 0, _CHUNK0
    while rows and done < steps:
        n = min(chunk, steps - done)
        c1, c2 = counts(done, n)
        shared = [rule.chunk(done, n) if any(run) else None for rule, run in zip(rules, runs)]
        floors = None
        if accumulate is _arm_sums and chunk >= _SKIP_MIN:
            starts = np.arange(0, n, _WINDOW)
            floors = [_window_floors(share, starts) for share in shared]
        step = max(1, BLOCK_ELEMENTS // max(c1, c2, 1))
        for lo in range(0, len(rows), step):
            idx = rows[lo:lo + step]
            z = workspace("fill", (len(idx), c1 + c2))
            for i, j in enumerate(idx):
                fill(gens[j], z[i])
            before = carry[lo:lo + len(idx)]
            x, y = finish1(z[:, :c1]), finish2(z[:, c1:])
            box, ends = _box(before, x, y, done, starts) if floors else (None, None)
            live, first, plan = _plan(rules, floors, [run[lo:lo + len(idx)] for run in runs], box)
            if live:  # from the carry, or from the end sums of the window before column first
                start = ends[:, :, first // _WINDOW - 1].T if first else before
                sums = accumulate(start if len(live) == len(idx) else start[live],
                                  _take(x, live, first, "live1"), _take(y, live, first, "live2"),
                                  done + first)
                for s in sums:
                    s.setflags(write=False)
            for column, s in zip(before.T, sums if ends is None else ends):
                column[:] = s[:, -1]
            for rule, run, share, (pick, off), result in zip(rules, runs, shared, plan, results):
                if not pick:
                    continue
                picked = sums if len(pick) == len(live) and off == first else tuple(
                    _take(s, pick, off - first, f"pick{i}") for i, s in enumerate(sums, 1))
                hits = rule.scan(_per_step(lambda a: a[off:], share) if off else share, picked)
                at = hits.argmax(axis=1)
                stops = hits[ordinal[:len(pick)], at].nonzero()[0]
                cols = at[stops]
                for i, col, lead in zip(stops.tolist(), cols.tolist(),
                                        leads_at(picked, stops, cols, done + off).tolist()):
                    p = lo + live[pick[i]]
                    tau, n1 = draws(done + 1 + off + col)
                    result[rows[p]] = (tau, 0 if lead else 1, n1, False)
                    run[p] = False
        done += n
        if done == steps:  # the cap: the rows the rules still run end below
            break
        chunk = min(2 * chunk, _CHUNK_MAX)
        keep = list(map(any, zip(*runs)))
        if not all(keep):
            rows = list(compress(rows, keep))
            runs = [list(compress(run, keep)) for run in runs]
            carry = carry[keep]
    tau, n1 = draws(steps)
    for run, result in zip(runs, results):
        if not any(run):
            continue
        left = list(compress(range(len(rows)), run))
        # a layout that keeps one sum leaves the carry's second column 0: its lead is S >= 0
        leads = leads_at((carry[:, :1], carry[:, 1:]), left, [0] * len(left), done - 1)
        for p, lead in zip(left, leads.tolist()):
            result[rows[p]] = (tau, 0 if lead else 1, n1, True)
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
    """(box, ends) of the windows of a sub-block's finished 0/1 draws ``x``, ``y``.

    Window j holds steps done + starts[j] + 1 to the next window's start, or
    to the chunk's end; ``before`` are the rows' arm sums before the chunk.
    Every sum is an exact integer, so the end sums (e1, e2) = ``ends``, a
    (2, rows, windows) array, equal the running sums' values at the window
    ends bit for bit.  With start sums (S1a, S2a) after k_a steps and
    increments dS1, dS2, D = S1 - S2 at any step of the window lies in [D_a
    - dS2, D_a + dS1] (the bounds from the end sums, D_b - dS1 and D_b +
    dS2, are the same), and A = S1 + S2 >= A_a and B = 2k - A >= B_a, as
    both count draws.  Hence ``d_max`` bounds |D| in the window, and
    ``bracket`` bounds the SGLRT statistic t I_* there by the upper bracket
    of its screen (``fc_algos.SglrtRule``): k_b D_max^2 / (A_a B_a) (1 +
    (2 log 2 - 1) D_max^2 / min(A_a, B_a)^2), infinite where A_a B_a = 0 <
    D_max and 0 where D_max = 0.
    """
    d1, d2 = np.add.reduceat(x, starts, axis=1), np.add.reduceat(y, starts, axis=1)
    ends = np.cumsum((d1, d2), axis=2)
    ends += before.T[:, :, None]
    e1, e2 = ends
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
    return Box(d_max, np.fmax(bound, 0.0, out=bound)), ends  # 0 for 0/0, at D_max = 0


def _plan(rules, floors, flags, box):
    """(live, first, [(pick, off)] per rule) of a sub-block whose rows the rules run as ``flags``.

    The sums of rows ``live`` of the sub-block are accumulated from column
    ``first``, and each rule scans those at positions ``pick`` of ``live``
    from column ``off``.  Without a ``box`` every rule scans every row it
    runs from column 0.  With one, a rule scans only the rows it runs that
    have a window it calls unsafe (:meth:`StoppingRule.safe`, given
    ``floors``), from the first window of the sub-block it calls unsafe in
    any of them, and ``live`` are the rows some rule scans, from the first
    column any does.
    """
    live = list(range(len(flags[0])))
    if box is None:
        return live, 0, [(live if all(f) else list(compress(live, f)), 0) for f in flags]
    scans = []  # per rule: (row, its first unsafe window) of each row it scans
    for rule, floor, f in zip(rules, floors, flags):
        safe = rule.safe(floor, box) if any(f) else np.ones((len(f), 1), dtype=bool)
        rows = zip(live, f, safe.all(axis=1).tolist(), safe.argmin(axis=1).tolist())
        scans.append([(p, w) for p, runs, skips, w in rows if runs and not skips])
    offs = [min((w for _, w in scan), default=0) * _WINDOW for scan in scans]
    first = min((off for off, scan in zip(offs, scans) if scan), default=0)
    live = sorted({p for scan in scans for p, _ in scan})
    at = dict(zip(live, range(len(live))))
    return live, first, [([at[p] for p, _ in scan], off) for scan, off in zip(scans, offs)]


def _take(a, rows, cut, slot):
    """Rows ``rows`` of ``a`` from column ``cut``.

    A view where they are all of ``a``'s rows, else a read-only copy in workspace slot ``slot``.
    """
    if len(rows) == len(a):
        return a[:, cut:] if cut else a
    # every index is in range; mode "raise" would buffer the output
    out = np.take(a[:, cut:], rows, axis=0, mode="clip",
                  out=workspace(slot, (len(rows), a.shape[1] - cut)))
    out.setflags(write=False)
    return out


def run_one(rule: StoppingRule, rng: np.random.Generator) -> RunOutcome:
    """One replication of ``rule``, drawing from ``rng`` in place."""
    (tau, rec, n1, exhausted), = _run_block([rule], [rng], samplers(rule.layout))[0]
    return RunOutcome(tau=tau, recommended=rec, correct=(rec == rule.best_arm),
                      draws_per_arm=(n1, tau - n1), exhausted=exhausted)
