"""The stopping engine every strategy runs on.

A :class:`StoppingRule` is one strategy validated for one cell: it
supplies its per-chunk thresholds, its statistic and its window test,
nothing else, and states what it draws and counts in its ``layout``,
which :func:`samplers` reads.  :func:`run_group`
advances the replications of rules that share one layout in lockstep
blocks and yields each block's outcomes, keeping none (the harness folds
each into exact sums, so memory is flat in the replication count);
:func:`run_rows` collects one rule's blocks.  Each row draws from a
generator of its own, given its replication's state
(:func:`bestarm.rng.row_states`) once, before its first chunk.  A rule
draws what its statistic reads: paired differences on arm 1 alone, or a
static rule's one sum per arm.  Rules of one layout draw the same
variates from one stream and keep the same running sums, from one carry
per row, so each reads exactly what it reads when run alone, whatever
its cap: a layout holds no cap, and every chunk is drawn whole.

Per chunk of steps (64 doubling to 4096) and sub-block of rows, one plan
names the rows each rule scans and from which column, and one executor
accumulates their sums once, up to the largest cap of the rules still
running, writes every row's carry, and has each rule compare its rows'
sums with its thresholds, computed once per chunk, for first crossings
up to its own cap (:func:`_run_block`).  A row ends at its first hit or
at the rule's cap, exhausted, with the lead there.  The engine knows
draws, running sums and bounds on sums; the rules know thresholds and
statistics.  Bernoulli arm sums are exact integers, so on a "both"
layout's long chunks exact 64-step window sums bound the sums at every
step inside (:class:`Box`), and the plan skips the windows every rule's
window test calls safe (:meth:`StoppingRule.safe`).  Records are the
same bytes as a scan of every step.

The lockstep loop allocates no array of a sub-block's size: rows fill,
finish and accumulate in place in the process's workspace
(:func:`workspace`), and the scans and window tests write their flags
into it too, valid until the next scan or test call, so the engine reads
them before it makes another.
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
#: Most cells a range grid holds; a grid past it is refused before it is built.
MAX_GRID_CELLS = 10**4
_CHUNK0 = 64
_CHUNK_MAX = 4096
#: Steps per window of the box test, and the shortest Bernoulli "both" chunk it
#: runs on (see :func:`_run_block`); shorter chunks are scanned whole.
_WINDOW = 64
_SKIP_MIN = 2048
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
    does not scan them all) and "rows" (:func:`filled_rows`').  A window
    test's flags may sit in its rule's scan slots until the next scan or
    test call; :func:`_plan` reads them before it makes that call.
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
    DomainError where a draw can leave the doubles; a sum the engine keeps
    is checked by the rule, at its cap (:func:`check_sums`).
    """
    kind, arms, *params = layout
    if kind == "sums":
        n1, n2 = params
        return (*sum_sampler(arms, params), _drawn_sums, lambda done, n: (1, 1),
                lambda k: (n1 + n2, n1), functools.partial(_mean_leads, n1, n2))
    a1, a2 = arms
    if kind == "difference":
        fill, finish = sampler(Gaussian(a1.mean - a2.mean, a1.variance + a2.variance))
        return (fill, finish, np.asarray, _difference, lambda done, n: (n, 0),
                lambda k: (2 * k, k), _sum_leads)
    (fill, finish1), (_, finish2) = sampler(a1), sampler(a2)
    if kind == "both":
        accumulate = _arm_sums if isinstance(a1, Bernoulli) else _drawn_difference
        return (fill, finish1, finish2, accumulate, lambda done, n: (n, n),
                lambda k: (2 * k, k), _sum_leads)
    alpha = params[0]

    def counts(done, n):
        c1 = math.ceil(alpha * (done + n)) - math.ceil(alpha * done)
        return c1, n - c1
    return (fill, finish1, finish2, functools.partial(_scheduled_sums, alpha), counts,
            lambda k: (k, math.ceil(alpha * k)), functools.partial(_scheduled_leads, alpha))


def check_sums(layout: tuple, steps: int) -> None:
    """DomainError where a draw of ``layout``, or a sum over ``steps`` steps, can leave the doubles.

    A rule calls it at its own cap when it is built, before :func:`samplers`:
    the engine sums no draw past the largest cap of the rules that still
    run a row.  Bernoulli sums are counts, and a static rule's sums are its
    draws, which :func:`samplers` checks.
    """
    kind, arms, *params = layout
    if kind == "difference":
        a1, a2 = arms
        gap, var = a1.mean - a2.mean, a1.variance + a2.variance
        try:
            difference = Gaussian(gap, var)
            _check_sums(difference, 1)
            _check_sums(difference, steps)
        except DomainError:
            raise DomainError(f"a paired difference X - Y ~ N(mu1 - mu2, var1 + var2) with "
                              f"mu1 - mu2 = {gap:g} and var1 + var2 = {var:g}, or a sum of "
                              f"{steps} of them, can exceed the largest double") from None
    elif kind == "schedule":
        n1 = math.ceil(params[0] * steps)
        for arm, n in zip(arms * 2, (1, 1, n1, steps - n1)):  # each draw, then each sum
            _check_sums(arm, n)


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
    """Bounds on a sub-block's arm sums per window, (rows, windows) arrays (:func:`_box`).

    At each step of window j, after k <= ``k[j]`` paired steps, |S1 - S2|
    <= ``d_max``, S1 + S2 >= ``a`` and 2k - S1 - S2 >= ``b``.
    """

    d_max: np.ndarray
    a: np.ndarray
    b: np.ndarray
    k: np.ndarray


class StoppingRule:
    """A strategy validated for one cell: what it draws, its thresholds and comparison.

    ``layout`` says what the rule draws and counts, as the tuple ``(kind,
    arms, *params)`` whose :func:`samplers` the engine reads: the variates
    of a chunk, tau and the lead.  It holds no cap: rules of one layout
    draw alike whatever their caps, and ``steps`` is the rule's own.  The
    constructor checks the sums up to that cap (:func:`check_sums`) and
    builds the samplers once, so a rule whose draws or sums can leave the
    doubles is refused when it is built.  ``chunk(done, n)`` gives the data
    every row shares over steps done+1..done+n (thresholds), :meth:`scan`
    decides them, and :meth:`safe` gives a test that a window's bounds on
    sums allow no stop.  A rule holds plain data only.
    """

    def __init__(self, instance: BanditInstance, steps: int, kind: str, *params):
        self.best_arm = instance.best_arm
        self.arms = instance.arms
        self.steps = steps
        self.layout = (kind, self.arms, *params)
        check_sums(self.layout, steps)
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
        need stay valid only until the next scan or test.  The engine reads
        only each row's first hit; every flag after it may be anything.
        """
        raise NotImplementedError

    def safe(self, shared, starts):
        """The window test of a chunk windowed at columns ``starts``: a :class:`Box` to flags.

        ``shared`` is what :meth:`chunk` gave for the chunk.  The engine asks
        once per windowed Bernoulli "both" chunk and applies the test to each
        sub-block's box.  A (rows, windows) flag says that no step of the
        window can be a hit of :meth:`scan`: it may say unsafe where no step
        stops, never safe where one does.  The plan scans a row the rule runs
        only from the first window of the sub-block called unsafe, and not at
        all where every window is safe.  The flags may live in the rule's
        workspace slots until its next scan or test call; the plan reads them
        first.  A rule that does not define this calls every window unsafe.
        """
        return lambda box: np.zeros(box.d_max.shape, dtype=bool)


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

    ``rules`` must share one ``layout``; their caps may differ.  Each row's
    generator is positioned once, and each chunk is filled and finished
    once for the rows that some rule still runs; every rule reads the
    variates it reads alone, up to its own cap, so its rows equal
    ``run_rows(rule, rng, rows)``.  Nothing of a block is kept once it is
    yielded.
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

    The rules share one layout, and ``samplers`` are its :func:`samplers`;
    each has its own cap.  Row i draws from ``gens[i]`` in place, one fill
    call per chunk while some rule still runs it, every chunk in stream
    order and whole, never cut at a cap, so a row's draws do not depend on
    which caps share its group and no state is saved or restored between
    chunks.  Each rule keeps one flag per running row, "it still runs the
    row".  A chunk's sums are accumulated only up to the largest cap of the
    rules still running, and each rule reads them up to its own.  Per
    sub-block the executor accumulates, once and from the carry, the sums
    of the rows :func:`_plan` names, writes every row's carry, and hands
    each rule the sums of the rows it scans, read-only; the rule ends a row
    at its first hit, writes its outcome once and clears its flag.  A rule
    whose cap falls inside the chunk ends every row it still runs there,
    exhausted, with the lead at its cap column; one whose cap is the
    chunk's last step ends them before the next chunk, with the lead of
    the carry.  Before each chunk one mask, "some rule still runs the row",
    compresses the rows, the flags and the carry.  A Bernoulli "both" chunk
    of ``_SKIP_MIN`` steps or more by the schedule is cut into
    ``_WINDOW``-step windows (:func:`_box`), each running rule's window
    test is taken once for it, over its windows up to its cap, the window
    that holds a cap inside the chunk called unsafe, and a row's carry is
    its last window end sums.
    """
    fill, finish1, finish2, accumulate, counts, draws, leads_at = samplers
    results = [[None] * len(gens) for _ in rules]
    rows = list(range(len(gens)))  # the rows some rule still runs, in order
    runs = [[True] * len(rows) for _ in rules]  # per rule: it still runs rows[p]
    carry = np.zeros((len(rows), 2))  # their running sums, in that order
    ordinal = np.arange(len(rows))
    done, chunk = 0, _CHUNK0
    while True:
        for rule, run, result in zip(rules, runs, results):
            if rule.steps <= done and any(run):  # the cap, on a chunk's last step or at 0
                left = list(compress(range(len(rows)), run))
                # a layout that keeps one sum leaves the carry's second column 0: its lead is S >= 0
                leads = leads_at((carry[:, :1], carry[:, 1:]), left, [0] * len(left), done - 1)
                _exhaust(rule, result, run, rows, left, leads, draws)
        if not any(map(any, runs)):
            return results
        keep = list(map(any, zip(*runs))) if done else None  # at 0, every row stays
        if keep and not all(keep):
            rows = list(compress(rows, keep))
            runs = [list(compress(run, keep)) for run in runs]
            carry = carry[keep]
        # per rule, the steps of the chunk it reads: up to its cap, 0 where it runs no row
        ends = [min(chunk, rule.steps - done) if any(run) else 0 for rule, run in zip(rules, runs)]
        n = max(ends)  # no sum past the largest cap of the rules still running
        (c1, c2), (n1, n2) = counts(done, chunk), counts(done, n)
        shared = [rule.chunk(done, end) if end else None for rule, end in zip(rules, ends)]
        tests = None
        if accumulate is _arm_sums and chunk >= _SKIP_MIN:
            starts = np.arange(0, n, _WINDOW)
            tests = [_window_test(rule, share, starts, end, chunk) if end else None
                     for rule, share, end in zip(rules, shared, ends)]
        step = max(1, BLOCK_ELEMENTS // max(c1, c2, 1))
        for lo in range(0, len(rows), step):
            idx = rows[lo:lo + step]
            z = workspace("fill", (len(idx), c1 + c2))
            for i, j in enumerate(idx):
                fill(gens[j], z[i])
            before = carry[lo:lo + len(idx)]
            x, y = finish1(z[:, :n1]), finish2(z[:, c1:c1 + n2])
            box, window_ends = _box(before, x, y, done, starts) if tests else (None, None)
            live, first, plan = _plan(tests, [run[lo:lo + len(idx)] for run in runs], box)
            if live:  # from the carry, or from the end sums of the window before column first
                start = window_ends[:, :, first // _WINDOW - 1].T if first else before
                sums = accumulate(start if len(live) == len(idx) else start[live],
                                  _take(x, live, first, n, "live1"),
                                  _take(y, live, first, n, "live2"), done + first)
                for s in sums:
                    s.setflags(write=False)
            for column, s in zip(before.T, sums if window_ends is None else window_ends):
                column[:] = s[:, -1]
            for rule, run, share, (pick, off), result, end in zip(rules, runs, shared, plan,
                                                                   results, ends):
                if not pick:
                    continue
                picked = sums if len(pick) == len(live) and off == first and end == n else tuple(
                    _take(s, pick, off - first, end - first, f"pick{i}")
                    for i, s in enumerate(sums, 1))
                hits = rule.scan(_per_step(lambda a: a[off:], share) if off else share, picked)
                at = hits.argmax(axis=1)
                stopped = hits[ordinal[:len(pick)], at]
                stops = stopped.nonzero()[0]
                cols = at[stops]
                for i, col, lead in zip(stops.tolist(), cols.tolist(),
                                        leads_at(picked, stops, cols, done + off).tolist()):
                    p = lo + live[pick[i]]
                    tau, k1 = draws(done + 1 + off + col)
                    result[rows[p]] = (tau, 0 if lead else 1, k1, False)
                    run[p] = False
                if end < chunk and len(stops) < len(pick):  # the cap, inside the chunk
                    left = (~stopped).nonzero()[0]
                    leads = leads_at(picked, left, [end - 1 - off] * len(left), done + off)
                    _exhaust(rule, result, run, rows, [lo + live[pick[i]] for i in left.tolist()],
                             leads, draws)
        done += chunk
        chunk = min(2 * chunk, _CHUNK_MAX)


def _exhaust(rule, result, run, rows, positions, leads, draws):
    """End rows ``positions`` of ``rows`` at ``rule``'s cap, exhausted, arm 0 where it ``leads``."""
    tau, n1 = draws(rule.steps)
    for p, lead in zip(positions, leads.tolist()):
        result[rows[p]] = (tau, 0 if lead else 1, n1, True)
        run[p] = False


def _window_test(rule, shared, starts, end, chunk):
    """``rule``'s window test of a chunk windowed at ``starts``, over its windows up to ``end``.

    Where its cap falls inside the chunk (``end`` < ``chunk``), the test
    reads the box's first windows, up to the one that holds the cap, and
    calls that one unsafe, so every row the rule runs is accumulated and
    scanned there and its lead at the cap is read from its sums.
    """
    if end == chunk:
        return rule.safe(shared, starts)
    windows = -(-end // _WINDOW)
    test = rule.safe(shared, starts[:windows])

    def capped(box):
        flags = test(Box(*(bound[..., :windows] for bound in box)))
        flags[:, -1] = False
        return flags
    return capped


def _per_step(f, shared):
    """``shared``, a rule's chunk data, with ``f`` applied to each of its per-step arrays.

    The data is an array, a constant, or a tuple of them.
    """
    if isinstance(shared, tuple):
        return tuple(f(s) if isinstance(s, np.ndarray) else s for s in shared)
    return f(shared) if isinstance(shared, np.ndarray) else shared


def _box(before, x, y, done, starts):
    """(box, ends) of the windows of a sub-block's finished 0/1 draws ``x``, ``y``.

    Window j holds steps done + starts[j] + 1 to the next window's start, or
    to the chunk's end; ``before`` are the rows' arm sums before the chunk.
    Every sum is an exact integer, so the end sums (e1, e2) = ``ends``, a
    (2, rows, windows) array, equal the running sums' values at the window
    ends bit for bit.  With start sums (S1a, S2a) after k_a steps and
    increments dS1, dS2, D = S1 - S2 at any step of the window lies in [D_a
    - dS2, D_a + dS1] (the bounds from the end sums, D_b - dS1 and D_b +
    dS2, are the same), and A = S1 + S2 >= A_a and B = 2k - A >= B_a =
    2k_a - A_a, as both count draws.  Hence the :class:`Box` of bounds
    (max(D_a + dS1, dS2 - D_a), A_a, B_a, k_b), k_b the window's last step.
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
    return Box(d_max, a, b, done + np.minimum(starts + _WINDOW, x.shape[1])), ends


def _plan(tests, flags, box):
    """(live, first, [(pick, off)] per rule) of a sub-block whose rows the rules run as ``flags``.

    The sums of rows ``live`` of the sub-block are accumulated from column
    ``first``, and each rule scans those at positions ``pick`` of ``live``
    from column ``off``.  Without a ``box`` every rule scans every row it
    runs from column 0.  With one, a rule scans only the rows it runs that
    have a window its chunk's window test (:meth:`StoppingRule.safe`, one of
    ``tests``) calls unsafe, from the first window of the sub-block it calls
    unsafe in any of them, and ``live`` are the rows some rule scans, from
    the first column any does.
    """
    live = list(range(len(flags[0])))
    if box is None:
        return live, 0, [(live if all(f) else list(compress(live, f)), 0) for f in flags]
    scans = []  # per rule: (row, its first unsafe window) of each row it scans
    for test, f in zip(tests, flags):
        safe = test(box) if any(f) else np.ones((len(f), 1), dtype=bool)
        rows = zip(live, f, safe.all(axis=1).tolist(), safe.argmin(axis=1).tolist())
        scans.append([(p, w) for p, runs, skips, w in rows if runs and not skips])
    offs = [min((w for _, w in scan), default=0) * _WINDOW for scan in scans]
    first = min((off for off, scan in zip(offs, scans) if scan), default=0)
    live = sorted({p for scan in scans for p, _ in scan})
    at = dict(zip(live, range(len(live))))
    return live, first, [([at[p] for p, _ in scan], off) for scan, off in zip(scans, offs)]


def _take(a, rows, lo, hi, slot):
    """Rows ``rows`` of ``a``, columns ``lo`` to ``hi``.

    A view where they are all of ``a``'s rows, else a read-only copy in workspace slot ``slot``.
    """
    a = a[:, lo:hi] if lo or hi < a.shape[1] else a
    if len(rows) == len(a):
        return a
    # every index is in range; mode "raise" would buffer the output
    out = np.take(a, rows, axis=0, mode="clip", out=workspace(slot, (len(rows), a.shape[1])))
    out.setflags(write=False)
    return out


def run_one(rule: StoppingRule, rng: np.random.Generator) -> RunOutcome:
    """One replication of ``rule``, drawing from ``rng`` in place."""
    (tau, rec, n1, exhausted), = _run_block([rule], [rng], samplers(rule.layout))[0]
    return RunOutcome(tau=tau, recommended=rec, correct=(rec == rule.best_arm),
                      draws_per_arm=(n1, tau - n1), exhausted=exhausted)
