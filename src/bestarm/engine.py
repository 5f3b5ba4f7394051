"""The stopping engine every strategy runs on.

A :class:`StoppingRule` is one strategy validated for one cell: it
supplies its samplers, its per-chunk thresholds and its statistic,
nothing else.  :func:`run_rows` advances a block of replications of one
rule in lockstep.  Each row draws from a generator of its own, given its
replication's state (:func:`bestarm.rng.row_states`) once, before its
first chunk.  Per chunk of steps (64 doubling to 4096) it draws every
active row's arm-1 chunk then arm-2 chunk (in one call where both arms
share a standard law), stacks the rows into (rows, n) arrays, scans them
for first crossings at once, and drops the rows that stopped.  A rule
draws what its statistic reads: a rule that reads only paired
differences draws them on arm 1 and nothing on arm 2, and a static rule
draws one sum per arm.  Thresholds are computed once per chunk and block
and shared by all of its rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dists import sampler
from .instances import BanditInstance
from .rng import row_states

#: Largest replication count, budget or tau_max a run takes: every integer
#: up to it is exact as a float (budget grids are floats) and in int64.
MAX_COUNT = 2**53
_CHUNK0 = 64
_CHUNK_MAX = 4096
#: Floats per stacked (rows, draws) array in one lockstep step.  It bounds
#: memory only: every row reads its own stream, so output never depends on it.
BLOCK_ELEMENTS = 2**12
_BLOCK_ROWS = BLOCK_ELEMENTS // _CHUNK0
#: The generators rows of a block draw from, grown as blocks need them.
#: :func:`run_rows` positions each one before its block's first draw, so none
#: carries state from one block to the next.
_ROW_GENERATORS: list[np.random.Generator] = []


@dataclass(frozen=True)
class RunOutcome:
    """One algorithm execution: total draws, recommendation and bookkeeping."""

    tau: int
    recommended: int
    correct: bool
    draws_per_arm: tuple[int, int]
    exhausted: bool


class StoppingRule:
    """A strategy validated once for a cell: its samplers, threshold and statistic.

    A rule runs at most ``steps`` steps, each paired (one draw per arm, t = 2k)
    unless ``draws`` says otherwise.  ``chunk(done, n)`` gives the arm-1 and
    arm-2 variate counts of steps done+1..done+n and the data every row
    shares (thresholds); :meth:`scan` decides them.  ``build_samplers``
    gives the (fill, finish) pair of each of the two variate streams, one
    draw per arm by default; a subclass that overrides it sets what it needs
    before calling this constructor.  A rule pickles as plain data: its
    sampler closures are rebuilt when it is unpickled.
    """

    width = 1

    def __init__(self, instance: BanditInstance, steps: int):
        self.best_arm = instance.best_arm
        self.arms = instance.arms
        self.steps = steps
        # built once per rule: building fresh closures for every block of rows
        # made short-tau cells several percent slower
        self.samplers = self.build_samplers()

    def build_samplers(self):
        return tuple(sampler(arm) for arm in self.arms)

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "samplers"}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.samplers = self.build_samplers()

    def chunk(self, done: int, n: int):
        return n, n, None

    def scan(self, shared, carry, x, y):
        """(hits, leads, carry) of steps done+1..done+n for a block of rows.

        ``x`` and ``y`` are the rows' finished arm-1 and arm-2 variates of
        the chunk and ``carry`` their ``width`` running sums before it.
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


#: The samplers of a variate stream that draws nothing.
NO_DRAWS = (lambda rng, out: None), (lambda raw: raw)


def run_rows(rule: StoppingRule, rng: np.random.Generator, rows: range):
    """Replications ``rows`` of ``rule`` as arrays (tau, recommended, n1, exhausted).

    Row r draws from the stream of ``rng``'s PCG64 bit generator jumped r
    times from its state on entry (:func:`bestarm.rng.row_states`), so no
    row's draws depend on which rows share its block.  ``rng``'s state only
    names the stream family: the rows draw from generators of their own,
    and ``rng`` is left as it was.
    """
    states = row_states(rng.bit_generator.state, rows)
    while len(_ROW_GENERATORS) < min(len(rows), _BLOCK_ROWS):
        _ROW_GENERATORS.append(np.random.Generator(np.random.PCG64(0)))
    out = []
    for lo in range(0, len(rows), _BLOCK_ROWS):
        gens = _ROW_GENERATORS[:min(_BLOCK_ROWS, len(rows) - lo)]
        for gen, state in zip(gens, states):
            gen.bit_generator.state = state
        out += _run_block(rule, gens)
    out = np.array(out, dtype=np.int64).reshape(-1, 4)
    return out[:, 0], out[:, 1], out[:, 2], out[:, 3].astype(bool)


def _run_block(rule: StoppingRule, gens: list) -> list:
    """(tau, recommended, n1, exhausted) per row of one lockstep block.

    Row i draws from ``gens[i]`` in place, every chunk in stream order, so
    no state is saved or restored between chunks.  Where both streams fill
    with one function (one standard law on both arms), a row fills its
    arm-1 and arm-2 variates of a chunk in one call, the same draws in the
    same order.
    """
    (fill1, finish1), (fill2, finish2) = rule.samplers
    merged = fill1 is fill2
    # a stopped row's outcome; until then, whether arm 0 leads (ties and no draws: yes)
    result = [True] * len(gens)
    active = list(range(len(gens)))
    carry = np.zeros((len(gens), rule.width))  # row i belongs to active[i]
    done, chunk = 0, _CHUNK0
    while done < rule.steps:
        n = min(chunk, rule.steps - done)
        c1, c2, shared = rule.chunk(done, n)
        step = max(1, BLOCK_ELEMENTS // max(c1, c2, 1))
        kept = []
        for lo in range(0, len(active), step):
            idx = active[lo:lo + step]
            z = np.empty((len(idx), c1 + c2))
            x, y = z[:, :c1], z[:, c1:]
            for i, j in enumerate(idx):
                if merged:
                    fill1(gens[j], z[i])
                else:
                    fill1(gens[j], x[i])
                    fill2(gens[j], y[i])
            hits, leads, carry[lo:lo + step] = rule.scan(shared, carry[lo:lo + step],
                                                         finish1(x), finish2(y))
            for i, at in enumerate(hits.argmax(axis=1).tolist()):
                if hits[i, at]:
                    tau, n1 = rule.draws(done + 1 + at)
                    result[idx[i]] = (tau, 0 if leads[i, at] else 1, n1, False)
                else:
                    result[idx[i]] = leads[i, -1]
                    kept.append(lo + i)
        done += n
        chunk = min(2 * chunk, _CHUNK_MAX)
        if len(kept) < len(active):
            active = [active[i] for i in kept]
            if not active:
                return result
            carry = carry[kept]
    tau, n1 = rule.draws(rule.steps)
    for j in active:
        result[j] = (tau, 0 if result[j] else 1, n1, True)
    return result


def run_one(rule: StoppingRule, rng: np.random.Generator) -> RunOutcome:
    """One replication of ``rule``, drawing from ``rng`` in place."""
    (tau, rec, n1, exhausted), = _run_block(rule, [rng])
    return RunOutcome(tau=tau, recommended=rec, correct=(rec == rule.best_arm),
                      draws_per_arm=(n1, tau - n1), exhausted=exhausted)
