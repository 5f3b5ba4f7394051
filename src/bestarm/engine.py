"""The stopping engine every strategy runs on.

A :class:`StoppingRule` is one strategy validated for one cell: it
supplies its samplers, its per-chunk thresholds and its statistic,
nothing else.  :func:`run_rows` advances a block of replications of one
rule in lockstep.  Per chunk of steps (64 doubling to 4096) it draws every
active row's arm-1 chunk then arm-2 chunk from that row's own stream,
stacks the rows into (rows, n) arrays, scans them for first crossings at
once, and drops the rows that stopped.  A rule draws what its statistic
reads: a rule that reads only paired differences draws them on arm 1 and
nothing on arm 2, and a static rule draws one sum per arm.  Thresholds
are computed once per chunk and block and shared by all of its rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dists import sampler
from .instances import BanditInstance
from .rng import seek

_CHUNK0 = 64
_CHUNK_MAX = 4096
#: Floats per stacked (rows, draws) array in one lockstep step.  It bounds
#: memory only: every row reads its own stream, so output never depends on it.
BLOCK_ELEMENTS = 2**12
_BLOCK_ROWS = BLOCK_ELEMENTS // _CHUNK0


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
    shares (thresholds); ``scan(shared, carry, x, y)`` gives (rows, n)
    crossings and "arm 0 is recommended here" flags, plus the ``width``
    running sums per row that carry into the next chunk.  ``build_samplers``
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

    def draws(self, steps: int) -> tuple[int, int]:
        """(tau, arm-1 draws) after ``steps`` steps."""
        return 2 * steps, steps


#: The samplers of a variate stream that draws nothing.
NO_DRAWS = (lambda rng, out: None), (lambda raw: raw)


def run_rows(rule: StoppingRule, rng: np.random.Generator, rows: range):
    """Replications ``rows`` of ``rule`` as arrays (tau, recommended, n1, exhausted).

    Row r draws from the stream of ``rng``'s bit generator jumped r times
    (:func:`bestarm.rng.seek`) from its state on entry, so row 0 continues
    ``rng`` in place and no row's draws depend on which rows share its block.
    """
    root = rng.bit_generator.state
    out = np.array([row for lo in range(0, len(rows), _BLOCK_ROWS)
                    for row in _run_block(rule, rng, root, rows[lo:lo + _BLOCK_ROWS])],
                   dtype=np.int64).reshape(-1, 4)
    return out[:, 0], out[:, 1], out[:, 2], out[:, 3].astype(bool)


def _run_block(rule: StoppingRule, rng: np.random.Generator, root, rows: range) -> list:
    """(tau, recommended, n1, exhausted) per row of one lockstep block.

    With ``root`` None the block is a single row drawing from ``rng`` in place.
    Otherwise row r seeks to replication r of ``root``'s family on its first
    chunk, and its generator state is saved after and restored before each
    later chunk, whatever the block's size.
    """
    bit_generator = rng.bit_generator
    (fill1, finish1), (fill2, finish2) = rule.samplers
    states = None if root is None else [None] * len(rows)
    # a stopped row's outcome; until then, whether arm 0 leads (ties and no draws: yes)
    result = [True] * len(rows)
    active = list(range(len(rows)))
    carry = np.zeros((len(rows), rule.width))  # row i belongs to active[i]
    done, chunk = 0, _CHUNK0
    while done < rule.steps:
        n = min(chunk, rule.steps - done)
        c1, c2, shared = rule.chunk(done, n)
        step = max(1, BLOCK_ELEMENTS // max(c1, c2, 1))
        kept = []
        for lo in range(0, len(active), step):
            idx = active[lo:lo + step]
            x = np.empty((len(idx), c1))
            y = np.empty((len(idx), c2))
            for i, j in enumerate(idx):
                if states is not None:
                    if states[j] is None:
                        seek(bit_generator, root, rows[j])
                    else:
                        bit_generator.state = states[j]
                fill1(rng, x[i])
                fill2(rng, y[i])
                if states is not None:
                    states[j] = bit_generator.state
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
    (tau, rec, n1, exhausted), = _run_block(rule, rng, None, range(1))
    return RunOutcome(tau=tau, recommended=rec, correct=(rec == rule.best_arm),
                      draws_per_arm=(n1, tau - n1), exhausted=exhausted)
