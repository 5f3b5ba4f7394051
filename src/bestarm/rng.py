"""Deterministic RNG plumbing.

Every stochastic routine in the package takes an explicit
``numpy.random.Generator``.  Generators run on PCG64 (period 2**128, normal
draws via numpy's ziggurat), so identical seeds reproduce identical draw
sequences within one build.

Stream layout (after L'Ecuyer et al. 2017, with PCG64's O(log n) jump-ahead):
a master seed and integer coordinates name a stream family, the PCG64
stream of ``SeedSequence(seed, spawn_key=coordinates)``.  Replication r of
the family reads that stream jumped r times, as ``PCG64.jumped(r)`` does
(an advance by r * floor(2**128 (sqrt(5)-1)/2) draws), so its draws depend
only on (seed, coordinates, r) and never on which process or block runs it.
The Monte Carlo harness gives a static cell at grid index g the family
``(g,)`` and every sequential cell the family ``(0,)``: one path per
replication serves every delta of a config.

Positioning.  :func:`row_states` gives the state of each replication of a
range.  It reaches the first with one PCG64 ``advance`` and each next one
with one step of the advance's affine map on the 128-bit LCG state,
s -> (M s + inc G) mod 2**128: an advance by a fixed count multiplies by
a fixed M and adds the increment times a fixed G, whatever the stream.
M and G are read off numpy's own ``advance`` once per process, on first
use.  This module holds the package's only calls of ``advance``.

The stride must not be a multiple of 2**64.  Such offsets leave the low
half of PCG64's 128-bit LCG state equal in every replication, and step
for step the high halves then form a Weyl sequence r * c_n: the
replications' draws are not independent (with the stride 2**64, the
column means of 2e4 replications sat up to 13 standard errors off).

``mix_seed`` (a splitmix64 avalanche mix) derives independent 64-bit seeds
for callers that seed single runs themselves.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

#: Draws between replications of a stream family: ``PCG64.jumped``'s step.
STREAM_STRIDE = 0x9E3779B97F4A7C15F39CC0605CEDC835


def _pcg64_state(state: int, inc: int) -> dict:
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


@functools.cache
def _stride_map() -> tuple[np.random.PCG64, int, int]:
    """A scratch PCG64 and (M, G): advance(STREAM_STRIDE) maps s to (M s + inc G) mod 2**128.

    Read off numpy's ``advance`` from the states 0 and 1 with inc 1, on
    first use: importing the package does not load ``numpy.random``.  The
    scratch generator is what ``row_states`` advances to a call's first
    row; its state is set in full and read back before the call yields
    anything, so no call sees another's.
    """
    scratch = np.random.PCG64(0)
    after = []
    for state in (0, 1):
        scratch.state = _pcg64_state(state, 1)
        scratch.advance(STREAM_STRIDE)
        after.append(scratch.state["state"]["state"])
    g, m_plus_g = after
    return scratch, (m_plus_g - g) & _MASK128, g


def splitmix64(z: int) -> int:
    """One splitmix64 avalanche step (Steele et al.), on 64-bit words."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(master_seed: int, *words: int) -> int:
    """Mix a master seed with integer coordinates into a fresh 64-bit seed."""
    z = master_seed & _MASK64
    for w in words:
        z = splitmix64(z ^ (w & _MASK64))
    return splitmix64(z)


def check_seed(seed: int) -> None:
    """Raise DomainError unless ``seed`` is an integer in [0, 2**64).

    :func:`make_rng` reads a seed mod 2**64, so a seed outside that range
    would draw the numbers of another seed while the records name its own.
    """
    if not 0 <= seed <= _MASK64:
        raise DomainError(f"seeds must be integers in [0, 2**64), got {seed}")


def make_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator on the PCG64 stream of SeedSequence(seed mod 2**64, spawn_key=key).

    With no key this is the stream ``PCG64(seed)`` has always given.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed & _MASK64, spawn_key=key)))


def row_states(root: dict, rows: range):
    """PCG64 state of each replication in ``rows`` of the family whose start state is ``root``.

    Replication r's state is ``PCG64.jumped(r).state`` of a PCG64 at
    ``root``, ``has_uint32`` and ``uinteger`` 0; a generator whose bit
    generator is given it draws replication r's stream.  ``rows`` holds
    consecutive replications (step 1).  The states are made as they are
    read.
    """
    scratch, mult, add = _stride_map()
    scratch.state = root
    scratch.advance(rows.start * STREAM_STRIDE)
    state = scratch.state["state"]
    s, inc = state["state"], state["inc"]
    add *= inc
    for _ in rows:
        yield _pcg64_state(s, inc)
        s = (mult * s + add) & _MASK128
