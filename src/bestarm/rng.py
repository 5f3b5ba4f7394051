"""Deterministic RNG plumbing.

Every stochastic routine in the package takes an explicit
``numpy.random.Generator``.  Generators run on PCG64 (period 2**128, normal
draws via numpy's ziggurat), so identical seeds reproduce identical draw
sequences within one build.

Stream layout (after L'Ecuyer et al. 2017, with PCG64's O(log n) jump-ahead):
a master seed and integer coordinates name a stream family, the PCG64
stream of ``SeedSequence(seed, spawn_key=coordinates)``.  Replication r of
the family reads that stream from offset r * 2**64, so its draws depend
only on (seed, coordinates, r) and never on which process or block runs it.
The Monte Carlo harness gives grid cell g the family ``(g,)``.

``mix_seed`` (a splitmix64 avalanche mix) derives independent 64-bit seeds
for callers that seed single runs themselves.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

#: Draws reserved per replication of a stream family.
STREAM_STRIDE = 1 << 64


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


def make_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator on the PCG64 stream of SeedSequence(seed mod 2**64, spawn_key=key).

    With no key this is the stream ``PCG64(seed)`` has always given.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed & _MASK64, spawn_key=key)))


def seek(bit_generator: np.random.BitGenerator, root: dict, r: int) -> None:
    """Move ``bit_generator`` to replication r of the family whose start state is ``root``."""
    bit_generator.state = root
    bit_generator.advance(r * STREAM_STRIDE)
