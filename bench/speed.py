"""Host-speed probe that turns wall seconds into reference seconds.

On a shared 2-vCPU KVM guest (Intel Xeon, Python 3.11, numpy 2.4) the same
pass runs anywhere from 0.39 s to 0.73 s depending on what the host is
doing, and the slow and fast spells last from a fraction of a second to
tens of seconds, so a median of raw times moves by 15-30% between runs.  Fixed probe kernels -- small
numpy calls, an integer loop, a scalar golden-section search and
large-array numpy work, the kinds of work the program does -- are timed
before and after every op; an op's wall time divided by the kernels'
slowdown against their unloaded times is its time in reference seconds.
Each workload probes with the kernels closest to its own mix.  Set-up time
is scaled the same way by a yardstick that starts an interpreter and
imports numpy, because process start-up slows with the host differently
from computation.  Nothing the program does changes the kernels, so a
change to the program moves the reference time as it would move the wall
time on an unloaded host.
"""

from __future__ import annotations

import math
import time

import numpy as np

def _small_numpy() -> None:
    rng = np.random.Generator(np.random.PCG64(1))
    acc = 0.0
    for i in range(300):
        x = rng.standard_normal(64)
        acc += float(np.cumsum(x)[-1])
        acc += {"i": i, "acc": acc}["i"] * 1e-9


def _integer_loop() -> None:
    s = 0
    for i in range(15_000):
        s = (s * 31 + i) & 0xFFFFFFFF


def _golden_section() -> None:
    def f(a):
        return a * math.log1p(a) - (1.0 - a) * math.exp(-a)

    for _ in range(20):
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-10:
            c, d = hi - 0.618 * (hi - lo), lo + 0.618 * (hi - lo)
            if f(c) > f(d):
                hi = d
            else:
                lo = c
        for j in range(300):
            f(j / 300.0)


def _large_numpy() -> None:
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(2):
        x = rng.standard_normal(50_000)
        np.abs(np.cumsum(x)) > np.sqrt(np.arange(1.0, 50_001.0))


#: kernel name -> (work, its seconds on that guest when the host is quiet).
#: Fixed constants, so reference seconds compare across runs and commits.
KERNELS = {
    "numpy_small": (_small_numpy, 0.0011),
    "integer": (_integer_loop, 0.0013),
    "golden": (_golden_section, 0.0012),
    "numpy_large": (_large_numpy, 0.0025),
}


def slowdown(kernels) -> float:
    """How many times slower than on an unloaded host the kernels run right now."""
    total = 0.0
    for name in kernels:
        work, ref_s = KERNELS[name]
        t0 = time.perf_counter()
        work()
        total += (time.perf_counter() - t0) / ref_s
    return total / len(kernels)


#: Seconds to start an interpreter that imports numpy, on the same unloaded
#: host: the yardstick for set-up time, which is spent starting processes
#: and importing rather than computing.
SPAWN_REF_S = 0.10

#: The yardstick child; it prints one line once numpy is imported.
SPAWN_CHILD = ("-c", "import numpy; print('ready', flush=True)")


def reference_seconds(wall_s: float, slowdown_before: float, slowdown_after: float) -> float:
    """Wall time divided by the host slowdown the probes around it saw."""
    return wall_s * 2.0 / (slowdown_before + slowdown_after)
