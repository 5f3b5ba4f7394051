"""The benchmark's workloads: which public entry points one pass calls.

A pass is a closed loop with one client: each call into bestarm starts
when the previous one has returned.  Figure and fixed-budget calls go
through ``cli.main`` (which reaches ``harness.run_*_experiment``) and write
their CSV into a scratch directory; LIL walks call
``harness.empirical_lil_crossing`` directly.  Instances and grids are fixed
per workload; the pass seed is the only input that varies.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass

from bestarm import cli, harness, presets, records_io
from bestarm.harness import AlgorithmSpec, ExperimentConfig


@dataclass(frozen=True)
class Op:
    """One call into the program.

    ``kind`` is "figure" (``reproduce-figure <label>``), "simulate-fb"
    (``simulate-fb --alloc optimal``) or "lil" (an envelope-crossing walk).
    ``reps`` is replications per cell, or the path count of a LIL walk.
    """

    label: str
    kind: str
    reps: int
    family: str = ""
    means: tuple[float, ...] = ()
    budgets: str = ""
    sigma: float = 1.0
    x: float = 3.0
    beta: float = 1.5
    horizon: int = 10_000


@dataclass(frozen=True)
class Workload:
    """A pass's ops, the worker count, and the ``speed`` kernels that match its work."""

    name: str
    workers: int
    ops: tuple[Op, ...]
    probe: tuple[str, ...] = ("numpy_small", "integer", "golden")


# Op sizes keep every op between about 0.05 s and 0.5 s: long enough to
# dwarf the speed probes around it, short enough that the probes see the
# host state the op ran in.
_EASY = (Op("fig3-easy", "figure", 100), Op("fig4-left", "figure", 100))

WORKLOADS = {
    w.name: w for w in (
        Workload("mc-easy", 1, _EASY),
        Workload("mc-hard", 1, (
            Op("fig3-hard", "figure", 10),
            Op("fig4-right", "figure", 10),
            Op("lil", "lil", 500),
        ), probe=("integer", "numpy_large")),
        Workload("fb-optimal", 1, (
            Op("fb-bernoulli", "simulate-fb", 25, "bernoulli", (0.2, 0.1), "20:200:20"),
            Op("fb-exponential", "simulate-fb", 25, "exponential", (1.0, 0.5), "20:200:20"),
        )),
        Workload("mc-easy-w2", 2, _EASY),
    )
}


def pass_seed(seed: int, k: int) -> int:
    """Master seed of pass k: distinct per pass, a pure function of the run seed."""
    return seed * 1_000_003 + k


def cli_argv(op: Op, seed: int, workers: int, out: str) -> list[str]:
    if op.kind == "figure":
        return ["reproduce-figure", op.label, "--reps", str(op.reps), "--seed", str(seed),
                "--workers", str(workers), "--out", out]
    return ["simulate-fb", "--family", op.family, "--means", ",".join(map(str, op.means)),
            "--alloc", "optimal", "--budgets", op.budgets, "--reps", str(op.reps),
            "--seed", str(seed), "--workers", str(workers), "--out", out]


def expected_configs(op: Op, seed: int) -> list[ExperimentConfig]:
    """The configs a cli op runs, in the order its records come out."""
    if op.kind == "figure":
        return presets.figure_configs(op.label, op.reps, seed)
    instance = cli.build_instance(op.family, list(op.means), None)
    grid = cli.parse_grid(op.budgets, integer=True)
    return [ExperimentConfig(instance, AlgorithmSpec("static", allocation="optimal"),
                             grid, op.reps, seed)]


@dataclass
class OpResult:
    """What one op produced: the output bytes and what they contain."""

    op: Op
    seed: int
    payload: bytes = b""
    records: list | None = None
    lil_frequency: float | None = None
    path: str = ""
    error: str = ""

    @property
    def reps(self) -> int:
        if self.op.kind == "lil":
            return self.op.reps
        return sum(r.replications for r in self.records or ())

    @property
    def draws(self) -> int:
        if self.op.kind == "lil":
            return self.op.reps * self.op.horizon
        return sum(round(r.mean_tau * r.replications) for r in self.records or ())


def run_op(op: Op, seed: int, workers: int, scratch: str) -> OpResult:
    """Make the call; parsing the CSV back is left to :func:`load_output`."""
    res = OpResult(op, seed)
    if op.kind == "lil":
        res.lil_frequency = harness.empirical_lil_crossing(
            op.sigma, op.x, op.beta, op.horizon, op.reps, seed)
        res.payload = repr(res.lil_frequency).encode()
        return res
    out = os.path.join(scratch, f"{op.label}.csv")
    if os.path.exists(out):
        os.remove(out)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(cli_argv(op, seed, workers, out))
    if rc != 0:
        res.error = f"exit code {rc}: {err.getvalue().strip()}"
        return res
    with open(out, "rb") as fh:
        res.payload = fh.read()
    res.path = out
    return res


def load_output(res: OpResult) -> None:
    """Parse a cli op's CSV into records (outside the timed region)."""
    if res.path:
        res.records = records_io.read_records(res.path)


def run_guarded(op: Op, seed: int, workers: int, scratch: str, tracer=None) -> OpResult:
    """:func:`run_op`, with a crash recorded as a failed op; a tracer adds a root span."""
    try:
        if tracer is None:
            return run_op(op, seed, workers, scratch)
        return tracer.call(f"bench.{op.label}", run_op, op, seed, workers, scratch)
    except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
        return OpResult(op, seed, error=f"{type(exc).__name__}: {exc}")


def run_pass(workload: Workload, seed: int, workers: int, scratch: str,
             tracer=None) -> list[OpResult]:
    """Every op of the workload once, in order."""
    return [run_guarded(op, seed, workers, scratch, tracer) for op in workload.ops]
