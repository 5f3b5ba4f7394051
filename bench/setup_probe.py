"""Child process whose lifetime ``run.py`` times as ``setup_s``.

    python3 bench/setup_probe.py WORKLOAD SEED

Imports the package, parses each op's command line and builds and
validates its experiment configs -- everything a run does before its first
replication -- then prints ``ready``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the path above)
from bestarm import cli  # noqa: E402


def main(name: str, seed: int) -> None:
    workload = workloads.WORKLOADS[name]
    pass_seed = workloads.pass_seed(seed, 0)
    for op in workload.ops:
        if op.kind == "lil":
            continue
        cli.build_parser().parse_args(workloads.cli_argv(op, pass_seed, workload.workers, "-"))
        for cfg in workloads.expected_configs(op, pass_seed):
            cfg.validate()
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
