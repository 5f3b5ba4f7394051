"""The program names the benchmark under ``bench/`` looks up must exist.

The benchmark imports the package from outside it: its tracer wraps module
attributes by name, and its oracles, workloads and set-up probe call
package functions.  Deleting one of those names breaks the benchmark
without failing any other test, so these tests fail first.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: Files whose module-attribute lookups are checked (the tracer is checked
#: by installing it).
_CALLERS = ("oracles.py", "workloads.py", "setup_probe.py")


def _looked_up(path: Path) -> set[tuple[str, str]]:
    """(module, attribute) of every package name a bench file imports or looks up."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}  # local name -> package module
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bestarm"):
            for alias in node.names:
                if node.module == "bestarm":
                    modules[alias.asname or alias.name] = f"bestarm.{alias.name}"
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return names


@pytest.fixture
def bench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))


def test_tracer_installs_and_restores_every_target(bench_path):
    tracer = importlib.import_module("tracer")
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, *_ in tracer._TARGETS]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(module, attr) is not orig for module, attr, orig in originals)
    finally:
        t.uninstall()
    assert all(getattr(module, attr) is orig for module, attr, orig in originals)


def test_names_the_benchmark_calls_exist():
    names = set().union(*(_looked_up(BENCH / name) for name in _CALLERS))
    assert {
        ("bestarm.fb_algos", "allocation_for"),
        ("bestarm.fb_algos", "theoretical_error_bound"),
        ("bestarm.harness", "deviation_bound"),
        ("bestarm.cli", "build_instance"),
        ("bestarm.cli", "parse_grid"),
        ("bestarm.cli", "build_parser"),
    } <= names
    missing = sorted(f"{module}.{attr}" for module, attr in names
                     if not hasattr(importlib.import_module(module), attr))
    assert not missing
