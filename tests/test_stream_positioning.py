"""Only ``rng.py`` moves a PCG64 stream to a replication.

Every replication's stream is positioned through ``rng.row_states``, so
the stream layout has one code path: no other module under
``src/bestarm`` calls ``advance`` (nor ``jumped`` or ``jump_inplace``).
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bestarm"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "rng.py")
_MOVES = {"advance", "jumped", "jump_inplace"}


def _stream_moves(source: str) -> list[str]:
    return sorted(f"{node.func.attr} (line {node.lineno})"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MOVES)


def test_the_check_sees_a_stream_move():
    source = ("bg.state = root\nbg.advance(r * STRIDE)\n"
              "rng.bit_generator.jumped(2)\nx.advanced(1)\nadvance = 3\n")
    assert _stream_moves(source) == ["advance (line 2)", "jumped (line 3)"]


def test_rng_holds_the_one_advance():
    assert _stream_moves((PACKAGE / "rng.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_other_module_moves_a_stream(path):
    assert _stream_moves(path.read_text(encoding="utf-8")) == []


def test_importing_the_package_loads_no_random_module():
    # rng derives its stride map on first use: numpy loads numpy.random
    # lazily, and loading it at import would add to every command's start-up
    code = "import sys, bestarm.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
