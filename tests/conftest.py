"""Import the package from ``src/`` without installing it.

``src/`` goes first on this interpreter's path and on ``PYTHONPATH``, which
the tests that start a fresh interpreter pass on to it.
"""

import os
import pathlib
import sys

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
