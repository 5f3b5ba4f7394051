"""The record contract: a fresh run of ``scripts/record_digests.py`` prints the committed lines.

Every record file of the script's runs and the solver bits it hashes are
compared line by line with ``scripts/record_digests.txt``.  The bytes depend
on the numpy build, whose version is the file's first line; under another
version the test skips and names both.
"""

import contextlib
import importlib.util
import io
import pathlib

import numpy as np
import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def test_record_digests_match_the_committed_file():
    expected = (SCRIPTS / "record_digests.txt").read_text(encoding="utf-8").splitlines()
    here = f"numpy {np.__version__}"
    if expected[0] != here:
        pytest.skip(f"the committed digests were made under {expected[0]}; this is {here}")
    spec = importlib.util.spec_from_file_location("record_digests",
                                                  SCRIPTS / "record_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert script.main() == 0
    assert out.getvalue().splitlines() == expected
