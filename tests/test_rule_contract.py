"""A rule is its thresholds, its statistic and its box test; its layout states the rest.

What a rule draws per chunk, its tau and its lead are read from its draw
layout (``engine.samplers``), the same for every rule of one layout, so no
module under ``src/bestarm`` other than ``engine.py`` defines a ``draws``
or ``leads`` function or method, or sets a ``paired`` flag.
"""

import ast
from pathlib import Path

import pytest

from bestarm import engine, fb_algos, fc_algos

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bestarm"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "engine.py")
_HOOKS = {"draws", "leads"}


def _layout_restated(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in _HOOKS:
            found.append(f"def {node.name} (line {node.lineno})")
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            name = getattr(target, "attr", getattr(target, "id", None))
            if name == "paired":
                found.append(f"paired = (line {node.lineno})")
    return sorted(found)


def test_the_check_sees_a_restated_layout():
    source = ("class R:\n    def leads(self, s):\n        self.paired = True\n"
              "    def draws(self, k):\n        return 2 * k, k\n"
              "paired: bool = False\ndef _sum_leads(s):\n    pass\nr.draws(3)\n")
    assert _layout_restated(source) == ["def draws (line 4)", "def leads (line 2)",
                                        "paired = (line 3)", "paired = (line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_other_module_restates_the_layout(path):
    assert _layout_restated(path.read_text(encoding="utf-8")) == []


def test_a_rule_supplies_only_its_thresholds_and_its_scan():
    rules = [engine.StoppingRule, fb_algos.StaticRule, fc_algos.EliminationRule,
             fc_algos.AlphaEliminationRule, fc_algos.SglrtRule, fc_algos.SprtRule]
    for rule in rules:
        hooks = {name for cls in rule.__mro__[:-1] for name, value in vars(cls).items()
                 if callable(value) and not name.startswith("_")}
        assert hooks <= {"chunk", "scan", "safe"}, rule.__name__
