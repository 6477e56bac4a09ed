"""No module of the package but ``jsonio`` calls ``isinstance(..., bool)``.

A JSON value is checked against its type by ``jsonio.decode`` alone.
``isinstance(v, bool)`` is the telltale of a hand-written copy of that
rule: ``json`` reads ``true`` as a bool, which ``isinstance(v, int)``
takes, so every hand-written number check must refuse bools on its own.
Parsed with ``ast`` only, so the package is not imported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TYPE_CHECKERS = {"jsonio.py"}
MODULES = [p for p in sorted(ROOT.glob("src/solgeo/*.py")) if p.name not in TYPE_CHECKERS]


def bool_checks(source: str) -> list[str]:
    """Each ``isinstance`` call whose types name ``bool``, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            types = node.args[1] if len(node.args) > 1 else None
            names = types.elts if isinstance(types, ast.Tuple) else [types]
            if any(getattr(name, "id", None) == "bool" for name in names):
                found.append(f"isinstance (line {node.lineno})")
    return found


def test_the_check_sees_each_spelling():
    source = ("isinstance(v, bool)\n"
              "x = isinstance(v, (bool, int)) or isinstance(v, int)\n"
              "isinstance(v, (int, float))\n")
    assert bool_checks(source) == ["isinstance (line 1)", "isinstance (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_jsonio_checks_a_json_type(path):
    found = bool_checks(path.read_text())
    assert not found, f"{path.name} calls {', '.join(found)}; read the value with jsonio.decode"
