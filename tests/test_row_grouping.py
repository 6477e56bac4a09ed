"""Equal rows are grouped in one place, ``instances.row_groups``.

``np.unique(axis=...)`` sorts rows as void records, several times slower
than one ``np.lexsort`` over the columns, so no package module calls it,
and no module but ``instances`` calls ``np.lexsort``.  Parsed with
``ast`` only, so the package is not imported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(ROOT.glob("src/solgeo/*.py"))


def _np_calls(path: Path, name: str) -> list[ast.Call]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_rows_are_grouped_by_row_groups(path):
    by_axis = [f"line {call.lineno}" for call in _np_calls(path, "unique")
               if any(kw.arg == "axis" for kw in call.keywords)]
    assert not by_axis, f"{path.name} calls np.unique with axis= at {', '.join(by_axis)}"
    if path.name != "instances.py":
        lexsorts = [f"line {call.lineno}" for call in _np_calls(path, "lexsort")]
        assert not lexsorts, f"{path.name} calls np.lexsort at {', '.join(lexsorts)}"
