"""No module of the package but ``instances`` and ``oracle`` reads the
tuple views ``clauses`` and ``edges`` of an instance.

Those views are rebuilt from the instance's arrays on each access, so
the certification paths read the arrays themselves; the oracles are
reference code and may walk the tuples.  Parsed with ``ast`` only, so
the package is not imported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TUPLE_READERS = {"instances.py", "oracle.py"}
MODULES = [p for p in sorted(ROOT.glob("src/solgeo/*.py")) if p.name not in TUPLE_READERS]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_certification_paths_read_arrays(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = sorted(
        f".{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("clauses", "edges")
    )
    assert not reads, f"{path.name} reads tuple views: {', '.join(reads)}"
