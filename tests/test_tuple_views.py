"""No module of the package but ``instances`` reads the tuple views
``clauses`` and ``edges`` of an instance.

Those views are rebuilt from the instance's arrays on each access, so
the certification paths and the oracles read the arrays themselves.  The
views serve callers outside the package: the benchmark's reference
encoder and the tests.  Parsed with ``ast`` only, so the package is not
imported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TUPLE_READERS = {"instances.py"}
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
