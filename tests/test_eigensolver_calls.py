"""No module of the package but ``spectral`` calls ``eigvalsh``, ``eigh``
or ``cholesky``.

Every consumed eigenvalue is estimated and proved behind ``spectral``, so
an eigensolve or a factorization elsewhere would be one that nothing
proves.  The SVDs of ``refuter`` and ``oracle`` are not checked here.
Parsed with ``ast`` only, so the package is not imported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOLVER_CALLERS = {"spectral.py"}
SOLVERS = ("eigvalsh", "eigh", "cholesky")
MODULES = [p for p in sorted(ROOT.glob("src/solgeo/*.py")) if p.name not in SOLVER_CALLERS]


def solver_calls(source: str) -> list[str]:
    """Each call of a name or attribute named in SOLVERS, with its line."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in SOLVERS:
                calls.append(f"{name} (line {node.lineno})")
    return sorted(calls)


def test_the_check_sees_each_spelling():
    source = "np.linalg.eigvalsh(A)\nla.eigh(A)\ncholesky(A)\nnp.linalg.svd(A)\n"
    assert solver_calls(source) == ["cholesky (line 3)", "eigh (line 2)", "eigvalsh (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_spectral_solves(path):
    calls = solver_calls(path.read_text())
    assert not calls, f"{path.name} calls {', '.join(calls)}"
