"""No module of the package but ``spectral`` calls ``eigvalsh``, ``eigh``
or ``cholesky``, and none but ``spectral`` works out a slack.

Every consumed eigenvalue is estimated and proved behind ``spectral``, so
an eigensolve or a factorization elsewhere would be one that nothing
proves.  The SVDs of ``refuter`` and ``oracle`` are not checked here.
Every consumed bound, and the placement of ``eigencount``'s window, is
``spectral.proved_bound``, so a call of ``eig_slack`` elsewhere would
work a slack out again.  Parsed with ``ast`` only, so the package is not
imported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOLVER_CALLERS = {"spectral.py"}
SOLVERS = ("eigvalsh", "eigh", "cholesky")
MODULES = [p for p in sorted(ROOT.glob("src/solgeo/*.py")) if p.name not in SOLVER_CALLERS]


def calls_of(source: str, names=SOLVERS) -> list[str]:
    """Each call of a name or attribute in ``names``, or of a name imported
    as one of them, with its line."""
    tree = ast.parse(source)
    names = set(names) | {alias.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                          for alias in node.names if alias.name in names and alias.asname}
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                calls.append(f"{name} (line {node.lineno})")
    return sorted(calls)


def test_the_check_sees_each_spelling():
    source = "np.linalg.eigvalsh(A)\nla.eigh(A)\ncholesky(A)\nnp.linalg.svd(A)\n"
    assert calls_of(source) == ["cholesky (line 3)", "eigh (line 2)", "eigvalsh (line 1)"]


def test_the_slack_check_sees_each_spelling():
    source = ("from .spectral import eig_slack as slack\n"
              "x = eig_slack(2.0) + spectral.eig_slack(v)\n"
              "def _window(v):\n"
              "    return eig_slack(v)\n"
              "def f(v):\n"
              "    return sp.eig_slack(v) + slack(v) + eig_slack\n")
    assert calls_of(source, ["eig_slack"]) == [
        "eig_slack (line 2)", "eig_slack (line 2)", "eig_slack (line 4)", "eig_slack (line 6)",
        "slack (line 6)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_spectral_solves(path):
    calls = calls_of(path.read_text())
    assert not calls, f"{path.name} calls {', '.join(calls)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_spectral_works_out_a_slack(path):
    calls = calls_of(path.read_text(), ["eig_slack"])
    assert not calls, f"{path.name} calls {', '.join(calls)} outside spectral.proved_bound"
