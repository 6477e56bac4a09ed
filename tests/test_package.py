from pathlib import Path

import pytest

import solgeo

tomllib = pytest.importorskip("tomllib")


def test_version_matches_pyproject():
    # certificates carry TOOL_VERSION; the package metadata must agree
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        meta = tomllib.load(fh)
    assert solgeo.__version__ == solgeo.TOOL_VERSION == meta["project"]["version"]
