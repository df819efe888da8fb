"""Guards on the package surface: exported names and the version string."""

import pathlib

import pytest

import qbnet

tomllib = pytest.importorskip("tomllib")

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_exported_name_resolves():
    assert [name for name in qbnet.__all__ if not hasattr(qbnet, name)] == []


def test_version_has_one_source():
    with PYPROJECT.open("rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert qbnet.__version__ == qbnet.export.TOOLKIT_VERSION == version
