"""Guards on the package surface: exported names, the version string and
what importing the package loads."""

import pathlib
import subprocess
import sys

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


def test_import_leaves_out_the_integrator():
    # qbnet propagates with matrix exponentials only; importing it must
    # not pull in scipy's ODE solvers
    src = pathlib.Path(qbnet.__file__).resolve().parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import qbnet; "
            "print('scipy.integrate' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
