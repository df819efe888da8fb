"""Guards on the package surface: exported names, the version string and
what importing the package loads."""

import pathlib
import subprocess
import sys

import pytest

import qbnet

tomllib = pytest.importorskip("tomllib")

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


#: the public surface; adding or removing a name is a deliberate edit here
PUBLIC_NAMES = [
    "ConfigError", "CouplingSpec", "DriveSpec", "EffectiveLink", "EnergyCurve",
    "FIGURE_COLUMNS", "FIGURE_IDS", "GainReport", "IsolationResult",
    "LinearSystem", "LogFitResult", "ModeSpec", "NetworkSpec",
    "NoSteadyStateError", "PhaseLandscape", "PowerCurve", "QbnetError",
    "RunConfig", "ScanEdgeError", "SteadyState", "SweepTable",
    "TopologyParams", "Trajectory", "UnknownModeError", "UnstableSystemError",
    "ValidationError", "assemble", "build_network", "cascaded_nr_energy",
    "drive_relocation_energies", "effective_link",
    "effective_steady_amplitudes", "effective_steady_energy", "energy_curve",
    "evolve", "figure_table", "g_opt_odd", "gain_approx", "gain_bounds",
    "gain_report", "is_stable", "isolation", "logfit_ratio",
    "matched_coupling", "max_power", "network_from_dict",
    "parallel_nr_energy", "parallel_r1_energy", "parse_run_config",
    "phase_landscape", "power_curve", "run_config_to_dict", "run_figure",
    "run_sweep", "steady_energy", "steady_state", "topology_from_dict",
    "topology_to_dict", "vacuum", "validate", "window_check", "wrap_phase",
    "write_table",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 63
    assert sorted(qbnet.__all__) == PUBLIC_NAMES


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
