"""Driven-dissipative bosonic battery networks.

Build chain or star charging topologies with synthetic-flux triangle
links, solve their first-moment linear dynamics exactly, and quantify
the nonreciprocity gains in stored energy and charging power.  The
closed-form layer (intermediate-mode elimination, continued-fraction
chains) and the dense numeric layer cross-validate each other.
"""

from .closed_forms import (EffectiveLink, LogFitResult, cascaded_nr_energy,
                           effective_link, effective_steady_amplitudes,
                           effective_steady_energy, g_opt_odd, gain_approx,
                           gain_bounds, logfit_ratio, parallel_nr_energy,
                           parallel_r1_energy)
from .config import (RunConfig, parse_run_config, run_config_to_dict,
                     run_config_to_json, topology_from_dict, topology_to_dict,
                     network_from_dict, network_to_dict)
from .dynamics import (LinearSystem, SteadyState, Trajectory, assemble,
                       evolve, is_stable, steady_state, vacuum)
from .errors import (ConfigError, NoSteadyStateError, QbnetError,
                     ScanEdgeError, UnstableSystemError, ValidationError)
from .export import (TOOLKIT_VERSION as __version__, SweepTable, write_csv,
                     write_json, write_table)
from .figures import FIGURE_COLUMNS, FIGURE_IDS, figure_table, run_figure
from .network import (CouplingSpec, DriveSpec, ModeSpec, NetworkSpec,
                      TopologyParams, build_network, matched_coupling,
                      validate, wrap_phase)
from .nonreciprocity import (IsolationResult, PhaseLandscape,
                             drive_relocation_energies, isolation,
                             phase_landscape, triangle_network, window_check)
from .observables import (EnergyCurve, GainReport, PowerCurve, energy_curve,
                          gain_report, max_power, power_curve, steady_energy)
from .sweep import apply_sweep_value, run_sweep

__all__ = [
    "ConfigError", "CouplingSpec", "DriveSpec", "EffectiveLink",
    "EnergyCurve", "FIGURE_COLUMNS", "FIGURE_IDS", "GainReport",
    "IsolationResult", "LinearSystem", "LogFitResult", "ModeSpec",
    "NetworkSpec", "NoSteadyStateError", "PhaseLandscape", "PowerCurve",
    "QbnetError", "RunConfig", "ScanEdgeError", "SteadyState",
    "SweepTable", "TopologyParams", "Trajectory", "UnstableSystemError",
    "ValidationError", "apply_sweep_value", "assemble", "build_network",
    "cascaded_nr_energy", "drive_relocation_energies", "effective_link",
    "effective_steady_amplitudes", "effective_steady_energy",
    "energy_curve", "evolve", "figure_table", "g_opt_odd", "gain_approx",
    "gain_bounds", "gain_report", "is_stable", "isolation", "logfit_ratio",
    "matched_coupling", "max_power", "network_from_dict",
    "network_to_dict", "parallel_nr_energy", "parallel_r1_energy",
    "parse_run_config", "phase_landscape", "power_curve",
    "run_config_to_dict", "run_config_to_json", "run_figure", "run_sweep",
    "steady_energy", "steady_state", "topology_from_dict",
    "topology_to_dict", "triangle_network", "vacuum", "validate",
    "window_check", "wrap_phase", "write_csv", "write_json", "write_table",
]
