"""Reference datasets: one CSV per figure panel, fixed parameter sets.

Panel ids fig2a..fig2f, fig3a..fig3d and fig4a..fig4d reproduce the
headline scenarios: fig2/fig3 use decay 0.1 for every mode (charger,
batteries and intermediates alike) with unit drive and matched
intermediate couplings; fig4 uses the fast-intermediate regime (mode
decay 5e-4, intermediate decay 1).  Sweep ranges and grid densities
are declared in each table's metadata; column names are a public
contract.
"""

from __future__ import annotations

import numpy as np

from .closed_forms import g_opt_odd, logfit_ratio
from .export import SweepTable, write_table
from .network import TopologyParams
from .nonreciprocity import _landscape_table, phase_landscape
from .observables import (GAIN_VARIANTS, _etas, _gain_columns, _gain_points,
                          _raise_first, energy_curve, power_curve)

#: fig2/fig3 regime
GAMMA_WEAK = 0.1
#: fig4 regime
GAMMA_POWER = 5e-4
GAMMA_INTERMEDIATE_POWER = 1.0
XI = 1.0

#: direct-coupling sweep for the energy/gain panels
ENERGY_SWEEP = np.linspace(0.001, 0.3, 301)
#: direct-coupling sweep for the power-gain panels
POWER_SWEEP = np.geomspace(0.001, 0.1, 21)
#: time grid of the charging-dynamics panel
DYNAMICS_TIMES = np.linspace(0.0, 2000.0, 2001)
#: time grid of the power-curve panels
POWER_TIMES = np.geomspace(1.0, 2e5, 1001)
#: ``_curve_panel`` arguments after the family: fig3d, then fig4a/fig4b
_DYNAMICS_CURVE = (GAMMA_WEAK / 100, GAMMA_WEAK, GAMMA_WEAK, DYNAMICS_TIMES,
                   "linear 2001 points on [0, 2000]", False)
_POWER_CURVE = (GAMMA_POWER / 10, GAMMA_POWER, GAMMA_INTERMEDIATE_POWER,
                POWER_TIMES, "log 1001 points on [1, 2e5]", True)
LANDSCAPE_POINTS = 41


def _params(family, variant, n, g_b, gamma, Gamma, thetas=None):
    return TopologyParams(family=family, variant=variant, n=n, g_b=g_b,
                          gamma_c=gamma, gamma_b=gamma, Gamma=Gamma, xi=XI,
                          thetas=thetas)


def _base_metadata(family, n, gamma, Gamma, extra=None):
    md = {"family": family, "n": str(n), "gamma": repr(gamma),
          "Gamma": repr(Gamma), "xi": repr(XI),
          "matched_couplings": "sqrt(g_b*Gamma/2)"}
    if extra:
        md.update(extra)
    return md


def _landscape_panel(name, family):
    g_b = 0.1 * GAMMA_WEAK
    params = _params(family, "custom", 2, g_b, GAMMA_WEAK, GAMMA_WEAK,
                     thetas=(0.0, 0.0))
    scape = phase_landscape(params, target="b_2", grid_points=LANDSCAPE_POINTS)
    columns, rows, argmax = _landscape_table(scape)
    md = _base_metadata(family, 2, GAMMA_WEAK, GAMMA_WEAK,
                        {"g_b": repr(g_b), "target": "b_2",
                         "grid": f"{LANDSCAPE_POINTS} points per axis over (-pi, pi]",
                         "argmax": argmax})
    return SweepTable(name, columns, rows, md)


def _steady_panel(name, family, n, columns, part):
    """One ``ENERGY_SWEEP`` row per point: the ``part`` of
    ``[E_nr, E_r1, E_r2, G1, G2]`` at ``b_n``, from ``_gain_points``."""
    base = _params(family, "nr", n, GAMMA_WEAK, GAMMA_WEAK, GAMMA_WEAK)
    g_b = ENERGY_SWEEP * GAMMA_WEAK
    values, errors, _ = _gain_columns(base, None, _gain_points(base, g_b=g_b).get)
    _raise_first(errors)
    rows = np.column_stack((ENERGY_SWEEP, values[:, part])).tolist()
    md = _base_metadata(family, n, GAMMA_WEAK, GAMMA_WEAK,
                        {"sweep": "gb_over_gamma linear 301 points on [0.001, 0.3]",
                         "target": f"b_{n}"})
    return SweepTable(name, ("gb_over_gamma",) + columns, rows, md)


def _energy_panel(name, family, n):
    return _steady_panel(name, family, n, ("E_nr", "E_r1", "E_r2"), slice(3))


def _gain_panel(name, family, n):
    return _steady_panel(name, family, n, (f"G_{n}1", f"G_{n}2"), slice(3, 5))


def _fig2f():
    ns = tuple(range(1, 16, 2))
    fit = logfit_ratio(ns, gamma=GAMMA_WEAK, xi=XI)
    rows = [[n, g_opt_odd(n, GAMMA_WEAK), fit.ratio[i]]
            for i, n in enumerate(ns)]
    md = _base_metadata("cascaded", "1..15 odd", GAMMA_WEAK, GAMMA_WEAK,
                        {"logfit_k": repr(fit.coefficient),
                         "optimisation": "exact stationary points"})
    return SweepTable("fig2f", ("N", "gb_opt", "ratio_Emax"), rows, md)


def _curve_panel(name, family, g_b, gamma, Gamma, times, times_label, power):
    """E(t) of ``b_4``, or P(t) when ``power``, from vacuum, one column
    per gain variant of the n = 4 ``family`` network; ``method`` is the
    propagator of every curve, or ``variant=method`` per curve where
    they differ."""
    curves, methods = [], {}
    for variant in GAIN_VARIANTS:
        params = _params(family, variant, 4, g_b, gamma, Gamma)
        curve = (power_curve if power else energy_curve)(params, "b_4", times)
        curves.append(curve.power if power else curve.energy)
        methods[variant] = curve.method
    distinct = set(methods.values())
    method = (distinct.pop() if len(distinct) == 1
              else "; ".join(f"{v}={m}" for v, m in methods.items()))
    md = _base_metadata(family, 4, gamma, Gamma,
                        {"g_b": repr(g_b), "target": "b_4", "times": times_label,
                         "initial": "vacuum", "method": method})
    columns = tuple(f"{'P' if power else 'E'}_{v}" for v in GAIN_VARIANTS)
    return SweepTable(name, ("t",) + columns,
                      [[t, *values] for t, *values in zip(times, *curves)], md)


def _eta_panel(name, family):
    base = _params(family, "nr", 4, GAMMA_POWER, GAMMA_POWER,
                   GAMMA_INTERMEDIATE_POWER)
    solved = _gain_points(base, ("b_4",), g_b=POWER_SWEEP * GAMMA_POWER)
    _, etas, _ = _etas(solved.get, ("b_4",))
    rows = np.column_stack((POWER_SWEEP, *etas)).tolist()
    md = _base_metadata(family, 4, GAMMA_POWER, GAMMA_INTERMEDIATE_POWER,
                        {"sweep": "gb_over_gamma log 21 points on [0.001, 0.1]",
                         "target": "b_4"})
    return SweepTable(name, ("gb_over_gamma", "eta_41", "eta_42"), rows, md)


_BUILDERS = {
    "fig2a": lambda: _landscape_panel("fig2a", "cascaded"),
    "fig2b": lambda: _energy_panel("fig2b", "cascaded", 3),
    "fig2c": lambda: _energy_panel("fig2c", "cascaded", 4),
    "fig2d": lambda: _gain_panel("fig2d", "cascaded", 3),
    "fig2e": lambda: _gain_panel("fig2e", "cascaded", 4),
    "fig2f": _fig2f,
    "fig3a": lambda: _landscape_panel("fig3a", "parallel"),
    "fig3b": lambda: _energy_panel("fig3b", "parallel", 2),
    "fig3c": lambda: _gain_panel("fig3c", "parallel", 2),
    "fig3d": lambda: _curve_panel("fig3d", "parallel", *_DYNAMICS_CURVE),
    "fig4a": lambda: _curve_panel("fig4a", "cascaded", *_POWER_CURVE),
    "fig4b": lambda: _curve_panel("fig4b", "parallel", *_POWER_CURVE),
    "fig4c": lambda: _eta_panel("fig4c", "cascaded"),
    "fig4d": lambda: _eta_panel("fig4d", "parallel"),
}

FIGURE_IDS = tuple(sorted(_BUILDERS))

#: column contract per panel (covered by golden-file tests)
FIGURE_COLUMNS = {
    "fig2a": ("theta_1", "theta_2", "E_over_omega"),
    "fig2b": ("gb_over_gamma", "E_nr", "E_r1", "E_r2"),
    "fig2c": ("gb_over_gamma", "E_nr", "E_r1", "E_r2"),
    "fig2d": ("gb_over_gamma", "G_31", "G_32"),
    "fig2e": ("gb_over_gamma", "G_41", "G_42"),
    "fig2f": ("N", "gb_opt", "ratio_Emax"),
    "fig3a": ("theta_1", "theta_2", "E_over_omega"),
    "fig3b": ("gb_over_gamma", "E_nr", "E_r1", "E_r2"),
    "fig3c": ("gb_over_gamma", "G_21", "G_22"),
    "fig3d": ("t", "E_nr", "E_r1", "E_r2"),
    "fig4a": ("t", "P_nr", "P_r1", "P_r2"),
    "fig4b": ("t", "P_nr", "P_r1", "P_r2"),
    "fig4c": ("gb_over_gamma", "eta_41", "eta_42"),
    "fig4d": ("gb_over_gamma", "eta_41", "eta_42"),
}


def figure_table(fig_id: str) -> SweepTable:
    """Compute one panel's table."""
    try:
        builder = _BUILDERS[fig_id]
    except KeyError:
        raise ValueError(
            f"unknown figure id {fig_id!r}; choose from {', '.join(FIGURE_IDS)}"
        ) from None
    return builder()


def run_figure(fig_id: str, out_dir: str, fmt: str = "csv",
               deterministic: bool = False) -> list:
    """Compute and write one panel; return the written paths."""
    table = figure_table(fig_id)
    return write_table(table, out_dir, fmt, deterministic)
