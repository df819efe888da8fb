"""Energies, charging power, maximum power and gain factors.

Everything here runs on the full network (intermediates included): the
topology parameters are filled into the dynamics matrix and solved or
propagated from vacuum; many points of one topology are solved as one
batch (``_steady_points``).  Stored energy is ``|amplitude|^2`` of the
target mode in units of the mode frequency, and charging power is
``P(t) = E(t) / t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (LinearSystem, _propagate_expm, _row, assemble_points,
                       evolve, steady_state, steady_states, vacuum)
from .network import TopologyParams
from .optimize import refine_argmax

#: a gain ratio with a denominator below this is reported as undefined
RATIO_FLOOR = 1e-300

#: the maximum-power scan reaches HORIZON_FACTOR / |spectral abscissa|
POWER_HORIZON_FACTOR = 50.0

#: the scan starts this factor below its reach (six decades)
POWER_SCAN_SPAN = 1e6

#: the variants a gain report compares, in the order they are solved
GAIN_VARIANTS = ("nr", "r1", "r2")

#: relative tolerance on t of the golden refinement of a power peak
POWER_REL_TOL = 1e-8

#: equal scan steps per octave [a, 2a]: spacing a/145 is at most 0.69%
#: of t, finer than a 2,000-point log grid over the same six decades
POWER_STEPS_PER_OCTAVE = 145


@dataclass(frozen=True)
class EnergyCurve:
    """Stored energy of one mode over a time grid.

    ``method`` is the propagator that ran ("expm" or "augmented").
    """

    times: np.ndarray
    energy: np.ndarray
    mode: str
    method: str


@dataclass(frozen=True)
class PowerCurve:
    """Charging power E(t)/t of one mode over a positive time grid."""

    times: np.ndarray
    power: np.ndarray
    mode: str
    method: str


@dataclass(frozen=True)
class GainReport:
    """Steady energies and gain ratios of the three variants.

    Tuples are indexed by target battery (a single terminal battery
    for cascaded scenarios, every battery for parallel ones).  Entries
    in ``flags`` name ratios whose denominator vanished; those ratios
    are NaN.
    """

    params: TopologyParams
    targets: tuple
    e_nr: tuple
    e_r1: tuple
    e_r2: tuple
    g1: tuple
    g2: tuple
    p_max_nr: tuple | None = None
    p_max_r1: tuple | None = None
    p_max_r2: tuple | None = None
    eta1: tuple | None = None
    eta2: tuple | None = None
    flags: tuple = ()


def _default_target(params: TopologyParams) -> str:
    return f"b_{params.n}"


def _report_targets(params: TopologyParams) -> tuple:
    if params.family == "cascaded":
        return (f"b_{params.n}",)
    return tuple(f"b_{k}" for k in range(1, params.n + 1))


def _system(params: TopologyParams) -> LinearSystem:
    matrices, drives, index = assemble_points(params)
    return LinearSystem(matrices[0], drives[0], dict(index))


def _steady_points(params: TopologyParams, **columns) -> list:
    """Per point of a batch (``columns`` as in ``assemble_points``), its
    ``(steady amplitudes, index)`` or the error refusing it."""
    matrices, drives, index = assemble_points(params, **columns)
    return [state if isinstance(state, Exception) else (state.amplitudes, index)
            for state in steady_states(matrices, drives)]


def _gain_points(params: TopologyParams, **columns) -> dict:
    """``_steady_points`` of each gain variant: ``nr`` and ``r2`` share a
    layout, so they are one batch of twice the points."""
    points = len(next(iter(columns.values()))) if columns else 1
    both = {f: list(v) * 2 for f, v in columns.items()}
    both["variant"] = ["nr"] * points + ["r2"] * points
    links = _steady_points(params, **both)
    return {"nr": links[:points],
            "r1": _steady_points(params.with_variant("r1"), **columns),
            "r2": links[points:]}


def _energy(point, target: str) -> float:
    """``|alpha_ss(target)|^2`` of one solved point; a refused point
    raises its error."""
    if isinstance(point, Exception):
        raise point
    amplitudes, index = point
    return float(abs(amplitudes[_row(index, target)]) ** 2)


def steady_energy(params: TopologyParams, target: str | None = None) -> float:
    """Steady stored energy ``|alpha_ss(target)|^2`` of the full network."""
    return _energy(_steady_points(params)[0], target or _default_target(params))


def energy_curve(params: TopologyParams, target: str | None = None,
                 times=None) -> EnergyCurve:
    """E(t) of the target mode, starting from vacuum."""
    if times is None:
        raise ValueError("times grid is required")
    sys = _system(params)
    target = target or _default_target(params)
    traj = evolve(sys, vacuum(sys), times)
    energy = np.abs(traj.mode(target)) ** 2
    return EnergyCurve(traj.times, energy, target, traj.method)


def power_curve(params: TopologyParams, target: str | None = None,
                times=None) -> PowerCurve:
    """P(t) = E(t)/t on a strictly positive time grid."""
    if times is None:
        raise ValueError("times grid is required")
    times = np.asarray(times, dtype=float)
    if times.size and times[0] <= 0:
        raise ValueError(f"power needs t > 0 everywhere, got t={times[0]}")
    curve = energy_curve(params, target, times)
    return PowerCurve(curve.times, curve.energy / curve.times, curve.mode,
                      curve.method)


def _octave_grid(t_lo: float, span: float) -> np.ndarray:
    """Octaves ``[a, 2a]`` from ``t_lo`` until ``span * t_lo`` is covered,
    each sampled with ``POWER_STEPS_PER_OCTAVE`` equal steps."""
    octaves = int(np.ceil(np.log2(span)))
    starts = t_lo * 2.0 ** np.arange(octaves)
    steps = np.arange(POWER_STEPS_PER_OCTAVE)
    grid = starts[:, None] + (starts / POWER_STEPS_PER_OCTAVE)[:, None] * steps
    return np.append(grid.ravel(), t_lo * 2.0 ** octaves)


def _peak_powers(sys: LinearSystem, alpha_ss: np.ndarray, targets,
                 rel_tol: float) -> list:
    """``(t_star, p_max)`` of every target, all read off one octave scan."""
    t_hi = POWER_HORIZON_FACTOR / abs(sys.abscissa)
    rows = [sys.row(t) for t in targets]
    offset = vacuum(sys) - alpha_ss

    def power(amps, row, times):
        return np.abs(amps[:, row] + alpha_ss[row]) ** 2 / times

    def power_at(t, row):
        times = np.array([t])
        return float(power(_propagate_expm(sys.matrix, offset, times), row, times)[0])

    grid = _octave_grid(t_hi / POWER_SCAN_SPAN, POWER_SCAN_SPAN)
    amps = _propagate_expm(sys.matrix, offset, grid)
    return [refine_argmax(lambda t, row=row: power_at(t, row), grid,
                          power(amps, row, grid), rel_tol) for row in rows]


def max_power(params: TopologyParams, target: str | None = None,
              rel_tol: float = POWER_REL_TOL):
    """Maximise P(t) over charging time; return ``(t_star, p_max)``.

    A scan locates the peak over six decades of charging time, from
    ``t_hi / 1e6`` to ``t_hi = 50 / |spectral abscissa|``: 20 octaves of
    145 equal steps each, so the stepping propagator spends one
    ``expm`` per octave.  Golden-section refinement between the
    argmax's grid neighbours then polishes t to ``rel_tol`` relative.
    A scan peaking on an end of its grid raises ``ScanEdgeError``.
    """
    sys = _system(params)
    alpha_ss = steady_state(sys).amplitudes
    return _peak_powers(sys, alpha_ss, (target or _default_target(params),),
                        rel_tol)[0]


def _ratio(numer: float, denom: float, name: str, flags: list) -> float:
    if denom < RATIO_FLOOR:
        flags.append(name)
        return float("nan")
    return numer / denom


def _ratios(values: dict, name: str, targets, flags: list) -> tuple:
    """``nr / r1`` and ``nr / r2`` per target, flagged ``{name}1[target]``
    and ``{name}2[target]`` where undefined."""
    return tuple(tuple(_ratio(values["nr"][i], values[v][i], f"{name}{k}[{t}]", flags)
                       for i, t in enumerate(targets))
                 for k, v in ((1, "r1"), (2, "r2")))


def _gains_row(params: TopologyParams, target, point) -> list:
    """``[E_nr, E_r1, E_r2, G1, G2]`` at ``target`` (a report target,
    else the last one) off ``point(variant)``, the solved point of each
    gain variant; the first refused variant raises."""
    targets = _report_targets(params)
    target = target if target in targets else targets[-1]
    energies = {v: (_energy(point(v), target),) for v in GAIN_VARIANTS}
    return [*(e for e, in energies.values()),
            *(g for g, in _ratios(energies, "G", (target,), []))]


def gain_report(params_base: TopologyParams, include_power: bool = False) -> GainReport:
    """Steady energies of the r1/r2/nr variants and their gain ratios.

    The three variants share every parameter except the variant tag.
    Cascaded scenarios report the terminal battery; parallel ones
    report each battery.  ``include_power`` adds maximum-power triples
    and the corresponding eta ratios.  Each variant is assembled and
    solved once: as a batch without ``include_power``, else as a system
    whose maximum powers all come off one scan.
    """
    targets = _report_targets(params_base)
    if include_power:
        systems = {v: _system(params_base.with_variant(v)) for v in GAIN_VARIANTS}
        points = {v: (steady_state(sys).amplitudes, sys.index)
                  for v, sys in systems.items()}
    else:
        points = {v: solved[0] for v, solved in _gain_points(params_base).items()}
    energies = {v: tuple(_energy(points[v], t) for t in targets)
                for v in GAIN_VARIANTS}
    flags: list = []
    gains = _ratios(energies, "G", targets, flags)
    if not include_power:
        return GainReport(params_base, targets, *energies.values(), *gains,
                          flags=tuple(flags))
    power = {v: tuple(p for _, p in _peak_powers(sys, points[v][0], targets,
                                                 POWER_REL_TOL))
             for v, sys in systems.items()}
    return GainReport(params_base, targets, *energies.values(), *gains,
                      *power.values(), *_ratios(power, "eta", targets, flags),
                      tuple(flags))
