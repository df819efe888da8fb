"""Energies, charging power, maximum power and gain factors.

Everything here runs on the full network (intermediates included): the
topology parameters are built, assembled and solved or propagated from
vacuum.  Stored energy is ``|amplitude|^2`` of the target mode in units
of the mode frequency, and charging power is ``P(t) = E(t) / t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (_propagate_expm, assemble, evolve, is_stable,
                       steady_state, vacuum)
from .network import TopologyParams, build_network
from .optimize import refine_argmax

#: a gain ratio with a denominator below this is reported as undefined
RATIO_FLOOR = 1e-300

#: the maximum-power scan reaches HORIZON_FACTOR / |spectral abscissa|
POWER_HORIZON_FACTOR = 50.0

#: the scan starts this factor below its reach (six decades)
POWER_SCAN_SPAN = 1e6

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


def _system(params: TopologyParams):
    return assemble(build_network(params))


def _steady_energies(params: TopologyParams, targets) -> tuple:
    """``|alpha_ss(t)|^2`` of every target, read off one steady solve."""
    sys = _system(params)
    amplitudes = steady_state(sys).amplitudes
    return tuple(float(abs(amplitudes[sys.row(t)]) ** 2) for t in targets)


def steady_energy(params: TopologyParams, target: str | None = None) -> float:
    """Steady stored energy ``|alpha_ss(target)|^2`` of the full network."""
    return _steady_energies(params, (target or _default_target(params),))[0]


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


def max_power(params: TopologyParams, target: str | None = None,
              rel_tol: float = 1e-8):
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
    abscissa = is_stable(sys)[1]
    row = sys.row(target or _default_target(params))
    offset = vacuum(sys) - alpha_ss

    def power(times):
        amps = _propagate_expm(sys.matrix, offset, times)[:, row]
        return np.abs(amps + alpha_ss[row]) ** 2 / times

    def power_at(t):
        return float(power(np.array([t]))[0])

    t_hi = POWER_HORIZON_FACTOR / abs(abscissa)
    grid = _octave_grid(t_hi / POWER_SCAN_SPAN, POWER_SCAN_SPAN)
    return refine_argmax(power_at, grid, power(grid), rel_tol)


def _ratio(numer: float, denom: float, name: str, flags: list) -> float:
    if denom < RATIO_FLOOR:
        flags.append(name)
        return float("nan")
    return numer / denom


def gain_report(params_base: TopologyParams, include_power: bool = False) -> GainReport:
    """Steady energies of the r1/r2/nr variants and their gain ratios.

    The three variants share every parameter except the variant tag.
    Cascaded scenarios report the terminal battery; parallel ones
    report each battery.  ``include_power`` adds maximum-power triples
    and the corresponding eta ratios.
    """
    if params_base.family == "cascaded":
        targets = (f"b_{params_base.n}",)
    else:
        targets = tuple(f"b_{k}" for k in range(1, params_base.n + 1))
    variants = {v: params_base.with_variant(v) for v in ("nr", "r1", "r2")}
    energies = {v: _steady_energies(p, targets) for v, p in variants.items()}
    flags: list = []
    g1 = tuple(_ratio(energies["nr"][i], energies["r1"][i], f"G1[{t}]", flags)
               for i, t in enumerate(targets))
    g2 = tuple(_ratio(energies["nr"][i], energies["r2"][i], f"G2[{t}]", flags)
               for i, t in enumerate(targets))
    report = GainReport(params_base, targets, energies["nr"], energies["r1"],
                        energies["r2"], g1, g2, flags=tuple(flags))
    if not include_power:
        return report
    power = {v: tuple(max_power(p, t)[1] for t in targets)
             for v, p in variants.items()}
    eta1 = tuple(_ratio(power["nr"][i], power["r1"][i], f"eta1[{t}]", flags)
                 for i, t in enumerate(targets))
    eta2 = tuple(_ratio(power["nr"][i], power["r2"][i], f"eta2[{t}]", flags)
                 for i, t in enumerate(targets))
    return GainReport(params_base, targets, energies["nr"], energies["r1"],
                      energies["r2"], g1, g2, power["nr"], power["r1"],
                      power["r2"], eta1, eta2, tuple(flags))
