"""Energies, charging power, maximum power and gain factors.

Everything here runs on the full network (intermediates included): the
topology parameters are filled into the dynamics matrix and solved or
propagated from vacuum; many points of one topology are solved as one
batch (``_steady_points``: amplitudes as a (P, n) array and the refused
points' errors), and their charging-power peaks found as one
(``_power_points``); both return a ``Batch``.  Energies and gains are
read off a batch as vectors.  Stored energy is ``|amplitude|^2`` of the
target mode in units of the mode frequency, and charging power is
``P(t) = E(t) / t``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .dynamics import (_BAND_MIN_MODES, LinearSystem, _abscissas, _newton, _octave_scan,
                       _row, assemble_points, evolve, steady_states, vacuum)
from .errors import ScanEdgeError
from .network import TopologyParams

#: a gain ratio with a denominator below this (or a quotient that is not
#: finite) is reported as undefined
RATIO_FLOOR = 1e-300

#: the maximum-power scan reaches HORIZON_FACTOR / |spectral abscissa|
POWER_HORIZON_FACTOR = 50.0

#: the scan starts this factor below its reach (six decades)
POWER_SCAN_SPAN = 1e6

#: the variants a gain report compares, in the order they are solved
GAIN_VARIANTS = ("nr", "r1", "r2")

#: equal scan steps per octave [a, 2a]: spacing a/145 is at most 0.69%
#: of t, finer than a 2,000-point log grid over the same six decades
POWER_STEPS_PER_OCTAVE = 145

#: an energy or a peak power that overflows to inf, and its gain of
#: inf / inf, are flagged: ``_gains``, ``_gain_powers``, ``_etas`` and a
#: sweep's ``_energy_columns`` and ``_peak_columns`` raise no numpy warning
#: for them (one decorator, not a fresh ``np.errstate`` per call).  Only
#: these callers, whose results are flagged, carry it, and none of them
#: calls another: ``steady_energy`` and ``max_power`` still warn of an
#: overflow
_FLAGGED_LATER = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class EnergyCurve:
    """Stored energy of one mode over a time grid.

    ``method`` is ``Trajectory.method`` of the propagation.
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
    in ``flags`` name undefined ratios (a vanished denominator or a
    quotient that is not finite); those ratios are NaN.
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
        return (_default_target(params),)
    return tuple(f"b_{k}" for k in range(1, params.n + 1))


def _system(params: TopologyParams) -> LinearSystem:
    stack, drives, (index, *_) = assemble_points(params)
    return LinearSystem(stack.dense[0], drives[0], dict(index))


class Batch(NamedTuple):
    """P solved points of one topology: steady ``amplitudes`` (P, n), NaN
    where ``errors`` maps a point to its refusal, columns by mode id in
    ``index``; a power batch adds ``peaks`` (P, T, 2), ``(t_star, p_max)``
    per target, NaN where ``peak_errors`` maps the point to its refusal or
    to the ``ScanEdgeError`` of its first edge target."""

    amplitudes: np.ndarray
    errors: dict
    index: Mapping
    peaks: np.ndarray | None = None
    peak_errors: dict | None = None

    def energies(self, *targets) -> np.ndarray:
        """``|a|^2`` (P, len(targets)) at ``targets``, by ``_energies``."""
        return _energies([self], targets)

    def parts(self, count: int) -> list:
        """The batch cut into ``count`` runs of equal length, each renumbered from 0."""
        size = len(self.amplitudes) // count

        def cut(errors, k):
            return {i - k * size: e for i, e in errors.items() if i // size == k}
        return [Batch(self.amplitudes[k * size:(k + 1) * size], cut(self.errors, k), self.index,
                      *(() if self.peaks is None else
                        (self.peaks[k * size:(k + 1) * size], cut(self.peak_errors, k))))
                for k in range(count)]


def _energies(batches, targets) -> np.ndarray:
    """``|a|^2`` at ``targets`` of the points of ``batches``, one batch after
    another, (P, len(targets)) in one pass, rounded as the scalar
    ``abs(a) ** 2``, by ``hypot`` and libm ``pow`` (array ``np.abs`` and
    ``** 2`` differ in the last bit)."""
    taken = [b.amplitudes.take([_row(b.index, t) for t in targets], axis=1) for b in batches]
    a = taken[0] if len(taken) == 1 else np.concatenate(taken)
    return np.float_power(np.hypot(a.real, a.imag), 2.0)


def _steady_points(params: TopologyParams, **columns) -> Batch:
    """A solved ``Batch`` (``columns`` as in ``assemble_points``),
    ``errors`` as in ``steady_states``."""
    stack, drives, (index, *_) = assemble_points(params, **columns)
    amplitudes, _, _, errors = steady_states(stack, drives)
    return Batch(amplitudes, errors, index)


def _gain_batches(params: TopologyParams, targets=None, **columns) -> list:
    """The solved points of the gain variants, variant after variant in
    ``GAIN_VARIANTS`` order: one joint batch or one batch per variant.
    Steady (``targets`` None): while nr, r1 and r2 fit one dense stack
    (below ``_BAND_MIN_MODES`` modes, where the fixed cost of a batch
    dominates), one ``_steady_points`` batch of the three in turn, so one
    assemble, one certificate and one solve; r1 fills the intermediates
    layout with its intermediate coupling at 0, and nothing drives those
    decoupled modes, so its battery amplitudes are r1's own.  Their decay,
    Gamma / 2, can still fail the gate where r1 passes, so when it refuses
    an r1 point r1 is solved again in its own layout, whose verdicts are
    r1's; a joint batch that refuses any point is cut by variant.  Longer
    networks, and power (``_gain_powers``), solve nr and r2 as one batch of
    twice the points and r1 alone in its own, smaller layout."""
    points = len(next(iter(columns.values()))) if columns else 1
    if targets is not None:
        return _gain_powers(params, targets, points, columns)
    variants = GAIN_VARIANTS if 2 * params.n + 1 < _BAND_MIN_MODES else ("nr", "r2")
    repeated = {f: np.concatenate((v,) * len(variants)) for f, v in columns.items()}
    stacked = _steady_points(params, **repeated,
                             variant=sum(([v] * points for v in variants), []))
    if len(variants) == 3 and not stacked.errors:
        return [stacked]
    solved = stacked.parts(len(variants))
    if len(variants) == 2 or solved[1].errors:
        solved[1:-1] = [_steady_points(params, **columns, variant=["r1"] * points)]  # r1 alone
    return solved


def _gain_points(params: TopologyParams, targets=None, **columns) -> dict:
    """The batch of each gain variant: ``_gain_batches``, a joint batch cut."""
    solved = _gain_batches(params, targets, **columns)
    return dict(zip(GAIN_VARIANTS, solved[0].parts(3) if len(solved) == 1 else solved))


@_FLAGGED_LATER
def _gain_powers(params: TopologyParams, targets, points, columns) -> list:
    """``_gain_batches``' power route, whose overflowing peaks ``_etas``
    flags: nr and r2 as one batch of twice the ``points``, r1 alone."""
    both = {f: np.concatenate((v, v)) for f, v in columns.items()}
    links = _power_points(params, targets, **both, variant=["nr"] * points + ["r2"] * points)
    nr, r2 = links.parts(2)
    return [nr, _power_points(params, targets, **columns, variant=["r1"] * points), r2]


def _raise_first(errors: dict) -> None:
    """Raise the error of the first refused point, if any."""
    if errors:
        raise errors[min(errors)]


def _first_errors(maps) -> dict:
    """Per point, its error in the first of the error ``maps`` holding one."""
    return {i: error for found in reversed(maps) for i, error in found.items()}


def steady_energy(params: TopologyParams, target: str | None = None) -> float:
    """Steady stored energy ``|alpha_ss(target)|^2`` of the full network."""
    batch = _steady_points(params)
    _raise_first(batch.errors)
    return float(batch.energies(target or _default_target(params))[0, 0])


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


def _octave_grid(t_lo: np.ndarray, span: float) -> np.ndarray:
    """Per start in ``t_lo``, octaves ``[a, 2a]`` from it until
    ``span * t_lo`` is covered, each sampled with
    ``POWER_STEPS_PER_OCTAVE`` equal steps: a (P, T) array, filled in
    place."""
    octaves = int(np.ceil(np.log2(span)))
    steps = POWER_STEPS_PER_OCTAVE
    starts = t_lo[:, None] * 2.0 ** np.arange(octaves)
    grid = np.empty((len(t_lo), octaves * steps + 1))
    body = grid[:, :-1].reshape(len(t_lo), octaves, steps)
    np.multiply((starts / steps)[..., None], np.arange(steps), out=body)
    body += starts[..., None]
    grid[:, -1] = t_lo * 2.0 ** octaves
    return grid


def _peak_powers(matrices, alpha_ss, abscissas, rows, scale) -> tuple:
    """Per slice of a stack of decaying networks, from vacuum, the
    ``(t_star, p_max)`` (S, T, 2) of each target row, NaN where the scan
    peaks on its edge, and each such slice's first ``ScanEdgeError``;
    ``alpha_ss`` are the steady states at unit drive, and each slice's
    ``p_max`` is multiplied by its ``scale``, ``|xi|^2``.

    The scan propagates the offsets ``alpha0 - alpha_ss`` over each
    slice's octave grid to ``t_hi = 50 / |abscissa|`` (``_octave_scan``):
    one stacked ``expm`` for the first point and one ``_doublings`` call
    whose doublings are every octave's step and its powers, keeping only
    the target rows; the peak of each (slice, target) pair is refined by
    ``_newton`` between the scan argmax's grid neighbours, and the
    better of the refined point and the scan point is kept.
    """
    t_hi = POWER_HORIZON_FACTOR / np.abs(abscissas)
    grid = _octave_grid(t_hi / POWER_SCAN_SPAN, POWER_SCAN_SPAN)
    offsets = -alpha_ss
    alpha_rows = alpha_ss[:, rows]
    x = _octave_scan(matrices, offsets, grid[:, 0], grid.shape[1] // POWER_STEPS_PER_OCTAVE,
                     POWER_STEPS_PER_OCTAVE, rows)
    x += alpha_rows[:, None]
    power = np.abs(x) ** 2 / grid[..., None]
    argmax = power.argmax(axis=1)
    edge = (argmax == 0) | (argmax == grid.shape[1] - 1)
    errors: dict = {}
    for s, k in zip(*edge.nonzero()):
        i = argmax[s, k]
        errors.setdefault(int(s), ScanEdgeError(
            f"scan maximum {power[s, i, k]:.6g} at the grid edge x = {grid[s, i]:.6g}; "
            f"the maximum may lie outside [{grid[s, 0]:.6g}, {grid[s, -1]:.6g}]",
            edge=float(grid[s, i])))
    peaks = np.full(edge.shape + (2,), np.nan)
    s, k = (~edge).nonzero()
    if s.size:
        i = argmax[s, k]
        t, p = _newton(matrices[s], offsets[s], alpha_rows[s, k], rows[k],
                       grid[s, i], grid[s, i - 1], grid[s, i + 1])
        scan_t, scan_p = grid[s, i], power[s, i, k]
        keep = scan_p > p
        peaks[s, k, 0] = np.where(keep, scan_t, t)
        peaks[s, k, 1] = np.where(keep, scan_p, p) * scale[s]
    return peaks, errors


def _power_points(params: TopologyParams, targets, **columns) -> Batch:
    """``_steady_points`` plus ``peaks`` from vacuum at ``targets`` and
    their ``peak_errors``.  One batched ``eigvals`` gives every horizon
    and stands in for the gate's dense abscissa.

    Every amplitude is linear in the drive ``xi``, so the peaks are
    searched at unit drive: ``t_star`` does not depend on ``xi`` and
    ``p_max`` scales with ``|xi|^2`` (0 for an undriven network)."""
    stack, drives, (index, *_) = assemble_points(params, **columns)
    rows = np.array([_row(index, t) for t in targets], dtype=np.intp)
    matrices = stack.dense  # the propagators' stack, shared with the gate's dense LU
    abscissas = _abscissas(matrices)
    amplitudes, _, _, errors = steady_states(stack, drives, abscissas)
    points = len(matrices)
    kept = np.setdiff1d(np.arange(points), list(errors))
    peaks, peak_errors = np.full((points, len(rows), 2), np.nan), dict(errors)
    if kept.size:
        xi = np.asarray(columns.get("xi", [params.xi] * points), dtype=complex)[kept]
        unit = amplitudes
        if np.any(xi != 1.0):
            unit_drives = np.zeros_like(drives)
            unit_drives[:, 0] += -1j  # as ``assemble_points`` writes xi = 1
            unit = steady_states(stack, unit_drives, abscissas)[0]
        peaks[kept], edges = _peak_powers(matrices[kept], unit[kept], abscissas[kept],
                                          rows, np.abs(xi) ** 2)
        peak_errors.update((int(kept[s]), e) for s, e in edges.items())
    return Batch(amplitudes, errors, index, peaks, peak_errors)


def max_power(params: TopologyParams, target: str | None = None):
    """Maximise P(t) over charging time; return ``(t_star, p_max)``.

    A scan locates the peak over six decades of charging time, from
    ``t_hi / 1e6`` to ``t_hi = 50 / |spectral abscissa|``: 20 octaves of
    145 equal steps each, read off one ``expm`` of the first point and one
    doubling call whose doublings ``e^{2^k M h_0}`` are every octave's
    step and its powers (``dynamics._octave_scan``).  A safeguarded Newton
    search for the root of dP/dt between the argmax's grid neighbours
    then polishes t until its step is below 1e-8 relative, one
    ``expm`` per step.  A scan peaking on an end of its grid raises
    ``ScanEdgeError``.  The search runs at unit drive and ``p_max`` is
    scaled by ``|xi|^2``, so an undriven network gives ``p_max = 0`` at
    the driven one's ``t_star``.  This is ``_power_points`` on a batch
    of one.
    """
    batch = _power_points(params, (target or _default_target(params),))
    _raise_first(batch.peak_errors)
    return tuple(batch.peaks[0, 0].tolist())


def _ratios(values: np.ndarray, name: str, targets) -> tuple:
    """``nr / r1`` and ``nr / r2`` of ``values`` (3, P, T) over ``GAIN_VARIANTS``
    and ``targets``; one is undefined when its denominator is below
    ``RATIO_FLOOR`` or its quotient is not finite: NaN, and named
    ``{name}1[target]`` or ``{name}2[target]`` in ``flags[p]``."""
    gains = values[0] / np.maximum(values[1:], RATIO_FLOOR)
    defined = np.isfinite(gains)
    defined &= values[1:] >= RATIO_FLOOR
    flags: dict = {}
    if np.count_nonzero(defined) < defined.size:
        undefined = ~defined
        gains[undefined] = np.nan
        for k, p, t in zip(*undefined.nonzero()):
            flags.setdefault(int(p), []).append(f"{name}{k + 1}[{targets[t]}]")
    return gains, flags


@_FLAGGED_LATER
def _gains(batches, targets) -> tuple:
    """Energies (3, P, T) at ``targets`` of the gain ``batches`` (as
    ``_gain_batches`` returns them; an iterator is drawn here, so that the
    solves it runs are flagged too), read in one pass, their ``_ratios``,
    and each refused point's error."""
    batches = list(batches)
    energies = _energies(batches, targets).reshape(len(GAIN_VARIANTS), -1, len(targets))
    return (energies, *_ratios(energies, "G", targets), _first_errors([b.errors for b in batches]))


@_FLAGGED_LATER
def _etas(batches, targets) -> tuple:
    """Peak powers (3, P, T) at ``targets`` of the power ``batches`` of the gain
    variants, and their ``_ratios``; raises the first peak error."""
    _raise_first(_first_errors([b.peak_errors for b in batches]))
    power = np.array([batch.peaks[..., 1] for batch in batches])
    return (power, *_ratios(power, "eta", targets))


def _gain_columns(params: TopologyParams, target, solved) -> tuple:
    """``([E_nr, E_r1, E_r2, G1, G2] (P, 5), errors, flags)`` at ``target``,
    by default the last battery."""
    energies, gains, flags, errors = _gains(map(solved, GAIN_VARIANTS),
                                            (target or _default_target(params),))
    return np.hstack([*energies, *gains]), errors, flags


@_FLAGGED_LATER
def _energy_columns(params: TopologyParams, target, solved) -> tuple:
    """``([steady_energy] (P, 1), errors, flags)`` of the batch
    ``solved(params.variant)`` at its one target: each point's refusal,
    else an overflowing energy as an ``OverflowError`` naming it."""
    batch = solved(params.variant)
    energies, errors = batch.energies(target), dict(batch.errors)
    for i in np.isinf(energies[:, 0]).nonzero()[0].tolist():
        errors.setdefault(i, OverflowError(f"steady_energy overflows to inf at {target}"))
    return energies, errors, {}


@_FLAGGED_LATER
def _peak_columns(params: TopologyParams, target, solved) -> tuple:
    """``([t_star, p_max] (P, 2), errors, flags)`` of the power batch
    ``solved(params.variant)`` at its one target: each point's peak error,
    else an overflowing ``p_max`` as an ``OverflowError`` naming it."""
    batch = solved(params.variant)
    peaks, errors = batch.peaks[:, 0], dict(batch.peak_errors)
    for i in np.isinf(peaks[:, 1]).nonzero()[0].tolist():
        errors.setdefault(i, OverflowError(
            f"p_max overflows to inf at {target} (t_star {peaks[i, 0]:.6g})"))
    return peaks, errors, {}


def gain_report(params_base: TopologyParams, include_power: bool = False) -> GainReport:
    """Steady energies of the r1/r2/nr variants and their gain ratios.

    The three variants share every parameter except the variant tag.
    Cascaded scenarios report the terminal battery; parallel ones
    report each battery.  ``include_power`` adds maximum-power triples
    and the corresponding eta ratios.  Without it the three variants are
    one batch below 24 batteries (``_gain_batches``): one assemble, one
    certificate and one solve, ``r1`` with its intermediates decoupled.
    With it ``nr`` and ``r2`` are one batch and ``r1`` another, and every
    battery's peak comes off one octave scan and one lockstep Newton
    search per batch (``_power_points``).
    """
    targets = _report_targets(params_base)
    batches = _gain_batches(params_base, targets if include_power else None)
    energies, gains, flags, errors = _gains(batches, targets)
    _raise_first(errors)
    columns = [energies, gains]
    if include_power:
        power, etas, eta_flags = _etas(batches, targets)
        columns += [power, etas]
        flags.setdefault(0, []).extend(eta_flags.get(0, ()))
    return GainReport(params_base, targets,
                      *[tuple(row) for c in columns for row in c[:, 0].tolist()],
                      flags=tuple(flags.get(0, ())))
