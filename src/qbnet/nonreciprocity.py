"""Directionality of triangle links and phase landscapes.

Directionality is assessed two ways that must agree: the effective-link
coefficients left after eliminating the lossy intermediate, and a
drive-relocation probe on the full three-mode network (drive the
battery instead of the charger and compare the transmitted energies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import assemble_points, steady_states
from .errors import ValidationError
from .network import WITH_FREE_PHASES, TopologyParams
from .observables import _default_target, _raise_first, _steady_points

#: landscape grid values within this relative slack of the maximum tie
ARGMAX_TIE_REL = 1e-9

#: most grid points a landscape solves: n=3 at 41 points per axis is
#: 68,921 points and a 210 MB process peak, n=4 would be 2.8 million
MAX_LANDSCAPE_POINTS = 200_000


@dataclass(frozen=True)
class IsolationResult:
    """Squared forward/backward link magnitudes at one phase."""

    theta: float
    forward_t: float
    backward_t: float
    ratio: float


@dataclass(frozen=True)
class PhaseLandscape:
    """Steady target energy over a grid of direct-coupling phases.

    ``energy`` has one axis per direct coupling; ``argmax`` lists every
    grid tuple whose energy ties the maximum (ties are reported, never
    broken).
    """

    theta_grids: tuple
    energy: np.ndarray
    argmax: tuple
    target: str


def isolation(theta: float, g_b: float, Gamma: float) -> IsolationResult:
    """Forward/backward transmission of one matched triangle link.

    At matched coupling the squared magnitudes reduce to
    ``2 g_b^2 (1 -/+ sin theta)``, so forward wins exactly for
    ``theta`` in (-pi, 0) and the backward path closes at -pi/2.
    """
    if Gamma <= 0:
        raise ValueError(f"Gamma must be > 0, got {Gamma!r}")
    s = math.sin(theta)
    forward_t = 2.0 * g_b * g_b * (1.0 - s)
    backward_t = 2.0 * g_b * g_b * (1.0 + s)
    ratio = forward_t / backward_t if backward_t > 0 else math.inf
    return IsolationResult(theta, forward_t, backward_t, ratio)


def _check_phase(theta: float) -> None:
    if not -math.pi < theta <= math.pi:
        raise ValidationError([f"theta {theta!r} outside (-pi, pi]"])


def window_check(theta: float) -> bool:
    """True iff the phase gives forward-dominant transfer.

    Valid input is (-pi, pi]; the forward window is the open interval
    (-pi, 0).
    """
    _check_phase(theta)
    return -math.pi < theta < 0.0


def drive_relocation_energies(theta: float, g_b: float, Gamma: float,
                              gamma: float, xi: complex = 1.0):
    """Full-network probe: ``(E_b forward-driven, E_c backward-driven)``
    on the one-link cascaded ``custom`` network.

    Both configurations use decay-symmetric endpoints, so the ratio of
    the two energies equals the forward/backward transmission ratio of
    the link exactly.
    """
    _check_phase(theta)
    stack, drives, (index, *_) = assemble_points(TopologyParams(
        "cascaded", "custom", 1, g_b, gamma, gamma, Gamma, xi, (theta,)), xi=[xi, 0.0])
    c, b = index["c"], index["b_1"]
    drives[1, b] = drives[0, c]
    amplitudes, _, _, errors = steady_states(stack, drives)
    _raise_first(errors)
    return float(abs(amplitudes[0, b]) ** 2), float(abs(amplitudes[1, c]) ** 2)


def phase_landscape(params: TopologyParams, target: str | None = None,
                    grid_points: int = 41) -> PhaseLandscape:
    """Steady target energy on a phase grid over (-pi, pi] per link.

    Accepts ``custom`` variants (full triangles) and ``r1`` (direct
    couplings only, where the landscape is flat for loop-free graphs).
    The grid excludes -pi and includes +pi; every energy is a full
    network solve, all of them one batch, so a grid of more than
    ``MAX_LANDSCAPE_POINTS`` points is refused before anything is built.
    """
    if params.variant not in WITH_FREE_PHASES:
        raise ValueError(
            f"landscapes need a variant in {WITH_FREE_PHASES}, got {params.variant!r}")
    if grid_points < 21:
        raise ValueError(f"need at least 21 grid points per axis, got {grid_points}")
    if grid_points ** params.n > MAX_LANDSCAPE_POINTS:
        raise ValueError(
            f"{grid_points}^{params.n} grid points exceed the landscape limit "
            f"of {MAX_LANDSCAPE_POINTS}")
    target = target or _default_target(params)
    grid = np.linspace(-math.pi, math.pi, grid_points + 1)[1:]
    grids = (grid,) * params.n
    shape = (grid_points,) * params.n
    batch = _steady_points(params, thetas=grid[np.indices(shape).reshape(params.n, -1).T])
    _raise_first(batch.errors)
    energy = batch.energies(target).reshape(shape)
    peak = float(energy.max())
    tie = peak - abs(peak) * ARGMAX_TIE_REL
    argmax = tuple(tuple(grid[combo].tolist()) for combo in np.argwhere(energy >= tie))
    return PhaseLandscape(grids, energy, argmax, target)


def _landscape_table(scape: PhaseLandscape) -> tuple:
    """``(columns, rows, argmax)`` of a landscape table: one
    ``[theta_1, ..., theta_n, E_over_omega]`` row per grid point, and its
    ties as ``(theta_1, ..., theta_n)`` text."""
    axes = np.meshgrid(*scape.theta_grids, indexing="ij")
    rows = np.column_stack([*(a.ravel() for a in axes), scape.energy.ravel()]).tolist()
    argmax = "; ".join("(" + ", ".join(f"{t:.10g}" for t in peak) + ")"
                       for peak in scape.argmax)
    columns = tuple(f"theta_{k}" for k in range(1, len(axes) + 1)) + ("E_over_omega",)
    return columns, rows, argmax
