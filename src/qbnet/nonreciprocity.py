"""Directionality of triangle links and phase landscapes.

Directionality is assessed two ways that must agree: the effective-link
coefficients left after eliminating the lossy intermediate, and a
drive-relocation probe on the full three-mode network (drive the
battery instead of the charger and compare the transmitted energies).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import assemble, steady_state
from .network import (CouplingSpec, DriveSpec, ModeSpec, NetworkSpec,
                      TopologyParams, matched_coupling)
from .observables import _energy, _steady_points

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


def window_check(theta: float) -> bool:
    """True iff the phase gives forward-dominant transfer.

    Valid input is (-pi, pi]; the forward window is the open interval
    (-pi, 0).
    """
    if not -math.pi < theta <= math.pi:
        raise ValueError(f"theta {theta!r} outside (-pi, pi]")
    return -math.pi < theta < 0.0


def triangle_network(theta: float, g_b: float, Gamma: float, gamma_c: float,
                     gamma_b: float, xi: complex, drive_on: str = "c") -> NetworkSpec:
    """One matched charger/intermediate/battery triangle.

    ``drive_on`` selects the driven mode; relocating the drive to "b"
    probes the backward direction of the same physical link.
    """
    g_i = matched_coupling(g_b, Gamma)
    modes = (ModeSpec("c", "charger", gamma_c),
             ModeSpec("a", "intermediate", Gamma),
             ModeSpec("b", "battery", gamma_b))
    couplings = (CouplingSpec("c", "b", g_b, theta),
                 CouplingSpec("c", "a", g_i, 0.0),
                 CouplingSpec("a", "b", g_i, 0.0))
    if drive_on not in ("c", "b"):
        raise ValueError(f"drive_on must be 'c' or 'b', got {drive_on!r}")
    return NetworkSpec(modes, couplings, (DriveSpec(drive_on, xi),))


def drive_relocation_energies(theta: float, g_b: float, Gamma: float,
                              gamma: float, xi: complex = 1.0):
    """Full-network probe: ``(E_b forward-driven, E_c backward-driven)``.

    Both configurations use decay-symmetric endpoints, so the ratio of
    the two energies equals the forward/backward transmission ratio of
    the link exactly.
    """
    forward = assemble(triangle_network(theta, g_b, Gamma, gamma, gamma, xi, "c"))
    backward = assemble(triangle_network(theta, g_b, Gamma, gamma, gamma, xi, "b"))
    e_b = abs(steady_state(forward).amplitudes[forward.row("b")]) ** 2
    e_c = abs(steady_state(backward).amplitudes[backward.row("c")]) ** 2
    return float(e_b), float(e_c)


def phase_landscape(params: TopologyParams, target: str | None = None,
                    grid_points: int = 41) -> PhaseLandscape:
    """Steady target energy on a phase grid over (-pi, pi] per link.

    Accepts ``custom`` variants (full triangles) and ``r1`` (direct
    couplings only, where the landscape is flat for loop-free graphs).
    The grid excludes -pi and includes +pi; every energy is a full
    network solve, all of them one batch, so a grid of more than
    ``MAX_LANDSCAPE_POINTS`` points is refused before anything is built.
    """
    if params.variant not in ("custom", "r1"):
        raise ValueError(
            f"landscapes need variant 'custom' or 'r1', got {params.variant!r}")
    if grid_points < 21:
        raise ValueError(f"need at least 21 grid points per axis, got {grid_points}")
    if grid_points ** params.n > MAX_LANDSCAPE_POINTS:
        raise ValueError(
            f"{grid_points}^{params.n} grid points exceed the landscape limit "
            f"of {MAX_LANDSCAPE_POINTS}")
    target = target or f"b_{params.n}"
    grid = np.linspace(-math.pi, math.pi, grid_points + 1)[1:]
    grids = (grid,) * params.n
    combos = list(itertools.product(range(grid_points), repeat=params.n))

    points = _steady_points(params, thetas=grid[np.array(combos)])
    energy = np.reshape([_energy(point, target) for point in points],
                        (grid_points,) * params.n)
    peak = float(energy.max())
    tie = peak - abs(peak) * ARGMAX_TIE_REL
    argmax = tuple(
        tuple(float(grid[i]) for i in combo)
        for combo in combos if energy[combo] >= tie)
    return PhaseLandscape(grids, energy, argmax, target)
