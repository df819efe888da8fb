"""Analytic steady states: effective links, one continued fraction, optima, bounds.

This is the oracle layer.  Eliminating a lossy intermediate mode at
steady state (its time derivative set to zero) is exact and turns each
charger-battery triangle into a directional effective link hanging
from an upstream mode: the previous battery in a chain, the charger in
a star.  One backward continued-fraction fold over that upstream map,
from the last mode to the charger, followed by forward substitution,
yields every amplitude of either family in closed form.  None of this
touches the dense solver, so the two routes cross-validate each other.

Throughout, decay rates are energy rates (amplitudes damp at half the
rate) and energies are reported as ``|amplitude|^2`` in units of the
mode frequency.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoSteadyStateError
from .network import TopologyParams, matched_coupling


@dataclass(frozen=True)
class EffectiveLink:
    """Directional link left after eliminating one intermediate mode.

    ``forward_amp`` multiplies the upstream amplitude in the downstream
    equation, ``backward_amp`` the reverse.  The induced decays are the
    extra *amplitude* damping each endpoint inherits from the lossy
    intermediate (half the corresponding energy decay rate).
    """

    forward_amp: complex
    backward_amp: complex
    induced_decay_upstream: float
    induced_decay_downstream: float


_QUADRANT_PHASES = {0.0: 1.0 + 0.0j, math.pi / 2: 1.0j, -math.pi / 2: -1.0j,
                    math.pi: -1.0 + 0.0j, -math.pi: -1.0 + 0.0j}


def _unit_phase(theta: float) -> complex:
    """``e^{i theta}``, exact at the quadrant angles.

    The matched backward cancellation at theta = -pi/2 must be exact,
    not O(eps), for the effective model to reproduce the closed forms
    bit for bit.
    """
    exact = _QUADRANT_PHASES.get(theta)
    return exact if exact is not None else cmath.exp(1j * theta)


def effective_link(theta: float, g_b: float, g1: float, g2: float,
                   Gamma: float) -> EffectiveLink:
    """Eliminate the intermediate of one triangle (exact at steady state).

    The direct path contributes ``-i g_b e^{+/- i theta}``, the indirect
    path ``-2 g1 g2 / Gamma`` to either direction; the two interfere.
    At the matched strength ``g1 g2 = g_b Gamma / 2`` and ``theta =
    -pi/2`` the backward amplitude cancels exactly.
    """
    if Gamma <= 0:
        raise ValueError(f"Gamma must be > 0, got {Gamma!r}")
    indirect = 2.0 * g1 * g2 / Gamma
    forward = -1j * g_b * _unit_phase(theta) - indirect
    backward = -1j * g_b * _unit_phase(-theta) - indirect
    return EffectiveLink(forward, backward,
                         2.0 * g1 * g1 / Gamma, 2.0 * g2 * g2 / Gamma)


def _links(params: TopologyParams):
    """The effective model of ``params``, intermediates eliminated.

    Per link, its forward and backward amplitude and its upstream mode:
    link k ends at battery k+1 and hangs from mode k in a chain, from
    the charger in a star.  Per mode, charger first, its energy decay
    with each link's induced damping added.
    """
    n = params.n
    upstream = list(range(n)) if params.family == "cascaded" else [0] * n
    decay = [params.gamma_c] + list(params.gamma_b)
    forward, backward = [], []
    if params.has_intermediates:
        g_i = matched_coupling(params.g_b, params.Gamma)
    for k, th in enumerate(params.direct_phases()):
        if params.has_intermediates:
            link = effective_link(th, params.g_b, g_i, g_i, params.Gamma)
        else:
            link = EffectiveLink(-1j * params.g_b * _unit_phase(th),
                                 -1j * params.g_b * _unit_phase(-th), 0.0, 0.0)
        forward.append(link.forward_amp)
        backward.append(link.backward_amp)
        decay[upstream[k]] += 2.0 * link.induced_decay_upstream
        decay[k + 1] += 2.0 * link.induced_decay_downstream
    return forward, backward, upstream, decay


def effective_steady_amplitudes(params: TopologyParams) -> np.ndarray:
    """Charger and battery steady amplitudes from the effective model.

    One continued fraction over the upstream map, for chains and stars
    alike.  From the last mode back to the charger,
    ``chi_m = decay_m/2 - sum_j h_j f_j / chi_{j+1}`` over the links j
    hanging from mode m folds everything downstream of m into an
    effective complex decay; then ``c = -i xi / chi_0`` and each link
    gives ``b_{j+1} = f_j a_{up(j)} / chi_{j+1}``.  Exact for any tree
    whose links hang from an earlier mode; a vanishing ``chi`` is a
    resonant divergence and raises ``NoSteadyStateError``.
    """
    forward, backward, upstream, decay = _links(params)
    n = params.n
    hanging = [[] for _ in range(n + 1)]
    for j, m in enumerate(upstream):
        hanging[m].append(j)
    chi = np.zeros(n + 1, dtype=complex)
    for m in range(n, -1, -1):
        chi[m] = decay[m] / 2.0 - sum(
            backward[j] * forward[j] / chi[j + 1] for j in hanging[m])
        if chi[m] == 0:
            raise NoSteadyStateError(
                f"resonant divergence: chi_{m} vanished in the continued fraction")
    amps = np.zeros(n + 1, dtype=complex)
    amps[0] = -1j * params.xi / chi[0]
    for j, m in enumerate(upstream):
        amps[j + 1] = forward[j] * amps[m] / chi[j + 1]
    return amps


def effective_steady_energy(params: TopologyParams, battery: int | None = None) -> float:
    """Closed-route steady energy of battery ``battery`` (1-based, default n)."""
    k = params.n if battery is None else int(battery)
    if not 1 <= k <= params.n:
        raise ValueError(f"battery index {k} outside 1..{params.n}")
    amps = effective_steady_amplitudes(params)
    return float(abs(amps[k]) ** 2)


# --- closed-form energies -------------------------------------------------

def cascaded_nr_energy(n: int, g_b: float, gamma: float, xi: complex) -> float:
    """Terminal-battery steady energy of the optimally phased chain.

    ``[2^{2n+1} g_b^n xi / ((2 g_b + gamma)^2 (4 g_b + gamma)^{n-1})]^2``
    for uniform decay ``gamma`` and matched intermediate couplings at
    phase -pi/2 on every link.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma!r}")
    amp = (2.0 ** (2 * n + 1) * g_b ** n * abs(xi)
           / ((2.0 * g_b + gamma) ** 2 * (4.0 * g_b + gamma) ** (n - 1)))
    return amp * amp


def parallel_r1_energy(n: int, g_b: float, gamma_c: float, gamma_b,
                       xi: complex, k: int) -> float:
    """Steady energy of battery k in the direct-coupling star.

    ``16 g_b^2 xi^2 / (gamma_b_k^2 (gamma_c + 4 g_b^2 sum_j 1/gamma_b_j)^2)``;
    the shared denominator is what couples every battery's decay to all
    the others.
    """
    gamma_b = tuple(float(g) for g in gamma_b)
    if len(gamma_b) != n:
        raise ValueError(f"gamma_b needs {n} entries, got {len(gamma_b)}")
    if gamma_c <= 0 or any(g <= 0 for g in gamma_b):
        raise ValueError("all decay rates must be > 0")
    if not 1 <= k <= n:
        raise ValueError(f"battery index {k} outside 1..{n}")
    shared = gamma_c + 4.0 * g_b ** 2 * sum(1.0 / g for g in gamma_b)
    return 16.0 * g_b ** 2 * abs(xi) ** 2 / (gamma_b[k - 1] ** 2 * shared ** 2)


def parallel_nr_energy(n: int, g_b: float, gamma_c: float, gamma_b_k: float,
                       xi: complex) -> float:
    """Steady energy of a battery in the optimally phased star.

    ``64 xi^2 g_b^2 / ((2 g_b + gamma_b_k)^2 (2 n g_b + gamma_c)^2)``:
    each battery sees only its own decay rate, which is the independent
    charging property of the directional star.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if gamma_c <= 0 or gamma_b_k <= 0:
        raise ValueError("decay rates must be > 0")
    return (64.0 * abs(xi) ** 2 * g_b ** 2
            / ((2.0 * g_b + gamma_b_k) ** 2 * (2.0 * n * g_b + gamma_c) ** 2))


# --- optima, approximations, bounds ---------------------------------------

def g_opt_odd(n: int, gamma: float) -> float:
    """Coupling maximising the directional-chain energy for odd n.

    ``[n + sqrt(n (8 + n))] gamma / 8`` -- the stationary point of the
    closed-form chain energy, restricted to odd battery counts where
    the direct-coupling chain also has an interior optimum to compare
    against.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 1, got {n}")
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma!r}")
    return (n + math.sqrt(n * (8.0 + n))) * gamma / 8.0


def gain_approx(family: str, n: int, x: float) -> float:
    """Weak-coupling approximation of the nonreciprocity gain G1.

    ``x = g_b / gamma``.  Cascaded: ``[2^n / (4 n x + 1)]^2``;
    parallel: ``[2 / ((2 n + 2) x + 1)]^2``.
    """
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x!r}")
    if family == "cascaded":
        return (2.0 ** n / (4.0 * n * x + 1.0)) ** 2
    if family == "parallel":
        return (2.0 / ((2.0 * n + 2.0) * x + 1.0)) ** 2
    raise ValueError(f"unknown family {family!r}")


def gain_bounds(family: str, n: int):
    """Zero-coupling limits ``(G1, G2)`` of the steady-energy gains.

    Cascaded gains grow exponentially with chain length; parallel gains
    saturate at (4, 2) for any battery count.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if family == "cascaded":
        return 4.0 ** n, 2.0 ** n
    if family == "parallel":
        return 4.0, 2.0
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class LogFitResult:
    """Per-n optimum table and the fitted slope of ``1 + k ln n``."""

    coefficient: float
    n: tuple
    ratio: tuple
    gb_opt_nr: tuple
    gb_opt_r1: tuple
    e_max_nr: tuple
    e_max_r1: tuple


def _r1_stationary_poly(n: int) -> list:
    """Coefficients, constant first, of the polynomial in
    ``u = 4 g^2 / gamma^2`` whose positive roots are the stationary
    points of the direct-coupling chain energy at uniform decay.

    That energy is ``|xi|^2 g^{2n} / D_{n+1}^2`` with the continuant
    ``D_0 = 1``, ``D_1 = gamma/2``, ``D_m = (gamma/2) D_{m-1} + g^2
    D_{m-2}``, i.e. ``D_m = (gamma/2)^m sum_k C(m-k, k) u^k``; its
    logarithmic derivative in u vanishes where
    ``sum_k (n - 2k) C(n+1-k, k) u^k = 0``.  For odd n the coefficients
    change sign once, so by Descartes' rule there is exactly one
    positive root (the maximum); for even n there is none.
    """
    return [(n - 2 * k) * math.comb(n + 1 - k, k) for k in range((n + 1) // 2 + 1)]


def _g_opt_r1(n: int, gamma: float) -> float:
    """Coupling maximising the direct-coupling chain energy for odd n:
    ``(gamma/2) sqrt(u)`` at the positive root of ``_r1_stationary_poly``."""
    roots = np.roots(_r1_stationary_poly(n)[::-1])
    (u,) = [r.real for r in roots if r.imag == 0 and r.real > 0]
    return 0.5 * gamma * math.sqrt(u)


def logfit_ratio(odd_n_list, gamma: float = 0.1, xi: complex = 1.0) -> LogFitResult:
    """Best-over-coupling energy ratio of the two chain routes, fitted.

    For each odd n the directional-chain energy and the direct-chain
    energy (uniform decay ``gamma``) are each taken at their exact
    optimum over ``g_b``: ``g_opt_odd`` and ``_g_opt_r1``, the stationary
    points of the closed-form energies, both unique.  Their ratio is
    least-squares fitted to ``1 + k ln n``.
    """
    ns = tuple(int(n) for n in odd_n_list)
    if len(ns) < 3:
        raise ValueError("need at least 3 odd battery counts")
    if any(n < 1 or n % 2 == 0 for n in ns):
        raise ValueError(f"battery counts must be odd and >= 1, got {ns}")
    g_nr = tuple(g_opt_odd(n, gamma) for n in ns)
    g_r1 = tuple(_g_opt_r1(n, gamma) for n in ns)
    e_nr = tuple(cascaded_nr_energy(n, g, gamma, xi) for n, g in zip(ns, g_nr))
    e_r1 = tuple(effective_steady_energy(TopologyParams(
        "cascaded", "r1", n, g, gamma, gamma, gamma, xi)) for n, g in zip(ns, g_r1))
    ratios = [en / er for en, er in zip(e_nr, e_r1)]
    ln = np.log(ns)
    denom = float(np.sum(ln * ln))
    k = float(np.sum((np.array(ratios) - 1.0) * ln) / denom) if denom > 0 else 0.0
    return LogFitResult(k, ns, tuple(ratios), g_nr, g_r1, e_nr, e_r1)
