"""Analytic steady states: effective links, chain recursion, optima, bounds.

This is the oracle layer.  Eliminating a lossy intermediate mode at
steady state (its time derivative set to zero) is exact and turns each
charger-battery triangle into a directional effective link; folding a
whole chain from its far end gives a backward continued-fraction
recursion whose forward substitution yields every amplitude in closed
form.  None of this touches the dense solver, so the two routes
cross-validate each other.

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


@dataclass(frozen=True)
class ChainLinkCoeffs:
    """Per-link forward/backward amplitudes and per-mode effective decay.

    ``effective_decay`` holds energy decay rates, charger first, with
    any intermediate-induced damping already folded in; the steady-state
    recursion uses half of each entry.
    """

    forward: tuple
    backward: tuple
    effective_decay: tuple

    def __post_init__(self):
        n = len(self.forward)
        if len(self.backward) != n or len(self.effective_decay) != n + 1:
            raise ValueError(
                f"inconsistent lengths: {n} forward, {len(self.backward)} "
                f"backward, {len(self.effective_decay)} decays (need n+1)")


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


def _link_coeffs(params: TopologyParams):
    """Forward/backward amplitude and induced decays for each direct link."""
    thetas = params.direct_phases()
    forward, backward, up, down = [], [], [], []
    if params.has_intermediates:
        g_i = matched_coupling(params.g_b, params.Gamma)
        for th in thetas:
            link = effective_link(th, params.g_b, g_i, g_i, params.Gamma)
            forward.append(link.forward_amp)
            backward.append(link.backward_amp)
            up.append(link.induced_decay_upstream)
            down.append(link.induced_decay_downstream)
    else:
        for th in thetas:
            forward.append(-1j * params.g_b * _unit_phase(th))
            backward.append(-1j * params.g_b * _unit_phase(-th))
            up.append(0.0)
            down.append(0.0)
    return forward, backward, up, down


def _fold_links(params: TopologyParams, family: str) -> ChainLinkCoeffs:
    """Fold each link's induced decays into its end modes.

    Link k's downstream end is battery k; its upstream end is mode k in
    a chain and the charger (mode 0) in a star.
    """
    if params.family != family:
        raise ValueError(f"expected {family} params, got {params.family!r}")
    forward, backward, up, down = _link_coeffs(params)
    decay = [params.gamma_c] + list(params.gamma_b)
    for k in range(params.n):
        decay[k if family == "cascaded" else 0] += 2.0 * up[k]
        decay[k + 1] += 2.0 * down[k]
    return ChainLinkCoeffs(tuple(forward), tuple(backward), tuple(decay))


def cascaded_chain_coeffs(params: TopologyParams) -> ChainLinkCoeffs:
    """Effective chain for a cascaded topology (intermediates eliminated)."""
    return _fold_links(params, "cascaded")


def parallel_star_coeffs(params: TopologyParams) -> ChainLinkCoeffs:
    """Effective star for a parallel topology (arm k couples c to b_k)."""
    return _fold_links(params, "parallel")


def directional_chain_steady(coeffs: ChainLinkCoeffs, xi: complex) -> np.ndarray:
    """Steady amplitudes of the effective chain, charger first.

    Backward recursion ``chi_k = decay_k/2 - h_{k+1} f_{k+1} / chi_{k+1}``
    folds everything downstream of mode k into an effective complex
    decay; forward substitution then gives ``b_k = f_k b_{k-1} / chi_k``
    with ``c = -i xi / chi_0``.  Exact for any linear chain.
    """
    n = len(coeffs.forward)
    half = [g / 2.0 for g in coeffs.effective_decay]
    chi = np.zeros(n + 1, dtype=complex)
    chi[n] = half[n]
    for k in range(n - 1, -1, -1):
        if chi[k + 1] == 0:
            raise NoSteadyStateError(
                f"resonant divergence: chi_{k + 1} vanished in the chain recursion")
        chi[k] = half[k] - coeffs.backward[k] * coeffs.forward[k] / chi[k + 1]
    if np.any(chi == 0):
        raise NoSteadyStateError("resonant divergence: vanishing chi coefficient")
    amps = np.zeros(n + 1, dtype=complex)
    amps[0] = -1j * complex(xi) / chi[0]
    for k in range(1, n + 1):
        amps[k] = coeffs.forward[k - 1] * amps[k - 1] / chi[k]
    return amps


def directional_star_steady(coeffs: ChainLinkCoeffs, xi: complex) -> np.ndarray:
    """Steady amplitudes of the effective star, charger first.

    Every arm folds independently into the charger equation:
    ``c = -i xi / (decay_0/2 - sum_k h_k f_k / (decay_k/2))``.
    """
    n = len(coeffs.forward)
    half = [g / 2.0 for g in coeffs.effective_decay]
    if any(h == 0 for h in half[1:]):
        raise NoSteadyStateError("resonant divergence: undamped star arm")
    chi0 = half[0] - sum(
        coeffs.backward[k] * coeffs.forward[k] / half[k + 1] for k in range(n))
    if chi0 == 0:
        raise NoSteadyStateError("resonant divergence: vanishing charger coefficient")
    amps = np.zeros(n + 1, dtype=complex)
    amps[0] = -1j * complex(xi) / chi0
    for k in range(1, n + 1):
        amps[k] = coeffs.forward[k - 1] * amps[0] / half[k]
    return amps


def effective_steady_amplitudes(params: TopologyParams) -> np.ndarray:
    """Charger and battery steady amplitudes from the effective model."""
    if params.family == "cascaded":
        return directional_chain_steady(cascaded_chain_coeffs(params), params.xi)
    return directional_star_steady(parallel_star_coeffs(params), params.xi)


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
