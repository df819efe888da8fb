"""First-moment linear dynamics: assembly, steady states, propagation.

The mode amplitudes obey ``d(alpha)/dt = M alpha + d`` with

* ``M[m, m] = -i * detuning_m - decay_rate_m / 2``,
* coupling ``(s -> t, g, theta)``: ``M[t, s] += -i g e^{+i theta}``
  and ``M[s, t] += -i g e^{-i theta}``, written as ``-conj(M[t, s])``,
* drive ``xi`` on mode ``m``: ``d[m] = -i xi``.

So ``M + M^dagger = -diag(decay rates)`` exactly, and any network
with all-positive decay is Hurwitz and has a unique steady state
``alpha_ss = -M^{-1} d``.

``steady_state`` is the one gate on that steady state, with two rules:
the network must decay (spectral abscissa at most ``STABILITY_FLOOR``)
and M must be well conditioned (``cond_2(M)`` at most
``CONDITION_LIMIT``).  Both read the dissipation structure off the
assembled matrix first: the certificate bounds the Hermitian part
``H = (M + M^dagger)/2`` by Gershgorin discs over the couplings alone
(their ``Pattern``), in O(nnz), giving ``mu``
with ``Re<x, M x> <= -mu |x|^2`` for every x.  When ``mu > 0`` the
numerical range proves ``spectral abscissa <= -mu``,
``sigma_min(M) >= mu`` and ``cond_2(M) <= ||M||_F / mu``.  A rule runs
its dense O(n^3) check (``eigvals`` or ``cond``) only when the
certificate cannot prove its accept verdict (a zero-decay mode, a
marginal decay, a bound near ``CONDITION_LIMIT``).  ``is_stable`` stays
the dense reference.

The gate is written once, over a (P, n, n) stack (``steady_states``):
stacked dense checks only on slices the certificate cannot prove, one
batched solve, and arrays back (amplitudes, residuals, conditions) with
a map from each refused slice to its error; ``steady_state`` is its
P = 1 case, a ``SteadyState`` or the error raised.  ``layout`` compiles each
built-in topology once from ``network.structure``, so ``assemble_points``
fills P points without a spec, by ``assemble``'s entry formula, and
returns that layout.  Without mode 0, the charger, both families are banded
(``M[1:, 1:]`` of bandwidth 2 at most): a stack of at least ``_BAND_MIN_MODES``
modes solves its certified slices by a bordered band LU, the rest by dense LU.

``evolve`` is exact on every network.  Each point is read off
``[alpha0; 1]`` under the augmented matrix ``[[M, d], [0, 0]]``, whose
exponential carries the drive integral (Van Loan, IEEE TAC 23(3), 1978),
so a small early amplitude never cancels against ``alpha_ss``.  Runs of
equal steps on a decaying network are the exception: they are stepped
around the steady state, ``alpha_ss + e^{M h} (alpha - alpha_ss)``, a
contraction.  The isolated points of a decaying network (every point of
a log grid) are grouped into decade windows ``[t0, 10 t0]``, and each
window, whatever its size, is one contour sum: the Bromwich integral of
the resolvent on a hyperbola (Talbot 1979; Weideman & Trefethen 2007),
97 batched solves shared by every point of the window.  ``evolve``
serves a window by the contour only when one ``eig`` of M, with a
Bauer-Fike margin, proves every eigenvalue left of it; otherwise, and
for a network ``steady_state`` refuses, each point is one ``expm``.

scipy loads only when a run needs ``expm`` or a band solve: ``expm``,
``zgbtrf`` and ``zgbtrs`` start as stand-ins that import scipy's function
on their first call and bind it in their place, so ``import qbnet`` and
every steady solve below ``_BAND_MIN_MODES`` modes load no scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import (NoSteadyStateError, UnknownModeError, UnstableSystemError,
                     ValidationError)
from .network import (WITH_INTERMEDIATES, NetworkSpec, TopologyParams,
                      parameter_tables, structure, validate)


class _OnFirstUse:
    """Stand-in for the scipy function bound here as ``name``: its first call
    imports it (``load``), binds it in its own place, unless something else
    (a test's counter, a tracer) is bound there by then, and forwards."""

    def __init__(self, name, load):
        self.name, self.load = name, load

    def __call__(self, *args, **kwargs):
        function = self.load()
        if globals()[self.name] is self:
            globals()[self.name] = function
        return function(*args, **kwargs)


def _load_expm():
    from scipy.linalg import expm
    return expm


def _load_band_lu():
    from scipy.linalg.lapack import zgbtrf, zgbtrs
    return zgbtrf, zgbtrs


expm = _OnFirstUse("expm", _load_expm)
zgbtrf = _OnFirstUse("zgbtrf", lambda: _load_band_lu()[0])
zgbtrs = _OnFirstUse("zgbtrs", lambda: _load_band_lu()[1])

#: spectral abscissa above this is treated as non-decaying
STABILITY_FLOOR = -1e-14

#: refuse a steady state when the condition estimate exceeds this
CONDITION_LIMIT = 1e12

#: a reused step must land within this distance, relative to the grid
#: time, of every grid point it serves
STEP_RTOL = 1e-12

#: equal steps are applied this many points at a time, by ``E_h^B``
STEP_BLOCK = 16

#: isolated grid points are exponentiated, and contour resolvents
#: solved, in stacks of at most this many matrix entries (4 MiB of
#: complex128)
_EXPM_STACK_ENTRIES = 2 ** 18

_EPS = float(np.finfo(float).eps)

#: band-route break-even (``_solve``, one network per family and variant):
#: a tie at 41 modes, the band wins all four at 49; also 8 per unit of width
_BAND_MIN_MODES = 48

# The Bromwich contour of a decade window [t0, 10 t0] is the hyperbola
# z(u) = mu (1 + sin(i u - alpha)), mu = 3 / t0, alpha = 0.8, sampled by
# the trapezoidal rule at u_k = k h, |k| <= 48, h = 3.2 / 48: 97 nodes
# (Weideman & Trefethen, Math. Comp. 76, 2007).  These values are
# measured, not W&T's closed-form optimum, which was not re-derived here.
# They balance the terms of W&T's error analysis, which at these values
# read: the truncated tail exp(mu t0 (1 - sin(alpha) cosh(N h))) =
# exp(-23.4) at t0; rounding grown by max |e^{z t}| = exp(mu 10 t0
# (1 - sin alpha)) = exp(8.5) at 10 t0; and a pole at the edge of the
# guard strip (below), exp(-2 pi 0.35 / h) = 5e-15.  Against 40-digit
# mpmath, E(t) on 16 rows of each fig4a/fig4b curve (the rows next to
# every window end included) is within 8e-13 relative; mu = 4 / t0
# reaches 4e-12 there, mu = 2.5 / t0 1e-10 (the tail).
_CONTOUR_N = 48
_CONTOUR_ALPHA = 0.8
_CONTOUR_H = 3.2 / _CONTOUR_N
_CONTOUR_MU = 3.0
#: a window spans [t0, _CONTOUR_SPAN t0]
_CONTOUR_SPAN = 10.0
#: eigenvalues must lie left of the hyperbola at angle alpha + this: the
#: strip |Im u| < 0.35 of the trapezoidal rule holds no pole
_CONTOUR_GUARD = 0.35

_U = _CONTOUR_H * np.arange(-_CONTOUR_N, _CONTOUR_N + 1)
#: nodes z_k and weights h z'(u_k) / (2 pi i) at t0 = 1 (they scale as 1/t0)
_CONTOUR_Z = _CONTOUR_MU * (1.0 + np.sin(1j * _U - _CONTOUR_ALPHA))
_CONTOUR_W = (_CONTOUR_H * _CONTOUR_MU / (2.0 * np.pi)) * np.cos(1j * _U - _CONTOUR_ALPHA)


class Pattern(NamedTuple):
    """Coupling k joins rows ``ends[2k] = t``, ``ends[2k + 1] = s`` at flat positions
    ``forward[k]`` (``M[t, s]``), ``backward[k]`` (``M[s, t]``); ``width``: ``M[1:, 1:]``'s."""

    forward: np.ndarray
    backward: np.ndarray
    ends: np.ndarray
    width: int


def _pattern(t: np.ndarray, s: np.ndarray, n: int) -> Pattern:
    return Pattern(t * n + s, s * n + t, np.stack((t, s), axis=1).ravel(),
                   int(np.max(np.abs(t - s)[(t > 0) & (s > 0)], initial=0)))


def _certify(matrices: np.ndarray, pattern: Pattern) -> tuple:
    """``(mu, abscissa_bound, condition_bound)`` of each slice of a
    (P, n, n) stack, by the Gershgorin discs of ``H``: centre ``Re M[i, i]``,
    radius ``|M[t, s] + conj(M[s, t])| / 2`` summed over ``pattern`` at i.

    ``mu`` is a lower bound.  ``abscissa_bound``, on the abscissa as
    ``eigvals`` computes it, adds ``(n + 2) eps ||M||_F`` to ``-mu`` for its
    backward error E: every eigenvalue of ``M + E`` lies within ``||E||_2``
    of the numerical range of M.  ``condition_bound`` is ``||M||_F / mu``,
    infinite unless ``mu > 0``.  Computed moduli and row sums are within
    ``(n + 2) eps`` relative, the squared Frobenius sum within ``n^2 eps``;
    both are charged against the bounds.
    """
    points, n = matrices.shape[:2]
    slack = (n + 2) * _EPS
    flat = matrices.reshape(points, n * n)
    off = np.abs(flat[:, pattern.forward] + flat[:, pattern.backward].conj())
    radius = 0.0  # what every assembled network gives: M + M^dagger is diagonal
    if off.any():
        radius = np.bincount((pattern.ends + n * np.arange(points)[:, None]).ravel(),
                             off.repeat(2, axis=1).ravel(), points * n).reshape(points, n)
    mu = -np.maximum.reduce(flat[:, ::n + 1].real * (1.0 - slack)
                            + radius * (0.5 * (1.0 + slack)), axis=1)
    norm = _norms(flat) * (1.0 + n * slack)
    bound = np.divide(norm, mu, out=np.full(points, np.inf), where=mu > 0.0)
    return mu, slack * norm - mu, bound


def _norms(vectors: np.ndarray) -> np.ndarray:
    """2-norm of each row of a (P, m) array."""
    flat = np.ascontiguousarray(vectors).view(float)
    return np.sqrt(np.einsum("pi,pi->p", flat, flat))


def _abscissas(matrices: np.ndarray) -> np.ndarray:
    return np.linalg.eigvals(matrices).real.max(axis=-1)


def _row(index, mode_id: str) -> int:
    try:
        return index[mode_id]
    except KeyError:
        raise UnknownModeError(f"unknown mode id {mode_id!r}") from None


@dataclass(frozen=True)
class LinearSystem:
    """Dynamics matrix, drive vector and the mode id -> row map."""

    matrix: np.ndarray
    drive: np.ndarray
    index: dict

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.drive.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def pattern(self) -> Pattern:
        """The coupling positions, found once from the nonzero entries of M."""
        return _pattern(*np.tril(abs(self.matrix) + abs(self.matrix.T), -1).nonzero(), self.n)

    def row(self, mode_id: str) -> int:
        return _row(self.index, mode_id)


@dataclass(frozen=True)
class SteadyState:
    """Solution of ``M alpha = -d`` plus the achieved residual norm.

    ``condition`` is the upper bound on ``cond_2(M)`` that passed the
    gate: the certified ``||M||_F / mu``, or the dense ``np.linalg.cond``
    when the certificate was inconclusive.
    """

    amplitudes: np.ndarray
    residual: float
    condition: float


@dataclass(frozen=True)
class Trajectory:
    """Amplitudes of every mode on a strictly increasing time grid.

    ``method`` names the propagators that ran.  For a decaying network it
    is "contour" when contour sums served every point away from t = 0,
    "expm" when none did (every point an ``expm`` or an equal step), and
    "contour+expm" for a mix; "augmented" is a network without a steady
    state, propagated by ``expm`` alone.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    index: dict
    method: str

    def mode(self, mode_id: str) -> np.ndarray:
        return self.amplitudes[:, _row(self.index, mode_id)]


def _fill(rotation, decay, pattern, strength, phase) -> np.ndarray:
    """The (P, n, n) matrices for ``rotation = -i detuning`` and per-point
    ``decay`` (P, n), coupling ``strength`` and ``phase`` (P, couplings),
    at the distinct positions of ``pattern``, as if added to zero
    (``+ 0.0``): the one place the entry formula above is written."""
    points, n = decay.shape
    matrices = np.zeros((points, n, n), dtype=complex)
    flat = matrices.reshape(points, n * n)
    flat[:, ::n + 1] = rotation - decay / 2.0
    coupling = -1j * strength * np.exp(1j * phase) + 0.0
    flat[:, pattern.forward] = coupling
    flat[:, pattern.backward] = -coupling.conj() + 0.0
    return matrices


def assemble(spec: NetworkSpec) -> LinearSystem:
    """Build the linear system for a validated network spec."""
    problems = validate(spec)
    if problems:
        raise ValidationError(problems)
    index = {m.id: i for i, m in enumerate(spec.modes)}
    s, t, strength, phase = np.array(
        [(index[c.source], index[c.target], c.strength, c.phase)
         for c in spec.couplings], dtype=float).reshape(-1, 4).T
    drive = np.zeros(len(index), dtype=complex)
    for d in spec.drives:
        drive[index[d.mode]] += -1j * complex(d.amplitude)
    matrix = _fill(-1j * np.array([m.detuning for m in spec.modes], dtype=float),
                   np.array([[m.decay_rate for m in spec.modes]], dtype=float),
                   _pattern(t.astype(np.intp), s.astype(np.intp), len(index)),
                   strength[None], phase[None])[0]
    return LinearSystem(matrix, drive, index)


@lru_cache(maxsize=256)
def layout(family: str, intermediates: bool, n: int) -> tuple:
    """``(index, decay, strength, phase, pattern)`` of a built-in topology,
    compiled from ``network.structure``: its mode rows, the
    ``network.parameter_tables`` column of each mode's decay rate and of
    each coupling's strength and phase, and the coupling positions.  The
    charger is row 0; the variants with intermediates share one layout."""
    modes, couplings = structure(family, intermediates, n)
    index = {m: i for i, (m, _, _) in enumerate(modes)}
    s, t, strength, phase = np.array(
        [(index[s], index[t], g, p) for s, t, g, p in couplings]).T
    arrays = (np.array([r for *_, r in modes]), strength, phase)
    pattern = _pattern(t, s, len(index))
    for array in arrays + pattern[:3]:
        array.setflags(write=False)  # shared by every caller
    return (MappingProxyType(index),) + arrays + (pattern,)


def assemble_points(params: TopologyParams, **columns) -> tuple:
    """``(matrices, drives, layout)`` of P points of a built-in topology,
    ``columns`` as in ``network.parameter_tables``; no spec is built."""
    variant = columns["variant"][0] if "variant" in columns else params.variant
    compiled = layout(params.family, variant in WITH_INTERMEDIATES, params.n)
    _, decay, strength, phase, pattern = compiled
    rates, strengths, phases, xi = parameter_tables(params, **columns)
    matrices = _fill(-1j * 0.0, rates[:, decay], pattern, strengths[:, strength],
                     phases[:, phase])  # assemble's -1j * detuning; a plain 0.0 flips signed zeros
    drives = np.zeros(matrices.shape[:2], dtype=complex)
    drives[:, 0] += -1j * xi  # the charger
    return matrices, drives, compiled


def _band_solve(matrices, rhs, width):
    """x of ``M x = rhs`` per slice: one LAPACK ``zgbtrf``/``zgbtrs`` of the stacked
    block diagonal of the ``M[1:, 1:]`` (bandwidth ``width``), then the scalar Schur
    complement S of mode 0.  With ``mu > 0`` every principal block is dissipative:
    ``|S| >= mu``, and no pivot need cross the border."""
    points, m, w = len(matrices), matrices.shape[1] - 1, width
    band = np.zeros((points, m, 3 * w + 1), dtype=complex)  # LAPACK band storage, transposed
    for d in range(-w, w + 1):
        band[:, max(d, 0):m + min(d, 0), 2 * w - d] = np.diagonal(matrices[:, 1:, 1:], d, 1, 2)
    lu, pivots, _ = zgbtrf(band.reshape(points * m, -1).T, w, w, overwrite_ab=True)
    pair = np.stack((matrices[:, 1:, 0], rhs[:, 1:])).reshape(2, -1).T
    border, rest = zgbtrs(lu, w, w, pair, pivots)[0].T.reshape(2, points, m)
    via_border, via_rest = np.einsum("pi,kpi->kp", matrices[:, 0, 1:], (border, rest))
    head = (rhs[:, 0] - via_rest) / (matrices[:, 0, 0] - via_border)
    return np.concatenate((head[:, None], rest - border * head[:, None]), axis=1)


def _solve(matrices, drives, width=None) -> tuple:
    """``(alpha, residual norm)`` of ``M alpha = -d`` per slice, by dense LU or,
    given the bandwidth of the ``M[1:, 1:]``, by ``_band_solve``."""
    alpha = (_band_solve(matrices, -drives, width) if width is not None
             else np.linalg.solve(matrices, -drives[..., None])[..., 0])
    return alpha, _norms((matrices @ alpha[..., None])[..., 0] + drives)


def steady_states(matrices: np.ndarray, drives: np.ndarray, pattern: Pattern,
                  abscissas: np.ndarray | None = None) -> tuple:
    """``steady_state`` of each slice of a (P, n, n) stack with its (P, n)
    drives and coupling ``pattern`` (a ``layout``'s), in one batched solve:
    ``(amplitudes, residuals, conditions, errors)``, ``errors`` mapping a
    refused slice (amplitudes NaN) to the error ``steady_state`` raises.
    Dense checks run, stacked, only on the slices the certificate cannot
    prove; ``abscissas``, the dense abscissa of every slice when the
    caller has computed them, stand in for the gate's own ``eigvals``."""
    mu, abscissa_bound, condition_bound = _certify(matrices, pattern)
    errors, conditions, width = {}, condition_bound, pattern.width
    if not abscissa_bound.max() <= STABILITY_FLOOR:
        slices = (~(abscissa_bound <= STABILITY_FLOOR)).nonzero()[0]
        dense = _abscissas(matrices[slices]) if abscissas is None else abscissas[slices]
        for i, abscissa in zip(slices.tolist(), dense.tolist()):
            if not abscissa <= STABILITY_FLOOR:
                errors[i] = UnstableSystemError(
                    f"network is not strictly decaying (spectral abscissa "
                    f"{abscissa:.3e})", spectral_abscissa=abscissa)
    slices = [] if condition_bound.max() <= CONDITION_LIMIT else [
        i for i in (~(condition_bound <= CONDITION_LIMIT)).nonzero()[0].tolist()
        if i not in errors]
    if slices:
        conditions = condition_bound.copy()
        conditions[slices] = np.linalg.cond(matrices[slices])
        for i, cond in zip(slices, conditions[slices]):
            if not cond <= CONDITION_LIMIT:
                errors[i] = NoSteadyStateError(
                    f"no unique steady state: condition estimate {cond:.3e} "
                    f"exceeds {CONDITION_LIMIT:.0e}", condition=cond)
    banded = mu > 0.0 if matrices.shape[1] >= max(_BAND_MIN_MODES, 8 * width) else None
    if not errors and (banded is None or banded.all()):
        route = None if banded is None else width
        return (*_solve(matrices, drives, route), conditions, errors)
    keep = np.ones(len(matrices), dtype=bool)
    keep[list(errors)] = False
    banded = keep & (False if banded is None else banded)
    amplitudes, residuals = np.full(drives.shape, np.nan, complex), np.full(len(drives), np.nan)
    for rows, route in ((keep & ~banded, None), (banded, width)):
        if rows.any():
            amplitudes[rows], residuals[rows] = _solve(matrices[rows], drives[rows], route)
    return amplitudes, residuals, conditions, errors


def steady_state(sys: LinearSystem) -> SteadyState:
    """Solve ``M alpha = -d``; refuse a network that does not decay to it.

    The decay rule comes first (``UnstableSystemError``), then the
    condition rule (``NoSteadyStateError``), each proven by the
    certificate or decided by its dense check (see the module doc).
    ``SteadyState.residual`` is the norm of ``M alpha + d``.  This is
    ``steady_states`` on a stack of one.
    """
    amplitudes, residuals, conditions, errors = steady_states(
        sys.matrix[None], sys.drive[None], sys.pattern)
    if errors:
        raise errors[0]
    return SteadyState(amplitudes[0], float(residuals[0]), float(conditions[0]))


def is_stable(sys: LinearSystem):
    """Return ``(decaying, spectral_abscissa)`` for the dynamics matrix.

    ``decaying`` is the decay rule of ``steady_state``: an abscissa at
    most ``STABILITY_FLOOR``.  This is the dense reference (all
    eigenvalues, O(n^3), on every call); ``steady_state`` consults the
    certificate first and falls back to it.
    """
    abscissa = float(_abscissas(sys.matrix))
    return abscissa <= STABILITY_FLOOR, abscissa


def _check_times(times: np.ndarray):
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d grid")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times[0] < 0:
        raise ValueError(f"times must start at >= 0, got {times[0]}")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")


def _runs(times: np.ndarray):
    """Split a grid into runs of equal steps: ``(start, stop)``.

    Point ``i`` of a run ``[start, stop)`` is reached from the point
    before the run (the origin for ``start = 0``) by ``i - start + 1``
    steps of ``times[start] - times[start - 1]``; every such position
    lies within ``STEP_RTOL`` relative of the requested grid time.
    """
    steps = times.copy()
    steps[1:] -= times[:-1]
    tol = STEP_RTOL * times
    changes = np.flatnonzero(np.abs(steps[1:] - steps[:-1]) > tol[1:]) + 1
    bounds = [0] + changes.tolist() + [times.size]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        while stop - start > 1:
            origin = times[start - 1] if start else 0.0
            reached = origin + steps[start] * np.arange(1, stop - start + 1)
            off = np.flatnonzero(np.abs(reached - times[start:stop])
                                 > tol[start:stop])
            end = start + max(int(off[0]), 1) if off.size else stop
            yield start, end
            start = end
        if start < stop:
            yield start, stop


def _step(e_h: np.ndarray, x: np.ndarray, rows: np.ndarray) -> None:
    """Fill ``rows[..., m, :] = E_h^(m+1) x`` for a stack of ``E_h``
    (``x`` and ``rows`` carry the same leading axis).

    The first ``STEP_BLOCK`` rows are single steps; every later block
    is the block before it times ``E_h^STEP_BLOCK``, one matrix product
    per block.
    """
    count = rows.shape[-2]
    block = min(STEP_BLOCK, count)
    for m in range(block):
        x = (e_h @ x[..., None])[..., 0]
        rows[..., m, :] = x
    if count > block:
        jump = np.linalg.matrix_power(e_h, block).swapaxes(-1, -2)
        for m in range(block, count, block):
            rows[..., m:m + block, :] = (
                rows[..., m - block:m, :] @ jump)[..., :count - m, :]


def _left_of_contour(eigenvalues: np.ndarray, margin: float, mu: float) -> bool:
    """Whether every disc of radius ``margin`` about ``eigenvalues`` lies
    left of the hyperbola ``z(u) = mu (1 + sin(i u - a))``,
    ``a = _CONTOUR_ALPHA + _CONTOUR_GUARD``: the region
    ``x <= f(y) = mu (1 - sin(a) sqrt(1 + (y / (mu cos a))^2))`` is convex
    and f falls with |y|, so the disc's corner ``(x + r, |y| + r)`` of its
    bounding square decides."""
    a = _CONTOUR_ALPHA + _CONTOUR_GUARD
    y = (np.abs(eigenvalues.imag) + margin) / (mu * np.cos(a))
    edge = mu * (1.0 - np.sin(a) * np.sqrt(1.0 + y * y))
    return bool(np.all(eigenvalues.real + margin < edge))


def _contour_windows(matrix: np.ndarray, times: np.ndarray, runs) -> list:
    """The decade windows of ``times`` that the contour sum serves for
    the augmented matrix of ``matrix``: lists of one-point-run indices
    at ``t != 0``, each within ``[t0, _CONTOUR_SPAN t0]`` of its first
    point ``t0``, proved to keep the spectrum left of the contour,
    whatever their size.

    The proof is one ``eig`` of M.  The computed pairs are exact for
    ``M + E`` with ``||E|| <= (n + 2) eps ||M||_F``, so by Bauer-Fike
    every eigenvalue of M lies within ``cond(V) (n + 2) eps ||M||_F`` of
    a computed one (infinite for a singular V: no window is proved).
    The augmented matrix adds the eigenvalue 0, exactly, which lies left
    of every contour since its vertex ``mu (1 - sin a)`` is positive.
    """
    alone = [start for start, stop in runs if stop - start == 1 and times[start]]
    windows = []
    while alone:
        count = int(np.searchsorted(times[alone], _CONTOUR_SPAN * times[alone[0]],
                                    side="right"))
        windows.append(alone[:count])
        alone = alone[count:]
    if not windows:
        return []
    eigenvalues, vectors = np.linalg.eig(matrix)
    margin = (np.linalg.cond(vectors) * (matrix.shape[0] + 2) * _EPS
              * np.linalg.norm(matrix))
    spectrum = np.append(eigenvalues, 0.0)
    return [w for w in windows
            if _left_of_contour(spectrum, margin, _CONTOUR_MU / times[w[0]])]


def _contour_sum(matrices, x0, times) -> np.ndarray:
    """``x(t) = sum_k w_k e^{z_k t} (z_k I - K)^{-1} x0`` of each slice at
    (P, T) ``times`` of one window, the nodes scaled to its first time:
    (P, T, n).  The resolvents are solved in stacks of at most
    ``_EXPM_STACK_ENTRIES`` entries, the exponential weights formed in
    blocks of at most as many."""
    points, n = x0.shape
    scale = 1.0 / times[:, :1]
    z = _CONTOUR_Z * scale
    nodes = z.shape[1]
    slices = np.repeat(np.arange(points), nodes)
    resolvents = np.empty((points * nodes, n), dtype=complex)
    chunk = max(1, _EXPM_STACK_ENTRIES // (n * n))
    for at in range(0, points * nodes, chunk):
        picked = slices[at:at + chunk]
        shifted = -matrices[picked]
        shifted.reshape(len(picked), n * n)[:, ::n + 1] += z.reshape(-1)[at:at + chunk, None]
        resolvents[at:at + chunk] = np.linalg.solve(shifted, x0[picked][..., None])[..., 0]
    resolvents = resolvents.reshape(points, nodes, n)
    # z_{-k} and w_{-k} are the conjugates of z_k and w_k, so the
    # weights of the nodes k < 0 are those of k > 0 conjugated
    weights = (_CONTOUR_W[_CONTOUR_N:] * scale)[:, None, :]
    z = z[:, None, _CONTOUR_N:]
    out = np.empty(times.shape + (n,), dtype=complex)
    block = max(1, _EXPM_STACK_ENTRIES // nodes)
    for at in range(0, times.shape[1], block):
        span = slice(at, at + block)
        half = weights * np.exp(times[:, span, None] * z)
        out[:, span] = np.concatenate((half[..., :0:-1].conj(), half), axis=-1) @ resolvents
    return out


def _propagate_expm(matrices: np.ndarray, x0: np.ndarray, times: np.ndarray,
                    runs, rows=slice(None), windows=(), steady=None) -> np.ndarray:
    """``x(t) = e^{K t} x0`` of each slice of a stack, the one place qbnet
    exponentiates: (P, n, n) ``matrices``, (P, n) ``x0`` and (P, T)
    ``times`` give the entries ``rows`` of x as (P, T, len(rows)).

    ``runs`` are the ``(start, stop)`` runs of equal steps that every
    slice's grid shares (``_runs``).  Along a longer run x is stepped,
    ``x <- expm(K h) x``, ``h`` being the run's first time minus the one
    before it (the origin for ``start = 0``): one ``expm`` per run.  A
    one-point run at ``t != 0`` (every point of a log grid) is
    ``e^{K t} x0``: the points of each of ``windows`` (lists of such
    runs' starts, see ``_contour_windows``) by one contour sum
    (``_contour_sum``), the rest of all slices exponentiated together,
    one ``expm`` call per ``_EXPM_STACK_ENTRIES`` entries.  Scipy's expm
    (scaling and squaring, Pade) assumes no diagonalisability of K.

    ``steady``, (P, n - 1), is given when each K is the augmented matrix
    ``[[M, d], [0, 0]]`` of a decaying network and x0 is ``[alpha0; 1]``:
    it holds the steady states ``alpha_ss``.  The one-point runs then
    read alpha straight off ``e^{K t} x0``, while the runs step the
    offset ``alpha - alpha_ss`` under M alone: ``M + M^dagger`` is
    negative semidefinite, so a step is a 2-norm contraction and does
    not amplify rounding.
    """
    points, n = x0.shape
    out = np.empty(times.shape + x0[0, rows].shape, dtype=complex)
    served = {i for window in windows for i in window}
    alone = [start for start, stop in runs if stop - start == 1 and start not in served]
    away = times[:, alone].any(axis=0).tolist()
    out[:, [i for i, a in zip(alone, away) if not a]] = x0[:, None, rows]
    alone = [i for i, a in zip(alone, away) if a]
    # the states a longer run starts from
    needed = {start - 1 for start, stop in runs if stop - start > 1}
    chunk = max(1, _EXPM_STACK_ENTRIES // matrices.size)
    states = {}

    def keep(picked, x):
        out[:, picked] = x[..., rows]
        states.update((i, x[:, j]) for j, i in enumerate(picked) if i in needed)

    for window in windows:
        keep(window, _contour_sum(matrices, x0, times[:, window]))
    for at in range(0, len(alone), chunk):
        picked = alone[at:at + chunk]
        exps = expm((matrices[:, None] * times[:, picked, None, None])
                    .reshape(-1, n, n)).reshape(points, len(picked), n, n)
        keep(picked, (exps @ x0[:, None, :, None])[..., 0])
    x = x0
    if steady is not None:  # runs step the offset under M alone
        n -= 1
        matrices = matrices[:, :n, :n]
        states = {i: state[:, :n] - steady for i, state in states.items()}
        x = x0[:, :n] - steady
    for start, stop in runs:
        if stop - start > 1:
            step = times[:, start] - (times[:, start - 1] if start else 0.0)
            full = np.empty((points, stop - start, n), dtype=complex)
            _step(expm(matrices * step[:, None, None]), x, full)
            out[:, start:stop] = (full if steady is None
                                  else full + steady[:, None])[..., rows]
            x = full[:, -1]
        elif start in states:
            x = states[start]
    return out


def _augmented(sys: LinearSystem) -> np.ndarray:
    """``[[M, d], [0, 0]]``, whose exponential carries the drive integral."""
    n = sys.n
    augmented = np.zeros((n + 1, n + 1), dtype=complex)
    augmented[:n, :n] = sys.matrix
    augmented[:n, n] = sys.drive
    return augmented


def evolve(sys: LinearSystem, initial, times) -> Trajectory:
    """Propagate amplitudes from ``initial`` (the state at t = 0) over
    the given time grid.

    Every point is read off ``[alpha0; 1]`` under the augmented matrix
    ``[[M, d], [0, 0]]``, exact without any inverse of M and with no
    cancellation against ``alpha_ss``, except along runs of equal steps
    on a network that ``steady_state`` admits: those are stepped around
    its steady state, ``alpha_ss + e^{M h} (alpha - alpha_ss)``, a
    contraction (on cascaded nr, n = 4, in the fig4 regime, 2,001
    augmented steps to t = 2e5 drift by 5e-12 |alpha_ss|, this form by
    3e-14).  On a decaying network the isolated points (every point of a
    log grid, a one-point grid too) of each decade window ``[t0, 10 t0]``
    are one contour sum of 97 resolvents (Talbot, IMA J. Appl. Math. 23,
    1979; Weideman & Trefethen, Math. Comp. 76, 2007), served only when
    one ``eig`` of M proves every eigenvalue, with its Bauer-Fike margin,
    left of the contour (``_contour_windows``); the points of an
    unproved window are one ``expm`` each.
    A network ``steady_state`` refuses (marginal or singular) is
    propagated by ``expm`` alone.

    ``Trajectory.method`` records which ran: "augmented" for a refused
    network; else "contour" when contour sums served every point away
    from t = 0, "expm" when none did, "contour+expm" for a mix.
    """
    times = np.asarray(times, dtype=float)
    _check_times(times)
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (sys.n,):
        raise ValueError(f"initial must have shape ({sys.n},), got {initial.shape}")
    if not np.all(np.isfinite(initial.view(float))):
        raise ValueError("initial amplitudes must be finite")

    runs = list(_runs(times))
    augmented, x0 = _augmented(sys)[None], np.append(initial, 1.0)[None]
    rows = slice(sys.n)
    try:
        alpha_ss = steady_state(sys).amplitudes
    except (UnstableSystemError, NoSteadyStateError):
        amps = _propagate_expm(augmented, x0, times[None], runs, rows)[0]
        return Trajectory(times, amps, dict(sys.index), "augmented")
    windows = _contour_windows(sys.matrix, times, runs)
    amps = _propagate_expm(augmented, x0, times[None], runs, rows, windows,
                           alpha_ss[None])[0]
    served = sum(map(len, windows))
    rest = np.count_nonzero(times) - served
    method = ("contour+expm" if served and rest else
              "contour" if served else "expm")
    return Trajectory(times, amps, dict(sys.index), method)


def vacuum(sys: LinearSystem) -> np.ndarray:
    """All-modes-empty initial condition."""
    return np.zeros(sys.n, dtype=complex)
