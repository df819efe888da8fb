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
matrix's entries first: the certificate bounds the Hermitian part
``H = (M + M^dagger)/2`` by Gershgorin discs over the couplings alone
(their ``Pattern``), in O(nnz), radii 0 and not formed for a stack whose
couplings ``_entries`` wrote as above (``Stack.skew``), giving ``mu``
with ``Re<x, M x> <= -mu |x|^2`` for every x.  When ``mu > 0`` the
numerical range proves ``spectral abscissa <= -mu``,
``sigma_min(M) >= mu`` and ``cond_2(M) <= ||M||_F / mu``.  A rule runs
its dense O(n^3) check (``eigvals`` or ``cond``) only when the
certificate cannot prove its accept verdict (a zero-decay mode, a
marginal decay, a bound near ``CONDITION_LIMIT``).  ``is_stable`` stays
the dense reference.

The gate is written once, over a ``Stack`` (``steady_states``): P
matrices held as the entries ``_fill`` scatters to ``Pattern.positions``,
each slice's diagonal and then its coupling values.  It returns
arrays (amplitudes, residuals, conditions) with a map from each refused
slice to its error; ``steady_state`` is its P = 1 case, its entries
gathered from M, a ``SteadyState`` or the error raised.  ``layout``
compiles each built-in topology once from ``network.structure``, so
``assemble_points`` fills the entries of P points without a spec, by
``assemble``'s entry formula, and returns that layout.  Without mode 0,
the charger, both families are banded (``M[1:, 1:]`` of bandwidth 2 at
most): a stack of at least ``_BAND_MIN_MODES`` modes solves its
certified slices by a bordered band LU whose band storage, border and
residual come straight from the entries, so a 5,000-battery chain needs
a few MB, not a 1.6 GB slice.  What stays dense is ``_fill``'s: the dense
LU (stacks below ``_BAND_MIN_MODES`` modes and the slices the
certificate cannot prove), the ``eigvals`` and ``cond`` checks of
unproven slices, and the propagators.

``evolve`` is exact on every network.  It propagates one matrix
(``_propagate``): each point is read off ``[alpha0; 1]`` under the
augmented matrix ``[[M, d], [0, 0]]``, whose exponential carries the
drive integral (Van Loan, IEEE TAC 23(3), 1978),
so a small early amplitude never cancels against ``alpha_ss``.  Runs of
equal steps on a decaying network are the exception: they are stepped
around the steady state, ``alpha_ss + e^{M h} (alpha - alpha_ss)``, a
contraction, each run's values read off one product of the powers
``e^{2^b M h}`` of one ``_doublings`` call (``_step``).  The isolated
points of a decaying network (every point of a log grid) are grouped
into decade windows ``[t0, 10 t0]``, and each window, whatever its
size, is one contour sum: the Bromwich integral of
the resolvent on a hyperbola (Talbot 1979; Weideman & Trefethen 2007),
97 batched solves shared by every point of the window.  ``evolve``
serves a window by the contour only when one ``eig`` of M, with a
Bauer-Fike margin, proves every eigenvalue left of it; otherwise, and
for a network ``steady_state`` refuses, each point is one ``expm``.

``expm`` is scaling and squaring with a Pade approximant over the whole
stack, degree and scaling chosen per slice (Al-Mohy & Higham 2009), in
numpy: the first of the doublings ``e^{2^k A}``, k < K, that
``_doublings`` returns, each equal bit for bit to a fresh ``expm`` of
``2^k A`` while the K share one set of powers, structure and Pades.
The peak scan of ``observables.max_power`` takes its first point and its
octave steps ``e^{2^k M h_0}`` from one such call (``_octave_scan``); its
ladder (``_ladder``) descends to every peak on the same powers and ends in
one ``expm`` of all the peaks.  scipy loads only when a run needs a band
solve: ``zgbtrf``, ``zgbtrs`` and ``zgbmv`` start as stand-ins that import
scipy's function on their first call and bind it in their place, so
``import qbnet``, every propagation and every steady solve below
``_BAND_MIN_MODES`` modes load no scipy module.
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


def _load_band_lu():
    from scipy.linalg.blas import zgbmv
    from scipy.linalg.lapack import zgbtrf, zgbtrs
    return zgbtrf, zgbtrs, zgbmv


zgbtrf = _OnFirstUse("zgbtrf", lambda: _load_band_lu()[0])
zgbtrs = _OnFirstUse("zgbtrs", lambda: _load_band_lu()[1])
zgbmv = _OnFirstUse("zgbmv", lambda: _load_band_lu()[2])

#: spectral abscissa above this is treated as non-decaying
STABILITY_FLOOR = -1e-14

#: refuse a steady state when the condition estimate exceeds this
CONDITION_LIMIT = 1e12

#: a reused step must land within this distance, relative to the grid
#: time, of every grid point it serves
STEP_RTOL = 1e-12

#: a run of equal steps is read off as ``E^(B q + r)``, r < B: this many
#: left rows ``E^r`` times one right column ``E^(B q) x`` each (``_step``)
STEP_BLOCK = 16

#: isolated grid points are exponentiated, contour resolvents solved and
#: doublings formed in stacks of at most this many matrix entries (4 MiB
#: of complex128; ``expm`` works in up to 16 such stacks)
_EXPM_STACK_ENTRIES = 2 ** 18

#: ``expm`` prescales a slice whose 1-norm exceeds this, so that A^10 stays
#: below 2^640, far from overflow
_EXPM_NORM_MAX = 2.0 ** 64

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

#: band-route break-even (``_solve``, one network per family and variant):
#: a tie at 41 modes, the band wins all four at 49; also 8 per unit of width.
#: With the band filled from the entries and the dense LU paying its own
#: ``_fill``, a tie at 35 and all four at 37 (median of 400, OpenBLAS on 1
#: thread); kept at 48, which small stacks' outputs and the joint gain
#: stack's ``2n + 1 < _BAND_MIN_MODES`` rest on
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
    """Coupling k joins rows ``ends[2k] = t``, ``ends[2k + 1] = s``; ``positions``: the flat
    position in M of each entry of a ``Stack`` row, its diagonal, then each coupling's
    ``M[t, s]``, then each one's ``M[s, t]``; ``width``: ``M[1:, 1:]``'s.  ``slots``: where
    each such entry lands in ``_band_solve``'s workspace, the LAPACK band storage of
    ``M[1:, 1:]``, then column 0 and row 0 of M; None for a pattern that never takes the
    band route."""

    positions: np.ndarray
    ends: np.ndarray
    width: int
    slots: np.ndarray | None


def _pattern(t: np.ndarray, s: np.ndarray, n: int, banded: bool) -> Pattern:
    width = int(np.max(np.abs(t - s)[(t > 0) & (s > 0)], initial=0))
    rows, cols = np.concatenate((np.arange(n), t, s)), np.concatenate((np.arange(n), s, t))
    band = (n - 1) * (3 * width + 1)  # (column - 1, 2 width + row - column), transposed
    slots = None if not banded else np.where(rows == 0, band + n + cols, np.where(
        cols == 0, band + rows, (cols - 1) * (3 * width + 1) + 2 * width + rows - cols))
    return Pattern(rows * n + cols, np.stack((t, s), axis=1).ravel(), width, slots)


class Stack:
    """A (P, n, n) stack of dynamics matrices held as the entries ``_fill``
    writes, one row of ``entries`` (P, n + 2c) per slice: its ``diagonal``
    (P, n), then its coupling values ``forward`` (``M[t, s]``) and
    ``backward`` (``M[s, t]``), (P, c) each, at ``pattern.positions``;
    every other entry is 0.  ``skew``: each backward value is known to be
    ``-conj`` of its forward one, as ``_entries`` writes them, so that
    ``M + M^dagger`` is diagonal.  The certificate and the band route read
    these arrays, in O(nnz).  ``dense`` is the (P, n, n) stack itself, filled
    once on first use (``_fill``) unless given; indexing the stack reads it."""

    def __init__(self, entries: np.ndarray, pattern: Pattern, dense=None, skew=False):
        n, couplings = entries.shape[1] - len(pattern.ends), len(pattern.ends) // 2
        self.entries, self.pattern, self.skew = entries, pattern, skew
        self.diagonal, self.forward, self.backward = (
            entries[:, :n], entries[:, n:n + couplings], entries[:, n + couplings:])
        self._dense = dense

    @classmethod
    def gather(cls, matrices: np.ndarray, pattern: Pattern) -> Stack:
        """The stack of the dense (P, n, n) ``matrices``, whose nonzero
        off-diagonal entries all lie on ``pattern``."""
        points, n = matrices.shape[:2]
        return cls(matrices.reshape(points, n * n).take(pattern.positions, axis=1), pattern,
                   matrices)

    @property
    def dense(self) -> np.ndarray:
        if self._dense is None:
            self._dense = _fill(self)
        return self._dense

    @property
    def shape(self) -> tuple:
        points, n = self.diagonal.shape
        return points, n, n

    def __len__(self) -> int:
        return len(self.diagonal)

    def __getitem__(self, key):
        return self.dense[key]

    def take(self, rows) -> Stack:
        """The slices ``rows``, ascending and distinct: the stack itself when
        they are all of them, so that its dense fill is shared."""
        if len(rows) == len(self):
            return self
        dense = None if self._dense is None else self._dense[rows]
        return Stack(self.entries[rows], self.pattern, dense, self.skew)


def _certify(stack: Stack) -> tuple:
    """``(mu, abscissa_bound, condition_bound)`` of each slice of a ``Stack``,
    in O(nnz), by the Gershgorin discs of ``H``: centre ``Re M[i, i]``,
    radius ``|M[t, s] + conj(M[s, t])| / 2`` summed over the couplings at i.
    A ``skew`` stack's radii are 0 by construction and are not formed (nor
    a gathered stack's that all read 0): ``mu`` is then the largest centre
    times ``slack - 1``, a positive scale that commutes with the max.

    ``mu`` is a lower bound.  ``abscissa_bound``, on the abscissa as
    ``eigvals`` computes it, adds ``(n + 2) eps ||M||_F`` to ``-mu`` for its
    backward error E: every eigenvalue of ``M + E`` lies within ``||E||_2``
    of the numerical range of M.  ``condition_bound`` is ``||M||_F / mu``,
    infinite unless ``mu > 0``.  Computed moduli and row sums are within
    ``(n + 2) eps`` relative, the squared Frobenius sum (over the stack's
    entries, its only nonzeros) within ``n^2 eps``; both are charged
    against the bounds.
    """
    points, n = stack.diagonal.shape
    slack = (n + 2) * _EPS
    off = None if stack.skew else np.abs(stack.forward + stack.backward.conj())
    if off is not None and np.count_nonzero(off):
        radius = np.bincount((stack.pattern.ends + n * np.arange(points)[:, None]).ravel(),
                             off.repeat(2, axis=1).ravel(), points * n).reshape(points, n)
        mu = -np.maximum.reduce(stack.diagonal.real * (1.0 - slack)
                                + radius * (0.5 * (1.0 + slack)), axis=1)
    else:
        mu = np.maximum.reduce(stack.diagonal.real, axis=1) * (slack - 1.0)
    norm = _norms(stack.entries) * (1.0 + n * slack)
    bound = np.empty(points)
    bound.fill(np.inf)
    np.divide(norm, mu, out=bound, where=mu > 0.0)
    return mu, slack * norm - mu, bound


def _norms(vectors: np.ndarray) -> np.ndarray:
    """2-norm of each row of a (P, m) array with contiguous rows."""
    flat = vectors.view(float)
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
        return _pattern(*np.tril(abs(self.matrix) + abs(self.matrix.T), -1).nonzero(), self.n,
                        self.n >= _BAND_MIN_MODES)

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


def _entries(rotation, decay, pattern, strength, phase) -> Stack:
    """The ``Stack`` for ``rotation = -i detuning`` and per-point ``decay``
    (P, n), coupling ``strength`` and ``phase`` (P, couplings) at the
    distinct positions of ``pattern``, each entry as if added to zero
    (``+ 0.0``): the one place the entry formula above is written."""
    (points, n), couplings = decay.shape, strength.shape[1]
    entries = np.empty((points, n + 2 * couplings), dtype=complex)
    entries[:, :n] = rotation - decay / 2.0
    forward = entries[:, n:n + couplings]
    forward[...] = -1j * strength * np.exp(1j * phase)
    forward += 0.0
    entries[:, n + couplings:] = 0.0 - forward.conj()  # -conj(forward) + 0.0
    return Stack(entries, pattern, skew=True)


def _fill(stack: Stack) -> np.ndarray:
    """The dense (P, n, n) matrices of a ``Stack``, one scatter to
    ``pattern.positions``: the one densifier, run only for the dense LU,
    the dense checks and the propagators."""
    points, n = stack.diagonal.shape
    matrices = np.zeros((points, n, n), dtype=complex)
    matrices.reshape(points, n * n)[:, stack.pattern.positions] = stack.entries
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
    matrix = _fill(_entries(-1j * np.array([m.detuning for m in spec.modes], dtype=float),
                            np.array([[m.decay_rate for m in spec.modes]], dtype=float),
                            _pattern(t.astype(np.intp), s.astype(np.intp), len(index), False),
                            strength[None], phase[None]))[0]
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
    pattern = _pattern(t, s, len(index), True)
    for array in arrays + (pattern.positions, pattern.ends, pattern.slots):
        array.setflags(write=False)  # shared by every caller
    return (MappingProxyType(index),) + arrays + (pattern,)


def assemble_points(params: TopologyParams, **columns) -> tuple:
    """``(stack, drives, layout)`` of P points of a built-in topology: their
    ``Stack`` and (P, n) drives, ``columns`` as in ``network.parameter_tables``;
    no spec and no dense matrix is built.  The layout has intermediates when
    any variant of the points has them (an ``r1`` point then fills it with
    decoupled intermediates)."""
    variants = columns.get("variant", (params.variant,))
    compiled = layout(params.family, not set(WITH_INTERMEDIATES).isdisjoint(variants),
                      params.n)
    _, decay, strength, phase, pattern = compiled
    rates, strengths, phases, xi = parameter_tables(params, **columns)
    stack = _entries(-1j * 0.0, rates.take(decay, axis=1), pattern,
                     strengths.take(strength, axis=1), phases.take(phase, axis=1))
    # assemble's -1j * detuning above: a plain 0.0 flips signed zeros
    drives = np.zeros(stack.diagonal.shape, dtype=complex)
    drives[:, 0] += -1j * xi  # the charger
    return stack, drives, compiled


def _band_solve(stack: Stack, drives, width) -> tuple:
    """``_solve`` by one LAPACK ``zgbtrf``/``zgbtrs`` of the stacked block diagonal
    of the ``M[1:, 1:]`` (bandwidth ``width``), then the scalar Schur complement S
    of mode 0.  With ``mu > 0`` every principal block is dissipative: ``|S| >= mu``,
    and no pivot need cross the border.  The band storage and the border (column
    and row 0 of M) are filled straight from the stack's entries, one scatter to
    ``pattern.slots``, and the residual is the banded product ``zgbmv`` of the
    band storage with alpha plus the border's (Golub & Van Loan, Matrix
    Computations, 4.3)."""
    points, n = drives.shape
    m, w = n - 1, width
    size = m * (3 * w + 1)
    work = np.zeros((points, size + 2 * n), dtype=complex)
    work[:, stack.pattern.slots] = stack.entries
    band = work[:, :size].reshape(points * m, -1).T  # LAPACK band storage
    column, row = work[:, size:].reshape(points, 2, n).transpose(1, 0, 2)
    lu, pivots, _ = zgbtrf(band, w, w)
    rhs = -drives
    pair = np.stack((column[:, 1:], rhs[:, 1:])).reshape(2, -1).T
    via, rest = zgbtrs(lu, w, w, pair, pivots)[0].T.reshape(2, points, m)
    to_via, to_rest = np.einsum("pi,kpi->kp", row[:, 1:], (via, rest))
    head = (rhs[:, 0] - to_rest) / (row[:, 0] - to_via)
    alpha = np.concatenate((head[:, None], rest - via * head[:, None]), axis=1)
    product = column * head[:, None]
    product[:, 0] = np.einsum("pi,pi->p", row, alpha)
    product[:, 1:] += zgbmv(points * m, points * m, w, 2 * w, 1.0, band,
                            alpha[:, 1:].ravel()).reshape(points, m)
    return alpha, _norms(product + drives)


def _solve(stack: Stack, drives, width=None) -> tuple:
    """``(alpha, residual norm)`` of ``M alpha = -d`` per slice of a ``Stack``, by
    dense LU of its fill or, given the bandwidth of the ``M[1:, 1:]``, by
    ``_band_solve``."""
    if width is not None:
        return _band_solve(stack, drives, width)
    matrices = stack.dense
    alpha = np.linalg.solve(matrices, -drives[..., None])[..., 0]
    return alpha, _norms((matrices @ alpha[..., None])[..., 0] + drives)


def steady_states(stack: Stack, drives: np.ndarray,
                  abscissas: np.ndarray | None = None) -> tuple:
    """``steady_state`` of each slice of a ``Stack`` with its (P, n) drives,
    in one batched solve: ``(amplitudes, residuals, conditions, errors)``,
    ``errors`` mapping a refused slice (amplitudes NaN) to the error
    ``steady_state`` raises.  The certificate reads the stack's entries; the
    dense checks run, stacked, only on the slices it cannot prove, and only
    those slices and the dense LU's are filled (``Stack.dense``);
    ``abscissas``, the dense abscissa of every slice when the caller has
    computed them, stand in for the gate's own ``eigvals``."""
    mu, abscissa_bound, condition_bound = _certify(stack)
    errors, conditions, width = {}, condition_bound, stack.pattern.width
    if not abscissa_bound.max() <= STABILITY_FLOOR:
        slices = (~(abscissa_bound <= STABILITY_FLOOR)).nonzero()[0]
        dense = (_abscissas(stack.take(slices).dense) if abscissas is None
                 else abscissas[slices])
        for i, abscissa in zip(slices.tolist(), dense.tolist()):
            if not abscissa <= STABILITY_FLOOR:
                errors[i] = UnstableSystemError(
                    f"network is not strictly decaying (spectral abscissa "
                    f"{abscissa:.3e}, above the floor {STABILITY_FLOOR:g})",
                    spectral_abscissa=abscissa)
    slices = [] if condition_bound.max() <= CONDITION_LIMIT else [
        i for i in (~(condition_bound <= CONDITION_LIMIT)).nonzero()[0].tolist()
        if i not in errors]
    if slices:
        conditions = condition_bound.copy()
        conditions[slices] = np.linalg.cond(stack.take(slices).dense)
        for i, cond in zip(slices, conditions[slices]):
            if not cond <= CONDITION_LIMIT:
                errors[i] = NoSteadyStateError(
                    f"no unique steady state: condition estimate {cond:.3e} "
                    f"exceeds {CONDITION_LIMIT:.0e}", condition=cond)
    banded = mu > 0.0 if drives.shape[1] >= max(_BAND_MIN_MODES, 8 * width) else None
    if not errors and (banded is None or banded.all()):
        route = None if banded is None else width
        return (*_solve(stack, drives, route), conditions, errors)
    keep = np.ones(len(drives), dtype=bool)
    keep[list(errors)] = False
    banded = keep & (False if banded is None else banded)
    amplitudes, residuals = np.full(drives.shape, np.nan, complex), np.full(len(drives), np.nan)
    for rows, route in ((keep & ~banded, None), (banded, width)):
        if rows.any():
            amplitudes[rows], residuals[rows] = _solve(stack.take(rows.nonzero()[0]),
                                                       drives[rows], route)
    return amplitudes, residuals, conditions, errors


def steady_state(sys: LinearSystem) -> SteadyState:
    """Solve ``M alpha = -d``; refuse a network that does not decay to it.

    The decay rule comes first (``UnstableSystemError``), then the
    condition rule (``NoSteadyStateError``), each proven by the
    certificate or decided by its dense check (see the module doc).
    ``SteadyState.residual`` is the norm of ``M alpha + d``.  This is
    ``steady_states`` on a stack of one, its entries gathered from M at
    ``sys.pattern``.
    """
    amplitudes, residuals, conditions, errors = steady_states(
        Stack.gather(sys.matrix[None], sys.pattern), sys.drive[None])
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


def _left_of_contour(eigenvalues: np.ndarray, margin: float, mu: float) -> bool:
    """Whether every disc of radius ``margin`` about ``eigenvalues`` lies
    left of the hyperbola ``z(u) = mu (1 + sin(i u - a))``,
    ``a = _CONTOUR_ALPHA + _CONTOUR_GUARD``: the region
    ``x <= f(y) = mu (1 - sin(a) sqrt(1 + (y / (mu cos a))^2))`` is convex
    and f falls with |y|, so the disc's corner ``(x + r, |y| + r)`` of its
    bounding square decides."""
    a = _CONTOUR_ALPHA + _CONTOUR_GUARD
    y = (np.abs(eigenvalues.imag) + margin) / (mu * np.cos(a))
    edge = mu * (1.0 - np.sin(a) * np.hypot(1.0, y))
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


def _contour_sum(matrix, x0, times) -> np.ndarray:
    """``x(t) = sum_k w_k e^{z_k t} (z_k I - K)^{-1} x0`` at the (T,)
    ``times`` of one window, the nodes scaled to its first time: (T, n).
    The resolvents are solved in stacks of at most ``_EXPM_STACK_ENTRIES``
    entries, the exponential weights formed in blocks of at most as many."""
    n = len(x0)
    scale = 1.0 / times[0]
    z = _CONTOUR_Z * scale
    nodes = len(z)
    resolvents = np.empty((nodes, n), dtype=complex)
    chunk = max(1, _EXPM_STACK_ENTRIES // (n * n))
    for at in range(0, nodes, chunk):
        shifts = z[at:at + chunk]
        shifted = np.repeat(-matrix[None], len(shifts), axis=0)
        shifted.reshape(len(shifts), n * n)[:, ::n + 1] += shifts[:, None]
        resolvents[at:at + chunk] = np.linalg.solve(shifted, x0[:, None])[..., 0]
    # z_{-k} and w_{-k} are the conjugates of z_k and w_k, so the
    # weights of the nodes k < 0 are those of k > 0 conjugated
    weights = _CONTOUR_W[_CONTOUR_N:] * scale
    z = z[_CONTOUR_N:]
    out = np.empty((len(times), n), dtype=complex)
    block = max(1, _EXPM_STACK_ENTRIES // nodes)
    for at in range(0, len(times), block):
        half = weights * np.exp(times[at:at + block, None] * z)
        out[at:at + block] = np.concatenate((half[:, :0:-1].conj(), half), axis=-1) @ resolvents
    return out


# The Pade degrees m of ``expm``, with theta_m, the largest ||2^-s A|| whose
# r_m meets the unit roundoff u = eps / 2 in backward error, and
# |c_{2m+1}| / u, c_{2m+1} being the leading coefficient of that error's
# series (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31(3), 2009,
# Table 3.1 and (5.1)).
_DEGREES = np.array([3, 5, 7, 9, 13])
_THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
                   2.097847961257068, 4.25])
_C_OVER_U = 1.0 / (np.array([100800.0, 10059033600.0, 4487938430976000.0,
                             5914384781877411840000.0,
                             113250775606021113483283660800000000.0]) * (_EPS / 2.0))
#: the coefficients b_0 .. b_m of the numerator of each r_m
_PADE = {3: (120.0, 60.0, 12.0, 1.0),
         5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
         7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
         9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
             2162160.0, 110880.0, 3960.0, 90.0, 1.0),
         13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
              1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
              33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)}


#: the exponents of ``_powers``
_POWERS = np.array([1, 2, 4, 6, 8, 10])
#: the exponents k of the ell chain ``1^T |2^-s A|^k``
_CHAIN = np.array([1, 3, 7, 11, 15, 19, 27])


def _powers(matrices: np.ndarray) -> np.ndarray:
    """A, A^2, A^4, ..., A^10 of each slice of a (P, n, n) stack: (6, P, n, n)."""
    powers = np.empty((6,) + matrices.shape, dtype=complex)
    powers[0] = matrices
    np.matmul(matrices, matrices, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    np.matmul(powers[2], powers[2:4], out=powers[4:6])
    return powers


def _pade_structure(powers: np.ndarray, exponents: np.ndarray) -> tuple:
    """``(degree, squarings)``, each (K, P), of ``2^e A`` for each e of the
    (K, P) integer ``exponents`` and each slice of A, from the ``_powers``
    of A: Al-Mohy & Higham 2009, Algorithm 5.1, with exact 1-norms.

    The degree is the least m whose theta_m exceeds eta, the bound on
    ||A^k||^(1/k) that m needs, and whose ell_m is 0; else 13, with the
    s that brings eta_5 under theta_13 plus ell_13 of the scaled A.
    ell_m counts the squarings that the nonnormality of A asks for,
    from alpha_m = |c_{2m+1}| || |A|^(2m+1) ||_1 / ||A||_1; every
    || |2^-s A|^(2m+1) ||_1 is read off one chain of row vectors
    ``1^T |2^-s A|^k``.  A slice that can take a degree below 13 has
    s = 0, so the one chain serves every degree.

    The powers, column sums and chain of ``2^e A`` are those of A scaled by
    exact powers of two, so one set of column sums and one chain, formed at
    each slice's largest ``e - s``, serve every e: each (m, s) is the one
    that the powers of ``2^e A`` itself give.
    """
    moduli = np.abs(powers)
    columns = np.einsum("...ij->...j", moduli)  # column sums: 1-norms are their maxima
    norms = columns.max(axis=-1) * np.exp2(_POWERS[:, None] * exponents[:, None])
    d = norms[:, 2:] ** (1.0 / _POWERS[2:, None])
    eta = np.maximum(d[:, :-1], d[:, 1:])  # eta_1 (= eta_2), eta_3, eta_4
    s = np.ceil(np.log2(np.maximum(np.minimum(eta[:, 1], eta[:, 2]) / _THETA[4], 1.0)))
    shift = exponents - s  # each chain is that of |2^shift A|
    top = shift.max(axis=0)
    scale = np.exp2(top)[:, None]
    b = moduli[0] * scale[..., None]
    b2 = b @ b
    b4 = b2 @ b2
    chain = np.empty((7,) + b.shape[:1] + (1, b.shape[-1]))  # k = _CHAIN
    chain[0, :, 0] = columns[0] * scale
    for k, step in enumerate((b2, b4, b4, b4, b4, b4 @ b4), 1):
        np.matmul(chain[k - 1], step, out=chain[k])
    norm_b = chain[:, :, 0].max(axis=-1) * np.exp2(_CHAIN[:, None] * (shift - top)[:, None])
    alpha = norm_b[:, 2:] * _C_OVER_U[:, None] / np.maximum(norm_b[:, :1], _TINY)  # alpha_m / u
    ell = np.ceil(np.log2(np.maximum(alpha, 1.0)) / (2 * _DEGREES[:, None]))
    fits = (eta[:, [0, 0, 1, 1]] < _THETA[:4, None]) & (ell[:, :4] == 0)
    degree = np.where(fits.any(axis=1), _DEGREES[fits.argmax(axis=1)], 13)
    return degree, np.where(degree == 13, s + ell[:, 4], 0).astype(int)


def _plus_identity(stack: np.ndarray, c: float) -> np.ndarray:
    """``stack + c I`` in place, ``stack`` contiguous."""
    n = stack.shape[-1]
    stack.reshape(len(stack), n * n)[:, ::n + 1] += c
    return stack


def _sum(coefficients, powers, one: float) -> np.ndarray:
    """``sum_k coefficients[k] powers[k] + one I`` over a stack."""
    total = coefficients[0] * powers[0]
    for c, power in zip(coefficients[1:], powers[1:]):
        total += c * power
    return _plus_identity(total, one)


def _pade(m: int, powers) -> np.ndarray:
    """``r_m(A) = (V - U)^-1 (V + U)`` of a stack from ``powers`` (A, A^2,
    A^4, ..., A^(m - 1); up to A^6 for m = 13), U and V being the odd and
    even parts of its numerator, formed as ``I + 2 (V - U)^-1 U``; degree
    13 reaches its powers above 6 through A^6 (Higham, SIAM J. Matrix
    Anal. Appl. 26(4), 2005, (2.4))."""
    b, a, evens = _PADE[m], powers[0], powers[1:]
    if m < 13:
        u = a @ _sum(b[3::2], evens, b[1])
        v = _sum(b[2::2], evens, b[0])
    else:
        u = a @ (evens[2] @ _sum(b[9::2], evens, 0.0) + _sum(b[3:9:2], evens, b[1]))
        v = evens[2] @ _sum(b[8::2], evens, 0.0) + _sum(b[2:8:2], evens, b[0])
    return _plus_identity(np.linalg.solve(v - u, 2.0 * u), 1.0)


def _prescale(moduli: np.ndarray, count: int) -> np.ndarray | None:
    """Per doubling k < ``count`` (rows) and slice of A (columns), from the
    moduli |A|, the least p with ``||2^(k - p) A||_1 <= _EXPM_NORM_MAX``, or
    None when p = 0 on every one, as one check of the largest modulus (n
    times it bounds every 1-norm) shows for every stack of a power pass."""
    scale = np.exp2(np.arange(count))[:, None]
    if not moduli.shape[-1] * moduli.max(initial=0.0) * scale[-1, 0] > _EXPM_NORM_MAX:
        return None
    norms = moduli.sum(axis=-2).max(axis=-1) * scale
    prescale = np.ceil(np.log2(np.maximum(norms / _EXPM_NORM_MAX, 1.0))).astype(int)
    return prescale if prescale.any() else None


def _doublings(matrices: np.ndarray, count: int) -> np.ndarray:
    """``e^{2^k A}`` for k < ``count`` of each slice of a (P, n, n) stack:
    (count, P, n, n), each bit-identical to ``expm`` of ``2^k A``.

    Scaling and squaring with a Pade approximant r_m,
    ``e^A = r_m(2^-s A)^(2^s)``, m and s chosen per slice and doubling by
    ``_pade_structure`` (Al-Mohy & Higham 2009, scipy's algorithm).  The
    powers of ``2^k A`` are exact power-of-two scalings of A, A^2, ..., A^10,
    formed once per slice, and so are every doubling's column sums and ell
    chain.  Each doubling of degree below 13 is one Pade of its scaled
    powers; the degree-13 doublings of a slice that share ``k - s`` share one
    Pade, ``r_13(2^(k - s) A)``, and one chain of squarings, each doubling
    read off it after its own s.  The Pades of each degree are evaluated
    together, and a squaring applies only to the leading chains that still
    need it, so no slice's result depends on the others in its stack.

    A doubling whose 1-norm exceeds ``_EXPM_NORM_MAX``, so that its A^10
    could overflow, is first scaled by the least power of two 2^-p that
    brings it under, and p is added to its s.  The slices are taken in
    chunks whose results hold at most ``_EXPM_STACK_ENTRIES`` entries; the
    workspace peaks at about 16 times a chunk's results.
    """
    points, n = matrices.shape[:2]
    chunk = max(1, _EXPM_STACK_ENTRIES // (count * n * n))
    out = np.empty((count,) + matrices.shape, dtype=complex)
    if points > chunk:
        for at in range(0, points, chunk):
            out[:, at:at + chunk] = _doublings(matrices[at:at + chunk], count)
        return out
    prescale = _prescale(np.abs(matrices), count)
    if prescale is None:
        prescale = np.zeros((count, points), dtype=int)
    elif prescale[0].any():
        matrices = matrices * np.exp2(-prescale[0])[:, None, None]
    # doubling k is 2^(k - p) B squared p more times, B = 2^-p0 A
    exponents = np.arange(count)[:, None] - prescale + prescale[0]
    powers = _powers(matrices)
    degree, squarings = _pade_structure(powers, exponents)
    # r_m(2^shift B) squared ``squarings`` times; one Pade per distinct (m, shift, slice)
    shift, squarings = exponents - squarings, (squarings + prescale).ravel()
    low = shift.min(initial=0)
    span = shift.max(initial=0) - low + 1
    pades, which = np.unique(((degree * span + shift - low) * points
                              + np.arange(points)).ravel(), return_inverse=True)
    picked, shifts = pades % points, (pades // points) % span + low
    x = np.empty((len(pades), n, n), dtype=complex)
    bounds = np.searchsorted(pades // (points * span), _DEGREES, side="right").tolist()
    for m, lo, hi in zip(_DEGREES.tolist(), [0] + bounds, bounds):
        if lo < hi:
            scaled = powers[:m // 2 + 1 if m < 13 else 4, picked[lo:hi]]
            scaled *= np.exp2(np.multiply.outer(_POWERS[:len(scaled)],
                                                shifts[lo:hi]))[..., None, None]
            x[lo:hi] = _pade(m, scaled)
    # the chains of squarings, longest first, each doubling read off after its own count
    top = np.zeros(len(pades), dtype=int)
    np.maximum.at(top, which, squarings)
    order = np.argsort(-top, kind="stable")
    x, top, which = x[order], top[order], np.argsort(order)[which]
    by_count = np.argsort(squarings, kind="stable")
    ends = np.searchsorted(squarings[by_count], np.arange(top.max(initial=0) + 2)).tolist()
    flat = out.reshape(count * points, n, n)
    for t in range(len(ends) - 1):
        if t:
            lead = np.count_nonzero(top >= t)
            x[:lead] = x[:lead] @ x[:lead]
        if ends[t] < ends[t + 1]:
            done = by_count[ends[t]:ends[t + 1]]
            flat[done] = x[which[done]]
    return out


def expm(matrices: np.ndarray) -> np.ndarray:
    """``e^A`` of each slice of a (P, n, n) stack: ``_doublings`` with
    ``count = 1``."""
    return _doublings(matrices, 1)[0]


def _step(powers, x: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
    """``(E^j x)[rows]`` for j = 1 .. ``count``: (..., count, len(rows)),
    from x (..., n) and ``powers[b] = E^(2^b)`` (..., n, n) for
    b < ``count.bit_length()``.

    Each j is ``B q + r`` with r < B, B the least of ``STEP_BLOCK`` and
    ``2^count.bit_length()``, and its value is one left row
    ``e_rows^T E^r`` times one right column ``E^(B q) x``.  The left rows
    are built by doubling their set with E, E^2, ..., E^(B/2), the right
    columns likewise with E^B, E^(2B), ..., so each value is at most
    ``count.bit_length()`` products away from the given powers, and one
    product of all right columns with all left rows gives every value.
    """
    levels = count.bit_length()
    depth = min(levels, STEP_BLOCK.bit_length() - 1)
    width, n = len(rows), x.shape[-1]
    left = np.empty(x.shape[:-1] + (width << depth, n), dtype=complex)
    left[..., :width, :] = np.eye(n)[rows]
    for b in range(depth):
        half = width << b
        np.matmul(left[..., :half, :], powers[b], out=left[..., half:2 * half, :])
    columns = (count >> depth) + 1
    right = np.empty(x.shape[:-1] + (columns, n), dtype=complex)  # one column a row
    right[..., 0, :] = x
    for b in range(depth, levels):
        half = 1 << (b - depth)
        take = min(half, columns - half)
        np.matmul(right[..., :take, :], powers[b].swapaxes(-1, -2),
                  out=right[..., half:half + take, :])
    values = right @ left.swapaxes(-1, -2)  # (..., q, r and row)
    return values.reshape(x.shape[:-1] + (-1, width))[..., 1:count + 1, :]


def _scan_point(i, steps: int) -> tuple:
    """``(k, j)`` of scan point i of ``_octave_scan``: j steps of ``2^k h_0``
    past the start of octave k, so it lies at ``(steps + j) 2^k h_0``."""
    return np.divmod(i, steps)


def _scan_times(h_0: np.ndarray, octaves: int, steps: int) -> np.ndarray:
    """The (P, 1 + octaves steps) times of ``_octave_scan``'s points, each
    an integer multiple of its slice's ``h_0``."""
    k, j = _scan_point(np.arange(1 + octaves * steps), steps)
    return h_0[:, None] * ((steps + j) << k)


def _octave_scan(matrices: np.ndarray, x0: np.ndarray, h_0: np.ndarray, octaves: int,
                 steps: int, rows: np.ndarray) -> tuple:
    """``(values, powers, starts)``: ``(e^{M t} x0)[rows]`` of each slice of
    a (P, n, n) stack at ``t_lo = steps h_0`` and at the ``steps`` equal
    steps ``h_k = 2^k h_0`` of each octave ``[2^k t_lo, 2^(k+1) t_lo]``,
    k < ``octaves`` (``_scan_times``), (P, 1 + octaves steps, len(rows));
    the powers ``E_0^(2^b) = e^{2^b M h_0}``, b < ``octaves`` plus the bit
    length of ``steps`` minus 1; and the full state at each octave start
    k <= ``octaves``, so that scan point (k, j) is ``E_k^j starts[k]``.

    The powers are one ``_doublings`` call on ``M h_0``: doubling k is
    ``E_k = e^{M h_k}`` and doubling k + b is ``E_k^(2^b)``, each a fresh
    exponential.  The octave starts are chained by the binary digits of
    ``steps``, ``x_0 = E_0^steps x0`` and ``x_(k+1) = E_k^steps x_k`` (145:
    ``E_k E_(k+4) E_(k+7) x_k``), and ``_step`` reads the values of every
    octave off one product, in chunks of slices whose values hold at most
    1/16 of ``_EXPM_STACK_ENTRIES`` entries.
    """
    points, width = len(x0), len(rows)
    levels = steps.bit_length()
    powers = _doublings(matrices * h_0[:, None, None], octaves + levels - 1)
    digits = [b for b in reversed(range(levels)) if steps >> b & 1]
    starts = np.empty((octaves + 1,) + x0.shape, dtype=complex)
    x = x0
    for k in range(octaves + 1):
        for b in digits:
            x = (powers[max(k - 1, 0) + b] @ x[..., None])[..., 0]
        starts[k] = x
    out = np.empty((points, 1 + octaves * steps, width), dtype=complex)
    out[:, 0] = starts[0][:, rows]
    chunk = max(1, _EXPM_STACK_ENTRIES // (16 * octaves * steps * width))
    for at in range(0, points, chunk):
        picked = slice(at, at + chunk)
        values = _step([powers[b:b + octaves, picked] for b in range(levels)],
                       starts[:-1, picked], rows, steps)
        out[picked, 1:] = values.swapaxes(0, 1).reshape(-1, octaves * steps, width)
    return out, powers, starts


def _ladder(matrices, x0, alpha, rows, h_0, powers, starts, slices, argmax,
            steps: int) -> tuple:
    """``(t, P(t))`` per pair at the peak of ``P = |a|^2 / t``,
    ``a = alpha + (e^{M t} x0)[row]``, next to its scan ``argmax``, off the
    ``powers`` and ``starts`` of ``_octave_scan``; ``slices`` picks each
    pair's slice of them, of the ``matrices`` and of x0.

    P peaks where ``N(t) = 2t Re(conj(a) a') - |a|^2`` falls through 0.  The
    full state at ``argmax - 1``, point (k, j), is its octave start times
    ``E_k^(2^b)`` for each binary digit b of j.  A binary descent with
    ``powers[b] = E_0^(2^b)`` then finds the last multiple of h_0 before
    ``argmax + 1`` where ``N > 0``, and a secant of N over that h_0 step
    gives t.  One stacked ``expm(M t)`` gives P(t), N and
    ``N' = 2t (|a'|^2 + Re(conj(a) a''))``; the Newton step ``t - N / N'``
    is taken when it stays inside that h_0 step.
    """
    pairs, chosen = np.arange(len(slices)), matrices[slices]
    m_rows = chosen[pairs, rows]

    def slope(x, t):  # (N(t), a, a') of the full states x at t
        a, a1 = x[pairs, rows] + alpha, np.einsum("pi,pi->p", m_rows, x)
        return 2.0 * t * (a.conjugate() * a1).real - np.abs(a) ** 2, a, a1

    def apply(b, x, take=Ellipsis):  # powers[b] x of the pairs ``take``
        return (powers[b, slices[take]] @ x[take][..., None])[..., 0]

    k, j = _scan_point(argmax - 1, steps)
    x = starts[k, slices]
    for b in range(steps.bit_length()):
        take = (j >> b & 1).nonzero()[0]
        x[take] = apply(k[take] + b, x, take)
    k_end, j_end = _scan_point(argmax + 1, steps)
    m, end = (steps + j) << k, (steps + j_end) << k_end
    n_lo = slope(x, m * h_0)[0]
    for b in reversed(range(int(np.max(end - m - 1)).bit_length())):
        ahead = apply(b, x)
        n_ahead = slope(ahead, (m + (1 << b)) * h_0)[0]
        up = (m + (1 << b) < end) & (n_ahead > 0.0)
        x[up], n_lo[up], m[up] = ahead[up], n_ahead[up], m[up] + (1 << b)
    n_hi = slope(apply(0, x), (m + 1) * h_0)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        secant = np.nan_to_num(n_lo / (n_lo - n_hi), nan=0.5)
    t = (m + np.clip(secant, 0.0, 1.0)) * h_0
    x = (expm(chosen * t[:, None, None]) @ x0[slices][..., None])[..., 0]
    n, a, a1 = slope(x, t)
    a2 = np.einsum("pi,pi->p", m_rows, (chosen @ x[..., None])[..., 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        new = t - n / (2.0 * t * (np.abs(a1) ** 2 + (a.conjugate() * a2).real))
    inside = (new >= m * h_0) & (new <= (m + 1) * h_0)
    return np.where(inside, new, t), np.abs(a) ** 2 / t


def _propagate(matrix: np.ndarray, x0: np.ndarray, times: np.ndarray,
               runs, windows=(), steady=None) -> np.ndarray:
    """``x(t) = e^{K t} x0`` of one (n, n) ``matrix`` K from an (n,) ``x0``
    at (T,) ``times``: the state (T, n).

    ``runs`` are the ``(start, stop)`` runs of equal steps of the grid
    (``_runs``).  Along a longer run of c steps x is stepped,
    ``x <- E x`` with ``E = e^{K h}``, ``h`` being the run's first time
    minus the one before it (the origin for ``start = 0``), from the
    point before the run, read back from the output: one ``_doublings``
    call per run gives ``E^(2^b)``, ``2^b <= c``, and ``_step`` reads the
    run's values off their products.  A one-point run at ``t != 0``
    (every point of a log grid) is ``e^{K t} x0``: the points of each of
    ``windows`` (lists of such runs' starts, see ``_contour_windows``) by
    one contour sum (``_contour_sum``), the rest exponentiated together,
    one ``expm`` call per ``_EXPM_STACK_ENTRIES`` entries.  ``expm``
    (scaling and squaring, Pade) assumes no diagonalisability of K.

    ``steady``, (n - 1,), is given when K is the augmented matrix
    ``[[M, d], [0, 0]]`` of a decaying network and x0 is ``[alpha0; 1]``:
    it is the steady state ``alpha_ss``.  The one-point runs then read
    alpha straight off ``e^{K t} x0``, while the runs step the offset
    ``alpha - alpha_ss`` under M alone (their last entry is 1):
    ``M + M^dagger`` is negative semidefinite, so a step is a 2-norm
    contraction and does not amplify rounding.  A run that follows
    another goes on from its last offset, not from its stored sum.
    """
    n = len(x0)
    out = np.empty((len(times), n), dtype=complex)
    out[times == 0] = x0
    served = {i for window in windows for i in window}
    alone = [start for start, stop in runs
             if stop - start == 1 and times[start] and start not in served]
    for window in windows:
        out[window] = _contour_sum(matrix, x0, times[window])
    chunk = max(1, _EXPM_STACK_ENTRIES // matrix.size)
    for at in range(0, len(alone), chunk):
        picked = alone[at:at + chunk]
        out[picked] = (expm(matrix * times[picked, None, None]) @ x0[:, None])[..., 0]

    def offset(x):  # the state a run steps
        return x if steady is None else x[:-1] - steady

    stepped = matrix if steady is None else matrix[:-1, :-1]
    x, end = offset(x0), 0
    for start, stop in runs:
        if stop - start > 1:
            if start != end:
                x = offset(out[start - 1])
            step, count = times[start] - (times[start - 1] if start else 0.0), stop - start
            full = _step(_doublings((stepped * step)[None], count.bit_length())[:, 0], x,
                         np.arange(len(x)), count)
            if steady is None:
                out[start:stop] = full
            else:
                out[start:stop, :-1], out[start:stop, -1] = full + steady, 1.0
            x, end = full[-1], stop
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
    try:
        alpha_ss = steady_state(sys).amplitudes
        windows = _contour_windows(sys.matrix, times, runs)
    except (UnstableSystemError, NoSteadyStateError):
        alpha_ss, windows = None, []
    amps = _propagate(_augmented(sys), np.append(initial, 1.0), times, runs, windows,
                      alpha_ss)[:, :sys.n]
    served = sum(map(len, windows))
    rest = np.count_nonzero(times) - served
    method = ("augmented" if alpha_ss is None else "contour+expm" if served and rest else
              "contour" if served else "expm")
    return Trajectory(times, amps, dict(sys.index), method)


def vacuum(sys: LinearSystem) -> np.ndarray:
    """All-modes-empty initial condition."""
    return np.zeros(sys.n, dtype=complex)
