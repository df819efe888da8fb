"""First-moment linear dynamics: assembly, steady states, propagation.

The mode amplitudes obey ``d(alpha)/dt = M alpha + d`` with

* ``M[m, m] = -i * detuning_m - decay_rate_m / 2``,
* coupling ``(s -> t, g, theta)``: ``M[t, s] += -i g e^{+i theta}``
  and ``M[s, t] += -i g e^{-i theta}``,
* drive ``xi`` on mode ``m``: ``d[m] = -i xi``.

By construction ``M + M^dagger = -diag(decay rates)``, so any network
with all-positive decay is Hurwitz and has a unique steady state
``alpha_ss = -M^{-1} d``.

``steady_state`` is the one gate on that steady state, with two rules:
the network must decay (spectral abscissa at most ``STABILITY_FLOOR``)
and M must be well conditioned (``cond_2(M)`` at most
``CONDITION_LIMIT``).  Both read the dissipation structure off the
assembled matrix first: ``certify`` bounds the Hermitian part
``H = (M + M^dagger)/2`` by Gershgorin discs in O(n^2), giving ``mu``
with ``Re<x, M x> <= -mu |x|^2`` for every x.  When ``mu > 0`` the
numerical range proves ``spectral abscissa <= -mu``,
``sigma_min(M) >= mu`` and ``cond_2(M) <= ||M||_F / mu``.  A rule runs
its dense O(n^3) check (``eigvals`` or ``cond``) only when the
certificate cannot prove its accept verdict (a zero-decay mode, a
marginal decay, a bound near ``CONDITION_LIMIT``).  ``is_stable`` stays
the dense reference.

``evolve`` is exact on every network: a decaying one is stepped around
its steady state, ``alpha(t) = alpha_ss + e^{M t} (alpha0 - alpha_ss)``;
one that ``steady_state`` refuses (marginal or singular M) is stepped
as ``[alpha; 1]`` under the augmented matrix ``[[M, d], [0, 0]]``, whose
exponential carries the drive integral (Van Loan, IEEE TAC 23(3), 1978).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from .errors import NoSteadyStateError, UnstableSystemError, ValidationError
from .network import NetworkSpec, validate

#: spectral abscissa above this is treated as non-decaying
STABILITY_FLOOR = -1e-14

#: refuse a steady state when the condition estimate exceeds this
CONDITION_LIMIT = 1e12

#: a reused step must land within this distance, relative to the grid
#: time, of every grid point it serves
STEP_RTOL = 1e-12

#: equal steps are applied this many points at a time, by ``E_h^B``
STEP_BLOCK = 16

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Certificate:
    """What the dissipation structure of M proves (see the module doc).

    ``dissipation`` is ``mu``, a lower bound with its own rounding
    charged.  ``abscissa_bound`` bounds the spectral abscissa as
    ``eigvals`` computes it: ``-mu`` plus a rounding margin of
    ``(n + 2) eps ||M||_F`` for the eigensolver's backward error ``E``
    (every eigenvalue of ``M + E`` lies within ``||E||_2`` of the
    numerical range of M).  ``condition_bound`` is ``||M||_F / mu``,
    or infinity unless ``mu > 0``.
    """

    dissipation: float
    abscissa_bound: float
    condition_bound: float


def certify(matrix: np.ndarray) -> Certificate:
    """Gershgorin discs of ``H``: centre ``Re M[i, i]``, radius
    ``sum_{j != i} |M[i, j] + conj(M[j, i])| / 2``.

    Computed moduli and row sums are within ``(n + 2) eps`` relative,
    the squared Frobenius sum within ``n^2 eps``; both are charged
    against the bounds.
    """
    n = matrix.shape[0]
    decay = -matrix.diagonal().real
    off = matrix + matrix.conj().T
    off.flat[::n + 1] = 0.0
    radius = 0.5 * np.abs(off).sum(axis=1)
    slack = (n + 2) * _EPS
    mu = float((decay * (1.0 - slack) - radius * (1.0 + slack)).min())
    norm = float(np.sqrt(np.vdot(matrix, matrix).real)) * (1.0 + n * slack)
    bound = norm / mu if mu > 0.0 else np.inf
    return Certificate(mu, slack * norm - mu, bound)


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
    def certificate(self) -> Certificate:
        """``certify(matrix)``, computed once per system."""
        return certify(self.matrix)

    def row(self, mode_id: str) -> int:
        try:
            return self.index[mode_id]
        except KeyError:
            raise KeyError(f"unknown mode id {mode_id!r}") from None


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

    ``method`` names the propagator that ran: "expm" around the steady
    state, or "augmented" for a network without one.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    index: dict
    method: str

    def mode(self, mode_id: str) -> np.ndarray:
        return self.amplitudes[:, self.index[mode_id]]


def assemble(spec: NetworkSpec) -> LinearSystem:
    """Build the linear system for a validated network spec."""
    problems = validate(spec)
    if problems:
        raise ValidationError(problems)
    index = {m.id: i for i, m in enumerate(spec.modes)}
    n = len(spec.modes)
    matrix = np.zeros((n, n), dtype=complex)
    for i, m in enumerate(spec.modes):
        matrix[i, i] = -1j * m.detuning - m.decay_rate / 2.0
    for c in spec.couplings:
        s, t = index[c.source], index[c.target]
        matrix[t, s] += -1j * c.strength * np.exp(1j * c.phase)
        matrix[s, t] += -1j * c.strength * np.exp(-1j * c.phase)
    drive = np.zeros(n, dtype=complex)
    for d in spec.drives:
        drive[index[d.mode]] += -1j * complex(d.amplitude)
    return LinearSystem(matrix, drive, index)


def steady_state(sys: LinearSystem) -> SteadyState:
    """Solve ``M alpha = -d``; refuse a network that does not decay to it.

    The decay rule comes first: the certificate's abscissa bound admits
    M when it is at most ``STABILITY_FLOOR``; otherwise the dense
    ``is_stable`` decides and an abscissa above the floor raises
    ``UnstableSystemError``.  Then the condition rule: the certificate's
    ``||M||_F / mu`` admits M when it is at most ``CONDITION_LIMIT``;
    otherwise the dense ``np.linalg.cond`` decides and a condition above
    the limit raises ``NoSteadyStateError``.  One step of iterative
    refinement keeps the residual at rounding level even for poorly
    scaled networks.
    """
    if not sys.certificate.abscissa_bound <= STABILITY_FLOOR:
        stable, abscissa = is_stable(sys)
        if not stable or abscissa > STABILITY_FLOOR:
            raise UnstableSystemError(
                f"network is not strictly decaying (spectral abscissa "
                f"{abscissa:.3e})", spectral_abscissa=abscissa)
    cond = sys.certificate.condition_bound
    if not cond <= CONDITION_LIMIT:
        cond = np.linalg.cond(sys.matrix)
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise NoSteadyStateError(
                f"no unique steady state: condition estimate {cond:.3e} "
                f"exceeds {CONDITION_LIMIT:.0e}", condition=cond)
    alpha = np.linalg.solve(sys.matrix, -sys.drive)
    resid = sys.matrix @ alpha + sys.drive
    scale = max(1.0, float(np.linalg.norm(sys.drive)))
    if np.linalg.norm(resid) > 1e-12 * scale:
        alpha = alpha - np.linalg.solve(sys.matrix, resid)
        resid = sys.matrix @ alpha + sys.drive
    return SteadyState(alpha, float(np.linalg.norm(resid)), float(cond))


def is_stable(sys: LinearSystem):
    """Return ``(hurwitz, spectral_abscissa)`` for the dynamics matrix.

    This is the dense reference (all eigenvalues, O(n^3));
    ``steady_state`` consults ``LinearSystem.certificate`` first and
    falls back to it.
    """
    eigvals = np.linalg.eigvals(sys.matrix)
    abscissa = float(eigvals.real.max())
    return abscissa < 0.0, abscissa


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
    """Split a grid into runs of equal steps: ``(start, stop, step)``.

    Point ``i`` of a run ``[start, stop)`` is reached from the point
    before the run (the origin for ``start = 0``) by ``i - start + 1``
    steps; every such position lies within ``STEP_RTOL`` relative of
    the requested grid time.
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
            yield start, end, steps[start]
            start = end
        if start < stop:
            yield start, stop, steps[start]


def _step(e_h: np.ndarray, x: np.ndarray, rows: np.ndarray) -> None:
    """Fill ``rows[m] = E_h^(m+1) x``.

    The first ``STEP_BLOCK`` rows are single steps; every later block
    is the block before it times ``E_h^STEP_BLOCK``, one matrix product
    per block.
    """
    block = min(STEP_BLOCK, len(rows))
    for m in range(block):
        x = e_h @ x
        rows[m] = x
    if len(rows) > block:
        jump = np.linalg.matrix_power(e_h, block).T
        for m in range(block, len(rows), block):
            rows[m:m + block] = (rows[m - block:m] @ jump)[:len(rows) - m]


def _propagate_expm(matrix: np.ndarray, x0: np.ndarray, times) -> np.ndarray:
    """Exact propagation ``x(t) = e^{K t} x0`` for the square ``K = matrix``.

    ``x`` is stepped, ``x <- E_h x`` with ``E_h = expm(K h)``, along
    each run of equal steps ``h``: a uniform grid costs one ``expm``
    however long it is.  A point whose step differs from both
    neighbours' (every point of a log grid) is ``expm(K t) x0`` straight
    from ``t = 0``.  For ``K = M``, ``M + M^dagger`` is negative
    semidefinite, so ``E_h`` is a 2-norm contraction and stepping does
    not amplify rounding.  scipy's expm is a scaling-and-squaring Pade
    method with controlled backward error; no diagonalisability of K
    is assumed.
    """
    out = np.empty((times.size, x0.size), dtype=complex)
    x = x0
    for start, stop, step in _runs(times):
        if stop - start > 1:
            _step(expm(matrix * step), x, out[start:stop])
        elif times[start] == 0.0:
            out[start] = x0
        else:
            out[start] = expm(matrix * times[start]) @ x0
        x = out[stop - 1]
    return out


def evolve(sys: LinearSystem, initial, times) -> Trajectory:
    """Propagate amplitudes from ``initial`` (the state at t = 0) over
    the given time grid.

    A network that ``steady_state`` admits is stepped around its steady
    state, ``alpha_ss + e^{M t} (alpha0 - alpha_ss)`` ("expm").  One it
    refuses, marginal or singular, is stepped as ``[alpha0; 1]`` under
    ``[[M, d], [0, 0]]`` ("augmented"), exact without any inverse of M.
    The trajectory records which ran.  Decaying networks keep the first
    form: its step is a contraction and the augmented one is not (on
    cascaded nr, n = 4, in the fig4 regime, 2,001 augmented steps to
    t = 2e5 drift by 5e-12 |alpha_ss|, the first form by 3e-14).
    """
    times = np.asarray(times, dtype=float)
    _check_times(times)
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (sys.n,):
        raise ValueError(f"initial must have shape ({sys.n},), got {initial.shape}")
    if not np.all(np.isfinite(initial.view(float))):
        raise ValueError("initial amplitudes must be finite")

    try:
        alpha_ss = steady_state(sys).amplitudes
    except (UnstableSystemError, NoSteadyStateError):
        n = sys.n
        augmented = np.zeros((n + 1, n + 1), dtype=complex)
        augmented[:n, :n] = sys.matrix
        augmented[:n, n] = sys.drive
        amps = _propagate_expm(augmented, np.append(initial, 1.0), times)
        return Trajectory(times, amps[:, :n], dict(sys.index), "augmented")
    amps = _propagate_expm(sys.matrix, initial - alpha_ss, times)
    amps += alpha_ss
    if times[0] == 0.0:
        amps[0] = initial
    return Trajectory(times, amps, dict(sys.index), "expm")


def vacuum(sys: LinearSystem) -> np.ndarray:
    """All-modes-empty initial condition."""
    return np.zeros(sys.n, dtype=complex)
