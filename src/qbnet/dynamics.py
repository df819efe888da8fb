"""First-moment linear dynamics: assembly, steady states, propagation.

The mode amplitudes obey ``d(alpha)/dt = M alpha + d`` with

* ``M[m, m] = -i * detuning_m - decay_rate_m / 2``,
* coupling ``(s -> t, g, theta)``: ``M[t, s] += -i g e^{+i theta}``
  and ``M[s, t] += -i g e^{-i theta}``,
* drive ``xi`` on mode ``m``: ``d[m] = -i xi``.

By construction ``M + M^dagger = -diag(decay rates)``, so any network
with all-positive decay is Hurwitz and has a unique steady state
``alpha_ss = -M^{-1} d``.

The gates on a steady solve read that structure off the assembled
matrix first: ``certify`` bounds the Hermitian part ``H = (M + M^dagger)/2``
by Gershgorin discs in O(n^2), giving ``mu`` with
``Re<x, M x> <= -mu |x|^2`` for every x.  When ``mu > 0`` the numerical
range proves ``spectral abscissa <= -mu``, ``sigma_min(M) >= mu`` and
``cond_2(M) <= ||M||_F / mu``.  A gate skips its dense O(n^3) check
(``eigvals`` or ``cond``) only when the certificate proves that check's
accept verdict; anything it cannot prove (a zero-decay mode, a marginal
decay, a bound near ``CONDITION_LIMIT``) falls back to the dense check.
``is_stable`` stays the dense reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .errors import NoSteadyStateError, ValidationError
from .network import NetworkSpec, validate

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

    ``method`` names the propagator that ran: "expm" or "ivp".
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
    """Solve ``M alpha = -d``; refuse when M is near-singular.

    The certificate's ``||M||_F / mu`` admits M when it is at most
    ``CONDITION_LIMIT``; otherwise the dense ``np.linalg.cond`` decides
    and a condition above the limit raises ``NoSteadyStateError``.  One
    step of iterative refinement keeps the residual at rounding level
    even for poorly scaled networks.
    """
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

    This is the dense reference (all eigenvalues, O(n^3)); the gates
    consult ``LinearSystem.certificate`` first and fall back to it.
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


def _propagate_expm(sys: LinearSystem, initial, times, alpha_ss):
    """Exact propagation ``alpha(t) = a_ss + e^{M t} (alpha0 - a_ss)``.

    The offset ``x = alpha - a_ss`` is stepped, ``x <- E_h x`` with
    ``E_h = expm(M h)``, along each run of equal steps ``h``: a uniform
    grid costs one ``expm`` however long it is.  A point whose step
    differs from both neighbours' (every point of a log grid) is
    ``expm(M t) x0`` straight from ``t = 0``.  ``M + M^dagger`` is
    negative semidefinite, so ``E_h`` is a 2-norm contraction and
    stepping does not amplify rounding.  scipy's expm is a
    scaling-and-squaring Pade method with controlled backward error; no
    diagonalisability of M is assumed.
    """
    offset = initial - alpha_ss
    out = np.empty((times.size, sys.n), dtype=complex)
    x = offset
    for start, stop, step in _runs(times):
        if stop - start > 1:
            _step(expm(sys.matrix * step), x, out[start:stop])
        elif times[start] == 0.0:
            out[start] = offset
        else:
            out[start] = expm(sys.matrix * times[start]) @ offset
        x = out[stop - 1]
    out += alpha_ss
    if times[0] == 0.0:
        out[0] = initial
    return out


def _propagate_ivp(sys: LinearSystem, initial, times, rtol, atol):
    """Adaptive integration of the real embedding of the complex system.

    ``initial`` is the state at t = 0; integration always starts there
    so grids that begin after zero stay consistent with the propagator.
    """
    n = sys.n
    if times[-1] == 0.0:
        return initial[None, :].copy()
    m_re, m_im = sys.matrix.real, sys.matrix.imag
    big = np.block([[m_re, -m_im], [m_im, m_re]])
    dvec = np.concatenate([sys.drive.real, sys.drive.imag])
    y0 = np.concatenate([initial.real, initial.imag])

    def rhs(_t, y):
        return big @ y + dvec

    sol = solve_ivp(rhs, (0.0, float(times[-1])), y0, t_eval=times,
                    method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise NoSteadyStateError(f"initial-value integration failed: {sol.message}")
    y = sol.y.T
    return y[:, :n] + 1j * y[:, n:]


def evolve(sys: LinearSystem, initial, times, method: str = "auto",
           rtol: float = 1e-10, atol: float = 1e-12) -> Trajectory:
    """Propagate amplitudes from ``initial`` over the given time grid.

    ``method`` selects the propagator: "expm" uses the matrix
    exponential around the steady state (exact up to rounding, needs an
    invertible M), "ivp" uses an adaptive integrator with local
    tolerance ``rtol``/``atol``, and "auto" tries "expm" first and falls
    back to "ivp" when M is singular.  The trajectory records which one
    ran.
    """
    times = np.asarray(times, dtype=float)
    _check_times(times)
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (sys.n,):
        raise ValueError(f"initial must have shape ({sys.n},), got {initial.shape}")
    if not np.all(np.isfinite(initial.view(float))):
        raise ValueError("initial amplitudes must be finite")
    if method not in ("auto", "expm", "ivp"):
        raise ValueError(f"unknown method {method!r}")

    if method in ("auto", "expm"):
        try:
            alpha_ss = steady_state(sys).amplitudes
        except NoSteadyStateError:
            if method == "expm":
                raise
        else:
            amps = _propagate_expm(sys, initial, times, alpha_ss)
            return Trajectory(times, amps, dict(sys.index), "expm")
    amps = _propagate_ivp(sys, initial, times, rtol, atol)
    return Trajectory(times, amps, dict(sys.index), "ivp")


def vacuum(sys: LinearSystem) -> np.ndarray:
    """All-modes-empty initial condition."""
    return np.zeros(sys.n, dtype=complex)
