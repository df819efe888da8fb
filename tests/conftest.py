"""Shared test settings and fixtures.

Property tests run under a deterministic Hypothesis profile: they draw
the same examples on every run (derandomized, no example database),
have no per-example deadline and a bounded example count, so the suite
stays reproducible and its run time fixed.

``ivp_oracle`` integrates the dynamics with an adaptive Runge-Kutta
method that shares no code with qbnet's matrix-exponential propagator.
"""

import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("qbnet", derandomize=True, database=None,
                              deadline=None, max_examples=60)
    settings.load_profile("qbnet")


def _integrate(sys, initial, times, rtol, atol):
    """DOP853 on the real embedding of ``d(alpha)/dt = M alpha + d``,
    from t = 0 so grids that begin later see the same origin."""
    from scipy.integrate import solve_ivp

    times = np.asarray(times, dtype=float)
    n = sys.n
    m_re, m_im = sys.matrix.real, sys.matrix.imag
    big = np.block([[m_re, -m_im], [m_im, m_re]])
    dvec = np.concatenate([sys.drive.real, sys.drive.imag])
    y0 = np.concatenate([initial.real, initial.imag])
    sol = solve_ivp(lambda _t, y: big @ y + dvec, (0.0, float(times[-1])), y0,
                    t_eval=times, method="DOP853", rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return sol.y[:n].T + 1j * sol.y[n:].T


@pytest.fixture
def ivp_oracle():
    """``oracle(sys, initial, times, rtol, atol)`` -> amplitudes (t, mode)."""
    return _integrate
