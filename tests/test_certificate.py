"""The dissipation certificate against the dense oracle.

``LinearSystem.certificate`` lets the steady gates skip ``eigvals`` and
``cond``.  Whenever it admits a network, the dense reference must agree:
the spectral abscissa is at most ``-mu``, the smallest singular value
at least ``mu`` and ``cond_2`` at most the certified bound.  Counters
check that positive-decay networks reach no dense check and that
everything the certificate cannot prove still falls back to one.
"""

import math

import numpy as np
import pytest

from qbnet import (CouplingSpec, DriveSpec, LinearSystem, ModeSpec,
                   NetworkSpec, NoSteadyStateError, TopologyParams,
                   UnstableSystemError, assemble, build_network,
                   effective_steady_energy, gain_report, is_stable, max_power,
                   parse_run_config, run_sweep, steady_energy, steady_state)
from qbnet.dynamics import CONDITION_LIMIT, STABILITY_FLOOR
from qbnet.network import FAMILIES, VARIANTS

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

EPS = np.finfo(float).eps
#: the dense oracle is backward stable: its eigenvalues and singular
#: values are exact for ``M + E`` with ``||E||_2`` of order eps ||M||_F,
#: which moves a value on the edge of the numerical range by up to
#: ``||E||_2`` (3.7e-12 mu on cascaded nr, n = 50, g_b/gamma = 1e3,
#: equal decays), beyond the 1e-12 relative the bounds are held to
ORACLE_ROUNDING = 4 * EPS


def system(params):
    return assemble(build_network(params))


@st.composite
def networks(draw, families=FAMILIES, variants=VARIANTS,
             sizes=st.integers(1, 50), near_floor=True):
    """g_b/gamma in [1e-6, 1e3], n <= 50, per-mode decays within a
    decade of gamma, in half the networks one charger or battery decay
    near ``STABILITY_FLOOR`` (unless ``near_floor`` is false), custom or
    random r1 phases."""
    family = draw(st.sampled_from(families))
    variant = draw(st.sampled_from(variants))
    n = draw(sizes)
    gamma = 10.0 ** draw(st.floats(-3.0, 1.0))
    ratio = 10.0 ** draw(st.floats(-6.0, 3.0))
    rate = st.floats(-1.0, 1.0).map(lambda u: gamma * 10.0 ** u)
    decays = draw(st.lists(rate, min_size=n + 1, max_size=n + 1))
    if near_floor and draw(st.booleans()):
        decays[draw(st.integers(0, n))] = draw(st.floats(1e-14, 1e-12))
    thetas = None
    if variant == "custom" or (variant == "r1" and draw(st.booleans())):
        thetas = draw(st.lists(st.floats(-math.pi, math.pi),
                               min_size=n, max_size=n))
    xi = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    return TopologyParams(family, variant, n, ratio * gamma, decays[0],
                          decays[1:], draw(rate), xi, thetas)


def assert_dense_oracle_agrees(sys_):
    cert = sys_.certificate
    mu = cert.dissipation
    slack = ORACLE_ROUNDING * np.linalg.norm(sys_.matrix)
    if cert.abscissa_bound <= STABILITY_FLOOR:
        _, abscissa = is_stable(sys_)
        assert abscissa <= -mu * (1 - 1e-12) + slack
    if cert.condition_bound <= CONDITION_LIMIT:
        sigma = np.linalg.svd(sys_.matrix, compute_uv=False)
        assert sigma[-1] >= mu * (1 - 1e-12) - slack
        assert np.linalg.cond(sys_.matrix) <= cert.condition_bound


@given(networks())
def test_certificate_is_sound(params):
    assert_dense_oracle_agrees(system(params))


@given(st.integers(1, 30), st.floats(-6.0, 1.0), st.integers(0, 2**32 - 1))
def test_certificate_is_sound_on_general_matrices(n, log_scale, seed):
    # an assembled matrix has an exactly diagonal Hermitian part, so
    # only a general one exercises the Gershgorin radii
    rng = np.random.default_rng(seed)
    centre = -10.0 ** rng.uniform(-1.0, 1.0, n) / 2 + 1j * rng.normal(size=n)
    noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    matrix = np.diag(centre) + 10.0 ** log_scale * noise / n
    assert_dense_oracle_agrees(
        LinearSystem(matrix, np.zeros(n, dtype=complex), {}))


def assert_routes_agree(params, k):
    # amplitudes are compared normwise: the dense solve's error is
    # about eps * cond * ||alpha||, spread over every mode
    try:
        dense = steady_energy(params, f"b_{k}")
    except (NoSteadyStateError, UnstableSystemError):
        return
    closed = effective_steady_energy(params, k)
    ss = steady_state(system(params))
    tol = (1e-10 * math.sqrt(closed)
           + EPS * ss.condition * np.linalg.norm(ss.amplitudes))
    assert abs(math.sqrt(dense) - math.sqrt(closed)) <= tol


@given(networks(), st.data())
def test_dense_agrees_with_closed_route(params, data):
    assert_routes_agree(params, data.draw(st.integers(1, params.n)))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=3)
@given(data=st.data())
def test_long_networks_dense_agrees_with_closed_route(family, variant, data):
    # 200 down to 51 batteries (200 is the first draw), positive decays
    # only: the certificate admits them, so a dense solve costs
    # milliseconds, not the dense eigvals fallback's most of a second
    sizes = st.integers(0, 149).map(lambda k: 200 - k)
    params = data.draw(networks((family,), (variant,), sizes,
                                near_floor=False))
    assert_routes_agree(params, data.draw(st.integers(1, params.n)))


#: positive-decay networks: the fig4 regime, heterogeneous decays with
#: custom phases, the strong-coupling end and a 100-battery chain
POSITIVE = (
    TopologyParams("cascaded", "nr", 4, 5e-6, 5e-4, 5e-4, 1.0, 1.0),
    TopologyParams("parallel", "custom", 3, 0.02, 0.3, (0.05, 0.1, 0.2), 0.5,
                   1.0 - 0.5j, (0.3, -1.2, 2.5)),
    TopologyParams("parallel", "nr", 2, 100.0, 0.1, 0.1, 0.1, 1.0),
    TopologyParams("cascaded", "r2", 100, 0.01, 0.1, 0.1, 0.1, 1.0),
)
UNDAMPED_CHARGER = TopologyParams("cascaded", "r1", 1, 0.0, 0.0, 0.1, 0.1, 1.0)


@pytest.fixture
def dense_calls(monkeypatch):
    calls = {"eigvals": 0, "cond": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestDenseCheckCount:
    @pytest.mark.parametrize("params", POSITIVE,
                             ids=lambda p: f"{p.family}-{p.variant}-{p.n}")
    def test_steady_observables_skip_dense_checks(self, params, dense_calls):
        steady_energy(params)
        gain_report(params)
        sys_ = system(params)
        ss = steady_state(sys_)
        assert dense_calls == {"eigvals": 0, "cond": 0}
        assert sys_.certificate is sys_.certificate
        assert ss.condition == sys_.certificate.condition_bound
        assert np.linalg.cond(sys_.matrix) <= ss.condition

    def test_max_power_keeps_its_dense_abscissa(self, dense_calls):
        max_power(POSITIVE[0], "b_4")
        assert dense_calls == {"eigvals": 1, "cond": 0}

    @pytest.mark.parametrize("params, abscissa", [
        (UNDAMPED_CHARGER, 0.0),
        (TopologyParams("cascaded", "r1", 1, 0.05, 0.0, 0.0, 0.1, 1.0), 0.0),
        (TopologyParams("cascaded", "r1", 1, 0.01, 1e-14, 1e-14, 0.1, 1.0),
         -5e-15),
    ], ids=["zero-decay-charger", "undamped", "marginal"])
    def test_unproven_stability_falls_back(self, params, abscissa,
                                           dense_calls):
        with pytest.raises(UnstableSystemError) as err:
            steady_energy(params)
        assert err.value.spectral_abscissa == pytest.approx(abscissa,
                                                            abs=1e-15)
        assert dense_calls["eigvals"] == 1

    def test_singular_spec_falls_back(self, dense_calls):
        # the decay rule refuses a singular undamped M before any cond
        spec = NetworkSpec((ModeSpec("c", "charger", 0.0),), (),
                           (DriveSpec("c", 1.0),))
        with pytest.raises(UnstableSystemError) as err:
            steady_state(assemble(spec))
        assert err.value.spectral_abscissa == 0.0
        assert dense_calls == {"eigvals": 1, "cond": 0}

    def test_ill_conditioned_spec_falls_back(self, dense_calls):
        # certified decaying (abscissa -1e-13), but mu = 1e-13 leaves the
        # condition bound above CONDITION_LIMIT and cond_2(M) is 2e13
        modes = (ModeSpec("c", "charger", 2e-13, detuning=1.0),
                 ModeSpec("b", "battery", 2e-13, detuning=1.0))
        spec = NetworkSpec(modes, (CouplingSpec("c", "b", 1.0, 0.0),),
                           (DriveSpec("c", 1.0),))
        with pytest.raises(NoSteadyStateError) as err:
            steady_state(assemble(spec))
        assert err.value.condition == pytest.approx(2e13, rel=1e-3)
        assert dense_calls == {"eigvals": 0, "cond": 1}

    def test_unproven_condition_reports_dense_cond(self, dense_calls):
        # a nearly undamped charger strongly tied to a damped battery:
        # mu ~ 5e-14 puts the bound above CONDITION_LIMIT, cond_2 is ~2
        sys_ = system(TopologyParams("cascaded", "r1", 1, 0.05, 1e-13, 0.1,
                                     0.1, 1.0))
        assert sys_.certificate.condition_bound > CONDITION_LIMIT
        ss = steady_state(sys_)
        assert dense_calls == {"eigvals": 0, "cond": 1}
        assert ss.condition == np.linalg.cond(sys_.matrix) < 10

    def test_sweep_refuses_exactly_undamped_points(self, dense_calls):
        doc = {"topology": {"family": "cascaded", "variant": "nr", "n": 4,
                            "g_b": 0.01, "gamma_c": 0.1, "gamma_b": 0.1,
                            "Gamma": 0.1, "xi": 1.0},
               "sweep": {"variable": "gamma",
                         "values": [0.1, 0.0, 0.05, 0.0, 0.2]},
               "observables": ["steady_energy", "gains"]}
        table = run_sweep(parse_run_config(doc))
        assert [row[0] for row in table.rows] == [0.1, 0.05, 0.2]
        assert [(i, v) for i, v, _ in table.errors] == [(1, 0.0), (3, 0.0)]
        dense_calls.update(eigvals=0, cond=0)
        doc["sweep"]["values"] = [0.1, 0.05, 0.2]
        assert run_sweep(parse_run_config(doc)).rows == table.rows
        assert dense_calls == {"eigvals": 0, "cond": 0}
