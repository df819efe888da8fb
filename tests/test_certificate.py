"""The dissipation certificate against the dense oracle.

The certificate (``dynamics._certify``, over a stack of systems) lets
the steady-state gate skip ``eigvals`` and ``cond``.  Whenever it admits
a network, the dense reference must agree: the spectral abscissa is at
most ``-mu``, the smallest singular value at least ``mu`` and ``cond_2``
at most the certified bound.  Counters check that positive-decay
networks reach no dense check and that everything the certificate
cannot prove still falls back to one.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qbnet import (CouplingSpec, DriveSpec, LinearSystem, ModeSpec,
                   NetworkSpec, NoSteadyStateError, TopologyParams,
                   UnstableSystemError, assemble, build_network,
                   effective_steady_amplitudes, effective_steady_energy,
                   gain_report, is_stable, max_power,
                   parse_run_config, run_sweep, steady_energy, steady_state)
from qbnet.dynamics import (_BAND_MIN_MODES, CONDITION_LIMIT, STABILITY_FLOOR, Stack,
                            _certify, _solve, assemble_points, steady_states)
from qbnet.network import FAMILIES, VARIANTS

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

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


def certificate(sys_):
    """``(mu, abscissa_bound, condition_bound)`` of one system."""
    stack = Stack.gather(sys_.matrix[None], sys_.pattern)
    return tuple(float(v[0]) for v in _certify(stack, sys_.pattern))


def assert_dense_oracle_agrees(sys_):
    mu, abscissa_bound, condition_bound = certificate(sys_)
    slack = ORACLE_ROUNDING * np.linalg.norm(sys_.matrix)
    if abscissa_bound <= STABILITY_FLOOR:
        _, abscissa = is_stable(sys_)
        assert abscissa <= -mu * (1 - 1e-12) + slack
    if condition_bound <= CONDITION_LIMIT:
        sigma = np.linalg.svd(sys_.matrix, compute_uv=False)
        assert sigma[-1] >= mu * (1 - 1e-12) - slack
        assert np.linalg.cond(sys_.matrix) <= condition_bound


@given(networks())
def test_certificate_is_sound(params):
    assert_dense_oracle_agrees(system(params))


@given(networks(near_floor=False))
def test_hermitian_part_is_exactly_diagonal(params):
    # M[s, t] is written as -conj(M[t, s]), so no coupling can leave a
    # Gershgorin radius behind, on the spec path or the batch path
    for matrix in (system(params).matrix, assemble_points(params)[0][0]):
        off = matrix + matrix.conj().T
        np.fill_diagonal(off, 0.0)
        assert not off.any()


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
    # about eps * cond * ||alpha||, spread over every mode.  One batch
    # solve (the spec path's, bit for bit) keeps 5,000 batteries off a
    # dense 10,001-mode matrix
    stack, drives, (index, *_, pattern) = assemble_points(params)
    amplitudes, _, conditions, errors = steady_states(stack, drives, pattern)
    if errors:
        return
    dense = abs(amplitudes[0, index[f"b_{k}"]]) ** 2
    closed = effective_steady_energy(params, k)
    tol = (1e-10 * math.sqrt(closed)
           + EPS * conditions[0] * np.linalg.norm(amplitudes[0]))
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


@pytest.mark.parametrize("family, n", [(f, n) for n in (500, 5000) for f in FAMILIES],
                         ids=[*FAMILIES, *(f"{f}-5000" for f in FAMILIES)])
def test_500_batteries_agree_with_closed_route(family, n):
    # 1,001 modes: the band route at the long-network size of the ROADMAP;
    # 10,001 modes, where one dense slice would take 1.6 GB
    assert_routes_agree(TopologyParams(family, "nr", n, 0.1, 0.1, 0.1, 0.1, 1.0), n)


@pytest.mark.parametrize("family", FAMILIES)
def test_5000_batteries_stay_off_the_dense_stack(family):
    # below one n = 500 dense slice (1,001^2 complex, 16 MB); the first
    # call compiles the layout and loads scipy's band LU, so it is not
    # the one measured
    params = TopologyParams(family, "nr", 5000, 0.1, 0.1, 0.1, 0.1, 1.0)
    steady_energy(params)
    tracemalloc.start()
    try:
        steady_energy(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


#: the campaign's bound on a battery's relative energy gap, in units of
#: eps * cond (the certified condition bound); seeded draws of the
#: campaign's space read at most 76 (6,000 points), highest at small cond,
#: where the closed fold's own rounding over up to 120 links dominates
CAMPAIGN_C = 256


def test_route_agreement_campaign():
    # seeded positive-decay networks: both families, all four variants,
    # 1 to 120 batteries (both sides of _BAND_MIN_MODES), g_b/gamma in
    # [1e-6, 1e3], Gamma/gamma in [1e-3, 1e3], heterogeneous decays in half
    # of them.  Every battery energy of the dense route is within
    # CAMPAIGN_C * eps * cond relative of the closed route's (6.9 at most
    # on this seed).  A point with an energy that underflows to 0 on either
    # route is counted and skipped: 40 of the 400 here, the closed route's
    # underflow (ROADMAP item 4)
    rng = np.random.default_rng(2727)
    compared = underflowed = 0
    for k in range(400):
        family, variant, n = FAMILIES[k % 2], VARIANTS[k // 2 % 4], int(rng.integers(1, 121))
        gamma = 10.0 ** rng.uniform(-3.0, 0.0)
        decays = ((gamma, gamma) if k // 8 % 2 else
                  (gamma * 10.0 ** rng.uniform(-1.0, 1.0),
                   tuple(gamma * 10.0 ** rng.uniform(-1.0, 1.0, n))))
        thetas = tuple(rng.uniform(-math.pi, math.pi, n)) if variant == "custom" else None
        params = TopologyParams(family, variant, n, gamma * 10.0 ** rng.uniform(-6.0, 3.0),
                                *decays, gamma * 10.0 ** rng.uniform(-3.0, 3.0),
                                complex(*rng.normal(size=2)), thetas)
        stack, drives, (index, *_, pattern) = assemble_points(params)
        amplitudes, _, conditions, errors = steady_states(stack, drives, pattern)
        assert not errors
        rows = [index[f"b_{b}"] for b in range(1, n + 1)]
        dense = np.abs(amplitudes[0, rows]) ** 2
        closed = np.abs(effective_steady_amplitudes(params)[1:]) ** 2
        if not (dense > 0).all() or not (closed > 0).all():
            underflowed += 1
            continue
        gap = np.abs(dense - closed) / closed
        assert gap.max() <= CAMPAIGN_C * EPS * conditions[0], (params, gap.max())
        compared += 1
    assert (compared, underflowed) == (360, 40)


@given(networks(sizes=st.integers(1, 40), near_floor=False), st.floats(-1.0, 1.0))
def test_band_route_agrees_with_dense_lu(params, spread):
    # the bordered band LU against the dense LU it stands in for, on
    # stacks of three points with 3 to 81 modes, both sides of
    # _BAND_MIN_MODES; each route's error is about eps * cond * |alpha|
    matrices, drives, (*_, pattern) = assemble_points(
        params, g_b=[params.g_b * 10.0 ** (spread * k) for k in range(3)])
    mu, _, condition = _certify(matrices, pattern)
    assume(matrices.shape[1] > 2 and (mu > 0.0).all())
    band, _ = _solve(matrices, drives, pattern.width)
    dense, _ = _solve(matrices, drives)
    for b, d, cond in zip(band, dense, condition):
        assert np.linalg.norm(b - d) <= EPS * cond * np.linalg.norm(d)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_spec_path_takes_the_batch_route(family, variant):
    # LinearSystem finds the layout's bandwidth from its matrix, so both
    # paths of a long network take the band route, to the same bits
    params = TopologyParams(family, variant, 60, 0.02, 0.1, 0.15, 0.3,
                            1.0 - 0.5j, tuple(0.1 * k for k in range(60)))
    matrices, drives, (*_, pattern) = assemble_points(params)
    assert matrices.shape[1] >= _BAND_MIN_MODES
    amplitudes, residuals, conditions, _ = steady_states(matrices, drives, pattern)
    ss = steady_state(system(params))
    assert amplitudes[0].tobytes() == ss.amplitudes.tobytes()
    assert (residuals[0], conditions[0]) == (ss.residual, ss.condition)


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
        assert ss.condition == certificate(sys_)[2]
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
        assert certificate(sys_)[2] > CONDITION_LIMIT
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
