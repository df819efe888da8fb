"""Batched steady solves against the per-point path.

A batch of points of one built-in topology is filled from its compiled
layout into a (P, n, n) stack and gated and solved in one call.  Every
value must equal the per-point one exactly, every refusal must be the
per-point error, and the counters check that the batching and the
shared solves actually happen.
"""

import math
import types

import numpy as np
import pytest

import qbnet

from qbnet import (NoSteadyStateError, ScanEdgeError, TopologyParams,
                   UnstableSystemError, ValidationError, assemble,
                   build_network, drive_relocation_energies,
                   effective_steady_energy, figure_table, gain_report,
                   max_power, parse_run_config, run_sweep, steady_energy,
                   steady_state)
from qbnet.config import topology_to_dict
from qbnet.dynamics import assemble_points, layout, steady_states
from qbnet.network import (FAMILIES, VARIANTS, WITH_INTERMEDIATES,
                           parameter_tables)
from qbnet.observables import (GAIN_VARIANTS, _gain_points, _power_points,
                               _steady_points)

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from oracles import loop_parameter_tables  # noqa: E402

#: the fields a batch varies per point
FIELDS = ("g_b", "gamma_c", "gamma_b", "Gamma", "xi", "thetas")


@st.composite
def batches(draw):
    """A family, a variant (custom with thetas, r1 with or without),
    n <= 8 and 1..6 points with g_b/gamma in [1e-6, 1e3] and per-battery
    decays: one zero decay in a third of the points, no charger or
    battery decay at all in a sixth (refused without intermediates)."""
    family = draw(st.sampled_from(FAMILIES))
    variant = draw(st.sampled_from(VARIANTS))
    n = draw(st.integers(1, 8))
    with_thetas = variant == "custom" or (variant == "r1" and draw(st.booleans()))
    points = []
    for _ in range(draw(st.integers(1, 6))):
        gamma = 10.0 ** draw(st.floats(-3.0, 1.0))
        rate = st.floats(-1.0, 1.0).map(lambda u, g=gamma: g * 10.0 ** u)
        decays = draw(st.lists(rate, min_size=n + 1, max_size=n + 1))
        zeros = draw(st.integers(0, 5))
        if zeros < 2:
            decays[draw(st.integers(0, n))] = 0.0
        elif zeros == 2:
            decays = [0.0] * (n + 1)
        thetas = (tuple(draw(st.lists(st.floats(-4.0, 4.0), min_size=n,
                                      max_size=n))) if with_thetas else None)
        xi = complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
        points.append(TopologyParams(
            family, variant, n, gamma * 10.0 ** draw(st.floats(-6.0, 3.0)),
            decays[0], tuple(decays[1:]), draw(rate), xi, thetas))
    return points


def as_batch(points):
    first = points[0]
    columns = {f: [getattr(p, f) for p in points]
               for f in FIELDS if getattr(first, f) is not None}
    return first, columns


def point_energy(batch, i, target):
    """``|alpha_ss(target)|^2`` of point ``i`` of a solved batch; a
    refused point raises its error."""
    if i in batch.errors:
        raise batch.errors[i]
    return float(batch.energies(target)[i, 0])


def loop_assemble(spec):
    """The entry formula one coupling at a time, as a scalar loop."""
    index = {m.id: i for i, m in enumerate(spec.modes)}
    matrix = np.zeros((len(index), len(index)), dtype=complex)
    for i, m in enumerate(spec.modes):
        matrix[i, i] = -1j * m.detuning - m.decay_rate / 2.0
    for c in spec.couplings:
        s, t = index[c.source], index[c.target]
        matrix[t, s] += -1j * c.strength * np.exp(1j * c.phase)
        matrix[s, t] += -1j * c.strength * np.exp(-1j * c.phase)
    drive = np.zeros(len(index), dtype=complex)
    for d in spec.drives:
        drive[index[d.mode]] += -1j * complex(d.amplitude)
    return matrix, drive


@given(batches())
def test_batch_equals_per_point(points):
    first, columns = as_batch(points)
    batch = _steady_points(first, **columns)
    matrices, drives, _ = assemble_points(first, **columns)
    targets = [f"b_{k}" for k in range(1, first.n + 1)] + ["c"]
    for i, params in enumerate(points):
        spec = build_network(params)
        sys = assemble(spec)
        matrix, drive = loop_assemble(spec)
        assert matrices[i].tobytes() == sys.matrix.tobytes() == matrix.tobytes()
        assert drives[i].tobytes() == sys.drive.tobytes() == drive.tobytes()
        for target in targets:
            try:
                expected = steady_energy(params, target)
            except (NoSteadyStateError, UnstableSystemError) as exc:
                with pytest.raises(type(exc)) as err:
                    point_energy(batch, i, target)
                assert str(err.value) == str(exc)
                assert np.isnan(batch.amplitudes[i]).all()
                with pytest.raises(type(exc)) as err:
                    steady_state(sys)
                assert str(err.value) == str(exc)
                continue
            assert point_energy(batch, i, target) == expected
            spec_path = steady_state(sys).amplitudes[sys.row(target)]
            assert float(abs(spec_path) ** 2) == expected


@st.composite
def power_batches(draw):
    """A family, a variant, n <= 4 and 1..3 points in the regime of the
    stepped-propagator tests: gamma in [1e-4, 0.1], per-mode decays
    within a factor 2 of it, Gamma/gamma in [1, 1e4] and g_b/gamma in
    [1e-3, 1e2] (weak coupling, and the strong coupling where P(t)
    oscillates), or in [3e4, 1e6] in a sixth of the points (peaks near
    or below the start of the scan); no charger or battery decay at all
    in a sixth (refused without intermediates)."""
    family = draw(st.sampled_from(FAMILIES))
    variant = draw(st.sampled_from(VARIANTS))
    n = draw(st.integers(1, 4))
    with_thetas = variant == "custom" or (variant == "r1" and draw(st.booleans()))
    points = []
    for _ in range(draw(st.integers(1, 3))):
        gamma = 10.0 ** draw(st.floats(-4.0, -1.0))
        rate = st.floats(-0.3, 0.3).map(lambda u, g=gamma: g * 10.0 ** u)
        decays = draw(st.lists(rate, min_size=n + 1, max_size=n + 1))
        regime = draw(st.integers(0, 5))
        if regime == 0:
            decays = [0.0] * (n + 1)
        ratio = draw(st.floats(4.5, 6.0) if regime == 1 else st.floats(-3.0, 2.0))
        thetas = (tuple(draw(st.lists(st.floats(-4.0, 4.0), min_size=n,
                                      max_size=n))) if with_thetas else None)
        xi = 10.0 ** draw(st.floats(-0.5, 0.5)) * complex(
            math.cos(phase := draw(st.floats(-3.0, 3.0))), math.sin(phase))
        points.append(TopologyParams(
            family, variant, n, gamma * 10.0 ** ratio, decays[0],
            tuple(decays[1:]), gamma * 10.0 ** draw(st.floats(0.0, 4.0)), xi,
            thetas))
    return points


#: a peak below the scan (see test_stepped_propagator.EDGE_CASE) between
#: two points that scan normally
EDGE_BATCH = [TopologyParams("parallel", "nr", 2, g_b, 0.001, 0.001, 1.0, 1.0)
              for g_b in (1e-5, 100.0, 0.1)]


@given(power_batches())
@example(EDGE_BATCH)
def test_power_batch_equals_max_power(points):
    # every slice of a stack is max_power alone, bit for bit; a refused
    # point's peak error is its steady error, an edge point's is the
    # error of its first edge target, and every failed peak is NaN
    first, columns = as_batch(points)
    targets = [f"b_{k}" for k in range(1, first.n + 1)]
    batch = _power_points(first, targets, **columns)
    assert batch.peaks.shape == (len(points), len(targets), 2)
    for i, params in enumerate(points):
        first_error = None
        for k, target in enumerate(targets):
            try:
                expected = max_power(params, target)
            except (NoSteadyStateError, UnstableSystemError,
                    ScanEdgeError) as exc:
                assert np.isnan(batch.peaks[i, k]).all()
                if first_error is None:
                    first_error = exc
                continue
            assert tuple(batch.peaks[i, k].tolist()) == expected
            assert point_energy(batch, i, target) == steady_energy(params, target)
        if first_error is None:
            assert i not in batch.peak_errors
            continue
        error = batch.peak_errors[i]
        assert type(error) is type(first_error)
        assert str(error) == str(first_error)
        assert getattr(error, "edge", None) == getattr(first_error, "edge", None)
        if not isinstance(first_error, ScanEdgeError):
            assert batch.errors[i] is error


def test_edge_batch_has_an_edge():
    # the explicit example above exercises the edge path
    batch = _power_points(EDGE_BATCH[0], ["b_2"], g_b=[p.g_b for p in EDGE_BATCH])
    assert list(batch.peak_errors) == [1] and batch.errors == {}
    assert type(batch.peak_errors[1]) is ScanEdgeError
    assert np.isnan(batch.peaks[1]).all() and np.isfinite(batch.peaks[[0, 2]]).all()


#: ``nr`` peaks on the scan edge at both batteries; ``r1`` (no
#: intermediates, undamped batteries) has a dark mode and is refused
DARK_R1 = TopologyParams("parallel", "nr", 2, 100.0, 0.001, 0.0, 1.0, 1.0)
UNSTABLE = ("network is not strictly decaying (spectral abscissa 0.000e+00, "
            "above the floor -1e-14)")
EDGE = ("scan maximum 0.00410921 at the grid edge x = 0.0236922; the maximum "
        "may lie outside [0.0236922, 24843.1]")


@pytest.mark.parametrize("observables, expected", [
    (["gains", "max_power"], [(0, 0.01, UNSTABLE), (1, 100.0, UNSTABLE)]),
    (["max_power", "gains"], [(0, 0.01, UNSTABLE), (1, 100.0, EDGE)]),
    (["steady_energy", "max_power"], [(1, 100.0, EDGE)])],
    ids=["gains-first", "max_power-first", "steady_energy-first"])
def test_error_precedence(observables, expected):
    # a steady refusal is never folded into a peak failure or the other
    # way round: gain_report raises the refusal, and a sweep records each
    # point's error from the first observable that fails there
    with pytest.raises(UnstableSystemError) as err:
        gain_report(DARK_R1, include_power=True)
    assert str(err.value) == UNSTABLE
    doc = {"topology": topology_to_dict(DARK_R1),
           "sweep": {"variable": "g_b", "values": [0.01, 100.0]},
           "observables": observables, "target": "b_2"}
    assert run_sweep(parse_run_config(doc)).errors == expected


def test_part_renumbers_peak_errors():
    # the r2 half of a gain batch carries max_power's own error at point 0
    params = TopologyParams("parallel", "nr", 2, 1000.0, 0.001, 0.001, 0.1, 1.0)
    with pytest.raises(ScanEdgeError) as err:
        max_power(params.with_variant("r2"), "b_1")
    error = _gain_points(params, ("b_1", "b_2"))["r2"].peak_errors[0]
    assert type(error) is ScanEdgeError
    assert str(error) == str(err.value) and error.edge == err.value.edge


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", [1, 2, 5, 60])
@pytest.mark.parametrize("corner", [False, True])
def test_layout_is_the_builders(family, variant, n, corner):
    # the compiled layout reproduces build_network + assemble bit for bit,
    # signed zeros included (no coupling, zero and wrapped phases)
    thetas = ((0.0, -0.0, math.pi, -math.pi / 2, 4.0) if corner else (
        tuple(0.3 * k - 1.0 for k in range(5)))) * 12
    params = TopologyParams(family, variant, n, 0.0 if corner else 0.013,
                            0.0 if corner else 0.1,
                            tuple(0.1 + 0.01 * k for k in range(n)), 0.7,
                            complex(1.0, -0.0) if corner else 1.0 - 0.3j,
                            thetas[:n])
    spec = build_network(params)
    sys = assemble(spec)
    matrix, drive = loop_assemble(spec)
    matrices, drives, (index, *_) = assemble_points(params)
    assert matrices.shape == (1, sys.n, sys.n)
    assert matrices[0].tobytes() == sys.matrix.tobytes() == matrix.tobytes()
    assert drives[0].tobytes() == sys.drive.tobytes() == drive.tobytes()
    assert dict(index) == sys.index
    assert layout(family, params.has_intermediates, n) is layout(
        family, variant in WITH_INTERMEDIATES, n)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("variant", ["r1", "nr"])
@pytest.mark.parametrize("n", [1, 3, 60])
def test_layout_compiles_without_a_spec(family, variant, n, monkeypatch):
    # the layout is compiled from the topology's structure alone: no spec
    # is built and no parameter table is read to find its columns
    def refuse(*args, **kwargs):
        raise AssertionError("layout built a spec or a table")

    for module in (qbnet.network, qbnet.dynamics):
        for name in ("build_network", "parameter_tables"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    compiled = layout.__wrapped__(family, variant in WITH_INTERMEDIATES, n)
    monkeypatch.undo()
    params = TopologyParams(family, variant, n, 0.02, 0.1,
                            tuple(0.1 + 0.01 * k for k in range(n)), 0.3, 1.0 - 0.5j)
    matrices, drives, cached = assemble_points(params)
    sys = assemble(build_network(params))
    assert matrices[0].tobytes() == sys.matrix.tobytes()
    assert drives[0].tobytes() == sys.drive.tobytes()
    assert dict(compiled[0]) == dict(cached[0]) == sys.index
    for built, kept in zip((*compiled[1:4], *compiled[4]), (*cached[1:4], *cached[4])):
        assert np.array_equal(built, kept)


def test_gamma_check_survives_the_batch():
    # built-in families skip validate(), not the builder's own check
    with pytest.raises(ValidationError) as built:
        build_network(TopologyParams("cascaded", "nr", 2, 0.01, 0.1, 0.1,
                                     0.0, 1.0))
    params = TopologyParams("cascaded", "nr", 2, 0.01, 0.1, 0.1, 0.1, 1.0)
    with pytest.raises(ValidationError) as batched:
        assemble_points(params, Gamma=[0.1, 0.0])
    assert str(batched.value) == str(built.value)


def test_refused_slice_does_not_abort_the_batch():
    # without intermediates an undamped chain has no steady state
    params = TopologyParams("cascaded", "r1", 3, 0.01, 0.1, 0.1, 0.1, 1.0)
    gammas = [0.1, 0.0, 0.2, 0.0]
    matrices, drives, _ = assemble_points(
        params, gamma_c=gammas, gamma_b=[(g,) * 3 for g in gammas])
    amplitudes, residuals, conditions, errors = steady_states(
        matrices, drives, layout("cascaded", False, 3)[-1])
    assert sorted(errors) == [1, 3]
    for i, g in enumerate(gammas):
        sys = assemble(build_network(TopologyParams(
            "cascaded", "r1", 3, 0.01, g, g, 0.1, 1.0)))
        if g == 0.0:
            with pytest.raises(UnstableSystemError) as err:
                steady_state(sys)
            assert type(errors[i]) is UnstableSystemError
            assert str(errors[i]) == str(err.value)
            assert errors[i].spectral_abscissa == err.value.spectral_abscissa
            assert np.isnan(amplitudes[i]).all() and np.isnan(residuals[i])
        else:
            ss = steady_state(sys)
            assert amplitudes[i].tobytes() == ss.amplitudes.tobytes()
            assert (residuals[i], conditions[i]) == (ss.residual, ss.condition)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Per numpy.linalg kernel, the leading stack size of every call
    (1 for a single matrix), the Pade solves made inside
    ``qbnet.dynamics.expm`` or its doubling entry ``_doublings`` apart,
    under "expm solve"; per band factorisation (``zgbtrf``), the order of
    the stacked block diagonal it factors."""
    calls = {"solve": [], "eigvals": [], "cond": []}
    within = calls["expm solve"] = []
    inside = []
    for name in ("solve", "eigvals", "cond"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            sizes = within if inside and _name == "solve" else calls[_name]
            sizes.append(a.shape[0] if np.ndim(a) == 3 else 1)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for name in ("expm", "_doublings"):
        exponentiate = getattr(qbnet.dynamics, name)

        def marked(matrices, *args, _exponentiate=exponentiate):
            inside.append(True)
            try:
                return _exponentiate(matrices, *args)
            finally:
                inside.pop()

        monkeypatch.setattr(qbnet.dynamics, name, marked)
    band = calls["zgbtrf"] = []
    factor = qbnet.dynamics.zgbtrf
    monkeypatch.setattr(qbnet.dynamics, "zgbtrf",
                        lambda ab, *args, **kwargs: band.append(ab.shape[1])
                        or factor(ab, *args, **kwargs))
    return calls


@pytest.fixture
def fills(monkeypatch):
    """The slice count of every dense stack ``dynamics._fill`` builds."""
    sizes = []
    fill = qbnet.dynamics._fill
    monkeypatch.setattr(qbnet.dynamics, "_fill",
                        lambda stack: sizes.append(len(stack)) or fill(stack))
    return sizes


@pytest.fixture
def numpy_calls(monkeypatch):
    """The name of every call that ``qbnet.network``, ``qbnet.dynamics``
    and ``qbnet.observables`` make through their ``np`` module: numpy
    functions, ufuncs and their methods, and ``np.linalg``."""
    calls = []

    class Counted:
        def __init__(self, target, name):
            self._target, self._name = target, name

        def __call__(self, *args, **kwargs):
            calls.append(self._name)
            return self._target(*args, **kwargs)

        def __getattr__(self, attr):
            value = getattr(self._target, attr)
            return Counted(value, f"{self._name}.{attr}") if callable(value) else value

    def proxy(module, name):
        counted = types.ModuleType(name)
        for attr in dir(module):
            value = getattr(module, attr)
            if callable(value) and not isinstance(value, type):
                value = Counted(value, f"{name}.{attr}")
            setattr(counted, attr, value)
        return counted

    counted = proxy(np, "np")
    counted.linalg = proxy(np.linalg, "np.linalg")
    for module in (qbnet.network, qbnet.dynamics, qbnet.observables):
        monkeypatch.setattr(module, "np", counted)
    return calls


class TestCounters:
    def test_landscape_wraps_each_theta_once(self, monkeypatch):
        # 41 distinct thetas on a 41 x 41 grid of two links
        figure_table("fig2a")  # compiles the layout
        calls = []
        wrap = qbnet.network.wrap_phase
        monkeypatch.setattr(qbnet.network, "wrap_phase",
                            lambda phi: calls.append(phi) or wrap(phi))
        figure_table("fig2a")
        assert 0 < len(calls) <= 41

    def test_energy_panel_builds_no_steady_state(self, monkeypatch):
        # a batch is read as arrays, not one SteadyState per point
        built = []
        state = qbnet.dynamics.SteadyState
        monkeypatch.setattr(qbnet.dynamics, "SteadyState",
                            lambda *a, **k: built.append(a) or state(*a, **k))
        figure_table("fig2b")
        assert built == []

    @pytest.mark.parametrize("call, before", [(steady_energy, 24),
                                              (gain_report, 24)])
    def test_single_call_numpy_budget(self, call, before, numpy_calls):
        # the fixed cost of one small call: no more numpy calls than the
        # per-point tables made (``before``, counted the same way)
        params = TopologyParams("cascaded", "nr", 1, 0.01, 0.1, 0.1, 0.1, 1.0)
        call(params)  # compiles the layout
        numpy_calls.clear()
        call(params)
        assert 0 < len(numpy_calls) <= before

    def test_fig2c_solves_in_batches(self, linalg_calls):
        # nr, r1 and r2 share the intermediates layout: one batch of 903
        figure_table("fig2c")
        assert linalg_calls["solve"] == [903]

    @pytest.mark.parametrize("fig_id", ["fig2a", "fig3a"])
    def test_landscape_is_one_batch(self, fig_id, linalg_calls):
        figure_table(fig_id)
        assert linalg_calls["solve"] == [41 * 41]

    def test_sweep_solves_nr_once_per_point(self, linalg_calls):
        doc = {"topology": {"family": "cascaded", "variant": "nr", "n": 4,
                            "g_b": 0.01, "gamma_c": 0.1, "gamma_b": 0.1,
                            "Gamma": 0.1, "xi": 1.0},
               "sweep": {"variable": "gamma", "values": [0.1, 0.05, 0.2]},
               "observables": ["steady_energy", "gains"]}
        table = run_sweep(parse_run_config(doc))
        # three variants solved for three points, one batch each
        assert linalg_calls["solve"] == [3, 3, 3]
        assert [row[1] for row in table.rows] == [row[2] for row in table.rows]

    def test_sweep_max_power_shares_the_steady_solve(self, linalg_calls):
        doc = {"topology": {"family": "cascaded", "variant": "nr", "n": 4,
                            "g_b": 0.01, "gamma_c": 0.1, "gamma_b": 0.1,
                            "Gamma": 0.1, "xi": 1.0},
               "sweep": {"variable": "gamma", "values": [0.1, 0.05, 0.2]},
               "observables": ["steady_energy", "max_power"]}
        table = run_sweep(parse_run_config(doc))
        # the steady column reads the max_power batch's own solve; the
        # peak search's exponentials solve apart
        assert linalg_calls["solve"] == [3] and linalg_calls["expm solve"]
        assert len(table.rows) == 3

    def test_long_networks_factor_one_band_per_batch(self, linalg_calls):
        # 201 modes: one band factorisation, no dense solve; a gain report
        # stacks nr and r2 into one block diagonal, r1 (101 modes) alone
        params = TopologyParams("cascaded", "nr", 100, 0.01, 0.1, 0.1, 0.1, 1.0)
        steady_energy(params)
        assert linalg_calls["zgbtrf"] == [200] and linalg_calls["solve"] == []
        gain_report(params)
        assert linalg_calls["zgbtrf"] == [200, 400, 100]
        assert linalg_calls["solve"] == []

    def test_unproven_long_chain_takes_the_dense_route(self, linalg_calls):
        # undamped batteries: M[1:, 1:] is singular (odd order, zero
        # diagonal), yet the chain decays through the charger to a unique
        # steady state, E(b_101) = |xi|^2 / g_b^2; the certificate cannot
        # prove it, so the dense LU solves it
        params = TopologyParams("cascaded", "r1", 101, 0.05, 0.1, 0.0, 0.1, 1.0)
        energy = steady_energy(params)
        assert linalg_calls["zgbtrf"] == [] and linalg_calls["solve"] == [1]
        matrices, drives, (index, *_) = assemble_points(params)
        assert np.linalg.matrix_rank(matrices[0, 1:, 1:]) == 100
        dense = np.linalg.solve(matrices[0], -drives[0])
        assert energy == pytest.approx(abs(dense[index["b_101"]]) ** 2, rel=1e-12)
        assert energy == pytest.approx(400.0, rel=1e-12)

    def test_band_route_builds_no_dense_slice(self, fills):
        # a proven long network is filled into band storage straight from
        # its entries: no (P, n, n) stack, for one point or a batch
        params = TopologyParams("cascaded", "nr", 100, 0.01, 0.1, 0.1, 0.1, 1.0)
        steady_energy(params)
        batch = _steady_points(params, g_b=[0.01, 0.02])
        assert not batch.errors and fills == []

    def test_unproven_long_chain_builds_one_dense_slice(self, fills):
        # the certificate cannot prove it, so one dense slice serves the
        # eigvals check, the cond check and the LU
        steady_energy(TopologyParams("cascaded", "r1", 101, 0.05, 0.1, 0.0, 0.1, 1.0))
        assert fills == [1]

    def test_max_power_runs_eigvals_once(self, linalg_calls):
        # charger and batteries undamped, decay only through the
        # intermediates: the certificate cannot prove it, so the gate
        # falls back to the dense abscissa, which the horizon reuses
        params = TopologyParams("cascaded", "nr", 4, 0.01, 0.0, 0.0, 0.1, 1.0)
        max_power(params)
        assert linalg_calls["eigvals"] == [1]

    def test_relocation_probe_assembles_once(self, linalg_calls, monkeypatch):
        # the forward and backward drives differ only in the drive
        # vector: one assembled triangle, solved as one two-slice batch
        counts = {"assemble_points": 0, "assemble": 0, "validate": 0}
        for module, name in ((qbnet.nonreciprocity, "assemble_points"),
                             (qbnet.dynamics, "assemble"),
                             (qbnet.dynamics, "validate")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        drive_relocation_energies(-math.pi / 2, 0.01, 0.1, 0.1)
        assert counts == {"assemble_points": 1, "assemble": 0, "validate": 0}
        assert linalg_calls["solve"] == [2] and linalg_calls["eigvals"] == []

    def test_gain_report_power_builds_each_variant_once(self, linalg_calls):
        gamma = 5e-4
        params = TopologyParams("parallel", "nr", 3, gamma * 0.01, gamma,
                                (gamma, 1.5 * gamma, 0.7 * gamma), 1.0, 1.0)
        report = gain_report(params, include_power=True)
        assert len(linalg_calls["eigvals"]) <= 3
        assert len(linalg_calls["solve"]) <= 6
        for v in GAIN_VARIANTS:
            expected = tuple(max_power(params.with_variant(v), t)[1]
                             for t in report.targets)
            assert getattr(report, f"p_max_{v}") == expected
        assert all(math.isfinite(e) for e in report.eta1 + report.eta2)


THETA = st.one_of(
    st.sampled_from([math.pi, -math.pi, 0.0, -0.0, 2 * math.pi, -3 * math.pi,
                     math.pi / 2, -math.pi / 2, 7.0, -100.0]),
    st.floats(-20.0, 20.0))


@st.composite
def table_batches(draw):
    """``(params, columns)`` of one layout: ``r1`` points, or points
    mixing ``nr``, ``r2`` and ``custom``; any of the fields as columns
    (lists, or arrays), thetas at and beyond the ends of (-pi, pi], and a
    zero ``Gamma`` in a fifth of the batches."""
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(1, 5))
    points = draw(st.integers(1, 6))
    pool = draw(st.sampled_from([("r1",), ("nr", "r2", "custom"), ("nr", "r2")]))
    variants = draw(st.lists(st.sampled_from(pool), min_size=points,
                             max_size=points))
    varied = set(draw(st.sets(st.sampled_from(FIELDS))))
    if len(set(variants)) > 1 or draw(st.booleans()):
        varied.add("variant")
    else:
        variants = [variants[0]] * points
    rate = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))
    thetas = st.lists(THETA, min_size=n, max_size=n).map(tuple)
    values = {
        "g_b": [draw(st.floats(0.0, 10.0)) for _ in range(points)],
        "gamma_c": [draw(rate) for _ in range(points)],
        "gamma_b": [tuple(draw(st.lists(rate, min_size=n, max_size=n)))
                    for _ in range(points)],
        "Gamma": [draw(st.floats(1e-6, 10.0)) for _ in range(points)],
        "xi": [complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
               for _ in range(points)],
        "thetas": [draw(thetas) for _ in range(points)],
        "variant": variants}
    if draw(st.integers(0, 4)) == 0:
        values["Gamma"][draw(st.integers(0, points - 1))] = 0.0
    base = {f: v[0] for f, v in values.items()}
    if "variant" in varied:
        base["variant"] = draw(st.sampled_from(VARIANTS))
    needs_thetas = base["variant"] == "custom" or (
        "custom" in variants and "thetas" not in varied)
    if not needs_thetas and draw(st.booleans()):
        base["thetas"] = None
    columns = {f: (np.array(values[f]) if f in ("g_b", "thetas")
                   and draw(st.booleans()) else values[f]) for f in sorted(varied)}
    return TopologyParams(family=family, n=n, **base), columns


@given(table_batches())
@example((TopologyParams("parallel", "custom", 2, 0.01, 0.1, 0.1, 0.1, 1.0,
                         (-math.pi, -0.0)),
          {"thetas": [(math.pi, -0.0), (-math.pi, 0.0), (9.0, -7.5)],
           "variant": ["custom", "nr", "custom"], "Gamma": [0.1, 0.2, 0.3]}))
@example((TopologyParams("cascaded", "r1", 2, 0.01, 0.1, 0.1, 0.1, 1.0),
          {"thetas": [(0.0, -0.0), (-0.0, -math.pi), (math.pi, 0.0)]}))
@example((TopologyParams("cascaded", "nr", 3, 0.01, 0.1, 0.1, 0.1, 1.0),
          {"Gamma": [0.1, 0.0, 0.2], "variant": ["nr", "r2", "r2"]}))
@example((TopologyParams("cascaded", "r2", 2, 0.01, 0.1, 0.1, 0.0, 1.0),
          {"g_b": [0.1, 0.2]}))
def test_tables_equal_the_loop(batch):
    # column-wise tables are the per-point loop's, bit for bit, and a
    # point the builder refuses raises the builder's message
    params, columns = batch
    try:
        expected = loop_parameter_tables(params, **columns)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as err:
            parameter_tables(params, **columns)
        assert str(err.value) == str(exc)
        return
    tables = parameter_tables(params, **columns)
    for got, want in zip(tables, expected):
        assert got.shape == want.shape
        assert (np.ascontiguousarray(got).view(np.int64).tobytes()
                == np.ascontiguousarray(want).view(np.int64).tobytes())


@pytest.mark.parametrize("seed", [22, 23])
def test_joint_r1_is_its_own_layout(seed):
    # a steady gain batch solves r1 in the intermediates layout with its
    # intermediate coupling at 0: every verdict is r1's own, every battery
    # energy within 1e-14 relative of r1 solved in its own layout up to 8
    # batteries, and nr and r2 are their own solves, bit for bit.  The joint
    # stack is taken below 24 batteries, where it and r1's own stack both
    # take the dense LU (below 48 modes); from 9 batteries a parallel
    # star's dense LU is itself up to 3e-14 off the closed route in either
    # layout, and the two differ by up to 3.3e-14 (seeds 22-25): 1e-13
    # there.  test_long_gain_batch_solves_r1_alone covers 24 <= n < 48
    rng = np.random.default_rng(seed)
    compared = 0
    for k in range(120):
        family, n, points = FAMILIES[k % 2], int(rng.integers(1, 24)), int(rng.integers(1, 8))
        gamma = 10.0 ** rng.uniform(-3.0, 0.0)
        columns = {"g_b": gamma * 10.0 ** rng.uniform(-3.0, 0.5, points),
                   "Gamma": gamma * 10.0 ** rng.uniform(-1.0, 2.0, points),
                   "gamma_b": gamma * 10.0 ** rng.uniform(-0.5, 0.5, (points, n))}
        base = TopologyParams(family, "nr", n, float(columns["g_b"][0]), gamma,
                              tuple(columns["gamma_b"][0]), float(columns["Gamma"][0]), 1.0)
        targets = [f"b_{i}" for i in range(1, n + 1)]
        solved = _gain_points(base, **columns)
        for variant in GAIN_VARIANTS:
            own = _steady_points(base.with_variant(variant), **columns)
            assert sorted(solved[variant].errors) == sorted(own.errors)
            joint, alone = solved[variant].energies(*targets), own.energies(*targets)
            if variant != "r1":
                assert joint.tobytes() == alone.tobytes()
                continue
            assert np.isfinite(alone).all() and (alone > 0).all()
            bound = 1e-14 if n <= 8 else 1e-13
            assert (np.abs(joint - alone) <= bound * alone).all()
            compared += alone.size
    assert compared > 1000


@pytest.mark.parametrize("seed", [22, 23])
def test_long_gain_batch_solves_r1_alone(seed):
    # from 24 batteries the joint stack (2n + 1 modes) would take the band
    # LU and r1 alone the dense LU, and the padded r1 costs more than the
    # batch it saves (ROADMAP item 8): r1 is solved in its own layout, bit
    # for bit, and within 1e-13 relative of the closed route, the effective
    # model's continued fraction (3.5e-14 worst on seeds 22-24, parallel
    # n = 35)
    rng = np.random.default_rng(seed)
    compared = 0
    for k in range(8):
        family, n, points = FAMILIES[k % 2], int(rng.integers(24, 48)), int(rng.integers(1, 4))
        gamma = 10.0 ** rng.uniform(-3.0, 0.0)
        columns = {"g_b": gamma * 10.0 ** rng.uniform(-1.0, 0.5, points),
                   "Gamma": gamma * 10.0 ** rng.uniform(-1.0, 2.0, points),
                   "gamma_b": gamma * 10.0 ** rng.uniform(-0.5, 0.5, (points, n))}
        base = TopologyParams(family, "r1", n, float(columns["g_b"][0]), gamma,
                              tuple(columns["gamma_b"][0]), float(columns["Gamma"][0]), 1.0)
        targets = [f"b_{i}" for i in range(1, n + 1)]
        batch, own = _gain_points(base, **columns)["r1"], _steady_points(base, **columns)
        assert not batch.errors and not own.errors
        energies = batch.energies(*targets)
        assert energies.tobytes() == own.energies(*targets).tobytes()
        for p in range(points):
            point = TopologyParams(family, "r1", n, float(columns["g_b"][p]), gamma,
                                   tuple(columns["gamma_b"][p]), float(columns["Gamma"][p]), 1.0)
            closed = np.array([effective_steady_energy(point, b) for b in range(1, n + 1)])
            assert np.isfinite(closed).all() and (closed > 0).all()
            assert (np.abs(energies[p] - closed) <= 1e-13 * closed).all()
            compared += n
    assert compared > 200


#: tiny and huge Gamma for cascaded and parallel n = 2, g_b / gamma = 1e-3,
#: and whether nr is refused there (first, so the report raises its error)
EDGE_GAMMAS = {1e-300: True, 1e-20: True, 1e-13: False, 1e11: False, 1e20: True,
               1e250: True}
#: where every variant passes alone, but the decoupled intermediates of r1
#: in the joint stack (decay Gamma / 2) fail its gate: r1 is solved again
#: in its own layout
JOINT_REFUSES_R1 = {("cascaded", 1e-13), ("cascaded", 1e11), ("parallel", 1e-13)}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("Gamma", EDGE_GAMMAS)
def test_gain_report_verdict_at_edge_gammas(family, Gamma):
    # the report keeps the verdict of the three variants solved apart:
    # the first refusal (nr's), or every energy
    params = TopologyParams(family, "nr", 2, 1e-4, 0.1, 0.1, Gamma, 1.0)
    targets = ("b_2",) if family == "cascaded" else ("b_1", "b_2")
    apart = [_steady_points(params.with_variant(v)) for v in GAIN_VARIANTS]
    assert bool(apart[0].errors) is EDGE_GAMMAS[Gamma]
    if apart[0].errors:
        with pytest.raises(type(apart[0].errors[0])) as err:
            gain_report(params)
        assert str(err.value) == str(apart[0].errors[0])
        return
    assert not apart[1].errors and not apart[2].errors
    stacked = _steady_points(params, variant=list(GAIN_VARIANTS))
    assert list(stacked.errors) == ([1] if (family, Gamma) in JOINT_REFUSES_R1 else [])
    report = gain_report(params)
    assert report.e_nr == tuple(apart[0].energies(*targets)[0].tolist())
    assert report.e_r2 == tuple(apart[2].energies(*targets)[0].tolist())
    assert report.e_r1 == pytest.approx(apart[1].energies(*targets)[0].tolist(), rel=1e-14)


@pytest.mark.parametrize("variants", [["nr", "r1", "r2"], ["r1", "custom", "r1", "nr"],
                                      ["r2", "r2", "r1", "r1", "nr"]])
def test_mixed_tables_equal_the_loop(variants):
    # r1 beside variants with intermediates: g_i is 0 on its rows, in
    # contiguous blocks and interleaved, with derived and column g_b
    n, points = 3, len(variants)
    params = TopologyParams("parallel", "custom", n, 0.02, 0.1, 0.1, 0.3, 1.0,
                            (0.5, -4.0, 3.5))
    for columns in ({"variant": variants},
                    {"variant": variants, "g_b": np.linspace(0.01, 0.05, points),
                     "thetas": [(0.1 * k, -0.0, 7.0) for k in range(points)]}):
        tables = parameter_tables(params, **columns)
        for got, want in zip(tables, loop_parameter_tables(params, **columns)):
            assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()
        assert (tables[1][[v == "r1" for v in variants], 1] == 0.0).all()
