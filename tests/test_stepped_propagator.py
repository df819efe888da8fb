"""The stepped propagator and the octave scan of ``max_power``.

``oracle_max_power`` is the earlier implementation, kept verbatim as the
reference: a 2,000-point log scan of six decades with one ``expm(M t)``
per point, then ``scan_refine_max``.  The stepped scan must find the
same maximum; where P(t) oscillates and both scans may settle on
different near-equal peaks, only local optimality is asserted.
"""

import ast
import dataclasses
import functools
import json
import pathlib

import numpy as np
import pytest
from scipy.linalg import expm

import qbnet
from qbnet import (DriveSpec, ModeSpec, NetworkSpec, ScanEdgeError,
                   TopologyParams, assemble, build_network, energy_curve,
                   evolve, figure_table, is_stable, max_power,
                   parse_run_config, run_sweep, steady_state, vacuum)
from qbnet.cli import EXIT_NUMERIC, cli_main
from qbnet.dynamics import _contour_windows, _runs
from qbnet.figures import GAMMA_INTERMEDIATE_POWER, GAMMA_POWER, POWER_SWEEP
from qbnet.observables import POWER_SCAN_SPAN, _octave_grid

from oracles import mp_vacuum_amplitudes, scan_refine_max

VARIANTS = ("nr", "r1", "r2")
#: the repro of a maximum below the scanned range: P(t) peaks near
#: t ~ 1/g_b = 0.01, the scan starts at 50 / |abscissa| / 1e6 ~ 0.1
EDGE_CASE = TopologyParams("parallel", "nr", 2, 100.0, 0.001, 0.001, 1.0, 1.0)
#: uniform runs of different steps, joined and offset from zero
UNEVEN_TIMES = np.concatenate([np.linspace(0.5, 10.0, 20),
                               np.linspace(10.5, 100.0, 180)[1:],
                               [137.0], np.linspace(140.0, 400.0, 53)])


def oracle_max_power(params, target, rel_tol=1e-8):
    sys_ = assemble(build_network(params))
    _, abscissa = is_stable(sys_)
    row = sys_.row(target)
    alpha_ss = steady_state(sys_).amplitudes

    def power_at(t):
        amp = alpha_ss - expm(sys_.matrix * t) @ alpha_ss
        return float(abs(amp[row]) ** 2) / t

    t_hi = 50.0 / abs(abscissa)
    grid = np.geomspace(t_hi / 1e6, t_hi, 2000)
    return scan_refine_max(power_at, grid, rel_tol)


def power_at(params, target, t):
    sys_ = assemble(build_network(params))
    alpha_ss = steady_state(sys_).amplitudes
    amp = alpha_ss - expm(sys_.matrix * t) @ alpha_ss
    return float(abs(amp[sys_.row(target)]) ** 2) / t


def random_params(rng, ratio_lo, ratio_hi):
    """A seeded network: g_b/gamma log-uniform on [ratio_lo, ratio_hi]."""
    family = ("cascaded", "parallel")[rng.integers(2)]
    variant = VARIANTS[rng.integers(3)]
    n = int(rng.integers(1, 5))
    gamma = 10.0 ** rng.uniform(-4, -1)
    ratio = 10.0 ** rng.uniform(np.log10(ratio_lo), np.log10(ratio_hi))
    params = TopologyParams(
        family, variant, n, ratio * gamma, gamma * 10.0 ** rng.uniform(-0.3, 0.3),
        tuple(gamma * 10.0 ** rng.uniform(-0.3, 0.3, n)),
        gamma * 10.0 ** rng.uniform(0, 4),
        10.0 ** rng.uniform(-0.5, 0.5) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
    battery = n if family == "cascaded" else int(rng.integers(1, n + 1))
    return params, f"b_{battery}"


def fig4_params(family):
    for x in POWER_SWEEP:
        for variant in VARIANTS:
            yield TopologyParams(family, variant, 4, x * GAMMA_POWER,
                                 GAMMA_POWER, GAMMA_POWER,
                                 GAMMA_INTERMEDIATE_POWER, 1.0)


def assert_matches_oracle(params, target):
    t_star, p_max = max_power(params, target)
    t_ref, p_ref = oracle_max_power(params, target)
    assert p_max == pytest.approx(p_ref, rel=1e-10)
    assert t_star == pytest.approx(t_ref, rel=1e-6)


class TestAgainstOracle:
    @pytest.mark.parametrize("family", ["cascaded", "parallel"])
    def test_fig4_grid(self, family):
        for params in fig4_params(family):
            assert_matches_oracle(params, "b_4")

    def test_seeded_weak_coupling(self):
        rng = np.random.default_rng(20260)
        for _ in range(24):
            assert_matches_oracle(*random_params(rng, 1e-3, 1.0))

    def test_seeded_strong_coupling_locally_optimal(self):
        # P(t) oscillates; no point 0.1% away in t may beat the result
        rng = np.random.default_rng(20261)
        for _ in range(60):
            params, target = random_params(rng, 1.0, 1e2)
            t_star, p_max = max_power(params, target)
            for t in (t_star * (1 - 1e-3), t_star * (1 + 1e-3)):
                assert power_at(params, target, t) <= p_max * (1 + 1e-10)
            assert power_at(params, target, t_star) == pytest.approx(p_max,
                                                                     rel=1e-10)


class TestRootOfPowerSlope:
    """``t_star`` against a 40-digit root of dP/dt.

    P(t) = |a(t)|^2 / t peaks where ``N(t) = 2t Re(conj(a) a') - |a|^2``
    vanishes.  The oracle evaluates N with ``mpmath.expm`` on the
    assembled matrix at 40 digits and finds its root with Newton's
    method, started from ``t_star`` rounded to six digits.  A search
    that compares values of P alone cannot place a flat peak much
    better than sqrt(eps) ~ 1.5e-8 relative; the root of the slope can
    be found to rounding level.
    """

    @staticmethod
    def oracle_root(params, target, t_start):
        mp = pytest.importorskip("mpmath")
        sys_ = assemble(build_network(params))
        with mp.workdps(40):
            m = mp.matrix([[mp.mpc(complex(v)) for v in r] for r in sys_.matrix])
            alpha_ss = -mp.lu_solve(m, mp.matrix([mp.mpc(complex(v))
                                                  for v in sys_.drive]))
            row = sys_.row(target)

            @functools.lru_cache(maxsize=None)
            def parts(t):
                x = mp.expm(m * t) * (-alpha_ss)
                slope = m * x
                return x[row] + alpha_ss[row], slope[row], (m * slope)[row]

            def n(t):
                a, a1, _ = parts(t)
                return 2 * t * mp.re(mp.conj(a) * a1) - abs(a) ** 2

            def dn(t):
                a, a1, a2 = parts(t)
                return 2 * t * (abs(a1) ** 2 + mp.re(mp.conj(a) * a2))

            return float(mp.findroot(n, mp.mpf(float(f"{t_start:.6g}")),
                                     solver="newton", df=dn))

    @pytest.mark.parametrize("family, variant, x", [
        ("cascaded", "nr", POWER_SWEEP[0]), ("cascaded", "r1", POWER_SWEEP[-1]),
        ("parallel", "r2", POWER_SWEEP[10]), ("parallel", "nr", POWER_SWEEP[-1])])
    def test_fig4_peaks(self, family, variant, x):
        params = TopologyParams(family, variant, 4, x * GAMMA_POWER, GAMMA_POWER,
                                GAMMA_POWER, GAMMA_INTERMEDIATE_POWER, 1.0)
        t_star, _ = max_power(params, "b_4")
        assert t_star == pytest.approx(self.oracle_root(params, "b_4", t_star),
                                       rel=1e-11)


class TestMetamorphic:
    def test_power_scales_with_drive_squared(self):
        base = TopologyParams("cascaded", "nr", 4, 0.01 * GAMMA_POWER,
                              GAMMA_POWER, GAMMA_POWER,
                              GAMMA_INTERMEDIATE_POWER, 1.0)
        xi = 2.5 * np.exp(0.7j)
        scaled = TopologyParams("cascaded", "nr", 4, 0.01 * GAMMA_POWER,
                                GAMMA_POWER, GAMMA_POWER,
                                GAMMA_INTERMEDIATE_POWER, xi)
        t1, p1 = max_power(base, "b_4")
        t2, p2 = max_power(scaled, "b_4")
        assert p2 == pytest.approx(abs(xi) ** 2 * p1, rel=1e-10)
        assert t2 == pytest.approx(t1, rel=1e-6)

    def test_zero_drive_has_zero_power(self, capsys):
        # the peak is searched at unit drive: t_star is the driven one's
        base = TopologyParams("cascaded", "nr", 2, 0.01, 0.1, 0.1, 0.1, 1.0)
        t1, _ = max_power(base, "b_2")
        assert max_power(dataclasses.replace(base, xi=0.0), "b_2") == (t1, 0.0)
        code = cli_main(["gains", "--family", "cascaded", "--n", "2", "--gb",
                         "0.01", "--gamma", "0.1", "--xi", "0", "--power"])
        assert code == 0
        assert "eta1[b_2]; eta2[b_2]" in capsys.readouterr().out


class TestSteppedOrbit:
    @pytest.mark.parametrize("t_end", [2000.0, 2e5])
    def test_matches_per_point_expm(self, t_end):
        # cascaded nr in the fig4 regime sits near an exceptional point
        params = TopologyParams("cascaded", "nr", 4, 0.01 * GAMMA_POWER,
                                GAMMA_POWER, GAMMA_POWER,
                                GAMMA_INTERMEDIATE_POWER, 1.0)
        sys_ = assemble(build_network(params))
        alpha_ss = steady_state(sys_).amplitudes
        times = np.linspace(0.0, t_end, 2001)
        stepped = evolve(sys_, vacuum(sys_), times).amplitudes
        per_point = np.array([alpha_ss - expm(sys_.matrix * t) @ alpha_ss
                              for t in times])
        err = np.linalg.norm(stepped - per_point, axis=1).max()
        assert err <= 1e-12 * np.linalg.norm(alpha_ss)

    def test_log_grid_matches_mpmath(self):
        # every mode's E on every point of a log grid, 1e-11 relative to a
        # 40-digit propagator (the grid is served by contour sums)
        params = TopologyParams("parallel", "r1", 3, 0.01, 0.1, 0.1, 0.1, 1.0)
        sys_ = assemble(build_network(params))
        times = np.geomspace(1.0, 1e3, 50)
        got = np.abs(evolve(sys_, vacuum(sys_), times).amplitudes) ** 2
        want = np.abs(mp_vacuum_amplitudes(sys_, times)) ** 2
        assert np.abs(got / want - 1.0).max() <= 1e-11

    def test_uneven_runs(self):
        params = TopologyParams("cascaded", "r2", 2, 0.02, 0.1, 0.1, 0.3, 1.0)
        sys_ = assemble(build_network(params))
        alpha_ss = steady_state(sys_).amplitudes
        times = UNEVEN_TIMES
        got = evolve(sys_, vacuum(sys_), times).amplitudes
        want = np.array([alpha_ss - expm(sys_.matrix * t) @ alpha_ss
                         for t in times])
        err = np.linalg.norm(got - want, axis=1).max()
        assert err <= 1e-12 * np.linalg.norm(alpha_ss)

    def test_run_starts_after_expm_points(self):
        # eigenvalues at |Im| / |Re| ~ 100: the window over [0.1, 1] is
        # proved, the one over [1.78, 10] is not, and the run from t = 11
        # starts from the state at t = 10 that expm served
        params = TopologyParams("parallel", "r1", 2, 1.0, 0.01, 0.01, 0.01, 1.0)
        sys_ = assemble(build_network(params))
        alpha_ss = steady_state(sys_).amplitudes
        times = np.concatenate([np.geomspace(0.1, 10.0, 9), np.linspace(11.0, 60.0, 50)])
        runs = list(_runs(times))
        assert runs[-2:] == [(8, 9), (9, 59)]
        assert _contour_windows(sys_.matrix, times, runs) == [[0, 1, 2, 3, 4]]
        traj = evolve(sys_, vacuum(sys_), times)
        assert traj.method == "contour+expm"
        want = np.array([alpha_ss - expm(sys_.matrix * t) @ alpha_ss
                         for t in times])
        err = np.linalg.norm(traj.amplitudes - want, axis=1).max()
        assert err <= 1e-12 * np.linalg.norm(alpha_ss)

    def test_creeping_steps(self):
        # consecutive steps differ by 2e-13, inside the step tolerance, but
        # one reused step would drift 4e-7 from the grid by the end
        params = TopologyParams("cascaded", "nr", 2, 0.05, 0.1, 0.1, 1.0, 1.0)
        sys_ = assemble(build_network(params))
        alpha_ss = steady_state(sys_).amplitudes
        i = np.arange(2001.0)
        times = i + 1e-13 * i * i
        got = evolve(sys_, vacuum(sys_), times).amplitudes
        want = np.array([alpha_ss - expm(sys_.matrix * t) @ alpha_ss
                         for t in times])
        want[0] = 0.0
        err = np.linalg.norm(got - want, axis=1).max()
        assert err <= 1e-12 * np.linalg.norm(alpha_ss)


class TestOctaveScan:
    """The scan's target-row amplitudes against 34-digit mpmath.

    Each value is ``alpha_ss + e^{M t} (-alpha_ss)`` at a target row, the
    scan's own inputs (M and ``alpha_ss``, at unit drive) taken exactly.
    Octave k starts at ``t_lo + 145 h_0 (2^k - 1)`` and steps by
    ``2^k h_0``, ``h_0 = t_lo / 145`` as rounded."""

    @pytest.fixture(scope="class")
    def scans(self):
        recorded = []
        original = qbnet.observables._octave_scan

        def recording(matrices, x0, t_lo, octaves, steps, rows):
            x = original(matrices, x0, t_lo, octaves, steps, rows)
            recorded.append((matrices, x0, t_lo, steps, rows, x.copy()))
            return x

        qbnet.observables._octave_scan = recording
        try:
            figure_table("fig4c")
            qbnet.gain_report(TopologyParams("parallel", "nr", 3, 5e-6, 5e-4,
                                             (5e-4, 7.5e-4, 3.5e-4), 1.0, 1.0),
                              include_power=True)
        finally:
            qbnet.observables._octave_scan = original
        return recorded

    @staticmethod
    def mp_amplitude(matrix, x0, row, t_lo, steps, i):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(34):
            k, j = divmod(i - 1, steps)
            h0 = mp.mpf(float(t_lo / steps))
            t = mp.mpf(float(t_lo)) + (h0 * (steps * (2 ** k - 1) + (j + 1) * 2 ** k)
                                       if i else 0)
            m = mp.matrix([[mp.mpc(complex(v)) for v in r] for r in matrix])
            x = mp.matrix([mp.mpc(complex(v)) for v in x0])
            return complex(-x[int(row)] + (mp.expm(m * t) * x)[int(row)])

    def test_sampled_points_match_mpmath(self, scans):
        # per stack, three seeded slices: each target's scan argmax and one
        # seeded grid point, within 1e-12 of the slice's peak |a|
        rng = np.random.default_rng(23)
        worst = 0.0
        for matrices, x0, t_lo, steps, rows, x in scans:
            a = x - x0[:, None, rows]
            grid = _octave_grid(t_lo, POWER_SCAN_SPAN)
            for s in rng.choice(len(matrices), min(3, len(matrices)), replace=False):
                for r, row in enumerate(rows):
                    power = np.abs(a[s, :, r]) ** 2 / grid[s]
                    for i in (int(power.argmax()), int(rng.integers(power.size))):
                        want = self.mp_amplitude(matrices[s], x0[s], row, t_lo[s], steps, i)
                        error = abs(a[s, i, r] - want) / np.abs(a[s, :, r]).max()
                        worst = max(worst, error)
        assert worst <= 1e-12


def test_only_dynamics_binds_expm():
    # dynamics is the one module that exponentiates a dynamics matrix:
    # the propagator, the peak scan and the Newton steps of max_power
    def binds(node):
        return ((isinstance(node, (ast.alias, ast.FunctionDef)) and node.name == "expm")
                or (isinstance(node, ast.Attribute) and node.attr == "expm"))

    package = pathlib.Path(qbnet.__file__).parent
    binders = sorted(path.name for path in package.glob("*.py")
                     if any(map(binds, ast.walk(ast.parse(path.read_text())))))
    assert binders == ["dynamics.py"]


class TestExpmCount:
    @pytest.fixture
    def expm_calls(self, monkeypatch):
        """The stack shape of every call of ``expm`` or of its doubling
        entry ``_doublings`` that is not made inside another."""
        calls, inside = [], []
        for name in ("expm", "_doublings"):
            def counted(a, *args, _original=getattr(qbnet.dynamics, name)):
                if not inside:
                    calls.append(a.shape)
                inside.append(True)
                try:
                    return _original(a, *args)
                finally:
                    inside.pop()

            monkeypatch.setattr(qbnet.dynamics, name, counted)
        return calls

    def test_max_power_fig4_regime(self, expm_calls):
        for params in (TopologyParams("cascaded", "nr", 4, 0.01 * GAMMA_POWER,
                                      GAMMA_POWER, GAMMA_POWER,
                                      GAMMA_INTERMEDIATE_POWER, 1.0),
                       TopologyParams("parallel", "r1", 4, 0.1 * GAMMA_POWER,
                                      GAMMA_POWER, GAMMA_POWER,
                                      GAMMA_INTERMEDIATE_POWER, 1.0)):
            expm_calls.clear()
            max_power(params, "b_4")
            # 2 for the scan, the rest Newton steps
            assert 0 < len(expm_calls) <= 30

    def test_eta_panel_is_two_stacks(self, expm_calls):
        # nr with r2, then r1: 21 points each, scanned and refined together;
        # the first call is the scan's first point
        figure_table("fig4c")
        assert 0 < len(expm_calls) <= 60
        assert expm_calls[0] == (42, 9, 9)

    @pytest.mark.parametrize("panel, calls", [("fig4a", 0), ("fig4b", 0),
                                              ("fig4c", 12), ("fig4d", 12)])
    def test_panel_counts(self, expm_calls, panel, calls):
        # the log-grid curves are contour sums; an eta panel is two stacked
        # scans (a first-point expm and one doubling call each) and their
        # Newton steps
        figure_table(panel)
        assert len(expm_calls) == calls

    def test_max_power_count(self, expm_calls):
        # 2 for the scan, 4 Newton steps
        max_power(TopologyParams("cascaded", "nr", 4, 0.01 * GAMMA_POWER,
                                 GAMMA_POWER, GAMMA_POWER,
                                 GAMMA_INTERMEDIATE_POWER, 1.0), "b_4")
        assert len(expm_calls) == 6

    def test_uniform_energy_curve(self, expm_calls):
        params = TopologyParams("parallel", "nr", 4, 0.001, 0.1, 0.1, 0.1, 1.0)
        energy_curve(params, "b_4", np.linspace(0.0, 2000.0, 2001))
        assert 0 < len(expm_calls) <= 2
        expm_calls.clear()
        energy_curve(params, "b_4", np.linspace(2.0, 2000.0, 1001))
        assert 0 < len(expm_calls) <= 2


class TestScanEdge:
    def test_maximum_below_scan_raises(self):
        with pytest.raises(ScanEdgeError) as err:
            max_power(EDGE_CASE, "b_2")
        assert err.value.edge is not None and err.value.edge > 0

    def test_cli_exit_code(self, capsys):
        code = cli_main(["power", "--family", "parallel", "--variant", "nr",
                         "--n", "2", "--gb", "100", "--gamma", "0.001",
                         "--big-gamma", "1", "--target", "b_2"])
        assert code == EXIT_NUMERIC
        assert "grid edge" in capsys.readouterr().err

    def test_sweep_sends_point_to_errors(self):
        doc = {"topology": {"family": "parallel", "variant": "nr", "n": 2,
                            "g_b": 0.01, "gamma_c": 0.001, "gamma_b": 0.001,
                            "Gamma": 1.0, "xi": 1.0},
               "sweep": {"variable": "g_b", "values": [1e-5, 100.0]},
               "observables": ["max_power"], "target": "b_2"}
        table = run_sweep(parse_run_config(doc))
        assert [row[0] for row in table.rows] == [1e-5]
        assert [(i, v) for i, v, _ in table.errors] == [(1, 100.0)]


class TestMethodRecorded:
    def test_singular_records_augmented(self):
        spec = NetworkSpec((ModeSpec("c", "charger", 0.0),), (),
                           (DriveSpec("c", 1.0),))
        sys_ = assemble(spec)
        assert evolve(sys_, vacuum(sys_), [0.0, 1.0]).method == "augmented"

    def test_decaying_auto_records_contour(self):
        sys_ = assemble(build_network(
            TopologyParams("cascaded", "nr", 1, 0.05, 0.1, 0.1, 0.1, 1.0)))
        assert evolve(sys_, vacuum(sys_), [0.0, 1.0]).method == "contour"

    @pytest.mark.parametrize("command", ["evolve", "power"])
    def test_table_metadata(self, capsys, command):
        code = cli_main([command, "--family", "cascaded", "--variant", "nr",
                         "--n", "1", "--gb", "0.05", "--gamma", "0.1",
                         "--t-max", "100", "--points", "11", "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["metadata"]["method"] == "expm"
