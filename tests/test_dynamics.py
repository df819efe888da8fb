import numpy as np
import pytest
from scipy.linalg import expm

from qbnet import (CouplingSpec, DriveSpec, ModeSpec, NetworkSpec,
                   TopologyParams, UnstableSystemError, ValidationError,
                   assemble, build_network, evolve, is_stable, steady_state,
                   vacuum)


def single_mode(gamma=0.1, xi=1.0):
    return NetworkSpec((ModeSpec("c", "charger", gamma),), (),
                       (DriveSpec("c", xi),))


def two_mode(g=0.05, gamma=0.1, theta=0.0, xi=1.0):
    modes = (ModeSpec("c", "charger", gamma), ModeSpec("b", "battery", gamma))
    return NetworkSpec(modes, (CouplingSpec("c", "b", g, theta),),
                       (DriveSpec("c", xi),))


class TestAssemble:
    def test_single_mode_convention(self):
        sys = assemble(single_mode())
        assert sys.matrix[0, 0] == pytest.approx(-0.05)
        assert sys.drive[0] == pytest.approx(-1j)

    def test_offdiagonal_convention(self):
        g, theta = 0.03, 0.7
        sys = assemble(two_mode(g=g, theta=theta))
        c, b = sys.row("c"), sys.row("b")
        assert sys.matrix[b, c] == pytest.approx(-1j * g * np.exp(1j * theta))
        assert sys.matrix[c, b] == pytest.approx(-1j * g * np.exp(-1j * theta))

    def test_hermitian_part_identity(self):
        # M + M^dagger = -diag(decay rates), elementwise
        for variant in ("r1", "r2", "nr"):
            p = TopologyParams("cascaded", variant, 3, 0.02, 0.1, 0.15, 0.3, 1.0)
            spec = build_network(p)
            sys = assemble(spec)
            target = -np.diag([m.decay_rate for m in spec.modes])
            herm = sys.matrix + sys.matrix.conj().T
            assert np.abs(herm - target).max() <= 1e-14

    def test_detuning_on_diagonal(self):
        spec = NetworkSpec((ModeSpec("c", "charger", 0.1, detuning=0.3),), (),
                           (DriveSpec("c", 1.0),))
        sys = assemble(spec)
        assert sys.matrix[0, 0] == pytest.approx(-0.3j - 0.05)

    def test_rejects_invalid_spec(self):
        bad = NetworkSpec((ModeSpec("c", "charger", -1.0),), (), ())
        with pytest.raises(ValidationError):
            assemble(bad)

    def test_matrix_read_only(self):
        sys = assemble(single_mode())
        with pytest.raises(ValueError):
            sys.matrix[0, 0] = 0.0


class TestSteadyState:
    def test_single_mode(self):
        # alpha = -2i xi / gamma
        ss = steady_state(assemble(single_mode(gamma=0.1, xi=1.0)))
        assert ss.amplitudes[0] == pytest.approx(-20j, rel=1e-12)
        assert abs(ss.amplitudes[0]) ** 2 == pytest.approx(400.0, rel=1e-12)

    def test_two_mode_battery_energy(self):
        # hand-solved 2x2: |alpha_b|^2 = (2g/gamma)^2 xi^2 / (gamma/2 + 2g^2/gamma)^2
        sys = assemble(two_mode())
        ss = steady_state(sys)
        assert abs(ss.amplitudes[sys.row("b")]) ** 2 == pytest.approx(100.0,
                                                                      rel=1e-12)

    def test_residual_bound(self):
        sys = assemble(two_mode())
        ss = steady_state(sys)
        scale = max(1.0, float(np.linalg.norm(sys.drive)))
        assert ss.residual <= 1e-10 * scale

    def test_singular_refused(self):
        spec = NetworkSpec((ModeSpec("c", "charger", 0.0),), (),
                           (DriveSpec("c", 1.0),))
        with pytest.raises(UnstableSystemError) as err:
            steady_state(assemble(spec))
        assert err.value.spectral_abscissa == 0.0

    def test_undamped_invertible_refused(self):
        # M = [[0, -ig], [-ig, 0]] is invertible, but nothing decays: the
        # drive pumps the modes forever and -M^{-1} d is never reached
        sys = assemble(two_mode(gamma=0.0))
        assert abs(np.linalg.det(sys.matrix)) > 0
        with pytest.raises(UnstableSystemError) as err:
            steady_state(sys)
        assert err.value.spectral_abscissa == pytest.approx(0.0, abs=1e-15)


class TestIsStable:
    def test_single_mode(self):
        stable, abscissa = is_stable(assemble(single_mode(gamma=0.1)))
        assert stable
        assert abscissa == pytest.approx(-0.05, rel=1e-12)

    def test_undamped_uncoupled(self):
        spec = NetworkSpec((ModeSpec("c", "charger", 0.0),), (), ())
        stable, abscissa = is_stable(assemble(spec))
        assert not stable
        assert abscissa == pytest.approx(0.0, abs=1e-15)

    def test_decay_rule_of_the_gate(self):
        # abscissa -5e-16 lies above STABILITY_FLOOR: both refuse it
        sys = assemble(single_mode(gamma=1e-15))
        assert is_stable(sys) == (False, -5e-16)
        with pytest.raises(UnstableSystemError):
            steady_state(sys)

    def test_decay_rule_accepts_below_floor(self):
        sys = assemble(single_mode(gamma=1e-13))
        assert is_stable(sys) == (True, -5e-14)
        assert steady_state(sys).amplitudes[0] == pytest.approx(-2e13j)

    @pytest.mark.parametrize("family", ["cascaded", "parallel"])
    @pytest.mark.parametrize("variant", ["r1", "r2", "nr"])
    def test_paper_topologies_hurwitz(self, family, variant):
        p = TopologyParams(family, variant, 4, 0.01, 0.1, 0.1, 0.1, 1.0)
        stable, abscissa = is_stable(assemble(build_network(p)))
        assert stable and abscissa < 0


class TestEvolve:
    def test_pure_decay(self):
        spec = NetworkSpec((ModeSpec("c", "charger", 0.1),), (), ())
        sys = assemble(spec)
        times = np.linspace(0.0, 50.0, 11)
        traj = evolve(sys, np.array([1.0 + 0j]), times)
        expected = np.exp(-0.05 * times)
        assert np.abs(traj.amplitudes[:, 0] - expected).max() < 1e-9

    def test_t0_returns_initial_exactly(self):
        sys = assemble(two_mode())
        initial = np.array([0.3 + 0.1j, -0.2j])
        traj = evolve(sys, initial, [0.0])
        assert np.array_equal(traj.amplitudes[0], initial)

    def test_long_time_approaches_steady(self):
        sys = assemble(two_mode())
        ss = steady_state(sys).amplitudes
        traj = evolve(sys, vacuum(sys), [2000.0])
        assert np.abs(traj.amplitudes[-1] - ss).max() < 1e-8

    def test_expm_vs_ivp(self, ivp_oracle):
        p = TopologyParams("parallel", "nr", 2, 0.001, 0.1, 0.1, 0.1, 1.0)
        sys = assemble(build_network(p))
        times = np.linspace(0.0, 500.0, 251)
        a = evolve(sys, vacuum(sys), times).amplitudes
        b = ivp_oracle(sys, vacuum(sys), times, rtol=1e-11, atol=1e-13)
        assert np.abs(a - b).max() < 1e-8

    def test_singular_falls_back_to_augmented(self):
        # undamped driven mode: amplitude grows as -i xi t
        spec = NetworkSpec((ModeSpec("c", "charger", 0.0),), (),
                           (DriveSpec("c", 1.0),))
        sys = assemble(spec)
        times = np.linspace(0.0, 10.0, 21)
        traj = evolve(sys, vacuum(sys), times)
        assert traj.method == "augmented"
        assert np.abs(traj.amplitudes[:, 0] - (-1j * times)).max() < 1e-13

    def test_undamped_invertible_is_exact(self, monkeypatch):
        # c = -i xi sin(g t) / g, b = -xi (1 - cos g t) / g
        g, xi = 0.05, 1.0
        sys = assemble(two_mode(g=g, gamma=0.0, xi=xi))
        calls = []

        def counted(matrix):
            calls.append(matrix.shape)
            return expm(matrix)

        monkeypatch.setattr("qbnet.dynamics.expm", counted)
        # a linear grid is one run from t = 0; on the uneven grid, runs
        # start after expm-served points: the geometric points, t = 50,
        # 2017 and 2030 are one expm call, the runs from t = 100 and 2040
        # step on from t = 50 and 2030
        for times, exponentiated in [
                (np.linspace(0.0, 2000.0, 2001), []),
                (np.concatenate([np.geomspace(0.5, 40.0, 9), np.linspace(50.0, 2000.0, 40),
                                 [2017.0], np.linspace(2030.0, 2400.0, 38)]), [(12, 3, 3)])]:
            calls.clear()
            traj = evolve(sys, vacuum(sys), times)
            assert traj.method == "augmented"
            assert calls == exponentiated
            exact_c = -1j * xi * np.sin(g * times) / g
            exact_b = -xi * (1.0 - np.cos(g * times)) / g
            assert np.abs(traj.mode("c") - exact_c).max() <= 1e-11
            assert np.abs(traj.mode("b") - exact_b).max() <= 1e-11

    def test_input_validation(self):
        sys = assemble(single_mode())
        with pytest.raises(ValueError):
            evolve(sys, vacuum(sys), [1.0, 0.5])
        with pytest.raises(ValueError):
            evolve(sys, vacuum(sys), [-1.0, 2.0])
        with pytest.raises(ValueError):
            evolve(sys, np.array([np.nan + 0j]), [0.0, 1.0])

    def test_times_offset_grid(self, ivp_oracle):
        # a grid starting after zero still measures time from t = 0
        sys = assemble(single_mode())
        expm_traj = evolve(sys, vacuum(sys), [5.0, 10.0])
        ivp_amps = ivp_oracle(sys, vacuum(sys), [5.0, 10.0], rtol=1e-12,
                              atol=1e-14)
        assert np.abs(expm_traj.amplitudes - ivp_amps).max() < 1e-9


def test_drive_phase_covariance():
    # xi -> xi e^{i phi} rotates every amplitude by e^{i phi}
    phi = 0.81
    base = steady_state(assemble(two_mode(xi=1.0))).amplitudes
    rotated = steady_state(assemble(two_mode(xi=np.exp(1j * phi)))).amplitudes
    assert np.abs(rotated - base * np.exp(1j * phi)).max() < 1e-12
    assert np.abs(np.abs(rotated) ** 2 - np.abs(base) ** 2).max() < 1e-12
