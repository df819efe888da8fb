import math

import numpy as np
import pytest

from qbnet import (TopologyParams, UnstableSystemError, ValidationError,
                   drive_relocation_energies, isolation, nonreciprocity,
                   phase_landscape, steady_energy, window_check)


class TestIsolation:
    def test_optimal_phase(self):
        res = isolation(-math.pi / 2, 0.02, 0.5)
        assert res.backward_t <= 1e-33
        assert res.forward_t == pytest.approx(4 * 0.02 ** 2, rel=1e-12)
        assert math.isinf(res.ratio)

    def test_reciprocal_point(self):
        res = isolation(0.0, 0.02, 0.5)
        assert res.ratio == pytest.approx(1.0, rel=1e-12)

    def test_minus_pi_over_6(self):
        # sin(-pi/6) = -1/2, so ratio (1 + 1/2)/(1 - 1/2) = 3
        res = isolation(-math.pi / 6, 0.02, 0.5)
        assert res.ratio == pytest.approx(3.0, rel=1e-12)

    def test_matched_formula(self):
        g = 0.013
        for theta in np.linspace(-3.0, 3.0, 13):
            res = isolation(theta, g, 0.7)
            assert res.forward_t == pytest.approx(
                2 * g * g * (1 - math.sin(theta)), rel=1e-12)
            assert res.backward_t == pytest.approx(
                2 * g * g * (1 + math.sin(theta)), rel=1e-12)

    def test_antisymmetry_exact(self):
        for theta in np.linspace(-3.0, 3.0, 25):
            fwd = isolation(theta, 0.02, 0.5)
            rev = isolation(-theta, 0.02, 0.5)
            assert fwd.forward_t == rev.backward_t
            assert fwd.backward_t == rev.forward_t


class TestWindowCheck:
    def test_window(self):
        assert window_check(-math.pi / 2)
        assert not window_check(0.0)
        assert not window_check(math.pi / 2)
        assert not window_check(math.pi)
        assert window_check(-math.pi + 1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            window_check(-math.pi)
        with pytest.raises(ValueError):
            window_check(4.0)

    @pytest.mark.parametrize("theta", [4.0, -math.pi, math.nan])
    def test_theta_outside_the_range_refused(self, theta):
        # the same typed refusal as drive_relocation_energies
        with pytest.raises(ValidationError, match=r"outside \(-pi, pi\]"):
            window_check(theta)


class TestDriveRelocation:
    def test_backward_blocked_at_optimum(self):
        e_fwd, e_bwd = drive_relocation_energies(-math.pi / 2, 0.01, 0.1, 0.1)
        assert e_bwd <= 1e-12 * e_fwd

    def test_probe_matches_formula(self):
        # probe ratio equals (1 - sin)/(1 + sin) exactly for symmetric decay
        thetas = -math.pi + 2 * math.pi * np.arange(1, 26) / 26
        for theta in thetas:
            e_fwd, e_bwd = drive_relocation_energies(theta, 0.01, 0.1, 0.1)
            expected = (1 - math.sin(theta)) / (1 + math.sin(theta))
            assert e_fwd / e_bwd == pytest.approx(expected, rel=1e-8)

    def test_dark_mode_refused(self):
        # theta = 0 with undamped endpoints leaves a dark mode: the
        # triangle never settles, so there is no steady energy to report
        with pytest.raises(UnstableSystemError):
            drive_relocation_energies(0.0, 0.01, 0.1, 0.0)

    @pytest.mark.parametrize("theta", [4.0, -math.pi, math.nan])
    def test_theta_outside_the_range_refused(self, theta):
        # the builder would wrap 4.0 into range; the probe refuses it
        with pytest.raises(ValidationError, match=r"outside \(-pi, pi\]"):
            drive_relocation_energies(theta, 0.01, 0.1, 0.1)


class TestPhaseLandscape:
    def test_cascaded_argmax(self):
        params = TopologyParams("cascaded", "custom", 2, 0.01, 0.1, 0.1, 0.1,
                                1.0, thetas=(0.0, 0.0))
        scape = phase_landscape(params, target="b_2", grid_points=21)
        cell = scape.theta_grids[0][1] - scape.theta_grids[0][0]
        assert scape.argmax
        for t1, t2 in scape.argmax:
            assert abs(t1 + math.pi / 2) <= cell
            assert abs(t2 + math.pi / 2) <= cell

    def test_parallel_tied_argmax(self):
        params = TopologyParams("parallel", "custom", 2, 0.01, 0.1, 0.1, 0.1,
                                1.0, thetas=(0.0, 0.0))
        scape = phase_landscape(params, target="b_2", grid_points=21)
        cell = scape.theta_grids[0][1] - scape.theta_grids[0][0]
        assert len(scape.argmax) >= 2  # theta_1 = +-pi/2 tie is reported
        for t1, t2 in scape.argmax:
            assert min(abs(t1 - math.pi / 2), abs(t1 + math.pi / 2)) <= cell
            assert abs(t2 + math.pi / 2) <= cell

    def test_r1_landscape_flat(self):
        params = TopologyParams("cascaded", "r1", 2, 0.01, 0.1, 0.1, 0.1, 1.0,
                                thetas=(0.0, 0.0))
        scape = phase_landscape(params, target="b_2", grid_points=21)
        assert scape.energy.max() - scape.energy.min() < 1e-12

    def test_grid_validation(self):
        params = TopologyParams("cascaded", "custom", 2, 0.01, 0.1, 0.1, 0.1,
                                1.0, thetas=(0.0, 0.0))
        with pytest.raises(ValueError):
            phase_landscape(params, grid_points=11)
        with pytest.raises(ValueError):
            phase_landscape(params.with_variant("nr"))

    def test_grid_size_limit(self, monkeypatch):
        # 41^2 = 1,681 points against a limit lowered to 1,000; the real
        # limit refuses n = 4 at 41 points, which would need gigabytes
        monkeypatch.setattr(nonreciprocity, "MAX_LANDSCAPE_POINTS", 1000)
        params = TopologyParams("cascaded", "custom", 2, 0.01, 0.1, 0.1, 0.1,
                                1.0, thetas=(0.0, 0.0))
        with pytest.raises(ValueError, match="landscape limit"):
            phase_landscape(params, grid_points=41)

    def test_energy_monotone_in_forward_transmission(self):
        # single-link chain: steady battery energy sorts exactly like the
        # forward transmission across a 101-point phase grid
        thetas = np.linspace(-math.pi, math.pi, 102)[1:]
        energies, forwards = [], []
        for theta in thetas:
            p = TopologyParams("cascaded", "custom", 1, 0.01, 0.1, 0.1, 0.1,
                               1.0, thetas=(theta,))
            energies.append(steady_energy(p, "b_1"))
            forwards.append(isolation(theta, 0.01, 0.1).forward_t)
        assert list(np.argsort(energies)) == list(np.argsort(forwards))
