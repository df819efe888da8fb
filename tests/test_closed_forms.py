import math

import numpy as np
import pytest

from qbnet import (NoSteadyStateError, TopologyParams, cascaded_nr_energy,
                   effective_link, effective_steady_amplitudes,
                   effective_steady_energy, g_opt_odd, gain_approx,
                   gain_bounds, logfit_ratio, parallel_nr_energy,
                   parallel_r1_energy)
from qbnet.closed_forms import _r1_stationary_poly

from oracles import scan_refine_max


def chain_params(variant, n, g_b, gamma=0.1, Gamma=0.1, xi=1.0, thetas=None):
    return TopologyParams("cascaded", variant, n, g_b, gamma, gamma, Gamma, xi,
                          thetas)


class TestEffectiveLink:
    def test_matched_optimal_phase(self):
        g = 0.02
        link = effective_link(-math.pi / 2, g, math.sqrt(g * 0.5 / 2),
                              math.sqrt(g * 0.5 / 2), 0.5)
        assert link.backward_amp == 0.0  # exact cancellation
        assert abs(link.forward_amp) == pytest.approx(2 * g, rel=1e-12)
        assert link.induced_decay_upstream == pytest.approx(g, rel=1e-12)
        assert link.induced_decay_downstream == pytest.approx(g, rel=1e-12)

    def test_matched_zero_phase_symmetric(self):
        g = 0.02
        gi = math.sqrt(g * 0.5 / 2)
        link = effective_link(0.0, g, gi, gi, 0.5)
        assert abs(link.forward_amp) ** 2 == pytest.approx(2 * g * g, rel=1e-12)
        assert abs(link.backward_amp) ** 2 == pytest.approx(2 * g * g, rel=1e-12)

    def test_reversed_isolation(self):
        g = 0.02
        gi = math.sqrt(g * 0.5 / 2)
        link = effective_link(math.pi / 2, g, gi, gi, 0.5)
        assert link.forward_amp == 0.0

    def test_general_coefficients(self):
        # the second input is unmatched at the reciprocal phase, where
        # forward and backward agree exactly
        for theta, g, g1, g2, Gamma in ((0.4, 0.03, 0.01, 0.07, 0.9),
                                        (0.0, 0.02, 0.01, 0.03, 0.5)):
            link = effective_link(theta, g, g1, g2, Gamma)
            assert link.forward_amp == pytest.approx(
                -1j * g * np.exp(1j * theta) - 2 * g1 * g2 / Gamma, rel=1e-14)
            assert link.backward_amp == pytest.approx(
                -1j * g * np.exp(-1j * theta) - 2 * g1 * g2 / Gamma, rel=1e-14)
            assert link.induced_decay_upstream == pytest.approx(2 * g1 ** 2 / Gamma)
            assert link.induced_decay_downstream == pytest.approx(2 * g2 ** 2 / Gamma)
            if theta == 0.0:
                assert link.forward_amp == link.backward_amp

    def test_domain(self):
        with pytest.raises(ValueError):
            effective_link(0.0, 0.01, 0.01, 0.01, 0.0)


class TestDirectionalChain:
    def test_r1_n2_value(self):
        # dense 3x3 oracle gives (20/27)^2
        amps = effective_steady_amplitudes(chain_params("r1", 2, 0.01))
        assert abs(amps[2]) ** 2 == pytest.approx(400.0 / 729.0, rel=1e-12)

    def test_nr_matches_closed_form(self):
        amps = effective_steady_amplitudes(chain_params("nr", 3, 0.01))
        assert abs(amps[3]) ** 2 == pytest.approx(
            cascaded_nr_energy(3, 0.01, 0.1, 1.0), rel=1e-12)

    def test_decoupled_limit(self):
        amps = effective_steady_amplitudes(chain_params("r1", 3, 0.0))
        assert amps[0] == pytest.approx(-20j, rel=1e-12)
        assert np.abs(amps[1:]).max() == 0.0

    def test_resonant_divergence(self):
        # an undamped, uncoupled battery at the end of a chain, and an
        # undamped arm of a star: the fold meets a vanishing chi
        chain = TopologyParams("cascaded", "r1", 1, 0.0, 0.1, 0.0, 0.1, 1.0)
        star = TopologyParams("parallel", "r1", 2, 0.01, 0.1, (0.1, 0.0),
                              0.1, 1.0)
        for p in (chain, star):
            with pytest.raises(NoSteadyStateError):
                effective_steady_amplitudes(p)


class TestStar:
    def test_star_matches_closed_forms(self):
        p = TopologyParams("parallel", "nr", 3, 0.01, 0.1, (0.05, 0.1, 0.2),
                           0.1, 1.0)
        amps = effective_steady_amplitudes(p)
        for k, gb_k in enumerate((0.05, 0.1, 0.2), start=1):
            expected = parallel_nr_energy(3, 0.01, 0.1, gb_k, 1.0)
            assert abs(amps[k]) ** 2 == pytest.approx(expected, rel=1e-12)

    def test_star_r1_matches_closed_form(self):
        gamma_b = (0.05, 0.1)
        p = TopologyParams("parallel", "r1", 2, 0.01, 0.1, gamma_b, 0.1, 1.0)
        amps = effective_steady_amplitudes(p)
        for k in (1, 2):
            expected = parallel_r1_energy(2, 0.01, 0.1, gamma_b, 1.0, k)
            assert abs(amps[k]) ** 2 == pytest.approx(expected, rel=1e-12)


class TestCascadedNrEnergy:
    def test_n1_equals_reciprocal_optimum(self):
        assert cascaded_nr_energy(1, 0.05, 0.1, 1.0) == pytest.approx(100.0,
                                                                      rel=1e-12)

    def test_n3_value(self):
        assert cascaded_nr_energy(3, 0.01, 0.1, 1.0) == pytest.approx(
            0.2056756186979704, rel=1e-12)

    def test_zero_coupling(self):
        assert cascaded_nr_energy(4, 0.0, 0.1, 1.0) == 0.0


class TestParallelEnergies:
    def test_r1_single_battery(self):
        assert parallel_r1_energy(1, 0.05, 0.1, (0.1,), 1.0, 1) == pytest.approx(
            100.0, rel=1e-12)

    def test_r1_two_batteries(self):
        assert parallel_r1_energy(2, 0.01, 0.1, (0.1, 0.1), 1.0, 2) == pytest.approx(
            13.717421124828528, rel=1e-12)

    def test_r1_shared_denominator(self):
        base = parallel_r1_energy(2, 0.01, 0.1, (0.1, 0.1), 1.0, 1)
        bumped = parallel_r1_energy(2, 0.01, 0.1, (0.1, 0.3), 1.0, 1)
        assert bumped != pytest.approx(base, rel=1e-12)

    def test_nr_value(self):
        assert parallel_nr_energy(2, 0.01, 0.1, 0.1, 1.0) == pytest.approx(
            22.67573696145124, rel=1e-12)

    def test_nr_n1_equals_cascaded(self):
        assert parallel_nr_energy(1, 0.02, 0.1, 0.1, 1.0) == pytest.approx(
            cascaded_nr_energy(1, 0.02, 0.1, 1.0), rel=1e-12)

    def test_nr_strong_coupling_decays(self):
        values = [parallel_nr_energy(3, g, 0.1, 0.1, 1.0) for g in (1.0, 10.0, 100.0)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-3


class TestGOpt:
    def test_n1(self):
        assert g_opt_odd(1, 0.1) == pytest.approx(0.05, rel=1e-14)

    def test_n3(self):
        expected = (3 + math.sqrt(33)) / 8 * 0.1
        assert g_opt_odd(3, 0.1) == pytest.approx(expected, rel=1e-14)
        assert g_opt_odd(3, 0.1) == pytest.approx(0.109307033, rel=1e-8)

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            g_opt_odd(2, 0.1)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_argmax_agreement(self, n):
        gamma = 0.1
        grid = np.geomspace(1e-4, 10.0, 400) * gamma
        g_num, _ = scan_refine_max(lambda g: cascaded_nr_energy(n, g, gamma, 1.0),
                                   grid, rel_tol=1e-12)
        assert g_num == pytest.approx(g_opt_odd(n, gamma), rel=1e-6)


class TestGainApproxAndBounds:
    def test_cascaded_n3(self):
        assert gain_approx("cascaded", 3, 0.1) == pytest.approx((8 / 2.2) ** 2,
                                                                rel=1e-12)
        assert gain_approx("cascaded", 3, 0.1) == pytest.approx(13.2231404958,
                                                                rel=1e-9)

    def test_zero_coupling_limits(self):
        for n in (1, 2, 5):
            assert gain_approx("cascaded", n, 0.0) == 4.0 ** n
        assert gain_approx("parallel", 3, 0.0) == 4.0

    def test_bounds(self):
        assert gain_bounds("cascaded", 3) == (64.0, 8.0)
        assert gain_bounds("cascaded", 1) == (4.0, 2.0)
        for n in (1, 2, 7):
            assert gain_bounds("parallel", n) == (4.0, 2.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            gain_bounds("ring", 2)


class TestLogFit:
    def test_fit(self):
        fit = logfit_ratio(range(1, 16, 2))
        # N=1: both routes peak at exactly (xi/gamma)^2, so the ratio is 1
        # up to optimiser noise
        assert fit.ratio[0] == pytest.approx(1.0, abs=1e-9)
        assert all(r >= 1.0 - 1e-9 for r in fit.ratio)
        assert all(b > a for a, b in zip(fit.ratio, fit.ratio[1:]))
        assert 0.05 <= fit.coefficient <= 0.075

    def test_needs_odd(self):
        with pytest.raises(ValueError):
            logfit_ratio([1, 2, 3])
        with pytest.raises(ValueError):
            logfit_ratio([1, 3])

    def test_optima_are_stationary(self):
        # relative slope |E'(g) g / E| at each optimum, at 40 digits: the
        # nr energy from its closed form, the r1 energy from a dense solve
        # of the direct chain; a float-rounded optimum leaves O(eps)
        mp = pytest.importorskip("mpmath")
        gamma = 0.1
        fit = logfit_ratio(range(1, 16, 2), gamma=gamma)

        def nr_energy(n, g):
            amp = (2 ** (2 * n + 1) * g ** n
                   / ((2 * g + gamma) ** 2 * (4 * g + gamma) ** (n - 1)))
            return amp * amp

        def r1_energy(n, g):
            m = mp.matrix(n + 1, n + 1)
            for k in range(n + 1):
                m[k, k] = mp.mpf(gamma) / 2
                if k:
                    m[k, k - 1] = m[k - 1, k] = 1j * g
            drive = mp.matrix(n + 1, 1)
            drive[0] = -1j
            return abs(mp.lu_solve(m, drive)[n]) ** 2

        with mp.workdps(40):
            for n, g_nr, g_r1 in zip(fit.n, fit.gb_opt_nr, fit.gb_opt_r1):
                for energy, g in ((nr_energy, g_nr), (r1_energy, g_r1)):
                    g = mp.mpf(g)
                    slope = mp.diff(lambda x: energy(n, x), g) * g / energy(n, g)
                    assert abs(slope) <= 1e-12, (n, energy.__name__, slope)

    def test_r1_stationary_roots(self):
        # Descartes: one sign change (odd n) or none (even n), and the
        # polynomial has exactly that many positive roots
        for n in range(1, 26):
            coeffs = _r1_stationary_poly(n)
            signs = [c > 0 for c in coeffs if c != 0]
            changes = sum(a != b for a, b in zip(signs, signs[1:]))
            positive = [r for r in np.roots(coeffs[::-1])
                        if r.imag == 0 and r.real > 0]
            assert changes == len(positive) == n % 2, (n, coeffs)


class TestDirectChainStructure:
    # the folded direct chain reduces, at short lengths, to simple
    # rational forms in (g, gamma); these pin the recursion's shape
    @pytest.mark.parametrize("g", [0.001, 0.01, 0.13, 0.9])
    def test_n1_denominator(self, g):
        gamma, xi = 0.1, 1.0
        amps = effective_steady_amplitudes(chain_params("r1", 1, g, gamma, xi=xi))
        expected = (4 * g * xi / (4 * g * g + gamma * gamma)) ** 2
        assert abs(amps[1]) ** 2 == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("g", [0.001, 0.01, 0.13, 0.9])
    def test_n2_denominator(self, g):
        gamma, xi = 0.1, 1.0
        amps = effective_steady_amplitudes(chain_params("r1", 2, g, gamma, xi=xi))
        expected = (8 * g * g * xi / (gamma * (8 * g * g + gamma * gamma))) ** 2
        assert abs(amps[2]) ** 2 == pytest.approx(expected, rel=1e-12)


def test_matched_coeffs_independent_of_intermediate_decay():
    # matching makes every link coefficient, and so every steady
    # amplitude, a function of g_b alone (up to the rounding of
    # sqrt(g Gamma / 2) recombined as 2 g1 g2 / Gamma)
    for family in ("cascaded", "parallel"):
        for variant in ("r2", "nr"):
            def amps(Gamma):
                return effective_steady_amplitudes(TopologyParams(
                    family, variant, 3, 0.02, 0.1, 0.1, Gamma, 1.0))

            reference = amps(0.1)
            for Gamma in (0.5, 1.0, 10.0):
                assert np.allclose(amps(Gamma), reference, rtol=1e-12, atol=0.0)


def test_effective_route_full_api():
    p = chain_params("nr", 2, 0.03)
    amps = effective_steady_amplitudes(p)
    assert abs(amps[2]) ** 2 == pytest.approx(effective_steady_energy(p), rel=1e-14)
    assert effective_steady_energy(p, battery=2) == pytest.approx(
        cascaded_nr_energy(2, 0.03, 0.1, 1.0), rel=1e-12)
    with pytest.raises(ValueError):
        effective_steady_energy(p, battery=5)
