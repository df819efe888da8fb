import math

import numpy as np
import pytest

from qbnet import (TopologyParams, UnstableSystemError, cascaded_nr_energy,
                   energy_curve, evolve, gain_report, max_power, power_curve,
                   steady_energy, vacuum)
from qbnet.dynamics import _augmented, expm
from qbnet.observables import _ratios, _system

# independently derived single-driven-mode optimum: maximise
# (2 xi / gamma)^2 (1 - exp(-gamma t / 2))^2 / t, i.e. solve 1 + s = e^{s/2}
SINGLE_MODE_T_STAR = 2.5128624172523394
SINGLE_MODE_P_MAX = 0.8145287551781475


def params(family="cascaded", variant="nr", n=3, g_b=0.01, gamma=0.1,
           Gamma=0.1, xi=1.0):
    return TopologyParams(family, variant, n, g_b, gamma, gamma, Gamma, xi)


def single_mode_params(gamma=0.1, xi=1.0):
    # battery decoupled (g_b = 0); the charger is the single driven mode
    return TopologyParams("cascaded", "r1", 1, 0.0, gamma, gamma, gamma, xi)


class TestSteadyEnergy:
    def test_two_mode_chain(self):
        assert steady_energy(params(variant="r1", n=1, g_b=0.05)) == pytest.approx(
            100.0, rel=1e-12)

    def test_nr_chain_matches_closed_form(self):
        assert steady_energy(params()) == pytest.approx(
            cascaded_nr_energy(3, 0.01, 0.1, 1.0), rel=1e-12)

    def test_undriven(self):
        assert steady_energy(params(xi=0.0)) == 0.0

    def test_unknown_target(self):
        with pytest.raises(KeyError):
            steady_energy(params(), target="b_9")


class TestEnergyCurve:
    def test_vacuum_start(self):
        curve = energy_curve(params(), times=[0.0, 1.0])
        assert curve.energy[0] == 0.0

    def test_limit_is_steady(self):
        p = params()
        curve = energy_curve(p, times=[0.0, 3000.0])
        assert curve.energy[-1] == pytest.approx(steady_energy(p), abs=1e-8)

    def test_single_mode_formula(self):
        # E_c(t) = (4 xi^2 / gamma^2)(1 - e^{-gamma t / 2})^2
        gamma = 0.1
        times = np.linspace(0.0, 100.0, 21)
        curve = energy_curve(single_mode_params(gamma), target="c", times=times)
        expected = (4.0 / gamma ** 2) * (1 - np.exp(-gamma * times / 2)) ** 2
        assert np.abs(curve.energy - expected).max() < 1e-9

    def test_nonnegative(self):
        curve = energy_curve(params(), times=np.linspace(0, 500, 101))
        assert (curve.energy >= 0).all()


class TestPowerCurve:
    def test_single_mode_formula(self):
        gamma = 0.1
        times = np.linspace(5.0, 200.0, 40)
        curve = power_curve(single_mode_params(gamma), target="c", times=times)
        expected = (400.0) * (1 - np.exp(-0.05 * times)) ** 2 / times
        assert np.abs(curve.power - expected).max() < 1e-10

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            power_curve(params(), times=[0.0, 1.0])

    def test_drive_scaling_quadratic(self):
        times = np.linspace(10.0, 100.0, 7)
        p1 = power_curve(params(xi=1.0), times=times).power
        p2 = power_curve(params(xi=2.0), times=times).power
        assert np.abs(p2 - 4.0 * p1).max() < 1e-9 * p2.max()

    def test_tail_vanishes(self):
        # P -> 0 for stable systems: tail checked at t = 100 / gamma_min
        p = single_mode_params(gamma=0.1)
        t_tail = 100.0 / 0.1
        tail = power_curve(p, target="c", times=[t_tail]).power[0]
        _, p_max = max_power(p, target="c")
        assert tail < 0.1 * p_max


class TestMaxPower:
    def test_single_mode_oracle(self):
        gamma, xi = 0.1, 1.0
        t_star, p_max = max_power(single_mode_params(gamma, xi), target="c")
        assert t_star == pytest.approx(SINGLE_MODE_T_STAR / gamma, rel=1e-6)
        assert p_max == pytest.approx(SINGLE_MODE_P_MAX * xi ** 2 / gamma,
                                      rel=1e-8)

    def test_bounded_by_steady_energy(self):
        p = params()
        t_star, p_max = max_power(p)
        assert p_max <= steady_energy(p) / t_star * (1 + 1e-12)

    def test_rate_scaling(self):
        # scaling every rate (drive included) by s leaves E at corresponding
        # times invariant, so P_max scales by s and t_star by 1/s
        s = 10.0
        base = TopologyParams("cascaded", "nr", 2, 0.01, 0.1, 0.1, 0.1, 1.0)
        scaled = TopologyParams("cascaded", "nr", 2, 0.01 * s, 0.1 * s,
                                0.1 * s, 0.1 * s, 1.0 * s)
        t1, p1 = max_power(base)
        t2, p2 = max_power(scaled)
        assert t2 == pytest.approx(t1 / s, rel=1e-6)
        assert p2 == pytest.approx(p1 * s, rel=1e-6)

    def test_unstable_rejected(self):
        p = TopologyParams("cascaded", "r1", 1, 0.05, 0.0, 0.0, 0.1, 1.0)
        with pytest.raises(UnstableSystemError):
            max_power(p)

    def test_marginal_rejected_like_steady_energy(self):
        # spectral abscissa in [STABILITY_FLOOR, 0): negative, but too
        # close to zero for a steady state; both observables refuse it
        p = TopologyParams("cascaded", "r1", 1, 0.01, 1e-14, 1e-14, 0.1, 1.0)
        with pytest.raises(UnstableSystemError):
            steady_energy(p)
        with pytest.raises(UnstableSystemError):
            max_power(p)


class TestGainReport:
    def test_parallel_n2_values(self):
        report = gain_report(params(family="parallel", n=2))
        assert report.targets == ("b_1", "b_2")
        assert report.e_nr[1] == pytest.approx(22.67573696145124, rel=1e-10)
        assert report.e_r1[1] == pytest.approx(13.717421124828528, rel=1e-10)
        assert report.g1[1] == pytest.approx(1.653061224489796, rel=1e-10)

    def test_cascaded_weak_limit(self):
        report = gain_report(params(g_b=1e-6 * 0.1))
        assert report.targets == ("b_3",)
        assert report.g1[0] == pytest.approx(64.0, rel=1e-3)

    def test_ratio_consistency(self):
        report = gain_report(params())
        assert report.g1[0] == report.e_nr[0] / report.e_r1[0]
        assert report.g2[0] == report.e_nr[0] / report.e_r2[0]

    def test_undriven_flags_ratios(self):
        report = gain_report(params(xi=0.0))
        assert report.flags
        assert math.isnan(report.g1[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_quotient_flags_ratios(self):
        # every energy overflows to inf at xi = 1e160 (log-domain gains are
        # open), and inf / inf is no gain: flagged, with no numpy warning
        report = gain_report(params(n=2, xi=1e160))
        assert report.flags == ("G1[b_2]", "G2[b_2]")
        assert math.isnan(report.g1[0]) and math.isnan(report.g2[0])

    def test_overflowing_quotient_is_undefined(self):
        # values (3, P, T): the nr energy, then the r1 and r2 denominators
        values = np.array([[[1e10, 1.0]], [[1e-299, 0.0]], [[1.0, 4.0]]])
        with np.errstate(over="ignore"):
            gains, flags = _ratios(values, "G", ("b_1", "b_2"))
        assert flags == {0: ["G1[b_1]", "G1[b_2]"]}
        assert np.isnan(gains[0]).all()
        assert gains[1].tolist() == [[1e10, 0.25]]

    def test_include_power(self):
        report = gain_report(params(n=1, g_b=0.05), include_power=True)
        assert report.p_max_nr is not None
        assert report.eta1[0] > 0
        assert report.eta1[0] == report.p_max_nr[0] / report.p_max_r1[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_inputs_raise_no_numpy_warning():
    # a propagation past any overflow of A^10 and a drive whose energies
    # and peak powers overflow: finite results, or infinite ones whose
    # ratios are flagged, and no RuntimeWarning on the way
    p = params(n=2)
    sys_ = _system(p)
    trajectory = evolve(sys_, vacuum(sys_), [1e50, 1e300])
    assert np.isfinite(trajectory.amplitudes).all()
    assert np.isfinite(expm(_augmented(sys_)[None] * 1e50)).all()
    loud = params(n=2, xi=1e160)
    steady = gain_report(loud)
    assert steady.flags == ("G1[b_2]", "G2[b_2]")
    report = gain_report(loud, include_power=True)
    assert report.flags == ("G1[b_2]", "G2[b_2]", "eta1[b_2]", "eta2[b_2]")
    assert math.isnan(report.eta1[0]) and math.isnan(report.eta2[0])
    assert report.p_max_nr == report.p_max_r1 == report.p_max_r2 == (math.inf,)


def test_unflagged_overflow_still_warns():
    # max_power flags nothing, so its overflowing p_max warns; the gain
    # report's errstate is left behind by none of the calls
    state = np.geterr()
    gain_report(params(n=2, xi=1e160), include_power=True)
    with pytest.warns(RuntimeWarning, match="overflow"):
        t_star, p_max = max_power(params(n=2, xi=1e160))
    assert math.isfinite(t_star) and p_max == math.inf
    assert np.geterr() == state
