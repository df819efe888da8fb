import math

import pytest

from qbnet import (CouplingSpec, DriveSpec, ModeSpec, NetworkSpec,
                   TopologyParams, ValidationError, build_network,
                   drive_relocation_energies, gain_report, matched_coupling,
                   steady_energy, validate, wrap_phase)


def params(family="cascaded", variant="nr", n=3, g_b=0.01, gamma=0.1,
           Gamma=0.1, xi=1.0, thetas=None):
    return TopologyParams(family=family, variant=variant, n=n, g_b=g_b,
                          gamma_c=gamma, gamma_b=gamma, Gamma=Gamma, xi=xi,
                          thetas=thetas)


class TestMatchedCoupling:
    def test_value(self):
        assert matched_coupling(0.01, 0.1) == pytest.approx(0.0223606797749979,
                                                            rel=1e-12)

    def test_zero_direct(self):
        assert matched_coupling(0.0, 0.3) == 0.0

    def test_power_regime(self):
        # g_b = gamma/10 with gamma = 5e-4 and unit intermediate decay
        assert matched_coupling(5e-5, 1.0) == pytest.approx(0.005, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            matched_coupling(0.01, 0.0)
        with pytest.raises(ValueError):
            matched_coupling(-0.01, 1.0)

    def test_non_finite_is_refused(self):
        # TopologyParams' overflow rule and wording; NaN fails the domain
        with pytest.raises(ValueError, match=r"sqrt\(g_b \* Gamma / 2\) overflows "
                                             r"at g_b=1e\+200, Gamma=1e\+200"):
            matched_coupling(1e200, 1e200)
        with pytest.raises(ValueError, match="g_b must be >= 0, got nan"):
            matched_coupling(math.nan, 1.0)
        assert math.isfinite(matched_coupling(1e154, 1e154))


class TestBuildCascaded:
    def test_r1_counts(self):
        spec = build_network(params(variant="r1", n=2))
        assert len(spec.modes) == 3
        assert len(spec.couplings) == 2
        assert len(spec.drives) == 1

    def test_nr_counts(self):
        spec = build_network(params(variant="nr", n=3))
        assert len(spec.modes) == 7  # c, 3 intermediates, 3 batteries
        assert len(spec.couplings) == 9  # 3 direct + 6 indirect

    def test_matched_strength(self):
        spec = build_network(params(variant="nr", n=1, g_b=0.01, Gamma=0.1))
        indirect = [c for c in spec.couplings if "a_1" in (c.source, c.target)]
        assert len(indirect) == 2
        for c in indirect:
            assert c.strength == pytest.approx(0.0223606797749979, rel=1e-9)
            assert c.phase == 0.0

    def test_nr_phases(self):
        spec = build_network(params(variant="nr", n=4))
        direct = [c for c in spec.couplings if c.strength == 0.01]
        assert len(direct) == 4
        for c in direct:
            assert c.phase == pytest.approx(-math.pi / 2)

    def test_coupling_count_contract(self):
        for n in (1, 2, 5):
            assert len(build_network(params(variant="r1", n=n)).couplings) == n
            assert len(build_network(params(variant="nr", n=n)).couplings) == 3 * n

    def test_chain_wiring(self):
        spec = build_network(params(variant="r1", n=3))
        pairs = {(c.source, c.target) for c in spec.couplings}
        assert pairs == {("c", "b_1"), ("b_1", "b_2"), ("b_2", "b_3")}


class TestBuildParallel:
    def test_r1_counts(self):
        spec = build_network(params(family="parallel", variant="r1", n=3))
        assert len(spec.modes) == 4
        assert len(spec.couplings) == 3

    def test_nr_counts_and_strengths(self):
        spec = build_network(params(family="parallel", variant="nr", n=2))
        assert len(spec.modes) == 5
        assert len(spec.couplings) == 6
        indirect = [c.strength for c in spec.couplings if c.phase == 0.0]
        assert len(set(indirect)) == 1  # all matched arms identical

    def test_star_wiring(self):
        spec = build_network(params(family="parallel", variant="r1", n=3))
        assert all(c.source == "c" for c in spec.couplings)

    def test_custom_passthrough(self):
        thetas = (math.pi / 2, -math.pi / 2)
        spec = build_network(params(family="parallel", variant="custom", n=2,
                                     thetas=thetas))
        direct = [c for c in spec.couplings if c.strength == 0.01]
        assert tuple(c.phase for c in direct) == thetas


class TestBuilderInvariants:
    @pytest.mark.parametrize("family", ["cascaded", "parallel"])
    @pytest.mark.parametrize("variant", ["r1", "r2", "nr", "custom"])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_builders_validate_clean(self, family, variant, n):
        thetas = tuple(0.3 * k for k in range(n)) if variant == "custom" else None
        spec = build_network(params(family=family, variant=variant, n=n,
                                    thetas=thetas))
        assert validate(spec) == []

    @pytest.mark.parametrize("family", ["cascaded", "parallel"])
    @pytest.mark.parametrize("variant", ["r1", "r2", "nr"])
    def test_single_drive_on_charger(self, family, variant):
        spec = build_network(params(family=family, variant=variant))
        assert len(spec.drives) == 1
        assert spec.drives[0].mode == "c"

    def test_nr_r2_differ_only_in_direct_phases(self):
        nr = build_network(params(variant="nr", n=3))
        r2 = build_network(params(variant="r2", n=3))
        assert nr.modes == r2.modes
        assert nr.drives == r2.drives
        strip = lambda spec: {(c.source, c.target, c.strength)
                              for c in spec.couplings}
        assert strip(nr) == strip(r2)
        changed = [(a, b) for a, b in zip(nr.couplings, r2.couplings) if a != b]
        assert changed  # the direct couplings do differ
        for a, b in changed:
            assert a.phase != b.phase
            assert (a.source, a.target, a.strength) == (b.source, b.target, b.strength)


class TestParamsValidation:
    def test_zero_batteries(self):
        with pytest.raises(ValidationError):
            params(n=0)

    def test_negative_rate(self):
        with pytest.raises(ValidationError):
            params(gamma=-0.1)

    def test_bad_theta_length(self):
        with pytest.raises(ValidationError):
            params(variant="custom", n=3, thetas=(0.1,))

    @pytest.mark.parametrize("variant, thetas", [
        ("custom", (math.nan, 0.0)), ("r1", (math.inf, 0.0)),
        ("nr", (0.0, -math.inf))])
    def test_non_finite_thetas(self, variant, thetas):
        with pytest.raises(ValidationError, match="thetas entries must be finite"):
            params(variant=variant, n=2, thetas=thetas)

    def test_custom_needs_thetas(self):
        with pytest.raises(ValidationError):
            params(variant="custom", n=2)

    def test_heterogeneous_gamma_b(self):
        p = TopologyParams("parallel", "nr", 2, 0.01, 0.1, (0.05, 0.2), 0.1, 1.0)
        assert p.gamma_b == (0.05, 0.2)

    def test_intermediates_need_Gamma(self):
        with pytest.raises(ValidationError):
            build_network(params(variant="nr", Gamma=0.0))

    @pytest.mark.parametrize("call", [
        lambda: steady_energy(TopologyParams("cascaded", "nr", 1, 1e200, 0.1, 0.1,
                                             1e200, 1.0)),
        lambda: gain_report(TopologyParams("parallel", "nr", 1, 1e200, 0.1, 0.1,
                                           1e200, 1.0)),
        lambda: drive_relocation_energies(0.5, 1e200, 1e200, 0.1),
        # r1 has no intermediate, but its gains build nr's
        lambda: params(variant="r1", g_b=1e160, Gamma=1e160)],
        ids=["steady_energy", "gain_report", "drive_relocation", "r1"])
    def test_matched_coupling_must_not_overflow(self, call):
        with pytest.raises(ValidationError,
                           match=r"matched coupling sqrt\(g_b \* Gamma / 2\) overflows"):
            call()

    def test_largest_matched_coupling_is_accepted(self):
        # g_b * Gamma at the float maximum: the coupling is finite
        assert math.isfinite(build_network(params(g_b=1e154, Gamma=1e154)).couplings[0]
                             .strength)


class TestValidate:
    def good_spec(self):
        return build_network(params(variant="r1", n=2))

    def test_clean(self):
        assert validate(self.good_spec()) == []

    def test_duplicate_mode_id(self):
        spec = self.good_spec()
        modes = spec.modes + (ModeSpec("b_1", "battery", 0.1),)
        bad = NetworkSpec(modes, spec.couplings, spec.drives)
        problems = validate(bad)
        assert len(problems) == 1
        assert "b_1" in problems[0]

    def test_missing_endpoint(self):
        spec = self.good_spec()
        couplings = spec.couplings + (CouplingSpec("b_2", "ghost", 0.1),)
        problems = validate(NetworkSpec(spec.modes, couplings, spec.drives))
        assert any("ghost" in p for p in problems)

    def test_self_coupling(self):
        spec = self.good_spec()
        couplings = spec.couplings + (CouplingSpec("b_2", "b_2", 0.1),)
        problems = validate(NetworkSpec(spec.modes, couplings, spec.drives))
        assert any("source equals target" in p for p in problems)

    def test_duplicate_pair(self):
        spec = self.good_spec()
        couplings = spec.couplings + (CouplingSpec("b_1", "c", 0.2),)
        problems = validate(NetworkSpec(spec.modes, couplings, spec.drives))
        assert any("more than once" in p for p in problems)

    def test_negative_decay(self):
        bad = NetworkSpec((ModeSpec("c", "charger", -1.0),), (), ())
        assert any("decay_rate" in p for p in validate(bad))

    def test_phase_range(self):
        modes = (ModeSpec("c", "charger", 0.1), ModeSpec("b", "battery", 0.1))
        bad = NetworkSpec(modes, (CouplingSpec("c", "b", 0.1, 4.0),), ())
        assert any("phase" in p for p in validate(bad))

    def test_drive_on_missing_mode(self):
        bad = NetworkSpec((ModeSpec("c", "charger", 0.1),), (),
                          (DriveSpec("x", 1.0),))
        assert any("missing mode 'x'" in p for p in validate(bad))

    def test_empty_network(self):
        assert any("no modes" in p for p in validate(NetworkSpec((), (), ())))


def test_wrap_phase():
    assert wrap_phase(math.pi) == math.pi
    assert wrap_phase(-math.pi) == math.pi
    assert wrap_phase(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_phase(0.5) == 0.5
    assert wrap_phase(-math.pi / 2) == -math.pi / 2
