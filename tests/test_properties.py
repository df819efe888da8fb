"""Cross-cutting invariants: oracle equivalence, gauge and scaling laws.

The central property is oracle equivalence: the effective-model steady
states (closed forms / chain recursion) and the dense full-network
solver agree to 1e-10 relative everywhere in the paper-style parameter
box.  Intermediate-mode elimination is exact at steady state, so any
disagreement is a bug in one of the two routes.
"""

import dataclasses
import math

import numpy as np
import pytest

from qbnet import (TopologyParams, assemble, build_network,
                   cascaded_nr_energy, effective_steady_energy, gain_approx,
                   is_stable, max_power, parallel_nr_energy,
                   parallel_r1_energy, steady_energy, steady_state, validate)

GAMMA = 0.1


def params(family, variant, n, g_b, gamma_b=None, Gamma=GAMMA, xi=1.0,
           thetas=None, gamma_c=GAMMA):
    return TopologyParams(family, variant, n, g_b,
                          gamma_c, GAMMA if gamma_b is None else gamma_b,
                          Gamma, xi, thetas)


def random_params(rng):
    family = rng.choice(["cascaded", "parallel"])
    variant = rng.choice(["r1", "r2", "nr", "custom"])
    n = int(rng.integers(1, 6))
    thetas = tuple(rng.uniform(-math.pi, math.pi, n)) if variant == "custom" else None
    return TopologyParams(
        family, variant, n,
        g_b=float(rng.uniform(0.0, 0.5)),
        gamma_c=float(rng.uniform(0.01, 1.0)),
        gamma_b=tuple(rng.uniform(0.01, 1.0, n)),
        Gamma=float(rng.uniform(0.05, 2.0)),
        xi=complex(rng.normal(), rng.normal()),
        thetas=thetas)


class TestBuilderProperties:
    def test_random_builders_validate_clean(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            spec = build_network(random_params(rng))
            assert validate(spec) == []

    def test_hermitian_part_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            spec = build_network(random_params(rng))
            sys = assemble(spec)
            herm = sys.matrix + sys.matrix.conj().T
            target = -np.diag([m.decay_rate for m in spec.modes])
            assert np.abs(herm - target).max() <= 1e-14

    def test_hurwitz_for_positive_decay(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            p = random_params(rng)
            stable, abscissa = is_stable(assemble(build_network(p)))
            assert stable and abscissa < 0


class TestOracleEquivalence:
    @pytest.mark.parametrize("family", ["cascaded", "parallel"])
    @pytest.mark.parametrize("variant", ["r1", "r2", "nr"])
    def test_closed_vs_dense_grid(self, family, variant):
        # the spec box: N <= 6, g_b/gamma in {0.01, 0.1, 1}, Gamma/gamma in {1, 10}
        for n in range(1, 7):
            for x in (0.01, 0.1, 1.0):
                for big in (GAMMA, 10 * GAMMA):
                    p = params(family, variant, n, x * GAMMA, Gamma=big)
                    dense = steady_energy(p)
                    effective = effective_steady_energy(p)
                    assert dense == pytest.approx(effective, rel=1e-10), (
                        family, variant, n, x, big)

    def test_random_custom_networks(self):
        # arbitrary phases and heterogeneous decay: elimination stays exact
        rng = np.random.default_rng(29)
        for _ in range(40):
            family = rng.choice(["cascaded", "parallel"])
            n = int(rng.integers(1, 6))
            p = TopologyParams(
                family, "custom", n,
                g_b=float(rng.uniform(0.001, 0.3)),
                gamma_c=float(rng.uniform(0.02, 0.5)),
                gamma_b=tuple(rng.uniform(0.02, 0.5, n)),
                Gamma=float(rng.uniform(0.05, 2.0)),
                xi=complex(rng.normal(), rng.normal()),
                thetas=tuple(rng.uniform(-math.pi, math.pi, n)))
            for k in range(1, n + 1):
                dense = steady_energy(p, f"b_{k}")
                closed = effective_steady_energy(p, battery=k)
                assert dense == pytest.approx(closed, rel=1e-10), p

    def test_closed_formulas_vs_dense(self):
        het = (0.05, 0.1, 0.2, 0.05)
        for n in (1, 2, 3, 4):
            gb_list = het[:n]
            for k in range(1, n + 1):
                p_nr = params("parallel", "nr", n, 0.01, gamma_b=gb_list)
                assert steady_energy(p_nr, f"b_{k}") == pytest.approx(
                    parallel_nr_energy(n, 0.01, GAMMA, gb_list[k - 1], 1.0),
                    rel=1e-10)
                p_r1 = params("parallel", "r1", n, 0.01, gamma_b=gb_list)
                assert steady_energy(p_r1, f"b_{k}") == pytest.approx(
                    parallel_r1_energy(n, 0.01, GAMMA, gb_list, 1.0, k),
                    rel=1e-10)
        for n in range(1, 7):
            p = params("cascaded", "nr", n, 0.01)
            assert steady_energy(p) == pytest.approx(
                cascaded_nr_energy(n, 0.01, GAMMA, 1.0), rel=1e-10)


class TestGaugeAndScaling:
    def test_r1_phase_invariance(self):
        # loop-free chains: steady energies independent of every phase
        rng = np.random.default_rng(3)
        reference = steady_energy(params("cascaded", "r1", 3, 0.02,
                                         thetas=(0.0, 0.0, 0.0)))
        for _ in range(20):
            thetas = tuple(rng.uniform(-math.pi, math.pi, 3))
            value = steady_energy(params("cascaded", "r1", 3, 0.02,
                                         thetas=thetas))
            assert value == pytest.approx(reference, rel=1e-12)

    def test_matched_Gamma_invariance(self):
        # with g1 = g2 = sqrt(g_b Gamma / 2), battery and charger steady
        # energies do not depend on the intermediate decay
        for family in ("cascaded", "parallel"):
            for variant in ("r2", "nr"):
                values = []
                charger = []
                for big in (0.1, 1.0, 10.0):
                    p = params(family, variant, 3, 0.01, Gamma=big)
                    sys = assemble(build_network(p))
                    amps = steady_state(sys).amplitudes
                    values.append(abs(amps[sys.row("b_3")]) ** 2)
                    charger.append(abs(amps[sys.row("c")]) ** 2)
                assert values[0] == pytest.approx(values[1], rel=1e-10)
                assert values[0] == pytest.approx(values[2], rel=1e-10)
                assert charger[0] == pytest.approx(charger[2], rel=1e-10)

    def test_drive_phase_covariance(self):
        phi = 1.234
        p0 = params("parallel", "nr", 2, 0.01)
        p1 = dataclasses.replace(p0, xi=np.exp(1j * phi))
        s0 = assemble(build_network(p0))
        s1 = assemble(build_network(p1))
        a0 = steady_state(s0).amplitudes
        a1 = steady_state(s1).amplitudes
        assert np.abs(a1 - a0 * np.exp(1j * phi)).max() < 1e-12
        assert np.abs(np.abs(a1) ** 2 - np.abs(a0) ** 2).max() < 1e-12


def scaling_networks():
    """24 seeded decaying networks: both families, nr/r1/r2, n = 1..4."""
    rng = np.random.default_rng(17)
    for family in ("cascaded", "parallel"):
        for variant in ("nr", "r1", "r2"):
            for n in range(1, 5):
                yield TopologyParams(
                    family, variant, n, float(rng.uniform(0.005, 0.2)),
                    float(rng.uniform(0.01, 1.0)), tuple(rng.uniform(0.01, 1.0, n)),
                    float(rng.uniform(0.05, 2.0)), complex(rng.normal(), rng.normal()))


@pytest.mark.parametrize("s", [2.0, 3.0, 0.1])
def test_rate_scaling_law(s):
    # scaling every rate and the drive by s maps alpha(t) to alpha(s t):
    # the steady energy is unchanged, t_star -> t_star / s, p_max -> s p_max
    for p in scaling_networks():
        scaled = dataclasses.replace(
            p, g_b=s * p.g_b, gamma_c=s * p.gamma_c,
            gamma_b=tuple(s * g for g in p.gamma_b), Gamma=s * p.Gamma, xi=s * p.xi)
        assert steady_energy(scaled) == pytest.approx(steady_energy(p), rel=1e-13), p
        (t1, p1), (t2, p2) = max_power(p), max_power(scaled)
        assert t2 == pytest.approx(t1 / s, rel=1e-11), p
        assert p2 == pytest.approx(s * p1, rel=1e-11), p


def battery_energies(p):
    """Every battery's steady energy by the dense and the closed route."""
    return ([steady_energy(p, f"b_{k}") for k in range(1, p.n + 1)],
            [effective_steady_energy(p, k) for k in range(1, p.n + 1)])


def test_drive_scaling_law():
    # E is quadratic in the drive, and doubling is exact in binary, so
    # both routes give exactly four times the energy
    for p in scaling_networks():
        doubled = dataclasses.replace(p, xi=2.0 * p.xi)
        for route, (base, scaled) in enumerate(
                zip(battery_energies(p), battery_energies(doubled))):
            assert scaled == [4.0 * e for e in base], (route, p)


@pytest.mark.parametrize("theta, variant", [(-math.pi / 2, "nr"), (0.0, "r2")],
                         ids=["nr", "r2"])
def test_custom_phases_reproduce_variant(theta, variant):
    # nr and r2 are custom triangles with every phase at -pi/2 and 0
    for p in scaling_networks():
        builtin = p.with_variant(variant)
        custom = dataclasses.replace(p, variant="custom", thetas=(theta,) * p.n)
        assert battery_energies(custom) == battery_energies(builtin), p


class TestParityOfMaxima:
    # confirmed by a dense scan of the numeric solver before freezing:
    # odd chains have an interior optimum in g_b, even chains saturate
    def scan(self, variant, n):
        xs = np.geomspace(1e-3, 10.0, 300)
        return xs, np.array([effective_steady_energy(
            params("cascaded", variant, n, x * GAMMA)) for x in xs])

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_odd_r1_interior_maximum(self, n):
        xs, energies = self.scan("r1", n)
        i = int(np.argmax(energies))
        assert 0 < i < xs.size - 1
        assert energies[-1] < 0.5 * energies[i]

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_even_r1_monotone_saturation(self, n):
        _, energies = self.scan("r1", n)
        assert np.all(np.diff(energies) > 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_nr_interior_maximum_any_parity(self, n):
        xs, energies = self.scan("nr", n)
        i = int(np.argmax(energies))
        assert 0 < i < xs.size - 1
        assert energies[-1] < energies[i]


class TestParallelIndependence:
    def test_nr_batteries_decoupled(self):
        base = params("parallel", "nr", 3, 0.01, gamma_b=(0.1, 0.1, 0.1))
        bumped = params("parallel", "nr", 3, 0.01, gamma_b=(0.1, 0.4, 0.1))
        assert steady_energy(bumped, "b_1") == pytest.approx(
            steady_energy(base, "b_1"), rel=1e-12)

    def test_r1_batteries_coupled(self):
        base = params("parallel", "r1", 3, 0.01, gamma_b=(0.1, 0.1, 0.1))
        bumped = params("parallel", "r1", 3, 0.01, gamma_b=(0.1, 0.4, 0.1))
        assert steady_energy(bumped, "b_1") != pytest.approx(
            steady_energy(base, "b_1"), rel=1e-12)


class TestWeakCouplingGainConsistency:
    # the quadratic error term of the weak-coupling gain approximation
    # cancels for parallel stars and single-link chains; longer chains
    # carry an O((g/gamma)^2) error with an N-dependent coefficient
    # (about 24 x^2 at n=2, 80 x^2 at n=3, 165 x^2 at n=4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_parallel_tight(self, n):
        for x in (0.001, 0.003, 0.01):
            g1 = (steady_energy(params("parallel", "nr", n, x * GAMMA), "b_1")
                  / steady_energy(params("parallel", "r1", n, x * GAMMA), "b_1"))
            approx = gain_approx("parallel", n, x)
            assert abs(g1 - approx) / g1 <= 3 * x * x + 1e-9

    def test_cascaded_single_link_tight(self):
        for x in (0.001, 0.003, 0.01):
            g1 = (steady_energy(params("cascaded", "nr", 1, x * GAMMA))
                  / steady_energy(params("cascaded", "r1", 1, x * GAMMA)))
            approx = gain_approx("cascaded", 1, x)
            assert abs(g1 - approx) / g1 <= 3 * x * x + 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cascaded_envelope(self, n):
        for x in (0.001, 0.003, 0.01):
            g1 = (steady_energy(params("cascaded", "nr", n, x * GAMMA))
                  / steady_energy(params("cascaded", "r1", n, x * GAMMA)))
            approx = gain_approx("cascaded", n, x)
            assert abs(g1 - approx) / g1 <= 250 * x * x
