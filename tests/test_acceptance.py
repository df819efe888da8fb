"""Acceptance suite: every headline result at its stated tolerance.

Each criterion prints one PASS/FAIL line (run ``pytest -s`` to see them
on success).  The assertions fail with the offending parameter point in
the message.
"""

import math

import numpy as np

from qbnet import (TopologyParams, assemble, build_network,
                   cascaded_nr_energy, drive_relocation_energies,
                   effective_steady_energy, evolve, g_opt_odd, is_stable,
                   logfit_ratio, max_power, parallel_nr_energy,
                   phase_landscape, steady_energy, vacuum)

from oracles import scan_refine_max

GAMMA = 0.1
XI = 1.0


def report(number, name, ok):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def params(family, variant, n, g_b, gamma=GAMMA, Gamma=GAMMA, xi=XI,
           gamma_b=None, thetas=None):
    return TopologyParams(family, variant, n, g_b, gamma,
                          gamma if gamma_b is None else gamma_b, Gamma, xi,
                          thetas)


def test_01_cascaded_nr_exactness():
    """Directional-chain closed form vs full network, <= 1e-10 relative."""
    failures = []
    for n in range(1, 7):
        for x in (0.01, 0.1, 1.0):
            for ratio in (1.0, 10.0):
                p = params("cascaded", "nr", n, x * GAMMA, Gamma=ratio * GAMMA)
                dense = steady_energy(p)
                closed = cascaded_nr_energy(n, x * GAMMA, GAMMA, XI)
                if abs(dense - closed) / closed > 1e-10:
                    failures.append((n, x, ratio, dense, closed))
    assert report(1, "cascaded nr closed form exact", not failures), failures


def test_02_parallel_nr_exactness_heterogeneous():
    """Star closed form with per-battery decay, <= 1e-10 relative."""
    rates = (0.05, 0.1, 0.2, 0.05)
    failures = []
    for n in (1, 2, 3, 4):
        gamma_b = rates[:n]
        p = params("parallel", "nr", n, 0.01, gamma_b=gamma_b)
        for k in range(1, n + 1):
            dense = steady_energy(p, f"b_{k}")
            closed = parallel_nr_energy(n, 0.01, GAMMA, gamma_b[k - 1], XI)
            if abs(dense - closed) / closed > 1e-10:
                failures.append((n, k, dense, closed))
    assert report(2, "parallel nr closed form exact (heterogeneous)",
                  not failures), failures


def test_03_chain_recursion_vs_dense():
    """Continued-fraction chain solver vs dense solver, <= 1e-12 relative."""
    failures = []
    for variant in ("r1", "r2", "nr"):
        for n in range(1, 11):
            for x in (0.01, 0.1, 1.0):
                p = params("cascaded", variant, n, x * GAMMA)
                dense = steady_energy(p)
                chain = effective_steady_energy(p)
                if abs(dense - chain) / max(dense, 1e-300) > 1e-12:
                    failures.append((variant, n, x, dense, chain))
    assert report(3, "chain recursion matches dense solver", not failures), failures


def test_04_gain_limits():
    """Zero-coupling gain limits at g_b = 1e-6 gamma."""
    g = 1e-6 * GAMMA
    failures = []
    for n in range(1, 6):
        e_nr = steady_energy(params("cascaded", "nr", n, g))
        e_r1 = steady_energy(params("cascaded", "r1", n, g))
        e_r2 = steady_energy(params("cascaded", "r2", n, g))
        if abs(e_nr / e_r1 - 4.0 ** n) / 4.0 ** n > 1e-3:
            failures.append(("cascaded G1", n, e_nr / e_r1))
        if abs(e_nr / e_r2 - 2.0 ** n) / 2.0 ** n > 5e-3:
            failures.append(("cascaded G2", n, e_nr / e_r2))
        e_nr = steady_energy(params("parallel", "nr", n, g), "b_1")
        e_r1 = steady_energy(params("parallel", "r1", n, g), "b_1")
        e_r2 = steady_energy(params("parallel", "r2", n, g), "b_1")
        if abs(e_nr / e_r1 - 4.0) / 4.0 > 1e-3:
            failures.append(("parallel G1", n, e_nr / e_r1))
        if abs(e_nr / e_r2 - 2.0) / 2.0 > 5e-3:
            failures.append(("parallel G2", n, e_nr / e_r2))
    assert report(4, "gain limits 2^2N / 2^N / 4 / 2", not failures), failures


def test_05_weak_regime_ordering():
    """E_nr > E_r2 > E_r1 on [0.005, 0.1]; G1 > G2 up to the crossing.

    The G1/G2 crossing (equivalently E_r2 = E_r1) computes to
    g_b/gamma = 0.1162 (n=3) and 0.1176 (n=4); the coarse published
    boundary 0.12 is that crossing at two significant figures, so the
    check asserts the inequality on a grid below 0.115 and brackets the
    crossing inside (0.115, 0.125).
    """
    failures = []
    for n in (3, 4):
        energies = {}
        for variant in ("nr", "r1", "r2"):
            energies[variant] = lambda x, v=variant: steady_energy(
                params("cascaded", v, n, x * GAMMA))
        for x in np.linspace(0.005, 0.1, 96):
            e_nr, e_r1, e_r2 = (energies["nr"](x), energies["r1"](x),
                                energies["r2"](x))
            if not (e_nr > e_r2 > e_r1):
                failures.append(("ordering", n, x))
        for x in np.linspace(0.005, 0.115, 45):
            if not energies["r2"](x) > energies["r1"](x):  # G1 > G2
                failures.append(("G1>G2", n, x))
        diff = lambda x: energies["r2"](x) - energies["r1"](x)
        if not (diff(0.115) > 0 and diff(0.125) < 0):
            failures.append(("crossing bracket", n))
    assert report(5, "weak-regime ordering and G1>G2 window", not failures), failures


def test_06_optimal_coupling():
    """Numeric argmax matches [n + sqrt(n(8+n))] gamma / 8 to 1e-6."""
    failures = []
    grid = np.geomspace(1e-4, 10.0, 400) * GAMMA
    for n in (1, 3, 5, 7):
        g_num, _ = scan_refine_max(
            lambda g: cascaded_nr_energy(n, g, GAMMA, XI), grid, rel_tol=1e-10)
        g_formula = g_opt_odd(n, GAMMA)
        if abs(g_num - g_formula) / g_formula > 1e-6:
            failures.append((n, g_num, g_formula))
    e_nr = cascaded_nr_energy(1, g_opt_odd(1, GAMMA), GAMMA, XI)
    e_r1 = steady_energy(params("cascaded", "r1", 1, GAMMA / 2))
    if abs(e_nr - 100.0) > 1e-10 * 100.0 or abs(e_r1 - 100.0) > 1e-10 * 100.0:
        failures.append(("n=1 maxima", e_nr, e_r1))
    assert report(6, "optimal coupling formula", not failures), failures


def test_07_log_fit():
    """Best-energy ratio fit 1 + k ln N with k in [0.05, 0.075]."""
    fit = logfit_ratio(range(1, 16, 2), gamma=GAMMA, xi=XI)
    ok = (all(r >= 1.0 - 1e-9 for r in fit.ratio)
          and all(b > a for a, b in zip(fit.ratio, fit.ratio[1:]))
          and 0.05 <= fit.coefficient <= 0.075)
    assert report(7, f"log fit k = {fit.coefficient:.4f}", ok), fit


def test_08_power_gains():
    """Maximum-power gains in the fast-intermediate regime."""
    gamma, big = 5e-4, 1.0
    failures = []
    for family, eta1_target, eta2_target in (("cascaded", 256.0, 16.0),
                                             ("parallel", 4.0, 2.0)):
        def p_max(variant, x):
            p = params(family, variant, 4, x * gamma, gamma=gamma, Gamma=big)
            return max_power(p, "b_4")[1]

        eta1 = p_max("nr", 1e-3) / p_max("r1", 1e-3)
        if abs(eta1 - eta1_target) / eta1_target > 0.10:
            failures.append((family, "eta1", eta1))
        for x in np.geomspace(0.01, 0.1, 5):
            eta2 = p_max("nr", x) / p_max("r2", x)
            if abs(eta2 - eta2_target) / eta2_target > 0.20:
                failures.append((family, "eta2", x, eta2))
    assert report(8, "power gains eta_41 / eta_42", not failures), failures


def test_09_phase_landscapes():
    """41x41 argmax within one grid cell of the optimal phases."""
    cell = 2 * math.pi / 41
    failures = []
    p = params("cascaded", "custom", 2, 0.1 * GAMMA, thetas=(0.0, 0.0))
    peaks = phase_landscape(p, "b_2", 41).argmax
    for t1, t2 in peaks:
        if abs(t1 + math.pi / 2) > cell or abs(t2 + math.pi / 2) > cell:
            failures.append(("cascaded", t1, t2))
    p = params("parallel", "custom", 2, 0.1 * GAMMA, thetas=(0.0, 0.0))
    peaks = phase_landscape(p, "b_2", 41).argmax
    for t1, t2 in peaks:
        near_half = min(abs(t1 - math.pi / 2), abs(t1 + math.pi / 2))
        if near_half > cell or abs(t2 + math.pi / 2) > cell:
            failures.append(("parallel", t1, t2))
    assert report(9, "phase landscape maxima at -pi/2", not failures), failures


def test_10_isolation():
    """Backward blocking and the (1 - sin)/(1 + sin) transmission law."""
    e_fwd, e_bwd = drive_relocation_energies(-math.pi / 2, 0.01, GAMMA, GAMMA)
    ok = e_bwd <= 1e-12 * e_fwd
    thetas = -math.pi + 2 * math.pi * np.arange(1, 26) / 26
    worst = 0.0
    for theta in thetas:
        f, b = drive_relocation_energies(theta, 0.01, GAMMA, GAMMA)
        expected = (1 - math.sin(theta)) / (1 + math.sin(theta))
        worst = max(worst, abs(f / b - expected) / expected)
    ok = ok and worst <= 1e-8
    assert report(10, "drive-relocation isolation probe", ok), (e_bwd / e_fwd, worst)


def test_11_charging_dynamics(ivp_oracle):
    """Propagator/integrator agreement and faster directional charging."""
    times = np.linspace(0.0, 2000.0, 2001)
    curves = {}
    agree = True
    for variant in ("nr", "r1"):
        p = params("parallel", variant, 4, GAMMA / 100)
        sys = assemble(build_network(p))
        prop = evolve(sys, vacuum(sys), times)
        # integrator tolerances tight enough that its own error stays
        # below the 1e-8 comparison bound
        ivp = ivp_oracle(sys, vacuum(sys), times, rtol=1e-11, atol=1e-13)
        agree = agree and np.abs(prop.amplitudes - ivp).max() <= 1e-8
        curves[variant] = np.abs(prop.mode("b_4")) ** 2
    p_r1 = params("parallel", "r1", 4, GAMMA / 100)
    threshold = 0.9 * steady_energy(p_r1, "b_4")
    t_nr = times[np.argmax(curves["nr"] >= threshold)]
    t_r1 = times[np.argmax(curves["r1"] >= threshold)]
    ok = agree and curves["nr"].max() >= threshold and t_nr < t_r1
    assert report(11, f"dynamics: t90 nr {t_nr:.0f} < r1 {t_r1:.0f}", ok), (
        agree, t_nr, t_r1)


def test_12_invariant_suite():
    """Hermitian part, Hurwitz, gauge invariance, matched-Gamma, parity."""
    failures = []
    # Hermitian-part identity to 1e-14
    for family in ("cascaded", "parallel"):
        for variant in ("r1", "r2", "nr"):
            spec = build_network(params(family, variant, 3, 0.02))
            sys = assemble(spec)
            herm = sys.matrix + sys.matrix.conj().T
            target = -np.diag([m.decay_rate for m in spec.modes])
            if np.abs(herm - target).max() > 1e-14:
                failures.append(("hermitian", family, variant))
            stable, absc = is_stable(sys)
            if not stable:
                failures.append(("hurwitz", family, variant, absc))
    # r1 phase invariance to 1e-12
    ref = steady_energy(params("cascaded", "r1", 3, 0.02,
                               thetas=(0.0, 0.0, 0.0)))
    for thetas in ((1.0, -2.0, 3.0), (-0.5, 0.5, math.pi), (2.2, 2.2, -2.2)):
        val = steady_energy(params("cascaded", "r1", 3, 0.02, thetas=thetas))
        if abs(val - ref) / ref > 1e-12:
            failures.append(("r1 phase invariance", thetas))
    # matched-Gamma invariance to 1e-10
    for variant in ("r2", "nr"):
        vals = [steady_energy(params("cascaded", variant, 3, 0.01,
                                     Gamma=big)) for big in (0.1, 1.0, 10.0)]
        if max(vals) - min(vals) > 1e-10 * max(vals):
            failures.append(("matched Gamma", variant, vals))
    # parity of interior maxima (confirmed by scan before freezing)
    xs = np.geomspace(1e-3, 10.0, 200)
    for n, interior in ((1, True), (2, False), (3, True), (4, False),
                        (5, True), (6, False)):
        energies = np.array([effective_steady_energy(
            params("cascaded", "r1", n, x * GAMMA)) for x in xs])
        i = int(np.argmax(energies))
        has_interior = 0 < i < xs.size - 1
        monotone = bool(np.all(np.diff(energies) > 0))
        if interior and not (has_interior and energies[-1] < energies[i]):
            failures.append(("parity odd", n))
        if not interior and not monotone:
            failures.append(("parity even", n))
    assert report(12, "invariant suite", not failures), failures
