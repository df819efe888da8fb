"""Correctness checks on benchmark outputs, run outside the timed region.

Steady energies and gains are compared with qbnet's closed route (the
continued-fraction recursion behind ``effective_steady_amplitudes``).
Charging curves, the fig2f optima and maximum charging power are compared
with a model written here that shares no code with qbnet's dense route:
``network_matrix`` rebuilds the dynamics matrix from the topology
parameters, and ``vacuum_response`` reads the response from vacuum off
the exponential of the augmented matrix ``[[M, d], [0, 0]]``, computed
by Taylor scaling and squaring instead of scipy's Pade ``expm``.

Every check returns a list of failure messages; an empty list passes.
The tolerances below are fixed from each route's error model, never per
case: a value that disagrees is reported, not re-toleranced.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

import qbnet

#: The dense route is backward stable, so an energy's relative error is a
#: small multiple of cond(M) * eps.  The worst-conditioned networks here
#: (cascaded nr near its exceptional point, cond ~ 5e6) give ~1e-9.
ENERGY_RTOL = 1e-8
#: A gain is a ratio of two checked energies.
GAIN_RTOL = 2 * ENERGY_RTOL
#: Closed-route energies below this underflow; the dense value must too.
ENERGY_TINY = 1e-290
#: qbnet's charging curves are ``a_ss - expm(M t) a_ss``, accurate relative
#: to ``|a_ss|`` (normwise); early-time amplitudes carry that absolute error.
CURVE_NORM_TOL = 1e-9
#: Both optimisers converge in t to ~1e-8 relative, and P is flat at the
#: peak, so two correct optima agree in P far below this.
POWER_RTOL = 1e-8
#: Relative step of the neighbours that must not beat a reported optimum.
NEIGHBOUR_STEP = 1e-3

WEAK = {"gamma": 0.1, "Gamma": 0.1, "xi": 1.0}
STRONG_INTERMEDIATE = {"gamma": 5e-4, "Gamma": 1.0, "xi": 1.0}
ENERGY_GRID = np.linspace(0.001, 0.3, 301)
LANDSCAPE_GRID = np.linspace(-math.pi, math.pi, 42)[1:]
POWER_GAIN_GRID = np.geomspace(0.001, 0.1, 21)
CURVE_PANELS = {
    # panel: (family, g_b, regime, time grid, column holds E or P = E/t)
    "fig3d": ("parallel", 0.001, WEAK, np.linspace(0.0, 2000.0, 2001), "E"),
    "fig4a": ("cascaded", 5e-5, STRONG_INTERMEDIATE,
              np.geomspace(1.0, 2e5, 1001), "P"),
    "fig4b": ("parallel", 5e-5, STRONG_INTERMEDIATE,
              np.geomspace(1.0, 2e5, 1001), "P"),
}
VARIANTS = ("nr", "r1", "r2")


# --- reading exported tables ------------------------------------------------

def read_csv(path):
    """Return ``(columns, rows)`` of a qbnet CSV export, skipping the
    ``#`` metadata lines."""
    columns, rows = None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#") or not line:
                continue
            if columns is None:
                columns = tuple(line.split(","))
            else:
                rows.append([float(v) for v in line.split(",")])
    return columns, rows


def read_errors_csv(path):
    """Return ``[(row_index, point)]`` from a sweep's errors sidecar."""
    out = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            index, point, _ = line.split(",", 2)
            out.append((int(index), float(point)))
    return out


def _expect_columns(name, columns, expected):
    if columns != tuple(expected):
        return [f"{name}: columns {columns} != {tuple(expected)}"]
    return []


def _close(a, b, rtol):
    return abs(a - b) <= rtol * abs(b)


# --- closed route -----------------------------------------------------------

def topology(family, variant, n, g_b, gamma, Gamma, xi, gamma_b=None,
             thetas=None):
    return qbnet.TopologyParams(
        family=family, variant=variant, n=n, g_b=g_b, gamma_c=gamma,
        gamma_b=gamma if gamma_b is None else tuple(gamma_b), Gamma=Gamma,
        xi=xi, thetas=thetas)


def closed_energies(params):
    """Closed-route energies of every mode of the effective model, charger
    first (index k is battery k)."""
    return np.abs(qbnet.effective_steady_amplitudes(params)) ** 2


def energy_failures(label, dense, closed):
    if closed < ENERGY_TINY:
        if abs(dense) < ENERGY_TINY:
            return []
    elif _close(dense, closed, ENERGY_RTOL):
        return []
    return [f"{label}: dense {dense!r} vs closed {closed!r}"]


def gain_failures(label, dense, numer, denom):
    closed = numer / denom if denom >= 1e-300 else math.nan
    if math.isnan(closed) and math.isnan(dense):
        return []
    if not math.isnan(closed) and _close(dense, closed, GAIN_RTOL):
        return []
    return [f"{label}: dense gain {dense!r} vs closed {closed!r}"]


def variant_energies(params, batteries):
    """``{variant: [closed energy of each listed battery]}``."""
    out = {}
    for v in VARIANTS:
        e = closed_energies(params.with_variant(v))
        out[v] = [float(e[k]) for k in batteries]
    return out


def check_steady_call(params, battery, value):
    """One ``steady_energy`` result against the closed route."""
    closed = float(closed_energies(params)[battery])
    return energy_failures(f"steady_energy {params} b_{battery}", value, closed)


def check_gain_report(params, report):
    """Every energy and gain of one ``gain_report`` against the closed route."""
    batteries = ([params.n] if params.family == "cascaded"
                 else list(range(1, params.n + 1)))
    targets = tuple(f"b_{k}" for k in batteries)
    if tuple(report.targets) != targets:
        return [f"gain_report {params}: targets {report.targets} != {targets}"]
    closed = variant_energies(params, batteries)
    failures = []
    for i, t in enumerate(targets):
        label = f"gain_report {params} {t}"
        for v, dense in (("nr", report.e_nr), ("r1", report.e_r1),
                         ("r2", report.e_r2)):
            failures += energy_failures(f"{label} E_{v}", dense[i], closed[v][i])
        failures += gain_failures(f"{label} G1", report.g1[i],
                                  closed["nr"][i], closed["r1"][i])
        failures += gain_failures(f"{label} G2", report.g2[i],
                                  closed["nr"][i], closed["r2"][i])
    return failures


# --- steady reference panels ------------------------------------------------

def check_landscape_panel(path, family):
    name = f"{family} landscape"
    columns, rows = read_csv(path)
    failures = _expect_columns(name, columns, ("theta_1", "theta_2", "E_over_omega"))
    expected = [(a, b) for a in LANDSCAPE_GRID for b in LANDSCAPE_GRID]
    if len(rows) != len(expected):
        return failures + [f"{name}: {len(rows)} rows, expected {len(expected)}"]
    w = WEAK
    for (t1, t2, energy), (a, b) in zip(rows, expected):
        if not (_close(t1, a, 1e-15) and _close(t2, b, 1e-15)):
            failures.append(f"{name}: grid point ({t1}, {t2}) != ({a}, {b})")
            continue
        p = topology(family, "custom", 2, 0.1 * w["gamma"], w["gamma"],
                     w["Gamma"], w["xi"], thetas=(t1, t2))
        failures += energy_failures(f"{name} ({t1}, {t2})", energy,
                                    float(closed_energies(p)[2]))
    return failures


def _sweep_rows(name, path, columns_expected):
    columns, rows = read_csv(path)
    failures = _expect_columns(name, columns, columns_expected)
    if len(rows) != ENERGY_GRID.size:
        failures.append(f"{name}: {len(rows)} rows, expected {ENERGY_GRID.size}")
        return failures, []
    for row, x in zip(rows, ENERGY_GRID):
        if not _close(row[0], x, 1e-15):
            failures.append(f"{name}: grid value {row[0]} != {x}")
    return failures, rows


def check_energy_panel(path, family, n):
    name = f"{family} n={n} energy panel"
    failures, rows = _sweep_rows(name, path, ("gb_over_gamma", "E_nr", "E_r1", "E_r2"))
    w = WEAK
    for x, e_nr, e_r1, e_r2 in rows:
        p = topology(family, "nr", n, x * w["gamma"], w["gamma"], w["Gamma"], w["xi"])
        closed = variant_energies(p, [n])
        for v, dense in (("nr", e_nr), ("r1", e_r1), ("r2", e_r2)):
            failures += energy_failures(f"{name} x={x} E_{v}", dense, closed[v][0])
    return failures


def check_gain_panel(path, family, n):
    name = f"{family} n={n} gain panel"
    failures, rows = _sweep_rows(name, path,
                                 ("gb_over_gamma", f"G_{n}1", f"G_{n}2"))
    w = WEAK
    for x, g1, g2 in rows:
        p = topology(family, "nr", n, x * w["gamma"], w["gamma"], w["Gamma"], w["xi"])
        c = variant_energies(p, [n])
        failures += gain_failures(f"{name} x={x} G1", g1, c["nr"][0], c["r1"][0])
        failures += gain_failures(f"{name} x={x} G2", g2, c["nr"][0], c["r2"][0])
    return failures


def _dense_energy(params, battery):
    m, d, index = network_matrix(params)
    return float(abs(np.linalg.solve(m, -d)[index[f"b_{battery}"]]) ** 2)


def _max_over_coupling(n, variant, gamma, xi):
    """Maximise this module's dense terminal energy over g_b in
    [1e-4, 10] gamma: a log scan, then bounded Brent in log g_b."""
    from scipy.optimize import minimize_scalar

    def energy(log_g):
        p = topology("cascaded", variant, n, math.exp(log_g), gamma, gamma, xi)
        return _dense_energy(p, n)

    grid = np.log(np.geomspace(1e-4, 10.0, 600) * gamma)
    values = [energy(u) for u in grid]
    i = int(np.argmax(values))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    res = minimize_scalar(lambda u: -energy(u), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-10})
    return max(values[i], -res.fun)


def check_fig2f(path):
    """Optimal couplings of odd chains and the nr/r1 best-energy ratio."""
    name = "fig2f"
    columns, rows = read_csv(path)
    failures = _expect_columns(name, columns, ("N", "gb_opt", "ratio_Emax"))
    ns = list(range(1, 16, 2))
    if [int(r[0]) for r in rows] != ns:
        return failures + [f"{name}: N column {[r[0] for r in rows]} != {ns}"]
    gamma, xi = WEAK["gamma"], WEAK["xi"]
    for n, gb_opt, ratio in rows:
        n = int(n)
        formula = (n + math.sqrt(n * (8.0 + n))) * gamma / 8.0
        if not _close(gb_opt, formula, 1e-12):
            failures.append(f"{name} N={n}: gb_opt {gb_opt!r} != {formula!r}")
        at = _dense_energy(topology("cascaded", "nr", n, gb_opt, gamma, gamma, xi), n)
        for g in (gb_opt * (1 - NEIGHBOUR_STEP), gb_opt * (1 + NEIGHBOUR_STEP)):
            near = _dense_energy(topology("cascaded", "nr", n, g, gamma, gamma, xi), n)
            if near > at * (1 + ENERGY_RTOL):
                failures.append(f"{name} N={n}: g_b={g!r} beats gb_opt")
        best = _max_over_coupling(n, "nr", gamma, xi) / _max_over_coupling(
            n, "r1", gamma, xi)
        if not _close(ratio, best, POWER_RTOL):
            failures.append(f"{name} N={n}: ratio {ratio!r} vs independent {best!r}")
    return failures


# --- config-driven sweep ----------------------------------------------------

def check_sweep(table_path, errors_path, topo, values):
    """The sweep over uniform decay ``gamma``: rows against the closed route,
    and the refused points exactly the undamped (gamma = 0) ones."""
    name = "sweep"
    columns, rows = read_csv(table_path)
    failures = _expect_columns(name, columns, ("gamma", "steady_energy", "E_nr",
                                               "E_r1", "E_r2", "G1", "G2"))
    undamped = [(i, v) for i, v in enumerate(values) if v == 0.0]
    damped = [v for v in values if v != 0.0]
    try:
        refused = read_errors_csv(errors_path)
    except FileNotFoundError:
        refused = []
    if refused != undamped:
        failures.append(f"{name}: refused {refused} != undamped {undamped}")
    if [r[0] for r in rows] != damped:
        return failures + [f"{name}: rows do not match the damped grid values"]
    n = topo["n"]
    for g, e, e_nr, e_r1, e_r2, g1, g2 in rows:
        p = topology(topo["family"], topo["variant"], n, topo["g_b"], g,
                     topo["Gamma"], complex(*topo["xi"]))
        c = variant_energies(p, [n])
        label = f"{name} gamma={g}"
        failures += energy_failures(f"{label} steady_energy", e,
                                    c[topo["variant"]][0])
        for v, dense in (("nr", e_nr), ("r1", e_r1), ("r2", e_r2)):
            failures += energy_failures(f"{label} E_{v}", dense, c[v][0])
        failures += gain_failures(f"{label} G1", g1, c["nr"][0], c["r1"][0])
        failures += gain_failures(f"{label} G2", g2, c["nr"][0], c["r2"][0])
    return failures


# --- independent model and propagator --------------------------------------

def _direct_phases(params):
    if params.variant == "nr":
        return (-math.pi / 2,) * params.n
    if params.variant == "r2" or params.thetas is None:
        return (0.0,) * params.n
    return tuple(params.thetas)


def network_matrix(params):
    """``(M, d, index)`` of ``d(alpha)/dt = M alpha + d`` for a topology.

    Modes: the charger ``c``, then per battery k its lossy intermediate
    ``a_k`` (variants with intermediates, coupled at sqrt(g_b Gamma / 2))
    and the battery ``b_k``.  A chain links b_k to b_{k-1}, a star to c.
    """
    intermediates = params.variant != "r1"
    g_i = math.sqrt(params.g_b * params.Gamma / 2.0) if intermediates else 0.0
    names, decay, links = ["c"], [params.gamma_c], []
    for k, phase in enumerate(_direct_phases(params), start=1):
        up = "c" if params.family == "parallel" or k == 1 else f"b_{k - 1}"
        if intermediates:
            names.append(f"a_{k}")
            decay.append(params.Gamma)
            links += [(up, f"a_{k}", g_i, 0.0), (f"a_{k}", f"b_{k}", g_i, 0.0)]
        names.append(f"b_{k}")
        decay.append(params.gamma_b[k - 1])
        links.append((up, f"b_{k}", params.g_b, phase))
    index = {name: i for i, name in enumerate(names)}
    m = np.diag(-0.5 * np.asarray(decay, dtype=complex))
    for s, t, g, phase in links:
        m[index[t], index[s]] += -1j * g * cmath.exp(1j * phase)
        m[index[s], index[t]] += -1j * g * cmath.exp(-1j * phase)
    d = np.zeros(len(names), dtype=complex)
    d[0] = -1j * complex(params.xi)
    return m, d, index


def _expm_taylor(a):
    """exp(a) by scaling to norm <= 1/4, a 16-term Taylor sum, and squaring."""
    norm = float(np.abs(a).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    a = a / (2.0 ** s)
    result = np.eye(a.shape[0], dtype=complex)
    term = result
    for k in range(1, 17):
        term = term @ a / k
        result = result + term
    for _ in range(s):
        result = result @ result
    return result


def vacuum_response(m, d, t):
    """Amplitudes at time t from vacuum: ``int_0^t e^{M s} d ds``."""
    n = d.size
    aug = np.zeros((n + 1, n + 1), dtype=complex)
    aug[:n, :n] = m
    aug[:n, n] = d
    return _expm_taylor(aug * t)[:n, n]


def check_curve_panel(path, panel, rows_to_check):
    """Sampled rows of a charging-curve panel against ``vacuum_response``."""
    family, g_b, regime, times, kind = CURVE_PANELS[panel]
    head = "E" if kind == "E" else "P"
    columns, rows = read_csv(path)
    failures = _expect_columns(panel, columns,
                               ("t",) + tuple(f"{head}_{v}" for v in VARIANTS))
    if len(rows) != times.size:
        return failures + [f"{panel}: {len(rows)} rows, expected {times.size}"]
    for v_index, v in enumerate(VARIANTS, start=1):
        p = topology(family, v, 4, g_b, regime["gamma"], regime["Gamma"], regime["xi"])
        m, d, index = network_matrix(p)
        scale = float(np.linalg.norm(np.linalg.solve(m, -d)))
        for i in rows_to_check:
            t, value = rows[i][0], rows[i][v_index]
            if not _close(t, times[i], 1e-15):
                failures.append(f"{panel}: t[{i}] = {t!r} != {times[i]!r}")
                continue
            energy = value * t if kind == "P" else value
            ref = abs(vacuum_response(m, d, t)[index["b_4"]])
            if not abs(math.sqrt(max(energy, 0.0)) - ref) <= CURVE_NORM_TOL * scale:
                failures.append(f"{panel} {v} t={t!r}: energy {energy!r} vs "
                                f"independent {ref * ref!r}")
    return failures


def _power(m, d, row, t):
    return float(abs(vacuum_response(m, d, t)[row]) ** 2) / t


def independent_max_power(m, d, row):
    """Maximum of P(t) = E(t)/t by a 400-point log scan over
    [1e-8, 4] x 50/|spectral abscissa|, then bounded Brent in log t."""
    from scipy.optimize import minimize_scalar

    t_hi = 50.0 / abs(float(np.linalg.eigvals(m).real.max()))
    grid = np.log(np.geomspace(t_hi * 1e-8, 4.0 * t_hi, 400))
    values = [_power(m, d, row, math.exp(u)) for u in grid]
    i = int(np.argmax(values))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    res = minimize_scalar(lambda u: -_power(m, d, row, math.exp(u)),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    return max(values[i], -res.fun)


def check_max_power(params, target, p_reported=None):
    """Re-run qbnet's ``max_power`` untimed and check its optimum: it must
    give the reported value, re-evaluate to it independently, and be beaten
    neither by its neighbours nor by an independent scan."""
    label = f"max_power {params} {target}"
    t_star, p_star = qbnet.max_power(params, target)
    failures = []
    if p_reported is not None and not _close(p_reported, p_star, 1e-12):
        failures.append(f"{label}: reported {p_reported!r} != recomputed {p_star!r}")
    m, d, index = network_matrix(params)
    row = index[target]
    p_at = _power(m, d, row, t_star)
    if not _close(p_at, p_star, POWER_RTOL):
        failures.append(f"{label}: P({t_star!r}) = {p_at!r} independently, "
                        f"reported {p_star!r}")
    for t in (t_star * (1 - NEIGHBOUR_STEP), t_star * (1 + NEIGHBOUR_STEP)):
        if _power(m, d, row, t) > p_star * (1 + POWER_RTOL):
            failures.append(f"{label}: neighbour t={t!r} beats the optimum")
    best = independent_max_power(m, d, row)
    if best > p_star * (1 + POWER_RTOL):
        failures.append(f"{label}: independent scan finds {best!r} > {p_star!r}")
    return failures, p_star


def check_eta_panel(path, family, rows_to_check):
    """Sampled rows of a max-power gain panel (fig4c/fig4d)."""
    name = f"{family} eta panel"
    columns, rows = read_csv(path)
    failures = _expect_columns(name, columns, ("gb_over_gamma", "eta_41", "eta_42"))
    if len(rows) != POWER_GAIN_GRID.size:
        return failures + [f"{name}: {len(rows)} rows, expected 21"]
    r = STRONG_INTERMEDIATE
    for i in rows_to_check:
        x, eta1, eta2 = rows[i]
        if not _close(x, POWER_GAIN_GRID[i], 1e-15):
            failures.append(f"{name}: x[{i}] = {x!r} != {POWER_GAIN_GRID[i]!r}")
            continue
        p_max = {}
        for v in VARIANTS:
            p = topology(family, v, 4, x * r["gamma"], r["gamma"], r["Gamma"], r["xi"])
            found, p_max[v] = check_max_power(p, "b_4")
            failures += found
        failures += gain_failures(f"{name} x={x} eta_41", eta1, p_max["nr"], p_max["r1"])
        failures += gain_failures(f"{name} x={x} eta_42", eta2, p_max["nr"], p_max["r2"])
    return failures


def check_gains_power(path, params):
    """A ``gains --power`` table: energies and gains against the closed
    route, each maximum power against ``check_max_power``."""
    name = "gains --power"
    columns, rows = read_csv(path)
    failures = _expect_columns(name, columns, (
        "battery", "E_nr", "E_r1", "E_r2", "G1", "G2", "P_max_nr", "P_max_r1",
        "P_max_r2", "eta1", "eta2"))
    batteries = ([params.n] if params.family == "cascaded"
                 else list(range(1, params.n + 1)))
    if [int(r[0]) for r in rows] != batteries:
        return failures + [f"{name}: batteries {[r[0] for r in rows]} != {batteries}"]
    closed = variant_energies(params, batteries)
    for i, (k, e_nr, e_r1, e_r2, g1, g2, *powers) in enumerate(rows):
        label = f"{name} b_{int(k)}"
        for v, dense in (("nr", e_nr), ("r1", e_r1), ("r2", e_r2)):
            failures += energy_failures(f"{label} E_{v}", dense, closed[v][i])
        failures += gain_failures(f"{label} G1", g1, closed["nr"][i], closed["r1"][i])
        failures += gain_failures(f"{label} G2", g2, closed["nr"][i], closed["r2"][i])
        p_nr, p_r1, p_r2, eta1, eta2 = powers
        for v, p_reported in (("nr", p_nr), ("r1", p_r1), ("r2", p_r2)):
            found, _ = check_max_power(params.with_variant(v), f"b_{int(k)}",
                                       p_reported)
            failures += found
        failures += gain_failures(f"{label} eta1", eta1, p_nr, p_r1)
        failures += gain_failures(f"{label} eta2", eta2, p_nr, p_r2)
    return failures
