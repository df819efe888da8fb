"""Reference maximiser and propagator for the tests.

The maximiser is a dense scan plus golden-section refinement.  It shares
no code with qbnet's own optima (closed-form stationary points for the
chain energies, a Newton root of dP/dt for the charging power), so tests
compare those against it.  A scan whose largest value sits on an end of
its grid has not located the maximum, and is refused (``_scan_argmax``).

``mp_vacuum_amplitudes`` is the high-precision propagator: mpmath's
``expm`` of the augmented matrix at 40 digits.

``loop_parameter_tables`` is the per-point form of
``network.parameter_tables``, which builds its tables column by column.

``reference_sweep`` is the per-point form of ``sweep.run_sweep``, which
fills its grid as ``parameter_tables`` columns: it builds and validates
one ``TopologyParams`` per grid value (``apply_sweep_value``) and reads
every field back as a column (``_batches``).  Its ``n`` sweeps keep only
the first entry of ``gamma_b`` and ``thetas``, so it is a reference for
uniform per-battery lists only.
"""

import dataclasses
import functools
import json
import math

import numpy as np

from qbnet import ScanEdgeError, SweepTable, TopologyParams
from qbnet.config import run_config_to_dict
from qbnet.observables import _default_target, _power_points, _steady_points
from qbnet.sweep import _OBSERVABLES

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo: float, hi: float, rel_tol: float = 1e-10,
                       max_iter: int = 400):
    """Maximise ``f`` on ``[lo, hi]``; return ``(x, f(x))``.

    Terminates when the bracket has shrunk to ``rel_tol`` relative to
    its midpoint (absolute ``rel_tol`` near zero).
    """
    if not (hi > lo):
        raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if (b - a) <= rel_tol * max(abs(a), abs(b), 1.0e-300):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _scan_argmax(grid, values) -> int:
    """Index of the largest of ``values``, sampled on ``grid``; an argmax
    on the first or last grid point means the maximum may lie outside
    the grid, and raises ``ScanEdgeError``."""
    i = int(np.argmax(values))
    if i == 0 or i == len(grid) - 1:
        raise ScanEdgeError(
            f"scan maximum {values[i]:.6g} at the grid edge x = {grid[i]:.6g}; "
            f"the maximum may lie outside [{grid[0]:.6g}, {grid[-1]:.6g}]",
            edge=float(grid[i]))
    return i


def refine_argmax(f, grid, values, rel_tol: float = 1e-10):
    """Golden-refine ``f`` around the argmax of a scan already made.

    ``values[i] = f(grid[i])`` on a strictly increasing ``grid``.  The
    refinement bracket is the pair of grid neighbours of the scan
    argmax; the better of the refined point and the scan point is
    returned.  An argmax on the first or last grid point means the
    maximum may lie outside the grid, and raises ``ScanEdgeError``.
    """
    i = _scan_argmax(grid, values)
    x, fx = golden_section_max(f, grid[i - 1], grid[i + 1], rel_tol=rel_tol)
    if values[i] > fx:
        return float(grid[i]), float(values[i])
    return float(x), float(fx)


def scan_refine_max(f, grid, rel_tol: float = 1e-10):
    """Dense-scan ``f`` on ``grid`` then ``refine_argmax``.

    ``grid`` must be strictly increasing.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("grid must be 1-d with at least 3 points")
    values = np.array([f(x) for x in grid], dtype=float)
    return refine_argmax(f, grid, values, rel_tol)


def mp_vacuum_amplitudes(sys_, times, dps: int = 40) -> np.ndarray:
    """Amplitudes of every mode from vacuum at each of ``times``: the
    last column of ``expm([[M, d], [0, 0]] t)`` in ``dps``-digit mpmath
    arithmetic, rounded to complex128, as a (T, n) array."""
    import mpmath as mp

    n = sys_.n
    with mp.workdps(dps):
        augmented = mp.zeros(n + 1, n + 1)
        for i in range(n):
            for j in range(n):
                augmented[i, j] = mp.mpc(complex(sys_.matrix[i, j]))
            augmented[i, n] = mp.mpc(complex(sys_.drive[i]))
        rows = []
        for t in times:
            column = mp.expm(augmented * mp.mpf(float(t)))
            rows.append([complex(column[i, n]) for i in range(n)])
    return np.array(rows, dtype=complex)


def loop_parameter_tables(params, **columns) -> tuple:
    """``network.parameter_tables`` point by point: each point's rows
    built in turn by the builder's own helpers, every field read per
    point and every theta wrapped where it is used."""
    from qbnet.network import _direct_phases, _intermediate_coupling

    points = len(next(iter(columns.values()))) if columns else 1

    def column(name):
        return columns[name] if name in columns else [getattr(params, name)] * points

    rates, strengths, phases = [], [], []
    for g_b, gamma_c, gamma_b, Gamma, thetas, variant in zip(
            column("g_b"), column("gamma_c"), column("gamma_b"),
            column("Gamma"), column("thetas"), column("variant")):
        rates.append((gamma_c, Gamma, *gamma_b))
        strengths.append((g_b, _intermediate_coupling(variant, g_b, Gamma)))
        phases.append((0.0, *_direct_phases(variant, params.n, thetas)))
    return (np.array(rates, dtype=float), np.array(strengths, dtype=float),
            np.array(phases, dtype=float), np.array(column("xi"), dtype=complex))


def apply_sweep_value(params: TopologyParams, variable: str, value,
                      index: int | None = None) -> TopologyParams:
    """Return params with one swept variable replaced by ``value``."""
    if variable == "g_b":
        return dataclasses.replace(params, g_b=float(value))
    if variable == "gamma":
        v = float(value)
        return dataclasses.replace(params, gamma_c=v, gamma_b=(v,) * params.n)
    if variable == "gamma_c":
        return dataclasses.replace(params, gamma_c=float(value))
    if variable == "Gamma":
        return dataclasses.replace(params, Gamma=float(value))
    if variable == "xi":
        return dataclasses.replace(params, xi=complex(value))
    if variable == "n":
        n = int(value)
        if n != value:
            raise ValueError(f"n sweep values must be integers, got {value!r}")
        gamma_b = params.gamma_b[:1] * n
        thetas = None if params.thetas is None else params.thetas[:1] * n
        return dataclasses.replace(params, n=n, gamma_b=gamma_b, thetas=thetas)
    if variable == "theta":
        if index is None or not 1 <= index <= params.n:
            raise ValueError(f"theta sweeps need index in 1..{params.n}")
        thetas = list(params.thetas if params.thetas is not None
                      else (0.0,) * params.n)
        thetas[index - 1] = float(value)
        return dataclasses.replace(params, thetas=tuple(thetas))
    raise ValueError(f"unknown sweep variable {variable!r}")


def _batches(points: list) -> list:
    """``(start, first point, columns)`` per batch of the sweep: one batch,
    or one per point when the battery count varies."""
    if len({p.n for p in points}) != 1:  # none, or one batch per point
        return [(i, p, {}) for i, p in enumerate(points)]
    columns = {f: [getattr(p, f) for p in points]
               for f in ("g_b", "gamma_c", "gamma_b", "Gamma", "xi", "thetas")
               if getattr(points[0], f) is not None}
    return [(0, points[0], columns)]


def reference_sweep(cfg) -> SweepTable:
    """``run_sweep`` over one ``apply_sweep_value`` point per grid value."""
    if cfg.sweep is None:
        raise ValueError("config has no sweep section")
    try:
        chosen = [_OBSERVABLES[obs] for obs in cfg.observables]
    except KeyError as exc:
        raise ValueError(f"unknown observable {exc.args[0]!r}") from None
    variable = cfg.sweep.variable
    label = variable if cfg.sweep.index is None else f"{variable}_{cfg.sweep.index}"
    values = cfg.sweep.values
    points = [apply_sweep_value(cfg.topology, variable, value, cfg.sweep.index)
              for value in values]
    columns = (label,) + tuple(col for cols, _ in chosen for col in cols)
    table = np.empty((len(points), len(columns) - 1))
    failures, flags = {}, {}
    for start, params, batch in _batches(points):
        # each variant solved once; max_power's solve is the steady one
        target, at = cfg.target or _default_target(params), 0
        solved = functools.cache(lambda variant: (
            _power_points(params, (target,), **batch)
            if variant == params.variant and "max_power" in cfg.observables
            else _steady_points(params.with_variant(variant), **batch)))
        for _, observe in chosen:
            found, errors, named = observe(params, target, solved)
            table[start:start + len(found), at:at + found.shape[1]] = found
            at += found.shape[1]
            for i, error in errors.items():
                failures.setdefault(start + i, str(error))
            for i, names in named.items():
                flags.setdefault(start + i, []).extend(names)
    for i, names in flags.items():
        failures.setdefault(i, "undefined ratio: " + "; ".join(names))
    rows = [[value, *row] for i, (value, row) in enumerate(zip(values, table.tolist()))
            if i not in failures]
    errors = [(i, values[i], failures[i]) for i in sorted(failures)]
    metadata = {"config": json.dumps(run_config_to_dict(cfg), sort_keys=True),
                "refused": f"{len(errors)} of {len(values)}"}
    return SweepTable(f"sweep_{label}", columns, rows, metadata, errors)
