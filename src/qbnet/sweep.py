"""Parameter sweeps over topology scalars with per-point observables.

A sweep evaluates the requested observables at every grid value of one
variable.  Each variant the steady observables need is solved once for
the whole grid, in one batch unless ``n`` is swept, so ``steady_energy``
and the ``nr`` energy of ``gains`` read the same solve; ``max_power``
scans and refines the whole grid as one batch, again unless ``n`` is
swept, and its solve of the topology's own variant is the one the
steady columns read.  Points that fail numerically (singular or
unstable systems, a maximum outside the scanned range, a gain ratio
whose denominator vanished) are recorded in the table's error list and
skipped; the surviving rows keep grid order.
"""

from __future__ import annotations

import dataclasses
import functools
import json

import numpy as np

from .config import RunConfig, run_config_to_dict
from .export import SweepTable
from .network import TopologyParams
from .observables import (_default_target, _gain_columns, _power_points,
                          _steady_points)


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


#: observable name -> (table columns, ``(values (P, k), errors, flags)``
#: of a batch at ``(params, target, solved(variant))``)
_OBSERVABLES = {
    "steady_energy": (("steady_energy",), lambda params, target, solved: (
        solved(params.variant).energies(target), solved(params.variant).errors, {})),
    "gains": (("E_nr", "E_r1", "E_r2", "G1", "G2"), _gain_columns),
    "max_power": (("t_star", "p_max"), lambda params, target, solved: (
        solved(params.variant).peaks[:, 0], solved(params.variant).peak_errors, {})),
}


def run_sweep(cfg: RunConfig) -> SweepTable:
    """Evaluate the configured sweep; failed points go to the sidecar,
    each with the error of the first observable that fails there."""
    if cfg.sweep is None:
        raise ValueError("config has no sweep section")
    try:
        chosen = [_OBSERVABLES[obs] for obs in cfg.observables]
    except KeyError as exc:
        raise ValueError(f"unknown observable {exc.args[0]!r}") from None
    variable = cfg.sweep.variable
    label = variable if cfg.sweep.index is None else f"{variable}_{cfg.sweep.index}"
    values = cfg.sweep.grid.values
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
    metadata = {"config": json.dumps(run_config_to_dict(cfg), sort_keys=True)}
    return SweepTable(f"sweep_{label}", columns, rows, metadata, errors)
