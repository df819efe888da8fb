"""Parameter sweeps over topology scalars with per-point observables.

A sweep evaluates the requested observables at every grid value of one
variable.  The grid fills ``parameter_tables`` columns of the topology,
so each variant the observables need is solved once for the whole grid,
in one batch (one per value when ``n`` is swept): ``steady_energy`` and
the ``nr`` energy of ``gains`` read the same solve, and so do the steady
columns and ``max_power`` of the topology's own variant.  Points that
fail numerically (singular or unstable systems, a maximum outside the
scanned range, an energy or a peak power that overflows, an undefined
gain ratio) are recorded in the table's error list and skipped; the
surviving rows keep grid order.  The metadata line ``refused = k of P``
counts them, so a table shows its dropped points with or without a sidecar.
"""

from __future__ import annotations

import dataclasses
import functools
import json

import numpy as np

from .config import RunConfig, resize_topology, run_config_to_dict
from .export import SweepTable
from .network import WITH_FREE_PHASES, TopologyParams
from .observables import (_default_target, _energy_columns, _gain_columns, _peak_columns,
                          _power_points, _steady_points)


def _resized(topology: TopologyParams, value) -> TopologyParams:
    n = int(value)
    if n != value:
        raise ValueError(f"n sweep values must be integers, got {value!r}")
    return TopologyParams(**resize_topology(dataclasses.asdict(topology), n))


def _batches(topology: TopologyParams, variable: str, values, index) -> list:
    """``(start, params, columns)`` per batch of ``variable`` swept over
    ``values``: none for an empty grid, one topology per value for ``n``,
    else one batch of ``parameter_tables`` columns (``gamma`` fills
    ``gamma_c`` and ``gamma_b``, ``theta`` the ``index``-th ``thetas``).
    The first value ``TopologyParams`` refuses raises its error."""
    if not len(values):
        return []
    if variable == "n":
        return [(i, _resized(topology, value), {}) for i, value in enumerate(values)]
    if variable == "theta":
        if topology.variant not in WITH_FREE_PHASES:
            raise ValueError(f"theta sweeps need a variant in {WITH_FREE_PHASES}, "
                             f"got {topology.variant!r}")
        if index is None or not 1 <= index <= topology.n:
            raise ValueError(f"theta sweeps need index in 1..{topology.n}")
        thetas = np.tile(topology.thetas or (0.0,) * topology.n, (len(values), 1))
        thetas[:, index - 1] = values
        columns, valid = {"thetas": thetas}, np.isfinite(thetas).all(1)
    elif variable in ("g_b", "gamma", "gamma_c", "Gamma", "xi"):
        column = np.asarray(values, dtype=complex if variable == "xi" else float)
        valid = np.isfinite(column) if variable == "xi" else np.isfinite(column) & (column >= 0)
        columns = ({"gamma_c": column, "gamma_b": np.repeat(column[:, None], topology.n, 1)}
                   if variable == "gamma" else {variable: column})
        with np.errstate(all="ignore"):  # TopologyParams' matched-coupling rule
            valid &= np.isfinite(columns.get("g_b", topology.g_b)
                                 * columns.get("Gamma", topology.Gamma))
    else:
        raise ValueError(f"unknown sweep variable {variable!r}")
    for i in (~valid).nonzero()[0][:1]:  # the builder's own check and message
        dataclasses.replace(topology, **{f: c[i].tolist() for f, c in columns.items()})
    return [(0, topology, columns)]


#: observable name -> (table columns, ``(values (P, k), errors, flags)``
#: of a batch at ``(params, target, solved(variant))``)
_OBSERVABLES = {
    "steady_energy": (("steady_energy",), _energy_columns),
    "gains": (("E_nr", "E_r1", "E_r2", "G1", "G2"), _gain_columns),
    "max_power": (("t_star", "p_max"), _peak_columns),
}


def run_sweep(cfg: RunConfig) -> SweepTable:
    """Evaluate the configured sweep; failed points go to the sidecar,
    each with the error of the first observable that fails there, and
    their count to the ``refused`` metadata."""
    if cfg.sweep is None:
        raise ValueError("config has no sweep section")
    try:
        chosen = [_OBSERVABLES[obs] for obs in cfg.observables]
    except KeyError as exc:
        raise ValueError(f"unknown observable {exc.args[0]!r}") from None
    variable = cfg.sweep.variable
    label = variable if cfg.sweep.index is None else f"{variable}_{cfg.sweep.index}"
    values = cfg.sweep.values
    columns = (label,) + tuple(col for cols, _ in chosen for col in cols)
    table = np.empty((len(values), len(columns) - 1))
    failures, flags = {}, {}
    for start, params, batch in _batches(cfg.topology, variable, values, cfg.sweep.index):
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
