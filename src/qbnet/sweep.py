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

from .config import RunConfig, run_config_to_dict
from .errors import NoSteadyStateError, ScanEdgeError, UnstableSystemError
from .export import SweepTable
from .network import TopologyParams
from .observables import (_energy, _gains_row, _power_points, _steady_points,
                          _value)


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


def _batches(points: list, solve) -> list:
    """Per point, its entry of ``solve(params, **columns)``: one batch,
    or one per point when the battery count varies."""
    if len({p.n for p in points}) > 1:
        return [solve(p)[0] for p in points]
    columns = {f: [getattr(p, f) for p in points]
               for f in ("g_b", "gamma_c", "gamma_b", "Gamma", "xi", "thetas")
               if getattr(points[0], f) is not None}
    return solve(points[0], **columns)


#: observable name -> (table columns, row values at ``(params, target,
#: point, peaks, flags)``: ``point(variant)`` the solved point of a
#: variant, ``peaks()`` the point's ``_power_points`` peaks at the
#: target, ``flags`` the list that names each undefined ratio)
_OBSERVABLES = {
    "steady_energy": (("steady_energy",), lambda params, target, point, *_: [
        _energy(point(params.variant), target or f"b_{params.n}")]),
    "gains": (("E_nr", "E_r1", "E_r2", "G1", "G2"),
              lambda params, target, point, _, flags: _gains_row(
                  params, target, point, flags)),
    "max_power": (("t_star", "p_max"), lambda params, target, point, peaks, _:
                  list(_value(peaks()[0]))),
}


def run_sweep(cfg: RunConfig) -> SweepTable:
    """Evaluate the configured sweep; failed points go to the sidecar."""
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
    peaks = functools.cache(lambda: _batches(
        points, lambda p, **c: _power_points(p, (cfg.target or f"b_{p.n}",), **c)))
    solved = functools.cache(lambda variant: (
        [point for point, _ in peaks()]
        if variant == cfg.topology.variant and "max_power" in cfg.observables
        else _batches(points, lambda p, **c: _steady_points(
            p.with_variant(variant), **c))))

    rows, errors = [], []
    for index, (value, params) in enumerate(zip(values, points)):
        row, flags = [value], []
        try:
            for _, row_values in chosen:
                row.extend(row_values(params, cfg.target,
                                      lambda v: solved(v)[index],
                                      lambda: peaks()[index][1], flags))
        except (NoSteadyStateError, UnstableSystemError, ScanEdgeError) as exc:
            errors.append((index, value, str(exc)))
        else:
            if flags:
                errors.append((index, value,
                               "undefined ratio: " + "; ".join(flags)))
            else:
                rows.append(row)
    metadata = {"config": json.dumps(run_config_to_dict(cfg), sort_keys=True)}
    columns = (label,) + tuple(col for cols, _ in chosen for col in cols)
    return SweepTable(f"sweep_{label}", columns, rows, metadata, errors)
