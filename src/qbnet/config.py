"""JSON-compatible serialization of parameter bundles, networks and runs.

One structured-text format covers everything the command line consumes:
a ``RunConfig`` document with a ``topology`` section mirroring
``TopologyParams``, an optional ``sweep`` section and output options.
``NetworkSpec`` documents, read by the ``validate`` command only, have
their own schema.  Unknown keys are rejected with path-precise messages,
and ``run_config_to_dict -> parse_run_config -> run_config_to_dict`` is
the identity.

Complex numbers are encoded as plain numbers when purely real and as
``[re, im]`` pairs otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .network import (FAMILIES, VARIANTS, WITH_FREE_PHASES, CouplingSpec, DriveSpec,
                      ModeSpec, NetworkSpec, TopologyParams)

SWEEPABLE = ("g_b", "gamma", "gamma_c", "Gamma", "xi", "n", "theta")
OBSERVABLES = ("steady_energy", "gains", "max_power")
FORMATS = ("csv", "json")
SPACINGS = ("linear", "log")


def _require(cond, path, message):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _check_keys(doc: dict, allowed, path: str):
    _require(isinstance(doc, dict), path, "must be an object")
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _number(value, path: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             path, f"must be a number, got {value!r}")
    _require(math.isfinite(value), path, "must be finite")
    return float(value)


def complex_to_json(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def complex_from_json(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value), 0.0)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value)):
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{path}: must be a number or a [re, im] pair, got {value!r}")


# --- TopologyParams -------------------------------------------------------

_TOPOLOGY_KEYS = ("family", "variant", "n", "g_b", "gamma_c", "gamma_b",
                  "Gamma", "xi", "thetas")


def topology_to_dict(params: TopologyParams) -> dict:
    doc = {
        "family": params.family,
        "variant": params.variant,
        "n": params.n,
        "g_b": params.g_b,
        "gamma_c": params.gamma_c,
        "gamma_b": list(params.gamma_b),
        "Gamma": params.Gamma,
        "xi": complex_to_json(params.xi),
    }
    if params.thetas is not None:
        doc["thetas"] = list(params.thetas)
    return doc


def topology_from_dict(doc: dict, path: str = "topology") -> TopologyParams:
    _check_keys(doc, _TOPOLOGY_KEYS, path)
    for key in ("family", "variant", "n", "g_b", "gamma_c", "gamma_b", "xi"):
        _require(key in doc, path, f"missing required key {key!r}")
    family = doc["family"]
    _require(family in FAMILIES, f"{path}.family",
             f"must be {' or '.join(map(repr, FAMILIES))}, got {family!r}")
    variant = doc["variant"]
    _require(variant in VARIANTS, f"{path}.variant",
             f"must be one of {'/'.join(VARIANTS)}, got {variant!r}")
    n = doc["n"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
             f"{path}.n", f"must be an integer >= 1, got {n!r}")
    gamma_b = doc["gamma_b"]
    if isinstance(gamma_b, list):
        gamma_b = tuple(_number(g, f"{path}.gamma_b[{i}]")
                        for i, g in enumerate(gamma_b))
    else:
        gamma_b = _number(gamma_b, f"{path}.gamma_b")
    thetas = doc.get("thetas")
    if thetas is not None:
        _require(isinstance(thetas, list), f"{path}.thetas", "must be a list")
        thetas = tuple(_number(t, f"{path}.thetas[{i}]")
                       for i, t in enumerate(thetas))
    try:
        return TopologyParams(
            family=family, variant=variant, n=n,
            g_b=_number(doc["g_b"], f"{path}.g_b"),
            gamma_c=_number(doc["gamma_c"], f"{path}.gamma_c"),
            gamma_b=gamma_b,
            Gamma=_number(doc.get("Gamma", 0.0), f"{path}.Gamma"),
            xi=complex_from_json(doc["xi"], f"{path}.xi"),
            thetas=thetas)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def resize_topology(doc: dict, n: int) -> dict:
    """Topology fields ``doc`` with battery count ``n``, unchanged at its own
    count; otherwise each per-battery list that does not fit ``n`` repeats
    its one value, or names itself in a ``ConfigError`` if it has more."""
    if doc.get("n") == n:
        return doc
    doc = {**doc, "n": n}
    for key in ("gamma_b", "thetas"):
        values = doc.get(key)
        if isinstance(values, (list, tuple)) and len(values) != n:
            if len(set(values)) != 1:
                raise ConfigError(f"cannot override n: config {key} is heterogeneous")
            doc[key] = [values[0]] * n
    return doc


# --- NetworkSpec ----------------------------------------------------------

def network_from_dict(doc: dict, path: str = "network") -> NetworkSpec:
    _check_keys(doc, ("modes", "couplings", "drives"), path)
    _require("modes" in doc, path, "missing required key 'modes'")
    modes = []
    for i, m in enumerate(doc["modes"]):
        mpath = f"{path}.modes[{i}]"
        _check_keys(m, ("id", "role", "decay_rate", "detuning"), mpath)
        for key in ("id", "role", "decay_rate"):
            _require(key in m, mpath, f"missing required key {key!r}")
        modes.append(ModeSpec(str(m["id"]), str(m["role"]),
                              _number(m["decay_rate"], f"{mpath}.decay_rate"),
                              _number(m.get("detuning", 0.0), f"{mpath}.detuning")))
    couplings = []
    for i, c in enumerate(doc.get("couplings", [])):
        cpath = f"{path}.couplings[{i}]"
        _check_keys(c, ("source", "target", "strength", "phase"), cpath)
        for key in ("source", "target", "strength"):
            _require(key in c, cpath, f"missing required key {key!r}")
        couplings.append(CouplingSpec(str(c["source"]), str(c["target"]),
                                      _number(c["strength"], f"{cpath}.strength"),
                                      _number(c.get("phase", 0.0), f"{cpath}.phase")))
    drives = []
    for i, d in enumerate(doc.get("drives", [])):
        dpath = f"{path}.drives[{i}]"
        _check_keys(d, ("mode", "amplitude"), dpath)
        for key in ("mode", "amplitude"):
            _require(key in d, dpath, f"missing required key {key!r}")
        drives.append(DriveSpec(str(d["mode"]),
                                complex_from_json(d["amplitude"],
                                                  f"{dpath}.amplitude")))
    return NetworkSpec(tuple(modes), tuple(couplings), tuple(drives))


# --- grids ----------------------------------------------------------------

def _grid_from_dict(doc, path: str) -> tuple:
    """The explicit values of a list or a start/stop/points range."""
    if isinstance(doc, list):
        return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(doc))
    _check_keys(doc, ("start", "stop", "points", "spacing"), path)
    for key in ("start", "stop", "points"):
        _require(key in doc, path, f"missing required key {key!r}")
    start = _number(doc["start"], f"{path}.start")
    stop = _number(doc["stop"], f"{path}.stop")
    points = doc["points"]
    _require(isinstance(points, int) and not isinstance(points, bool)
             and points >= 1, f"{path}.points", "must be an integer >= 1")
    spacing = doc.get("spacing", "linear")
    _require(spacing in SPACINGS, f"{path}.spacing",
             f"must be one of {SPACINGS}, got {spacing!r}")
    if spacing == "log":
        _require(start > 0 and stop > 0, path, "log spacing needs positive bounds")
        values = np.geomspace(start, stop, points)
    else:
        values = np.linspace(start, stop, points)
    return tuple(float(v) for v in values)


# --- RunConfig ------------------------------------------------------------

_RUN_KEYS = ("topology", "sweep", "observables", "target", "out_dir",
             "format")
_SWEEP_KEYS = ("variable", "values", "index")


@dataclass(frozen=True)
class SweepSpec:
    """Swept variable plus its grid values; ``index`` is the 1-based
    battery index for per-link variables (theta)."""

    variable: str
    values: tuple
    index: int | None = None


@dataclass(frozen=True)
class RunConfig:
    """Everything one command-line run needs."""

    topology: TopologyParams
    sweep: SweepSpec | None = None
    observables: tuple = ("steady_energy",)
    target: str | None = None
    out_dir: str | None = None
    format: str = "csv"


def parse_run_config(doc) -> RunConfig:
    """Parse a dict or JSON text into a RunConfig, rejecting unknown keys."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON ({exc})") from exc
    _check_keys(doc, _RUN_KEYS, "config")
    _require("topology" in doc, "config", "missing required key 'topology'")
    topology = topology_from_dict(doc["topology"], "config.topology")
    sweep = None
    if "sweep" in doc:
        spath = "config.sweep"
        _check_keys(doc["sweep"], _SWEEP_KEYS, spath)
        for key in ("variable", "values"):
            _require(key in doc["sweep"], spath, f"missing required key {key!r}")
        variable = doc["sweep"]["variable"]
        _require(variable in SWEEPABLE, f"{spath}.variable",
                 f"must be one of {SWEEPABLE}, got {variable!r}")
        index = doc["sweep"].get("index")
        if variable == "theta":
            _require(topology.variant in WITH_FREE_PHASES, f"{spath}.variable",
                     f"theta sweeps need a variant in {WITH_FREE_PHASES}, "
                     f"got {topology.variant!r}")
            _require(isinstance(index, int) and not isinstance(index, bool)
                     and 1 <= index <= topology.n, f"{spath}.index",
                     f"theta sweeps need a battery index in 1..{topology.n}")
        else:
            _require(index is None, f"{spath}.index",
                     f"only theta sweeps take an index, not {variable!r}")
        sweep = SweepSpec(variable, _grid_from_dict(doc["sweep"]["values"],
                                                    f"{spath}.values"), index)
    observables = doc.get("observables", ["steady_energy"])
    _require(isinstance(observables, list) and observables,
             "config.observables", "must be a non-empty list")
    for i, obs in enumerate(observables):
        _require(obs in OBSERVABLES, f"config.observables[{i}]",
                 f"must be one of {OBSERVABLES}, got {obs!r}")
    target = doc.get("target")
    if target is not None:
        _require(isinstance(target, str), "config.target", "must be a string")
    out_dir = doc.get("out_dir")
    if out_dir is not None:
        _require(isinstance(out_dir, str), "config.out_dir", "must be a string")
    fmt = doc.get("format", "csv")
    _require(fmt in FORMATS, "config.format",
             f"must be one of {FORMATS}, got {fmt!r}")
    return RunConfig(topology, sweep, tuple(observables), target, out_dir, fmt)


def run_config_to_dict(cfg: RunConfig) -> dict:
    """Canonical document for a RunConfig (grids always explicit lists)."""
    doc: dict = {"topology": topology_to_dict(cfg.topology)}
    if cfg.sweep is not None:
        sweep: dict = {"variable": cfg.sweep.variable,
                       "values": list(cfg.sweep.values)}
        if cfg.sweep.index is not None:
            sweep["index"] = cfg.sweep.index
        doc["sweep"] = sweep
    doc["observables"] = list(cfg.observables)
    if cfg.target is not None:
        doc["target"] = cfg.target
    if cfg.out_dir is not None:
        doc["out_dir"] = cfg.out_dir
    doc["format"] = cfg.format
    return doc


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
