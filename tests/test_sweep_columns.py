"""Sweeps fill their grid as parameter-table columns.

``run_sweep`` must reproduce the per-point reference sweep
(``oracles.reference_sweep``) in CSV text, JSON text and error list,
check its whole grid before it assembles anything, and resize its
topology per ``n`` value by the command line's ``--n`` rule.
"""

import dataclasses
import itertools
import json
import math
import re

import pytest

import qbnet.dynamics
from qbnet import (ConfigError, TopologyParams, ValidationError, max_power,
                   parse_run_config, run_sweep, steady_energy)
from qbnet.cli import cli_main
from qbnet.config import RunConfig, SweepSpec
from qbnet.export import table_to_csv_text, table_to_json_text

from oracles import reference_sweep

TOPOLOGIES = {
    "cascaded": {"family": "cascaded", "variant": "nr", "n": 3, "g_b": 0.01,
                 "gamma_c": 0.1, "gamma_b": 0.1, "Gamma": 0.1, "xi": 1.0},
    "parallel": {"family": "parallel", "variant": "custom", "n": 2, "g_b": 0.02,
                 "gamma_c": 0.2, "gamma_b": [0.1, 0.1], "Gamma": 0.5,
                 "xi": [0.5, -1.0], "thetas": [0.4, 0.4]},
    # n sweeps of per-battery lists that differ are refused (see below)
    "heterogeneous": {"family": "parallel", "variant": "custom", "n": 3,
                      "g_b": 0.02, "gamma_c": 0.1, "gamma_b": [0.1, 0.2, 0.4],
                      "Gamma": 0.3, "xi": 1.0, "thetas": [0.0, -1.0, 2.0]},
    # undamped batteries: r1 is refused, and nr peaks on its scan's edge at
    # g_b = 100
    "edge": {"family": "parallel", "variant": "nr", "n": 2, "g_b": 100.0,
             "gamma_c": 0.001, "gamma_b": 0.0, "Gamma": 1.0, "xi": 1.0},
}

#: gamma = 0 and gamma_c = 0 include undamped (refused) points
GRIDS = {"g_b": [0.001, 0.05, 100.0], "gamma": [0.0, 0.05, 0.3],
         "gamma_c": [0.0, 0.1], "Gamma": [0.05, 1.0], "xi": [0.0, -2.0, 1.5],
         "n": [1, 2, 3], "theta": [0.0, -math.pi / 2, 3.5]}

ORDERS = [("steady_energy",), ("gains", "max_power"),
          ("max_power", "steady_energy", "gains")]

CASES = [(name, variable, order)
         for name, variable, order in itertools.product(TOPOLOGIES, GRIDS, ORDERS)
         if (name, variable) != ("heterogeneous", "n")]


def sweep_doc(name, variable, order):
    doc = {"topology": TOPOLOGIES[name],
           "sweep": {"variable": variable, "values": GRIDS[variable]},
           "observables": list(order)}
    if variable == "theta":
        doc["sweep"]["index"] = 1
        if doc["topology"]["variant"] == "nr":  # nr fixes its phases: free them
            doc["topology"] = {**doc["topology"], "variant": "custom",
                               "thetas": [-math.pi / 2] * doc["topology"]["n"]}
    if order == ORDERS[1]:
        doc["target"] = "b_1"
    return doc


def outputs(table):
    return (table_to_csv_text(table, deterministic=True),
            table_to_json_text(table, deterministic=True), table.errors)


@pytest.mark.parametrize("name, variable, order", CASES,
                         ids=["-".join((n, v, *o)) for n, v, o in CASES])
def test_sweep_equals_the_per_point_reference(name, variable, order):
    cfg = parse_run_config(sweep_doc(name, variable, order))
    assert outputs(run_sweep(cfg)) == outputs(reference_sweep(cfg))


def test_reference_cases_include_refused_and_edge_points():
    messages = [error for case in CASES
                for _, _, error in run_sweep(parse_run_config(sweep_doc(*case))).errors]
    assert any("not strictly decaying" in m for m in messages)
    assert any("grid edge" in m for m in messages)
    assert any(m.startswith("undefined ratio") for m in messages)


def test_gains_are_read_at_the_sweep_target():
    # a battery short of the chain's end: E_nr is the steady_energy column
    # bit for bit, and G1 the ratio of the nr and r1 energies at b_1
    topology, values = TOPOLOGIES["cascaded"], [0.01, 0.05, 0.3]
    table = run_sweep(parse_run_config({
        "topology": topology, "target": "b_1", "observables": ["steady_energy", "gains"],
        "sweep": {"variable": "g_b", "values": values}}))
    assert len(table.rows) == len(values)
    for value, row in zip(values, table.rows):
        got = dict(zip(table.columns, row))
        params = TopologyParams(**{**topology, "g_b": value})
        assert got["E_nr"].hex() == got["steady_energy"].hex()
        assert got["G1"] == (steady_energy(params, "b_1")
                             / steady_energy(params.with_variant("r1"), "b_1"))


BASE = {"family": "cascaded", "variant": "nr", "n": 2, "g_b": 0.01,
        "gamma_c": 0.1, "gamma_b": 0.1, "Gamma": 0.1, "xi": 1.0}
TOPOLOGY = parse_run_config({"topology": BASE}).topology
CUSTOM = parse_run_config(
    {"topology": {**BASE, "variant": "custom", "thetas": [0.3, 0.3]}}).topology
#: each valid alone, but g_b * Gamma overflows at 1e200 on the other axis
LOSSY = dataclasses.replace(TOPOLOGY, Gamma=1e200)
#: a theta sweep needs free phases
R1 = dataclasses.replace(TOPOLOGY, variant="r1")
STRONG = dataclasses.replace(TOPOLOGY, variant="r1", g_b=1e200)


def parsed(variable, values):
    return parse_run_config({"topology": BASE,
                             "sweep": {"variable": variable, "values": values}})


def built(variable, values, index=None, topology=TOPOLOGY):
    return RunConfig(topology, SweepSpec(variable, tuple(values), index))


@pytest.fixture
def no_assembly(monkeypatch):
    def refuse(*args):
        raise AssertionError("a matrix was assembled")
    monkeypatch.setattr(qbnet.dynamics, "_fill", refuse)


@pytest.mark.parametrize("cfg, kind, message", [
    (parsed("g_b", [0.01, -0.5, -1.0]), ValidationError,
     "g_b must be a finite rate >= 0, got -0.5"),
    (parsed("gamma", [0.1, -1.0]), ValidationError,
     "gamma_c must be a finite rate >= 0, got -1.0; "
     "gamma_b entries must be finite rates >= 0, got (-1.0, -1.0)"),
    (parsed("Gamma", [0.1, -0.3]), ValidationError,
     "Gamma must be a finite rate >= 0, got -0.3"),
    (parsed("n", [1, 2.5]), ValueError, "n sweep values must be integers, got 2.5"),
    (parsed("n", [0, 1]), ValidationError,
     "battery count n must be an integer >= 1, got 0"),
    (built("theta", [0.0], index=0, topology=R1), ValueError,
     "theta sweeps need index in 1..2"),
    (built("theta", [0.0], index=3, topology=R1), ValueError,
     "theta sweeps need index in 1..2"),
    (built("theta", [0.0], index=1), ValueError,
     "theta sweeps need a variant in ('r1', 'custom'), got 'nr'"),
    (built("g_b", [0.01, math.nan]), ValidationError,
     "g_b must be a finite rate >= 0, got nan"),
    (built("xi", [1.0, math.inf]), ValidationError, "xi must be finite, got (inf+0j)"),
    (built("theta", [0.5, math.nan, math.inf], index=2, topology=R1), ValidationError,
     "thetas entries must be finite, got (0.0, nan)"),
    (built("theta", [-math.inf, 0.5], index=1, topology=CUSTOM), ValidationError,
     "thetas entries must be finite, got (-inf, 0.3)"),
    (built("g_b", [0.01, 1e200, 1e300], topology=LOSSY), ValidationError,
     "the matched coupling sqrt(g_b * Gamma / 2) overflows at g_b=1e+200, Gamma=1e+200"),
    (built("Gamma", [0.1, 1e300], topology=STRONG), ValidationError,
     "the matched coupling sqrt(g_b * Gamma / 2) overflows at g_b=1e+200, Gamma=1e+300"),
], ids=["g_b", "gamma", "Gamma", "n-fraction", "n-zero", "theta-0", "theta-3",
        "theta-nr", "g_b-nan", "xi-inf", "theta-nan", "theta-inf", "g_b-overflow",
        "Gamma-overflow"])
def test_invalid_grid_raises_before_assembly(cfg, kind, message, no_assembly):
    with pytest.raises(ValueError) as err:
        run_sweep(cfg)
    assert type(err.value) is kind
    assert str(err.value) == message


@pytest.mark.parametrize("variable", sorted(GRIDS))
def test_empty_grid_builds_no_batch(variable, no_assembly):
    table = run_sweep(built(variable, [], index=0 if variable == "theta" else None))
    assert table.rows == [] and table.errors == []


HETEROGENEOUS = {"family": "parallel", "variant": "nr", "n": 3, "g_b": 0.01,
                 "gamma_c": 0.1, "gamma_b": [0.1, 0.2, 0.4], "Gamma": 0.1,
                 "xi": 1.0}


def test_n_sweep_at_the_own_count_keeps_per_battery_decays():
    cfg = parse_run_config({"topology": HETEROGENEOUS, "target": "b_3",
                            "sweep": {"variable": "n", "values": [3]}})
    assert run_sweep(cfg).rows == [[3.0, steady_energy(cfg.topology, "b_3")]]


@pytest.mark.parametrize("field, values", [("gamma_b", [0.1, 0.2, 0.4]),
                                           ("thetas", [0.0, 1.0, 2.0])])
def test_n_sweep_refuses_heterogeneous_lists(field, values):
    topology = {**HETEROGENEOUS, "variant": "custom", "gamma_b": 0.1,
                "thetas": [0.5] * 3, field: values}
    cfg = parse_run_config({"topology": topology,
                            "sweep": {"variable": "n", "values": [3, 2]}})
    with pytest.raises(ConfigError, match=field):
        run_sweep(cfg)


def test_n_sweep_resizes_as_the_command_line_does(tmp_path, capsys):
    topology = {**HETEROGENEOUS, "variant": "custom", "gamma_b": [0.2] * 3,
                "thetas": [0.5] * 3}
    config = tmp_path / "topology.json"
    config.write_text(json.dumps(topology))
    energies = {}
    for n in (1, 4):
        assert cli_main(["steady", "--config", str(config), "--n", str(n),
                         "--target", "b_1"]) == 0
        energies[n] = float(capsys.readouterr().out.split("=")[1])
    cfg = parse_run_config({"topology": topology, "target": "b_1",
                            "sweep": {"variable": "n", "values": [1, 4]}})
    assert run_sweep(cfg).rows == [[1.0, energies[1]], [4.0, energies[4]]]


def test_unit_drive_peaks_reuse_the_assembled_matrices(monkeypatch):
    calls = []
    fill = qbnet.dynamics._fill
    monkeypatch.setattr(qbnet.dynamics, "_fill",
                        lambda *args: calls.append(1) or fill(*args))
    max_power(TopologyParams("cascaded", "nr", 3, 0.01, 0.1, 0.1, 0.1, 2.0))
    assert len(calls) == 1
