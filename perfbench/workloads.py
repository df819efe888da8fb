"""The benchmark's workloads: seeded operation sets and their checks.

A workload yields, for each pass, a list of ``Op``: one public call into
qbnet (``qbnet.cli.cli_main(argv)`` or an API function, looked up on its
module at call time so the tracer's wrappers are seen) plus the check of
its result, which runs after the pass, outside the timed region.  The
seed picks generated parameters, order and checked samples; the shares
of the mix are fixed.  Pass ``k`` draws fresh parameters from
``(seed, k)``, so no pass repeats another's inputs.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import qbnet
import qbnet.cli

import checks

STEADY_PANELS = ("fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig2f",
                 "fig3a", "fig3b", "fig3c")
POWER_PANELS = ("fig3d", "fig4a", "fig4b", "fig4c", "fig4d")
FAMILIES = ("cascaded", "parallel")
ALL_VARIANTS = ("r1", "r2", "nr", "custom")

#: steady_datasets: sweep size and its fixed share of undamped points
SWEEP_POINTS = 200
SWEEP_UNDAMPED = 20
#: power: sampled rows per charging-curve panel, per max-power gain panel
CURVE_ROWS_CHECKED = 16
ETA_ROWS_CHECKED = 2
#: queries: calls per (family, variant, n in 1..8, call) cell, and the
#: large-n tail (3% of the 1,320 calls per pass)
QUERY_REPEATS = 10
QUERY_TAIL = 40
QUERY_TAIL_N = 100


@dataclass
class Op:
    """One public call; ``check(result)`` returns failure messages."""

    label: str
    call: Callable
    check: Callable


def cli(*argv) -> int:
    return qbnet.cli.cli_main([str(a) for a in argv])


def _expect_ok(code):
    return [] if code == 0 else [f"exit code {code}"]


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _drive(rng):
    return _log_uniform(rng, 0.5, 2.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


class Workload:
    """Base: seeded RNG per pass and byte-identity of fixed panels.

    A fixed reference panel is checked in full the first time it is
    produced; in later passes its ``--deterministic`` CSV must be
    byte-identical to that first output.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.digests = {}

    def rng(self, pass_index: int, purpose: str = "") -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{pass_index}/{purpose}")

    def panel_op(self, fig, out, full_check) -> Op:
        path = os.path.join(out, f"{fig}.csv")

        def check(code):
            if code != 0:
                return [f"figure {fig}: exit code {code}"]
            digest = _digest(path)
            if fig not in self.digests:
                failures = full_check(path)
                if not failures:
                    self.digests[fig] = digest
                return failures
            if digest != self.digests[fig]:
                return [f"figure {fig}: output differs from the first pass"]
            return []

        return Op(f"figure {fig}", lambda: cli("figure", fig, "--out", out,
                                               "--deterministic"), check)

    def operations(self, pass_index: int, out: str) -> list:
        raise NotImplementedError

    def warm_up(self, out: str) -> None:
        raise NotImplementedError


class SteadyDatasets(Workload):
    """The nine steady reference panels plus one seeded gamma sweep."""

    name = "steady_datasets"

    def full_check(self, fig):
        kinds = {
            "fig2a": lambda p: checks.check_landscape_panel(p, "cascaded"),
            "fig3a": lambda p: checks.check_landscape_panel(p, "parallel"),
            "fig2b": lambda p: checks.check_energy_panel(p, "cascaded", 3),
            "fig2c": lambda p: checks.check_energy_panel(p, "cascaded", 4),
            "fig3b": lambda p: checks.check_energy_panel(p, "parallel", 2),
            "fig2d": lambda p: checks.check_gain_panel(p, "cascaded", 3),
            "fig2e": lambda p: checks.check_gain_panel(p, "cascaded", 4),
            "fig3c": lambda p: checks.check_gain_panel(p, "parallel", 2),
            "fig2f": checks.check_fig2f,
        }
        return kinds[fig]

    def sweep_config(self, rng, points, undamped):
        """A cascaded nr n=4 sweep of uniform decay; ``undamped`` of the
        ``points`` grid values are exactly 0 at seeded positions."""
        xi = _drive(rng)
        topo = {"family": "cascaded", "variant": "nr", "n": 4,
                "g_b": _log_uniform(rng, 0.002, 0.05), "gamma_c": 0.1,
                "gamma_b": 0.1, "Gamma": _log_uniform(rng, 0.01, 1.0),
                "xi": [xi.real, xi.imag]}
        zeros = set(rng.sample(range(points), undamped))
        values = [0.0 if i in zeros else _log_uniform(rng, 0.01, 1.0)
                  for i in range(points)]
        doc = {"topology": topo, "sweep": {"variable": "gamma", "values": values},
               "observables": ["steady_energy", "gains"]}
        return doc, topo, values

    def sweep_op(self, rng, out, points, undamped) -> Op:
        doc, topo, values = self.sweep_config(rng, points, undamped)
        config = os.path.join(out, "sweep.json")
        _write_json(config, doc)

        def check(code):
            return _expect_ok(code) or checks.check_sweep(
                os.path.join(out, "sweep_gamma.csv"),
                os.path.join(out, "sweep_gamma_errors.csv"), topo, values)

        return Op("sweep", lambda: cli("sweep", "--config", config, "--out", out,
                                       "--deterministic"), check)

    def operations(self, pass_index, out):
        ops = [self.panel_op(fig, out, self.full_check(fig)) for fig in STEADY_PANELS]
        ops.append(self.sweep_op(self.rng(pass_index), out, SWEEP_POINTS,
                                 SWEEP_UNDAMPED))
        return ops

    def warm_up(self, out):
        cli("figure", "fig2f", "--out", out, "--deterministic")
        self.sweep_op(self.rng(-1), out, 3, 1).call()


class Power(Workload):
    """Charging-curve and max-power panels plus one seeded ``gains --power``."""

    name = "power"

    def full_check(self, fig):
        if fig in checks.CURVE_PANELS:
            size = checks.CURVE_PANELS[fig][3].size
            rows = sorted(self.rng(0, fig).sample(range(size), CURVE_ROWS_CHECKED))
            return lambda p: checks.check_curve_panel(p, fig, rows)
        family = "cascaded" if fig == "fig4c" else "parallel"
        rows = sorted(self.rng(0, fig).sample(range(checks.POWER_GAIN_GRID.size),
                                              ETA_ROWS_CHECKED))
        return lambda p: checks.check_eta_panel(p, family, rows)

    def gains_op(self, rng, out, n) -> Op:
        """A fig4-regime star (gamma 5e-4, Gamma 1) with per-battery decays."""
        regime = checks.STRONG_INTERMEDIATE
        gamma = regime["gamma"]
        params = checks.topology(
            "parallel", "nr", n, gamma * _log_uniform(rng, 1e-3, 0.1), gamma,
            regime["Gamma"], regime["xi"],
            gamma_b=[gamma * _log_uniform(rng, 0.5, 2.0) for _ in range(n)])
        config = os.path.join(out, "gains.json")
        _write_json(config, {"topology": qbnet.topology_to_dict(params)})

        def check(code):
            return _expect_ok(code) or checks.check_gains_power(
                os.path.join(out, "gains.csv"), params)

        return Op("gains --power", lambda: cli("gains", "--config", config, "--power",
                                               "--out", out, "--deterministic"), check)

    def operations(self, pass_index, out):
        ops = [self.panel_op(fig, out, self.full_check(fig)) for fig in POWER_PANELS]
        ops.append(self.gains_op(self.rng(pass_index), out, 3))
        return ops

    def warm_up(self, out):
        cli("figure", "fig4a", "--out", out, "--deterministic")
        self.gains_op(self.rng(-1), out, 1).call()


class Queries(Workload):
    """Independent API calls from one closed-loop client.

    Per pass: every (family, variant, n in 1..8, steady_energy or
    gain_report) cell ``QUERY_REPEATS`` times, plus ``QUERY_TAIL``
    ``steady_energy`` calls at n = 100 alternating families and cycling
    variants, shuffled.
    """

    name = "queries"

    def params(self, rng, family, variant, n):
        gamma = 0.1
        thetas = (tuple(rng.uniform(-math.pi, math.pi) for _ in range(n))
                  if variant == "custom" else None)
        return checks.topology(
            family, variant, n, gamma * _log_uniform(rng, 1e-3, 3.0), gamma,
            gamma * _log_uniform(rng, 0.1, 100.0), _drive(rng),
            gamma_b=[gamma * _log_uniform(rng, 0.5, 2.0) for _ in range(n)],
            thetas=thetas)

    def steady_op(self, rng, family, variant, n) -> Op:
        params = self.params(rng, family, variant, n)
        battery = rng.randint(1, n)
        return Op(f"steady_energy n={n}",
                  lambda: qbnet.steady_energy(params, f"b_{battery}"),
                  lambda value: checks.check_steady_call(params, battery, value))

    def gain_op(self, rng, family, variant, n) -> Op:
        params = self.params(rng, family, variant, n)
        return Op(f"gain_report n={n}", lambda: qbnet.gain_report(params),
                  lambda report: checks.check_gain_report(params, report))

    def operations(self, pass_index, out):
        rng = self.rng(pass_index)
        ops = []
        for family in FAMILIES:
            for variant in ALL_VARIANTS:
                for n in range(1, 9):
                    for _ in range(QUERY_REPEATS):
                        ops.append(self.steady_op(rng, family, variant, n))
                        ops.append(self.gain_op(rng, family, variant, n))
        for i in range(QUERY_TAIL):
            ops.append(self.steady_op(rng, FAMILIES[i % 2],
                                      ALL_VARIANTS[(i // 2) % 4], QUERY_TAIL_N))
        rng.shuffle(ops)
        return ops

    def warm_up(self, out):
        rng = self.rng(-1)
        self.steady_op(rng, "cascaded", "nr", 2).call()
        self.gain_op(rng, "parallel", "nr", 2).call()


WORKLOADS = {w.name: w for w in (SteadyDatasets, Power, Queries)}
