"""Self-tests of the benchmark: its checks catch bad output, its tracer
leaves qbnet as it found it, and it refuses to run without qbnet.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys

import numpy as np

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import env  # noqa: E402

qbnet = env.bootstrap()

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bindings():
    """Every function bound on a qbnet module or numpy.linalg, by identity."""
    out = {}
    for mod in tracing.qbnet_modules(qbnet) + [np.linalg]:
        for attr, obj in vars(mod).items():
            if callable(obj):
                out[(mod.__name__, attr)] = obj
    return out


class OnePanel(workloads.SteadyDatasets):
    """fig2b only; ``corrupt`` scales one energy in the written CSV."""

    corrupt = False

    def operations(self, pass_index, out):
        op = self.panel_op("fig2b", out, self.full_check("fig2b"))
        call = op.call

        def corrupting_call():
            code = call()
            if self.corrupt:
                path = os.path.join(out, "fig2b.csv")
                with open(path, encoding="utf-8") as fh:
                    lines = fh.readlines()
                cells = lines[-1].rstrip("\n").split(",")
                cells[1] = repr(float(cells[1]) * (1 + 1e-6))
                lines[-1] = ",".join(cells) + "\n"
                with open(path, "w", encoding="utf-8") as fh:
                    fh.writelines(lines)
            return code

        op.call = corrupting_call
        return [op]


class FewQueries(workloads.Queries):
    """A dozen calls of the queries mix, for fast tests."""

    def operations(self, pass_index, out):
        return super().operations(pass_index, out)[:12]


def test_panel_passes_then_corruption_fails(tmp_path):
    workload = OnePanel(seed=3)
    assert run.run_pass(workload, 0, str(tmp_path)).failed == 0
    workload.corrupt = True
    record = run.run_pass(workload, 1, str(tmp_path))
    assert (record.attempted, record.failed) == (1, 1)
    fresh = OnePanel(seed=3)
    fresh.corrupt = True
    record = run.run_pass(fresh, 0, str(tmp_path))
    assert record.failed == 1
    assert "dense" in record.messages[0]


def test_wrong_api_result_fails(tmp_path, monkeypatch):
    original = qbnet.steady_energy
    monkeypatch.setattr(qbnet, "steady_energy",
                        lambda p, t=None: original(p, t) * (1 + 1e-6))
    record = run.run_pass(FewQueries(seed=4), 0, str(tmp_path))
    steady = sum(1 for m in record.messages if m.startswith("steady_energy"))
    assert record.failed == steady > 0


def test_raising_call_fails_without_stopping_the_pass(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(qbnet, "gain_report", broken)
    record = run.run_pass(FewQueries(seed=4), 0, str(tmp_path))
    assert record.attempted == 12
    assert 0 < record.failed < 12
    assert any("RuntimeError: boom" in m for m in record.messages)


def test_missing_refusal_fails(tmp_path):
    workload = workloads.SteadyDatasets(seed=5)
    op = workload.sweep_op(workload.rng(0), str(tmp_path), 6, 2)
    code = op.call()
    assert op.check(code) == []
    os.remove(tmp_path / "sweep_gamma_errors.csv")
    assert any("refused" in m for m in op.check(code))


def test_sampler_cuts_out_and_scales():
    sampler = speed.Sampler()
    # samples of 2x the reference time at 1.0, 2.0, ..., 6.0
    sampler.starts = [k - 2 * speed.REFERENCE_S for k in range(1, 7)]
    sampler.ends = [float(k) for k in range(1, 7)]
    busy = 2 * 2 * speed.REFERENCE_S
    assert abs(sampler.busy(1.5, 3.5) - busy) < 1e-12
    assert abs(sampler.scaled(1.5, 3.5) - (2.0 - busy) / 2) < 1e-12
    assert len(sampler.starts) == 6


def test_sampled_pass_reports_scaled_times(tmp_path):
    with speed.Sampler() as sampler:
        record = run.run_pass(FewQueries(seed=7), 0, str(tmp_path), sampler=sampler)
    assert record.failed == 0
    assert len(sampler.ends) >= 2
    assert abs(record.wall - sum(record.latencies)) < 1e-9
    assert record.wall > 0 and record.raw_wall > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_independent_propagator_matches_steady_state():
    params = checks.topology("cascaded", "nr", 3, 0.01, 0.1, 0.1, 1.0)
    m, d, index = checks.network_matrix(params)
    late = checks.vacuum_response(m, d, 1e4)
    assert np.allclose(late, np.linalg.solve(m, -d), rtol=1e-10, atol=1e-14)
    closed = checks.closed_energies(params)[3]
    assert abs(abs(late[index["b_3"]]) ** 2 - closed) <= 1e-9 * closed


def test_tracer_restores_every_binding(tmp_path):
    before = _bindings()
    tracer = tracing.Tracer(qbnet, {"observables.steady_energy"})
    record = run.run_pass(FewQueries(seed=6), 0, str(tmp_path), tracer)
    after = _bindings()
    assert record.failed == 0
    assert tracer.spans
    assert before.keys() == after.keys()
    assert all(after[key] is before[key] for key in before)


def test_missing_name_is_reported_not_raised():
    tracer = tracing.Tracer(qbnet, {"observables.steady_energy",
                                    "observables.renamed_away"})
    with tracer:
        qbnet.steady_energy(checks.topology("cascaded", "nr", 1, 0.01, 0.1, 0.1, 1.0))
    assert tracer.missing == ["observables.renamed_away"]
    assert tracer.layer_metrics()["observables.steady_energy.calls"] == 1


def test_exact_counts():
    regime = checks.STRONG_INTERMEDIATE
    power = checks.topology("cascaded", "nr", 4, 5e-6, regime["gamma"],
                            regime["Gamma"], regime["xi"])
    star = checks.topology("parallel", "r2", 5, 0.01, 0.1, 0.1, 1.0)
    tracer = tracing.Tracer(qbnet)
    with tracer:
        qbnet.max_power(power, "b_4")
        qbnet.gain_report(star)
    m = tracer.layer_metrics()
    assert m["observables.max_power.expm_per_call"] == 2033
    assert m["observables.gain_report.parallel_steady_energy_per_n"] == 3
    assert m["linalg.expm.calls"] == 2033


def test_refuses_to_run_without_qbnet(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(env.ROOT, "BENCHMARK.json"), tmp_path)
    command = json.load(open(tmp_path / "BENCHMARK.json"))["command"]
    proc = subprocess.run(
        [sys.executable] + command[1:] + ["--workload", "queries", "--seed", "1",
                                          "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
