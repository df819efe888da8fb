"""qbnet benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload queries --seed 1 --seconds 20 --trace 0

Each run is one closed-loop client in one process: every call starts when
the previous one has returned.  ``QBNET_THREADS`` is removed from the
environment (its value is recorded), so qbnet runs serially; numpy's and
scipy's OpenBLAS run on one thread (see ``env.py``); both are recorded.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``setup_s`` is the median over fresh processes of importing qbnet and one
warm-up call per entry point the workload uses; then untimed warm-up in
this process, and passes over the workload's operation set until
``--seconds`` of passes are timed.  ``wall_s`` is the median pass,
``call_p*_ms`` the percentiles of single public calls over all passes,
``peak_rss_mb`` this process's peak resident memory.  Every time is
scaled to the reference machine speed by ``speed.Sampler``.

``--trace 1`` reports the per-layer metrics: untraced passes for half of
``--seconds``, one traced pass (see ``tracing.py``; spans are written to
``.perfbench/spans-<workload>.csv``), one more untraced pass, then the
stage microbenchmarks of ``micro.py``.  ``trace.overhead_share`` is the
traced pass's wall time over the mean of the two untraced passes around
it, minus one.

Every operation's output is checked after its pass, outside the timed
region (see ``checks.py``).  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is 1 when any check failed, 2 when the checkout has no qbnet
sources (then nothing is printed on standard output).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import env
import micro
import speed
import tracing

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150
FAILURES_SHOWN = 5


@dataclass
class PassRecord:
    wall: float
    latencies: list
    attempted: int
    failed: int
    messages: list
    raw_wall: float


def run_pass(workload, index, work_dir, tracer=None, sampler=None) -> PassRecord:
    """Time one pass over the workload's operations, then check them.

    With a tracer, its wrappers are installed for the timed loop only.
    With an active ``speed.Sampler``, each call's time is scaled to the
    reference machine speed, and the pass's wall time is their sum;
    without one, times are as measured.
    """
    out = os.path.join(work_dir, f"pass{index}")
    os.makedirs(out)
    ops = workload.operations(index, out)
    results, errors, stamps = [None] * len(ops), {}, []
    clock = time.perf_counter
    traced = contextlib.nullcontext() if tracer is None else tracer
    with contextlib.redirect_stdout(io.StringIO()), traced:
        begin = clock()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.request = i
            start = clock()
            try:
                results[i] = op.call()
            except Exception as exc:  # fails this operation, not the run
                errors[i] = [f"{op.label}: {type(exc).__name__}: {exc}"]
            stamps.append((start, clock()))
        raw_wall = clock() - begin
    if sampler is None:
        latencies, wall = [b - a for a, b in stamps], raw_wall
    else:
        latencies = [sampler.scaled(a, b) for a, b in stamps]
        wall = sum(latencies)
    failed, messages = 0, []
    for i, op in enumerate(ops):
        try:
            found = errors.get(i) or op.check(results[i])
        except Exception as exc:  # a check that cannot run fails its operation
            found = [f"{op.label}: check raised {type(exc).__name__}: {exc}"]
        if found:
            failed += 1
            messages += found
    shutil.rmtree(out)
    return PassRecord(wall, latencies, len(ops), failed, messages, raw_wall)


def measure_setup(workload, work_dir):
    """Median seconds of ``SETUP_PROBES`` fresh-process set-ups."""
    times = []
    for k in range(SETUP_PROBES):
        out = os.path.join(work_dir, f"probe{k}")
        proc = subprocess.run(
            [sys.executable, os.path.join(env.HERE, "probe.py"), workload, out],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=env.ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def end_to_end(passes, setup_s):
    """The median pass wall time, and call latency percentiles over the
    calls of all passes (pooled, so the n=100 tail of ``queries`` gives
    p99 hundreds of samples rather than 40 per pass)."""
    import numpy as np

    latencies = np.array([t for p in passes for t in p.latencies]) * 1e3
    p50, p90, p99 = (float(q) for q in np.percentile(latencies, [50, 90, 99]))
    calls = [len(p.latencies) for p in passes]
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "call_p50_ms": p50,
        "call_p90_ms": p90,
        "call_p99_ms": p99,
    }, {
        "walls": [round(p.wall, 4) for p in passes],
        "raw_walls": [round(p.raw_wall, 4) for p in passes],
        "calls": calls[0],
        "samples": len(latencies),
        "above_p99": int(np.sum(latencies > p99)),
    }


def traced_metrics(qbnet, workload, passes, work_dir, names):
    """A traced pass between two untraced ones, the microbenchmarks, and
    the per-layer metrics."""
    expected = {n[: -len(".calls")] for n in names
                if n.endswith(".calls") and n.count(".") == 2}
    tracer = tracing.Tracer(qbnet, expected)
    traced = run_pass(workload, len(passes), work_dir, tracer)
    after = run_pass(workload, len(passes) + 1, work_dir)
    tracer.write_spans(os.path.join(env.ROOT, ".perfbench",
                                    f"spans-{workload.name}.csv"))
    metrics = tracer.layer_metrics()
    micro_metrics, micro_missing = micro.run(qbnet)
    metrics.update(micro_metrics)
    metrics["trace.overhead_share"] = (
        2.0 * traced.wall / (passes[-1].wall + after.wall) - 1.0)
    for name in tracer.missing + micro_missing:
        print(f"perfbench: traced name missing: {name}", file=sys.stderr)
    return [traced, after], metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("steady_datasets", "power", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    qbnet_threads = os.environ.pop("QBNET_THREADS", None)
    try:
        qbnet = env.bootstrap()
    except env.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    facts = env.machine_facts(args.seed, qbnet_threads)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    work_dir = os.path.join(env.ROOT, ".perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        setup_s = None if args.trace else measure_setup(args.workload, work_dir)
        warm = os.path.join(work_dir, "warm")
        with contextlib.redirect_stdout(io.StringIO()):
            workload.warm_up(warm)
        budget = args.seconds / 2 if args.trace else args.seconds
        passes = []
        with contextlib.nullcontext() if args.trace else speed.Sampler() as sampler:
            while not passes or sum(p.raw_wall for p in passes) < budget:
                passes.append(run_pass(workload, len(passes), work_dir,
                                       sampler=sampler))
        checked = list(passes)
        if args.trace:
            extra, metrics = traced_metrics(qbnet, workload, passes, work_dir, units)
            checked += extra
        else:
            metrics, counts = end_to_end(passes, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    messages = [m for p in checked for m in p.messages]
    for message in messages[:FAILURES_SHOWN]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    if args.trace:
        metrics["check.failed_share"] = failed / attempted
        metrics["machine.nproc"] = facts["nproc"]
        metrics["machine.blas_threads"] = facts["blas_threads"]
        threads = facts["QBNET_THREADS"]
        # 0 when unset, -1 when set to something that is not a count
        metrics["machine.qbnet_threads"] = (
            0 if threads == "unset" else int(threads) if threads.isdigit() else -1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"failed_share {failed}/{attempted} = {failed / attempted:.6g} "
          f"(operations failed / attempted)")
    if not args.trace:
        print(f"passes {len(counts['walls'])}, wall s {counts['walls']} "
              f"(as measured {counts['raw_walls']}); "
              f"{counts['calls']} calls per pass; {counts['samples']} call "
              f"samples, {counts['above_p99']} above p99")
    for name, unit in units.items():
        quoted = micro.ROADMAP_BASELINE_US.get(name)
        note = "" if quoted is None else f"  (roadmap baseline {quoted:g} us)"
        print(f"  {name:<52} {metrics.get(name, 0.0):>14.6g} {unit}{note}")
    out = {name: {"value": metrics.get(name, 0.0), "unit": unit}
           for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
