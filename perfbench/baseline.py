"""Run the benchmark over several seeds and summarise it as a baseline.

Run from the repository root::

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline_seed.json

For every workload: one untraced run per seed, then one traced run.  The
summary holds each end-to-end metric's per-seed values, median, quartiles
(``statistics.quantiles(values, n=4)``) and quartile spread as a share of
the median, next to the metric's bound; and the per-layer metrics of the
traced run.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, trace):
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]),
                              "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    result["run_s"] = elapsed
    return result


def summarise(values, bound):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "bound": bound}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "workloads": {}}
    for name in names:
        runs = []
        for seed in args.seeds:
            result = run_once(spec, name, seed, 0)
            runs.append(result)
            print(f"{name} seed {seed}: exit {result['exit_code']} "
                  f"failed {result['failed']}/{result['attempted']} "
                  f"{result['run_s']:.1f} s "
                  + " ".join(f"{k}={v['value']:.5g}"
                             for k, v in result["metrics"].items()), flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_s_max": max(r["run_s"] for r in runs),
            "end_to_end": {m: summarise([r["metrics"][m]["value"] for r in runs],
                                        bounds[m]) for m in bounds},
        }
        for metric, s in entry["end_to_end"].items():
            print(f"  {metric:<12} median {s['median']:.5g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']})", flush=True)
        traced = run_once(spec, name, args.seeds[0], 1)
        entry["traced_seed"] = args.seeds[0]
        entry["traced_failed"] = traced["failed"]
        entry["traced_run_s"] = traced["run_s"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][name] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if all(w["failed"] == 0 for w in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
