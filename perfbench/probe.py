"""Set-up probe, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/probe.py <workload> <output dir>``.  Prints
the seconds spent importing qbnet plus one warm-up call of each entry
point the workload uses, scaled to the reference machine speed by
``speed.Sampler``.  Importing the benchmark's own modules is not counted.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time

import env
import speed


def main(workload, out):
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        env.bootstrap()
        import qbnet.cli  # noqa: F401  (the CLI entry point is part of set-up)
        imported = sampler.scaled(start, time.perf_counter())

        import workloads

        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            workloads.WORKLOADS[workload](seed=0).warm_up(out)
        warmed = sampler.scaled(start, time.perf_counter())
    print(imported + warmed)


if __name__ == "__main__":
    main(*sys.argv[1:3])
