"""Stage microbenchmarks of one steady solve on cascaded ``nr`` chains.

Each stage of ``steady_energy`` is timed on its own at n = 3, 40 and 500
batteries (7, 81 and 1001 modes): building the network spec, validating
it, assembling the dense matrix, the stability check's ``eigvals``, the
condition check's ``cond``, the dense solve, the whole ``steady_energy``
and the closed route.  A stage whose function has gone from qbnet is
reported as missing with time 0.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SIZES = (3, 40, 500)
#: seconds of repeated calls per stage; a slower single call is timed once
BUDGET_S = 0.2
BATCHES = 5

#: Baselines the project roadmap quotes for these stages (2-core machine).
ROADMAP_BASELINE_US = {"micro.steady_energy.n3_us": 139.0, "micro.solve.n3_us": 13.0,
                       "micro.eigvals.n3_us": 47.0, "micro.cond.n3_us": 33.0,
                       "micro.eigvals.n500_us": 2.46e6, "micro.cond.n500_us": 0.51e6,
                       "micro.solve.n500_us": 43e3}


def _stage_calls(qbnet, n):
    params = qbnet.TopologyParams("cascaded", "nr", n, 0.01, 0.1, 0.1, 0.1, 1.0)
    spec = qbnet.build_network(params)
    system = qbnet.assemble(spec)
    matrix, rhs = system.matrix, -system.drive
    calls = {
        "build": ("build_network", lambda f: f(params)),
        "validate": ("validate", lambda f: f(spec)),
        "assemble": ("assemble", lambda f: f(spec)),
        "steady_energy": ("steady_energy", lambda f: f(params)),
        "closed": ("effective_steady_energy", lambda f: f(params)),
    }
    out = {"eigvals": lambda: np.linalg.eigvals(matrix),
           "cond": lambda: np.linalg.cond(matrix),
           "solve": lambda: np.linalg.solve(matrix, rhs)}
    for stage, (attr, call) in calls.items():
        fn = getattr(qbnet, attr, None)
        out[stage] = None if fn is None else (lambda fn=fn, call=call: call(fn))
    return out


def time_call(fn):
    """Median seconds per call over ``BATCHES`` batches sized to the budget."""
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    if first * BATCHES >= BUDGET_S:
        return first
    per_batch = max(1, int(BUDGET_S / BATCHES / max(first, 1e-9)))
    means = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(per_batch):
            fn()
        means.append((time.perf_counter() - start) / per_batch)
    return statistics.median(means)


def run(qbnet):
    """``({micro.<stage>.n<N>_us: value}, [missing stages])``."""
    metrics, missing = {}, []
    for n in SIZES:
        for stage, fn in _stage_calls(qbnet, n).items():
            key = f"micro.{stage}.n{n}_us"
            if fn is None:
                missing.append(key)
                metrics[key] = 0.0
            else:
                metrics[key] = time_call(fn) * 1e6
    return metrics, missing
