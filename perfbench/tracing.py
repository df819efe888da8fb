"""Traced run: wrap qbnet's public functions from outside and record spans.

``Tracer.install`` replaces every public function of every ``qbnet.*``
module at each module attribute that binds it (``max_power`` is bound in
``qbnet.observables``, ``qbnet.figures``, ``qbnet.sweep``, ``qbnet.cli``
and ``qbnet``), plus the numpy/scipy kernels qbnet calls: ``expm`` and
``solve_ivp`` where qbnet binds them, and ``eigvals``, ``cond`` and
``solve`` on ``numpy.linalg``, which qbnet looks up at call time.  A
span is ``(name, start, end, parent, request)``; spans stay in memory
until ``write_spans``.  ``uninstall`` restores every original binding.

Layers are the qbnet module names (``_threads`` reports as ``threads``)
plus ``linalg`` for the kernels.  A span's self time is its duration
minus its children's; spans nest strictly because qbnet runs serially.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import threading
import time
from collections import Counter

import numpy as np

NUMPY_KERNELS = ("eigvals", "cond", "solve")


def _layer(module_name):
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def qbnet_modules(qbnet):
    """The package and every submodule except the ``__main__`` entry point."""
    names = sorted(m.name for m in pkgutil.iter_modules(qbnet.__path__)
                   if m.name != "__main__")
    return [qbnet] + [importlib.import_module(f"{qbnet.__name__}.{n}") for n in names]


def public_functions(modules):
    """``{function: span name}`` for functions defined in ``modules``."""
    out = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                out[obj] = f"{_layer(mod.__name__)}.{attr}"
    return out


class Tracer:
    """Span recorder; ``with tracer:`` installs the wrappers and restores
    the original bindings on exit."""

    def __init__(self, qbnet, expected=()):
        self.qbnet = qbnet
        self.expected = set(expected)
        self.names = []
        self.spans = []
        self.tags = {}
        self.counters = Counter()
        self.request = -1
        self.missing = []
        self._name_ids = {}
        self._local = threading.local()
        self._patches = []

    # --- wrapping ------------------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        """Wrap every binding; expected span names that no longer exist
        are listed in ``self.missing`` instead of raising."""
        import scipy.integrate
        import scipy.linalg

        modules = qbnet_modules(self.qbnet)
        targets = public_functions(modules[1:])
        targets[scipy.linalg.expm] = "linalg.expm"
        targets[scipy.integrate.solve_ivp] = "linalg.solve_ivp"
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(obj, targets[obj])
                    self._patch(mod, attr, wrappers[obj])
        for kernel in NUMPY_KERNELS:
            original = getattr(np.linalg, kernel)
            self._patch(np.linalg, kernel, self._wrap(original, f"linalg.{kernel}"))
        self.missing = sorted(self.expected - set(self.names))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name):
        name_id = self._name_id(name)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        spans, local, clock = self.spans, self._local, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if before is not None:
                args = before(self, args)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.request)
            if after is not None:
                after(self, index, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- aggregation -----------------------------------------------------------

    def layer_metrics(self):
        """Per-name, per-layer and derived metrics of the recorded spans."""
        spans = self.spans
        names = [self.names[s[0]] for s in spans]
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        m = Counter()
        layers = {n.split(".", 1)[0] for n in self.names}
        for layer in layers:
            m[f"{layer}.self_s"] += 0.0
        for i, name in enumerate(names):
            layer = name.split(".", 1)[0]
            m[f"{name}.calls"] += 1
            m[f"{name}.s"] += dur[i]
            m[f"{layer}.self_s"] += dur[i] - child[i]
            parent = spans[i][3]
            if layer == "closed_forms":
                m["closed_forms.calls"] += 1
                if parent < 0 or not names[parent].startswith("closed_forms."):
                    m["closed_forms.s"] += dur[i]
            if name == "figures.figure_table":
                m[f"figures.figure_table.{self.tags.get(i)}.s"] += dur[i]
        # steady solves per gain_report, and per battery of parallel reports
        per_report = Counter()
        for i, name in enumerate(names):
            parent = spans[i][3]
            if name == "observables.steady_energy" and parent >= 0 \
                    and names[parent] == "observables.gain_report":
                per_report[parent] += 1
        reports = [i for i, n in enumerate(names) if n == "observables.gain_report"]
        parallel = [i for i in reports if self.tags.get(i, ("", 0))[0] == "parallel"]
        m["observables.gain_report.steady_energy_per_call"] = (
            sum(per_report[i] for i in reports) / len(reports) if reports else 0.0)
        m["observables.gain_report.parallel_steady_energy_per_n"] = (
            sum(per_report[i] for i in parallel) / sum(self.tags[i][1] for i in parallel)
            if parallel else 0.0)
        # expm calls per max_power: nearest max_power ancestor of each expm
        owner = [-1] * len(spans)
        for i, name in enumerate(names):
            parent = spans[i][3]
            owner[i] = i if name == "observables.max_power" else (
                owner[parent] if parent >= 0 else -1)
        expm_in_max_power = sum(1 for i, n in enumerate(names)
                                if n == "linalg.expm" and owner[i] >= 0)
        calls = m["observables.max_power.calls"]
        m["observables.max_power.expm_per_call"] = (
            expm_in_max_power / calls if calls else 0.0)
        m["optimize.objective_evals"] = self.counters["objective_evals"]
        m["nonreciprocity.phase_landscape.points"] = self.counters["landscape_points"]
        m["sweep.points"] = self.counters["sweep_points"]
        m["sweep.refused"] = self.counters["sweep_refused"]
        m["sweep.refused_share"] = (self.counters["sweep_refused"]
                                    / self.counters["sweep_points"]
                                    if self.counters["sweep_points"] else 0.0)
        m["export.bytes_written"] = self.counters["bytes_written"]
        m["threads.workers"] = self.counters["workers"]
        m["trace.spans"] = len(spans)
        m["trace.missing"] = len(self.missing)
        return dict(m)

    def write_spans(self, path):
        """One CSV line per span: name, start and end in seconds from the
        first span, parent span index (-1 for a root) and request id."""
        spans = self.spans
        origin = spans[0][1] if spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,request\n")
            for name_id, start, end, parent, request in spans:
                fh.write(f"{self.names[name_id]},{start - origin:.9f},"
                         f"{end - origin:.9f},{parent},{request}\n")


# --- per-name hooks: count work the span names alone do not show ------------

def _count_objective(tracer, args):
    f = args[0]
    if getattr(f, "_perfbench_counted", False):
        return args

    def counted(x):
        tracer.counters["objective_evals"] += 1
        return f(x)

    counted._perfbench_counted = True
    return (counted,) + tuple(args[1:])


def _sweep_points(tracer, index, args, table):
    tracer.counters["sweep_points"] += len(table.rows) + len(table.errors)
    tracer.counters["sweep_refused"] += len(table.errors)


def _landscape_points(tracer, index, args, scape):
    tracer.counters["landscape_points"] += scape.energy.size


def _bytes_written(tracer, index, args, paths):
    tracer.counters["bytes_written"] += sum(os.path.getsize(p) for p in paths)


def _workers(tracer, index, args, count):
    tracer.counters["workers"] = max(tracer.counters["workers"], count)


def _tag_panel(tracer, index, args, table):
    tracer.tags[index] = args[0]


def _tag_report(tracer, index, args, report):
    tracer.tags[index] = (args[0].family, args[0].n)


_BEFORE = {"optimize.golden_section_max": _count_objective,
           "optimize.scan_refine_max": _count_objective}
_AFTER = {"sweep.run_sweep": _sweep_points,
          "nonreciprocity.phase_landscape": _landscape_points,
          "export.write_table": _bytes_written,
          "threads.worker_count": _workers,
          "figures.figure_table": _tag_panel,
          "observables.gain_report": _tag_report}
