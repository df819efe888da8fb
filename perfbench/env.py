"""Locate the qbnet sources of this checkout and describe the machine.

Importing this module pins numpy's and scipy's BLAS to one thread (it must
come before numpy is imported; child processes inherit it).  With two
OpenBLAS threads on a 2-core shared host, a 100-mode ``eigvals`` took
7 ms to 1 s depending on what the other core was doing; with one thread
the benchmark measures qbnet, not the scheduler.  The values found in the
environment are recorded in the machine facts.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS_FOUND = {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS}
os.environ.update({v: "1" for v in BLAS_THREAD_VARS})

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


class MissingProgram(RuntimeError):
    """The checkout has no qbnet sources to benchmark."""


def bootstrap():
    """Import qbnet from ``src/`` of this checkout and return the module.

    An installed copy elsewhere is never used: the benchmark measures the
    sources next to it or refuses to run.
    """
    package = os.path.join(SRC, "qbnet")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise MissingProgram(f"no qbnet sources at {package}")
    sys.path.insert(0, SRC)
    import qbnet
    if os.path.dirname(os.path.abspath(qbnet.__file__)) != package:
        raise MissingProgram(f"imported qbnet from {qbnet.__file__}, not {package}")
    return qbnet


def _openblas_threads():
    """``{library file: thread count}`` for every OpenBLAS mapped into this
    process (numpy and scipy each bundle one)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = fn()
                break
    return out


def machine_facts(seed, qbnet_threads):
    """Core count, versions, BLAS and its threads, QBNET_THREADS, seed."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _openblas_threads()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": max(threads.values(), default=0),
        "blas_libraries": threads,
        "blas_threads_env_found": BLAS_THREADS_FOUND,
        "QBNET_THREADS": "unset" if qbnet_threads is None else qbnet_threads,
        "seed": seed,
    }
