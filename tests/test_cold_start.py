"""scipy stays off the import path until a run needs a band solve.

``qbnet.dynamics.expm`` is numpy's own, so no propagation loads scipy;
``zgbtrf`` and ``zgbtrs`` are stand-ins that import scipy's function on
first use and bind it in their place.  Each check runs in a fresh
interpreter, where the first use is really the first.
"""

import json
import pathlib
import subprocess
import sys

import qbnet

SRC = pathlib.Path(qbnet.__file__).resolve().parents[1]


def fresh(code: str, *args) -> object:
    """The JSON value a fresh interpreter prints last, running ``code``
    with ``qbnet`` importable and ``args`` in ``sys.argv[1:]``."""
    prelude = f"import json, sys; sys.path.insert(0, {str(SRC)!r})\n"
    result = subprocess.run([sys.executable, "-c", prelude + code, *map(str, args)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_steady_runs_load_no_scipy(tmp_path):
    # a steady panel, steady, gains and a chain sweep: no expm, no band solve
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "topology": {"family": "cascaded", "variant": "nr", "n": 3, "g_b": 0.01,
                     "gamma_c": 0.1, "gamma_b": 0.1, "Gamma": 0.1, "xi": 1.0},
        "sweep": {"variable": "g_b", "values": [0.001, 0.01, 0.1]},
        "observables": ["steady_energy", "gains"]}))
    topology = ["--family", "cascaded", "--n", "3", "--gb", "0.01", "--gamma", "0.1"]
    code = """
import contextlib, io, os
import qbnet, qbnet.cli
out = sys.argv[1]
argvs = [["figure", "fig2b", "--deterministic", "--out", out], ["steady", *sys.argv[2:]],
         ["gains", *sys.argv[2:]], ["sweep", "--config", os.path.join(out, "sweep.json")]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [qbnet.cli.cli_main(argv) for argv in argvs]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""
    assert fresh(code, tmp_path, *topology) == [[0, 0, 0, 0], []]
    assert (tmp_path / "fig2b.csv").is_file()


def test_power_runs_load_no_scipy(tmp_path):
    # every propagation: a stepped curve panel, an eta panel's peak
    # searches, gains --power and the power command's curve and peak
    topology = ["--family", "parallel", "--n", "2", "--gb", "0.001", "--gamma", "0.01"]
    code = """
import contextlib, io
import qbnet.cli
out = sys.argv[1]
argvs = [["figure", "fig3d", "--deterministic", "--out", out],
         ["figure", "fig4c", "--deterministic", "--out", out],
         ["gains", "--power", *sys.argv[2:]], ["power", "--points", "50", *sys.argv[2:]]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [qbnet.cli.cli_main(argv) for argv in argvs]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""
    assert fresh(code, tmp_path, *topology) == [[0, 0, 0, 0], []]
    assert (tmp_path / "fig3d.csv").is_file() and (tmp_path / "fig4c.csv").is_file()


def test_first_use_binds_scipys_own_functions():
    code = """
import qbnet.dynamics as dynamics
from qbnet import TopologyParams, steady_energy
steady_energy(TopologyParams("cascaded", "nr", 50, 0.01, 0.1, 0.1, 0.1, 1.0))
import scipy.linalg.lapack
print(json.dumps([dynamics.zgbtrf is scipy.linalg.lapack.zgbtrf,
                  dynamics.zgbtrs is scipy.linalg.lapack.zgbtrs]))
"""
    # 101 modes: the band route's first solve binds both routines
    assert fresh(code) == [True, True]


def test_counter_patched_before_first_use_counts_every_call():
    # the stand-in binds scipy's function only in its own place: a counter
    # patched over it keeps counting past the first band solve
    code = """
import qbnet.dynamics as dynamics
from qbnet import TopologyParams, steady_energy
calls, factor = [], dynamics.zgbtrf
dynamics.zgbtrf = lambda ab, *args, **kwargs: calls.append(ab.shape[1]) or factor(
    ab, *args, **kwargs)
params = TopologyParams("cascaded", "nr", 100, 0.01, 0.1, 0.1, 0.1, 1.0)
energies = [steady_energy(params), steady_energy(params)]
print(json.dumps([calls, energies[0] == energies[1]]))
"""
    assert fresh(code) == [[200, 200], True]
