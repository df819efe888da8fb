"""The demos run end to end against the package in this checkout.

Each runs in a subprocess with ``PYTHONPATH`` set to this checkout's ``src``,
from a temporary working directory so nothing lands in the tree.
"""

import os
import pathlib
import subprocess
import sys

from qbnet import run_figure

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_walkthrough_demos_run(tmp_path):
    # demos 01-05 in one interpreter, each as __main__; a failure's
    # traceback names the demo
    demos = sorted(str(p) for p in DEMOS.glob("0[1-5]_*.py"))
    assert len(demos) == 5
    script = ("import runpy, sys\n"
              "for path in sys.argv[1:]:\n"
              "    runpy.run_path(path, run_name='__main__')\n")
    result = run(["-c", script, *demos], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_reference_datasets_demo(tmp_path):
    # the demo writes what ``run_figure`` writes, byte for byte
    result = run([str(DEMOS / "06_reference_datasets.py"), "fig2f"], tmp_path)
    assert result.returncode == 0, result.stderr
    (expected,) = run_figure("fig2f", tmp_path / "expected", deterministic=True)
    written = tmp_path / "figure_data" / "fig2f.csv"
    assert written.read_bytes() == pathlib.Path(expected).read_bytes()
