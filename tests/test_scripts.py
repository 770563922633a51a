"""Smoke test of the demo scripts: each runs to exit 0 and reports no
mismatch.  Two of them import helpers from tests/test_solvers.py, so a
renamed helper shows up here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = [
    ("classify_demo.py", []),
    ("compare_solvers.py", ["--trials", "1"]),
    ("hypergraph_pm_demo.py", ["--trials", "1"]),
]


@pytest.mark.parametrize("script, args", SCRIPTS)
def test_script_runs_without_mismatch(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)]
                          + args, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout
    assert not [line for line in proc.stdout.splitlines()
                if "MISMATCH" in line.upper()], proc.stdout
