"""Smoke tests of the example scripts: each runs as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, first_line", [
    ("spectrum_scan.py", [],
     "lam=0.5 b=0.3  n0=3 N=3  Omega_inf=(-0.071904, 0.389812)"),
    ("branch_demo.py",
     ["--m", "5", "--steps", "2", "--trunc", "4", "--grid-size", "64",
      "--s-max", "1e-4"],
     "lam=1 b=0.5  threshold N=3  m=5"),
])
def test_script_runs(script, args, first_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == first_line
