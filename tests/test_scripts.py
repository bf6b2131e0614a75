"""Smoke tests of the example scripts: each runs as its own process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qgsw_vstates.cli import main

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, first_line", [
    ("branch_demo.py",
     ["--m", "5", "--steps", "2", "--trunc", "4", "--grid-size", "64",
      "--s-max", "1e-4"],
     "lam=1 b=0.5  threshold N=3  m=5"),
], ids=["branch_demo"])
def test_script_runs(script, args, first_line, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == first_line
    if script == "branch_demo.py":
        _check_demo_against_cli(args, done.stdout, tmp_path)


def test_demo_refuses_a_mode_with_the_library_rule():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "branch_demo.py"), "--m", "2",
         "--steps", "1", "--trunc", "4", "--grid-size", "64"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode != 0
    assert "mode m=2 has no simple real pair" in done.stderr
    assert done.stdout == ""


def _check_demo_against_cli(args, stdout, out):
    """The demo's Omega(s->0), residual-evaluation and Newton-step totals
    are the ones the CLI writes to summary.json for the same march."""
    assert main(["branch", *args, "--out", str(out), "--jobs", "1"]) == 0
    with open(out / "summary.json") as handle:
        branches = json.load(handle)["results"]["branches"]
    counts = [line.split(", ")[1:3]
              for line in stdout.splitlines() if line.startswith("sign ")]
    intercepts = [line.split("=")[1].split()[0]
                  for line in stdout.splitlines() if "Omega(s->0)" in line]
    assert counts == [[f"{entry['residual_evaluations']} residual evaluations",
                       f"{entry['newton_steps']} Newton steps"]
                      for entry in branches]
    assert intercepts == [f"{entry['omega_extrapolated']:.10f}"
                          for entry in branches]
