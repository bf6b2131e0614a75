"""The benchmark's workloads: CLI arguments per seed and output checks.

Seed 0 is exactly the reference configuration of each workload; any other
seed jitters the inputs by up to 10% (the branch amplitude ``--s-max``,
the interior nodes of the table grids) so a claim can be re-checked on
inputs that were not used while writing it.  Every check counts one
attempt in :class:`Checks`, and a failed one is recorded with its reason.
Output that cannot be read at all raises (OSError, ValueError, KeyError);
the runner counts that as one more failed check.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

RESIDUAL_TOL = 1e-10  # node residual the solver certifies per branch point
GAP_TOL = 1e-3  # |extrapolated Omega(0) - Omega*| in the branch summary
VERIFY_TOL = 1e-9  # doubled-grid re-verification of a branch point
TABLE_RTOL = 1e-9  # reference-table match: |a - b| <= rtol max(|a|,|b|) + atol
TABLE_ATOL = 1e-12


class Checks:
    """Tally of correctness checks: attempts and the reasons of failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _rng(seed, stream):
    return random.Random(f"perfbench-{seed}-{stream}")


def read_table(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _read_summary(out_dir):
    with open(Path(out_dir) / "summary.json") as handle:
        return json.load(handle)


@dataclass(frozen=True)
class Branch:
    """``branch`` at one (lambda, b, m), one or both signs."""

    lam: float
    sign: str
    b: float = 0.5
    m: int = 5
    s_max: float = 2.5e-3
    steps: int = 2
    trunc: int = 16
    grid_size: int = 256

    def argv(self, seed):
        s_max = self.s_max if seed == 0 else self.s_max * _rng(seed, "s_max").uniform(0.9, 1.1)
        return [[
            "branch", "--lambda", repr(self.lam), "--b", repr(self.b),
            "--m", str(self.m), "--sign", self.sign, "--s-max", repr(s_max),
            "--steps", str(self.steps), "--trunc", str(self.trunc),
            "--grid-size", str(self.grid_size),
        ]]

    def setup_code(self, seed):
        return f"from qgsw_vstates.contour import make_grid; make_grid({self.grid_size})"

    def check(self, out_dirs, codes, checks):
        (out_dir,), (code,) = out_dirs, codes
        checks.expect(code == 0, f"branch exit code {code}")
        summary = _read_summary(out_dir)
        branches = summary["results"]["branches"]
        signs = ("+", "-") if self.sign == "both" else (self.sign,)
        checks.expect(
            sorted(entry["sign"] for entry in branches) == sorted(signs),
            f"branch signs {[entry['sign'] for entry in branches]}",
        )
        for entry in branches:
            sign = entry["sign"]
            checks.expect(
                entry["completed"] and entry["points"] == self.steps,
                f"{sign}: {entry['points']} of {self.steps} points, {entry['termination']}",
            )
            gap = entry["gap"]
            checks.expect(gap is not None and gap < GAP_TOL, f"{sign}: gap {gap}")
            header, rows = read_table(Path(out_dir) / entry["file"])
            checks.expect(len(rows) == self.steps, f"{sign}: {len(rows)} table rows")
            col = header.index("residual")
            for row in rows:
                residual = float(row[col])
                checks.expect(residual <= RESIDUAL_TOL, f"{sign}: residual {residual}")

    def final_check(self, out_dirs, checks):
        """Re-verify the last point of each sign on the doubled grid."""
        from qgsw_vstates.continuation import verify_vstate
        from qgsw_vstates.contour import make_grid

        summary = _read_summary(out_dirs[0])
        grid = make_grid(self.grid_size)
        for entry in summary["results"]["branches"]:
            header, rows = read_table(Path(out_dirs[0]) / entry["file"])
            if not rows:
                checks.expect(False, f"{entry['sign']}: no point to re-verify")
                continue
            try:
                report = verify_vstate(self._point(header, rows[-1]), self.lam, self.b, grid=grid)
            except ValueError as exc:
                checks.expect(False, f"{entry['sign']}: last point rejected ({exc})")
                continue
            checks.expect(
                report.residual <= VERIFY_TOL and report.symmetry_defect == 0.0,
                f"{entry['sign']}: doubled-grid residual {report.residual},"
                f" symmetry defect {report.symmetry_defect}",
            )

    def _point(self, header, row):
        """BranchPoint from one branch-table row (lattice columns a<i>, b<i>)."""
        from qgsw_vstates.continuation import BranchPoint
        from qgsw_vstates.contour import FourierBoundary

        values = dict(zip(header, row))
        boundaries = []
        for prefix, scale in (("a", 1.0), ("b", self.b)):
            lattice = {int(key[1:]): float(v) for key, v in values.items() if key[0] == prefix and key[1:].isdigit()}
            dense = [0.0] * (max(lattice) + 1 if lattice else 0)
            for idx, coeff in lattice.items():
                dense[idx] = coeff
            boundaries.append(FourierBoundary(scale, tuple(dense)))
        return BranchPoint(
            s=float(values["s"]), omega=float(values["omega"]),
            f1=boundaries[0], f2=boundaries[1],
            residual=float(values["residual"]), m=self.m, pinned="",
        )


@dataclass(frozen=True)
class Verify:
    """The built-in ``verify`` suite at one grid size."""

    grid_size: int = 256

    def argv(self, seed):
        return [["verify", "--grid-size", str(self.grid_size)]]

    def setup_code(self, seed):
        return f"from qgsw_vstates.contour import make_grid; make_grid({self.grid_size})"

    def check(self, out_dirs, codes, checks):
        (out_dir,), (code,) = out_dirs, codes
        checks.expect(code == 0, f"verify exit code {code}")
        summary = _read_summary(out_dir)
        results = summary["results"]
        checks.expect(results["passed"] is True, "verify did not report passed")
        for entry in results["checks"]:
            checks.expect(entry["passed"], f"verify check {entry['name']}: {entry['measured']}")
        _, rows = read_table(Path(out_dir) / "verify.csv")
        checks.expect(
            len(rows) == len(results["checks"]) and all(row[-1] == "true" for row in rows),
            "verify.csv disagrees with summary.json",
        )

    def final_check(self, out_dirs, checks):
        pass


def _grid_text(start, stop, count, seed, stream):
    if seed == 0:
        return f"{start!r}:{stop!r}:{count}"
    rng = _rng(seed, stream)
    interior = np.linspace(start, stop, count)[1:-1]
    jittered = [float(x) * rng.uniform(0.9, 1.1) for x in interior]
    return ",".join(repr(x) for x in [start, *jittered, stop])


@dataclass(frozen=True)
class Tables:
    """The three table commands over one (lambda, b, n) grid.

    The grid corners (first and last lambda and b) stay fixed under every
    seed, so their rows are compared against the reference stored with the
    benchmark.
    """

    lambdas: tuple = (0.1, 5.0, 8)
    bs: tuple = (0.1, 0.9, 8)
    ns: tuple = (1, 40)
    commands: tuple = ("spectrum", "eigen", "limits")
    reference: Path = HERE / "reference" / "spectral_corners.json"

    def grids(self, seed):
        return _grid_text(*self.lambdas, seed, "lambda"), _grid_text(*self.bs, seed, "b")

    def argv(self, seed):
        lam_text, b_text = self.grids(seed)
        n_text = f"{self.ns[0]}:{self.ns[1]}"
        return [[command, "--lambda", lam_text, "--b", b_text, "--n", n_text] for command in self.commands]

    def setup_code(self, seed):
        lam_text, b_text = self.grids(seed)
        return (
            "from qgsw_vstates.cli import parse_float_grid;"
            f" parse_float_grid({lam_text!r}); parse_float_grid({b_text!r})"
        )

    def corner_rows(self, rows):
        """The table rows whose (lambda, b) is a corner of the grid."""
        lams, bs = {self.lambdas[0], self.lambdas[1]}, {self.bs[0], self.bs[1]}
        return [row for row in rows if float(row[0]) in lams and float(row[1]) in bs]

    def check(self, out_dirs, codes, checks):
        with open(self.reference) as handle:
            reference = json.load(handle)
        expected_rows = self.lambdas[2] * self.bs[2] * (self.ns[1] - self.ns[0] + 1)
        for command, out_dir, code in zip(self.commands, out_dirs, codes):
            checks.expect(code == 0, f"{command} exit code {code}")
            path = Path(out_dir) / f"{command}.csv"
            if not checks.expect(path.is_file(), f"{path} missing"):
                continue
            header, rows = read_table(path)
            checks.expect(len(rows) == expected_rows, f"{command}: {len(rows)} rows, want {expected_rows}")
            got = self.corner_rows(rows)
            want = reference[command]
            checks.expect(header == want["header"], f"{command}: header {header}")
            checks.expect(len(got) == len(want["rows"]), f"{command}: {len(got)} corner rows")
            for row, ref in zip(got, want["rows"]):
                checks.expect(_cells_match(row, ref), f"{command}: row {row} != reference {ref}")

    def final_check(self, out_dirs, checks):
        pass


def _cells_match(row, ref):
    if len(row) != len(ref):
        return False
    for got, want in zip(row, ref):
        if got == want:
            continue
        try:
            a, b = float(got), float(want)
        except ValueError:
            return False
        if not abs(a - b) <= TABLE_RTOL * max(abs(a), abs(b)) + TABLE_ATOL:
            return False
    return True


WORKLOADS = {
    "branch-ref": Branch(lam=1.0, sign="both"),
    "branch-screened": Branch(lam=4.0, sign="+"),
    "verify-256": Verify(grid_size=256),
    "spectral-tables": Tables(),
}
