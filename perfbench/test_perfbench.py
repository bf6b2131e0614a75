"""Tests of the benchmark's tracer, counters and output checks.

    python3 -m pytest perfbench -q

Everything runs on tiny configurations (grids of 32 or 64 nodes), so the
file takes seconds.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from qgsw_vstates import bessel, cli, continuation, contour  # noqa: E402

from layers import PER_LAYER, layer_metrics  # noqa: E402
from make_reference import write_reference  # noqa: E402
from run import END_TO_END, check_outputs, measure_traced, run_once  # noqa: E402
from tracer import FULL_TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, Branch, Checks, Tables, Verify  # noqa: E402

TINY_BRANCH = Branch(lam=1.0, sign="+", s_max=1e-4, steps=2, trunc=4, grid_size=64)


def _one_g_call(grid_size=32):
    grid = contour.make_grid(grid_size)
    outer = contour.FourierBoundary.single_mode(1.0, 4, 1e-3)
    inner = contour.annulus_boundary(0.5)
    with Tracer(FULL_TARGETS) as tracer:
        # through another module's binding, as the solver calls it
        continuation.g_functional(1.0, 0.5, 0.1, outer, inner, grid)
    return tracer


def test_one_g_functional_call_counts_its_children():
    metrics = layer_metrics(_one_g_call(32), 0.0, 0.0)
    assert metrics["contour.g_functional.calls"] == 1
    assert metrics["contour.s_integral.calls"] == 4
    assert metrics["contour.conformal_eval.calls"] == 8
    assert metrics["contour.conformal_eval.per_g"] == 8.0
    # two cross interactions through K0; at lam = 1 every distance is
    # below 4, so K0 runs the I0 and k0reg series on its whole argument,
    # on top of the two self interactions
    assert metrics["kernel.k0.calls"] == 2
    assert metrics["kernel.k0.elements"] == 2 * 32 * 32
    assert metrics["kernel.k0.large_z_elements"] == 0
    assert metrics["kernel.i0.elements"] == 4 * 32 * 32
    assert metrics["kernel.k0reg.elements"] == 4 * 32 * 32


def test_self_times_partition_the_root_spans():
    cols = _one_g_call(32).arrays()
    roots = cols["parent"] < 0
    assert cols["self"].min() >= 0.0
    assert cols["self"].sum() == pytest.approx(cols["duration"][roots].sum(), rel=1e-9)


def test_every_binding_is_wrapped_and_restored():
    g, i0 = contour.g_functional, bessel._i0_array
    verify_cmd = cli._cmd_verify
    jacobian = vars(continuation._ProjectedSystem)["jacobian"]
    with Tracer(FULL_TARGETS):
        wrapped = contour.g_functional
        assert wrapped is not g and wrapped.__wrapped__ is g
        assert continuation.g_functional is wrapped and cli.g_functional is wrapped
        assert contour._i0_array is bessel._i0_array
        assert bessel._i0_array.__wrapped__ is i0
        assert cli._DISPATCH["verify"] is cli._cmd_verify
        assert cli._cmd_verify.__wrapped__ is verify_cmd
        assert vars(continuation._ProjectedSystem)["jacobian"].__wrapped__ is jacobian
    assert contour.g_functional is g and continuation.g_functional is g and cli.g_functional is g
    assert contour._i0_array is i0 and bessel._i0_array is i0
    assert cli._DISPATCH["verify"] is verify_cmd
    assert vars(continuation._ProjectedSystem)["jacobian"] is jacobian


def test_tiny_branch_passes_and_exact_counters_repeat(tmp_path):
    runs = []
    for name in ("first", "second"):
        checks = Checks()
        metrics, _ = measure_traced(
            TINY_BRANCH, cli, TINY_BRANCH.argv(0), 0.0, tmp_path / name, checks, tmp_path / f"{name}.csv.gz"
        )
        assert checks.failures == []
        assert (tmp_path / f"{name}.csv.gz").is_file()
        runs.append(metrics)
    first, second = runs
    assert first["continuation.points"] == 2
    assert first["contour.g_functional.calls"] == 2 * first["continuation.evals_per_point"]
    assert first["continuation.linesearch.accept_ratio"] == 1.0
    for name in ("continuation.evals_per_point", "continuation.newton_iters_per_point",
                 "kernel.i0.elements", "kernel.k0reg.elements", "kernel.k0.elements"):
        assert first[name] == second[name]


def _rewrite_cell(path, row_index, column, value):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[row_index][rows[0].index(column)] = value
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def test_corrupted_branch_output_is_counted(tmp_path):
    _, _, dirs, codes = run_once(cli, TINY_BRANCH.argv(0), tmp_path / "work")
    clean = Checks()
    check_outputs(TINY_BRANCH.check, clean, dirs, codes)
    check_outputs(TINY_BRANCH.final_check, clean, dirs)
    assert clean.failures == [] and clean.attempted > 0

    table = dirs[0] / "branch_m5_plus.csv"
    _rewrite_cell(table, 1, "residual", "1e-6")
    bad = Checks()
    check_outputs(TINY_BRANCH.check, bad, dirs, codes)
    assert len(bad.failures) == 1 and "residual" in bad.failures[0]

    _rewrite_cell(table, -1, "a4", "0.002")  # last point, pinned coefficient
    bad = Checks()
    check_outputs(TINY_BRANCH.final_check, bad, dirs)
    assert len(bad.failures) == 1 and "doubled-grid" in bad.failures[0]

    (dirs[0] / "summary.json").unlink()
    bad = Checks()
    check_outputs(TINY_BRANCH.check, bad, dirs, codes)
    assert len(bad.failures) == 1 and "unreadable" in bad.failures[0]


def test_failed_verify_is_counted(tmp_path):
    workload = Verify(grid_size=64)
    _, _, dirs, codes = run_once(cli, workload.argv(0), tmp_path / "work")
    clean = Checks()
    check_outputs(workload.check, clean, dirs, codes)
    assert clean.failures == []
    summary = json.loads((dirs[0] / "summary.json").read_text())
    summary["results"]["passed"] = False
    (dirs[0] / "summary.json").write_text(json.dumps(summary))
    bad = Checks()
    check_outputs(workload.check, bad, dirs, [2])
    assert len(bad.failures) == 2


def test_table_reference_mismatch_is_counted(tmp_path):
    tables = Tables(lambdas=(0.5, 2.0, 3), bs=(0.3, 0.6, 3), ns=(1, 4), reference=tmp_path / "ref.json")
    write_reference(tables, cli, tmp_path / "ref_work")
    _, _, dirs, codes = run_once(cli, tables.argv(5), tmp_path / "work")
    clean = Checks()
    check_outputs(tables.check, clean, dirs, codes)
    assert clean.failures == []

    path = dirs[1] / "eigen.csv"
    with open(path, newline="") as handle:
        value = float(list(csv.reader(handle))[1][5])
    _rewrite_cell(path, 1, "omega_plus", repr(value * (1 + 1e-12)))
    within = Checks()
    check_outputs(tables.check, within, dirs, codes)
    assert within.failures == []
    _rewrite_cell(path, 1, "omega_plus", repr(value * (1 + 1e-6)))
    bad = Checks()
    check_outputs(tables.check, bad, dirs, codes)
    assert len(bad.failures) == 1 and "reference" in bad.failures[0]


def test_seed_zero_is_the_reference_configuration():
    assert WORKLOADS["branch-ref"].argv(0) == [[
        "branch", "--lambda", "1.0", "--b", "0.5", "--m", "5", "--sign", "both",
        "--s-max", "0.0025", "--steps", "2", "--trunc", "16", "--grid-size", "256",
    ]]
    assert WORKLOADS["spectral-tables"].argv(0)[0] == [
        "spectrum", "--lambda", "0.1:5.0:8", "--b", "0.1:0.9:8", "--n", "1:40",
    ]
    jittered = WORKLOADS["branch-ref"].argv(7)
    assert jittered == WORKLOADS["branch-ref"].argv(7) != WORKLOADS["branch-ref"].argv(8)
    s_max = float(jittered[0][jittered[0].index("--s-max") + 1])
    assert 0.9 * 2.5e-3 <= s_max <= 1.1 * 2.5e-3
    lam_text, b_text = WORKLOADS["spectral-tables"].grids(7)
    lams, bs = cli.parse_float_grid(lam_text), cli.parse_float_grid(b_text)
    assert (lams[0], lams[-1], len(lams)) == (0.1, 5.0, 8)
    assert (bs[0], bs[-1], len(bs)) == (0.1, 0.9, 8)


def test_benchmark_json_lists_the_metrics_the_runs_emit():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-256",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
