"""End-to-end checks of the command-line front end.

Every test drives cli.main() in-process with --out pointed at a tmp dir.
Branch traces run on the small grid (P = 128, K = 8) so the whole module
stays in the seconds range; the heavier default-resolution demo lives with
the acceptance suite.
"""

import csv
import dataclasses
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
import qgsw_vstates.bessel as bessel
import qgsw_vstates.cli as cli
import qgsw_vstates.continuation as continuation
import qgsw_vstates.contour as contour
import qgsw_vstates.spectrum as spectrum
from qgsw_vstates.cli import (
    _build_parser,
    _format_cell,
    _write_table,
    build_config,
    main,
    parse_float_grid,
    parse_int_grid,
)
from qgsw_vstates.spectrum import ModeCell

DATA = Path(__file__).parent / "data"


def _run(*argv):
    return main(list(argv))


def _read_csv(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


def test_grid_parsing():
    assert parse_float_grid("0.5") == (0.5,)
    assert parse_float_grid("0.5,1,2") == (0.5, 1.0, 2.0)
    assert parse_float_grid("0:1:3") == (0.0, 0.5, 1.0)
    assert parse_float_grid("2:2:1") == (2.0,)
    assert parse_int_grid("3:6") == (3, 4, 5, 6)
    assert parse_int_grid("5:4") == ()
    assert parse_int_grid("7") == (7,)
    with pytest.raises(ValueError):
        parse_float_grid("1:2")
    with pytest.raises(ValueError):
        parse_float_grid("1:2:0")


def test_spectrum_table_follows_eigenvalue_ordering(tmp_path):
    out = tmp_path / "run"
    code = _run("spectrum", "--lambda", "1", "--b", "0.5", "--n", "3:13",
                "--out", str(out), "--jobs", "1")
    assert code == 0
    rows = _read_csv(out / "spectrum.csv")
    assert len(rows) == 11
    assert [int(r["n"]) for r in rows] == list(range(3, 14))
    plus = [float(r["omega_plus"]) for r in rows]
    minus = [float(r["omega_minus"]) for r in rows]
    assert plus == sorted(plus)  # upper family increases toward the limit
    assert minus == sorted(minus, reverse=True)
    assert all(int(r["n_threshold"]) == 3 for r in rows)


def test_spectrum_csv_round_trips_exactly(tmp_path):
    out = tmp_path / "run"
    _run("spectrum", "--lambda", "1", "--b", "0.6", "--n", "4,5",
         "--out", str(out), "--jobs", "1")
    cell = ModeCell(1.0, 0.6)
    for row in _read_csv(out / "spectrum.csv"):
        n = int(row["n"])
        delta, pair = cell.spectrum(n)
        assert float(row["delta"]) == delta
        assert float(row["omega_plus"]) == pair.omega_plus
        assert float(row["omega_minus"]) == pair.omega_minus


@pytest.mark.parametrize(
    "argv, config",
    [
        (["spectrum", "--n", "0"], None),
        (["eigen", "--n", "-2"], None),
        (["limits", "--n", "0:2"], None),
        (["spectrum", "--n", "5:4"], None),
        (["spectrum", "--lambda", "1:2:x"], None),
        (["eigen", "--n", "a:3"], None),
        (["limits"], {"jobs": "x"}),
        (["spectrum"], {"n": [2.7, 3]}),
        (["eigen"], {"ns": [True]}),
        (["limits"], {"m": [5.5]}),
        (["limits"], {"trunc": 8.5}),
        (["limits"], {"grid_size": 64.5}),
        (["limits"], {"steps": True}),
        (["limits"], {"jobs": 1.5}),
        (["spectrum"], {"lambda": [True]}),
        (["branch", "--sign", "1"], None),
        (["branch"], {"sign": 1}),
        # orders and ranges stay at the threshold scan's cap
        (["limits", "--n", "100001"], None),
        (["branch", "--m", "100001"], None),
        (["spectrum"], {"n": [3, 100001]}),
        (["eigen", "--n", "1:100001"], None),
        (["spectrum", "--lambda", "1:2:100001"], None),
        # a table's rows, |lambda| x |b| x |n|, stay at the same cap
        (["spectrum", "--lambda", "0.5:2:1000", "--b", "0.1:0.9:1000"], None),
        (["eigen", "--lambda", ",".join(map(str, range(1, 502))),
          "--b", "0.5", "--n", "1:200"], None),
        (["limits"], {"lambda": [1.0 + k for k in range(400)],
                      "b": [0.01 * k for k in range(1, 31)], "n": "1:10"}),
    ],
    ids=["zero-order", "negative-order", "range-from-zero", "empty-range",
         "bad-range-count", "bad-range-bound", "config-jobs-text",
         "config-fractional-order", "config-bool-order",
         "config-fractional-fold",
         "config-fractional-trunc", "config-fractional-grid-size",
         "config-bool-steps", "config-fractional-jobs",
         "config-bool-lambda", "numeric-sign", "config-numeric-sign",
         "order-above-cap", "fold-above-cap", "config-order-above-cap",
         "int-range-above-cap", "float-range-above-cap",
         "table-rows-above-cap",
         "list-table-rows-above-cap", "config-table-rows-above-cap"],
)
def test_bad_orders_and_grid_text_exit_one(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code = _run(*argv, "--out", str(tmp_path / "run"))
    err = capsys.readouterr().err
    assert code == 1
    assert any(line.startswith("error: ") for line in err.splitlines())
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, config, named",
    [
        (["branch", "--m", "5:3"], None, "m"),
        (["branch"], {"m": []}, "m"),
        (["branch", "--n", "4:1"], None, "n"),
        (["limits"], {"ns": []}, "n"),
        (["spectrum", "--lambda", ""], None, "lambda"),
        (["eigen"], {"b": []}, "b"),
    ],
    ids=["flag-m", "config-m", "flag-n-branch", "config-n", "flag-lambda",
         "config-b"],
)
def test_empty_grid_option_is_refused_by_name(tmp_path, capsys, argv, config,
                                              named):
    # an explicitly empty grid must not fall back to the default grid
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    out = tmp_path / "run"
    code = _run(*argv, "--steps", "1", "--s-max", "1e-4", "--trunc", "4",
                "--grid-size", "64", "--out", str(out))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: bad value for {named}: ")
    assert "has no values" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["branch", "--s-max", "inf"], "s-max"),
        (["branch", "--s-max", "nan"], "s-max"),
        (["verify", "--grid-size", "64", "--tol", "inf"], "tol"),
        (["verify", "--grid-size", "64", "--tol", "nan"], "tol"),
    ],
    ids=["s-max-inf", "s-max-nan", "tol-inf", "tol-nan"],
)
def test_non_finite_amplitude_and_tolerance_exit_one(tmp_path, capsys, argv,
                                                     named):
    out = tmp_path / "run"
    code = _run(*argv, "--out", str(out))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {named} must be positive and finite")
    assert not out.exists()


def test_missing_command_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        _run()
    assert info.value.code == 1
    assert "error: " in capsys.readouterr().err


def test_options_are_declared_once_for_every_command():
    parser = _build_parser()
    for command in ("spectrum", "eigen", "limits", "branch", "verify"):
        args = parser.parse_args(["--lambda", "2", command, "--n", "3"])
        assert (args.command, args.lambdas, args.ns) == (command, "2", "3")


def test_domain_guard_exits_one(tmp_path, capsys):
    code = _run("spectrum", "--lambda", "1", "--b", "1.0",
                "--out", str(tmp_path / "x"))
    assert code == 1
    assert "strictly inside (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["710", "800"])
def test_bessel_range_error_exits_one(tmp_path, capsys, lam):
    # the table commands stop at lambda = 700, where the ladder's mpmath
    # tests end; limits' K_1(lambda) is subnormal from about 706
    for command in ("spectrum", "eigen", "limits"):
        out = tmp_path / command
        code = _run(command, "--lambda", lam, "--b", "0.5", "--n", "1:2",
                    "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: lambda must be at most 700, the range"
                              f" the Bessel ladder is tested on; got {lam}.0")
        assert "Traceback" not in err and not out.exists()


def test_lambda_at_the_bessel_range_is_tabled(tmp_path):
    for command in ("spectrum", "eigen", "limits"):
        assert _run(command, "--lambda", "700", "--b", "0.5", "--n", "1:2",
                    "--out", str(tmp_path / command)) == 0


def test_unsizable_bessel_argument_exits_one(tmp_path, capsys):
    # lambda b = 1e-310 is below 40/DBL_MAX, where the K_0/K_1 trapezoid rule
    # has no truncation point; the table must not be written with nan rows
    code = _run("eigen", "--lambda", "1e-300", "--b", "1e-10", "--n", "1:2",
                "--out", str(tmp_path / "x"))
    assert code == 1
    err = capsys.readouterr().err
    assert any(line.startswith("error: K_") for line in err.splitlines())
    assert "Traceback" not in err


@pytest.mark.parametrize("out", ["empty-flag", "empty-env", "a-file"])
def test_unusable_output_directory_exits_one(tmp_path, capsys, monkeypatch,
                                             out):
    monkeypatch.chdir(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    argv = ["limits", "--n", "1", "--jobs", "1"]
    if out == "empty-env":
        monkeypatch.setenv("QGSW_VSTATES_OUT", "")
    else:
        argv += ["--out", "" if out == "empty-flag" else str(taken)]
    assert _run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory")
    assert "Traceback" not in err
    assert taken.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


@pytest.mark.parametrize("argv, message", [
    (["branch", "--lambda", "1", "--b", "0.5", "--m", "2"],
     "no simple real pair"),
    (["verify", "--grid-size", "24"], "needs grid size above 24"),
])
def test_refusal_inside_a_command_leaves_no_output_directory(
        tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    assert _run(*argv, "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["branch", "--lambda", "1,2"], None, "exactly one lambda and one b"),
    (["branch", "--b", "0.5,0.6"], None, "exactly one lambda and one b"),
    (["limits", "--jobs", "0"], None, "jobs must be >= 1; got 0"),
    (["limits", "--format", "xml"], None, "format must be csv or json"),
    (["limits", "--n", "1:2:3"], None, "integer range syntax is lo:hi"),
    (["limits"], "missing", "cannot read config file"),
    (["limits"], [1, 2], "config file must hold a JSON object"),
], ids=["two-lambdas", "two-bs", "jobs-zero", "format-xml", "int-range",
        "config-missing", "config-list"])
def test_refused_option_exits_one_without_output(tmp_path, capsys, argv,
                                                 config, message):
    if config is not None:
        path = tmp_path / "cfg.json"
        if config != "missing":
            path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    out = tmp_path / "run"
    assert _run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert message in err
    assert not out.exists()


def test_output_directory_under_a_file_exits_one_after_the_run(
        tmp_path, capsys):
    # the path passes the check before the run (it does not exist yet), so
    # the refusal comes from creating it once the command has returned
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    code = _run("limits", "--n", "1", "--out", str(taken / "sub"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: cannot create output directory")
    assert "Traceback" not in err
    assert taken.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_unknown_command_exits_one():
    with pytest.raises(SystemExit) as info:
        _run("frobnicate")
    assert info.value.code == 1


def _same_bits(text, value):
    return float(text).hex() == float(value).hex()


def test_eigen_table_matches_kernel_vectors(tmp_path):
    out = tmp_path / "run"
    for command in ("eigen", "spectrum"):
        code = _run(command, "--lambda", "1", "--b", "0.5", "--n", "1:12",
                    "--out", str(out), "--jobs", "1")
        assert code == 0
    rows = {int(r["n"]): r for r in _read_csv(out / "eigen.csv")}
    spectrum_rows = {int(r["n"]): r for r in _read_csv(out / "spectrum.csv")}
    assert sorted(rows) == sorted(spectrum_rows) == list(range(1, 13))
    # mode 2 sits below the threshold: no pair, no kernel data
    assert rows[2]["omega_plus"] == ""
    assert rows[2]["transversal_plus"] == "false"
    assert rows[5]["transversal_plus"] == "true"
    # the one-evaluation rows agree bit for bit with the library's cell
    cell = ModeCell(1.0, 0.5)
    for n, row in rows.items():
        delta = cell.spectrum(n)[0]
        assert _same_bits(row["delta"], delta)
        assert _same_bits(spectrum_rows[n]["delta"], delta)
        if delta <= 0.0:
            assert row["v1_plus"] == row["v2_minus"] == ""
            continue
        for sign, tag in (("-", "minus"), ("+", "plus")):
            _, (v1, v2), transversal = cell.root(n, sign)
            assert _same_bits(row[f"v1_{tag}"], v1)
            assert _same_bits(row[f"v2_{tag}"], v2)
            assert row[f"transversal_{tag}"] == str(transversal).lower()


@pytest.mark.parametrize("command", ["spectrum", "eigen", "limits"])
def test_table_commands_match_golden_files(tmp_path, command):
    # tests/data holds the tables this configuration must reproduce byte for
    # byte (rows with Delta_n < 0 included); a deliberate change of the
    # numerics regenerates them
    out = tmp_path / "run"
    code = _run(command, "--lambda", "0.5,2", "--b", "0.3,0.8",
                "--n", "1:12", "--out", str(out), "--jobs", "1")
    assert code == 0
    name = f"{command}.csv"
    assert (out / name).read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("argv, code, files", [
    (("--b", "0.5", "--m", "5", "--trunc", "2", "--grid-size", "128",
      "--s-max", "2e-3", "--steps", "4"),
     0, ["branch_m5_plus.csv", "branch_m5_minus.csv"]),
    (("--b", "0.9", "--m", "16", "--sign", "+", "--trunc", "4",
      "--grid-size", "512", "--s-max", "5e-3", "--steps", "8"),
     0, ["branch_m16_plus.csv"]),
], ids=["k2-march", "b09-m16"])
def test_branch_tables_match_golden_files(tmp_path, argv, code, files):
    # both marches grow K (the first from 2, the second from 4 to 12),
    # each growth seeded from the predicted first omitted pair, so
    # tests/data pins the growth path bit for bit; a deliberate change of
    # the numerics regenerates the tables
    out = tmp_path / "run"
    assert _run("branch", "--lambda", "1", *argv, "--out", str(out),
                "--jobs", "1") == code
    for name in files:
        assert (out / name).read_bytes() == (DATA / name).read_bytes()


def _count_builds(monkeypatch, cls):
    """The first argument of every cls(...) built from here on."""
    built = []
    init = cls.__init__

    def counted(self, first, *args, **kwargs):
        built.append(first)
        init(self, first, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return built


@pytest.mark.parametrize("command", ["spectrum", "eigen", "limits"])
def test_table_commands_build_one_ladder_per_lambda_row(tmp_path, monkeypatch,
                                                        command):
    # the benchmark's 8 x 8 grid: the cells of one lambda share its ladder,
    # so 8 ladders at lambda and 64 at lambda b (128 with two per cell)
    ladders = _count_builds(monkeypatch, bessel.BesselLadder)
    code = _run(command, "--lambda", "0.1:5:8", "--b", "0.1:0.9:8",
                "--n", "1:40", "--out", str(tmp_path / "run"))
    assert code == 0
    assert len(ladders) == 72
    assert all(ladders.count(lam) == 1 for lam in parse_float_grid("0.1:5:8"))


def test_branch_builds_one_mode_cell_per_trace(tmp_path, monkeypatch):
    # the 8-step reference march, both signs: the command's cell for
    # Omega*, then one per trace for its anchor and all its solves (19 with
    # a cell per solve and per anchor)
    cells = _count_builds(monkeypatch, spectrum.ModeCell)
    code = _run("branch", "--lambda", "1", "--b", "0.5", "--m", "5",
                "--out", str(tmp_path / "run"))
    assert code == 0
    assert 2 <= len(cells) <= 3


@pytest.mark.parametrize("value, text", [
    (None, ""), (True, "true"), (False, "false"), (7, "7"), (-12, "-12"),
    (2**70, "1180591620717411303424"), (0.0, "0"),
    (-0.0, "-0"), (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
    (0.1, "0.10000000000000001"), (5e-324, "4.9406564584124654e-324"),
    (np.float64(1 / 3), "0.33333333333333331"), (np.float64(-0.0), "-0"),
    (np.float64(math.nan), "nan"), ("plain", "plain"), ("x,y", '"x,y"'),
    ('a"b', '"a""b"'), ("a\rb", '"a\rb"'), ("a\nb", '"a\nb"'),
])
def test_cell_text_by_type(value, text):
    assert _format_cell(value) == text


def test_csv_tables_match_the_csv_module_writer(tmp_path):
    # the joined-line writer against csv.writer, byte for byte: every cell
    # type, quoted text, equal values of different types down one column,
    # a float object repeated and then an equal new object, a short row,
    # and a table with no rows
    shared = 0.1 + 0.2
    fresh = float(repr(shared))
    assert fresh == shared and fresh is not shared
    header = ("none", "bool", "int", "float", "numpy", "text", "equal")
    rows = [
        (None, True, 7, 0.1, np.float64(1 / 3), "x,y", 1),
        (None, False, -12, shared, np.float64(-0.0), 'a"b', True),
        (None, None, 2**70, shared, np.float64(math.nan), "line\nbreak", 1.0),
        (True, False, 0, fresh, np.float64(math.inf), "", np.float64(1.0)),
        (False, True, -1, -math.inf, np.float64(5e-324), "plain", 1),
        ("short row", shared),
        (None, None, None, None, None, None, None),
    ]
    for table_rows in (rows, []):
        path = tmp_path / "table.csv"
        _write_table(path, header, table_rows, "csv")
        text = oracles.csv_table_text(header, table_rows)
        assert path.read_bytes() == text.encode()


def test_csv_text_with_a_carriage_return_reads_back(tmp_path):
    # csv.writer leaves a bare "\r" unquoted; RFC 4180 quotes a line break
    path = tmp_path / "table.csv"
    _write_table(path, ("check", "note"), [("a\rb", 'say "hi", twice')],
                 "csv")
    with open(path, newline="") as handle:
        assert list(csv.reader(handle)) == [
            ["check", "note"], ["a\rb", 'say "hi", twice']]


def test_limits_json_round_trips(tmp_path):
    out = tmp_path / "run"
    code = _run("limits", "--lambda", "1", "--b", "0.5", "--n", "3:6",
                "--format", "json", "--out", str(out), "--jobs", "1")
    assert code == 0
    rows = json.loads((out / "limits.json").read_text())
    assert [r["n"] for r in rows] == [3, 4, 5, 6]
    for row in rows:
        assert row["burbea"] == (row["n"] - 1.0) / (2.0 * row["n"])
    # n = 3 at b = 0.5 is exactly the degenerate Euler mode
    assert rows[0]["euler_plus"] is None
    assert rows[1]["euler_plus"] is not None


def test_branch_demo_writes_both_signs(tmp_path):
    out = tmp_path / "run"
    code = _run("branch", "--lambda", "1", "--b", "0.5", "--m", "5",
                "--s-max", "1e-3", "--steps", "2", "--trunc", "8",
                "--grid-size", "128", "--out", str(out), "--jobs", "2")
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    branches = summary["results"]["branches"]
    assert [e["sign"] for e in branches] == ["+", "-"]
    for entry in branches:
        assert entry["completed"]
        assert entry["points"] == 2
        assert entry["gap"] < 1e-3
    plus = _read_csv(out / "branch_m5_plus.csv")
    minus = _read_csv(out / "branch_m5_minus.csv")
    for row_p, row_m in zip(plus, minus):
        assert row_p["s"] == row_m["s"]
        assert float(row_m["omega"]) < float(row_p["omega"])
        assert float(row_p["residual"]) <= 1e-10


def _branch_entries(out, *argv, code=0):
    assert _run("branch", *argv, "--out", str(out), "--jobs", "1") == code
    summary = json.loads((out / "summary.json").read_text())
    return {e["sign"]: e for e in summary["results"]["branches"]}


_BENCH_BRANCH = ("--b", "0.5", "--m", "5", "--s-max", "0.0025", "--steps",
                 "2", "--trunc", "16", "--grid-size", "256")


@pytest.mark.parametrize("argv, code, counts", [
    # the benchmark's branch-ref and branch-screened argvs at seed 0
    (("--lambda", "1.0", "--sign", "both", *_BENCH_BRANCH), 0,
     {"+": (2, 6, 0, 4), "-": (2, 4, 0, 2)}),
    (("--lambda", "4.0", "--sign", "+", *_BENCH_BRANCH), 0,
     {"+": (2, 5, 0, 3)}),
    # the far trace, whose two branches both end at the ball guard
    (("--lambda", "1", "--b", "0.5", "--m", "5", "--s-max", "0.1",
      "--steps", "40"), 3,
     {"+": (30, 176, 0, 140), "-": (19, 89, 0, 69)}),
], ids=["branch-ref", "branch-screened", "far-trace"])
def test_branch_counters_stay_pinned(tmp_path, argv, code, counts):
    # points / residual evaluations / difference Jacobians / Newton steps
    # per sign: a change of Newton path shows here, not only in perfbench
    entries = _branch_entries(tmp_path / "run", *argv, code=code)
    assert {sign: (entry["points"], entry["residual_evaluations"],
                   entry["jacobian_builds"], entry["newton_steps"])
            for sign, entry in entries.items()} == counts


def test_omega_fit_in_s_squared_closes_the_gap(tmp_path):
    # Omega is even in s, so a fit in s^2 leaves no straight-line bias: the
    # reference march (8 steps, default grid) and the screened lambda = 4
    # march both land within 1e-7 of the spectral Omega*, and the bend c2
    # does not depend on the step count
    reference = ("--lambda", "1", "--b", "0.5", "--m", "5")
    eight = _branch_entries(tmp_path / "eight", *reference)
    sixteen = _branch_entries(tmp_path / "sixteen", *reference,
                              "--steps", "16")
    screened = _branch_entries(
        tmp_path / "screened", "--lambda", "4.0", "--b", "0.5", "--m", "5",
        "--sign", "+", "--s-max", "0.0025", "--steps", "2", "--trunc", "16",
        "--grid-size", "256")
    for entry in (*eight.values(), *sixteen.values(), *screened.values()):
        assert entry["completed"]
        assert entry["gap"] <= 1e-7
    for sign in "+-":
        assert sixteen[sign]["omega_bend"] == pytest.approx(
            eight[sign]["omega_bend"], rel=1e-2)
    # the plus branch bends down from Omega*, the minus branch up
    assert eight["+"]["omega_bend"] < 0.0 < eight["-"]["omega_bend"]


def test_branch_summary_counts_residual_evaluations(tmp_path, monkeypatch):
    calls = []
    g_functional = continuation.g_functional

    def counted(*args, **kwargs):
        calls.append(None)
        return g_functional(*args, **kwargs)

    monkeypatch.setattr(continuation, "g_functional", counted)
    out = tmp_path / "run"
    code = _run("branch", "--lambda", "1", "--b", "0.5", "--m", "5",
                "--s-max", "1e-3", "--steps", "2", "--trunc", "8",
                "--grid-size", "128", "--out", str(out), "--jobs", "1")
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    counts = [e["residual_evaluations"]
              for e in summary["results"]["branches"]]
    assert all(count > 0 for count in counts)
    assert sum(counts) == len(calls)


def test_partial_branch_counts_its_failed_attempt(tmp_path, monkeypatch):
    # at b = 0.9, m = 24 the + branch saturates at K = 9 on its fourth
    # point (m(K+2) = 264 would reach P/2 on P = 528): the residuals of
    # that failed solve count too, as every residual the march computed
    # (its first point grows K = 4 -> 6 in one step, as its pairs predict)
    calls = []
    residual = continuation._ProjectedSystem.residual

    def counted(self, u):
        calls.append(None)
        return residual(self, u)

    monkeypatch.setattr(continuation._ProjectedSystem, "residual", counted)
    entries = _branch_entries(
        tmp_path / "run", "--lambda", "1", "--b", "0.9", "--m", "24",
        "--sign", "+", "--trunc", "4", "--grid-size", "512",
        "--s-max", "5e-3", "--steps", "8", code=3)
    assert not entries["+"]["completed"] and entries["+"]["points"] == 3
    assert entries["+"]["residual_evaluations"] == len(calls) == 23


def test_branch_summary_counts_difference_jacobians(tmp_path, monkeypatch):
    builds = []
    difference = continuation._ProjectedSystem.forward_difference

    def counted(self, *args):
        builds.append(None)
        return difference(self, *args)

    monkeypatch.setattr(continuation._ProjectedSystem, "forward_difference",
                        counted)
    argv = ("branch", "--lambda", "1", "--b", "0.5", "--m", "5",
            "--s-max", "1e-3", "--steps", "2", "--trunc", "8",
            "--grid-size", "128", "--jobs", "1")
    assert _run(*argv, "--out", str(tmp_path / "seeded")) == 0
    # a singular seed is rebuilt by forward differences at each first point
    monkeypatch.setattr(continuation._ProjectedSystem, "linearization",
                        lambda self, u: np.zeros((u.size, u.size)))
    assert _run(*argv, "--out", str(tmp_path / "rebuilt")) == 0
    counts = {}
    for name in ("seeded", "rebuilt"):
        summary = json.loads((tmp_path / name / "summary.json").read_text())
        counts[name] = [e["jacobian_builds"]
                        for e in summary["results"]["branches"]]
    assert counts == {"seeded": [0, 0], "rebuilt": [1, 1]}
    assert len(builds) == 2


def test_branch_summary_counts_newton_steps(tmp_path, monkeypatch):
    steps = []
    step = continuation._ProjectedSystem.step

    def counted(self, *args, **kwargs):
        taken = step(self, *args, **kwargs)
        if taken is not None:
            steps.append(None)
        return taken

    monkeypatch.setattr(continuation._ProjectedSystem, "step", counted)
    entries = _branch_entries(
        tmp_path / "run", "--lambda", "1", "--b", "0.5", "--m", "5",
        "--s-max", "2e-3", "--steps", "4", "--trunc", "2",
        "--grid-size", "128")
    counts = [entries[sign]["newton_steps"] for sign in "+-"]
    assert all(count > 0 for count in counts)
    assert sum(counts) == len(steps)


@pytest.mark.parametrize("s_max", ["1e-60", "1e-300"])
def test_branch_at_tiny_amplitudes_reports_a_finite_gap(tmp_path, s_max):
    # s^2 (and s^4) underflow here: the Omega fit must not see them
    entries = _branch_entries(
        tmp_path / "run", "--lambda", "1", "--b", "0.5", "--m", "5",
        "--s-max", s_max, "--steps", "3", "--trunc", "4",
        "--grid-size", "64")
    for entry in entries.values():
        assert entry["completed"] and entry["points"] == 3
        assert math.isfinite(entry["gap"]) and entry["gap"] <= 1e-15
        assert math.isfinite(entry["omega_bend"])


@pytest.mark.parametrize("flags, named", [
    (("--m", "8"), "m=8"),  # 8 * 16 = 128 = P/2
    (("--b", "0.97"), "m=46"),  # the default m, threshold + 2
])
def test_branch_refuses_top_mode_at_half_the_grid(tmp_path, capsys,
                                                   monkeypatch, flags, named):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(continuation, "newton_solve", no_solve)
    argv = ["branch", "--lambda", "1", "--b", "0.5", "--out",
            str(tmp_path / "x"), "--jobs", "1"]
    code = _run(*argv, *flags)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert named in err and "trunc 16" in err and "128" in err


@pytest.mark.parametrize("lam", ["9", "20"])
def test_branch_refuses_lambda_above_eight(tmp_path, capsys, monkeypatch, lam):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(continuation, "newton_solve", no_solve)
    code = _run("branch", "--lambda", lam, "--b", "0.5", "--m", "5",
                "--out", str(tmp_path / "x"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "lambda <= 8" in err and f"got {lam}" in err


def test_lambda_eight_is_accepted_and_tables_take_any_lambda(tmp_path):
    assert _run("branch", "--lambda", "8", "--b", "0.5", "--m", "5",
                "--steps", "1", "--trunc", "4", "--grid-size", "128",
                "--s-max", "1e-4", "--out", str(tmp_path / "b")) == 0
    assert _run("spectrum", "--lambda", "20", "--b", "0.5", "--n", "1:3",
                "--out", str(tmp_path / "t")) == 0


def test_branch_rejects_negative_discriminant(tmp_path, capsys):
    code = _run("branch", "--lambda", "1", "--b", "0.5", "--m", "2",
                "--out", str(tmp_path / "x"))
    assert code == 1
    err = capsys.readouterr().err
    assert "m=2" in err and "discriminant" in err
    assert "-0.0009993" in err  # the offending value is named


def test_branch_partial_trace_exits_three(tmp_path):
    # b = 0.9, m = 24 needs more lattice columns than P = 528 can hold
    # from its fourth point on
    out = tmp_path / "run"
    code = _run("branch", "--lambda", "1", "--b", "0.9", "--m", "24",
                "--sign", "plus", "--s-max", "5e-3", "--steps", "8",
                "--trunc", "4", "--grid-size", "512",
                "--out", str(out), "--jobs", "1")
    assert code == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["partial"]
    entry = summary["results"]["branches"][0]
    assert not entry["completed"]
    assert "truncation saturated" in entry["termination"]
    assert len(_read_csv(out / "branch_m24_plus.csv")) == entry["points"] == 3


def _table_point(row, m, b):
    """BranchPoint from one branch-table row (.17g cells read back exact)."""
    lattice = {prefix: [float(v) for key, v in row.items()
                        if key[0] == prefix and key[1:].isdigit()]
               for prefix in "ab"}
    return continuation.BranchPoint(
        float(row["s"]), float(row["omega"]),
        *continuation.lattice_boundaries(m, b, [lattice["a"], lattice["b"]]),
        residual=float(row["residual"]), m=m, pinned="")


def test_branch_grid_size_is_a_floor_that_m_divides(tmp_path):
    # m = 5 does not divide 256, so branch solves on P = 260 = 5 * 52; the
    # Newton path is the one on P = 256 and Omega moves only in its last
    # bits, and the last point still certifies on the doubled 256 grid
    out = tmp_path / "run"
    entries = _branch_entries(out, "--lambda", "1", "--b", "0.5", "--m", "5",
                              "--steps", "2", "--s-max", "2.5e-3")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["grid_size"] == 256
    grid = contour.make_grid(256)
    for sign, entry in entries.items():
        assert entry["completed"] and entry["grid_size"] == 260
        explicit = continuation.trace_branch(1.0, 0.5, 5, sign, 2.5e-3, 2,
                                             grid=grid)
        assert entry["residual_evaluations"] == sum(
            p.evaluations for p in explicit.points)
        rows = _read_csv(out / entry["file"])
        omegas = [float(row["omega"]) for row in rows]
        assert omegas == pytest.approx(
            [p.omega for p in explicit.points], abs=1e-12, rel=0)
        # the library's default grid is the CLI's, not 256
        default = continuation.trace_branch(1.0, 0.5, 5, sign, 2.5e-3, 2)
        assert omegas == [p.omega for p in default.points]
        report = continuation.verify_vstate(
            _table_point(rows[-1], 5, 0.5), 1.0, 0.5, grid=grid)
        assert report.residual <= 1e-9


def test_branch_on_a_floor_that_m_divides_keeps_it(tmp_path):
    # m = 4 divides 256: the grid is the requested one, bit for bit
    out = tmp_path / "run"
    entries = _branch_entries(out, "--lambda", "1", "--b", "0.5", "--m", "4",
                              "--steps", "2", "--s-max", "1e-3", "--trunc",
                              "8")
    for sign, entry in entries.items():
        assert entry["grid_size"] == 256
        explicit = continuation.trace_branch(
            1.0, 0.5, 4, sign, 1e-3, 2, trunc=8, grid=contour.make_grid(256))
        rows = _read_csv(out / entry["file"])
        assert [_table_point(row, 4, 0.5) for row in rows] == [
            dataclasses.replace(p, pinned="") for p in explicit.points]


def test_verify_clean_run_passes(tmp_path):
    out = tmp_path / "run"
    code = _run("verify", "--grid-size", "64", "--out", str(out),
                "--jobs", "1")
    assert code == 0
    rows = _read_csv(out / "verify.csv")
    assert [r["check"] for r in rows] == [
        "bessel_wronskian", "bessel_beltrami",
        "trivial_residual", "multiplier_match",
    ]
    for row in rows:
        assert row["passed"] == "true"
        assert float(row["measured"]) <= float(row["bound"])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["passed"]


def test_verify_fault_injection_fails_loudly(tmp_path):
    out = tmp_path / "run"
    clean = contour.g_functional
    with pytest.MonkeyPatch.context() as patch:
        # the multiplier check reaches G through the contour module
        patch.setattr(contour, "g_functional",
                      oracles.g_functional_inner_flipped)
        code = _run("verify", "--grid-size", "64",
                    "--out", str(out), "--jobs", "1")
    assert code == 2
    rows = {r["check"]: r for r in _read_csv(out / "verify.csv")}
    assert rows["multiplier_match"]["passed"] == "false"
    assert float(rows["multiplier_match"]["measured"]) > 1e-2
    # the patch must not leak into later runs of the same process
    assert contour.g_functional is clean


@pytest.mark.parametrize("size", [16, 24])
def test_verify_refuses_grids_without_its_modes(tmp_path, capsys, size):
    # mode 12 needs a sine on the grid: at P = 24 it sits on the Nyquist
    # node, and below that sine[12] does not exist
    code = _run("verify", "--grid-size", str(size),
                "--out", str(tmp_path / "run"), "--jobs", "1")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "grid size" in err


def test_verify_smallest_grid_reaches_a_verdict(tmp_path, capsys):
    out = tmp_path / "run"
    code = _run("verify", "--grid-size", "26", "--out", str(out),
                "--jobs", "1")
    # every check runs; the multiplier deviation (2e-5) is over its bound
    assert code == 2
    assert capsys.readouterr().err == ""
    rows = {r["check"]: r for r in _read_csv(out / "verify.csv")}
    assert len(rows) == 4
    assert rows["multiplier_match"]["passed"] == "false"


@pytest.mark.parametrize("size, calls", [(256, 27 + 24), (30, 27 + 26)])
def test_verify_evaluates_g_once_per_multiplier_column(tmp_path, monkeypatch,
                                                      size, calls):
    # 27 trivial-residual evaluations, then one G per column of each of the
    # 12 multiplier matrices; at P = 30 mode 10 (3n = 0 mod P) takes the
    # central difference, two per column
    counted_calls = []
    clean = contour.g_functional

    def counted(*args, **kwargs):
        counted_calls.append(args[0])
        return clean(*args, **kwargs)

    monkeypatch.setattr(contour, "g_functional", counted)
    monkeypatch.setattr(cli, "g_functional", counted)
    out = tmp_path / "run"
    _run("verify", "--grid-size", str(size), "--out", str(out), "--jobs", "1")
    assert len(counted_calls) == calls
    rows = {r["check"]: r for r in _read_csv(out / "verify.csv")}
    # one ladder per argument leaves the Wronskian bits as they were
    assert rows["bessel_wronskian"]["measured"] == "1.4785653413752505e-15"


def test_identical_runs_are_byte_identical(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out in (first, second):
        code = _run("spectrum", "--lambda", "0.5,1", "--b", "0.3,0.5",
                    "--n", "1:8", "--out", str(out), "--jobs", "2")
        assert code == 0
    assert (first / "spectrum.csv").read_bytes() == \
        (second / "spectrum.csv").read_bytes()
    s1 = json.loads((first / "summary.json").read_text())
    s2 = json.loads((second / "summary.json").read_text())
    s1["config"].pop("out"), s2["config"].pop("out")
    assert s1 == s2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "lambda": "0.5,1.0", "b": [0.4], "n": "2:4", "tol": 1e-9,
    }))
    out = tmp_path / "run"
    code = _run("spectrum", "--config", str(cfg), "--n", "3:3",
                "--out", str(out), "--jobs", "1")
    assert code == 0
    rows = _read_csv(out / "spectrum.csv")
    assert [(float(r["lambda"]), int(r["n"])) for r in rows] == \
        [(0.5, 3), (1.0, 3)]  # flag --n wins, config lambda grid survives
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["tol"] == 1e-9


def test_config_grid_values_convert_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda": [1], "b": [0.5], "n": [3, 4.0]}))
    from_file, from_flags = tmp_path / "file", tmp_path / "flags"
    assert _run("spectrum", "--config", str(cfg), "--format", "json",
                "--out", str(from_file), "--jobs", "1") == 0
    assert _run("spectrum", "--lambda", "1", "--b", "0.5", "--n", "3,4",
                "--format", "json", "--out", str(from_flags),
                "--jobs", "1") == 0
    assert (from_file / "spectrum.json").read_bytes() == \
        (from_flags / "spectrum.json").read_bytes()
    summary = json.loads((from_file / "summary.json").read_text())
    assert summary["config"]["lambdas"] == [1.0]
    assert isinstance(summary["config"]["lambdas"][0], float)
    assert summary["config"]["ns"] == [3, 4]


def test_env_var_sets_default_output_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("QGSW_VSTATES_OUT", str(env_dir))
    monkeypatch.chdir(tmp_path)
    code = _run("spectrum", "--lambda", "1", "--b", "0.5", "--n", "3:3",
                "--jobs", "1")
    assert code == 0
    assert (env_dir / "spectrum.csv").exists()
    # an explicit flag still wins over the environment
    flag_dir = tmp_path / "from_flag"
    code = _run("spectrum", "--lambda", "1", "--b", "0.5", "--n", "3:3",
                "--out", str(flag_dir), "--jobs", "1")
    assert code == 0
    assert (flag_dir / "spectrum.csv").exists()


def test_jobs_default_does_not_depend_on_the_machine(monkeypatch):
    # the summary records the resolved config, so a core-count default
    # would write a different summary.json on every machine
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    args = _build_parser().parse_args(["branch"])
    assert build_config(args).jobs == 1
    args = _build_parser().parse_args(["branch", "--jobs", "3"])
    assert build_config(args).jobs == 3


def test_bad_config_file_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code = _run("spectrum", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1
    assert "config file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, named",
    [
        ({"lamda": 3}, "'lamda'"),
        ({"command": "eigen"}, "'command'"),
        ({"out": None}, "'out'"),
        ({"lambda": [1], "n": None}, "'n'"),
        ({"lambdas": [2], "lambda": [3]}, "'lambdas' and 'lambda'"),
        ({"grid-size": 64, "grid_size": 128}, "'grid-size' and 'grid_size'"),
        # the threshold scan's old window option: refused, not ignored
        ({"window": 50}, "'window'"),
    ],
    ids=["unknown-key", "command-key", "null-out", "null-n", "both-lambda",
         "both-grid-size", "window-key"],
)
def test_config_keys_outside_the_option_table_exit_one(tmp_path, capsys,
                                                         config, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    code = _run("spectrum", "--n", "3", "--config", str(path),
                "--out", str(out))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, named",
    [({"sign": 1}, "sign"), ({"out": 5}, "out"), ({"format": True}, "format"),
     ({"grid-size": "64.5"}, "grid-size"), ({"lambda": [[1]]}, "lambda")],
)
def test_config_value_that_does_not_convert_names_its_option(
        tmp_path, capsys, monkeypatch, config, named):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QGSW_VSTATES_OUT", raising=False)
    Path("cfg.json").write_text(json.dumps(config))
    code = _run("limits", "--config", "cfg.json")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: bad value for {named}: ")


@pytest.mark.parametrize("sign, signs", [
    ("+", ["+"]), ("plus", ["+"]), ("-", ["-"]), ("minus", ["-"]),
    ("both", ["+", "-"]),
])
def test_sign_spellings(sign, signs):
    args = _build_parser().parse_args(["branch", "--sign", sign])
    assert list(build_config(args).signs) == signs


# one non-default setting per RunConfig field: (flag name, flag text,
# config-file value, value recorded in summary.json); a field without an
# entry here fails the drift test below
_SETTINGS = {
    "lambdas": ("lambda", "2", [2], [2.0]),
    "bs": ("b", "0.25", "0.25", [0.25]),
    "ns": ("n", "2:3", [2, 3], [2, 3]),
    "ms": ("m", "7", [7], [7]),
    "sign": ("sign", "plus", "plus", "plus"),
    "trunc": ("trunc", "4", 4, 4),
    "grid_size": ("grid-size", "64", 64, 64),
    "s_max": ("s-max", "1e-3", 1e-3, 1e-3),
    "steps": ("steps", "3", 3, 3),
    "tol": ("tol", "1e-9", 1e-9, 1e-9),
    "out": ("out", None, None, None),
    "fmt": ("format", "json", "json", "json"),
    "jobs": ("jobs", "2", 2, 2),
}


def test_every_config_field_is_settable_by_flag_and_both_keys(
        tmp_path, monkeypatch):
    import dataclasses

    from qgsw_vstates.cli import RunConfig

    monkeypatch.delenv("QGSW_VSTATES_OUT", raising=False)
    defaults = RunConfig(command="spectrum")
    for field in dataclasses.fields(RunConfig):
        if field.name == "command":
            continue
        flag, text, file_value, recorded = _SETTINGS[field.name]
        for how in ("flag", flag, field.name):
            out = tmp_path / f"{field.name}-{how}"
            if field.name == "out":
                text = file_value = recorded = str(out)
            argv = ["spectrum"] if field.name == "out" else \
                ["spectrum", "--out", str(out)]
            if how == "flag":
                argv += [f"--{flag}", text]
            else:
                path = tmp_path / f"{field.name}-{how}.json"
                path.write_text(json.dumps({how: file_value}))
                argv += ["--config", str(path)]
            assert _run(*argv) == 0, (field.name, how)
            config = json.loads((out / "summary.json").read_text())["config"]
            assert config[field.name] == recorded, (field.name, how)
            default = getattr(defaults, field.name)
            assert recorded != (list(default) if isinstance(default, tuple)
                                else default)


def test_branch_refuses_a_repeated_fold_count(tmp_path, capsys, monkeypatch):
    # m = 5 twice would trace it twice into one file, listed twice
    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(continuation, "newton_solve", no_solve)
    out = tmp_path / "x"
    code = _run("branch", "--lambda", "1", "--b", "0.5", "--m", "5,5",
                "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "m=5" in err
    assert not out.exists()


def test_repeated_fold_count_check_is_linear():
    # the duplicate check counts once: 100,000 distinct modes (the range
    # cap) validate at once, and a repeat still names the first repeated m
    # in order
    start = time.perf_counter()
    cli.RunConfig(command="branch", ms=tuple(range(1, 100_001)))
    assert time.perf_counter() - start < 1.0
    with pytest.raises(cli.ConfigError,
                       match=r"^fold count m=5 is given twice$"):
        cli.RunConfig(command="branch", ms=(5, 3, 3, 5))


def test_single_fold_table_has_one_column_per_coefficient(tmp_path):
    # at m = 1 the lattice is every index, so K = 4 gives a0..a3, b0..b3
    out = tmp_path / "run"
    assert _run("branch", "--lambda", "1", "--b", "0.5", "--m", "1",
                "--trunc", "4", "--grid-size", "64", "--steps", "2",
                "--s-max", "1e-3", "--out", str(out)) == 0
    for sign in ("plus", "minus"):
        with open(out / f"branch_m1_{sign}.csv") as handle:
            header = next(csv.reader(handle))
        assert header == (["s", "omega", "residual"]
                          + [f"a{k}" for k in range(4)]
                          + [f"b{k}" for k in range(4)])


@pytest.mark.parametrize("argv, library_call", [
    (["branch", "--lambda", "1", "--b", "0.5", "--m", "5", "--trunc", "16",
      "--grid-size", "128"],
     lambda: continuation.newton_solve(1, 0.5, 5, "+", 1e-4, trunc=16,
                                       grid=contour.make_grid(128))),
    (["branch", "--lambda", "1", "--b", "0.5", "--m", "2"],
     lambda: ModeCell(1.0, 0.5).root(2, "+")),
    (["branch", "--lambda", "9", "--b", "0.5", "--m", "5"],
     lambda: contour.g_functional(9.0, 0.5, 0.3,
                                  contour.annulus_boundary(1.0),
                                  contour.annulus_boundary(0.5),
                                  contour.make_grid(64))),
    (["verify", "--grid-size", "24"],
     lambda: contour.linearization_check(12, 1.0, 0.5, 0.2, 2e-5,
                                         contour.make_grid(24))),
    (["spectrum", "--n", "0"], lambda: ModeCell(1.0, 0.5).spectrum(0)),
    (["branch", "--m", "0"], lambda: ModeCell(1, 0.5).root(0, "+")),
    (["branch", "--m", "5", "--trunc", "1"],
     lambda: continuation.newton_solve(1, 0.5, 5, "+", 1e-4, trunc=1)),
    (["branch", "--m", "5", "--steps", "0"],
     lambda: continuation.trace_branch(1, 0.5, 5, "+", 1e-3, 0)),
    (["branch", "--s-max", "0"],
     lambda: continuation.trace_branch(1, 0.5, 5, "+", 0.0, 2)),
    (["branch", "--s-max=-2e-3"],
     lambda: continuation.trace_branch(1, 0.5, 5, "+", -2e-3, 2)),
    (["branch", "--lambda", "1", "--b", "1e-300", "--m", "5", "--steps", "1"],
     lambda: ModeCell(1, 1e-300).root(5, "+")),
    (["branch", "--lambda", "1e-300", "--b", "1e-300", "--m", "5"],
     lambda: ModeCell(1e-300, 1e-300)),
    (["spectrum", "--lambda", "1e-300", "--b", "1e-300"],
     lambda: ModeCell(1e-300, 1e-300)),
], ids=["bandwidth", "admission", "lambda-bound", "mode-fit", "order",
        "fold-order", "truncation", "steps", "amplitude-zero",
        "amplitude-negative", "tiny-b", "underflowing-cell-branch",
        "underflowing-cell-table"])
def test_cli_refuses_with_the_library_message(tmp_path, capsys, argv,
                                             library_call):
    # one implementation per rule: the CLI prints the library's own message
    # and writes nothing
    with pytest.raises(ValueError) as info:
        library_call()
    assert _run(*argv, "--out", str(tmp_path / "x")) == 1
    assert not (tmp_path / "x").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(info.value) in err


def test_import_loads_no_thread_pool_or_logging():
    # neither is used by any run; logging is opt-in and must cost nothing
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).parent.parent / "src"), env.get("PYTHONPATH")]))
    probe = ("import sys, qgsw_vstates.cli; print(sorted("
             "{'concurrent.futures', 'logging'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_orders_at_the_scan_cap_are_tabled(tmp_path):
    assert _run("limits", "--n", "100000", "--out", str(tmp_path)) == 0
    (row,) = _read_csv(tmp_path / "limits.csv")
    assert row["n"] == "100000"


def test_tables_at_the_row_cap_are_accepted():
    # 1000 x 10 x 10 rows is the cap itself; one more b is refused
    args = ["spectrum", "--lambda", "0.5:2:1000", "--n", "1:10"]
    config = build_config(_build_parser().parse_args(
        args + ["--b", "0.1:0.9:10"]))
    assert len(config.lambdas) * len(config.bs) * len(config.ns) == 100_000
    with pytest.raises(ValueError, match="table rows must be at most 100000"):
        build_config(_build_parser().parse_args(args + ["--b", "0.1:0.9:11"]))


def test_memory_error_is_refused_naming_the_grid_size(tmp_path, capsys,
                                                      monkeypatch):
    def exhausted(size):
        raise MemoryError()

    monkeypatch.setattr(cli, "make_grid", exhausted)
    assert _run("verify", "--grid-size", "512",
                "--out", str(tmp_path / "x")) == 1
    assert not (tmp_path / "x").exists()
    assert capsys.readouterr().err == (
        "error: out of memory at grid size 512: allocation failed\n")


def _address_space_cap():
    cap = 3 * 2**30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize("argv", [
    ["branch", "--lambda", "1", "--b", "1e-300", "--m", "5", "--steps", "1"],
    ["branch", "--lambda", "1", "--b", "1e-120", "--m", "5", "--steps", "1"],
    ["branch", "--lambda", "1e-300", "--b", "0.5", "--m", "5", "--steps", "1"],
    ["branch", "--lambda", "1e-300", "--b", "1e-300", "--m", "5"],
    ["spectrum", "--b", "1e-300"],
    ["limits", "--n", "100000000"],
    ["eigen", "--n", "1000000"],
    ["spectrum", "--lambda", "1:2:100000000"],
    ["limits", "--n", "1:100000000"],
    ["spectrum", "--lambda", "0.5:2:100000", "--b", "0.1:0.9:100000",
     "--n", "1:3"],
    ["verify", "--grid-size", "100000000000"],
    ["verify", "--grid-size", "20000000"],
    ["branch", "--lambda", "1", "--b", "0.5", "--m", "5", "--grid-size",
     "1000000000"],
], ids=["branch-tiny-b", "branch-tinier-b", "branch-tiny-lambda",
        "branch-tiny-lambda-b", "spectrum-tiny-b", "huge-order",
        "large-order", "huge-float-range", "huge-int-range",
        "huge-table", "huge-grid", "large-grid", "branch-huge-grid"])
def test_hostile_input_answers_or_refuses(tmp_path, argv):
    # each run is its own process under a 3 GB address-space cap and a
    # time limit, so an unbounded input ends in a MemoryError, not a
    # stalled machine; the CLI must answer or refuse without a traceback
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).parent.parent / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "qgsw_vstates", *argv,
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_address_space_cap)
    assert done.returncode in (0, 1, 2, 3), done.stderr
    assert "Traceback" not in done.stderr, done.stderr
    if "--grid-size" in argv:  # the node-count cap refuses before building
        size = argv[argv.index("--grid-size") + 1]
        assert (done.returncode, done.stderr) == (1, (
            "error: grid size must be at most 32768 (an unfolded G's P x P"
            f" kernel block is 8 GiB there); got {size}\n"))
    if argv == ["spectrum", "--b", "1e-300"]:  # Delta_n ~ b^2 underflows
        assert (done.returncode, done.stderr) == (1, (
            "error: no positivity threshold below 100000 for lam=1.0,"
            " b=1e-300\n"))
