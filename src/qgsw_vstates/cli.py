"""Command-line front end: sweeps, eigenvalue tables, branch traces, checks.

Five subcommands share one configuration model (JSON file plus flags, flags
win) and one output discipline: CSV tables with a header row and 17
significant digits per float, plus a summary.json per run.  Identical
configurations produce byte-identical files; floats round-trip exactly
through either format.

    spectrum   discriminant and eigenvalue table over a (lambda, b, n) grid
    eigen      eigenvalue detail: kernel vectors and transversality flags
    limits     limiting regimes: n -> inf, Euler lambda -> 0, b -> 0, Burbea
    branch     trace bifurcating branches at one (lambda, b) for given m
    verify     built-in check suite (Bessel identities, trivial residual,
               finite-difference multipliers); nonzero exit on failure

Exit codes: 0 pass, 1 validation error, 2 verification failure, 3 branch
trace returned a partial result (outputs still written).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, asdict

import numpy as np

from .bessel import BesselLadder, _beltrami_sum, bessel_k
from .contour import (
    _check_bandwidth, _check_max_lambda, _check_mode_fits, _check_node_count,
    annulus_boundary, fold_grid, g_functional, linearization_check, make_grid,
)
from .continuation import (
    _check_amplitude, _check_steps, _check_truncation, omega_intercept,
    trace_branch,
)
from .spectrum import (
    ModeCell, SearchExhausted, _check_b_open, _check_lambda, _check_order,
    _check_scan_size, _check_window, _normalize_sign, euler_eigenvalues,
)

_COMMANDS = ("spectrum", "eigen", "limits", "branch", "verify")

# multiplier-check bound: the quadrature is spectral, so the O(eps^2)
# finite-difference error (~1e-9 at eps = 2e-5) dominates at every P from 32
_MULTIPLIER_BOUND = 1e-6
# mode orders of verify's multiplier check; each needs a sine on the grid
_VERIFY_MODES = range(1, 13)


class ConfigError(ValueError):
    """Invalid configuration (bad grid, out-of-domain parameter, ...)."""


@contextlib.contextmanager
def _library_rules():
    """A library check's ValueError as a ConfigError with the same message."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class RunConfig:
    """Resolved parameters of one CLI run."""

    command: str
    lambdas: tuple = (1.0,)
    bs: tuple = (0.5,)
    ns: tuple = tuple(range(1, 11))
    ms: tuple = ()  # branch only; empty means "threshold + 2"
    sign: str = "both"
    window: int = 50
    trunc: int = 16
    grid_size: int = 256
    s_max: float = 5e-3
    steps: int = 8
    tol: float = 1e-11
    out: str = "runs"
    fmt: str = "csv"
    jobs: int = 1

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        with _library_rules():
            for n in self.ns + self.ms:
                _check_order(n)
                _check_scan_size(n, "mode order")
            for lam in self.lambdas:
                _check_lambda(lam)
                if self.command == "branch":
                    _check_max_lambda(lam)
            for b in self.bs:
                _check_b_open(b)
            _check_node_count(self.grid_size)
            _check_truncation(self.trunc)
            _check_steps(self.steps)
            _check_amplitude(self.s_max)
            _check_window(self.window)
        for m in self.ms:
            if self.ms.count(m) > 1:
                raise ConfigError(f"fold count m={m} is given twice")
        try:
            self.signs
        except ValueError:
            raise ConfigError(
                f"sign must be +, -, plus, minus or both; got {self.sign!r}"
            ) from None
        if not 0.0 < self.tol < math.inf:
            raise ConfigError(f"tol must be positive and finite; got {self.tol}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json; got {self.fmt!r}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1; got {self.jobs}")

    @property
    def signs(self):
        if self.sign == "both":
            return ("+", "-")
        # str(): the normaliser also takes the integers +1 and -1
        return ("+",) if _normalize_sign(str(self.sign)) > 0 else ("-",)


def parse_float_grid(text):
    """Grid syntax: 'v', 'v1,v2,...', or 'start:stop:count' (inclusive)."""
    text = str(text).strip()
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ConfigError(f"range syntax is start:stop:count; got {text!r}")
    try:
        if len(parts) == 1:
            return tuple(float(t) for t in text.split(",") if t.strip() != "")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid value in {text!r}: {exc}") from None
    if count < 1:
        raise ConfigError(f"range count must be >= 1; got {count}")
    with _library_rules():
        _check_scan_size(count, "range count")
    if count == 1:
        return (start,)
    return tuple(np.linspace(start, stop, count).tolist())


def parse_int_grid(text):
    """Integer grid: 'n', 'n1,n2,...', or 'lo:hi' inclusive (may be empty)."""
    text = str(text).strip()
    parts = text.split(":")
    if len(parts) > 2:
        raise ConfigError(f"integer range syntax is lo:hi; got {text!r}")
    try:
        if len(parts) == 1:
            return tuple(int(t) for t in text.split(",") if t.strip() != "")
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad integer in {text!r}: {exc}") from None
    with _library_rules():
        _check_scan_size(hi - lo + 1, "range length")
    return tuple(range(lo, hi + 1))


# every option that takes a value: flag name, RunConfig field, kind, help.
# A kind is int, float, str, or a one-element tuple for a grid of that type.
# The flag and the field name are also the config-file keys of the option.
_OPTIONS = (
    ("lambda", "lambdas", (float,),
     "lambda grid: v, v1,v2,..., or start:stop:count"),
    ("b", "bs", (float,), "b grid, same syntax, values inside (0,1)"),
    ("n", "ns", (int,), "mode range: n, n1,n2,..., or lo:hi inclusive"),
    ("m", "ms", (int,), "fold counts for branch tracing"),
    ("sign", "sign", str, "+, -, plus, minus, or both"),
    ("window", "window", int, None),
    ("trunc", "trunc", int, None),
    ("grid-size", "grid_size", int, None),
    ("s-max", "s_max", float, None),
    ("steps", "steps", int, None),
    ("tol", "tol", float, None),
    ("out", "out", str, "output directory"),
    ("format", "fmt", str, "csv or json"),
    ("jobs", "jobs", int, "accepted and recorded; selects nothing"),
)


def _convert(value, kind):
    """value as kind, from flag text or a config-file value.  Grids take
    the flag syntax or a list, converted entry by entry.  Bools, non-strings
    for str and fractional numbers for int are refused."""
    if isinstance(kind, tuple):
        if isinstance(value, (list, tuple)):
            grid = tuple(_convert(v, kind[0]) for v in value)
        else:
            grid = (parse_int_grid if kind[0] is int
                    else parse_float_grid)(value)
        if not grid:
            raise ConfigError(f"grid {value!r} has no values")
        return grid
    if (isinstance(value, bool)
            or (kind is str and not isinstance(value, str))
            or (kind is int and isinstance(value, float)
                and not value.is_integer())):
        raise ConfigError(f"expected {kind.__name__}, got {value!r}")
    return kind(value)


# cell text by exact type, for the types the commands write
_CELL_TEXT = {float: "{:.17g}".format, np.float64: "{:.17g}".format, int: str,
              str: str, bool: {True: "true", False: "false"}.get,
              type(None): lambda value: ""}


def _format_cell(value):
    return _CELL_TEXT[type(value)](value)


def _json_cell(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return float(value)


def _write_table(path, header, rows, fmt):
    """One table, CSV (RFC-4180 quoting) or JSON (list of row objects)."""
    if fmt == "csv":
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(map(_format_cell, row) for row in rows)
    else:
        objects = [
            {key: _json_cell(v) for key, v in zip(header, row)} for row in rows
        ]
        with open(path, "w") as handle:
            json.dump(objects, handle, indent=2, sort_keys=True)
            handle.write("\n")


def _table_command(config, stem, header, cell_rows):
    """One table of cell_rows(cell) over the (lambda, b) grid, in order: a
    ModeCell per point, the cells of one lambda sharing its ladder."""
    cells = (ModeCell(lam, b, outer=ladder) for lam in config.lambdas
             for ladder in [BesselLadder(lam)] for b in config.bs)
    with _library_rules():
        rows = [row for cell in cells for row in cell_rows(cell)]
    count = len(config.lambdas) * len(config.bs)
    return 0, [(stem, header, rows)], {"rows": len(rows), "cells": count}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectrum(config):
    header = (
        "lambda",
        "b",
        "n",
        "delta",
        "omega_minus",
        "omega_plus",
        "omega_inf_minus",
        "omega_inf_plus",
        "n0",
        "n_threshold",
    )

    def cell_rows(cell):
        threshold = cell.threshold(config.window)
        lower, upper = cell.limits()
        for n in config.ns:
            delta, pair = cell.spectrum(n)
            yield (
                cell.lam,
                cell.b,
                n,
                delta,
                None if pair is None else pair.omega_minus,
                None if pair is None else pair.omega_plus,
                lower,
                upper,
                threshold.n0,
                threshold.n,
            )

    return _table_command(config, "spectrum", header, cell_rows)


def _cmd_eigen(config):
    header = (
        "lambda",
        "b",
        "n",
        "delta",
        "omega_minus",
        "omega_plus",
        "v1_minus",
        "v2_minus",
        "v1_plus",
        "v2_plus",
        "transversal_minus",
        "transversal_plus",
    )

    def cell_rows(cell):
        for n in config.ns:
            delta, pair = cell.spectrum(n)
            head = (cell.lam, cell.b, n, delta)
            if pair is None or pair.degenerate:
                yield head + (None,) * 6 + (False, False)
                continue
            yield (
                head + (pair.omega_minus, pair.omega_plus)
                + pair.kernel_minus
                + pair.kernel_plus
                + (pair.transversal_minus, pair.transversal_plus)
            )

    return _table_command(config, "eigen", header, cell_rows)


def _cmd_limits(config):
    header = (
        "lambda",
        "b",
        "n",
        "omega_inf_minus",
        "omega_inf_plus",
        "euler_minus",
        "euler_plus",
        "sc_minus",
        "sc_plus",
        "burbea",
    )

    def cell_rows(cell):
        lower, upper = cell.limits()
        for n in config.ns:
            euler = euler_eigenvalues(n, cell.b)
            sc_minus, sc_plus = cell.simply_connected(n)
            yield (
                cell.lam,
                cell.b,
                n,
                lower,
                upper,
                None if euler is None else euler.minus,
                None if euler is None else euler.plus,
                sc_minus,
                sc_plus,
                (n - 1.0) / (2.0 * n),
            )

    return _table_command(config, "limits", header, cell_rows)


def _cmd_branch(config):
    if len(config.lambdas) != 1 or len(config.bs) != 1:
        raise ConfigError(
            "branch tracing wants exactly one lambda and one b"
            f" (got {len(config.lambdas)} x {len(config.bs)})"
        )
    lam, b = config.lambdas[0], config.bs[0]
    with _library_rules():
        cell = ModeCell(lam, b)
    modes = config.ms or (cell.threshold(config.window).n + 2,)
    tasks = [(m, sign) for m in modes for sign in config.signs]
    omega_stars = {}
    with _library_rules():
        for m, sign in tasks:
            _check_bandwidth(m, config.trunc, config.grid_size)
            omega_stars[m, sign] = cell.root(m, sign)[0]

    def job(m, sign, grid):
        trace = trace_branch(
            lam, b, m, sign, config.s_max, config.steps,
            trunc=config.trunc, grid=grid,
        )
        omega_star = omega_stars[m, sign]
        omega0, bend = omega_intercept(trace.points)
        count = max((p.truncation for p in trace.points), default=0)
        rows = [[p.s, p.omega, p.residual, *p.lattice(count).ravel()]
                for p in trace.points]
        # the columns of p.lattice(count).ravel(), named by dense index
        header = ["s", "omega", "residual"] + [
            f"{side}{m * (k + 1) - 1}" for side in "ab" for k in range(count)]
        stem = f"branch_m{m}_{'plus' if sign == '+' else 'minus'}"
        return (stem, header, rows), {
            "m": m,
            "sign": sign,
            "grid_size": grid.node_count,
            "file": f"{stem}.{config.fmt}",
            "points": len(trace.points),
            "residual_evaluations": trace.evaluations,
            "jacobian_builds": trace.builds,
            "newton_steps": trace.newton_steps,
            "completed": trace.completed,
            "termination": trace.termination_reason,
            "omega_star": omega_star,
            "omega_extrapolated": omega0,
            "omega_bend": bend,
            "gap": None if omega0 is None else abs(omega0 - omega_star),
        }

    # --grid-size is a floor: one fold_grid per m, shared by both signs
    tables, branches = zip(*(
        job(m, sign, grid) for m in modes
        for grid in [fold_grid(m, config.grid_size)] for sign in config.signs
    ))
    partial = any(not entry["completed"] for entry in branches)
    return (3 if partial else 0), list(tables), {
        "branches": list(branches),
        "partial": partial,
    }


def _verify_bessel_wronskian():
    ladders = [BesselLadder(float(x)) for x in np.geomspace(0.1, 30.0, 25)]
    return max(
        abs(ladder.i(n) * ladder.derivative("K", n)
            - ladder.derivative("I", n) * ladder.k(n) + 1.0 / ladder.x)
        * ladder.x for n in range(16) for ladder in ladders)


def _verify_bessel_beltrami():
    inner, outer = BesselLadder(0.5), BesselLadder(1.0)
    thetas = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, size=50)
    return max(
        abs(_beltrami_sum(inner, outer, theta, 40)
            - bessel_k(0, math.sqrt(1.25 - math.cos(theta))))
        for theta in thetas.tolist())


def _verify_trivial_residual(grid):
    return max(
        float(np.max(np.abs(g_functional(lam, b, omega, annulus_boundary(1.0),
                                         annulus_boundary(b), grid))))
        for lam in (0.5, 1.0, 2.0) for b in (0.3, 0.5, 0.7)
        for omega in (-0.5, 0.0, 0.5))


def _verify_multipliers(grid):
    return max(
        float(np.max(np.abs(linearization_check(n, 1.0, 0.5, 0.2, 2e-5,
                                                grid)[1])))
        for n in _VERIFY_MODES)


def _cmd_verify(config):
    with _library_rules():
        _check_mode_fits(_VERIFY_MODES[-1], config.grid_size)
    grid = make_grid(config.grid_size)
    checks = [
        ("bessel_wronskian", _verify_bessel_wronskian(), 1e-11),
        ("bessel_beltrami", _verify_bessel_beltrami(), 1e-10),
        ("trivial_residual", _verify_trivial_residual(grid), config.tol),
        ("multiplier_match", _verify_multipliers(grid), _MULTIPLIER_BOUND),
    ]
    rows = [(name, config.grid_size, measured, bound, measured <= bound)
            for name, measured, bound in checks]
    passed = all(row[-1] for row in rows)
    header = ("check", "grid_size", "measured", "bound", "passed")
    entries = [
        {"name": name, "measured": measured, "bound": bound, "passed": ok}
        for name, _, measured, bound, ok in rows
    ]
    return (0 if passed else 2), [("verify", header, rows)], {
        "checks": entries,
        "passed": passed,
    }


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "eigen": _cmd_eigen,
    "limits": _cmd_limits,
    "branch": _cmd_branch,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    # all validation problems exit 1, including argparse's own (default 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(
        prog="qgsw-vstates",
        description="Rotating doubly-connected vortex patches: spectrum "
        "tables, bifurcation branches, and verification sweeps.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="JSON config file; flags override it")
    for flag, field, kind, help_text in _OPTIONS:
        metavar = {(float,): "GRID", (int,): "RANGE"}.get(kind)
        parser.add_argument(f"--{flag}", dest=field, metavar=metavar,
                            help=help_text)
    return parser


def _read_config_file(path):
    """{field: value} from a JSON config file keyed by flag or field names."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    fields = {key: field for flag, field, _, _ in _OPTIONS
              for key in (flag, field)}
    values, keys = {}, {}
    for key, value in raw.items():
        if key not in fields:
            raise ConfigError(f"unknown config key {key!r}")
        if value is None:
            raise ConfigError(f"config key {key!r} is null")
        field = fields[key]
        if field in keys:
            raise ConfigError(f"config keys {keys[field]!r} and {key!r}"
                              " name the same option")
        values[field], keys[field] = value, key
    return values


def build_config(args):
    """Merge precedence: flag > QGSW_VSTATES_OUT (out only) > config file >
    RunConfig default."""
    file_values = {} if args.config is None else _read_config_file(args.config)
    if args.out is None and "QGSW_VSTATES_OUT" in os.environ:
        file_values["out"] = os.environ["QGSW_VSTATES_OUT"]
    values = {}
    for flag, field, kind, _ in _OPTIONS:
        value = getattr(args, field)
        if value is None:
            value = file_values.get(field)
        if value is None:
            continue
        try:
            values[field] = _convert(value, kind)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {flag}: {exc}") from None
    return RunConfig(command=args.command, **values)


def run(config):
    """Execute one resolved configuration; returns the process exit code.
    --out is made only once the command has returned, so a refusal raised
    inside the command leaves no directory behind."""
    out = config.out
    if not out or (os.path.exists(out) and not os.path.isdir(out)):
        raise ConfigError(f"cannot create output directory: {out!r} is"
                          " empty or not a directory")
    code, tables, results = _DISPATCH[config.command](config)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from None
    files = []
    for stem, header, rows in tables:
        files.append(f"{stem}.{config.fmt}")
        _write_table(os.path.join(out, files[-1]), header, rows,
                     config.fmt)
    summary = {
        "command": config.command,
        "config": {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(config).items()
        },
        "exit_code": code,
        "results": {"files": files, **results},
    }
    with open(os.path.join(out, "summary.json"), "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return code


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = build_config(args)
        return run(config)
    # OverflowError: a Bessel value outside the normal double range
    except (ConfigError, SearchExhausted, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
