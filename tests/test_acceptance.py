"""Acceptance suite: one test per shipping criterion, tolerances inline.

Each test name is the pass/fail line it prints under pytest -v.  The
reference configuration is lam = 1, b = 0.5 (threshold N = 3, traced mode
m = N + 2 = 5); runtime-bounded criteria assert their own wall-clock
budget so a regression in speed fails the same gate as one in accuracy.
"""

import json
import time

import numpy as np
import pytest

import oracles
from qgsw_vstates.bessel import BesselLadder, _beltrami_sum
from qgsw_vstates.cli import main as cli_main
from qgsw_vstates.continuation import trace_branch
from qgsw_vstates.contour import (
    annulus_boundary,
    g_functional,
    linearization_check,
    make_grid,
)
from qgsw_vstates.spectrum import ModeCell, euler_eigenvalues

LAM, B = 1.0, 0.5
M = 5  # threshold N = 3 at the reference point, traced mode N + 2


@pytest.fixture(scope="module")
def traces():
    """Both branches at the default demo resolution, shared by 7 and 8."""
    grid = make_grid(256)
    start = time.monotonic()
    result = {
        sign: trace_branch(LAM, B, M, sign, 5e-3, 8, trunc=16, grid=grid)
        for sign in ("+", "-")
    }
    return result, time.monotonic() - start


def test_bessel_products_and_beltrami_match_independent_oracles():
    start = time.monotonic()
    worst = 0.0
    for n in range(1, 31):
        for x in np.linspace(0.1, 10.0, 20):
            x = float(x)
            reference = oracles.product_ik_quadrature(n, x)
            worst = max(worst, abs(BesselLadder(x).product(n) - reference) / reference)
    assert worst <= 1e-9

    rng = np.random.default_rng(0)
    worst_sum = 0.0
    for theta in rng.uniform(0.0, 2.0 * np.pi, size=50):
        theta = float(theta)
        direct = BesselLadder(np.sqrt(1.25 - np.cos(theta))).k(0)
        worst_sum = max(worst_sum, abs(_beltrami_sum(
            BesselLadder(0.5), BesselLadder(1.0), theta, 60) - direct))
    assert worst_sum <= 1e-10
    assert time.monotonic() - start < 30.0


def test_trivial_annulus_residual_below_1e_11_across_parameter_grid():
    start = time.monotonic()
    grid = make_grid(256)
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        for b in (0.3, 0.5, 0.7):
            outer, inner = annulus_boundary(1.0), annulus_boundary(b)
            for omega in (-0.5, 0.0, 0.5):
                g1, g2 = g_functional(lam, b, omega, outer, inner, grid)
                worst = max(
                    worst, float(np.max(np.abs(g1))), float(np.max(np.abs(g2)))
                )
    assert worst <= 1e-11
    assert time.monotonic() - start < 10.0


def test_finite_difference_multipliers_match_spectral_matrices():
    start = time.monotonic()
    grid = make_grid(256)
    for n in range(1, 13):
        _, deviation = linearization_check(n, LAM, B, 0.2, 2e-5, grid)
        assert float(np.max(np.abs(deviation))) <= 1e-6
    # second-order stencil: halving epsilon divides the deviation by ~4
    for n in (2, 5, 9):
        _, coarse = linearization_check(n, LAM, B, 0.2, 4e-5, grid)
        _, fine = linearization_check(n, LAM, B, 0.2, 2e-5, grid)
        coarse_max = float(np.max(np.abs(coarse)))
        fine_max = float(np.max(np.abs(fine)))
        assert fine_max > 1e-11  # above the cancellation floor
        assert 2.5 < coarse_max / fine_max < 6.0
    assert time.monotonic() - start < 60.0


def test_threshold_finite_interlacing_strict_and_limits_approached():
    threshold = ModeCell(LAM, B).threshold()
    assert threshold.n == 3
    lower, upper = ModeCell(LAM, B).limits()
    pairs = [ModeCell(LAM, B).spectrum(n)[1]
             for n in range(threshold.n, threshold.n + 51)]
    assert all(p is not None and not p.degenerate for p in pairs)
    for here, there in zip(pairs, pairs[1:]):
        assert lower < there.omega_minus < here.omega_minus
        assert here.omega_plus < there.omega_plus < upper
        assert here.omega_minus < here.omega_plus
    far = ModeCell(LAM, B).spectrum(threshold.n + 500)[1]
    assert abs(far.omega_minus - lower) < 1e-3
    assert abs(far.omega_plus - upper) < 1e-3


def test_eigenvalues_continuous_into_euler_and_simply_connected_limits():
    euler_orders = range(4, 24)  # 20 admissible modes at b = 0.5
    gaps = []
    for lam in (1e-1, 1e-2, 1e-3, 1e-4):
        worst = 0.0
        for n in euler_orders:
            pair = ModeCell(lam, B).spectrum(n)[1]
            euler = euler_eigenvalues(n, B)
            worst = max(
                worst,
                abs(pair.omega_minus - euler.minus),
                abs(pair.omega_plus - euler.plus),
            )
        gaps.append(worst)
    assert gaps == sorted(gaps, reverse=True)  # monotone approach
    assert gaps[-1] < 1e-3

    sc_orders = range(2, 22)
    gaps = []
    for b in (1e-1, 1e-2, 1e-3, 1e-4):
        worst = 0.0
        for n in sc_orders:
            pair = ModeCell(LAM, b).spectrum(n)[1]
            worst = max(
                worst,
                abs(pair.omega_plus - ModeCell(LAM, b).simply_connected(n)[1]),
            )
        gaps.append(worst)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 1e-3


def test_burbea_eigenvalues_recovered_in_small_b_euler_limit():
    for n in range(3, 11):
        pair = euler_eigenvalues(n, 1e-6)
        assert pair is not None
        assert abs(pair.plus - (n - 1.0) / (2.0 * n)) < 1e-5


def test_both_branches_trace_with_certified_residuals_and_tangents(traces):
    result, elapsed = traces
    pair = ModeCell(LAM, B).spectrum(M)[1]
    for sign, omega_star in (("+", pair.omega_plus), ("-", pair.omega_minus)):
        trace = result[sign]
        assert trace.completed and len(trace.points) == 8
        for point in trace.points:
            assert point.residual <= 1e-10
        svals = [p.s for p in trace.points[:3]]
        ovals = [p.omega for p in trace.points[:3]]
        omega0 = float(np.polyfit(svals, ovals, 1)[1])
        assert abs(omega0 - omega_star) < 1e-3

        first = trace.points[0]
        v1, v2 = ModeCell(LAM, B).root(M, sign)[1]
        a_lead = first.f1.coefficients[M - 1]
        b_lead = first.f2.coefficients[M - 1]
        if first.pinned == "outer":
            assert b_lead / a_lead == pytest.approx(v2 / v1, rel=0.05)
        else:
            assert a_lead / b_lead == pytest.approx(v1 / v2, rel=0.05)
    assert elapsed < 300.0


def test_mfold_support_exact_and_nondegeneracy_guards_hold(traces):
    result, _ = traces
    for trace in result.values():
        for point in trace.points:
            for boundary in (point.f1, point.f2):
                for idx, coeff in enumerate(boundary.coefficients):
                    if (idx + 1) % M != 0:
                        assert coeff == 0.0

    pair = ModeCell(LAM, B).spectrum(M)[1]
    for omega in (pair.omega_minus, pair.omega_plus):
        for k in range(2, 11):
            det = oracles.determinant(ModeCell(LAM, B).matrix(k * M, omega))
            assert abs(det) > 1e-6  # harmonics of m stay off the kernel

    threshold = ModeCell(LAM, B).threshold()
    for m in range(threshold.n + 1, threshold.n + 11):
        assert ModeCell(LAM, B).root(m, "+")[2]
        assert ModeCell(LAM, B).root(m, "-")[2]


def test_identical_cli_runs_produce_byte_identical_outputs(tmp_path, monkeypatch):
    outputs = []
    for workdir in (tmp_path / "first", tmp_path / "second"):
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert cli_main(["spectrum", "--lambda", "0.5,1", "--b", "0.3,0.5",
                         "--n", "1:10", "--out", "run", "--jobs", "2"]) == 0
        assert cli_main(["verify", "--grid-size", "64", "--out", "run_verify",
                         "--jobs", "1"]) == 0
        outputs.append({
            name: (workdir / name).read_bytes()
            for name in ("run/spectrum.csv", "run/summary.json",
                         "run_verify/verify.csv", "run_verify/summary.json")
        })
    assert outputs[0] == outputs[1]
    # sanity: the second run actually produced content
    summary = json.loads(outputs[1]["run_verify/summary.json"])
    assert summary["results"]["passed"]
