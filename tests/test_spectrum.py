import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
import qgsw_vstates.spectrum as spectrum
from qgsw_vstates import cli
from qgsw_vstates.bessel import BesselLadder
from qgsw_vstates.contour import annulus_boundary, make_grid, s_integral
from qgsw_vstates.spectrum import (
    ModeCell,
    SearchExhausted,
    Threshold,
    euler_eigenvalues,
)


def _coupling(n, lam, b):
    return ModeCell(lam, b).coupling(n)


def _delta(n, lam, b):
    return ModeCell(lam, b).spectrum(n)[0]


def _rankine(n, x):
    # Omega_n(x) from the products of a fresh ladder, apart from any cell
    ladder = BesselLadder(x)
    return ladder.product(1) - ladder.product(n)


def _scale(block):
    """Largest entry magnitude, for relative tolerance checks."""
    return float(np.max(np.abs(block)))


def test_coupling_small_lambda_limit():
    # I_n(lam b) K_n(lam) -> b^n/(2n) as lam -> 0
    assert _coupling(3, 1e-4, 0.5) == pytest.approx(0.5**3 / 6, abs=1e-4)


def test_coupling_matches_cosine_moment_quadrature():
    want = oracles.k0_cosine_moment(1.0, 0.5, 4)
    assert _coupling(4, 1.0, 0.5) == pytest.approx(want, abs=1e-10)


def test_coupling_extreme_order():
    # b^n/(2n) scaling: representable at b = 0.99, clean underflow at 0.5
    val = _coupling(2000, 1.0, 0.99)
    assert val == pytest.approx(0.99**2000 / 4000.0, rel=1e-4)
    assert _coupling(2000, 1.0, 0.5) == 0.0


def test_coupling_validation():
    # the cell refuses lam <= 0, b outside (0, 1) and orders below 1
    cell = ModeCell(1.0, 0.5)
    for call in (cell.mode, cell.spectrum, cell.simply_connected,
                 lambda n: cell.block(n, 0.1)):
        for n in (0, -2):
            with pytest.raises(ValueError, match="order must be >= 1"):
                call(n)
    for lam in (0.0, -1.0):
        with pytest.raises(ValueError, match="lambda must be positive"):
            ModeCell(lam, 0.5)
    for b in (0.0, 1.0, 1.2, -0.5):
        with pytest.raises(ValueError, match="strictly inside"):
            ModeCell(1.0, b)


def test_fractional_orders_are_refused_not_truncated():
    # the order check is the ladder's integrality test: 2.7 is not mode 2
    cell = ModeCell(1.0, 0.5)
    for call in (cell.mode, cell.spectrum, cell.simply_connected,
                 lambda n: cell.block(n, 0.1),
                 lambda n: cell.root(n, "+"),
                 lambda n: euler_eigenvalues(n, 0.5)):
        for n in (2.7, 2.5, 4.5):
            with pytest.raises(ValueError, match="order must be an integer"):
                call(n)
    assert np.array_equal(cell.block(3.0, 0.1), cell.block(3, 0.1))


def test_rankine_multiplier_basics():
    for x in (0.3, 1.0, 7.0):
        cell = ModeCell(x, 0.5)
        assert cell.simply_connected(1)[1] == 0.0
        for n in (2, 3, 9):
            assert cell.simply_connected(n)[1] > 0.0


def test_rankine_multiplier_tail():
    cell = ModeCell(1.0, 0.5)
    assert cell.simply_connected(400)[1] == pytest.approx(
        cell.outer.product(1), abs=2e-3
    )


def test_matrix_entries_rebuild_bit_identical():
    # block is n M_n, each entry of M_n from quantities of fresh ladders
    n, lam, b = 8, 1.0, 0.5
    lam1 = _coupling(1, lam, b)
    lamn = _coupling(n, lam, b)
    m11 = _rankine(n, lam) - 0.0 - b * lam1
    m12 = b * lamn
    m21 = -lamn
    m22 = lam1 - b * (_rankine(n, lam * b) + 0.0)
    assert np.array_equal(ModeCell(lam, b).block(n, 0.0),
                          n * np.array([[m11, m12], [m21, m22]]))


def test_matrix_sign_structure():
    cell = ModeCell(1.0, 0.5)
    for n in (1, 3, 12):
        block = cell.block(n, 0.1)
        assert block[0, 1] > 0.0 > block[1, 0]
        assert block[0, 1] / block[1, 0] == pytest.approx(-0.5, rel=1e-14)


def test_matrix_determinant_vanishes_at_roots():
    cell = ModeCell(1.0, 0.5)
    pair = cell.spectrum(5)[1]
    for omega in (pair.omega_minus, pair.omega_plus):
        block = cell.block(5, omega)
        assert abs(oracles.determinant(block)) <= 1e-12 * _scale(block) ** 2


def test_discriminant_tends_to_squared_limit():
    lam, b = 1.0, 0.5
    lam1 = _coupling(1, lam, b)
    delta_inf = (b * (BesselLadder(lam).product(1)
                      + BesselLadder(lam * b).product(1)) - (1 + b * b) * lam1)
    assert delta_inf > 0.0
    # gap decays like 2 delta_inf * b/n (the I_n K_n tails), so halving is
    # expected between n = 200 and n = 400, and 1e-2 relative needs n ~ 530
    gap_200 = abs(_delta(200, lam, b) - delta_inf**2)
    gap_400 = abs(_delta(400, lam, b) - delta_inf**2)
    assert gap_400 == pytest.approx(gap_200 / 2.0, rel=2e-2)
    assert abs(_delta(600, lam, b) - delta_inf**2) < 1e-2 * delta_inf**2


def test_squared_limit_positive_on_grid():
    for lam in (0.5, 1.0, 2.0):
        for b in (0.3, 0.5, 0.7):
            lam1 = _coupling(1, lam, b)
            delta_inf = (
                b * (BesselLadder(lam).product(1)
                     + BesselLadder(lam * b).product(1))
                - (1 + b * b) * lam1
            )
            assert delta_inf > 0.0, (lam, b)


def test_discriminant_equals_quadratic_recombination():
    for lam, b in ((1.0, 0.5), (0.5, 0.3), (2.0, 0.7)):
        cell = ModeCell(lam, b)
        for n in (1, 3, 4, 5, 8, 20):
            delta_n, pair = cell.spectrum(n)
            if pair is None:
                continue
            b_n, c_n, _ = oracles.quadratic(cell, n)
            recomb = b_n**2 - 4.0 * b * c_n
            scale = b_n**2 + abs(4.0 * b * c_n) + abs(delta_n)
            assert abs(recomb - delta_n) <= 1e-12 * scale, (n, lam, b)


def test_eigenvalues_closed_form_term_by_term():
    m, lam, b = 12, 1.0, 0.5
    delta_m, pair = ModeCell(lam, b).spectrum(m)
    lam1 = _coupling(1, lam, b)
    lamm = _coupling(m, lam, b)
    outer = _rankine(m, lam)
    inner = _rankine(m, lam * b)
    b_m = (1 - b * b) * lam1 + b * (outer - inner)
    delta = (b * (outer + inner) - (1 + b * b) * lam1) ** 2 - 4 * b * b * lamm**2
    assert pair.omega_plus == pytest.approx((b_m + math.sqrt(delta)) / (2 * b), rel=1e-14)
    assert pair.omega_minus == pytest.approx((b_m - math.sqrt(delta)) / (2 * b), rel=1e-14)
    assert delta_m == pytest.approx(delta, rel=1e-14)


def test_eigenvalues_absent_when_discriminant_negative():
    delta, pair = ModeCell(1.0, 0.5).spectrum(2)
    assert delta < 0.0
    assert pair is None


def test_eigenvalues_vieta():
    cell = ModeCell(1.0, 0.5)
    delta, pair = cell.spectrum(5)
    b = 0.5
    b_n, c_n, _ = oracles.quadratic(cell, 5)
    assert pair.omega_minus + pair.omega_plus == pytest.approx(
        b_n / b, rel=1e-12
    )
    assert pair.omega_minus * pair.omega_plus == pytest.approx(
        c_n / b, rel=1e-12
    )
    assert pair.omega_minus <= pair.omega_plus
    assert delta > 0.0  # a simple pair, not a double root


def test_mode_one_has_zero_root():
    # pure rotation of the annulus is always a steady state, so Omega = 0
    # solves the mode-1 quadratic (C_1 vanishes identically)
    for lam, b in ((1.0, 0.5), (0.5, 0.3), (2.0, 0.7)):
        cell = ModeCell(lam, b)
        pair = cell.spectrum(1)[1]
        assert oracles.quadratic(cell, 1)[1] == 0.0
        assert abs(pair.omega_minus) <= 1e-14 * max(1.0, abs(pair.omega_plus))


def test_omega_limits_order_and_attraction():
    cell = ModeCell(1.0, 0.5)
    lower, upper = cell.limits()
    assert lower < upper
    pair = cell.spectrum(500)[1]
    assert abs(upper - pair.omega_plus) < 1e-3
    assert abs(pair.omega_minus - lower) < 1e-3


def test_omega_limits_small_lambda():
    lower, upper = ModeCell(1e-5, 0.5).limits()
    assert abs(upper - 0.375) < 1e-3  # (1 - b^2)/2 at b = 0.5
    assert lower < upper


def test_threshold_at_reference_point():
    # frozen from the scan; cross-checked by the discriminant signs below
    cell = ModeCell(1.0, 0.5)
    th = cell.threshold()
    assert th == Threshold(n0=3, n=3)
    assert cell.spectrum(2)[0] < 0.0 < cell.spectrum(3)[0]
    plus_n = cell.spectrum(th.n)[1]
    plus_next = cell.spectrum(th.n + 1)[1]
    assert plus_n.omega_plus < plus_next.omega_plus
    assert plus_n.omega_minus > plus_next.omega_minus


def test_threshold_interlacing_chain():
    cell = ModeCell(1.0, 0.5)
    th = cell.threshold()
    lower, upper = cell.limits()
    for n, m in ((th.n, th.n + 1), (th.n, th.n + 7), (th.n + 4, th.n + 27),
                 (th.n + 17, th.n + 50)):
        pn, pm = cell.spectrum(n)[1], cell.spectrum(m)[1]
        assert lower < pm.omega_minus < pn.omega_minus
        assert pn.omega_minus < pn.omega_plus
        assert pn.omega_plus < pm.omega_plus < upper


def test_threshold_validation_and_exhaustion(monkeypatch):
    # (1, 0.5) certifies at order 3: a scan capped at 3 finds it, one
    # capped at 2 is refused with the message the CLI prints
    monkeypatch.setattr(spectrum, "_SCAN_CAP", 3)
    assert ModeCell(1.0, 0.5).threshold() == Threshold(n0=3, n=3)
    monkeypatch.setattr(spectrum, "_SCAN_CAP", 2)
    with pytest.raises(SearchExhausted, match=(
            r"^no positivity threshold below 2 for lam=1\.0, b=0\.5$")):
        ModeCell(1.0, 0.5).threshold()


def _limit_gap(cell, k):
    """D_k = delta_inf - b(P_k(lam) + P_k(lam b)), where P_k = I_k K_k."""
    b = cell.b
    limit = b * (cell.outer.product(1) + cell.inner.product(1)) - (
        1.0 + b * b) * cell.lam1
    return limit - b * (cell.outer.product(k) + cell.inner.product(k))


def _certificate_order(cell):
    """k*: the first order with D_k > 0 and Delta_k > 1e-8 D_k^2 > 0."""
    for k in range(1, spectrum._SCAN_CAP + 1):
        d = _limit_gap(cell, k)
        if d > 0.0 and cell.spectrum(k)[0] > 1e-8 * d * d > 0.0:
            return k
    return None


def _count_cell_builds(monkeypatch):
    """Counter of ModeCell.mode calls per order, for the rest of a test."""
    builds = Counter()
    build = spectrum.ModeCell.mode

    def counted(cell, n):
        builds[n] += 1
        return build(cell, n)

    monkeypatch.setattr(spectrum.ModeCell, "mode", counted)
    return builds


def test_threshold_scan_builds_each_order_once(monkeypatch):
    # the scan reads orders 1..k* and stops: k* = n0 = 3 at (1, 0.5);
    # k* = 2 > n0 = 1 at (8, 0.5), since D_1 = -(1 + b^2) Lambda_1 < 0
    # never certifies; k* = n0 = 129 at (1, 0.99)
    for lam, b, want in ((1.0, 0.5, Threshold(n0=3, n=3)),
                         (8.0, 0.5, Threshold(n0=1, n=2)),
                         (1.0, 0.99, Threshold(n0=129, n=129))):
        k_star = _certificate_order(ModeCell(lam, b))
        builds = _count_cell_builds(monkeypatch)
        assert ModeCell(lam, b).threshold() == want
        assert set(builds) == set(range(1, k_star + 1)), (lam, b)
        assert max(builds.values()) == 1
        monkeypatch.undo()


def _threshold_outcome(cell, scan):
    try:
        result = scan(cell)
    except SearchExhausted as exhausted:
        result = str(exhausted)
    return result, set(cell._spectra)


def test_threshold_scan_matches_the_two_loop_reference():
    # the certificate rule returns what the window-50 scan returned, or
    # raises its message, and reads none of the orders that scan did not
    grid = [(lam, b) for lam in (0.1, 1.0, 8.0, 300.0)
            for b in (0.1, 0.5, 0.8, 0.95)]
    # the spectral-tables benchmark grid at seed 0
    grid += [(lam, b) for lam in cli.parse_float_grid("0.1:5.0:8")
             for b in cli.parse_float_grid("0.1:0.9:8")]
    for lam, b in grid + [(1.0, 1e-120), (1e-300, 0.5)]:
        got, read = _threshold_outcome(ModeCell(lam, b), ModeCell.threshold)
        want, reference_read = _threshold_outcome(
            ModeCell(lam, b),
            lambda cell: oracles.threshold_reference(cell, 50, 100_000))
        assert got == want, (lam, b)
        assert read <= reference_read, (lam, b)


def test_threshold_on_a_tiny_b_band_matches_the_reference_or_reads_nothing():
    # b from 1e-300 to 1e-150: a certified cell returns the two-loop scan's
    # threshold; below b ~ 1e-158, where _MARGIN delta_inf^2 underflows to
    # 0, the cell refuses before reading an order, saying no order can
    # certify one, and at (1, 1e-162) the reference reads all 100000 orders
    # to a refusal too
    def reference(cell):
        return oracles.threshold_reference(cell, 50, 100_000)

    for lam in (1e-3, 1.0, 700.0):
        for b in (1e-300, 1e-250, 1e-200, 1e-162, 1e-160, 1e-158, 1e-156,
                  1e-154, 1e-152, 1e-150):
            got, read = _threshold_outcome(ModeCell(lam, b),
                                           ModeCell.threshold)
            if isinstance(got, Threshold):
                assert got == _threshold_outcome(ModeCell(lam, b),
                                                 reference)[0], (lam, b)
            else:
                assert b <= 1e-158 and read == set(), (lam, b)
                assert re.fullmatch(re.escape(
                    "no order can certify a positivity threshold for"
                    f" lam={lam}, b={b}: delta_inf = ") + r"\S+" + re.escape(
                    " leaves no margin 1e-08 delta_inf^2 > 0"), got), got
    assert _threshold_outcome(ModeCell(1.0, 1e-162), reference)[0] == (
        "no positivity threshold below 100000 for lam=1.0, b=1e-162")


# the cells of the Bessel-fact tests: arguments lam and lam b from 1e-6 to
# 700, and certificate orders k* from 2 to 1500
_FACT_LAMBDAS = (1e-3, 0.1, 1.0, 8.0, 50.0, 300.0, 700.0)
_FACT_BS = (1e-3, 0.5, 0.9, 0.99, 0.999)


def _mp_bessel(mp, x, top):
    """[I_n(x)] and [K_n(x)] for n = 0..top in 30-digit mpmath: K by its
    upward recurrence from K_0 and K_1, I by its downward recurrence from
    I_top and I_{top-1} (each the stable direction)."""
    x = mp.mpf(x)
    ks = [mp.besselk(0, x), mp.besselk(1, x)]
    for j in range(1, top):
        ks.append(ks[j - 1] + 2 * j / x * ks[j])
    i_down = [mp.besseli(top, x), mp.besseli(top - 1, x)]
    for j in range(top - 1, 0, -1):
        i_down.append(i_down[-1] * 2 * j / x + i_down[-2])
    return i_down[::-1], ks


def test_bessel_facts_behind_the_threshold_against_mpmath():
    # (F1) P_n(x) = I_n(x) K_n(x) and (F4) Lambda_n = I_n(lam b) K_n(lam)
    # fall strictly in n, through k* + 60; F4 by way of the ratio bounds
    # I_{n+1}/I_n(y) < y/(c + sqrt(c^2 + y^2)) and K_{n+1}/K_n(x) <
    # (c + sqrt(c^2 + x^2))/x at c = n + 1/2
    mp = pytest.importorskip("mpmath")
    for lam, b in [(lam, b) for lam in _FACT_LAMBDAS for b in _FACT_BS]:
        top = _certificate_order(ModeCell(lam, b)) + 61
        with mp.workdps(30):
            i_out, k_out = _mp_bessel(mp, lam, top)
            i_in, k_in = _mp_bessel(mp, lam * b, top)
            x, y = mp.mpf(lam), mp.mpf(lam * b)
            for n in range(1, top):
                c = n + mp.mpf(0.5)
                assert i_out[n + 1] * k_out[n + 1] < i_out[n] * k_out[n]
                assert i_in[n + 1] * k_in[n + 1] < i_in[n] * k_in[n]
                assert i_in[n + 1] / i_in[n] < y / (c + mp.hypot(c, y))
                assert k_out[n + 1] / k_out[n] < (c + mp.hypot(c, x)) / x
                assert i_in[n + 1] * k_out[n + 1] < i_in[n] * k_out[n], (
                    lam, b, n)


def test_computed_discriminant_stays_certified_past_k_star():
    # what F1 and F4 promise past k*, in the computed values: Delta_j > 0
    # and strictly monotone steps for 300 orders, or up to the ladder's
    # own OverflowError
    hostile = [(1.0, 1e-120), (1e-300, 0.5), (1.0, 0.9999), (1e-300, 0.9999)]
    for lam, b in [(lam, b) for lam in _FACT_LAMBDAS
                   for b in _FACT_BS] + hostile:
        cell = ModeCell(lam, b)
        k_star = _certificate_order(cell)
        delta, prev = cell.spectrum(k_star)
        assert delta > 0.0, (lam, b)
        for j in range(k_star + 1, k_star + 301):
            try:
                delta, pair = cell.spectrum(j)
            except OverflowError:
                break
            assert delta > 0.0, (lam, b, j)
            assert prev.omega_plus < pair.omega_plus, (lam, b, j)
            assert prev.omega_minus > pair.omega_minus, (lam, b, j)
            prev = pair


def test_threshold_moves_with_a_broken_discriminant():
    # mutations of the orders a scan reads, each pair kept as computed:
    # Delta <= 0 from k* through an order past it moves k*, n0 and n past
    # that order; a Delta at k* just inside the margin (0.5e-8 D^2) moves
    # k* by one and leaves (n0, n); one just outside it (2e-8 D^2) moves
    # nothing
    for lam, b in ((1.0, 0.5), (8.0, 0.5), (1.0, 0.9)):
        fresh = ModeCell(lam, b)
        k_star = _certificate_order(fresh)
        d = _limit_gap(fresh, k_star)
        today = fresh.threshold()
        for patched, value, moved in (
                (range(k_star, k_star + 5), -1.0, k_star + 5),
                ([k_star], 0.5e-8 * d * d, k_star + 1),
                ([k_star], 2e-8 * d * d, k_star)):
            cell = ModeCell(lam, b)
            read = []
            honest = cell.spectrum

            def broken(k):
                read.append(k)
                delta, pair = honest(k)
                return (value, pair) if k in patched else (delta, pair)

            cell.spectrum = broken
            got = cell.threshold()
            assert max(read) == moved, (lam, b, value)
            if value < 0.0:
                assert got == Threshold(n0=moved, n=moved), (lam, b)
            else:
                assert got == today, (lam, b, value)


def test_spectrum_command_builds_each_order_once_per_cell(monkeypatch, tmp_path):
    builds = _count_cell_builds(monkeypatch)
    argv = ["spectrum", "--lambda", "1", "--b", "0.5", "--n", "1:60",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    # the scan covers [1, 3], the rows [1, 60]; rows reuse the scan's memo
    assert set(builds) == set(range(1, 61))
    assert max(builds.values()) == 1


def _cell_on_a_used_ladder(lam, b):
    # the ladder at lam a table row shares, already extended past order 60
    # (and its memos filled) by the cell of another b
    ladder = BesselLadder(lam)
    ModeCell(lam, 0.2, outer=ladder).threshold()
    ladder.i(90)
    cell = ModeCell(lam, b, outer=ladder)
    assert cell.outer is ladder
    return cell


def test_cell_matches_per_order_functions_bitwise():
    # a cell that reached other orders first, or shares a used ladder,
    # gives the bits of a fresh cell that computes one quantity only
    lam, b = 2.3, 0.7
    for build, orders in (
        (ModeCell, (40, 1, 7, 300, 2)),  # orders below the top read the state
        (_cell_on_a_used_ladder, range(1, 61)),
    ):
        cell = build(lam, b)
        assert cell.limits() == ModeCell(lam, b).limits()
        assert cell.threshold() == ModeCell(lam, b).threshold()
        for n in orders:
            fresh = math.exp(BesselLadder(lam * b).log_i(n)
                             + BesselLadder(lam).log_k(n))
            assert cell.mode(n)[1:] == (
                fresh, _rankine(n, lam), _rankine(n, lam * b))
            pair = cell.spectrum(n)[1]
            assert pair == ModeCell(lam, b).spectrum(n)[1]
            assert np.array_equal(cell.block(n, 0.3),
                                  ModeCell(lam, b).block(n, 0.3))
            assert (cell.simply_connected(n)
                    == ModeCell(lam, b).simply_connected(n))
            if pair is not None:
                for sign in "+-":
                    assert cell.root(n, sign) == ModeCell(lam, b).root(n, sign)


def test_cell_refuses_a_ladder_at_another_argument():
    with pytest.raises(ValueError, match="not at lambda=1.0"):
        ModeCell(1.0, 0.5, outer=BesselLadder(0.5))  # the ladder at lam b
    assert ModeCell(1.0, 0.5, outer=BesselLadder(1.0)).outer.x == 1.0


def test_euler_limit_of_rankine_velocity():
    pair = euler_eigenvalues(5, 1e-6)
    assert pair.plus == pytest.approx(0.4, abs=1e-6)  # (n-1)/(2n) at n = 5


def test_euler_existence_boundary():
    # at b = 0.5: n = 4 passes (1.0625 < 1.5), n = 3 sits exactly on the
    # degenerate boundary (radicand 0) and is reported absent
    assert euler_eigenvalues(4, 0.5) is not None
    assert euler_eigenvalues(3, 0.5) is None
    assert oracles.euler_admissible(4, 0.5)
    assert not oracles.euler_admissible(3, 0.5)
    assert not oracles.euler_admissible(1, 0.5)


def test_euler_is_small_lambda_limit():
    cell = ModeCell(1e-4, 0.5)
    for n in range(4, 21):
        pair = cell.spectrum(n)[1]
        limit = euler_eigenvalues(n, 0.5)
        assert abs(pair.omega_plus - limit.plus) < 1e-3, n
        assert abs(pair.omega_minus - limit.minus) < 1e-3, n


def test_euler_gap_decreases_with_lambda():
    gaps = []
    for lam in (1e-1, 1e-2, 1e-3):
        cell = ModeCell(lam, 0.5)
        gaps.append(
            max(
                abs(cell.spectrum(n)[1].omega_plus - euler_eigenvalues(n, 0.5).plus)
                for n in range(4, 11)
            )
        )
    assert gaps[0] > gaps[1] > gaps[2]


def test_simply_connected_is_small_b_limit():
    cell = ModeCell(1.0, 1e-4)
    assert cell.simply_connected(1)[1] == 0.0
    for n in range(2, 21):
        pair = cell.spectrum(n)[1]
        sc_minus, sc_plus = cell.simply_connected(n)
        assert sc_minus == (n * BesselLadder(1.0).k(1) - n + 1.0) / (2.0 * n)
        assert sc_plus == _rankine(n, 1.0)
        assert abs(pair.omega_plus - sc_plus) < 1e-3, n
        assert abs(pair.omega_minus - sc_minus) < 1e-3, n


def test_x_k1_bounded_and_decreasing():
    xs = np.geomspace(1e-3, 50.0, 40)
    vals = np.array([x * BesselLadder(float(x)).k(1) for x in xs])
    assert np.all(vals > 0.0) and np.all(vals < 1.0)
    assert np.all(np.diff(vals) < 0.0)


def test_kernel_vector_membership_and_sign():
    cell = ModeCell(1.0, 0.5)
    for m, sign in ((12, "+"), (12, "-"), (5, "+"), (5, "-")):
        omega, (v1, v2), _ = cell.root(m, sign)
        block = cell.block(m, omega)
        norm_v = math.hypot(v1, v2)
        assert v2 < 0.0
        assert norm_v > 0.0
        for row in block:
            assert abs(row[0] * v1 + row[1] * v2) <= (
                1e-11 * _scale(block) * norm_v)


def test_kernel_vector_is_adjugate_column():
    # (v1, v2) = (-m22, m21) bit for bit, with M_9's second row rebuilt
    # from the cell's quantities exactly as block builds it
    cell = ModeCell(1.0, 0.5)
    lam1, lam9, outer, inner = cell.mode(9)
    for sign in ("+", "-"):
        omega, (v1, v2), _ = cell.root(9, sign)
        m21, m22 = -lam9, lam1 - 0.5 * (inner + omega)
        assert v1 == -m22
        assert v2 == m21
        assert np.array_equal(cell.block(9, omega)[1], 9 * np.array([m21, m22]))


def test_kernel_vector_minus_branch_inner_dominant():
    # on the minus branch the inner-interface component dwarfs the outer
    # one; the continuation module pins its amplitude on the dominant entry
    cell = ModeCell(1.0, 0.5)
    v1, v2 = cell.root(5, "-")[1]
    assert abs(v2 / v1) > 50.0
    w1, w2 = cell.root(5, "+")[1]
    assert abs(w2 / w1) < 1.0


def test_kernel_vector_requires_positive_discriminant():
    cell = ModeCell(1.0, 0.5)
    for sign in "+-":
        with pytest.raises(ValueError, match="no simple real pair"):
            cell.root(2, sign)


def test_transversality_sweep():
    for lam in (0.5, 1.0, 2.0):
        for b in (0.3, 0.5, 0.7):
            cell = ModeCell(lam, b)
            th = cell.threshold()
            for m in range(th.n + 1, th.n + 11):
                assert cell.root(m, "+")[2], (lam, b, m)
                assert cell.root(m, "-")[2], (lam, b, m)


def test_obstruction_vanishes_at_double_root():
    # at the vertex Omega = B_m/(2b) the obstruction equals Delta_m/4, so
    # it vanishes exactly in the degenerate case
    m, lam, b = 7, 1.0, 0.5
    cell = ModeCell(lam, b)
    b_m, _, delta = oracles.quadratic(cell, m)
    omega_vertex = b_m / (2.0 * b)
    lam1 = _coupling(1, lam, b)
    lamm = _coupling(m, lam, b)
    left = lam1 - b * (_rankine(m, lam * b) + omega_vertex)
    obstruction = left * left - b * b * lamm * lamm
    assert obstruction == pytest.approx(delta / 4.0, rel=1e-10)
    assert delta == cell.spectrum(m)[0]


def test_simple_kernel_guard_on_harmonics():
    # det M_{km} must stay away from zero at Omega_m^{+-} or the kernel
    # would pick up extra directions
    cell = ModeCell(1.0, 0.5)
    for sign in ("+", "-"):
        omega = cell.root(5, sign)[0]
        for k in range(2, 11):
            block = cell.block(5 * k, omega)
            assert abs(oracles.determinant(block)) > (
                1e-10 * _scale(block) ** 2), (sign, k)


@given(
    n=st.integers(1, 40),
    lam=st.floats(0.2, 3.0),
    b=st.floats(0.2, 0.8),
)
def test_quadratic_structure_property(n, lam, b):
    cell = ModeCell(lam, b)
    block = cell.block(n, 0.37)
    assert block[0, 1] > 0.0 > block[1, 0]
    assert block[0, 1] / block[1, 0] == pytest.approx(-b, rel=1e-13)
    delta, pair = cell.spectrum(n)
    if pair is None:
        assert delta < 0.0
        return
    assert pair.omega_minus <= pair.omega_plus
    assert pair.omega_minus + pair.omega_plus == pytest.approx(
        oracles.quadratic(cell, n)[0] / b, rel=1e-11
    )
    for omega in (pair.omega_minus, pair.omega_plus):
        block = cell.block(n, omega)
        assert abs(oracles.determinant(block)) <= 1e-10 * max(
            _scale(block) ** 2, 1e-300)


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_lambda_must_be_finite(lam):
    # inf used to give an all-NaN pair and a 100,000-order threshold scan
    circle = annulus_boundary(1.0)
    calls = (
        lambda: ModeCell(lam, 0.5),
        lambda: s_integral(lam, circle, circle, make_grid(16)),
    )
    for call in calls:
        with pytest.raises(ValueError,
                           match="lambda must be positive and finite"):
            call()
