import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
import qgsw_vstates.spectrum as spectrum
from qgsw_vstates import cli
from qgsw_vstates.bessel import BesselLadder, bessel_k, product_ik
from qgsw_vstates.contour import annulus_boundary, make_grid, s_integral
from qgsw_vstates.spectrum import (
    ModeCell,
    SearchExhausted,
    Threshold,
    eigenvalues,
    euler_eigenvalues,
    find_threshold,
    kernel_vector,
    omega_limits,
    simply_connected_limit,
    spectral_matrix,
    transversality_check,
)


def _coupling(n, lam, b):
    return ModeCell(lam, b).coupling(n)


def _delta(n, lam, b):
    return ModeCell(lam, b).spectrum(n)[0]


def _rankine(n, x):
    # Omega_n(x) from fresh free-function products, apart from any cell
    return product_ik(1, x) - product_ik(n, x)


def _scale(mat):
    """Largest entry magnitude, for relative tolerance checks."""
    return max(abs(mat.m11), abs(mat.m12), abs(mat.m21), abs(mat.m22))


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
                 lambda n: cell.matrix(n, 0.1),
                 lambda n: simply_connected_limit(n, 1.0)):
        for n in (0, -2):
            with pytest.raises(ValueError, match="order must be >= 1"):
                call(n)
    for lam in (0.0, -1.0):
        with pytest.raises(ValueError, match="lambda must be positive"):
            ModeCell(lam, 0.5)
        with pytest.raises(ValueError, match="lambda must be positive"):
            simply_connected_limit(3, lam)
    for b in (0.0, 1.0, 1.2, -0.5):
        with pytest.raises(ValueError, match="strictly inside"):
            ModeCell(1.0, b)


def test_fractional_orders_are_refused_not_truncated():
    # the order check is the ladder's integrality test: 2.7 is not mode 2
    cell = ModeCell(1.0, 0.5)
    for call in (cell.mode, cell.spectrum, cell.simply_connected,
                 lambda n: cell.matrix(n, 0.1),
                 lambda n: cell.root(n, "+"),
                 lambda n: eigenvalues(n, 1.0, 0.5),
                 lambda n: spectral_matrix(n, 1.0, 0.5, 0.1),
                 lambda n: euler_eigenvalues(n, 0.5),
                 lambda n: simply_connected_limit(n, 1.0)):
        for n in (2.7, 2.5, 4.5):
            with pytest.raises(ValueError, match="order must be an integer"):
                call(n)
    assert spectral_matrix(3.0, 1.0, 0.5, 0.1) == spectral_matrix(
        3, 1.0, 0.5, 0.1)


def test_rankine_multiplier_basics():
    for x in (0.3, 1.0, 7.0):
        assert simply_connected_limit(1, x) == 0.0
        for n in (2, 3, 9):
            assert simply_connected_limit(n, x) > 0.0


def test_rankine_multiplier_tail():
    assert simply_connected_limit(400, 1.0) == pytest.approx(
        product_ik(1, 1.0), abs=2e-3
    )


def test_matrix_entries_rebuild_bit_identical():
    n, lam, b = 8, 1.0, 0.5
    mat = spectral_matrix(n, lam, b, 0.0)
    lam1 = _coupling(1, lam, b)
    lamn = _coupling(n, lam, b)
    assert mat.m11 == _rankine(n, lam) - 0.0 - b * lam1
    assert mat.m12 == b * lamn
    assert mat.m21 == -lamn
    assert mat.m22 == lam1 - b * (_rankine(n, lam * b) + 0.0)
    assert mat.n == n
    assert np.array_equal(
        mat.block(), n * np.array([[mat.m11, mat.m12], [mat.m21, mat.m22]])
    )


def test_matrix_sign_structure():
    for n in (1, 3, 12):
        mat = spectral_matrix(n, 1.0, 0.5, 0.1)
        assert mat.m12 > 0.0 > mat.m21
        assert mat.m12 / mat.m21 == pytest.approx(-0.5, rel=1e-14)


def test_matrix_determinant_vanishes_at_roots():
    pair = eigenvalues(5, 1.0, 0.5)
    for omega in (pair.omega_minus, pair.omega_plus):
        mat = spectral_matrix(5, 1.0, 0.5, omega)
        assert abs(mat.determinant()) <= 1e-12 * _scale(mat) ** 2


def test_discriminant_tends_to_squared_limit():
    lam, b = 1.0, 0.5
    lam1 = _coupling(1, lam, b)
    delta_inf = b * (product_ik(1, lam) + product_ik(1, lam * b)) - (1 + b * b) * lam1
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
                b * (product_ik(1, lam) + product_ik(1, lam * b))
                - (1 + b * b) * lam1
            )
            assert delta_inf > 0.0, (lam, b)


def test_discriminant_equals_quadratic_recombination():
    for n in (1, 3, 4, 5, 8, 20):
        for lam, b in ((1.0, 0.5), (0.5, 0.3), (2.0, 0.7)):
            delta_n = _delta(n, lam, b)
            pair = eigenvalues(n, lam, b)
            if pair is None:
                continue
            recomb = pair.b_coeff**2 - 4.0 * b * pair.c_coeff
            scale = pair.b_coeff**2 + abs(4.0 * b * pair.c_coeff) + abs(delta_n)
            assert abs(recomb - delta_n) <= 1e-12 * scale, (n, lam, b)


def test_eigenvalues_closed_form_term_by_term():
    m, lam, b = 12, 1.0, 0.5
    pair = eigenvalues(m, lam, b)
    lam1 = _coupling(1, lam, b)
    lamm = _coupling(m, lam, b)
    outer = _rankine(m, lam)
    inner = _rankine(m, lam * b)
    b_m = (1 - b * b) * lam1 + b * (outer - inner)
    delta = (b * (outer + inner) - (1 + b * b) * lam1) ** 2 - 4 * b * b * lamm**2
    assert pair.omega_plus == pytest.approx((b_m + math.sqrt(delta)) / (2 * b), rel=1e-14)
    assert pair.omega_minus == pytest.approx((b_m - math.sqrt(delta)) / (2 * b), rel=1e-14)
    assert pair.discriminant == pytest.approx(delta, rel=1e-14)


def test_eigenvalues_absent_when_discriminant_negative():
    assert _delta(2, 1.0, 0.5) < 0.0
    assert eigenvalues(2, 1.0, 0.5) is None


def test_eigenvalues_vieta():
    pair = eigenvalues(5, 1.0, 0.5)
    b = 0.5
    assert pair.omega_minus + pair.omega_plus == pytest.approx(
        pair.b_coeff / b, rel=1e-12
    )
    assert pair.omega_minus * pair.omega_plus == pytest.approx(
        pair.c_coeff / b, rel=1e-12
    )
    assert pair.omega_minus <= pair.omega_plus
    assert not pair.degenerate


def test_mode_one_has_zero_root():
    # pure rotation of the annulus is always a steady state, so Omega = 0
    # solves the mode-1 quadratic (c_coeff vanishes identically)
    for lam, b in ((1.0, 0.5), (0.5, 0.3), (2.0, 0.7)):
        pair = eigenvalues(1, lam, b)
        assert pair.c_coeff == 0.0
        assert abs(pair.omega_minus) <= 1e-14 * max(1.0, abs(pair.omega_plus))


def test_omega_limits_order_and_attraction():
    lam, b = 1.0, 0.5
    lower, upper = omega_limits(lam, b)
    assert lower < upper
    pair = eigenvalues(500, lam, b)
    assert abs(upper - pair.omega_plus) < 1e-3
    assert abs(pair.omega_minus - lower) < 1e-3


def test_omega_limits_small_lambda():
    lower, upper = omega_limits(1e-5, 0.5)
    assert abs(upper - 0.375) < 1e-3  # (1 - b^2)/2 at b = 0.5
    assert lower < upper


def test_threshold_at_reference_point():
    # frozen from the scan; cross-checked by the discriminant signs below
    th = find_threshold(1.0, 0.5, window=50)
    assert th == Threshold(n0=3, n=3)
    assert _delta(2, 1.0, 0.5) < 0.0 < _delta(3, 1.0, 0.5)
    plus_n = eigenvalues(th.n, 1.0, 0.5)
    plus_next = eigenvalues(th.n + 1, 1.0, 0.5)
    assert plus_n.omega_plus < plus_next.omega_plus
    assert plus_n.omega_minus > plus_next.omega_minus


def test_threshold_interlacing_chain():
    lam, b = 1.0, 0.5
    th = find_threshold(lam, b, window=50)
    lower, upper = omega_limits(lam, b)
    for n, m in ((th.n, th.n + 1), (th.n, th.n + 7), (th.n + 4, th.n + 27),
                 (th.n + 17, th.n + 50)):
        pn, pm = eigenvalues(n, lam, b), eigenvalues(m, lam, b)
        assert lower < pm.omega_minus < pn.omega_minus
        assert pn.omega_minus < pn.omega_plus
        assert pn.omega_plus < pm.omega_plus < upper


def test_threshold_validation_and_exhaustion():
    with pytest.raises(ValueError):
        find_threshold(1.0, 0.5, window=5)
    with pytest.raises(ValueError, match="window must be at most 100000"):
        find_threshold(1.0, 0.5, window=100_001)
    with pytest.raises(SearchExhausted):
        find_threshold(1.0, 0.5, window=50, cap=2)


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
    builds = _count_cell_builds(monkeypatch)
    assert find_threshold(1.0, 0.5) == Threshold(n0=3, n=3)
    assert set(builds) == set(range(1, 54))  # both scans cover [1, 3 + 50]
    assert max(builds.values()) == 1


def test_spectrum_command_builds_each_order_once_per_cell(monkeypatch, tmp_path):
    builds = _count_cell_builds(monkeypatch)
    argv = ["spectrum", "--lambda", "1", "--b", "0.5", "--n", "1:60",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    # the scan covers [1, 53], the rows [1, 60]; rows reuse the scan's memo
    assert set(builds) == set(range(1, 61))
    assert max(builds.values()) == 1


def _cell_on_a_used_ladder(lam, b):
    # the ladder at lam a table row shares, already extended past order 60
    # (and its memos filled) by the cell of another b
    ladder = BesselLadder(lam)
    ModeCell(lam, 0.2, outer=ladder).threshold(20)
    ladder.i(90)
    cell = ModeCell(lam, b, outer=ladder)
    assert cell.outer is ladder
    return cell


def test_cell_matches_per_order_functions_bitwise():
    # the public functions are views of a fresh cell, and one cell that
    # reached other orders first, or shares a used ladder, gives the same
    # bits
    lam, b = 2.3, 0.7
    for build, orders in (
        (ModeCell, (40, 1, 7, 300, 2)),  # orders below the top read the state
        (_cell_on_a_used_ladder, range(1, 61)),
    ):
        cell = build(lam, b)
        assert cell.limits() == omega_limits(lam, b)
        assert cell.threshold(20) == find_threshold(lam, b, window=20)
        for n in orders:
            fresh = math.exp(BesselLadder(lam * b).log_i(n)
                             + BesselLadder(lam).log_k(n))
            assert cell.mode(n)[1:] == (
                fresh, _rankine(n, lam), _rankine(n, lam * b))
            pair = cell.spectrum(n)[1]
            assert pair == eigenvalues(n, lam, b)
            assert cell.matrix(n, 0.3) == spectral_matrix(n, lam, b, 0.3)
            assert cell.simply_connected(n)[1] == simply_connected_limit(n, lam)
            if pair is not None:
                assert pair.kernel_minus == kernel_vector(n, lam, b, "-")
                assert pair.kernel_plus == kernel_vector(n, lam, b, "+")


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
    for n in range(4, 21):
        pair = eigenvalues(n, 1e-4, 0.5)
        limit = euler_eigenvalues(n, 0.5)
        assert abs(pair.omega_plus - limit.plus) < 1e-3, n
        assert abs(pair.omega_minus - limit.minus) < 1e-3, n


def test_euler_gap_decreases_with_lambda():
    gaps = []
    for lam in (1e-1, 1e-2, 1e-3):
        gaps.append(
            max(
                abs(eigenvalues(n, lam, 0.5).omega_plus - euler_eigenvalues(n, 0.5).plus)
                for n in range(4, 11)
            )
        )
    assert gaps[0] > gaps[1] > gaps[2]


def test_simply_connected_is_small_b_limit():
    assert simply_connected_limit(1, 1.0) == 0.0
    assert simply_connected_limit(6, 1.0) == _rankine(6, 1.0)
    cell = ModeCell(1.0, 1e-4)
    for n in range(2, 21):
        pair = cell.spectrum(n)[1]
        sc_minus, sc_plus = cell.simply_connected(n)
        assert sc_minus == (n * bessel_k(1, 1.0) - n + 1.0) / (2.0 * n)
        assert sc_plus == simply_connected_limit(n, 1.0)
        assert abs(pair.omega_plus - sc_plus) < 1e-3, n
        assert abs(pair.omega_minus - sc_minus) < 1e-3, n


def test_x_k1_bounded_and_decreasing():
    xs = np.geomspace(1e-3, 50.0, 40)
    vals = np.array([x * bessel_k(1, float(x)) for x in xs])
    assert np.all(vals > 0.0) and np.all(vals < 1.0)
    assert np.all(np.diff(vals) < 0.0)


def test_kernel_vector_membership_and_sign():
    for m, sign in ((12, "+"), (12, "-"), (5, "+"), (5, "-")):
        v1, v2 = kernel_vector(m, 1.0, 0.5, sign)
        pair = eigenvalues(m, 1.0, 0.5)
        omega = pair.omega_plus if sign == "+" else pair.omega_minus
        mat = spectral_matrix(m, 1.0, 0.5, omega)
        norm_v = math.hypot(v1, v2)
        assert v2 < 0.0
        assert norm_v > 0.0
        assert abs(mat.m11 * v1 + mat.m12 * v2) <= 1e-11 * _scale(mat) * norm_v
        assert abs(mat.m21 * v1 + mat.m22 * v2) <= 1e-11 * _scale(mat) * norm_v


def test_kernel_vector_is_adjugate_column():
    for sign in ("+", "-"):
        v1, v2 = kernel_vector(9, 1.0, 0.5, sign)
        pair = eigenvalues(9, 1.0, 0.5)
        omega = pair.omega_plus if sign == "+" else pair.omega_minus
        mat = spectral_matrix(9, 1.0, 0.5, omega)
        assert v1 == -mat.m22
        assert v2 == mat.m21


def test_kernel_vector_minus_branch_inner_dominant():
    # on the minus branch the inner-interface component dwarfs the outer
    # one; the continuation module pins its amplitude on the dominant entry
    v1, v2 = kernel_vector(5, 1.0, 0.5, "-")
    assert abs(v2 / v1) > 50.0
    w1, w2 = kernel_vector(5, 1.0, 0.5, "+")
    assert abs(w2 / w1) < 1.0


def test_kernel_vector_requires_positive_discriminant():
    with pytest.raises(ValueError):
        kernel_vector(2, 1.0, 0.5, "+")
    with pytest.raises(ValueError):
        transversality_check(2, 1.0, 0.5, "-")


def test_transversality_sweep():
    for lam in (0.5, 1.0, 2.0):
        for b in (0.3, 0.5, 0.7):
            th = find_threshold(lam, b, window=50)
            for m in range(th.n + 1, th.n + 11):
                assert transversality_check(m, lam, b, "+"), (lam, b, m)
                assert transversality_check(m, lam, b, "-"), (lam, b, m)


def test_obstruction_vanishes_at_double_root():
    # at the vertex Omega = B_m/(2b) the obstruction equals Delta_m/4, so
    # it vanishes exactly in the degenerate case
    m, lam, b = 7, 1.0, 0.5
    pair = eigenvalues(m, lam, b)
    omega_vertex = pair.b_coeff / (2.0 * b)
    lam1 = _coupling(1, lam, b)
    lamm = _coupling(m, lam, b)
    left = lam1 - b * (_rankine(m, lam * b) + omega_vertex)
    obstruction = left * left - b * b * lamm * lamm
    assert obstruction == pytest.approx(pair.discriminant / 4.0, rel=1e-10)


def test_simple_kernel_guard_on_harmonics():
    # det M_{km} must stay away from zero at Omega_m^{+-} or the kernel
    # would pick up extra directions
    for sign in ("+", "-"):
        pair = eigenvalues(5, 1.0, 0.5)
        omega = pair.omega_plus if sign == "+" else pair.omega_minus
        for k in range(2, 11):
            mat = spectral_matrix(5 * k, 1.0, 0.5, omega)
            assert abs(mat.determinant()) > 1e-10 * _scale(mat) ** 2, (sign, k)


@given(
    n=st.integers(1, 40),
    lam=st.floats(0.2, 3.0),
    b=st.floats(0.2, 0.8),
)
def test_quadratic_structure_property(n, lam, b):
    mat = spectral_matrix(n, lam, b, 0.37)
    assert mat.m12 > 0.0 > mat.m21
    assert mat.m12 / mat.m21 == pytest.approx(-b, rel=1e-13)
    pair = eigenvalues(n, lam, b)
    if pair is None:
        assert _delta(n, lam, b) < 0.0
        return
    assert pair.omega_minus <= pair.omega_plus
    assert pair.omega_minus + pair.omega_plus == pytest.approx(
        pair.b_coeff / b, rel=1e-11
    )
    for omega in (pair.omega_minus, pair.omega_plus):
        det = spectral_matrix(n, lam, b, omega).determinant()
        assert abs(det) <= 1e-10 * max(
            _scale(spectral_matrix(n, lam, b, omega)) ** 2, 1e-300
        )


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_lambda_must_be_finite(lam):
    # inf used to give an all-NaN pair and a 100,000-order threshold scan
    circle = annulus_boundary(1.0)
    calls = (
        lambda: ModeCell(lam, 0.5),
        lambda: eigenvalues(5, lam, 0.5),
        lambda: find_threshold(lam, 0.5),
        lambda: simply_connected_limit(5, lam),
        lambda: s_integral(lam, circle, circle, make_grid(16)),
    )
    for call in calls:
        with pytest.raises(ValueError,
                           match="lambda must be positive and finite"):
            call()
