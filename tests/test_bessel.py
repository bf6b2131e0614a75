import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from oracles import _j0_array, bessel_j0, product_ik_asymptotic, stirling2
from qgsw_vstates.bessel import (
    _I0_COEFFS,
    _K0REG_COEFFS,
    EULER_GAMMA,
    BesselLadder,
    _beltrami_sum,
    _i0_array,
    _k0_array,
    _k0reg_array,
)


@pytest.mark.parametrize("x", [0.7, 12.0])
def test_ladder_reads_a_negative_order_as_its_mirror(x):
    # I_{-n} = I_n and K_{-n} = K_n, as a fresh ladder has it, also once
    # the ladder's state has moved past the order
    ladder = BesselLadder(x)
    ladder.log_i(5)
    ladder.log_k(5)
    for n in (1, 2, 5, 7):
        assert ladder.log_i(-n) == ladder.log_i(n)
        assert ladder.log_i(n) == pytest.approx(
            math.log(BesselLadder(x).i(n)), rel=1e-14)
        assert ladder.log_k(-n) == ladder.log_k(n)
        assert ladder.product(-n) == ladder.product(n) \
            == BesselLadder(x).product(-n)
        assert ladder.k(-n) == ladder.k(n) == BesselLadder(x).k(-n)
        assert ladder.i(-n) == ladder.i(n) == BesselLadder(x).i(-n)
        for kind in ("I", "K"):
            assert ladder.derivative(kind, -n) == ladder.derivative(kind, n) \
                == BesselLadder(x).derivative(kind, -n)
    for method in (ladder.log_i, ladder.log_k, ladder.k, ladder.i,
                   lambda n: ladder.derivative("I", n)):
        with pytest.raises(ValueError, match="integer"):
            method(2.5)
    with pytest.raises(ValueError, match="kind"):
        ladder.derivative("J", 1)


@pytest.mark.parametrize("x", [1e-3, 0.7, 4.0, math.nextafter(4.0, 5.0), 12.0, 60.0])
def test_ladder_bitwise_equals_fresh_evaluation(x):
    # one ladder walked up, another down in strides: both must give the
    # values a fresh ladder per order gives, bit for bit, across orders
    # whose K and I prefactor leave the double range (exponents past +-1024)
    up, down = BesselLadder(x), BesselLadder(x)
    for n in range(501):
        assert up.log_i(n) == BesselLadder(x).log_i(n), n
        assert up.log_k(n) == BesselLadder(x).log_k(n), n
    for n in range(500, -1, -13):
        assert down.log_k(n) == BesselLadder(x).log_k(n), n
        assert down.log_i(n) == BesselLadder(x).log_i(n), n
        assert down.product(n) == BesselLadder(x).product(n), n
    assert up.k(1) == BesselLadder(x).k(1)
    assert up._k_orders[500][1] > 0  # K_500 exp(x) is at least 2^0
    assert up._prefactors[500][1] < 0  # (x/2)^500/500! is below 2^-1
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    arg = mp.mpf(repr(x))
    assert up.log_i(500) == pytest.approx(float(mp.log(mp.besseli(500, arg))), rel=1e-14)
    assert up.log_k(500) == pytest.approx(float(mp.log(mp.besselk(500, arg))), rel=1e-14)


def test_i_small_argument_limit():
    assert BesselLadder(1e-12).i(0) == pytest.approx(1.0, abs=1e-12)


def test_i_negative_order_bit_identical():
    assert BesselLadder(1.3).i(-2) == BesselLadder(1.3).i(2)


def test_i_matches_truncated_series():
    want = oracles.i_series_direct(2, 1.0, terms=40)
    got = BesselLadder(1.0).i(2)
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(0.13574766976703828, rel=1e-13)  # frozen


def test_i_accuracy_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    checked = 0
    for n in (0, 1, 2, 5, 17, 60, 200):
        for x in (0.05, 0.7, 3.3, 9.0, 27.0, 50.0):
            try:
                got = BesselLadder(x).i(n)
            except OverflowError:
                continue  # below representable range, policy tested separately
            rel = abs(mp.mpf(got) / mp.besseli(n, mp.mpf(repr(x))) - 1)
            assert rel < 1e-13, (n, x, float(rel))
            checked += 1
    assert checked >= 30


def test_i_large_argument_against_mpmath():
    # one series path at every argument: a backward recurrence started at
    # n + 2 sqrt(max(n, x)) + 40 starts below x once x passes ~100, and was
    # off by 2.8e-6 at I_1(600)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for x in np.geomspace(10.0, 700.0, 25):
        x = float(x)
        for n in (*range(12), 20, 35, 50, 80, 120, 160, 200):
            got = BesselLadder(x).i(n)
            rel = abs(mp.mpf(got) / mp.besseli(n, mp.mpf(repr(x))) - 1)
            assert rel < 1e-13, (n, x, float(rel))


def test_k_log_singularity_at_zero():
    got = BesselLadder(1e-8).k(0) + math.log(0.5e-8)
    assert got == pytest.approx(-EULER_GAMMA, abs=1e-7)


def test_k_negative_order_bit_identical():
    assert BesselLadder(2.0).k(-3) == BesselLadder(2.0).k(3)


def test_k1_matches_series_oracle():
    want = oracles.k1_series_direct(2.0, terms=50)
    got = BesselLadder(2.0).k(1)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.13986588181652243, rel=1e-12)  # frozen


def test_k_accuracy_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    checked = 0
    for n in (0, 1, 2, 5, 17, 60, 200):
        for x in (0.05, 0.7, 3.3, 9.0, 27.0, 50.0):
            try:
                got = BesselLadder(x).k(n)
            except OverflowError:
                continue
            rel = abs(mp.mpf(got) / mp.besselk(n, mp.mpf(repr(x))) - 1)
            assert rel < 1e-14, (n, x, float(rel))
            checked += 1
    assert checked >= 30


def test_k_rejects_nonpositive_argument():
    # the ladder holds the one argument check, nonfinite values included,
    # so every scalar value refuses alike
    for x in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            BesselLadder(x)


def test_range_errors_raise():
    # overflow and underflow-to-zero both surface as range errors,
    # never silent inf/0
    with pytest.raises(OverflowError):
        BesselLadder(800.0).i(0)
    with pytest.raises(OverflowError):
        BesselLadder(0.05).i(250)
    with pytest.raises(OverflowError):
        BesselLadder(800.0).k(0)
    with pytest.raises(OverflowError):
        BesselLadder(0.05).k(250)
    # arguments where the K_0/K_1 trapezoid rule has no truncation point,
    # even for log_k, whose value would be representable
    for x in (1e-310, 4e17):
        with pytest.raises(OverflowError, match=re.escape(f"K_0({x!r})")):
            BesselLadder(x).log_k(0)


def test_subnormal_results_raise():
    # a subnormal has lost most of its digits (K_0(740) would read 2e-323,
    # 2.4% off), so it is a range error like underflow to zero
    with pytest.raises(OverflowError):
        BesselLadder(740.0).k(0)
    with pytest.raises(OverflowError):
        BesselLadder(0.188).i(120)
    assert BesselLadder(700.0).k(0) >= sys.float_info.min
    assert BesselLadder(0.3).i(120) >= sys.float_info.min


@given(n=st.integers(-40, 40), x=st.floats(0.5, 45.0))
def test_symmetry_and_positivity(n, x):
    ival = BesselLadder(x).i(n)
    kval = BesselLadder(x).k(n)
    assert ival > 0.0
    assert kval > 0.0
    assert BesselLadder(x).i(-n) == ival
    assert BesselLadder(x).k(-n) == kval


def test_derivative_low_order_identities():
    x = 1.7
    want = -BesselLadder(x).k(0) - BesselLadder(x).k(1) / x
    assert BesselLadder(x).derivative("K", 1) == pytest.approx(want, rel=1e-11)
    assert BesselLadder(0.9).derivative("I", 0) == pytest.approx(
        BesselLadder(0.9).i(1), rel=1e-14
    )


def test_derivative_matches_finite_difference():
    h = 1e-6
    fd = (BesselLadder(3.0 + h).k(2) - BesselLadder(3.0 - h).k(2)) / (2 * h)
    assert BesselLadder(3.0).derivative("K", 2) == pytest.approx(fd, abs=1e-6)


def test_derivative_recurrence_forms_agree():
    # the implementation uses Z_{n-1} -+ (n/x) Z_n; cross-check against the
    # companion form built from order n+1 on a 20x20 grid
    for n in range(1, 21):
        for x in np.geomspace(0.1, 30.0, 20):
            x = float(x)
            ladder = BesselLadder(x)
            alt_i = ladder.i(n + 1) + (n / x) * ladder.i(n)
            alt_k = -ladder.k(n + 1) + (n / x) * ladder.k(n)
            assert ladder.derivative("I", n) == pytest.approx(
                alt_i, rel=1e-11
            )
            assert ladder.derivative("K", n) == pytest.approx(
                alt_k, rel=1e-11
            )


def test_derivative_ratio_bounds():
    for n in range(0, 41, 5):
        for x in (0.3, 1.0, 3.7, 12.0, 40.0):
            bound = math.hypot(n, x)
            ladder = BesselLadder(x)
            assert x * ladder.derivative("K", n) / ladder.k(n) < -bound
            assert x * ladder.derivative("I", n) / ladder.i(n) < bound


@given(n=st.integers(0, 40), x=st.floats(0.5, 45.0))
def test_wronskian_identity(n, x):
    ladder = BesselLadder(x)
    wron = (ladder.i(n) * ladder.derivative("K", n)
            - ladder.derivative("I", n) * ladder.k(n))
    assert wron == pytest.approx(-1.0 / x, rel=1e-11)


def test_product_monotone_decay():
    assert BesselLadder(1.0).product(3) < BesselLadder(1.0).product(2)
    ladders = [BesselLadder(float(x)) for x in np.geomspace(0.2, 20.0, 8)]
    vals = np.array([[ladder.product(n) for ladder in ladders]
                     for n in range(1, 13)])
    assert np.all(np.diff(vals, axis=0) < 0)  # decreasing in n
    assert np.all(np.diff(vals, axis=1) < 0)  # decreasing in x


def test_product_high_order_expansion():
    # I_n K_n = 1/(2n) - lambda^2/(4 n^3) + O(n^-5)
    assert abs(BesselLadder(1.0).product(50) - 1.0 / 100.0) <= 1.0 / (4 * 50**3) + 1e-6


def test_product_matches_integral_oracle():
    want = oracles.product_ik_quadrature(7, 1.3)
    got = BesselLadder(1.3).product(7)
    assert got == pytest.approx(want, rel=1e-11)
    assert got == pytest.approx(0.070205354521435893, rel=1e-12)  # frozen


def test_product_integral_oracle_spot_grid():
    # the dense 30x20 grid runs in the acceptance suite; keep a sparse
    # sample here so unit failures localize
    for n in (1, 4, 13, 30):
        for x in (0.1, 1.7, 10.0):
            want = oracles.product_ik_quadrature(n, x)
            assert BesselLadder(x).product(n) == pytest.approx(
                want, rel=1e-9), (n, x)


def test_product_extreme_order_stays_finite():
    val = BesselLadder(1.0).product(2000)
    assert 0.0 < val < 1.0 / 4000.0
    assert abs(val - 1.0 / 4000.0) <= 1.0 / (4 * 2000**3) + 1e-9


def _mpmath_values(fn, zs, dps=40):
    # mpf(float) takes the double exactly; mpf(repr(z)) would round the
    # decimal string, a relative error near z * 1e-16 in K_0(z)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = dps
    return np.array([float(fn(mp, mp.mpf(float(z)))) for z in zs])


@pytest.fixture(scope="module")
def k0_large_z():
    """Sorted arguments of _k0_array's large-z branch, (4, 200] and denser
    up to 16, with K_0 there from mpmath: computed once for the module."""
    rng = np.random.default_rng(7)
    zs = np.sort(np.concatenate([
        [np.nextafter(4.0, 5.0), 6.5, 16.0, 200.0],
        rng.uniform(4.0, 6.5, 30),
        rng.uniform(6.5, 16.0, 40),
        np.geomspace(16.0, 200.0, 25)[1:-1],
    ]))
    return zs, _mpmath_values(lambda mp, z: mp.besselk(0, z), zs, dps=20)


def test_i0_array_against_mpmath():
    zs = np.concatenate([np.linspace(0.0, 8.0, 161), [1e-9, 3.3, 7.99]])
    want = _mpmath_values(lambda mp, z: mp.besseli(0, z), zs)
    rel = np.abs(_i0_array(zs) / want - 1.0)
    assert np.max(rel) <= 1e-15


def test_k0reg_array_against_mpmath():
    zs = np.concatenate([np.linspace(0.0, 4.0, 161), [1e-9, 3.3, 3.99]])
    want = _mpmath_values(
        lambda mp, z: mp.besselk(0, z) + mp.log(z / 2) * mp.besseli(0, z)
        if z else -mp.euler,
        zs,
    )
    err = np.abs(_k0reg_array(zs) - want)
    assert np.all(err <= 1e-15 * np.maximum(1.0, np.abs(want)))


def test_k0_array_against_mpmath():
    # both branches, the split point itself, and the series cancellation
    # range [3, 4] where I_0 and k0reg nearly cancel
    zs = np.concatenate([
        np.geomspace(1e-6, 60.0, 200),
        np.linspace(3.0, 4.0, 41),
        [4.0, np.nextafter(4.0, 5.0), 60.0],
    ])
    want = _mpmath_values(lambda mp, z: mp.besselk(0, z), zs)
    assert np.max(np.abs(_k0_array(zs) / want - 1.0)) <= 5e-13
    # one array mixing both branches, in a 2-D layout
    mixed = np.array([[0.01, 4.0, 4.5], [3.9, 59.0, 0.7]])
    want = _mpmath_values(lambda mp, z: mp.besselk(0, z), mixed.ravel())
    got = _k0_array(mixed)
    assert got.shape == mixed.shape
    assert np.max(np.abs(got.ravel() / want - 1.0)) <= 5e-13


def test_k0_array_fits_its_large_z_rule_to_each_range(k0_large_z):
    # the trapezoid nodes follow the range of the array: the branch-screened
    # cross arrays (lambda = 4, z <= 6.5), random sub-ranges of (4, 16] and
    # all of (4, 200], where nodes sized for z = 4 alone lost digits past 60
    # and cosh t - 1 taken by subtraction would lose z * 1e-16
    zs, want = k0_large_z
    upto16 = np.searchsorted(zs, 16.0, side="right")
    rng = np.random.default_rng(8)
    parts = [slice(0, np.searchsorted(zs, 6.5, side="right")), slice(None)] + [
        slice(i, j + 1)
        for i, j in np.sort(rng.integers(0, upto16, size=(30, 2)), axis=1)
    ]
    for part in parts:
        rel = np.abs(_k0_array(zs[part]) / want[part] - 1.0)
        assert np.max(rel) <= 2e-15, (zs[part][[0, -1]], np.max(rel))


def test_k0_array_value_barely_moves_when_the_range_widens(k0_large_z):
    zs, _ = k0_large_z
    whole = _k0_array(zs)
    screened = zs <= 6.5
    alone = np.array([_k0_array(np.array([z]))[0] for z in zs])
    for got, ref in ((alone, whole), (_k0_array(zs[screened]), whole[screened])):
        assert np.max(np.abs(ref / got - 1.0)) <= 2e-15


def test_ladder_k0_k1_against_mpmath():
    # the ladder's base takes the array kernel's trapezoid at lo = hi = x at
    # every argument; the range stops below 700, where k() switches to
    # exp(log_k)
    small = np.geomspace(1e-8, 4.0, 40)
    large = np.concatenate([[np.nextafter(4.0, 5.0)],
                            np.linspace(4.0, 699.0, 76)[1:]])
    for n, bound_up_to_4 in ((0, 1e-15), (1, 3e-15)):
        for xs, bound in ((small, bound_up_to_4), (large, 1e-15)):
            want = _mpmath_values(lambda mp, z: mp.besselk(n, z), xs, dps=30)
            got = np.array([BesselLadder(float(x)).k(n) for x in xs])
            assert np.max(np.abs(got / want - 1.0)) <= bound, (n, xs[0])


def test_ladder_log_k_past_the_double_range_against_mpmath():
    xs = np.array([800.0, 1500.0])
    for n in (0, 1):
        want = _mpmath_values(lambda mp, z: mp.log(mp.besselk(n, z)), xs,
                              dps=30)
        got = np.array([BesselLadder(x).log_k(n) for x in xs])
        assert np.max(np.abs(got - want)) <= 1e-12, n


@pytest.mark.parametrize("x", [720.0, 800.0, 5000.0, 1e5])
def test_ladder_log_i_past_the_double_range_against_mpmath(x):
    # above x ~ 713 the series sum is rescaled too, so its product with
    # the prefactor stays finite only while the prefactor is normalized
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    arg = mp.mpf(x)
    ladder = BesselLadder(x)
    for n in range(201):
        want = float(mp.log(mp.besseli(n, arg)))
        got = ladder.log_i(n)
        assert math.isfinite(got) and abs(got / want - 1.0) <= 1e-13, (n, got)
        assert 0.0 < ladder.product(n) < math.inf, n


def test_ladder_recurrences_match_the_windowed_reference():
    # every I prefactor and K order is a normalized frexp pair; the
    # recurrences that kept the prefactor inside (1e-150, 1e150) and cut K
    # by 2^-1000 past 1e250 give the same pairs, bit for bit, and refuse
    # the same order where 2j/x overflows
    for x in (2.3e-307, 1e-300, 1e-100, 1e-3, 0.7, 4.0, 60.0, 700.0):
        ladder = BesselLadder(x)
        prefactors = oracles.ladder_prefactors_reference(x)
        ks = oracles.ladder_k_reference(x)
        ladder.log_i(500)
        for n, (p, ex) in enumerate(ladder._prefactors):
            mant, e = math.frexp(p)
            assert (mant, ex + e) == next(prefactors), (x, n)
        for n in range(501):
            try:
                want = next(ks)
            except OverflowError as refused:
                with pytest.raises(OverflowError,
                                   match=f"^{re.escape(str(refused))}$"):
                    ladder.log_k(n)
                break
            assert ladder._k_scaled(n) == want, (x, n)
        assert n == (22 if x == 2.3e-307 else 500)


@pytest.mark.parametrize("x", [1e-300, 1e-200, 1e-100, 1e-60])
def test_ladder_log_k_at_tiny_arguments_is_the_leading_term(x):
    # K_n(x) = Gamma(n)/2 (2/x)^n (1 + O(x^2)) for n >= 2: at these x the
    # recurrence step (2j/x) K_j overflows a double unless it renormalizes
    # before the step, and log K_n read inf before it did
    ladder = BesselLadder(x)
    for n in (2, 3, 5, 20, 50, 200):
        want = math.lgamma(n) - math.log(2.0) + n * math.log(2.0 / x)
        got = ladder.log_k(n)
        assert abs(got - want) <= 1e-15 * want, (n, got, want)
        assert got == BesselLadder(x).log_k(n)  # a fresh ladder agrees


def test_ladder_refuses_a_recurrence_ratio_past_the_double_range():
    # 2j/x overflows at j = 21 for x = 2.3e-307: a range error, not inf
    ladder = BesselLadder(2.3e-307)
    assert math.isfinite(ladder.log_k(21))
    with pytest.raises(OverflowError, match="2j/x overflows"):
        ladder.log_k(22)


def test_ladder_and_array_k0_agree_above_the_split():
    xs = np.linspace(4.0, 200.0, 80)[1:]
    ladder = np.array([BesselLadder(float(x)).k(0) for x in xs])
    array = np.array([_k0_array(np.array([x]))[0] for x in xs])
    assert np.max(np.abs(ladder / array - 1.0)) <= 1e-15


@pytest.mark.parametrize("kernel", [_i0_array, _k0reg_array, _k0_array])
def test_array_kernels_keep_shape(kernel):
    assert kernel(np.empty(0)).shape == (0,)
    assert kernel(np.empty((0, 3))).shape == (0, 3)
    for z in (1.5, 6.0):
        got = kernel(np.float64(z))
        assert np.shape(got) == ()
        assert got == pytest.approx(kernel(np.array([z]))[0], rel=1e-15)


def _range_edge(coeffs):
    """The largest z the reference series pass accepts, by bisection."""
    lo, hi = 1.0, 1000.0
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        try:
            oracles.horner_reference(np.array([mid]), coeffs)
            lo = mid
        except ValueError:
            hi = mid
    return lo


@pytest.mark.parametrize("kernel, coeffs", [(_i0_array, _I0_COEFFS),
                                            (_k0reg_array, _K0REG_COEFFS)])
def test_series_kernels_are_bit_identical_to_the_reference(kernel, coeffs):
    edge = _range_edge(coeffs)
    assert 98.0 < edge < 99.0
    rng = np.random.default_rng(3)
    zs = np.geomspace(1e-300, edge, 400)
    inputs = [np.float64(0.7), np.array(3.3), np.empty(0), np.empty((0, 3)),
              zs, zs[:, None], rng.uniform(0.0, 4.0, (1, 260)),
              rng.uniform(0.0, 8.0, (52, 260)),
              rng.uniform(0.0, 2.0, (256, 256))]
    inputs += [np.array([z]) for z in zs[::20]]
    inputs += [np.array([z, 1.0]) for z in (0.0, 1e-300, edge)]
    for z in inputs:
        got, want = kernel(z), oracles.horner_reference(z, coeffs)
        assert type(got) is type(want) is np.ndarray
        assert got.shape == want.shape == np.shape(z)
        assert np.array_equal(got, want)
    beyond = np.array([1.0, math.nextafter(edge, 1e3)])
    with pytest.raises(ValueError) as want:
        oracles.horner_reference(beyond, coeffs)
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        kernel(beyond)
    assert "-term series range of the array kernels" in str(want.value)


def test_series_kernels_refuse_arguments_beyond_their_tables():
    assert np.isfinite(_i0_array(np.array([90.0])))[0]
    with pytest.raises(ValueError):
        _i0_array(np.array([1.0, 200.0]))
    with pytest.raises(ValueError):
        _k0reg_array(np.array([200.0]))


def test_j0_at_zero():
    assert bessel_j0(0.0) == 1.0


def test_j0_matches_cosine_quadrature():
    want = oracles.j0_quadrature(2.4, nodes=256)
    got = bessel_j0(2.4)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.0025076832972438130, abs=1e-12)  # frozen


def test_j0_sign_change_bracket():
    assert bessel_j0(2.0) > 0.0 > bessel_j0(3.0)


def test_j0_accuracy_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for x in (0.0, 0.4, 2.4, 8.9, 9.1, 25.0, 57.3, 99.5, 100.0):
        got = bessel_j0(x)
        want = float(mp.besselj(0, mp.mpf(repr(x))))
        assert got == pytest.approx(want, abs=1e-12), x


def test_j0_vectorized_matches_scalar():
    xs = np.concatenate(
        [np.linspace(0.0, 12.0, 50), np.geomspace(12.0, 400.0, 30)]
    )
    vec = _j0_array(xs)
    for x, v in zip(xs, vec):
        # summation order differs between the paths, so agreement is a few
        # ulps of the largest series term, not of the result
        assert abs(v - bessel_j0(float(x))) < 5e-13


def test_stirling2_base_cases():
    assert stirling2(0, 0) == 1
    for m in range(1, 7):
        assert stirling2(m, 1) == 1
        assert stirling2(m, 0) == 0
    assert stirling2(2, 3) == 0
    assert stirling2(3, 2) == 3


@given(m=st.integers(1, 12), k=st.integers(1, 12))
def test_stirling2_recursion(m, k):
    assert stirling2(m, k) == stirling2(m - 1, k - 1) + k * stirling2(m - 1, k)


def test_asymptotic_zero_terms_is_leading_order():
    for n in (3, 7, 25):
        assert product_ik_asymptotic(n, 1.0, 0.5, 0) == 0.5**n / (2 * n)


def test_asymptotic_error_decays_with_order():
    # compare against the scaled product I_n(lam b) K_n(lam) which the
    # expansion approximates
    errs = []
    for n in (20, 40, 80):
        exact = math.exp(BesselLadder(0.5).log_i(n) + BesselLadder(1.0).log_k(n))
        errs.append(abs(product_ik_asymptotic(n, 1.0, 0.5, 4) - exact))
    assert errs[0] > errs[1] > errs[2]


def test_asymptotic_two_terms_matches_product():
    got = product_ik_asymptotic(60, 1.0, 1.0, 2)
    assert abs(got - BesselLadder(1.0).product(60)) < 5e-7


def test_beltrami_collapses_at_theta_zero():
    got = _beltrami_sum(BesselLadder(0.5), BesselLadder(1.0), 0.0, 60)
    assert got == pytest.approx(BesselLadder(0.5).k(0), abs=1e-10)
    assert got == pytest.approx(0.92441907122766586, abs=1e-10)  # frozen


def test_beltrami_matches_direct_kernel():
    dist = math.sqrt(1.25 - math.cos(1.1))
    got = _beltrami_sum(BesselLadder(0.5), BesselLadder(1.0), 1.1, 60)
    assert got == pytest.approx(BesselLadder(dist).k(0), abs=1e-10)


def test_beltrami_tail_term_negligible():
    term = 2.0 * math.exp(BesselLadder(0.5).log_i(30) + BesselLadder(1.0).log_k(30))
    assert term < 0.5**30 / 60.0 * 2.01  # (b/a)^m / (2m) decay rate
    assert term < 1e-9


def test_beltrami_sum_on_shared_ladders_matches_fresh_ones():
    # one pair of ladders serves the sum at every theta: walked past the
    # series' orders first, it gives the bits of a fresh pair
    inner, outer = BesselLadder(0.5), BesselLadder(1.0)
    inner.i(90)
    outer.log_k(90)
    for theta in (0.0, 1.1, 2.9):
        assert _beltrami_sum(inner, outer, theta, 40) == _beltrami_sum(
            BesselLadder(0.5), BesselLadder(1.0), theta, 40)


def _k0reg(z):
    return float(_k0reg_array(np.array([z]))[0])


def test_k0_regularized_limit_is_minus_gamma():
    assert _k0reg(1e-10) == pytest.approx(-EULER_GAMMA, abs=1e-12)


def test_k0_regularized_smooth_near_zero():
    assert abs(_k0reg(1e-6) - _k0reg(2e-6)) < 1e-11


def test_k0_regularized_recombination():
    ladder = BesselLadder(0.8)
    want = ladder.k(0) + math.log(0.4) * ladder.i(0)
    assert _k0reg(0.8) == pytest.approx(want, rel=1e-12)
