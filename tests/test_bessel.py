import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from oracles import _j0_array, bessel_j0
from qgsw_vstates.bessel import (
    EULER_GAMMA,
    _i0_array,
    _k0_array,
    _k0reg_array,
    bessel_derivative,
    bessel_i,
    bessel_k,
    beltrami_k0,
    k0_regularized,
    log_bessel_i,
    log_bessel_k,
    product_ik,
    product_ik_asymptotic,
    stirling2,
)


def test_i_small_argument_limit():
    assert bessel_i(0, 1e-12) == pytest.approx(1.0, abs=1e-12)
    assert bessel_i(0, 0.0) == 1.0
    assert bessel_i(3, 0.0) == 0.0


def test_i_negative_order_bit_identical():
    assert bessel_i(-2, 1.3) == bessel_i(2, 1.3)


def test_i_matches_truncated_series():
    want = oracles.i_series_direct(2, 1.0, terms=40)
    got = bessel_i(2, 1.0)
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(0.13574766976703828, rel=1e-13)  # frozen


def test_i_accuracy_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    checked = 0
    for n in (0, 1, 2, 5, 17, 60, 200):
        for x in (0.05, 0.7, 3.3, 9.0, 27.0, 50.0):
            try:
                got = bessel_i(n, x)
            except OverflowError:
                continue  # below representable range, policy tested separately
            rel = abs(mp.mpf(got) / mp.besseli(n, mp.mpf(repr(x))) - 1)
            assert rel < 1e-13, (n, x, float(rel))
            checked += 1
    assert checked >= 30


def test_k_log_singularity_at_zero():
    got = bessel_k(0, 1e-8) + math.log(0.5e-8)
    assert got == pytest.approx(-EULER_GAMMA, abs=1e-7)


def test_k_negative_order_bit_identical():
    assert bessel_k(-3, 2.0) == bessel_k(3, 2.0)


def test_k1_matches_series_oracle():
    want = oracles.k1_series_direct(2.0, terms=50)
    got = bessel_k(1, 2.0)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.13986588181652243, rel=1e-12)  # frozen


def test_k_accuracy_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    checked = 0
    for n in (0, 1, 2, 5, 17, 60, 200):
        for x in (0.05, 0.7, 3.3, 9.0, 27.0, 50.0):
            try:
                got = bessel_k(n, x)
            except OverflowError:
                continue
            rel = abs(mp.mpf(got) / mp.besselk(n, mp.mpf(repr(x))) - 1)
            assert rel < 1e-12, (n, x, float(rel))
            checked += 1
    assert checked >= 30


def test_k_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        bessel_k(0, 0.0)
    with pytest.raises(ValueError):
        bessel_k(2, -1.0)
    with pytest.raises(ValueError):
        bessel_derivative("K", 1, 0.0)


def test_range_errors_raise():
    # overflow and underflow-to-zero both surface as range errors,
    # never silent inf/0
    with pytest.raises(OverflowError):
        bessel_i(0, 800.0)
    with pytest.raises(OverflowError):
        bessel_i(250, 0.05)
    with pytest.raises(OverflowError):
        bessel_k(0, 800.0)
    with pytest.raises(OverflowError):
        bessel_k(250, 0.05)


@given(n=st.integers(-40, 40), x=st.floats(0.5, 45.0))
def test_symmetry_and_positivity(n, x):
    ival = bessel_i(n, x)
    kval = bessel_k(n, x)
    assert ival > 0.0
    assert kval > 0.0
    assert bessel_i(-n, x) == ival
    assert bessel_k(-n, x) == kval


def test_derivative_low_order_identities():
    x = 1.7
    want = -bessel_k(0, x) - bessel_k(1, x) / x
    assert bessel_derivative("K", 1, x) == pytest.approx(want, rel=1e-11)
    assert bessel_derivative("I", 0, 0.9) == pytest.approx(
        bessel_i(1, 0.9), rel=1e-14
    )


def test_derivative_matches_finite_difference():
    h = 1e-6
    fd = (bessel_k(2, 3.0 + h) - bessel_k(2, 3.0 - h)) / (2 * h)
    assert bessel_derivative("K", 2, 3.0) == pytest.approx(fd, abs=1e-6)


def test_derivative_recurrence_forms_agree():
    # the implementation uses Z_{n-1} -+ (n/x) Z_n; cross-check against the
    # companion form built from order n+1 on a 20x20 grid
    for n in range(1, 21):
        for x in np.geomspace(0.1, 30.0, 20):
            x = float(x)
            alt_i = bessel_i(n + 1, x) + (n / x) * bessel_i(n, x)
            alt_k = -bessel_k(n + 1, x) + (n / x) * bessel_k(n, x)
            assert bessel_derivative("I", n, x) == pytest.approx(
                alt_i, rel=1e-11
            )
            assert bessel_derivative("K", n, x) == pytest.approx(
                alt_k, rel=1e-11
            )


def test_derivative_ratio_bounds():
    for n in range(0, 41, 5):
        for x in (0.3, 1.0, 3.7, 12.0, 40.0):
            bound = math.hypot(n, x)
            assert x * bessel_derivative("K", n, x) / bessel_k(n, x) < -bound
            assert x * bessel_derivative("I", n, x) / bessel_i(n, x) < bound


@given(n=st.integers(0, 40), x=st.floats(0.5, 45.0))
def test_wronskian_identity(n, x):
    wron = bessel_i(n, x) * bessel_derivative("K", n, x) - bessel_derivative(
        "I", n, x
    ) * bessel_k(n, x)
    assert wron == pytest.approx(-1.0 / x, rel=1e-11)


def test_product_monotone_decay():
    assert product_ik(3, 1.0) < product_ik(2, 1.0)
    xs = np.geomspace(0.2, 20.0, 8)
    vals = np.array([[product_ik(n, float(x)) for x in xs] for n in range(1, 13)])
    assert np.all(np.diff(vals, axis=0) < 0)  # decreasing in n
    assert np.all(np.diff(vals, axis=1) < 0)  # decreasing in x


def test_product_high_order_expansion():
    # I_n K_n = 1/(2n) - lambda^2/(4 n^3) + O(n^-5)
    assert abs(product_ik(50, 1.0) - 1.0 / 100.0) <= 1.0 / (4 * 50**3) + 1e-6


def test_product_matches_integral_oracle():
    want = oracles.product_ik_quadrature(7, 1.3)
    got = product_ik(7, 1.3)
    assert got == pytest.approx(want, rel=1e-11)
    assert got == pytest.approx(0.070205354521435893, rel=1e-12)  # frozen


def test_product_integral_oracle_spot_grid():
    # the dense 30x20 grid runs in the acceptance suite; keep a sparse
    # sample here so unit failures localize
    for n in (1, 4, 13, 30):
        for x in (0.1, 1.7, 10.0):
            want = oracles.product_ik_quadrature(n, x)
            assert product_ik(n, x) == pytest.approx(want, rel=1e-9), (n, x)


def test_product_extreme_order_stays_finite():
    val = product_ik(2000, 1.0)
    assert 0.0 < val < 1.0 / 4000.0
    assert abs(val - 1.0 / 4000.0) <= 1.0 / (4 * 2000**3) + 1e-9


def _mpmath_values(fn, zs):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    return np.array([float(fn(mp, mp.mpf(repr(float(z))))) for z in zs])


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


@pytest.mark.parametrize("kernel", [_i0_array, _k0reg_array, _k0_array])
def test_array_kernels_keep_shape(kernel):
    assert kernel(np.empty(0)).shape == (0,)
    assert kernel(np.empty((0, 3))).shape == (0, 3)
    for z in (1.5, 6.0):
        got = kernel(np.float64(z))
        assert np.shape(got) == ()
        assert got == pytest.approx(kernel(np.array([z]))[0], rel=1e-15)


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
        exact = math.exp(log_bessel_i(n, 0.5) + log_bessel_k(n, 1.0))
        errs.append(abs(product_ik_asymptotic(n, 1.0, 0.5, 4) - exact))
    assert errs[0] > errs[1] > errs[2]


def test_asymptotic_two_terms_matches_product():
    got = product_ik_asymptotic(60, 1.0, 1.0, 2)
    assert abs(got - product_ik(60, 1.0)) < 5e-7


def test_beltrami_collapses_at_theta_zero():
    got = beltrami_k0(1.0, 0.5, 0.0, 60)
    assert got == pytest.approx(bessel_k(0, 0.5), abs=1e-10)
    assert got == pytest.approx(0.92441907122766586, abs=1e-10)  # frozen


def test_beltrami_matches_direct_kernel():
    dist = math.sqrt(1.25 - math.cos(1.1))
    got = beltrami_k0(1.0, 0.5, 1.1, 60)
    assert got == pytest.approx(bessel_k(0, dist), abs=1e-10)


def test_beltrami_tail_term_negligible():
    term = 2.0 * math.exp(log_bessel_i(30, 0.5) + log_bessel_k(30, 1.0))
    assert term < 0.5**30 / 60.0 * 2.01  # (b/a)^m / (2m) decay rate
    assert term < 1e-9


def test_beltrami_requires_b_below_a():
    with pytest.raises(ValueError):
        beltrami_k0(0.5, 1.0, 0.3, 40)
    with pytest.raises(ValueError):
        beltrami_k0(1.0, 1.0, 0.3, 40)


def test_k0_regularized_limit_is_minus_gamma():
    assert k0_regularized(1e-10) == pytest.approx(-EULER_GAMMA, abs=1e-12)


def test_k0_regularized_smooth_near_zero():
    assert abs(k0_regularized(1e-6) - k0_regularized(2e-6)) < 1e-11


def test_k0_regularized_recombination():
    want = bessel_k(0, 0.8) + math.log(0.4) * bessel_i(0, 0.8)
    assert k0_regularized(0.8) == pytest.approx(want, rel=1e-12)
