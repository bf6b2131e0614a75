import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import qgsw_vstates.contour as contour
from qgsw_vstates.bessel import product_ik
from qgsw_vstates.contour import (
    FourierBoundary,
    QuadratureGrid,
    annulus_boundary,
    conformal_eval,
    g_functional,
    linearization_check,
    make_grid,
    real_fourier,
    s_integral,
    velocity_at,
)
from qgsw_vstates.spectrum import lambda_coupling

LAM, B = 1.0, 0.5


@pytest.fixture(scope="module")
def grid():
    return make_grid(256)


def test_boundary_ball_guard():
    FourierBoundary(1.0, (0.0, 0.2))  # 0.4 < 0.5, fine
    with pytest.raises(ValueError):
        FourierBoundary(1.0, (0.0, 0.0, 0.0, 0.0, 0.11))  # 0.55 >= 0.5
    with pytest.raises(ValueError):
        FourierBoundary(-1.0, ())
    with pytest.raises(ValueError):
        FourierBoundary(1.0, (math.nan,))


def test_single_mode_constructor():
    f = FourierBoundary.single_mode(0.5, 3, 0.01)
    assert f.scale == 0.5
    assert f.coefficients == (0.0, 0.0, 0.0, 0.01)


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(255)
    with pytest.raises(ValueError):
        make_grid(4)


def test_grid_log_moments_closed_form(grid):
    half = grid.node_count // 2
    assert grid.log_moments[0] == 0.0
    for n in range(1, half + 1):
        assert grid.log_moments[n] == -0.5 / n


def test_grid_log_moments_against_quadrature():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    grid = make_grid(64)
    for n in (1, 2, 5):
        want = mp.quad(
            lambda t: mp.log(2 * mp.sin(t / 2)) * mp.cos(n * t) / mp.pi,
            [0, mp.pi],
        )
        assert grid.log_moments[n] == pytest.approx(float(want), abs=1e-12)


def test_conformal_eval_annulus(grid):
    vals, derivs = conformal_eval(annulus_boundary(0.7), grid)
    assert np.array_equal(vals, 0.7 * grid.nodes)
    assert np.all(derivs == 0.7)


def test_conformal_eval_m_fold_symmetry(grid):
    m = 4
    f = FourierBoundary.single_mode(1.0, m - 1, 0.05)
    vals, _ = conformal_eval(f, grid)
    step = grid.node_count // m
    rot = np.exp(2j * np.pi / m)
    assert np.allclose(np.roll(vals, -step), rot * vals, atol=1e-14)


def test_conformal_derivative_matches_spectral_differentiation():
    grid = make_grid(64)
    f = FourierBoundary(1.0, (0.02, 0.0, 0.07, 0.013))
    vals, derivs = conformal_eval(f, grid)
    # direct-sum DFT oracle, no FFT: c_m = (1/P) sum vals e^{-im theta}
    p = grid.node_count
    dtheta = np.zeros(p, dtype=complex)
    for m in range(-p // 2, p // 2):
        c_m = np.sum(vals * np.exp(-1j * m * grid.theta)) / p
        dtheta += 1j * m * c_m * np.exp(1j * m * grid.theta)
    oracle = dtheta / (1j * grid.nodes)
    assert np.max(np.abs(derivs - oracle)) < 1e-12


def test_conjugate_derivative_identity(grid):
    coeffs = (0.0, 0.03, 0.0, 0.011)
    f = FourierBoundary(1.0, coeffs)
    _, derivs = conformal_eval(f, grid)
    fprime = derivs - 1.0  # perturbation part only
    conj_map_deriv = sum(
        n * a * grid.nodes ** (n - 1) for n, a in enumerate(coeffs) if n
    )
    assert np.max(
        np.abs(conj_map_deriv + np.conj(fprime) / grid.nodes**2)
    ) < 1e-14


def test_s_integral_annulus_closed_forms(grid):
    outer, inner = annulus_boundary(1.0), annulus_boundary(B)
    cw = np.conj(grid.nodes)
    cases = (
        (outer, outer, product_ik(1, LAM)),
        (inner, outer, B * lambda_coupling(1, LAM, B)),
        (outer, inner, lambda_coupling(1, LAM, B)),
        (inner, inner, B * product_ik(1, LAM * B)),
    )
    for source, target, want in cases:
        vals = s_integral(LAM, source, target, grid) * cw
        assert np.max(np.abs(vals - want)) < 1e-13


def test_s_integral_conjugation_pairing(grid):
    f = FourierBoundary(1.0, (0.0, 0.0, 0.05, 0.01))
    vals = s_integral(LAM, f, f, grid)
    idx = (-np.arange(grid.node_count)) % grid.node_count
    assert np.max(np.abs(np.conj(vals) - vals[idx])) < 1e-13


def test_s_integral_spectral_convergence(grid):
    coarse = make_grid(128)
    f1 = FourierBoundary(1.0, (0.0, 0.0, 0.05, 0.01))
    f2 = FourierBoundary(B, (0.0, 0.02, 0.01))
    self_c = s_integral(LAM, f1, f1, coarse)
    self_f = s_integral(LAM, f1, f1, grid)
    assert np.max(np.abs(self_c - self_f[::2])) < 1e-10
    dist_c = s_integral(LAM, f2, f1, coarse)
    dist_f = s_integral(LAM, f2, f1, grid)
    assert np.max(np.abs(dist_c - dist_f[::2])) < 1e-10


def test_s_integral_rotation_covariance(grid):
    # the quadrature must compute the function S, not grid-tied values: on
    # a half-step rotated grid the nodes are off the original lattice, and
    # the values must match the trigonometric interpolant of the originals
    f = FourierBoundary(1.0, (0.0, 0.0, 0.05, 0.01))
    plain = s_integral(LAM, f, f, grid)
    alpha = np.pi / grid.node_count
    shifted = QuadratureGrid(
        grid.node_count,
        grid.theta + alpha,
        np.exp(1j * (grid.theta + alpha)),
        grid.log_moments,
        grid._moment_spectrum,
    )
    rotated = s_integral(LAM, f, f, shifted)
    freqs = np.fft.fftfreq(grid.node_count, d=1.0 / grid.node_count)
    coeff = np.fft.fft(plain) / grid.node_count
    interp = (
        coeff[None, :] * np.exp(1j * np.outer(grid.theta + alpha, freqs))
    ).sum(axis=1)
    assert np.max(np.abs(rotated - interp)) < 1e-11


@pytest.mark.parametrize("lam", [1.0, 4.0])
def test_self_interaction_matches_fft_product_quadrature(lam):
    # the circulant log weights must reproduce the row-by-row FFT form of
    # the log product quadrature, on the standard and a half-step rotated
    # grid; the weight matrix is built on first use, not by make_grid
    plain = make_grid(256)
    alpha = np.pi / plain.node_count
    shifted = QuadratureGrid(
        plain.node_count,
        plain.theta + alpha,
        np.exp(1j * (plain.theta + alpha)),
        plain.log_moments,
        plain._moment_spectrum,
    )
    for g in (plain, shifted):
        assert "log_weights" not in vars(g)
        for f in (FourierBoundary(1.0, (0.0, 0.0, 0.05, 0.01)),
                  FourierBoundary(B, (0.02, 0.0, 0.0, 0.0, 0.0, 0.01))):
            got = s_integral(lam, f, f, g)
            want = oracles.self_interaction_fft(lam, f, g)
            assert np.max(np.abs(got - want)) <= 1e-13
        assert not g.log_weights.flags.writeable
        with pytest.raises(ValueError):
            g.log_weights[0, 0] = 0.0


def test_s_integral_collision_error(grid):
    # both pass the ball guard yet nearly touch at theta = 0
    pinched_out = FourierBoundary(1.0, (0.0, -0.24999999995))
    bulged_in = FourierBoundary(0.5, (0.24999999995,))
    with pytest.raises(ValueError):
        s_integral(LAM, bulged_in, pinched_out, grid)


def test_trivial_solution_residual(grid):
    outer, inner = annulus_boundary(1.0), annulus_boundary(B)
    for omega in (-0.5, 0.0, 0.5):
        g1, g2 = g_functional(LAM, B, omega, outer, inner, grid)
        assert max(np.max(np.abs(g1)), np.max(np.abs(g2))) <= 1e-11


def test_g_functional_scale_validation(grid):
    with pytest.raises(ValueError):
        g_functional(LAM, B, 0.0, annulus_boundary(0.9), annulus_boundary(B), grid)
    with pytest.raises(ValueError):
        g_functional(LAM, B, 0.0, annulus_boundary(1.0), annulus_boundary(0.4), grid)


def test_g_functional_affine_in_omega(grid):
    f1 = FourierBoundary(1.0, (0.0, 0.0, 0.05, 0.01))
    f2 = FourierBoundary(B, (0.0, 0.02, 0.01))
    om, om2 = 0.3, -0.2
    g1_a, g2_a = g_functional(LAM, B, om, f1, f2, grid)
    g1_b, g2_b = g_functional(LAM, B, om2, f1, f2, grid)
    cw = np.conj(grid.nodes)
    for (ga, gb, f) in ((g1_a, g1_b, f1), (g2_a, g2_b, f2)):
        vals, derivs = conformal_eval(f, grid)
        slope = np.imag(vals * cw * np.conj(derivs))
        assert np.max(np.abs((ga - gb) - (om - om2) * slope)) < 1e-14


def test_g_functional_lands_in_sine_space(grid):
    f1 = FourierBoundary(1.0, (0.04, 0.02, 0.05, 0.01))
    f2 = FourierBoundary(B, (0.03, 0.02, 0.01))
    for g in g_functional(LAM, B, 0.1, f1, f2, grid):
        mean, cosine, _ = real_fourier(g, grid)
        assert abs(mean) <= 1e-12
        assert np.max(np.abs(cosine)) <= 1e-11


def test_g_functional_m_fold_support(grid):
    m = 4  # perturbation carries modes mk-1, response sits on multiples of m
    f1 = FourierBoundary(1.0, (0, 0, 0, 0.03, 0, 0, 0, 0.004))
    f2 = FourierBoundary(B, (0, 0, 0, 0.02))
    for g in g_functional(LAM, B, 0.1, f1, f2, grid):
        _, _, sine = real_fourier(g, grid)
        half = grid.node_count // 2
        off = max(abs(sine[j]) for j in range(1, half + 1) if j % m)
        assert off < 1e-11
        assert abs(sine[m]) > 1e-4  # the response itself is not trivial


def test_fault_hook_changes_perturbed_residual_only(grid):
    f1 = FourierBoundary(1.0, (0.0, 0.0, 0.05))
    f2 = annulus_boundary(B)
    clean = g_functional(LAM, B, 0.1, f1, f2, grid)
    try:
        contour._FAULT_FLIP_INNER = True
        flipped = g_functional(LAM, B, 0.1, f1, f2, grid)
        annulus = g_functional(LAM, B, 0.1, annulus_boundary(1.0), f2, grid)
    finally:
        contour._FAULT_FLIP_INNER = False
    assert np.max(np.abs(clean[0] - flipped[0])) > 1e-6
    # the annulus stays a zero for any omega even with the flipped sign
    assert np.max(np.abs(annulus[0])) <= 1e-11


def test_linearization_matches_multiplier_matrix(grid):
    recovered, deviation = linearization_check(6, LAM, B, 0.2, 1e-6, grid)
    assert np.max(np.abs(deviation)) < 1e-6
    assert recovered[0, 1] > 0.0 > recovered[1, 0]
    for n in (1, 12):
        _, dev = linearization_check(n, LAM, B, 0.2, 1e-6, grid)
        assert np.max(np.abs(dev)) < 1e-6, n


def test_linearization_cross_mode_leakage(grid):
    f1 = FourierBoundary.single_mode(1.0, 5, 1e-6)
    g1, g2 = g_functional(LAM, B, 0.2, f1, annulus_boundary(B), grid)
    half = grid.node_count // 2
    for g in (g1, g2):
        _, _, sine = real_fourier(g, grid)
        off = max(abs(sine[j]) for j in range(1, half + 1) if j != 6)
        assert off < 1e-9


def test_linearization_central_difference_order(grid):
    _, coarse = linearization_check(6, LAM, B, 0.2, 4e-5, grid)
    _, fine = linearization_check(6, LAM, B, 0.2, 2e-5, grid)
    ratio = np.max(np.abs(coarse)) / np.max(np.abs(fine))
    assert 3.0 < ratio < 5.0


def test_linearization_step_validation(grid):
    with pytest.raises(ValueError):
        linearization_check(6, LAM, B, 0.2, 1e-3, grid)


def test_velocity_annulus_symmetries(grid):
    outer, inner = annulus_boundary(1.0), annulus_boundary(B)
    assert abs(velocity_at(0.0, outer, inner, LAM, B, grid)) < 1e-13
    for r in (0.6, 0.75, 1.3):
        v = velocity_at(r, outer, inner, LAM, B, grid)
        assert abs(v.real) < 1e-13, r


def test_velocity_grid_refinement(grid):
    outer, inner = annulus_boundary(1.0), annulus_boundary(B)
    v = velocity_at(0.75, outer, inner, LAM, B, grid)
    v2 = velocity_at(0.75, outer, inner, LAM, B, make_grid(512))
    assert abs(v - v2) < 1e-10


def test_velocity_near_boundary_error(grid):
    outer, inner = annulus_boundary(1.0), annulus_boundary(B)
    with pytest.raises(ValueError):
        velocity_at(1.0 + 1e-10, outer, inner, LAM, B, grid)
    with pytest.raises(ValueError):
        velocity_at(0.5 + 0.0j, outer, inner, LAM, B, grid)


@settings(max_examples=25, deadline=None)
@given(
    amp=st.floats(-0.05, 0.05),
    mode=st.integers(2, 6),
)
def test_s_integral_conjugation_property(amp, mode):
    grid = make_grid(64)
    f = FourierBoundary.single_mode(1.0, mode, amp)
    vals = s_integral(LAM, f, f, grid)
    idx = (-np.arange(grid.node_count)) % grid.node_count
    assert np.max(np.abs(np.conj(vals) - vals[idx])) < 1e-12
