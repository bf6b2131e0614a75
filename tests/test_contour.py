import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qgsw_vstates.contour import (
    MAX_NODES,
    FourierBoundary,
    QuadratureGrid,
    annulus_boundary,
    conformal_eval,
    fold_grid,
    fold_size,
    g_functional,
    linearization_check,
    make_grid,
    s_integral,
    sine_coefficients,
)
from qgsw_vstates.spectrum import ModeCell

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
    for size in (MAX_NODES + 2, 20_000_000, 10**11):
        with pytest.raises(ValueError, match=(
                f"grid size must be at most {MAX_NODES} .*; got {size}$")):
            make_grid(size)


def test_grid_cap_admits_every_documented_grid():
    # the doubled-grid check of the m = 131 grid is the largest in use
    assert fold_size(131, 9432) == 9432 and 2 * 9432 <= MAX_NODES
    assert make_grid(MAX_NODES).node_count == MAX_NODES
    assert fold_size(5, MAX_NODES - 10) == MAX_NODES - 8


def test_grid_log_moments_closed_form(grid):
    # the oracle moments that the circulant log weights are held to
    moments = oracles.log_moments(grid.node_count)
    half = grid.node_count // 2
    assert moments[0] == 0.0
    for n in range(1, half + 1):
        assert moments[n] == moments[-n] == -0.5 / n


def test_grid_log_moments_against_quadrature():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    moments = oracles.log_moments(64)
    for n in (1, 2, 5):
        want = mp.quad(
            lambda t: mp.log(2 * mp.sin(t / 2)) * mp.cos(n * t) / mp.pi,
            [0, mp.pi],
        )
        assert moments[n] == pytest.approx(float(want), abs=1e-12)


def test_conformal_eval_annulus(grid):
    vals, derivs = conformal_eval(annulus_boundary(0.7), grid)
    assert np.array_equal(vals, 0.7 * grid.nodes)
    assert np.all(derivs == 0.7)


@pytest.mark.parametrize("length, rotated", [
    (40, False),  # orders below P
    (150, False),  # orders past P alias onto n mod P
    (40, True),
    (150, True),
])
def test_conformal_eval_matches_direct_summation(length, rotated):
    g = _half_step_grid(64) if rotated else make_grid(64)
    rng = np.random.default_rng(length)
    coeffs = rng.standard_normal(length)
    coeffs *= 0.3 / np.sum(np.abs(coeffs) * np.arange(1, length + 1))
    f = FourierBoundary(0.8, tuple(coeffs))
    got = conformal_eval(f, g)
    want = oracles.conformal_eval_direct(f, g)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-14


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


def test_conformal_eval_returns_one_read_only_pair_per_grid():
    f = FourierBoundary(0.8, (0.0, 0.03, 0.0, 0.011))
    first, second = make_grid(64), _half_step_grid(64)
    pair = conformal_eval(f, first)
    assert conformal_eval(f, first) is pair
    for arr in pair:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    for grid in (second, first):
        got = conformal_eval(f, grid)
        for a, b in zip(got, oracles.conformal_eval_direct(f, grid)):
            assert np.max(np.abs(a - b)) <= 1e-14
    assert conformal_eval(f, first) is not pair  # one grid is kept
    assert all(np.array_equal(a, b)
               for a, b in zip(conformal_eval(f, first), pair))


def test_equal_boundaries_are_each_evaluated_on_their_own():
    grid = make_grid(64)
    f, twin = (FourierBoundary(0.8, (0.0, 0.03)) for _ in range(2))
    vals, _ = conformal_eval(f, grid)
    # f carries a memo and twin none: equality, hash and repr ignore it
    assert f == twin and hash(f) == hash(twin) and repr(f) == repr(twin)
    twin_vals, _ = conformal_eval(twin, grid)
    assert twin_vals is not vals and np.array_equal(twin_vals, vals)


def test_one_g_functional_transforms_each_boundary_once(grid, monkeypatch):
    transforms = []

    def counted(a, *args, **kwargs):
        transforms.append(np.shape(a))
        return fft(a, *args, **kwargs)

    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", counted)
    f1 = FourierBoundary(1.0, (0.0, 0.0, 0.05, 0.01))
    f2 = FourierBoundary(B, (0.0, 0.02, 0.01))
    g_functional(LAM, B, 0.3, f1, f2, grid)
    assert transforms == [(2, grid.node_count)] * 2


def test_s_integral_annulus_closed_forms(grid):
    outer, inner = annulus_boundary(1.0), annulus_boundary(B)
    cw = np.conj(grid.nodes)
    cell = ModeCell(LAM, B)
    cases = (
        (outer, outer, cell.outer.product(1)),
        (inner, outer, B * cell.lam1),
        (outer, inner, cell.lam1),
        (inner, inner, B * cell.inner.product(1)),
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
    rotated = s_integral(LAM, f, f, _half_step_grid(grid.node_count))
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
    # grid; the weight rows are gathered on first use, not by make_grid
    for g in (make_grid(256), _half_step_grid(256)):
        assert "_log_block" not in vars(g)
        for f in (FourierBoundary(1.0, (0.0, 0.0, 0.05, 0.01)),
                  FourierBoundary(B, (0.02, 0.0, 0.0, 0.0, 0.0, 0.01))):
            got = s_integral(lam, f, f, g)
            want = oracles.self_interaction_fft(lam, f, g)
            assert np.max(np.abs(got - want)) <= 1e-13
        assert not g.log_weights(g.node_count).flags.writeable
        with pytest.raises(ValueError):
            g.log_weights(1)[0, 0] = 0.0


@pytest.mark.parametrize("lam", [4.0, 8.0])
def test_cross_interaction_matches_the_mpmath_kernel_sum(lam):
    # lam r spans both sides of _k0_array's split at 4; the pair is 8-fold,
    # so the first 4 of 32 target rows stand for the rest, as in g_functional
    mp = pytest.importorskip("mpmath")
    grid, rows = make_grid(32), 4
    source = FourierBoundary.single_mode(B, 7, 0.01)
    target = FourierBoundary(1.0, (0.0,) * 7 + (0.02,) + (0.0,) * 7 + (0.005,))
    src_vals, src_derivs = conformal_eval(source, grid)
    tgt_vals, _ = conformal_eval(target, grid)
    z = lam * np.abs(tgt_vals[:rows, None] - src_vals[None, :])
    assert z.min() < 4.0 < z.max()
    with mp.workdps(20):
        kernel = np.array([float(mp.besselk(0, mp.mpf(float(v))))
                           for v in z.ravel()]).reshape(z.shape)
    terms = kernel * (src_derivs * grid.nodes)
    want = terms.sum(axis=1) / grid.node_count
    scale = np.abs(terms).sum(axis=1) / grid.node_count
    got = s_integral(lam, source, target, grid, rows)
    # on the scale of the terms: single kernel values just below 4 carry
    # up to ~1e-13 relative error from the series branch's cancellation
    assert np.max(np.abs(got - want) / scale) <= 1e-14


def _half_step_grid(node_count):
    plain = make_grid(node_count)
    alpha = np.pi / node_count
    return QuadratureGrid(
        node_count, plain.theta + alpha, np.exp(1j * (plain.theta + alpha))
    )


@pytest.mark.parametrize("node_count", [64, 256, 1104])
@pytest.mark.parametrize("rotated", [False, True])
def test_log_weight_rows_match_the_node_built_matrix(node_count, rotated):
    # the closed-form rows against the matrix built from rounded nodes,
    # which is itself circulant only to about 3e-13 at P = 1104
    g = _half_step_grid(node_count) if rotated else make_grid(node_count)
    want = oracles.log_weights_from_nodes(g)
    for rows in (1, node_count // 4, node_count):
        got = g.log_weights(rows)
        assert got.shape == (rows, node_count)
        assert np.max(np.abs(got - want[:rows])) <= 1e-12


def test_log_weight_block_grows_only_on_demand():
    # the grid holds one contiguous block of the rows asked for so far,
    # gathered again only when a call asks for more
    g = make_grid(64)
    tall = g.log_weights(16)
    assert vars(g)["_log_block"].shape == (16, 64)
    short = g.log_weights(4)
    assert short.flags.c_contiguous and np.shares_memory(short, tall)
    taller = g.log_weights(32)
    assert vars(g)["_log_block"].shape == (32, 64)
    assert np.array_equal(taller[:16], tall)


def test_g_functional_memory_stays_with_the_folded_rows():
    # P = 4096 with a 64-fold outer boundary evaluates 64 rows: every
    # array is 64 x P, where a P x P weight matrix alone is 134 MB
    grid = make_grid(4096)
    outer = FourierBoundary.single_mode(1.0, 63, 1e-3)
    tracemalloc.start()
    try:
        g_functional(LAM, B, 0.3, outer, annulus_boundary(B), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_g_functional_is_one_array_of_both_interfaces(grid):
    # one float array of shape (2, P): G_1's row, then G_2's.  Each row is
    # its period written fold times, the period's rows 0..P/8 evaluated and
    # its row P/4 - k the negated row k, so the rows unpack to the pair the
    # two interface loops give on the kept rows
    outer = FourierBoundary.single_mode(1.0, 3, 2e-3)
    inner = FourierBoundary.single_mode(B, 7, -1e-3)
    g = g_functional(LAM, B, 0.3, outer, inner, grid)
    assert type(g) is np.ndarray and g.dtype == np.float64
    assert g.shape == (2, grid.node_count)
    period = grid.node_count // 4  # both maps are 4-fold
    rows = period // 2 + 1
    for row, target in zip(g, (outer, inner)):
        vals, derivs = conformal_eval(target, grid)
        total = (0.3 * vals[:rows]
                 + s_integral(LAM, inner, target, grid, rows)
                 - s_integral(LAM, outer, target, grid, rows))
        direct = np.imag(total * np.conj(grid.nodes[:rows])
                         * np.conj(derivs[:rows]))
        assert np.max(np.abs(row[:rows] - direct)) <= 1e-14
        assert np.array_equal(row, np.tile(row[:period], 4))
        assert np.array_equal(row[period - 1:rows - 1:-1],
                              -row[1:period - rows + 1])
    g1, g2 = g
    assert np.array_equal(np.stack([g1, g2]), g)


@pytest.mark.parametrize("size", [26, 64, 260, 2208])
def test_sine_coefficients_of_two_rows_are_the_per_row_ones(size):
    grid = make_grid(size)
    rows = np.random.default_rng(size).standard_normal((2, size))
    both = sine_coefficients(rows, grid)
    assert both.shape == (2, size // 2 + 1)
    for row, sine in zip(rows, both):
        assert np.array_equal(sine, sine_coefficients(row, grid))
    assert not both[:, 0].any()


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


def test_g_functional_refuses_lambda_above_the_validated_range(grid):
    outer, inner = annulus_boundary(1.0), annulus_boundary(B)
    g1, g2 = g_functional(8.0, B, 0.3, outer, inner, grid)
    assert max(np.max(np.abs(g1)), np.max(np.abs(g2))) <= 1e-10
    with pytest.raises(ValueError, match="lambda <= 8; got 8.5"):
        g_functional(8.5, B, 0.3, outer, inner, grid)


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
        spectrum = np.fft.rfft(g)
        mean = spectrum[0].real / grid.node_count
        # modes 1 .. P/2, the Nyquist cosine at its unhalved weight
        cosine = spectrum[1:].real * (2.0 / grid.node_count)
        assert abs(mean) <= 1e-12
        assert np.max(np.abs(cosine)) <= 1e-11


def test_g_functional_m_fold_support(grid):
    m = 4  # perturbation carries modes mk-1, response sits on multiples of m
    f1 = FourierBoundary(1.0, (0, 0, 0, 0.03, 0, 0, 0, 0.004))
    f2 = FourierBoundary(B, (0, 0, 0, 0.02))
    for g in g_functional(LAM, B, 0.1, f1, f2, grid):
        sine = sine_coefficients(g, grid)
        half = grid.node_count // 2
        off = max(abs(sine[j]) for j in range(1, half + 1) if j % m)
        assert off < 1e-11
        assert abs(sine[m]) > 1e-4  # the response itself is not trivial


def test_fault_hook_changes_perturbed_residual_only(grid):
    f1 = FourierBoundary(1.0, (0.0, 0.0, 0.05))
    f2 = annulus_boundary(B)
    clean = g_functional(LAM, B, 0.1, f1, f2, grid)
    flipped = oracles.g_functional_inner_flipped(LAM, B, 0.1, f1, f2, grid)
    annulus = oracles.g_functional_inner_flipped(
        LAM, B, 0.1, annulus_boundary(1.0), f2, grid
    )
    assert np.max(np.abs(clean[0] - flipped[0])) > 1e-6
    # the annulus stays a zero for any omega even with the flipped sign
    assert np.max(np.abs(annulus[0])) <= 1e-11


def _branch_point(lam, b, m, sign, trunc, node_count):
    """Last point of a two-step march: a solved m-fold pair, not a bump."""
    from qgsw_vstates.continuation import trace_branch

    trace = trace_branch(lam, b, m, sign, 5e-3, 2, trunc=trunc,
                         grid=make_grid(node_count))
    assert trace.completed
    point = trace.points[-1]
    return b, point.omega, point.f1, point.f2


_FOLD_CASES = {
    "annulus": lambda: (64, 64, LAM, (B, 0.3, annulus_boundary(1.0),
                                      annulus_boundary(B))),
    **{
        f"single-{n}": (lambda n=n: (256, math.gcd(256, n), LAM, (
            B, 0.3, FourierBoundary.single_mode(1.0, n - 1, 2e-5),
            annulus_boundary(B))))
        for n in (4, 6, 8)
    },
    # an 8-fold outer and a 4-fold inner interface share 4 periods only
    "mixed-8-4": lambda: (256, 4, LAM, (
        B, 0.3, FourierBoundary.single_mode(1.0, 7, 1e-3),
        FourierBoundary.single_mode(B, 3, 1e-3))),
    # an odd period: 4 periods of 65 nodes, rows 0..32 kept
    "odd-period-4": lambda: (260, 4, LAM, (
        B, 0.3, FourierBoundary.single_mode(1.0, 3, 2e-2),
        FourierBoundary(B, (0.0, 0.0, 0.0, 0.01, 0.0, 0.0, 0.0, 3e-3)))),
    # screened: lam r passes _k0_array's split at 4 in the cross kernel
    "screened-lam4": lambda: (256, 8, 4.0, (
        B, 0.3, FourierBoundary.single_mode(1.0, 7, 1e-3),
        FourierBoundary.single_mode(B, 7, -1e-3))),
    "branch-m8": lambda: (256, 8, LAM, _branch_point(LAM, B, 8, "+", 8, 256)),
    # a thin-annulus point whose K grew from 4 by predicted columns
    "branch-m16-b0.9": lambda: (512, 16, LAM,
                                _branch_point(LAM, 0.9, 16, "-", 4, 512)),
}


@pytest.mark.parametrize("case", sorted(_FOLD_CASES))
def test_g_functional_fold_matches_unfolded_oracle(case):
    node_count, fold, lam, (b, omega, f1, f2) = _FOLD_CASES[case]()
    g = make_grid(node_count)
    folded = g_functional(lam, b, omega, f1, f2, g)
    unfolded = oracles.g_functional_unfolded(lam, b, omega, f1, f2, g)
    period = node_count // fold
    for got, want in zip(folded, unfolded):
        assert np.max(np.abs(got - want)) <= 1e-13
        # the tiled output repeats its first period exactly
        assert np.array_equal(got.reshape(fold, period),
                              np.broadcast_to(got[:period], (fold, period)))
        # and is odd within it: past the kept rows 0..period/2, row
        # period - k is -(row k)
        kept = period // 2 + 1
        assert np.array_equal(got[period - 1:kept - 1:-1],
                              -got[1:period - kept + 1])


def test_g_functional_without_a_fold_is_the_unfolded_sum(grid):
    # m = 5 does not divide P = 256: every row is evaluated, bit for bit
    # the sum of the full-kernel evaluation
    f1 = FourierBoundary(1.0, (0, 0, 0, 0, 0.03, 0, 0, 0, 0, 0.002))
    f2 = FourierBoundary(B, (0, 0, 0, 0, 0.01))
    folded = g_functional(LAM, B, 0.2, f1, f2, grid)
    unfolded = oracles.g_functional_unfolded(LAM, B, 0.2, f1, f2, grid)
    for got, want in zip(folded, unfolded):
        assert np.array_equal(got, want)


def test_g_functional_fold_still_sees_a_collision():
    # outer a_3 = -0.1 touches the bare inner circle b = 0.9 at theta = 0,
    # pi/2, pi and 3pi/2, the first kept row of the 4-fold evaluation;
    # a_3 = +0.1 touches it at theta = pi/4 + k pi/2, row 32 of 64 at
    # P = 256, the last row kept before the reflection
    inner = annulus_boundary(0.9)
    for amplitude in (-0.1, 0.1):
        outer = FourierBoundary.single_mode(1.0, 3, amplitude)
        with pytest.raises(ValueError, match="interfaces collide"):
            g_functional(LAM, 0.9, 0.1, outer, inner, make_grid(256))


def test_g_functional_fold_needs_the_node_on_the_real_axis():
    # the fold's reflection reads conj w_k = w_{-k}, which is w_{-1-k} on a
    # half-step grid: a folded G refuses that grid, an unfolded one runs
    half = _half_step_grid(256)
    inner = annulus_boundary(B)
    with pytest.raises(ValueError, match="needs the node w_0 = 1"):
        g_functional(LAM, B, 0.3, annulus_boundary(1.0), inner, half)
    outer = FourierBoundary.single_mode(1.0, 4, 1e-3)  # gcd(256, 5) = 1
    g = g_functional(LAM, B, 0.3, outer, inner, half)
    want = oracles.g_functional_unfolded(LAM, B, 0.3, outer, inner, half)
    assert all(np.array_equal(got, row) for got, row in zip(g, want))


def test_g_functional_builds_kernels_for_one_period(grid, monkeypatch):
    # each of the three kernel matrices (two self, one cross through the K0
    # series) passes rows 0..P/16 of the P/8-node period by P columns
    # through I0 for 8-fold boundaries
    import qgsw_vstates.bessel as bessel
    import qgsw_vstates.contour as contour

    elements = []
    i0 = bessel._i0_array

    def counted(z):
        elements.append(np.size(z))
        return i0(z)

    monkeypatch.setattr(bessel, "_i0_array", counted)
    monkeypatch.setattr(contour, "_i0_array", counted)
    f1 = FourierBoundary.single_mode(1.0, 7, 1e-3)
    f2 = FourierBoundary(B, (0,) * 7 + (5e-4,) + (0,) * 7 + (1e-4,))
    g_functional(LAM, B, 0.1, f1, f2, grid)
    node_count = grid.node_count
    assert sum(elements) == 3 * (node_count // 16 + 1) * node_count


def test_linearization_matches_multiplier_matrix(grid):
    recovered, deviation = linearization_check([6], LAM, B, 0.2, 1e-6, grid)
    assert recovered.shape == deviation.shape == (1, 2, 2)
    assert np.max(np.abs(deviation)) < 1e-6
    assert recovered[0, 0, 1] > 0.0 > recovered[0, 1, 0]
    for n in (1, 12):
        _, dev = linearization_check([n], LAM, B, 0.2, 1e-6, grid)
        assert np.max(np.abs(dev)) < 1e-6, n


def test_linearization_cross_mode_leakage(grid):
    f1 = FourierBoundary.single_mode(1.0, 5, 1e-6)
    g1, g2 = g_functional(LAM, B, 0.2, f1, annulus_boundary(B), grid)
    half = grid.node_count // 2
    for g in (g1, g2):
        sine = sine_coefficients(g, grid)
        off = max(abs(sine[j]) for j in range(1, half + 1) if j != 6)
        assert off < 1e-9


def test_linearization_central_difference_order(grid):
    _, coarse = linearization_check([6], LAM, B, 0.2, 4e-5, grid)
    _, fine = linearization_check([6], LAM, B, 0.2, 2e-5, grid)
    ratio = np.max(np.abs(coarse)) / np.max(np.abs(fine))
    assert 3.0 < ratio < 5.0


def test_linearization_step_validation(grid):
    with pytest.raises(ValueError):
        linearization_check([6], LAM, B, 0.2, 1e-3, grid)


@pytest.mark.parametrize("node_count, n", [(24, 12), (16, 9)])
def test_linearization_refuses_modes_without_a_sine(node_count, n):
    with pytest.raises(ValueError, match="grid size"):
        linearization_check(range(1, n + 1), LAM, B, 0.2, 2e-5,
                            make_grid(node_count))


@pytest.mark.parametrize("node_count", [64, 256])
def test_linearization_one_order_batch_is_the_central_stencil(node_count):
    grid = make_grid(node_count)
    for n in range(1, 13):
        recovered, deviation = linearization_check([n], LAM, B, 0.2, 2e-5,
                                                   grid)
        central, central_dev = oracles.linearization_check_central(
            n, LAM, B, 0.2, 2e-5, grid)
        assert np.array_equal(recovered[0], central), n
        assert np.array_equal(deviation[0], central_dev), n


@pytest.mark.parametrize("node_count, n", [(30, 10), (36, 12)])
def test_linearization_aliased_mode_is_the_central_stencil(node_count, n):
    # 2n aliases onto -n, so the eps^2 term reaches sin(n theta) and only
    # the central difference, which every batch takes, cancels it
    grid = make_grid(node_count)
    recovered, deviation = linearization_check([n], LAM, B, 0.2, 2e-5, grid)
    central, central_dev = oracles.linearization_check_central(
        n, LAM, B, 0.2, 2e-5, grid)
    assert np.array_equal(recovered[0], central)
    assert np.array_equal(deviation[0], central_dev)


@pytest.mark.parametrize("node_count", [64, 256])
def test_linearization_batch_lies_within_eps_squared_of_each_order(
        node_count):
    # the orders of one batch meet only in the cubic terms of G, so the
    # batch moves each column by O(eps^2) from its single-order stencil
    grid = make_grid(node_count)
    for epsilon in (2e-6, 4e-6):
        central = np.array([oracles.linearization_check_central(
            n, LAM, B, 0.2, epsilon, grid)[0] for n in range(1, 13)])
        recovered, deviation = linearization_check(range(1, 13), LAM, B,
                                                   0.2, epsilon, grid)
        assert recovered.shape == deviation.shape == (12, 2, 2)
        assert np.max(np.abs(recovered - central)) < 300.0 * epsilon ** 2
    blocks = np.array([ModeCell(LAM, B).block(n, 0.2) / n
                       for n in range(1, 13)])
    assert np.array_equal(deviation, recovered - blocks)


@pytest.mark.parametrize("orders", [[], [3, 5, 3]])
def test_linearization_refuses_empty_and_repeated_batches(grid, orders):
    with pytest.raises(ValueError, match="distinct orders"):
        linearization_check(orders, LAM, B, 0.2, 2e-6, grid)


def test_velocity_annulus_symmetries(grid):
    outer, inner = annulus_boundary(1.0), annulus_boundary(B)
    assert abs(oracles.velocity_at(0.0, outer, inner, LAM, B, grid)) < 1e-13
    for r in (0.6, 0.75, 1.3):
        v = oracles.velocity_at(r, outer, inner, LAM, B, grid)
        assert abs(v.real) < 1e-13, r


def test_velocity_grid_refinement(grid):
    outer, inner = annulus_boundary(1.0), annulus_boundary(B)
    v = oracles.velocity_at(0.75, outer, inner, LAM, B, grid)
    v2 = oracles.velocity_at(0.75, outer, inner, LAM, B, make_grid(512))
    assert abs(v - v2) < 1e-10


def test_velocity_near_boundary_error(grid):
    outer, inner = annulus_boundary(1.0), annulus_boundary(B)
    with pytest.raises(ValueError):
        oracles.velocity_at(1.0 + 1e-10, outer, inner, LAM, B, grid)
    with pytest.raises(ValueError):
        oracles.velocity_at(0.5 + 0.0j, outer, inner, LAM, B, grid)


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


@given(
    m=st.integers(1, 300),
    floor=st.integers(4, 4096).map(lambda half: 2 * half),
    trunc=st.integers(2, 512),
)
def test_fold_grid_is_the_least_even_multiple_of_m_at_the_floor(m, floor,
                                                                trunc):
    size = fold_grid(m, floor).node_count
    step = math.lcm(2, m)
    assert floor <= size < floor + step
    assert size % m == 0 and size % 2 == 0
    # the bandwidth rule decides the same on the fold grid as on its floor
    for k in (trunc, 2 * trunc):
        assert (2 * m * k < size) == (2 * m * k < floor)


@pytest.mark.parametrize("m, floor, message", [
    (5, 255, "grid size must be even and >= 8; got 255"),
    (5, 6, "grid size must be even and >= 8; got 6"),
    (5, 32768, "grid size must be at most 32768 .*; got 32770"),
    (0, 256, "order must be >= 1; got 0"),
    (4.5, 256, "order must be an integer, got 4.5"),
])
def test_fold_grid_refuses_what_the_grid_and_mode_rules_refuse(m, floor,
                                                                message):
    with pytest.raises(ValueError, match=message):
        fold_grid(m, floor)
