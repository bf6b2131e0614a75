"""Independent oracles used by the test suite.

Everything here is deliberately implemented through a different route than
the library code: direct series summation with math.factorial, fixed-node
quadrature, a panel Gauss-Legendre integral for the I_n*K_n product, and
the FFT-diagonal form of the log product quadrature.  Agreement between
these and src/ is the point of the tests.  J0, the integrand kernel of the
product oracle, lives here too (cross-checked against mpmath and a
cosine-moment quadrature before the product oracle relies on it).  Only
the Fourier-moment oracles import from qgsw_vstates: the K0 kernel and, for
the self-interaction quadrature, the conformal map and the array kernels,
which tests check against mpmath on their own; what those oracles check is
the quadrature around them.
"""

import math

import numpy as np

EULER_GAMMA = 0.57721566490153286061


# ---------------------------------------------------------------------------
# J_0 (the quadrature kernel of the product oracle)

_J0_TRAP_NODES = 512


def bessel_j0(x: float) -> float:
    """J_0(x) for x >= 0, absolute error <= 1e-12 for x <= 100.

    Power series up to x = 9, full-period trapezoid of the cosine integral
    representation up to x = 160, Hankel-style asymptotic sum beyond.
    """
    if x < 0.0:
        raise ValueError("argument must be nonnegative")
    if x <= 9.0:
        q = 0.25 * x * x
        total, term, m = 1.0, 1.0, 0
        while abs(term) > 1e-17:
            m += 1
            term *= -q / (m * m)
            total += term
        return total
    if x <= 160.0:
        # (1/2pi) int_0^{2pi} cos(x sin t) dt; aliasing error 2 J_N(x) with
        # N = 512 is negligible for x <= 160
        n = _J0_TRAP_NODES
        return sum(
            math.cos(x * math.sin(2.0 * math.pi * j / n)) for j in range(n)
        ) / n
    return _j0_asymptotic(x)


def _j0_asymptotic(x: float) -> float:
    """Hankel expansion: J_0 = Re[sqrt(2/(pi x)) e^{i(x - pi/4)} sum i^k a_k / x^k]."""
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(18):
        total += term
        term *= 1j * (-((2 * k + 1) ** 2)) / (8.0 * x * (k + 1))
        if abs(term) < 1e-18:
            total += term
            break
    phase = complex(math.cos(x - 0.25 * math.pi), math.sin(x - 0.25 * math.pi))
    return math.sqrt(2.0 / (math.pi * x)) * (phase * total).real


def _j0_array(x: np.ndarray) -> np.ndarray:
    """Vectorized bessel_j0 with the same three regimes."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= 9.0
    mid = (x > 9.0) & (x <= 160.0)
    big = x > 160.0
    if np.any(small):
        q = 0.25 * x[small] ** 2
        total = np.ones_like(q)
        term = np.ones_like(q)
        for m in range(1, 60):
            term = term * (-q) / (m * m)
            total = total + term
            if not np.any(np.abs(term) > 1e-17):
                break
        out[small] = total
    if np.any(mid):
        theta = 2.0 * np.pi * np.arange(_J0_TRAP_NODES) / _J0_TRAP_NODES
        sin_t = np.sin(theta)
        vals = x[mid]
        acc = np.zeros_like(vals)
        # chunk the outer product to bound memory
        step = max(1, 2_000_000 // _J0_TRAP_NODES)
        for lo in range(0, vals.size, step):
            blk = vals[lo:lo + step]
            acc[lo:lo + step] = np.cos(blk[:, None] * sin_t[None, :]).mean(axis=1)
        out[mid] = acc
    if np.any(big):
        xb = x[big]
        total = np.zeros(xb.shape, dtype=complex)
        term = np.ones(xb.shape, dtype=complex)
        for k in range(18):
            total += term
            term = term * (1j * (-((2 * k + 1) ** 2)) / (8.0 * (k + 1))) / xb
        phase = np.exp(1j * (xb - 0.25 * np.pi))
        out[big] = np.sqrt(2.0 / (np.pi * xb)) * (phase * total).real
    return out


def i_series_direct(n, x, terms=40):
    """Truncated ascending series for I_n, summed term by term.

    No recurrences, no renormalization: just sum_{m<terms} of
    (x/2)^(n+2m) / (m! (n+m)!).  Only usable where the naive powers and
    factorials stay in range, which covers every point the tests feed it.
    """
    n = abs(int(n))
    total = 0.0
    for m in range(terms):
        total += (x / 2.0) ** (n + 2 * m) / (
            math.factorial(m) * math.factorial(n + m)
        )
    return total


def k1_series_direct(x, terms=50):
    """K_1 by the logarithmic series, with harmonic-number digammas."""
    q = x * x / 4.0
    log_half = math.log(x / 2.0)
    harmonic = 0.0  # psi(m+1) + gamma
    i1_sum = 0.0
    psi_sum = 0.0
    for m in range(terms):
        c = q ** m / (math.factorial(m) * math.factorial(m + 1))
        psi_m1 = harmonic - EULER_GAMMA
        psi_m2 = harmonic + 1.0 / (m + 1) - EULER_GAMMA
        i1_sum += c
        psi_sum += c * (psi_m1 + psi_m2)
        harmonic += 1.0 / (m + 1)
    return 1.0 / x + log_half * (x / 2.0) * i1_sum - (x / 4.0) * psi_sum


def j0_quadrature(x, nodes=256):
    """(1/pi) * integral_0^pi cos(x sin t) dt by trapezoid on `nodes` panels.

    The integrand is an even periodic extension, so the trapezoid rule on a
    half period converges spectrally.
    """
    t = np.linspace(0.0, math.pi, nodes + 1)
    vals = np.cos(x * np.sin(t))
    return float(np.trapezoid(vals, t) / math.pi)


def _gauss_legendre_cache():
    if not hasattr(_gauss_legendre_cache, "xw"):
        _gauss_legendre_cache.xw = np.polynomial.legendre.leggauss(32)
    return _gauss_legendre_cache.xw


def product_ik_quadrature(n, x, check_refinement=True):
    """I_n(x) K_n(x) via (1/2) * integral_0^inf J0(2 x sinh(t/2)) e^{-nt} dt.

    Substituting u = sinh(t/2) gives

        integral_0^inf J0(2xu) (u + sqrt(1+u^2))^{-2n} / sqrt(1+u^2) du,

    which is integrated by 32-node Gauss-Legendre panels.  Panel widths are
    capped so each panel sees at most ~3pi of J0 phase and resolves the
    e^{-2n asinh u} decay; the grid then doubles once as a convergence
    check.  scipy.integrate.quad falls over on the worst (n=1, large x)
    cases, which can need ~1e5 oscillations before truncation, hence the
    hand-built panels with the vectorized J0 kernel.
    """
    n = int(n)
    if n < 1 or x <= 0.0:
        raise ValueError("product oracle needs n >= 1 and x > 0")

    # Truncation point: the integrand envelope is
    # (u + sqrt(1+u^2))^{-2n} / sqrt(1+u^2) * J0-amplitude,
    # and once J0 oscillates (2xU >> 1) the tail alternates, so the
    # remainder is bounded by one half-period worth of envelope.  Without
    # that cancellation credit the n=1 rows would need U ~ 1e5.
    target = 1e-13 / (2.0 * math.hypot(n, x))
    upper = 4.0
    while True:
        amp = (upper + math.hypot(1.0, upper)) ** (-2 * n)
        amp /= math.sqrt(1.0 + upper * upper)
        amp *= min(1.0, 1.0 / math.sqrt(2.0 * math.pi * x * upper))
        span = min(math.pi / x, upper) if 2.0 * x * upper >= 10.0 else upper
        if amp * span < target or upper > 1e8:
            break
        upper *= 1.6

    base_nodes, base_weights = _gauss_legendre_cache()

    def integrate(width_scale):
        phase_cap = width_scale * 3.0 * math.pi / (2.0 * x)
        edges = [0.0]
        while edges[-1] < upper:
            u = edges[-1]
            width = min(phase_cap, max(width_scale / (2.0 * n), u / 4.0))
            edges.append(min(u + width, upper))
        total = 0.0
        lo_arr = np.array(edges[:-1])
        hi_arr = np.array(edges[1:])
        half = 0.5 * (hi_arr - lo_arr)
        mid = 0.5 * (hi_arr + lo_arr)
        # nodes for all panels at once: shape (panels, 32)
        u_all = mid[:, None] + half[:, None] * base_nodes[None, :]
        root = np.sqrt(1.0 + u_all * u_all)
        decay = (u_all + root) ** (-2 * n)
        kernel = _j0_array(2.0 * x * u_all.ravel()).reshape(u_all.shape)
        panel_vals = (kernel * decay / root) @ base_weights
        total = float(np.sum(panel_vals * half))
        return total

    coarse = integrate(1.0)
    if not check_refinement:
        return coarse
    fine = integrate(0.5)
    scale = max(abs(fine), 1.0 / (2.0 * n))
    if abs(fine - coarse) > 1e-10 * scale:
        raise RuntimeError(
            f"product oracle failed refinement at n={n}, x={x}: "
            f"{coarse!r} vs {fine!r}"
        )
    return fine


def k0_cosine_moment(lam, b, n, points=4096):
    """(1/2pi) * integral K0(lam*|1 - b e^{i t}|) cos(n t) dt by trapezoid.

    Fourier coefficient of the off-center kernel; equals I_n(lam b) K_n(lam)
    for 0 < b < 1.  Used to cross-check the coupling coefficients without
    going through any Bessel product code.
    """
    from qgsw_vstates.bessel import _k0_array

    t = 2.0 * math.pi * np.arange(points) / points
    dist = np.abs(1.0 - b * np.exp(1j * t))
    vals = _k0_array(lam * dist) * np.cos(n * t)
    return float(np.mean(vals))


def self_interaction_fft(lam, boundary, grid):
    """S(lam, Phi, Phi) at the grid nodes with the log product quadrature
    taken row by row through FFTs.

    Same kernel split as the library (smooth bracket, log ratio, exact log
    moments), but each row of the log-singular cofactor I_0(lam r) Phi'
    tau is expanded in Fourier modes, multiplied by the closed-form moments
    and resummed at that row's own node: the diagonal of a batched inverse
    FFT.  The library applies the same sums as one circulant weight matrix.
    """
    from qgsw_vstates.bessel import _i0_array, _k0reg_array
    from qgsw_vstates.contour import conformal_eval

    vals, derivs = conformal_eval(boundary, grid)
    weights = derivs * grid.nodes
    dist = np.abs(vals[:, None] - vals[None, :])
    scaled = lam * dist
    i0 = _i0_array(scaled)
    bracket = _k0reg_array(scaled) - math.log(lam / 2.0) * i0
    chord = np.abs(grid.nodes[:, None] - grid.nodes[None, :])
    np.fill_diagonal(chord, 1.0)
    ratio = dist / chord
    np.fill_diagonal(ratio, np.abs(derivs))
    smooth = bracket - np.log(ratio) * i0
    direct = smooth @ weights / grid.node_count
    coeffs = np.fft.fft(i0 * weights[None, :], axis=1) * grid._moment_spectrum
    log_part = np.einsum("kk->k", np.fft.ifft(coeffs, axis=1))
    return direct - log_part
