"""Independent oracles used by the test suite.

Everything here is deliberately implemented through a different route than
the library code: direct series summation with math.factorial, fixed-node
quadrature, a panel Gauss-Legendre integral for the I_n*K_n product, the
large-order Stirling-number expansion of that product, and the
FFT-diagonal form of the log product quadrature with its own log-kernel
moments.  Agreement between these and src/ is the point of the tests.  J0, the integrand kernel of the
product oracle, lives here too (cross-checked against mpmath and a
cosine-moment quadrature before the product oracle relies on it).  Only
the Fourier-moment oracles import from qgsw_vstates: the K0 kernel and, for
the self-interaction quadrature, the conformal map and the array kernels,
which tests check against mpmath on their own; what those oracles check is
the quadrature around them.  g_functional_unfolded keeps the boundary
functional on full P x P kernels from the same library pieces; what it
checks is the rotational fold of contour.g_functional, and
linearization_check_central keeps the single-order stencil that checks
the batched columns of contour.linearization_check.  omega_column
projects the grid's dG/dOmega, which the solver's seed writes in closed
form.  converged_lattice solves the projected m-fold system by plain
forward-difference Newton to ||F|| <= 1e-16, the reference the solver's
certified points are measured against.  The one deliberately wrong
function, g_functional_inner_flipped, gives the verification tests a
fault to catch.
The induced velocity off the interfaces and the Euler admissibility test
live here too: only the tests use them.  csv_table_text writes a table
through the standard library's csv.writer, the route the CLI's own CSV
writer replaced.  horner_reference keeps the array kernels' series pass as
it was written before its sizing table and its Horner start were trimmed,
the bit-for-bit reference of bessel._i0_array and _k0reg_array.  In the
same way ladder_prefactors_reference and ladder_k_reference keep the
BesselLadder recurrences as they ran before every order became a
normalized frexp pair, and threshold_reference keeps the two candidate
loops of ModeCell.threshold before its one pass per threshold.
"""

import csv
import io
import itertools
import math

import numpy as np

EULER_GAMMA = 0.57721566490153286061


# ---------------------------------------------------------------------------
# the array kernels' series pass, as first written

def horner_reference(z, coeffs):
    """bessel._horner with its length loop indexing the numpy tables and
    its Horner pass started from a filled array: _i0_array(z) is
    horner_reference(z, _I0_COEFFS), _k0reg_array(z) is
    horner_reference(z, _K0REG_COEFFS), bit for bit."""
    from qgsw_vstates.bessel import _I0_COEFFS, _SERIES_TOL

    q = np.asarray(z, dtype=float)
    q = 0.25 * q * q
    qmax = float(q.max()) if q.size else 0.0
    base, total, count = 1.0, coeffs[0], 0
    for m in range(1, coeffs.size):
        base *= qmax / (m * m)
        ratio = coeffs[m] / _I0_COEFFS[m]
        total += base * ratio
        if base * max(abs(ratio), 1.0) <= _SERIES_TOL * max(abs(total), 1.0):
            count = m + 1
            break
    if not count:
        raise ValueError(
            f"argument {2.0 * math.sqrt(qmax):.6g} is beyond the"
            f" {coeffs.size}-term series range of the array kernels"
        )
    out = np.full_like(q, coeffs[count - 1])
    for c in coeffs[count - 2::-1]:
        out *= q
        out += c
    return out


# ---------------------------------------------------------------------------
# the Bessel ladder's recurrences and the threshold scan, as first written

def ladder_prefactors_reference(x):
    """(x/2)^n / n! for n = 0, 1, ... as frexp pairs (mantissa, exponent),
    by the product BesselLadder first kept inside (1e-150, 1e150),
    renormalizing only when it left that window."""
    p, ex, k = 1.0, 0, 0
    while True:
        m, e = math.frexp(p)
        yield m, ex + e
        k += 1
        p *= 0.5 * x / k
        if not 1e-150 < p < 1e150:
            m, e = math.frexp(p)
            p, ex = m, ex + e


def ladder_k_reference(x):
    """K_n(x) exp(x) for n = 0, 1, ... as frexp pairs, by the recurrence
    BesselLadder first ran: unnormalized values at a shared exponent,
    cut by 2^-1000 past 1e250 and before a step that overflows."""
    from qgsw_vstates.bessel import _k01

    km, kc = _k01(x)
    ex = 0
    yield math.frexp(km)
    yield math.frexp(kc)
    for j in itertools.count(1):
        kn = km + (2.0 * j / x) * kc
        if kn > 1e250:
            while kn == math.inf:
                if 2.0 * j / x == math.inf:
                    raise OverflowError(f"K_{j + 1}({x!r}): 2j/x overflows")
                km, kc, ex = km * 2.0**-1000, kc * 2.0**-1000, ex + 1000
                kn = km + (2.0 * j / x) * kc
            if kn > 1e250:
                kc, kn, ex = kc * 2.0**-1000, kn * 2.0**-1000, ex + 1000
        km, kc = kc, kn
        mant, e = math.frexp(kc)
        yield mant, ex + e


def threshold_reference(cell, window, cap):
    """ModeCell.threshold as two candidate loops that re-read a window of
    window + 1 orders for every candidate, on cell's own spectrum memo."""
    from qgsw_vstates.spectrum import SearchExhausted, Threshold

    b = cell.b
    delta_inf = b * (cell.outer.product(1) + cell.inner.product(1)) - (
        1.0 + b * b
    ) * cell.lam1
    n0 = None
    for candidate in range(1, cap + 1):
        orders = range(candidate, candidate + window + 1)
        if all(cell.spectrum(k)[0] > 0.0 for k in orders):
            tail = 2.0 * b * cell.coupling(candidate + window)
            if tail * tail < 0.5 * delta_inf * delta_inf:
                n0 = candidate
                break
    if n0 is None:
        raise SearchExhausted(
            f"no positivity threshold below {cap} for lam={cell.lam}, b={b}"
        )
    for candidate in range(n0, cap + 1):
        orders = range(candidate, candidate + window + 1)
        pairs = [cell.spectrum(k)[1] for k in orders]
        if any(p is None for p in pairs):
            continue
        rising = all(
            pairs[i].omega_plus < pairs[i + 1].omega_plus
            for i in range(len(pairs) - 1)
        )
        falling = all(
            pairs[i].omega_minus > pairs[i + 1].omega_minus
            for i in range(len(pairs) - 1)
        )
        if rising and falling:
            return Threshold(n0=n0, n=candidate)
    raise SearchExhausted(
        f"no monotonicity threshold below {cap} for lam={cell.lam}, b={b}"
    )


def determinant(block):
    """det of a 2 x 2 array such as ModeCell.block's, m11 m22 - m12 m21."""
    return block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]


def quadratic(cell, n):
    """(B_n, C_n, Delta_n) of det M_n(Omega) = b Omega^2 - B_n Omega + C_n
    from cell.mode(n): B_n = (1-b^2) Lambda_1 + b(Omega_n(lam)
    - Omega_n(lam b)), C_n = (Omega_n(lam) - b Lambda_1)(Lambda_1
    - b Omega_n(lam b)) + b Lambda_n^2 and Delta_n = (b(Omega_n(lam)
    + Omega_n(lam b)) - (1+b^2) Lambda_1)^2 - 4 b^2 Lambda_n^2, which
    equals B_n^2 - 4 b C_n."""
    lam1, lamn, outer, inner = cell.mode(n)
    b = cell.b
    b_n = (1.0 - b * b) * lam1 + b * (outer - inner)
    c_n = (outer - b * lam1) * (lam1 - b * inner) + b * lamn * lamn
    gap = b * (outer + inner) - (1.0 + b * b) * lam1
    return b_n, c_n, gap * gap - 4.0 * b * b * lamn * lamn


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


# ---------------------------------------------------------------------------
# large-order expansion of I_n(lam b) K_n(lam) with Stirling numbers

def stirling2(m: int, k: int) -> int:
    """Stirling number of the second kind S(m, k).

    S(0,0) = 1, S(m,0) = 0 for m >= 1, S(m,k) = 0 for m < k, and
    S(m,k) = S(m-1,k-1) + k S(m-1,k). Exact integer arithmetic.
    """
    if m < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if m < k:
        return 0
    if k == 0:
        return 1 if m == 0 else 0
    row = [1] + [0] * k  # row for m' = 0 over k' = 0..k
    for mp in range(1, m + 1):
        new = [0] * (k + 1)
        for kp in range(1, min(mp, k) + 1):
            new[kp] = row[kp - 1] + kp * row[kp]
        row = new
    return row[k]


def _b_coeff(m: int, lam: float) -> float:
    """b_m(lambda) = sum_{k=1}^m (-1)^{m-k} S(m,k)/k! (lambda^2/4)^k, b_0 = 1."""
    if m == 0:
        return 1.0
    q = 0.25 * lam * lam
    total = 0.0
    for k in range(1, m + 1):
        total += (-1.0) ** (m - k) * stirling2(m, k) / math.factorial(k) * q ** k
    return total


def product_ik_asymptotic(n, lam: float, b: float, terms: int) -> float:
    """High-order expansion of I_n(lambda b) K_n(lambda).

    Returns (b^n / 2n) (sum_{m<=terms} b_m(lambda b)/n^m)
    (sum_{m<=terms} (-1)^m b_m(lambda)/n^m). terms = 0 reduces to b^n/(2n).
    """
    n_abs = abs(int(n))
    if n_abs < 1:
        raise ValueError("order must be >= 1")
    if not 0.0 < b <= 1.0:
        raise ValueError("b must lie in (0, 1]")
    if not 0 <= terms <= 8:
        raise ValueError("terms must lie in [0, 8]")
    s_inner = sum(_b_coeff(m, lam * b) / n_abs ** m for m in range(terms + 1))
    s_outer = sum((-1.0) ** m * _b_coeff(m, lam) / n_abs ** m for m in range(terms + 1))
    return b ** n_abs / (2.0 * n_abs) * s_inner * s_outer


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


def log_moments(node_count):
    """(1/2pi) int log|1 - e^{i t}| cos(n t) dt = -1/(2|n|) over the FFT
    frequencies n of a node_count-point grid, 0 at n = 0."""
    freq = np.abs(np.fft.fftfreq(node_count, d=1.0 / node_count))
    moments = np.zeros(node_count)
    moments[1:] = -0.5 / freq[1:]
    return moments


def log_weights_from_nodes(grid):
    """The real P x P log weight matrix P c[(k - l) mod P] - log|w_k - w_l|
    built from the grid's rounded complex nodes: an offset table into the
    circulant product-quadrature weights c, and the chords |w_k - w_l| as
    node differences, with log|w_k - w_k| taken as 0.  The check on the
    library's closed-form rows of QuadratureGrid.log_weights.
    """
    count = grid.node_count
    index = np.arange(count)
    circulant = count * np.fft.ifft(log_moments(count)).real
    offsets = (index[:, None] - index[None, :]) % count
    chord = np.abs(grid.nodes[:, None] - grid.nodes[None, :])
    np.fill_diagonal(chord, 1.0)
    return circulant[offsets] - np.log(chord)


def conformal_eval_direct(boundary, grid):
    """contour.conformal_eval by direct summation over every order, the
    powers conj(w)^n built by repeated multiplication: the check on the
    library's FFT form."""
    conjw = np.conj(grid.nodes)
    values = boundary.scale * grid.nodes
    derivs = np.full(grid.node_count, boundary.scale, dtype=complex)
    power = np.ones(grid.node_count, dtype=complex)  # conj(w)^n
    for n, a in enumerate(boundary.coefficients):
        if a != 0.0:
            values = values + a * power
            if n > 0:
                derivs = derivs - (n * a) * power * conjw
        power = power * conjw
    return values, derivs


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
    coeffs = np.fft.fft(i0 * weights[None, :], axis=1) * log_moments(grid.node_count)
    log_part = np.einsum("kk->k", np.fft.ifft(coeffs, axis=1))
    return direct - log_part


def _s_integral_unfolded(lam, source, target, grid):
    """S(lam, Phi_source, Phi_target) at every target node from full P x P
    kernel matrices, the same arithmetic as the library before the fold."""
    from qgsw_vstates.bessel import _i0_array, _k0_array, _k0reg_array
    from qgsw_vstates.contour import _COLLISION_TOL, conformal_eval

    src_vals, src_derivs = conformal_eval(source, grid)
    weights = src_derivs * grid.nodes
    if source == target:
        dist = np.abs(src_vals[:, None] - src_vals[None, :])
        scaled = lam * dist
        i0 = _i0_array(scaled)
        kernel = _k0reg_array(scaled)
        kernel -= math.log(lam / 2.0) * i0
        np.fill_diagonal(dist, np.abs(src_derivs))
        log_part = np.log(dist, out=dist)
        log_part += grid.log_weights(grid.node_count)
        log_part *= i0
        kernel -= log_part
    else:
        tgt_vals, _ = conformal_eval(target, grid)
        dist = np.abs(tgt_vals[:, None] - src_vals[None, :])
        if np.min(dist) < _COLLISION_TOL:
            raise ValueError(
                f"interfaces collide: min node distance {np.min(dist):.3e}"
            )
        kernel = _k0_array(lam * dist)
    pairs = weights.view(float).reshape(-1, 2)
    return (kernel @ pairs).view(complex)[:, 0] / grid.node_count


def g_functional_unfolded(lam, b, omega, f1, f2, grid, inner_sign=1.0):
    """contour.g_functional evaluated at every node, with no use of the
    boundaries' rotational symmetry: the check on the library's fold.

    inner_sign = -1 flips the inner interface's contribution (see
    g_functional_inner_flipped); the default is bit for bit the sum the
    library forms.
    """
    from qgsw_vstates.contour import conformal_eval

    outputs = []
    for target in (f1, f2):
        vals, derivs = conformal_eval(target, grid)
        total = (
            omega * vals
            + inner_sign * _s_integral_unfolded(lam, f2, target, grid)
            - _s_integral_unfolded(lam, f1, target, grid)
        )
        outputs.append(np.imag(total * np.conj(grid.nodes) * np.conj(derivs)))
    return outputs[0], outputs[1]


def g_functional_inner_flipped(lam, b, omega, f1, f2, grid):
    """contour.g_functional with the sign of the inner interface's
    contribution flipped: a wrong functional that still vanishes on every
    annulus, for tests that the verification suite catches the fault."""
    return g_functional_unfolded(lam, b, omega, f1, f2, grid, inner_sign=-1.0)


def linearization_check_central(n, lam, b, omega, epsilon, grid):
    """contour.linearization_check by central differences of G(+-epsilon)
    for one order n, two G evaluations per column where the library spends
    two per column on a whole batch of orders: the check on its batching.
    """
    from qgsw_vstates.contour import (
        FourierBoundary, annulus_boundary, g_functional, sine_coefficients,
    )
    from qgsw_vstates.spectrum import ModeCell

    block = ModeCell(lam, b).block(n, omega)  # refuses n < 1 up front
    if not 1e-8 <= epsilon <= 1e-4:
        raise ValueError(
            f"step must lie in [1e-8, 1e-4]; got {epsilon}"
        )
    flat_outer = annulus_boundary(1.0)
    flat_inner = annulus_boundary(b)
    recovered = np.zeros((2, 2))
    for col, scale in ((0, 1.0), (1, b)):
        for sign in (+1.0, -1.0):
            bumped = FourierBoundary.single_mode(scale, n - 1, sign * epsilon)
            if col == 0:
                g1, g2 = g_functional(lam, b, omega, bumped, flat_inner, grid)
            else:
                g1, g2 = g_functional(lam, b, omega, flat_outer, bumped, grid)
            for row, g in enumerate((g1, g2)):
                sine = sine_coefficients(g, grid)
                recovered[row, col] += sign * sine[n] / (2.0 * epsilon * n)
    deviation = recovered - block / n
    return recovered, deviation


def omega_column(lattice, m, b, grid):
    """The Omega column of the projected m-fold Jacobian from the grid:
    dG_j/dOmega = Im{Phi_j(w) conj(w) conj(Phi_j'(w))} evaluated through
    contour.conformal_eval at the nodes and projected onto sin(mk theta),
    k = 1..K, for the 2 x K lattice coefficients (f1's row, then f2's).
    The check on the closed form of the seed, which evaluates no map.
    """
    from qgsw_vstates.contour import (
        FourierBoundary, conformal_eval, sine_coefficients,
    )

    modes = m * np.arange(1, lattice.shape[1] + 1)
    column = []
    for scale, row in zip((1.0, b), lattice):
        dense = [0.0] * (m * len(row))
        for k, value in enumerate(row):
            dense[m * (k + 1) - 1] = value
        boundary = FourierBoundary(scale, tuple(dense))
        vals, derivs = conformal_eval(boundary, grid)
        slope = np.imag(vals * np.conj(grid.nodes) * np.conj(derivs))
        column.append(sine_coefficients(slope, grid)[modes])
    return np.concatenate(column)

def converged_lattice(lam, b, point, count, grid, tol=1e-16, iterations=12):
    """(2 x count lattice, Omega) of the projected m-fold system at the
    branch point's m, pin and s, solved to ||F|| <= tol from the point
    (zero-padded past its truncation) by plain forward-difference Newton, a
    fresh matrix at every step.  The solver certifies at RESIDUAL_TOL and
    stops Newton there; this is the converged solve its points are
    measured against.
    """
    from qgsw_vstates.contour import (
        FourierBoundary, g_functional, sine_coefficients,
    )

    m = point.m
    modes = m * np.arange(1, count + 1)
    x = np.append(point.lattice(count), point.omega)
    pin = 0 if point.pinned == "outer" else count
    free = np.flatnonzero(np.arange(x.size) != pin)

    def projected(x):
        boundaries = []
        for scale, row in zip((1.0, b), x[:-1].reshape(2, count)):
            dense = np.zeros(m * count)
            dense[m - 1 :: m] = row
            boundaries.append(FourierBoundary(scale, tuple(dense.tolist())))
        g = g_functional(lam, b, x[-1], *boundaries, grid)
        return sine_coefficients(g, grid)[:, modes].ravel()

    for _ in range(iterations):
        f = projected(x)
        if np.linalg.norm(f) <= tol:
            return x[:-1].reshape(2, count), x[-1]
        step = 1e-8 * max(1.0, float(np.linalg.norm(x)))
        matrix = np.empty((f.size, free.size))
        for col, i in enumerate(free):
            bumped = x.copy()
            bumped[i] += step
            matrix[:, col] = (projected(bumped) - f) / step
        x[free] -= np.linalg.solve(matrix, f)
    raise RuntimeError(
        f"||F|| = {np.linalg.norm(projected(x)):.3e} above {tol:.1e} after"
        f" {iterations} forward-difference Newton steps")

# ---------------------------------------------------------------------------
# helpers only the tests use

def velocity_at(z, f1, f2, lam, b, grid):
    """Induced velocity at a point off both interfaces.

    (1/2pi) [contour integral over the outer boundary minus inner boundary]
    of K_0(lam |z - xi|) dxi, by the trapezoid rule; complex dxi makes each
    term i Phi'(tau) tau K_0(...) nodewise.
    """
    from qgsw_vstates.bessel import _k0_array
    from qgsw_vstates.contour import _COLLISION_TOL, conformal_eval

    if f1.scale != 1.0:
        raise ValueError(f"outer boundary must have scale 1; got {f1.scale}")
    if f2.scale != b:
        raise ValueError(
            f"inner boundary scale {f2.scale} does not match b = {b}"
        )
    z = complex(z)
    total = 0.0 + 0.0j
    for boundary, orientation in ((f1, +1.0), (f2, -1.0)):
        vals, derivs = conformal_eval(boundary, grid)
        dist = np.abs(z - vals)
        if np.min(dist) < _COLLISION_TOL:
            raise ValueError(
                f"evaluation point {z} is within {_COLLISION_TOL} of an"
                " interface; quadrature unreliable there"
            )
        kernel = _k0_array(lam * dist)
        total += orientation * 1j * np.sum(
            derivs * grid.nodes * kernel
        ) / grid.node_count
    return total


def euler_admissible(n, b):
    """Strict admissibility 1 + b^n - n(1-b^2)/2 < 0 for the Euler pair.

    Slightly stronger than the radicand test in euler_eigenvalues: at n = 1
    the radicand (b^2/4)(b^2 ... ) can be positive while this fails.
    """
    if int(n) < 1:
        raise ValueError(f"order must be >= 1; got {n}")
    if not 0.0 < b < 1.0:
        raise ValueError(f"b must lie strictly inside (0, 1); got {b}")
    return 1.0 + b**n - n * (1.0 - b * b) / 2.0 < 0.0


# ---------------------------------------------------------------------------
# CSV tables

# cell text by exact type, before any quoting
_CSV_CELL_TEXT = {float: "{:.17g}".format, np.float64: "{:.17g}".format,
                  int: str, str: str, bool: {True: "true", False: "false"}.get,
                  type(None): lambda value: ""}


def csv_table_text(header, rows):
    """A table's CSV text from csv.writer: "\\n" line ends, minimal quoting."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_CSV_CELL_TEXT[type(v)](v) for v in row] for row in rows)
    return buffer.getvalue()
