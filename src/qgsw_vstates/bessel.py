"""Modified Bessel functions of integer order, hand-built for this toolkit.

Everything is evaluated from power series, recurrences and integral
representations with documented accuracy, no library calls:

* ``I_n`` by its ascending series (all terms positive, so no cancellation),
  or by Miller's backward recurrence normalized with the series ``I_0`` once
  the argument is large relative to the order.
* ``K_0``/``K_1`` by the logarithmic power series for x <= 4; for larger x
  that series cancels catastrophically (error ~ e^{2x} eps), so the
  positive-integrand representation K_nu(x) = int_0^inf e^{-x cosh t}
  cosh(nu t) dt is used instead (trapezoid converges like e^{-pi^2/h}).
* ``K_n`` for n >= 2 by upward recurrence, which is stable for K.
* products, the high-order product expansion with Stirling numbers, the
  Beltrami cosine summation and the regularized (log-free) part of ``K_0``.

Log-scaled variants keep quantities like I_n(x)K_n(x) representable up to
n = 2000 even though the factors themselves overflow near n ~ 700.

Overflow policy: a value that cannot be represented as a strictly positive
finite double raises :class:`OverflowError` (a range error), never a silent
``inf`` or ``0.0``.

All functions are pure.  The array kernels ``_i0_array``, ``_k0reg_array``
and ``_k0_array`` (numpy) feed the contour quadrature: the same series as
the scalar code, evaluated as one fixed-length Horner pass per array with
coefficient tables built at import, and the same K_0 trapezoid rule above
4.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# Euler-Mascheroni constant to 20 digits; psi(1) = -gamma.
EULER_GAMMA = 0.57721566490153286061

_LOG_DBL_MAX = math.log(1.7976931348623157e308)
_SERIES_TOL = 1e-17


def _as_order(n) -> int:
    if n != int(n):
        raise ValueError(f"order must be an integer, got {n!r}")
    return abs(int(n))


# ---------------------------------------------------------------------------
# I_n

def _i_series_scaled(n: int, x: float) -> tuple[float, int]:
    """Ascending series for I_n(x) as (mantissa, binary exponent).

    I_n(x) = (x/2)^n / n! * sum_m (x^2/4)^m / (m! (n+1)...(n+m)); every term
    is positive, so the sum is evaluated to full relative precision. The
    prefactor is accumulated as a product with periodic renormalization so
    that intermediate under/overflow cannot occur.
    """
    hx = 0.5 * x
    p, ex = 1.0, 0
    for k in range(1, n + 1):
        p *= hx / k
        if not 1e-150 < p < 1e150:
            m, e = math.frexp(p)
            p, ex = m, ex + e
    q = x * x * 0.25
    s, term, m = 1.0, 1.0, 0
    while term > _SERIES_TOL * s:
        m += 1
        term *= q / (m * (n + m))
        s += term
        if s > 1e250:
            s *= 2.0 ** -1000
            term *= 2.0 ** -1000
            ex += 1000
    mant, e = math.frexp(p * s)
    return mant, ex + e


def log_bessel_i(n, x: float) -> float:
    """log I_n(x) for x > 0, valid far beyond the double range of I_n."""
    n = _as_order(n)
    if x < 0.0:
        raise ValueError("argument must be nonnegative")
    if x == 0.0:
        return 0.0 if n == 0 else -math.inf
    mant, ex = _i_series_scaled(n, x)
    return math.log(mant) + ex * math.log(2.0)


def _i_miller(n: int, x: float) -> float:
    """I_n(x) by backward recurrence, normalized by the series I_0(x)."""
    start = n + int(2.0 * math.sqrt(max(n, x))) + 40
    ip1 = 0.0
    ik = 1e-300
    snap = 0.0  # unnormalized I_n picked up on the way down
    snap_shift = 0
    shifts = 0
    for k in range(start, 0, -1):
        im1 = ip1 + (2.0 * k / x) * ik
        ip1, ik = ik, im1
        if k - 1 == n:
            snap, snap_shift = ik, shifts
        if ik > 1e250:
            ip1 *= 1e-250
            ik *= 1e-250
            shifts += 1
    # ratio I_n / I_0 survives the shared rescaling; account for shifts that
    # happened after the snapshot was taken
    log_ratio = math.log(snap) - math.log(ik) + (snap_shift - shifts) * math.log(1e250)
    log_val = log_ratio + log_bessel_i(0, x)
    if log_val > _LOG_DBL_MAX:
        raise OverflowError(f"I_{n}({x}) overflows a double")
    m0, e0 = _i_series_scaled(0, x)
    if shifts == snap_shift and e0 < 1020:
        val = (snap / ik) * math.ldexp(m0, e0)  # full precision, no exp/log round trip
    else:
        val = math.exp(log_val)
    if not (0.0 < val < math.inf):
        raise OverflowError(f"I_{n}({x}) is not representable as a positive double")
    return val


def bessel_i(n, x: float) -> float:
    """I_n(x), the modified Bessel function of the first kind.

    Symmetric in the order (I_{-n} = I_n), strictly positive for x > 0.
    Relative error <= 1e-13 on n <= 200, x <= 50; best effort outside.
    """
    n = _as_order(n)
    if x < 0.0:
        raise ValueError("argument must be nonnegative")
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    if x < max(10.0, 0.5 * n):
        mant, ex = _i_series_scaled(n, x)
        val = math.ldexp(mant, ex)
        if not (0.0 < val < math.inf):
            raise OverflowError(f"I_{n}({x}) is not representable as a positive double")
        return val
    return _i_miller(n, x)


# ---------------------------------------------------------------------------
# K_n

def _k01_series(x: float) -> tuple[float, float]:
    """K_0 and K_1 by the logarithmic power series (x <= 4)."""
    q = 0.25 * x * x
    lg = math.log(0.5 * x)
    # K_0 = -log(x/2) I_0(x) + sum psi(m+1) q^m / (m!)^2
    i0, k0reg = 1.0, -EULER_GAMMA
    term, m, psi = 1.0, 0, -EULER_GAMMA
    while term > _SERIES_TOL * i0:
        m += 1
        term *= q / (m * m)
        psi += 1.0 / m
        i0 += term
        k0reg += term * psi
    k0 = -lg * i0 + k0reg
    # K_1 = 1/x + log(x/2) I_1(x) - (x/4) sum [psi(m+1)+psi(m+2)] q^m / (m!(m+1)!)
    i1 = 0.5 * x
    term, m = 1.0, 0
    s = -EULER_GAMMA + (1.0 - EULER_GAMMA)
    i1_sum, psi1, psi2 = 1.0, -EULER_GAMMA, 1.0 - EULER_GAMMA
    while term > _SERIES_TOL * i1_sum:
        m += 1
        term *= q / (m * (m + 1))
        psi1 += 1.0 / m
        psi2 += 1.0 / (m + 1)
        i1_sum += term
        s += term * (psi1 + psi2)
    k1 = 1.0 / x + lg * i1 * i1_sum - 0.25 * x * s
    return k0, k1


def _k01_integral(x: float) -> tuple[float, float, float]:
    """(s0, s1, log_scale) with K_nu(x) = s_nu * exp(log_scale), for x > 4.

    Trapezoid rule on int_0^inf e^{-x cosh t} cosh(nu t) dt; the integrand is
    even and entire, so the error decays like e^{-pi^2/h}. Truncation at
    x (cosh T - 1) = 52 leaves a relative tail below 3e-23.
    """
    t_max = math.acosh(1.0 + 52.0 / x)
    steps = max(30, int(math.ceil(t_max / 0.1)))
    h = t_max / steps
    s0 = 0.5 * (1.0 + math.exp(-x * (math.cosh(t_max) - 1.0)))
    s1 = 0.5 * (1.0 + math.exp(-x * (math.cosh(t_max) - 1.0)) * math.cosh(t_max))
    for j in range(1, steps):
        t = j * h
        w = math.exp(-x * (math.cosh(t) - 1.0))
        s0 += w
        s1 += w * math.cosh(t)
    return s0 * h, s1 * h, -x


def _k01(x: float) -> tuple[float, float, float]:
    """(k0_mant, k1_mant, log_scale): K_nu(x) = mant * exp(log_scale)."""
    if x <= 4.0:
        k0, k1 = _k01_series(x)
        return k0, k1, 0.0
    return _k01_integral(x)


def _k_scaled(n: int, x: float) -> tuple[float, int, float]:
    """K_n(x) as (mantissa, binary exponent, extra log scale).

    Upward recurrence K_{j+1} = K_{j-1} + (2j/x) K_j with renormalization;
    stable because K_n grows with n.
    """
    k0, k1, ls = _k01(x)
    ex = 0
    if n == 0:
        mant, e = math.frexp(k0)
        return mant, e, ls
    km, kc = k0, k1
    for j in range(1, n):
        km, kc = kc, km + (2.0 * j / x) * kc
        if kc > 1e250:
            km *= 2.0 ** -1000
            kc *= 2.0 ** -1000
            ex += 1000
    mant, e = math.frexp(kc)
    return mant, ex + e, ls


def log_bessel_k(n, x: float) -> float:
    """log K_n(x) for x > 0, valid far beyond the double range of K_n."""
    n = _as_order(n)
    if x <= 0.0:
        raise ValueError("argument must be positive")
    mant, ex, ls = _k_scaled(n, x)
    return math.log(mant) + ex * math.log(2.0) + ls


def bessel_k(n, x: float) -> float:
    """K_n(x), the modified Bessel function of the second kind.

    Symmetric in the order (K_{-n} = K_n), strictly positive, behaves like
    -log(x/2) - gamma at 0 for n = 0 and like Gamma(n)/2 (2/x)^n for n >= 1.
    Relative error <= 1e-12 on n <= 200, x <= 50; best effort outside.
    """
    n = _as_order(n)
    if x <= 0.0:
        raise ValueError("argument must be positive")
    mant, ex, ls = _k_scaled(n, x)
    log_val = math.log(mant) + ex * math.log(2.0) + ls
    if log_val > _LOG_DBL_MAX:
        raise OverflowError(f"K_{n}({x}) overflows a double")
    val = math.ldexp(mant, ex) * math.exp(ls) if ls > -700.0 else math.exp(log_val)
    if not (0.0 < val < math.inf):
        raise OverflowError(f"K_{n}({x}) is not representable as a positive double")
    return val


def bessel_derivative(kind: str, n, x: float) -> float:
    """Z_n'(x) via the two-term recurrence, kind is "I" or "K".

    Uses Z_{n-1}(x) - (n/x) Z_n(x) with the sign pattern of K; the
    (n+1)-form is algebraically equivalent and is exercised by tests.
    """
    if kind not in ("I", "K"):
        raise ValueError("kind must be 'I' or 'K'")
    n = _as_order(n)
    if x <= 0.0:
        raise ValueError("argument must be positive")
    if kind == "I":
        return bessel_i(abs(n - 1), x) - (n / x) * bessel_i(n, x)
    return -bessel_k(abs(n - 1), x) - (n / x) * bessel_k(n, x)


# ---------------------------------------------------------------------------
# products and expansions

def product_ik(n, x: float) -> float:
    """I_n(x) K_n(x), evaluated in log form so n up to 2000 cannot overflow.

    Strictly decreasing in |n| and in x; behaves like 1/(2n) - O(x^2/n^3)
    for large order.
    """
    n = _as_order(n)
    if x <= 0.0:
        raise ValueError("argument must be positive")
    return math.exp(log_bessel_i(n, x) + log_bessel_k(n, x))


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
    n_abs = _as_order(n)
    if n_abs < 1:
        raise ValueError("order must be >= 1")
    if not 0.0 < b <= 1.0:
        raise ValueError("b must lie in (0, 1]")
    if not 0 <= terms <= 8:
        raise ValueError("terms must lie in [0, 8]")
    s_inner = sum(_b_coeff(m, lam * b) / n_abs ** m for m in range(terms + 1))
    s_outer = sum((-1.0) ** m * _b_coeff(m, lam) / n_abs ** m for m in range(terms + 1))
    return b ** n_abs / (2.0 * n_abs) * s_inner * s_outer


def beltrami_k0(a: float, b: float, theta: float, terms: int) -> float:
    """Cosine summation sum_{m=-M}^{M} I_m(b) K_m(a) cos(m theta).

    Converges to K_0(sqrt(a^2 + b^2 - 2 a b cos theta)) for 0 < b < a; the
    tail decays like (b/a)^m / (2m).
    """
    if not 0.0 < b < a:
        raise ValueError("need 0 < b < a")
    total = bessel_i(0, b) * bessel_k(0, a)
    for m in range(1, terms + 1):
        total += 2.0 * math.cos(m * theta) * math.exp(
            log_bessel_i(m, b) + log_bessel_k(m, a)
        )
    return total


def k0_regularized(x: float) -> float:
    """K_0(x) + log(x/2) I_0(x) = sum_m psi(m+1) (x^2/4)^m / (m!)^2.

    The smooth (log-free) part of K_0; tends to psi(1) = -gamma as x -> 0.
    """
    if x < 0.0:
        raise ValueError("argument must be nonnegative")
    q = 0.25 * x * x
    total, term, m, psi = -EULER_GAMMA, 1.0, 0, -EULER_GAMMA
    while True:
        m += 1
        term *= q / (m * m)
        psi += 1.0 / m
        total += term * psi
        if term * max(psi, 1.0) < _SERIES_TOL * max(abs(total), 1.0):
            return total


# ---------------------------------------------------------------------------
# vectorized kernels of the contour quadrature (numpy arrays)

def _series_tables():
    """Coefficients 1/(m!)^2 and psi(m+1)/(m!)^2, each correctly rounded, for
    every m whose 1/(m!)^2 is a normal double (m <= 97)."""
    i0, k0reg = [], []
    gamma_num, gamma_den = EULER_GAMMA.as_integer_ratio()
    fact, harmonic = 1, 0  # m! and m! H_m as exact integers
    while 1 / fact**2 >= sys.float_info.min:
        i0.append(1 / fact**2)
        # psi(m+1) = H_m - gamma, so the quotient below is exact up to one
        # rounding of the integer division
        k0reg.append((harmonic * gamma_den - gamma_num * fact)
                     / (gamma_den * fact**3))
        m = len(i0)
        harmonic = harmonic * m + fact
        fact *= m
    return np.array(i0), np.array(k0reg)


_I0_COEFFS, _K0REG_COEFFS = _series_tables()


def _horner(z, coeffs):
    """sum_m coeffs[m] q^m at q = z^2/4, truncated once for the whole array.

    The length follows the scalar tail criterion evaluated at max(q): keep
    terms up to the first whose size, times max(|psi(m+1)|, 1), falls below
    _SERIES_TOL times the partial sum floored at 1.  A smaller q scales the
    dropped terms by (q/qmax)^m, so one length serves the whole array.
    """
    q = np.asarray(z, dtype=float)
    q = 0.25 * q * q
    qmax = float(q.max()) if q.size else 0.0
    base, total, count = 1.0, coeffs[0], 0  # base = qmax^m / (m!)^2
    for m in range(1, coeffs.size):
        base *= qmax / (m * m)
        ratio = coeffs[m] / _I0_COEFFS[m]  # 1 for I_0, psi(m+1) for k0reg
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


def _i0_array(z: np.ndarray) -> np.ndarray:
    """I_0 on an array of nonnegative values (z <= ~95), ascending series."""
    return _horner(z, _I0_COEFFS)


def _k0reg_array(z: np.ndarray) -> np.ndarray:
    """Vectorized k0_regularized (series; the contour quadrature feeds it
    z <= 2 lambda, and _k0_array z <= 4)."""
    return _horner(z, _K0REG_COEFFS)


# trapezoid nodes of int_0^inf e^{-z cosh t} dt for z > 4: truncation at
# z (cosh T - 1) = 52 for z = 4, step <= 0.1, stored as cosh(t_j) - 1
_K0_T_MAX = math.acosh(1.0 + 52.0 / 4.0)
_K0_STEPS = max(34, int(math.ceil(_K0_T_MAX / 0.1)))
_K0_STEP = _K0_T_MAX / _K0_STEPS
_K0_COSH_M1 = np.cosh(np.linspace(0.0, _K0_T_MAX, _K0_STEPS + 1)) - 1.0


def _k0_array(z: np.ndarray) -> np.ndarray:
    """K_0 on an array of positive values, split at 4.

    Up to 4 the logarithmic series -log(z/2) I_0(z) + k0reg(z), both as
    fixed-length Horner passes; an array with every value in that range
    takes it whole.  Above 4 that series cancels, so the fixed-node
    trapezoid rule on e^{-z} int_0^inf e^{-z (cosh t - 1)} dt takes over
    (relative error ~1e-15 up to z = 60, degrading beyond), accumulated one
    node at a time over the values instead of as a values-by-nodes matrix.
    """
    z = np.asarray(z, dtype=float)
    small = z <= 4.0
    if small.all():
        return _k0_series(z)
    out = np.empty_like(z)
    if small.any():
        out[small] = _k0_series(z[small])
    zl = z[~small]
    acc = np.full_like(zl, 0.5)  # node t = 0 at half weight
    term = np.empty_like(zl)
    for c in _K0_COSH_M1[1:]:
        np.multiply(zl, -c, out=term)
        np.exp(term, out=term)
        acc += term
    acc -= 0.5 * term  # the last node carries half weight too
    out[~small] = acc * _K0_STEP * np.exp(-zl)
    return out


def _k0_series(z):
    """-log(z/2) I_0(z) + k0reg(z), K_0 for z <= 4."""
    out = _i0_array(z)
    out *= np.log(0.5 * z)
    return np.subtract(_k0reg_array(z), out, out=out)
