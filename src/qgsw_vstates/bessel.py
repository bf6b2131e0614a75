"""Modified Bessel functions of integer order, hand-built for this toolkit.

Everything is evaluated from power series, recurrences and integral
representations with documented accuracy, no library calls:

* ``I_n`` by its ascending series at every argument (all terms positive,
  so no cancellation, and no second path for large arguments), its
  prefactor (x/2)^n/n! carried as a normalized (mantissa, exponent) pair.
* ``K_0``/``K_1`` by K_nu(x) = int_0^inf e^{-x cosh t} cosh(nu t) dt, one
  trapezoid rule (``_k0_nodes``) for scalars at every argument and for
  arrays above 4.  The logarithmic power series, which cancels as x grows
  (error ~ e^{2x} eps), is left to the array kernels up to 4.
* ``K_n`` for n >= 2 by upward recurrence, which is stable for K, every
  order a normalized (mantissa, exponent) pair as well.
* products, the Beltrami cosine summation and the regularized (log-free)
  part of ``K_0``.

The ladder's log values keep quantities like I_n(x)K_n(x) representable up
to n = 2000 even though the factors themselves overflow near n ~ 700, and
log I_n(x) finite past x ~ 713, where I_0(x) itself overflows.

Range policy: a value that cannot be represented as a normal double (finite
and at least ``sys.float_info.min``) raises :class:`OverflowError` (a range
error), never a silent ``inf``, ``0.0`` or subnormal with its precision
gone.

All functions are pure; :class:`BesselLadder` carries the I and K
recurrences of one argument across orders and is where every scalar value
is read: I_n, K_n, their logs, the product I_n K_n and the derivatives.
``_beltrami_sum`` sums the Beltrami series on two ladders.  The array
kernels ``_i0_array``,
``_k0reg_array`` and ``_k0_array`` (numpy) feed the contour quadrature: the
ascending series of I_0 and of the log-free part of K_0, evaluated as one
fixed-length Horner pass per array with coefficient tables built at
import, and above 4 the ladder's trapezoid rule with its nodes sized to
each array's range.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# Euler-Mascheroni constant to 20 digits; psi(1) = -gamma.
EULER_GAMMA = 0.57721566490153286061

_LOG_DBL_MAX = math.log(1.7976931348623157e308)
_SERIES_TOL = 1e-17
# _k0_array's split: up to it the series as Horner passes, above it the
# trapezoid rule of _k0_nodes (the ladder takes that rule at every argument)
_K0_SPLIT = 4.0


def _as_order(n) -> int:
    k = int(n)
    if k != n:
        raise ValueError(f"order must be an integer, got {n!r}")
    return abs(k)


# ---------------------------------------------------------------------------
# K_n

def _k0_nodes(lo: float, hi: float) -> tuple[np.ndarray, float]:
    """(c, h) of the trapezoid rule K_0(z) = e^{-z} int_0^T e^{-z c(t)} dt on
    lo <= z <= hi: nodes c = cosh t - 1 = 2 sinh^2(t/2) (no cancellation) at
    t = h, ..., T, the last at half weight like t = 0.  T makes c(T) z >= 40
    at lo; h keeps the strip error e^{z - pi^2/h} and the Gaussian-width
    error e^{-2 pi^2/(z h^2)} below e^{-37} at hi (Trefethen & Weideman,
    SIAM Review 56 (2014)).  A range error when no T can be sized: 40/lo
    overflows below lo ~ 2.2e-307, and T rounds to 0 above ~3.6e17."""
    t_max = math.acosh(1.0 + 40.0 / lo)
    if not 0.0 < t_max < math.inf:
        raise OverflowError(
            f"K_0({lo!r}): the trapezoid rule cannot be sized at this argument"
        )
    steps = math.ceil(t_max / min(math.pi**2 / (hi + 37.0),
                                  math.pi * math.sqrt(2.0 / (37.0 * hi))))
    half_nodes = np.linspace(0.0, 0.5 * t_max, steps + 1)[1:]
    return 2.0 * np.sinh(half_nodes) ** 2, t_max / steps


def _k01(x: float) -> tuple[float, float]:
    """(k0_mant, k1_mant): K_nu(x) = mant * exp(-x) by _k0_nodes at
    lo = hi = x, K_1 weighting each node by cosh t."""
    c, h = _k0_nodes(x, x)
    w = np.exp(-x * c)
    w[-1] *= 0.5  # the last node carries half weight, as t = 0 does
    s0 = 0.5 + float(w.sum())
    return h * s0, h * (s0 + float(w @ c))


# ---------------------------------------------------------------------------
# one argument, every order

class BesselLadder:
    """I_n(x) and K_n(x) at one argument x > 0, across integer orders.

    A negative order reads its mirror (I_{-n} = I_n, K_{-n} = K_n) and a
    fractional one is refused with ValueError; the order is checked where a
    value is first computed, so a memo hit costs nothing.  The constructor
    refuses an x that is not positive and finite with ValueError.

    The ladder is extended on demand and never restarted:

    * K: the K_0/K_1 base, computed once, and every order of the upward
      recurrence K_{j+1} = K_{j-1} + (2j/x) K_j (stable because K_n grows
      with n), resumed from the top two; the older is shifted to the
      newer's exponent, so a step overflows only where 2j/x does (x below
      ~1e-306), and that raises OverflowError;
    * I: the prefactor (x/2)^n / n! of every order reached, one step of
      the product per order, times the ascending series
      sum_m (x^2/4)^m / (m! (n+1)...(n+m)), run only for the orders asked
      for (every term is positive, so the sum has full relative precision)
      and cut by 2^-1000 past 1e250, as it would overflow above x ~ 713.

    Every K order and every I prefactor past order 0 (1.0) is kept as a
    normalized frexp pair (mantissa in [0.5, 1), binary exponent).  Scaling by a power of two is
    exact, so each value rounds as the unscaled arithmetic would wherever
    that stays a normal double, and past that the exponent carries on.

    A sweep over orders 0..N therefore costs O(N) recurrence steps where
    fresh evaluations cost O(N^2).  Each value is bit-for-bit the one a
    fresh ladder gives.  I_n (its series run once), log K_n and I_n K_n are
    kept per order, for every cell sharing the ladder.
    """

    def __init__(self, x: float):
        if not 0.0 < x < math.inf:
            raise ValueError(f"argument must be positive and finite; got {x}")
        self.x = x
        self._prefactors = [(1.0, 0)]  # order -> (mantissa, binary exponent)
        self._k_orders = []  # order -> (mantissa, binary exponent)
        self._i_orders = {}  # order -> (mantissa, binary exponent)
        self._log_k = {}
        self._products = {}

    def _i_scaled(self, order: int) -> tuple[float, int]:
        """I_n(x) as (mantissa, binary exponent), its series run once."""
        if order in self._i_orders:
            return self._i_orders[order]
        n = _as_order(order)
        prefactors = self._prefactors
        for k in range(len(prefactors), n + 1):
            p, ex = prefactors[-1]
            p, e = math.frexp(p * (0.5 * self.x / k))
            prefactors.append((p, ex + e))
        p, ex = prefactors[n]
        q = self.x * self.x * 0.25
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
        self._i_orders[order] = mant, ex + e
        return mant, ex + e

    def _k_scaled(self, n: int) -> tuple[float, int]:
        """K_n(x) exp(x) as (mantissa, binary exponent)."""
        n = _as_order(n)
        orders = self._k_orders
        if not orders:
            orders += [math.frexp(k) for k in _k01(self.x)]
        for j in range(len(orders) - 1, n):
            (km, em), (kc, ec) = orders[-2:]
            ratio = 2.0 * j / self.x
            if ratio == math.inf:
                raise OverflowError(f"K_{j + 1}({self.x!r}): 2j/x overflows")
            kn, e = math.frexp(math.ldexp(km, em - ec) + ratio * kc)
            orders.append((kn, ec + e))
        return orders[n]

    def log_i(self, n: int) -> float:
        """log I_n(x), valid far beyond the double range of I_n: within
        1e-13 relative of mpmath on n <= 200, x <= 1e5 (the series runs
        about x/2 terms there)."""
        mant, ex = self._i_scaled(n)
        return math.log(mant) + ex * math.log(2.0)

    def log_k(self, n: int) -> float:
        """log K_n(x), valid far beyond the double range of K_n."""
        if n not in self._log_k:
            mant, ex = self._k_scaled(n)
            self._log_k[n] = math.log(mant) + ex * math.log(2.0) - self.x
        return self._log_k[n]

    def product(self, n: int) -> float:
        """I_n(x) K_n(x) from the two logs, so n up to 2000 cannot overflow.

        Strictly decreasing in |n| and in x; behaves like 1/(2n)
        - O(x^2/n^3) for large order.
        """
        if n not in self._products:
            self._products[n] = math.exp(self.log_i(n) + self.log_k(n))
        return self._products[n]

    def i(self, n: int) -> float:
        """I_n(x) as a double; OverflowError when it is not representable.

        Relative error <= 1e-13 on n <= 200, x <= 700 wherever I_n(x) is a
        normal double (worst measured against mpmath on 10 <= x <= 700:
        6.4e-14).
        """
        mant, ex = self._i_scaled(n)
        val = math.ldexp(mant, ex) if ex <= 1024 else math.inf
        if not (sys.float_info.min <= val < math.inf):
            raise OverflowError(
                f"I_{n}({self.x}) is not representable as a normal double"
            )
        return val

    def k(self, n: int) -> float:
        """K_n(x) as a double; OverflowError when it is not representable.

        Strictly positive, behaves like -log(x/2) - gamma at 0 for n = 0
        and like Gamma(n)/2 (2/x)^n for n >= 1.  Worst relative error
        against mpmath on n <= 200 (K_n(x) a normal double): 3.1e-15 on
        1e-12 <= x <= 4 (K_0 alone 5.0e-16), 2.7e-15 on 4 < x < 700,
        5.8e-14 above.
        """
        mant, ex = self._k_scaled(n)
        log_val = self.log_k(n)
        if log_val > _LOG_DBL_MAX:
            raise OverflowError(f"K_{n}({self.x}) overflows a double")
        val = math.ldexp(mant, ex) * math.exp(-self.x) if self.x < 700.0 else math.exp(log_val)
        if not (sys.float_info.min <= val < math.inf):
            raise OverflowError(f"K_{n}({self.x}) is not representable as a normal double")
        return val

    def derivative(self, kind: str, n: int) -> float:
        """Z_n'(x) via the two-term recurrence, kind is "I" or "K".

        Uses Z_{n-1}(x) - (n/x) Z_n(x) with the sign pattern of K; the
        (n+1)-form is algebraically equivalent and is exercised by tests.
        """
        if kind not in ("I", "K"):
            raise ValueError("kind must be 'I' or 'K'")
        n = _as_order(n)
        if kind == "I":
            return self.i(abs(n - 1)) - (n / self.x) * self.i(n)
        return -self.k(abs(n - 1)) - (n / self.x) * self.k(n)


def _beltrami_sum(inner, outer, theta, terms):
    """Cosine summation sum_{m=-M}^{M} I_m(b) K_m(a) cos(m theta), M = terms,
    on the ladders at b (inner) and a (outer), which callers at several
    theta share.

    Converges to K_0(sqrt(a^2 + b^2 - 2 a b cos theta)) for 0 < b < a; the
    tail decays like (b/a)^m / (2m).
    """
    total = inner.i(0) * outer.k(0)
    for m in range(1, terms + 1):
        total += 2.0 * math.cos(m * theta) * math.exp(
            inner.log_i(m) + outer.log_k(m)
        )
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
    tables = np.array(i0), np.array(k0reg)
    for table in tables:
        table.flags.writeable = False  # shared by every kernel call
    return tables


_I0_COEFFS, _K0REG_COEFFS = _series_tables()
# coeffs[m] / _I0_COEFFS[m] as floats, what _horner sizes its series from:
# 1 for I_0, psi(m+1) for k0reg
_I0_RATIOS, _K0REG_RATIOS = (tuple((table / _I0_COEFFS).tolist())
                             for table in (_I0_COEFFS, _K0REG_COEFFS))


def _horner(z, coeffs, ratios):
    """sum_m coeffs[m] q^m at q = z^2/4, truncated once for the whole array.

    The length follows the scalar tail criterion evaluated at max(q): keep
    terms up to the first whose size, times max(|ratios[m]|, 1), falls below
    _SERIES_TOL times the partial sum floored at 1.  A smaller q scales the
    dropped terms by (q/qmax)^m, so one length serves the whole array.
    """
    q = np.asarray(z, dtype=float)
    q = 0.25 * q * q
    qmax = float(q.max()) if q.size else 0.0
    base, total, count = 1.0, ratios[0], 0  # base = qmax^m / (m!)^2
    for m in range(1, len(ratios)):
        base *= qmax / (m * m)
        ratio = ratios[m]
        total += base * ratio
        if base * max(abs(ratio), 1.0) <= _SERIES_TOL * max(abs(total), 1.0):
            count = m + 1
            break
    if not count:
        raise ValueError(
            f"argument {2.0 * math.sqrt(qmax):.6g} is beyond the"
            f" {coeffs.size}-term series range of the array kernels"
        )
    # from coeffs[count - 1] q (count >= 2); out= keeps a 0-d z an array
    out = np.multiply(q, coeffs[count - 1], out=np.empty_like(q))
    for c in coeffs[count - 2:0:-1]:
        out += c
        out *= q
    out += coeffs[0]
    return out


def _i0_array(z: np.ndarray) -> np.ndarray:
    """I_0 on an array of nonnegative values (z <= ~95), ascending series."""
    return _horner(z, _I0_COEFFS, _I0_RATIOS)


def _k0reg_array(z: np.ndarray) -> np.ndarray:
    """K_0(z) + log(z/2) I_0(z) = sum_m psi(m+1) (z^2/4)^m / (m!)^2, the
    smooth (log-free) part of K_0, on an array of nonnegative values (the
    contour quadrature feeds it z <= 2 lambda, and _k0_array z <= 4)."""
    return _horner(z, _K0REG_COEFFS, _K0REG_RATIOS)


def _k0_array(z: np.ndarray) -> np.ndarray:
    """K_0 on an array of positive finite values, split at _K0_SPLIT.

    Up to the split the series -log(z/2) I_0(z) + k0reg(z) as Horner passes
    (an array with every value there takes it whole); above it _k0_nodes,
    sized to the array's range as _horner sizes its series, summed one node
    at a time.  Relative error <= 1e-15 against mpmath on 4 < z <= 200 (14
    nodes on (4, 6.5], 75 on (4, 200]).
    """
    z = np.asarray(z, dtype=float)
    small = z <= _K0_SPLIT
    if small.all():
        return _k0_series(z)
    out = np.empty_like(z)
    if small.any():
        out[small] = _k0_series(z[small])
    large = ~small
    zl = z[large]
    nodes, h = _k0_nodes(float(zl.min()), float(zl.max()))
    acc = np.full_like(zl, 0.5)  # node t = 0 at half weight
    term = np.empty_like(zl)
    for c in nodes:
        np.multiply(zl, -c, out=term)
        np.exp(term, out=term)
        acc += term
    acc -= 0.5 * term  # the last node carries half weight too
    out[large] = acc * h * np.exp(-zl)
    return out


def _k0_series(z):
    """-log(z/2) I_0(z) + k0reg(z), K_0 for z <= 4."""
    out = _i0_array(z)
    out *= np.log(0.5 * z)
    return np.subtract(_k0reg_array(z), out, out=out)
