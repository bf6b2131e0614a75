"""Linearized spectrum of rotating annular patches.

Perturbing the annulus b < |z| < 1 decouples the linearized boundary
condition into Fourier modes; mode n carries a 2x2 matrix M_n(lam, b, Omega)
whose determinant is the quadratic b*Omega^2 - B_n*Omega + C_n.  This module
builds those matrices, solves for the eigenvalue pairs Omega_n^-/Omega_n^+,
certifies the mode threshold N past which both roots are real and interlace
monotonically (I_n(x)K_n(x) and Lambda_n fall strictly in n, so one order
k* whose discriminant clears a floating-point margin decides every order
past it), and provides the limiting spectra (n -> inf, lam -> 0, b -> 0)
used to calibrate everything against the planar Euler and
simply-connected cases.

Conventions: lam > 0 is the inverse length scale of the screened kernel
K_0(lam*|.|), b in (0,1) the inner radius.  Lambda_n = I_n(lam b) K_n(lam)
couples the two interfaces, Omega_n(x) = I_1(x)K_1(x) - I_n(x)K_n(x) is the
single-interface multiplier.

Every mode quantity of one (lam, b) cell is read from a ModeCell, which
carries one Bessel ladder at lam and one at lam b across all orders (the
cells of one lam may share its ladder) and has a method per quantity:
block, spectrum, root, limits, simply_connected and threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import BesselLadder, _as_order

# the largest lambda a mode quantity accepts: the Bessel ladder's mpmath
# tests reach x = 700, and K_1(lambda) leaves the normal doubles near 706
_BESSEL_RANGE = 700.0
# the most orders the threshold scan reads, and the largest mode order,
# range or table a command accepts: a ladder keeps about 430 B per order
_SCAN_CAP = 100_000
# the threshold's floating-point margin: the certificate order k* needs a
# computed Delta_k above _MARGIN D_k^2, not just above 0
_MARGIN = 1e-8


class SearchExhausted(RuntimeError):
    """No threshold certified: the scan hit its cap, or no order can."""


def _normalize_sign(sign):
    if sign in (1, +1, "+", "plus"):
        return +1
    if sign in (-1, "-", "minus"):
        return -1
    raise ValueError(f"sign must be one of +, -, plus, minus; got {sign!r}")


def _check_lambda(lam):
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite; got {lam}")
    if lam > _BESSEL_RANGE:
        raise ValueError(
            f"lambda must be at most {_BESSEL_RANGE:g}, the range the"
            f" Bessel ladder is tested on; got {lam}")


def _check_b_open(b):
    if not 0.0 < b < 1.0:
        raise ValueError(f"b must lie strictly inside (0, 1); got {b}")


def _check_order(n):
    if n < 1:
        raise ValueError(f"order must be >= 1; got {n}")
    return _as_order(n)


def _check_scan_size(count, what):
    if count > _SCAN_CAP:
        raise ValueError(f"{what} must be at most {_SCAN_CAP}; got {count}")


def _rankine(ladder, n):
    """Omega_n(x) = I_1(x)K_1(x) - I_n(x)K_n(x) on the ladder at x: zero at
    n = 1, positive from n = 2 on, increasing to I_1 K_1 as n -> inf."""
    return ladder.product(1) - ladder.product(n)


@dataclass(frozen=True)
class EigenPair:
    """Real roots omega_minus <= omega_plus of det M_n(Omega) = 0; the
    kernel vector and crossing test at each root are ModeCell.root's."""

    omega_minus: float
    omega_plus: float


def _mode_spectrum(b, lam1, lamn, outer, inner):
    """(Delta_n, EigenPair or None) from the quantities of mode n."""
    delta = b * (outer + inner) - (1.0 + b * b) * lam1
    b_coeff = (1.0 - b * b) * lam1 + b * (outer - inner)
    delta_n = delta * delta - 4.0 * b * b * lamn * lamn
    if delta_n < 0.0:
        return delta_n, None
    root = math.sqrt(delta_n)
    return delta_n, EigenPair((b_coeff - root) / (2.0 * b),
                              (b_coeff + root) / (2.0 * b))


@dataclass(frozen=True)
class Threshold:
    """Certified mode thresholds (see ModeCell.threshold): Delta_k > 0 for
    every order k >= n0, and omega_plus strictly rising and omega_minus
    strictly falling at every step from order n on."""

    n0: int
    n: int


class ModeCell:
    """The mode quantities of one (lam, b) cell, across all orders.

    Holds one BesselLadder at lam and one at lam b, the n-independent
    Lambda_1, and a memo from each order to its mode quantities and
    (Delta_n, EigenPair or None), read by threshold scans, table rows and
    roots alike.  The one place Lambda_n, Omega_n and M_n are evaluated.
    outer, if given, is a ladder at lam (any other argument is a
    ValueError) shared with other cells, bit-identical to a fresh one.
    A cell is refused before any order is read when lam b (the smaller
    argument, as b < 1) lies below the range of bessel._k0_nodes, whose
    trapezoid rule needs 40/(lam b) finite: about 2.2e-307, 0 included.
    """

    def __init__(self, lam, b, *, outer=None):
        _check_lambda(lam)
        _check_b_open(b)
        if outer is not None and outer.x != lam:
            raise ValueError(
                f"outer ladder is at x={outer.x!r}, not at lambda={lam!r}")
        if not (lam * b > 0.0 and 40.0 / (lam * b) < math.inf):
            raise ValueError(
                f"K_0({lam * b!r}): the trapezoid rule cannot be sized at"
                f" lambda b below about 2.2e-307, so the cell lambda={lam},"
                f" b={b} lies outside the Bessel ladder's range")
        self.lam = lam
        self.b = b
        self.outer = BesselLadder(lam) if outer is None else outer
        self.inner = BesselLadder(lam * b)
        self.lam1 = self.coupling(1)
        self._spectra = {}

    def coupling(self, n):
        """Lambda_n = I_n(lam b) K_n(lam) in log form: finite up to n = 2000
        and beyond, its b^n/(2n) decay underflows to 0.0 (exp never raises)."""
        return math.exp(self.inner.log_i(n) + self.outer.log_k(n))

    def mode(self, n):
        """(Lambda_1, Lambda_n, Omega_n(lam), Omega_n(lam b)) at order n."""
        n = _check_order(n)
        return (
            self.lam1,
            self.coupling(n),
            _rankine(self.outer, n),
            _rankine(self.inner, n),
        )

    def block(self, n, omega):
        """n M_n(lam, b, Omega) as a 2 x 2 array: the linearization of the
        contour functional G at the annulus on mode n.

        Entry (row, col) is the derivative of <G_row, sin(n theta)> with
        respect to the coefficient of conj(w)^{n-1} in interface col (rows
        and columns ordered outer, inner), at fixed Omega.  M_n =
        [[Omega_n(lam) - Omega - b Lambda_1, b Lambda_n], [-Lambda_n,
        Lambda_1 - b (Omega_n(lam b) + Omega)]], so m12 > 0 > m21 always
        and m12/m21 = -b.
        """
        n = _check_order(n)
        lam1, lamn, outer, inner = self.mode(n)
        b = self.b
        return n * np.array(
            [[outer - omega - b * lam1, b * lamn],
             [-lamn, lam1 - b * (inner + omega)]])

    def spectrum(self, n):
        """(Delta_n, EigenPair or None), evaluated once per order.

        Delta_n = (b[Omega_n(lam) + Omega_n(lam b)] - (1+b^2) Lambda_1)^2
        - 4 b^2 Lambda_n^2 = B_n^2 - 4 b C_n; negative means complex roots,
        and the pair is None.  Absence is a value, not an error: parameter
        sweeps cross regions of complex roots routinely.
        """
        if n not in self._spectra:
            n = _check_order(n)
            mode = self.mode(n)
            self._spectra[n] = mode, _mode_spectrum(self.b, *mode)
        return self._spectra[n][1]

    def root(self, m, sign):
        """(Omega_m^{sign}, kernel vector, transversal flag) of mode m;
        ValueError unless Delta_m > 0 strictly.

        The kernel vector (v1, v2) = (b[Omega_m(lam b) + Omega] - Lambda_1,
        -Lambda_m), i.e. (-m22, m21), evaluated here alone, generates the one-dimensional kernel
        of M_m at Omega = Omega_m^{sign}: the annihilator of the second
        matrix column, computed from the adjugate so kernel membership is
        exact in both rows.  The crossing is transversal when the
        obstruction (Lambda_1 - b[Omega_m(lam b) + Omega])^2 - b^2 Lambda_m^2
        = v1^2 - b^2 v2^2 exceeds 1e-10 times its natural scale
        v1^2 + b^2 v2^2; it vanishes exactly when Delta_m = 0 (double root),
        so a strictly positive discriminant always passes.
        """
        plus = _normalize_sign(sign) > 0
        m = _check_order(m)
        delta, pair = self.spectrum(m)
        if not delta > 0.0:
            raise ValueError(
                f"mode m={m} has no simple real pair at lambda="
                f"{self.lam:.17g}, b={self.b:.17g}: discriminant"
                f" {delta:.17g} <= 0"
            )
        omega = pair.omega_plus if plus else pair.omega_minus
        lam1, lamm, _, inner = self._spectra[m][0]
        b = self.b
        v1, v2 = b * (inner + omega) - lam1, -lamm
        obstruction = v1 * v1 - b * b * v2 * v2
        scale = v1 * v1 + b * b * v2 * v2
        return (omega, (v1, v2),
                abs(obstruction) > 1e-10 * max(scale, 1e-300))

    def limits(self):
        """Limits (Omega_inf_minus, Omega_inf_plus) of the two eigenvalue
        families as n -> inf.

        Omega_n^+ increases to Omega_inf_plus = I_1(lam)K_1(lam) - b Lambda_1
        and Omega_n^- decreases to Omega_inf_minus = Lambda_1/b
        - I_1(lam b)K_1(lam b) once n passes the threshold.
        """
        return (
            self.lam1 / self.b - self.inner.product(1),
            self.outer.product(1) - self.b * self.lam1,
        )

    def simply_connected(self, n):
        """b -> 0 limits (omega_minus, omega_plus) at order n: (lam n
        K_1(lam) - n + 1)/(2n), which collapses onto the degenerate part of
        the spectrum (no bifurcation claimed, continuity checks only), and
        the single-interface multiplier Omega_n(lam).  Both read the ladder
        at lam alone, so they do not depend on the cell's b."""
        n = _check_order(n)
        return (
            (self.lam * n * self.outer.k(1) - n + 1.0) / (2.0 * n),
            _rankine(self.outer, n),
        )

    def threshold(self):
        """The mode thresholds, read order by order up to the certificate
        order k*, past which two Bessel facts decide every order at once.

        Write P_k(x) = I_k(x)K_k(x) and D_k = delta_inf - b(P_k(lam)
        + P_k(lam b)), so Delta_k = D_k^2 - 4 b^2 Lambda_k^2.  (F1) P_k(x)
        falls strictly in k (Baricz 2009), so D_k rises; (F4) Lambda_k
        falls strictly in k (Segura's 2011 ratio bounds at nu + 1/2), so
        Delta_j >= Delta_k > 0 for every j >= k once D_k > 0 and
        Delta_k > 0.  Wherever D > 0, omega_plus does not rise with any of
        P_k(lam), P_k(lam b) and Lambda_k and falls strictly with P_k(lam),
        and omega_minus does not fall with any of them and rises strictly
        with P_k(lam b); so every step past such a k is strictly rising in
        omega_plus and falling in omega_minus.

        k* is the first order with D_k > 0 and computed Delta_k >
        _MARGIN D_k^2 > 0: a margin that underflows to 0 certifies nothing,
        since a subnormal Delta_k carries rounding errors far above it.  n0
        is one past the last order below k* with Delta <= 0, n one past the
        last step below k* that is not strictly monotone, and at least n0.
        Exact in real arithmetic given F1 and F4, evaluated in floating
        point with the margin _MARGIN; SearchExhausted when no order up to
        _SCAN_CAP is k*.

        No order is read when none can be k*: as computed, D_k is
        delta_inf less a nonnegative number, so (rounding being monotone)
        _MARGIN D_k^2 <= _MARGIN delta_inf^2 wherever D_k > 0, and the
        scan refuses at once, saying so, when delta_inf <= 0 or _MARGIN
        delta_inf^2 underflows to 0 (b below about 1e-158).
        """
        b = self.b
        delta_inf = b * (self.outer.product(1) + self.inner.product(1)) - (
            1.0 + b * b
        ) * self.lam1
        if not (delta_inf > 0.0 and _MARGIN * delta_inf * delta_inf > 0.0):
            raise SearchExhausted(
                f"no order can certify a positivity threshold for"
                f" lam={self.lam}, b={b}: delta_inf = {delta_inf!r} leaves"
                f" no margin {_MARGIN:g} delta_inf^2 > 0")
        n0 = n = 1
        prev = None
        for k in range(1, _SCAN_CAP + 1):
            delta, pair = self.spectrum(k)
            if not delta > 0.0:
                n0 = k + 1
            if not (prev is not None and pair is not None
                    and prev.omega_plus < pair.omega_plus
                    and prev.omega_minus > pair.omega_minus):
                n = k  # the step k - 1 -> k is not strictly monotone
            d = delta_inf - b * (self.outer.product(k) + self.inner.product(k))
            if d > 0.0 and delta > _MARGIN * d * d > 0.0:
                return Threshold(n0=n0, n=max(n0, n))
            prev = pair
        raise SearchExhausted(
            f"no positivity threshold below {_SCAN_CAP} for lam={self.lam},"
            f" b={b}"
        )


@dataclass(frozen=True)
class EulerPair:
    """Euler-limit (lam -> 0) angular velocities at mode n."""

    minus: float
    plus: float


def euler_eigenvalues(n, b):
    """Euler-limit angular velocities (1-b^2)/4 -+ sqrt((n(1-b^2)/2 - 1)^2
    - b^{2n}) / (2n), or None when the radicand is not positive."""
    n = _check_order(n)
    _check_b_open(b)
    half_gap = n * (1.0 - b * b) / 2.0 - 1.0
    radicand = half_gap * half_gap - b ** (2 * n)
    if radicand <= 0.0:
        return None
    root = math.sqrt(radicand) / (2.0 * n)
    center = (1.0 - b * b) / 4.0
    return EulerPair(minus=center - root, plus=center + root)
