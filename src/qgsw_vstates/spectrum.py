"""Linearized spectrum of rotating annular patches.

Perturbing the annulus b < |z| < 1 decouples the linearized boundary
condition into Fourier modes; mode n carries a 2x2 matrix M_n(lam, b, Omega)
whose determinant is the quadratic b*Omega^2 - B_n*Omega + C_n.  This module
builds those matrices, solves for the eigenvalue pairs Omega_n^-/Omega_n^+,
certifies the mode threshold N past which both roots are real and interlace
monotonically, and provides the limiting spectra (n -> inf, lam -> 0,
b -> 0) used to calibrate everything against the planar Euler and
simply-connected cases.

Conventions: lam > 0 is the inverse length scale of the screened kernel
K_0(lam*|.|), b in (0,1) the inner radius.  Lambda_n = I_n(lam b) K_n(lam)
couples the two interfaces, Omega_n(x) = I_1(x)K_1(x) - I_n(x)K_n(x) is the
single-interface multiplier.

Every mode quantity of one (lam, b) cell comes from a ModeCell, which
carries one Bessel ladder at lam and one at lam b across all orders (the
cells of one lam may share its ladder); the per-order functions are views
that build a cell for their one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import BesselLadder, _as_order

# the largest lambda a mode quantity accepts: the Bessel ladder's mpmath
# tests reach x = 700, and K_1(lambda) leaves the normal doubles near 706
_BESSEL_RANGE = 700.0
# the threshold scan's default cap, and the most orders a command reads: a
# ladder keeps about 430 B per order, and the scan reads up to cap + window
_SCAN_CAP = 100_000


class SearchExhausted(RuntimeError):
    """Mode scan hit its cap without certifying a threshold."""


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


def _check_window(window):
    if window < 10:
        raise ValueError(f"window must be >= 10; got {window}")
    _check_scan_size(window, "window")


def _rankine(ladder, n):
    """Omega_n(x) = I_1(x)K_1(x) - I_n(x)K_n(x) on the ladder at x: zero at
    n = 1, positive from n = 2 on, increasing to I_1 K_1 as n -> inf."""
    return ladder.product(1) - ladder.product(n)


@dataclass(frozen=True)
class SpectralMatrix:
    """Fourier-multiplier matrix of the linearized problem at mode n."""

    m11: float
    m12: float
    m21: float
    m22: float
    n: int

    def determinant(self):
        return self.m11 * self.m22 - self.m12 * self.m21

    def block(self):
        """n M_n as a 2 x 2 array: the linearization of the contour
        functional G at the annulus on mode n.  Entry (row, col) is the
        derivative of <G_row, sin(n theta)> with respect to the coefficient
        of conj(w)^{n-1} in interface col (outer, inner), at fixed Omega."""
        return self.n * np.array([[self.m11, self.m12], [self.m21, self.m22]])


def spectral_matrix(n, lam, b, omega):
    """M_n(lam, b, Omega) acting on the mode-n coefficient pair, see
    ModeCell.matrix."""
    return ModeCell(lam, b).matrix(n, omega)


@dataclass(frozen=True)
class EigenPair:
    """Real roots of det M_n(Omega) = 0 with their quadratic data.

    Satisfies the Vieta identities omega_minus + omega_plus = b_coeff/b and
    omega_minus * omega_plus = c_coeff/b.  `degenerate` marks a coincident
    pair (discriminant exactly zero); continuation refuses those.
    kernel_minus/kernel_plus generate the kernel of M_n at each root and
    transversal_minus/transversal_plus are the matching crossing tests (see
    kernel_vector and transversality_check).
    """

    n: int
    omega_minus: float
    omega_plus: float
    discriminant: float
    b_coeff: float
    c_coeff: float
    degenerate: bool
    kernel_minus: tuple
    kernel_plus: tuple
    transversal_minus: bool
    transversal_plus: bool


def _transversal(v, b):
    # obstruction v1^2 - b^2 v2^2 of kernel vector v against 1e-10 times its
    # natural scale (see transversality_check)
    v1, v2 = v
    obstruction = v1 * v1 - b * b * v2 * v2
    scale = v1 * v1 + b * b * v2 * v2
    return abs(obstruction) > 1e-10 * max(scale, 1e-300)


def _mode_spectrum(n, b, lam1, lamn, outer, inner):
    """(Delta_n, EigenPair or None) from the quantities of mode n."""
    delta = b * (outer + inner) - (1.0 + b * b) * lam1
    b_coeff = (1.0 - b * b) * lam1 + b * (outer - inner)
    c_coeff = (outer - b * lam1) * (lam1 - b * inner) + b * lamn * lamn
    delta_n = delta * delta - 4.0 * b * b * lamn * lamn
    if delta_n < 0.0:
        return delta_n, None
    root = math.sqrt(delta_n)
    omega_minus = (b_coeff - root) / (2.0 * b)
    omega_plus = (b_coeff + root) / (2.0 * b)
    kernel_minus = (b * (inner + omega_minus) - lam1, -lamn)
    kernel_plus = (b * (inner + omega_plus) - lam1, -lamn)
    return delta_n, EigenPair(
        n=n,
        omega_minus=omega_minus,
        omega_plus=omega_plus,
        discriminant=delta_n,
        b_coeff=b_coeff,
        c_coeff=c_coeff,
        degenerate=(delta_n == 0.0),
        kernel_minus=kernel_minus,
        kernel_plus=kernel_plus,
        transversal_minus=_transversal(kernel_minus, b),
        transversal_plus=_transversal(kernel_plus, b),
    )


@dataclass(frozen=True)
class Threshold:
    """Certified mode thresholds: Delta_n > 0 from n0 on (windowed check),
    monotone interlacing of both eigenvalue families from n on."""

    n0: int
    n: int


class ModeCell:
    """The mode quantities of one (lam, b) cell, across all orders.

    Holds one BesselLadder at lam and one at lam b, the n-independent
    Lambda_1, and a memo from each order to its (Delta_n, EigenPair or
    None), so a threshold scan and the table rows that follow it evaluate
    each order once.  The one place Lambda_n, Omega_n and M_n are
    evaluated.  outer, if given, is a ladder at lam (any other argument is
    a ValueError) shared with other cells, bit-identical to a fresh one.
    """

    def __init__(self, lam, b, *, outer=None):
        _check_lambda(lam)
        _check_b_open(b)
        if outer is not None and outer.x != lam:
            raise ValueError(
                f"outer ladder is at x={outer.x!r}, not at lambda={lam!r}")
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

    def matrix(self, n, omega):
        """M_n(lam, b, Omega) acting on the mode-n coefficient pair.

        Rows are (outer, inner) interface conditions, columns the
        perturbation coefficients (a_{n-1}, b_{n-1}); m12 > 0 > m21 always,
        m12/m21 = -b.
        """
        lam1, lamn, outer, inner = self.mode(n)
        b = self.b
        return SpectralMatrix(
            m11=outer - omega - b * lam1,
            m12=b * lamn,
            m21=-lamn,
            m22=lam1 - b * (inner + omega),
            n=int(n),
        )

    def spectrum(self, n):
        """(Delta_n, EigenPair or None), evaluated once per order.

        Delta_n = (b[Omega_n(lam) + Omega_n(lam b)] - (1+b^2) Lambda_1)^2
        - 4 b^2 Lambda_n^2 = B_n^2 - 4 b C_n; negative means complex roots.
        """
        if n not in self._spectra:
            n = _check_order(n)
            self._spectra[n] = _mode_spectrum(n, self.b, *self.mode(n))
        return self._spectra[n]

    def root(self, m, sign):
        """(Omega_m^{sign}, kernel vector, transversal flag) of mode m, see
        kernel_vector; ValueError unless Delta_m > 0 strictly."""
        plus = _normalize_sign(sign) > 0
        m = _check_order(m)
        delta, pair = self.spectrum(m)
        if not delta > 0.0:
            raise ValueError(
                f"mode m={m} has no simple real pair at lambda="
                f"{self.lam:.17g}, b={self.b:.17g}: discriminant"
                f" {delta:.17g} <= 0"
            )
        if plus:
            return pair.omega_plus, pair.kernel_plus, pair.transversal_plus
        return pair.omega_minus, pair.kernel_minus, pair.transversal_minus

    def limits(self):
        """(Omega_inf_minus, Omega_inf_plus), see omega_limits."""
        return (
            self.lam1 / self.b - self.inner.product(1),
            self.outer.product(1) - self.b * self.lam1,
        )

    def simply_connected(self, n):
        """b -> 0 limits (omega_minus, omega_plus) at order n: (lam n
        K_1(lam) - n + 1)/(2n), which collapses onto the degenerate part of
        the spectrum (no bifurcation claimed, continuity checks only), and
        Omega_n(lam), see simply_connected_limit."""
        n = _check_order(n)
        return (
            (self.lam * n * self.outer.k(1) - n + 1.0) / (2.0 * n),
            _rankine(self.outer, n),
        )

    def threshold(self, window=50, cap=_SCAN_CAP):
        """The certified thresholds of this cell, see find_threshold."""
        _check_window(window)
        b = self.b
        delta_inf = b * (self.outer.product(1) + self.inner.product(1)) - (
            1.0 + b * b
        ) * self.lam1

        n0 = None
        for candidate in range(1, cap + 1):
            orders = range(candidate, candidate + window + 1)
            if all(self.spectrum(k)[0] > 0.0 for k in orders):
                tail = 2.0 * b * self.coupling(candidate + window)
                if tail * tail < 0.5 * delta_inf * delta_inf:
                    n0 = candidate
                    break
        if n0 is None:
            raise SearchExhausted(
                f"no positivity threshold below {cap} for lam={self.lam}, b={b}"
            )

        for candidate in range(n0, cap + 1):
            orders = range(candidate, candidate + window + 1)
            pairs = [self.spectrum(k)[1] for k in orders]
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
            f"no monotonicity threshold below {cap} for lam={self.lam}, b={b}"
        )


def eigenvalues(n, lam, b):
    """Both angular velocities at mode n, or None when Delta_n < 0.

    Absence is a value, not an error: parameter sweeps cross regions of
    complex eigenvalues routinely.
    """
    return ModeCell(lam, b).spectrum(n)[1]


def omega_limits(lam, b):
    """Limits (Omega_inf_minus, Omega_inf_plus) of the two eigenvalue
    families as n -> inf.

    Omega_n^+ increases to Omega_inf_plus = I_1(lam)K_1(lam) - b Lambda_1
    and Omega_n^- decreases to Omega_inf_minus = Lambda_1/b
    - I_1(lam b)K_1(lam b) once n passes the threshold.
    """
    return ModeCell(lam, b).limits()


def find_threshold(lam, b, window=50, cap=_SCAN_CAP):
    """Scan mode orders for the threshold past which the spectrum is real
    and monotone.

    n0: smallest order where Delta_k > 0 across [n0, n0+window] and the
    asymptotic tail test 4 b^2 Lambda^2 < delta_inf^2 / 2 holds at
    n0+window (so positivity cannot be a fluke of the window).  n: smallest
    order >= n0 where omega_plus strictly increases and omega_minus
    strictly decreases across the window.  Empirical certificate, not a
    proof.
    """
    return ModeCell(lam, b).threshold(window, cap)


@dataclass(frozen=True)
class EulerPair:
    """Euler-limit (lam -> 0) angular velocities at mode n."""

    minus: float
    plus: float


def euler_eigenvalues(n, b):
    """Euler-limit eigenvalues (1-b^2)/4 -+ sqrt((n(1-b^2)/2 - 1)^2
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


def simply_connected_limit(n, lam):
    """b -> 0 limit of omega_plus at mode n: the single-interface
    multiplier Omega_n(lam)."""
    n = _check_order(n)
    _check_lambda(lam)
    return _rankine(BesselLadder(lam), n)


def kernel_vector(m, lam, b, sign):
    """Generator (v1, v2) of the one-dimensional kernel of M_m at
    Omega_m^{sign}.

    v = (b[Omega_m(lam b) + Omega] - Lambda_1, -Lambda_m), i.e.
    (-m22, m21): the annihilator of the second matrix column, computed from
    the adjugate so kernel membership is exact in both rows.  Requires
    Delta_m > 0 strictly.
    """
    return ModeCell(lam, b).root(m, sign)[1]


def transversality_check(m, lam, b, sign):
    """True when the eigenvalue crossing at Omega_m^{sign} is transversal.

    The obstruction quantity is (Lambda_1 - b[Omega_m(lam b) + Omega])^2
    - b^2 Lambda_m^2 = v1^2 - b^2 v2^2 of the kernel vector; it vanishes
    exactly when Delta_m = 0 (double root), so a strictly positive
    discriminant always passes.  Compared against 1e-10 times its own
    natural scale.
    """
    return ModeCell(lam, b).root(m, sign)[2]
