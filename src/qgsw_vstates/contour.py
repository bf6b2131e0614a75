"""Boundary functional of perturbed annular patches on a circle grid.

Interfaces are conformal images of the unit circle, Phi(w) = scale*w
+ sum a_n conj(w)^n with real coefficients.  The screened Biot-Savart
contribution of interface i evaluated on interface j is the mean-value
integral

    S(lam, Phi_i, Phi_j)(w) = (1/2pi) int Phi_i'(tau) tau
                              K_0(lam |Phi_j(w) - Phi_i(tau)|) dtheta',

discretized by the P-node trapezoid rule.  Distinct interfaces give a
smooth periodic integrand (spectral accuracy for free).  Self-interaction
splits the kernel as

    K_0(lam r) = -log r * I_0(lam r) + [k0_regularized(lam r)
                 - log(lam/2) * I_0(lam r)],

then -log r = -log|w - tau| - log(r/|w - tau|); the bracket and the ratio
term are smooth on the circle (the ratio tends to |Phi'(w)| on the
diagonal), and log|w - tau| is integrated exactly against the trapezoid
samples of its smooth cofactor through the closed-form Fourier moments
(1/2pi) int log|1 - e^{i t}| cos(n t) dt = -1/(2n).  That product rule is
a circulant set of weights: row k of it applied to samples g(tau_l) is
sum_l c[(k - l) mod P] g(tau_l) with c the inverse FFT of the moments.
The weights and log|w_k - w_l| are both circulant in k - l, so the grid
folds them into one real matrix, and every interaction, singular or not,
is one real P x P kernel matrix (array Bessel kernels, fixed-length Horner
series) applied to the complex weights Phi'(tau) tau as real mat-vecs.

The rotating-frame boundary condition is, at each node of interface j,

    G_j(w) = Im{ (Omega Phi_j(w) + S(lam,Phi_2,Phi_j)(w)
                  - S(lam,Phi_1,Phi_j)(w)) conj(w) conj(Phi_j'(w)) },

whose zeros over both interfaces are the rotating patches.  Orientation
(inner boundary enters with the minus sign through the difference above)
is pinned by the exact vanishing of G on the unperturbed annulus for every
Omega, which is one of the tests, not an argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bessel import _i0_array, _k0_array, _k0reg_array

# test hook: flips the sign of the inner-interface contribution to G so the
# verification pipeline has a reproducible failure mode to detect
_FAULT_FLIP_INNER = False

_COLLISION_TOL = 1e-8


@dataclass(frozen=True)
class FourierBoundary:
    """Interface map w -> scale*w + sum a_n conj(w)^n, real a_n.

    The coefficient bound sum |a_n| (n+1) < scale/2 keeps the map injective
    with nonvanishing derivative and the two interfaces of a patch disjoint;
    constructors reject anything outside that ball.
    """

    scale: float
    coefficients: tuple = ()

    def __post_init__(self):
        coeffs = tuple(float(a) for a in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "scale", float(self.scale))
        if not self.scale > 0.0 or not math.isfinite(self.scale):
            raise ValueError(f"scale must be positive; got {self.scale}")
        if not all(math.isfinite(a) for a in coeffs):
            raise ValueError("coefficients must be finite reals")
        weight = sum(abs(a) * (n + 1) for n, a in enumerate(coeffs))
        if not weight < self.scale / 2.0:
            raise ValueError(
                f"coefficient ball guard violated: sum |a_n|(n+1) = {weight}"
                f" must stay below scale/2 = {self.scale / 2.0}"
            )

    @staticmethod
    def single_mode(scale, n, amplitude):
        """Boundary with one perturbation coefficient a_n = amplitude."""
        coeffs = [0.0] * (n + 1)
        coeffs[n] = amplitude
        return FourierBoundary(scale, tuple(coeffs))


def annulus_boundary(scale):
    return FourierBoundary(scale, ())


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Uniform circle grid w_k = exp(2 pi i k/P) with log-kernel moments.

    log_moments[n] = (1/2pi) int log|1 - e^{i t}| cos(n t) dt = -1/(2n) for
    1 <= n <= P/2 and 0 at n = 0; the Nyquist entry n = P/2 is just the
    formula at that order (real samples alias +-P/2 onto a pure cosine, so
    one real moment is all the product quadrature needs).
    _moment_spectrum holds the same moments over FFT frequencies 0..P-1.

    log_weights is derived from nodes and _moment_spectrum on first use and
    then kept, read-only, with the grid.
    """

    node_count: int
    theta: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)
    log_moments: np.ndarray = field(repr=False)
    _moment_spectrum: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.theta, self.nodes, self.log_moments,
                    self._moment_spectrum):
            arr.setflags(write=False)

    @cached_property
    def log_weights(self):
        """Real P x P matrix P c[(k - l) mod P] - log|w_k - w_l|.

        c = ifft(_moment_spectrum) are the circulant product-quadrature
        weights of log|w_k - tau|: (1/2pi) int log|w_k - tau| g(tau) dtheta'
        = sum_l c[(k - l) mod P] g(tau_l) on the trapezoid bandwidth.  The
        diagonal takes log|w_k - w_k| as 0, the chord factor of the
        self-interaction ratio on its diagonal.
        """
        count = self.node_count
        circulant = count * np.fft.ifft(self._moment_spectrum).real
        index = np.arange(count)
        offsets = (index[:, None] - index[None, :]) % count
        chord = np.abs(self.nodes[:, None] - self.nodes[None, :])
        np.fill_diagonal(chord, 1.0)
        weights = circulant[offsets] - np.log(chord)
        weights.setflags(write=False)
        return weights


def make_grid(node_count):
    node_count = int(node_count)
    if node_count < 8 or node_count % 2 != 0:
        raise ValueError(
            f"node count must be even and >= 8; got {node_count}"
        )
    theta = 2.0 * np.pi * np.arange(node_count) / node_count
    nodes = np.exp(1j * theta)
    half = node_count // 2
    log_moments = np.zeros(half + 1)
    log_moments[1:] = -0.5 / np.arange(1, half + 1)
    # same moments laid out over FFT frequency indices 0..P-1
    freq = np.minimum(np.arange(node_count), node_count - np.arange(node_count))
    spectrum = np.where(freq == 0, 0.0, -0.5 / np.maximum(freq, 1))
    return QuadratureGrid(
        node_count=node_count,
        theta=theta,
        nodes=nodes,
        log_moments=log_moments,
        _moment_spectrum=spectrum,
    )


def conformal_eval(boundary, grid):
    """Values and derivatives (Phi(w_k), Phi'(w_k)) at the grid nodes.

    Phi'(w) = scale - sum n a_n conj(w)^{n+1} on |w| = 1, because
    conj(w)^n = w^{-n} there.  Direct summation; exact for any truncation,
    though callers should keep the top mode below P/2 to avoid aliasing in
    the quadratures downstream.
    """
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


def s_integral(lam, source, target, grid):
    """Screened single-layer integral S(lam, Phi_source, Phi_target) at the
    target-interface nodes.

    Equal boundaries engage the singular split; distinct boundaries use the
    plain trapezoid rule and require the interfaces to stay farther apart
    than the collision tolerance.
    """
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive; got {lam}")
    src_vals, src_derivs = conformal_eval(source, grid)
    weights = src_derivs * grid.nodes  # Phi'(tau) tau at source nodes

    if source == target:
        dist = np.abs(src_vals[:, None] - src_vals[None, :])
        scaled = lam * dist
        i0 = _i0_array(scaled)
        # smooth bracket of the kernel split
        kernel = _k0reg_array(scaled)
        kernel -= math.log(lam / 2.0) * i0
        # -log r * I_0 with log r = log(r/|w - tau|) + log|w - tau|: the
        # ratio's diagonal limit is |Phi'(w)|, and grid.log_weights swaps
        # the plain log|w - tau| samples for the exact log product rule
        np.fill_diagonal(dist, np.abs(src_derivs))
        log_part = np.log(dist, out=dist)
        log_part += grid.log_weights
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
    # real kernel times complex weights as one real P x 2 product of
    # (real, imag) rows, with no complex copy of the kernel
    pairs = weights.view(float).reshape(-1, 2)
    return (kernel @ pairs).view(complex)[:, 0] / grid.node_count


def g_functional(lam, b, omega, f1, f2, grid):
    """Rotating-frame boundary residual (G_1, G_2) at the grid nodes.

    f1 must carry scale 1 (outer interface), f2 scale b (inner).  Both
    outputs are real node sequences with zero mean and no cosine content
    for real-coefficient inputs.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"b must lie strictly inside (0, 1); got {b}")
    if f1.scale != 1.0:
        raise ValueError(f"outer boundary must have scale 1; got {f1.scale}")
    if f2.scale != b:
        raise ValueError(
            f"inner boundary scale {f2.scale} does not match b = {b}"
        )
    inner_sign = -1.0 if _FAULT_FLIP_INNER else 1.0
    conj_nodes = np.conj(grid.nodes)
    outputs = []
    for target in (f1, f2):
        vals, derivs = conformal_eval(target, grid)
        total = (
            omega * vals
            + inner_sign * s_integral(lam, f2, target, grid)
            - s_integral(lam, f1, target, grid)
        )
        outputs.append(np.imag(total * conj_nodes * np.conj(derivs)))
    return outputs[0], outputs[1]


def real_fourier(values, grid):
    """(mean, cosine, sine) coefficients of a real node sequence.

    values = mean + sum_m cos[m] cos(m theta) + sin[m] sin(m theta), modes
    m = 1 .. P/2 (arrays indexed from 0 with entry 0 unused).  The Nyquist
    cosine keeps its unhalved trapezoid weight so the identity above holds
    node-wise as written.
    """
    spectrum = np.fft.rfft(values)
    scale = 2.0 / grid.node_count
    mean = spectrum[0].real / grid.node_count
    cosine = spectrum.real * scale
    sine = -spectrum.imag * scale
    cosine[0] = 0.0
    sine[0] = 0.0
    return mean, cosine, sine


def linearization_check(n, lam, b, omega, epsilon, grid):
    """Recover the mode-n multiplier matrix by central differences of G.

    Perturbing interface j by +-epsilon conj(w)^{n-1} and projecting both
    components of G onto sin(n theta) gives column j of M_n after division
    by n (the linearization acts as (h_1, h_2) -> n M_n (a, b)^T sin(n
    theta) on mode n-1 inputs).  Returns (recovered, deviation) where
    deviation = recovered - spectral_matrix(n, lam, b, omega) entrywise.
    """
    from .spectrum import spectral_matrix

    n = int(n)
    if n < 1:
        raise ValueError(f"order must be >= 1; got {n}")
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
                _, _, sine = real_fourier(g, grid)
                recovered[row, col] += sign * sine[n] / (2.0 * epsilon * n)
    analytic = spectral_matrix(n, lam, b, omega)
    deviation = recovered - np.array(
        [[analytic.m11, analytic.m12], [analytic.m21, analytic.m22]]
    )
    return recovered, deviation


def velocity_at(z, f1, f2, lam, b, grid):
    """Induced velocity at a point off both interfaces.

    (1/2pi) [contour integral over the outer boundary minus inner boundary]
    of K_0(lam |z - xi|) dxi, by the trapezoid rule; complex dxi makes each
    term i Phi'(tau) tau K_0(...) nodewise.
    """
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
