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

    K_0(lam r) = -log r * I_0(lam r) + [_k0reg_array(lam r)
                 - log(lam/2) * I_0(lam r)],

then -log r = -log|w - tau| - log(r/|w - tau|); the bracket and the ratio
term are smooth on the circle (the ratio tends to |Phi'(w)| on the
diagonal), and log|w - tau| is integrated exactly against the trapezoid
samples of its smooth cofactor through the closed-form Fourier moments
(1/2pi) int log|1 - e^{i t}| cos(n t) dt = -1/(2n).  That product rule is
a circulant set of weights: row k of it applied to samples g(tau_l) is
sum_l c[(k - l) mod P] g(tau_l) with c the inverse FFT of the moments.
The weights and log|w_k - w_l| = log|2 sin(pi (k - l)/P)| both depend on
k - l alone, so one length-P vector holds them.  Every interaction,
singular or not, is one real kernel matrix (array Bessel kernels,
fixed-length Horner series) applied to the complex weights Phi'(tau) tau
as real mat-vecs; its columns are all P sources, its rows the target
nodes G needs (half a rotational period of the pair, all P when nothing
divides; see g_functional), and the grid gathers only those rows of the
weights.

The rotating-frame boundary condition is, at each node of interface j,

    G_j(w) = Im{ (Omega Phi_j(w) + S(lam,Phi_2,Phi_j)(w)
                  - S(lam,Phi_1,Phi_j)(w)) conj(w) conj(Phi_j'(w)) },

whose zeros over both interfaces are the rotating patches.  Orientation
(inner boundary enters with the minus sign through the difference above)
is pinned by the exact vanishing of G on the unperturbed annulus for every
Omega, which is one of the tests, not an argument.  G's linearization at
the annulus is diagonal in the mode, so linearization_check batches orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import _i0_array, _k0_array, _k0reg_array
from .spectrum import ModeCell, _check_b_open, _check_lambda, _check_order

_COLLISION_TOL = 1e-8

# largest lambda the quadrature is validated for: its trivial-annulus
# residual (b = 0.5, Omega = 0.3, P = 256) is 1.5e-11 at lambda = 8 but
# 6.2e-11 at 9 and 4e-10 at 10, and a finer grid does not lower it, so
# above 8 a branch point can no longer be certified at 1e-10 with a margin
MAX_LAMBDA = 8.0


def _check_max_lambda(lam):
    if not lam <= MAX_LAMBDA:
        raise ValueError(
            f"the contour quadrature is validated for lambda <= "
            f"{MAX_LAMBDA:g}; got {lam:g}"
        )


# largest node count: an unfolded G (rows = P, as verify's single-mode
# boundaries run) holds several P x P float64 kernel blocks at once, 8 GiB
# each at this P; the cap admits the doubled-grid check of P = 9432 (m = 131)
MAX_NODES = 2**15


def _check_node_count(node_count):
    if node_count < 8 or node_count % 2 != 0:
        raise ValueError(f"grid size must be even and >= 8; got {node_count}")
    if node_count > MAX_NODES:
        raise ValueError(
            f"grid size must be at most {MAX_NODES} (an unfolded G's P x P"
            f" kernel block is 8 GiB there); got {node_count}"
        )


def _check_mode_fits(n, node_count):
    # a mode at or above P/2 has no sine on the grid
    if not 2 * n < node_count:
        raise ValueError(
            f"mode {n} needs grid size above {2 * n}; got {node_count}"
        )


def _check_bandwidth(m, trunc, node_count):
    # the truncation's certificate, the first omitted lattice mode
    # m*(trunc+1), needs a sine on the grid
    if not 2 * m * (trunc + 1) < node_count:
        raise ValueError(
            f"m={m} with trunc {trunc} reaches the grid bandwidth: the first"
            f" omitted mode m*(trunc+1) = {m * (trunc + 1)} is not below"
            f" P/2 = {node_count // 2}"
        )


def _top_truncation(m, node_count):
    # the largest trunc that _check_bandwidth accepts at order m >= 1
    return (node_count - 1) // (2 * m) - 1


def fold_size(m, floor):
    """The least P >= floor that lcm(2, m) divides, refused by the grid
    rules before any grid is built: g_functional folds an m-fold pair onto
    its first P/m rows, and as every 2*m*(K+1) is a multiple of lcm(2, m),
    _check_bandwidth reads the same on P and floor."""
    _check_node_count(floor)
    step = math.lcm(2, _check_order(m))
    size = -(-floor // step) * step
    _check_node_count(size)
    return size


def fold_grid(m, floor):
    """The grid of fold_size(m, floor) nodes."""
    return make_grid(fold_size(m, floor))


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
        coeffs = tuple(map(float, self.coefficients))
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "scale", float(self.scale))
        if not self.scale > 0.0 or not math.isfinite(self.scale):
            raise ValueError(f"scale must be positive; got {self.scale}")
        if not all(map(math.isfinite, coeffs)):
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
    """Uniform circle grid w_k = w_0 exp(2 pi i k/P), log weights on use."""

    node_count: int
    theta: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.theta, self.nodes):
            arr.setflags(write=False)

    def log_weights(self, rows):
        """Rows 0..rows-1 of the real P x P matrix v[(k - l) mod P], kept
        read-only with the grid and gathered again only for more rows.

        v[j] = P c[j] - log|2 sin(pi j/P)|, v[0] = P c[0]: c is the inverse
        FFT of the log moments -1/(2|n|) over FFT frequencies 0..P-1, 0 at
        n = 0 (real samples alias +-P/2 onto a pure cosine, so the Nyquist
        entry is just the formula at that order), the circulant weights of
        Kress's product rule for log|w_k - tau| (Linear Integral Equations,
        ch. 12).  The diagonal takes log|w_k - w_k| as 0, the chord factor
        of the self-interaction ratio on its diagonal.
        """
        block = vars(self).get("_log_block")
        if block is None or len(block) < rows:
            count = self.node_count
            index = np.arange(count)
            freq = np.minimum(index, count - index)
            moments = np.where(freq == 0, 0.0, -0.5 / np.maximum(freq, 1))
            vector = count * np.fft.ifft(moments).real
            vector[1:] -= np.log(2.0 * np.sin(np.pi * index[1:] / count))
            # gathered while the offset table is live, so the table leaves
            # the kernels headroom under the kept block: without it glibc
            # trims the heap after each G (~1000 page faults, P=256, lam=4)
            offsets = np.subtract.outer(index[:rows], index)
            offsets %= count
            block = vector[offsets]
            block.setflags(write=False)
            object.__setattr__(self, "_log_block", block)
        return block[:rows]

    def transpose_index(self, period):
        """Flat indices into rows 0..period//2 of a cross kernel block
        K[k, l] = kappa(|Phi_1(w_k) - Phi_2(w_l)|) that gather the same rows
        of its transpose, for maps of rotational period `period` nodes with
        real coefficients, kept read-only with the grid for the last period
        asked for.

        Entry (l, k) with l = s period + r equals entry (r, k - s period),
        both nodes turned back s periods (Phi(rho w) = rho Phi(w)); for
        r > period/2 it equals entry (period - r, (s+1) period - k), both
        nodes reflected (Phi(conj w) = conj Phi(w), conj w_k = w_{-k}) and
        turned on one period.  The reflection needs the node w_0 = 1.
        """
        memo = vars(self).get("_transpose_index")
        if memo is not None and memo[0] == period:
            return memo[1]
        if self.theta[0] != 0.0:
            raise ValueError("the fold's reflection needs the node w_0 = 1")
        count = self.node_count
        target = np.arange(period // 2 + 1)[:, None]
        turns, offset = np.divmod(np.arange(count), period)
        direct = 2 * offset <= period
        row = np.where(direct, offset, period - offset)
        col = np.where(direct, target - turns * period,
                       (turns + 1) * period - target) % count
        index = row * count + col
        index.setflags(write=False)
        object.__setattr__(self, "_transpose_index", (period, index))
        return index


def make_grid(node_count):
    node_count = int(node_count)
    _check_node_count(node_count)
    theta = 2.0 * np.pi * np.arange(node_count) / node_count
    return QuadratureGrid(node_count, theta, np.exp(1j * theta))


def conformal_eval(boundary, grid):
    """Values and derivatives (Phi(w_k), Phi'(w_k)) at the grid nodes.

    Phi'(w) = scale - sum n a_n conj(w)^{n+1} on |w| = 1, because
    conj(w)^n = w^{-n} there.  On the grid conj(w_k)^n = conj(w_0)^n
    exp(-2 pi i k n/P), so both sums are one FFT of the coefficients times
    conj(w_0)^n, orders folded mod P: exact for any truncation, though
    callers should keep the top mode below P/2 to avoid aliasing in the
    quadratures downstream.

    The pair is read-only and kept on the boundary for the last grid it was
    evaluated on (matched by identity), so the calls of one G transform
    each boundary once; equality, hash and repr read the fields alone.
    """
    memo = vars(boundary).get("_node_values")
    if memo is not None and memo[0] is grid:
        return memo[1]
    order = np.arange(len(boundary.coefficients))
    terms = np.array(boundary.coefficients) * np.conj(grid.nodes[0]) ** order
    series = np.zeros((2, grid.node_count), dtype=complex)
    np.add.at(series, (0, order % grid.node_count), terms)
    np.add.at(series, (1, order % grid.node_count), order * terms)
    values, slopes = np.fft.fft(series)
    pair = (boundary.scale * grid.nodes + values,
            boundary.scale - slopes * np.conj(grid.nodes))
    for arr in pair:
        arr.setflags(write=False)
    object.__setattr__(boundary, "_node_values", (grid, pair))
    return pair


def s_integral(lam, source, target, grid, rows=None):
    """Screened single-layer integral S(lam, Phi_source, Phi_target) at the
    first `rows` target-interface nodes (all P by default), each against
    all P source nodes.

    Equal boundaries engage the singular split; distinct boundaries use the
    plain trapezoid rule and require the interfaces to stay farther apart
    than the collision tolerance (over the rows evaluated).
    """
    _check_lambda(lam)
    src_vals, src_derivs = conformal_eval(source, grid)

    if source == target:
        head = slice(rows)
        dist = np.abs(src_vals[head, None] - src_vals[None, :])
        scaled = lam * dist
        i0 = _i0_array(scaled)
        # smooth bracket of the kernel split
        kernel = _k0reg_array(scaled)
        kernel -= math.log(lam / 2.0) * i0
        # -log r * I_0 with log r = log(r/|w - tau|) + log|w - tau|: the
        # ratio's diagonal limit is |Phi'(w)|, and grid.log_weights swaps
        # the plain log|w - tau| samples for the exact log product rule
        np.fill_diagonal(dist, np.abs(src_derivs[head]))
        log_part = np.log(dist, out=dist)
        log_part += grid.log_weights(len(log_part))
        log_part *= i0
        kernel -= log_part
    else:
        kernel = _cross_kernel(lam, src_vals, conformal_eval(target, grid)[0],
                               rows)
    return _integrate(kernel, src_derivs, grid)


def _cross_kernel(lam, src_vals, tgt_vals, rows):
    """K_0(lam |Phi_target(w_k) - Phi_source(tau_l)|) for the first `rows`
    target nodes against all P source nodes, refusing interfaces that come
    closer than the collision tolerance there."""
    dist = np.abs(tgt_vals[:rows, None] - src_vals[None, :])
    if np.min(dist) < _COLLISION_TOL:
        raise ValueError(
            f"interfaces collide: min node distance {np.min(dist):.3e}"
        )
    return _k0_array(lam * dist)


def _integrate(kernel, src_derivs, grid):
    """Trapezoid sums of the kernel rows against the source's weights
    Phi'(tau) tau."""
    weights = src_derivs * grid.nodes
    # real kernel times complex weights as one real P x 2 product of
    # (real, imag) rows, with no complex copy of the kernel
    pairs = weights.view(float).reshape(-1, 2)
    return (kernel @ pairs).view(complex)[:, 0] / grid.node_count


def g_functional(lam, b, omega, f1, f2, grid):
    """Rotating-frame boundary residual at the grid nodes, as one 2 x P
    array: G_1's row, then G_2's (so g1, g2 = g_functional(...) unpacks it).

    f1 must carry scale 1 (outer interface), f2 scale b (inner).  Both
    rows are real node sequences with zero mean and no cosine content for
    real-coefficient inputs.  Raises ValueError for lam > MAX_LAMBDA.

    A map whose nonzero a_n all have d | n+1 obeys Phi(rho w) = rho Phi(w)
    for rho = exp(2 pi i/d), so both G_j are 2 pi/d-periodic.  With d the
    gcd of P and every such n+1 of both interfaces (P for the bare annulus)
    the node shift Q = P/d is that rotation.  Real coefficients also give
    Phi(conj w) = conj Phi(w), and conj w_k = w_{-k} on make_grid's nodes,
    so each G_j is odd within its period: row Q - k is -(row k).  For d > 1
    G is evaluated on rows 0..Q/2 only, the other rows of the period are
    those reflections, and the period is written d times into its row.
    The one cross kernel K_0(lam |Phi_1(w_k) - Phi_2(tau_l)|) of those rows
    serves G_1, and G_2's is the same block gathered through the rotation
    and the reflection (QuadratureGrid.transpose_index).

    Without a fold (d = 1, as verify's odd modes run) every row is
    evaluated and each cross kernel is built for its own orientation, bit
    for bit the unfolded sum: perfbench pins that call shape (four
    s_integral calls, two K_0 matrices of P x P), so the reflection waits
    for the pin to become a ceiling before it serves d = 1 too.
    """
    _check_max_lambda(lam)
    _check_b_open(b)
    if f1.scale != 1.0:
        raise ValueError(f"outer boundary must have scale 1; got {f1.scale}")
    if f2.scale != b:
        raise ValueError(
            f"inner boundary scale {f2.scale} does not match b = {b}"
        )
    fold = math.gcd(grid.node_count, *(
        n + 1 for f in (f1, f2) for n, a in enumerate(f.coefficients) if a
    ))
    (vals1, derivs1), (vals2, derivs2) = (conformal_eval(f, grid)
                                          for f in (f1, f2))
    period = grid.node_count // fold
    if fold == 1:
        rows = period
        inward = s_integral(lam, f2, f1, grid)
        outward = s_integral(lam, f1, f2, grid)
    else:
        rows = period // 2 + 1
        block = _cross_kernel(lam, vals2, vals1, rows)
        inward = _integrate(block, derivs2, grid)
        outward = _integrate(block.take(grid.transpose_index(period)),
                             derivs1, grid)
    conj_nodes = np.conj(grid.nodes[:rows])
    kept = np.empty((2, rows))
    for row, vals, derivs, plus, minus in zip(
            kept, (vals1, vals2), (derivs1, derivs2),
            (inward, s_integral(lam, f2, f2, grid, rows)),
            (s_integral(lam, f1, f1, grid, rows), outward)):
        row[:] = np.imag((omega * vals[:rows] + plus - minus)
                         * conj_nodes * np.conj(derivs[:rows]))
    reflected = -kept[:, period - rows:0:-1]
    return np.tile(np.concatenate((kept, reflected), axis=1), (1, fold))


def sine_coefficients(values, grid):
    """Sine coefficients of real node sequences along the last axis, sin[m]
    of sin(m theta) for m = 1 .. P/2 (entry 0 unused and 0)."""
    sine = np.fft.rfft(values).imag * (-2.0 / grid.node_count)
    sine[..., 0] = 0.0
    return sine


def linearization_check(ns, lam, b, omega, epsilon, grid):
    """Recover M_n for every order n of a batch from four G evaluations.

    Interface j is perturbed by +-epsilon conj(w)^{n-1} at every order n of the
    batch at once.  The linearization acts as (h_1, h_2) -> n M_n (a, b)^T
    sin(n theta) on mode n-1 inputs, so distinct orders below P/2 never share a
    sine, and the sin(n theta) content of both rows of the central difference
    G(+epsilon) - G(-epsilon), over 2 epsilon n, is column j of M_n.  It
    cancels every even power of epsilon, however its cross terms alias mod P;
    the cubic terms, which couple the orders, leave an O(epsilon^2) error.  One
    order alone is the single-column central stencil.

    Returns (recovered, deviation) as len(ns) x 2 x 2 arrays, deviation =
    recovered - ModeCell.block(n) / n.  Empty batches, repeated orders (a
    repeat would double its step) and modes n >= P/2 are refused.
    """
    cell = ModeCell(lam, b)
    ns = [_check_order(n) for n in ns]
    if not ns or len(set(ns)) != len(ns):
        raise ValueError(f"need one or more distinct orders; got {ns}")
    _check_mode_fits(max(ns), grid.node_count)
    if not 1e-8 <= epsilon <= 1e-4:
        raise ValueError(f"step must lie in [1e-8, 1e-4]; got {epsilon}")
    order = np.array(ns)
    flat = [annulus_boundary(1.0), annulus_boundary(b)]
    recovered = np.empty((len(ns), 2, 2))
    for col, scale in ((0, 1.0), (1, b)):
        column = 0.0
        for sign in (1.0, -1.0):
            coefficients = np.zeros(order.max())
            coefficients[order - 1] = sign * epsilon
            pair = list(flat)
            pair[col] = FourierBoundary(scale, coefficients)
            sine = sine_coefficients(g_functional(lam, b, omega, *pair, grid),
                                     grid)
            column = column + sign * sine[:, order] / (2.0 * epsilon * order)
        recovered[:, :, col] = column.T
    return recovered, recovered - [cell.block(n, omega) / n for n in ns]
