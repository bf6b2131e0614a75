"""Newton continuation of the m-fold branches bifurcating from the annulus.

At an admissible mode m the annulus loses uniqueness at the two angular
velocities Omega_m^-/Omega_m^+, and a curve of m-fold doubly-connected
rotating patches emerges from each.  Both interfaces are truncated to the
m-fold lattice (coefficients only at indices mk-1, k = 1..K) and the
projected system

    { <G_1, sin(mk theta)>, <G_2, sin(mk theta)> : k = 1..K } = 0

is solved for the 2K unknowns: the free lattice coefficients plus Omega,
with one coefficient held at the amplitude s to remove the null direction.
The held coefficient is the dominant component of the kernel direction.
The literal choice a_{m-1} of f_1 is kept whenever it is the dominant one
(the plus branch in practice); on the minus branch the kernel is lopsided
toward the inner interface (|v2/v1| can exceed 100), and pinning the outer
coefficient at a visible amplitude would demand an inner coefficient far
outside the injectivity ball, so the inner coefficient is pinned instead.
BranchPoint.pinned records the choice.

Each point after the first starts from the two before it, extrapolated in
s^2 by the s -> -s symmetry (see _parity_guess), at the last point's
truncation.  Every solve (cold, warm, or restarted at a grown truncation)
seeds its Jacobian with the linearized spectrum at its own guess,
which costs no residual and no grid work: the mode-mk blocks mk M_mk(Omega)
of the annulus, from the solve's one ModeCell, for the coefficients, and
the exact Omega column (G is affine in Omega) in closed form, which
nothing aliases because all its modes lie below P/2.
One rule, _ProjectedSystem.step, takes every Newton step and applies its
Broyden rank-1 update.  A step with the seeded or updated matrix must cut
the residual norm by 10%; a failed matrix is replaced at the same iterate
by forward differences, whose fresh steps are damped by halving on
residual increase.  The iteration stops once the node residual is at
RESIDUAL_TOL, or once ||F|| is down to _RESOLVED of the node residual: the
lattice equations are solved and only the harmonics past K hold the nodes
up.  Then the predicted first omitted pair decides: the mode-n block of
the annulus answers the last residual's sine pair g_n at n = m(K+1), so
(a_{K+1}, b_{K+1}) ~ -(n M_n(Omega))^{-1} g_n, at no residual cost.  A
pair at most 1e-12 certifies the point, or ends the solve at the node
residual floor if the nodes are still up (more harmonics cannot help); a
larger pair grows K to where its ratio to column K predicts one within
the bound, the new columns seeded with the pair and by that ratio, up to
the largest K the grid's bandwidth admits (there, truncation saturated).
So every column of a point is solved or predicted, never a padded zero.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .contour import (
    FourierBoundary,
    _check_bandwidth,
    _top_truncation,
    annulus_boundary,
    fold_grid,
    g_functional,
    make_grid,
    sine_coefficients,
)
from .spectrum import ModeCell

RESIDUAL_TOL = 1e-10
_MAX_ITERATIONS = 50
_MAX_HALVINGS = 8
# a full step with the seeded or updated matrix must cut ||F|| to this
_DECREASE = 0.9
# the lattice equations count as solved once ||F|| is this fraction of the
# node residual
_RESOLVED = 1e-3
_CONDITION_CAP = 1e14
# bound on the predicted first omitted lattice pair of a certified point
_TAIL_TOL = 1e-12


def _check_truncation(trunc):
    trunc = int(trunc)
    if trunc < 2:
        raise ValueError(f"truncation must be >= 2; got {trunc}")
    return trunc


def _check_steps(steps):
    steps = int(steps)
    if steps < 1:
        raise ValueError(f"steps must be >= 1; got {steps}")
    return steps


def _check_amplitude(s_max):
    if not 0.0 < s_max < math.inf:
        raise ValueError(f"s-max must be positive and finite; got {s_max}")


class NonConvergence(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""


class DegenerateJacobian(RuntimeError):
    """Projected Jacobian condition estimate exceeded the cap."""


@dataclass(frozen=True)
class BranchPoint:
    """One converged point on a bifurcating branch.

    s is the value of the pinned lattice coefficient (f1's a_{m-1} when
    pinned == "outer", f2's when "inner"); all coefficients off the m-fold
    lattice are exact zeros by construction.  evaluations counts the
    residual evaluations the point cost, finite-difference columns
    included, builds the forward-difference Jacobians among them (seeded
    matrices not counted), and newton_steps the accepted Newton steps.
    """

    s: float
    omega: float
    f1: FourierBoundary
    f2: FourierBoundary
    residual: float
    m: int
    pinned: str
    evaluations: int = field(default=0, compare=False)
    builds: int = field(default=0, compare=False)
    newton_steps: int = field(default=0, compare=False)

    @property
    def truncation(self):
        """Lattice coefficients K per interface (m*K coefficients)."""
        longest = max(len(self.f1.coefficients), len(self.f2.coefficients))
        return longest // self.m

    def lattice(self, count):
        """The 2 x count lattice coefficients (f1's row, then f2's), column
        k read at index m(k+1)-1 and zero past the point's truncation: the
        inverse of lattice_boundaries."""
        out = np.zeros((2, count))
        for row, boundary in zip(out, (self.f1, self.f2)):
            values = boundary.coefficients[self.m - 1 :: self.m][:count]
            row[: len(values)] = values
        return out


@dataclass(frozen=True)
class TraceResult:
    """A march's points, and the work it spent, its failed solve's too."""

    points: tuple
    termination_reason: str
    completed: bool
    evaluations: int = 0
    builds: int = 0
    newton_steps: int = 0


@dataclass(frozen=True)
class VerifyReport:
    residual: float
    symmetry_defect: float
    omega: float


def lattice_boundaries(m, b, lattice):
    """(f1, f2) of scales 1 and b from the 2 x K lattice coefficients: row
    j's column k at index m(k+1)-1 of f_j, every other coefficient zero.
    Raises ValueError outside the ball guard."""
    lattice = np.asarray(lattice, dtype=float)
    dense = np.zeros((2, m * lattice.shape[1]))
    dense[:, m - 1 :: m] = lattice
    return tuple(FourierBoundary(scale, tuple(row))
                 for scale, row in zip((1.0, b), dense.tolist()))


class _ProjectedSystem:
    """Projected m-fold residual with one pinned coefficient.

    The unknowns u are the 2K lattice coefficients (f1's, then f2's) with
    the one at index pin (0 for an outer pin, K for an inner one) left out,
    followed by Omega.  matrix is the Jacobian estimate the next Newton
    step uses: the seeded linearization, Broyden-updated, else a
    forward-difference build.  evaluations counts the residuals computed so
    far, builds the forward-difference matrices and steps the accepted
    Newton steps; a solve at a grown K starts from work, the counts at the
    lower K.  cell is the solve's ModeCell, of its (lam, b).
    """

    def __init__(self, cell, m, trunc, grid, pinned, s, work=(0, 0, 0)):
        self.cell = cell
        self.m = m
        self.trunc = trunc
        self.grid = grid
        self.pin = 0 if pinned == "outer" else trunc
        self.s = s
        self.modes = m * np.arange(1, trunc + 1)
        self.matrix = None
        self.evaluations, self.builds, self.steps = work

    @property
    def work(self):
        """(evaluations, builds, steps) so far."""
        return self.evaluations, self.builds, self.steps

    def lattice(self, u):
        """The 2 x K lattice coefficients at u, the pinned one inserted."""
        return np.insert(u[:-1], self.pin, self.s).reshape(2, self.trunc)

    def pack(self, lattice, omega):
        """u of the 2 x K lattice coefficients and Omega, the pinned one left
        out: lattice(pack(L, omega)) is L with its pinned entry at s."""
        return np.delete(np.append(lattice, omega), self.pin)

    def boundaries(self, u):
        f1, f2 = lattice_boundaries(self.m, self.cell.b, self.lattice(u))
        return f1, f2, u[-1]

    def residual(self, u):
        """(projected residual vector, max node residual, the two rows' sine
        coefficients at the first omitted mode m(K+1))."""
        self.evaluations += 1
        f1, f2, omega = self.boundaries(u)
        g = g_functional(self.cell.lam, self.cell.b, omega, f1, f2,
                         self.grid)
        sine = sine_coefficients(g, self.grid)
        return (sine[:, self.modes].ravel(), np.max(np.abs(g)),
                sine[:, self.m * (self.trunc + 1)])

    def jacobian(self, u, projected):
        """(matrix, fresh) for one Newton step at u, whose residual is
        projected: the current estimate (the seed newton_solve sets, then
        its updates), else a fresh forward-difference build."""
        if self.matrix is not None:
            return self.matrix, False
        self.matrix = self.forward_difference(u, projected)
        self.builds += 1
        return self.matrix, True

    def linearization(self, u):
        """The Jacobian at u from the linearized spectrum, no residual spent.

        Coefficient columns: the mode-mk blocks mk M_mk(Omega) of the
        annulus at u's Omega, which couple only the two coefficients of the
        same lattice index.  The Omega column is exact (G is affine in
        Omega): the sine coefficient at mk of dG_j/dOmega = Im{Phi_j conj(w)
        conj(Phi_j')} is -mk (c_j a_k + sum_i a_i a_{i+k}), c_1 = 1, c_2 = b,
        a_k the interface's lattice coefficient at index mk-1.  On |w| = 1
        that product holds only the modes m(k - i) and mk, all below P/2 by
        _check_bandwidth, so nothing aliases and this is the grid's sine
        projection.  The pinned coefficient's column is dropped.
        """
        lattice, omega = self.lattice(u), u[-1]
        count = self.trunc
        full = np.zeros((2 * count, 2 * count + 1))
        for k, n in enumerate(self.modes):
            full[k::count, k:2 * count:count] = self.cell.block(n, omega)
        for j, (scale, a) in enumerate(zip((1.0, self.cell.b), lattice)):
            lags = np.append(np.correlate(a, a, "full")[count:], 0.0)
            full[j * count : (j + 1) * count, -1] = (
                -self.modes * (scale * a + lags))
        return np.delete(full, self.pin, axis=1)

    def forward_difference(self, u, projected):
        """Forward-difference Jacobian at u from 2K residuals (the one at u,
        projected, is already known)."""
        step = 1e-8 * max(1.0, float(np.linalg.norm(u)))
        matrix = np.empty((u.size, u.size))
        for i in range(u.size):
            bumped = u.copy()
            bumped[i] += step
            matrix[:, i] = (self.residual(bumped)[0] - projected) / step
        return matrix

    def omitted(self, omega, sine):
        """The predicted first omitted lattice pair (a_{K+1}, b_{K+1}):
        -(n M_n(Omega))^{-1} sine at n = m(K+1), from the residual's sine
        pair there."""
        return -np.linalg.solve(
            self.cell.block(self.m * (self.trunc + 1), omega), sine)

    def step(self, u, projected, target, halvings=0):
        """(u, (projected, node_res, sine), norm) after one Newton step with
        the current matrix, or None when every trial fails.  The step is
        halved up to halvings times until ||F|| < target; a trial outside
        the ball guard fails.  The accepted step applies Broyden's rank-1
        secant update to the matrix and counts in steps."""
        delta = np.linalg.solve(self.matrix, -projected)
        for k in range(halvings + 1):
            trial = u + 0.5**k * delta
            try:
                computed = self.residual(trial)
            except ValueError:
                continue
            norm = np.linalg.norm(computed[0])
            if norm < target:
                du = trial - u
                self.matrix = self.matrix + np.outer(
                    computed[0] - projected - self.matrix @ du, du) / (du @ du)
                self.steps += 1
                return trial, computed, norm
        return None


def _kernel_direction(cell, m, sign):
    """(Omega*, pinned side, kernel direction (v1, v2) over its pinned
    component) of the branch in cell: the pin is the dominant component."""
    omega_star, (v1, v2), _ = cell.root(m, sign)
    if abs(v1) >= abs(v2):
        return omega_star, "outer", np.array([1.0, v2 / v1])
    return omega_star, "inner", np.array([v1 / v2, 1.0])


def newton_solve(lam, b, m, sign, s, initial_guess=None, trunc=16, grid=None,
                 *, _cell=None):
    """Solve the projected m-fold system at amplitude s.

    initial_guess may be a BranchPoint (warm start along a branch) or None,
    in which case the annulus plus s times the kernel direction is used.
    A warm start solves at the guess's truncation when that exceeds trunc.
    Either way the linearized spectrum at the guess seeds the first Newton
    matrix.  The certificate's mode m(K+1) must stay below the grid's P/2,
    whose sine the nodes cannot see; the default grid is fold_grid(m, 256).
    Raises NonConvergence or DegenerateJacobian; a guess outside the ball
    guard raises ValueError at its first residual.  An exception raised once
    the solve has started carries work, the (evaluations, builds, steps) the
    failed attempt spent.  _cell is trace_branch's ModeCell of (lam, b),
    which its anchor and every solve share.
    """
    m = int(m)
    grid = grid if grid is not None else fold_grid(m, 256)
    trunc = _check_truncation(trunc)
    if initial_guess is not None:
        trunc = max(trunc, initial_guess.truncation)
    _check_bandwidth(m, trunc, grid.node_count)
    cell = ModeCell(lam, b) if _cell is None else _cell
    omega_star, pinned, direction = _kernel_direction(cell, m, sign)
    if initial_guess is None:
        lattice = np.zeros((2, trunc))
        lattice[:, 0] = s * direction
        omega = omega_star
    else:
        lattice = initial_guess.lattice(trunc)
        omega = initial_guess.omega

    # solve at trunc until the nodes are solved or the lattice equations
    # are (||F|| down to _RESOLVED of the node residual); then the predicted
    # first omitted pair certifies, fails at the node floor or grows K
    work = (0, 0, 0)
    try:
        while True:
            system = _ProjectedSystem(cell, m, trunc, grid, pinned, float(s),
                                      work)
            u = system.pack(lattice, omega)
            system.matrix = system.linearization(u)
            projected, node_res, sine = system.residual(u)
            norm = np.linalg.norm(projected)
            iterations = 0
            while node_res > RESIDUAL_TOL and norm > _RESOLVED * node_res:
                if iterations == _MAX_ITERATIONS:
                    raise NonConvergence(f"iteration cap reached at s={s},"
                                         f" m={m} (residual {node_res:.3e})")
                iterations += 1
                jac, fresh = system.jacobian(u, projected)
                cond = np.linalg.cond(jac)
                singular = not cond <= _CONDITION_CAP  # nan included
                # a seeded or updated matrix gets one full step that must
                # cut the residual by 10%, else it is rebuilt here; a fresh
                # one is damped
                taken = None if singular else system.step(
                    u, projected, norm if fresh else _DECREASE * norm,
                    _MAX_HALVINGS if fresh else 0)
                if taken is None and not fresh:
                    system.matrix = None
                    continue
                if singular:
                    raise DegenerateJacobian(
                        f"condition estimate {cond:.3e} at s={s}, m={m}")
                if taken is None:
                    raise NonConvergence(f"damping exhausted at s={s}, m={m}"
                                         f" (residual {node_res:.3e})")
                u, (projected, node_res, sine), norm = taken
            f1, f2, omega = system.boundaries(u)
            pair = system.omitted(omega, sine)
            size = np.max(np.abs(pair))
            if size <= _TAIL_TOL:
                if node_res > RESIDUAL_TOL:
                    raise NonConvergence(
                        f"node residual floor: residual {node_res:.3e} with"
                        f" omitted pair {size:.3e} at s={s}, m={m}, K={trunc}")
                return BranchPoint(
                    s=system.s, omega=omega, f1=f1, f2=f2, residual=node_res,
                    m=m, pinned=pinned, evaluations=system.evaluations,
                    builds=system.builds, newton_steps=system.steps,
                )
            top = _top_truncation(m, grid.node_count)
            if trunc == top:
                raise NonConvergence(f"truncation saturated: omitted pair"
                                     f" {size:.3e} at K={trunc}")
            # the columns past K go on by the ratio of the pair's larger
            # entry to the same row of column K (1 where that does not
            # fall): grow to the K whose predicted pair meets the bound
            solved, row = system.lattice(u), np.argmax(np.abs(pair))
            last = solved[row, -1]
            ratio = pair[row] / last if size < abs(last) else 1.0
            grow = 1 if ratio == 1.0 else math.ceil(
                math.log(_TAIL_TOL / size) / math.log(abs(ratio)))
            lattice = np.column_stack((solved, np.outer(
                pair, ratio ** np.arange(min(grow, top - trunc)))))
            trunc = lattice.shape[1]
            work = system.work
    except (NonConvergence, DegenerateJacobian, ValueError) as exc:
        # the failed attempt's work, for the trace that reports it
        exc.work = system.work
        raise


def trace_branch(lam, b, m, sign, s_max, steps, trunc=16, grid=None):
    """March the branch from the annulus out to amplitude s_max.

    Returns a TraceResult whose points are the converged BranchPoints in
    increasing s; an unconverged step terminates the trace early with the
    failure recorded in termination_reason, never raising; its counts
    include that failed solve's work.  An s_max that is not positive and
    finite, or steps below 1, raises ValueError up front.
    The default grid is fold_grid(m, 256), as in newton_solve.
    """
    _check_amplitude(s_max)
    steps = _check_steps(steps)
    history, reason, work = [], "completed", [(0, 0, 0)]
    try:
        grid = grid if grid is not None else fold_grid(m, 256)
        # the annulus at (0, Omega*), exact and with nothing pinned, anchors
        # the prediction of point two
        cell = ModeCell(lam, b)
        omega_star, _, direction = _kernel_direction(cell, m, sign)
        history.append(BranchPoint(
            s=0.0, omega=omega_star,
            f1=annulus_boundary(1.0), f2=annulus_boundary(b),
            residual=0.0, m=m, pinned=None,
        ))
        for k in range(1, steps + 1):
            s = s_max * k / steps
            guess = None if k == 1 else _parity_guess(
                m, s, *history[-2:], direction)
            history.append(newton_solve(
                lam, b, m, sign, s,
                initial_guess=guess, trunc=trunc, grid=grid, _cell=cell,
            ))
    except (NonConvergence, DegenerateJacobian, ValueError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        work = [getattr(exc, "work", (0, 0, 0))]
    points = tuple(history[1:])
    work += [(p.evaluations, p.builds, p.newton_steps) for p in points]
    evaluations, builds, newton_steps = map(sum, zip(*work))
    return TraceResult(
        points=points, termination_reason=reason,
        completed=reason == "completed", evaluations=evaluations,
        builds=builds, newton_steps=newton_steps,
    )


def omega_intercept(points):
    """(Omega at s -> 0, its bend c2) from the (s, Omega) of a march.

    Omega is even in s (the point at -s is the one at +s turned by pi/m),
    so Omega* + c2 s^2 + c4 s^4 is fitted by least squares over every
    point; two points fit Omega* + c2 s^2.  One point gives its own Omega
    and no bend, none gives (None, None).  The fit runs in s over the
    farthest point's |s| and on Omega less that point's Omega, so that no
    power of s underflows at tiny amplitudes and a flat march fits exactly.
    A bend past the float range (Omega's rounding at s < 1e-150) is None.
    """
    if len(points) < 2:
        return (points[0].omega if points else None), None
    far = max(points, key=lambda p: abs(p.s))
    fit = np.polyfit([(p.s / far.s) ** 2 for p in points],
                     [p.omega - far.omega for p in points],
                     min(len(points) - 1, 2))
    bend = float(fit[-2]) / far.s / far.s
    return float(far.omega + fit[-1]), (bend if math.isfinite(bend) else None)


def _parity_guess(m, s, older, newer, direction):
    """Guess at amplitude s from the last two branch points.

    The point at -s is the one at s turned by pi/m, so Omega and the
    lattice coefficients of even k are even in s and those of odd k are
    odd in s: Omega, the even coefficients and the odd ones over s are
    extrapolated linearly in s^2.  older may be the annulus (s = 0), whose
    odd coefficients over s are direction (the kernel direction over its
    pinned component) at k = 1 and zero above.  When the extrapolated
    boundaries leave the ball guard, newer itself is the guess (zero-order
    start).
    """
    # the step in s^2 in units of the last one, scale-free so that s^2
    # cannot underflow
    t = ((s / newer.s) ** 2 - 1.0) / (1.0 - (older.s / newer.s) ** 2)
    count = max(older.truncation, newer.truncation)
    odd = np.arange(count) % 2 == 0  # lattice index k = 1, 3, ...

    def reduced(point):
        lattice = point.lattice(count)
        if point.s == 0.0:
            lattice[:, 0] = direction
        else:
            lattice[:, odd] /= point.s
        return lattice

    last = reduced(newer)
    lattice = last + t * (last - reduced(older))
    lattice[:, odd] *= s
    try:
        f1, f2 = lattice_boundaries(m, newer.f2.scale, lattice)
    except ValueError:
        return newer
    omega = newer.omega + t * (newer.omega - older.omega)
    return dataclasses.replace(newer, s=s, omega=omega, f1=f1, f2=f2)


def verify_vstate(point, lam, b, grid):
    """Independent residual check of a branch point on grid doubled.

    symmetry_defect is the coefficient energy off the m-fold lattice
    (exactly zero for solver output; nonzero flags hand-edited data).
    """
    g = g_functional(lam, b, point.omega, point.f1, point.f2,
                     make_grid(2 * grid.node_count))
    defect = 0.0
    for boundary in (point.f1, point.f2):
        for idx, coeff in enumerate(boundary.coefficients):
            if (idx + 1) % point.m != 0:
                defect = math.hypot(defect, coeff)
    return VerifyReport(residual=float(np.max(np.abs(g))),
                        symmetry_defect=defect, omega=point.omega)
