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
truncation.  Every solve (cold, warm, or restarted after truncation
doubling) seeds its Jacobian with the linearized spectrum at its own guess,
which costs no residual: the mode-mk blocks mk M_mk(Omega) of the annulus
for the coefficients, and the exact Omega column (G is affine in Omega).
Every accepted Newton step applies a Broyden rank-1 update within the
solve.  A step taken with the seeded or updated matrix must cut the
residual norm by 10%; a failed matrix is replaced at the same iterate by
forward differences, whose fresh steps are damped by halving on residual
increase.  The iteration stops once the node residual is at RESIDUAL_TOL,
or once ||F|| is down to _RESOLVED of the node residual: the lattice
equations are solved and only the harmonics past K hold the nodes up.  Then
the last retained coefficient (the tail) decides.  A tail at most 1e-12
certifies the point, or ends the solve at the node residual floor if the
nodes are still up (more harmonics cannot help); a larger tail doubles K
unless contour._check_bandwidth refuses m*2K (truncation saturated), and
the doubled solve starts from a new seed.  A tail near 1e-12 is first
polished by a few more steps, so the verdict does not depend on the
iteration path.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .contour import (
    FourierBoundary,
    _check_bandwidth,
    annulus_boundary,
    g_functional,
    make_grid,
    omega_derivative,
    real_fourier,
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
_TAIL_TOL = 1e-12
# an iterate just under RESIDUAL_TOL carries Newton noise in its tail
# coefficient (seen from 3e-13 to 1e-12), so a tail from a tenth to a
# hundred times _TAIL_TOL is polished by up to _POLISH_STEPS steps before
# it decides between certifying, doubling and saturating
_TAIL_DOUBT = (0.1 * _TAIL_TOL, 100.0 * _TAIL_TOL)
_POLISH_STEPS = 3


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
    matrices not counted), and newton_steps the accepted Newton steps,
    polish steps included.
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


@dataclass(frozen=True)
class TraceResult:
    points: tuple
    termination_reason: str
    completed: bool


@dataclass(frozen=True)
class VerifyReport:
    residual: float
    symmetry_defect: float
    omega: float


def lattice_tuple(m, values):
    """Dense coefficient tuple with values[k] at index m(k+1)-1."""
    dense = [0.0] * (m * len(values))
    for k, value in enumerate(values):
        dense[m * (k + 1) - 1] = value
    return tuple(dense)


def lattice_values(boundary, m, count):
    """Inverse of lattice_tuple: the first count lattice coefficients of
    boundary, zero-padded past its truncation."""
    lattice = boundary.coefficients[m - 1 :: m][:count]
    return np.pad(lattice, (0, count - len(lattice)))


class _ProjectedSystem:
    """Projected m-fold residual with one pinned coefficient.

    The unknowns u are the 2K lattice coefficients (f1's, then f2's) with
    the one at index pin (0 for an outer pin, K for an inner one) left out,
    followed by Omega.  matrix is the Jacobian estimate the next Newton
    step uses: the seeded linearization, Broyden-updated, else a
    forward-difference build.  evaluations counts the residuals computed so
    far, builds the forward-difference matrices and steps the accepted
    Newton steps.
    """

    def __init__(self, lam, b, m, trunc, grid, pinned, s):
        self.lam = lam
        self.b = b
        self.m = m
        self.trunc = trunc
        self.grid = grid
        self.pin = 0 if pinned == "outer" else trunc
        self.s = s
        self.modes = m * np.arange(1, trunc + 1)
        self.matrix = None
        self.seedable = True
        self.evaluations = 0
        self.builds = 0
        self.steps = 0

    def boundaries(self, u):
        c = np.insert(u[:-1], self.pin, self.s)
        f1 = FourierBoundary(1.0, lattice_tuple(self.m, c[: self.trunc]))
        f2 = FourierBoundary(self.b, lattice_tuple(self.m, c[self.trunc :]))
        return f1, f2, u[-1]

    def pack(self, c1, c2, omega):
        return np.delete(np.concatenate([c1, c2, [omega]]), self.pin)

    def residual(self, u):
        """(projected residual vector, max node residual)."""
        self.evaluations += 1
        f1, f2, omega = self.boundaries(u)
        g1, g2 = g_functional(self.lam, self.b, omega, f1, f2, self.grid)
        _, _, sine1 = real_fourier(g1, self.grid)
        _, _, sine2 = real_fourier(g2, self.grid)
        projected = np.concatenate([sine1[self.modes], sine2[self.modes]])
        node_res = max(np.max(np.abs(g1)), np.max(np.abs(g2)))
        return projected, node_res

    def jacobian(self, u, projected):
        """(matrix, fresh) for one Newton step at u, whose residual is
        projected: the current estimate, else the seeded linearization (once
        per system), else a fresh forward-difference build."""
        if self.matrix is not None:
            return self.matrix, False
        if self.seedable:
            self.seedable = False
            self.matrix = self.linearization(u)
            return self.matrix, False
        self.matrix = self.forward_difference(u, projected)
        self.builds += 1
        return self.matrix, True

    def linearization(self, u):
        """The Jacobian at u from the linearized spectrum, no residual spent.

        Coefficient columns: the mode-mk blocks mk M_mk(Omega) of the
        annulus at u's Omega, which couple only the two coefficients of the
        same lattice index.  The Omega column is exact, G being affine in
        Omega.  The pinned coefficient's column is dropped.
        """
        f1, f2, omega = self.boundaries(u)
        count = self.trunc
        cell = ModeCell(self.lam, self.b)
        full = np.zeros((2 * count, 2 * count + 1))
        for k, n in enumerate(self.modes):
            pair = (k, count + k)
            full[np.ix_(pair, pair)] = cell.matrix(n, omega).block()
        for j, boundary in enumerate((f1, f2)):
            _, _, sine = real_fourier(
                omega_derivative(boundary, self.grid), self.grid
            )
            full[j * count : (j + 1) * count, -1] = sine[self.modes]
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

    def tail(self, u):
        """Largest last lattice coefficient of the two boundaries at u."""
        c = np.insert(u[:-1], self.pin, self.s)
        return max(abs(c[self.trunc - 1]), abs(c[-1]))

    def polish(self, u, projected, node_res):
        """(u, projected, node_res) after up to _POLISH_STEPS more steps with
        the current matrix.  A step is kept only if ||F|| does not rise and
        the node residual stays under RESIDUAL_TOL; polishing stops at the
        first step that does not cut ||F|| by 10% (the rounding floor)."""
        norm = np.linalg.norm(projected)
        for _ in range(_POLISH_STEPS):
            matrix, _ = self.jacobian(u, projected)
            trial = u + np.linalg.solve(matrix, -projected)
            try:
                trial_proj, trial_res = self.residual(trial)
            except ValueError:
                break
            trial_norm = np.linalg.norm(trial_proj)
            if trial_res > RESIDUAL_TOL or trial_norm > norm:
                break
            self.broyden_update(trial - u, trial_proj - projected)
            self.steps += 1
            u, projected, node_res = trial, trial_proj, trial_res
            if trial_norm > _DECREASE * norm:
                break
            norm = trial_norm
        return u, projected, node_res

    def broyden_update(self, du, dprojected):
        """Rank-1 secant correction after the accepted step du."""
        self.matrix = self.matrix + np.outer(
            dprojected - self.matrix @ du, du
        ) / (du @ du)


def _kernel_direction(lam, b, m, sign):
    """(Omega*, pinned side, kernel direction (v1, v2) over its pinned
    component) of the branch: the pin is the dominant component."""
    omega_star, (v1, v2), _ = ModeCell(lam, b).root(m, sign)
    if abs(v1) >= abs(v2):
        return omega_star, "outer", np.array([1.0, v2 / v1])
    return omega_star, "inner", np.array([v1 / v2, 1.0])


def newton_solve(lam, b, m, sign, s, initial_guess=None, trunc=16, grid=None):
    """Solve the projected m-fold system at amplitude s.

    initial_guess may be a BranchPoint (warm start along a branch) or None,
    in which case the annulus plus s times the kernel direction is used.
    A warm start solves at the guess's truncation when that exceeds trunc.
    Either way the linearized spectrum at the guess seeds the first Newton
    matrix.  The top mode m*K must stay below the grid's P/2, whose sine
    the nodes cannot see.
    Raises NonConvergence or DegenerateJacobian; a guess outside the ball
    guard raises ValueError at its first residual.
    """
    grid = grid if grid is not None else make_grid(256)
    m = int(m)
    trunc = _check_truncation(trunc)
    if initial_guess is not None:
        trunc = max(trunc, initial_guess.truncation)
    _check_bandwidth(m, trunc, grid.node_count)
    omega_star, pinned, direction = _kernel_direction(lam, b, m, sign)
    if initial_guess is None:
        c1 = np.zeros(trunc)
        c2 = np.zeros(trunc)
        c1[0], c2[0] = s * direction
        omega = omega_star
    else:
        c1 = lattice_values(initial_guess.f1, m, trunc)
        c2 = lattice_values(initial_guess.f2, m, trunc)
        omega = initial_guess.omega

    # solve at trunc until the nodes are solved or the lattice equations
    # are (||F|| down to _RESOLVED of the node residual: the harmonics past
    # K hold the nodes up); then the tail decides between certifying,
    # failing at the node floor and solving again at twice trunc
    evaluations = builds = steps = 0
    while True:
        system = _ProjectedSystem(lam, b, m, trunc, grid, pinned, float(s))
        u = system.pack(c1, c2, omega)
        projected, node_res = system.residual(u)
        norm = np.linalg.norm(projected)
        iterations = 0
        while node_res > RESIDUAL_TOL and norm > _RESOLVED * node_res:
            if iterations == _MAX_ITERATIONS:
                raise NonConvergence(
                    f"iteration cap reached at s={s}, m={m}"
                    f" (residual {node_res:.3e})"
                )
            iterations += 1
            jac, fresh = system.jacobian(u, projected)
            cond = np.linalg.cond(jac)
            if not np.isfinite(cond) or cond > _CONDITION_CAP:
                if not fresh:
                    system.matrix = None
                    continue
                raise DegenerateJacobian(
                    f"condition estimate {cond:.3e} at s={s}, m={m}"
                )
            delta = np.linalg.solve(jac, -projected)
            # a seeded or updated matrix gets one full step that must cut
            # the residual by 10%, else it is rebuilt here; a fresh one is
            # damped
            halvings, target = (
                (_MAX_HALVINGS, norm) if fresh
                else (0, _DECREASE * norm)
            )
            step_scale = 1.0
            for _ in range(halvings + 1):
                try:
                    trial = u + step_scale * delta
                    trial_proj, trial_res = system.residual(trial)
                except ValueError:
                    step_scale *= 0.5
                    continue
                trial_norm = np.linalg.norm(trial_proj)
                if trial_norm < target:
                    break
                step_scale *= 0.5
            else:
                if not fresh:
                    system.matrix = None
                    continue
                raise NonConvergence(
                    f"damping exhausted at s={s}, m={m}"
                    f" (residual {node_res:.3e})"
                )
            system.broyden_update(trial - u, trial_proj - projected)
            system.steps += 1
            u, projected, node_res, norm = (
                trial, trial_proj, trial_res, trial_norm,
            )
        if node_res <= RESIDUAL_TOL and (
            _TAIL_DOUBT[0] < system.tail(u) < _TAIL_DOUBT[1]
        ):
            u, projected, node_res = system.polish(u, projected, node_res)
        evaluations += system.evaluations
        builds += system.builds
        steps += system.steps
        f1, f2, omega = system.boundaries(u)
        tail = system.tail(u)
        if tail <= _TAIL_TOL:
            if node_res > RESIDUAL_TOL:
                raise NonConvergence(
                    f"node residual floor: residual {node_res:.3e} with"
                    f" tail {tail:.3e} at s={s}, m={m}, K={trunc}"
                )
            return BranchPoint(
                s=system.s, omega=omega, f1=f1, f2=f2, residual=node_res,
                m=m, pinned=pinned, evaluations=evaluations, builds=builds,
                newton_steps=steps,
            )
        try:
            _check_bandwidth(m, 2 * trunc, grid.node_count)
        except ValueError:
            raise NonConvergence(
                f"truncation saturated: tail {tail:.3e} at K={trunc}"
            ) from None
        trunc *= 2
        c1 = lattice_values(f1, m, trunc)
        c2 = lattice_values(f2, m, trunc)


def trace_branch(lam, b, m, sign, s_max, steps, trunc=16, grid=None):
    """March the branch from the annulus out to amplitude s_max.

    Returns a TraceResult whose points are the converged BranchPoints in
    increasing s; an unconverged step terminates the trace early with the
    failure recorded in termination_reason, never raising.  An s_max that is
    not positive and finite, or steps below 1, raises ValueError up front.
    """
    _check_amplitude(s_max)
    steps = _check_steps(steps)
    grid = grid if grid is not None else make_grid(256)
    history, reason = [], "completed"
    try:
        # the annulus at (0, Omega*), exact and with nothing pinned, anchors
        # the prediction of point two
        omega_star, _, direction = _kernel_direction(lam, b, m, sign)
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
                initial_guess=guess, trunc=trunc, grid=grid,
            ))
    except (NonConvergence, DegenerateJacobian, ValueError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
    return TraceResult(
        points=tuple(history[1:]), termination_reason=reason,
        completed=reason == "completed",
    )


def omega_intercept(points):
    """(Omega at s -> 0, its bend c2) from the (s, Omega) of a march.

    Omega is even in s (the point at -s is the one at +s turned by pi/m),
    so Omega* + c2 s^2 + c4 s^4 is fitted by least squares over every
    point; two points fit Omega* + c2 s^2.  One point gives its own Omega
    and no bend, none gives (None, None).  The fit runs in s over the
    farthest point's |s| and on Omega less that point's Omega, so that no
    power of s underflows at tiny amplitudes and a flat march fits exactly.
    """
    if len(points) < 2:
        return (points[0].omega if points else None), None
    far = max(points, key=lambda p: abs(p.s))
    fit = np.polyfit([(p.s / far.s) ** 2 for p in points],
                     [p.omega - far.omega for p in points],
                     min(len(points) - 1, 2))
    return float(far.omega + fit[-1]), float(fit[-2] / far.s / far.s)


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

    def reduced(point, side):
        values = lattice_values((point.f1, point.f2)[side], m, count)
        if point.s == 0.0:
            values[0] = direction[side]
        else:
            values[odd] /= point.s
        return values

    def extrapolate(side):
        last = reduced(newer, side)
        values = last + t * (last - reduced(older, side))
        values[odd] *= s
        scale = (newer.f1, newer.f2)[side].scale
        return FourierBoundary(scale, lattice_tuple(m, values))

    try:
        f1, f2 = extrapolate(0), extrapolate(1)
    except ValueError:
        return newer
    omega = newer.omega + t * (newer.omega - older.omega)
    return dataclasses.replace(newer, s=s, omega=omega, f1=f1, f2=f2)


def verify_vstate(point, lam, b, grid=None):
    """Independent residual check of a branch point on a doubled grid.

    symmetry_defect is the coefficient energy off the m-fold lattice
    (exactly zero for solver output; nonzero flags hand-edited data).
    """
    grid = grid if grid is not None else make_grid(256)
    doubled = make_grid(2 * grid.node_count)
    g1, g2 = g_functional(lam, b, point.omega, point.f1, point.f2, doubled)
    residual = max(np.max(np.abs(g1)), np.max(np.abs(g2)))
    defect = 0.0
    for boundary in (point.f1, point.f2):
        for idx, coeff in enumerate(boundary.coefficients):
            if (idx + 1) % point.m != 0:
                defect = math.hypot(defect, coeff)
    return VerifyReport(
        residual=float(residual),
        symmetry_defect=defect,
        omega=point.omega,
    )
