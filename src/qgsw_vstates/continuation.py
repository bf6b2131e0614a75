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

The Jacobian is assembled by central finite differences of the projected
residual and solved densely; steps are damped by halving on residual
increase.  Truncation doubles automatically if the last retained
coefficient is above 1e-12 (it never is near the bifurcation point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contour import (
    FourierBoundary,
    g_functional,
    make_grid,
    real_fourier,
)
from .spectrum import _simple_root

RESIDUAL_TOL = 1e-10
_MAX_ITERATIONS = 50
_MAX_HALVINGS = 8
_CONDITION_CAP = 1e14
_TAIL_TOL = 1e-12


class NonConvergence(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""


class DegenerateJacobian(RuntimeError):
    """Projected Jacobian condition estimate exceeded the cap."""


@dataclass(frozen=True)
class BranchPoint:
    """One converged point on a bifurcating branch.

    s is the value of the pinned lattice coefficient (f1's a_{m-1} when
    pinned == "outer", f2's when "inner"); all coefficients off the m-fold
    lattice are exact zeros by construction.
    """

    s: float
    omega: float
    f1: FourierBoundary
    f2: FourierBoundary
    residual: float
    m: int
    pinned: str


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
    values = np.zeros(count)
    for k in range(count):
        idx = m * (k + 1) - 1
        if idx < len(boundary.coefficients):
            values[k] = boundary.coefficients[idx]
    return values


class _ProjectedSystem:
    """Projected m-fold residual with one pinned coefficient."""

    def __init__(self, lam, b, m, trunc, grid, pinned, s):
        self.lam = lam
        self.b = b
        self.m = m
        self.trunc = trunc
        self.grid = grid
        self.pinned = pinned
        self.s = s

    def boundaries(self, u):
        c1 = np.empty(self.trunc)
        c2 = np.empty(self.trunc)
        if self.pinned == "outer":
            c1[0] = self.s
            c1[1:] = u[: self.trunc - 1]
            c2[:] = u[self.trunc - 1 : 2 * self.trunc - 1]
        else:
            c2[0] = self.s
            c1[:] = u[: self.trunc]
            c2[1:] = u[self.trunc : 2 * self.trunc - 1]
        f1 = FourierBoundary(1.0, lattice_tuple(self.m, c1))
        f2 = FourierBoundary(self.b, lattice_tuple(self.m, c2))
        return f1, f2, u[-1]

    def pack(self, c1, c2, omega):
        free = []
        if self.pinned == "outer":
            free.extend(c1[1:])
            free.extend(c2)
        else:
            free.extend(c1)
            free.extend(c2[1:])
        free.append(omega)
        return np.array(free)

    def residual(self, u):
        """(projected residual vector, max node residual)."""
        f1, f2, omega = self.boundaries(u)
        g1, g2 = g_functional(self.lam, self.b, omega, f1, f2, self.grid)
        modes = self.m * np.arange(1, self.trunc + 1)
        _, _, sine1 = real_fourier(g1, self.grid)
        _, _, sine2 = real_fourier(g2, self.grid)
        projected = np.concatenate([sine1[modes], sine2[modes]])
        node_res = max(np.max(np.abs(g1)), np.max(np.abs(g2)))
        return projected, node_res

    def jacobian(self, u):
        step = 1e-7 * max(1.0, float(np.linalg.norm(u)))
        size = u.size
        jac = np.empty((size, size))
        for i in range(size):
            bump = np.zeros(size)
            bump[i] = step
            plus, _ = self.residual(u + bump)
            minus, _ = self.residual(u - bump)
            jac[:, i] = (plus - minus) / (2.0 * step)
        return jac


def newton_solve(lam, b, m, sign, s, initial_guess=None, trunc=16, grid=None):
    """Solve the projected m-fold system at amplitude s.

    initial_guess may be a BranchPoint (warm start along a branch) or None,
    in which case the annulus plus s times the kernel direction is used.
    Raises NonConvergence or DegenerateJacobian; ball-guard violations of
    candidate boundaries surface as ValueError before any iteration.
    """
    grid = grid if grid is not None else make_grid(256)
    m = int(m)
    trunc = int(trunc)
    if m < 1:
        raise ValueError(f"fold count must be >= 1; got {m}")
    if trunc < 2:
        raise ValueError(f"truncation must be >= 2; got {trunc}")
    if m * trunc > grid.node_count // 2:
        raise ValueError(
            f"m*trunc = {m * trunc} exceeds the grid bandwidth"
            f" {grid.node_count // 2}"
        )
    omega_star, (v1, v2), _ = _simple_root(m, lam, b, sign)
    pinned = "outer" if abs(v1) >= abs(v2) else "inner"
    if initial_guess is None:
        c1 = np.zeros(trunc)
        c2 = np.zeros(trunc)
        if pinned == "outer":
            c1[0] = s
            c2[0] = s * v2 / v1
        else:
            c2[0] = s
            c1[0] = s * v1 / v2
        omega = omega_star
    else:
        c1 = lattice_values(initial_guess.f1, m, trunc)
        c2 = lattice_values(initial_guess.f2, m, trunc)
        omega = initial_guess.omega

    # solve at trunc; while the last lattice coefficient of the solution is
    # above _TAIL_TOL, pad the coefficients and solve again at twice trunc
    while True:
        system = _ProjectedSystem(lam, b, m, trunc, grid, pinned, float(s))
        u = system.pack(c1, c2, omega)
        # the pinned coordinate is not in u; constructing the boundaries
        # checks the ball guard on the guess itself
        system.boundaries(u)
        projected, node_res = system.residual(u)
        norm = np.linalg.norm(projected)
        for _ in range(_MAX_ITERATIONS):
            if node_res <= RESIDUAL_TOL:
                break
            jac = system.jacobian(u)
            cond = np.linalg.cond(jac)
            if not np.isfinite(cond) or cond > _CONDITION_CAP:
                raise DegenerateJacobian(
                    f"condition estimate {cond:.3e} at s={s}, m={m}"
                )
            delta = np.linalg.solve(jac, -projected)
            step_scale = 1.0
            for _ in range(_MAX_HALVINGS + 1):
                try:
                    trial = u + step_scale * delta
                    trial_proj, trial_res = system.residual(trial)
                except ValueError:
                    step_scale *= 0.5
                    continue
                trial_norm = np.linalg.norm(trial_proj)
                if trial_norm < norm:
                    u, projected, node_res, norm = (
                        trial,
                        trial_proj,
                        trial_res,
                        trial_norm,
                    )
                    break
                step_scale *= 0.5
            else:
                raise NonConvergence(
                    f"damping exhausted at s={s}, m={m}"
                    f" (residual {node_res:.3e})"
                )
        if not node_res <= RESIDUAL_TOL:
            raise NonConvergence(
                f"iteration cap reached at s={s}, m={m}"
                f" (residual {node_res:.3e})"
            )
        f1, f2, omega = system.boundaries(u)
        tail = max(abs(lattice_values(f, m, trunc)[-1]) for f in (f1, f2))
        if tail <= _TAIL_TOL:
            return BranchPoint(
                s=system.s,
                omega=omega,
                f1=f1,
                f2=f2,
                residual=node_res,
                m=m,
                pinned=pinned,
            )
        if m * 2 * trunc > grid.node_count // 2:
            raise NonConvergence(
                f"truncation saturated: tail {tail:.3e} at K={trunc}"
            )
        trunc *= 2
        c1 = lattice_values(f1, m, trunc)
        c2 = lattice_values(f2, m, trunc)


def trace_branch(lam, b, m, sign, s_max, steps, trunc=16, grid=None):
    """March the branch from the annulus out to amplitude s_max.

    Returns a TraceResult whose points are the converged BranchPoints in
    increasing |s|; an unconverged step terminates the trace early with the
    failure recorded in termination_reason, never raising.
    """
    grid = grid if grid is not None else make_grid(256)
    steps = int(steps)
    if steps < 1:
        raise ValueError(f"steps must be >= 1; got {steps}")
    points = []
    previous = None
    for k in range(1, steps + 1):
        s = s_max * k / steps
        try:
            point = newton_solve(
                lam, b, m, sign, s,
                initial_guess=previous, trunc=trunc, grid=grid,
            )
        except (NonConvergence, DegenerateJacobian, ValueError) as exc:
            return TraceResult(
                points=tuple(points),
                termination_reason=f"{type(exc).__name__}: {exc}",
                completed=False,
            )
        points.append(point)
        previous = point
    return TraceResult(
        points=tuple(points), termination_reason="completed", completed=True
    )


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
