"""Trace both bifurcating branches at one (lambda, b) and print the march.

Picks m = N + 2 by default (two above the threshold, comfortably inside
the admissible range), runs the plus and minus branches to s_max, then
re-verifies every endpoint on a doubled grid and compares the s -> 0
extrapolation of Omega with the spectral pair Omega_m^-/+.  As in the CLI,
--grid-size is a floor: the march runs on the least even P at or above it
that m divides (contour.fold_grid), and the endpoints are re-verified on
twice the requested size, independent of that P.  After each sign it
prints the process's peak resident memory, so a large-P march shows its
cost in memory as well as time.

    python scripts/branch_demo.py --lambda 1 --b 0.5 --s-max 5e-3 --steps 8
"""

import argparse
import resource
import time

from qgsw_vstates.continuation import (
    omega_intercept,
    trace_branch,
    verify_vstate,
)
from qgsw_vstates.contour import fold_grid, make_grid
from qgsw_vstates.spectrum import ModeCell


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0)
    parser.add_argument("--b", type=float, default=0.5)
    parser.add_argument("--m", type=int, default=0,
                        help="fold count (default: threshold + 2)")
    parser.add_argument("--s-max", dest="s_max", type=float, default=5e-3)
    parser.add_argument("--steps", type=int, default=8)
    parser.add_argument("--trunc", type=int, default=16)
    parser.add_argument("--grid-size", dest="grid_size", type=int, default=256)
    args = parser.parse_args()

    lam, b = args.lam, args.b
    cell = ModeCell(lam, b)
    threshold = cell.threshold()
    m = args.m if args.m > 0 else threshold.n + 2
    try:
        roots = {sign: cell.root(m, sign) for sign in "+-"}
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(f"lam={lam:g} b={b:g}  threshold N={threshold.n}  m={m}")
    print(f"spectral pair: Omega^- = {roots['-'][0]:.10f},"
          f" Omega^+ = {roots['+'][0]:.10f}")

    grid = fold_grid(m, args.grid_size)
    check_grid = make_grid(args.grid_size)
    print(f"grid P={grid.node_count} (floor {args.grid_size}),"
          f" endpoints checked at P={2 * args.grid_size}")
    for sign, (omega_star, (v1, v2), _) in roots.items():
        t0 = time.time()
        trace = trace_branch(lam, b, m, sign, args.s_max, args.steps,
                             trunc=args.trunc, grid=grid)
        elapsed = time.time() - t0
        print(f"\nsign {sign}: {len(trace.points)} points in {elapsed:.1f}s,"
              f" {trace.evaluations} residual evaluations,"
              f" {trace.newton_steps} Newton steps,"
              f" {trace.builds} forward-difference Jacobians"
              f" ({trace.termination_reason})")
        print(f"  {'s':>12} {'Omega':>16} {'residual':>10}")
        for point in trace.points:
            print(f"  {point.s:12.6e} {point.omega:16.10f}"
                  f" {point.residual:10.2e}")
        if len(trace.points) >= 2:
            omega0, bend = omega_intercept(trace.points)
            print(f"  Omega(s->0) = {omega0:.10f}"
                  f"  gap to eigenvalue {abs(omega0 - omega_star):.2e}"
                  f"  bend {'none' if bend is None else f'{bend:.4f}'}")
            first = trace.points[0]
            tangent = first.lattice(1)[:, 0]
            ratio = tangent[1] / tangent[0] if first.pinned == "outer" \
                else tangent[0] / tangent[1]
            target = v2 / v1 if first.pinned == "outer" else v1 / v2
            print(f"  tangent ratio {ratio:.6f} vs kernel {target:.6f}")
        if trace.points:
            report = verify_vstate(trace.points[-1], lam, b, grid=check_grid)
            print(f"  endpoint on doubled grid: residual {report.residual:.2e}"
                  f" symmetry defect {report.symmetry_defect:.1e}")
        # ru_maxrss is in KiB on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"  peak RSS so far {peak:.1f} MB")


if __name__ == "__main__":
    main()
