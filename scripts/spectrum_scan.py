"""Scan a (lambda, b) grid and report where bifurcation modes live.

For each grid cell: the threshold orders (n0, N), the limiting rotation
window (Omega_inf^-, Omega_inf^+), and the discriminant sign pattern over
a mode range.  Plain stdout; point the CLI at the same grid for files.

    python scripts/spectrum_scan.py --lambda 0.5:2:4 --b 0.3,0.5,0.7 --n 1:12
"""

import argparse

from qgsw_vstates.cli import parse_float_grid, parse_int_grid
from qgsw_vstates.spectrum import ModeCell, SearchExhausted


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lambda", dest="lambdas", default="0.5:2:4",
                        help="lambda grid (v, v1,v2,..., start:stop:count)")
    parser.add_argument("--b", dest="bs", default="0.3,0.5,0.7")
    parser.add_argument("--n", dest="ns", default="1:12",
                        help="mode range to classify")
    args = parser.parse_args()

    lambdas = parse_float_grid(args.lambdas)
    bs = parse_float_grid(args.bs)
    ns = parse_int_grid(args.ns)

    for lam in lambdas:
        ladder = None  # the first cell's ladder at lam, shared by the row
        for b in bs:
            cell = ModeCell(lam, b, outer=ladder)
            ladder = cell.outer
            try:
                threshold = cell.threshold()
            except SearchExhausted as exc:
                print(f"lam={lam:g} b={b:g}: {exc}")
                continue
            lower, upper = cell.limits()
            marks = []
            for n in ns:
                pair = cell.spectrum(n)[1]
                if pair is None:
                    marks.append(f"{n}:-")
                elif pair.degenerate:
                    marks.append(f"{n}:0")
                else:
                    marks.append(f"{n}:+")
            print(
                f"lam={lam:g} b={b:g}  n0={threshold.n0} N={threshold.n}"
                f"  Omega_inf=({lower:.6f}, {upper:.6f})"
            )
            print(f"  modes {' '.join(marks)}")
            n_first = threshold.n
            pair = cell.spectrum(n_first)[1]
            if pair is not None:
                print(
                    f"  first admissible n={n_first}: "
                    f"Omega=({pair.omega_minus:.8f}, {pair.omega_plus:.8f})"
                    f" delta={pair.discriminant:.3e}"
                )


if __name__ == "__main__":
    main()
