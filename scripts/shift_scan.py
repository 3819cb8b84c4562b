"""Scan the operator pencil shift and compare solutions to candidates.

For each catalog variety this builds the third-order operator at a range
of shifts lambda, solves it by the Frobenius recursion, and checks two
identifications of the solution:

  twist      the factorial transform of e^(lambda q) times the variety's
             hyperplane series, which experimentally matches at every
             shift, canonical or not;
  eisenstein the weight-2 level-N Eisenstein q-expansion, which agrees
             through q^1 only at lambda = alpha and nowhere longer on the
             scanned grid.

Run as: python3 scripts/shift_scan.py [--span K] [--order M]
"""

import argparse
from fractions import Fraction

from fanocount.d3 import (
    eisenstein_weight2,
    factorial_transform,
    first_mismatch,
    frobenius_solve,
    pencil_operator,
)
from fanocount.exactmath import exp_twist
from fanocount.pipeline import CATALOG, run_pipeline

F = Fraction


def scan(name: str, span: int, order: int) -> None:
    report = run_pipeline(CATALOG[name], order=max(order, 5))
    matrix = report.matrix
    alpha = report.alpha
    level = matrix.deg // 2
    eisenstein = eisenstein_weight2(level, order)
    c0 = report.variety_pair.c0

    shifts = sorted({F(k) for k in range(-span, span + 1)} | {alpha, -alpha, F(1, 2)})
    print(f"{name}: deg = {matrix.deg}, alpha = {alpha}, level N = {level}")
    print(f"  {'lambda':>7}  {'twist':>12}  {'eisenstein':>12}")
    for lam in shifts:
        solution = frobenius_solve(pencil_operator(matrix, lam), order)
        twist_m = first_mismatch(solution, factorial_transform(exp_twist(c0, lam)))
        eis_m = first_mismatch(solution, eisenstein)
        fmt = lambda m: "agrees" if m is None else f"differs@{m}"
        marker = "  <- alpha" if lam == alpha else ""
        print(f"  {str(lam):>7}  {fmt(twist_m):>12}  {fmt(eis_m):>12}{marker}")
    print()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--span", type=int, default=7, help="scan lambda in [-span, span]")
    parser.add_argument("--order", type=int, default=8, help="series truncation order")
    args = parser.parse_args(argv)
    for name in sorted(CATALOG):
        scan(name, args.span, args.order)


if __name__ == "__main__":
    main()
