"""Command-line front end: argument parsing and the exit-code mapping.

Each variety subcommand prints one projection of a `PipelineRun`, which
computes only the stages that projection reads: `iseries` the ambient
series, `lefschetz` the twisted variety series, `matrix` the counting
matrix, `periods` and `invert` the period map in both directions, `d3` the
third-order operator and its normalized solution, `modularity` the
candidate table, and `report` every stage.  `verify` recomputes everything
and diffs it against the embedded golden values; like every view it prints
one dict, and its exit status is the `status` that dict holds.  `iseries`
and `lefschetz` run on any Fano complete intersection; every subcommand
that reads the counting matrix refuses one that is not a threefold, with
exit code 2.

The argument parser is built once per process, on the first `main` call,
and reused by every later call.  So are the tables that depend on the job
and not on its numbers, each for the 16 most recently used keys: the plan
of the residue sum per (r, n, d_max) (the cofactors of its Laplace
expansion of c_() and c_(1), the weighted rows its dot products run over
and its denominators), the Euler factors per (degrees, order), the digit
estimate per (ambient, order), and the modularity table's weight-2
Eisenstein numerators per (level, order) and factorials per order.  No
pipeline result outlives its call.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input,
3 internal math error.  All numeric output is exact: integers bare,
other rationals as p/q.  The options are parsed before any stage runs, and
a result too long to convert to text fails as the stage `output`.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from functools import cache

from .pipeline import (
    CATALOG,
    ConfigError,
    PipelineRun,
    StageError,
    _guarded,
    d3_view,
    invert_view,
    iseries_view,
    lefschetz_view,
    load_config,
    matrix_view,
    modularity_view,
    periods_view,
    render,
    render_verify_table,
    serialize_report,
    verify_golden,
)
from .solver import PeriodVector

# Bound here only so that the benchmark's tracer (perfbench/tracer.py) can
# patch them at this site; the subcommands reach them through the pipeline,
# except the reference chain of `pencil_operator`, which no stage calls.
from .d3 import (  # noqa: F401
    apply_operator,
    build_pencil,
    frobenius_solve,
    left_divide_by_D,
    modularity_report,
    right_determinant,
)
from .lefschetz import ci_geometry, lefschetz_shift, quantum_lefschetz  # noqa: F401
from .pipeline import ambient_series, run_pipeline  # noqa: F401
from .solver import discriminant, forward_periods, invert_periods, recover_matrix  # noqa: F401


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanocount",
        description="Exact counting matrices and D3 operators for Fano threefolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, view=None) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(view=view)
        p.add_argument(
            "--variety",
            required=True,
            help=f"catalog name ({', '.join(sorted(CATALOG))}) or JSON config path",
        )
        p.add_argument("--order", default="7", help="series length (default 7)")
        p.add_argument(
            "--format", choices=("json", "text"), default="text", help="output format"
        )
        return p

    add("iseries", "ambient-space hyperplane I-series", iseries_view)
    add("lefschetz", "variety I-series after the Euler twist", lefschetz_view)
    add("matrix", "counting matrix recovered from the series", matrix_view)
    add("periods", "period vector and discriminant of the counting matrix", periods_view)
    inv = add("invert", "counting matrix recovered from a period vector", invert_view)
    inv.add_argument(
        "--periods",
        help="comma-separated d2,d3,d4,d5,d6 (default: the variety's own periods)",
    )
    inv.add_argument("--deg", help="anticanonical degree for the output matrix")
    d3p = add("d3", "third-order operator and its normalized solution", d3_view)
    d3p.add_argument(
        "--lambda", dest="lam", default="0", help="pencil shift, a rational P/Q"
    )
    add("modularity", "candidate identification table for the D3 solutions", modularity_view)
    add("report", "full pipeline report")
    ver = sub.add_parser("verify", help="recompute and diff all golden values")
    ver.add_argument("--variety", default="all", help="V10, V14 or all (default all)")
    ver.add_argument("--format", choices=("json", "text"), default="text")
    ver.add_argument(
        "--corrupt",
        help="negative control: corrupt one golden entry, e.g. V10:matrix.a01",
    )
    return parser


# The documented forms [+-]P and [+-]P/Q.  `Fraction` alone would also take
# exponents ("1e-6000000" would build 10^6000000 before any check ran), and
# `int` alone digit separators ("1_0").
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")


def _rational(text: str, what: str) -> Fraction:
    if not _RATIONAL.fullmatch(text):
        raise ConfigError(f"bad {what}: {text!r} is not of the form P or P/Q")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _integer(text: str, what: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise ConfigError(f"bad {what}: {text!r} is not of the form P")
    try:
        return int(text)
    except ValueError as exc:  # past the interpreter's digit limit
        raise ConfigError(f"bad {what}: {exc}") from exc


def _parse_periods(text: str) -> PeriodVector:
    parts = text.split(",")
    if len(parts) != 5:
        raise ConfigError("--periods needs exactly five comma-separated rationals")
    return PeriodVector(*(_rational(p, "rational in --periods") for p in parts))


def _run_command(args: argparse.Namespace) -> int:
    cmd = args.command
    if cmd == "verify":
        data = verify_golden(args.variety, corrupt=args.corrupt)
        sys.stdout.write(render_verify_table(data, args.format))
        return data["status"]

    config = load_config(args.variety)
    order = _integer(args.order, "--order")
    if order < 1:
        raise ConfigError("--order must be positive")
    options = ()
    if cmd == "d3":
        options = (_rational(args.lam, "--lambda"),)
    elif cmd == "invert":
        deg = None if args.deg is None else _integer(args.deg, "--deg")
        if deg is not None and deg < 1:
            raise ConfigError("--deg must be positive")
        options = (None if args.periods is None else _parse_periods(args.periods), deg)
    run = PipelineRun(config, order)
    if cmd == "report":
        out = _guarded("output", lambda: serialize_report(run.complete(), args.format))
    else:
        out = _guarded("output", lambda: render(*args.view(run, *options), args.format))
    sys.stdout.write(out)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except StageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        original = exc.original
        return 2 if isinstance(original, ValueError) else 3
    except ConfigError as exc:
        sys.stderr.write(f"error: stage config: {type(exc).__name__}: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: stage input: {type(exc).__name__}: {exc}\n")
        return 2
    except ArithmeticError as exc:
        sys.stderr.write(f"error: stage compute: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
