"""End-to-end pipeline: ambient series, Euler twist, counting matrix,
periods, third-order operator, and the candidate-identification table, as
one stage chain (`PipelineRun`) whose stages are computed once, on first
access.  `run_pipeline` computes them all for the full report; the `*_view`
projections print the stages each subcommand reads.

The built-in catalog holds the two section varieties the library is
checked against; any other configuration runs through the same stages but
its report is marked unverified.  `verify_golden` recomputes every golden
quantity from scratch and diffs it against the embedded table, with one
documented exception: the degree-3 constant term of the second catalog
variety, where the derived value 52 disagrees with a published table entry
of 2; the derived value is the one consistent with the counting matrix, so
the row is flagged rather than matched.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, factorial, lcm, lgamma, log, log10
from pathlib import Path

from .d3 import (
    DifferentialOperator,
    ModularityReport,
    apply_operator,
    frobenius_solve,
    modularity_report,
    pencil_operator,
)
from .exactmath import ENTRY_VARS, PowerSeries, Rational, ratio_str
from .grassmann import (
    GrassmannianSpec,
    HSeriesPair,
    extract_h_pair,
    hv_iseries,
    projective_iseries,
)
from .lefschetz import CompleteIntersectionSpec, ci_geometry, lefschetz_shift, quantum_lefschetz
from .relations import ENTRY_LAYOUT
from .solver import (
    CountingMatrix, PeriodVector, discriminant, forward_periods, invert_periods, recover_matrix,
)

# Bound here only so that the benchmark's tracer (perfbench/tracer.py) can
# patch them at this site.  No stage calls them: `pencil_operator` writes
# the operator in closed form, and this chain is the reference for it.
from .d3 import build_pencil, left_divide_by_D, right_determinant  # noqa: F401


class ConfigError(ValueError):
    """A variety configuration that cannot be loaded or validated."""


class StageError(Exception):
    """A pipeline stage failed; carries the stage name and original error."""

    def __init__(self, stage: str, original: Exception):
        self.stage = stage
        self.original = original
        super().__init__(f"stage {stage}: {type(original).__name__}: {original}")


@dataclass(frozen=True)
class VarietyConfig(CompleteIntersectionSpec):
    """A complete intersection in a Grassmannian (projective space is the
    rank-1 case), under the name it is loaded by."""

    name: str | None = None

    @property
    def in_catalog(self) -> bool:
        return CATALOG.get(self.name) == self


CATALOG: dict[str, VarietyConfig] = {
    "V10": VarietyConfig(GrassmannianSpec(2, 5), (1, 1, 2), "V10"),
    "V14": VarietyConfig(GrassmannianSpec(2, 6), (1, 1, 1, 1, 1), "V14"),
}


def load_config(source: str) -> VarietyConfig:
    """Resolve a catalog name or a JSON config file path."""
    if source in CATALOG:
        return CATALOG[source]
    path = Path(source)
    if not path.is_file():
        raise ConfigError(f"{source!r} is neither a catalog name nor a config file")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    # ValueError covers json.JSONDecodeError, UnicodeDecodeError and an integer
    # literal past sys.get_int_max_str_digits()
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {source}: {exc}") from exc
    return parse_config(raw)


_CONFIG_FIELDS = frozenset({"name", "ambient", "degrees"})
_AMBIENT_FIELDS = {
    "grassmannian": frozenset({"type", "r", "n"}),
    "projective": frozenset({"type", "n"}),
}


def _integer(value: object, field: str) -> int:
    """A config integer: a JSON integer, never a bool, float or string."""
    if type(value) is not int:
        raise ConfigError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _required(raw: dict, key: str, prefix: str = "") -> object:
    if key not in raw:
        raise ConfigError(f"missing field {prefix + key!r}")
    return raw[key]


def _known_fields(raw: dict, allowed: frozenset, prefix: str) -> None:
    unknown = sorted(str(key) for key in raw if key not in allowed)
    if unknown:
        raise ConfigError(f"unknown field {prefix + unknown[0]!r}")


def parse_config(raw: object) -> VarietyConfig:
    """A VarietyConfig from a decoded JSON object, accepting nothing but the schema."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _known_fields(raw, _CONFIG_FIELDS, "")
    ambient_raw = _required(raw, "ambient")
    if not isinstance(ambient_raw, dict):
        raise ConfigError("field 'ambient' must be a JSON object")
    kind = _required(ambient_raw, "type", "ambient.")
    if not isinstance(kind, str) or kind not in _AMBIENT_FIELDS:
        raise ConfigError(
            f"field 'ambient.type' must be 'grassmannian' or 'projective', got {kind!r}"
        )
    _known_fields(ambient_raw, _AMBIENT_FIELDS[kind], "ambient.")
    n = _integer(_required(ambient_raw, "n", "ambient."), "ambient.n")
    if kind == "grassmannian":
        r = _integer(_required(ambient_raw, "r", "ambient."), "ambient.r")
    else:
        r, n = 1, n + 1
    degrees_raw = _required(raw, "degrees")
    if not isinstance(degrees_raw, list):
        raise ConfigError("field 'degrees' must be a list of integers")
    degrees = tuple(_integer(d, f"degrees[{i}]") for i, d in enumerate(degrees_raw))
    name = raw.get("name")
    if name is not None and not isinstance(name, str):
        raise ConfigError("field 'name' must be a string")
    try:
        return VarietyConfig(GrassmannianSpec(r, n), degrees, name)
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


# Job-size limits, checked before any stage runs in this order.  Cold
# `ambient_series` (2-vCPU Xeon, Python 3.11.7) takes 0.006-0.08 s on the
# largest job MAX_RESIDUE_WORK admits for each r = 4..7 (0.14-0.37 s when
# the limit was set); no lower multiple of 10^7 admits G(2,30000) at order
# 13 without a digit limit.
MAX_ORDER = 30
MAX_RESIDUE_WORK = 9 * 10**7


def _residue_work(ambient: GrassmannianSpec, order: int, digits: Fraction) -> int:
    """r! (order^2 (D + 300) + 100 r^2), r = min(r, n - r), D = `digits`.
    Set on a Leibniz sum of 2 r! terms and kept, so that the jobs it admits
    stay the same, it over-counts the Laplace expansion `hv_iseries` runs:
    at most (r + 1) 2^r terms (4, 16, 47 at r = 2..4) of order (order+1)/2
    products each, within 1.6 r! order^2 at r <= 4 and below r! order^2
    past it, in C dot products far cheaper than 300 digits per product,
    and a sign check at one point.  The factorial stops past
    MAX_RESIDUE_WORK, so a huge r costs one step."""
    r = min(ambient.r, ambient.n - ambient.r)
    work = order * order * (ceil(digits) + 300) + 100 * r * r
    for i in range(2, r + 1):
        if work > MAX_RESIDUE_WORK:
            break
        work *= i
    return work


@lru_cache(maxsize=16)
def _coefficient_digits(ambient: GrassmannianSpec, order: int) -> Fraction:
    """Estimated decimal digits of the largest integer the series of G(r, n)
    prints through q^(order-1), with r = min(r, n - r): the coefficients of
    q^d have denominators dividing (d!)^n lcm(1..d), and their size stays
    below (10n)^r on every G(r, n) the tests measure.  n and r multiply the
    exact integer ratios of the logs, so an n or r past the float range is
    sized too.  A pure function of its arguments, kept per process for the
    16 most recently used, like the residue sum's plans."""
    n, r = ambient.n, min(ambient.r, ambient.n - ambient.r)
    logs = factorial(order - 1), 10 * n, lcm(*range(1, order))
    (a, p), (b, q), (c, s) = (log10(x).as_integer_ratio() for x in logs)
    return Fraction((n * a * q + r * b * p) * s + c * p * q, p * q * s)


def _variety_digits(config: VarietyConfig, order: int, alpha: Fraction, digits: Fraction) -> float:
    """Estimated decimal digits of the largest integer the variety series
    prints through q^(order-1), at d = order - 1: the ambient estimate
    `digits` at this order, plus the Euler factor prod_j (d_j d)! less the
    (d!)^(sum d_j) it cancels from the ambient denominators, plus the twist's
    alpha^d, with alpha counted by its height max(|numerator|, denominator).
    Under a digit limit the job-size check has already bounded n, and with it
    every degree d_j < n of a Fano intersection, so the floats here stay in range."""
    d = order - 1
    return (
        digits
        + sum(lgamma(dj * d + 1) - dj * lgamma(d + 1) for dj in config.degrees) / log(10)
        + d * log10(max(abs(alpha.numerator), alpha.denominator))
    )


def _check_digits(what: str, order: int, digits: Fraction | float) -> None:
    # Python 3.10 before 3.10.7 has no limit on integer string conversion
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        try:
            about = f"about {round(digits)}"
        except ValueError:  # the figure is itself too long to print
            about = f"at least 10^{limit}"
        raise ConfigError(
            f"coefficients of {what} at order {order} need {about} "
            f"digits, past the limit sys.get_int_max_str_digits() = {limit}"
        )


def ambient_series(ambient: GrassmannianSpec, order: int) -> HSeriesPair:
    """Hyperplane-class I-series of the ambient space through q^(order-1).

    G(r, n) and G(n - r, n) are the same variety, so the residue sum runs
    over the smaller of r and n - r roots, and G(n - 1, n) is projective.
    """
    r = min(ambient.r, ambient.n - ambient.r)
    if r == 1:
        return projective_iseries(ambient.n, order - 1)
    return extract_h_pair(hv_iseries(GrassmannianSpec(r, ambient.n), order - 1))


def _guarded(stage: str, fn, *args):
    """Call fn(*args), raising any failure as a StageError of the stage."""
    try:
        return fn(*args)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc


class _stage:
    """`@_stage(name)`: a run attribute computed once, on first access,
    inside the guard of stage `name`.  A non-data descriptor: the value is
    stored in the run's `__dict__`, which later lookups read first, with no
    lock (a run belongs to one thread); a failing stage stores nothing and
    raises again on every access."""

    def __init__(self, name: str):
        self.name = name

    def __call__(self, compute):
        self.compute, self.attr = compute, compute.__name__
        return self

    def __get__(self, run, owner=None):
        if run is None:
            return self
        value = run.__dict__[self.attr] = _guarded(self.name, self.compute, run)
        return value


class PipelineRun:
    """The stage chain for one variety at one order, stages in chain order.

    The series stages run on any Fano complete intersection; `matrix` and
    every stage after it refuse one that is not a threefold.  Each stage
    returns its value or raises a `StageError` that names it.  An order that
    is not an `int` >= 1, or a job past a limit, is refused before any stage;
    a variety series too long to print is refused by its stage before the
    Lefschetz transform runs.  Every order >= 1 reaches the matrix, so the
    series stages compute through at least q^4 (order 5), and the work and
    digit limits size the order they compute, not the order requested.
    """

    def __init__(self, config: VarietyConfig, order: int = 7):
        if type(order) is not int or order < 1:
            raise ConfigError(f"order must be an integer >= 1, got {order!r}")
        if order > MAX_ORDER:
            raise ConfigError(f"order {order} exceeds the limit MAX_ORDER = {MAX_ORDER}")
        # the order the series stages compute to: matrix recovery reads the
        # series through q^4 whatever the order
        self._series_order = m = max(order, 5)
        ambient, what = config.ambient, f"G({config.ambient.r},{config.ambient.n})"
        self._ambient_digits = digits = _coefficient_digits(ambient, m)
        _check_digits(what, m, digits)
        if _residue_work(ambient, m, digits) > MAX_RESIDUE_WORK:
            raise ConfigError(
                f"residue-sum work for {what} at order {m} exceeds the limit "
                f"MAX_RESIDUE_WORK = {MAX_RESIDUE_WORK}"
            )
        self.config = config
        self.order = order
        self.verified = config.in_catalog
        # keyed by (numerator, denominator), which hash in C for an int
        # and a Fraction shift alike
        self._operators: dict[tuple[int, int], DifferentialOperator] = {}
        self._solutions: dict[tuple[int, int], PowerSeries] = {}

    @_stage("grassmann")
    def ambient_pair(self) -> HSeriesPair:
        return ambient_series(self.config.ambient, self._series_order)

    @_stage("lefschetz")
    def geometry(self) -> CompleteIntersectionSpec:
        return ci_geometry(self.config)

    @_stage("lefschetz")
    def alpha(self) -> Fraction:
        return lefschetz_shift(self.config, self.ambient_pair.c0)

    @_stage("lefschetz")
    def variety_pair(self) -> HSeriesPair:
        self.geometry  # refuses a non-Fano intersection before the ambient series
        # the ambient series may print while the variety series may not
        order = self._series_order
        digits = _variety_digits(self.config, order, self.alpha, self._ambient_digits)
        _check_digits("the variety series", order, digits)
        return quantum_lefschetz(self.ambient_pair, self.config, self.alpha)

    @_stage("solver")
    def matrix(self) -> CountingMatrix:
        geometry = self.geometry
        if geometry.dimension != 3:
            raise ValueError(
                f"complete intersection has dimension {geometry.dimension}, not 3; "
                "a counting matrix needs a threefold"
            )
        return recover_matrix(self.variety_pair, geometry.anticanonical_degree)

    @_stage("solver")
    def periods(self) -> PeriodVector:
        return forward_periods(self.matrix)

    @_stage("solver")
    def disc(self) -> Fraction:
        return discriminant(self.periods)

    def operator_at(self, lam: Rational) -> DifferentialOperator:
        """The pencil operator at shift lam, built at most once per run."""
        key = lam.numerator, lam.denominator
        op = self._operators.get(key)
        if op is None:
            op = self._operators[key] = pencil_operator(self.matrix, lam)
        return op

    def solution_at(self, lam: Rational) -> PowerSeries:
        """The normalized solution of the operator at shift lam through
        t^(order-1), solved at most once per run."""
        key = lam.numerator, lam.denominator
        solution = self._solutions.get(key)
        if solution is None:
            solution = self._solutions[key] = frobenius_solve(self.operator_at(lam), self.order)
        return solution

    @_stage("d3")
    def operator(self) -> DifferentialOperator:
        return self.operator_at(0)

    @_stage("d3")
    def solution(self) -> PowerSeries:
        return self.solution_at(0)

    @_stage("d3")
    def modularity(self) -> ModularityReport:
        # the matrix first, which refuses a non-threefold; N = (-K)^3 / (2 r^2),
        # which is deg/2 at index 1
        level = Fraction(self.matrix.deg, 2 * self.config.fano_index**2)
        series = self.variety_pair.c0.truncate(self.order)
        return modularity_report(series, self.alpha, level, self.solution_at)

    @property
    def notes(self) -> tuple[str, ...]:
        notes = [] if self.verified else [
            "configuration is not in the verified catalog; unverified output"
        ]
        if self.verified and self.config.name == "V14":
            notes.append(
                "q^3 constant term: derived 52; a published table prints 2; "
                "52 is the matrix-consistent value (5*64/18 + 924/27 = 52)"
            )
        return tuple(notes)

    def complete(self) -> "PipelineRun":
        """Compute every stage, as the full report needs."""
        for name, attr in vars(PipelineRun).items():
            if isinstance(attr, _stage):
                getattr(self, name)
        return self


def run_pipeline(config: VarietyConfig, order: int = 7) -> PipelineRun:
    """Chain every stage for one variety."""
    return PipelineRun(config, order).complete()


# -- projections: each view returns one subcommand's JSON dict and text lines --


View = tuple[dict, list[str]]


def _numerator_strs(x: PowerSeries | CountingMatrix | PeriodVector) -> list[str]:
    """The values of a series, matrix or period vector as `str` prints them,
    read off `x.nums` over `x.den`."""
    return [ratio_str(c, x.den) for c in x.nums]


_quote = json.encoder.encode_basestring_ascii


def _json(value: object, indent: str) -> str:
    """`value` as `json.dumps(value, indent=2, sort_keys=True)` writes it at
    the nesting `indent`: every string through the C string encoder, and the
    items of a list of strings joined in C.  Only dict, list, str, int, bool
    and None are written; any other type, or a dict key that is not a str
    (which the string encoder refuses), raises TypeError."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is list:
        if not value:
            return "[]"
        if set(map(type, value)) == {str}:
            body = sep.join(map(_quote, value))
        else:
            body = sep.join([_json(item, inner) for item in value])
        return f"[\n{inner}{body}\n{indent}]"
    if kind is dict:
        if not value:
            return "{}"
        body = sep.join([
            f"{_quote(key)}: {_quote(item) if type(item) is str else _json(item, inner)}"
            for key, item in sorted(value.items())
        ])
        return f"{{\n{inner}{body}\n{indent}}}"
    raise TypeError(f"cannot write {kind.__name__} as JSON")


def render(data: dict, lines: list[str], format: str) -> str:
    """Deterministic JSON or text; identical inputs, identical bytes.  The
    JSON is byte-identical to `json.dumps(data, indent=2, sort_keys=True)`
    and ends in a newline; a value of any type but dict, list, str, int, bool
    and None raises TypeError."""
    if format == "json":
        return _json(data, "") + "\n"
    if format != "text":
        raise ConfigError(f"unknown format {format!r}")
    return "\n".join(lines) + "\n"


def matrix_dict(matrix: CountingMatrix) -> dict:
    """The entries and the rows of `CountingMatrix.rows` as printed, the rows
    laid out by `ENTRY_LAYOUT`."""
    entries = dict(zip(ENTRY_VARS, _numerator_strs(matrix)))
    rows = [[entries[a] if isinstance(a, str) else str(a) for a in row] for row in ENTRY_LAYOUT]
    return {"deg": matrix.deg, "entries": entries, "rows": rows}


def matrix_lines(matrix: CountingMatrix) -> list[str]:
    rows = matrix_dict(matrix)["rows"]
    width = max(len(x) for row in rows for x in row)
    return ["  ".join(x.rjust(width) for x in row) for row in rows]


def modularity_dict(rep: ModularityReport) -> dict:
    return {
        "level": rep.level,
        "alpha": str(rep.alpha),
        "order": rep.order,
        "rows": [
            {
                "lambda": str(r.lam),
                "candidate": r.candidate,
                "first_mismatch": r.first_mismatch,
                # always null; pinned in the CLI digests and the perfbench oracles
                "error": None,
            }
            for r in rep.rows
        ],
    }


def modularity_lines(data: dict) -> list[str]:
    lines = []
    for r in data["rows"]:
        miss = "agrees to order" if r["first_mismatch"] is None else f"differs at {r['first_mismatch']}"
        lines.append(f"lambda {r['lambda']:>4}  {r['candidate']:<32} {miss}")
    return lines


def _pair_view(pair: HSeriesPair, order: int) -> View:
    c0, c1 = _numerator_strs(pair.c0.truncate(order)), _numerator_strs(pair.c1.truncate(order))
    return {"c0": c0, "c1": c1}, ["c0: " + " ".join(c0), "c1: " + " ".join(c1)]


def iseries_view(run: PipelineRun) -> View:
    ambient = run.config.ambient
    data, lines = _pair_view(run.ambient_pair, run.order)
    data["ambient"] = {"r": ambient.r, "n": ambient.n}
    return data, [f"ambient G({ambient.r},{ambient.n})"] + lines


def lefschetz_view(run: PipelineRun) -> View:
    # the variety series first: its stage refuses a series, alpha included,
    # too long to print
    data, lines = _pair_view(run.variety_pair, run.order)
    alpha = data["alpha"] = str(run.alpha)
    return data, [f"shift alpha = {alpha}"] + lines


def matrix_view(run: PipelineRun) -> View:
    return matrix_dict(run.matrix), [f"deg = {run.matrix.deg}"] + matrix_lines(run.matrix)


def periods_view(run: PipelineRun) -> View:
    periods = run.periods
    data = {
        "periods": _numerator_strs(periods),
        "discriminant": str(run.disc),
    }
    return data, [
        "d2..d6: " + " ".join(data["periods"]),
        f"discriminant: {data['discriminant']}",
    ]


def invert_view(run: PipelineRun, periods: PeriodVector | None = None, deg: int | None = None) -> View:
    """Invert the given periods, or the variety's own with a roundtrip check;
    the output degree defaults to the variety's."""
    vector = run.periods if periods is None else periods
    deg = run.matrix.deg if deg is None else deg
    recovered = _guarded("solver", invert_periods, vector, deg)
    data = matrix_dict(recovered)
    data["periods"] = _numerator_strs(vector)
    lines = ["periods: " + " ".join(data["periods"]), f"deg = {deg}"] + matrix_lines(recovered)
    if periods is None:
        data["roundtrip_ok"] = recovered == run.matrix
        lines.append(f"roundtrip ok: {data['roundtrip_ok']}")
    return data, lines


def d3_view(run: PipelineRun, lam: Fraction) -> View:
    operator = _guarded("d3", run.operator_at, lam)
    solution = _guarded("d3", run.solution_at, lam)
    residue = apply_operator(operator, solution)
    data = {
        "lambda": str(lam),
        "operator": str(operator),
        "order": operator.order,
        "indicial": [ratio_str(c, operator.den) for c in operator.layers.get(0, ())],
        "solution": _numerator_strs(solution),
        "residue_vanishes": not any(residue.nums),
    }
    return data, [
        f"lambda = {data['lambda']}",
        f"operator = {data['operator']}",
        f"indicial = {' '.join(data['indicial'])}",
        "solution: " + " ".join(data["solution"]),
        f"residue vanishes mod t^{run.order}: {data['residue_vanishes']}",
    ]


def modularity_view(run: PipelineRun) -> View:
    data = modularity_dict(run.modularity)
    header = f"level N = {data['level']}, alpha = {data['alpha']}, order = {data['order']}"
    return data, [header] + modularity_lines(data)


def report_dict(report: PipelineRun) -> dict:
    """Every stage of a completed run as the JSON report, with every
    rational as an exact string."""
    cfg = report.config
    return {
        "name": cfg.name,
        "verified": report.verified,
        "ambient": {"r": cfg.ambient.r, "n": cfg.ambient.n},
        "degrees": list(cfg.degrees),
        "order": report.order,
        "geometry": {
            "dimension": cfg.dimension,
            "fano_index": cfg.fano_index,
            "ambient_plucker_degree": str(cfg.ambient.plucker_degree),
            "anticanonical_degree": str(cfg.anticanonical_degree),
        },
        "alpha": str(report.alpha),
        "ambient_series": _pair_view(report.ambient_pair, report.order)[0],
        "variety_series": _pair_view(report.variety_pair, report.order)[0],
        "matrix": matrix_dict(report.matrix),
        **periods_view(report)[0],
        "d3": {"operator": str(report.operator), "solution": _numerator_strs(report.solution)},
        "modularity": modularity_dict(report.modularity),
        "notes": list(report.notes),
    }


def report_lines(report: PipelineRun) -> list[str]:
    """Every stage of a completed run as the text report, the same strings
    as `report_dict`."""
    cfg = report.config
    ambient_lines = _pair_view(report.ambient_pair, report.order)[1]
    variety_lines = _pair_view(report.variety_pair, report.order)[1]
    periods_lines = periods_view(report)[1]
    tag = "verified catalog entry" if report.verified else "unverified"
    m = modularity_dict(report.modularity)
    return [
        f"variety {cfg.name or '(unnamed)'} [{tag}]",
        f"  ambient G({cfg.ambient.r},{cfg.ambient.n}), degrees {tuple(cfg.degrees)}",
        f"  dimension {cfg.dimension}, index {cfg.fano_index}, "
        f"ambient degree {cfg.ambient.plucker_degree}, "
        f"anticanonical degree {cfg.anticanonical_degree}",
        f"  shift alpha = {report.alpha!s}",
        *("  ambient " + line for line in ambient_lines),
        *("  variety " + line for line in variety_lines),
        "  counting matrix:",
        *("    " + row for row in matrix_lines(report.matrix)),
        "  periods " + periods_lines[0],
        "  " + periods_lines[1],
        f"  operator (shift 0): {report.operator!s}",
        f"  solution: {' '.join(_numerator_strs(report.solution))}",
        f"  modularity level {m['level']}, order {m['order']}:",
        *("    " + line for line in modularity_lines(m)),
        *(f"  note: {note}" for note in report.notes),
    ]


def serialize_report(report: PipelineRun, format: str = "text") -> str:
    """The report in one format, building only what that format prints."""
    if format == "json":
        return render(report_dict(report), [], format)
    return render({}, report_lines(report), format)


# -- golden verification -------------------------------------------------------

_F = Fraction

_GOLDEN: dict[str, dict[str, Fraction]] = {
    "V10": {
        "matrix.a01": _F(156),
        "matrix.a11": _F(10),
        "matrix.a02": _F(3600),
        "matrix.a12": _F(380),
        "matrix.a03": _F(33120),
        "alpha": _F(6),
        "ambient.c0[1]": _F(3),
        "ambient.c0[2]": _F(19, 32),
        "ambient.c0[3]": _F(49, 2592),
        "ambient.c0[4]": _F(139, 884736),
        "series.c0[2]": _F(39),
        "series.c0[3]": _F(220),
        "series.c0[4]": _F(6291, 4),
        "series.c1[1]": _F(10),
        "series.c1[2]": _F(67, 2),
        "series.c1[3]": _F(3200, 9),
        "series.c1[4]": _F(89387, 48),
    },
    "V14": {
        "matrix.a01": _F(64),
        "matrix.a11": _F(5),
        "matrix.a02": _F(924),
        "matrix.a12": _F(140),
        "matrix.a03": _F(5936),
        "alpha": _F(4),
        "ambient.c0[1]": _F(4),
        "ambient.c0[2]": _F(3, 4),
        "ambient.c0[3]": _F(95, 5832),
        "ambient.c0[4]": _F(865, 11943936),
        "series.c0[2]": _F(16),
        "series.c0[3]": _F(52),
        "series.c0[4]": _F(230),
        "series.c1[1]": _F(5),
        "series.c1[2]": _F(31, 4),
        "series.c1[3]": _F(1031, 18),
        "series.c1[4]": _F(14863, 96),
    },
}

_FLAGGED: dict[str, str] = {
    "V14:series.c0[3]": "derived 52; a published table prints 2; matrix-consistent",
}


@dataclass
class VerifyRow:
    label: str
    derived: str
    expected: str
    status: str
    note: str | None = None


def _where(key: str) -> tuple[str, str | None, int]:
    if key == "alpha":
        return "alpha", None, 0
    if key.startswith("matrix."):
        return "matrix", None, ENTRY_VARS.index(key.split(".", 1)[1])
    family, index = key.split("[", 1)
    stage = "ambient_pair" if family == "ambient.c0" else "variety_pair"
    return stage, family[-2:], int(index.rstrip("]"))


# per variety, each golden row as (label, where, golden value, the value as
# `str` prints it, note), built once at import; `where` locates the derived
# value in a run as (stage, series or None, index into the numerators)
_GOLDEN_ROWS: dict[str, tuple[tuple, ...]] = {
    variety: tuple(
        (f"{variety}:{key}", _where(key), golden, str(golden), _FLAGGED.get(f"{variety}:{key}"))
        for key, golden in entries.items()
    )
    for variety, entries in _GOLDEN.items()
}


def _derived_value(report: PipelineRun, where: tuple[str, str | None, int]) -> tuple[int, int]:
    """The derived quantity at `where` as (numerator, positive denominator),
    read off the stored numerators."""
    stage, part, index = where
    if stage == "alpha":
        return report.alpha.numerator, report.alpha.denominator
    value = getattr(report, stage)
    if part is not None:
        value = getattr(value, part)
    return value.nums[index], value.den


def verify_golden(
    name: str = "all", corrupt: str | None = None
) -> tuple[int, list[VerifyRow]]:
    """Recompute all golden quantities from scratch and diff them.

    Returns (exit status, table).  Status 1 when any row mismatches; the
    optional `corrupt` argument replaces one golden entry ("V10:matrix.a01"
    style label) with a wrong value, as a negative control.  A label that
    names no entry of the selected varieties is refused before any stage runs.
    """
    if name == "all":
        targets = list(_GOLDEN_ROWS)
    elif name in _GOLDEN_ROWS:
        targets = [name]
    else:
        raise ConfigError(f"unknown variety {name!r}; choose V10, V14 or all")
    if corrupt is not None and not any(
        row[0] == corrupt for variety in targets for row in _GOLDEN_ROWS[variety]
    ):
        raise ConfigError(f"no golden entry labelled {corrupt!r} for variety {name!r}")
    rows: list[VerifyRow] = []
    status = 0
    for variety in targets:
        report = run_pipeline(CATALOG[variety], order=7)
        for label, where, expected, printed, note in _GOLDEN_ROWS[variety]:
            if label == corrupt:
                expected = expected + 1
                printed = str(expected)
            num, den = _derived_value(report, where)
            if num * expected.denominator == expected.numerator * den:
                verdict = "flagged" if note else "ok"
            else:
                verdict, status = "mismatch", 1
            rows.append(VerifyRow(label, ratio_str(num, den), printed, verdict, note))
    return status, rows


def render_verify_table(rows: list[VerifyRow], format: str = "text", status: int = 0) -> str:
    """The verify table as text, or as JSON beside the exit status that
    `verify_golden` returned with the rows; the text lines are built only
    for text."""
    if format == "json":
        # vars() is the row's own field dict; render only reads it
        return render({"status": status, "rows": [vars(r) for r in rows]}, [], format)
    label_w = max(len(r.label) for r in rows)
    val_w = max(max(len(r.derived), len(r.expected)) for r in rows)
    lines = [
        f"{'entry'.ljust(label_w)}  {'derived'.rjust(val_w)}  "
        f"{'expected'.rjust(val_w)}  status"
    ]
    for r in rows:
        line = (
            f"{r.label.ljust(label_w)}  {r.derived.rjust(val_w)}  "
            f"{r.expected.rjust(val_w)}  {r.status}"
        )
        if r.note:
            line += f"  ({r.note})"
        lines.append(line)
    counts = {"ok": 0, "mismatch": 0, "flagged": 0}
    for r in rows:
        counts[r.status] += 1
    lines.append(
        f"{counts['ok']} ok, {counts['flagged']} flagged, "
        f"{counts['mismatch']} mismatched"
    )
    return render({}, lines, format)
