"""End-to-end pipeline: ambient series, Euler twist, counting matrix,
periods, third-order operator, and the candidate-identification table, as
one stage chain (`PipelineRun`) whose stages are computed once, on first
access.  `run_pipeline` computes them all for the full report; the `*_view`
projections print the stages each subcommand reads.

The built-in catalog holds the two section varieties the library is
checked against; any other configuration runs through the same stages but
its report is marked unverified.  `verify_golden` recomputes every golden
quantity from scratch and diffs it against the embedded table, which is
keyed by the family of a run's values that holds each one (the matrix,
alpha, a series), and returns the dict `verify` prints: one row per value
and the exit status read off those rows.  One row is a documented
exception: the degree-3 constant term of the second catalog variety, where
the derived value 52 disagrees with a published table entry of 2; the
derived value is the one consistent with the counting matrix, so the row
is flagged rather than matched.
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
from .exactmath import ENTRY_LAYOUT, ENTRY_VARS, PowerSeries, Rational, ratio_str
from .grassmann import GrassmannianSpec, HSeriesPair, extract_h_pair, hv_iseries
from .lefschetz import CompleteIntersectionSpec, ci_geometry, lefschetz_shift, quantum_lefschetz
from .solver import (
    CountingMatrix, PeriodVector, discriminant, forward_periods, invert_periods, recover_matrix,
)

# Bound here only so that the benchmark's tracer (perfbench/tracer.py) can
# patch them at this site.  No stage calls them: `pencil_operator` writes
# the operator in closed form, and this chain is the reference for it; the
# ambient series of projective space is the residue sum of G(1, n).
from .d3 import build_pencil, left_divide_by_D, right_determinant  # noqa: F401
from .grassmann import projective_iseries  # noqa: F401


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
    elif n < 1:
        raise ConfigError(f"field 'ambient.n' must be at least 1 for projective space, got {n}")
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
# `ambient_series` (2-vCPU Xeon, Python 3.11.7) takes 0.03-0.11 s on the
# slowest job MAX_RESIDUE_WORK admits for each r = 4..11, and no lower
# multiple of 10^7 admits G(2,30000) at order 13 without a digit limit.
MAX_ORDER = 30
MAX_RESIDUE_WORK = 10**8


def _residue_work(ambient: GrassmannianSpec, order: int, digits: Fraction) -> int:
    """(T m(m+1)/2 + m)(D + 300), r = min(r, n - r), m = `order`, D =
    `digits`: the T = (3r + 1) 2^r / 4 - (r + 1) terms past level 1 of the
    Laplace expansion `hv_iseries` runs, each a dot product over the
    m(m+1)/2 degree pairs a <= d < m, and the m degree parts written out,
    on integers of up to D digits, 300 standing for the interpreter's cost
    per product.  T passes 2^r, so r is capped at the limit's bit length
    and a huge r costs one step."""
    r = min(ambient.r, ambient.n - ambient.r, MAX_RESIDUE_WORK.bit_length())
    terms = ((3 * r + 1) << r) // 4 - r - 1
    return (terms * order * (order + 1) // 2 + order) * (ceil(digits) + 300)


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
    over the smaller of r and n - r roots; projective space is G(1, n).
    """
    r = min(ambient.r, ambient.n - ambient.r)
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


# -- projections: each view builds one subcommand's JSON dict, then its text from it --


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


def matrix_lines(rows: list[list[str]]) -> list[str]:
    """The rows of `matrix_dict`, right-aligned to the widest entry."""
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


def _pair_dict(pair: HSeriesPair, order: int) -> dict:
    c0, c1 = pair.c0.truncate(order), pair.c1.truncate(order)
    return {"c0": _numerator_strs(c0), "c1": _numerator_strs(c1)}


def _pair_lines(data: dict) -> list[str]:
    return ["c0: " + " ".join(data["c0"]), "c1: " + " ".join(data["c1"])]


def iseries_view(run: PipelineRun) -> View:
    ambient = run.config.ambient
    data = _pair_dict(run.ambient_pair, run.order)
    data["ambient"] = {"r": ambient.r, "n": ambient.n}
    return data, [f"ambient G({ambient.r},{ambient.n})"] + _pair_lines(data)


def lefschetz_view(run: PipelineRun) -> View:
    # the variety series first: its stage refuses a series, alpha included,
    # too long to print
    data = _pair_dict(run.variety_pair, run.order)
    alpha = data["alpha"] = str(run.alpha)
    return data, [f"shift alpha = {alpha}"] + _pair_lines(data)


def matrix_view(run: PipelineRun) -> View:
    data = matrix_dict(run.matrix)
    return data, [f"deg = {data['deg']}"] + matrix_lines(data["rows"])


def _periods_lines(data: dict) -> list[str]:
    return ["d2..d6: " + " ".join(data["periods"]), f"discriminant: {data['discriminant']}"]


def periods_view(run: PipelineRun) -> View:
    data = {"periods": _numerator_strs(run.periods), "discriminant": str(run.disc)}
    return data, _periods_lines(data)


def invert_view(run: PipelineRun, periods: PeriodVector | None = None, deg: int | None = None) -> View:
    """Invert the given periods, or the variety's own with a roundtrip check;
    the output degree defaults to the variety's."""
    vector = run.periods if periods is None else periods
    deg = run.matrix.deg if deg is None else deg
    recovered = _guarded("solver", invert_periods, vector, deg)
    data = matrix_dict(recovered)
    data["periods"] = _numerator_strs(vector)
    lines = ["periods: " + " ".join(data["periods"]), f"deg = {deg}"] + matrix_lines(data["rows"])
    if periods is None:
        # the entries only: the periods do not read `deg`, which labels the output
        data["roundtrip_ok"] = (recovered.den, recovered.nums) == (run.matrix.den, run.matrix.nums)
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
        "ambient_series": _pair_dict(report.ambient_pair, report.order),
        "variety_series": _pair_dict(report.variety_pair, report.order),
        "matrix": matrix_dict(report.matrix),
        **periods_view(report)[0],
        "d3": {"operator": str(report.operator), "solution": _numerator_strs(report.solution)},
        "modularity": modularity_dict(report.modularity),
        "notes": list(report.notes),
    }


def report_lines(data: dict) -> list[str]:
    """The text report, formatted from the dict `report_dict` returns."""
    ambient, geometry, m = data["ambient"], data["geometry"], data["modularity"]
    tag = "verified catalog entry" if data["verified"] else "unverified"
    periods = _periods_lines(data)
    return [
        f"variety {data['name'] or '(unnamed)'} [{tag}]",
        f"  ambient G({ambient['r']},{ambient['n']}), degrees {tuple(data['degrees'])}",
        f"  dimension {geometry['dimension']}, index {geometry['fano_index']}, "
        f"ambient degree {geometry['ambient_plucker_degree']}, "
        f"anticanonical degree {geometry['anticanonical_degree']}",
        f"  shift alpha = {data['alpha']}",
        *("  ambient " + line for line in _pair_lines(data["ambient_series"])),
        *("  variety " + line for line in _pair_lines(data["variety_series"])),
        "  counting matrix:",
        *("    " + row for row in matrix_lines(data["matrix"]["rows"])),
        "  periods " + periods[0],
        "  " + periods[1],
        f"  operator (shift 0): {data['d3']['operator']}",
        f"  solution: {' '.join(data['d3']['solution'])}",
        f"  modularity level {m['level']}, order {m['order']}:",
        *("    " + line for line in modularity_lines(m)),
        *(f"  note: {note}" for note in data["notes"]),
    ]


def serialize_report(report: PipelineRun, format: str = "text") -> str:
    """The report in one format; the text is formatted from the JSON dict."""
    data = report_dict(report)
    return render(data, report_lines(data) if format == "text" else [], format)


# -- golden verification -------------------------------------------------------

_F = Fraction

# Per variety, the golden values by the family a run holds them in: the
# matrix entries in `ENTRY_VARS` order, alpha, the ambient c0 from q^1, and
# the variety series' c0 from q^2 and c1 from q^1.
_GOLDEN: dict[str, dict[str, tuple[Fraction, ...]]] = {
    "V10": {
        "matrix": (_F(156), _F(10), _F(3600), _F(380), _F(33120)),
        "alpha": (_F(6),),
        "ambient.c0": (_F(3), _F(19, 32), _F(49, 2592), _F(139, 884736)),
        "series.c0": (_F(39), _F(220), _F(6291, 4)),
        "series.c1": (_F(10), _F(67, 2), _F(3200, 9), _F(89387, 48)),
    },
    "V14": {
        "matrix": (_F(64), _F(5), _F(924), _F(140), _F(5936)),
        "alpha": (_F(4),),
        "ambient.c0": (_F(4), _F(3, 4), _F(95, 5832), _F(865, 11943936)),
        "series.c0": (_F(16), _F(52), _F(230)),
        "series.c1": (_F(5), _F(31, 4), _F(1031, 18), _F(14863, 96)),
    },
}
# the index into each family's numerators of its first golden value
_FIRST = {"matrix": 0, "alpha": 0, "ambient.c0": 1, "series.c0": 2, "series.c1": 1}

_FLAGGED: dict[str, str] = {
    "V14:series.c0[3]": "derived 52; a published table prints 2; matrix-consistent",
}


def _golden_row(variety: str, family: str, index: int, golden: Fraction) -> tuple:
    """(label, family, index into the family's numerators, golden value, the
    value as `str` prints it, note)."""
    if family == "matrix":
        label = f"{variety}:matrix.{ENTRY_VARS[index]}"
    elif family == "alpha":
        label = f"{variety}:alpha"
    else:
        label = f"{variety}:{family}[{index}]"
    return label, family, index, golden, str(golden), _FLAGGED.get(label)


# per variety, each golden row, built once at import
_GOLDEN_ROWS: dict[str, tuple[tuple, ...]] = {
    variety: tuple(
        _golden_row(variety, family, index, golden)
        for family, values in families.items()
        for index, golden in enumerate(values, _FIRST[family])
    )
    for variety, families in _GOLDEN.items()
}


def _golden_family(run: PipelineRun, family: str) -> tuple[int, tuple[int, ...]]:
    """(den, nums) that a golden family is read from in a run."""
    if family == "matrix":
        return run.matrix.den, run.matrix.nums
    if family == "alpha":
        return run.alpha.denominator, (run.alpha.numerator,)
    pair = run.ambient_pair if family == "ambient.c0" else run.variety_pair
    series = pair.c1 if family == "series.c1" else pair.c0
    return series.den, series.nums


def verify_golden(name: str = "all", corrupt: str | None = None) -> dict:
    """Recompute all golden quantities from scratch and diff them.

    Returns the dict that `verify --format json` prints: the rows, each with
    its label, derived and expected value, status and note, and the exit
    status, 1 exactly when a row mismatches.  The optional `corrupt`
    argument replaces one golden entry ("V10:matrix.a01" style label) with a
    wrong value, as a negative control.  A label that names no entry of the
    selected varieties is refused before any stage runs.
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
    rows = []
    for variety in targets:
        run = run_pipeline(CATALOG[variety], order=7)
        for label, family, index, expected, printed, note in _GOLDEN_ROWS[variety]:
            if label == corrupt:
                expected = expected + 1
                printed = str(expected)
            den, nums = _golden_family(run, family)
            num = nums[index]
            if num * expected.denominator == expected.numerator * den:
                verdict = "flagged" if note else "ok"
            else:
                verdict = "mismatch"
            rows.append({
                "label": label, "derived": ratio_str(num, den), "expected": printed,
                "status": verdict, "note": note,
            })
    status = int(any(row["status"] == "mismatch" for row in rows))
    return {"status": status, "rows": rows}


def _verify_lines(rows: list[dict]) -> list[str]:
    """The verify table, formatted from the rows `verify_golden` returns."""
    label_w = max(len(r["label"]) for r in rows)
    val_w = max(max(len(r["derived"]), len(r["expected"])) for r in rows)
    header = f"{'entry'.ljust(label_w)}  {'derived'.rjust(val_w)}  {'expected'.rjust(val_w)}"
    lines = [header + "  status"]
    counts = {"ok": 0, "mismatch": 0, "flagged": 0}
    for r in rows:
        counts[r["status"]] += 1
        line = (
            f"{r['label'].ljust(label_w)}  {r['derived'].rjust(val_w)}  "
            f"{r['expected'].rjust(val_w)}  {r['status']}"
        )
        if r["note"]:
            line += f"  ({r['note']})"
        lines.append(line)
    lines.append(f"{counts['ok']} ok, {counts['flagged']} flagged, {counts['mismatch']} mismatched")
    return lines


def render_verify_table(data: dict, format: str = "text") -> str:
    """The dict `verify_golden` returns, as JSON or as the text table
    formatted from its rows; the text lines are built only for text."""
    return render(data, _verify_lines(data["rows"]) if format == "text" else [], format)
