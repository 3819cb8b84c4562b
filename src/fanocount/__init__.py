"""Exact counting matrices and D3 operators for rank-1 Fano threefolds.

The submodules, in the order the pipeline runs them:

    exactmath  rationals, truncated power series, sparse polynomials
    grassmann  the ambient I-series from the residue sum
    lefschetz  the quantum Lefschetz transform and the Euler twist
    relations  descendant invariants reduced to counting-matrix entries
    solver     counting-matrix recovery and the period map
    d3         operator pencils, the Frobenius solution, modularity
    pipeline   the stages of one run, configs and golden values
    cli        the command line

`import fanocount` loads none of them.  Each public name in `__all__`, and
each submodule but `cli`, is imported from its module on first access
(PEP 562) and then bound here, so a caller pays only for the modules it
reads: `from fanocount import solver` loads `exactmath`, `relations` and
`solver`.  Without cached bytecode every process compiles what it imports.
"""

_EXPORTS = {
    "exactmath": (
        "ChernPolynomial", "EntryPolynomial", "NonExactDivision", "PowerSeries", "Rational",
        "divide_by_vandermonde", "exp_twist",
    ),
    "grassmann": (
        "AsymmetricSeries", "GrassmannianSpec", "HSeriesPair", "extract_h_pair", "hv_iseries",
        "projective_iseries",
    ),
    "lefschetz": (
        "CompleteIntersectionSpec", "NotFano", "ci_geometry", "euler_corrected_series",
        "lefschetz_shift", "quantum_lefschetz",
    ),
    "relations": ("GateViolation", "RelationEngine", "one_point_relation"),
    "solver": (
        "AmbiguousSolution", "ConsistencyCheckFailed", "CountingMatrix", "DegenerateLocus",
        "NoRationalSolution", "PeriodVector", "discriminant", "forward_periods", "invert_periods",
        "rational_roots", "recover_matrix",
    ),
    "d3": (
        "DifferentialOperator", "InvalidLevel", "ModularityReport", "NotLeftDivisible",
        "ObstructedRecursion", "apply_operator", "build_pencil", "eisenstein_e2",
        "eisenstein_weight2", "frobenius_solve", "left_divide_by_D", "modularity_report",
        "right_determinant",
    ),
    "pipeline": (
        "CATALOG", "ConfigError", "PipelineRun", "StageError", "VarietyConfig", "load_config",
        "run_pipeline", "serialize_report", "verify_golden",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's path, which -X importtime reports and
    # importlib.import_module bypasses; it binds the submodule here
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
