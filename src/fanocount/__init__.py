"""Exact counting matrices and D3 operators for rank-1 Fano threefolds."""

from types import ModuleType as _Module

from .exactmath import (
    ChernPolynomial,
    EntryPolynomial,
    NonExactDivision,
    PowerSeries,
    Rational,
    divide_by_vandermonde,
    exp_twist,
)
from .grassmann import (
    AsymmetricSeries,
    GrassmannianSpec,
    HSeriesPair,
    extract_h_pair,
    hv_iseries,
    projective_iseries,
)
from .lefschetz import (
    CompleteIntersectionSpec,
    NotFano,
    ci_geometry,
    euler_corrected_series,
    lefschetz_shift,
    quantum_lefschetz,
)
from .relations import (
    GateViolation,
    RelationEngine,
    one_point_relation,
)
from .solver import (
    AmbiguousSolution,
    ConsistencyCheckFailed,
    CountingMatrix,
    DegenerateLocus,
    NoRationalSolution,
    PeriodVector,
    discriminant,
    forward_periods,
    invert_periods,
    rational_roots,
    recover_matrix,
)
from .d3 import (
    DifferentialOperator,
    InvalidLevel,
    ModularityReport,
    NotLeftDivisible,
    ObstructedRecursion,
    apply_operator,
    build_pencil,
    eisenstein_e2,
    eisenstein_weight2,
    frobenius_solve,
    left_divide_by_D,
    modularity_report,
    right_determinant,
)
from .pipeline import (
    CATALOG,
    ConfigError,
    PipelineRun,
    StageError,
    VarietyConfig,
    load_config,
    run_pipeline,
    serialize_report,
    verify_golden,
)

__all__ = [
    name for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, _Module)
]
