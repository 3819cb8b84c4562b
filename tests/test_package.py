"""The package namespace: which modules an import loads, and the public names
it resolves on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fanocount

SRC = Path(__file__).resolve().parents[1] / "src"

# the public names and the submodule each one was imported from when the
# package imported all of them up front
PUBLIC = {
    "exactmath": [
        "ChernPolynomial", "EntryPolynomial", "NonExactDivision", "PowerSeries", "Rational",
        "divide_by_vandermonde", "exp_twist",
    ],
    "grassmann": [
        "AsymmetricSeries", "GrassmannianSpec", "HSeriesPair", "extract_h_pair", "hv_iseries",
        "projective_iseries",
    ],
    "lefschetz": [
        "CompleteIntersectionSpec", "NotFano", "ci_geometry", "euler_corrected_series",
        "lefschetz_shift", "quantum_lefschetz",
    ],
    "relations": ["GateViolation", "RelationEngine", "one_point_relation"],
    "solver": [
        "AmbiguousSolution", "ConsistencyCheckFailed", "CountingMatrix", "DegenerateLocus",
        "NoRationalSolution", "PeriodVector", "discriminant", "forward_periods", "invert_periods",
        "rational_roots", "recover_matrix",
    ],
    "d3": [
        "DifferentialOperator", "InvalidLevel", "ModularityReport", "NotLeftDivisible",
        "ObstructedRecursion", "apply_operator", "build_pencil", "eisenstein_e2",
        "eisenstein_weight2", "frobenius_solve", "left_divide_by_D", "modularity_report",
        "right_determinant",
    ],
    "pipeline": [
        "CATALOG", "ConfigError", "PipelineRun", "StageError", "VarietyConfig", "load_config",
        "run_pipeline", "serialize_report", "verify_golden",
    ],
}
ALL = sorted(name for names in PUBLIC.values() for name in names)
SUBMODULES = ["cli", *PUBLIC]


def fresh(code: str) -> str:
    """Stdout of `code` run in a fresh interpreter on this checkout's src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return done.stdout


@pytest.mark.parametrize(
    "statement,loaded",
    [
        ("import fanocount", []),
        ("from fanocount import solver", ["exactmath", "relations", "solver"]),
        ("from fanocount import cli", SUBMODULES),
    ],
    ids=["bare", "solver", "cli"],
)
def test_an_import_loads_only_the_modules_it_reads(statement, loaded):
    out = fresh(f"{statement}\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('fanocount')))")
    assert out == f"{sorted(['fanocount', *(f'fanocount.{m}' for m in loaded)])}\n"


def test_all_is_the_public_names():
    assert len(ALL) == 55
    assert fanocount.__all__ == ALL


@pytest.mark.parametrize("module", PUBLIC)
def test_each_name_is_the_object_its_submodule_defines(module):
    for name in PUBLIC[module]:
        assert getattr(fanocount, name) is getattr(getattr(fanocount, module), name)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from fanocount import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ALL


def test_dir_lists_the_public_names_and_submodules():
    assert set(ALL) | set(PUBLIC) <= set(dir(fanocount))


def test_a_bare_import_resolves_every_submodule_but_cli():
    out = fresh(
        "import fanocount\n"
        f"print([getattr(fanocount, m).__name__ for m in {list(PUBLIC)}], hasattr(fanocount, 'cli'))"
    )
    assert out == f"{[f'fanocount.{m}' for m in PUBLIC]} False\n"


def test_an_unknown_name_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'fanocount' has no attribute 'nope'$"):
        fanocount.nope
