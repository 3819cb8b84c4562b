import json
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from helpers import TamperedEngine, constant_terms, reference_coefficient_digits
from fanocount import pipeline
from fanocount.d3 import frobenius_solve
from fanocount.grassmann import GrassmannianSpec, _cofactors
from fanocount.pipeline import (
    CATALOG,
    MAX_ORDER,
    MAX_RESIDUE_WORK,
    ConfigError,
    PipelineRun,
    StageError,
    VarietyConfig,
    _coefficient_digits,
    _residue_work,
    _variety_digits,
    ambient_series,
    d3_view,
    iseries_view,
    lefschetz_view,
    load_config,
    matrix_view,
    parse_config,
    render,
    render_verify_table,
    run_pipeline,
    serialize_report,
    verify_golden,
)
from fanocount.relations import RelationEngine
from fanocount.solver import CountingMatrix

F = Fraction


def test_catalog_entries():
    v10 = load_config("V10")
    assert v10.in_catalog
    assert v10.ambient == GrassmannianSpec(2, 5)
    assert v10.degrees == (1, 1, 2)
    v14 = load_config("V14")
    assert v14.degrees == (1,) * 5
    assert v14.fano_index == 1
    # the name and the intersection must both match a catalog entry
    assert not VarietyConfig(GrassmannianSpec(2, 5), (1, 1, 1), "V10").in_catalog
    assert not VarietyConfig(GrassmannianSpec(2, 5), (1, 1, 2), "V14").in_catalog
    assert not VarietyConfig(GrassmannianSpec(2, 5), (1, 1, 2)).in_catalog


def test_load_config_from_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "name": "quartic",
                "ambient": {"type": "projective", "n": 4},
                "degrees": [4],
            }
        )
    )
    config = load_config(str(path))
    assert config.name == "quartic"
    assert config.ambient == GrassmannianSpec(1, 5)
    assert not config.in_catalog


def test_load_config_grassmannian_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {"ambient": {"type": "grassmannian", "r": 2, "n": 5}, "degrees": [1, 1, 2]}
        )
    )
    config = load_config(str(path))
    assert config.ambient == GrassmannianSpec(2, 5)
    assert config.name is None


def test_load_config_rejects_unknown_source():
    with pytest.raises(ConfigError):
        load_config("V15")


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))


@pytest.mark.parametrize(
    "raw",
    [
        [],
        {},
        {"ambient": {"type": "weighted", "n": 4}, "degrees": [2]},
        {"ambient": {"type": "projective"}, "degrees": [2]},
        {"ambient": {"type": "projective", "n": 4}, "degrees": [2], "name": 7},
    ],
)
def test_parse_config_rejections(raw):
    with pytest.raises(ConfigError):
        parse_config(raw)


G25 = {"type": "grassmannian", "r": 2, "n": 5}


@pytest.mark.parametrize(
    "raw, field",
    [
        ({"ambient": {**G25, "r": True}, "degrees": [1, 1, 2]}, "'ambient.r'"),
        ({"ambient": {**G25, "r": 2.0}, "degrees": [1, 1, 2]}, "'ambient.r'"),
        ({"ambient": {**G25, "n": 5.9}, "degrees": [1, 1, 2]}, "'ambient.n'"),
        ({"ambient": {**G25, "n": "5"}, "degrees": [1, 1, 2]}, "'ambient.n'"),
        ({"ambient": {"type": "projective", "n": False}, "degrees": [4]}, "'ambient.n'"),
        ({"ambient": G25, "degrees": [1.7, 1, 2]}, "'degrees[0]'"),
        ({"ambient": G25, "degrees": [1, "1", 2]}, "'degrees[1]'"),
        ({"ambient": G25, "degrees": [1, 1, True]}, "'degrees[2]'"),
        ({"ambient": G25, "degrees": "112"}, "'degrees'"),
        ({"ambient": G25, "degrees": [1, 1, 2], "bogus": 1}, "'bogus'"),
        ({"ambient": {**G25, "m": 3}, "degrees": [1, 1, 2]}, "'ambient.m'"),
        ({"ambient": {"type": "projective", "n": 4, "r": 1}, "degrees": [4]}, "'ambient.r'"),
        ({"ambient": {"n": 4}, "degrees": [4]}, "'ambient.type'"),
        ({"ambient": {"type": ["projective"], "n": 4}, "degrees": [4]}, "'ambient.type'"),
        ({"ambient": [G25], "degrees": [1, 1, 2]}, "'ambient'"),
        ({"ambient": G25, "degrees": [1, 1, 2], "name": 7}, "'name'"),
        ({"ambient": G25}, "'degrees'"),
        ({"degrees": [4]}, "'ambient'"),
        # every field wrong at once: unknown keys are reported first
        (
            {"ambient": {**G25, "r": True, "n": 5.9}, "degrees": [1.7, "1", 2], "bogus": 1},
            "'bogus'",
        ),
    ],
)
def test_parse_config_is_strict(raw, field):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(raw)
    assert field in str(excinfo.value)


def test_variety_config_validates_degrees():
    with pytest.raises(ValueError):
        VarietyConfig(GrassmannianSpec(2, 5), (0,), "x")


def test_ambient_series_dispatch():
    projective = ambient_series(GrassmannianSpec(1, 5), 5)
    assert projective.c0[1] == 1
    grassmann = ambient_series(GrassmannianSpec(2, 5), 5)
    assert grassmann.c0[1] == 3


def test_run_pipeline_deg10_report():
    report = run_pipeline(CATALOG["V10"])
    assert report.verified
    assert report.order == 7
    assert report.alpha == 6
    assert report.geometry.anticanonical_degree == 10
    assert report.matrix == CountingMatrix(deg=10, **golden.entry_values(golden.MATRIX_V10))
    assert report.periods.as_tuple() == (
        F(39), F(220), F(6291, 4), F(8766), F(524413, 12),
    )
    assert report.disc == -10182375
    assert report.operator.order == 3
    assert report.solution[2] == 78
    assert report.modularity is not None
    assert report.notes == ()


def test_run_pipeline_deg14_notes_flag_the_constant():
    report = run_pipeline(CATALOG["V14"])
    assert report.verified
    assert any("52" in note for note in report.notes)


def test_run_pipeline_at_order_4_recovers_the_order_7_matrix():
    # the ambient series runs to q^4 whatever the order, so the matrix does not shrink
    run = run_pipeline(CATALOG["V10"], order=4)
    assert run.matrix == run_pipeline(CATALOG["V10"]).matrix
    assert run.modularity.order == 4


def test_run_pipeline_marks_noncatalog_unverified():
    quartic = VarietyConfig(GrassmannianSpec(1, 5), (4,), "quartic")
    report = run_pipeline(quartic)
    assert not report.verified
    assert any("unverified" in note for note in report.notes)
    assert report.alpha == 24


def test_run_pipeline_wraps_stage_failures():
    # a fourfold has a series but no counting matrix
    fourfold = VarietyConfig(GrassmannianSpec(1, 6), (5,), "fourfold")
    with pytest.raises(StageError) as info:
        run_pipeline(fourfold)
    assert info.value.stage == "solver"
    assert isinstance(info.value.original, ValueError)
    assert "dimension 4, not 3" in str(info.value.original)


def quartic_term(d):
    return factorial(4 * d) // factorial(d) ** 4


def sextic_term(d):
    return factorial(2 * d) * factorial(3 * d) // factorial(d) ** 5


def octic_term(d):
    return factorial(2 * d) ** 3 // factorial(d) ** 6


def quintic_del_pezzo_term(d):
    return comb(2 * d, d) * sum(comb(d, k) ** 2 * comb(d + k, k) for k in range(d + 1))


@pytest.mark.parametrize(
    "config,deg,alpha,level,entries,term",
    [
        (VarietyConfig(GrassmannianSpec(1, 5), (4,), "V4"), 4, 24, 2, None, quartic_term),
        (VarietyConfig(GrassmannianSpec(1, 6), (2, 3), "V6"), 6, 12, 3, None, sextic_term),
        (VarietyConfig(GrassmannianSpec(1, 7), (2, 2, 2), "V8"), 8, 8, 4, None, octic_term),
        (VarietyConfig(GrassmannianSpec(1, 4), (), "P3"), 64, 0, 2, {"a03": 256}, quartic_term),
        (VarietyConfig(GrassmannianSpec(1, 5), (2,), "Q"), 54, 0, 3, {"a02": 54}, sextic_term),
        (
            VarietyConfig(GrassmannianSpec(1, 5), (3,), "B3"), 24, 0, 3,
            {"a01": 24, "a12": 60, "a03": 576}, sextic_term,
        ),
        (
            VarietyConfig(GrassmannianSpec(1, 6), (2, 2), "B4"), 32, 0, 4,
            {"a01": 16, "a12": 32, "a03": 256}, octic_term,
        ),
        (
            VarietyConfig(GrassmannianSpec(2, 5), (1, 1, 1), "B5"), 40, 0, 5,
            {"a01": 12, "a12": 20, "a03": 160}, quintic_del_pezzo_term,
        ),
    ],
    ids=["V4", "V6", "V8", "P3", "Q", "B3", "B4", "B5"],
)
def test_projective_threefolds_match_their_closed_forms(config, deg, alpha, level, entries, term):
    # Graded by -K = rH, the solution at lambda = alpha is sum_d A_d t^(r d) with
    # A_d the regularized quantum period of an index-1 model: hypergeometric for
    # the quartic, the (2,3) and the (2,2,2) complete intersections, and the
    # Apery-like sequence of level 5 for B5.  The sums share nothing with the
    # pipeline.  The level is N = (-K)^3 / (2 r^2).
    r = config.fano_index
    run = PipelineRun(config, 13)
    assert (run.matrix.deg, run.alpha, run.modularity.level) == (deg, alpha, level)
    if entries is not None:  # the nonzero entries of the index-2..4 models
        assert {k: v for k, v in run.matrix.entries().items() if v} == entries
    solution = frobenius_solve(run.operator_at(run.alpha), 13)
    assert solution.coeffs == tuple(0 if m % r else term(m // r) for m in range(13))
    # index >= 2 has alpha = 0, and one table row per candidate at that one shift
    assert len(run.modularity.rows) == (12 if alpha else 2)


def fano_threefolds() -> list[VarietyConfig]:
    """Every Fano complete-intersection threefold in G(r, n) with r <= n/2.

    The index n - sum(d) must be positive, and each of the r(n - r) - 3
    hypersurfaces has Plucker degree >= 1, or >= 2 in projective space,
    where a hyperplane section is a smaller projective space.  So r = 1
    needs 2(n - 4) < n, that is n <= 7; r = 2 needs 2n - 7 < n, that is
    n <= 6; and r >= 3 needs (r - 1) n - 3 < r^2, which no n >= 2r meets.
    G(n - r, n) is G(r, n) again, so r <= n/2 leaves out only the duals.
    """
    return [
        VarietyConfig(GrassmannianSpec(r, n), degrees)
        for n in range(4, 8)
        for r in range(1, n // 2 + 1)
        for degrees in combinations_with_replacement(range(2 if r == 1 else 1, n), r * (n - r) - 3)
        if sum(degrees) < n
    ]


@pytest.mark.parametrize("order", [1, 7])
def test_modularity_stage_runs_on_every_fano_threefold(order):
    configs = fano_threefolds()
    assert len(configs) == 13
    for config in configs:
        report = PipelineRun(config, order).modularity
        assert type(report.level) is int and report.level >= 2
        assert len(report.rows) == (12 if report.alpha else 2)


def threefold_presentations() -> list[VarietyConfig]:
    """The Fano complete-intersection threefolds in G(r, n) with r <= n/2 and
    n <= 8, each hyperplane section of projective space kept as written."""
    return [
        VarietyConfig(GrassmannianSpec(r, n), degrees)
        for n in range(4, 9)
        for r in range(1, n // 2 + 1)
        for degrees in combinations_with_replacement(range(1, n), r * (n - r) - 3)
        if sum(degrees) < n
    ]


def test_relation_series_of_the_matrix_is_the_lefschetz_series():
    # The modularity stage compares the D3 solution with the Lefschetz series
    # variety_pair.c0; the constant-term relations of the recovered matrix give
    # the same series, which is what the relation engine would have built.
    configs = threefold_presentations()
    assert len(configs) == 31
    for config in configs:
        run = PipelineRun(config, 13)
        assert constant_terms(run.matrix, 13) == run.variety_pair.c0, config
    runs = [PipelineRun(CATALOG[name], 30) for name in ("V10", "V14")]
    for run in runs:
        assert constant_terms(run.matrix, 30) == run.variety_pair.c0
    # negative control: one tampered entry moves the relation series off it
    for run in runs:
        tampered = constant_terms(run.matrix, 13, TamperedEngine((0, 2), 0))
        assert tampered != run.variety_pair.c0.truncate(13)


def test_run_pipeline_asks_no_relation_past_the_periods(monkeypatch):
    asked = []
    original = RelationEngine.one_point_relation

    def spy(self, k, d):
        asked.append(d)
        return original(self, k, d)

    monkeypatch.setattr(RelationEngine, "one_point_relation", spy)
    run_pipeline(CATALOG["V14"], 30)
    # q^3, q^4 closure checks and the periods d_2..d_6; none for the table
    assert sorted(set(asked)) == [2, 3, 4, 5, 6]


def test_serialize_report_json_is_deterministic():
    a = serialize_report(run_pipeline(CATALOG["V10"]), "json")
    b = serialize_report(run_pipeline(CATALOG["V10"]), "json")
    assert a == b
    payload = json.loads(a)
    assert payload["matrix"]["entries"]["a01"] == "156"
    assert payload["matrix"]["rows"][0][1] == "156"
    assert payload["alpha"] == "6"
    assert payload["discriminant"] == "-10182375"


def test_serialize_report_text_mentions_key_quantities():
    text = serialize_report(run_pipeline(CATALOG["V14"]), "text")
    assert "14" in text
    assert "924" in text


def test_serialize_report_rejects_unknown_format():
    report = run_pipeline(CATALOG["V10"], order=5)
    with pytest.raises(ConfigError):
        serialize_report(report, "yaml")


# every code point, lone surrogates and control characters included
json_strings = st.text(st.characters(exclude_categories=()))
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**4000), 10**4000)
    | json_strings,
    lambda inner: st.lists(inner) | st.dictionaries(json_strings, inner),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_render_writes_the_bytes_of_json_dumps(data):
    assert render(data, [], "json") == json.dumps(data, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "data",
    [
        {"x": 0.5},
        {"x": float("nan")},
        {"x": Fraction(1, 2)},
        {"x": (1, 2)},
        {"x": [["a"], ("b",)]},
        {1: "a"},
        {"a": 1, None: 2},
        {"x": {"y": {True: 1}}},
        [0, 1.0],
    ],
)
def test_render_refuses_what_json_dumps_would_convert(data):
    # json.dumps would print a float, list a tuple and turn a key into a
    # string; a view that hands render such a value fails instead
    with pytest.raises(TypeError):
        render(data, [], "json")


def test_verify_golden_all_green():
    status, rows = verify_golden()
    assert status == 0
    assert len(rows) == 34
    counts = {s: sum(1 for r in rows if r.status == s) for s in ("ok", "flagged", "mismatch")}
    assert counts == {"ok": 33, "flagged": 1, "mismatch": 0}


def test_verify_golden_flag_is_visible_not_silent():
    _, rows = verify_golden("V14")
    flagged = [r for r in rows if r.status == "flagged"]
    assert len(flagged) == 1
    assert flagged[0].label == "V14:series.c0[3]"
    assert flagged[0].note is not None


def test_verify_golden_single_variety_and_unknown():
    status, rows = verify_golden("V10")
    assert status == 0
    assert len(rows) == 17
    with pytest.raises(ConfigError):
        verify_golden("V9")


def test_verify_golden_corrupt_negative_control():
    status, rows = verify_golden(corrupt="V10:matrix.a01")
    assert status == 1
    mismatched = [r.label for r in rows if r.status == "mismatch"]
    assert mismatched == ["V10:matrix.a01"]
    with pytest.raises(ConfigError):
        verify_golden(corrupt="V10:matrix.bogus")


def test_render_verify_table_summary_line():
    _, rows = verify_golden("V10")
    table = render_verify_table(rows)
    assert table.splitlines()[-1] == "17 ok, 0 flagged, 0 mismatched"


def test_render_verify_table_builds_text_lines_only_for_text():
    status, rows = verify_golden("V14")
    payload = json.loads(render_verify_table(rows, "json", status))
    assert payload == {"status": 0, "rows": [vars(r) for r in rows]}
    text = render_verify_table(rows, "text", status).splitlines()
    assert len(text) == len(rows) + 2
    assert text[-1] == "16 ok, 1 flagged, 0 mismatched"
    with pytest.raises(ConfigError, match="unknown format 'yaml'"):
        render_verify_table(rows, "yaml", status)


def fraction_read(report, key):
    """The golden quantity as a `Fraction` read off the run."""
    if key.startswith("matrix."):
        return getattr(report.matrix, key.split(".", 1)[1])
    if key == "alpha":
        return report.alpha
    family, index = key.split("[", 1)
    pair = report.ambient_pair if family == "ambient.c0" else report.variety_pair
    return (pair.c1 if family == "series.c1" else pair.c0)[int(index.rstrip("]"))]


@pytest.mark.parametrize("variety", ["V10", "V14"])
def test_verify_reads_the_numerators_as_the_fractions_print(variety):
    # the comparisons and the printed values come from the stored numerators;
    # they agree with the Fraction reads, and each corrupted label, alone,
    # mismatches with the same derived value
    report = run_pipeline(CATALOG[variety], order=7)
    _, rows = verify_golden(variety)
    derived = {}
    for row in rows:
        value = fraction_read(report, row.label.split(":", 1)[1])
        assert row.derived == str(value)
        assert (row.status == "mismatch") == (str(value) != row.expected)
        derived[row.label] = row.derived
    for label in derived:
        status, corrupted = verify_golden(variety, corrupt=label)
        assert status == 1
        assert [r.label for r in corrupted if r.status == "mismatch"] == [label]
        assert {r.label: r.derived for r in corrupted} == derived


def test_run_pipeline_solves_once_per_shift(monkeypatch):
    original = pipeline.frobenius_solve
    shifts = []

    def counting(op, order):
        shifts.append(str(op))
        return original(op, order)

    monkeypatch.setattr(pipeline, "frobenius_solve", counting)
    run = run_pipeline(CATALOG["V10"])
    # shift 0 for the solution stage, then +alpha and -alpha for modularity;
    # the table reads the shift-0 solution the run already holds
    assert len(shifts) == len(set(shifts)) == 3
    data, _ = d3_view(run, Fraction(0))
    assert data["solution"] == [str(c) for c in run.solution.coeffs]
    d3_view(run, run.alpha)
    assert len(shifts) == 3


def test_subcommand_views_compute_only_the_stages_they_print():
    run = PipelineRun(CATALOG["V10"], order=3)
    data, lines = iseries_view(run)
    assert data["c0"] == ["1", "3", "19/32"]
    assert lines[0] == "ambient G(2,5)"
    assert "ambient_pair" in vars(run)
    assert "geometry" not in vars(run) and "matrix" not in vars(run)
    matrix_view(run)
    assert "matrix" in vars(run) and "operator" not in vars(run)


STAGES = (
    "ambient_pair", "geometry", "alpha", "variety_pair", "matrix", "periods", "disc",
    "operator", "solution", "modularity",
)


def _spy(monkeypatch, *names):
    """Count the calls of each named pipeline binding, those of
    `pencil_operator` per shift."""
    calls = {}
    for name in names:
        original = getattr(pipeline, name)

        def spy(*args, _name=name, _original=original):
            key = (_name, args[1]) if _name == "pencil_operator" else _name
            calls[key] = calls.get(key, 0) + 1
            return _original(*args)

        monkeypatch.setattr(pipeline, name, spy)
    return calls


def test_each_stage_is_computed_once_per_run(monkeypatch):
    calls = _spy(
        monkeypatch, "ambient_series", "ci_geometry", "lefschetz_shift", "quantum_lefschetz",
        "recover_matrix", "forward_periods", "discriminant", "pencil_operator",
        "frobenius_solve", "modularity_report",
    )
    run = PipelineRun(CATALOG["V10"])
    assert run.complete() is run
    # complete() computes every stage and stores each in the run
    assert {name for name in vars(run) if name in vars(PipelineRun)} == set(STAGES)
    first = dict(calls)
    for _ in range(3):
        for name in STAGES:
            getattr(run, name)
        run.complete()
    assert calls == first
    alpha = run.alpha
    assert first == {
        "ambient_series": 1, "ci_geometry": 1, "lefschetz_shift": 1, "quantum_lefschetz": 1,
        "recover_matrix": 1, "forward_periods": 1, "discriminant": 1, "modularity_report": 1,
        # the operator and solution stages at shift 0, modularity at 0, +alpha, -alpha
        "frobenius_solve": 3, ("pencil_operator", 0): 1, ("pencil_operator", alpha): 1,
        ("pencil_operator", -alpha): 1,
    }
    # an int and a Fraction shift of one value share the run's operator and solution
    assert run.operator_at(F(0)) is run.operator_at(0) is run.operator
    assert run.solution_at(F(0)) is run.solution_at(0) is run.solution
    assert run.operator_at(F(alpha)) is run.operator_at(int(alpha))
    assert calls == first


def test_a_failing_stage_raises_on_every_access_and_caches_nothing(monkeypatch):
    attempts = 0

    def failing(*args):
        nonlocal attempts
        attempts += 1
        raise ArithmeticError("no matrix")

    original = pipeline.recover_matrix
    monkeypatch.setattr(pipeline, "recover_matrix", failing)
    run = PipelineRun(CATALOG["V14"])
    for attempt in range(1, 4):
        with pytest.raises(StageError, match="^stage solver: ArithmeticError: no matrix$") as info:
            run.matrix
        assert info.value.stage == "solver" and isinstance(info.value.original, ArithmeticError)
        assert attempts == attempt
        assert "matrix" not in vars(run)
    # a d3 stage that reads it fails under the failing stage's name
    with pytest.raises(StageError) as info:
        run.operator
    assert info.value.stage == "solver" and attempts == 4
    assert "operator" not in vars(run)
    # the stages it read stay computed, and the next access retries
    assert "variety_pair" in vars(run)
    monkeypatch.setattr(pipeline, "recover_matrix", original)
    assert run.matrix == run_pipeline(CATALOG["V14"]).matrix
    assert "matrix" in vars(run)


def test_run_pipeline_builds_one_operator_per_shift(monkeypatch):
    import fanocount.pipeline as pipeline

    original = pipeline.pencil_operator
    outer = 0

    def counting(matrix, lam):
        nonlocal outer
        outer += 1
        return original(matrix, lam)

    monkeypatch.setattr(pipeline, "pencil_operator", counting)
    report = run_pipeline(CATALOG["V10"])
    # shift 0 for the operator stage, then +alpha and -alpha for modularity
    assert outer == 3
    assert [
        r.first_mismatch
        for r in report.modularity.rows
        if (r.lam, r.candidate) == (0, "factorial_transform")
    ] == [None]


def grassmannian(r, n):
    """A hyperplane section of G(r, n), for the ambient series it sizes."""
    return VarietyConfig(GrassmannianSpec(r, n), (1,))


@pytest.mark.parametrize(
    ("r", "n", "order", "work"),
    [(10**6, 2 * 10**6, 5, 100000251543850), (8, 16, 5, 601776000), (6, 12, 5, 8550000),
     (5, 10, 5, 1275000), (3, 6, 7, 100950), (2, 5, 13, 119776), (1, 5, 30, 422200)],
)
def test_residue_work_figures(r, n, order, work):
    # r! (order^2 (D + 300) + 100 r^2), D the rounded-up digit estimate:
    # G(6,12) at order 5 has D = 31, so 720 (25 * 331 + 3600) = 8550000.
    # Past the limit the factorial stops: G(10^6,2*10^6) is 25 (D + 300) + 100 r^2
    digits = _coefficient_digits(GrassmannianSpec(r, n), order)
    assert _residue_work(GrassmannianSpec(r, n), order, digits) == work
    assert _residue_work(GrassmannianSpec(n - r, n), order, digits) == work


@pytest.mark.parametrize(
    ("r", "order"), [(2, 6), (3, 7), (4, 5), (5, 5), (6, 5), (6, 16), (7, 5), (7, 6)]
)
def test_residue_work_counts_the_plan_the_sum_runs(r, order):
    # the model's r! order^2 products bound the expansion `hv_iseries` runs:
    # each term of `_cofactors(r)` is a dot product of up to order entries
    # per degree, order (order + 1) / 2 products in all.  The terms number
    # 4, 16 and 47 at r = 2..4, within a factor 1.6 of the model from the
    # series order 5 on, and from r = 5 on the model over-counts them
    terms = sum(len(columns) for columns, _, _ in _cofactors(r))
    assert terms <= (r + 1) * 2**r
    products = terms * order * (order + 1) // 2
    bound = factorial(r) * order**2
    assert products <= bound if r >= 5 else 5 * products <= 8 * bound
    spec = GrassmannianSpec(r, 2 * r + 1)
    assert _residue_work(spec, order, 0) == factorial(r) * (300 * order**2 + 100 * r * r)


def test_job_limits_admit_the_benchmarked_jobs():
    g36 = VarietyConfig(GrassmannianSpec(3, 6), (1,))
    for config, order in ((CATALOG["V10"], MAX_ORDER), (CATALOG["V14"], 13), (g36, 7)):
        PipelineRun(config, order)  # sets up only; no stage runs


def last_admitted_n(r, order):
    """The largest n whose G(r, n) series at the order the stages compute
    passes the digit limit."""
    limit, order = sys.get_int_max_str_digits(), max(order, 5)
    low, high = 2 * r, 4 * r
    while _coefficient_digits(GrassmannianSpec(r, high), order) <= limit:
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        fits = _coefficient_digits(GrassmannianSpec(r, mid), order) <= limit
        low, high = (mid, high) if fits else (low, mid)
    return low


def test_jobs_the_composition_count_admitted_stay_admitted():
    # the composition count admitted r = 2 and 3 to MAX_ORDER, r = 4 to
    # order 17 and r = 5 at order 5, at every n the digit limit admits.  The
    # benchmark jobs are set up by test_job_limits_admit_the_benchmarked_jobs;
    # every threefold at MAX_ORDER, and G(2,30000) at order 13 with no digit
    # limit, by test_coefficients_past_the_string_limit_are_refused_at_set_up;
    # the pinned `iseries` runs of G(3,6), G(4,8) and G(5,10) run in
    # test_cli_pinned.py
    for r, last in ((2, MAX_ORDER), (3, MAX_ORDER), (4, 17), (5, 5)):
        for order in range(5, last + 1):
            PipelineRun(grassmannian(r, last_admitted_n(r, order)), order)


@pytest.mark.parametrize(
    ("r", "n", "order"), [(4, 124, 30), (5, 472, 13), (6, 12, 16), (7, 141, 5), (7, 19, 6)]
)
def test_residue_work_limit_admits_and_refuses_on_either_side(r, n, order):
    # the largest n the work limit admits for each r at these orders
    PipelineRun(grassmannian(r, n), order)
    with pytest.raises(ConfigError, match="MAX_RESIDUE_WORK"):
        PipelineRun(grassmannian(r, n + 1), order)


def test_oversize_jobs_are_refused_at_set_up():
    with pytest.raises(ConfigError, match="MAX_ORDER"):
        PipelineRun(CATALOG["V10"], MAX_ORDER + 1)
    for config, order in ((grassmannian(8, 16), 5), (grassmannian(6, 12), MAX_ORDER)):
        with pytest.raises(ConfigError, match="MAX_RESIDUE_WORK"):
            run_pipeline(config, order)


@pytest.mark.parametrize("r", [3000, 10**5, 10**6, 10**400, 10**4298])
def test_huge_grassmannians_are_refused_at_once(r, monkeypatch):
    # G(3000,6000) used to fail while formatting a work figure past the
    # string limit, and G(10^6,2*10^6) took 124 s to be refused
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="digits, past the limit"):
        PipelineRun(grassmannian(r, 2 * r), 5)
    # with no digit limit only the work check runs, and prints no figure
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    with pytest.raises(ConfigError) as info:
        PipelineRun(grassmannian(r, 2 * r), 5)
    assert str(info.value) == (
        f"residue-sum work for G({r},{2 * r}) at order 5 exceeds the limit "
        f"MAX_RESIDUE_WORK = {MAX_RESIDUE_WORK}"
    )
    assert time.perf_counter() - start < 0.5


def test_a_digit_figure_too_long_to_print_is_not_printed():
    n = 10**4299  # the longest integer a config holds
    limit = sys.get_int_max_str_digits()
    raw = {"ambient": {"type": "grassmannian", "r": n // 2, "n": n}, "degrees": [1]}
    with pytest.raises(ConfigError) as info:
        PipelineRun(parse_config(raw), 5)
    assert str(info.value).endswith(
        f"at order 5 need at least 10^{limit} digits, past the limit "
        f"sys.get_int_max_str_digits() = {limit}"
    )


@pytest.mark.parametrize(
    ("r", "n", "orders"),
    [(1, 3, range(2, 16)), (1, 40, range(2, 16)), (2, 5, range(2, 14)), (2, 60, range(2, 14)),
     (3, 6, range(2, 8)), (3, 31, range(2, 8)), (4, 20, range(2, 6))],
)
def test_coefficient_digits_bound_the_printed_series(r, n, orders):
    def digits(x):
        return max(len(str(abs(x.numerator))), len(str(x.denominator)))

    for order in orders:
        pair = ambient_series(GrassmannianSpec(r, n), order)
        assert max(map(digits, pair.c0.coeffs + pair.c1.coeffs)) <= _coefficient_digits(
            GrassmannianSpec(r, n), order
        )


@pytest.mark.parametrize(
    ("r", "n"),
    [(1, 2), (2, 5), (2, 6), (3, 6), (6, 12), (2, 30000), (10**6, 2 * 10**6), (3, 10**400)],
)
def test_coefficient_digits_equal_the_fraction_reference(r, n):
    # the estimate is exact: one Fraction from the logs' integer ratios sums
    # to what one Fraction per log sums to
    for order in range(1, 31):
        ambient = GrassmannianSpec(r, n)
        assert _coefficient_digits(ambient, order) == reference_coefficient_digits(ambient, order)


def test_coefficients_past_the_string_limit_are_refused_at_set_up(monkeypatch):
    # G(2,30000) at order 13 used to compute for 14 s and then die while
    # printing; so did P^495.  The last admitted n on each side prints.
    limit = sys.get_int_max_str_digits()
    for r, n, order in ((2, 494, 13), (1, 138, 30)):
        assert _coefficient_digits(GrassmannianSpec(r, n), order) <= limit
        assert _coefficient_digits(GrassmannianSpec(r, n + 1), order) > limit
        run = PipelineRun(VarietyConfig(GrassmannianSpec(r, n), (1,)), order)
        assert len(iseries_view(run)[1]) == 3  # the series converts to text
        with pytest.raises(ConfigError, match=f"sys.get_int_max_str_digits\\(\\) = {limit}"):
            PipelineRun(VarietyConfig(GrassmannianSpec(r, n + 1), (1,)), order)
    for r, n in ((2, 30000), (1, 496)):
        with pytest.raises(ConfigError, match="digits, past the limit"):
            PipelineRun(VarietyConfig(GrassmannianSpec(r, n), (1,)), 13)
    # every threefold, up to MAX_ORDER, stays admitted
    for config in threefold_presentations():
        PipelineRun(config, MAX_ORDER)
    # an interpreter without the limit admits them all
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    PipelineRun(VarietyConfig(GrassmannianSpec(2, 30000), (1,)), 13)


def variety_digits(config, order, alpha):
    """`_variety_digits` on the ambient estimate at the same order, as a run
    passes it."""
    return _variety_digits(config, order, alpha, _coefficient_digits(config.ambient, order))


def hypersurface(n, degrees):
    """The complete intersection of the given degrees in P^n."""
    return VarietyConfig(GrassmannianSpec(1, n + 1), degrees)


@pytest.mark.parametrize(
    ("config", "orders"),
    [
        (CATALOG["V10"], range(2, 16)),
        (CATALOG["V14"], range(2, 16)),
        (hypersurface(4, (4,)), range(2, 31, 4)),
        (hypersurface(6, (2, 2, 2)), range(2, 31, 4)),
        (hypersurface(20, (20,)), range(2, 31, 4)),
        (hypersurface(39, (2,) * 19), range(2, 31, 4)),
        (hypersurface(99, (1,) * 96), (2, 30)),
        (VarietyConfig(GrassmannianSpec(2, 7), (3, 3)), range(2, 14, 3)),
        (VarietyConfig(GrassmannianSpec(3, 6), (2,)), range(2, 8)),
    ],
    ids=["V10", "V14", "P4-4", "P6-222", "P20-20", "P39-2x19", "P99-1x96", "G27-33", "G36-2"],
)
def test_variety_digits_bound_the_printed_series(config, orders):
    def digits(x):
        return max(len(str(abs(x.numerator))), len(str(x.denominator)))

    for order in orders:
        run = PipelineRun(config, order)
        pair = run.variety_pair
        printed = pair.c0.truncate(order).coeffs + pair.c1.truncate(order).coeffs
        assert max(map(digits, printed)) <= variety_digits(config, order, run.alpha)


def test_variety_series_past_the_string_limit_is_refused_before_the_transform(monkeypatch):
    # A degree-99 hypersurface in P^99 at order 30 used to compute its series
    # and then die while printing it.  The last admitted job on each side
    # prints; the ambient series of a refused job still prints.
    def spy(*args):
        raise AssertionError("quantum_lefschetz ran for a refused job")

    limit = sys.get_int_max_str_digits()
    for (admitted, last), (refused, first) in (
        ((hypersurface(38, (38,)), 30), (hypersurface(39, (39,)), 30)),
        ((hypersurface(99, (99,)), 11), (hypersurface(99, (99,)), 12)),
    ):
        run = PipelineRun(admitted, last)
        assert variety_digits(admitted, last, run.alpha) <= limit
        assert len(lefschetz_view(run)[1]) == 3  # the series converts to text
        run = PipelineRun(refused, first)
        assert variety_digits(refused, first, run.alpha) > limit
        assert len(iseries_view(run)[1]) == 3
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "quantum_lefschetz", spy)
            with pytest.raises(StageError, match="stage lefschetz: ConfigError: ") as info:
                run.variety_pair
        assert f"sys.get_int_max_str_digits() = {limit}" in str(info.value)
    # every threefold, up to MAX_ORDER, stays admitted
    for config in threefold_presentations():
        assert variety_digits(config, MAX_ORDER, PipelineRun(config, 5).alpha) <= limit


@pytest.mark.parametrize("order", [-3, 0, 7.5, F(7), "7", True, False, None])
def test_orders_that_are_not_positive_ints_are_refused_at_set_up(order):
    # -3 used to print two ambient coefficients, 7.5 failed inside a stage
    # and True ran as order 1
    with pytest.raises(ConfigError, match="order must be an integer >= 1"):
        PipelineRun(CATALOG["V10"], order)
    assert iseries_view(PipelineRun(CATALOG["V10"], 1))[0]["c0"] == ["1"]
