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
from helpers import (
    TamperedEngine,
    constant_terms,
    reference_coefficient_digits,
    reference_forward_periods,
    reference_recover_matrix,
)
from fanocount import pipeline, solver
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
    report_lines,
    run_pipeline,
    serialize_report,
    verify_golden,
)
from fanocount.relations import RelationEngine, one_point_relation
from fanocount.solver import CountingMatrix, forward_periods, invert_periods

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
        # projective space needs n >= 1, and the message names the config's field
        ({"ambient": {"type": "projective", "n": 0}, "degrees": []}, "'ambient.n'"),
        ({"ambient": {"type": "projective", "n": -3}, "degrees": [1]}, "'ambient.n'"),
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


def test_run_pipeline_asks_the_relation_engine_nothing(monkeypatch):
    # the period map and the H^1 checks are closed forms and the modularity
    # stage reads the run's series, so neither a report nor `verify` asks
    # the engine anything; only the staged inverse does
    asked = []

    def spied(name):
        original = getattr(RelationEngine, name)

        def spy(self, *key):
            asked.append((name, key))
            return original(self, *key)

        return spy

    for name in ("one_point_relation", "_two_point"):
        monkeypatch.setattr(RelationEngine, name, spied(name))
    index_two = VarietyConfig(GrassmannianSpec(2, 5), (1, 1, 1))
    for config in (CATALOG["V10"], CATALOG["V14"], index_two):
        for order in (1, 7, 30):
            serialize_report(run_pipeline(config, order), "json")
    assert verify_golden()["status"] == 0
    assert asked == []
    # positive control: the spy sees the engine where it is asked
    run = run_pipeline(CATALOG["V10"], 7)
    assert invert_periods(run.periods, run.matrix.deg) == run.matrix
    assert asked


def test_closed_forms_match_the_engine_on_every_fano_threefold():
    # the solver's period map and H^1 checks against the engine's `Fraction`
    # reference, on the matrices the pipeline recovers
    configs = [CATALOG["V10"], CATALOG["V14"], *fano_threefolds()]
    for config in configs:
        run = PipelineRun(config, 7)
        matrix, deg = run.matrix, run.matrix.deg
        assert forward_periods(matrix) == reference_forward_periods(matrix), config
        assert reference_recover_matrix(run.variety_pair, deg) == matrix, config
        values = matrix.entries()
        assert [F(*x) for x in solver._redundant_h1(matrix)] == [
            one_point_relation(d - 1, d).evaluate(values) for d in (3, 4)
        ], config


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


@pytest.mark.parametrize(
    "config, order",
    [
        (CATALOG["V10"], 7),
        (CATALOG["V10"], 13),
        (CATALOG["V14"], 7),
        (CATALOG["V14"], 13),
        (VarietyConfig(GrassmannianSpec(1, 4), (), "P3"), 7),
        (VarietyConfig(GrassmannianSpec(2, 5), (1, 1, 1), "B5"), 7),
    ],
    ids=["V10-7", "V10-13", "V14-7", "V14-13", "P3-7", "B5-7"],
)
def test_text_report_is_formatted_from_the_json_report(config, order):
    # the text reads nothing but the JSON dict, so it survives a round trip
    # through the JSON bytes
    run = run_pipeline(config, order)
    data = json.loads(serialize_report(run, "json"))
    assert serialize_report(run, "text") == "\n".join(report_lines(data)) + "\n"


def test_report_of_a_section_past_dimension_three_is_refused_in_both_formats():
    # a hyperplane section of G(3, 6) has dimension 8: both formats stop at
    # the matrix stage, before either is written
    run = PipelineRun(VarietyConfig(GrassmannianSpec(3, 6), (1,)), 7)
    errors = []
    for format in ("json", "text"):
        with pytest.raises(StageError) as err:
            serialize_report(run, format)
        errors.append(str(err.value))
    assert errors[0] == errors[1] == (
        "stage solver: ValueError: complete intersection has dimension 8, "
        "not 3; a counting matrix needs a threefold"
    )


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
    data = verify_golden()
    rows = data["rows"]
    assert data["status"] == 0
    assert len(rows) == 34
    counts = {s: sum(1 for r in rows if r["status"] == s) for s in ("ok", "flagged", "mismatch")}
    assert counts == {"ok": 33, "flagged": 1, "mismatch": 0}


def test_verify_golden_flag_is_visible_not_silent():
    rows = verify_golden("V14")["rows"]
    flagged = [r for r in rows if r["status"] == "flagged"]
    assert len(flagged) == 1
    assert flagged[0]["label"] == "V14:series.c0[3]"
    assert flagged[0]["note"] is not None


def test_verify_golden_single_variety_and_unknown():
    data = verify_golden("V10")
    assert data["status"] == 0
    assert len(data["rows"]) == 17
    with pytest.raises(ConfigError):
        verify_golden("V9")


def test_verify_golden_corrupt_negative_control():
    data = verify_golden(corrupt="V10:matrix.a01")
    assert data["status"] == 1
    mismatched = [r["label"] for r in data["rows"] if r["status"] == "mismatch"]
    assert mismatched == ["V10:matrix.a01"]
    with pytest.raises(ConfigError):
        verify_golden(corrupt="V10:matrix.bogus")


def test_render_verify_table_summary_line():
    table = render_verify_table(verify_golden("V10"))
    assert table.splitlines()[-1] == "17 ok, 0 flagged, 0 mismatched"


def test_render_verify_table_builds_text_lines_only_for_text():
    data = verify_golden("V14")
    payload = json.loads(render_verify_table(data, "json"))
    assert payload == data
    assert payload["status"] == 0
    text = render_verify_table(data, "text").splitlines()
    assert len(text) == len(data["rows"]) + 2
    assert text[-1] == "16 ok, 1 flagged, 0 mismatched"
    with pytest.raises(ConfigError, match="unknown format 'yaml'"):
        render_verify_table(data, "yaml")


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
    data = verify_golden(variety)
    assert data["status"] == 0
    derived = {}
    for row in data["rows"]:
        value = fraction_read(report, row["label"].split(":", 1)[1])
        assert row["derived"] == str(value)
        assert (row["status"] == "mismatch") == (str(value) != row["expected"])
        derived[row["label"]] = row["derived"]
    for label in derived:
        corrupted = verify_golden(variety, corrupt=label)
        mismatched = [r["label"] for r in corrupted["rows"] if r["status"] == "mismatch"]
        assert mismatched == [label]
        # the status is 1 exactly when a row mismatches
        assert corrupted["status"] == int(bool(mismatched)) == 1
        assert {r["label"]: r["derived"] for r in corrupted["rows"]} == derived


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
    [(10**6, 2 * 10**6, 5, 415268217508657530), (8, 16, 5, 8139670), (6, 12, 5, 1476260),
     (5, 10, 5, 596375), (3, 6, 7, 147875), (2, 5, 13, 132704), (1, 5, 30, 14070)],
)
def test_residue_work_figures(r, n, order, work):
    # (T order (order + 1) / 2 + order) (D + 300), D the rounded-up digit
    # estimate: G(6,12) at order 5 has T = 297 and D = 31, so
    # (297 * 15 + 5) * 331 = 1476260.  P^4 runs no term past level 1 and
    # counts its 30 degree parts only.  r is capped at the limit's bit
    # length: G(10^6,2*10^6) counts the T = 2751463396 terms of r = 27
    digits = _coefficient_digits(GrassmannianSpec(r, n), order)
    assert _residue_work(GrassmannianSpec(r, n), order, digits) == work
    assert _residue_work(GrassmannianSpec(n - r, n), order, digits) == work


@pytest.mark.parametrize(
    ("r", "order"),
    [(1, 5), (1, 30), (2, 6), (3, 7), (4, 5), (5, 5), (6, 5), (6, 16), (7, 5), (7, 6), (8, 5),
     (9, 5), (10, 5), (11, 5), (12, 5)],
)
def test_residue_work_counts_the_plan_the_sum_runs(r, order):
    # the model's closed form (3r + 1) 2^r / 4 - (r + 1) counts the terms
    # of `_cofactors(r)`, the levels past the first that `hv_iseries` runs,
    # each a dot product over order (order + 1) / 2 degree pairs, and adds
    # one write-out per degree part; with the (r + 1) level-1 states they
    # number (3r + 1) 2^(r-2)
    terms = sum(len(columns) for columns, _, _ in _cofactors(r))
    assert 4 * (terms + r + 1) == (3 * r + 1) * 2**r
    spec = GrassmannianSpec(r, 2 * r + 1)
    assert _residue_work(spec, order, 0) == (terms * order * (order + 1) // 2 + order) * 300


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
    ("r", "n", "order"),
    [(4, 137, 30), (5, 252, 19), (6, 177, 16), (7, 988, 8), (7, 21, 20), (8, 2791, 5),
     (9, 1106, 5), (10, 365, 5), (11, 38, 5)],
)
def test_residue_work_limit_admits_and_refuses_on_either_side(r, n, order):
    # the largest n the work limit admits for each r at these orders
    PipelineRun(grassmannian(r, n), order)
    with pytest.raises(ConfigError, match="MAX_RESIDUE_WORK"):
        PipelineRun(grassmannian(r, n + 1), order)


@pytest.mark.parametrize(
    ("r", "n", "order"), [(8, 16, 5), (8, 16, 7), (7, 14, 9), (10, 20, 5), (6, 12, 30)]
)
def test_jobs_the_expansion_runs_in_milliseconds_are_admitted(r, n, order):
    # refused while the limit counted r! Leibniz terms; cold, each takes
    # 0.007-0.08 s on the Laplace expansion
    PipelineRun(grassmannian(r, n), order)


def test_oversize_jobs_are_refused_at_set_up():
    with pytest.raises(ConfigError, match="MAX_ORDER"):
        PipelineRun(CATALOG["V10"], MAX_ORDER + 1)
    for config, order in ((grassmannian(12, 24), 5), (grassmannian(7, 14), MAX_ORDER)):
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
    # an interpreter without the limit admits them all, and the work limit
    # still refuses P^(10^8 - 1), whose one root runs no term past level 1
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    PipelineRun(VarietyConfig(GrassmannianSpec(2, 30000), (1,)), 13)
    with pytest.raises(ConfigError, match="MAX_RESIDUE_WORK"):
        PipelineRun(VarietyConfig(GrassmannianSpec(1, 10**8), (1,)), 5)


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
