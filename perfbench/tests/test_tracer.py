"""Self-time arithmetic on synthetic span trees, and the real wrappers."""

from fractions import Fraction

import pytest

import tracer as tracing
from tracer import Span, covered, item_breakdown, self_times


def tree() -> list[Span]:
    # item [0, 100]
    #   cli.main [5, 95]                     cli
    #     run_pipeline [10, 90]              pipeline
    #       hv_iseries [12, 50]              grassmann
    #         divide_by_vandermonde [40, 48] exactmath
    #       right_determinant [55, 80]       d3
    #       one_point_relation [81, 83]      relations
    return [
        Span(0, "item", None, 0.0, 100.0, None, 7),
        Span(1, "cli.main", "cli", 5.0, 95.0, 0, 7),
        Span(2, "pipeline.run_pipeline", "pipeline", 10.0, 90.0, 1, 7),
        Span(3, "grassmann.hv_iseries", "grassmann", 12.0, 50.0, 2, 7),
        Span(4, "exactmath.divide_by_vandermonde", "exactmath", 40.0, 48.0, 3, 7),
        Span(5, "d3.right_determinant", "d3", 55.0, 80.0, 2, 7),
        Span(6, "relations.one_point_relation", "relations", 81.0, 83.0, 2, 7),
    ]


def test_self_time_is_duration_minus_children():
    own = self_times(tree())
    assert own == {0: 10.0, 1: 10.0, 2: 15.0, 3: 30.0, 4: 8.0, 5: 25.0, 6: 2.0}


def test_layers_plus_unattributed_equal_item_time():
    out = item_breakdown(tree())
    assert out["item"] == 100.0
    assert out["unattributed"] == 10.0
    assert out["cli"] == 10.0 and out["pipeline"] == 15.0 and out["grassmann"] == 30.0
    assert out["exactmath"] == 8.0 and out["d3"] == 25.0 and out["relations"] == 2.0
    assert out["solver"] == out["lefschetz"] == 0.0
    layers = sum(out[layer] for layer in tracing.LAYERS)
    assert layers + out["unattributed"] == out["item"]


def test_covered_merges_overlaps_and_clips():
    assert covered([(0.0, 4.0), (2.0, 6.0), (8.0, 9.0)], 0.0, 10.0) == 7.0
    assert covered([(-5.0, 3.0), (9.0, 20.0)], 0.0, 10.0) == 4.0
    assert covered([], 0.0, 10.0) == 0.0


@pytest.fixture
def matrix():
    from fanocount import solver

    F = Fraction
    return solver.CountingMatrix(10, F(156), F(10), F(3600), F(380), F(33120))


def test_recursive_determinant_is_timed_once_and_originals_return(matrix):
    from fanocount import d3, pipeline

    original = d3.right_determinant
    t = tracing.Tracer()
    t.install()
    try:
        t.begin_item(0)
        pipeline.right_determinant(pipeline.build_pencil(matrix, 0))
        spans = t.end_item()
    finally:
        t.uninstall()
    assert d3.right_determinant is original
    assert pipeline.right_determinant is original
    names = [s.name for s in spans]
    assert names.count("d3.right_determinant") == 1
    det = next(s for s in spans if s.name == "d3.right_determinant")
    row = tracing.item_layer_metrics(spans, t.observed)
    assert row["d3.det_calls"] == 1 and row["d3.det_terms"] > 0
    assert row["d3.det_ms"] == pytest.approx((det.end - det.start) * 1000)
    parts = item_breakdown(spans)
    total = sum(parts[layer] for layer in tracing.LAYERS) + parts["unattributed"]
    assert total == pytest.approx(parts["item"], rel=1e-12)


def test_calls_outside_an_item_are_not_recorded(matrix):
    from fanocount import solver

    t = tracing.Tracer()
    t.install()
    try:
        solver.forward_periods(matrix)
    finally:
        t.uninstall()
    assert t.spans == []
