"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json lists the same metrics (a test keeps the two in step).
The third field of each per-layer entry records, before anything is
optimized, which end-to-end metric on which workload a change in that
layer metric should move; "guard" marks layers under about 2% of an
item, kept to catch regressions.
"""

from __future__ import annotations

# name -> (unit, better, bound)
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "item_p50_ms": ("ms", "lower", 0.2),
    "item_tail_ms": ("ms", "lower", 0.2),
    "items_per_s": ("1/s", "higher", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_GRASSMANN = "item_p50_ms, items_per_s: deep most, catalog next; not inversion"
_RELATIONS = "item_p50_ms, items_per_s: deep, then catalog; near 0 on inversion (warm memo)"
_D3 = "item_p50_ms, items_per_s: catalog and deep; not inversion"
_INVERT = "item_p50_ms, items_per_s: inversion only"
_GUARD = "guard: under ~2% of an item on every workload"

# name -> (unit, better, what it should move)
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "cli.self_ms": ("ms", "lower", _GUARD),
    "pipeline.self_ms": ("ms", "lower", _GUARD),
    "pipeline.serialize_ms": ("ms", "lower", _GUARD),
    "grassmann.self_ms": ("ms", "lower", _GRASSMANN),
    "grassmann.degree_parts": ("count", "lower", _GRASSMANN),
    "grassmann.terms": ("count", "lower", _GRASSMANN),
    "grassmann.coeff_bits": ("bit", "lower", _GRASSMANN),
    "exactmath.vandermonde_calls": ("count", "lower", _GRASSMANN),
    "exactmath.vandermonde_ms": ("ms", "lower", _GRASSMANN),
    "lefschetz.calls": ("count", "lower", _GUARD),
    "lefschetz.self_ms": ("ms", "lower", _GUARD),
    "relations.calls": ("count", "lower", _RELATIONS),
    "relations.self_ms": ("ms", "lower", _RELATIONS),
    "relations.terms": ("count", "lower", _RELATIONS),
    "solver.recover_ms": ("ms", "lower", _GUARD),
    "solver.periods_ms": ("ms", "lower", _GUARD),
    "solver.invert_calls": ("count", "lower", _INVERT),
    "solver.invert_self_ms": ("ms", "lower", _INVERT),
    "solver.roots_calls": ("count", "lower", _INVERT),
    "solver.roots_ms": ("ms", "lower", _INVERT),
    "solver.refused_frac": ("ratio", "lower", _INVERT),
    "solver.period_bits": ("bit", "lower", _INVERT),
    "d3.pencil_ms": ("ms", "lower", _D3),
    "d3.det_calls": ("count", "lower", _D3),
    "d3.det_ms": ("ms", "lower", _D3),
    "d3.det_terms": ("count", "lower", _D3),
    "d3.leftdiv_ms": ("ms", "lower", _D3),
    "d3.frobenius_ms": ("ms", "lower", _D3),
    "d3.modularity_self_ms": ("ms", "lower", _D3),
    "trace.unattributed_ms": ("ms", "lower", "item time outside every layer span"),
    "trace.overhead_frac": ("ratio", "lower", "traced against untraced item_p50_ms"),
}
