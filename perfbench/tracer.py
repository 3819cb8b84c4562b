"""Span recorder for the traced run, and the self-time arithmetic.

Spans are recorded from the benchmark's files only.  `Tracer.install`
replaces each public callable listed in TARGETS *where the calling module
binds it* (for example `fanocount.pipeline.right_determinant`, the name
that `run_pipeline` looks up at call time) with a wrapper that opens a
span; `uninstall` puts the originals back.  `run_pipeline`, `verify_golden`
and `cli.main` therefore run their real code, and nothing in the package
is edited.

A span is (name, layer, start, end, parent, item).  Self time is a span's
duration minus the part of it that its children cover; per item, the layer
self times plus the self time of the item's root span (reported as
`unattributed`) add up to the traced item time.  `right_determinant` is
recursive through its own module binding, so it is timed at the
outermost call only.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter

LAYERS = ("cli", "pipeline", "grassmann", "exactmath", "lefschetz", "relations", "solver", "d3")

# (binding site, attribute, layer of the callee).  A binding site is a
# module, or "module:Class" for a method looked up through the instance.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("fanocount.cli", "main", "cli"),
    ("fanocount.cli", "verify_golden", "pipeline"),
    ("fanocount.cli", "run_pipeline", "pipeline"),
    ("fanocount.cli", "load_config", "pipeline"),
    ("fanocount.cli", "ambient_series", "pipeline"),
    ("fanocount.cli", "serialize_report", "pipeline"),
    ("fanocount.cli", "render_verify_table", "pipeline"),
    ("fanocount.cli", "ci_geometry", "lefschetz"),
    ("fanocount.cli", "lefschetz_shift", "lefschetz"),
    ("fanocount.cli", "quantum_lefschetz", "lefschetz"),
    ("fanocount.cli", "recover_matrix", "solver"),
    ("fanocount.cli", "forward_periods", "solver"),
    ("fanocount.cli", "discriminant", "solver"),
    ("fanocount.cli", "invert_periods", "solver"),
    ("fanocount.cli", "build_pencil", "d3"),
    ("fanocount.cli", "right_determinant", "d3"),
    ("fanocount.cli", "left_divide_by_D", "d3"),
    ("fanocount.cli", "frobenius_solve", "d3"),
    ("fanocount.cli", "apply_operator", "d3"),
    ("fanocount.cli", "modularity_report", "d3"),
    ("fanocount.pipeline", "run_pipeline", "pipeline"),
    ("fanocount.pipeline", "ambient_series", "pipeline"),
    ("fanocount.pipeline", "hv_iseries", "grassmann"),
    ("fanocount.pipeline", "extract_h_pair", "grassmann"),
    ("fanocount.pipeline", "projective_iseries", "grassmann"),
    ("fanocount.pipeline", "ci_geometry", "lefschetz"),
    ("fanocount.pipeline", "lefschetz_shift", "lefschetz"),
    ("fanocount.pipeline", "quantum_lefschetz", "lefschetz"),
    ("fanocount.pipeline", "recover_matrix", "solver"),
    ("fanocount.pipeline", "forward_periods", "solver"),
    ("fanocount.pipeline", "discriminant", "solver"),
    ("fanocount.pipeline", "build_pencil", "d3"),
    ("fanocount.pipeline", "right_determinant", "d3"),
    ("fanocount.pipeline", "left_divide_by_D", "d3"),
    ("fanocount.pipeline", "frobenius_solve", "d3"),
    ("fanocount.pipeline", "modularity_report", "d3"),
    ("fanocount.grassmann", "divide_by_vandermonde", "exactmath"),
    ("fanocount.relations:RelationEngine", "one_point_relation", "relations"),
    ("fanocount.solver", "forward_periods", "solver"),
    ("fanocount.solver", "invert_periods", "solver"),
    ("fanocount.solver", "rational_roots", "solver"),
    ("fanocount.d3", "build_pencil", "d3"),
    ("fanocount.d3", "right_determinant", "d3"),
    ("fanocount.d3", "left_divide_by_D", "d3"),
    ("fanocount.d3", "frobenius_solve", "d3"),
)

OUTERMOST_ONLY = frozenset({"d3.right_determinant"})

REFUSALS = frozenset({"DegenerateLocus", "NoRationalSolution", "AmbiguousSolution"})


@dataclass
class Span:
    sid: int
    name: str
    layer: str | None
    start: float
    end: float
    parent: int | None
    item: int


def _owner(site: str):
    module, _, cls = site.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - covered(children[s.sid], s.start, s.end) for s in spans}


def item_breakdown(spans: list[Span]) -> dict[str, float]:
    """Per-layer self seconds of one item, plus `unattributed` and `item`.

    The root span (layer None) is the item; its self time is the part of
    the item no layer span covers.  The layer values and `unattributed`
    sum to `item`.
    """
    own = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS}
    out["unattributed"] = 0.0
    for s in spans:
        if s.layer is None:
            out["unattributed"] += own[s.sid]
            out["item"] = s.end - s.start
        else:
            out[s.layer] += own[s.sid]
    parts = sum(out[layer] for layer in LAYERS) + out["unattributed"]
    if abs(parts - out["item"]) > 1e-9 * max(1.0, out["item"]):
        raise ArithmeticError(f"self times sum to {parts}, item took {out['item']}")
    return out


class Tracer:
    """Records spans and the objects the traced callables return."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._open_names: set[str] = set()
        self._installed: list[tuple[object, str, object]] = []
        self._item: int | None = None
        self._item_first_span = 0
        self.observed: list[tuple[str, tuple, object, BaseException | None]] = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str, layer: str | None) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, layer, perf_counter(), 0.0, parent, self._item)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def begin_item(self, item: int) -> None:
        self._item = item
        self._item_first_span = len(self.spans)
        self.observed = []
        self._open("item", None)

    def end_item(self) -> list[Span]:
        """Close the item's root span and return the item's spans."""
        if len(self._stack) != 1:
            raise RuntimeError(f"spans left open: {[s.name for s in self._stack[1:]]}")
        self._close(self._stack[0])
        self._item = None
        return self.spans[self._item_first_span:]

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        outermost = name in OUTERMOST_ONLY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._item is None or (outermost and name in tracer._open_names):
                return fn(*args, **kwargs)
            span = tracer._open(name, layer)
            if outermost:
                tracer._open_names.add(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer._close(span)
                tracer._open_names.discard(name)
                tracer.observed.append((name, args, result, error))

        return traced

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for site, attr, layer in TARGETS:
            owner = _owner(site)
            original = getattr(owner, attr)
            name = f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"
            setattr(owner, attr, self._wrap(original, name, layer))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# -- per-item layer metrics ------------------------------------------------------


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def item_layer_metrics(
    spans: list[Span], observed: list, ms_per_second: float = 1000.0
) -> dict[str, float]:
    """Every per-layer metric of one traced item.

    Times are span seconds multiplied by `ms_per_second`, which lets the
    caller apply the same host-speed factor as to the untraced item times.
    """
    own = self_times(spans)
    total = defaultdict(float)
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total[s.name] += s.end - s.start
        self_by_name[s.name] += own[s.sid]
        calls[s.name] += 1
    layers = item_breakdown(spans)

    parts = terms = coeff_bits = rel_terms = det_terms = period_bits = refused = 0
    for name, args, result, exc in observed:
        if name == "grassmann.hv_iseries" and exc is None:
            parts += len(result)
            for part in result:
                terms += len(part.terms)
                coeff_bits = max([coeff_bits] + [_bits(c) for c in part.terms.values()])
        elif name == "relations.one_point_relation" and exc is None:
            rel_terms += len(result.terms)
        elif name == "d3.right_determinant" and exc is None:
            det_terms += len(result.terms)
        elif name == "solver.forward_periods" and exc is None:
            period_bits = max([period_bits] + [_bits(x) for x in result.as_tuple()])
        elif name == "solver.invert_periods":
            period_bits = max([period_bits] + [_bits(x) for x in args[0].as_tuple()])
            if exc is not None and type(exc).__name__ in REFUSALS:
                refused += 1

    lefschetz_calls = sum(1 for s in spans if s.layer == "lefschetz")
    out = {
        "cli.self_ms": layers["cli"],
        "pipeline.self_ms": layers["pipeline"],
        "pipeline.serialize_ms": total["pipeline.serialize_report"]
        + total["pipeline.render_verify_table"],
        "grassmann.self_ms": layers["grassmann"],
        "grassmann.degree_parts": parts,
        "grassmann.terms": terms,
        "grassmann.coeff_bits": coeff_bits,
        "exactmath.vandermonde_calls": calls["exactmath.divide_by_vandermonde"],
        "exactmath.vandermonde_ms": total["exactmath.divide_by_vandermonde"],
        "lefschetz.calls": lefschetz_calls,
        "lefschetz.self_ms": layers["lefschetz"],
        "relations.calls": calls["relations.one_point_relation"],
        "relations.self_ms": layers["relations"],
        "relations.terms": rel_terms,
        "solver.recover_ms": total["solver.recover_matrix"],
        "solver.periods_ms": total["solver.forward_periods"] + total["solver.discriminant"],
        "solver.invert_calls": calls["solver.invert_periods"],
        "solver.invert_self_ms": self_by_name["solver.invert_periods"],
        "solver.roots_calls": calls["solver.rational_roots"],
        "solver.roots_ms": total["solver.rational_roots"],
        "solver.refused": refused,
        "solver.period_bits": period_bits,
        "d3.pencil_ms": total["d3.build_pencil"],
        "d3.det_calls": calls["d3.right_determinant"],
        "d3.det_ms": total["d3.right_determinant"],
        "d3.det_terms": det_terms,
        "d3.leftdiv_ms": total["d3.left_divide_by_D"],
        "d3.frobenius_ms": total["d3.frobenius_solve"],
        "d3.modularity_self_ms": self_by_name["d3.modularity_report"],
        "trace.unattributed_ms": layers["unattributed"],
        "trace.item_ms": layers["item"],
    }
    for key in out:
        if key.endswith("_ms"):
            out[key] *= ms_per_second
    return out
