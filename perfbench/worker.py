"""One workload in one fresh process: set-up, warm-up, then the timed loop.

Started by run.py, never by hand.  Prints `READY <probe seconds>` when
set-up is done (run.py times set-up up to that line), then, unless
`--setup-only`, runs the closed loop for `--seconds` and prints
`RESULT <json>` with the item statistics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "src"))

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Tail percentile per workload: the highest of p50/p75/p90/p95/p99 that
# leaves at least ten samples beyond it in a 30-s run, also in the host's
# slow phases, and whose run-to-run spread stays under a third of the
# bound.  On `inversion` p99/p95/p90 spread 20%/16%/11% across runs on the
# reference host, so it uses p75.  Fixed, so that a faster program (more
# samples) is not judged at a higher percentile.
TAIL_PERCENTILE = {"catalog": 90, "deep": 75, "inversion": 75}

WORK_DIR = CHECKOUT / ".perfbench"


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile by nearest rank, and how many samples lie beyond it."""
    rank = max(1, math.ceil(len(sorted_values) * pct / 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run_item(item, tracer, index: int) -> tuple[float, object, BaseException | None, list]:
    """Run one item; return (wall seconds, output, unexpected exception, spans)."""
    spans = []
    if tracer is not None:
        tracer.install()
        tracer.begin_item(index)
    start = time.perf_counter()
    try:
        output, error = item.run(), None
    except Exception as exc:  # an unexpected raise is a failed item, not a crash
        output, error = None, exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        spans = tracer.end_item()
        tracer.uninstall()
        elapsed = spans[0].end - spans[0].start
    return elapsed, output, error, spans


def check_item(item, output, error) -> list[str]:
    if error is not None:
        return [f"{item.kind}: raised {type(error).__name__}: {error}"]
    try:
        return item.check(output)
    except Exception as exc:  # a malformed output must fail its check, not the run
        return [f"{item.kind}: check raised {type(exc).__name__}: {exc}"]


def timed_loop(items, seconds: float, trace: bool) -> dict:
    """Closed loop over the items until the time is spent.

    Items run in batches of at least calibration.BATCH_S between two
    probes; each item's reference time is its wall time times the speed
    factor of its batch.  At least one batch runs, so a run always
    attempts an item.  With `trace`, every other item is traced.
    """
    tracer = tracing.Tracer() if trace else None
    samples = []  # (kind, wall s, reference s, ok, traced)
    layer_rows = []
    failures = []
    index = 0
    deadline = time.perf_counter() + seconds
    before = calibration.probe()
    while True:
        batch = []
        batch_start = time.perf_counter()
        while True:
            item = items[index % len(items)]
            traced = trace and index % 2 == 1
            elapsed, output, error, spans = run_item(item, tracer if traced else None, index)
            fails = check_item(item, output, error)
            observed = tracer.observed if traced else None
            batch.append((item.kind, elapsed, not fails, traced, spans, observed))
            failures.extend(fails)
            index += 1
            if time.perf_counter() - batch_start >= calibration.BATCH_S:
                break
        after = calibration.probe()
        factor = calibration.speed_factor(before, after)
        for kind, elapsed, ok, traced, spans, observed in batch:
            samples.append((kind, elapsed, elapsed * factor, ok, traced))
            if traced and ok:
                row = tracing.item_layer_metrics(spans, observed, 1000.0 * factor)
                layer_rows.append(row)
        before = after
        if time.perf_counter() >= deadline:
            break
    return {"samples": samples, "layer_rows": layer_rows, "failures": failures, "tracer": tracer}


def end_to_end(workload: str, loop: dict) -> dict:
    """Statistics of the untraced items that passed, in reference time."""
    samples = loop["samples"]
    ok = sorted(ref for _, _, ref, good, traced in samples if good and not traced)
    raw_ok = sorted(wall for _, wall, _, good, traced in samples if good and not traced)
    attempted = len(samples)
    failed = sum(1 for sample in samples if not sample[3])
    pct = TAIL_PERCENTILE[workload]
    out = {"attempted": attempted, "failed": failed, "failures": loop["failures"][:5]}
    if ok:
        tail, beyond = nearest_rank(ok, pct)
        out.update(
            item_p50_ms=statistics.median(ok) * 1000,
            item_tail_ms=tail * 1000,
            items_per_s=len(ok) / sum(ok),
            tail_percentile=pct,
            tail_beyond=beyond,
            raw_item_p50_ms=statistics.median(raw_ok) * 1000,
            raw_items_per_s=len(ok) / sum(raw_ok),
        )
    kinds = defaultdict(list)
    for kind, _, ref, good, traced in samples:
        if good and not traced:
            kinds[kind].append(ref * 1000)
    out["kinds"] = {k: [len(v), statistics.median(v)] for k, v in sorted(kinds.items())}
    out["failed_frac"] = failed / attempted if attempted else 1.0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def per_layer(loop: dict) -> dict:
    """Mean per traced item of every layer metric, plus the run-level ratios."""
    rows = loop["layer_rows"]
    sums = defaultdict(float)
    for row in rows:
        for key, value in row.items():
            sums[key] += value
    n = max(1, len(rows))
    out = {key: value / n for key, value in sums.items()}
    refused = out.pop("solver.refused", 0.0)
    calls = out.get("solver.invert_calls", 0.0)
    out["solver.refused_frac"] = refused / calls if calls else 0.0
    traced = [ref for _, _, ref, good, t in loop["samples"] if good and t]
    plain = [ref for _, _, ref, good, t in loop["samples"] if good and not t]
    if traced and plain:
        out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    out["trace.items"] = len(rows)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import fanocount

    if Path(fanocount.__file__).resolve().parent != CHECKOUT / "src" / "fanocount":
        print(f"fanocount imported from {fanocount.__file__}, not this checkout", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    items = workloads.BUILDERS[args.workload](args.seed, WORK_DIR)
    warm_failures = []
    for index in range(workloads.WARMUP[args.workload]):
        item = items[index % len(items)]
        _, output, error, _ = run_item(item, None, index)
        warm_failures += check_item(item, output, error)
    print(f"READY {calibration.probe()!r}", flush=True)
    if args.setup_only:
        return 0

    loop = timed_loop(items, args.seconds, bool(args.trace))
    result = end_to_end(args.workload, loop)
    result["warmup_failures"] = warm_failures[:5]
    if args.trace:
        result["layers"] = per_layer(loop)
        spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        loop["tracer"].write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(CHECKOUT))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
