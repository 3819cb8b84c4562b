"""fanocount benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; fanocount is imported from its `src/`.
Each workload runs in fresh worker processes (perfbench/worker.py), so no
memo leaks between workloads.  Set-up (process start, `import fanocount`,
input generation and warm-up, up to the first timed item) is measured
SETUP_SAMPLES times, the last of them being the process that then runs
the timed loop; `setup_s` is their median.

The run record goes to stdout first; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics` -- the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORKER = HERE / "worker.py"

import calibration  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
# A worker that outlives its time budget by this much is killed.
GRACE_S = 120.0

HOST_NOTE = (
    "host drift: on a shared vCPU the same item runs 1.3-1.7x slower in phases of "
    "seconds (CPU time tracks wall time, steal ~0); times are reported at reference "
    f"speed (probe = {calibration.PROBE_REFERENCE_S * 1000:g} ms), raw wall times beside them"
)


class WorkerError(RuntimeError):
    pass


def start_worker(args: list[str], limit_s: float) -> tuple[subprocess.Popen, threading.Timer, float, float]:
    """Start a worker; return it with its watchdog, set-up seconds and ready probe."""
    before = calibration.probe()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, text=True, cwd=CHECKOUT
    )
    watchdog = threading.Timer(limit_s, proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if not line.startswith("READY "):
        finish_worker(proc, watchdog)
        raise WorkerError(f"worker did not get ready (exit {proc.returncode})")
    child_probe = float(line.split()[1])
    return proc, watchdog, setup, calibration.speed_factor(before, child_probe)


def finish_worker(proc: subprocess.Popen, watchdog: threading.Timer) -> str:
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups, raw_setups = [], []
    for _ in range(SETUP_SAMPLES - 1):
        proc, watchdog, setup, factor = start_worker(base + ["--setup-only"], GRACE_S)
        finish_worker(proc, watchdog)
        if proc.returncode != 0:
            raise WorkerError(f"set-up worker exited {proc.returncode}")
        setups.append(setup * factor)
        raw_setups.append(setup)
    proc, watchdog, setup, factor = start_worker(
        base + ["--trace", str(trace)], seconds + GRACE_S
    )
    setups.append(setup * factor)
    raw_setups.append(setup)
    out = finish_worker(proc, watchdog)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}")
    lines = [line for line in out.splitlines() if line.startswith("RESULT ")]
    if not lines:
        raise WorkerError("worker printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    result["setup_s"] = statistics.median(setups)
    result["raw_setup_s"] = statistics.median(raw_setups)
    return result


def summary(trace: int, r: dict) -> dict:
    """The last-line JSON of a run."""
    correct = r["failed"] == 0 and r["attempted"] > 0 and not r["warmup_failures"]
    if trace:
        values = {name: r["layers"].get(name, 0.0) for name in metrics.PER_LAYER}
        units = {name: spec[0] for name, spec in metrics.PER_LAYER.items()}
    else:
        values = {name: r.get(name) for name in metrics.END_TO_END}
        units = {name: spec[0] for name, spec in metrics.END_TO_END.items()}
    return {
        "correct": correct,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }


def record(workload: str, seed: int, seconds: float, trace: int, r: dict) -> list[str]:
    """Human-readable run record printed before the JSON line."""
    lines = [
        f"fanocount benchmark: workload {workload}, seed {seed}, {seconds:g} s, trace {trace}",
        f"python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"pinned to cpu {sorted(os.sched_getaffinity(0))}, closed loop, 1 client",
        f"items: {r['attempted']} attempted, {r['failed']} failed, "
        f"failed_frac {r['failed_frac']:.4f}",
        f"setup_s       {r['setup_s']:.4f} s   (median of {SETUP_SAMPLES}; raw {r['raw_setup_s']:.4f} s)",
    ]
    if "item_p50_ms" in r:
        lines += [
            f"item_p50_ms   {r['item_p50_ms']:.4f} ms  (raw {r['raw_item_p50_ms']:.4f} ms)",
            f"item_tail_ms  {r['item_tail_ms']:.4f} ms  (p{r['tail_percentile']}, "
            f"{r['tail_beyond']} samples beyond it)",
            f"items_per_s   {r['items_per_s']:.4f} 1/s (raw {r['raw_items_per_s']:.4f} 1/s)",
        ]
    lines.append(f"peak_rss_mb   {r['peak_rss_mb']:.4f} MB")
    for kind, (count, p50) in r["kinds"].items():
        lines.append(f"  {kind:12s} {count:6d} items passed, p50 {p50:.4f} ms")
    if trace:
        layers = r["layers"]
        lines.append(f"traced items: {layers.get('trace.items', 0)}, spans in {r['spans_file']}")
        for name, (unit, _, moves) in metrics.PER_LAYER.items():
            lines.append(f"  {name:28s} {layers.get(name, 0.0):14.4f} {unit:6s} {moves}")
    for failure in r["failures"] + r["warmup_failures"]:
        lines.append(f"FAILED: {failure}")
    lines.append(HOST_NOTE)
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (CHECKOUT / "src" / "fanocount" / "__init__.py").is_file():
        print(f"error: no fanocount sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    # Probe and items must share one vCPU for the speed factor to apply.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            r = run_workload(name, args.seed, args.seconds, args.trace)
        except WorkerError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 3
        print("\n".join(record(name, args.seed, args.seconds, args.trace, r)), flush=True)
        results[name] = summary(args.trace, r)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
