"""The three workloads: their items, inputs from the seed, and output checks.

Each workload is a list of items that one client runs in a closed loop,
in order, wrapping round.  An item's `run` is the timed call into
fanocount; its `check` inspects what `run` returned, untimed, and returns
a list of failures (empty when the output is right).

* catalog   -- `fanocount verify --format json` through `cli.main`, every
               layer at order 7 for V10 and V14.  The command takes no
               input, so the seed changes nothing here.
* deep      -- round robin over `report --order 13` for V10 and V14 and
               `iseries --order 7` on a G(3,6) config written at set-up;
               the seed picks which of the three comes first.
* inversion -- seeded calls to `forward_periods` / `invert_periods` only:
               random counting matrices that must invert back to
               themselves, random period vectors of arbitrary height whose
               inverse must map forward to them, and members of a
               degenerate fiber that must be refused.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

import oracles

WORKLOADS = ("catalog", "deep", "inversion")

INVERSION_POOL = 4000
INVERSION_MIX = (("matrix", 0.6), ("vector", 0.3), ("degenerate", 0.1))

G36_CONFIG = {
    "name": "G(3,6) ambient",
    "ambient": {"type": "grassmannian", "r": 3, "n": 6},
    "degrees": [1],
}


@dataclass
class Item:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def degenerate_member(t: F, solver):
    """Member a11 = t of the one-parameter family of counting matrices that
    share a single period vector; t = 0, 1, 7/3 are the three members listed
    in scripts/period_fiber_experiment.py."""
    return solver.CountingMatrix(
        deg=1, a01=F(0), a11=t, a02=F(27), a12=F(400, 11) - 12 * t + t * t, a03=256 - 84 * t
    )


def _cli_item(kind: str, argv: list[str], check, fanocount_cli) -> Item:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = fanocount_cli.main(argv)
        return status, out.getvalue()

    def checked(result) -> list[str]:
        status, stdout = result
        if status != 0:
            return [f"{kind}: exit status {status}"]
        return check(stdout)

    return Item(kind, run, checked)


def catalog_items(seed: int, workdir: Path, digests=oracles.DIGESTS, models=oracles.README_MODELS):
    from fanocount import cli

    def check(stdout: str) -> list[str]:
        return oracles.check_digest("verify", stdout, digests) + oracles.check_verify(stdout, models)

    return [_cli_item("verify", ["verify", "--format", "json"], check, cli)]


def deep_items(seed: int, workdir: Path, digests=oracles.DIGESTS, models=oracles.README_MODELS):
    from fanocount import cli

    config = workdir / "g36.json"
    scratch = workdir / f"g36.json.{os.getpid()}"
    scratch.write_text(json.dumps(G36_CONFIG))
    os.replace(scratch, config)

    def report_check(name):
        def check(stdout: str) -> list[str]:
            return oracles.check_digest(f"report-{name}", stdout, digests) + oracles.check_report(
                name, stdout, models
            )

        return check

    items = [
        _cli_item(
            f"report-{name}",
            ["report", "--variety", name, "--order", "13", "--format", "json"],
            report_check(name),
            cli,
        )
        for name in ("V10", "V14")
    ]
    items.append(
        _cli_item(
            "iseries-G36",
            ["iseries", "--variety", str(config), "--order", "7", "--format", "json"],
            lambda stdout: oracles.check_digest("iseries-G36", stdout, digests),
            cli,
        )
    )
    first = random.Random(seed).randrange(len(items))
    return items[first:] + items[:first]


def _matrix_item(m, solver) -> Item:
    def run():
        periods = solver.forward_periods(m)
        try:
            return periods, solver.invert_periods(periods, m.deg)
        except solver.DegenerateLocus as exc:
            return periods, exc

    def check(result) -> list[str]:
        periods, got = result
        if isinstance(got, solver.DegenerateLocus):
            if oracles.discriminant(periods.as_tuple()) == 0:
                return []
            return [f"matrix: refused as degenerate off the discriminant: {m}"]
        if got != m:
            return [f"matrix: round trip gave {got}, expected {m}"]
        return []

    return Item("matrix", run, check)


def _vector_item(v, solver) -> Item:
    refusals = (solver.NoRationalSolution, solver.AmbiguousSolution, solver.DegenerateLocus)

    def run():
        try:
            return solver.invert_periods(v, 1)
        except refusals as exc:
            return exc

    def check(got) -> list[str]:
        if isinstance(got, solver.DegenerateLocus):
            return [] if oracles.discriminant(v.as_tuple()) == 0 else [f"vector: bad degenerate refusal of {v}"]
        if isinstance(got, refusals):
            return []
        if got.a01 != 4 * v.d2 or solver.forward_periods(got) != v:
            return [f"vector: {got} does not map forward to {v}"]
        return []

    return Item("vector", run, check)


def _degenerate_item(m, solver) -> Item:
    def run():
        periods = solver.forward_periods(m)
        try:
            solver.invert_periods(periods, 1)
        except solver.DegenerateLocus as exc:
            return periods, exc
        return periods, None

    def check(result) -> list[str]:
        periods, exc = result
        if exc is None:
            return [f"degenerate: inversion accepted the degenerate fiber of {m}"]
        if oracles.discriminant(periods.as_tuple()) != 0:
            return [f"degenerate: member {m} left the discriminant locus"]
        return []

    return Item("degenerate", run, check)


def inversion_items(seed: int, workdir: Path):
    from fanocount import solver

    rng = random.Random(seed)

    def entry() -> F:
        return F(rng.randint(-30, 30), rng.randint(1, 8))

    def height() -> F:
        k = rng.randint(1, 12)
        return F(rng.randint(-(10**k), 10**k), rng.randint(1, 10 ** rng.randint(0, 3)))

    kinds, weights = zip(*INVERSION_MIX)
    items = []
    for kind in rng.choices(kinds, weights, k=INVERSION_POOL):
        if kind == "matrix":
            m = solver.CountingMatrix(1, entry(), entry(), entry(), entry(), entry())
            items.append(_matrix_item(m, solver))
        elif kind == "vector":
            v = solver.PeriodVector(*(height() for _ in range(5)))
            items.append(_vector_item(v, solver))
        else:
            t = F(rng.randint(-50, 50), rng.randint(1, 9))
            items.append(_degenerate_item(degenerate_member(t, solver), solver))
    return items


BUILDERS = {"catalog": catalog_items, "deep": deep_items, "inversion": inversion_items}

# Items run once before timing: a first pass fills the solver's relation
# memo and the interpreter's caches, as a long-lived user process would.
WARMUP = {"catalog": 1, "deep": 3, "inversion": 20}

