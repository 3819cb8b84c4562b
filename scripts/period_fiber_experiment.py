"""Empirical survey of the period-to-matrix inversion.

Samples random counting matrices, pushes them through the period map, and
inverts back, tallying roundtrip successes and discriminant-zero hits.
Then walks a degenerate fiber: an explicit one-parameter family of
matrices that all share the same period vector, which is exactly the
situation the discriminant gate refuses to invert.

Run as: python3 scripts/period_fiber_experiment.py [--samples N] [--seed S]
"""

import argparse
import random
import time
from fractions import Fraction

from fanocount.solver import (
    CountingMatrix,
    DegenerateLocus,
    PeriodVector,
    discriminant,
    forward_periods,
    invert_periods,
)

F = Fraction

# three members of the family (a01, a11, a02, a12, a03) sharing one fiber
DEGENERATE_FAMILY = [
    CountingMatrix(deg=1, a01=F(0), a11=F(0), a02=F(27), a12=F(400, 11), a03=F(256)),
    CountingMatrix(deg=1, a01=F(0), a11=F(1), a02=F(27), a12=F(279, 11), a03=F(172)),
    CountingMatrix(deg=1, a01=F(0), a11=F(7, 3), a02=F(27), a12=F(1367, 99), a03=F(60)),
]


def random_matrix(rng: random.Random) -> CountingMatrix:
    entry = lambda: F(rng.randint(-30, 30), rng.randint(1, 8))
    return CountingMatrix(
        deg=1, a01=entry(), a11=entry(), a02=entry(), a12=entry(), a03=entry()
    )


def survey(samples: int, seed: int) -> None:
    rng = random.Random(seed)
    roundtrips = 0
    degenerate = 0
    start = time.perf_counter()
    for _ in range(samples):
        matrix = random_matrix(rng)
        periods = forward_periods(matrix)
        if discriminant(periods) == 0:
            degenerate += 1
            continue
        assert invert_periods(periods, 1) == matrix
        roundtrips += 1
    elapsed = time.perf_counter() - start
    print(f"samples:            {samples}")
    print(f"exact roundtrips:   {roundtrips}")
    print(f"degenerate periods: {degenerate}")
    print(f"elapsed:            {elapsed:.2f}s ({elapsed / samples * 1000:.2f} ms/sample)")


def walk_degenerate_fiber() -> None:
    print()
    print("degenerate fiber: distinct matrices, identical periods")
    fiber = {forward_periods(m) for m in DEGENERATE_FAMILY}
    assert len(fiber) == 1
    periods = fiber.pop()
    print(f"  shared periods d2..d6: {[str(x) for x in periods.as_tuple()]}")
    print(f"  discriminant: {discriminant(periods)}")
    for matrix in DEGENERATE_FAMILY:
        entries = ", ".join(f"{k}={v}" for k, v in matrix.entries().items())
        print(f"  member: {entries}")
    try:
        invert_periods(periods, 1)
    except DegenerateLocus as exc:
        print(f"  inversion refused, as it must be: {exc}")
    else:
        raise SystemExit("inversion accepted a degenerate fiber")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    survey(args.samples, args.seed)
    walk_degenerate_fiber()


if __name__ == "__main__":
    main()
