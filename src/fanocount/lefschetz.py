"""Quantum Lefschetz transform, mod H^2, for Fano complete intersections.

A complete intersection Y of hypersurface degrees (d_1..d_k) and Fano index
r inside an ambient space X with hyperplane series
I^X = sum (c0[d] + c1[d] H) q^d is handled in three steps:

* per-degree Euler correction, multiplying the degree-d coefficient by
  E_d = prod_j prod_{i=1}^{d_j * d} (d_j H + i), again mod H^2,
* for Fano index 1, the exponential normalization exp(-alpha q) with
  alpha = prod_j d_j! * c0[1].  For index >= 2 the shift alpha is 0 and the
  exponential factor is trivial, and
* the regrading from the hyperplane class H to -K = r H: hyperplane degree
  d becomes anticanonical degree r d, and the H coefficient becomes the
  -K coefficient c1[d] / r.  At index 1 this is the identity.

The i = 0 factors of the textbook Euler product cancel between numerator and
denominator of the transform and are omitted here by construction.  The
counting-matrix relations are stated for the -K grading, so the returned
series feeds them for every index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from operator import mul

from .exactmath import PowerSeries, exp_twist
from .grassmann import GrassmannianSpec, HSeriesPair, harmonic_numerators

_ZERO = Fraction(0)


class NotFano(ValueError):
    """The complete intersection has nonpositive Fano index."""


@dataclass(frozen=True)
class CompleteIntersectionSpec:
    """Hypersurface degrees cutting a subvariety of a Grassmannian."""

    ambient: GrassmannianSpec
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "degrees", tuple(self.degrees))
        if any(type(d) is not int for d in self.degrees):
            raise ValueError(f"hypersurface degrees must be integers, got {self.degrees!r}")
        if any(d < 1 for d in self.degrees):
            raise ValueError("hypersurface degrees must be positive")

    @property
    def fano_index(self) -> int:
        return self.ambient.n - sum(self.degrees)

    @property
    def dimension(self) -> int:
        return self.ambient.r * (self.ambient.n - self.ambient.r) - len(self.degrees)

    @property
    def anticanonical_degree(self) -> int:
        """(-K)^dim = index^dim * Plucker degree of the ambient * prod(degrees)."""
        return self.fano_index**self.dimension * self.ambient.plucker_degree * prod(self.degrees)


def ci_geometry(spec: CompleteIntersectionSpec) -> CompleteIntersectionSpec:
    """The spec itself, once checked to be Fano."""
    if spec.fano_index <= 0:
        raise NotFano(f"Fano index {spec.fano_index} is not positive")
    return spec


def lefschetz_shift(spec: CompleteIntersectionSpec, c0x: PowerSeries) -> Fraction:
    """Exponential shift alpha: prod_j d_j! * c0[1] for index 1, else 0."""
    if spec.fano_index != 1:
        return _ZERO
    scale = prod(factorial(d) for d in spec.degrees)
    return Fraction(scale * c0x.nums[1], c0x.den)


@lru_cache(maxsize=16)
def _euler_table(degrees: tuple[int, ...], order: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """L = lcm(1..max_j d_j (order - 1)) and, for d = 0..order-1, the Euler
    factors prod_j (d_j d)! and sum_j d_j * H_(d_j d) * L, with H_k the k-th
    harmonic number; they depend on the degrees and the order only, so they
    are built once per process for the 16 most recently used jobs."""
    top = max(degrees, default=0) * (order - 1)
    fact = [1]
    for k in range(1, top + 1):
        fact.append(fact[-1] * k)
    hden, hnums = harmonic_numerators(top)
    f0 = tuple(prod(fact[dj * d] for dj in degrees) for d in range(order))
    h1 = tuple(sum(dj * hnums[dj * d] for dj in degrees) for d in range(order))
    return hden, f0, h1


def euler_corrected_series(pair: HSeriesPair, degrees: tuple[int, ...]) -> HSeriesPair:
    """Multiply the degree-d coefficient by E_d = prod_j prod_{i=1}^{d_j d} (d_j H + i).

    Mod H^2 the factor collapses to
        prod_j (d_j d)! * (1 + sum_j d_j * H_(d_j d) * H),
    with H_k the k-th harmonic number.  With c0 = a / A, c1 = b / B and the
    harmonic numbers as numerators over L = lcm(1..max_j d_j (order - 1)),
    the corrected c0 sits over A and the corrected c1 over lcm(B, A L), read
    off the factors of `_euler_table`.
    """
    hden, f0, h1 = _euler_table(tuple(degrees), pair.order)
    a, den_a = pair.c0.nums, pair.c0.den
    b, den_b = pair.c1.nums, pair.c1.den
    den1 = lcm(den_b, den_a * hden)
    lift_b, lift_a = den1 // den_b, den1 // (den_a * hden)
    e0 = list(map(mul, f0, a))
    e1 = [f * (bd * lift_b + h * ad * lift_a) for f, h, ad, bd in zip(f0, h1, a, b)]
    return HSeriesPair(
        PowerSeries.from_numerators(den_a, e0), PowerSeries.from_numerators(den1, e1)
    )


def _regraded(series: PowerSeries, index: int, divisor: int) -> PowerSeries:
    """series(t^index) / divisor, truncated to the series' own order; the
    series itself at index 1 and divisor 1."""
    if index == divisor == 1:
        return series
    nums = [0] * series.order
    nums[::index] = series.nums[: len(nums[::index])]
    return PowerSeries.from_numerators(series.den * divisor, nums)


def quantum_lefschetz(
    pair_x: HSeriesPair, spec: CompleteIntersectionSpec, alpha: Fraction
) -> HSeriesPair:
    """Series of the complete intersection graded by -K, mod H^2, twisted
    by exp(-alpha q); alpha is `lefschetz_shift(spec, pair_x.c0)`, which the
    caller has already computed."""
    r = ci_geometry(spec).fano_index
    corrected = euler_corrected_series(pair_x, spec.degrees)
    shift = -alpha
    c0, c1 = exp_twist(corrected.c0, shift), exp_twist(corrected.c1, shift)
    return HSeriesPair(_regraded(c0, r, 1), _regraded(c1, r, r))
