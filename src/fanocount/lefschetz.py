"""Quantum Lefschetz transform, mod H^2, for Fano complete intersections.

A complete intersection Y of hypersurface degrees (d_1..d_k) inside an
ambient space X with hyperplane series I^X = sum (c0[d] + c1[d] H) q^d is
handled in two steps:

* per-degree Euler correction, multiplying the degree-d coefficient by
  E_d = prod_j prod_{i=1}^{d_j * d} (d_j H + i), again mod H^2, and
* for Fano index 1, the exponential normalization exp(-alpha q) with
  alpha = prod_j d_j! * c0[1].  For index >= 2 the shift alpha is 0 and the
  exponential factor is trivial.

The i = 0 factors of the textbook Euler product cancel between numerator and
denominator of the transform and are omitted here by construction.  The
q-grading on both sides is by the hyperplane degree; that matches the
anticanonical grading only for index-1 threefolds, and a warning is emitted
for any other shape.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .exactmath import PowerSeries, exp_twist
from .grassmann import GrassmannianSpec, HSeriesPair, harmonic

_ZERO = Fraction(0)


class NotFano(ValueError):
    """The complete intersection has nonpositive Fano index."""


class NotThreefoldWarning(UserWarning):
    """The complete intersection is not three-dimensional."""


class GradingMismatchWarning(UserWarning):
    """Hyperplane q-grading differs from the anticanonical grading."""


@dataclass(frozen=True)
class CompleteIntersectionSpec:
    """Hypersurface degrees cutting a subvariety of a Grassmannian."""

    ambient: GrassmannianSpec
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
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
    """The spec itself, once checked to be Fano; warns unless it is a threefold."""
    if spec.fano_index <= 0:
        raise NotFano(f"Fano index {spec.fano_index} is not positive")
    if spec.dimension != 3:
        warnings.warn(
            f"complete intersection has dimension {spec.dimension}, not 3",
            NotThreefoldWarning,
            stacklevel=2,
        )
    return spec


def lefschetz_shift(spec: CompleteIntersectionSpec, c0x: PowerSeries) -> Fraction:
    """Exponential shift alpha: prod_j d_j! * c0[1] for index 1, else 0."""
    if spec.fano_index != 1:
        return _ZERO
    scale = prod(factorial(d) for d in spec.degrees)
    return Fraction(scale) * c0x[1]


def euler_corrected_series(pair: HSeriesPair, degrees: tuple[int, ...]) -> HSeriesPair:
    """Multiply the degree-d coefficient by E_d = prod_j prod_{i=1}^{d_j d} (d_j H + i).

    Mod H^2 the factor collapses to
        prod_j (d_j d)! * (1 + sum_j d_j * harmonic(d_j d) * H).
    """
    e0 = []
    e1 = []
    for d in range(pair.order):
        f0 = Fraction(prod(factorial(dj * d) for dj in degrees))
        h1 = sum((dj * harmonic(dj * d) for dj in degrees), _ZERO)
        e0.append(f0 * pair.c0[d])
        e1.append(f0 * (pair.c1[d] + h1 * pair.c0[d]))
    return HSeriesPair(PowerSeries(tuple(e0)), PowerSeries(tuple(e1)))


def quantum_lefschetz(pair_x: HSeriesPair, spec: CompleteIntersectionSpec) -> HSeriesPair:
    """Hyperplane series of the complete intersection, mod H^2."""
    if spec.fano_index <= 0:
        raise NotFano(f"Fano index {spec.fano_index} is not positive")
    if spec.fano_index != 1 or spec.dimension != 3:
        warnings.warn(
            "q-grading is by hyperplane degree, which matches the anticanonical "
            "grading only for index-1 threefolds",
            GradingMismatchWarning,
            stacklevel=2,
        )
    corrected = euler_corrected_series(pair_x, spec.degrees)
    alpha = lefschetz_shift(spec, pair_x.c0)
    if alpha == 0:
        return corrected
    return HSeriesPair(exp_twist(corrected.c0, -alpha), exp_twist(corrected.c1, -alpha))
