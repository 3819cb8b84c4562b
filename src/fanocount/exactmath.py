"""Exact arithmetic kernel: rationals, truncated power series, sparse polynomials.

Every scalar this package hands out is a `fractions.Fraction`; nothing here ever
touches floating point.

The stored format.  Every exact container of the package -- `PowerSeries`
and `ChernPolynomial` here, `DifferentialOperator` in `d3`, `CountingMatrix`
and `PeriodVector` in `solver` -- stores its values as integer numerators
over one positive denominator `den`, in lowest terms, gcd(den, *nums) = 1,
so equal values compare (and, where the type hashes, hash) equal, and a
`Fraction` is built only when a caller reads a value.  A constructor takes
`int`s and `Fraction`s only and refuses a bool, float, str or anything else
with a `TypeError` naming the value; a `from_numerators` or `from_layers`
takes integer numerators over a denominator of either sign and refuses a
zero one with `ZeroDivisionError`.  `_over_one_denominator` and
`_lowest_terms` below do that conversion and normalization for all five;
`_lowest_terms` hands the numerators back as they came when the gcd is 1.
One writer skips them: `grassmann.hv_iseries` reduces each degree part of
the residue sum with one gcd of its three integers and stores it through
`ChernPolynomial._from_lowest_terms`, which checks nothing.

Three containers here cover the series and polynomial needs:

* ``PowerSeries`` -- a q-series truncated at an explicit order; it is read,
  truncated (at its own order, to itself) and twisted by ``exp_twist``, or
  by ``exp_twist_pair`` for both signs of the shift in one pass, and has no
  ring arithmetic,
* ``ChernPolynomial`` -- a multivariate polynomial truncated in total degree:
  a degree part of the residue sum in Chern roots x_1..x_r, which is only
  read; ``divide_by_vandermonde`` divides one by the Vandermonde, one root
  difference at a time as a divided difference; no stage calls it, and the
  benchmark's tracer binds it at ``grassmann``,
* ``EntryPolynomial`` -- a sparse polynomial in the five independent
  counting-matrix entries a01, a11, a02, a12, a03, with the ring arithmetic,
  substitution and evaluation that the relation engine and the period
  inversion use.  ``ENTRY_VARS``, ``ENTRY_LAYOUT`` and ``ENTRY_WEIGHTS``
  beside it state the entries' names, their places in the 4x4 matrix and
  their weights, for every module that reads them.

Truncation orders are explicit everywhere: no coefficient at or beyond a
container's truncation bound is ever reported.

The hot kernels compute in integers over shared denominators, as FLINT's
``fmpq_poly`` does: ``exp_twist`` and ``exp_twist_pair`` build no
``Fraction``.  The series kernels elsewhere work on ``PowerSeries``
numerators the same way: the residue sum, projective space included as
its one-root case, and ``extract_h_pair``, the Euler factors and
regrading of ``lefschetz``, and ``frobenius_solve``, ``apply_operator``,
``factorial_transform``, ``eisenstein_weight2`` and ``first_mismatch`` in
``d3``.  ``EntryPolynomial`` is not a kernel: it keeps a coefficient that
already is a ``Fraction``, and its ring arithmetic and ``evaluate`` stay
on ``Fraction``s.  No stage of a run evaluates one but the staged
elimination of ``solver.invert_periods``, which builds each polynomial it
evaluates afresh on each call; the solver writes the relations it checks
as closed forms, and the tests hold those against ``evaluate``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import factorial, gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Mapping, Sequence

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NonExactDivision(ArithmeticError):
    """Exact polynomial division hit a nonzero remainder."""


def ratio_str(num: int, den: int) -> str:
    """num / den, for a positive den, as `str` prints the `Fraction`, with one gcd."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


_EXACT_TYPES = frozenset({int, Fraction})


def _check_exact(values: Sequence, names: Iterable) -> None:
    """Refuse a bool, float, str or any other type than `int` and `Fraction`
    among values, under its name in `names`."""
    if not set(map(type, values)) <= _EXACT_TYPES:
        for name, x in zip(names, values):
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                raise TypeError(f"{name} must be an int or a Fraction, got {x!r}")


def _over_one_denominator(values: Iterable, names: Iterable) -> tuple[int, tuple[int, ...]]:
    """(den, numerators) of `int` and `Fraction` values over the lcm of their
    denominators, which is in lowest terms since each value is; other
    values are refused by `_check_exact`."""
    values = tuple(values)
    _check_exact(values, names)
    ratios = [x.as_integer_ratio() for x in values]
    den = lcm(*[q for _, q in ratios])
    return den, tuple([p * (den // q) for p, q in ratios])


def _lowest_terms(den: int, nums: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """den and nums divided by their gcd, signed so that den is positive,
    with nums as the tuple it came as when there is nothing to divide; a
    zero den is refused."""
    if not den:
        raise ZeroDivisionError("a denominator must not be zero")
    nums = tuple(nums)
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return den, nums
    return den // g, tuple([c // g for c in nums])


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False)
class PowerSeries:
    """A power series sum_d c_d q^d known through q^(order-1), in the stored
    format of the module docstring; `PowerSeries(coeffs)` takes c_0, c_1, ..."""

    den: int
    nums: tuple[int, ...]

    def __init__(self, coeffs: Iterable[Rational]) -> None:
        self._store(*_over_one_denominator(coeffs, map("c_{}".format, count())))

    @classmethod
    def from_numerators(cls, den: int, nums: Iterable[int]) -> PowerSeries:
        """The series sum_d nums[d] / den * q^d."""
        series = cls.__new__(cls)
        series._store(*_lowest_terms(den, nums))
        return series

    def _store(self, den: int, nums: tuple[int, ...]) -> None:
        if not nums:
            raise ValueError("a power series needs at least one coefficient")
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    @property
    def order(self) -> int:
        return len(self.nums)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    def __getitem__(self, d: int) -> Fraction:
        if not 0 <= d < self.order:
            raise IndexError(
                f"coefficient of q^{d} is outside truncation order {self.order}"
            )
        return Fraction(self.nums[d], self.den)

    def truncate(self, order: int) -> "PowerSeries":
        """The series through q^(order-1); the series itself at its own order."""
        if not 1 <= order <= self.order:
            raise ValueError(f"cannot truncate a series of order {self.order} to order {order}")
        if order == self.order:
            return self
        return PowerSeries.from_numerators(self.den, self.nums[:order])


def _twist_weights(top: int, c: Rational) -> tuple[int, list[int]]:
    """(v^M M!, [w_0..w_M]) with w_k = u^k v^(M-k) M!/k!, for c = u / v and
    M = top: series * exp(c*q) through q^M, with f_j = a_j / den, has
    [q^m] = sum_k a_(m-k) u^k / (den v^k k!), the integer
    sum_k a_(m-k) w_k over den v^M M!."""
    u, v = c.numerator, c.denominator
    w = [1] * (top + 1)
    falling = 1  # M!/k!, from k = M down
    for k in range(top, -1, -1):
        w[k] = u**k * v ** (top - k) * falling
        falling *= k
    return v**top * factorial(top), w


def exp_twist(series: PowerSeries, c: Rational) -> PowerSeries:
    """series * exp(c*q) at the series' own order, summed in integers: each
    coefficient one dot product of the reversed numerators a_m..a_0 with the
    weights w_0..w_m of `_twist_weights`.  The series itself at c = 0."""
    if not c:
        return series
    a = series.nums
    scale, w = _twist_weights(len(a) - 1, c)
    nums = [sum(map(mul, a[m::-1], w)) for m in range(len(a))]
    return PowerSeries.from_numerators(series.den * scale, nums)


def exp_twist_pair(series: PowerSeries, c: Rational) -> tuple[PowerSeries, PowerSeries]:
    """(series * exp(c*q), series * exp(-c*q)) in one pass.  Negating c
    negates the weight w_k of `_twist_weights` at odd k only, so with E_m
    the dot product over even k and O_m that over odd k, the two twists
    are E + O and E - O."""
    a = series.nums
    scale, w = _twist_weights(len(a) - 1, c)
    even, odd = w[0::2], w[1::2]
    e = [sum(map(mul, a[m::-2], even)) for m in range(len(a))]
    o = [0] + [sum(map(mul, a[m - 1::-2], odd)) for m in range(1, len(a))]
    den = series.den * scale
    return (
        PowerSeries.from_numerators(den, map(add, e, o)),
        PowerSeries.from_numerators(den, map(sub, e, o)),
    )


# ---------------------------------------------------------------------------
# multivariate polynomials truncated in total degree (Chern-root expansions)
# ---------------------------------------------------------------------------

Exponent = tuple[int, ...]


@dataclass(frozen=True, init=False)
class ChernPolynomial:
    """Sparse polynomial in x_1..x_nvars, truncated at total degree
    degree_bound, in the stored format of the module docstring with no zero
    numerator; `ChernPolynomial(nvars, degree_bound, terms)` takes
    {exponent: coefficient}.  Terms of total degree above the bound are
    unknown, not zero; they are dropped on construction."""

    nvars: int
    degree_bound: int
    den: int
    nums: dict[Exponent, int]

    def __init__(self, nvars: int, degree_bound: int, terms: Mapping[Exponent, Rational]) -> None:
        if nvars < 1:
            raise ValueError("need at least one variable")
        if degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")
        if any(len(e) != nvars for e in terms):
            raise ValueError("exponent arity mismatch")
        den, nums = _over_one_denominator(terms.values(), (f"x^{e}" for e in terms))
        self._store(nvars, degree_bound, den, dict(zip(map(tuple, terms), nums)))

    @classmethod
    def from_numerators(
        cls, nvars: int, degree_bound: int, den: int, nums: Mapping[Exponent, int]
    ) -> ChernPolynomial:
        """The polynomial sum_e nums[e] / den * x^e, for exponent tuples of
        length nvars."""
        poly = cls.__new__(cls)
        poly._store(nvars, degree_bound, den, nums)
        return poly

    @classmethod
    def _from_lowest_terms(
        cls, nvars: int, degree_bound: int, den: int, nums: dict[Exponent, int]
    ) -> ChernPolynomial:
        """The polynomial of fields already in the stored format: den > 0,
        gcd(den, *nums) = 1, no zero numerator and no term above
        degree_bound.  Nothing is checked and `nums` is kept, not copied."""
        poly = cls.__new__(cls)
        poly.__dict__.update(nvars=nvars, degree_bound=degree_bound, den=den, nums=nums)
        return poly

    def _store(self, nvars: int, degree_bound: int, den: int, nums: Mapping[Exponent, int]) -> None:
        nums = {e: c for e, c in nums.items() if c and sum(e) <= degree_bound}
        den, values = _lowest_terms(den, nums.values())
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree_bound", degree_bound)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", dict(zip(nums, values)))

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        return {e: Fraction(c, self.den) for e, c in self.nums.items()}

    def coefficient(self, exps: Exponent) -> Fraction:
        return Fraction(self.nums.get(tuple(exps), 0), self.den)

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.nvars)

    def linear_coefficient(self, i: int) -> Fraction:
        e = tuple(1 if k == i else 0 for k in range(self.nvars))
        return self.coefficient(e)


def _divide_linear_difference(
    terms: dict[Exponent, int], i: int, j: int
) -> tuple[dict[Exponent, int], dict[Exponent, int]]:
    """Divide sum c_e x^e by (x_i - x_j) in integers; return (quotient, remainder).

    By the factor theorem the remainder is the polynomial at x_i = x_j and
    the quotient is its divided difference, term by term:
    x_i^a = (x_i - x_j) * sum_{b<a} x_i^b x_j^(a-1-b) + x_j^a.
    """
    quotient: defaultdict[Exponent, int] = defaultdict(int)
    remainder: defaultdict[Exponent, int] = defaultdict(int)
    for e, c in terms.items():
        x = list(e)
        x[i], x[j] = 0, e[i] + e[j]
        remainder[tuple(x)] += c
        for b in range(e[i]):
            x[i], x[j] = b, e[i] + e[j] - 1 - b
            quotient[tuple(x)] += c
    return {e: c for e, c in quotient.items() if c}, {e: c for e, c in remainder.items() if c}


def divide_by_vandermonde(poly: ChernPolynomial) -> ChernPolynomial:
    """Exact division by prod_{i<j}(x_i - x_j) of a truncated polynomial.

    The divisor has degree v = nvars*(nvars-1)/2.  Each division by a root
    difference lowers every homogeneous component by exactly one degree, so
    the whole polynomial is divided pair by pair and the quotient is exact
    through total degree degree_bound - v.  The divisor's coefficients are
    +-1, so the division runs on the input's integer numerators and returns
    the quotient over the same denominator.  Raises NonExactDivision when a
    component has degree below v or a remainder survives, as for any input
    that is not antisymmetric.
    """
    r = poly.nvars
    v = r * (r - 1) // 2
    if poly.degree_bound < v:
        raise NonExactDivision(
            f"degree bound {poly.degree_bound} below Vandermonde degree {v}"
        )
    low = min(map(sum, poly.nums), default=v)
    if low < v:
        raise NonExactDivision(
            f"component of degree {low} cannot be divisible by degree-{v} Vandermonde"
        )
    numer = poly.nums
    for i in range(r):
        for j in range(i + 1, r):
            numer, rem = _divide_linear_difference(numer, i, j)
            if rem:
                raise NonExactDivision(f"nonzero remainder dividing by (x{i + 1} - x{j + 1})")
    return ChernPolynomial.from_numerators(r, poly.degree_bound - v, poly.den, numer)


# ---------------------------------------------------------------------------
# polynomials in the independent counting-matrix entries
# ---------------------------------------------------------------------------

ENTRY_VARS: tuple[str, ...] = ("a01", "a11", "a02", "a12", "a03")
# a_ij for i, j in 0..3, as the rules of the `relations` docstring state it:
# 0, 1, or the name of the independent entry it equals.  The relation
# engine's `entry`, `CountingMatrix.rows` and the printed matrix read it.
ENTRY_LAYOUT: tuple[tuple[int | str, ...], ...] = (
    (0, "a01", "a02", "a03"),
    (1, "a11", "a12", "a02"),
    (0, 1, "a11", "a01"),
    (0, 0, 1, 0),
)
# The weight j - i + 1 of a_ij, in the order of ENTRY_VARS: every relation
# the package writes in the entries is weighted-homogeneous for it.
ENTRY_WEIGHTS: tuple[int, ...] = (2, 1, 3, 2, 4)
_VAR_INDEX = {name: k for k, name in enumerate(ENTRY_VARS)}
_NV = len(ENTRY_VARS)


@dataclass
class EntryPolynomial:
    """Sparse exact polynomial in the entries a01, a11, a02, a12, a03; a
    coefficient that is not an `int` or a `Fraction`, or an exponent that is
    not an `int` >= 0, is refused."""

    terms: dict[tuple[int, ...], Fraction]

    def __post_init__(self) -> None:
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            if len(e) != _NV:
                raise ValueError("exponent arity mismatch")
            if not all(type(p) is int and p >= 0 for p in e):
                raise ValueError(f"exponents must be ints >= 0, got {tuple(e)!r}")
            if not isinstance(c, Fraction):
                _check_exact((c,), (f"the coefficient of {tuple(e)}",))
                c = Fraction(c)
            if c != 0:
                out[tuple(e)] = c
        self.terms = out

    @classmethod
    def _of(cls, terms: dict[tuple[int, ...], Fraction]) -> "EntryPolynomial":
        """The nonzero terms of a ring result, unchecked: its exponents are
        sums of checked ones and its coefficients `Fraction`s."""
        poly = object.__new__(cls)
        poly.terms = {e: c for e, c in terms.items() if c}
        return poly

    @classmethod
    def zero(cls) -> "EntryPolynomial":
        return cls({})

    @classmethod
    def const(cls, value: Rational) -> "EntryPolynomial":
        return cls({(0,) * _NV: value})

    @classmethod
    def variable(cls, name: str) -> "EntryPolynomial":
        e = [0] * _NV
        e[_VAR_INDEX[name]] = 1
        return cls({tuple(e): _ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "EntryPolynomial") -> "EntryPolynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, _ZERO) + c
        return EntryPolynomial._of(out)

    def __sub__(self, other: "EntryPolynomial") -> "EntryPolynomial":
        return self + other.scale(-_ONE)

    def __mul__(self, other: "EntryPolynomial") -> "EntryPolynomial":
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, _ZERO) + c1 * c2
        return EntryPolynomial._of(out)

    def scale(self, c: Rational) -> "EntryPolynomial":
        _check_exact((c,), ("the scale factor",))
        return EntryPolynomial._of({e: c * v for e, v in self.terms.items()})

    def coefficient(self, exps: tuple[int, ...]) -> Fraction:
        if len(exps) != _NV:
            raise ValueError("exponent arity mismatch")
        return self.terms.get(tuple(exps), _ZERO)

    def evaluate(self, values: Mapping[str, Rational]) -> Fraction:
        """The value at a rational point, summed term by term on the
        values as given; a value that is not an `int` or a `Fraction` is
        refused under its entry's name."""
        point = [values[name] for name in ENTRY_VARS]
        _check_exact(point, ENTRY_VARS)
        total = _ZERO
        for e, c in self.terms.items():
            for x, p in zip(point, e):
                if p:
                    c *= x**p
            total += c
        return total

    def variables(self) -> set[str]:
        present: set[str] = set()
        for e in self.terms:
            for k, p in enumerate(e):
                if p:
                    present.add(ENTRY_VARS[k])
        return present

    def degree_in(self, name: str) -> int:
        k = _VAR_INDEX[name]
        return max((e[k] for e in self.terms), default=0)

    def coefficients_in(self, name: str) -> list["EntryPolynomial"]:
        """Coefficients of name^0, name^1, ... with the variable removed."""
        k = _VAR_INDEX[name]
        top = self.degree_in(name)
        buckets: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(top + 1)]
        for e, c in self.terms.items():
            reduced = list(e)
            p = reduced[k]
            reduced[k] = 0
            buckets[p][tuple(reduced)] = buckets[p].get(tuple(reduced), _ZERO) + c
        return [EntryPolynomial._of(b) for b in buckets]

    def substitute(self, name: str, replacement: "EntryPolynomial") -> "EntryPolynomial":
        """The polynomial with name replaced, by Horner's rule in name:
        from the top coefficient down, out = out * replacement + coeff."""
        *lower, out = self.coefficients_in(name)
        for coeff in reversed(lower):
            out = out * replacement + coeff
        return out
