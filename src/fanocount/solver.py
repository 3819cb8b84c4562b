"""Counting-matrix recovery and the period map in both directions.

A `CountingMatrix` is its degree and its five entries, and a `PeriodVector`
its five periods, each in the stored format of the `exactmath` docstring.

The I-series relations at degrees <= 6 are fixed polynomials in the five
entries, so this module writes them out as integer polynomials in the
matrix numerators, weighted as in `_weighted`, and evaluates no
`EntryPolynomial` for them.  `relations.one_point_relation` derives them
and the tests check them against it.

`recover_matrix` reads the five independent entries off a variety's
hyperplane series through q^4 by inverting those relations triangularly,
in the series' numerators over one denominator, then checks the two
redundant H^1 relations at q^3, q^4 (`_redundant_h1`) by cross-multiplying.

`forward_periods` is the period vector (d_2..d_6), five closed forms in
the matrix numerators, and `discriminant` is one integer polynomial in the
period numerators over den^4.  Off the discriminant the inverse is
rational.  `invert_periods` reads a01 = 4 d_2 and a11 = N / (2 *
discriminant), with N = 280 d2^3 d3 - 1000 d2^2 d5 - 168 d2 d3 d4 + 729
d3^3 - 3888 d3 d6 + 3000 d4 d5, and stages only a12, a02 and a03 by linear
elimination on the relation engine's polynomials, the one caller of the
engine in the package:

    a02 from the d_3 relation given a11; a03 from the d_4 relation given
    a11 and a12; a12 from the d_5 relation, or from d_6 where d_3 = 0 drops
    a12 from d_5.

One exact check of all five periods, by `forward_periods`, then confirms
the matrix.

`rational_roots` is not part of either direction: no stage calls it.  It
stays only for its tests and for the benchmark tracer, which binds it.  It
finds the rational roots of an integer polynomial completely and exactly by
modular search plus Hensel lifting plus rational reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from math import isqrt, lcm
from typing import Iterable

from .exactmath import (
    ENTRY_LAYOUT, ENTRY_VARS, ENTRY_WEIGHTS, EntryPolynomial, _lowest_terms, _over_one_denominator,
)
from .grassmann import HSeriesPair
from .relations import one_point_relation

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ConsistencyCheckFailed(ArithmeticError):
    """A redundant series relation does not hold for the extracted entries."""


class DegenerateLocus(ArithmeticError):
    """The period vector lies on the discriminant hypersurface."""


class NoRationalSolution(ArithmeticError):
    """No rational counting matrix maps to the given period vector."""


class AmbiguousSolution(ArithmeticError):
    """More than one rational counting matrix maps to the period vector.

    Off the discriminant the inverse is unique, and on it `invert_periods`
    raises `DegenerateLocus`; the class stays public for callers that catch it.
    """


def _read(k: int) -> property:
    return property(lambda self: Fraction(self.nums[k], self.den))


@dataclass(frozen=True, init=False, repr=False)
class CountingMatrix:
    """The 4x4 matrix of normalized two-pointed invariants of degree deg,
    stored as its five independent entries a01, a11, a02, a12, a03 (the
    order of `ENTRY_VARS`)."""

    __slots__ = ("deg", "den", "nums")
    deg: int
    den: int
    nums: tuple[int, ...]

    def __init__(
        self, deg: int, a01: Fraction, a11: Fraction, a02: Fraction, a12: Fraction, a03: Fraction
    ) -> None:
        self._store(deg, *_over_one_denominator((a01, a11, a02, a12, a03), ENTRY_VARS))

    @classmethod
    def from_numerators(cls, deg: int, den: int, nums: Iterable[int]) -> CountingMatrix:
        """The matrix with entries nums[k] / den."""
        matrix = cls.__new__(cls)
        matrix._store(deg, *_lowest_terms(den, nums))
        return matrix

    def _store(self, deg: int, den: int, nums: tuple[int, ...]) -> None:
        if type(deg) is not int:
            raise TypeError(f"deg must be an int >= 1, got {deg!r}")
        if deg < 1:
            raise ValueError(f"deg must be an int >= 1, got {deg!r}")
        object.__setattr__(self, "deg", deg)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    a01, a11, a02, a12, a03 = map(_read, range(len(ENTRY_VARS)))

    def entries(self) -> dict[str, Fraction]:
        return {name: Fraction(c, self.den) for name, c in zip(ENTRY_VARS, self.nums)}

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """Full matrix in the layout `exactmath.ENTRY_LAYOUT` states."""
        values = {0: _ZERO, 1: _ONE, **self.entries()}
        return tuple(tuple(values[a] for a in row) for row in ENTRY_LAYOUT)

    def __repr__(self) -> str:
        entries = ", ".join(f"{name}={x!r}" for name, x in self.entries().items())
        return f"CountingMatrix(deg={self.deg!r}, {entries})"

    def __reduce__(self):
        return CountingMatrix.from_numerators, (self.deg, self.den, self.nums)


_PERIOD_NAMES = ("d2", "d3", "d4", "d5", "d6")


@dataclass(frozen=True, init=False, repr=False)
class PeriodVector:
    """The constant terms d_2..d_6 of the I-series."""

    __slots__ = ("den", "nums")
    den: int
    nums: tuple[int, ...]

    def __init__(self, d2: Fraction, d3: Fraction, d4: Fraction, d5: Fraction, d6: Fraction) -> None:
        self._store(*_over_one_denominator((d2, d3, d4, d5, d6), _PERIOD_NAMES))

    @classmethod
    def from_numerators(cls, den: int, nums: Iterable[int]) -> PeriodVector:
        """The vector with d_(k+2) = nums[k] / den."""
        vector = cls.__new__(cls)
        vector._store(*_lowest_terms(den, nums))
        return vector

    def _store(self, den: int, nums: tuple[int, ...]) -> None:
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    d2, d3, d4, d5, d6 = map(_read, range(len(_PERIOD_NAMES)))

    def as_tuple(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    def __repr__(self) -> str:
        periods = ", ".join(f"{name}={x!r}" for name, x in zip(_PERIOD_NAMES, self.as_tuple()))
        return f"PeriodVector({periods})"

    def __reduce__(self):
        return PeriodVector.from_numerators, (self.den, self.nums)


def recover_matrix(pair: HSeriesPair, deg: int) -> CountingMatrix:
    """Read the five entries off a hyperplane series known through q^4.

    The q^1..q^4 constants and H^1 coefficients give nine equations for five
    unknowns; five are triangular and the rest must close exactly.  The
    q^1 constant, which a twist by the wrong shift leaves behind, is checked
    first, then the redundant H^1 relations at q^3 and q^4.
    With c0[d] = x_d / L and c1[d] = y_d / L over L = lcm of the two
    denominators, the entries are integers over L^3:

        a11 = y_1 / L,  a01 = 4 x_2 / L,  a12 = (8 L (x_2 + y_2) - 2 y_1^2) / L^2,
        a02 = (27 L x_3 - 6 x_2 y_1) / L^2,
        a03 = (256 L^2 x_4 - 128 L x_2^2 - 64 L x_2 y_2 - 84 L x_3 y_1
               + 24 x_2 y_1^2) / L^3.
    """
    if pair.order < 5:
        raise ValueError("matrix recovery needs the series through q^4")
    c0, c1 = pair.c0, pair.c1
    den = lcm(c0.den, c1.den)
    x = [c * (den // c0.den) for c in c0.nums[:5]]
    y = [c * (den // c1.den) for c in c1.nums[:5]]
    if x[0] != den or y[0] != 0:
        raise ConsistencyCheckFailed("series must start 1 + O(q)")
    if x[1] != 0:
        raise ConsistencyCheckFailed(
            f"q^1 constant must vanish for an index-1 series, got {Fraction(x[1], den)}"
        )
    x2, y1, sq = x[2], y[1], den * den
    nums = (
        4 * x2 * sq,
        y1 * sq,
        (27 * den * x[3] - 6 * x2 * y1) * den,
        (8 * den * (x2 + y[2]) - 2 * y1 * y1) * den,
        256 * sq * x[4] - den * (128 * x2 * x2 + 64 * x2 * y[2] + 84 * x[3] * y1)
        + 24 * x2 * y1 * y1,
    )
    matrix = CountingMatrix.from_numerators(deg, sq * den, nums)
    for d, (got, got_den) in zip((3, 4), _redundant_h1(matrix)):
        if got * den != y[d] * got_den:
            raise ConsistencyCheckFailed(
                f"redundant H^1 relation at q^{d}: series gives {Fraction(y[d], den)}, "
                f"entries give {Fraction(got, got_den)}"
            )
    return matrix


def _weighted(matrix: CountingMatrix) -> tuple[int, ...]:
    """The matrix numerators scaled to their `ENTRY_WEIGHTS`: over the
    matrix denominator D, a numerator x of weight w becomes x * D^(w-1),
    so a polynomial in them that is weighted-homogeneous of weight k is
    the value times D^k."""
    den = matrix.den
    return tuple([x * den ** (w - 1) for x, w in zip(matrix.nums, ENTRY_WEIGHTS)])


def _redundant_h1(matrix: CountingMatrix) -> tuple[tuple[int, int], tuple[int, int]]:
    """The H^1 coefficients at q^3 and q^4 that the entries determine, as
    (numerator, positive denominator), not reduced, in the numerators of
    `_weighted` over the matrix denominator D:

        (-8 a02 + 27 a11 a12 + 18 a11^3 + 15 a01 a11) / (324 D^3),
        (-27 a03 + 27 a12^2 + 68 a11 a02 + 216 a11^2 a12 + 72 a11^4
         + 156 a01 a11^2 - 162 a01^2) / (6912 D^4).
    """
    a01, a11, a02, a12, a03 = _weighted(matrix)
    den = matrix.den
    cube = den * den * den
    a11_2 = a11 * a11
    q3 = a11 * (27 * a12 + 18 * a11_2 + 15 * a01) - 8 * a02
    q4 = (
        27 * (a12 * a12 - a03) + 68 * a11 * a02 + a11_2 * (216 * a12 + 72 * a11_2)
        + a01 * (156 * a11_2 - 162 * a01)
    )
    return (q3, 324 * cube), (q4, 6912 * cube * den)


def forward_periods(matrix: CountingMatrix) -> PeriodVector:
    """Constant terms d_2..d_6 of the I-series determined by the matrix:
    d_k = P_k / (C_k D^k) in the numerators of `_weighted` over the matrix
    denominator D, with C = 4, 54, 2304, 216000, 6220800 and

        P2 = a01,
        P3 = 2 a02 + 3 a01 a11,
        P4 = 9 a03 + 28 a11 a02 + 18 a01 a12 + 24 a01 a11^2 + 36 a01^2,
        P5 = 192 a02 a12 + 243 a11 a03 + 564 a11^2 a02 + 1040 a01 a02
             + 774 a01 a11 a12 + 360 a01 a11^3 + 1020 a01^2 a11,
        P6 = 450 a12 a03 + 1600 a02^2 + 2808 a11 a02 a12 + 1332 a11^2 a03
             + 2736 a11^3 a02 + 2175 a01 a03 + 900 a01 a12^2
             + 11460 a01 a11 a02 + 5976 a01 a11^2 a12 + 1440 a01 a11^4
             + 3750 a01^2 a12 + 5880 a01^2 a11^2 + 2700 a01^3,

    all put over 31104000 D^6; 31104000 = lcm(C_k) = 5 * 6220800, since
    216000 carries 5^3.
    """
    a01, a11, a02, a12, a03 = _weighted(matrix)
    den = matrix.den
    sq = den * den
    a11_2 = a11 * a11
    p3 = 2 * a02 + 3 * a01 * a11
    p4 = 9 * a03 + 28 * a11 * a02 + a01 * (18 * a12 + 24 * a11_2 + 36 * a01)
    p5 = (
        a02 * (192 * a12 + 564 * a11_2 + 1040 * a01) + 243 * a11 * a03
        + a01 * a11 * (774 * a12 + 360 * a11_2 + 1020 * a01)
    )
    p6 = (
        a03 * (450 * a12 + 1332 * a11_2 + 2175 * a01)
        + a02 * (1600 * a02 + a11 * (2808 * a12 + 2736 * a11_2 + 11460 * a01))
        + a01 * (
            900 * a12 * a12 + a11_2 * (5976 * a12 + 1440 * a11_2)
            + a01 * (3750 * a12 + 5880 * a11_2 + 2700 * a01)
        )
    )
    nums = (
        7_776_000 * sq * sq * a01, 576_000 * sq * den * p3, 13_500 * sq * p4,
        144 * den * p5, 5 * p6,
    )
    return PeriodVector.from_numerators(31_104_000 * sq * sq * sq, nums)


def discriminant(v: PeriodVector) -> Fraction:
    """Vanishing locus of the period-to-matrix inversion,
    -495 d3 d5 + 261 d2 d3^2 - 312 d4 d2^2 + 432 d4^2 + 56 d2^4,
    summed in the period numerators over den^4."""
    d2, d3, d4, d5, _ = v.nums
    den = v.den
    sq = den * den
    num = (
        56 * d2**4
        + den * (261 * d2 * d3 * d3 - 312 * d4 * d2 * d2)
        + sq * (432 * d4 * d4 - 495 * d3 * d5)
    )
    return Fraction(num, sq * sq)


# -- exact univariate helpers ------------------------------------------------


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_eval(p: list[Fraction], x: Fraction) -> Fraction:
    acc = _ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_derivative(p: list[Fraction]) -> list[Fraction]:
    return _trim([i * c for i, c in enumerate(p)][1:])


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [_ZERO] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _trim(a):
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        q[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        _trim(a)
    return _trim(q), _trim(a)


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _to_int_primitive(p: list[Fraction]) -> list[int]:
    if not p:
        return []
    denom = lcm(*(c.denominator for c in p))
    ints = [int(c * denom) for c in p]
    content = 0
    for c in ints:
        content = int_gcd(content, abs(c))
    return [c // content for c in ints]


def _primes_from(start: int):
    n = max(3, start | 1)
    while True:
        for f in range(3, isqrt(n) + 1, 2):
            if n % f == 0:
                break
        else:
            yield n
        n += 2


def _mod_eval(p: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = (acc * x + c) % m
    return acc


def _rational_reconstruct(x: int, m: int) -> Fraction | None:
    bound = isqrt(m // 2)
    r0, r1 = m, x % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or int_gcd(r1, abs(s1)) != 1:
        return None
    return Fraction(r1, s1)


def rational_roots(poly: list[Fraction]) -> list[Fraction]:
    """All rational roots of a nonzero univariate polynomial, exactly.

    Works on the square-free part.  A root p/q in lowest terms has p dividing
    the constant term and q the leading one, so its height is bounded by the
    extreme coefficients; a simple root mod a good prime lifts by Newton
    iteration to a modulus past twice the squared bound, where rational
    reconstruction identifies the root, and every candidate is verified in
    exact arithmetic.  Primes for which any modular root is repeated are
    discarded, which keeps the search complete.
    """
    p = _trim(list(poly))
    if not p:
        raise ValueError("the zero polynomial has every root")
    roots: list[Fraction] = []
    # split off roots at zero
    shift = 0
    while p[shift] == 0:
        shift += 1
    if shift:
        roots.append(_ZERO)
        p = p[shift:]
    if len(p) == 1:
        return roots
    sqfree = p
    der = _poly_derivative(p)
    g = _poly_gcd(p, der)
    if len(g) > 1:
        sqfree, rem = _poly_divmod(p, g)
        assert not rem
    ip = _to_int_primitive(sqfree)
    n = len(ip) - 1
    if n == 1:
        roots.append(Fraction(-ip[0], ip[1]))
        return sorted(set(roots))
    bound = max(abs(ip[0]), abs(ip[-1]))
    target = 2 * bound * bound + 1
    der_ip = [i * c for i, c in enumerate(ip)][1:]
    attempts = 0
    for prime in _primes_from(10007):
        if attempts >= 200:
            raise ArithmeticError("failed to find a usable prime for root extraction")
        attempts += 1
        if ip[-1] % prime == 0:
            continue
        mod_roots = [x for x in range(prime) if _mod_eval(ip, x, prime) == 0]
        if any(_mod_eval(der_ip, x, prime) == 0 for x in mod_roots):
            continue
        # Newton lifting doubles the modulus until past the reconstruction target
        for r in mod_roots:
            m = prime
            x = r
            while m < target:
                m = m * m
                fx = _mod_eval(ip, x, m)
                dx = _mod_eval(der_ip, x, m)
                x = (x - fx * pow(dx, -1, m)) % m
            cand = _rational_reconstruct(x, m)
            if cand is not None and _poly_eval([Fraction(c) for c in ip], cand) == 0:
                roots.append(cand)
        return sorted(set(roots))
    raise ArithmeticError("failed to find a usable prime for root extraction")


# -- the inverse period map ---------------------------------------------------


def _solve_linear(p: EntryPolynomial, var: str, target: Fraction) -> EntryPolynomial:
    """Solve p = target for var, requiring p linear in var with constant lead."""
    coeffs = p.coefficients_in(var)
    if len(coeffs) != 2 or coeffs[1].variables():
        raise ArithmeticError(f"relation is not linear in {var} with constant lead")
    lead = coeffs[1].coefficient((0,) * len(ENTRY_VARS))
    return (EntryPolynomial.const(target) - coeffs[0]).scale(1 / lead)


def _substituted_system(v: PeriodVector) -> tuple[EntryPolynomial, ...]:
    """Stage the linear eliminations; return (P5, P6, a02, a03) where P5, P6
    are the shifted d_5, d_6 relations in a11, a12 and a02, a03 carry the
    solved entries as polynomials in a11 (and a12 for a03)."""
    a01 = EntryPolynomial.const(4 * v.d2)

    def staged(d: int) -> EntryPolynomial:
        return one_point_relation(d - 2, d).substitute("a01", a01)

    a02 = _solve_linear(staged(3), "a02", v.d3)
    a03 = _solve_linear(staged(4).substitute("a02", a02), "a03", v.d4)

    def remaining(d: int, target: Fraction) -> EntryPolynomial:
        p = staged(d).substitute("a02", a02).substitute("a03", a03)
        p = p - EntryPolynomial.const(target)
        if p.degree_in("a12") > 1:
            raise ArithmeticError("staged relations should be linear in a12")
        return p

    return remaining(5, v.d5), remaining(6, v.d6), a02, a03


def _closed_form_a11(v: PeriodVector, disc: Fraction) -> Fraction:
    """a11 = N / (2 * disc), with N summed in the period numerators over den^4."""
    d2, d3, d4, d5, d6 = v.nums
    den = v.den
    num = 280 * d2**3 * d3 + den * (729 * d3**3 - 1000 * d2 * d2 * d5 - 168 * d2 * d3 * d4)
    num += den * den * (3000 * d4 * d5 - 3888 * d3 * d6)
    return Fraction(num * disc.denominator, 2 * den**4 * disc.numerator)


def invert_periods(v: PeriodVector, deg: int) -> CountingMatrix:
    """The unique counting matrix with the given periods, off the discriminant.

    The inverse is rational: a11 = N(d_2..d_6) / (2 * discriminant), and
    a12, a02, a03 follow by substitution.
    """
    disc = discriminant(v)
    if disc == 0:
        raise DegenerateLocus(f"discriminant vanishes at {v}")
    p5, p6, a02, a03 = _substituted_system(v)
    a11 = _closed_form_a11(v, disc)
    # the a12-free part and the a12 coefficient of each relation
    zero = EntryPolynomial.zero()
    (q5, c5), (q6, c6) = ((p.coefficients_in("a12") + [zero])[:2] for p in (p5, p6))
    # a12, a02 and a03 read as 0 until solved; the parts evaluated before
    # them do not involve them.
    values = {"a01": 4 * v.d2, "a11": a11, "a02": _ZERO, "a12": _ZERO, "a03": _ZERO}
    q, c = (q5, c5) if c5.evaluate(values) else (q6, c6)
    values["a12"] = -q.evaluate(values) / c.evaluate(values)
    values["a02"] = a02.evaluate(values)
    values["a03"] = a03.evaluate(values)
    matrix = CountingMatrix(deg=deg, **values)
    if forward_periods(matrix) != v:
        raise NoRationalSolution(f"no rational matrix has periods {v}")
    return matrix
