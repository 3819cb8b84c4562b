"""Counting-matrix recovery and the period map in both directions.

`recover_matrix` reads the five independent entries off a variety's
hyperplane series through q^4 by inverting the symbolic I-series relations
triangularly, then checks the two redundant H^1 relations at q^3, q^4.

`forward_periods` evaluates the constant-term relations at degrees 2..6,
giving the period vector (d_2..d_6); `invert_periods` inverts that map by
staged linear elimination:

    a01 from the d_2 relation; a02 linearly from the d_3 relation given a11;
    a03 linearly from the d_4 relation given a11 and a12.  The remaining
    d_5, d_6 relations are both linear in a12, and eliminating a12 leaves an
    eliminant that is linear in a11 with slope -discriminant/81000.

So off the discriminant the inverse is rational, a11 = N / (2 * discriminant)
with N = 280 d2^3 d3 - 1000 d2^2 d5 - 168 d2 d3 d4 + 729 d3^3 - 3888 d3 d6
+ 3000 d4 d5.  a12 follows from the d_5 relation (from d_6 where d_3 = 0
drops a12 from d_5), a02 and a03 by substitution, and one exact check of
all five relations confirms the matrix.

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

from .exactmath import ENTRY_VARS, EntryPolynomial
from .grassmann import HSeriesPair
from .relations import ENTRY_LAYOUT, one_point_relation

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

    `invert_periods` no longer raises it: off the discriminant the period
    map is birational.  The class stays public for callers that catch it.
    """


@dataclass(frozen=True)
class CountingMatrix:
    """The 4x4 matrix of normalized two-pointed invariants of degree deg."""

    deg: int
    a01: Fraction
    a11: Fraction
    a02: Fraction
    a12: Fraction
    a03: Fraction

    def entries(self) -> dict[str, Fraction]:
        return {name: getattr(self, name) for name in ENTRY_VARS}

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """Full matrix in the layout `relations.ENTRY_LAYOUT` states."""
        values = {0: _ZERO, 1: _ONE, **self.entries()}
        return tuple(tuple(values[a] for a in row) for row in ENTRY_LAYOUT)


@dataclass(frozen=True)
class PeriodVector:
    d2: Fraction
    d3: Fraction
    d4: Fraction
    d5: Fraction
    d6: Fraction

    def as_tuple(self) -> tuple[Fraction, ...]:
        return (self.d2, self.d3, self.d4, self.d5, self.d6)


def recover_matrix(pair: HSeriesPair, deg: int) -> CountingMatrix:
    """Read the five entries off a hyperplane series known through q^4.

    The q^1..q^4 constants and H^1 coefficients give nine equations for five
    unknowns; the first five are triangular and the rest must close exactly.
    """
    if pair.order < 5:
        raise ValueError("matrix recovery needs the series through q^4")
    c0, c1 = pair.c0, pair.c1
    if c0[0] != 1 or c1[0] != 0:
        raise ConsistencyCheckFailed("series must start 1 + O(q)")
    a11 = c1[1]
    a01 = 4 * c0[2]
    a12 = 8 * (c1[2] - a11**2 / 4 + a01 / 4)
    a02 = 27 * (c0[3] - a11 * a01 / 18)
    a03 = 256 * (
        c0[4] - a01**2 / 64 - a11**2 * a01 / 96 - 7 * a11 * a02 / 576 - a01 * a12 / 128
    )
    matrix = CountingMatrix(deg=deg, a01=a01, a11=a11, a02=a02, a12=a12, a03=a03)
    values = matrix.entries()
    for d, expected in ((3, c1[3]), (4, c1[4])):
        got = one_point_relation(d - 1, d).evaluate(values)
        if got != expected:
            raise ConsistencyCheckFailed(
                f"redundant H^1 relation at q^{d}: series gives {expected}, "
                f"entries give {got}"
            )
    if c0[1] != 0:
        raise ConsistencyCheckFailed(
            f"q^1 constant must vanish for an index-1 series, got {c0[1]}"
        )
    return matrix


def _periods_of(matrix: CountingMatrix) -> tuple[Fraction, ...]:
    """The constant-term relations at degrees 2..6, evaluated at the matrix."""
    values = matrix.entries()
    return tuple(one_point_relation(d - 2, d).evaluate(values) for d in range(2, 7))


def forward_periods(matrix: CountingMatrix) -> PeriodVector:
    """Constant terms d_2..d_6 of the I-series determined by the matrix."""
    return PeriodVector(*_periods_of(matrix))


def discriminant(v: PeriodVector) -> Fraction:
    """Vanishing locus of the period-to-matrix inversion."""
    return (
        -495 * v.d3 * v.d5
        + 261 * v.d2 * v.d3**2
        - 312 * v.d4 * v.d2**2
        + 432 * v.d4**2
        + 56 * v.d2**4
    )


# -- exact univariate helpers ------------------------------------------------


def _unipoly(ep: EntryPolynomial, var: str) -> list[Fraction]:
    """Coefficient list of a polynomial that involves at most `var`."""
    extra = ep.variables() - {var}
    if extra:
        raise ValueError(f"polynomial still involves {sorted(extra)}")
    return [c.coefficient((0,) * len(ENTRY_VARS)) for c in ep.coefficients_in(var)]


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


def _linear_parts(p: EntryPolynomial) -> tuple[EntryPolynomial, EntryPolynomial]:
    """(a12-free part, a12 coefficient) of a polynomial linear in a12."""
    coeffs = p.coefficients_in("a12")
    if not coeffs:
        return EntryPolynomial.zero(), EntryPolynomial.zero()
    if len(coeffs) == 1:
        return coeffs[0], EntryPolynomial.zero()
    return coeffs[0], coeffs[1]


def invert_periods(v: PeriodVector, deg: int) -> CountingMatrix:
    """The unique counting matrix with the given periods, off the discriminant.

    The inverse is rational: a11 = N(d_2..d_6) / (2 * discriminant) is the
    root of the linear eliminant, and a12, a02, a03 follow by substitution.
    """
    if discriminant(v) == 0:
        raise DegenerateLocus(f"discriminant vanishes at {v}")
    p5, p6, a02, a03 = _substituted_system(v)
    q5, c5 = _linear_parts(p5)
    q6, c6 = _linear_parts(p6)
    u = _unipoly(c5 * q6 - c6 * q5, "a11")
    if len(u) != 2:
        raise ArithmeticError(f"the a11 eliminant has degree {len(u) - 1}, not 1")
    # a12, a02 and a03 read as 0 until solved; the parts evaluated before
    # them do not involve them.
    values = {"a01": 4 * v.d2, "a11": -u[0] / u[1], "a02": _ZERO, "a12": _ZERO, "a03": _ZERO}
    q, c = (q5, c5) if c5.evaluate(values) else (q6, c6)
    values["a12"] = -q.evaluate(values) / c.evaluate(values)
    values["a02"] = a02.evaluate(values)
    values["a03"] = a03.evaluate(values)
    matrix = CountingMatrix(deg=deg, **values)
    if _periods_of(matrix) != v.as_tuple():
        raise NoRationalSolution(f"no rational matrix has periods {v}")
    return matrix
