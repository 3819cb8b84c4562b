"""Noncommutative operator pencils, the third-order operators they give,
and the Eisenstein comparison for those operators.

Operators live in the ring of polynomials in t and D, where D is the Euler
operator t d/dt, subject to D*t = t*D + t.  Canonical form keeps every power
of t to the left of every power of D, so an operator is a sum of layers
t^b * P_b(D).  `DifferentialOperator` stores each P_b as integer
numerators over one shared denominator, the format of `exactmath`.

From a counting matrix A and a shift lam the pencil is the 4x4 matrix
D*E - M, where M has entries (a_kl + lam*delta_kl) * (Dt)^(l-k+1) on and
above the subdiagonal, (Dt) being multiply-by-t followed by D.  Every
pencil has the layout `exactmath.ENTRY_LAYOUT`, so its operator
D^(-1) * det(D*E - M) is one fixed formula in a01, a11, a02, a12, a03 and
lam, which `pencil_operator` evaluates in integers:

    D^3 - t (2D+1)(b D^2 + b D + lam) - t^2 (D+1)(c D^2 + 2c D + e)
        + t^3 (D+1)(D+2)(2D+3) f + t^4 (D+1)(D+2)(D+3) g,

with b, c, e, f and g the polynomials written out there.  The definition
the formula comes from is kept, in plain `Fraction` terms, as the reference
it is checked against: `build_pencil` multiplies out the powers of Dt,
`right_determinant` sums the column-ordered products over permutations,
and `left_divide_by_D` peels each layer.  Every product in that chain is
`_multiply`, the term-by-term rule D^i * t^c = t^c * (D+c)^i.

The normalized power-series solution of an operator is produced by the
Frobenius recursion.  The recursion is homogeneous, so it drops the
denominator: with P the indicial polynomial it carries integers
N_m = c_m P(1)...P(m) and returns them over P(1)...P(order-1), with no
`Fraction` built.
The solution is compared, coefficient by coefficient, with a small list of
candidate q-expansions built from a weight-2 Eisenstein series and from
the factorial transform of the variety's constant-term series, which the
caller passes in, twisted by exp(+-alpha q) when alpha is not 0.  The
candidates and the comparison work on the series' integer numerators.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, permutations
from math import comb, lcm

from .exactmath import (
    ENTRY_WEIGHTS, PowerSeries, Rational, _lowest_terms, _over_one_denominator, exp_twist_pair,
    ratio_str,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NotLeftDivisible(ArithmeticError):
    """Left division by D has a nonzero remainder."""


class ObstructedRecursion(ArithmeticError):
    """The indicial polynomial blocks the Frobenius recursion."""


class InvalidLevel(ValueError):
    """Eisenstein level must be an integer of at least 2."""


# t power b -> the integer numerators of P_b(D) over one den, lowest D power first
Layers = dict[int, tuple[int, ...]]


@dataclass(frozen=True, init=False)
class DifferentialOperator:
    """Sum of terms t^b * P_b(D), stored as integer layers over `den` in the
    format of the `exactmath` docstring, with no zero layer and no trailing
    zero in any layer.  `DifferentialOperator({(b, i): c})` is the sum of
    c * t^b * D^i."""

    den: int
    layers: Layers

    def __init__(self, terms: dict[tuple[int, int], Rational] | None = None) -> None:
        terms = terms or {}
        if any(b < 0 or i < 0 for b, i in terms):
            raise ValueError("term exponents must be nonnegative")
        den, nums = _over_one_denominator(terms.values(), (f"t^{b}*D^{i}" for b, i in terms))
        layers: dict[int, list[int]] = {}
        for (b, i), c in zip(terms, nums):
            poly = layers.setdefault(b, [])
            poly.extend([0] * (i + 1 - len(poly)))
            poly[i] += c
        self._store(den, layers)

    @classmethod
    def from_layers(cls, den: int, layers: dict[int, list[int]]) -> DifferentialOperator:
        """The operator sum_b t^b * layers[b](D) / den."""
        op = cls.__new__(cls)
        op._store(den, layers)
        return op

    def _store(self, den: int, layers: dict[int, list[int]]) -> None:
        clean = {}
        for b in sorted(layers):
            poly = layers[b]
            top = len(poly)
            while top and not poly[top - 1]:
                top -= 1
            if top:
                clean[b] = poly[:top]
        flat = [c for poly in clean.values() for c in poly]
        den, flat = _lowest_terms(den, flat)
        layers, start = {}, 0
        for b, poly in clean.items():
            layers[b] = flat[start:start + len(poly)]
            start += len(poly)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "layers", layers)

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """The nonzero coefficients as {(b, i): c}, sorted by (b, i)."""
        return {
            (b, i): Fraction(c, self.den)
            for b, poly in self.layers.items()
            for i, c in enumerate(poly)
            if c
        }

    @property
    def order(self) -> int:
        return max(map(len, self.layers.values()), default=1) - 1

    def __str__(self) -> str:
        """The nonzero terms sorted by (b, i), each coefficient printed
        from its numerator with one gcd."""
        den = self.den
        parts = []
        for b, poly in self.layers.items():
            for i, c in enumerate(poly):
                if not c:
                    continue
                word = "*".join(
                    ([f"t^{b}" if b > 1 else "t"] if b else [])
                    + ([f"D^{i}" if i > 1 else "D"] if i else [])
                )
                if not word:
                    parts.append(ratio_str(c, den))
                elif c == den:
                    parts.append(word)
                elif c == -den:
                    parts.append(f"-{word}")
                else:
                    parts.append(f"{ratio_str(c, den)}*{word}")
        return " + ".join(parts).replace("+ -", "- ") or "0"


OperatorMatrix = tuple[tuple[DifferentialOperator, ...], ...]


def _multiply(x: DifferentialOperator, y: DifferentialOperator) -> DifferentialOperator:
    """The product x*y, term by term: t^a D^i * t^c D^j = t^(a+c) (D+c)^i D^j,
    with (D+c)^i expanded binomially."""
    out: dict[tuple[int, int], Fraction] = {}
    for (a, i), u in x.terms.items():
        for (c, j), v in y.terms.items():
            for s in range(i + 1):
                key = (a + c, s + j)
                out[key] = out.get(key, _ZERO) + u * v * comb(i, s) * c ** (i - s)
    return DifferentialOperator(out)


def build_pencil(matrix, lam: Rational) -> OperatorMatrix:
    """The 4x4 operator matrix D*E - M for the shifted counting matrix.

    Entry (k, l) is D*delta_kl - (a_kl + lam*delta_kl) * (Dt)^(l-k+1) on and
    above the subdiagonal and zero below it; the powers of Dt are multiplied
    out with `_multiply`.
    """
    lam = Fraction(lam)
    rows = matrix.rows()
    size = len(rows)
    dt = _multiply(DifferentialOperator({(0, 1): _ONE}), DifferentialOperator({(1, 0): _ONE}))
    powers = [DifferentialOperator({(0, 0): _ONE})]
    for _ in range(size):
        powers.append(_multiply(powers[-1], dt))
    pencil = []
    for k in range(size):
        row = []
        for l in range(size):
            a = rows[k][l] + (lam if k == l else 0)
            terms = {e: -a * c for e, c in powers[l - k + 1].terms.items()} if l >= k - 1 else {}
            if k == l:
                terms[(0, 1)] = _ONE
            row.append(DifferentialOperator(terms))
        pencil.append(tuple(row))
    return tuple(pencil)


def right_determinant(m: OperatorMatrix) -> DifferentialOperator:
    """The column-ordered determinant: the sum over permutations s of
    sgn(s) * m[s(0)][0] * m[s(1)][1] * ... * m[s(n-1)][n-1].

    This is the cofactor expansion along the rightmost column with each
    minor on the left of its entry, applied down to 1x1 minors.
    """
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("determinant needs a square matrix")
    out: dict[tuple[int, int], Fraction] = {}
    for perm in permutations(range(size)):
        factors = [m[row][col] for col, row in enumerate(perm)]
        if not all(f.layers for f in factors):
            continue
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        for e, c in reduce(_multiply, factors).terms.items():
            out[e] = out.get(e, _ZERO) + sign * c
    return DifferentialOperator(out)


def pencil_operator(matrix, lam: Rational) -> DifferentialOperator:
    """The third-order operator D^(-1) * det(D*E - M) of the pencil at shift
    lam, written layer by layer from the closed form in the module docstring.

    The scalar of t^k is weighted-homogeneous of weight k when the entries
    weigh their `ENTRY_WEIGHTS` and lam weighs 1.  So with d the lcm of the
    matrix denominator and lam's, each input x of weight w, read off the
    matrix numerators, becomes the integer x * d^w, the scalar of t^k is an
    integer over d^k, and every layer is written over d^4.
    """
    den = matrix.den
    d = lcm(den, lam.denominator)
    a01, a11, a02, a12, a03 = (x * (d**w // den) for x, w in zip(matrix.nums, ENTRY_WEIGHTS))
    lam = lam.numerator * (d // lam.denominator)
    b = a11 + 2 * lam
    c = 2 * a01 - a11**2 - 6 * a11 * lam + a12 - 6 * lam**2
    e = 4 * a01 - 6 * a11 * lam - 7 * lam**2
    f = a01 * a11 + 2 * a01 * lam - a02 - a11**2 * lam - 3 * a11 * lam**2 + a12 * lam - 2 * lam**3
    g = (
        a01**2 - 2 * a01 * a11 * lam - 2 * a01 * lam**2 + 2 * a02 * lam - a03
        + a11**2 * lam**2 + 2 * a11 * lam**3 - a12 * lam**2 + lam**4
    )
    # the scalars of t^k times d^(4-k), all over d^4
    d2 = d * d
    b, lam, c, e, f = d * d2 * b, d * d2 * lam, d2 * c, d2 * e, d * f
    return DifferentialOperator.from_layers(d2 * d2, {
        0: [0, 0, 0, d2 * d2],
        1: [-lam, -b - 2 * lam, -3 * b, -2 * b],
        2: [-e, -e - 2 * c, -3 * c, -c],
        3: [6 * f, 13 * f, 9 * f, 2 * f],
        4: [6 * g, 11 * g, 6 * g, g],
    })


def left_divide_by_D(op: DifferentialOperator) -> DifferentialOperator:
    """The operator L with op = D*L, when it exists.

    For each t power b, D * (t^b D^i) = t^b D^(i+1) + b t^b D^i, so the
    coefficients of the quotient peel off from the highest D power downward
    and the b = 0 layer must carry no constant term.  The peel runs on the
    integer numerators of each layer, over the operator's one denominator.
    """
    out = {}
    for b, coeffs in op.layers.items():
        quotient = [0] * len(coeffs)
        carry = 0
        for i in range(len(coeffs) - 1, 0, -1):
            carry = quotient[i - 1] = coeffs[i] - b * carry
        remainder = coeffs[0] - b * carry
        if remainder:
            raise NotLeftDivisible(
                f"remainder {Fraction(remainder, op.den)}*t^{b} is not left-divisible by D"
            )
        out[b] = quotient
    return DifferentialOperator.from_layers(op.den, out)


def _horner(poly: list[int], s: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * s + c
    return acc


def apply_operator(op: DifferentialOperator, series: PowerSeries) -> PowerSeries:
    """Apply the operator to a series in t, truncated at the series order."""
    n = series.order
    out = [0] * n
    for b, poly in op.layers.items():
        for m in range(n - b):
            out[m + b] += _horner(poly, m) * series.nums[m]
    return PowerSeries.from_numerators(op.den * series.den, out)


def frobenius_solve(op: DifferentialOperator, order: int) -> PowerSeries:
    """The unique series 1 + O(t) annihilated by the operator mod t^order.

    Writing the operator as sum_b t^b R_b(D), applying it to t^m turns R_b
    into the scalar R_b(m).  The t^0 layer P = R_0 is the indicial
    polynomial; P(0) must vanish for the normalization c_0 = 1 and P(m)
    must not vanish for 0 < m < order, otherwise the recursion
    P(m) c_m = -sum_b R_b(m - b) c_(m - b) cannot be carried out.

    The recursion is homogeneous, so the layers' shared denominator
    cancels and each R_b is an integer polynomial.  With
    Q_m = P(1)...P(m), the numerators N_m = c_m Q_m are integers:
    N_m = -sum_b R_b(m - b) N_(m - b) P(m - b + 1)...P(m - 1).
    The series is N_m Q_(order-1) / Q_m over Q_(order-1).
    """
    if order < 1:
        raise ValueError("order must be positive")
    layers = op.layers
    indicial = layers.get(0, ())
    if _horner(indicial, 0) != 0:
        raise ObstructedRecursion("the indicial polynomial does not vanish at 0")
    top = max(layers, default=0)
    p_at = [1]
    numerators = [1]
    for m in range(1, order):
        p = _horner(indicial, m)
        if p == 0:
            raise ObstructedRecursion(f"the indicial polynomial vanishes at {m}")
        acc = 0
        gap = 1
        for b in range(1, min(m, top) + 1):
            if b > 1:
                gap *= p_at[m - b + 1]
            if b in layers:
                acc -= _horner(layers[b], m - b) * numerators[m - b] * gap
        p_at.append(p)
        numerators.append(acc)
    tail = 1  # Q_(order-1) / Q_m, from m = order - 1 down
    for m in range(order - 1, -1, -1):
        numerators[m] *= tail
        tail *= p_at[m]
    return PowerSeries.from_numerators(tail, numerators)


def eisenstein_e2(order: int) -> PowerSeries:
    """E_2(q) = 1 - 24 sum sigma_1(m) q^m, with sigma_1 through q^(order-1)
    from one divisor sieve."""
    nums = [0] * order
    for d in range(1, order):
        for m in range(d, order, d):
            nums[m] -= 24 * d
    nums[0] = 1
    return PowerSeries.from_numerators(1, nums)


def eisenstein_weight2(level: int, order: int) -> PowerSeries:
    """(N E_2(q^N) - E_2(q)) / (N - 1), normalized to 1 at q = 0, over N - 1."""
    if not isinstance(level, int) or level < 2:
        raise InvalidLevel(f"level must be an integer >= 2, got {level!r}")
    return _eisenstein_weight2(level, order)


@lru_cache(maxsize=16)
def _eisenstein_weight2(level: int, order: int) -> PowerSeries:
    """`eisenstein_weight2` past its level check: it depends on the level
    and the order only, so it is built once per process for the 16 most
    recently used pairs.  The check stays outside the cache, since a
    `Fraction` or float equal to an int hashes and compares equal to it."""
    e2 = eisenstein_e2(order).nums
    nums = [-c for c in e2]
    for m in range(0, order, level):
        nums[m] += level * e2[m // level]
    return PowerSeries.from_numerators(level - 1, nums)


@dataclass
class ReportRow:
    lam: Fraction
    candidate: str
    first_mismatch: int | None


@dataclass(frozen=True)
class ModularityReport:
    level: int
    alpha: Fraction
    order: int
    rows: tuple[ReportRow, ...]


def first_mismatch(a: PowerSeries, b: PowerSeries) -> int | None:
    """The first index where two series differ, or None through the shorter order."""
    for m in range(min(a.order, b.order)):
        if a.nums[m] * b.den != b.nums[m] * a.den:
            return m
    return None


@lru_cache(maxsize=16)
def _factorials(order: int) -> tuple[int, ...]:
    """0!, 1!, .., (order-1)!, built once per process for the 16 most
    recently used orders."""
    fact = [1]
    for m in range(1, order):
        fact.append(fact[-1] * m)
    return tuple(fact)


def factorial_transform(series: PowerSeries) -> PowerSeries:
    """The series sum_m m! c_m q^m."""
    fact = _factorials(series.order)
    return PowerSeries.from_numerators(series.den, [f * c for f, c in zip(fact, series.nums)])


def modularity_report(
    series: PowerSeries,
    alpha: Rational,
    level: Rational,
    solution_at: Callable[[Fraction], PowerSeries],
) -> ModularityReport:
    """Tabulate, for each pencil shift, where the normalized solution of the
    third-order operator first differs from each candidate q-expansion
    through the order of `series`, the variety's constant-term series.

    Candidates: the weight-2 Eisenstein series at the given level, and the
    factorial transform of `series`, bare and multiplied by e^(+alpha q) or
    e^(-alpha q) when alpha is not 0.  Each distinct shift among 0, alpha
    and -alpha gets one row per candidate.
    The report records indices, never a verdict.  `solution_at(lam)`
    supplies the normalized solution of the pencil operator at shift lam
    through the order of `series`, so a caller that already solved one
    passes it in instead of solving it twice.  A level that is not an
    integer >= 2 raises `InvalidLevel`; a failure anywhere else propagates.
    """
    if level.denominator != 1:
        raise InvalidLevel(f"level {level} is not an integer")
    level = level.numerator
    order = series.order

    candidates = [("eisenstein", eisenstein_weight2(level, order))]
    candidates.append(("factorial_transform", factorial_transform(series)))
    shifts = (0,)
    if alpha:
        shifts = (0, alpha, -alpha)
        for tag, twisted in zip(("plus", "minus"), exp_twist_pair(series, alpha)):
            candidates.append((f"factorial_transform_twist_{tag}", factorial_transform(twisted)))

    rows = []
    for lam in shifts:
        solution = solution_at(lam)
        rows.extend(
            ReportRow(lam, name, first_mismatch(solution, cand)) for name, cand in candidates
        )
    return ModularityReport(level=level, alpha=alpha, order=order, rows=tuple(rows))
