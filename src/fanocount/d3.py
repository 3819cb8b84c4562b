"""Noncommutative operator pencils, the third-order operators they give,
and the Eisenstein comparison for those operators.

Operators live in the ring of polynomials in t and D, where D is the Euler
operator t d/dt, subject to D*t = t*D + t.  Canonical form keeps every power
of t to the left of every power of D, so an operator is a sum of layers
t^b * P_b(D).  `DifferentialOperator` stores each P_b as integer
numerators over one shared denominator, in lowest terms; a `Fraction`
appears only when a caller reads a coefficient.

From a counting matrix A and a shift lam the pencil is the 4x4 matrix
D*E - M, where M has entries (a_kl + lam*delta_kl) * (Dt)^(l-k+1) on and
above the subdiagonal, (Dt) being multiply-by-t followed by D.  Every
pencil has the layout `relations.ENTRY_LAYOUT`, so its operator
D^(-1) * det(D*E - M) is one fixed formula in a01, a11, a02, a12, a03 and
lam, which `pencil_operator` evaluates in integers:

    D^3 - t (2D+1)(b D^2 + b D + lam) - t^2 (D+1)(c D^2 + 2c D + e)
        + t^3 (D+1)(D+2)(2D+3) f + t^4 (D+1)(D+2)(D+3) g,

with b, c, e, f and g the polynomials written out there.  The chain the
formula comes from is the reference it is checked against: `build_pencil`
writes each entry from (Dt)^m = t^m (D+1)...(D+m), `right_determinant`
expands along the rightmost column (minors on the left, each expanded
once), and `left_divide_by_D` peels each layer.  Products run on the
layers: t^b1 P(D) * t^b2 Q(D) = t^(b1+b2) P(D+b2) Q(D).

The normalized power-series solution of an operator is produced by the
Frobenius recursion.  The recursion is homogeneous, so it drops the
denominator: with P the indicial polynomial it carries integers
N_m = c_m P(1)...P(m) and builds one `Fraction` per coefficient.
The solution is compared, coefficient by coefficient, with a small list of
candidate q-expansions built from a weight-2 Eisenstein series and from
the factorial transform of the variety's constant-term series, which the
caller passes in, twisted by exp(+-alpha q) when alpha is not 0.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm

from .exactmath import PowerSeries, Rational, exp_twist

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
    """Sum of terms t^b * P_b(D), stored as integer layers over `den`.

    `DifferentialOperator({(b, i): c})` is the sum of c * t^b * D^i.  The
    stored form is in lowest terms, with no zero layer and no trailing zero
    in any layer, so equal operators compare equal.
    """

    den: int
    layers: Layers

    def __init__(self, terms: dict[tuple[int, int], Rational] | None = None) -> None:
        terms = terms or {}
        den = lcm(*(c.denominator for c in terms.values()))
        layers: dict[int, list[int]] = {}
        for (b, i), c in terms.items():
            if b < 0 or i < 0:
                raise ValueError("term exponents must be nonnegative")
            _accumulate(layers.setdefault(b, []), [c.numerator], den // c.denominator, i)
        self._store(den, layers)

    @classmethod
    def from_layers(cls, den: int, layers: dict[int, list[int]]) -> DifferentialOperator:
        """The operator sum_b t^b * layers[b](D) / den, for a positive den."""
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
        g = gcd(den, *(c for poly in clean.values() for c in poly))
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "layers", {b: tuple(c // g for c in p) for b, p in clean.items()})

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

    def t_coefficients(self, b: int) -> list[Fraction]:
        """D-power coefficient list of the t^b part."""
        return [Fraction(c, self.den) for c in self.layers.get(b, ())]

    def indicial(self) -> list[Fraction]:
        """The t-free part as a polynomial in the symbol of D."""
        return self.t_coefficients(0)

    def __str__(self) -> str:
        parts = []
        for (b, i), c in self.terms.items():
            word = "*".join(
                ([f"t^{b}" if b > 1 else "t"] if b else [])
                + ([f"D^{i}" if i > 1 else "D"] if i else [])
            )
            if not word:
                parts.append(str(c))
            elif c == 1:
                parts.append(word)
            elif c == -1:
                parts.append(f"-{word}")
            else:
                parts.append(f"{c}*{word}")
        return " + ".join(parts).replace("+ -", "- ") or "0"


OperatorMatrix = tuple[tuple[DifferentialOperator, ...], ...]


def _taylor_shift(poly: list[int], s: int) -> list[int]:
    """Coefficients of P(D + s) from those of P(D)."""
    out = list(poly)
    if s:
        for k in range(len(out) - 1):
            for j in range(len(out) - 2, k - 1, -1):
                out[j] += s * out[j + 1]
    return out


def _accumulate(into: list[int], poly: list[int], scale: int, shift: int = 0) -> None:
    """into += scale * D^shift * poly, padding into with zeros as needed."""
    if len(into) < shift + len(poly):
        into.extend([0] * (shift + len(poly) - len(into)))
    for i, c in enumerate(poly, shift):
        into[i] += scale * c


def _product(x: tuple[int, Layers], y: tuple[int, Layers]) -> tuple[int, Layers]:
    """t^b1 P(D) * t^b2 Q(D) = t^(b1+b2) P(D + b2) Q(D), pair by pair."""
    (dx, gx), (dy, gy) = x, y
    out: dict[int, list[int]] = {}
    for b2, q in gy.items():
        for b1, p in gx.items():
            acc = out.setdefault(b1 + b2, [])
            for i, c in enumerate(_taylor_shift(p, b2)):
                if c:
                    _accumulate(acc, q, c, i)
    return dx * dy, out


def _combine(x: tuple[int, Layers], y: tuple[int, Layers], sign: int) -> tuple[int, Layers]:
    """x + sign * y over the lcm of the two denominators."""
    (dx, gx), (dy, gy) = x, y
    den = lcm(dx, dy)
    out: dict[int, list[int]] = {}
    for groups, scale in ((gx, den // dx), (gy, sign * (den // dy))):
        for b, poly in groups.items():
            _accumulate(out.setdefault(b, []), poly, scale)
    return den, out


@cache
def _rising(m: int) -> tuple[int, ...]:
    """Coefficients of (D+1)(D+2)...(D+m), lowest D power first."""
    out = [1]
    for k in range(1, m + 1):
        out = [k * c + d for c, d in zip(out + [0], [0] + out)]
    return tuple(out)


def build_pencil(matrix, lam: Rational) -> OperatorMatrix:
    """The 4x4 operator matrix D*E - M for the shifted counting matrix.

    With a = u/v the entry -a*(Dt)^m is the layer t^m times -u*c over v,
    for the integer coefficients c of (D+1)...(D+m).
    """
    rows = matrix.rows()
    size = len(rows)
    pencil = []
    for k in range(size):
        row = []
        for l in range(size):
            u, v = rows[k][l].numerator, rows[k][l].denominator
            if k == l:
                u, v = u * lam.denominator + lam.numerator * v, v * lam.denominator
            power = l - k + 1
            layers = {}
            if u and power >= 0:
                layers[power] = [-u * c for c in _rising(power)]
            if k == l:
                layers[0] = [0, v]
            row.append(DifferentialOperator.from_layers(v, layers))
        pencil.append(tuple(row))
    return tuple(pencil)


def right_determinant(m: OperatorMatrix) -> DifferentialOperator:
    """Cofactor expansion along the rightmost column, minors on the left.

    The minor on the first k columns is fixed by its sorted row tuple, so
    each one is expanded once per call and kept in a local memo.
    """
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("determinant needs a square matrix")
    cells = [[(entry.den, entry.layers) for entry in row] for row in m]
    memo: dict[tuple[int, ...], tuple[int, Layers]] = {}

    def minor(rows: tuple[int, ...]) -> tuple[int, Layers]:
        if rows in memo:
            return memo[rows]
        last = len(rows) - 1
        if last == 0:
            value = cells[rows[0]][0]
        else:
            value = (1, {})
            for pos, row in enumerate(rows):
                entry = cells[row][last]
                if entry[1]:
                    term = _product(minor(rows[:pos] + rows[pos + 1 :]), entry)
                    value = _combine(value, term, -1 if (pos + last) % 2 else 1)
        memo[rows] = value
        return value

    return DifferentialOperator.from_layers(*minor(tuple(range(size))))


def pencil_operator(matrix, lam: Rational) -> DifferentialOperator:
    """The third-order operator D^(-1) * det(D*E - M) of the pencil at shift
    lam, written layer by layer from the closed form in the module docstring.

    The scalar of t^k is weighted-homogeneous of weight k when a11 and lam
    weigh 1, a01 and a12 weigh 2, a02 weighs 3 and a03 weighs 4.  So with d
    the lcm of the six denominators, each input x of weight w becomes the
    integer x * d^w, the scalar of t^k is an integer over d^k, and every
    layer is written over d^4.
    """
    values = (matrix.a01, matrix.a11, matrix.a02, matrix.a12, matrix.a03, lam)
    d = lcm(*(x.denominator for x in values))
    a01, a11, a02, a12, a03, lam = (
        x.numerator * (d**w // x.denominator) for x, w in zip(values, (2, 1, 3, 2, 4, 1))
    )
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
    out = [_ZERO] * n
    for b, poly in op.layers.items():
        for m in range(n - b):
            v = series[m]
            if v:
                out[m + b] += Fraction(_horner(poly, m), op.den) * v
    return PowerSeries(tuple(out))


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
    coeffs = [_ONE]
    q = 1
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
        q *= p
        coeffs.append(Fraction(acc, q))
    return PowerSeries(tuple(coeffs))


def _sigma1(m: int) -> int:
    return sum(d for d in range(1, m + 1) if m % d == 0)


def eisenstein_e2(order: int) -> PowerSeries:
    """E_2(q) = 1 - 24 sum sigma_1(m) q^m."""
    return PowerSeries(
        (_ONE,) + tuple(Fraction(-24 * _sigma1(m)) for m in range(1, order))
    )


def eisenstein_weight2(level: int, order: int) -> PowerSeries:
    """(N E_2(q^N) - E_2(q)) / (N - 1), normalized to 1 at q = 0."""
    if not isinstance(level, int) or level < 2:
        raise InvalidLevel(f"level must be an integer >= 2, got {level!r}")
    e2 = eisenstein_e2(order)
    coeffs = []
    for m in range(order):
        stretched = e2[m // level] if m % level == 0 else _ZERO
        coeffs.append(Fraction(level * stretched - e2[m], level - 1))
    return PowerSeries(tuple(coeffs))


@dataclass(frozen=True)
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
        if a[m] != b[m]:
            return m
    return None


def factorial_transform(series: PowerSeries) -> PowerSeries:
    """The series sum_m m! c_m q^m."""
    return PowerSeries(
        tuple(factorial(m) * series[m] for m in range(series.order))
    )


def modularity_report(
    series: PowerSeries,
    alpha: Rational,
    level: Rational,
    operator_at: Callable[[Fraction], DifferentialOperator],
) -> ModularityReport:
    """Tabulate, for each pencil shift, where the normalized solution of the
    third-order operator first differs from each candidate q-expansion
    through the order of `series`, the variety's constant-term series.

    Candidates: the weight-2 Eisenstein series at the given level, and the
    factorial transform of `series`, bare and multiplied by e^(+alpha q) or
    e^(-alpha q) when alpha is not 0.  Each distinct shift among 0, alpha
    and -alpha gets one row per candidate.
    The report records indices, never a verdict.  `operator_at(lam)`
    supplies the pencil operators, so a caller that already built one
    passes it in instead of building it twice.  A level that is not an
    integer >= 2 raises `InvalidLevel`; a failure anywhere else propagates.
    """
    alpha, level = Fraction(alpha), Fraction(level)
    if level.denominator != 1:
        raise InvalidLevel(f"level {level} is not an integer")
    level = level.numerator
    order = series.order

    candidates = [("eisenstein", eisenstein_weight2(level, order))]
    candidates.append(("factorial_transform", factorial_transform(series)))
    if alpha:
        for tag, sign in (("plus", 1), ("minus", -1)):
            twisted = exp_twist(series, sign * alpha)
            candidates.append((f"factorial_transform_twist_{tag}", factorial_transform(twisted)))

    rows = []
    for lam in dict.fromkeys((Fraction(0), alpha, -alpha)):
        solution = frobenius_solve(operator_at(lam), order)
        rows.extend(
            ReportRow(lam, name, first_mismatch(solution, cand)) for name, cand in candidates
        )
    return ModularityReport(level=level, alpha=alpha, order=order, rows=tuple(rows))
