"""Noncommutative operator pencils, their right determinants, and the
Eisenstein comparison for the resulting third-order equations.

Operators live in the ring of polynomials in t and D, where D is the Euler
operator t d/dt, subject to D*t = t*D + t.  Canonical form keeps every power
of t to the left of every power of D, so a term is coded by the pair
(t power, D power).

From a counting matrix A and a shift lam the pencil is the 4x4 matrix
D*E - M, where M has entries (a_kl + lam*delta_kl) * (Dt)^(l-k+1) on and
above the subdiagonal, (Dt) being multiply-by-t followed by D.  In closed
form (Dt)^m = t^m (D+1)(D+2)...(D+m), so each entry is written directly
from the integer coefficients of that product.  Its determinant is taken
with respect to the rightmost column, minors expanded the same way and
multiplied on the right by the column entry; the minor on the first k
columns depends only on its set of rows, so each is expanded once per
determinant.

Products are computed per t power: an operator is grouped into
t^b * P_b(D) with integer numerators over one denominator, and
t^b1 P(D) * t^b2 Q(D) = t^(b1+b2) P(D+b2) Q(D) costs one integer Taylor
shift and one integer convolution per pair; a `Fraction` is built only
for each term of the finished operator.

Dividing the determinant by D on the left leaves a third-order operator
whose normalized power-series solution is produced by the Frobenius
recursion.  Both steps run on the same grouped integer layers: the
division peels each layer's numerators over the operator's denominator,
and the recursion, which is homogeneous, drops that denominator, so with
P the indicial polynomial it carries integers N_m = c_m P(1)...P(m) and
builds one `Fraction` per coefficient.  The solution is compared,
coefficient by coefficient, with a small list of candidate q-expansions
built from a weight-2 Eisenstein series and from the factorial transform
of the variety's constant-term series, twisted by exp(+-alpha q).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from math import factorial, lcm

from .exactmath import PowerSeries, Rational, exp_twist
from .solver import constant_terms

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NotLeftDivisible(ArithmeticError):
    """Left division by D has a nonzero remainder."""


class ObstructedRecursion(ArithmeticError):
    """The indicial polynomial blocks the Frobenius recursion."""


class InvalidLevel(ValueError):
    """Eisenstein level must be an integer of at least 2."""


@dataclass(frozen=True)
class DifferentialOperator:
    """Sum of terms c * t^b * D^i stored as {(b, i): c}."""

    terms: dict[tuple[int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {}
        for (b, i), c in self.terms.items():
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if b < 0 or i < 0:
                raise ValueError("term exponents must be nonnegative")
            if c != 0:
                clean[(int(b), int(i))] = c
        object.__setattr__(self, "terms", clean)

    @property
    def order(self) -> int:
        return max((i for _, i in self.terms), default=0)

    def t_coefficients(self, b: int) -> list[Fraction]:
        """D-power coefficient list of the t^b part."""
        top = max((i for bb, i in self.terms if bb == b), default=-1)
        out = [_ZERO] * (top + 1)
        for (bb, i), c in self.terms.items():
            if bb == b:
                out[i] = c
        return out

    def indicial(self) -> list[Fraction]:
        """The t-free part as a polynomial in the symbol of D."""
        return self.t_coefficients(0)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (b, i) in sorted(self.terms, key=lambda e: (e[0], e[1])):
            c = self.terms[(b, i)]
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
        return " + ".join(parts).replace("+ -", "- ")


OperatorMatrix = tuple[tuple[DifferentialOperator, ...], ...]


# An operator grouped by t power: t^b * P_b(D) for each b, every P_b a list
# of integer numerators (indexed by D power) over one shared denominator.
_Grouped = tuple[int, dict[int, list[int]]]


def _grouped(op: DifferentialOperator) -> _Grouped:
    den = lcm(*(c.denominator for c in op.terms.values()))
    groups: dict[int, list[int]] = {}
    for (b, i), c in op.terms.items():
        poly = groups.setdefault(b, [])
        if len(poly) <= i:
            poly.extend([0] * (i + 1 - len(poly)))
        poly[i] = c.numerator * (den // c.denominator)
    return den, groups


def _ungrouped(g: _Grouped) -> DifferentialOperator:
    den, groups = g
    return DifferentialOperator(
        {(b, i): Fraction(c, den) for b, poly in groups.items() for i, c in enumerate(poly) if c}
    )


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


def _product(x: _Grouped, y: _Grouped) -> _Grouped:
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


def _combine(x: _Grouped, y: _Grouped, sign: int) -> _Grouped:
    """x + sign * y over the lcm of the two denominators."""
    (dx, gx), (dy, gy) = x, y
    den = lcm(dx, dy)
    out: dict[int, list[int]] = {}
    for groups, scale in ((gx, den // dx), (gy, sign * (den // dy))):
        for b, poly in groups.items():
            _accumulate(out.setdefault(b, []), poly, scale)
    return den, out


def weyl_multiply(a: DifferentialOperator, b: DifferentialOperator) -> DifferentialOperator:
    """Product in canonical form, using D^a * t^b = t^b * (D + b)^a."""
    return _ungrouped(_product(_grouped(a), _grouped(b)))


@cache
def _rising(m: int) -> tuple[int, ...]:
    """Coefficients of (D+1)(D+2)...(D+m), lowest D power first."""
    out = [1]
    for k in range(1, m + 1):
        out = [k * c + d for c, d in zip(out + [0], [0] + out)]
    return tuple(out)


def build_pencil(matrix, lam: Rational) -> OperatorMatrix:
    """The 4x4 operator matrix D*E - M for the shifted counting matrix.

    With a = u/v the entry -a*(Dt)^m has coefficients -u*c/v for the
    integer coefficients c of (D+1)...(D+m), so each is one `Fraction`.
    """
    lam = Fraction(lam)
    rows = matrix.rows()
    size = len(rows)
    pencil = []
    for k in range(size):
        row = []
        for l in range(size):
            a = rows[k][l] + lam if k == l else rows[k][l]
            power = l - k + 1
            terms = {}
            if a and power >= 0:
                u, v = a.numerator, a.denominator
                rising = enumerate(_rising(power))
                if v == 1:
                    terms = {(power, i): Fraction(-u * c) for i, c in rising}
                else:
                    terms = {(power, i): Fraction(-u * c, v) for i, c in rising}
            if k == l:
                terms[(0, 1)] = _ONE
            row.append(DifferentialOperator(terms))
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
    cells = [[_grouped(entry) for entry in row] for row in m]
    memo: dict[tuple[int, ...], _Grouped] = {}

    def minor(rows: tuple[int, ...]) -> _Grouped:
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

    return _ungrouped(minor(tuple(range(size))))


def pencil_operator(matrix, lam: Rational) -> DifferentialOperator:
    """The third-order operator D^(-1) * det(D*E - M) of the pencil at shift lam."""
    return left_divide_by_D(right_determinant(build_pencil(matrix, lam)))


def left_divide_by_D(op: DifferentialOperator) -> DifferentialOperator:
    """The operator L with op = D*L, when it exists.

    For each t power b, D * (t^b D^i) = t^b D^(i+1) + b t^b D^i, so the
    coefficients of the quotient peel off from the highest D power downward
    and the b = 0 layer must carry no constant term.  The peel runs on the
    integer numerators of each layer, over the operator's one denominator.
    """
    den, groups = _grouped(op)
    out: dict[tuple[int, int], Fraction] = {}
    for b in sorted(groups):
        coeffs = groups[b]
        quotient = [0] * len(coeffs)
        carry = 0
        for i in range(len(coeffs) - 1, 0, -1):
            carry = quotient[i - 1] = coeffs[i] - b * carry
        remainder = coeffs[0] - b * carry
        if remainder:
            raise NotLeftDivisible(
                f"remainder {Fraction(remainder, den)}*t^{b} is not left-divisible by D"
            )
        for i, c in enumerate(quotient):
            if c:
                out[(b, i)] = Fraction(c, den)
    return DifferentialOperator(out)


def apply_operator(op: DifferentialOperator, series: PowerSeries) -> PowerSeries:
    """Apply the operator to a series in t, truncated at the series order."""
    n = series.order
    out = [_ZERO] * n
    for (b, i), c in op.terms.items():
        for m in range(n - b):
            v = series[m]
            if v:
                out[m + b] += c * v * Fraction(m) ** i
    return PowerSeries(tuple(out))


def _horner(poly: list[int], s: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * s + c
    return acc


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
    _, layers = _grouped(op)
    indicial = layers.get(0, [])
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
    error: str | None = None


@dataclass(frozen=True)
class ModularityReport:
    deg: int
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
    matrix,
    alpha: Rational,
    order: int = 8,
    operator_at: Callable[[Fraction], DifferentialOperator] | None = None,
) -> ModularityReport:
    """Tabulate, for each pencil shift, where the normalized solution of the
    third-order operator first differs from each candidate q-expansion.

    Candidates: the weight-2 Eisenstein series at level deg/2, and the
    factorial transform of the matrix's constant-term series, bare and
    multiplied by e^(+alpha q) or e^(-alpha q).  The report records indices,
    never a verdict.  `operator_at(lam)` supplies the pencil operators, so a
    caller that already built one passes it in instead of building it twice.
    """
    alpha = Fraction(alpha)
    if matrix.deg % 2 != 0:
        raise InvalidLevel(f"degree {matrix.deg} has no integer half")
    level = matrix.deg // 2
    operator_at = operator_at or partial(pencil_operator, matrix)

    candidates: list[tuple[str, PowerSeries | None, str | None]] = []
    try:
        candidates.append(("eisenstein", eisenstein_weight2(level, order), None))
    except InvalidLevel as exc:
        candidates.append(("eisenstein", None, str(exc)))
    base = constant_terms(matrix, order)
    candidates.append(("factorial_transform", factorial_transform(base), None))
    for tag, sign in (("plus", 1), ("minus", -1)):
        twisted = exp_twist(base, sign * alpha)
        candidates.append(
            (f"factorial_transform_twist_{tag}", factorial_transform(twisted), None)
        )

    rows = []
    for lam in (Fraction(0), alpha, -alpha):
        solution = None
        lam_error = None
        try:
            solution = frobenius_solve(operator_at(lam), order)
        except (ArithmeticError, ValueError) as exc:
            lam_error = f"{type(exc).__name__}: {exc}"
        for name, series, cand_error in candidates:
            error = lam_error or cand_error
            mismatch = None
            if error is None and solution is not None and series is not None:
                mismatch = first_mismatch(solution, series)
            rows.append(ReportRow(lam, name, mismatch, error))
    return ModularityReport(
        deg=matrix.deg, level=level, alpha=alpha, order=order, rows=tuple(rows)
    )
