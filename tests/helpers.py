"""Closed forms and symbolic expansions that only the tests use, the
plain `Fraction` definitions the integer series kernels, the Vandermonde
division, the solver stage and the ambient digit estimate are checked
against, the quantum Pieri oracle for the ambient series, and the tests'
name for the operator product of the D3 reference chain."""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial, lcm, log10, prod

from fanocount.d3 import _multiply
from fanocount.exactmath import (
    ChernPolynomial,
    EntryPolynomial,
    NonExactDivision,
    PowerSeries,
)
from fanocount.grassmann import GrassmannianSpec, HSeriesPair
from fanocount.relations import RelationEngine, one_point_relation
from fanocount.solver import ConsistencyCheckFailed, CountingMatrix, PeriodVector


def harmonic(m: int) -> Fraction:
    """m-th harmonic number, with harmonic(0) = 0."""
    return sum((Fraction(1, i) for i in range(1, m + 1)), Fraction(0))


def exp_linear(c: Fraction, order: int) -> PowerSeries:
    """exp(c*q) as a truncated series: sum_m c^m/m! q^m."""
    c = Fraction(c)
    return PowerSeries(tuple(c**m / factorial(m) for m in range(order)))


def series_product(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """The Cauchy product at the common order, the reference for `exp_twist`."""
    n = min(a.order, b.order)
    return PowerSeries(tuple(sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(n)))


def reference_euler_corrected_series(pair: HSeriesPair, degrees: tuple[int, ...]) -> HSeriesPair:
    """prod_j (d_j d)! * (1 + sum_j d_j harmonic(d_j d) H) times each degree-d
    coefficient, one `Fraction` product per degree."""
    e0, e1 = [], []
    for d in range(pair.order):
        f0 = Fraction(prod(factorial(dj * d) for dj in degrees))
        h1 = sum((dj * harmonic(dj * d) for dj in degrees), Fraction(0))
        e0.append(f0 * pair.c0[d])
        e1.append(f0 * (pair.c1[d] + h1 * pair.c0[d]))
    return HSeriesPair(PowerSeries(e0), PowerSeries(e1))


def reference_factorial_transform(series: PowerSeries) -> PowerSeries:
    """sum_m m! c_m q^m in `Fraction`s."""
    return PowerSeries(factorial(m) * series[m] for m in range(series.order))


def sigma1(m: int) -> int:
    """The sum of the divisors of m, by trial division."""
    return sum(d for d in range(1, m + 1) if m % d == 0)


def reference_eisenstein_weight2(level: int, order: int) -> PowerSeries:
    """(N E_2(q^N) - E_2(q)) / (N - 1), one `Fraction` per coefficient."""
    e2 = [Fraction(1)] + [Fraction(-24 * sigma1(m)) for m in range(1, order)]
    return PowerSeries(
        Fraction(level * (e2[m // level] if m % level == 0 else 0) - e2[m], level - 1)
        for m in range(order)
    )


def reference_first_mismatch(a: PowerSeries, b: PowerSeries) -> int | None:
    """The first index where the `Fraction` coefficients differ."""
    return next((m for m in range(min(a.order, b.order)) if a[m] != b[m]), None)


# the product in canonical form, using D^i * t^c = t^c * (D + c)^i
weyl_multiply = _multiply


def layer(op, b: int) -> list[Fraction]:
    """The D-power coefficients of the t^b layer of an operator, lowest first;
    b = 0 gives the indicial polynomial."""
    return [Fraction(c, op.den) for c in op.layers.get(b, ())]


def truncated_product(nvars: int, bound: int, *factors: dict) -> ChernPolynomial:
    """Product of polynomials in x_1..x_nvars, each given as {exponent: coefficient},
    term by term in `Fraction`s, dropping every term above total degree bound."""
    terms = {(0,) * nvars: Fraction(1)}
    for factor in factors:
        out: dict = {}
        for e1, c1 in terms.items():
            for e2, c2 in factor.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if sum(e) <= bound:
                    out[e] = out.get(e, 0) + c1 * c2
        terms = out
    return ChernPolynomial(nvars, bound, terms)


def divide_by_root_difference(terms: dict, i: int, j: int) -> tuple[dict, dict]:
    """Long division of sum c_e x^e by (x_i - x_j) in the variable x_i, in
    `Fraction`s, leading x_i power first: each term c x^e that holds x_i
    puts c x^e / x_i in the quotient and leaves c x^e x_j / x_i, one x_i
    power lower; what is left is free of x_i and is the remainder.
    Returns (quotient, remainder), without zero terms."""
    rest = {e: Fraction(c) for e, c in terms.items() if c}
    quotient: dict = {}
    for power in range(max((e[i] for e in rest), default=0), 0, -1):
        for e in [e for e in rest if e[i] == power]:
            c = rest.pop(e)
            lower = list(e)
            lower[i] -= 1
            quotient[tuple(lower)] = quotient.get(tuple(lower), 0) + c
            lower[j] += 1
            rest[tuple(lower)] = rest.get(tuple(lower), 0) + c
    return {e: c for e, c in quotient.items() if c}, {e: c for e, c in rest.items() if c}


def reference_divide_by_vandermonde(poly: ChernPolynomial) -> ChernPolynomial:
    """Division by prod_{i<j}(x_i - x_j) of the `Fraction` terms, one root
    difference at a time by `divide_by_root_difference`."""
    r = poly.nvars
    v = r * (r - 1) // 2
    if poly.degree_bound < v:
        raise NonExactDivision(
            f"degree bound {poly.degree_bound} below Vandermonde degree {v}"
        )
    terms = poly.terms
    low = min(map(sum, terms), default=v)
    if low < v:
        raise NonExactDivision(
            f"component of degree {low} cannot be divisible by degree-{v} Vandermonde"
        )
    for i in range(r):
        for j in range(i + 1, r):
            terms, rem = divide_by_root_difference(terms, i, j)
            if rem:
                raise NonExactDivision(f"nonzero remainder dividing by (x{i + 1} - x{j + 1})")
    return ChernPolynomial(r, poly.degree_bound - v, terms)


def root_difference(nvars: int, i: int, j: int, shift: int = 0) -> dict:
    """x_i - x_j + shift as {exponent: coefficient}."""
    unit = [tuple(int(k == m) for k in range(nvars)) for m in (i, j)]
    return {unit[0]: 1, unit[1]: -1, (0,) * nvars: shift}


def projective_closed_form(n: int, order: int) -> HSeriesPair:
    """The I-series of P^(n-1) mod H^2 through q^(order-1) in `Fraction`s:
    1/(d!)^n at H^0 and -n harmonic(d)/(d!)^n at H^1."""
    c0 = [Fraction(1, factorial(d) ** n) for d in range(order)]
    return HSeriesPair(PowerSeries(c0), PowerSeries([-n * harmonic(d) * c for d, c in enumerate(c0)]))


def quantum_pieri(r: int, n: int, lam: tuple[int, ...]):
    """sigma_1 * sigma_lam in the small quantum cohomology of G(r, n)
    (Bertram, Adv. Math. 128, 1997; Buch, Compositio Math. 137, 2003), as
    (the partitions lam plus one box inside the r x (n - r) box, the
    partition of the q-term or None).  The q-term is q sigma_(lam_2 - 1, ..,
    lam_r - 1, 0), there only when lam_1 = n - r and lam_r >= 1."""
    k = n - r
    boxes = [
        lam[:i] + (lam[i] + 1,) + lam[i + 1:]
        for i in range(r)
        if lam[i] < k and (i == 0 or lam[i - 1] > lam[i])
    ]
    q_term = tuple(p - 1 for p in lam[1:]) + (0,) if lam[0] == k and lam[-1] >= 1 else None
    return boxes, q_term


def quantum_pieri_pair(r: int, n: int, order: int, rule=quantum_pieri):
    """The ambient series (c0, c1) of G(r, n) through q^(order-1) from the
    quantum D-module, two tuples of `Fraction`s; shares no code with the
    residue sum.

    Each Schubert class lam carries w_lam = e^(H log q) sum_d q^d w_(lam,d)
    mod H^2, with D w_lam = sum_mu [sigma_1 * sigma_lam]_mu w_mu for
    D = q d/dq and w_(lam,0) = sigma_lam mod degree >= 2 (1 at lam = (),
    H at lam = (1)).  Degree d solves (d + H) w_(lam,d) = sum over the
    classical terms w_(mu,d) plus the q-term's w_(mu,d-1), from the largest
    partition down, and (c0, c1) is w_().  Every Grassmannian has index
    n >= 2, so its J and I functions agree (Givental).  Degree d is kept
    scaled by (d!)^(r(n-r)+2), so each division by d + H, that is
    (1 - H/d)/d mod H^2, divides exactly by d.  `rule` gives the product
    sigma_1 * sigma_lam as `quantum_pieri` does."""
    top = r * (n - r)
    # partitions in the box from the r-subsets of 0..n-1, the largest first
    classes = sorted(
        (tuple(sorted((c - i for i, c in enumerate(cols)), reverse=True))
         for cols in combinations(range(n), r)),
        key=sum, reverse=True,
    )
    steps = [(lam, *rule(r, n, lam)) for lam in classes]
    empty, box = (0,) * r, (1,) + (0,) * (r - 1)
    w = {lam: (int(lam == empty), int(lam == box)) for lam in classes}
    c0, c1, scale = [Fraction(1)], [Fraction(0)], 1
    for d in range(1, order):
        lift = d ** (top + 2)
        scale *= lift
        new = {}
        for lam, boxes, q_term in steps:
            a = sum(new[mu][0] for mu in boxes)
            b = sum(new[mu][1] for mu in boxes)
            if q_term is not None:
                a += lift * w[q_term][0]
                b += lift * w[q_term][1]
            assert a % d == 0 and (b - a // d) % d == 0
            new[lam] = a // d, (b - a // d) // d
        w = new
        c0.append(Fraction(w[empty][0], scale))
        c1.append(Fraction(w[empty][1], scale))
    return tuple(c0[:order]), tuple(c1[:order])


def closed_form_constant(n: int, d: int) -> Fraction:
    """Constant term of the degree-d part for G(2, n), in closed form.

    (1/(d!)^n) * ((-1)^d / 2) * sum_{m=0}^{d} C(d,m)^n
        * ( n*(d-2m)*(harmonic(m) - harmonic(d-m)) + 2 )
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d == 0:
        return Fraction(1)
    acc = Fraction(0)
    for m in range(d + 1):
        acc += Fraction(comb(d, m)) ** n * (
            n * (d - 2 * m) * (harmonic(m) - harmonic(d - m)) + 2
        )
    return Fraction((-1) ** d, 2) * acc / Fraction(factorial(d)) ** n


_ENGINE = RelationEngine()


class TamperedEngine(RelationEngine):
    """Engine with one matrix entry replaced by a constant.

    Used to confirm that entry() is the single funnel for structure
    constants: changing one entry must propagate to the relations.
    """

    def __init__(self, where, value):
        super().__init__()
        self._where = where
        self._value = Fraction(value)

    def entry(self, i, j):
        if (i, j) == self._where:
            return EntryPolynomial.const(self._value)
        return super().entry(i, j)


def constant_terms(matrix, order: int, engine: RelationEngine = _ENGINE) -> PowerSeries:
    """Constant terms 1, 0, d_2, d_3, ... of the I-series the matrix determines,
    through q^(order-1), from the engine's constant-term relations."""
    values = matrix.entries()
    coeffs = [Fraction(1), Fraction(0)]
    for d in range(2, order):
        coeffs.append(engine.one_point_relation(d - 2, d).evaluate(values))
    return PowerSeries(tuple(coeffs[:order]))


def symbolic_iseries(
    d_max: int, engine: RelationEngine = _ENGINE
) -> list[tuple[EntryPolynomial, EntryPolynomial]]:
    """Pairs (constant, H^1 coefficient) of the I-series degree parts.

    The coefficient of H^j in the degree-d part equals
    <tau_(d+j-2) H^(3-j)>_d / deg, the engine's `one_point_relation(d+j-2, d)`;
    the constant of the degree-1 part has level -1 and is zero.
    """
    out = [(EntryPolynomial.const(Fraction(1)), EntryPolynomial.zero())]
    for d in range(1, d_max + 1):
        c0 = engine.one_point_relation(d - 2, d) if d >= 2 else EntryPolynomial.zero()
        out.append((c0, engine.one_point_relation(d - 1, d)))
    return out


def reference_recover_matrix(pair: HSeriesPair, deg: int) -> CountingMatrix:
    """`recover_matrix` in `Fraction`s: the q^1 constant checked, the entries
    read off the series coefficients triangularly, then the redundant H^1
    relations at q^3 and q^4, evaluated at the entries, compared with the
    series."""
    if pair.order < 5:
        raise ValueError("matrix recovery needs the series through q^4")
    c0, c1 = pair.c0, pair.c1
    if c0[0] != 1 or c1[0] != 0:
        raise ConsistencyCheckFailed("series must start 1 + O(q)")
    if c0[1] != 0:
        raise ConsistencyCheckFailed(
            f"q^1 constant must vanish for an index-1 series, got {c0[1]}"
        )
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
    return matrix


def reference_forward_periods(matrix: CountingMatrix) -> PeriodVector:
    """The constant-term relations at degrees 2..6, evaluated at the
    `Fraction` entries."""
    values = matrix.entries()
    return PeriodVector(*(one_point_relation(d - 2, d).evaluate(values) for d in range(2, 7)))


def reference_discriminant(v: PeriodVector) -> Fraction:
    """The discriminant in `Fraction`s, read off the period values."""
    return (
        -495 * v.d3 * v.d5
        + 261 * v.d2 * v.d3**2
        - 312 * v.d4 * v.d2**2
        + 432 * v.d4**2
        + 56 * v.d2**4
    )


def reference_coefficient_digits(ambient: GrassmannianSpec, order: int) -> Fraction:
    """The ambient digit estimate of `pipeline._coefficient_digits`, summed
    from one `Fraction` per log."""
    n, r = ambient.n, min(ambient.r, ambient.n - ambient.r)
    lcm_digits = Fraction(log10(lcm(*range(1, order))))
    return n * Fraction(log10(factorial(order - 1))) + r * Fraction(log10(10 * n)) + lcm_digits
