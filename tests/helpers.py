"""Closed forms and symbolic expansions that only the tests use."""

from fractions import Fraction
from math import comb, factorial

from fanocount.d3 import DifferentialOperator, _product
from fanocount.exactmath import ChernPolynomial, EntryPolynomial, PowerSeries
from fanocount.grassmann import harmonic
from fanocount.relations import RelationEngine


def exp_linear(c: Fraction, order: int) -> PowerSeries:
    """exp(c*q) as a truncated series: sum_m c^m/m! q^m."""
    c = Fraction(c)
    return PowerSeries(tuple(c**m / factorial(m) for m in range(order)))


def weyl_multiply(a: DifferentialOperator, b: DifferentialOperator) -> DifferentialOperator:
    """Product in canonical form, using D^a * t^b = t^b * (D + b)^a."""
    return DifferentialOperator.from_layers(*_product((a.den, a.layers), (b.den, b.layers)))


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


def root_difference(nvars: int, i: int, j: int, shift: int = 0) -> dict:
    """x_i - x_j + shift as {exponent: coefficient}."""
    unit = [tuple(int(k == m) for k in range(nvars)) for m in (i, j)]
    return {unit[0]: 1, unit[1]: -1, (0,) * nvars: shift}


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
    <tau_(d+j-2) H^(3-j)>_d / deg, read from the engine's reductions.
    """
    out = [(EntryPolynomial.const(Fraction(1)), EntryPolynomial.zero())]
    for d in range(1, d_max + 1):
        out.append((engine._one_point(d - 2, 3, d), engine._one_point(d - 1, 2, d)))
    return out
