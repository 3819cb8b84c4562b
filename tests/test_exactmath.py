import re
from fractions import Fraction
from itertools import count, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    exp_linear,
    reference_divide_by_vandermonde,
    reference_substitute,
    root_difference,
    series_product,
    truncated_product,
)
from fanocount.exactmath import (
    ENTRY_VARS,
    ChernPolynomial,
    EntryPolynomial,
    NonExactDivision,
    PowerSeries,
    _divide_linear_difference,
    _lowest_terms,
    _over_one_denominator,
    divide_by_vandermonde,
    exp_twist,
    exp_twist_pair,
)
from fanocount.d3 import DifferentialOperator
from fanocount.relations import one_point_relation
from fanocount.solver import CountingMatrix, PeriodVector

F = Fraction

small_fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)


def vandermonde(nvars: int, bound: int) -> ChernPolynomial:
    """prod_{i<j} (x_i - x_j)."""
    pairs = [(i, j) for i in range(nvars) for j in range(i + 1, nvars)]
    return truncated_product(nvars, bound, *(root_difference(nvars, i, j) for i, j in pairs))


def test_powerseries_order_and_indexing():
    s = PowerSeries((F(1), F(2), F(3)))
    assert s.order == 3
    assert s[2] == 3
    with pytest.raises(IndexError):
        s[3]
    with pytest.raises(IndexError):
        s[-1]
    with pytest.raises(ValueError):
        PowerSeries(())


def test_powerseries_truncate():
    s = PowerSeries((F(1), F(2), F(3)))
    assert s.truncate(2).coeffs == (F(1), F(2))
    # at its own order the series itself comes back, which is equal
    assert s.truncate(3) is s and s.truncate(3) == PowerSeries((F(1), F(2), F(3)))
    with pytest.raises(ValueError):
        s.truncate(4)


@pytest.mark.parametrize("order", [0, -1, -3])
def test_powerseries_truncate_refuses_orders_below_one(order):
    # a negative order used to slice from the end: truncate(-1) kept two terms
    with pytest.raises(ValueError, match="cannot truncate"):
        PowerSeries((F(1), F(2), F(3))).truncate(order)


def test_powerseries_product_is_cauchy():
    # geometric series times itself: coefficient of q^d is d+1
    geo = PowerSeries((F(1),) * 6)
    sq = series_product(geo, geo)
    assert sq.coeffs == tuple(F(d + 1) for d in range(6))


def test_power_series_reads_fraction_coefficients():
    # stored as integers over one denominator; a Fraction is built on read
    s = PowerSeries((F(1, 3), 2))
    assert (s.den, s.nums) == (3, (1, 6))
    assert s.coeffs == (F(1, 3), F(2)) and all(type(c) is Fraction for c in s.coeffs)
    assert type(s[1]) is Fraction and s[1] == 2


series_values = st.lists(small_fractions, min_size=1, max_size=9)


@given(series_values, st.integers(1, 10**6))
def test_power_series_form_is_canonical(values, k):
    # the same values over a scaled denominator: one stored form, so == is value equality
    series = PowerSeries(values)
    scaled = PowerSeries.from_numerators(k * series.den, [k * c for c in series.nums])
    assert scaled == series and hash(scaled) == hash(series)
    assert scaled.coeffs == tuple(values)
    assert series.truncate(1) == PowerSeries(values[:1])
    for s in (series, series.truncate(1)):
        assert s.den > 0 and gcd(s.den, *s.nums) == 1


def test_chern_polynomial_stores_integers_over_one_denominator():
    # stored as integers over one positive denominator in lowest terms; a
    # Fraction is built on read, and terms over the bound are dropped
    p = ChernPolynomial(2, 1, {(0, 0): F(1, 3), (1, 0): 2, (0, 1): F(-4, 6), (1, 1): 5})
    assert (p.den, p.nums) == (3, {(0, 0): 1, (1, 0): 6, (0, 1): -2})
    assert p.terms == {(0, 0): F(1, 3), (1, 0): F(2), (0, 1): F(-2, 3)}
    assert all(type(c) is Fraction for c in p.terms.values())
    assert type(p.coefficient((1, 0))) is Fraction and p.coefficient((1, 1)) == 0
    # a part built over a negative denominator, as the residue sum's sign
    # (-1)^((r-1)d) gives at odd (r-1)d, and over a common factor
    q = ChernPolynomial.from_numerators(2, 1, -9, {(0, 0): -3, (1, 0): -18, (0, 1): 6, (1, 1): 7})
    assert q == p
    # equal values compare equal however they are written
    written = {(0, 0): F(2, 6), (1, 0): F(4, 2), (0, 1): F(-2, 3), (2, 3): 1}
    assert ChernPolynomial(2, 1, written) == p
    over_bound = {(0, 0): 1, (1, 0): 6, (0, 1): -2, (0, 2): 1}
    assert ChernPolynomial.from_numerators(2, 1, 3, over_bound) == p
    assert ChernPolynomial.from_numerators(2, 1, 9, q.nums) != p
    for poly in (p, q, ChernPolynomial(3, 2, {}), ChernPolynomial.from_numerators(1, 0, -4, {})):
        assert poly.den > 0 and gcd(poly.den, *poly.nums.values()) == 1
        assert 0 not in poly.nums.values()
    assert ChernPolynomial.from_numerators(1, 0, -4, {}) == ChernPolynomial(1, 0, {(0,): 0})


def test_exp_linear_matches_factorials():
    e = exp_linear(F(2), 5)
    assert e.coeffs == (F(1), F(2), F(2), F(4, 3), F(2, 3))
    assert exp_linear(F(0), 3).coeffs == (F(1), F(0), F(0))


def test_exp_linear_is_group_homomorphism():
    order = 6
    a, b = F(3, 2), F(-5, 3)
    assert series_product(exp_linear(a, order), exp_linear(b, order)) == exp_linear(a + b, order)


@given(
    st.lists(st.one_of(st.just(F(0)), small_fractions), min_size=1, max_size=9).map(
        lambda cs: PowerSeries(tuple(cs))
    ),
    st.one_of(st.just(F(0)), small_fractions),
)
def test_exp_twist_matches_product_with_exp_linear(f, c):
    assert exp_twist(f, c) == series_product(f, exp_linear(c, f.order))


@given(
    st.lists(st.one_of(st.just(F(0)), small_fractions), min_size=1, max_size=9).map(
        lambda cs: PowerSeries(tuple(cs))
    ),
    st.one_of(st.just(F(0)), small_fractions, st.integers(-5, 5).map(F)),
)
def test_exp_twist_pair_is_both_twists(f, c):
    # one pass, split into the even and odd powers of c, gives both signs
    plus, minus = exp_twist_pair(f, c)
    assert (plus, minus) == (exp_twist(f, c), exp_twist(f, -c))
    assert plus == series_product(f, exp_linear(c, f.order))
    assert minus == series_product(f, exp_linear(-c, f.order))


def test_chern_polynomial_drops_overweight_terms():
    p = ChernPolynomial(2, 2, {(3, 0): F(1), (1, 1): F(2)})
    assert p.coefficient((3, 0)) == 0
    assert p.coefficient((1, 1)) == 2


def test_chern_polynomial_product_respects_bound():
    # (x1 + x2) * (x1 * x2) through the reference product: degree-3 output
    # exceeds the bound entirely
    prod = truncated_product(2, 2, {(1, 0): 1, (0, 1): 1}, {(1, 1): 1})
    assert prod.terms == {}


def test_chern_polynomial_components_and_symmetry():
    sym = ChernPolynomial(2, 3, {(1, 1): 1, (1, 0): 1, (0, 1): 1})
    assert sym.constant_term() == 0
    assert sym.linear_coefficient(0) == sym.linear_coefficient(1) == 1


def test_vandermonde_two_variables():
    v = vandermonde(2, 3)
    assert v.coefficient((1, 0)) == 1
    assert v.coefficient((0, 1)) == -1


def test_divide_by_vandermonde_roundtrip():
    bound = 4
    f = ChernPolynomial(3, bound, {(1, 0, 0): 1, (0, 0, 1): 2, (0, 0, 0): 5})
    q = divide_by_vandermonde(truncated_product(3, bound, vandermonde(3, bound).terms, f.terms))
    assert q.degree_bound == bound - 3
    for e, c in f.terms.items():
        if sum(e) <= q.degree_bound:
            assert q.coefficient(e) == c


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 3),
    st.integers(0, 2),
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12), min_size=10, max_size=10),
)
def test_divide_by_vandermonde_roundtrip_mixed_denominators(nvars, extra, coeffs):
    # f has coefficients over unrelated denominators, so the integer
    # division runs over their lcm and must return each one exactly
    bound = nvars * (nvars - 1) // 2 + extra
    monomials = [e for e in product(range(extra + 1), repeat=nvars) if sum(e) <= extra]
    f = ChernPolynomial(nvars, bound, dict(zip(monomials, coeffs)))
    q = divide_by_vandermonde(
        truncated_product(nvars, bound, vandermonde(nvars, bound).terms, f.terms)
    )
    assert q.degree_bound == extra
    assert q == ChernPolynomial(nvars, extra, f.terms)
    assert all(type(c) is Fraction for c in q.terms.values())


def test_divide_by_vandermonde_rejects_nondivisible():
    with pytest.raises(NonExactDivision):
        divide_by_vandermonde(ChernPolynomial(2, 3, {(0, 0): 1}))


def test_divide_by_vandermonde_rejects_a_remainder_after_a_pair_that_divides():
    # (x1 - x2) x1 x2 has the Vandermonde's degree 3 and divides by x1 - x2,
    # but its quotient x1 x2 leaves x3 x2 at x1 = x3
    f = ChernPolynomial(3, 3, {(2, 1, 0): 1, (1, 2, 0): -1})
    with pytest.raises(NonExactDivision, match=r"nonzero remainder dividing by \(x1 - x3\)"):
        divide_by_vandermonde(f)


@st.composite
def vandermonde_division_cases(draw):
    """A polynomial in 2-4 roots: the Vandermonde times f, plus h, over
    mixed denominators and at a degree bound from v - 1 to v + 2; it divides
    exactly when h = 0 and the bound reaches v."""
    nvars = draw(st.integers(2, 4))
    extra = draw(st.integers(-1, 2))
    bound = nvars * (nvars - 1) // 2 + extra
    monomials = [e for e in product(range(bound + 1), repeat=nvars) if sum(e) <= bound]
    quotients = [e for e in monomials if sum(e) <= extra]
    f = {}
    if quotients:
        f = draw(st.dictionaries(st.sampled_from(quotients), small_fractions, max_size=6))
    h = draw(st.one_of(
        st.just({}), st.dictionaries(st.sampled_from(monomials), small_fractions, max_size=3)
    ))
    total = truncated_product(nvars, bound, vandermonde(nvars, bound).terms, f).terms
    for e, c in h.items():
        total[e] = total.get(e, 0) + c
    return ChernPolynomial(nvars, bound, total)


@settings(max_examples=150, deadline=None)
@given(vandermonde_division_cases())
def test_divide_by_vandermonde_matches_fraction_reference(poly):
    # the integer division reads nums and den; the reference reads the
    # Fraction terms.  Same quotient, or the same refusal.
    try:
        expected = reference_divide_by_vandermonde(poly)
    except NonExactDivision as err:
        with pytest.raises(NonExactDivision) as got:
            divide_by_vandermonde(poly)
        assert str(got.value) == str(err)
    else:
        assert divide_by_vandermonde(poly) == expected


@st.composite
def linear_division_cases(draw):
    """(nvars, i, j, g, h): integer polynomials g and h in 2-4 variables and a
    root pair i != j, for f = (x_i - x_j) g + h, divisible exactly when h = 0."""
    nvars = draw(st.integers(2, 4))
    i, j = draw(st.permutations(range(nvars)))[:2]
    poly = st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * nvars), st.integers(-20, 20), max_size=6
    )
    return nvars, i, j, draw(poly), draw(poly)


@settings(max_examples=200, deadline=None)
@given(linear_division_cases())
def test_divide_linear_difference_is_division_with_remainder(case):
    nvars, i, j, g, h = case
    bound = 4 * nvars + 1
    difference = root_difference(nvars, i, j)
    f = truncated_product(nvars, bound, difference, g).terms
    for e, c in h.items():
        f[e] = f.get(e, 0) + c
    q, rem = _divide_linear_difference({e: int(c) for e, c in f.items() if c}, i, j)
    assert all(e[i] == 0 for e in rem)
    rebuilt = truncated_product(nvars, bound, difference, q).terms
    for e, c in rem.items():
        rebuilt[e] = rebuilt.get(e, 0) + c
    assert ChernPolynomial(nvars, bound, rebuilt) == ChernPolynomial(nvars, bound, f)
    if not any(h.values()):
        assert (q, rem) == ({e: c for e, c in g.items() if c}, {})


def test_entry_polynomial_keeps_fraction_coefficients():
    third = F(1, 3)
    p = EntryPolynomial({(0, 0, 0, 0, 0): third, (1, 0, 0, 0, 0): 2})
    assert p.terms[(0, 0, 0, 0, 0)] is third
    assert type(p.terms[(1, 0, 0, 0, 0)]) is Fraction and p.terms[(1, 0, 0, 0, 0)] == 2


def test_entry_polynomial_basics():
    a01 = EntryPolynomial.variable("a01")
    a11 = EntryPolynomial.variable("a11")
    p = a01 * a11 + a01.scale(2) + EntryPolynomial.const(F(7))
    values = {"a01": F(3), "a11": F(1, 3), "a02": F(0), "a12": F(0), "a03": F(0)}
    assert p.evaluate(values) == F(3) * F(1, 3) + 6 + 7
    assert p.degree_in("a01") == 1
    assert p.variables() == {"a01", "a11"}


def test_entry_polynomial_coefficients_in_reconstruct():
    a01 = EntryPolynomial.variable("a01")
    a12 = EntryPolynomial.variable("a12")
    p = a01 * a01 * a12 + a01.scale(3) + EntryPolynomial.const(F(2))
    coeffs = p.coefficients_in("a01")
    rebuilt = EntryPolynomial.zero()
    power = EntryPolynomial.const(F(1))
    for k, c in enumerate(coeffs):
        if k:
            power = power * a01
        rebuilt = rebuilt + c * power
    assert rebuilt == p


def test_entry_polynomial_substitute_constant():
    a02 = EntryPolynomial.variable("a02")
    a03 = EntryPolynomial.variable("a03")
    p = a02 * a03 + a03
    q = p.substitute("a03", EntryPolynomial.const(F(4)))
    assert q == a02.scale(4) + EntryPolynomial.const(F(4))


entry_values = st.fixed_dictionaries(
    {name: small_fractions for name in ("a01", "a11", "a02", "a12", "a03")}
)


@st.composite
def entry_polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        e = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(5))
        terms[e] = draw(small_fractions)
    return EntryPolynomial(terms)


def reference_evaluate(p, values):
    """Term by term in `Fraction`s."""
    total = F(0)
    for e, c in p.terms.items():
        prod = c
        for name, k in zip(ENTRY_VARS, e):
            prod *= F(values[name]) ** k
        total += prod
    return total


@given(entry_polys(), entry_values)
def test_entry_polynomial_evaluate_matches_fraction_reference(p, values):
    assert p.evaluate(values) == reference_evaluate(p, values)
    for const in (EntryPolynomial.zero(), EntryPolynomial.const(F(-7, 3))):
        assert const.evaluate(values) == reference_evaluate(const, values)


@given(entry_polys(), st.integers(1, 60), st.lists(st.integers(-50, 50), min_size=5, max_size=5))
def test_entry_polynomial_evaluate_over_one_denominator_matches_fraction_reference(p, den, nums):
    # at a point of integer numerators over one shared denominator, for a
    # fresh polynomial, a memoized relation and the zero polynomial
    values = {name: F(c, den) for name, c in zip(ENTRY_VARS, nums)}
    for poly in (p, one_point_relation(3, 5), EntryPolynomial.zero()):
        got = poly.evaluate(values)
        assert type(got) is Fraction and got == reference_evaluate(poly, values)


mixed_values = st.fixed_dictionaries(
    {name: st.one_of(st.integers(-10, 10), small_fractions) for name in ENTRY_VARS}
)


@given(entry_polys(), st.lists(mixed_values, min_size=2, max_size=4), st.integers(3, 6))
def test_entry_polynomial_evaluate_serves_every_point(p, points, d):
    # one polynomial evaluated at several points, a fresh one and a memoized
    # relation alike, at int and Fraction values mixed
    relation = one_point_relation(d - 2, d)
    assert one_point_relation(d - 2, d) is relation
    for values in points:
        assert p.evaluate(values) == reference_evaluate(p, values)
        assert relation.evaluate(values) == reference_evaluate(relation, values)
    # ==, + and * read the terms alone
    fresh = EntryPolynomial(dict(p.terms))
    assert fresh == p and p == fresh
    for other in (relation, EntryPolynomial.variable("a11")):
        assert p + other == fresh + other and other + p == other + fresh
        assert p * other == fresh * other and other * p == other * fresh
        assert (p * other).evaluate(points[0]) == reference_evaluate(fresh * other, points[0])


def test_entry_polynomial_evaluate_reads_the_terms_at_the_call():
    p = EntryPolynomial.variable("a11")
    values = {**dict.fromkeys(ENTRY_VARS, F(0)), "a11": F(1, 2)}
    assert p.evaluate(values) == F(1, 2)
    p.terms[(0, 1, 0, 0, 0)] = F(3)
    assert p.evaluate(values) == F(3, 2)


@pytest.mark.parametrize("bad", [True, 0.5, "1"])
def test_entry_polynomial_evaluate_refuses_inexact_values(bad):
    message = re.escape(f"must be an int or a Fraction, got {bad!r}")
    for name in ENTRY_VARS:
        values = {**dict.fromkeys(ENTRY_VARS, F(1)), name: bad}
        for p in (EntryPolynomial.zero(), EntryPolynomial.variable(name)):
            with pytest.raises(TypeError, match=f"^{name} {message}$"):
                p.evaluate(values)


@pytest.mark.parametrize("bad", [True, 0.1, "1"])
def test_entry_polynomial_refuses_inexact_coefficients(bad):
    message = re.escape(f"must be an int or a Fraction, got {bad!r}")
    with pytest.raises(TypeError, match=message):
        EntryPolynomial({(1, 0, 0, 0, 0): bad})
    with pytest.raises(TypeError, match=message):
        EntryPolynomial.const(bad)
    with pytest.raises(TypeError, match=message):
        EntryPolynomial.variable("a01").scale(bad)


@given(entry_polys(), entry_polys(), entry_values)
def test_entry_polynomial_evaluate_is_ring_map(p, q, values):
    assert (p + q).evaluate(values) == p.evaluate(values) + q.evaluate(values)
    assert (p * q).evaluate(values) == p.evaluate(values) * q.evaluate(values)


replacements = st.one_of(
    st.just(EntryPolynomial.zero()), small_fractions.map(EntryPolynomial.const), entry_polys()
)


@given(entry_polys(), st.sampled_from(ENTRY_VARS), replacements, entry_values)
def test_entry_polynomial_substitute_commutes_with_evaluate(p, name, replacement, values):
    # any entry replaced by zero, a constant, or a polynomial that may hold
    # the replaced entry itself
    substituted = p.substitute(name, replacement)
    assert substituted == reference_substitute(p, name, replacement)
    shifted = dict(values)
    shifted[name] = replacement.evaluate(values)
    assert substituted.evaluate(values) == p.evaluate(shifted)
    assert p.substitute(name, EntryPolynomial.variable(name)) == p


def test_entry_polynomial_coefficient_refuses_a_wrong_arity():
    p = EntryPolynomial.variable("a01")
    assert p.coefficient((1, 0, 0, 0, 0)) == 1
    for exps in ((1,), (), (1, 0, 0, 0, 0, 0)):
        with pytest.raises(ValueError, match="^exponent arity mismatch$"):
            p.coefficient(exps)


# -- the stored format, shared by every container ------------------------------


def five(values):
    """The values repeated or cut to the five slots of a matrix or period vector."""
    return (list(values) * 5)[:5]


# per container: (the constructor on a list of int and Fraction values, the
# same values from numerators over one den)
CONTAINERS = {
    "PowerSeries": (PowerSeries, PowerSeries.from_numerators),
    "ChernPolynomial": (
        lambda values: ChernPolynomial(1, len(values), {(k,): c for k, c in enumerate(values)}),
        lambda den, nums: ChernPolynomial.from_numerators(
            1, len(nums), den, {(k,): c for k, c in enumerate(nums)}
        ),
    ),
    "DifferentialOperator": (
        lambda values: DifferentialOperator({(0, i): c for i, c in enumerate(values)}),
        lambda den, nums: DifferentialOperator.from_layers(den, {0: list(nums)}),
    ),
    "CountingMatrix": (
        lambda values: CountingMatrix(1, *five(values)),
        lambda den, nums: CountingMatrix.from_numerators(1, den, five(nums)),
    ),
    "PeriodVector": (
        lambda values: PeriodVector(*five(values)),
        lambda den, nums: PeriodVector.from_numerators(den, five(nums)),
    ),
}


def hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("name", CONTAINERS)
def test_every_container_keeps_one_input_rule(name):
    build, from_numerators = CONTAINERS[name]
    # a float, a bool or a str is refused, and the message names it
    for bad in (0.5, 2.0, True, False, "1/3", "2"):
        with pytest.raises(TypeError, match=re.escape(f"got {bad!r}")):
            build([F(1, 2), bad, 3])
    # a zero denominator is refused when the container is built, not when read
    with pytest.raises(ZeroDivisionError):
        from_numerators(0, [1, 2, 3])
    # a negative denominator is the same value over a positive one
    positive, negative = from_numerators(6, [3, -4, 2]), from_numerators(-6, [-3, 4, -2])
    assert negative == positive == build([F(1, 2), F(-2, 3), F(1, 3)])
    assert negative.den == positive.den == 6
    if hashable(positive):
        assert hash(negative) == hash(positive)


exact_values = st.one_of(
    st.lists(
        st.one_of(st.integers(-(10**6), 10**6), st.fractions(max_denominator=10**4)),
        min_size=1,
        max_size=8,
    ),
    st.lists(st.sampled_from([0, F(0)]), min_size=1, max_size=4),
)


@given(exact_values, st.integers(-(10**4), 10**4).filter(bool))
def test_one_denominator_reads_back_in_lowest_terms(values, k):
    den, nums = _over_one_denominator(values, count())
    assert [F(c, den) for c in nums] == values
    assert den > 0 and gcd(den, *nums) == 1
    # the same values over any nonzero multiple of den, of either sign
    assert _lowest_terms(k * den, [k * c for c in nums]) == (den, nums)


@given(exact_values, st.sampled_from(sorted(CONTAINERS)))
def test_containers_store_the_helpers_form(values, name):
    build, from_numerators = CONTAINERS[name]
    built, read = build(values), from_numerators(*_over_one_denominator(values, count()))
    assert built == read
    if hashable(built):
        assert hash(built) == hash(read)
