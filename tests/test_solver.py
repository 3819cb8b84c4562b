import copy
import pickle
from dataclasses import make_dataclass
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import golden
from helpers import (
    TamperedEngine,
    reference_discriminant,
    reference_forward_periods,
    reference_recover_matrix,
)
from fanocount.grassmann import GrassmannianSpec, HSeriesPair, extract_h_pair, hv_iseries
from fanocount import solver
from fanocount.exactmath import ENTRY_VARS, EntryPolynomial, PowerSeries
from fanocount.relations import one_point_relation
from fanocount.lefschetz import CompleteIntersectionSpec, lefschetz_shift, quantum_lefschetz
from fanocount.solver import (
    AmbiguousSolution,
    ConsistencyCheckFailed,
    CountingMatrix,
    DegenerateLocus,
    NoRationalSolution,
    PeriodVector,
    _substituted_system,
    discriminant,
    forward_periods,
    invert_periods,
    rational_roots,
    recover_matrix,
)

F = Fraction

M10 = CountingMatrix(deg=10, **golden.entry_values(golden.MATRIX_V10))
M14 = CountingMatrix(deg=14, **golden.entry_values(golden.MATRIX_V14))


def variety_pair(r, n, degrees, d_max=6):
    spec = CompleteIntersectionSpec(GrassmannianSpec(r, n), degrees)
    ambient = extract_h_pair(hv_iseries(spec.ambient, d_max))
    return quantum_lefschetz(ambient, spec, lefschetz_shift(spec, ambient.c0))


def test_counting_matrix_rows_layout():
    assert M10.rows() == (
        (F(0), F(156), F(3600), F(33120)),
        (F(1), F(10), F(380), F(3600)),
        (F(0), F(1), F(10), F(156)),
        (F(0), F(0), F(1), F(0)),
    )
    assert M14.rows() == (
        (F(0), F(64), F(924), F(5936)),
        (F(1), F(5), F(140), F(924)),
        (F(0), F(1), F(5), F(64)),
        (F(0), F(0), F(1), F(0)),
    )


def test_recover_matrix_deg10():
    pair = variety_pair(2, 5, (1, 1, 2))
    assert recover_matrix(pair, 10) == M10


def test_recover_matrix_deg14():
    pair = variety_pair(2, 6, (1, 1, 1, 1, 1))
    assert recover_matrix(pair, 14) == M14


def test_recover_matrix_needs_five_coefficients():
    pair = variety_pair(2, 5, (1, 1, 2), d_max=3)
    with pytest.raises(ValueError):
        recover_matrix(pair, 10)


def bump(series, index, delta=F(1)):
    coeffs = list(series.coeffs)
    coeffs[index] += delta
    return PowerSeries(tuple(coeffs))


def test_recover_matrix_rejects_wrong_leading_terms():
    pair = variety_pair(2, 5, (1, 1, 2))
    with pytest.raises(ConsistencyCheckFailed):
        recover_matrix(HSeriesPair(bump(pair.c0, 0), pair.c1), 10)
    with pytest.raises(ConsistencyCheckFailed):
        recover_matrix(HSeriesPair(bump(pair.c0, 1), pair.c1), 10)


def test_recover_matrix_redundant_checks_catch_corruption():
    pair = variety_pair(2, 5, (1, 1, 2))
    # corrupting an inverted coefficient shifts an entry and breaks closure
    with pytest.raises(ConsistencyCheckFailed):
        recover_matrix(HSeriesPair(bump(pair.c0, 3), pair.c1), 10)
    # corrupting a redundant coefficient breaks the comparison directly
    with pytest.raises(ConsistencyCheckFailed):
        recover_matrix(HSeriesPair(pair.c0, bump(pair.c1, 4)), 10)


def test_forward_periods_golden():
    assert forward_periods(M10).as_tuple() == (
        F(39),
        F(220),
        F(6291, 4),
        F(8766),
        F(524413, 12),
    )
    assert forward_periods(M14).as_tuple() == (
        F(16),
        F(52),
        F(230),
        F(764),
        F(41291, 18),
    )


def test_periods_are_series_constants():
    pair = variety_pair(2, 6, (1, 1, 1, 1, 1))
    periods = forward_periods(recover_matrix(pair, 14))
    assert periods.as_tuple() == tuple(pair.c0[d] for d in range(2, 7))


def test_discriminant_values():
    assert discriminant(forward_periods(M10)) == -10182375
    assert discriminant(forward_periods(M14)) == -221200
    assert discriminant(PeriodVector(F(0), F(0), F(0), F(0), F(0))) == 0


def test_invert_periods_roundtrip_published():
    for m in (M10, M14):
        assert invert_periods(forward_periods(m), m.deg) == m


def test_invert_periods_plain_vector():
    ones = PeriodVector(F(1), F(1), F(1), F(1), F(1))
    assert discriminant(ones) == -58
    m = invert_periods(ones, 1)
    assert forward_periods(m) == ones
    assert m.a01 == 4


def test_invert_periods_degenerate_zero():
    with pytest.raises(DegenerateLocus):
        invert_periods(PeriodVector(F(0), F(0), F(0), F(0), F(0)), 1)


def test_invert_periods_degenerate_collision():
    # two distinct matrices share these periods; the locus detects that
    collision = PeriodVector(F(0), F(1), F(1), F(48, 55), F(4091, 4752))
    assert discriminant(collision) == 0
    with pytest.raises(DegenerateLocus):
        invert_periods(collision, 1)


def test_error_hierarchy():
    for exc in (
        ConsistencyCheckFailed,
        DegenerateLocus,
        NoRationalSolution,
        AmbiguousSolution,
    ):
        assert issubclass(exc, ArithmeticError)


small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=4)


@st.composite
def matrices(draw):
    return CountingMatrix(
        deg=1,
        a01=draw(small_fractions),
        a11=draw(small_fractions),
        a02=draw(small_fractions),
        a12=draw(small_fractions),
        a03=draw(small_fractions),
    )


@st.composite
def period_vectors(draw):
    return PeriodVector(*[draw(small_fractions) for _ in range(5)])


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_period_map_roundtrip(matrix):
    periods = forward_periods(matrix)
    assume(discriminant(periods) != 0)
    assert invert_periods(periods, 1) == matrix


def linear_parts(p):
    """(a12-free part, a12 coefficient) of a polynomial linear in a12."""
    coeffs = p.coefficients_in("a12")
    return coeffs[0], coeffs[1] if len(coeffs) > 1 else EntryPolynomial.zero()


def unipoly(ep, var):
    """Coefficient list of a polynomial that involves at most `var`."""
    assert ep.variables() <= {var}
    return [c.coefficient((0,) * len(ENTRY_VARS)) for c in ep.coefficients_in(var)]


@settings(max_examples=60, deadline=None)
@given(period_vectors())
def test_eliminant_is_linear_with_discriminant_slope(v):
    # eliminating a12 from the staged d_5 and d_6 relations derives a11
    # independently of the closed form that `invert_periods` reads
    assume(discriminant(v) != 0)
    p5, p6, _, _ = _substituted_system(v)
    q5, c5 = linear_parts(p5)
    q6, c6 = linear_parts(p6)
    u = unipoly(c5 * q6 - c6 * q5, "a11")
    assert len(u) == 2
    assert u[1] * -81000 == discriminant(v)
    assert -u[0] / u[1] == invert_periods(v, 1).a11


def closed_form_a11(v):
    """a11 = N(d2..d6) / (2 * discriminant), the rational inverse's first entry."""
    d2, d3, d4, d5, d6 = v.as_tuple()
    n = (
        280 * d2**3 * d3 - 1000 * d2**2 * d5 - 168 * d2 * d3 * d4
        + 729 * d3**3 - 3888 * d3 * d6 + 3000 * d4 * d5
    )
    return n / (2 * discriminant(v))


@st.composite
def period_vectors_with_zero_d3(draw):
    # d3 = 0 drops a12 from the d_5 relation, so a12 comes from d_6
    d2, d4, d5, d6 = (draw(small_fractions) for _ in range(4))
    return PeriodVector(d2, F(0), d4, d5, d6)


@settings(max_examples=80, deadline=None)
@given(st.one_of(period_vectors(), period_vectors_with_zero_d3()))
def test_every_vector_off_the_discriminant_inverts(v):
    assume(discriminant(v) != 0)
    m = invert_periods(v, 1)
    assert forward_periods(m) == v
    assert m.a01 == 4 * v.d2
    assert m.a11 == closed_form_a11(v)


def test_zero_d3_takes_a12_from_the_d6_relation():
    v = PeriodVector(F(1), F(0), F(1), F(1), F(1))
    assert discriminant(v) == 176
    _, c5 = linear_parts(_substituted_system(v)[0])
    assert c5.is_zero()
    m = invert_periods(v, 1)
    assert forward_periods(m) == v
    assert (m.a11, m.a12) == (F(125, 22), F(-54023, 1936))


def test_invert_periods_computes_the_discriminant_once(monkeypatch):
    calls = []
    computed = solver.discriminant
    monkeypatch.setattr(solver, "discriminant", lambda v: calls.append(v) or computed(v))
    v = forward_periods(M10)
    assert invert_periods(v, 10) == M10
    assert calls == [v]


def test_final_check_refuses_a_wrong_a11(monkeypatch):
    closed_form = solver._closed_form_a11
    monkeypatch.setattr(solver, "_closed_form_a11", lambda v, disc: closed_form(v, disc) + 1)
    with pytest.raises(NoRationalSolution, match="no rational matrix has periods"):
        invert_periods(forward_periods(M10), 10)


def test_final_check_refuses_a_wrong_back_substitution(monkeypatch):
    staged = solver._substituted_system

    def off_by_one(v):
        p5, p6, a02, a03 = staged(v)
        return p5, p6, a02, a03 + EntryPolynomial.const(1)

    monkeypatch.setattr(solver, "_substituted_system", off_by_one)
    with pytest.raises(NoRationalSolution, match="no rational matrix has periods"):
        invert_periods(forward_periods(M10), 10)


# -- the stored form and the strict constructors ---------------------------------


def dataclass_repr(name, **fields):
    """The repr that a plain frozen dataclass with these fields prints."""
    return repr(make_dataclass(name, list(fields), frozen=True)(**fields))


def test_matrix_and_periods_are_stored_in_lowest_terms():
    m = CountingMatrix(2, F(1, 2), 3, F(-4, 6), 0, F(10, 4))
    assert (m.deg, m.den, m.nums) == (2, 6, (3, 18, -4, 0, 15))
    # the same values over another denominator, of either sign
    for den, scale in ((12, 2), (-6, -1), (-30, -5)):
        other = CountingMatrix.from_numerators(2, den, [scale * c for c in m.nums])
        assert other == m and hash(other) == hash(m)
        assert (other.den, other.nums) == (m.den, m.nums)
    assert CountingMatrix(3, F(1, 2), 3, F(-4, 6), 0, F(10, 4)) != m
    assert CountingMatrix(2, F(1, 2), 3, F(-4, 6), 0, F(10, 4)) == m
    zero = CountingMatrix(1, 0, 0, 0, 0, 0)
    assert (zero.den, zero.nums) == (1, (0,) * 5)
    assert CountingMatrix.from_numerators(1, -7, [0] * 5) == zero

    v = PeriodVector(F(3, 4), -2, F(1, 6), 0, F(-5, 12))
    assert (v.den, v.nums) == (12, (9, -24, 2, 0, -5))
    w = PeriodVector.from_numerators(-36, [-27, 72, -6, 0, 15])
    assert w == v and hash(w) == hash(v)
    assert len({v, w, PeriodVector(F(3, 4), -2, F(1, 6), 0, F(-5, 12))}) == 1
    assert v != PeriodVector(F(3, 4), -2, F(1, 6), 0, F(5, 12))


def test_matrix_and_periods_read_as_fractions():
    m = CountingMatrix(deg=2, a01=F(1, 2), a11=3, a02=F(-4, 6), a12=0, a03=F(10, 4))
    values = (F(1, 2), F(3), F(-2, 3), F(0), F(5, 2))
    reads = (m.a01, m.a11, m.a02, m.a12, m.a03)
    assert reads == values and all(type(x) is Fraction for x in reads)
    assert m.entries() == dict(zip(ENTRY_VARS, values))
    assert all(type(x) is Fraction for x in m.entries().values())
    assert all(type(x) is Fraction for row in m.rows() for x in row)
    assert m.rows()[1] == (F(1), F(3), F(0), F(-2, 3))

    v = PeriodVector(d2=F(3, 4), d3=-2, d4=F(1, 6), d5=0, d6=F(-5, 12))
    reads = (v.d2, v.d3, v.d4, v.d5, v.d6)
    assert reads == v.as_tuple() == (F(3, 4), F(-2), F(1, 6), F(0), F(-5, 12))
    assert all(type(x) is Fraction for x in reads + v.as_tuple())


def test_matrix_and_periods_print_the_dataclass_repr():
    entries = dict(zip(ENTRY_VARS, (F(156), F(-10, 3), F(0), F(380, 7), F(-1))))
    assert repr(CountingMatrix(10, **entries)) == dataclass_repr("CountingMatrix", deg=10, **entries)
    assert repr(M10) == dataclass_repr("CountingMatrix", **golden.MATRIX_V10)
    periods = dict(zip(("d2", "d3", "d4", "d5", "d6"), (F(0),) * 5))
    assert repr(PeriodVector(**periods)) == dataclass_repr("PeriodVector", **periods) == (
        "PeriodVector(d2=Fraction(0, 1), d3=Fraction(0, 1), d4=Fraction(0, 1), "
        "d5=Fraction(0, 1), d6=Fraction(0, 1))"
    )
    periods = forward_periods(M10)
    assert repr(periods) == dataclass_repr(
        "PeriodVector", **dict(zip(("d2", "d3", "d4", "d5", "d6"), periods.as_tuple()))
    )
    assert str(periods) == repr(periods)


def test_matrix_and_periods_are_immutable_slotted_values():
    periods = forward_periods(M10)
    for value in (M10, periods):
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.den = 1
        with pytest.raises(AttributeError):
            value.extra = 1
        for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert copied == value and hash(copied) == hash(value)


@pytest.mark.parametrize("bad", [True, False, 0.5, 2.0, "1", "1/2"])
@pytest.mark.parametrize("slot", range(5))
def test_matrix_and_periods_refuse_inexact_entries(bad, slot):
    values = [F(1, 2), 1, 2, F(-3), 0]
    values[slot] = bad
    with pytest.raises(TypeError, match=f"{ENTRY_VARS[slot]} must be an int or a Fraction"):
        CountingMatrix(1, *values)
    with pytest.raises(TypeError, match=f"d{slot + 2} must be an int or a Fraction"):
        PeriodVector(*values)


def test_the_float_entries_that_used_to_pass_are_refused():
    with pytest.raises(TypeError, match="a01 must be an int or a Fraction, got 0.5"):
        CountingMatrix(1, 0.5, 1, 2, 3, True)
    with pytest.raises(TypeError, match="a03 must be an int or a Fraction, got True"):
        CountingMatrix(1, F(1, 2), 1, 2, 3, True)
    with pytest.raises(TypeError, match="d2 must be an int or a Fraction, got 0.1"):
        discriminant(PeriodVector(0.1, 0, 0, 0, 0))


@pytest.mark.parametrize("deg", [True, 1.0, "1", F(1), None])
def test_matrix_refuses_a_degree_that_is_not_an_int(deg):
    with pytest.raises(TypeError, match="deg must be an int >= 1"):
        CountingMatrix(deg, 1, 2, 3, 4, 5)
    with pytest.raises(TypeError, match="deg must be an int >= 1"):
        CountingMatrix.from_numerators(deg, 1, [1, 2, 3, 4, 5])


@pytest.mark.parametrize("deg", [0, -1, -10])
def test_matrix_refuses_a_degree_below_one(deg):
    with pytest.raises(ValueError, match=f"deg must be an int >= 1, got {deg}"):
        CountingMatrix(deg, 1, 2, 3, 4, 5)
    with pytest.raises(ValueError, match=f"deg must be an int >= 1, got {deg}"):
        invert_periods(forward_periods(M10), deg)


# -- the solver stage against its `Fraction` definitions ------------------------


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


# zeros, negatives, integers and fractions
entries = st.one_of(
    st.just(F(0)),
    st.integers(-40, 40),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)
rational_matrices = st.builds(
    CountingMatrix, st.integers(1, 30), entries, entries, entries, entries, entries
)


@settings(max_examples=150, deadline=None)
@given(rational_matrices)
def test_forward_periods_and_discriminant_match_fraction_reference(matrix):
    periods = forward_periods(matrix)
    assert periods == reference_forward_periods(matrix)
    assert periods.as_tuple() == reference_forward_periods(matrix).as_tuple()
    for v in (periods, PeriodVector(*matrix.entries().values())):
        disc = discriminant(v)
        assert type(disc) is Fraction and disc == reference_discriminant(v)


def engine_series(matrix, order):
    """The constant and H^1 coefficients through q^(order-1) of the I-series
    the matrix determines, from the engine's relations, as two lists."""
    values = matrix.entries()
    c0 = [F(1), F(0)] + [one_point_relation(d - 2, d).evaluate(values) for d in range(2, order)]
    c1 = [F(0)] + [one_point_relation(d - 1, d).evaluate(values) for d in range(1, order)]
    return c0, c1


@st.composite
def series_pairs(draw):
    """The series pair a random matrix determines through q^(order-1), or
    one with a corrupted coefficient: c1[3] or c1[4] (the redundant
    checks), c0[0], c1[0] or c0[1] (the leading terms), or an entry read
    off the series (the triangular part)."""
    matrix = draw(rational_matrices)
    order = draw(st.sampled_from([5, 6, 7, 8, 4]))
    c0, c1 = engine_series(matrix, order)
    corruptions = st.sampled_from(["c1[3]", "c1[4]", "c0[0]", "c1[0]", "c0[1]", "c0[3]", "c1[2]"])
    which = draw(st.one_of(st.none(), corruptions))
    if which is not None:
        series = c0 if which.startswith("c0") else c1
        index = int(which[3])
        if index < order:
            series[index] += draw(entries.filter(bool))
    return HSeriesPair(PowerSeries(c0[:order]), PowerSeries(c1[:order])), matrix.deg


@settings(max_examples=200, deadline=None)
@given(series_pairs())
def test_recover_matrix_matches_fraction_reference(case):
    pair, deg = case
    assert outcome(recover_matrix, pair, deg) == outcome(reference_recover_matrix, pair, deg)


def test_recover_matrix_prints_the_fractions_it_compared():
    pair = variety_pair(2, 5, (1, 1, 2))
    corrupted = HSeriesPair(pair.c0, bump(pair.c1, 3, F(-1, 7)))
    got = outcome(recover_matrix, corrupted, 10)
    assert got == outcome(reference_recover_matrix, corrupted, 10) == (
        ConsistencyCheckFailed,
        "redundant H^1 relation at q^3: series gives 22391/63, entries give 3200/9",
    )


# the relations the solver states in closed form: d_2..d_6, then the H^1
# coefficients at q^3 and q^4 that `recover_matrix` checks
STATED = [(d - 2, d) for d in range(2, 7)] + [(2, 3), (3, 4)]


def closed_forms(matrix):
    """The values of the STATED relations at the matrix, from the solver."""
    return forward_periods(matrix).as_tuple() + tuple(F(*x) for x in solver._redundant_h1(matrix))


def engine_values(matrix, relation=one_point_relation):
    """The values of the STATED relations at the matrix, from the engine."""
    values = matrix.entries()
    return tuple(relation(k, d).evaluate(values) for k, d in STATED)


# numerators up to 10^6 over denominators up to 10^4
tall_entries = st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**4))
tall_matrices = st.builds(
    CountingMatrix, st.integers(1, 10**6), tall_entries, tall_entries, tall_entries,
    tall_entries, tall_entries,
)


@settings(max_examples=150, deadline=None)
@given(tall_matrices, st.sampled_from([None, 3, 4]), tall_entries.filter(bool))
def test_closed_forms_match_the_engine_on_tall_matrices(matrix, bumped, bump):
    # the period map and the H^1 checks are written out as integer
    # polynomials; the engine's relations, evaluated in `Fraction`s, are
    # their reference, through `forward_periods` and through `recover_matrix`
    # on the series the engine gives, intact or with c1[3] or c1[4] moved
    assert forward_periods(matrix) == reference_forward_periods(matrix)
    assert closed_forms(matrix) == engine_values(matrix)
    c0, c1 = engine_series(matrix, 5)
    if bumped is not None:
        c1[bumped] += bump
    pair = HSeriesPair(PowerSeries(c0), PowerSeries(c1))
    recovered = outcome(recover_matrix, pair, matrix.deg)
    assert recovered == outcome(reference_recover_matrix, pair, matrix.deg)
    assert (recovered == matrix) == (bumped is None)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(rational_matrices, min_size=2, max_size=2),
    st.sampled_from([(0, 2), (2, 3), (2, 2), (3, 3), (1, 1), (0, 1)]),
    st.integers(-3, 7),
)
def test_a_tampered_engine_moves_off_the_closed_forms(drawn, where, value):
    # negative control: the closed forms read no engine, so a tampered entry
    # that changes any relation they state must make the engine's reference
    # disagree with them on some matrix (V10 alone catches every tamper
    # sampled here but a11 = 5, which V14 carries, so it catches that one),
    # and a tamper that changes none must leave them equal.  The staged
    # inverse does read the engine: under the tamper it refuses, or the
    # matrix it returns maps forward to the periods exactly.
    relation = TamperedEngine(where, value).one_point_relation
    changed = any(relation(k, d) != one_point_relation(k, d) for k, d in STATED)
    matrices = [M10, M14, *drawn]
    assert any(closed_forms(m) != engine_values(m, relation) for m in matrices) == changed
    with mock.patch.object(solver, "one_point_relation", relation):
        for m in matrices:
            periods = forward_periods(m)
            got = outcome(invert_periods, periods, m.deg)
            if isinstance(got, CountingMatrix):
                assert forward_periods(got) == periods
            else:
                assert issubclass(got[0], ArithmeticError), got


def test_rational_roots_simple_cubic():
    assert rational_roots([F(-6), F(11), F(-6), F(1)]) == [1, 2, 3]


def test_rational_roots_with_multiplicity():
    assert rational_roots([F(0), F(0), F(2), F(-3), F(1)]) == [0, 1, 2]
    assert rational_roots([F(1), F(2), F(1)]) == [-1]


def test_rational_roots_none():
    assert rational_roots([F(2), F(0), F(1)]) == []
    assert rational_roots([F(5)]) == []


def test_rational_roots_noninteger():
    assert rational_roots([F(-15), F(1), F(6)]) == [F(-5, 3), F(3, 2)]


def test_rational_roots_large_height():
    r = F(1234567891, 9876543211)
    # (x - r)(x - 1) expanded
    poly = [r, -(r + 1), F(1)]
    assert rational_roots(poly) == [r, 1]


def test_rational_roots_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        rational_roots([F(0), F(0)])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=3), min_size=1, max_size=4))
def test_rational_roots_finds_planted_roots(roots):
    poly = [F(1)]
    for r in roots:
        poly = [F(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= r * poly[i + 1]
    found = rational_roots(poly)
    assert found == sorted(set(roots))
