import random
from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import golden
from helpers import (
    constant_terms,
    layer,
    reference_eisenstein_weight2,
    reference_factorial_transform,
    reference_first_mismatch,
    sigma1,
    weyl_multiply,
)
from fanocount import d3
from fanocount.exactmath import ENTRY_VARS, PowerSeries
from fanocount.d3 import (
    DifferentialOperator,
    InvalidLevel,
    NotLeftDivisible,
    ObstructedRecursion,
    apply_operator,
    build_pencil,
    eisenstein_e2,
    eisenstein_weight2,
    factorial_transform,
    first_mismatch,
    frobenius_solve,
    left_divide_by_D,
    modularity_report,
    pencil_operator,
    right_determinant,
)
from fanocount.pipeline import CATALOG, run_pipeline
from fanocount.solver import CountingMatrix, forward_periods

F = Fraction
D = DifferentialOperator({(0, 1): F(1)})
T = DifferentialOperator({(1, 0): F(1)})
D3 = DifferentialOperator({(0, 3): F(1)})

M10 = CountingMatrix(deg=10, **golden.entry_values(golden.MATRIX_V10))
M14 = CountingMatrix(deg=14, **golden.entry_values(golden.MATRIX_V14))


def combination(*pairs):
    """sum c * op over (c, op) pairs, term by term."""
    out = {}
    for c, op in pairs:
        for e, v in op.terms.items():
            out[e] = out.get(e, F(0)) + c * v
    return DifferentialOperator(out)


def t_degree(op):
    return max((b for b, _ in op.terms), default=0)


def reference_right_determinant(m):
    """Unmemoized expansion along the rightmost column, minors on the left."""
    size = len(m)
    if size == 1:
        return m[0][0]
    last = size - 1
    terms = []
    for row in range(size):
        minor = tuple(tuple(m[r][:last]) for r in range(size) if r != row)
        term = weyl_multiply(reference_right_determinant(minor), m[row][last])
        terms.append((-1 if (row + last) % 2 else 1, term))
    return combination(*terms)


def reference_left_divide_by_D(op):
    """Peel each t-layer from the highest D power down, in `Fraction`s."""
    out = {}
    for b in range(t_degree(op) + 1):
        coeffs = layer(op, b)
        if not coeffs:
            continue
        quotient = [F(0)] * len(coeffs)
        carry = F(0)
        for i in range(len(coeffs) - 1, 0, -1):
            q = coeffs[i] - b * carry
            quotient[i - 1] = q
            carry = q
        remainder = coeffs[0] - b * carry
        if remainder != 0:
            raise NotLeftDivisible(
                f"remainder {remainder}*t^{b} is not left-divisible by D"
            )
        for i, c in enumerate(quotient):
            if c != 0:
                out[(b, i)] = c
    return DifferentialOperator(out)


def reference_frobenius_solve(op, order):
    """P(m) c_m = -sum_b R_b(m - b) c_(m - b), one `Fraction` division per m."""
    if order < 1:
        raise ValueError("order must be positive")
    layers = {b: layer(op, b) for b in range(t_degree(op) + 1)}

    def layer_at(b, s):
        acc = F(0)
        for c in reversed(layers.get(b, [])):
            acc = acc * s + c
        return acc

    if layer_at(0, 0) != 0:
        raise ObstructedRecursion("the indicial polynomial does not vanish at 0")
    coeffs = [F(1)]
    for m in range(1, order):
        p = layer_at(0, m)
        if p == 0:
            raise ObstructedRecursion(f"the indicial polynomial vanishes at {m}")
        rhs = F(0)
        for b in range(1, min(m, t_degree(op)) + 1):
            rhs -= layer_at(b, m - b) * coeffs[m - b]
        coeffs.append(rhs / p)
    return PowerSeries(tuple(coeffs))


def outcome(f, *args):
    """The result of f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def integer_operator(layers):
    """The operator sum_b t^b P_b(D) from integer D-polynomials, lowest power first."""
    return DifferentialOperator(
        {(b, i): F(c) for b, poly in layers.items() for i, c in enumerate(poly)}
    )


def poly_product(*factors):
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] += x * y
        out = prod
    return out


def op_power(op, m):
    out = DifferentialOperator({(0, 0): F(1)})
    for _ in range(m):
        out = weyl_multiply(out, op)
    return out


def test_operator_validation():
    with pytest.raises(ValueError):
        DifferentialOperator({(-1, 0): F(1)})
    with pytest.raises(ValueError):
        DifferentialOperator({(0, -2): F(1)})
    assert DifferentialOperator({(1, 1): F(0)}).terms == {}
    c = F(2, 3)
    op = DifferentialOperator({(0, 0): c, (1, 0): 4})
    assert type(op.terms[(1, 0)]) is Fraction and op.terms[(1, 0)] == 4


def reference_str(terms):
    """The operator string written from {(b, i): Fraction}, sorted by (b, i)."""
    parts = []
    for (b, i), c in sorted((e, c) for e, c in terms.items() if c):
        t = "" if b == 0 else "t" if b == 1 else f"t^{b}"
        d = "" if i == 0 else "D" if i == 1 else f"D^{i}"
        word = "*".join(x for x in (t, d) if x)
        if not word:
            parts.append(str(c))
        else:
            parts.append(word if c == 1 else f"-{word}" if c == -1 else f"{c}*{word}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


term_dicts = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.one_of(st.integers(-6, 6), st.fractions(min_value=-9, max_value=9, max_denominator=12)),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(term_dicts, st.integers(2, 30))
def test_operator_layers_are_in_lowest_terms(terms, scale):
    op = DifferentialOperator(terms)
    assert op.terms == {e: F(c) for e, c in terms.items() if c}
    assert DifferentialOperator(op.terms) == op
    assert op.den >= 1
    assert gcd(op.den, *(c for poly in op.layers.values() for c in poly)) == 1
    assert all(poly and poly[-1] != 0 for poly in op.layers.values())
    # the same operator over another denominator, with a zero layer and a
    # trailing zero, reduces to the same stored form
    padded = {b: [scale * c for c in poly] + [0] for b, poly in op.layers.items()}
    padded[5] = [0, 0]
    assert DifferentialOperator.from_layers(scale * op.den, padded) == op
    assert str(op) == reference_str(terms)


def test_weyl_commutation_rule():
    # D t = t D + t
    assert weyl_multiply(D, T) == DifferentialOperator({(1, 1): F(1), (1, 0): F(1)})


def test_weyl_power_rule():
    # D^2 t^3 = t^3 (D + 3)^2
    lhs = weyl_multiply(DifferentialOperator({(0, 2): F(1)}), DifferentialOperator({(3, 0): F(1)}))
    assert lhs == DifferentialOperator({(3, 2): F(1), (3, 1): F(6), (3, 0): F(9)})


def test_dt_power_closed_form():
    # (Dt)^m = t^m (D+1)...(D+m): the powers build_pencil multiplies out
    for m in range(7):
        rising = poly_product(*([k, 1] for k in range(1, m + 1)))
        expected = DifferentialOperator({(m, i): F(c) for i, c in enumerate(rising)})
        assert op_power(weyl_multiply(D, T), m) == expected


def test_operator_str():
    op = DifferentialOperator({(0, 3): F(1), (1, 0): F(-4), (1, 1): F(-21)})
    assert str(op) == "D^3 - 4*t - 21*t*D"


small_ops = st.builds(
    DifferentialOperator,
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.fractions(min_value=-5, max_value=5, max_denominator=3),
        max_size=3,
    ),
)


@settings(max_examples=60, deadline=None)
@given(small_ops, small_ops, small_ops)
def test_weyl_multiplication_is_associative_and_distributive(a, b, c):
    assert weyl_multiply(weyl_multiply(a, b), c) == weyl_multiply(a, weyl_multiply(b, c))
    assert weyl_multiply(a, combination((1, b), (1, c))) == combination(
        (1, weyl_multiply(a, b)), (1, weyl_multiply(a, c))
    )


rational_ops = st.builds(
    DifferentialOperator,
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-5, max_value=5, max_denominator=5),
        max_size=5,
    ),
)


nonscalar_ops = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    min_size=1,
    max_size=3,
).filter(lambda d: any(e != (0, 0) and c != 0 for e, c in d.items())).map(DifferentialOperator)


@st.composite
def operator_matrices(draw):
    size = draw(st.integers(3, 4))
    hessenberg = draw(st.booleans())
    return tuple(
        tuple(
            DifferentialOperator() if hessenberg and k > l + 1 else draw(nonscalar_ops)
            for l in range(size)
        )
        for k in range(size)
    )


# Shrinking 4x4 operator matrices through the Fraction reference takes
# minutes; a failing example is reported unshrunk instead.
@settings(
    max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
)
@given(operator_matrices())
def test_right_determinant_matches_unmemoized_reference(m):
    assert right_determinant(m) == reference_right_determinant(m)


def test_right_determinant_two_by_two():
    # det((D, -3 Dt), (-1, D)) = D*D - 3 Dt, with Dt = t D + t
    pencil = (
        (D, DifferentialOperator({(1, 1): F(-3), (1, 0): F(-3)})),
        (DifferentialOperator({(0, 0): F(-1)}), D),
    )
    expected = DifferentialOperator({(0, 2): F(1), (1, 1): F(-3), (1, 0): F(-3)})
    assert right_determinant(pencil) == expected


def test_right_determinant_rejects_nonsquare():
    with pytest.raises(ValueError):
        right_determinant(((D, D),))


def classical_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = F(0)
    for j, pivot in enumerate(rows[0]):
        minor = tuple(r[:j] + r[j + 1 :] for r in rows[1:])
        total += (-1) ** j * pivot * classical_det(minor)
    return total


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_right_determinant_matches_commutative_case(rows):
    pencil = tuple(
        tuple(DifferentialOperator({(0, 0): c}) for c in row) for row in rows
    )
    expected = classical_det(tuple(tuple(row) for row in rows))
    assert right_determinant(pencil) == DifferentialOperator({(0, 0): expected})


def test_pencil_layout():
    pencil = build_pencil(M10, F(0))
    assert pencil[0][0] == D
    assert pencil[1][0] == DifferentialOperator({(0, 0): F(-1)})
    assert pencil[2][0] == DifferentialOperator()
    assert pencil[0][1] == combination((F(-156), op_power(weyl_multiply(D, T), 2)))
    assert pencil[3][3] == D


def test_pencil_shift_sits_on_diagonal():
    lam = F(7)
    plain = build_pencil(M10, F(0))
    shifted = build_pencil(M10, lam)
    for k in range(4):
        for l in range(4):
            if k == l:
                assert shifted[k][l] == combination((1, plain[k][l]), (-lam, weyl_multiply(D, T)))
            else:
                assert shifted[k][l] == plain[k][l]


@st.composite
def left_divisible_candidates(draw):
    """A random operator, D*L for a random L, or D*L plus a random operator."""
    kind = draw(st.sampled_from(("random", "divisible", "perturbed")))
    op = draw(rational_ops)
    if kind == "random":
        return op
    product = weyl_multiply(D, op)
    return product if kind == "divisible" else combination((1, product), (1, draw(small_ops)))


@settings(max_examples=150, deadline=None)
@given(left_divisible_candidates())
def test_left_divide_matches_fraction_reference(op):
    assert outcome(left_divide_by_D, op) == outcome(reference_left_divide_by_D, op)


d_polys = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=5), min_size=1, max_size=4
)


@st.composite
def recursion_operators(draw):
    """A random operator, or c * D^2 * (D - k) - sum_b t^b P_b(D) over b = 1..3.

    k = 0 gives D^3, whose recursion always runs; k > 0 obstructs it at k.
    """
    if draw(st.booleans()):
        return draw(rational_ops)
    k = draw(st.integers(0, 6))
    scale = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
    terms = {(0, 3): scale, (0, 2): -k * scale}
    for b in draw(st.sets(st.integers(1, 3), min_size=1)):
        for i, c in enumerate(draw(d_polys)):
            terms[(b, i)] = -c
    return DifferentialOperator(terms)


@settings(max_examples=150, deadline=None)
@given(recursion_operators(), st.integers(1, 9))
def test_frobenius_solve_matches_fraction_reference(op, order):
    assert outcome(frobenius_solve, op, order) == outcome(reference_frobenius_solve, op, order)


@pytest.mark.parametrize(
    "layer,term",
    [
        (
            [4 * c for c in poly_product([1, 4], [2, 4], [3, 4])],
            lambda d: F(factorial(4 * d), factorial(d) ** 4),
        ),
        (
            [6 * c for c in poly_product([1, 2], [1, 3], [2, 3])],
            lambda d: F(factorial(2 * d) * factorial(3 * d), factorial(d) ** 5),
        ),
        (
            [8 * c for c in poly_product([1, 2], [1, 2], [1, 2])],
            lambda d: F(factorial(2 * d) ** 3, factorial(d) ** 6),
        ),
    ],
    ids=["V4", "V6", "V8"],
)
def test_frobenius_matches_hypergeometric_closed_forms(layer, term):
    # D^3 - t R(D) for the index-1 quartic, (2,3) and (2,2,2) threefolds,
    # whose regularized quantum periods are known in closed form
    op = integer_operator({0: [0, 0, 0, 1], 1: [-c for c in layer]})
    assert frobenius_solve(op, 13).coeffs == tuple(term(d) for d in range(13))


def apery_v10(n):
    """C(2n,n) times the Apery numbers for zeta(2) (Beukers 1987)."""
    return comb(2 * n, n) * sum(comb(n, k) ** 2 * comb(n + k, k) for k in range(n + 1))


def cooper_v14(n):
    """Cooper's level-7 sporadic sequence (Ramanujan J. 2012)."""
    return sum(comb(n, k) ** 2 * comb(n + k, k) * comb(2 * k, n) for k in range(n + 1))


def untwisted_series(terms, alpha, order):
    """exp(-alpha q) * sum_n terms[n]/n! q^n through q^(order-1)."""
    return tuple(
        sum(
            F(terms[j], factorial(j)) * (-alpha) ** (m - j) / factorial(m - j)
            for j in range(m + 1)
        )
        for m in range(order)
    )


@pytest.mark.parametrize(
    "matrix,alpha,sequence,series",
    [
        (M10, golden.ALPHA["V10"], apery_v10, golden.SERIES_V10_C0),
        (M14, golden.ALPHA["V14"], cooper_v14, golden.SERIES_V14_C0),
    ],
    ids=["V10", "V14"],
)
def test_golden_series_follow_from_apery_like_sequences(matrix, alpha, sequence, series):
    # the sequences are closed forms that share nothing with the pipeline
    terms = [sequence(n) for n in range(13)]
    assert untwisted_series(terms, alpha, 7) == series
    assert frobenius_solve(pencil_operator(matrix, alpha), 13).coeffs == tuple(terms)


def test_flagged_v14_constant_is_52():
    # verify flags this golden value: a published table prints 2 at q^3
    terms = [cooper_v14(n) for n in range(4)]
    assert untwisted_series(terms, golden.ALPHA["V14"], 4)[3] == 52


def test_left_divide_roundtrip():
    x = DifferentialOperator({(1, 2): F(1), (1, 1): F(5), (0, 0): F(2)})
    assert left_divide_by_D(weyl_multiply(D, x)) == x


def test_left_divide_rejects_bare_t():
    with pytest.raises(NotLeftDivisible):
        left_divide_by_D(T)


def test_apply_operator_euler_scales_exponents():
    s = PowerSeries((F(1), F(1), F(1), F(1)))
    assert apply_operator(D, s).coeffs == (F(0), F(1), F(2), F(3))
    assert apply_operator(T, s).coeffs == (F(0), F(1), F(1), F(1))


def test_frobenius_trivial_and_geometric():
    assert frobenius_solve(D3, 4).coeffs == (F(1), F(0), F(0), F(0))
    # D^3 - t (D + 1)^3
    geometric = frobenius_solve(integer_operator({0: [0, 0, 0, 1], 1: [-1, -3, -3, -1]}), 5)
    assert geometric.coeffs == (F(1),) * 5


def test_frobenius_obstructions():
    with pytest.raises(ObstructedRecursion):
        frobenius_solve(integer_operator({0: [-1, 0, 0, 1]}), 5)
    with pytest.raises(ObstructedRecursion):
        frobenius_solve(integer_operator({0: [0, 0, -1, 1]}), 5)
    with pytest.raises(ValueError):
        frobenius_solve(D3, 0)


@pytest.mark.parametrize(
    "matrix,alpha",
    [(M10, golden.ALPHA["V10"]), (M14, golden.ALPHA["V14"])],
    ids=["deg10", "deg14"],
)
def test_operator_structure(matrix, alpha):
    for lam in (F(0), alpha, -alpha):
        det = right_determinant(build_pencil(matrix, lam))
        assert det.order == 4
        assert layer(det, 0) == [F(0)] * 4 + [F(1)]
        reduced = left_divide_by_D(det)
        assert reduced.order == 3
        assert layer(reduced, 0) == [F(0)] * 3 + [F(1)]
        solution = frobenius_solve(reduced, 8)
        assert apply_operator(reduced, solution).coeffs == (F(0),) * 8


def test_shifted_operators_in_factored_form():
    # lam = alpha, with every t-layer written as an integer D-polynomial
    v10 = integer_operator({
        0: [0, 0, 0, 1],
        1: [-2 * c for c in poly_product([1, 2], [3, 11, 11])],
        2: [-4 * c for c in poly_product([1, 1], [1, 2], [3, 2])],
    })
    v14 = integer_operator({
        0: [0, 0, 0, 1],
        1: [-c for c in poly_product([1, 2], [4, 13, 13])],
        2: [-3 * c for c in poly_product([1, 1], [2, 3], [4, 3])],
    })
    assert pencil_operator(M10, golden.ALPHA["V10"]) == v10
    assert pencil_operator(M14, golden.ALPHA["V14"]) == v14


def reference_pencil_operator(matrix, lam):
    return left_divide_by_D(right_determinant(build_pencil(matrix, lam)))


# zeros, integers and fractions with numerators up to 10^12 over denominators up to 10^3
bounded_rationals = st.one_of(
    st.just(F(0)),
    st.integers(-(10**12), 10**12).map(F),
    st.builds(F, st.integers(-(10**12), 10**12), st.integers(1, 10**3)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.fixed_dictionaries({name: bounded_rationals for name in ENTRY_VARS}),
    st.one_of(bounded_rationals, st.integers(-50, 50)),
)
def test_closed_form_operator_matches_pencil_chain(entries, lam):
    matrix = CountingMatrix(deg=10, **entries)
    assert pencil_operator(matrix, lam) == reference_pencil_operator(matrix, lam)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_closed_form_operator_matches_pencil_chain_on_catalog(name):
    run = run_pipeline(CATALOG[name])
    for lam in dict.fromkeys((F(0), run.alpha, -run.alpha, F(1, 2), F(-7, 3))):
        assert pencil_operator(run.matrix, lam) == reference_pencil_operator(run.matrix, lam)


def commutative_multiply(a, b):
    """The product with D*t = t*D, which forgets the Weyl rule."""
    out = {}
    for (b1, i1), c1 in a.terms.items():
        for (b2, i2), c2 in b.terms.items():
            out[(b1 + b2, i1 + i2)] = out.get((b1 + b2, i1 + i2), F(0)) + c1 * c2
    return DifferentialOperator(out)


def test_pencil_chain_needs_the_weyl_rule(monkeypatch):
    # Negative control for the reference: with a commutative product the
    # chain no longer reproduces the closed form.  Column order is no
    # control: on the pencil, expanding with each minor on the right of its
    # entry gives the same operator as with it on the left.
    alpha = golden.ALPHA["V10"]
    assert reference_pencil_operator(M10, alpha) == pencil_operator(M10, alpha)
    monkeypatch.setattr(d3, "_multiply", commutative_multiply)
    with pytest.raises(NotLeftDivisible):
        reference_pencil_operator(M10, alpha)


def test_frobenius_solution_is_factorial_transform_of_series():
    import math

    reduced = left_divide_by_D(right_determinant(build_pencil(M10, F(0))))
    solution = frobenius_solve(reduced, 7)
    expected = tuple(
        F(math.factorial(m)) * c for m, c in enumerate(golden.SERIES_V10_C0)
    )
    assert solution.coeffs == expected


def test_period_map_is_the_operator_solution_over_factorials():
    # forward_periods(M) is y_m / m! for m = 2..6, y the Frobenius solution
    # of the shift-0 operator, read off the operator's closed form with no
    # step of the relation engine
    matrices = [run_pipeline(CATALOG[name]).matrix for name in ("V10", "V14")]
    rng = random.Random(20261020)
    for _ in range(300):
        entries = {name: F(rng.randint(-50, 50), rng.randint(1, 6)) for name in ENTRY_VARS}
        matrices.append(CountingMatrix(deg=rng.randint(1, 30), **entries))
    for matrix in matrices:
        y = frobenius_solve(pencil_operator(matrix, 0), 7)
        periods = forward_periods(matrix).as_tuple()
        assert periods == tuple(y[m] / factorial(m) for m in range(2, 7))


def test_eisenstein_e2_expansion():
    assert eisenstein_e2(5).coeffs == (F(1), F(-24), F(-72), F(-96), F(-168))


def test_eisenstein_e2_sieve_matches_trial_division():
    # the divisor sieve against sigma_1 by trial division, through q^60
    for order in (1, 2, 61):
        expected = (1,) + tuple(-24 * sigma1(m) for m in range(1, order))
        assert eisenstein_e2(order).coeffs == expected


def test_eisenstein_weight2_expansions():
    assert eisenstein_weight2(5, 9).coeffs == (
        F(1), F(6), F(18), F(24), F(42), F(6), F(72), F(48), F(90),
    )
    assert eisenstein_weight2(7, 9).coeffs == (
        F(1), F(4), F(12), F(16), F(28), F(24), F(48), F(4), F(60),
    )


def test_eisenstein_weight2_divisor_sum_oracle():
    # [q^m] = 24 (sigma_1(m) - N sigma_1(m/N)) / (N - 1), second term
    # present only when N divides m
    for level in (5, 7):
        series = eisenstein_weight2(level, 9)
        for m in range(1, 9):
            s1 = sum(d for d in range(1, m + 1) if m % d == 0)
            s2 = sum(d for d in range(1, m // level + 1) if m % (level * d) == 0)
            expected = F(24 * (s1 - level * s2), level - 1)
            assert series[m] == expected


@given(st.integers(2, 40), st.integers(1, 30))
def test_eisenstein_weight2_matches_fraction_reference(level, order):
    series = eisenstein_weight2(level, order)
    assert series == reference_eisenstein_weight2(level, order)
    assert series[0] == 1 and (level - 1) % series.den == 0


series_values = st.lists(
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4), min_size=1, max_size=12
)


@given(series_values)
def test_factorial_transform_matches_fraction_reference(values):
    series = PowerSeries(values)
    assert factorial_transform(series) == reference_factorial_transform(series)


@given(series_values, st.integers(0, 11), series_values)
def test_first_mismatch_matches_fraction_reference(values, keep, tail):
    # b shares a's first `keep` values, then continues with values of its own
    a, b = PowerSeries(values), PowerSeries(values[:keep] + tail)
    assert first_mismatch(a, b) == reference_first_mismatch(a, b)
    assert first_mismatch(a, a.truncate(min(keep + 1, a.order))) is None


def test_first_mismatch_cross_multiplies_over_different_denominators():
    # negative control: the denominators are 6 and 30, the values agree
    # through q^2 and differ only at the last index
    a = PowerSeries((F(1, 2), F(-1, 3), F(5), F(5, 6)))
    b = PowerSeries((F(1, 2), F(-1, 3), F(5), F(1, 5)))
    assert (a.den, b.den) == (6, 30)
    assert first_mismatch(a, b) == first_mismatch(b, a) == 3
    assert first_mismatch(a, b.truncate(3)) is None
    assert first_mismatch(a, PowerSeries((F(1, 2), F(-1, 3), F(5), F(5, 6)))) is None


@given(rational_ops, series_values)
def test_apply_operator_matches_fraction_reference(op, values):
    series = PowerSeries(values)
    expected = [F(0)] * series.order
    for (b, i), c in op.terms.items():
        for m in range(series.order - b):
            expected[m + b] += c * m**i * series[m]
    assert apply_operator(op, series) == PowerSeries(expected)


def test_eisenstein_invalid_levels():
    with pytest.raises(InvalidLevel):
        eisenstein_weight2(1, 5)
    with pytest.raises(InvalidLevel):
        eisenstein_weight2(F(5, 2), 5)


def test_eisenstein_level_is_checked_before_the_cached_table():
    # Fraction(5) and 5.0 hash and compare equal to 5, so a cache on the
    # public function would serve them the level-5 series; the check runs
    # first, and only a level that passes it reaches the per-process table
    assert eisenstein_weight2(5, 9) == reference_eisenstein_weight2(5, 9)
    assert d3._eisenstein_weight2.cache_info().currsize > 0
    for level in (F(5), 5.0, True, "5"):
        with pytest.raises(InvalidLevel, match="level must be an integer >= 2"):
            eisenstein_weight2(level, 9)


@pytest.mark.parametrize("order", [7, 13])
@pytest.mark.parametrize("level", [5, 7])
def test_modularity_report_rows_are_the_same_cold_and_warm(level, order):
    # the Eisenstein series and the factorials depend on (level, order) and
    # the order only, and are built once per process
    for matrix, variety in ((M10, "V10"), (M14, "V14")):
        series = constant_terms(matrix, order)
        alpha = golden.ALPHA[variety]
        d3._eisenstein_weight2.cache_clear()
        d3._factorials.cache_clear()
        cold = modularity_report(series, alpha, level, solutions(matrix, order))
        warm = modularity_report(series, alpha, level, solutions(matrix, order))
        assert d3._eisenstein_weight2.cache_info().hits == 1
        assert d3._factorials.cache_info().hits > 0
        assert warm.rows == cold.rows and warm == cold
        assert eisenstein_weight2(level, order) == reference_eisenstein_weight2(level, order)


def solutions(matrix, order):
    """The pencil solutions through t^(order-1), as `modularity_report` reads them."""
    return lambda lam: frobenius_solve(pencil_operator(matrix, lam), order)


def test_modularity_report_shape_and_matches():
    series = constant_terms(M10, 8)
    rep = modularity_report(series, golden.ALPHA["V10"], 5, solutions(M10, 8))
    assert (rep.level, rep.alpha, rep.order) == (5, F(6), 8)
    assert len(rep.rows) == 12
    mismatch = {(r.lam, r.candidate): r.first_mismatch for r in rep.rows}
    assert len(mismatch) == 12
    assert mismatch[(0, "factorial_transform")] is None
    assert mismatch[(6, "factorial_transform_twist_plus")] is None
    assert mismatch[(-6, "factorial_transform_twist_minus")] is None
    # the shifted solution agrees with the Eisenstein series at q^1 only
    assert mismatch[(6, "eisenstein")] == 2
    assert mismatch[(0, "eisenstein")] == 1


def test_modularity_report_deg14_level():
    series = constant_terms(M14, 8)
    rep = modularity_report(series, golden.ALPHA["V14"], 7, solutions(M14, 8))
    assert rep.level == 7
    assert [r.first_mismatch for r in rep.rows if (r.lam, r.candidate) == (4, "eisenstein")] == [2]


def test_modularity_report_is_deterministic():
    series = constant_terms(M10, 8)
    a = modularity_report(series, golden.ALPHA["V10"], 5, solutions(M10, 8))
    b = modularity_report(series, golden.ALPHA["V10"], 5, solutions(M10, 8))
    assert a == b


def test_modularity_report_rejects_odd_degree():
    # at index 1 the level is deg/2, which an odd degree does not make an integer
    odd = CountingMatrix(deg=9, a01=F(1), a11=F(1), a02=F(1), a12=F(1), a03=F(1))
    series = constant_terms(odd, 8)
    with pytest.raises(InvalidLevel, match="level 9/2 is not an integer"):
        modularity_report(series, F(0), F(odd.deg, 2), solutions(odd, 8))


def test_modularity_report_raises_at_level_one():
    # the weight-2 Eisenstein candidate needs N >= 2; the report has no error rows
    series = constant_terms(M10, 8)
    with pytest.raises(InvalidLevel, match="level must be an integer >= 2, got 1"):
        modularity_report(series, golden.ALPHA["V10"], 1, solutions(M10, 8))
