import random
from fractions import Fraction
from math import factorial

import pytest

import golden
from helpers import TamperedEngine, dual_frobenius, harmonic, symbolic_iseries
from fanocount.d3 import pencil_operator
from fanocount.exactmath import ENTRY_VARS, EntryPolynomial
from fanocount.relations import (
    GateViolation,
    RelationEngine,
    one_point_relation,
)
from fanocount.solver import CountingMatrix

F = Fraction
two_point_symbol = RelationEngine().two_point_symbol


def test_entry_canonical_variables():
    e = RelationEngine()
    assert e.entry(0, 1) == EntryPolynomial.variable("a01")
    assert e.entry(1, 2) == EntryPolynomial.variable("a12")
    assert e.entry(0, 3) == EntryPolynomial.variable("a03")


def test_entry_antidiagonal_reflection():
    e = RelationEngine()
    assert e.entry(2, 3) == e.entry(0, 1)
    assert e.entry(2, 2) == e.entry(1, 1)
    assert e.entry(1, 3) == e.entry(0, 2)


def test_entry_classical_and_vanishing():
    e = RelationEngine()
    assert e.entry(1, 0) == EntryPolynomial.const(F(1))
    assert e.entry(3, 2) == EntryPolynomial.const(F(1))
    assert e.entry(2, 0).is_zero()
    assert e.entry(0, 0).is_zero()
    assert e.entry(3, 3).is_zero()
    assert e.entry(4, 3).is_zero()
    assert e.entry(-1, 2).is_zero()


@pytest.mark.parametrize("matrix", [golden.MATRIX_V10, golden.MATRIX_V14])
def test_entry_and_rows_read_one_layout(matrix):
    m = CountingMatrix(deg=1, **golden.entry_values(matrix))
    rows = m.rows()
    e = RelationEngine()
    for i in range(4):
        for j in range(4):
            assert e.entry(i, j).evaluate(m.entries()) == rows[i][j]


def test_invariant_key_gates():
    # <H^p, H^m>_d needs p + m = d + 2; a violating key is the zero invariant
    assert not two_point_symbol(1, 3, 2).is_zero()
    assert two_point_symbol(1, 3, 3).is_zero()
    assert two_point_symbol(1, 3, 1).is_zero()
    # <tau_k H^m>_d forces m = d + 1 - k, which must lie in 0..3
    assert not one_point_relation(2, 3).is_zero()
    with pytest.raises(GateViolation):
        one_point_relation(0, 3)
    with pytest.raises(GateViolation):
        one_point_relation(5, 3)


def test_two_point_symbol_values():
    assert two_point_symbol(1, 2, 1) == EntryPolynomial.variable("a11")
    assert two_point_symbol(2, 3, 3) == EntryPolynomial.variable("a02").scale(F(1, 3))
    assert two_point_symbol(3, 3, 4) == EntryPolynomial.variable("a03").scale(F(1, 4))


def test_two_point_symbol_gate_gives_zero():
    assert two_point_symbol(1, 1, 1).is_zero()
    assert two_point_symbol(1, 2, 0).is_zero()


def test_one_point_relation_gate_violations():
    # each refusal names the condition that failed: d < 1, k < 0, or the
    # forced power H^m outside 0..3
    for k, d, why in (
        (-1, 1, "k < 0"),
        (0, 0, "d < 1"),
        (0, 4, "H^5 outside 0..3"),
        (5, 1, "H^-3 outside 0..3"),
    ):
        with pytest.raises(GateViolation) as info:
            one_point_relation(k, d)
        assert str(info.value) == f"one-pointed key (k={k}, d={d}) is refused: {why}"


def test_symbolic_iseries_low_degrees():
    parts = symbolic_iseries(2)
    assert parts[0][0] == EntryPolynomial.const(F(1))
    assert parts[0][1].is_zero()
    assert parts[1][0].is_zero()
    assert parts[1][1] == EntryPolynomial.variable("a11")
    assert parts[2][0] == EntryPolynomial.variable("a01").scale(F(1, 4))


def test_symbolic_iseries_matches_golden_polynomials():
    parts = symbolic_iseries(4)
    for (which, d), terms in golden.SEVEN_GOLDEN.items():
        derived = parts[d][0 if which == "c0" else 1]
        assert derived == EntryPolynomial(dict(terms)), (which, d)


@pytest.mark.parametrize(
    "matrix,c0,c1",
    [
        (golden.MATRIX_V10, golden.SERIES_V10_C0, golden.SERIES_V10_C1),
        (golden.MATRIX_V14, golden.SERIES_V14_C0, golden.SERIES_V14_C1),
    ],
    ids=["deg10", "deg14"],
)
def test_symbolic_iseries_reproduces_both_series_through_q6(matrix, c0, c1):
    values = golden.entry_values(matrix)
    for d, (p0, p1) in enumerate(symbolic_iseries(6)):
        assert p0.evaluate(values) == c0[d]
        assert p1.evaluate(values) == c1[d]


def test_one_point_relation_agrees_with_symbolic_iseries():
    parts = symbolic_iseries(4)
    for d in range(2, 5):
        assert one_point_relation(d - 2, d) == parts[d][0]
        assert one_point_relation(d - 1, d) == parts[d][1]


def test_tampered_linear_entry_propagates():
    # the q^2 constant term reads a01 through the reflected slot (2, 3)
    tampered = TamperedEngine((2, 3), 7)
    assert symbolic_iseries(2, tampered)[2][0] == EntryPolynomial.const(F(7, 4))


def test_tampered_diagonal_entry_propagates():
    tampered = TamperedEngine((2, 2), 0)
    assert symbolic_iseries(1, tampered)[1][1].is_zero()


def test_fundamental_class_vanishing_is_load_bearing():
    # a_33 = 0 enters the recursion; replacing it by 1 must change output
    base = RelationEngine()
    tampered = TamperedEngine((3, 3), 1)
    changed = [
        (k, d)
        for d in range(1, 5)
        for k in (d - 2, d - 1)
        if k >= 0 and base.one_point_relation(k, d) != tampered.one_point_relation(k, d)
    ]
    assert (1, 3) in changed
    assert (3, 4) in changed


def test_engine_memoization_is_per_instance():
    a = RelationEngine()
    b = TamperedEngine((2, 3), 7)
    assert a.one_point_relation(0, 2) != b.one_point_relation(0, 2)
    assert a.one_point_relation(0, 2) == RelationEngine().one_point_relation(0, 2)


def test_h1_relations_are_the_eps_derivative_of_the_operator_solution():
    # an independent check of the engine's one- and two-pointed reductions:
    # the shift-0 operator of a random matrix, solved at n + eps, gives
    # c_m = m! d_m and c_m' = m! (c1_m + H_m d_m), with d_m and c1_m the
    # engine's constant-term and H^1 relations at the matrix
    rng = random.Random(20261021)
    for _ in range(100):
        entries = {name: F(rng.randint(-50, 50), rng.randint(1, 6)) for name in ENTRY_VARS}
        matrix = CountingMatrix(deg=rng.randint(1, 30), **entries)
        values = matrix.entries()
        solution = dual_frobenius(pencil_operator(matrix, 0), 7)
        for m in range(1, 7):
            d_m = one_point_relation(m - 2, m).evaluate(values) if m >= 2 else F(0)
            c1_m = one_point_relation(m - 1, m).evaluate(values)
            assert solution[m] == (
                factorial(m) * d_m,
                factorial(m) * (c1_m + harmonic(m) * d_m),
            ), (matrix, m)
