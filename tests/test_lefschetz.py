import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import harmonic, reference_euler_corrected_series
from fanocount.exactmath import PowerSeries
from fanocount.grassmann import (
    GrassmannianSpec,
    HSeriesPair,
    extract_h_pair,
    hv_iseries,
    projective_iseries,
)
from fanocount.lefschetz import (
    CompleteIntersectionSpec,
    NotFano,
    _regraded,
    ci_geometry,
    euler_corrected_series,
    lefschetz_shift,
    quantum_lefschetz,
)
from fanocount.solver import ConsistencyCheckFailed, recover_matrix

F = Fraction

V10_SPEC = CompleteIntersectionSpec(GrassmannianSpec(2, 5), (1, 1, 2))
V14_SPEC = CompleteIntersectionSpec(GrassmannianSpec(2, 6), (1, 1, 1, 1, 1))


def ambient_pair(spec, d_max):
    return extract_h_pair(hv_iseries(spec.ambient, d_max))


def test_spec_rejects_nonpositive_degrees():
    with pytest.raises(ValueError):
        CompleteIntersectionSpec(GrassmannianSpec(2, 5), (1, 0))


@pytest.mark.parametrize("degrees", [(1.9, 1, True), (1, 1, 2.0), (True,), ("2",)])
def test_spec_rejects_non_integer_degrees(degrees):
    # a bool is an int to Python, but never a hypersurface degree
    with pytest.raises(ValueError, match="must be integers"):
        CompleteIntersectionSpec(GrassmannianSpec(2, 5), degrees)


def test_geometry_of_the_two_threefolds():
    assert ci_geometry(V10_SPEC) is V10_SPEC
    assert (V10_SPEC.dimension, V10_SPEC.fano_index, V10_SPEC.anticanonical_degree) == (3, 1, 10)
    assert ci_geometry(V14_SPEC) is V14_SPEC
    assert (V14_SPEC.dimension, V14_SPEC.fano_index, V14_SPEC.anticanonical_degree) == (3, 1, 14)


@pytest.mark.parametrize(
    "r,n,degrees,anticanonical_degree",
    [(1, 5, (4,), 4), (1, 6, (2, 3), 6), (1, 7, (2, 2, 2), 8)],
    ids=["V4", "V6", "V8"],
)
def test_geometry_of_the_projective_threefolds(r, n, degrees, anticanonical_degree):
    spec = CompleteIntersectionSpec(GrassmannianSpec(r, n), degrees)
    assert ci_geometry(spec) is spec
    assert (spec.dimension, spec.fano_index, spec.anticanonical_degree) == (
        3, 1, anticanonical_degree,
    )


def test_not_fano_rejected():
    quintic = CompleteIntersectionSpec(GrassmannianSpec(1, 5), (5,))
    with pytest.raises(NotFano):
        ci_geometry(quintic)


def test_any_dimension_passes_the_fano_gate():
    # only the counting matrix needs a threefold; the series stages do not
    hyperplane = CompleteIntersectionSpec(GrassmannianSpec(2, 5), (1,))
    assert ci_geometry(hyperplane) is hyperplane
    assert (hyperplane.dimension, hyperplane.fano_index) == (5, 4)
    ambient = ambient_pair(hyperplane, 8)
    pair = quantum_lefschetz(ambient, hyperplane, lefschetz_shift(hyperplane, ambient.c0))
    assert pair.c0.order == pair.c1.order == 9


def test_regrade_by_anticanonical_class():
    # the index-2 cubic: hyperplane degree d becomes -K degree 2d, and the
    # H coefficient becomes the -K = 2H coefficient c1[d]/2
    cubic = CompleteIntersectionSpec(GrassmannianSpec(1, 5), (3,))
    pair = projective_iseries(5, 6)
    by_h = euler_corrected_series(pair, (3,))
    by_k = quantum_lefschetz(pair, cubic, lefschetz_shift(cubic, pair.c0))
    assert by_k.c0.order == by_k.c1.order == 7
    for m in range(7):
        if m % 2:
            assert by_k.c0[m] == by_k.c1[m] == 0
        else:
            assert by_k.c0[m] == by_h.c0[m // 2]
            assert by_k.c1[m] == by_h.c1[m // 2] / 2
    assert by_k.c0[2] == F(6) and by_k.c1[2] == F(3, 2)


@pytest.mark.parametrize(
    "n,degrees,index",
    [(5, (3,), 2), (5, (2,), 3), (4, (), 4)],
    ids=["B3", "Q", "P3"],
)
def test_regrade_scales_c1_by_the_index(n, degrees, index):
    # -K = r H: hyperplane degree d becomes degree r d, and c1 becomes c1 / r
    spec = CompleteIntersectionSpec(GrassmannianSpec(1, n), degrees)
    assert spec.fano_index == index
    pair = projective_iseries(n, 12)
    by_h = reference_euler_corrected_series(pair, degrees)
    by_k = quantum_lefschetz(pair, spec, lefschetz_shift(spec, pair.c0))
    for m in range(13):
        if m % index:
            assert by_k.c0[m] == by_k.c1[m] == 0
        else:
            assert by_k.c0[m] == by_h.c0[m // index]
            assert by_k.c1[m] == by_h.c1[m // index] / index
    assert by_k.c1[index] == by_h.c1[1] / index != 0
    series = PowerSeries((F(2, 3), F(-5, 7), F(1, 2), F(4), F(9, 10)))
    regraded = _regraded(series, index, index)
    assert regraded.coeffs == tuple(
        0 if m % index else series[m // index] / index for m in range(series.order)
    )


series_values = st.lists(
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4), min_size=9, max_size=9
)


@given(st.integers(1, 9), series_values, series_values, st.lists(st.integers(1, 6), max_size=4))
def test_euler_corrected_series_matches_fraction_reference(order, c0, c1, degrees):
    pair = HSeriesPair(PowerSeries(c0[:order]), PowerSeries(c1[:order]))
    degrees = tuple(degrees)
    assert euler_corrected_series(pair, degrees) == reference_euler_corrected_series(pair, degrees)


@pytest.mark.parametrize("degrees", [(), (1,), (1, 1, 2), [2, 3]], ids=str)
def test_euler_table_serves_every_order(degrees):
    # the factor table is cached per (degrees, order), and a list of degrees
    # reads the same table as the tuple; each order, read twice, matches the
    # Fraction reference
    full = projective_iseries(5, 29)
    for order in range(1, 31):
        pair = HSeriesPair(full.c0.truncate(order), full.c1.truncate(order))
        expected = reference_euler_corrected_series(pair, tuple(degrees))
        assert euler_corrected_series(pair, degrees) == expected
        assert euler_corrected_series(pair, tuple(degrees)) == expected


def test_regraded_at_index_one_is_the_series():
    series = PowerSeries((F(2, 3), F(-5, 7), F(1, 2)))
    assert _regraded(series, 1, 1) is series


def test_lefschetz_shift_values():
    pair10 = ambient_pair(V10_SPEC, 1)
    assert lefschetz_shift(V10_SPEC, pair10.c0) == 6
    pair14 = ambient_pair(V14_SPEC, 1)
    assert lefschetz_shift(V14_SPEC, pair14.c0) == 4
    cubic = CompleteIntersectionSpec(GrassmannianSpec(1, 5), (3,))
    assert lefschetz_shift(cubic, projective_iseries(5, 1).c0) == 0


def test_euler_correction_closed_form_for_quartic():
    # one quartic equation in P^4: corrected c0[d] is (4d)!/(d!)^5
    pair = projective_iseries(5, 3)
    corrected = euler_corrected_series(pair, (4,))
    for d in range(4):
        expected = F(math.factorial(4 * d), math.factorial(d) ** 5)
        assert corrected.c0[d] == expected
        assert corrected.c1[d] == expected * (4 * harmonic(4 * d) - 5 * harmonic(d))


def test_quantum_lefschetz_v10_series():
    ambient = ambient_pair(V10_SPEC, 6)
    pair = quantum_lefschetz(ambient, V10_SPEC, lefschetz_shift(V10_SPEC, ambient.c0))
    assert pair.c0.coeffs == (
        F(1),
        F(0),
        F(39),
        F(220),
        F(6291, 4),
        F(8766),
        F(524413, 12),
    )
    assert pair.c1.coeffs == (
        F(0),
        F(10),
        F(67, 2),
        F(3200, 9),
        F(89387, 48),
        F(48148, 5),
        F(18179177, 432),
    )


def test_quantum_lefschetz_v14_series():
    ambient = ambient_pair(V14_SPEC, 6)
    pair = quantum_lefschetz(ambient, V14_SPEC, lefschetz_shift(V14_SPEC, ambient.c0))
    assert pair.c0.coeffs == (
        F(1),
        F(0),
        F(16),
        F(52),
        F(230),
        F(764),
        F(41291, 18),
    )
    assert pair.c1.coeffs == (
        F(0),
        F(5),
        F(31, 4),
        F(1031, 18),
        F(14863, 96),
        F(162613, 360),
        F(896441, 864),
    )


def test_twist_removes_linear_term():
    # the exponential shift is exactly what kills the q^1 coefficient
    for spec in (V10_SPEC, V14_SPEC):
        ambient = ambient_pair(spec, 2)
        pair = quantum_lefschetz(ambient, spec, lefschetz_shift(spec, ambient.c0))
        assert pair.c0[1] == 0


@pytest.mark.parametrize("error", [1, -1, F(1, 2)])
@pytest.mark.parametrize("spec", [V10_SPEC, V14_SPEC], ids=["V10", "V14"])
def test_a_wrong_shift_leaves_a_q1_constant_that_recovery_refuses(spec, error):
    # the caller passes alpha; with alpha + error the twist leaves -error at
    # q^1, and recover_matrix checks the q^1 constant before the redundant
    # H^1 relations, so its refusal names that constant
    ambient = ambient_pair(spec, 4)
    alpha = lefschetz_shift(spec, ambient.c0)
    deg = spec.anticanonical_degree
    assert recover_matrix(quantum_lefschetz(ambient, spec, alpha), deg).deg == deg
    wrong = quantum_lefschetz(ambient, spec, alpha + error)
    assert wrong.c0[1] == -error
    with pytest.raises(ConsistencyCheckFailed, match=r"^q\^1 constant must vanish"):
        recover_matrix(wrong, deg)
