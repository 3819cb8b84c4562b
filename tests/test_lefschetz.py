import math
from fractions import Fraction

import pytest

from fanocount.grassmann import (
    GrassmannianSpec,
    extract_h_pair,
    harmonic,
    hv_iseries,
    projective_iseries,
)
from fanocount.lefschetz import (
    CompleteIntersectionSpec,
    NotFano,
    ci_geometry,
    euler_corrected_series,
    lefschetz_shift,
    quantum_lefschetz,
)

F = Fraction

V10_SPEC = CompleteIntersectionSpec(GrassmannianSpec(2, 5), (1, 1, 2))
V14_SPEC = CompleteIntersectionSpec(GrassmannianSpec(2, 6), (1, 1, 1, 1, 1))


def ambient_pair(spec, d_max):
    return extract_h_pair(hv_iseries(spec.ambient, d_max, 2))


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
    pair = quantum_lefschetz(ambient_pair(hyperplane, 8), hyperplane)
    assert pair.c0.order == pair.c1.order == 9


def test_regrade_by_anticanonical_class():
    # the index-2 cubic: hyperplane degree d becomes -K degree 2d, and the
    # H coefficient becomes the -K = 2H coefficient c1[d]/2
    cubic = CompleteIntersectionSpec(GrassmannianSpec(1, 5), (3,))
    pair = projective_iseries(5, 6)
    by_h = euler_corrected_series(pair, (3,))
    by_k = quantum_lefschetz(pair, cubic)
    assert by_k.c0.order == by_k.c1.order == 7
    for m in range(7):
        if m % 2:
            assert by_k.c0[m] == by_k.c1[m] == 0
        else:
            assert by_k.c0[m] == by_h.c0[m // 2]
            assert by_k.c1[m] == by_h.c1[m // 2] / 2
    assert by_k.c0[2] == F(6) and by_k.c1[2] == F(3, 2)


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
    pair = quantum_lefschetz(ambient_pair(V10_SPEC, 6), V10_SPEC)
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
    pair = quantum_lefschetz(ambient_pair(V14_SPEC, 6), V14_SPEC)
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
        pair = quantum_lefschetz(ambient_pair(spec, 2), spec)
        assert pair.c0[1] == 0
