import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import closed_form_constant, root_difference, truncated_product
from fanocount import grassmann, pipeline
from fanocount.exactmath import ChernPolynomial, NonExactDivision, divide_by_vandermonde
from fanocount.grassmann import (
    AsymmetricSeries,
    GrassmannianSpec,
    extract_h_pair,
    harmonic,
    hv_iseries,
    projective_iseries,
)
from fanocount.lefschetz import CompleteIntersectionSpec
from fanocount.pipeline import ambient_series

F = Fraction


def reference_degree_part(spec, d, target_degree):
    """The residue sum as one multivariate product of Fraction series per composition.

    The reference for the integer kernel: every factor
    (x_i - x_j + d_i - d_j) and (x_i + l)^(-n) is a full polynomial.
    """
    r, n = spec.r, spec.n
    bound = target_degree + r * (r - 1) // 2
    sign = (-1) ** ((r - 1) * d)
    total = {}
    for comp in product(range(d + 1), repeat=r):
        if sum(comp) != d:
            continue
        factors = [
            root_difference(r, i, j, comp[i] - comp[j]) for i in range(r) for j in range(i + 1, r)
        ]
        for i in range(r):
            for l in range(1, comp[i] + 1):
                # (x_i + l)^(-n) = sum_m C(n+m-1, m) (-1)^m x_i^m / l^(n+m)
                factors.append({
                    tuple(m if k == i else 0 for k in range(r)):
                    F((-1) ** m * math.comb(n + m - 1, m), l ** (n + m))
                    for m in range(bound + 1)
                })
        for e, c in truncated_product(r, bound, *factors).terms.items():
            total[e] = total.get(e, 0) + sign * c
    return divide_by_vandermonde(ChernPolynomial(r, bound, total))


def test_spec_validation():
    with pytest.raises(ValueError):
        GrassmannianSpec(0, 4)
    with pytest.raises(ValueError):
        GrassmannianSpec(4, 4)


@pytest.mark.parametrize("r,n", [(2.5, 5), (2, 5.0), (True, 5), (2, "5")])
def test_spec_rejects_non_integer_fields(r, n):
    with pytest.raises(ValueError, match="must be integers"):
        GrassmannianSpec(r, n)


def test_geometry_of_line_grassmannians():
    # an intersection of no hypersurfaces is the ambient space itself
    g25 = CompleteIntersectionSpec(GrassmannianSpec(2, 5), ())
    assert (g25.dimension, g25.fano_index, g25.ambient.plucker_degree) == (6, 5, 5)
    g26 = CompleteIntersectionSpec(GrassmannianSpec(2, 6), ())
    assert (g26.dimension, g26.fano_index, g26.ambient.plucker_degree) == (8, 6, 14)


def test_geometry_of_projective_space():
    g = CompleteIntersectionSpec(GrassmannianSpec(1, 4), ())
    assert (g.dimension, g.fano_index, g.ambient.plucker_degree) == (3, 4, 1)


def hook_length_count(rows, cols):
    """Standard Young tableaux of the rows x cols rectangle, by the hook-length formula."""
    hooks = math.prod(rows + cols - i - j - 1 for i in range(rows) for j in range(cols))
    return math.factorial(rows * cols) // hooks


def test_plucker_degree_counts_rectangular_tableaux():
    for n in range(2, 10):
        for r in range(1, n):
            assert GrassmannianSpec(r, n).plucker_degree == hook_length_count(r, n - r)


def test_harmonic_numbers():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(4) == F(25, 12)
    for m in range(41):
        assert harmonic(m) == sum((F(1, i) for i in range(1, m + 1)), F(0))


def test_hv_degree_part_requires_two_rows():
    with pytest.raises(ValueError):
        hv_iseries(GrassmannianSpec(1, 5), 1, 2)


def test_hv_constant_terms_match_closed_form():
    # the residue sum collapses to a known rational for each degree
    for n in (5, 6):
        parts = hv_iseries(GrassmannianSpec(2, n), 12, 0)
        for d in range(1, 13):
            assert parts[d].constant_term() == closed_form_constant(n, d)


@pytest.mark.parametrize("r, n, d_max", [(2, 5, 6), (3, 6, 3), (5, 7, 2)])
def test_kernel_matches_multivariate_product(r, n, d_max):
    spec = GrassmannianSpec(r, n)
    expected = [reference_degree_part(spec, d, 2) for d in range(d_max + 1)]
    assert hv_iseries(spec, d_max, 2) == expected


@st.composite
def residue_sums(draw):
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r + 1, r + 4))
    d = draw(st.integers(0, {2: 6, 3: 3, 4: 2}[r]))
    return GrassmannianSpec(r, n), d, draw(st.integers(0, 2))


@settings(max_examples=100, deadline=None)
@given(residue_sums())
def test_kernel_matches_reference_property(case):
    spec, d, target = case
    expected = [reference_degree_part(spec, k, target) for k in range(d + 1)]
    assert hv_iseries(spec, d, target) == expected


def _without(monkeypatch, dropped):
    """Make the residue sum skip one composition."""
    compositions = grassmann._compositions
    monkeypatch.setattr(
        grassmann,
        "_compositions",
        lambda total, parts: (c for c in compositions(total, parts) if c != dropped),
    )


@pytest.mark.parametrize(
    "r, n, dropped, message",
    [
        (2, 5, (2, 0), "component of degree 0 cannot be divisible by degree-1 Vandermonde"),
        (3, 6, (3, 0, 0), "component of degree 1 cannot be divisible by degree-3 Vandermonde"),
    ],
)
def test_dropped_composition_breaks_exact_division(monkeypatch, r, n, dropped, message):
    # every composition is summed, so a missing one leaves a numerator that
    # is not antisymmetric and the Vandermonde division refuses it
    _without(monkeypatch, dropped)
    with pytest.raises(NonExactDivision) as err:
        hv_iseries(GrassmannianSpec(r, n), sum(dropped), 1)
    assert str(err.value) == message


def test_dropped_self_paired_composition_is_only_caught_by_reference(monkeypatch):
    # (1, 1) is its own transpose: its term is antisymmetric on its own, so
    # the sum without it still divides exactly and passes the symmetry check
    # of extract_h_pair.  Only the comparison with the reference sees it.
    spec = GrassmannianSpec(2, 5)
    expected = reference_degree_part(spec, 2, 1)
    _without(monkeypatch, (1, 1))
    parts = hv_iseries(spec, 2, 1)
    extract_h_pair(parts)
    assert parts[2] != expected


def test_grassmannian_duality():
    # G(3, 5) and G(2, 5) are the same variety; the sum over three roots
    # agrees with the sum over two
    three_roots = extract_h_pair(hv_iseries(GrassmannianSpec(3, 5), 6, 1))
    assert three_roots == ambient_series(GrassmannianSpec(2, 5), 7)


def test_g34_is_projective_space():
    # G(3, 4) is P^3, whose I-series has a closed form
    assert extract_h_pair(hv_iseries(GrassmannianSpec(3, 4), 5, 1)) == projective_iseries(4, 5)


@pytest.mark.parametrize("r, n", [(4, 6), (5, 6), (5, 7)])
def test_ambient_series_sums_over_the_smaller_dual(monkeypatch, r, n):
    # G(r, n) and G(n - r, n) are the same variety, so the pipeline sums over
    # min(r, n - r) roots, G(n - 1, n) through the projective closed form,
    # and gets the series the sum over all r roots gives
    direct = extract_h_pair(hv_iseries(GrassmannianSpec(r, n), 2, 1))
    calls = []

    def spy(spec, *args):
        calls.append(spec)
        return hv_iseries(spec, *args)

    monkeypatch.setattr(pipeline, "hv_iseries", spy)
    assert ambient_series(GrassmannianSpec(r, n), 3) == direct
    dual = n - r
    assert calls == ([] if dual == 1 else [GrassmannianSpec(dual, n)])


def test_hv_iseries_published_constants_g25():
    parts = hv_iseries(GrassmannianSpec(2, 5), 4, 0)
    consts = [p.constant_term() for p in parts]
    assert consts == [F(1), F(3), F(19, 32), F(49, 2592), F(139, 884736)]


def test_hv_iseries_published_constants_g26():
    parts = hv_iseries(GrassmannianSpec(2, 6), 4, 0)
    consts = [p.constant_term() for p in parts]
    assert consts == [F(1), F(4), F(3, 4), F(95, 5832), F(865, 11943936)]


def test_extract_h_pair_orders_and_values():
    parts = hv_iseries(GrassmannianSpec(2, 5), 3, 2)
    pair = extract_h_pair(parts)
    assert pair.c0.order == pair.c1.order == 4
    assert pair.c0[0] == 1
    assert pair.c1[0] == 0


def test_extract_h_pair_rejects_asymmetric_input():
    bad = [
        ChernPolynomial(2, 2, {(0, 0): 1}),
        ChernPolynomial(2, 2, {(1, 0): 1}),
    ]
    with pytest.raises(AsymmetricSeries):
        extract_h_pair(bad)


def test_projective_iseries_closed_form():
    # 1/(d!)^n with the standard log-derivative companion
    pair = projective_iseries(4, 3)
    assert pair.c0.coeffs == (F(1), F(1), F(1, 16), F(1, 1296))
    assert pair.c1[1] == F(-4)
    assert pair.c1[0] == 0


def test_projective_iseries_linear_term_tracks_harmonic_numbers():
    pair = projective_iseries(5, 4)
    for d in range(1, 5):
        fact = F(math.factorial(d)) ** 5
        assert pair.c0[d] == 1 / fact
        assert pair.c1[d] == -5 * harmonic(d) / fact
