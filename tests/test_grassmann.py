import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    closed_form_constant,
    harmonic,
    projective_closed_form,
    quantum_pieri,
    quantum_pieri_pair,
    reference_divide_by_vandermonde,
    root_difference,
    truncated_product,
)
from fanocount import grassmann, pipeline
from fanocount.exactmath import ChernPolynomial, NonExactDivision, PowerSeries
from fanocount.grassmann import (
    AsymmetricSeries,
    GrassmannianSpec,
    HSeriesPair,
    extract_h_pair,
    harmonic_numerators,
    hv_iseries,
    projective_iseries,
)
from fanocount.lefschetz import CompleteIntersectionSpec
from fanocount.pipeline import MAX_ORDER, ambient_series

F = Fraction


def reference_degree_part(spec, d):
    """The residue sum through total degree 1 as one multivariate product
    of Fraction series per composition.

    The reference for the integer kernel: every factor
    (x_i - x_j + d_i - d_j) and (x_i + l)^(-n) is a full polynomial, and
    the sum is divided by the Vandermonde with the tests' own long division.
    """
    r, n = spec.r, spec.n
    bound = 1 + r * (r - 1) // 2
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
    return reference_divide_by_vandermonde(ChernPolynomial(r, bound, total))


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
    assert harmonic_numerators(0) == (1, [0])
    assert harmonic_numerators(4) == (12, [0, 12, 18, 22, 25])
    den, nums = harmonic_numerators(40)
    assert den == math.lcm(*range(1, 41))
    for m in range(41):
        assert F(nums[m], den) == harmonic(m)


@pytest.mark.parametrize("d_max", [-1, -5])
def test_hv_iseries_refuses_negative_degrees(d_max):
    with pytest.raises(ValueError, match="^d_max must be nonnegative$"):
        hv_iseries(GrassmannianSpec(2, 5), d_max)


def test_hv_constant_terms_match_closed_form():
    # the residue sum collapses to a known rational for each degree, through
    # q^(MAX_ORDER - 1)
    for n in (5, 6):
        parts = hv_iseries(GrassmannianSpec(2, n), MAX_ORDER - 1)
        for d in range(1, MAX_ORDER):
            assert parts[d].constant_term() == closed_form_constant(n, d)


# at the depths the pipeline runs, G(2,5) and G(2,6) at order 13 and G(3,6)
# at order 7, and over five roots
@pytest.mark.parametrize(
    "r, n, d_max",
    [(2, 5, 12), (2, 6, 12), (3, 6, 6), (5, 7, 2)],
    ids=["2-5-12", "2-6-12", "3-6-6", "5-7-2"],
)
def test_kernel_matches_multivariate_product(r, n, d_max):
    spec = GrassmannianSpec(r, n)
    expected = [reference_degree_part(spec, d) for d in range(d_max + 1)]
    assert hv_iseries(spec, d_max) == expected


@st.composite
def residue_sums(draw):
    r = draw(st.integers(2, 4))
    n = draw(st.integers(r + 1, r + 4))
    d = draw(st.integers(0, {2: 6, 3: 3, 4: 2}[r]))
    return GrassmannianSpec(r, n), d


@settings(max_examples=100, deadline=None)
@given(residue_sums())
def test_kernel_matches_reference_property(case):
    spec, d = case
    expected = [reference_degree_part(spec, k) for k in range(d + 1)]
    assert hv_iseries(spec, d) == expected


def _flipped(monkeypatch, level, term):
    """Make the cofactor expansion carry the wrong sign at one term of one
    level, level 0 being the level of the 2 x 2 minors."""
    cofactors = grassmann._cofactors

    def flipped(r):
        levels = [list(map(list, triple)) for triple in cofactors(r)]
        levels[level][2][term] *= -1
        return tuple(tuple(map(tuple, triple)) for triple in levels)

    monkeypatch.setattr(grassmann, "_cofactors", flipped)


@pytest.fixture
def cold_plan():
    # the per-process plan of the residue sum, so the test builds it
    grassmann._expansion_plan.cache_clear()
    yield
    grassmann._expansion_plan.cache_clear()


@pytest.mark.parametrize(
    "r, n, level, term, message",
    [
        (2, 5, 0, 1, "cofactor expansion of c_() gives 3 at x = (1, .., 2), not -1"),
        (3, 6, 1, 4, "cofactor expansion of c_(1) gives -54 at x = (1, .., 3), not -12"),
        (4, 8, 0, 5, "cofactor expansion of c_() gives -180 at x = (1, .., 4), not 12"),
    ],
    ids=["2-5", "3-6", "4-8"],
)
def test_plan_fill_refuses_a_flipped_cofactor_sign(
    monkeypatch, cold_plan, r, n, level, term, message
):
    # with one cofactor sign wrong, the expansion over the scalar rows x_j^m
    # at x = (1, .., r) misses a_delta s_lam by twice the term, and the plan
    # refuses it when it is filled
    _flipped(monkeypatch, level, term)
    with pytest.raises(NonExactDivision) as err:
        hv_iseries(GrassmannianSpec(r, n), 2)
    assert str(err.value) == message


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_every_flipped_cofactor_sign_is_refused_at_plan_fill(monkeypatch, cold_plan, r):
    for level, (columns, _, _) in enumerate(grassmann._cofactors(r)):
        for term in range(len(columns)):
            with monkeypatch.context() as patch:
                _flipped(patch, level, term)
                with pytest.raises(NonExactDivision):
                    grassmann._expansion_plan(r, r + 2, 1)


def _symbolic_minors(r):
    """The cofactor expansion of `_cofactors(r)` over the rows x_j^m, with
    each minor a dict of monomial exponents to integer coefficients."""

    def monomial(j, m):
        return tuple(m if k == j else 0 for k in range(r))

    minors = [{monomial(0, m): 1} for m in range(r + 1)]
    for j, (columns, children, signs) in enumerate(grassmann._cofactors(r), 1):
        # the row of root j + 1, j + 1 terms per state
        states = [{} for _ in range(len(columns) // (j + 1))]
        for t, (i, child, sign) in enumerate(zip(columns, children, signs)):
            total = states[t // (j + 1)]
            for e, c in minors[child].items():
                e = tuple(map(sum, zip(e, monomial(j, i))))
                total[e] = total.get(e, 0) + sign * c
        minors = [{e: c for e, c in total.items() if c} for total in states]
    return minors


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_laplace_expansion_minors_give_s_empty_and_s_1(r):
    # a second route beside the plan's one-point check: the expansion's
    # cofactor table over the symbolic rows x_j^m gives the bialternants,
    # which divided by the Vandermonde are s_() = 1 and s_(1) = x_1 + .. + x_r
    alternants = _symbolic_minors(r)
    assert len(alternants) == 2
    bound = 1 + r * (r - 1) // 2
    schurs = [
        reference_divide_by_vandermonde(ChernPolynomial(r, bound, a)).terms for a in alternants
    ]
    units = [tuple(int(k == i) for k in range(r)) for i in range(r)]
    assert schurs == [{(0,) * r: 1}, dict.fromkeys(units, 1)]


def test_dropped_convolution_term_is_caught_by_reference_and_quantum_pieri(
    monkeypatch, cold_plan
):
    # the expansion writes a symmetric series whatever its entries hold, so
    # a sum missing one product still passes the symmetry check of
    # extract_h_pair.  The comparisons with the reference and with the
    # quantum Pieri oracle see it.
    weights = grassmann._binomial_powers

    def dropped(n, top):
        rows = [list(row) for row in weights(n, top)]
        rows[2][1] = 0  # degree 2 split as 1 + 1, the composition (1, 1)
        return tuple(map(tuple, rows))

    monkeypatch.setattr(grassmann, "_binomial_powers", dropped)
    spec = GrassmannianSpec(2, 5)
    parts = hv_iseries(spec, 2)
    pair = extract_h_pair(parts)
    assert parts[:2] == [reference_degree_part(spec, d) for d in range(2)]
    assert parts[2] != reference_degree_part(spec, 2)
    c0, c1 = quantum_pieri_pair(2, 5, 3)
    assert (pair.c0.coeffs[:2], pair.c1.coeffs[:2]) == (c0[:2], c1[:2])
    assert (pair.c0[2], pair.c1[2]) != (c0[2], c1[2])


def test_only_plans_past_one_root_build_binomial_weights(monkeypatch, cold_plan):
    # no level past the first reads C(d, a)^n, so the r = 1 plan builds
    # none, and every r >= 2 plan builds them once and sums as before
    calls = []
    weights = grassmann._binomial_powers

    def spy(n, top):
        calls.append((n, top))
        return weights(n, top)

    monkeypatch.setattr(grassmann, "_binomial_powers", spy)
    levels, first, rows, dens = grassmann._expansion_plan(1, 138, 29)
    assert calls == [] and levels == rows == ()
    assert projective_iseries(6, 9) == projective_closed_form(6, 10)
    assert calls == []
    for r, n in [(2, 5), (3, 6), (4, 8)]:
        spec = GrassmannianSpec(r, n)
        assert hv_iseries(spec, 3) == [reference_degree_part(spec, d) for d in range(4)]
    assert calls == [(5, 3), (6, 3), (8, 3)]


def _containers(table):
    """Every container in a nested table, itself first."""
    yield table
    for entry in table:
        if not isinstance(entry, int):
            yield from _containers(entry)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7])
def test_expansion_plan_hands_out_tuples_of_bounded_size(r):
    # every caller shares the cached plan, so none can change it; it holds
    # the level-1 minors, one row per (j, m, d) and the denominators, and
    # visits at most 2^(r+1) column sets with at most (r + 1) 2^r terms
    d_max = 4
    plan = grassmann._expansion_plan(r, r + 3, d_max)
    assert all(type(table) is tuple for table in _containers(plan))
    levels, first, rows, dens = plan
    assert len(levels) == len(rows) == r - 1 and len(dens) == d_max + 1
    assert [len(by_d) for by_d in rows] == [d_max + 1] * (r - 1)
    # a term's dot product at degree d runs over its row's d + 1 entries
    assert all(len(row) == d + 1 for by_d in rows for d, by_m in enumerate(by_d) for row in by_m)
    assert len(first) == r + 1
    integer_rows = [t for t in _containers((first, rows, dens)) if all(type(c) is int for c in t)]
    assert len(integer_rows) <= r * (r + 1) * (d_max + 1)
    states = r + 1 + sum(len(columns) // j for j, (columns, _, _) in enumerate(levels, 2))
    assert states <= 2 ** (r + 1)
    assert sum(len(columns) for columns, _, _ in levels) <= (r + 1) * 2**r


def test_expansion_plan_holds_a_bounded_set(cold_plan):
    bound = grassmann._expansion_plan.cache_info().maxsize
    assert bound is not None
    for n in range(5, 5 + bound + 3):
        hv_iseries(GrassmannianSpec(2, n), 3)
    assert grassmann._expansion_plan.cache_info().currsize <= bound


def _largest_admitted_order(ambient):
    """The largest order <= MAX_ORDER at which the job limits admit a run
    on a hyperplane section of `ambient`."""
    top = 0
    for order in range(1, MAX_ORDER + 1):
        try:
            pipeline.PipelineRun(pipeline.VarietyConfig(ambient, (1,)), order)
        except pipeline.ConfigError:
            break
        top = order
    return top


@pytest.mark.parametrize("r, n", [(2, 5), (3, 6), (4, 8), (5, 10), (6, 12), (7, 14)])
def test_degree_parts_are_written_in_lowest_terms(r, n):
    # each part is written in the stored format in one pass, and equals the
    # generic constructor applied to the unreduced expansion over the plan's
    # signed denominators
    spec = GrassmannianSpec(r, n)
    d_max = _largest_admitted_order(spec) - 1
    assert d_max >= 4
    parts = hv_iseries(spec, d_max)
    levels, first, rows, dens = grassmann._expansion_plan(r, n, d_max)
    const, lin = grassmann._expand(levels, first, rows)
    one = (0,) * r
    units = [tuple(int(k == i) for k in range(r)) for i in range(r)]
    assert len(parts) == d_max + 1
    for d, part in enumerate(parts):
        assert (part.nvars, part.degree_bound) == (r, 1)
        assert part.den > 0
        assert math.gcd(part.den, *part.nums.values()) == 1
        assert all(part.nums.values())
        assert set(part.nums) <= {one, *units}
        nums = {one: const[d], **{e: lin[d] for e in units}}
        assert part == ChernPolynomial.from_numerators(r, 1, dens[d], nums)
    expected = HSeriesPair(
        PowerSeries([F(c, den) for c, den in zip(const, dens)]),
        PowerSeries([F(c, den) for c, den in zip(lin, dens)]),
    )
    assert extract_h_pair(parts) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda r: st.tuples(st.just(r), st.integers(r + 1, 9), st.integers(1, 13))
))
def test_ambient_series_matches_quantum_pieri(case):
    # quantum Pieri rests on the quantum cohomology ring, not on the residue
    # sum over Chern roots, so a mistake in either formula shows here
    r, n, order = case
    pair = ambient_series(GrassmannianSpec(r, n), order)
    assert (pair.c0.coeffs, pair.c1.coeffs) == quantum_pieri_pair(r, n, order)


@pytest.mark.parametrize("r, n, order", [(6, 12, 30), (7, 14, 9)], ids=["6-12-30", "7-14-9"])
def test_deep_ambient_series_match_quantum_pieri(r, n, order):
    pair = ambient_series(GrassmannianSpec(r, n), order)
    assert (pair.c0.coeffs, pair.c1.coeffs) == quantum_pieri_pair(r, n, order)


def _dropped_edge(r, n, lam):
    """Quantum Pieri without the classical edge from (1) to (2)."""
    boxes, q_term = quantum_pieri(r, n, lam)
    return [mu for mu in boxes if (lam[0], mu[0]) != (1, 2)], q_term


def _shifted_q_term(r, n, lam):
    """Quantum Pieri with the q-term landing on (lam_2, .., lam_r, 0)."""
    boxes, q_term = quantum_pieri(r, n, lam)
    return boxes, None if q_term is None else lam[1:] + (0,)


@pytest.mark.parametrize("rule", [_dropped_edge, _shifted_q_term])
@pytest.mark.parametrize("r, n", [(2, 4), (2, 5), (2, 6), (3, 6)])
def test_quantum_pieri_negative_controls_break_at_q1(r, n, rule):
    # the oracle is sharp: a wrong ring in it departs from the residue sum
    # at the first degree
    pair = ambient_series(GrassmannianSpec(r, n), 5)
    c0, c1 = quantum_pieri_pair(r, n, 5, rule)
    assert (c0[0], c1[0]) == (pair.c0[0], pair.c1[0])
    assert (c0[1], c1[1]) != (pair.c0[1], pair.c1[1])


def test_grassmannian_duality():
    # G(r, n) and G(n - r, n) are the same variety; the alternant over three
    # roots agrees with the one over two, and the one over four with the one
    # over three
    for r, n in ((3, 5), (4, 7)):
        more_roots = extract_h_pair(hv_iseries(GrassmannianSpec(r, n), 12))
        assert more_roots == ambient_series(GrassmannianSpec(n - r, n), 13)


def test_g34_is_projective_space():
    # G(1, n) and G(n - 1, n) are P^(n-1), whose I-series has a closed form;
    # the sum over one root and the sum over n - 1 roots both give it
    for n in (2, 3, 4, 5, 6):
        expected = projective_closed_form(n, MAX_ORDER)
        for r in (1, n - 1):
            assert extract_h_pair(hv_iseries(GrassmannianSpec(r, n), MAX_ORDER - 1)) == expected
        assert projective_iseries(n, MAX_ORDER - 1) == expected


@pytest.mark.parametrize("r, n", [(4, 6), (5, 6), (5, 7)])
def test_ambient_series_sums_over_the_smaller_dual(monkeypatch, r, n):
    # G(r, n) and G(n - r, n) are the same variety, so the pipeline sums over
    # min(r, n - r) roots, G(n - 1, n) over one, and gets the series the sum
    # over all r roots gives
    direct = extract_h_pair(hv_iseries(GrassmannianSpec(r, n), 2))
    calls = []

    def spy(spec, *args):
        calls.append(spec)
        return hv_iseries(spec, *args)

    monkeypatch.setattr(pipeline, "hv_iseries", spy)
    assert ambient_series(GrassmannianSpec(r, n), 3) == direct
    assert calls == [GrassmannianSpec(n - r, n)]


def test_hv_iseries_published_constants_g25():
    parts = hv_iseries(GrassmannianSpec(2, 5), 4)
    consts = [p.constant_term() for p in parts]
    assert consts == [F(1), F(3), F(19, 32), F(49, 2592), F(139, 884736)]


def test_hv_iseries_published_constants_g26():
    parts = hv_iseries(GrassmannianSpec(2, 6), 4)
    consts = [p.constant_term() for p in parts]
    assert consts == [F(1), F(4), F(3, 4), F(95, 5832), F(865, 11943936)]


def test_extract_h_pair_orders_and_values():
    parts = hv_iseries(GrassmannianSpec(2, 5), 3)
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
