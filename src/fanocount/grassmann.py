"""I-series of Grassmannians G(r, n) from the residue sum over Chern roots;
projective space P^(n-1) is G(1, n), the sum over one root.

The degree-d part of the series is (Hori-Vafa; proved by Bertram,
Ciocan-Fontanine and Kim, Duke Math. J. 2005)

    (-1)^((r-1)d) * sum_{d_1+..+d_r=d}
        prod_{i<j} (x_i + d_i - x_j - d_j) / prod_{i<j} (x_i - x_j)
        * S_(d_1)(x_1) * .. * S_(d_r)(x_r),

    S_k(x) = prod_{l=1}^{k} (x + l)^(-n),

expanded as a truncated polynomial in the Chern roots x_1..x_r.  Each factor
(x + l)^(-n) with l >= 1 is an honest power series, l^(-n) (1 + x/l)^(-n),
so the whole degree part is exact.

The shifted Vandermonde is the determinant det((x_j + d_j)^(r-i)), so the
numerator is the alternant of

    T_d = sum_{k_1+..+k_r=d} U_(k_1,r-1)(x_1) * .. * U_(k_r,0)(x_r),
    U_(k,e)(x) = (x + k)^e S_k(x).

By Jacobi's bialternant formula (Macdonald, Symmetric Functions and Hall
Polynomials, I.3) that alternant over the Vandermonde is sum_lam c_lam
s_lam, c_lam[d] the signed sum of the coefficients of T_d at the
permutations of lam + (r-1, .., 0).  The pipeline needs the series only
modulo H^2, H = x_1 + .. + x_r, where s_() = 1 and s_(1) = H, so only
c_() and c_(1).  Root j of T_d carries only its own part k_j, so each is
an r x r determinant of the q-series G_(j,m)(q) = sum_k [x^m] U_(k,r-j) q^k
on the columns m in decreasing order: c_() on {0..r} minus {r}, c_(1) on
{0..r} minus {r-1}.  Both are expanded along the last row with the minors
memoized by column set: M_j(S), the minor of rows 1..j on the columns S,
is M_1({m})[d] = [x^m] U_(d,r-1) and

    M_j(S)[d] = sum_{i in S} (-1)^#{s in S : s < i}
                sum_{a<=d} C(d, a)^n M_(j-1)(S - {i})[a] [x^i] U_(d-a,r-j),

where C(d, a)^n lifts the integer numerators' denominators (a!)^n and
((d-a)!)^n to (d!)^n.  Only subsets of the two column sets are visited:
their j terms per state number (3r + 1) 2^r / 4 - (r + 1) past level 1,
where the Leibniz sums have 2 r! terms.  At r = 1 there is no level past
the first, and c_(), c_(1) are the minors [x^0] and [x^1] of S_d.
Coefficients are integers over one denominator per degree,
(d!)^n * lcm(1..d_max)^(r^2), as in FLINT's `fmpq_poly`, with the sign
(-1)^((r-1)d) on the denominator.
The expansion trusts its entries: a product missing from T still gives a
symmetric series, so the tests compare with the quantum D-module of G(r, n).
`_expansion_plan` caches, per (r, n, d_max), everything but the minors and
checks the cofactor signs at one point; `_expand` runs the dot products.

`hv_iseries` writes c_() at the monomial 1 and c_(1) at each x_i of a
degree part, and `extract_h_pair` collapses the parts to the pair
(constant term, coefficient of any single x_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, repeat
from math import comb, factorial, gcd, lcm, prod
from operator import itemgetter, mul, neg

from .exactmath import ChernPolynomial, NonExactDivision, PowerSeries

# Bound here only so that the benchmark's tracer (perfbench/tracer.py) can
# patch it at this site.  No step of the residue sum calls it: the plan
# checks its cofactor signs at one point instead.
from .exactmath import divide_by_vandermonde  # noqa: F401


class AsymmetricSeries(ArithmeticError):
    """A degree part failed the x_1..x_r symmetry check."""


@dataclass(frozen=True)
class GrassmannianSpec:
    """G(r, n): r-planes in an n-dimensional space."""

    r: int
    n: int

    def __post_init__(self) -> None:
        if type(self.r) is not int or type(self.n) is not int:
            raise ValueError(f"r and n must be integers, got r={self.r!r}, n={self.n!r}")
        if not 1 <= self.r < self.n:
            raise ValueError(f"need 1 <= r < n, got r={self.r}, n={self.n}")

    @property
    def plucker_degree(self) -> int:
        """Degree of G(r, n) in its Plucker embedding,
        (r(n-r))! * prod_{i<r} i! / (n-r+i)!, an exact quotient."""
        r, n = self.r, self.n
        top = factorial(r * (n - r)) * prod(factorial(i) for i in range(r))
        return top // prod(factorial(n - r + i) for i in range(r))


@dataclass(frozen=True)
class HSeriesPair:
    """A cohomology-valued series mod H^2: c0 + c1*H per q-degree."""

    c0: PowerSeries
    c1: PowerSeries

    def __post_init__(self) -> None:
        if self.c0.order != self.c1.order:
            raise ValueError("c0 and c1 must share a truncation order")

    @property
    def order(self) -> int:
        return self.c0.order


def harmonic_numerators(top: int) -> tuple[int, list[int]]:
    """L = lcm(1..top) and the harmonic numbers H_0..H_top as numerators
    over L, with H_0 = 0: one prefix sum of L / i."""
    den = lcm(*range(1, top + 1))
    nums = [0]
    for i in range(1, top + 1):
        nums.append(nums[-1] + den // i)
    return den, nums


def _root_series(n: int, top: int, bound: int) -> tuple[int, list[list[int]]]:
    """L = lcm(1..top) and, for k = 0..top, the integer numerators of
    S_k(x) = prod_{l=1}^{k} (x + l)^(-n) through x^bound over (k!)^n L^bound.

    S_k = S_(k-1) * (x + k)^(-n), and (x + k)^(-n) has x^b coefficient
    (-1)^b C(n+b-1, b) (L/k)^b / (k^n L^b), so over (k!)^n L^m

        V_k[m] = sum_{a+b=m} V_(k-1)[a] (-1)^b C(n+b-1, b) (L/k)^b,

    and V_k[m] L^(bound-m) is the numerator over (k!)^n L^bound.
    """
    big = lcm(*range(1, top + 1))
    signed = [(-1) ** b * comb(n + b - 1, b) for b in range(bound + 1)]
    v = [1] + [0] * bound
    out = []
    for k in range(top + 1):
        if k:
            factor = [c * (big // k) ** b for b, c in enumerate(signed)]
            v = [sum(v[a] * factor[m - a] for a in range(m + 1)) for m in range(bound + 1)]
        out.append([c * big ** (bound - m) for m, c in enumerate(v)])
    return big, out


def _shifted(series: list[int], k: int, e: int) -> list[int]:
    """(x + k)^e times a series in x, truncated at its length."""
    for _ in range(e):
        series = [k * c + b for c, b in zip(series, [0] + series[:-1])]
    return series


def _binomial_powers(n: int, top: int) -> tuple[tuple[int, ...], ...]:
    """C(d, a)^n for 0 <= a <= d <= top: the factor that brings
    (a!)^n ((d-a)!)^n up to (d!)^n."""
    return tuple(tuple(comb(d, a) ** n for a in range(d + 1)) for d in range(top + 1))


def _cofactors(r: int):
    """The Laplace expansion of c_() and c_(1) by column sets.  The states
    of level j are the sorted j-subsets of {0..r} minus {r} and {0..r}
    minus {r-1}, so the level-1 state {m} has index m and the level-r
    states are c_() and c_(1).  Per level j = 2..r, the triple (columns,
    children, signs) over the terms of its states in order, j per state:
    the term of column i in S has the index of S - {i} at level j-1 and
    the cofactor sign (-1)^#{s in S : s < i}."""
    sets = [(tuple(range(r)), tuple(range(r - 1)) + (r,))]
    for j in range(r, 1, -1):
        sets.append(tuple(sorted({s[:p] + s[p + 1 :] for s in sets[-1] for p in range(j)})))
    levels = []
    for states, below in zip(sets, sets[1:]):
        index = {s: k for k, s in enumerate(below)}
        terms = [
            (i, index[s[:p] + s[p + 1 :]], (-1) ** p) for s in states for p, i in enumerate(s)
        ]
        levels.append(tuple(zip(*terms)))
    return tuple(reversed(levels))


def _expand(levels, minors, rows):
    """The minors of the top level, c_() and c_(1) over the degrees, from
    the level-1 minors `minors[m]` and per level j = 2..r the rows
    `rows[j-2][d][m]` over a <= d: one pass per level and degree, in which
    `map` multiplies each term's signed child minor with its row, stopping
    at the row's d + 1 entries, and `sum` adds each term's products and
    then each state's j terms, so no step is interpreted per product."""
    for j, ((columns, children, signs), by_d) in enumerate(zip(levels, rows), 2):
        # each term's child minor, negated at an odd cofactor sign; every
        # level has at least two terms, so itemgetter returns a tuple
        heads = [
            h if s > 0 else tuple(map(neg, h))
            for h, s in zip(itemgetter(*children)(minors), signs)
        ]
        row = itemgetter(*columns)
        # zip over one iterator j times groups each state's run of j terms
        minors = list(zip(*(
            map(sum, zip(*[map(sum, map(map, repeat(mul), heads, row(by_m)))] * j))
            for by_m in by_d
        )))
    return minors


@lru_cache(maxsize=16)
def _expansion_plan(r: int, n: int, d_max: int):
    """Tables of the expansion of G(r, n) through q^d_max, everything
    `hv_iseries` needs before it multiplies.

    Returns (levels, first, rows, dens): the levels of `_cofactors(r)`;
    per column m, `first[m]`, the level-1 minor [x^m] U_(d,r-1) per degree
    d; per level j = 2..r, degree d and column m, the row `rows[j-2][d][m]`
    of C(d, a)^n [x^m] U_(d-a,r-j) over a <= d; and per degree d the signed
    denominator (-1)^((r-1)d) (d!)^n L^(r^2), L = lcm(1..d_max).  All are
    tuples, so the tables the cache hands out cannot be changed, and the
    16 most recently used plans are kept: G(6,12) through q^12 takes
    about 0.2 MB on a 64-bit CPython.

    The cofactor signs are checked here at x = (1, .., r): over the scalar
    rows x_j^m, the expansion must give the Vandermonde
    prod_{i<j} (x_i - x_j) for c_() and the Vandermonde times
    x_1 + .. + x_r for c_(1).  One flipped sign moves its state's minor by
    twice its term, and a top minor by that times the complementary minor;
    both are minors of a Vandermonde matrix at distinct positive points,
    which are not 0, so it raises NonExactDivision.
    """
    levels = _cofactors(r)
    x = range(1, r + 1)
    vandermonde = prod(a - b for a, b in combinations(x, 2))
    powers = [(tuple((j**m,) for m in range(r + 1)),) for j in x[1:]]
    got = [c for (c,) in _expand(levels, ((1,),) * (r + 1), powers)]
    for name, value, want in zip(("()", "(1)"), got, (vandermonde, vandermonde * sum(x))):
        if value != want:
            raise NonExactDivision(
                f"cofactor expansion of c_{name} gives {value} at x = (1, .., {r}), not {want}"
            )
    big, series = _root_series(n, d_max, r)
    # only the levels j >= 2 read the weights, so r = 1 builds none
    weights = _binomial_powers(n, d_max) if r > 1 else ()
    first = tuple(zip(*(_shifted(s, k, r - 1) for k, s in enumerate(series))))
    rows = []
    for j in range(2, r + 1):
        factor = [_shifted(s, k, r - j) for k, s in enumerate(series)]
        rows.append(tuple(
            tuple(zip(*([w * c for c in factor[d - a]] for a, w in enumerate(ws))))
            for d, ws in enumerate(weights)
        ))
    lift = big ** (r * r)
    # the sign (-1)^((r-1)d) rides on the denominator
    dens = tuple((-1) ** ((r - 1) * d) * factorial(d) ** n * lift for d in range(d_max + 1))
    return levels, first, tuple(rows), dens


def hv_iseries(spec: GrassmannianSpec, d_max: int) -> list[ChernPolynomial]:
    """Degree parts d = 0..d_max of the G(r, n) I-series through total
    degree 1 in the Chern roots, c_() + c_(1) (x_1 + .. + x_r), from one
    Laplace expansion as integer dot products over the cached plan; any
    r >= 1 that the spec admits, r = 1 being P^(n-1).

    Each part is written in the stored format in one pass: the signed
    denominator and c_(), c_(1) are divided by their one gcd, negated with
    a negative denominator, and a zero coefficient drops its monomials, so
    no part goes through the generic normalization of `ChernPolynomial`."""
    r, n = spec.r, spec.n
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    levels, first, rows, dens = _expansion_plan(r, n, d_max)
    const, lin = _expand(levels, first, rows)
    one, units = (0,) * r, [tuple(int(k == i) for k in range(r)) for i in range(r)]
    out = []
    for den, c0, c1 in zip(dens, const, lin):
        g = gcd(den, c0, c1)
        if den < 0:
            g = -g
        # c_() at the monomial 1 and c_(1) at each x_i
        nums = {one: c0 // g} if c0 else {}
        if c1:
            nums.update(zip(units, repeat(c1 // g)))
        out.append(ChernPolynomial._from_lowest_terms(r, 1, den // g, nums))
    return out


def projective_iseries(n: int, d_max: int) -> HSeriesPair:
    """I-series of P^(n-1) mod H^2 through q^d_max, sum_d q^d
    prod_{i=1}^{d} (H + i)^(-n): the residue sum of G(1, n)."""
    return extract_h_pair(hv_iseries(GrassmannianSpec(1, n), d_max))


def extract_h_pair(parts: list[ChernPolynomial]) -> HSeriesPair:
    """Collapse degree parts to (constant, H^1) coefficients.

    The parts share their number of roots r.  The coefficient of H in a
    symmetric polynomial equals the coefficient of any single x_i; all r
    linear coefficients must agree, otherwise the input was not symmetric
    and AsymmetricSeries is raised.  Both series are read off the parts'
    numerators over the lcm of their denominators.
    """
    den = lcm(*(part.den for part in parts))
    c0 = []
    c1 = []
    r = parts[0].nvars if parts else 0
    zero, units = (0,) * r, [tuple(int(k == i) for k in range(r)) for i in range(r)]
    for d, part in enumerate(parts):
        nums = part.nums
        lin = [nums.get(e, 0) for e in units]
        if any(l != lin[0] for l in lin[1:]):
            lin = [part.linear_coefficient(i) for i in range(r)]
            raise AsymmetricSeries(
                f"degree-{d} part has unequal linear coefficients {lin}"
            )
        lift = den // part.den
        c0.append(nums.get(zero, 0) * lift)
        c1.append(lin[0] * lift)
    return HSeriesPair(PowerSeries.from_numerators(den, c0), PowerSeries.from_numerators(den, c1))
