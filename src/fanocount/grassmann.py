"""I-series of Grassmannians G(r, n) from the residue sum over Chern roots.

The degree-d part of the series is (Hori-Vafa; proved by Bertram,
Ciocan-Fontanine and Kim, Duke Math. J. 2005)

    (-1)^((r-1)d) * sum_{d_1+..+d_r=d}
        prod_{i<j} (x_i + d_i - x_j - d_j) / prod_{i<j} (x_i - x_j)
        * S_(d_1)(x_1) * .. * S_(d_r)(x_r),

    S_k(x) = prod_{l=1}^{k} (x + l)^(-n),

expanded as a truncated polynomial in the Chern roots x_1..x_r.  Each factor
(x + l)^(-n) with l >= 1 is an honest power series, l^(-n) (1 + x/l)^(-n),
so the whole degree part is exact.

The shifted Vandermonde is a determinant: with y_i = x_i + d_i,
prod_{i<j} (y_i - y_j) = sum_s sgn(s) prod_i y_i^(r - s(i)) over the
permutations s of 1..r.  So the numerator of the degree-d part is the
alternant Alt(T_d), where Alt(f) = sum_s sgn(s) f(x_s(1), .., x_s(r)) and

    T_d = sum_{k_1+..+k_r=d} U_(k_1,r-1)(x_1) * .. * U_(k_r,0)(x_r),
    U_(k,e)(x) = (x + k)^e S_k(x).

Alt(x^e) vanishes unless e = s(lam + delta) for a partition lam and
delta = (r-1, .., 0), and then it is sgn(s) a_(lam+delta).  By Jacobi's
bialternant formula a_(lam+delta) / a_delta = s_lam, the Schur polynomial
(Macdonald, Symmetric Functions and Hall Polynomials, I.3), and a_delta is
the Vandermonde prod_{i<j} (x_i - x_j).  The pipeline needs the cohomology
of the ambient space only modulo H^2, H = x_1 + .. + x_r, that is through
total degree 1, where s_() = 1 and s_(1) = H:

    Alt(T_d) / a_delta = c_()[d] + c_(1)[d] H,
    c_lam[d] = sum_s sgn(s) [x^(s(lam+delta))] T_d,

so only the r! coefficients of T_d at the permutations of each lam + delta
are needed, none with an exponent above r.  `_schur_plan` lists them in one
signed table per r, and each c_lam[d] is the dot product of lam's signs
with the table's coefficients of T_d.  A wrong sign in the table raises
NonExactDivision when it is built: its alternants must take the values
a_delta and a_delta H at one point.

T is built one root at a time for every degree at once, as a
q-convolution: P_1[d] = U_(d,r-1)(x_1), and

    P_j[d] = sum_{a<=d} C(d, a)^n P_(j-1)[a] * U_(d-a,r-j)(x_j),

so T_d = P_r[d], in O(r d^2) products where a sum over the compositions of
every degree would take C(d+r, r).  P_j holds only the length-j prefixes
of the table's exponents, and C(d, a)^n lifts the denominators
(a!)^n ((d-a)!)^n to (d!)^n.  At a prefix p = (p', m), P_j[d][p] is the
dot product over a <= d of P_(j-1)[a][p'] with the weighted entries
C(d, a)^n [x^m] U_(d-a,r-j).  For j < r the plan holds those entries as
one row over the level's prefixes per (d, a), so a level takes one pass
per degree in which `map` multiplies each a's row and `zip` and `sum` add
the products of each prefix.  The last level is never stored: the prefixes
of length r are the table's entries, and the signs of each partition are
folded into their weighted entries when the plan is built, so c_lam[d] is
one dot product of P_(r-1) at degrees a <= d, gathered at the parents of
lam's entries, with lam's read-off column for d.  No step is interpreted
per product, per prefix or per pair (d, a).  Coefficients are integers
over one denominator per degree, (d!)^n * lcm(1..d_max)^(r^2), as in
FLINT's `fmpq_poly`, with the sign (-1)^((r-1)d) on the denominator.  The
read-off trusts T: a product missing from T still gives a symmetric
series, so the tests compare with the sum over compositions.

Everything before the convolution depends only on (r, n, d_max): the
level-1 prefixes' entries of U_(d,r-1)(x_1), the weighted rows of the
levels 2..r-1, the read-off's columns and the signed denominators.
`_series_plan` builds them once per key, as tuples, and keeps the 16 most
recently used plans, so a warm call runs only the dot products, and a
process that walks many jobs holds a bounded set.  The rows store a
pointer per (prefix, d, a) and the weighted entries are products of
C(d, a)^n with the root series, so a plan is larger than its inputs: on
a 64-bit CPython, G(2,3000) through q^12 takes about 0.5 MB and G(6,12)
through q^12 about 3 MB.

`hv_iseries` writes c_() at the monomial 1 and c_(1) at each x_i of a
degree part, and `extract_h_pair` collapses the parts to the pair
(constant term, coefficient of any single x_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import chain, combinations, permutations, repeat
from math import comb, factorial, lcm, prod
from operator import itemgetter, mul

from .exactmath import ChernPolynomial, NonExactDivision, PowerSeries

# Bound here only so that the benchmark's tracer (perfbench/tracer.py) can
# patch it at this site.  No step of the residue sum calls it: the plan
# checks its signed table at one point instead.
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


def _bialternants(r: int):
    """The partitions () and (1), padded with zeros to r entries, and the
    signed table of their bialternants: per lam, at index k, the r! entries
    (k, sgn(s), s(lam + delta)), so that a_(lam+delta) is the sum of
    sgn(s) x^(s(lam + delta)).  lam + delta is strictly decreasing, so
    sgn(s) is the parity of the ascending pairs."""
    partitions = ((0,) * r, (1,) + (0,) * (r - 1))
    table = [
        (k, (-1) ** sum(a < b for a, b in combinations(e, 2)), e)
        for k, lam in enumerate(partitions)
        for e in permutations(part + r - 1 - i for i, part in enumerate(lam))
    ]
    return partitions, table


@cache
def _schur_plan(r: int):
    """Tables of the Schur read-off of c_() and c_(1) in r roots.

    Returns (partitions, table, levels): the partitions and signed table of
    `_bialternants`, and per root j, `levels[j-1]`, the pair (parents,
    exponents) that gives, per distinct length-j prefix of the table's
    exponents, the index of its length-(j-1) prefix and the exponent of
    x_j, so the last level is the table's exponents in table order.

    The table is checked here, once per r, at x = (1, .., r): the entries
    of () must sum to the Vandermonde prod_{i<j} (x_i - x_j) there, and
    those of (1) to the Vandermonde times x_1 + .. + x_r.  One flipped sign
    moves a sum by 2 x^e, which is not 0 at that point, so it raises
    NonExactDivision.
    """
    partitions, table = _bialternants(r)
    x = range(1, r + 1)
    vandermonde = prod(a - b for a, b in combinations(x, 2))
    sums = [0, 0]
    for k, sign, e in table:
        sums[k] += sign * prod(map(pow, x, e))
    for name, got, want in zip(("()", "(1)"), sums, (vandermonde, vandermonde * sum(x))):
        if got != want:
            raise NonExactDivision(
                f"signed table of s_{name} sums to {got} at x = (1, .., {r}), not {want}"
            )
    parent, levels = {(): 0}, []
    for j in range(1, r + 1):
        index = {}
        for _, _, e in table:
            index.setdefault(e[:j], len(index))
        levels.append((tuple(parent[p[:-1]] for p in index), tuple(p[-1] for p in index)))
        parent = index
    return partitions, tuple(table), tuple(levels)


@lru_cache(maxsize=16)
def _series_plan(r: int, n: int, d_max: int):
    """Tables of the q-convolution of G(r, n) through q^d_max, everything
    `hv_iseries` needs before it convolves.

    Returns (first, levels, readoff, dens).  Per degree k, `first[k]` is
    U_(k,r-1)(x_1) on the level-1 prefixes of `_schur_plan(r)`.  Per root
    j = 2..r-1, `levels[j-2]` is (parents, weighted): the parent index of
    each level-j prefix (p', m), and per degree d and a <= d the row
    `weighted[d][a]` over those prefixes of C(d, a)^n [x^m] U_(d-a,r-j)(x_j),
    one integer per (d, a, m) that the prefixes with exponent m share.  Per
    partition lam of the table, `readoff[k]` is (parents, columns): the
    level-(r-1) parent of each table entry of lam, and per degree d the
    column over (a <= d, entry) of the entry's sign times
    C(d, a)^n [x^m] U_(d-a,0)(x_r), m the entry's last exponent.  Per
    degree d, `dens[d]` is the signed denominator
    (-1)^((r-1)d) (d!)^n L^(r^2), L = lcm(1..d_max).  All are tuples, so
    the tables the cache hands out cannot be changed.
    """
    big, series = _root_series(n, d_max, r)
    weights = _binomial_powers(n, d_max)
    partitions, table, prefixes = _schur_plan(r)

    def weighted(j):
        # per degree d and a <= d, C(d, a)^n [x^m] U_(d-a,r-j)(x_j) for m <= r
        factor = [_shifted(s, k, r - j) for k, s in enumerate(series)]
        return [
            [[w * c for c in factor[d - a]] for a, w in enumerate(ws)]
            for d, ws in enumerate(weights)
        ]

    first = tuple(
        tuple(map(_shifted(s, k, r - 1).__getitem__, prefixes[0][1])) for k, s in enumerate(series)
    )
    levels = []
    for j, (parents, exponents) in enumerate(prefixes[1:-1], 2):
        rows = (tuple(tuple(map(u.__getitem__, exponents)) for u in by_a) for by_a in weighted(j))
        levels.append((parents, tuple(rows)))
    parents = prefixes[-1][0]
    # the read-off's entries share one integer per (d, a, sign, exponent)
    keys = [(sign, e[-1]) for _, sign, e in table]
    pairs = list(dict.fromkeys(keys))
    scaled = [[[c * u[m] for c, m in pairs] for u in by_a] for by_a in weighted(r)]
    readoff = []
    for k in range(len(partitions)):
        entries = [i for i, entry in enumerate(table) if entry[0] == k]
        index = [pairs.index(keys[i]) for i in entries]
        columns = (tuple(chain(*(map(u.__getitem__, index) for u in by_a))) for by_a in scaled)
        readoff.append((tuple(parents[i] for i in entries), tuple(columns)))
    lift = big ** (r * r)
    # the sign (-1)^((r-1)d) rides on the denominator
    dens = tuple((-1) ** ((r - 1) * d) * factorial(d) ** n * lift for d in range(d_max + 1))
    return first, tuple(levels), tuple(readoff), dens


def hv_iseries(spec: GrassmannianSpec, d_max: int) -> list[ChernPolynomial]:
    """Degree parts d = 0..d_max of the G(r, n) I-series through total
    degree 1 in the Chern roots, c_() + c_(1) (x_1 + .. + x_r), read off
    from one q-convolution as integer dot products over the cached plans."""
    r, n = spec.r, spec.n
    if r < 2:
        raise ValueError("the residue sum needs r >= 2; use projective_iseries for r = 1")
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    parts, levels, readoff, dens = _series_plan(r, n, d_max)
    # parts[d] is P_j[d] of the module docstring on the level-j prefixes,
    # over (d!)^n L^(j r); a level past the first and a read-off row both
    # gather at least two parents, so itemgetter returns a tuple
    for parents, weighted in levels:
        heads = list(map(itemgetter(*parents), parts))
        parts = [list(map(sum, zip(*map(map, repeat(mul), heads, by_a)))) for by_a in weighted]
    coeffs = []
    for parents, columns in readoff:
        heads = list(map(itemgetter(*parents), parts))
        coeffs.append([sum(map(mul, chain(*heads[: d + 1]), c)) for d, c in enumerate(columns)])
    # c_() at the monomial 1 and c_(1) at each x_i
    monomials = [((0,) * r, 0)] + [(tuple(int(k == i) for k in range(r)), 1) for i in range(r)]
    out = []
    for d, den in enumerate(dens):
        nums = {e: coeffs[k][d] for e, k in monomials}
        out.append(ChernPolynomial.from_numerators(r, 1, den, nums))
    return out


def projective_iseries(n: int, d_max: int) -> HSeriesPair:
    """I-series of P^(n-1) mod H^2: sum_d q^d prod_{i=1}^{d} (H + i)^(-n).

    The degree-d coefficient is (1 - n H_d H) / (d!)^n, so c0 sits over
    (d_max!)^n and c1 over (d_max!)^n lcm(1..d_max).
    """
    if n < 2:
        raise ValueError("projective space needs n >= 2")
    lift = [1] * (d_max + 1)  # (d_max! / d!)^n
    for d in range(d_max, 0, -1):
        lift[d - 1] = lift[d] * d**n
    hden, hnums = harmonic_numerators(d_max)
    c0 = PowerSeries.from_numerators(lift[0], lift)
    c1 = PowerSeries.from_numerators(lift[0] * hden, [-n * h * x for h, x in zip(hnums, lift)])
    return HSeriesPair(c0, c1)


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
