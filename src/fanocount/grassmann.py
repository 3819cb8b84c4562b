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
the Vandermonde prod_{i<j} (x_i - x_j).  So through total degree t

    Alt(T_d) / a_delta = sum_{|lam|<=t} c_lam[d] s_lam,
    c_lam[d] = sum_s sgn(s) [x^(s(lam+delta))] T_d,

and only the r! coefficients of T_d at the permutations of each lam + delta
are needed, none with an exponent above r - 1 + t.  `_schur_plan` lists
them in one signed table per (r, t), and gets the integer coefficients of
each s_lam from `divide_by_vandermonde` of the bialternant built from that
table, so a wrong sign in it raises NonExactDivision when it is built.

T is built one root at a time for every degree at once, as a
q-convolution: P_1[d] = U_(d,r-1)(x_1), and

    P_j[d] = sum_{a<=d} C(d, a)^n P_(j-1)[a] * U_(d-a,r-j)(x_j),

so T_d = P_r[d], in O(r d^2) products where a sum over the compositions of
every degree would take C(d+r, r).  P_j holds only the length-j prefixes of
the table's exponents, one list comprehension per product, and C(d, a)^n
lifts the denominators (a!)^n ((d-a)!)^n to (d!)^n.  Coefficients are
integers over one denominator per degree, (d!)^n * lcm(1..d_max)^(r(r-1+t)),
as in FLINT's `fmpq_poly`, with the sign (-1)^((r-1)d) on the denominator.
The read-off trusts T: a product missing from T still gives a
symmetric series, so the tests compare with the sum over compositions.

Everything before the convolution depends only on (r, n, d_max, t): the
level-1 prefixes, the shifted root series U_(k,e) of each later level, the
weights C(d, a)^n and the signed denominators.  `_series_plan` builds them
once per key, as tuples, and keeps the 16 most recently used plans, so a
warm call runs only the convolution and the read-off, and a process that
walks many jobs holds a bounded set.

The cohomology of the ambient space is only needed modulo H^2 downstream,
where H = x_1 + .. + x_r, so `extract_h_pair` collapses each degree part to
the pair (constant term, coefficient of any single x_i), and the pipeline
truncates the degree parts at total degree 1.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, factorial, lcm, prod

from .exactmath import ChernPolynomial, PowerSeries, divide_by_vandermonde


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


def _bialternants(r: int, t: int):
    """The partitions lam with |lam| <= t and at most r parts, padded with
    zeros to r entries, and the signed table of their bialternants: per lam,
    at index k, the r! entries (k, sgn(s), s(lam + delta)), so that
    a_(lam+delta) is the sum of sgn(s) x^(s(lam + delta)).  lam + delta is
    strictly decreasing, so sgn(s) is the parity of the ascending pairs."""
    lams = combinations_with_replacement(range(t, -1, -1), r)
    partitions = [lam for lam in lams if sum(lam) <= t]
    table = [
        (k, (-1) ** sum(a < b for a, b in combinations(e, 2)), e)
        for k, lam in enumerate(partitions)
        for e in permutations(part + r - 1 - i for i, part in enumerate(lam))
    ]
    return partitions, table


@cache
def _schur_plan(r: int, t: int):
    """Tables of the Schur read-off in r roots through total degree t.

    Returns (partitions, table, levels, schurs): the partitions and signed
    table of `_bialternants`; per root j, `levels[j-1]` lists (parent index,
    exponent of x_j) per distinct length-j prefix of the table's exponents,
    so the last level is the table's exponents in table order; and per
    partition, the integer (exponent, coefficient) pairs of s_lam, divided
    out of the bialternant here, once per (r, t).
    """
    partitions, table = _bialternants(r, t)
    alternants = [{} for _ in partitions]
    for k, sign, e in table:
        alternants[k][e] = sign
    v = r * (r - 1) // 2
    schurs = tuple(
        tuple(divide_by_vandermonde(ChernPolynomial.from_numerators(r, t + v, 1, a)).nums.items())
        for a in alternants
    )
    parent, levels = {(): 0}, []
    for j in range(1, r + 1):
        index = {}
        for _, _, e in table:
            index.setdefault(e[:j], len(index))
        levels.append(tuple((parent[p[:-1]], p[-1]) for p in index))
        parent = index
    return tuple(partitions), tuple(table), tuple(levels), schurs


@lru_cache(maxsize=16)
def _series_plan(r: int, n: int, d_max: int, t: int):
    """Tables of the q-convolution of G(r, n) through q^d_max and total
    degree t, everything `hv_iseries` needs before it convolves.

    Returns (first, factors, weights, dens): per degree k, `first[k]` is
    U_(k,r-1)(x_1) on the level-1 prefixes of `_schur_plan(r, t)`; per root
    j = 2..r, `factors[j-2][k]` is U_(k,r-j)(x_j) through x^(r-1+t); the
    weights C(d, a)^n of `_binomial_powers`; and per degree d the signed
    denominator (-1)^((r-1)d) (d!)^n L^(r(r-1+t)), L = lcm(1..d_max).
    All are tuples, so the tables the cache hands out cannot be changed.
    """
    top = r - 1 + t
    big, series = _root_series(n, d_max, top)
    # shifted[j-1][k] is U_(k,r-j)(x_j)
    shifted = [[_shifted(s, k, r - j) for k, s in enumerate(series)] for j in range(1, r + 1)]
    prefixes = _schur_plan(r, t)[2][0]
    first = tuple(tuple(u[m] for _, m in prefixes) for u in shifted[0])
    factors = tuple(tuple(map(tuple, level)) for level in shifted[1:])
    lift = big ** (r * top)
    # the sign (-1)^((r-1)d) rides on the denominator
    dens = tuple((-1) ** ((r - 1) * d) * factorial(d) ** n * lift for d in range(d_max + 1))
    return first, factors, _binomial_powers(n, d_max), dens


def hv_iseries(spec: GrassmannianSpec, d_max: int, target_degree: int) -> list[ChernPolynomial]:
    """Degree parts d = 0..d_max of the G(r, n) I-series through total degree
    target_degree in the Chern roots, read off in Schur polynomials from one
    q-convolution."""
    r, n = spec.r, spec.n
    if r < 2:
        raise ValueError("the residue sum needs r >= 2; use projective_iseries for r = 1")
    if d_max < 0 or target_degree < 0:
        raise ValueError("degree arguments must be nonnegative")
    _, table, levels, schurs = _schur_plan(r, target_degree)
    parts, factors, weights, dens = _series_plan(r, n, d_max, target_degree)
    # parts[d] is P_j[d] of the module docstring on the level-j prefixes,
    # over (d!)^n L^(j(r-1+t)), t = target_degree
    for level, factor in zip(levels[1:], factors):
        convolved = []
        for d, row in enumerate(weights):
            total = [0] * len(level)
            for a, w in enumerate(row):
                head, tail = parts[a], [w * c for c in factor[d - a]]
                total = [t + head[p] * tail[m] for t, (p, m) in zip(total, level)]
            convolved.append(total)
        parts = convolved
    out = []
    for numer, den in zip(parts, dens):
        coeffs = [0] * len(schurs)
        for (k, sign, _), c in zip(table, numer):
            coeffs[k] += sign * c
        nums = defaultdict(int)
        for c, schur in zip(coeffs, schurs):
            for e, m in schur:
                nums[e] += c * m
        out.append(ChernPolynomial.from_numerators(r, target_degree, den, nums))
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
