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

T is built one root at a time for every degree at once, as a
q-convolution: P_1[d] = U_(d,r-1)(x_1), and

    P_j[d] = sum_{a<=d} C(d, a)^n P_(j-1)[a] * U_(d-a,r-j)(x_j),

so T_d = P_r[d], in O(r d^2) tensor products where a sum over the
compositions of every degree would take C(d+r, r).  Each is one list
comprehension over the monomials of total degree <= bound, and C(d, a)^n
lifts the denominators (a!)^n ((d-a)!)^n to (d!)^n.  `_alternation`
then antisymmetrizes each T_d with r(r+1)/2 - 1 gathers of index tables.
The monomial lists and index tables are cached per (r, bound).
Coefficients are integers over one denominator per degree,
(d!)^n * lcm(1..d_max)^(r*bound), as in FLINT's `fmpq_poly`, with the sign
(-1)^((r-1)d) folded into the numerators.  Each numerator goes to
`divide_by_vandermonde`, which divides it exactly in integers by divided
differences, one root difference x_i - x_j at a time, and no `Fraction` is
built on the way to `extract_h_pair`.
The alternant is antisymmetric whatever it alternates, so that division
catches a wrong sign or table of the alternation, not a product missing
from T; the tests compare with the sum over compositions for that.

The cohomology of the ambient space is only needed modulo H^2 downstream,
where H = x_1 + .. + x_r, so `extract_h_pair` collapses each degree part to
the pair (constant term, coefficient of any single x_i), and the pipeline
truncates the degree parts at total degree 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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


def _binomial_powers(n: int, top: int) -> list[list[int]]:
    """C(d, a)^n for 0 <= a <= d <= top: the factor that brings
    (a!)^n ((d-a)!)^n up to (d!)^n."""
    return [[comb(d, a) ** n for a in range(d + 1)] for d in range(top + 1)]


@cache
def _plan(r: int, bound: int):
    """Index tables of the residue sum in r roots through total degree bound.

    Returns (levels, monomials).  `levels[i]` lists (parent index, exponent
    of x_(i+1)) per monomial in the first i+1 roots, so a tensor product
    with a series in x_(i+1) is one list comprehension per root.
    """
    exps: list[tuple[int, ...]] = [()]
    levels = []
    for _ in range(r):
        level = [(p, m) for p, e in enumerate(exps) for m in range(bound + 1 - sum(e))]
        exps = [exps[p] + (m,) for p, m in level]
        levels.append(tuple(level))
    return tuple(levels), tuple(exps)


@cache
def _alternation(r: int, bound: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """Index tables of Alt(f) = sum_s sgn(s) f(x_s(1), .., x_s(r)) over the
    monomials of the plan, one stage per root.

    Every permutation of the first k roots is t_ik times a permutation of
    the first k-1, where t_ik swaps roots i and k (t_kk is the identity) and
    i is the root that k goes to, so

        A_1 f = f,    A_k f = sum_{i<=k} sgn(t_ik) (A_(k-1) f)(x o t_ik),

    and Alt = A_r takes r(r+1)/2 - 1 gathers, not r!.  Stage k lists
    (sgn t_ik, gather) per i, where gather holds, per monomial x^e, the index
    of x^(e o t_ik), the coefficient of f(x o t_ik) at x^e.
    """
    _, monomials = _plan(r, bound)
    index = {e: m for m, e in enumerate(monomials)}

    def swap(e: tuple[int, ...], i: int, k: int) -> tuple[int, ...]:
        e = list(e)
        e[i], e[k] = e[k], e[i]
        return tuple(e)

    return tuple(
        tuple(
            (1 if i == k else -1, tuple(index[swap(e, i, k)] for e in monomials))
            for i in range(k + 1)
        )
        for k in range(1, r)
    )


def hv_iseries(spec: GrassmannianSpec, d_max: int, target_degree: int) -> list[ChernPolynomial]:
    """Degree parts d = 0..d_max of the G(r, n) I-series through total degree
    target_degree in the Chern roots, as the alternants of one q-convolution."""
    r, n = spec.r, spec.n
    if r < 2:
        raise ValueError("the residue sum needs r >= 2; use projective_iseries for r = 1")
    if d_max < 0 or target_degree < 0:
        raise ValueError("degree arguments must be nonnegative")
    bound = target_degree + r * (r - 1) // 2
    levels, monomials = _plan(r, bound)
    big, series = _root_series(n, d_max, bound)
    weights = _binomial_powers(n, d_max)
    # parts[d] is P_j[d] of the module docstring, over (d!)^n L^(j*bound)
    parts = [_shifted(s, k, r - 1) for k, s in enumerate(series)]
    for j, level in enumerate(levels[1:], 2):
        factors = [_shifted(s, k, r - j) for k, s in enumerate(series)]
        convolved = []
        for d, row in enumerate(weights):
            total = [0] * len(level)
            for a, w in enumerate(row):
                head, tail = parts[a], [w * c for c in factors[d - a]]
                total = [t + head[p] * tail[m] for t, (p, m) in zip(total, level)]
            convolved.append(total)
        parts = convolved
    stages = _alternation(r, bound)
    out = []
    for d, numer in enumerate(parts):
        for stage in stages:
            total = [0] * len(monomials)
            for sign, gather in stage:
                total = [t + sign * numer[m] for t, m in zip(total, gather)]
            numer = total
        sign = -1 if (r - 1) * d % 2 else 1
        nums = {e: sign * c for e, c in zip(monomials, numer) if c}
        den = factorial(d) ** n * big ** (r * bound)
        out.append(divide_by_vandermonde(ChernPolynomial.from_numerators(r, bound, den, nums)))
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

    The coefficient of H in a symmetric polynomial equals the coefficient of
    any single x_i; all r linear coefficients must agree, otherwise the input
    was not symmetric and AsymmetricSeries is raised.  Both series are read
    off the parts' numerators over the lcm of their denominators.
    """
    den = lcm(*(part.den for part in parts))
    c0 = []
    c1 = []
    for d, part in enumerate(parts):
        r, nums = part.nvars, part.nums
        lin = [nums.get(tuple(int(k == i) for k in range(r)), 0) for i in range(r)]
        if any(l != lin[0] for l in lin[1:]):
            lin = [part.linear_coefficient(i) for i in range(r)]
            raise AsymmetricSeries(
                f"degree-{d} part has unequal linear coefficients {lin}"
            )
        lift = den // part.den
        c0.append(nums.get((0,) * r, 0) * lift)
        c1.append(lin[0] * lift)
    return HSeriesPair(PowerSeries.from_numerators(den, c0), PowerSeries.from_numerators(den, c1))
