"""I-series of Grassmannians G(r, n) from the residue sum over Chern roots.

The degree-d part of the series is

    (-1)^((r-1)d) * sum_{d_1+..+d_r=d}
        prod_{i<j} (x_i + d_i - x_j - d_j) / prod_{i<j} (x_i - x_j)
        * S_(d_1)(x_1) * .. * S_(d_r)(x_r),

    S_k(x) = prod_{l=1}^{k} (x + l)^(-n),

expanded as a truncated polynomial in the Chern roots x_1..x_r.  Each factor
(x + l)^(-n) with l >= 1 is an honest power series, l^(-n) (1 + x/l)^(-n),
so the whole degree part is exact.  S_k is a univariate series in one root,
built once per k from S_(k-1) and memoized for one `hv_iseries` call.  Each
composition builds the dense tensor product S_(d_1)(x_1)..S_(d_r)(x_r) over
the monomials of total degree <= bound, multiplies it by
(x_i - x_j + d_i - d_j) one pair at a time, and adds it to one integer
numerator, so the work per composition is polynomial in r.  The monomial
lists and index tables are a plan cached per (r, bound).  Coefficients are
integers over one denominator per degree, (d!)^n * lcm(1..d)^(r*bound), as
in FLINT's `fmpq_poly`.  The full numerator, summed over every composition, goes to
`divide_by_vandermonde` once per degree, which divides it exactly in integers
(the divisor's coefficients are +-1).

The cohomology of the ambient space is only needed modulo H^2 downstream,
where H = x_1 + .. + x_r, so `extract_h_pair` collapses each degree part to
the pair (constant term, coefficient of any single x_i), and the pipeline
truncates the degree parts at total degree 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def harmonic(m: int) -> Fraction:
    """m-th harmonic number, with harmonic(0) = 0, summed over lcm(1..m)."""
    den = lcm(*range(1, m + 1))
    return Fraction(sum(den // i for i in range(1, m + 1)), den)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


# Root series T_k keyed by (n, k, bound); one memo serves one hv_iseries call.
_SeriesMemo = dict[tuple[int, int, int], tuple[int, ...]]


def _root_series(n: int, k: int, bound: int, memo: _SeriesMemo) -> tuple[int, ...]:
    """Integer numerators T_k of S_k(x) = prod_{l=1}^{k} (x + l)^(-n) through x^bound.

    The coefficient of x^m is T_k[m] / ((k!)^n * L_k^m) with L_k = lcm(1..k).
    S_k = S_(k-1) * (x + k)^(-n), and (x + k)^(-n) has x^b coefficient
    (-1)^b C(n+b-1, b) / k^(n+b), so

        T_k[m] = sum_{a+b=m} T_(k-1)[a] (L_k/L_(k-1))^a (-1)^b C(n+b-1, b) (L_k/k)^b.
    """
    if k == 0:
        return (1,) + (0,) * bound
    key = (n, k, bound)
    if key not in memo:
        prev = _root_series(n, k - 1, bound, memo)
        big, step = lcm(*range(1, k + 1)), lcm(*range(1, k))
        lift = [(big // step) ** a for a in range(bound + 1)]
        factor = [(-1) ** b * comb(n + b - 1, b) * (big // k) ** b for b in range(bound + 1)]
        memo[key] = tuple(
            sum(prev[a] * lift[a] * factor[m - a] for a in range(m + 1))
            for m in range(bound + 1)
        )
    return memo[key]


@cache
def _plan(r: int, bound: int):
    """Index tables of the residue sum in r roots through total degree bound.

    Returns (levels, monomials, pairs).  `levels[i]` lists (parent index,
    exponent of x_(i+1)) per monomial in the first i+1 roots, so a tensor
    product of root series is one list comprehension per root.  `pairs`
    holds, per pair i<j, the index of x^e / x_i and of x^e / x_j for each
    monomial x^e, or -1 where that exponent is 0, so multiplying by
    (x_i - x_j + c) is one list comprehension over a list ending in a 0.
    """
    exps: list[tuple[int, ...]] = [()]
    levels = []
    for _ in range(r):
        level = [(p, m) for p, e in enumerate(exps) for m in range(bound + 1 - sum(e))]
        exps = [exps[p] + (m,) for p, m in level]
        levels.append(tuple(level))
    index = {e: k for k, e in enumerate(exps)}

    def below(e: tuple[int, ...], i: int) -> int:
        return index[e[:i] + (e[i] - 1,) + e[i + 1 :]] if e[i] else -1

    pairs = tuple(
        (i, j, tuple(below(e, i) for e in exps), tuple(below(e, j) for e in exps))
        for i in range(r)
        for j in range(i + 1, r)
    )
    return tuple(levels), tuple(exps), pairs


def _degree_part(
    spec: GrassmannianSpec, d: int, target_degree: int, memo: _SeriesMemo
) -> ChernPolynomial:
    r, n = spec.r, spec.n
    if r < 2:
        raise ValueError("the residue sum needs r >= 2; use projective_iseries for r = 1")
    if d < 0 or target_degree < 0:
        raise ValueError("degree arguments must be nonnegative")
    bound = target_degree + r * (r - 1) // 2
    levels, monomials, pairs = _plan(r, bound)
    big = lcm(*range(1, d + 1))
    # S_k over the degree's shared denominator: T_k[m] * (L_d/L_k)^m * L_d^(bound-m)
    # is the x^m numerator over (k!)^n * L_d^bound.
    lifted = []
    for k in range(d + 1):
        ratio = big // lcm(*range(1, k + 1))
        lifted.append(
            [t * ratio**m * big ** (bound - m) for m, t in enumerate(_root_series(n, k, bound, memo))]
        )
    numer = [0] * len(monomials)
    for comp in _compositions(d, r):
        # (d! / prod d_i!)^n brings prod (d_i!)^n up to (d!)^n.
        vals = [(factorial(d) // prod(factorial(k) for k in comp)) ** n]
        for level, k in zip(levels, comp):
            series = lifted[k]
            vals = [vals[p] * series[m] for p, m in level]
        # times prod_{i<j} (x_i - x_j + d_i - d_j); the appended 0 is what a
        # monomial without x_i (index -1) reads for x^e / x_i.
        for i, j, below_i, below_j in pairs:
            shift = comp[i] - comp[j]
            vals.append(0)
            vals = [shift * v + vals[a] - vals[b] for v, a, b in zip(vals, below_i, below_j)]
        numer = [t + v for t, v in zip(numer, vals)]
    den = factorial(d) ** n * big ** (r * bound)
    sign = (-1) ** ((r - 1) * d)
    return divide_by_vandermonde(
        ChernPolynomial(
            r, bound, {e: Fraction(sign * c, den) for e, c in zip(monomials, numer) if c}
        )
    )


def hv_iseries(spec: GrassmannianSpec, d_max: int, target_degree: int) -> list[ChernPolynomial]:
    """Degree parts d = 0..d_max of the G(r, n) I-series, sharing one root-series memo."""
    memo: _SeriesMemo = {}
    return [_degree_part(spec, d, target_degree, memo) for d in range(d_max + 1)]


def projective_iseries(n: int, d_max: int) -> HSeriesPair:
    """I-series of P^(n-1) mod H^2: sum_d q^d prod_{i=1}^{d} (H + i)^(-n)."""
    if n < 2:
        raise ValueError("projective space needs n >= 2")
    c0 = [Fraction(1)]
    c1 = [Fraction(0)]
    for d in range(1, d_max + 1):
        base = Fraction(1, factorial(d) ** n)
        c0.append(base)
        c1.append(-n * harmonic(d) * base)
    return HSeriesPair(PowerSeries(tuple(c0)), PowerSeries(tuple(c1)))


def extract_h_pair(parts: list[ChernPolynomial]) -> HSeriesPair:
    """Collapse degree parts to (constant, H^1) coefficients.

    The coefficient of H in a symmetric polynomial equals the coefficient of
    any single x_i; all r linear coefficients must agree, otherwise the input
    was not symmetric and AsymmetricSeries is raised.
    """
    c0 = []
    c1 = []
    for d, part in enumerate(parts):
        lin = [part.linear_coefficient(i) for i in range(part.nvars)]
        if any(l != lin[0] for l in lin[1:]):
            raise AsymmetricSeries(
                f"degree-{d} part has unequal linear coefficients {lin}"
            )
        c0.append(part.constant_term())
        c1.append(lin[0])
    return HSeriesPair(PowerSeries(tuple(c0)), PowerSeries(tuple(c1)))
