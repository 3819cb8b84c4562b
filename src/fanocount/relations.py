"""Symbolic reduction of descendant invariants to counting-matrix entries.

Everything here concerns a rank-1 Fano threefold Y, with H = -K_Y and
degree deg = H^3; the pipeline grades the series of a model of any index
by -K, so these relations serve them all.  The counting matrix packages the
prime two-pointed invariants:

    a_ij = (j - i + 1)/deg * <H^(3-i), H^j>_(j-i+1)

with the structure: a_ij = 0 when j - i + 1 < 0, a_ij = 1 when j - i + 1 = 0
(a classical triple intersection), a_00 = a_33 = 0 (fundamental-class
vanishing), and the anti-diagonal symmetry a_ij = a_(3-j)(3-i), leaving the
five independent entries a01, a11, a02, a12, a03.

Two reductions express every one- and two-pointed descendant invariant with
H-power insertions as a polynomial in those entries.  Both use the dimension
gates on a threefold:

    <tau_k H^m>_d        needs k + m = d + 1,
    <H^p, tau_k H^m>_d   needs p + k + m = d + 2,

with gate-violating keys denoting the zero invariant.

(1) The divisor axiom, iterated to put one H insertion in front:

    <tau_k H^m>_d = (1/d) * sum_{i=0..k} (-1)^i/d^i * <H, tau_(k-i) H^(m+i)>_d.

(2) A two-point recursion that trades one descendant level for a degree
    splitting, with the exponents of every term fixed by the gates:

    <H^a, tau_k H^b>_d = (1/d) * (
        sum_{d1=1..d} a_(d1-d+1+a),a * <H^(d1-d+1+a), tau_(k-1) H^b>_d1
        - <H^a, tau_(k-1) H^(b+1)>_d ).

    The d1 = d term carries weight 1 (a subdiagonal entry) and simply raises
    the first exponent.  A first slot H^0 with descendants left on the other
    point reduces through the fundamental-class axiom to the one-pointed
    invariant <tau_(k-1) H^b>_d, which feeds back into reduction (1); without
    descendants it vanishes.

All returned polynomials are normalized by deg: a function documented to
compute an invariant <...> returns the EntryPolynomial f with <...> = deg*f,
so deg never needs a symbol of its own.  Every insertion validity rule is
funneled through `entry`, whose structural zeros kill out-of-range H-powers;
tests exercise that by overriding `entry` and watching outputs move.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import EntryPolynomial

H_TOP = 3  # top power of the hyperplane class on a threefold

# a_ij for i, j in 0..3, as the rules above state it: 0, 1, or the name of
# the independent entry it equals.  `RelationEngine.entry` and
# `CountingMatrix.rows` both read this table.
ENTRY_LAYOUT: tuple[tuple[int | str, ...], ...] = (
    (0, "a01", "a02", "a03"),
    (1, "a11", "a12", "a02"),
    (0, 1, "a11", "a01"),
    (0, 0, 1, 0),
)
_ONE = Fraction(1)


class GateViolation(ValueError):
    """A requested invariant violates its dimension gate."""


class RelationEngine:
    """Memoized rewriting of descendant invariants into entry polynomials."""

    def __init__(self) -> None:
        # (k, m, d) for <tau_k H^m>_d, (a, k, b, d) for <H^a, tau_k H^b>_d
        self._memo: dict[tuple[int, ...], EntryPolynomial] = {}

    # -- structural layer ---------------------------------------------------

    def entry(self, i: int, j: int) -> EntryPolynomial:
        """Matrix entry a_ij as a polynomial: zero, one, or a canonical variable.

        Indices outside 0..3 stand for insertions H^p with p outside 0..3 and
        give the zero polynomial; the rest read `ENTRY_LAYOUT`.
        """
        if not (0 <= i <= H_TOP and 0 <= j <= H_TOP):
            return EntryPolynomial.zero()
        a = ENTRY_LAYOUT[i][j]
        return EntryPolynomial.variable(a) if isinstance(a, str) else EntryPolynomial.const(a)

    # -- public surface -----------------------------------------------------

    def two_point_symbol(self, p: int, m: int, d: int) -> EntryPolynomial:
        """Prime two-pointed <H^p, H^m>_d divided by deg.

        Gate-violating keys and d < 1 denote the zero invariant; otherwise the
        value is (1/d) * a_(3-p),m (so the invariant itself is (deg/d) times
        the entry).
        """
        if d < 1 or p + m != d + 2:
            return EntryPolynomial.zero()
        return self.entry(3 - p, m).scale(Fraction(1, d))

    def one_point_relation(self, k: int, d: int) -> EntryPolynomial:
        """<tau_k H^m>_d / deg with m = d + 1 - k forced by the gate.

        Raises GateViolation when the forced insertion H^m does not exist on
        a threefold (m outside 0..3) or when d < 1.
        """
        m = d + 1 - k
        if d < 1 or k < 0 or not 0 <= m <= H_TOP:
            raise GateViolation(
                f"one-pointed key (k={k}, d={d}) forces H^{m}, outside 0..{H_TOP}"
            )
        return self._one_point(k, m, d)

    # -- reduction rules ----------------------------------------------------

    def _one_point(self, k: int, m: int, d: int) -> EntryPolynomial:
        """<tau_k H^m>_d / deg via the iterated divisor axiom."""
        if d < 1 or k < 0:
            return EntryPolynomial.zero()
        if k + m != d + 1:
            return EntryPolynomial.zero()
        key = (k, m, d)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        total = EntryPolynomial.zero()
        for i in range(k + 1):
            term = self._two_point(1, k - i, m + i, d)
            if term.is_zero():
                continue
            total = total + term.scale(Fraction((-1) ** i, d**i))
        result = total.scale(Fraction(1, d))
        self._memo[key] = result
        return result

    def _two_point(self, a: int, k: int, b: int, d: int) -> EntryPolynomial:
        """<H^a, tau_k H^b>_d / deg via the descendant-trading recursion."""
        if d < 1 or k < 0 or a < 0:
            return EntryPolynomial.zero()
        if a + k + b != d + 2:
            return EntryPolynomial.zero()
        key = (a, k, b, d)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if k == 0:
            result = self.two_point_symbol(a, b, d)
        elif a == 0:
            # fundamental class: <1, tau_k H^b>_d = <tau_(k-1) H^b>_d
            result = self._one_point(k - 1, b, d)
        else:
            total = self._two_point(a, k - 1, b + 1, d).scale(-_ONE)
            for d1 in range(1, d + 1):
                p = d1 - d + 1 + a
                weight = self.entry(p, a)
                if weight.is_zero():
                    continue
                inner = self._two_point(p, k - 1, b, d1)
                if inner.is_zero():
                    continue
                total = total + weight * inner
            result = total.scale(Fraction(1, d))
        self._memo[key] = result
        return result


_DEFAULT = RelationEngine()


def one_point_relation(k: int, d: int) -> EntryPolynomial:
    return _DEFAULT.one_point_relation(k, d)
