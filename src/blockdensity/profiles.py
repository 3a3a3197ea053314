"""Uniformly computable block-density profile families and gap certificates.

Two primitive families: constant (one fixed density per index) and
order-driven (beta exactly on the blocks whose 2-adic valuation lies below the
index in a supplied partial order). The oscillating family is the order-driven
one over the discrete order, and the combined family interleaves the constant
family on even indices with the oscillating one on odd indices. A gap
certificate names the ordered index pairs that are scheduled for
diagonalization, with a positive rational gap and a strictly increasing
selector of witness blocks with its first block past a frontier in closed form,
all read from one rule per family: (i, j) -> None or (gap, selector class).

A family is built from one primitive, a per-index profile builder
i -> (k -> u_i(k)), and builds each index's profile once: a constant index
returns its fixed rational, an order-driven index asks the order once per
valuation class and remembers the answer, and a combined index is the profile
of the half it reads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .numerics import ONE, TWO, enum_rationals_12
from .posets import FinitePoset


def two_adic_valuation(k: int) -> int:
    """Exponent of the largest power of two dividing k (k > 0)."""
    if k <= 0:
        raise ValueError("2-adic valuation needs a positive argument")
    return (k & -k).bit_length() - 1


class ProfileFamily:
    """A total map (index, block) -> density in (1, 2).

    Built from one per-index profile builder i -> (k -> u_i(k)); each index's
    profile is built once.
    """

    def __init__(self, build: Callable[[int], Callable[[int], Fraction]]) -> None:
        self._build = build
        self._profiles: dict[int, Callable[[int], Fraction]] = {}

    def profile(self, i: int) -> Callable[[int], Fraction]:
        """The single-index density function k -> u_i(k), for natural i."""
        u = self._profiles.get(i)
        if u is None:
            if i < 0:
                raise ValueError("profile evaluation needs natural arguments")
            u = self._profiles[i] = self._build(i)
        return u


class GapCertificate:
    """Scheduled pairs with their gap and witness-block selector, from one rule.

    rule(i, j) is None when the pair is not scheduled, else (delta, v) with
    delta > 0 the gap and v the selector class: v = None selects every block,
    s(i, j, t) = t, and an int v the blocks of 2-adic valuation v,
    s(i, j, t) = 2^v * (2t + 1). Either selector is strictly increasing, and
    first_past(i, j, F) is the least t with s(i, j, t) > F (F >= -1): the
    domination search starts its scan there. k0(i, j) is the profile lemma's
    threshold K0 = max(3, ceil(5/delta)): every selected block from K0 on is
    longer than the opposing prefix (see the construction module).
    """

    def __init__(self, rule: Callable[[int, int], tuple[Fraction, int | None] | None]) -> None:
        self.rule = rule
        # Each scheduled pair's (delta, v, K0), decided once per pair; a pair
        # that is not scheduled is decided again on each call.
        self._gaps: dict[tuple[int, int], tuple[Fraction, int | None, int]] = {}

    def in_D(self, i: int, j: int) -> bool:
        """Whether (i, j) is scheduled; a negative index raises ValueError,
        and a scheduled gap <= 0 AssertionError, as it proves nothing."""
        if (i, j) not in self._gaps:
            if i < 0 or j < 0:
                raise ValueError("pair (%d, %d) needs natural indices" % (i, j))
            gap = self.rule(i, j)
            if gap is None:
                return False
            delta, v = gap
            if delta <= 0:
                raise AssertionError("pair (%d, %d) has gap %s <= 0" % (i, j, delta))
            self._gaps[i, j] = delta, v, max(3, -(-5 // delta))   # ceil(5/delta), exactly
        return True

    def _gap(self, i: int, j: int) -> tuple[Fraction, int | None, int]:
        if not self.in_D(i, j):
            raise ValueError("pair (%d, %d) carries no gap certificate" % (i, j))
        return self._gaps[i, j]

    def k0(self, i: int, j: int) -> int:
        return (self._gaps.get((i, j)) or self._gap(i, j))[2]

    def s(self, i: int, j: int, t: int) -> int:
        v = (self._gaps.get((i, j)) or self._gap(i, j))[1]
        return t if v is None else (2 * t + 1) << v

    def first_past(self, i: int, j: int, frontier: int) -> int:
        v = (self._gaps.get((i, j)) or self._gap(i, j))[1]
        return frontier + 1 if v is None else ((frontier >> v) + 1) >> 1   # 2t + 1 > F >> v


def constant_family() -> tuple[ProfileFamily, GapCertificate]:
    """Index i carries the fixed density q_i from the rational enumeration."""
    def profile(i: int) -> Callable[[int], Fraction]:
        u = enum_rationals_12(i)
        return lambda k: u

    def rule(i: int, j: int) -> tuple[Fraction, None] | None:
        delta = enum_rationals_12(i) - enum_rationals_12(j)
        return (delta, None) if delta > 0 else None

    return ProfileFamily(profile), GapCertificate(rule)


def poset_family(
    order, alpha: Fraction, beta: Fraction
) -> tuple[ProfileFamily, GapCertificate]:
    """Index i peaks at beta on the blocks whose valuation is below i in order.

    The order is one on every natural, a FinitePoset or UniversalPoset,
    whose leq(a, b) decides a <= b; pairs (i, j) with i not below j are
    scheduled. A block k > 0 lies in exactly one valuation class, so its
    valuation decides the value; each index's profile asks the order once per
    valuation class it meets.
    """
    if not (ONE < alpha < beta < TWO):
        raise ValueError("need 1 < alpha < beta < 2, got alpha=%s beta=%s" % (alpha, beta))
    if not hasattr(order, "leq"):
        raise ValueError("order must provide a leq(a, b) decision procedure")

    def profile(i: int) -> Callable[[int], Fraction]:
        # The value on each valuation class met so far, keyed by the class's
        # lowest set bit 2^v.
        classes: dict[int, Fraction] = {}

        def u(k: int) -> Fraction:
            if k <= 0:
                return alpha
            low = k & -k
            value = classes.get(low)
            if value is None:
                below = order.leq(two_adic_valuation(k), i)
                value = classes[low] = beta if below else alpha
            return value

        return u

    def rule(i: int, j: int) -> tuple[Fraction, int] | None:
        return None if order.leq(i, j) else (beta - alpha, i)

    return ProfileFamily(profile), GapCertificate(rule)


def oscillating_family(
    alpha: Fraction, beta: Fraction
) -> tuple[ProfileFamily, GapCertificate]:
    """Index n peaks at beta exactly on the blocks with 2-adic valuation n.

    This is the poset family over the discrete order, which relates each
    index only to itself.
    """
    return poset_family(FinitePoset(()), alpha, beta)


def combined_family(
    alpha: Fraction, beta: Fraction
) -> tuple[ProfileFamily, GapCertificate]:
    """Index 2m reads the constant family at m, index 2m + 1 the oscillating
    family at m; even and odd indices are never scheduled against each other.
    """
    halves = (constant_family(), oscillating_family(alpha, beta))
    family = ProfileFamily(lambda i: halves[i % 2][0].profile(i // 2))
    cert = GapCertificate(
        lambda i, j: halves[i % 2][1].rule(i // 2, j // 2) if i % 2 == j % 2 else None)
    return family, cert
