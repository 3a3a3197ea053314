"""Uniformly computable block-density profile families and gap certificates.

Four family shapes: constant (one fixed density per index), oscillating
(density beta exactly on the blocks whose 2-adic valuation matches the index),
combined (constants on even indices, oscillators on odd ones), and order-driven
(beta exactly on blocks whose valuation lies below the index in a supplied
partial order). A gap certificate names the ordered index pairs that are
scheduled for diagonalization, with a positive rational gap and a strictly
increasing selector of witness blocks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .numerics import ONE, TWO, enum_rationals_12


def two_adic_valuation(k: int) -> int:
    """Exponent of the largest power of two dividing k (k > 0)."""
    if k <= 0:
        raise ValueError("2-adic valuation needs a positive argument")
    return (k & -k).bit_length() - 1


def in_Z(n: int, k: int) -> bool:
    """True iff k > 0 and the 2-adic valuation of k equals n."""
    return k > 0 and (k & -k) == (1 << n)


_NOT_NATURAL = "profile evaluation needs natural arguments"


class ProfileFamily:
    """A total map (index, block) -> density in (1, 2)."""

    def __init__(self, value_fn: Callable[[int, int], Fraction]) -> None:
        self._value = value_fn

    def value(self, i: int, k: int) -> Fraction:
        if i < 0 or k < 0:
            raise ValueError(_NOT_NATURAL)
        return self._value(i, k)

    def profile(self, i: int) -> Callable[[int], Fraction]:
        """The single-index density function k -> u_i(k), for natural i."""
        if i < 0:
            raise ValueError(_NOT_NATURAL)
        return lambda k: self._value(i, k)


class GapCertificate:
    """Scheduled pairs with their gap and witness-block selector.

    For every scheduled pair the selector t -> s(i, j, t) must be strictly
    increasing on the naturals, so s(i, j, t) >= t. The domination search
    relies on this to find the first selected block past a frontier by
    bisection.
    """

    def __init__(
        self,
        in_d_fn: Callable[[int, int], bool],
        delta_fn: Callable[[int, int], Fraction],
        s_fn: Callable[[int, int, int], int],
    ) -> None:
        self._in_d = in_d_fn
        self._delta = delta_fn
        self._s = s_fn

    def in_D(self, i: int, j: int) -> bool:
        return self._in_d(i, j)

    def _require(self, i: int, j: int) -> None:
        if not self._in_d(i, j):
            raise ValueError("pair (%d, %d) carries no gap certificate" % (i, j))

    def delta(self, i: int, j: int) -> Fraction:
        self._require(i, j)
        return self._delta(i, j)

    def s(self, i: int, j: int, t: int) -> int:
        self._require(i, j)
        return self._s(i, j, t)


def _check_band(alpha: Fraction, beta: Fraction) -> None:
    if not (ONE < alpha < beta < TWO):
        raise ValueError(
            "need 1 < alpha < beta < 2, got alpha=%s beta=%s" % (alpha, beta)
        )


def constant_family(count: int) -> tuple[ProfileFamily, GapCertificate]:
    """Index i carries the fixed density q_i from the rational enumeration."""
    family = ProfileFamily(lambda i, k: enum_rationals_12(i))
    cert = GapCertificate(
        lambda i, j: enum_rationals_12(i) > enum_rationals_12(j),
        lambda i, j: enum_rationals_12(i) - enum_rationals_12(j),
        lambda i, j, t: t,
    )
    return family, cert


def oscillating_family(
    alpha: Fraction, beta: Fraction
) -> tuple[ProfileFamily, GapCertificate]:
    """Index n peaks at beta exactly on the blocks with 2-adic valuation n."""
    _check_band(alpha, beta)

    def value(n: int, k: int) -> Fraction:
        return beta if in_Z(n, k) else alpha

    family = ProfileFamily(value)
    cert = GapCertificate(
        lambda n, m: n != m,
        lambda n, m: beta - alpha,
        lambda n, m, t: (1 << n) * (2 * t + 1),
    )
    return family, cert


def combined_family(
    count: int, alpha: Fraction, beta: Fraction
) -> tuple[ProfileFamily, GapCertificate]:
    """Even indices carry the constant family, odd indices the oscillating one.

    Scheduled pairs are even-even pairs with a strict density drop and odd-odd
    pairs with distinct oscillation supports; even and odd indices are never
    scheduled against each other.
    """
    _check_band(alpha, beta)

    def value(i: int, k: int) -> Fraction:
        if i % 2 == 0:
            return enum_rationals_12(i // 2)
        return beta if in_Z((i - 1) // 2, k) else alpha

    def in_d(i: int, j: int) -> bool:
        if i % 2 == 0 and j % 2 == 0:
            return enum_rationals_12(i // 2) > enum_rationals_12(j // 2)
        if i % 2 == 1 and j % 2 == 1:
            return i != j
        return False

    def delta(i: int, j: int) -> Fraction:
        if i % 2 == 0:
            return enum_rationals_12(i // 2) - enum_rationals_12(j // 2)
        return beta - alpha

    def s(i: int, j: int, t: int) -> int:
        if i % 2 == 0:
            return t
        return (1 << ((i - 1) // 2)) * (2 * t + 1)

    return ProfileFamily(value), GapCertificate(in_d, delta, s)


def poset_family(
    order, alpha: Fraction, beta: Fraction
) -> tuple[ProfileFamily, GapCertificate]:
    """Index i peaks at beta on the blocks whose valuation is below i in order.

    The order must expose a total decision procedure leq(a, b); pairs (i, j)
    with i not below j are scheduled. A block k > 0 lies in exactly one
    valuation class, so one valuation plus one order query decides the value.
    """
    _check_band(alpha, beta)
    if not hasattr(order, "leq"):
        raise ValueError("order must provide a leq(a, b) decision procedure")
    validate = getattr(order, "validate", None)
    if validate is not None:
        validate()

    def value(i: int, k: int) -> Fraction:
        if k > 0 and order.leq(two_adic_valuation(k), i):
            return beta
        return alpha

    family = ProfileFamily(value)
    cert = GapCertificate(
        lambda i, j: not order.leq(i, j),
        lambda i, j: beta - alpha,
        lambda i, j, t: (1 << i) * (2 * t + 1),
    )
    return family, cert

