"""Uniformly computable block-density profile families and gap certificates.

Two primitive families: constant (one fixed density per index) and
order-driven (beta exactly on the blocks whose 2-adic valuation lies below the
index in a supplied partial order). The oscillating family is the order-driven
one over the discrete order, and the combined family interleaves the constant
family on even indices with the oscillating one on odd indices. A gap
certificate names the ordered index pairs that are scheduled for
diagonalization, with a positive rational gap and a strictly increasing
selector of witness blocks with its first block past a frontier in closed form.

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
from .posets import FinitePoset, PaddedFiniteOrder


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
    """Scheduled pairs with their gap and witness-block selector.

    For every scheduled pair the selector t -> s(i, j, t) must be strictly
    increasing on the naturals, so s(i, j, t) >= t, and first_fn(i, j, F)
    must be the least t with s(i, j, t) > F (F >= -1): the domination search
    starts its scan at first_past(i, j, F).
    """

    def __init__(
        self,
        in_d_fn: Callable[[int, int], bool],
        delta_fn: Callable[[int, int], Fraction],
        s_fn: Callable[[int, int, int], int],
        first_fn: Callable[[int, int, int], int],
    ) -> None:
        self._in_d = in_d_fn
        self._delta = delta_fn
        self._s = s_fn
        self._first = first_fn
        # Pairs already found in D: membership is decided once per pair.
        self._scheduled: set[tuple[int, int]] = set()

    def in_D(self, i: int, j: int) -> bool:
        if (i, j) in self._scheduled:
            return True
        if not self._in_d(i, j):
            return False
        self._scheduled.add((i, j))
        return True

    def _require(self, i: int, j: int) -> None:
        if (i, j) not in self._scheduled and not self.in_D(i, j):
            raise ValueError("pair (%d, %d) carries no gap certificate" % (i, j))

    def delta(self, i: int, j: int) -> Fraction:
        self._require(i, j)
        return self._delta(i, j)

    def s(self, i: int, j: int, t: int) -> int:
        self._require(i, j)
        return self._s(i, j, t)

    def first_past(self, i: int, j: int, frontier: int) -> int:
        self._require(i, j)
        return self._first(i, j, frontier)


def _check_band(alpha: Fraction, beta: Fraction) -> None:
    if not (ONE < alpha < beta < TWO):
        raise ValueError(
            "need 1 < alpha < beta < 2, got alpha=%s beta=%s" % (alpha, beta)
        )


def constant_family() -> tuple[ProfileFamily, GapCertificate]:
    """Index i carries the fixed density q_i from the rational enumeration."""
    def profile(i: int) -> Callable[[int], Fraction]:
        u = enum_rationals_12(i)
        return lambda k: u

    family = ProfileFamily(profile)
    cert = GapCertificate(
        lambda i, j: enum_rationals_12(i) > enum_rationals_12(j),
        lambda i, j: enum_rationals_12(i) - enum_rationals_12(j),
        lambda i, j, t: t,
        lambda i, j, f: f + 1,
    )
    return family, cert


def poset_family(
    order, alpha: Fraction, beta: Fraction
) -> tuple[ProfileFamily, GapCertificate]:
    """Index i peaks at beta on the blocks whose valuation is below i in order.

    The order must expose a total decision procedure leq(a, b); pairs (i, j)
    with i not below j are scheduled. A block k > 0 lies in exactly one
    valuation class, so its valuation decides the value; each index's profile
    asks the order once per valuation class it meets.
    """
    _check_band(alpha, beta)
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

    family = ProfileFamily(profile)
    cert = GapCertificate(
        lambda i, j: not order.leq(i, j),
        lambda i, j: beta - alpha,
        lambda i, j, t: (1 << i) * (2 * t + 1),
        lambda i, j, f: ((f >> i) + 1) >> 1,   # 2t + 1 > floor(f / 2^i)
    )
    return family, cert


def oscillating_family(
    alpha: Fraction, beta: Fraction
) -> tuple[ProfileFamily, GapCertificate]:
    """Index n peaks at beta exactly on the blocks with 2-adic valuation n.

    This is the poset family over the discrete order, which relates each
    index only to itself.
    """
    return poset_family(PaddedFiniteOrder(FinitePoset(())), alpha, beta)


def combined_family(
    alpha: Fraction, beta: Fraction
) -> tuple[ProfileFamily, GapCertificate]:
    """Index 2m reads the constant family at m, index 2m + 1 the oscillating
    family at m; even and odd indices are never scheduled against each other.
    """
    halves = (constant_family(), oscillating_family(alpha, beta))
    family = ProfileFamily(lambda i: halves[i % 2][0].profile(i // 2))
    cert = GapCertificate(
        lambda i, j: i % 2 == j % 2 and halves[i % 2][1]._in_d(i // 2, j // 2),
        lambda i, j: halves[i % 2][1]._delta(i // 2, j // 2),
        lambda i, j, t: halves[i % 2][1]._s(i // 2, j // 2, t),
        lambda i, j, f: halves[i % 2][1]._first(i // 2, j // 2, f),
    )
    return family, cert
