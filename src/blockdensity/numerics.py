"""Exact arithmetic substrate: canonical rationals, Cantor pairing, and an
injective enumeration of the rationals strictly between 1 and 2.

Everything is integer-exact. Block endpoints and lengths overflow 64-bit words
near k = 21, so naturals are plain Python ints throughout.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

Rat = Fraction

ONE = Fraction(1)
TWO = Fraction(2)


def rat_make(num: int, den: int) -> Rat:
    """Canonical reduced rational num/den with positive denominator."""
    if den == 0:
        raise ValueError("rational with zero denominator")
    return Fraction(num, den)


def rat_str(q: Rat) -> str:
    """Serialize as 'p/q' with q > 0; the denominator is always written."""
    return "%d/%d" % (q.numerator, q.denominator)


def rat_parse(text: str) -> Rat:
    """Parse 'p/q' (or a bare integer) into a canonical rational."""
    s = text.strip()
    if "/" in s:
        p, q = s.split("/", 1)
        return rat_make(int(p), int(q))
    return Fraction(int(s))


def is_int(value) -> bool:
    """Whether value is an int and not a bool: what json.loads makes of a
    JSON integer, and of nothing else."""
    return isinstance(value, int) and not isinstance(value, bool)


def cantor_pair(x: int, y: int) -> int:
    """The bijection (x, y) -> (x+y)(x+y+1)/2 + y."""
    s = x + y
    return s * (s + 1) // 2 + y


def cantor_unpair(n: int) -> tuple[int, int]:
    """Inverse of cantor_pair."""
    w = (isqrt(8 * n + 1) - 1) // 2
    y = n - w * (w + 1) // 2
    return w - y, y


# Reduced fractions p/q with q < p < 2q, listed by denominator then numerator.
_RAT_SEQ: list[Fraction] = []
_RAT_NEXT_DEN = 2


def enum_rationals_12(i: int) -> Rat:
    """The i-th rational in (1, 2) under (denominator, numerator) order."""
    global _RAT_NEXT_DEN
    if i < 0:
        raise ValueError("enumeration index must be a natural number")
    while len(_RAT_SEQ) <= i:
        den = _RAT_NEXT_DEN
        for num in range(den + 1, 2 * den):
            if gcd(num, den) == 1:
                _RAT_SEQ.append(Fraction(num, den))
        _RAT_NEXT_DEN += 1
    return _RAT_SEQ[i]
