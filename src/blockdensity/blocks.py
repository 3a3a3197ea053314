"""Factorial block geometry.

Target blocks partition the naturals into runs of length k!; each profile u
stretches them into source blocks of length floor(u(k) * k!), so the target
blocks are the source blocks of the constant profile 1. One class,
SourceBlocks, extends, caches and locates both, and TargetBlocks is it over
that profile. A block's length is the difference of two cached endpoints;
a coded family's sources read k! as the target's lengths.

A profile value p/q is reduced, so q | p * k! exactly when q | k!, which then
holds at every later block. Extension is one loop over a cursor in locals:
the last value, its pair (q, p) found by the value object's id, and the
quotient k!/q, 0 until q | k!. Once q | k!, a block costs a small multiply
and an add, p * (k!/q); before, and at a change of denominator,
floor(p * k! / q) reads k!, and its remainder decides whether q | k!. The
target's q = 1 divides 0!, so it reads k! once and carries it after that.
The loop records each block's exactness as it goes, so ratio(k), k!/|K_k|
exactly as a pair (n, d), is a read: (q, p) once q | k!, one pair shared by
the value's blocks, so the maps scale by small integers; (k!, |K_k|) before.
Caches grow on demand (the stage construction can reference very large block
indices, so precomputing to a fixed bound would be wrong); block location is
a binary search over the cached monotone endpoints. Reads refuse a negative
block index.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import factorial
from typing import Callable

from .numerics import ONE, TWO


class SourceBlocks:
    """Per-profile endpoints b_0 = 0, b_{k+1} = b_k + floor(u(k) * size(k))."""

    def __init__(self, profile: Callable[[int], Fraction], size: Callable[[int], int]) -> None:
        self._profile = profile
        self._size = size
        self._ends = [0]
        # id(u) -> (u, (q, p)) per value object met, band-checked once; u is
        # held so that its id is not reused.
        self._pairs: dict[int, tuple[Fraction, tuple[int, int]]] = {}
        # Per block k: its value's (q, p) when q | k!, else None.
        self._exact: list[tuple[int, int] | None] = []
        # The last block m's value u = p/q, its pair (q, p) and m!/q (0
        # before q | m!).
        self._cursor: tuple = (None, (0, 0), 0)

    def _extend(self, k: int | None = None, beyond: int | None = None) -> None:
        ends, exact, pairs = self._ends, self._exact, self._pairs
        profile, size = self._profile, self._size
        last_u, pair, quo = self._cursor
        q, p = pair
        # Endpoints are natural, so a bound of -1 never holds.
        last = -1 if k is None else k
        bound = -1 if beyond is None else beyond
        m = len(ends) - 1
        b = ends[m]
        while m <= last or b <= bound:
            u = profile(m)
            if u is not last_u:
                last_u = u
                entry = pairs.get(id(u))
                if entry is None:
                    if not ONE < u < TWO:
                        raise ValueError(
                            "profile value %s at block %d outside (1, 2)" % (u, m)
                        )
                    entry = pairs[id(u)] = (u, (u.denominator, u.numerator))
                if entry[1][0] != q:
                    # A new denominator: the remainder below decides q | m!.
                    quo = 0
                q, p = pair = entry[1]
            if quo:
                quo *= m
                ln = p * quo
            else:
                ln, rem = divmod(p * size(m), q)
                if not rem:
                    quo = ln // p
            b += ln
            ends.append(b)
            exact.append(pair if quo else None)
            m += 1
        self._cursor = (last_u, pair, quo)

    def _reach(self, k: int, last: int) -> None:
        if k < 0:
            raise ValueError("block index %d is negative" % k)
        self._extend(k=last)

    def length(self, k: int) -> int:
        """|K_k| = floor(u(k) * k!) = b_{k+1} - b_k."""
        if not 0 <= k < len(self._ends) - 1:
            self._reach(k, k)
        return self._ends[k + 1] - self._ends[k]

    def ratio(self, k: int) -> tuple[int, int]:
        """(n, d) with n / d = k! / |K_k| exactly; (q, p) when q | p * k!."""
        if not 0 <= k < len(self._exact):
            self._reach(k, k)
        pair = self._exact[k]
        if pair is None:
            return self._size(k), self._ends[k + 1] - self._ends[k]
        return pair

    def endpoint(self, k: int) -> int:
        if not 0 <= k < len(self._ends):
            self._reach(k, k - 1)
        return self._ends[k]

    def block(self, k: int) -> tuple[int, int]:
        """Half-open interval [b_k, b_{k+1})."""
        return self.endpoint(k), self.endpoint(k + 1)

    def locate(self, x: int) -> tuple[int, int]:
        """The unique (k, r) with x = b_k + r and 0 <= r < |K_k|."""
        if x < 0:
            raise ValueError("block location needs a natural number")
        if self._ends[-1] <= x:
            self._extend(beyond=x)
        k = bisect_right(self._ends, x) - 1
        return k, x - self._ends[k]


class TargetBlocks(SourceBlocks):
    """Endpoints a_0 = 0, a_{k+1} = a_k + k!: the constant profile 1's."""

    def __init__(self) -> None:
        super().__init__(lambda k: ONE, factorial)
        # 1 is outside the sources' band (1, 2), so its pair is seeded in this
        # table's own cache and no source's band check is loosened.
        self._pairs[id(ONE)] = (ONE, (1, 1))

    size = SourceBlocks.length
