"""Factorial block geometry.

Target blocks partition the naturals into runs of length k!; each profile u
stretches them into source blocks of length floor(u(k) * k!), so the target
blocks are the source blocks of the constant profile 1. One class,
SourceBlocks, extends, caches and locates both, and TargetBlocks is it over
that profile. A block's length is the difference of two cached endpoints.

Each table extends in one loop whose cursor carries the last profile value,
its pair (q, p) and k!. Block k costs one divmod(p * k!, q): the quotient is
|K_k|, and the remainder decides ratio(k), k!/|K_k| exactly as a pair
(n, d), which the loop appends to a list as it goes: (q, p) when q | p * k!,
so the maps scale by small integers, else (k!, |K_k|). Caches grow on
demand (the stage construction can reference very large block indices, so
precomputing to a fixed bound would be wrong); block location is a binary
search over the cached monotone endpoints. Reads refuse a negative block
index.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Callable

from .numerics import ONE, TWO


class SourceBlocks:
    """Per-profile endpoints b_0 = 0, b_{k+1} = b_k + floor(u(k) * k!)."""

    def __init__(self, profile: Callable[[int], Fraction]) -> None:
        self._profile = profile
        self._ends = [0]
        # Per block k: k!/|K_k| as (q, p) when q | p * k!, else (k!, |K_k|).
        self._ratios: list[tuple[int, int]] = []
        # The value u = p/q met last, band-checked then, its pair (q, p), and
        # m! for the next block m.
        self._cursor: tuple = (None, (0, 0), 1)

    def _extend(self, k: int | None = None, beyond: int | None = None) -> None:
        ends, ratios, profile = self._ends, self._ratios, self._profile
        last_u, pair, fact = self._cursor
        q, p = pair
        # Endpoints are natural, so a bound of -1 never holds.
        last = -1 if k is None else k
        bound = -1 if beyond is None else beyond
        m = len(ends) - 1
        b = ends[m]
        while m <= last or b <= bound:
            u = profile(m)
            if u is not last_u:
                if not ONE < u < TWO:
                    raise ValueError(
                        "profile value %s at block %d outside (1, 2)" % (u, m)
                    )
                last_u = u
                q, p = pair = u.denominator, u.numerator
            ln, rem = divmod(p * fact, q)
            b += ln
            ends.append(b)
            ratios.append((fact, ln) if rem else pair)
            m += 1
            fact *= m
        self._cursor = (last_u, pair, fact)

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
        if not 0 <= k < len(self._ratios):
            self._reach(k, k)
        return self._ratios[k]

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
        super().__init__(lambda k: ONE)
        # 1 is outside the sources' band (1, 2), so this table's own cursor
        # starts with it as checked, and no source's band check is loosened.
        self._cursor = (ONE, (1, 1), 1)

    size = SourceBlocks.length
