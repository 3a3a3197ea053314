"""Factorial block geometry.

Target blocks partition the naturals into runs of length k!; each profile
stretches them into source blocks of length floor(u(k) * k!). A coded family
keeps one TargetBlocks, the only k! table; its source blocks cache their
endpoints, so a source block's length is the difference of two endpoints.

A profile value p/q is reduced, so q | p * k! exactly when q | k!, which then
holds at every later block. A source finds that first block once per
denominator q, by the remainder, and keeps it. Its extension is one loop over
a cursor in locals: the last value, its pair (q, p) found by the value
object's id, and the quotient k!/q. Once q | k!, a block costs a small
multiply and an add, p * (k!/q); before, floor(p * k! / q) reads the target's
k!. Only a change of denominator touches state per q: one division (k-1)!/q.
ratio(k), k!/|K_k| exactly as a pair (n, d), is derived on demand: (q, p) from
q's first exact block on, one pair shared by the value's blocks, so the maps
scale by small integers; (k!, |K_k|) before it.
Caches grow on demand (the stage construction can reference very large block
indices, so precomputing to a fixed bound would be wrong); block location is
a binary search over the cached monotone endpoints.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Callable

from .numerics import ONE, TWO


class TargetBlocks:
    """Endpoints a_0 = 0, a_{k+1} = a_k + k! and the blocks [a_k, a_{k+1})."""

    def __init__(self) -> None:
        self._fact = [1]      # k! for each cached k
        self._ends = [0, 1]   # a_0 .. a_{K+1} with K = len(_fact) - 1

    def _extend(self, k: int | None = None, beyond: int | None = None) -> None:
        facts, ends = self._fact, self._ends
        # Endpoints are natural, so a bound of -1 never holds.
        last = -1 if k is None else k
        bound = -1 if beyond is None else beyond
        m, fact, a = len(facts), facts[-1], ends[-1]
        while m <= last or a <= bound:
            fact *= m
            a += fact
            facts.append(fact)
            ends.append(a)
            m += 1

    def endpoint(self, k: int) -> int:
        if k >= len(self._ends):
            self._extend(k=k)
        return self._ends[k]

    def size(self, k: int) -> int:
        """|I_k| = k!."""
        if k >= len(self._fact):
            self._extend(k=k)
        return self._fact[k]

    def block(self, k: int) -> tuple[int, int]:
        """Half-open interval [a_k, a_{k+1})."""
        return self.endpoint(k), self.endpoint(k + 1)

    def locate(self, x: int) -> int:
        """The unique k with a_k <= x < a_{k+1}."""
        if x < 0:
            raise ValueError("block location needs a natural number")
        if self._ends[-1] <= x:
            self._extend(beyond=x)
        return bisect_right(self._ends, x) - 1


class SourceBlocks:
    """Per-profile endpoints b_0 = 0, b_{k+1} = b_k + floor(u(k) * k!)."""

    def __init__(self, profile: Callable[[int], Fraction], targets: TargetBlocks) -> None:
        self._profile = profile
        self._targets = targets
        self._ends = [0]
        # id(u) -> (u, (q, p)) per value object met, band-checked once; u is
        # held so that its id is not reused.
        self._pairs: dict[int, tuple[Fraction, tuple[int, int]]] = {}
        # q -> the first block m with q | m!, once a block of q reaches it.
        self._first: dict[int, int] = {}
        # The last block m's value u = p/q, then p, q and m!/q (0 before q | m!).
        self._cursor: tuple = (None, 0, 0, 0)
        # ratio's last block and answer: the maps ask about a block in runs.
        self._asked: tuple = (-1, None)

    def _extend(self, k: int | None = None, beyond: int | None = None) -> None:
        ends, pairs, first = self._ends, self._pairs, self._first
        profile, size = self._profile, self._targets.size
        last_u, p, q, quo = self._cursor
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
                uq, p = entry[1]
                if uq != q:
                    # A new denominator: (m - 1)!/q by one division, if exact.
                    q = uq
                    quo = size(m - 1) // q if q in first else 0
            if quo:
                quo *= m
                ln = p * quo
            else:
                ln, rem = divmod(p * size(m), q)
                if not rem:
                    first[q] = m
                    quo = ln // p
            b += ln
            ends.append(b)
            m += 1
        self._cursor = (last_u, p, q, quo)

    def length(self, k: int) -> int:
        """|K_k| = floor(u(k) * k!) = b_{k+1} - b_k."""
        if k + 1 >= len(self._ends):
            self._extend(k=k)
        return self._ends[k + 1] - self._ends[k]

    def ratio(self, k: int) -> tuple[int, int]:
        """(n, d) with n / d = k! / |K_k| exactly; (q, p) when q | p * k!."""
        if k == self._asked[0]:
            return self._asked[1]
        ends = self._ends
        if k + 1 >= len(ends):
            self._extend(k=k)
        u = self._profile(k)
        entry = self._pairs.get(id(u))
        pair = (u.denominator, u.numerator) if entry is None else entry[1]
        if self._first.get(pair[0], k + 1) > k:
            pair = self._targets.size(k), ends[k + 1] - ends[k]
        self._asked = (k, pair)
        return pair

    def endpoint(self, k: int) -> int:
        if k >= len(self._ends):
            self._extend(k=k - 1)
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
