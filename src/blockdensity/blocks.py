"""Factorial block geometry.

Target blocks partition the naturals into runs of length k!; each profile
stretches them into source blocks of length floor(u(k) * k!). A coded family
keeps one TargetBlocks, the only k! table; its source blocks cache their
endpoints, so a source block's length is the difference of two endpoints.

Each source block also caches its exact ratio k!/|K_k| as a pair (n, d). A
profile value p/q is reduced, so q | p * k! exactly when q | k!, which then
holds at every later block. A source decides that once per denominator q, by
the remainder at the first block where it is 0, and from there carries the
quotient k!/q forward by multiplying by block indices: such a block costs a
small multiply and an add, its length is p * (k!/q), and its ratio is (q, p),
one pair shared by every block with that value, so the compression maps scale
by small integers instead of k!-wide ones. Before that block the length is
floor(p * k! / q), read off the target's k!, and the ratio is (k!, |K_k|).
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
    """Per-profile endpoints b_0 = 0, b_{k+1} = b_k + floor(u(k) * k!).

    Each block also keeps its exact ratio k!/|K_k|. k! comes from targets, the
    family's shared TargetBlocks, only until the block's quotient k!/q is
    exact.
    """

    def __init__(
        self, profile: Callable[[int], Fraction], targets: TargetBlocks
    ) -> None:
        self._profile = profile
        self._targets = targets
        self._ends = [0]
        self._ratios: list[tuple[int, int]] = []
        # (q, p) of each profile value p/q met so far, band-checked once; keyed
        # by the pair itself, since Fraction.__hash__ is slow pure Python.
        self._reduced: dict[tuple[int, int], tuple[int, int]] = {}
        # q -> (m, m!/q) at the last block m with denominator q, from the
        # first block where q | m! on.
        self._exact: dict[int, tuple[int, int]] = {}
        # The last block's profile value and its reduced pair.
        self._last: tuple[Fraction | None, tuple[int, int] | None] = (None, None)

    def _extend(self, k: int | None = None, beyond: int | None = None) -> None:
        ends, ratios, exact = self._ends, self._ratios, self._exact
        profile, reduced, size = self._profile, self._reduced, self._targets.size
        last_u, pair = self._last
        # Endpoints are natural, so a bound of -1 never holds.
        last = -1 if k is None else k
        bound = -1 if beyond is None else beyond
        m = len(ends) - 1
        b = ends[m]
        while m <= last or b <= bound:
            u = profile(m)
            if u is not last_u:
                last_u = u
                key = (u.denominator, u.numerator)
                pair = reduced.get(key)
                if pair is None:
                    if not ONE < u < TWO:
                        raise ValueError(
                            "profile value %s at block %d outside (1, 2)" % (u, m)
                        )
                    pair = reduced[key] = key
            q, p = pair
            cursor = exact.get(q)
            if cursor is not None:
                m0, quo = cursor
                # After a gap, m!/q is one division of the target's m!.
                quo = quo * m if m - m0 == 1 else size(m) // q
                exact[q] = (m, quo)
                ln = p * quo
                ratios.append(pair)
            else:
                fact = size(m)
                ln, rem = divmod(p * fact, q)
                if rem:
                    ratios.append((fact, ln))
                else:
                    exact[q] = (m, ln // p)
                    ratios.append(pair)
            b += ln
            ends.append(b)
            m += 1
        self._last = (last_u, pair)

    def length(self, k: int) -> int:
        """|K_k| = floor(u(k) * k!) = b_{k+1} - b_k."""
        if k + 1 >= len(self._ends):
            self._extend(k=k)
        return self._ends[k + 1] - self._ends[k]

    def ratio(self, k: int) -> tuple[int, int]:
        """(n, d) with n / d = k! / |K_k| exactly; (q, p) when q | p * k!."""
        if k >= len(self._ratios):
            self._extend(k=k)
        return self._ratios[k]

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
