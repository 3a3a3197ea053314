"""Factorial block geometry.

Target blocks partition the naturals into runs of length k!; each profile
stretches them into source blocks of length floor(u(k) * k!). A coded family
keeps one TargetBlocks, the only k! table: its source blocks read k! from it
and cache their endpoints, so a source block's length is the difference of two
endpoints. Each source block also caches its exact ratio k!/|K_k| as a pair
(n, d): where the profile value p/q has q | p * k!, the pair is (q, p), shared
by every block with that value, so the compression maps multiply and divide by
small integers instead of k!-wide ones; elsewhere it is (k!, |K_k|). Caches
grow on demand (the stage construction can reference very large block indices,
so precomputing to a fixed bound would be wrong); block location is a binary
search over the cached monotone endpoints.
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
        while (k is not None and len(self._ends) <= k + 1) or (
            beyond is not None and self._ends[-1] <= beyond
        ):
            nxt = len(self._fact)
            self._fact.append(self._fact[-1] * nxt)
            self._ends.append(self._ends[-1] + self._fact[-1])

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

    k! comes from targets, the family's shared TargetBlocks. Each block also
    keeps its exact ratio k!/|K_k|.
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

    def _extend(self, k: int | None = None, beyond: int | None = None) -> None:
        ends = self._ends
        while (k is not None and len(ends) <= k + 1) or (
            beyond is not None and ends[-1] <= beyond
        ):
            m = len(ends) - 1
            u = self._profile(m)
            key = (u.denominator, u.numerator)
            reduced = self._reduced.get(key)
            if reduced is None:
                if not ONE < u < TWO:
                    raise ValueError(
                        "profile value %s at block %d outside (1, 2)" % (u, m)
                    )
                reduced = self._reduced[key] = key
            q, p = reduced
            fact = self._targets.size(m)
            ln, rem = divmod(p * fact, q)
            ends.append(ends[-1] + ln)
            self._ratios.append((fact, ln) if rem else reduced)

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
