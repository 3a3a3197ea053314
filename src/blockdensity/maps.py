"""Block-coded maps over a profile family.

For each index the compression map sends the k-th source block onto the k-th
target block by proportional rounding; its fibers are integer intervals of
size one or two, computed analytically (no scanning). All three maps scale by
the exact ratio k!/|K_k| each source block caches, q/p for the usual
small-denominator profiles, so they cost time linear in the size of their
arguments; h_apply and h_fibers do that arithmetic in one frame, on the source
block read from the cache. Pointwise dominated pairs get blockwise
translations, and block collapse witnesses that a block-constant set reduces
to itself nontrivially.
"""

from __future__ import annotations

from .blocks import SourceBlocks, TargetBlocks
from .profiles import ProfileFamily


class ReductionPreconditionError(ValueError):
    """Translation needs the source block no longer than the destination one."""

    def __init__(self, k: int, len_i: int, len_j: int) -> None:
        super().__init__(
            "block %d: source length %d exceeds destination length %d"
            % (k, len_i, len_j)
        )
        self.k = k
        self.len_i = len_i
        self.len_j = len_j


class CodedFamily:
    """A profile family together with its block geometry and coded maps."""

    def __init__(self, family: ProfileFamily) -> None:
        self.family = family
        self.targets = TargetBlocks()
        self._sources: dict[int, SourceBlocks] = {}

    def source(self, i: int) -> SourceBlocks:
        blocks = self._sources.get(i)
        if blocks is None:
            blocks = SourceBlocks(self.family.profile(i))
            self._sources[i] = blocks
        return blocks

    def h_apply(self, i: int, x: int) -> int:
        """Image of x under the i-th compression map."""
        src = self._sources.get(i) or self.source(i)
        k, r = src.locate(x)
        n, d = src.ratio(k)
        return self.targets.endpoint(k) + (r * n) // d

    def h_fibers(self, i: int, y: int) -> list[int]:
        """All preimages of y under the i-th compression map (one or two)."""
        src = self._sources.get(i) or self.source(i)
        k, q = self.targets.locate(y)
        n, d = src.ratio(k)
        b = src.endpoint(k)
        return [*range(b - (-q * d // n), b - (-(q + 1) * d // n))]

    def least_preimage(self, i: int, y: int) -> int:
        """Smallest preimage of y; injective in y. Every fiber is nonempty,
        since |K_k| >= k!."""
        return self.h_fibers(i, y)[0]

    def positive_reduction(self, i: int, j: int, x: int) -> int:
        """Blockwise translation from the i-th to the j-th source partition.

        Defined at x only when the destination block is at least as long as
        the source block containing x.
        """
        src_i = self.source(i)
        k, r = src_i.locate(x)
        len_i = src_i.length(k)
        len_j = self.source(j).length(k)
        if len_i > len_j:
            raise ReductionPreconditionError(k, len_i, len_j)
        return self.source(j).endpoint(k) + r

    def collapse(self, x: int) -> int:
        """The left endpoint of the target block containing x."""
        return x - self.targets.locate(x)[1]
