"""Finite partial orders, padded computable orders, and a staged generic order.

The generic order grows level by level: a node at depth d records its relation
(below, above, or incomparable) to every node on its ancestor chain, and each
level realizes every transitively consistent relation vector over every chain
of the previous level. Any finite poset, listed in any order, is one chain of
such one-point extensions, so embedding is deterministic path-following and the
induced relations both preserve and reflect the source order. Stages only ever
append nodes; relations between existing nodes never change.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

BELOW = 0          # new point lies below the chain member
ABOVE = 1          # chain member lies below the new point
INCOMPARABLE = 2


def is_partial_order(matrix) -> bool:
    """Reflexive, antisymmetric and transitive square boolean matrix."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        return False
    for a in range(n):
        if not matrix[a][a]:
            return False
        for b in range(n):
            if a != b and matrix[a][b] and matrix[b][a]:
                return False
    for a in range(n):
        for b in range(n):
            if not matrix[a][b]:
                continue
            for c in range(n):
                if matrix[b][c] and not matrix[a][c]:
                    return False
    return True


@dataclass(frozen=True)
class FinitePoset:
    rel: tuple[tuple[bool, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rel)

    @staticmethod
    def from_matrix(matrix) -> "FinitePoset":
        rel = tuple(tuple(bool(v) for v in row) for row in matrix)
        if not is_partial_order(rel):
            raise ValueError("relation matrix is not a partial order")
        return FinitePoset(rel)

    @staticmethod
    def from_rows(rows) -> "FinitePoset":
        """Rows of 0/1 digits, one row per element."""
        matrix = []
        for row in rows:
            digits = row.strip()
            if not digits or any(ch not in "01" for ch in digits):
                raise ValueError("poset rows must be nonempty strings of 0/1 digits")
            matrix.append([ch == "1" for ch in digits])
        return FinitePoset.from_matrix(matrix)

    def leq(self, a: int, b: int) -> bool:
        return self.rel[a][b]

    def topological_order(self) -> list[int]:
        """Minimal-index linear extension."""
        placed: list[int] = []
        remaining = set(range(self.n))
        while remaining:
            for a in sorted(remaining):
                if all(b not in remaining for b in range(self.n)
                       if b != a and self.rel[b][a]):
                    placed.append(a)
                    remaining.discard(a)
                    break
            else:
                raise ValueError("relation matrix has no linear extension")
        return placed

    def rows(self) -> list[str]:
        return ["".join("1" if v else "0" for v in row) for row in self.rel]


class PaddedFiniteOrder:
    """Total order predicate on all naturals extending a finite poset.

    Indices beyond the finite core are comparable only to themselves, which
    keeps reflexivity and leaves the embedded finite part untouched.
    """

    def __init__(self, poset: FinitePoset) -> None:
        self.poset = poset

    def leq(self, a: int, b: int) -> bool:
        n = self.poset.n
        if a < n and b < n:
            return self.poset.leq(a, b)
        return a == b

    def validate(self) -> None:
        if not is_partial_order(self.poset.rel):
            raise ValueError("relation matrix is not a partial order")


class UniversalPoset:
    """Deterministic staged generic order realizing every extension chain."""

    def __init__(self) -> None:
        self._parents: list[int] = []
        self._trits: list[tuple[int, ...]] = []
        self._levels: list[list[int]] = []          # node ids per depth, 1-based
        self._children: dict[tuple[int, tuple[int, ...]], int] = {}

    def size(self) -> int:
        return len(self._parents)

    def _chain(self, node: int) -> list[int]:
        """Ancestors of node, root end first, excluding the node itself."""
        chain: list[int] = []
        parent = self._parents[node]
        while parent >= 0:
            chain.append(parent)
            parent = self._parents[parent]
        chain.reverse()
        return chain

    def _consistent(self, chain: list[int], trits: tuple[int, ...]) -> bool:
        """Transitive consistency of a candidate relation vector over a chain.

        Relations forced through chain members, and through the new point
        itself, must match the declared marks exactly; anything else would
        either break antisymmetry or silently change an incomparability.
        """
        for q in range(len(chain)):
            tq = trits[q]
            inner = self._trits[chain[q]]
            for p in range(q):
                tp = trits[p]
                r = inner[p]  # BELOW: chain[q] below chain[p]; ABOVE: converse
                if tp == BELOW and r == ABOVE and tq != BELOW:
                    return False
                if tq == BELOW and r == BELOW and tp != BELOW:
                    return False
                if tp == ABOVE and r == BELOW and tq != ABOVE:
                    return False
                if tq == ABOVE and r == ABOVE and tp != ABOVE:
                    return False
                if tp == ABOVE and tq == BELOW and r != ABOVE:
                    return False
                if tq == ABOVE and tp == BELOW and r != BELOW:
                    return False
        return True

    def _build_level(self) -> None:
        if not self._levels:
            self._parents.append(-1)
            self._trits.append(())
            self._levels.append([0])
            return
        level: list[int] = []
        depth = len(self._levels)
        for parent in self._levels[-1]:
            chain = self._chain(parent) + [parent]
            for trits in product((BELOW, ABOVE, INCOMPARABLE), repeat=depth):
                if not self._consistent(chain, trits):
                    continue
                node = len(self._parents)
                self._parents.append(parent)
                self._trits.append(trits)
                self._children[(parent, trits)] = node
                level.append(node)
        self._levels.append(level)

    def ensure_depth(self, depth: int) -> None:
        while len(self._levels) < depth:
            self._build_level()

    def ensure_size(self, count: int) -> None:
        while len(self._parents) < count:
            self._build_level()

    def child(self, parent: int, trits: tuple[int, ...]) -> int:
        """The node realizing the given relation vector over parent's chain."""
        self.ensure_depth(len(trits) + 1)
        node = self._children.get((parent, trits))
        if node is None:
            raise ValueError("relation vector %r is transitively inconsistent" % (trits,))
        return node

    def leq(self, a: int, b: int) -> bool:
        """Decide the order between two node indices, extending stages as needed.

        The order is reachability through declared marks. Later nodes never
        relate two older ones (the through-point rule pins those relations at
        creation), so the recursion only ever walks ancestor chains.
        """
        if a < 0 or b < 0:
            raise ValueError("node indices must be natural numbers")
        self.ensure_size(max(a, b) + 1)
        return self._leq(a, b)

    def _leq(self, a: int, b: int) -> bool:
        if a == b:
            return True
        if a < b:
            chain = self._chain(b)
            trits = self._trits[b]
            return any(
                t == ABOVE and self._leq(a, e) for e, t in zip(chain, trits)
            )
        chain = self._chain(a)
        trits = self._trits[a]
        return any(t == BELOW and self._leq(e, b) for e, t in zip(chain, trits))

    def matrix(self, size: int) -> list[list[bool]]:
        self.ensure_size(size)
        return [[self.leq(a, b) for b in range(size)] for a in range(size)]


def embed_finite(
    poset: FinitePoset, universe: UniversalPoset | None = None
) -> list[int]:
    """Images of the poset's points, preserving and reflecting the relation.

    Points are placed along one extension chain in minimal-index topological
    order, each new image being the child node whose relation vector over the
    placed images matches the source relation exactly.
    """
    if universe is None:
        universe = UniversalPoset()
    order = poset.topological_order()
    placed: list[int] = []
    for step, point in enumerate(order):
        if step == 0:
            universe.ensure_depth(1)
            placed.append(0)
            continue
        trits = []
        for prev in order[:step]:
            if poset.leq(point, prev):
                trits.append(BELOW)
            elif poset.leq(prev, point):
                trits.append(ABOVE)
            else:
                trits.append(INCOMPARABLE)
        placed.append(universe.child(placed[-1], tuple(trits)))
    images = [0] * poset.n
    for position, point in enumerate(order):
        images[point] = placed[position]
    for a in range(poset.n):
        for b in range(poset.n):
            if poset.leq(a, b) != universe.leq(images[a], images[b]):
                raise AssertionError(
                    "embedding failed to reflect the relation at (%d, %d)" % (a, b)
                )
    return images
