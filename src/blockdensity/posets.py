"""Orders on every natural: a finite poset padded by isolated points, and a
lazy generic order.

Both answer leq(a, b) for all naturals a and b and refuse a negative index
with ValueError: a finite poset relates the points past its core only to
themselves, as the generic order does its padding points.

In the generic order a node records its relation (below, above, or
incomparable) to each node on its ancestor chain, and every transitively
consistent relation vector over every chain has a child realizing it. Any
finite poset is one chain of such one-point extensions, so embedding is
deterministic path-following that preserves and reflects the source order.

The order is reachability through declared marks. A node's code exceeds its
parent's, so codes below any bound are closed under ancestors, and a new node
never relates two older ones: its marks go to its own chain, where consistency
already demands every relation forced through it (the through-point rule). So
a path of marks needs no node above its larger end, whose own chain gives the
last step: an ancestor-chain walk decides the order, which never changes.
"""

from __future__ import annotations

from typing import NamedTuple

from .numerics import cantor_pair, cantor_unpair

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


class FinitePoset(NamedTuple):
    """A finite poset as its relation matrix, an immutable NamedTuple:
    rel[a][b] is whether a <= b. As an order on every natural, each index
    past the core is comparable only to itself, which keeps reflexivity and
    leaves the core untouched."""

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
        """Whether a <= b: the relation inside the core, a == b outside it."""
        if a < 0 or b < 0:
            raise ValueError("node indices must be natural numbers")
        n = len(self.rel)
        return self.rel[a][b] if a < n and b < n else a == b

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


class UniversalPoset:
    """Generic order on all naturals, decoded lazily from node codes.

    Code 0 is the root. Code n >= 1 is (p, v) = cantor_unpair(n - 1), a real
    node with parent p when p is real, v < 3^w for the w members of p's chain
    plus p, and the w base-3 digits of v (first member most significant) are a
    consistent relation vector over them. Every other code is a padding point,
    related only to itself. A decoded real node carries its chain, the
    parent's chain plus the parent, so no walk rebuilds it.
    """

    def __init__(self) -> None:
        # code -> (parent, trits, chain) for a real node, None for a padding point
        self._nodes: dict[int, tuple | None] = {0: (-1, (), ())}

    def size(self) -> int:
        """The number of codes decoded so far."""
        return len(self._nodes)

    def _node(self, code: int) -> tuple | None:
        """(parent, trits, chain) of a real node, None for a padding point;
        the chain lists its ancestors, root end first."""
        if code in self._nodes:
            return self._nodes[code]
        parent, index = cantor_unpair(code - 1)
        above = self._node(parent)
        node = None
        chain = above[2] + (parent,) if above is not None else ()
        if above is not None and index < 3 ** len(chain):
            trits = tuple(index // 3 ** k % 3 for k in reversed(range(len(chain))))
            if self._consistent(chain, trits):
                node = (parent, trits, chain)
        self._nodes[code] = node
        return node

    def _consistent(self, chain: tuple[int, ...], trits: tuple[int, ...]) -> bool:
        """Transitive consistency of a candidate relation vector over a chain.

        Relations forced through chain members, and through the new point
        itself, must match the declared marks exactly; anything else would
        either break antisymmetry or silently change an incomparability.
        """
        for q in range(len(chain)):
            tq = trits[q]
            inner = self._nodes[chain[q]][1]
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

    def ensure_depth(self, depth: int) -> None:
        """No-op: nodes are decoded on demand, so no depth is ever built."""

    def ensure_size(self, count: int) -> None:
        """Decode every code below count."""
        for code in range(count):
            self._node(code)

    def child(self, parent: int, trits: tuple[int, ...]) -> int:
        """The node realizing the given relation vector over parent's chain."""
        index = 0
        for t in trits:
            index = 3 * index + t
        code = cantor_pair(parent, index) + 1
        node = self._node(code) if parent >= 0 and code >= 1 else None
        if node is None or node[:2] != (parent, tuple(trits)):
            raise ValueError("relation vector %r is transitively inconsistent" % (trits,))
        return code

    def leq(self, a: int, b: int) -> bool:
        """Decide the order between two codes by the chain walk of the module
        docstring; a padding point is related only to itself."""
        if a < 0 or b < 0:
            raise ValueError("node indices must be natural numbers")
        if a != b and (self._node(a) is None or self._node(b) is None):
            return False
        return self._leq(a, b)

    def _leq(self, a: int, b: int) -> bool:
        if a == b:
            return True
        if a < b:
            _, trits, chain = self._nodes[b]
            return any(t == ABOVE and self._leq(a, e) for e, t in zip(chain, trits))
        _, trits, chain = self._nodes[a]
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
    placed images matches the source relation exactly. In that order a new
    point is never below a placed one, so each entry is ABOVE or INCOMPARABLE.
    """
    if universe is None:
        universe = UniversalPoset()
    order = poset.topological_order()
    placed = [0]  # the first point is the root
    for step in range(1, poset.n):
        point = order[step]
        trits = tuple(ABOVE if poset.leq(prev, point) else INCOMPARABLE
                      for prev in order[:step])
        placed.append(universe.child(placed[-1], trits))
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
