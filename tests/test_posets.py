import random
import time
from itertools import product

import pytest

from blockdensity.posets import (
    BELOW,
    FinitePoset,
    UniversalPoset,
    embed_finite,
    is_partial_order,
)

from _oracles import BfsGenericOrder, random_poset_matrix

CHAIN3 = FinitePoset.from_rows(["111", "011", "001"])
ANTICHAIN2 = FinitePoset.from_rows(["10", "01"])
VEE = FinitePoset.from_rows(["101", "011", "001"])


def test_is_partial_order_examples():
    assert is_partial_order([[True, False], [False, True]])
    assert is_partial_order([[True, True], [False, True]])
    assert not is_partial_order([[True, True], [True, True]])
    assert not is_partial_order([[True, True, False], [False, True, True],
                                 [False, False, True]])
    assert not is_partial_order([[False]])


def test_from_rows_rejects_bad_input():
    with pytest.raises(ValueError):
        FinitePoset.from_rows(["11", "11"])
    with pytest.raises(ValueError):
        FinitePoset.from_rows(["1x", "01"])
    with pytest.raises(ValueError):
        FinitePoset.from_rows(["11", "0"])


def test_topological_order_is_minimal_index():
    assert CHAIN3.topological_order() == [0, 1, 2]
    assert VEE.topological_order() == [0, 1, 2]
    rev = FinitePoset.from_rows(["100", "110", "111"])
    assert rev.topological_order() == [2, 1, 0]
    # Built past from_matrix's check, a cycle has no linear extension.
    with pytest.raises(ValueError, match="no linear extension"):
        FinitePoset(((True, True), (True, True))).topological_order()


def test_padded_order_behaviour():
    """A finite poset orders every natural: past its core each index is
    related only to itself."""
    assert CHAIN3.leq(0, 2)
    assert not CHAIN3.leq(2, 0)
    assert CHAIN3.leq(7, 7)
    assert not CHAIN3.leq(7, 8)
    assert not CHAIN3.leq(1, 7)
    assert FinitePoset(()).leq(3, 3) and not FinitePoset(()).leq(0, 3)


@pytest.mark.parametrize("order", [CHAIN3, UniversalPoset()], ids=["finite", "universal"])
@pytest.mark.parametrize("a, b", [(-1, 0), (0, -1)])
def test_leq_refuses_a_negative_index(order, a, b):
    with pytest.raises(ValueError, match="natural numbers"):
        order.leq(a, b)


def test_universal_reflexive_and_deterministic():
    first = UniversalPoset()
    second = UniversalPoset()
    assert first.matrix(20) == second.matrix(20)
    for a in range(100):
        assert first.leq(a, a)


def test_universal_has_strict_pair_below_50():
    universe = UniversalPoset()
    found = any(
        universe.leq(a, b) and not universe.leq(b, a)
        for a in range(50)
        for b in range(50)
    )
    assert found


def test_universal_prefixes_are_partial_orders():
    universe = UniversalPoset()
    assert is_partial_order(universe.matrix(60))


def test_universal_extension_is_monotone():
    universe = UniversalPoset()
    before = universe.matrix(25)
    universe.ensure_size(400)
    assert universe.matrix(25) == before


def test_embed_examples():
    universe = UniversalPoset()
    single = embed_finite(FinitePoset.from_rows(["1"]), universe)
    assert len(single) == 1

    chain = embed_finite(CHAIN3, universe)
    assert universe.leq(chain[0], chain[1]) and not universe.leq(chain[1], chain[0])
    assert universe.leq(chain[1], chain[2]) and not universe.leq(chain[2], chain[1])
    assert universe.leq(chain[0], chain[2])

    anti = embed_finite(ANTICHAIN2, universe)
    assert not universe.leq(anti[0], anti[1])
    assert not universe.leq(anti[1], anti[0])


def test_embed_random_posets_preserve_and_reflect():
    rng = random.Random(20260808)
    universe = UniversalPoset()
    for _ in range(20):
        n = rng.randint(1, 5)
        poset = FinitePoset.from_matrix(random_poset_matrix(n, rng))
        images = embed_finite(poset, universe)
        assert len(set(images)) == n
        for a in range(n):
            for b in range(n):
                assert poset.leq(a, b) == universe.leq(images[a], images[b])


@pytest.fixture(scope="module")
def reference():
    return BfsGenericOrder(5)


def test_every_poset_through_5_points_embeds_like_the_bfs_reference(reference):
    universe = UniversalPoset()
    for node, rel in enumerate(reference.matrices):
        images = embed_finite(FinitePoset.from_matrix(rel), universe)
        assert [[universe.leq(a, b) for b in images] for a in images] == rel, node


def test_lazy_children_are_the_bfs_reference_tree_through_5_points(reference):
    """Every reference node is the child of its parent's code under its own
    vector, with the reference's relations along its chain, and every vector
    the reference leaves out is refused."""
    universe = UniversalPoset()
    codes = [0]
    children: dict[int, set] = {0: set()}
    for node in range(1, len(reference.parents)):
        parent = reference.parents[node]
        codes.append(universe.child(codes[parent], reference.trits[node]))
        children[parent].add(reference.trits[node])
        children[node] = set()
    assert len(set(codes)) == len(codes)
    for node, rel in enumerate(reference.matrices):
        path = [node]
        while reference.parents[path[-1]] >= 0:
            path.append(reference.parents[path[-1]])
        path = [codes[m] for m in reversed(path)]
        assert [[universe.leq(a, b) for b in path] for a in path] == rel, node
        if len(rel) < 5:
            for trits in product(range(3), repeat=len(rel)):
                if trits not in children[node]:
                    with pytest.raises(ValueError):
                        universe.child(codes[node], trits)


def test_codes_round_trip_and_padding_points_are_isolated():
    universe = UniversalPoset()
    universe.ensure_size(2000)
    assert universe.size() == 2000
    padding = []
    for code in range(1, 2000):
        node = universe._node(code)
        if node is None:
            padding.append(code)
        else:
            assert universe.child(*node[:2]) == code
    assert 0 < len(padding) < 1999
    for code in padding:
        if code >= 200:
            break
        for other in range(200):
            if other != code:
                assert not universe.leq(code, other)
                assert not universe.leq(other, code)


def test_child_refuses_a_padding_parent_and_a_vector_of_wrong_length():
    universe = UniversalPoset()
    universe.ensure_size(200)
    padding = next(code for code in range(200) if universe._node(code) is None)
    with pytest.raises(ValueError):
        universe.child(padding, ())
    with pytest.raises(ValueError):
        universe.child(0, (BELOW, BELOW))


def test_twelve_point_poset_embeds_in_under_a_second():
    poset = FinitePoset.from_matrix(random_poset_matrix(12, random.Random(20261018)))
    start = time.perf_counter()
    images = embed_finite(poset, UniversalPoset())
    assert time.perf_counter() - start < 1.0
    assert len(set(images)) == 12
