import random
from fractions import Fraction

import pytest

from blockdensity.maps import CodedFamily, ReductionPreconditionError
from blockdensity.posets import FinitePoset
from blockdensity.profiles import (
    combined_family,
    constant_family,
    oscillating_family,
    poset_family,
)

from _oracles import (
    block_geometry,
    compression_fiber,
    compression_image,
    compression_table,
    source_endpoints,
    target_endpoints,
)

# Constant enumeration indices: q_0 = 3/2, q_1 = 4/3, q_3 = 5/4, q_4 = 7/4.
I_32 = 0
I_54 = 3
I_74 = 4


@pytest.fixture(scope="module")
def coded():
    family, _ = constant_family()
    return CodedFamily(family)


def test_h_apply_examples(coded):
    assert coded.h_apply(I_32, 2) == 2
    assert coded.h_apply(I_32, 3) == 2
    assert coded.h_apply(I_32, 4) == 3


def test_h_apply_matches_brute_force_table(coded):
    u = lambda k: Fraction(3, 2)
    for k in range(7):
        table = compression_table(u, k)
        for x, y in table.items():
            assert coded.h_apply(I_32, x) == y


def test_h_fibers_examples(coded):
    assert coded.h_fibers(I_32, 2) == [2, 3]
    assert coded.h_fibers(I_32, 3) == [4]
    assert coded.h_fibers(I_32, 0) == [0]


def test_h_fibers_match_preimage_scan(coded):
    ends = target_endpoints(8)
    sends = source_endpoints(lambda k: Fraction(3, 2), 8)
    # One pass over x collects every y's preimages in increasing order, the
    # same lists a scan over all x per y gives.
    preimages = {}
    for x in range(sends[8]):
        preimages.setdefault(coded.h_apply(I_32, x), []).append(x)
    for y in range(ends[8]):
        scan = preimages.get(y, [])
        assert coded.h_fibers(I_32, y) == scan
        assert 1 <= len(scan) <= 2


def test_surjectivity_onto_blocks(coded):
    for i in (I_32, I_54, I_74):
        src = coded.source(i)
        for k in range(8):
            lo, hi = src.block(k)
            image = {coded.h_apply(i, x) for x in range(lo, hi)}
            t_lo, t_hi = coded.targets.block(k)
            assert image == set(range(t_lo, t_hi))


def test_compression_steps_by_at_most_one(coded):
    for i in (I_32, I_54, I_74):
        src = coded.source(i)
        for k in range(8):
            lo, hi = src.block(k)
            values = [coded.h_apply(i, x) for x in range(lo, hi)]
            assert all(0 <= b - a <= 1 for a, b in zip(values, values[1:]))


def test_least_preimage_examples(coded):
    assert coded.least_preimage(I_32, 2) == 2
    assert coded.least_preimage(I_32, 3) == 4
    assert coded.least_preimage(I_32, 0) == 0


def test_least_preimage_is_injective_section(coded):
    limit = target_endpoints(8)[8]
    for i in (I_32, I_54):
        seen = set()
        for y in range(limit):
            x = coded.least_preimage(i, y)
            assert x == min(coded.h_fibers(i, y))
            assert coded.h_apply(i, x) == y
            assert x not in seen
            seen.add(x)


def test_positive_reduction_examples(coded):
    # 5/4 profile into 3/2 profile; endpoints 0,1,2,4,11 and 0,1,2,5,14.
    assert coded.positive_reduction(I_54, I_32, 4) == 5
    assert coded.positive_reduction(I_54, I_32, 10) == 11
    assert coded.positive_reduction(I_54, I_32, 0) == 0


def test_positive_reduction_rejects_longer_source(coded):
    with pytest.raises(ReductionPreconditionError) as info:
        coded.positive_reduction(I_32, I_54, 2)
    assert info.value.k == 2
    assert (info.value.len_i, info.value.len_j) == (3, 2)


def test_positive_reduction_injective_and_block_preserving(coded):
    limit = coded.source(I_54).endpoint(8)
    seen = set()
    for x in range(limit):
        fx = coded.positive_reduction(I_54, I_32, x)
        assert fx not in seen
        seen.add(fx)
        assert coded.source(I_54).locate(x)[0] == coded.source(I_32).locate(fx)[0]


def test_commuting_square_for_block_constant_assignments(coded):
    rng = random.Random(99)
    bits = {k: rng.randint(0, 1) for k in range(9)}

    def member(n):
        return bits[coded.targets.locate(n)[0]]

    limit = coded.source(I_54).endpoint(8)
    for x in range(limit):
        fx = coded.positive_reduction(I_54, I_32, x)
        assert member(coded.h_apply(I_54, x)) == member(coded.h_apply(I_32, fx))


def test_collapse_examples(coded):
    assert coded.collapse(5) == 4
    assert coded.collapse(4) == 4
    assert coded.collapse(33) == 10


def test_collapse_fixes_block_constant_sets_but_moves_points(coded):
    rng = random.Random(5)
    bits = {k: rng.randint(0, 1) for k in range(10)}

    def member(n):
        return bits[coded.targets.locate(n)[0]]

    limit = target_endpoints(9)[9]
    for x in range(limit):
        assert member(coded.collapse(x)) == member(x)
    for k in range(2, 9):
        lo, hi = coded.targets.block(k)
        assert any(coded.collapse(x) != x for x in range(lo, hi))


# 1009 is prime, so a 1013/1009 block has 1009 | 1013 * k! only from k = 1009
# on; below that the maps run on the unreduced ratio k!/|K_k|.
PRIME_DEN = Fraction(1013, 1009)
ALPHA, BETA = Fraction(5, 4), Fraction(7, 4)

# kind -> (family, indices checked)
FACTORIAL_FAMILIES = {
    "constant": (constant_family()[0], (I_32, I_54)),
    "oscillating": (oscillating_family(PRIME_DEN, Fraction(3, 2))[0], (0, 1)),
    "combined": (combined_family(ALPHA, BETA)[0], (0, 1)),
    "poset": (
        poset_family(FinitePoset.from_rows(["111", "011", "001"]),
                     ALPHA, BETA)[0],
        (0, 2),
    ),
}


def _offsets(size, rng):
    """Both block edges, the middle and a few seeded interior offsets."""
    picks = {0, 1, size // 2, size - 2, size - 1}
    picks.update(rng.randrange(size) for _ in range(3))
    return sorted(r for r in picks if 0 <= r < size)


@pytest.mark.parametrize("kind", sorted(FACTORIAL_FAMILIES))
def test_maps_match_oracle_at_factorial_scale(kind):
    family, indices = FACTORIAL_FAMILIES[kind]
    coded = CodedFamily(family)
    rng = random.Random(2024)
    ks = sorted({*range(9), 1007, 1008, 1009, 1010, 3000,
                 *(rng.randrange(9, 3000) for _ in range(6))})
    for i in indices:
        geometry = block_geometry(family.profile(i), ks)
        for k in ks:
            block = geometry[k]
            a, b, fact, ln = block
            for r in _offsets(ln, rng):
                assert coded.h_apply(i, b + r) == compression_image(block, r), (i, k, r)
            for q in _offsets(fact, rng):
                fiber = compression_fiber(block, q)
                assert coded.h_fibers(i, a + q) == fiber, (i, k, q)
                assert coded.least_preimage(i, a + q) == fiber[0], (i, k, q)
