import functools
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from blockdensity.blocks import SourceBlocks, TargetBlocks
from blockdensity.maps import CodedFamily
from blockdensity.posets import FinitePoset, PaddedFiniteOrder, UniversalPoset
from blockdensity.profiles import oscillating_family, poset_family
from blockdensity.verify import block_walk

from _oracles import FAMILIES, factorial, source_endpoints, target_endpoints


def const(q):
    return lambda k: q


def source(q):
    """Source blocks of the constant profile q over fresh target blocks."""
    return SourceBlocks(const(q), TargetBlocks())


def test_target_block_examples():
    targets = TargetBlocks()
    assert targets.block(0) == (0, 1)
    assert targets.block(3) == (4, 10)
    assert targets.block(4) == (10, 34)


def test_source_len_examples():
    assert source(Fraction(3, 2)).length(2) == 3
    assert source(Fraction(5, 4)).length(3) == 7
    assert source(Fraction(7, 4)).length(4) == 42


def test_source_len_rejects_out_of_band_values():
    for bad in (Fraction(1), Fraction(2), Fraction(5, 2), Fraction(1, 2)):
        with pytest.raises(ValueError):
            source(bad).length(3)


def test_source_block_examples_against_prefix_sums():
    src = source(Fraction(3, 2))
    ends = source_endpoints(const(Fraction(3, 2)), 6)
    assert src.block(0) == (0, 1)
    assert src.block(2) == (2, 5) == (ends[2], ends[3])
    assert src.block(3) == (5, 14) == (ends[3], ends[4])


def test_locate_examples():
    targets = TargetBlocks()
    assert targets.locate(10) == 4
    assert targets.locate(0) == 0
    src = source(Fraction(3, 2))
    assert src.locate(4) == (2, 2)


def test_block_sizes_and_length_band():
    targets = TargetBlocks()
    for q in (Fraction(3, 2), Fraction(5, 4), Fraction(7, 4), Fraction(9, 5)):
        src = SourceBlocks(const(q), targets)
        for k in range(13):
            lo, hi = targets.block(k)
            assert hi - lo == factorial(k) == targets.size(k)
            ln = src.length(k)
            assert factorial(k) <= ln < 2 * factorial(k)
            assert src.block(k)[1] - src.block(k)[0] == ln


def test_blocks_tile_with_no_gaps():
    targets = TargetBlocks()
    src = SourceBlocks(const(Fraction(4, 3)), targets)
    for k in range(12):
        assert targets.block(k)[1] == targets.block(k + 1)[0]
        assert src.block(k)[1] == src.block(k + 1)[0]
    assert targets.block(0)[0] == 0
    assert src.block(0)[0] == 0


def test_locate_matches_linear_scan():
    targets = TargetBlocks()
    ends = target_endpoints(12)
    k = 0
    for x in range(100_000):
        while ends[k + 1] <= x:
            k += 1
        assert targets.locate(x) == k

    src = SourceBlocks(const(Fraction(5, 4)), targets)
    sends = source_endpoints(const(Fraction(5, 4)), 12)
    k = 0
    for x in range(100_000):
        while sends[k + 1] <= x:
            k += 1
        assert src.locate(x) == (k, x - sends[k])


def test_endpoint_cache_growth_is_consistent():
    targets = TargetBlocks()
    far = targets.endpoint(40)
    fresh = TargetBlocks()
    assert fresh.endpoint(40) == far == target_endpoints(40)[40]


def test_ratio_is_reduced_exactly_where_q_divides_p_k_factorial():
    q = Fraction(1013, 1009)
    src = source(q)
    for k in (0, 1, 2, 1008, 1009, 1010):
        fact = factorial(k)
        if (q.numerator * fact) % q.denominator:
            assert src.ratio(k) == (fact, src.length(k))
        else:
            assert src.ratio(k) == (1009, 1013)
    # One shared pair per profile value, not one per block.
    assert src.ratio(1009) is src.ratio(1010)
    assert source(Fraction(5, 4)).ratio(3) == (6, 7)
    assert source(Fraction(5, 4)).ratio(4) == (4, 5)


# Production geometry against verify.block_walk, which sums blocks from the
# profile alone: the oracle families (every kind, and 1013/1009, whose quotient
# k!/q turns exact only at block 1009), the pair 6/5 with 9/7, so that a
# quotient resumes after a gap (2, 4 and 16 blocks), a poset family over a
# chain whose 6/5 and 3/2 switch the loop's denominator on most blocks, and a
# poset family over the generic order.
GEOMETRY_FAMILIES = {
    **FAMILIES,
    "gap_pair": (oscillating_family(Fraction(6, 5), Fraction(9, 7))[0], (0, 1, 3)),
    "split_denominators": (
        poset_family(PaddedFiniteOrder(FinitePoset.from_rows(["111", "011", "001"])),
                     Fraction(6, 5), Fraction(3, 2))[0],
        (0, 1, 2),
    ),
    "universal": (poset_family(UniversalPoset(), Fraction(5, 4), Fraction(7, 4))[0], (0, 2)),
}
WALK_BLOCKS = 1013


@functools.cache
def walk(kind, i):
    """(k!, a_k, a_{k+1}, b_k, |K_k|) for k < WALK_BLOCKS."""
    family, _ = GEOMETRY_FAMILIES[kind]
    return list(islice(block_walk(family.profile(i)), WALK_BLOCKS))


BLOCK = st.one_of(st.integers(0, 40), st.integers(1000, WALK_BLOCKS - 2))
OPS = st.lists(
    st.tuples(st.sampled_from(["targets", "locate", "endpoint", "length", "ratio"]),
              st.integers(0, 3), BLOCK, st.integers(0, 2**80)),
    min_size=1, max_size=10,
)


@settings(max_examples=40)
@pytest.mark.parametrize("kind", sorted(GEOMETRY_FAMILIES))
@given(ops=OPS)
def test_geometry_matches_block_walk_in_any_access_order(kind, ops):
    family, indices = GEOMETRY_FAMILIES[kind]
    coded = CodedFamily(family)
    exact_pairs = {}
    for op, pick, k, offset in ops:
        i = indices[pick % len(indices)]
        fact, a, _, b, ln = walk(kind, i)[k]
        if op == "targets":
            # Sources made after this read targets that are already long.
            assert coded.targets.endpoint(k) == a and coded.targets.size(k) == fact
            continue
        src = coded.source(i)
        if op == "locate":
            r = offset % ln
            assert src.locate(b + r) == (k, r)
        elif op == "endpoint":
            assert src.endpoint(k) == b
        elif op == "length":
            assert src.length(k) == ln
        else:
            u = family.value(i, k)
            q, p = u.denominator, u.numerator
            if p * fact % q:
                assert src.ratio(k) == (fact, ln)
            else:
                assert src.ratio(k) == (q, p)
                # One shared pair per value over all of the value's exact blocks.
                assert exact_pairs.setdefault((i, q, p), src.ratio(k)) is src.ratio(k)
