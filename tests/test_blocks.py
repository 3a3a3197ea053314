import functools
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from blockdensity.blocks import SourceBlocks, TargetBlocks
from blockdensity.maps import CodedFamily
from blockdensity.numerics import ONE
from blockdensity.posets import FinitePoset, UniversalPoset
from blockdensity.profiles import oscillating_family, poset_family
from blockdensity.verify import block_walk, target_walk

from _oracles import FAMILIES, factorial, source_endpoints, target_endpoints


def const(q):
    return lambda k: q


def source(q):
    """Source blocks of the constant profile q."""
    return SourceBlocks(const(q))


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
    # ONE itself too: the target table's cursor starts with it as checked
    # only in its own table.
    for bad in (Fraction(1), Fraction(2), Fraction(5, 2), Fraction(1, 2), ONE):
        with pytest.raises(ValueError, match="at block 0 outside"):
            source(bad).length(3)
    # A value met only after others is checked where the loop first meets it:
    # 3/2 then 5/2 from block 5, and 6/5 and 9/7 in turn, then ONE from block 7.
    late = {
        5: lambda k: Fraction(3, 2) if k < 5 else Fraction(5, 2),
        7: lambda k: ONE if k >= 7 else (Fraction(6, 5), Fraction(9, 7))[k % 2],
    }
    for block, profile in late.items():
        src = SourceBlocks(profile)
        assert src.endpoint(block) == source_endpoints(profile, block)[block]
        with pytest.raises(ValueError, match="at block %d outside" % block):
            src.length(block + 3)


def test_negative_block_index_is_refused():
    targets = TargetBlocks()
    src = SourceBlocks(const(Fraction(3, 2)))
    targets.endpoint(10)
    src.endpoint(10)
    for read in (targets.endpoint, targets.block, targets.size,
                 src.endpoint, src.block, src.length, src.ratio):
        with pytest.raises(ValueError, match="block index -1 is negative"):
            read(-1)
    with pytest.raises(ValueError, match="block index -3 is negative"):
        targets.size(-3)


def test_source_block_examples_against_prefix_sums():
    src = source(Fraction(3, 2))
    ends = source_endpoints(const(Fraction(3, 2)), 6)
    assert src.block(0) == (0, 1)
    assert src.block(2) == (2, 5) == (ends[2], ends[3])
    assert src.block(3) == (5, 14) == (ends[3], ends[4])


def test_locate_examples():
    targets = TargetBlocks()
    assert targets.locate(10) == (4, 0)
    assert targets.locate(0) == (0, 0)
    src = source(Fraction(3, 2))
    assert src.locate(4) == (2, 2)


def test_block_sizes_and_length_band():
    targets = TargetBlocks()
    for q in (Fraction(3, 2), Fraction(5, 4), Fraction(7, 4), Fraction(9, 5)):
        src = SourceBlocks(const(q))
        for k in range(13):
            lo, hi = targets.block(k)
            assert hi - lo == factorial(k) == targets.size(k)
            ln = src.length(k)
            assert factorial(k) <= ln < 2 * factorial(k)
            assert src.block(k)[1] - src.block(k)[0] == ln


def test_blocks_tile_with_no_gaps():
    targets = TargetBlocks()
    src = SourceBlocks(const(Fraction(4, 3)))
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
        assert targets.locate(x) == (k, x - ends[k])

    src = SourceBlocks(const(Fraction(5, 4)))
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
    # The value's reduced pair on every exact block.
    assert src.ratio(1009) == src.ratio(1010)
    assert source(Fraction(5, 4)).ratio(3) == (6, 7)
    assert source(Fraction(5, 4)).ratio(4) == (4, 5)


# Production geometry against verify.block_walk, which sums blocks from the
# profile alone: the oracle families (every kind, and 1013/1009, whose ratio
# turns exact only at block 1009); so that the remainder test meets values
# that alternate, the pair 6/5 with 9/7 (each returning after gaps of 2, 4
# and 16 blocks) and a poset family over a chain whose 6/5 and 3/2 alternate
# on most blocks; and a poset family over the generic order.
GEOMETRY_FAMILIES = {
    **FAMILIES,
    "gap_pair": (oscillating_family(Fraction(6, 5), Fraction(9, 7))[0], (0, 1, 3)),
    "split_denominators": (
        poset_family(FinitePoset.from_rows(["111", "011", "001"]),
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


TARGET_WALK = list(islice(target_walk(), WALK_BLOCKS))


BLOCK = st.one_of(st.integers(0, 40), st.integers(1000, WALK_BLOCKS - 2))
OPS = st.lists(
    st.tuples(st.sampled_from(["targets", "target_locate", "target_block", "locate",
                               "endpoint", "length", "ratio"]),
              st.integers(0, 3), BLOCK, st.integers(0, 2**80)),
    min_size=1, max_size=10,
)


@settings(max_examples=40)
@pytest.mark.parametrize("kind", sorted(GEOMETRY_FAMILIES))
@given(ops=OPS)
@example(ops=[("target_locate", 0, WALK_BLOCKS - 2, 2**80), ("locate", 0, 3, 1)])
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
        if op.startswith("target_"):
            fact, a, a_next = TARGET_WALK[k]
            if op == "target_locate":
                r = offset % fact
                assert coded.targets.locate(a + r) == (k, r)
            else:
                assert coded.targets.block(k) == (a, a_next)
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
            u = family.profile(i)(k)
            q, p = u.denominator, u.numerator
            if p * fact % q:
                assert src.ratio(k) == (fact, ln)
            else:
                assert src.ratio(k) == (q, p)
                # One pair per value over all of the value's exact blocks.
                assert exact_pairs.setdefault((i, q, p), src.ratio(k)) == src.ratio(k)
