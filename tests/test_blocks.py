from fractions import Fraction

import pytest

from blockdensity.blocks import SourceBlocks, TargetBlocks

from _oracles import factorial, source_endpoints, target_endpoints


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
