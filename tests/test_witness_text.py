"""The witness pass writes each witness exactly as str() of its int would.

construction.witness_decimals builds the big witnesses from running Decimal
block endpoints instead of converting ints to decimal, so these tests compare
its output with str(v) field for field, on real transcripts and on synthetic
records, and its endpoints with SourceBlocks.endpoint at factorial scale.
"""

import json
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from blockdensity.construction import (
    BRANCH_DIAGONALIZED,
    WITNESSES,
    StageRecord,
    Transcript,
    witness_decimals,
)
from blockdensity.maps import CodedFamily
from blockdensity.posets import FinitePoset, PaddedFiniteOrder
from blockdensity.profiles import (
    ProfileFamily,
    combined_family,
    constant_family,
    oscillating_family,
    poset_family,
)
from blockdensity.scenarios import SCHEDULES, ScenarioConfig, construct, prepare
from blockdensity.verify import FAIL, PASS, check_transcript_replay


def _texts(coded, records):
    return [
        (record, [None if d is None else str(d) for d in decimals])
        for record, decimals in witness_decimals(coded, records)
    ]


def _want(record):
    values = (getattr(record, name) for name in WITNESSES)
    return [None if v is None else str(v) for v in values]


CONFIGS = {
    "rationals": ScenarioConfig(kind="rationals", count=4, e_bound=12),
    "antichain": ScenarioConfig(kind="antichain", count=3, e_bound=8),
    "combined": ScenarioConfig(kind="combined", count=4, e_bound=4),
    "poset": ScenarioConfig(kind="poset", poset_rows=["111", "011", "001"], e_bound=4),
}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_transcript_witnesses_match_str(kind):
    coded, _, _, transcript = construct(CONFIGS[kind])
    out = _texts(coded, transcript.records)
    assert [record for record, _ in out] == transcript.records
    for record, texts in out:
        assert texts == _want(record), record.stage
    assert max(len(str(r.y)) for r in transcript.records) > 50


def _record(stage, i, j, k, **witnesses):
    return StageRecord(stage, 0, i, j, k, BRANCH_DIAGONALIZED, 100, k + 1, **witnesses)


def test_synthetic_witnesses_match_str():
    coded = CodedFamily(constant_family()[0])

    def b(s, k):
        return coded.source(s).endpoint(k)

    near = (1 << 64) - 1
    records = [
        _record(0, 0, 1, 40, x=b(0, 40) + 3, y=b(1, 41) - 7, ell=41),
        _record(1, 1, 0, 45, x=b(1, 45), x2=b(1, 45) + near, y=b(0, 46) - near),
        _record(2, 2, 3, 50, x=b(2, 50) + near + 1, y=b(3, 51) - near - 1),
        _record(3, 0, 2, 60, x=3 * b(0, 60) + 1, x2=0, y=5, ell=-4),
        _record(4, 3, 1, 70, x=-b(3, 70), y=None, ell=None),
        _record(5, 1, 3, 80, x=-1, x2=b(1, 80) - b(1, 79), y=b(3, 81)),
        # k goes back: the running sums have passed these blocks.
        _record(6, 0, 1, 55, x=b(0, 55), y=b(1, 56) + 1, ell=56),
        _record(7, 0, 1, 90, x=b(0, 90), y=b(1, 91), ell=91),
    ]
    for record, texts in _texts(coded, records):
        assert texts == _want(record), record.stage


PRIME_DEN = Fraction(1013, 1009)   # 1009 prime: 1009 | k! only from k = 1009 on
ALPHA, BETA = Fraction(5, 4), Fraction(7, 4)

# kind -> (family, source indices checked)
FAMILIES = {
    "constant": (constant_family()[0], (0, 3)),
    "oscillating": (oscillating_family(PRIME_DEN, Fraction(3, 2))[0], (0, 1)),
    "combined": (combined_family(ALPHA, BETA)[0], (0, 1)),
    "poset": (
        poset_family(PaddedFiniteOrder(FinitePoset.from_rows(["111", "011", "001"])),
                     ALPHA, BETA)[0],
        (0, 2),
    ),
    "prime_denominator": (ProfileFamily(lambda i, k: PRIME_DEN), (0,)),
}
KS = [*range(13), 1007, 1008, 1009, 1010, 3000]


@pytest.fixture
def str_digits_lifted():
    """Lift the int<->str digit limit for a test's own str() of
    factorial-scale ints; the package leaves the limit alone."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_decimal_endpoints_match_source_blocks(kind, str_digits_lifted):
    family, indices = FAMILIES[kind]
    coded = CodedFamily(family)
    for s in indices:
        src = coded.source(s)
        # Each record anchors at b_s(k) and b_s(k + 1) and carries both.
        records = [
            _record(n, s, s, k, x=src.endpoint(k), y=src.endpoint(k + 1))
            for n, k in enumerate(KS)
        ]
        for record, decimals in witness_decimals(coded, records):
            x, _, y, _ = decimals
            assert isinstance(x, Decimal) and str(x) == str(record.x), (s, record.k)
            assert isinstance(y, Decimal) and str(y) == str(record.y), (s, record.k + 1)


def test_replay_gives_loaded_records_their_ints(tmp_path):
    config = CONFIGS["rationals"]
    coded, _, _, transcript = construct(config)
    path = tmp_path / "t.jsonl"
    transcript.write_jsonl(path, coded)
    lines = path.read_text().splitlines()
    tampered = json.loads(lines[20])
    tampered["y"] = str(int(tampered["y"]) + 1)
    lines[20] = json.dumps(tampered)
    path.write_text("".join(line + "\n" for line in lines))

    loaded = Transcript.read_jsonl(path)
    assert all(isinstance(r.y, Decimal) for r in loaded.records)
    fresh, gap_cert, schedule = prepare(config)
    cert = check_transcript_replay(fresh, gap_cert, loaded, config.budget,
                                   schedule=schedule)
    assert cert.verdict == FAIL
    assert cert.checks == [
        {"check": "bit_exact", "ok": False, "first_divergence_stage": 20}
    ]
    want = list(transcript.records)
    want[20] = want[20]._replace(y=want[20].y + 1)
    assert loaded.records == want
    assert all(type(getattr(r, name)) in (int, type(None))
               for r in loaded.records for name in WITNESSES)


POSETS = (("10", "01"), ("11", "01"), ("111", "011", "001"), ("101", "011", "001"))


@given(kind=st.sampled_from(["rationals", "antichain", "combined", "poset"]),
       count=st.integers(3, 4), rows=st.sampled_from(POSETS),
       e_bound=st.integers(1, 4), schedule=st.sampled_from(SCHEDULES))
def test_transcript_write_read_round_trip(kind, count, rows, e_bound, schedule):
    config = ScenarioConfig(kind, count=count, poset_rows=rows if kind == "poset" else (),
                            e_bound=e_bound, schedule=schedule)
    coded, _, _, transcript = construct(config)
    fresh, gap_cert, fresh_schedule = prepare(config)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.jsonl", Path(tmp) / "second.jsonl"
        transcript.write_jsonl(first, coded)
        loaded = Transcript.read_jsonl(first)
        cert = check_transcript_replay(fresh, gap_cert, loaded, config.budget,
                                       schedule=fresh_schedule)
        assert cert.verdict == PASS
        assert len(loaded.records) == len(transcript.records)
        assert all(a.same_json(b) for a, b in zip(loaded.records, transcript.records))
        loaded.write_jsonl(second, fresh)
        assert second.read_bytes() == first.read_bytes()
