"""Transcript witnesses are hex text: exactly what hex() writes, read back
with int(text, 16).

These tests round-trip the codec on real transcripts, on synthetic records,
on block endpoints at factorial scale and on drawn ints up to 5407!, compare
what is read back with the ints in decimal too, and check that any other
text of a witness is refused as a load error naming its line.
"""

import json
import sys
import tempfile
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from blockdensity.cli import main
from blockdensity.construction import (
    BRANCH_DIAGONALIZED,
    BRANCH_NON_INJECTIVE,
    BRANCH_NON_TOTAL,
    ConstructionState,
    Requirement,
    StageRecord,
    Transcript,
)
from blockdensity.maps import CodedFamily
from blockdensity.profiles import constant_family
from blockdensity.scenarios import SCHEDULES, ScenarioConfig, construct, prepare
from blockdensity.verify import FAIL, PASS, check_diag_witness, check_transcript_replay

from _oracles import FAMILIES, KS, record_json

WITNESSES = ("x", "x2", "y", "ell")


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


def _round_trip(record):
    """The JSON object record writes, and the record it reads back as."""
    obj = json.loads(json.dumps(record_json(record)))
    return obj, StageRecord.from_json(obj)


def _check_round_trip(record):
    """Each witness is written as hex() of its int and reads back to an int
    with the same decimal text; the whole record reads back equal."""
    obj, back = _round_trip(record)
    for name in WITNESSES:
        v = getattr(record, name)
        assert obj[name] == (None if v is None else hex(v)), (record.stage, name)
        got = getattr(back, name)
        assert (got is None) if v is None else (type(got) is int and str(got) == str(v))
    assert back == record and back.same_json(record)


CONFIGS = {
    "rationals": ScenarioConfig(kind="rationals", count=4, e_bound=12),
    "antichain": ScenarioConfig(kind="antichain", count=3, e_bound=8),
    "combined": ScenarioConfig(kind="combined", count=4, e_bound=4),
    "poset": ScenarioConfig(kind="poset", poset_rows=["111", "011", "001"], e_bound=4),
}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_transcript_witnesses_match_str(kind, str_digits_lifted):
    _, _, _, transcript = construct(CONFIGS[kind])
    lines = list(transcript.lines())
    assert len(lines) == len(transcript.records)
    for line, record in zip(lines, transcript.records):
        assert json.loads(line) == record_json(record)
        _check_round_trip(record)
    assert max(len(str(r.y)) for r in transcript.records) > 50


def _record(stage, i, j, k, **witnesses):
    return StageRecord(stage, 0, i, j, k, BRANCH_DIAGONALIZED, 100, k + 1, **witnesses)


def test_synthetic_witnesses_match_str(str_digits_lifted):
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
        _record(6, 0, 1, 55, x=b(0, 55), y=b(1, 56) + 1, ell=56),
        _record(7, 0, 1, 90, x=b(0, 90), y=b(1, 91), ell=91),
        _record(8, 1, 0, 2000, x=b(1, 2000) + 1, y=b(0, 2001), ell=2001),
    ]
    for record in records:
        _check_round_trip(record)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_decimal_endpoints_match_source_blocks(kind, str_digits_lifted, tmp_path):
    """Endpoints b_s(k) and b_s(k + 1) written as witnesses to a transcript
    file read back equal to SourceBlocks', in decimal text as well."""
    family, indices = FAMILIES[kind]
    coded = CodedFamily(family)
    for s in indices:
        src = coded.source(s)
        records = [
            _record(n, s, s, k, x=src.endpoint(k), y=src.endpoint(k + 1))
            for n, k in enumerate(KS)
        ]
        path = tmp_path / ("%d.jsonl" % s)
        Transcript(records).write_jsonl(path)
        loaded = Transcript.read_jsonl(path)
        assert loaded.records == records
        for record in loaded.records:
            assert str(record.x) == str(src.endpoint(record.k)), (s, record.k)
            assert str(record.y) == str(src.endpoint(record.k + 1)), (s, record.k + 1)


def test_replay_gives_loaded_records_their_ints(tmp_path):
    config = CONFIGS["rationals"]
    _, _, _, transcript = construct(config)
    path = tmp_path / "t.jsonl"
    transcript.write_jsonl(path)
    lines = path.read_text().splitlines()
    tampered = json.loads(lines[20])
    tampered["y"] = hex(int(tampered["y"], 16) + 1)
    lines[20] = json.dumps(tampered)
    path.write_text("".join(line + "\n" for line in lines))

    loaded = Transcript.read_jsonl(path)
    assert all(type(getattr(r, name)) in (int, type(None))
               for r in loaded.records for name in WITNESSES)
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


POSETS = (("10", "01"), ("11", "01"), ("111", "011", "001"), ("101", "011", "001"))


@given(kind=st.sampled_from(["rationals", "antichain", "combined", "poset"]),
       count=st.integers(3, 4), rows=st.sampled_from(POSETS),
       e_bound=st.integers(1, 4), schedule=st.sampled_from(SCHEDULES))
def test_transcript_write_read_round_trip(kind, count, rows, e_bound, schedule):
    config = ScenarioConfig(kind, count=count, poset_rows=rows if kind == "poset" else (),
                            e_bound=e_bound, schedule=schedule)
    _, _, _, transcript = construct(config)
    fresh, gap_cert, fresh_schedule = prepare(config)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.jsonl", Path(tmp) / "second.jsonl"
        transcript.write_jsonl(first)
        loaded = Transcript.read_jsonl(first)
        cert = check_transcript_replay(fresh, gap_cert, loaded, config.budget,
                                       schedule=fresh_schedule)
        assert cert.verdict == PASS
        assert len(loaded.records) == len(transcript.records)
        assert all(a.same_json(b) for a, b in zip(loaded.records, transcript.records))
        loaded.write_jsonl(second)
        assert second.read_bytes() == first.read_bytes()


# Naturals from 0 up to 5407! (17 839 digits): small ones, ones of any bit
# length up to 512, and factorials with an offset; each may be negated.
NATURALS = st.one_of(
    st.integers(0, 1 << 512),
    st.builds(lambda k, d: max(factorial(k) + d, 0),
              st.integers(0, 5407), st.integers(-(1 << 70), 1 << 70)),
)
WITNESS = st.one_of(st.none(), NATURALS, NATURALS.map(lambda v: -v))


@given(x=WITNESS, x2=WITNESS, y=WITNESS, ell=WITNESS)
def test_stage_record_hex_round_trip(x, x2, y, ell):
    record = _record(3, 1, 0, 9, x=x, x2=x2, y=y, ell=ell)
    obj, back = _round_trip(record)
    assert [obj[name] for name in WITNESSES] == [
        None if v is None else hex(v) for v in (x, x2, y, ell)
    ]
    assert back == record and back.same_json(record)


# Witnesses for the line template: null, 0, either sign, and 10**4 digits.
TEMPLATE_WITNESS = st.one_of(
    st.none(), st.just(0), WITNESS,
    st.builds(lambda sign, d: sign * (10**9999 + d),
              st.sampled_from([1, -1]), st.integers(0, 1 << 70)),
)
NAT = st.integers(0, 10**12)
RECORDS = st.builds(
    StageRecord, NAT, NAT, NAT, NAT, NAT,
    st.sampled_from([BRANCH_NON_TOTAL, BRANCH_NON_INJECTIVE, BRANCH_DIAGONALIZED]),
    st.integers(1, 10**12), NAT,
    TEMPLATE_WITNESS, TEMPLATE_WITNESS, TEMPLATE_WITNESS, TEMPLATE_WITNESS,
)


@given(record=RECORDS)
def test_template_line_is_the_json_dumps_line(record):
    (line,) = Transcript([record]).lines()
    assert line == json.dumps(record_json(record)) + "\n"
    assert StageRecord.from_json(json.loads(line)) == record


def test_negative_witness_loads_and_fails_witness_fields():
    coded = CodedFamily(constant_family()[0])
    record = _record(0, 0, 1, 10, x=-3, y=5, ell=11)
    obj, back = _round_trip(record)
    assert obj["x"] == "-0x3" and back.x == -3
    cert = check_diag_witness(coded, ConstructionState(), back,
                              Requirement(back.e, back.i, back.j))
    assert cert.verdict == FAIL
    assert cert.checks == [
        {"check": "witness_fields", "ok": False, "field": "x", "value": "-3"}
    ]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A config file and the lines of the transcript it constructs."""
    root = tmp_path_factory.mktemp("witness-text")
    config = {"kind": "rationals", "count": 2, "E": 2, "budget": 100000, "k_max": 8}
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    transcript_path = root / "t.jsonl"
    assert main(["construct", "--config", str(config_path),
                 "--out", str(transcript_path)]) == 0
    lines = transcript_path.read_text().splitlines()
    assert json.loads(lines[1])["x"] is not None
    return config_path, lines


# Witness values hex() never writes, most of which int(text, 16) reads.
NOT_HEX = {
    "no_digits": "0x",
    "leading_zero": "0x00",
    "upper_prefix": "0X1f",
    "upper_digits": "0x1F",
    "plus": "+0x1",
    "space": " 0x1",
    "underscore": "0x1_0",
    "no_prefix": "1f",
    "minus_zero": "-0x0",
    "json_number": 31,
}


@pytest.mark.parametrize("name", NOT_HEX)
def test_witness_not_hex_text_is_a_load_error(name, written, tmp_path, capsys):
    config_path, lines = written
    record = json.loads(lines[1])
    record["x"] = NOT_HEX[name]
    transcript_path = tmp_path / "t.jsonl"
    transcript_path.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n")
    code = main(["verify", "--config", str(config_path),
                 "--transcript", str(transcript_path),
                 "--report", str(tmp_path / "r.jsonl")])
    err = capsys.readouterr().err
    assert code == 3
    assert "%s:2:" % transcript_path in err and "hex" in err
    assert not (tmp_path / "r.jsonl").exists()
