"""Transcript witness fields are hex text: exactly what hex() writes, read
back with int(text, 16).

A record holds each witness as a small offset from an anchor its branch
fixes, but a tampered line may hold any int there, so the codec must take
ints of any size in linear time. These tests round-trip it on real
transcripts, on synthetic records, on block endpoints at factorial scale and
on drawn ints up to 5407!, compare what is read back with the ints in decimal
too, check that any other text of a witness field is refused as a load error
naming its line, and check that the README runs write only small offsets.
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
    RequirementSchedule,
    StageRecord,
    Transcript,
    run_stages,
)
from blockdensity.maps import CodedFamily
from blockdensity.profiles import constant_family
from blockdensity.scenarios import SCHEDULES, ScenarioConfig, construct, prepare
from blockdensity.verify import FAIL, PASS, check_stage_records, check_transcript_replay

from _oracles import FAMILIES, KS, read_transcript, record_json, transcript_replay_json

WITNESSES = ("dx", "dx2", "dy", "ell")


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
    """Each witness field is written as hex() of its int and reads back to an
    int with the same decimal text; the whole record reads back equal."""
    obj, back = _round_trip(record)
    for name in WITNESSES:
        v = getattr(record, name)
        assert obj[name] == (None if v is None else hex(v)), (record.stage, name)
        got = getattr(back, name)
        assert (got is None) if v is None else (type(got) is int and str(got) == str(v))
    assert back == record


CONFIGS = {
    "rationals": ScenarioConfig(kind="rationals", count=4, e_bound=12),
    "antichain": ScenarioConfig(kind="antichain", count=3, e_bound=8),
    "combined": ScenarioConfig(kind="combined", count=4, e_bound=4),
    "poset": ScenarioConfig(kind="poset", poset_rows=["111", "011", "001"], e_bound=4),
}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_transcript_witnesses_match_str(kind, str_digits_lifted):
    coded, _, transcript = construct(CONFIGS[kind])
    lines = list(transcript.lines())
    assert len(lines) == len(transcript.records)
    for line, record in zip(lines, transcript.records):
        assert json.loads(line) == record_json(record)
        _check_round_trip(record)
    # The offsets stand for witnesses y = b_j(k + 1) + dy of factorial scale.
    assert max(len(str(coded.source(r.j).endpoint(r.k + 1) + r.dy))
               for r in transcript.records if r.branch == BRANCH_DIAGONALIZED) > 50


def _record(stage, i, j, k, dx=None, dx2=None, dy=None, ell=None):
    return StageRecord(stage, 0, i, j, k, BRANCH_DIAGONALIZED, dx, dx2, dy, ell, 100, k + 1)


def test_synthetic_witnesses_match_str(str_digits_lifted):
    coded = CodedFamily(constant_family()[0])

    def b(s, k):
        return coded.source(s).endpoint(k)

    near = (1 << 64) - 1
    records = [
        _record(0, 0, 1, 40, dx=b(0, 40) + 3, dy=b(1, 41) - 7, ell=41),
        _record(1, 1, 0, 45, dx=b(1, 45), dx2=b(1, 45) + near, dy=b(0, 46) - near),
        _record(2, 2, 3, 50, dx=b(2, 50) + near + 1, dy=b(3, 51) - near - 1),
        _record(3, 0, 2, 60, dx=3 * b(0, 60) + 1, dx2=0, dy=5, ell=-4),
        _record(4, 3, 1, 70, dx=-b(3, 70), dy=None, ell=None),
        _record(5, 1, 3, 80, dx=-1, dx2=b(1, 80) - b(1, 79), dy=b(3, 81)),
        _record(6, 0, 1, 55, dx=b(0, 55), dy=b(1, 56) + 1, ell=56),
        _record(7, 0, 1, 90, dx=b(0, 90), dy=b(1, 91), ell=91),
        _record(8, 1, 0, 2000, dx=b(1, 2000) + 1, dy=b(0, 2001), ell=2001),
    ]
    for record in records:
        _check_round_trip(record)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_decimal_endpoints_match_source_blocks(kind, str_digits_lifted, tmp_path):
    """Endpoints b_s(k) and b_s(k + 1) written as witness fields to a
    transcript file read back equal to SourceBlocks', in decimal text as
    well."""
    family, indices = FAMILIES[kind]
    coded = CodedFamily(family)
    for s in indices:
        src = coded.source(s)
        records = [
            _record(n, s, s, k, dx=src.endpoint(k), dy=src.endpoint(k + 1))
            for n, k in enumerate(KS)
        ]
        path = tmp_path / ("%d.jsonl" % s)
        Transcript(records).write_jsonl(path)
        loaded = read_transcript(path)
        assert loaded == records
        for record in loaded:
            assert str(record.dx) == str(src.endpoint(record.k)), (s, record.k)
            assert str(record.dy) == str(src.endpoint(record.k + 1)), (s, record.k + 1)


def test_replay_gives_loaded_records_their_ints(tmp_path):
    config = CONFIGS["rationals"]
    _, _, transcript = construct(config)
    path = tmp_path / "t.jsonl"
    transcript.write_jsonl(path)
    lines = path.read_text().splitlines()
    tampered = json.loads(lines[20])
    tampered["dy"] = hex(int(tampered["dy"], 16) + 1)
    lines[20] = json.dumps(tampered)
    path.write_text("".join(line + "\n" for line in lines))

    fresh, schedule = prepare(config)
    replay = run_stages(ConstructionState(), schedule, fresh, config.budget)
    loaded, divergence = Transcript.read_jsonl(path, replay)
    assert all(type(getattr(r, name)) in (int, type(None))
               for r in loaded.records for name in WITNESSES)
    cert = check_transcript_replay(len(loaded.records), divergence)
    assert cert.verdict == FAIL
    assert cert.checks == [
        {"check": "bit_exact", "ok": False, "first_divergence_stage": 20}
    ]
    want = list(transcript.records)
    want[20] = want[20]._replace(dy=want[20].dy + 1)
    assert loaded.records == want


POSETS = (("10", "01"), ("11", "01"), ("111", "011", "001"), ("101", "011", "001"))


@given(kind=st.sampled_from(["rationals", "antichain", "combined", "poset"]),
       count=st.integers(3, 4), rows=st.sampled_from(POSETS),
       e_bound=st.integers(1, 4), schedule=st.sampled_from(SCHEDULES))
def test_transcript_write_read_round_trip(kind, count, rows, e_bound, schedule):
    config = ScenarioConfig(kind, count=count, poset_rows=rows if kind == "poset" else (),
                            e_bound=e_bound, schedule=schedule)
    _, _, transcript = construct(config)
    fresh, fresh_schedule = prepare(config)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.jsonl", Path(tmp) / "second.jsonl"
        transcript.write_jsonl(first)
        loaded = read_transcript(first)
        replay = transcript_replay_json(fresh_schedule, fresh, loaded, config.budget)
        assert replay["verdict"] == PASS
        assert len(loaded) == len(transcript.records)
        assert loaded == transcript.records
        Transcript(loaded).write_jsonl(second)
        assert second.read_bytes() == first.read_bytes()


# Naturals from 0 up to 5407! (17 839 digits): small ones, ones of any bit
# length up to 512, and factorials with an offset; each may be negated.
NATURALS = st.one_of(
    st.integers(0, 1 << 512),
    st.builds(lambda k, d: max(factorial(k) + d, 0),
              st.integers(0, 5407), st.integers(-(1 << 70), 1 << 70)),
)
WITNESS = st.one_of(st.none(), NATURALS, NATURALS.map(lambda v: -v))


@given(dx=WITNESS, dx2=WITNESS, dy=WITNESS, ell=WITNESS)
def test_stage_record_hex_round_trip(dx, dx2, dy, ell):
    record = _record(3, 1, 0, 9, dx=dx, dx2=dx2, dy=dy, ell=ell)
    obj, back = _round_trip(record)
    assert [obj[name] for name in WITNESSES] == [
        None if v is None else hex(v) for v in (dx, dx2, dy, ell)
    ]
    assert back == record


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
    TEMPLATE_WITNESS, TEMPLATE_WITNESS, TEMPLATE_WITNESS, TEMPLATE_WITNESS,
    st.integers(1, 10**12), NAT,
)


@given(record=RECORDS)
def test_template_line_is_the_json_dumps_line(record):
    (line,) = Transcript([record]).lines()
    assert line == json.dumps(record_json(record)) + "\n"
    assert StageRecord.from_json(json.loads(line)) == record


INT_FIELDS = ("stage", "e", "i", "j", "k", "budget", "M_after")


def _added_key(obj, draw):
    key = draw(st.text(min_size=1, max_size=8).filter(lambda key: key not in obj))
    obj[key] = draw(st.one_of(st.none(), st.integers(), st.text(max_size=4)))
    return "unknown key %r" % key


def _dropped_key(obj, draw):
    key = draw(st.sampled_from(sorted(obj)))
    del obj[key]
    return "missing key %r" % key


def _int_as_true(obj, draw):
    name = draw(st.sampled_from(INT_FIELDS))
    obj[name] = True
    return "field %s must be" % name


def _int_as_float(obj, draw):
    name = draw(st.sampled_from(INT_FIELDS))
    obj[name] = float(obj[name])
    return "field %s must be" % name


def _non_canonical_hex(obj, draw):
    name = draw(st.sampled_from(WITNESSES))
    text = hex(0 if obj[name] is None else int(obj[name], 16))
    # Texts int(text, 16) reads back that hex() does not write.
    obj[name] = draw(st.sampled_from([text.replace("x", "x0"), text.upper(),
                                      text.replace("0x", ""), text + " "]))
    return "witness %s must be" % name


# One-field edits of a record's JSON object: name -> edit returning the start
# of the ValueError it must raise.
LINE_EDITS = {
    "added_key": _added_key,
    "dropped_key": _dropped_key,
    "int_as_true": _int_as_true,
    "int_as_float": _int_as_float,
    "non_canonical_hex": _non_canonical_hex,
}


@given(record=RECORDS, edit=st.sampled_from(sorted(LINE_EDITS)), data=st.data())
def test_a_record_loads_only_as_its_line_is_written(record, edit, data):
    """A line reads back as its record; one field edited anyhow the writer
    never writes it is a ValueError naming the key or field."""
    obj = json.loads(record.line())
    assert StageRecord.from_json(obj) == record
    message = LINE_EDITS[edit](obj, data.draw)
    with pytest.raises(ValueError) as refused:
        StageRecord.from_json(obj)
    assert str(refused.value).startswith(message)


def test_a_bad_line_names_its_first_failing_check():
    """Keys come first, then branch, the ints in line order, and the witnesses."""
    line = _record(0, 0, 1, 10, dx=3, dy=5, ell=11).line()
    for edits, message in (
            ({"budget": 0, "dx": "0X1", "extra": 1}, "unknown key 'extra'"),
            ({"branch": "x", "stage": -1}, "field branch must be in"),
            ({"budget": 0, "dx": "0X1", "M_after": -1}, "field budget must be an int >= 1"),
            ({"dx": "0X1", "M_after": -1}, "field M_after must be an int >= 0"),
            ({"dx": "0X1", "ell": 3}, "witness dx must be null")):
        with pytest.raises(ValueError, match=message):
            StageRecord.from_json({**json.loads(line), **edits})


def test_negative_witness_loads_and_fails_witness_fields():
    family, gap_cert = constant_family()
    coded = CodedFamily(family)
    # x = b_1(11) + dx, the anchor of a diagonalized record plus its offset.
    dx = -coded.source(1).endpoint(11) - 3
    record = _record(0, 0, 1, 10, dx=dx, dy=5, ell=11)
    obj, back = _round_trip(record)
    assert obj["dx"] == hex(dx) and back.dx == dx
    # The window over pair (0, 1) runs requirement (0, 0, 1) at stage 0.
    schedule = RequirementSchedule(gap_cert, [(0, 1)])
    cert, _ = check_stage_records(coded, ConstructionState(), schedule, [back], back.budget)
    assert cert.verdict == FAIL
    assert cert.checks == [
        {"check": "witness_fields", "ok": False, "stage": 0, "field": "x", "value": "-3"}
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
    assert json.loads(lines[1])["dx"] is not None
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
    record["dx"] = NOT_HEX[name]
    transcript_path = tmp_path / "t.jsonl"
    transcript_path.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n")
    code = main(["verify", "--config", str(config_path),
                 "--transcript", str(transcript_path),
                 "--report", str(tmp_path / "r.jsonl")])
    err = capsys.readouterr().err
    assert code == 3
    assert "%s:2:" % transcript_path in err and "hex" in err
    assert not (tmp_path / "r.jsonl").exists()


# The README runs at their default E = 50, as `scenario` argv.
README_RUNS = {
    "rationals": ["rationals", "--count", "4"],
    "antichain": ["antichain", "--n", "3", "--E", "25"],
}


@pytest.mark.parametrize("kind", sorted(README_RUNS))
def test_readme_runs_write_small_offsets(kind, tmp_path, capsys):
    """Every witness sits at or next to its anchor, so the README runs write
    only offsets of at most 64 bits, and the rationals transcript stays
    under 60 KB, where absolute witnesses took 381 KB."""
    assert main(["scenario", *README_RUNS[kind], "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    path = tmp_path / "transcript.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    offsets = [int(r[name], 16) for r in records for name in ("dx", "dx2", "dy")
               if r[name] is not None]
    assert offsets and max(v.bit_length() for v in offsets) <= 64
    if kind == "rationals":
        assert path.stat().st_size < 60_000
