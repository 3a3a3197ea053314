"""verify reads a transcript against its replay, in one forward pass.

Each non-blank line replays one stage, and the replay's own line for that
stage is compared with the transcript's line as text; a line that is that
text is the replayed record and is not decoded, and every other line is
decoded and compared with its replay. These tests hold verify to the reader
that decodes every line (_oracles.read_transcript) and the replay check that
compares every record (_oracles.transcript_replay_json) on line-level edits
of real transcripts, count the lines verify decodes and the stages it
replays, and check what is refused, and when.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from blockdensity import construction, scenarios
from blockdensity.cli import main
from blockdensity.construction import StageRecord, Transcript
from blockdensity.scenarios import (
    ScenarioConfig, prepare, report_exit_code, run_scenario, write_outputs,
)

from _oracles import read_transcript, transcript_replay_json

# Small real runs: every branch the construction takes on them is a record
# with hex witnesses, one of them factorial-scale on antichain.
CONFIGS = {
    "rationals": ScenarioConfig("rationals", count=3, e_bound=3, k_max=6,
                                schedule="window"),
    "antichain": ScenarioConfig("antichain", count=3, e_bound=2, k_max=6,
                                schedule="window"),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """kind -> (config.json path, transcript lines as bytes with their ends)."""
    out = {}
    for kind, config in CONFIGS.items():
        outdir = tmp_path_factory.mktemp(kind)
        result = run_scenario(config)
        write_outputs(result, outdir)
        assert result.exit_code == 0
        lines = (outdir / "transcript.jsonl").read_bytes().splitlines(keepends=True)
        assert len(lines) >= 6
        out[kind] = (outdir / "config.json", lines)
    return out


def _verify(config_path, transcript_path, report_path):
    """verify's exit code and standard error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify", "--config", str(config_path),
                     "--transcript", str(transcript_path),
                     "--report", str(report_path)])
    return code, err.getvalue()


def _oracle(config, transcript_path, report_path):
    """The exit code and standard error verify gave when it decoded every
    line before it replayed; the report it wrote, if any, goes to
    report_path, each certificate encoded by json.dumps."""
    try:
        records = read_transcript(transcript_path)
    except ValueError as exc:
        return 3, "error: %s\n" % exc
    try:
        coded, schedule = prepare(config)
        replay = transcript_replay_json(schedule, coded, records, config.budget)
        certs = scenarios._construction_certificates(config, coded, schedule, Transcript(records))
    except Exception as exc:  # verify's internal error, exit 4
        return 4, "internal error: %s: %s\n" % (type(exc).__name__, exc)
    report_path.write_text("".join(
        json.dumps(obj) + "\n" for obj in [replay, *(c.to_json() for c in certs)]))
    return 1 if replay["verdict"] == "FAIL" else report_exit_code(certs), ""


# Line-level edits: name -> function of (lines, draw) that edits the lines in
# place. An edit that reads a record picks a line that still holds one, and
# does nothing when none does.
def _drop(lines, draw):
    del lines[draw(st.integers(0, len(lines) - 1))]


def _duplicate(lines, draw):
    n = draw(st.integers(0, len(lines) - 1))
    lines.insert(n, lines[n])


def _swap(lines, draw):
    a = draw(st.integers(0, len(lines) - 2))
    b = draw(st.integers(a + 1, len(lines) - 1))
    lines[a], lines[b] = lines[b], lines[a]


def _blank(lines, draw):
    blank = draw(st.sampled_from([b"\n", b"  \n", b"\r\n", b"\t \n"]))
    lines.insert(draw(st.integers(0, len(lines))), blank)


def _crlf(lines, draw):
    for n in draw(st.sets(st.integers(0, len(lines) - 1), min_size=1)):
        lines[n] = lines[n].rstrip(b"\n") + b"\r\n"


def _trailing_spaces(lines, draw):
    n = draw(st.integers(0, len(lines) - 1))
    lines[n] = lines[n].rstrip(b"\n") + b" " * draw(st.integers(1, 3)) + b"\n"


def _record_edit(change):
    """An edit that rewrites one drawn record line by change(obj, draw)."""
    def edit(lines, draw):
        records = []
        for n, line in enumerate(lines):
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and obj.get("dx"):
                records.append(n)
        if records:
            n = draw(st.sampled_from(records))
            obj = json.loads(lines[n])
            lines[n] = (change(obj, draw) or json.dumps(obj)).encode() + b"\n"
    return edit


def _stage_as_float(obj, draw):
    obj["stage"] = float(obj["stage"])


def _flip_hex_digit(obj, draw):
    name = draw(st.sampled_from([k for k in ("dx", "dx2", "dy", "ell") if obj[k]]))
    text = obj[name]
    at = draw(st.integers(3 if text.startswith("-") else 2, len(text) - 1))
    digit = draw(st.sampled_from([d for d in "0123456789abcdef" if d != text[at]]))
    obj[name] = text[:at] + digit + text[at + 1:]


def _cut_last_line(lines, draw):
    if len(lines[-1]) > 1:
        lines[-1] = lines[-1][:draw(st.integers(1, len(lines[-1]) - 1))]


EDITS = {
    "drop": _drop,
    "duplicate": _duplicate,
    "swap": _swap,
    "blank": _blank,
    "crlf": _crlf,
    "trailing_spaces": _trailing_spaces,
    "sort_keys": _record_edit(lambda obj, draw: json.dumps(obj, sort_keys=True)),
    "compact": _record_edit(lambda obj, draw: json.dumps(obj, separators=(",", ":"))),
    "stage_as_float": _record_edit(_stage_as_float),
    "flip_hex_digit": _record_edit(_flip_hex_digit),
    "cut_last_line": _cut_last_line,
}


@given(kind=st.sampled_from(sorted(CONFIGS)),
       edits=st.lists(st.sampled_from(sorted(EDITS)), min_size=1, max_size=3),
       data=st.data())
def test_verify_agrees_with_the_decoding_oracle(runs, kind, edits, data):
    config_path, lines = runs[kind]
    lines = list(lines)
    for name in edits:
        EDITS[name](lines, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        transcript = Path(tmp) / "t.jsonl"
        transcript.write_bytes(b"".join(lines))
        report, expected = Path(tmp) / "r.jsonl", Path(tmp) / "oracle.jsonl"
        code, err = _verify(config_path, transcript, report)
        assert (code, err) == _oracle(CONFIGS[kind], transcript, expected)
        if code == 3:
            assert not report.exists()
        elif code != 4:
            assert report.read_bytes() == expected.read_bytes()


@pytest.fixture
def decoded(monkeypatch):
    """The number of records StageRecord.from_json decodes, in a list."""
    count = [0]
    real = StageRecord.from_json

    def counting(obj):
        count[0] += 1
        return real(obj)

    monkeypatch.setattr(StageRecord, "from_json", staticmethod(counting))
    return count


@pytest.fixture
def replays(monkeypatch):
    """The number of stages run_stage runs, in a list."""
    count = [0]
    real = construction.run_stage

    def counting(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(construction, "run_stage", counting)
    return count


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_verify_decodes_no_line_it_replays(kind, runs, decoded, replays, tmp_path):
    config_path, lines = runs[kind]
    transcript = tmp_path / "t.jsonl"
    transcript.write_bytes(b"".join(lines))
    assert _verify(config_path, transcript, tmp_path / "r.jsonl") == (0, "")
    assert decoded == [0]
    assert replays == [len(lines)]


def _rewrite(line, **dumps):
    return json.dumps(json.loads(line), **dumps).encode() + b"\n"


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_verify_decodes_exactly_the_edited_lines(kind, runs, decoded, replays, tmp_path):
    """Two lines re-encoded hold the same records, so verify passes; a third
    with a witness off by one fails the replay there. Only those three lines
    are decoded, and each verify replays one stage per line."""
    config_path, lines = runs[kind]
    lines = list(lines)
    lines[1] = _rewrite(lines[1], sort_keys=True)
    lines[4] = _rewrite(lines[4], separators=(",", ":"))
    transcript, report = tmp_path / "t.jsonl", tmp_path / "r.jsonl"
    transcript.write_bytes(b"".join(lines))
    assert _verify(config_path, transcript, report) == (0, "")
    assert decoded == [2]

    tampered = json.loads(lines[2])
    tampered["dx"] = hex(int(tampered["dx"], 16) + 1)
    lines[2] = json.dumps(tampered).encode() + b"\n"
    transcript.write_bytes(b"".join(lines))
    assert _verify(config_path, transcript, report)[0] == 1
    assert decoded == [2 + 3]
    assert replays == [2 * len(lines)]
    replay = json.loads(report.read_text().splitlines()[0])
    assert replay["checks"] == [
        {"check": "bit_exact", "ok": False, "first_divergence_stage": 2}]


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_a_bad_line_costs_only_the_stages_before_it(kind, runs, replays, tmp_path):
    """Line p = 3 that is no record is refused, as the decoding reader
    refuses it, after at most p replayed stages."""
    config_path, lines = runs[kind]
    lines = list(lines)
    lines[2] = b"x\n"
    transcript, report = tmp_path / "t.jsonl", tmp_path / "r.jsonl"
    transcript.write_bytes(b"".join(lines))
    code, err = _verify(config_path, transcript, report)
    assert replays[0] <= 3
    assert (code, err) == _oracle(CONFIGS[kind], transcript, tmp_path / "oracle.jsonl")
    assert code == 3 and err.startswith("error: %s:3: bad transcript record: " % transcript)
    assert not report.exists()


EMPTY_REPLAY = ('{"kind": "TranscriptReplay", "verdict": "FAIL", "subject": {"stages": 0}, '
                '"checks": [{"check": "bit_exact", "ok": false, "reason": "empty transcript"}], '
                '"diagnostics": {}}\n')


@pytest.mark.parametrize("text", [b"", b"\n \r\n"], ids=["empty", "blank"])
def test_an_empty_transcript_fails_without_a_replay(text, runs, replays, tmp_path):
    config_path, _ = runs["rationals"]
    transcript, report = tmp_path / "t.jsonl", tmp_path / "r.jsonl"
    transcript.write_bytes(text)
    assert _verify(config_path, transcript, report) == (1, "")
    assert report.read_text().splitlines(keepends=True)[0] == EMPTY_REPLAY
    assert replays == [0]


def _refuse_replay(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("replayed a transcript that was refused")

    monkeypatch.setattr(construction, "run_stage", refused)


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unreadable_transcript_is_refused_before_the_replay(target, runs, monkeypatch,
                                                            tmp_path):
    config_path, _ = runs["rationals"]
    (tmp_path / "directory").mkdir()
    _refuse_replay(monkeypatch)
    report = tmp_path / "r.jsonl"
    code, err = _verify(config_path, tmp_path / target, report)
    assert code == 3
    assert err.startswith("error: ") and str(tmp_path / target) in err
    assert not report.exists()


@pytest.mark.parametrize("branch", ['a"b', 7, None, "Diagonalized"])
def test_unknown_branch_is_a_load_error_naming_the_field(branch, runs):
    _, lines = runs["rationals"]
    obj = json.loads(lines[1])
    obj["branch"] = branch
    with pytest.raises(ValueError, match="^field branch must be in .*, got %s$"
                       % re.escape(repr(branch))):
        StageRecord.from_json(obj)
