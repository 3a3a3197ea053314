"""Report lines are json.dumps's bytes.

write_report writes each certificate as Certificate.line gives it: a passing
DiagWitness, the one certificate written once per stage record, is filled
into a %-template, and every other certificate goes through the JSON encoder.
These tests hold every line to json.dumps(cert.to_json()) + "\\n" on the real
certificate lists of each scenario kind and of verify, and on DiagWitness
certificates edited by hand into other shapes: FAIL and INCOMPLETE ones,
subject fields that are bools, floats or other non-ints, and checks added,
dropped, copied or retyped.
"""

import json

import pytest
from hypothesis import example, given, strategies as st

from blockdensity import verify
from blockdensity.scenarios import ScenarioConfig, run_scenario, verify_transcript, write_report
from blockdensity.verify import PASS, Certificate

CONFIGS = {
    "rationals": ScenarioConfig("rationals", count=3, e_bound=3, k_max=6, schedule="window"),
    "antichain": ScenarioConfig("antichain", count=3, e_bound=2, k_max=6, schedule="window"),
    "combined": ScenarioConfig("combined", count=3, e_bound=2, k_max=6),
    "poset": ScenarioConfig("poset", poset_rows=("111", "011", "001"), e_bound=2, k_max=6,
                            schedule="window"),
    "universal": ScenarioConfig("universal", poset_rows=("11", "01")),
}


@pytest.fixture(scope="module")
def cert_lists(tmp_path_factory):
    """name -> the certificates of a scenario run, or of verify on its files."""
    out = {}
    for kind, config in CONFIGS.items():
        outdir = tmp_path_factory.mktemp(kind)
        result = run_scenario(config, outdir)
        out[kind] = result.certificates
        if result.transcript is not None:
            out[kind + "-verify"] = verify_transcript(config, outdir / "transcript.jsonl")
    return out


def dumps_lines(certs):
    return "".join(json.dumps(cert.to_json()) + "\n" for cert in certs)


def test_every_real_report_line_is_json_dumps(cert_lists, tmp_path):
    assert len(cert_lists) == 9
    for name, certs in cert_lists.items():
        path = tmp_path / ("%s.jsonl" % name)
        write_report(certs, path)
        assert path.read_text(encoding="utf-8") == dumps_lines(certs), name


def test_only_passing_diag_witnesses_skip_the_encoder(cert_lists, monkeypatch):
    calls = []
    real = verify._encode
    monkeypatch.setattr(verify, "_encode", lambda obj: calls.append(obj) or real(obj))
    passing = 0
    for certs in cert_lists.values():
        for cert in certs:
            before = len(calls)
            assert cert.line() == json.dumps(cert.to_json()) + "\n"
            templated = len(calls) == before
            assert templated == (cert.kind == "DiagWitness" and cert.verdict == PASS)
            passing += templated
    assert passing >= 6


@pytest.fixture(scope="module")
def passing_diag(cert_lists):
    """A passing DiagWitness certificate of the rationals run."""
    return next(c for c in cert_lists["rationals"]
                if c.kind == "DiagWitness" and c.verdict == PASS)


def _copy(cert):
    """cert with its own subject and checks lists, sharing the check dicts."""
    out = Certificate(cert.kind, dict(cert.subject))
    out.verdict, out.checks = cert.verdict, list(cert.checks)
    return out


VALUES = st.one_of(
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
    st.text(max_size=3),
)
FIELDS = st.sampled_from(["stage", "e", "i", "j"])
CHECK = st.integers(0, 2)
EDITS = st.lists(st.one_of(
    st.tuples(st.just("set_field"), FIELDS, VALUES),
    st.tuples(st.just("drop_field"), FIELDS),
    st.tuples(st.just("extra_field"), VALUES),
    st.tuples(st.just("reorder_fields")),
    st.tuples(st.just("fail"), st.booleans()),
    st.tuples(st.just("verdict"), st.sampled_from(["FAIL", "INCOMPLETE", "pass"])),
    st.tuples(st.just("drop_check"), CHECK),
    st.tuples(st.just("extra_check"), st.booleans()),
    st.tuples(st.just("copy_check"), CHECK),
    st.tuples(st.just("ok_as_int"), CHECK),
    st.tuples(st.just("reorder_check"), CHECK),
    st.tuples(st.just("kind"), st.sampled_from(["DiagWitnesses", "BfoEquivalence"])),
    st.tuples(st.just("diagnostics"), st.sampled_from([[], {"x": 1}])),
), max_size=3)


def _edit(cert, edit):
    op, *args = edit
    subject, checks = cert.subject, cert.checks
    if op == "set_field":
        subject[args[0]] = args[1]
    elif op == "drop_field":
        subject.pop(args[0], None)
    elif op == "extra_field":
        subject["blocks"] = args[0]
    elif op == "reorder_fields":
        cert.subject = dict(reversed(subject.items()))
    elif op == "fail":
        (cert.fail if args[0] else cert.incomplete)("membership_split")
    elif op == "verdict":
        cert.verdict = args[0]
    elif op == "drop_check" and args[0] < len(checks):
        del checks[args[0]]
    elif op == "extra_check":
        (cert.ok if args[0] else cert.fail)("frontier", {"frontier": 3})
    elif op == "copy_check" and args[0] < len(checks):
        checks[args[0]] = dict(checks[args[0]])
    elif op == "ok_as_int" and args[0] < len(checks):
        checks[args[0]] = {**checks[args[0]], "ok": 1}
    elif op == "reorder_check" and args[0] < len(checks):
        checks[args[0]] = dict(reversed(checks[args[0]].items()))
    elif op == "kind":
        cert.kind = args[0]
    elif op == "diagnostics":
        cert.diagnostics = args[0]


@given(edits=EDITS)
@example(edits=[("set_field", "e", True)])
@example(edits=[("set_field", "stage", 0.0)])
@example(edits=[("fail", True)])
@example(edits=[("fail", False)])
@example(edits=[("drop_check", 2)])
@example(edits=[("extra_check", True)])
@example(edits=[("ok_as_int", 0)])
def test_hand_made_diag_witness_lines_are_json_dumps(passing_diag, edits, tmp_path_factory):
    cert = _copy(passing_diag)
    for edit in edits:
        _edit(cert, edit)
    want = json.dumps(cert.to_json()) + "\n"
    assert cert.line() == want
    path = tmp_path_factory.mktemp("hand") / "report.jsonl"
    write_report([cert, _copy(passing_diag)], path)
    assert path.read_text(encoding="utf-8") == want + passing_diag.line()
