import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from blockdensity import blocks, cli, construction, machine, profiles
from blockdensity.cli import main
from blockdensity.scenarios import ScenarioConfig, ScenarioResult, construct, prepare

from _oracles import random_poset_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_blocks_table(capsys):
    code, out = run_cli(capsys, "blocks", "--kmax", "5", "--count", "2")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0][:3] == ["k", "a_k", "k_factorial"]
    a_column = [row[1] for row in rows[1:]]
    assert a_column == ["0", "1", "2", "4", "10", "34"]


# sha256 of `blocks --kmax 12 --count 3` per family kind, pinned before the
# CLI shared the scenario family registry.
BLOCKS_DIGESTS = {
    "constant": "c66c48e9de326ea1f20bd116429747ab61679c2cf0bd06a4f668f646eca01c29",
    "oscillating": "73d3f2a66001ae6c9d5c7fedf298c971fa68c52c9ee56256f7571a3e900a2623",
    "combined": "3b04807a5d35483e58729bcabf9005757a3a34984ea8af05dcec56f220a1ad13",
    "poset": "6a4e8c578466baf913b4d6ea7d222227eabb625f5d68153c7547f1f85a75c2f4",
}


@pytest.mark.parametrize("kind", sorted(BLOCKS_DIGESTS))
def test_blocks_table_bytes_per_kind(kind, capsys):
    extra = ["--matrix", "111,011,001"] if kind == "poset" else []
    code, out = run_cli(capsys, "blocks", "--kmax", "12", "--count", "3",
                        "--kind", kind, *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BLOCKS_DIGESTS[kind]


def test_blocks_poset_without_matrix_is_usage_error(capsys):
    code, _ = run_cli(capsys, "blocks", "--kind", "poset")
    assert code == 3


@pytest.mark.parametrize("argv, message", [
    (["blocks", "--kind", "oscillating", "--i", "-1", "--kmax", "3"], "natural"),
    (["blocks", "--i", "0,-2"], "natural"),
    (["map", "apply", "--kind", "combined", "--i", "-3"], "natural"),
    (["blocks", "--kmax", "-2"], "--kmax must be at least 0"),
    (["blocks", "--count", "-2", "--kmax", "1"], "count must be at least 1"),
    (["scenario", "rationals", "--budget", "0"], "budget must be at least 1"),
    (["scenario", "rationals", "--E", "0"], "E (program-index window) must be at least 1"),
    (["scenario", "rationals", "--kmax", "0"], "k_max must be at least 1"),
    (["scenario", "rationals", "--stages", "0"], "stages must be at least 1 when given"),
    (["scenario", "antichain", "--alpha", "1/0"], "bad rational '1/0'"),
])
def test_negative_index_or_kmax_is_usage_error_before_output(argv, message, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def test_blocks_bad_index_writes_no_file(tmp_path, capsys):
    out = tmp_path / "blocks.csv"
    assert main(["blocks", "--i", "1,-1", "--out", str(out)]) == 3
    capsys.readouterr()
    assert not out.exists()


def test_blocks_out_writes_the_table(tmp_path, capsys):
    out = tmp_path / "blocks.csv"
    assert run_cli(capsys, "blocks", "--kmax", "3", "--out", str(out)) == (0, "")
    assert out.read_text() == run_cli(capsys, "blocks", "--kmax", "3")[1]


def test_blocks_bad_count_writes_no_file(tmp_path, capsys):
    out = tmp_path / "blocks.csv"
    assert main(["blocks", "--count", "0", "--out", str(out)]) == 3
    assert "count must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_map_fibers(capsys):
    code, out = run_cli(capsys, "map", "fibers", "--i", "0", "--y", "2")
    assert code == 0
    assert out.strip() == "2,3"


def test_map_reduce_and_collapse(capsys):
    code, out = run_cli(capsys, "map", "reduce", "--i", "3", "--j", "0", "--x", "4")
    assert (code, out.strip()) == (0, "5")
    code, out = run_cli(capsys, "map", "collapse", "--x", "33")
    assert (code, out.strip()) == (0, "10")
    code, out = run_cli(capsys, "map", "preimage", "--kind", "constant", "--i", "0",
                        "--y", "5")
    assert (code, out.strip()) == (0, "7")


def test_machine_decode_and_run(capsys):
    code, out = run_cli(capsys, "machine", "decode", "--e", "1")
    assert (code, out.strip()) == (0, "INC 0")
    code, out = run_cli(capsys, "machine", "run", "--e", "0", "--x", "41",
                        "--budget", "10")
    assert code == 0
    assert out.strip() == "halted,41,0"
    code, out = run_cli(capsys, "machine", "run", "--e", "7", "--x", "3", "--budget", "1")
    assert (code, out.strip()) == (0, "out_of_budget,1")


def test_poset_commands(capsys):
    code, out = run_cli(capsys, "poset", "validate", "--matrix", "110,110,001")
    assert code == 1 and out.startswith("invalid")
    code, out = run_cli(capsys, "poset", "validate", "--matrix", "111,011,001")
    assert (code, out.strip()) == (0, "valid")
    # Transitive closure of 2 below 0 below 1: a valid three-point order.
    code, out = run_cli(capsys, "poset", "validate", "--matrix", "110,010,111")
    assert (code, out.strip()) == (0, "valid")
    code, out = run_cli(capsys, "poset", "embed", "--matrix", "111,011,001")
    assert code == 0 and len(out.strip().split(",")) == 3
    code, out = run_cli(capsys, "poset", "dump-universal", "--size", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5 and all(len(line) == 5 for line in lines)


@pytest.mark.parametrize("argv, flag", [
    (["poset", "validate"], "--matrix"),
    (["poset", "embed"], "--matrix"),
    (["poset", "dump-universal", "--size", "-3"], "--size"),
], ids=["validate", "embed", "dump-universal"])
def test_poset_missing_input_is_usage_error(argv, flag, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: ") and flag in captured.err


def test_poset_embed_ten_points_in_under_a_second(capsys):
    # Ten points embedded along one path: the last breadth-first level of
    # the generic order would hold about 6.6e12 nodes.
    rel = random_poset_matrix(10, random.Random(20261018))
    rows = ["".join("1" if v else "0" for v in row) for row in rel]
    start = time.perf_counter()
    code, out = run_cli(capsys, "poset", "embed", "--matrix", ",".join(rows))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and len(set(out.strip().split(","))) == 10


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the interpreter has no int<->str digit limit")
def test_poset_embed_prints_past_the_digit_limit_and_restores_it(capsys):
    # Sixteen points put the largest image at about 13 500 digits, past the
    # interpreter's default limit of 4 300: main lifts the limit for the
    # command and puts the caller's value back when it returns.
    rel = random_poset_matrix(16, random.Random(20261018))
    rows = ["".join("1" if v else "0" for v in row) for row in rel]
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out = run_cli(capsys, "poset", "embed", "--matrix", ",".join(rows))
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(saved)
    images = out.strip().split(",")
    assert code == 0 and len(set(images)) == 16
    assert max(len(v) for v in images) > 4300


def test_scenario_bad_matrix_is_usage_error(capsys):
    code, _ = run_cli(capsys, "scenario", "poset", "--matrix", "110,110,001")
    assert code == 3


def test_scenario_rationals_pipeline(tmp_path, capsys):
    outdir = tmp_path / "run"
    code, out = run_cli(
        capsys, "scenario", "rationals", "--count", "2", "--E", "2",
        "--outdir", str(outdir),
    )
    assert code == 0
    report = (outdir / "report.jsonl").read_text().splitlines()
    kinds = {json.loads(line)["kind"] for line in report}
    assert {"PositiveReduction", "DefeatBundle", "BfoEquivalence"} <= kinds
    assert all(json.loads(line)["verdict"] == "PASS" for line in report)

    first = (outdir / "transcript.jsonl").read_bytes()
    again = tmp_path / "again"
    code, _ = run_cli(
        capsys, "scenario", "rationals", "--count", "2", "--E", "2",
        "--outdir", str(again),
    )
    assert code == 0
    assert (again / "transcript.jsonl").read_bytes() == first
    assert (again / "report.jsonl").read_bytes() == (outdir / "report.jsonl").read_bytes()


def test_construct_then_verify_round_trip(tmp_path, capsys):
    config = {
        "kind": "rationals", "count": 2, "E": 2, "budget": 100000,
        "k_max": 8,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    transcript_path = tmp_path / "t.jsonl"
    report_path = tmp_path / "r.jsonl"

    code, _ = run_cli(capsys, "construct", "--config", str(config_path),
                      "--out", str(transcript_path))
    assert code == 0

    code, _ = run_cli(capsys, "verify", "--config", str(config_path),
                      "--transcript", str(transcript_path),
                      "--report", str(report_path))
    assert code == 0
    lines = report_path.read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "TranscriptReplay"

    # Tampering with a witness must be caught.
    records = [json.loads(line) for line in transcript_path.read_text().splitlines()]
    records[0]["dx"] = hex(int(records[0]["dx"], 16) + 1)
    transcript_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, _ = run_cli(capsys, "verify", "--config", str(config_path),
                      "--transcript", str(transcript_path),
                      "--report", str(report_path))
    assert code == 1


SUMMARY = ("PositiveReduction,PASS\nDefeatBundle,PASS\nBfoEquivalence,PASS\n"
           "BfoEquivalence,PASS\nStageChecks,PASS\n")


def test_scenario_and_verify_print_the_whole_summary(tmp_path, capsys):
    outdir = tmp_path / "run"
    code, out = run_cli(capsys, "scenario", "rationals", "--count", "2", "--E", "2",
                        "--outdir", str(outdir))
    assert code == 0
    assert out == SUMMARY + "report,%s\n" % (outdir / "report.jsonl")
    code, out = run_cli(capsys, "verify", "--config", str(outdir / "config.json"),
                        "--transcript", str(outdir / "transcript.jsonl"),
                        "--report", str(tmp_path / "r.jsonl"))
    assert code == 0
    assert out == "TranscriptReplay,PASS\n" + SUMMARY


def test_verify_of_a_config_without_construction_is_usage_error(
    monkeypatch, tmp_path, capsys
):
    def read_jsonl(*args, **kwargs):
        raise AssertionError("the transcript was read")

    monkeypatch.setattr(construction.Transcript, "read_jsonl", read_jsonl)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"kind": "universal", "poset": ["11", "01"]}))
    transcript_path = tmp_path / "t.jsonl"
    transcript_path.write_text("{}\n")
    report_path = tmp_path / "r.jsonl"
    code = main(["verify", "--config", str(config_path), "--transcript",
                 str(transcript_path), "--report", str(report_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "error: universal scenarios run no construction\n"
    assert captured.out == ""
    assert not report_path.exists()


@pytest.mark.parametrize("extra", [[], ["--stages", "20"], ["--schedule", "full"]])
def test_construct_reproduces_scenario_transcript(extra, tmp_path, capsys):
    outdir = tmp_path / "out"
    code, _ = run_cli(capsys, "scenario", "rationals", "--count", "3", "--E", "3",
                      *extra, "--outdir", str(outdir))
    assert code == 0
    written = (outdir / "transcript.jsonl").read_bytes()
    config_path = str(outdir / "config.json")
    schedule = "full" if "full" in extra else "window"
    assert json.loads((outdir / "config.json").read_text()).get("schedule", "full") == schedule
    again = tmp_path / "again.jsonl"
    code, out = run_cli(capsys, "construct", "--config", config_path,
                        "--out", str(again))
    assert (code, out) == (0, "stages,%d\n" % written.count(b"\n"))
    assert again.read_bytes() == written

    # --stages overrides the window rather than setting a floor.
    code, _ = run_cli(capsys, "construct", "--config", config_path,
                      "--out", str(again), "--stages", "5")
    assert code == 0
    assert again.read_bytes().splitlines() == written.splitlines()[:5]


# Runs whose scenario certifies no scheduled pair: one profile, two profiles
# of different parity in the combined family, a one-point poset.
EMPTY_WINDOWS = [
    ["rationals", "--count", "1"],
    ["combined", "--count", "2"],
    ["poset", "--matrix", "1"],
]


@pytest.mark.parametrize("argv", EMPTY_WINDOWS)
def test_empty_window_is_refused_and_full_still_runs(argv, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["scenario", *argv, "--E", "2", "--outdir", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: schedule window runs no requirement")
    assert "--schedule full" in err
    assert not out.exists()

    code = main(["scenario", *argv, "--E", "2", "--schedule", "full", "--outdir", str(out)])
    assert code == 0
    config = str(out / "config.json")
    assert main(["verify", "--config", config, "--transcript", str(out / "transcript.jsonl"),
                 "--report", str(out / "verify-report.jsonl")]) == 0


@pytest.mark.parametrize("argv", [
    ["blocks", "--count", "1", "--kmax", "3"],
    ["map", "apply", "--count", "1", "--x", "5"],
    ["blocks", "--kind", "poset", "--matrix", "1", "--kmax", "3"],
])
def test_blocks_and_map_need_no_scheduled_pair(argv, capsys):
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out


# The README's construction scenario examples, at E = 3.
README_SCENARIOS = [
    ["rationals", "--count", "4", "--E", "3"],
    ["antichain", "--n", "3", "--E", "3"],
    ["combined", "--count", "6", "--E", "3"],
    ["poset", "--matrix", "111,011,001", "--E", "3"],
]


@pytest.mark.parametrize("schedule", ["window", "full"])
@pytest.mark.parametrize("argv", README_SCENARIOS)
def test_readme_scenarios_verify_under_both_schedules(argv, schedule, tmp_path, capsys):
    assert main(["scenario", *argv, "--schedule", schedule,
                 "--outdir", str(tmp_path)]) == 0
    assert main(["verify", "--config", str(tmp_path / "config.json"),
                 "--transcript", str(tmp_path / "transcript.jsonl"),
                 "--report", str(tmp_path / "verify-report.jsonl")]) == 0
    capsys.readouterr()


# A child process that runs scenario, then verify on its output, and exits
# with the first nonzero code.
_SCENARIO_THEN_VERIFY = """
import sys
from blockdensity.cli import main
out = sys.argv[1]
code = main(["scenario", *sys.argv[2:], "--outdir", out])
sys.exit(code or main(["verify", "--config", out + "/config.json",
                       "--transcript", out + "/transcript.jsonl",
                       "--report", out + "/verify-report.jsonl"]))
"""


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("argv", [["antichain", "--n", "3"], ["combined", "--count", "6"]])
def test_readme_defaults_run_in_one_gigabyte(argv, tmp_path):
    """The README examples at E = 50 finish, verified, in a child process
    whose address space is capped at 1 GiB."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    child = subprocess.run(
        [sys.executable, "-c", _SCENARIO_THEN_VERIFY, str(tmp_path), *argv],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_cap_address_space,
    )
    assert (child.returncode, child.stderr) == (0, "")


# Prints at exit the largest block index whose endpoint any block table has
# cached, as the geometry_reach fixture reads it.
_REACH = """
import atexit
from blockdensity import blocks
reach, real = [0], blocks.SourceBlocks._extend
def extend(self, *args, **kwargs):
    real(self, *args, **kwargs)
    reach[0] = max(reach[0], len(self._ends) - 1)
blocks.SourceBlocks._extend = extend
atexit.register(lambda: print(reach[0]))
"""
_REACH_OF_SCENARIO_THEN_VERIFY = _REACH + _SCENARIO_THEN_VERIFY
# The command line of its arguments, exiting with its code.
_VERIFY_ARGV = """
import sys
from blockdensity.cli import main
sys.exit(main())
"""


def _reach_bound(config_path, transcript_path):
    """max(K*, k_max) + 2 for the run of the config at config_path whose
    transcript is at transcript_path, K* the largest of its records' pairs',
    past which the construction reads no geometry."""
    config = ScenarioConfig.from_json(json.loads(config_path.read_text()))
    cert = prepare(config)[1].cert
    k_b = next(k for k in range(1, 100) if math.factorial(k - 1) > config.budget + 1)
    records = [json.loads(line) for line in transcript_path.open()]
    k_star = max(max(cert.k0(r["i"], r["j"]), k_b) for r in records)
    return max(k_star, config.k_max) + 2


@pytest.mark.parametrize("argv", [
    ["antichain", "--n", "3", "--schedule", "full"],
    ["combined", "--count", "6", "--schedule", "full"],
    ["rationals", "--count", "4"],
    ["antichain", "--n", "3", "--E", "25"],
])
def test_readme_and_benchmark_configs_verify_in_one_gigabyte_within_the_prefix(
        argv, tmp_path):
    """The README examples at E = 50 under --schedule full, and the
    benchmark's two window configs, finish, every certificate passing, in a
    child process whose address space is capped at 1 GiB, and no block table
    passes block max(K*, k_max) + 2: the records past k_max are checked from
    the profiles' factorial digits, and K* is the largest of the run's pairs,
    past which the construction reads no geometry."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    child = subprocess.run(
        [sys.executable, "-c", _REACH_OF_SCENARIO_THEN_VERIFY, str(tmp_path), *argv],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_cap_address_space,
    )
    assert (child.returncode, child.stderr) == (0, "")
    assert int(child.stdout.splitlines()[-1]) <= _reach_bound(tmp_path / "config.json",
                                                               tmp_path / "transcript.jsonl")


def test_a_tampered_frontier_record_fails_in_one_gigabyte_within_the_prefix(
        tmp_path, capsys):
    """dy moved by one on the last record of full-order antichain --n 3
    (k = 55 262) fails rerun_value from the profiles' factorial digits and
    the anchored rerun: verify exits 1 in a child process whose address
    space is capped at 1 GiB, and no block table passes block
    max(K*, k_max) + 2, as on the honest transcript."""
    assert main(["scenario", "antichain", "--n", "3", "--schedule", "full",
                 "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    transcript_path, report_path = tmp_path / "transcript.jsonl", tmp_path / "r.jsonl"
    records = [json.loads(line) for line in transcript_path.read_text().splitlines()]
    last = records[-1]
    assert last["branch"] == "diagonalized" and last["k"] > 50_000
    last["dy"] = hex(int(last["dy"], 16) + 1)
    transcript_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    child = subprocess.run(
        [sys.executable, "-c", _REACH + _VERIFY_ARGV,
         "verify", "--config", str(tmp_path / "config.json"),
         "--transcript", str(transcript_path), "--report", str(report_path)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_cap_address_space,
    )
    assert (child.returncode, child.stderr) == (1, "")
    report = {c["kind"]: c for c in map(json.loads, report_path.read_text().splitlines())}
    assert report["StageChecks"]["checks"] == [
        {"check": "rerun_value", "ok": False, "stage": len(records) - 1,
         "dx": str(int(last["dx"], 16))}]
    assert int(child.stdout.splitlines()[-1]) <= _reach_bound(tmp_path / "config.json",
                                                               tmp_path / "transcript.jsonl")


@pytest.fixture(scope="module")
def full_order_e20(tmp_path_factory):
    """The directory and records of scenario antichain --n 3 --E 20
    --schedule full, whose last record lies at k = 2 974."""
    outdir = tmp_path_factory.mktemp("full_e20")
    assert main(["scenario", "antichain", "--n", "3", "--E", "20", "--schedule", "full",
                 "--outdir", str(outdir)]) == 0
    return outdir, [json.loads(line) for line in (outdir / "transcript.jsonl").open()]


def _moved(record, field, shift):
    return hex(int(record[field], 16) + shift)


# Thirteen rewrites of a full-order run's last, diagonalized record, given
# the record and log2((k - 1)!): the two large offsets, 2^200 and 2^300 000
# at k = 55 262 of E = 50, keep their share of that bit length.
FRONTIER_TAMPERS = {
    "dx_plus_1": lambda r, bits: {"dx": _moved(r, "dx", 1)},
    "dx_minus_1": lambda r, bits: {"dx": _moved(r, "dx", -1)},
    "dy_plus_1": lambda r, bits: {"dy": _moved(r, "dy", 1)},
    "dx_plus_2_200": lambda r, bits: {"dx": _moved(r, "dx", 1 << round(bits * 200 / 790_866))},
    "e_plus_1": lambda r, bits: {"e": r["e"] + 1},
    "ell_plus_1": lambda r, bits: {"ell": _moved(r, "ell", 1), "M_after": r["M_after"] + 1},
    "ell_minus_1": lambda r, bits: {"ell": _moved(r, "ell", -1), "M_after": r["M_after"] - 1},
    "ell_plus_1000": lambda r, bits: {"ell": _moved(r, "ell", 1000),
                                      "M_after": r["M_after"] + 1000},
    "k_plus_1": lambda r, bits: {"k": r["k"] + 1},
    "k_minus_1": lambda r, bits: {"k": r["k"] - 1},
    "non_injective": lambda r, bits: {"branch": "non_injective", "dx2": _moved(r, "dx", 1)},
    "non_total": lambda r, bits: {"branch": "non_total_under_budget"},
    "dx_minus_2_300000": lambda r, bits: {
        "dx": _moved(r, "dx", -(1 << round(bits * 300_000 / 790_866)))},
}


@pytest.mark.parametrize("name", sorted(FRONTIER_TAMPERS))
def test_every_frontier_tamper_fails_within_the_prefix(name, full_order_e20, tmp_path, capsys,
                                                       geometry_reach):
    """Each tamper of the last record fails StageChecks there, so verify
    exits 1, and no block table passes block max(K*, k_max) + 2: past
    k_max every record is placed, reran and located by comparison."""
    outdir, records = full_order_e20
    last = records[-1]
    assert (len(records), last["k"], last["branch"]) == (332, 2974, "diagonalized")
    change = FRONTIER_TAMPERS[name](last, math.lgamma(last["k"]) / math.log(2))
    transcript_path = tmp_path / "t.jsonl"
    transcript_path.write_text("".join(json.dumps(r) + "\n"
                                       for r in [*records[:-1], dict(last, **change)]))
    geometry_reach[0] = 0
    report_path = tmp_path / "r.jsonl"
    code, _ = run_cli(capsys, "verify", "--config", str(outdir / "config.json"),
                      "--transcript", str(transcript_path), "--report", str(report_path))
    assert code == 1
    [stage_checks] = [c for c in map(json.loads, report_path.read_text().splitlines())
                      if c["kind"] == "StageChecks"]
    assert stage_checks["checks"][-1]["stage"] == len(records) - 1
    assert geometry_reach[0] <= _reach_bound(outdir / "config.json", transcript_path)


def test_a_stage_field_off_its_line_fails_its_record(tmp_path, capsys):
    """Record 40 of antichain --n 3 --E 25 with its stage field set to 41
    fails stage_field, before any other check, and so does the bundle that
    holds it, besides the replay."""
    outdir = tmp_path / "run"
    assert run_cli(capsys, "scenario", "antichain", "--n", "3", "--E", "25",
                   "--outdir", str(outdir))[0] == 0
    records = [json.loads(line) for line in (outdir / "transcript.jsonl").open()]
    records[40]["stage"] = 41
    report = _verify_tampered(capsys, tmp_path, outdir, records)
    assert report["StageChecks"][0]["checks"] == [
        {"check": "stage_field", "ok": False, "stage": 40, "value": 41}]
    assert [(c["subject"]["i"], c["subject"]["j"], c["checks"])
            for c in report["DefeatBundle"] if c["verdict"] != "PASS"] == [
        (records[40]["i"], records[40]["j"],
         [{"check": "defeat_record", "ok": False, "e": records[40]["e"], "stage": 40,
           "reason": "stage_field"}])]
    assert report["TranscriptReplay"][0]["checks"] == [
        {"check": "bit_exact", "ok": False, "first_divergence_stage": 40}]


def test_usage_error_exit_code(capsys):
    assert main(["scenario", "rationals", "--alpha", "9/4"]) == 3
    assert main(["nonsense"]) == 3


COMMANDS = ("blocks", "map", "machine", "poset", "construct", "verify", "scenario")


@pytest.mark.parametrize("cmd", COMMANDS)
def test_one_command_parser_prints_the_full_parsers_help(cmd, capsys):
    texts = []
    for parser in (cli.build_parser([cmd]), cli.build_parser()):
        with pytest.raises(SystemExit):
            parser.parse_args([cmd, "--help"])
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("usage: blockdensity %s " % cmd)


@pytest.mark.parametrize("argv, code", [
    (["blocks", "--kmax", "2", "--count", "1"], 0),
    (["map", "apply", "--x", "3"], 0),
    (["machine", "decode", "--e", "5"], 0),
    (["poset", "embed", "--matrix", "11,01"], 0),
    (["construct", "--config", "missing.json", "--out", "t.jsonl"], 3),
    (["verify", "--config", "missing.json", "--transcript", "t", "--report", "r"], 3),
    (["scenario", "universal", "--matrix", "11,01", "--outdir", "out"], 0),
])
def test_a_command_builds_only_its_own_parser(argv, code, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert main(argv) == code
    assert len(built) == 2  # the top-level parser and the command's own
    monkeypatch.setattr(sys, "argv", ["blockdensity", *argv])
    assert main() == code
    assert len(built) == 4


def test_help_and_no_or_unknown_command_list_every_command(capsys):
    assert main([]) == 3
    assert capsys.readouterr().err == (
        "error: the following arguments are required: command\n")
    assert main(["bogus"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: argument command: invalid choice: 'bogus' ")
    assert all("'%s'" % cmd in err for cmd in COMMANDS)
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    assert "{%s}" % ",".join(COMMANDS) in capsys.readouterr().out


@pytest.mark.parametrize("argv, reads", [
    (["scenario", "antichain", "--count", "5"], "--n"),
    (["scenario", "rationals", "--n", "2"], "--count"),
    (["scenario", "combined", "--n", "2"], "--count"),
    (["scenario", "poset", "--matrix", "1", "--count", "2"], "--matrix"),
])
def test_scenario_count_flag_of_another_kind_is_usage_error(argv, reads, tmp_path, capsys):
    code = main(argv + ["--E", "2", "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert "scenario %s reads %s, not " % (argv[1], reads) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["rationals", "--alpha", "3/2"],
    ["rationals", "--beta", "7/4"],
    ["rationals", "--matrix", "11,01"],
    ["antichain", "--matrix", "11,01"],
    ["combined", "--matrix", "11,01"],
    ["universal", "--alpha", "3/2"],
    ["universal", "--stages", "2"],
    ["universal", "--budget", "5"],
    ["universal", "--E", "3"],
    ["universal", "--kmax", "6"],
    ["universal", "--schedule", "window"],
])
def test_scenario_flag_the_kind_does_not_read_is_usage_error(argv, tmp_path, capsys):
    code = main(["scenario", *argv, "--outdir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert "scenario %s does not read %s" % (argv[0], argv[1]) in err
    assert not (tmp_path / "out").exists()


# Scenario arguments, the README's and the benchmark's among them, and the
# config each builds: a flag left out takes the ScenarioConfig default, except
# that a construction kind runs the window schedule unless --schedule says
# otherwise.
SCENARIO_CONFIGS = [
    (["rationals", "--count", "4"], ScenarioConfig("rationals", count=4, schedule="window")),
    (["rationals", "--count", "4", "--E", "25"],
     ScenarioConfig("rationals", count=4, e_bound=25, schedule="window")),
    (["antichain", "--n", "3", "--E", "25"],
     ScenarioConfig("antichain", count=3, e_bound=25, schedule="window")),
    (["antichain"], ScenarioConfig("antichain", count=3, schedule="window")),
    (["antichain", "--alpha", "3/2", "--beta", "5/3"],
     ScenarioConfig("antichain", count=3, alpha=Fraction(3, 2), beta=Fraction(5, 3),
                    schedule="window")),
    (["combined", "--count", "6"], ScenarioConfig("combined", count=6, schedule="window")),
    (["poset", "--matrix", "111,011,001", "--E", "10", "--kmax", "8"],
     ScenarioConfig("poset", poset_rows=["111", "011", "001"], e_bound=10, k_max=8,
                    schedule="window")),
    (["rationals", "--stages", "7", "--budget", "9"],
     ScenarioConfig("rationals", stages=7, budget=9, schedule="window")),
    (["universal"], ScenarioConfig("universal")),
    (["universal", "--matrix", "11,01"], ScenarioConfig("universal", poset_rows=["11", "01"])),
    (["rationals", "--count", "4", "--schedule", "full"], ScenarioConfig("rationals", count=4)),
    (["antichain", "--schedule", "window"], ScenarioConfig("antichain", count=3, schedule="window")),
]


@pytest.mark.parametrize("argv, want", SCENARIO_CONFIGS)
def test_scenario_flags_fill_the_config(argv, want, monkeypatch, tmp_path, capsys):
    seen = []

    def run_scenario(config):
        seen.append(config)
        return ScenarioResult(config, [], None, 0)

    monkeypatch.setattr(cli, "run_scenario", run_scenario)
    assert main(["scenario", *argv, "--outdir", str(tmp_path)]) == 0
    assert seen == [want]


# Inputs each command reads and rejects: argv, with {config} a valid config
# file and {bad} one holding the given JSON text.
BAD_INPUTS = {
    "map_negative_x": (["map", "apply", "--x", "-1"], None),
    "map_undominated_pair": (["map", "reduce", "--i", "0", "--j", "3", "--x", "4"], None),
    "machine_negative_e": (["machine", "decode", "--e", "-1"], None),
    "machine_zero_budget": (["machine", "run", "--e", "0", "--budget", "0"], None),
    "blocks_bad_index": (["blocks", "--i", "a"], None),
    "construct_zero_stages": (
        ["construct", "--config", "{config}", "--out", "{out}", "--stages", "0"], None),
    "verify_missing_transcript": (
        ["verify", "--config", "{config}", "--transcript", "{out}",
         "--report", "{report}"], None),
    "scenario_universal_not_an_order": (
        ["scenario", "universal", "--matrix", "11,11", "--outdir", "{out}"], None),
    "scenario_universal_bad_digit": (
        ["scenario", "universal", "--matrix", "1x", "--outdir", "{out}"], None),
}
# Config texts construct rejects, with the text its message must contain.
BAD_CONFIGS = {
    "config_null_count": ('{"kind": "rationals", "count": null}', "key 'count'"),
    "config_list": ("[]", "JSON object"),
    "config_string": ('"rationals"', "JSON object"),
    "config_numeric_alpha": ('{"kind": "antichain", "alpha": 1}', "key 'alpha'"),
    "config_float_count": ('{"kind": "rationals", "count": 4.7}', "key 'count'"),
    "config_string_count": ('{"kind": "rationals", "count": "4"}', "key 'count'"),
    "config_bool_count": ('{"kind": "rationals", "count": true}', "key 'count'"),
    "config_bool_budget": ('{"kind": "rationals", "budget": true}', "key 'budget'"),
    "config_float_E": ('{"kind": "rationals", "E": 50.0}', "key 'E'"),
    "config_string_k_max": ('{"kind": "rationals", "k_max": "12"}', "key 'k_max'"),
    "config_float_stages": ('{"kind": "rationals", "stages": 2.5}', "key 'stages'"),
    "config_bool_stages": ('{"kind": "rationals", "stages": false}', "key 'stages'"),
    "config_colon_beta": ('{"kind": "antichain", "beta": "7:4"}', "key 'beta'"),
    "config_zero_denominator_alpha": (
        '{"kind": "antichain", "alpha": "3/0"}', "key 'alpha'"),
    "config_string_poset": ('{"kind": "poset", "poset": "111"}', "key 'poset'"),
    "config_poset_of_ints": ('{"kind": "poset", "poset": [1]}', "key 'poset'"),
    "config_list_kind": ('{"kind": ["rationals"]}', "key 'kind'"),
    "config_unknown_schedule": (
        '{"kind": "rationals", "schedule": "cantor"}', "schedule must be one of"),
    "config_numeric_schedule": ('{"kind": "rationals", "schedule": 1}', "key 'schedule'"),
    "config_misspelt_k_max": (
        '{"kind": "rationals", "count": 2, "E": 2, "kmax": 5}', "'kmax'"),
    "config_not_utf8": (b"\xff\xfe", "cannot read config"),
    "config_deeply_nested": ("[" * 200_000 + "]" * 200_000, "cannot read config"),
}
BAD_INPUTS.update(
    (name, (["construct", "--config", "{bad}", "--out", "{out}"], text))
    for name, (text, _) in BAD_CONFIGS.items()
)
# verify reads its config the same way before it opens the transcript.
BAD_INPUTS["verify_config_not_utf8"] = (
    ["verify", "--config", "{bad}", "--transcript", "{out}", "--report", "{report}"],
    BAD_CONFIGS["config_not_utf8"][0])
BAD_INPUTS["verify_config_deeply_nested"] = (
    ["verify", "--config", "{bad}", "--transcript", "{out}", "--report", "{report}"],
    BAD_CONFIGS["config_deeply_nested"][0])


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exits_3(name, tmp_path, capsys):
    argv, bad = BAD_INPUTS[name]
    paths = {"config": tmp_path / "config.json", "bad": tmp_path / "bad.json",
             "out": tmp_path / "missing.jsonl", "report": tmp_path / "r.jsonl"}
    paths["config"].write_text(json.dumps({"kind": "rationals", "count": 2, "E": 2}))
    if isinstance(bad, bytes):
        paths["bad"].write_bytes(bad)
    elif bad is not None:
        paths["bad"].write_text(bad)
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ")
    config = name.removeprefix("verify_")
    if config in BAD_CONFIGS:
        assert BAD_CONFIGS[config][1] in captured.err


@pytest.mark.parametrize("fault", [
    ValueError("internal"),
    MemoryError(),
    ArithmeticError("pigeonhole violated: a total injective map stayed inside "
                    "the dominated range"),
])
def test_internal_fault_exits_4(fault, monkeypatch, tmp_path, capsys):
    def run_scenario(config):
        raise fault

    monkeypatch.setattr(cli, "run_scenario", run_scenario)
    code = main(["scenario", "rationals", "--outdir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == "internal error: %s: %s\n" % (type(fault).__name__, fault)
    assert captured.out == ""


# command -> argv whose last word is an output path that cannot be written:
# one under a missing directory, or one under a regular file.
UNWRITABLE = {
    "blocks": ["blocks", "--kmax", "3", "--out", "{missing}/b.csv"],
    "construct": ["construct", "--config", "{config}", "--out", "{missing}/t.jsonl"],
    "verify": ["verify", "--config", "{config}", "--transcript", "{transcript}",
               "--report", "{missing}/r.jsonl"],
    "scenario": ["scenario", "rationals", "--count", "2", "--E", "1",
                 "--outdir", "{file}/x"],
}


@pytest.mark.parametrize("command", sorted(UNWRITABLE))
def test_unwritable_output_is_usage_error(command, constructed, tmp_path, capsys):
    config_path, records = constructed
    transcript_path = tmp_path / "t.jsonl"
    transcript_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    regular = tmp_path / "file"
    regular.write_text("")
    paths = {"config": config_path, "transcript": transcript_path,
             "missing": tmp_path / "missing", "file": regular}
    argv = [word.format(**paths) for word in UNWRITABLE[command]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: cannot write %s: " % argv[-1])
    assert captured.err.count("\n") == 1
    assert captured.out == ""


# command -> (the cli function that does its work, argv with the output path
# "{out}"). scenario's write_outputs makes a missing output directory, so
# only a regular file in the way stops it.
WORK_AFTER_OUTPUT = {
    "construct": ("construct", ["construct", "--config", "{config}", "--out", "{out}"]),
    "verify": ("verify_transcript",
               ["verify", "--config", "{config}", "--transcript", "{transcript}",
                "--report", "{out}"]),
    "scenario": ("run_scenario", ["scenario", "rationals", "--count", "2", "--E", "1",
                                  "--outdir", "{out}"]),
}

# bad -> the output path; "readonly" is an existing file of mode 0o444.
BAD_OUTPUT = {"missing": "missing/x", "file": "file/x", "readonly": "readonly",
              "directory": "."}

_ROOT_WRITES_ANY_FILE = pytest.mark.skipif(
    os.geteuid() == 0, reason="root may write a file of mode 0o444")


@pytest.mark.parametrize("command, bad", [
    ("construct", "missing"), ("construct", "file"), ("construct", "directory"),
    pytest.param("construct", "readonly", marks=_ROOT_WRITES_ANY_FILE),
    ("verify", "missing"), ("verify", "file"),
    pytest.param("verify", "readonly", marks=_ROOT_WRITES_ANY_FILE),
    ("scenario", "file"),
])
def test_unwritable_output_is_refused_before_the_work(
    command, bad, constructed, monkeypatch, tmp_path, capsys
):
    config_path, records = constructed
    transcript_path = tmp_path / "t.jsonl"
    transcript_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    (tmp_path / "file").write_text("")
    readonly = tmp_path / "readonly"
    readonly.write_text("kept\n")
    readonly.chmod(0o444)
    work, argv = WORK_AFTER_OUTPUT[command]

    def reached(*args, **kwargs):
        raise AssertionError("%s ran before its output was checked" % work)

    monkeypatch.setattr(cli, work, reached)
    out = tmp_path / BAD_OUTPUT[bad]
    paths = {"config": config_path, "transcript": transcript_path, "out": out}
    argv = [word.format(**paths) for word in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: cannot write %s" % out)
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()
    assert readonly.read_text() == "kept\n"


def test_scenario_makes_no_outdir_before_its_work(monkeypatch, tmp_path, capsys):
    def fails(*args, **kwargs):
        raise RuntimeError("work failed")

    monkeypatch.setattr(cli, "run_scenario", fails)
    outdir = tmp_path / "missing" / "out"
    code = main(["scenario", "rationals", "--count", "2", "--E", "1",
                 "--outdir", str(outdir)])
    assert code == 4
    assert "RuntimeError" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def _set(index, key, change):
    def edit(records):
        records[index][key] = change(records[index][key])
    return edit


# config.json of `scenario rationals --count 2 --E 2 --kmax 6`, written
# before the element_scan key left the config schema, and the run's
# transcript.jsonl; PARENT_TRANSCRIPT is that transcript as it was written
# before records held witness offsets, with the witnesses x, x2 and y
# themselves.
OLD_CONFIG = """{
  "kind": "rationals",
  "count": 2,
  "alpha": "5/4",
  "beta": "7/4",
  "poset": [],
  "stages": null,
  "budget": 100000,
  "E": 2,
  "k_max": 6,
  "element_scan": 20000
}
"""
OLD_TRANSCRIPT = (
    '{"stage": 0, "e": 0, "i": 0, "j": 1, "k": 10, "branch": "diagonalized", '
    '"dx": "0x0", "dx2": null, "dy": "0x0", "ell": "0xb", "budget": 100000, '
    '"M_after": 11}\n'
    '{"stage": 1, "e": 1, "i": 0, "j": 1, "k": 12, "branch": "diagonalized", '
    '"dx": "-0x1", "dx2": null, "dy": "0x0", "ell": "0xd", '
    '"budget": 100000, "M_after": 13}\n'
)
PARENT_TRANSCRIPT = (
    '{"stage": 0, "e": 0, "i": 0, "j": 1, "k": 10, "branch": "diagonalized", '
    '"x": "0x5226cc", "x2": null, "y": "0x5226cc", "ell": "0xb", "budget": 100000, '
    '"M_after": 11}\n'
    '{"stage": 1, "e": 1, "i": 0, "j": 1, "k": 12, "branch": "diagonalized", '
    '"x": "0x298f92cb", "x2": null, "y": "0x298f92cc", "ell": "0xd", '
    '"budget": 100000, "M_after": 13}\n'
)
# OLD_TRANSCRIPT with its witness fields in decimal.
DECIMAL_TRANSCRIPT = (
    '{"stage": 0, "e": 0, "i": 0, "j": 1, "k": 10, "branch": "diagonalized", '
    '"dx": "0", "dx2": null, "dy": "0", "ell": "11", "budget": 100000, '
    '"M_after": 11}\n'
    '{"stage": 1, "e": 1, "i": 0, "j": 1, "k": 12, "branch": "diagonalized", '
    '"dx": "-1", "dx2": null, "dy": "0", "ell": "13", '
    '"budget": 100000, "M_after": 13}\n'
)


def test_old_config_with_element_scan_still_verifies(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(OLD_CONFIG)
    transcript_path = tmp_path / "transcript.jsonl"
    transcript_path.write_text(OLD_TRANSCRIPT)
    report_path = tmp_path / "r.jsonl"
    code, _ = run_cli(capsys, "verify", "--config", str(config_path),
                      "--transcript", str(transcript_path),
                      "--report", str(report_path))
    assert code == 0
    report = [json.loads(line) for line in report_path.read_text().splitlines()]
    assert report[0]["checks"] == [{"check": "bit_exact", "ok": True}]
    assert [c["subject"] for c in report if c["kind"] == "PositiveReduction"] == [
        {"i": 1, "j": 0, "blocks": 6}
    ]
    # The same config rebuilds the same transcript.
    rebuilt = tmp_path / "again.jsonl"
    code, _ = run_cli(capsys, "construct", "--config", str(config_path),
                      "--out", str(rebuilt))
    assert code == 0
    assert rebuilt.read_text() == OLD_TRANSCRIPT


def test_decimal_witness_transcript_is_refused(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(OLD_CONFIG)
    transcript_path = tmp_path / "transcript.jsonl"
    transcript_path.write_text(DECIMAL_TRANSCRIPT)
    report_path = tmp_path / "r.jsonl"
    code = main(["verify", "--config", str(config_path),
                 "--transcript", str(transcript_path),
                 "--report", str(report_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: %s:1: " % transcript_path)
    assert "witness dx must be null or hex text" in err
    assert not report_path.exists()


def test_transcript_with_absolute_witnesses_is_refused(tmp_path, capsys):
    """A line that holds the witnesses x, x2 and y themselves, as transcripts
    did before records held offsets, is a load error naming its first key,
    never read as offsets."""
    config_path = tmp_path / "config.json"
    config_path.write_text(OLD_CONFIG)
    transcript_path = tmp_path / "transcript.jsonl"
    transcript_path.write_text(PARENT_TRANSCRIPT)
    report_path = tmp_path / "r.jsonl"
    code = main(["verify", "--config", str(config_path),
                 "--transcript", str(transcript_path),
                 "--report", str(report_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: %s:1: " % transcript_path)
    assert "unknown key 'x'" in err
    assert not report_path.exists()


def test_poset_scenario_with_a_cell_past_the_frontier_is_incomplete(tmp_path, capsys):
    code, out = run_cli(capsys, "scenario", "poset", "--matrix", "11,01", "--E", "1",
                        "--kmax", "40", "--outdir", str(tmp_path))
    assert code == 2
    assert out.splitlines()[0] == "EmbeddingMatrix,INCOMPLETE"


# name -> (edit of the parsed records, exit code, bit_exact, first divergence,
# the (stage, check) pairs StageChecks fails)
TAMPERS = {
    "m_after_plus_one": (_set(2, "M_after", lambda m: m + 1), 1, False, 2, [(2, "m_after")]),
    "y_plus_one": (_set(1, "dy", lambda dy: hex(int(dy, 16) + 1)), 1, False, 1,
                   [(1, "rerun_value")]),
    "dx_plus_one": (_set(1, "dx", lambda dx: hex(int(dx, 16) + 1)), 1, False, 1,
                    [(1, "rerun_value")]),
    "dx_minus_one": (_set(1, "dx", lambda dx: hex(int(dx, 16) - 1)), 1, False, 1,
                     [(1, "rerun_value")]),
    "last_record_dropped": (lambda records: records.pop(), 2, True, None, []),
    "empty_file": (lambda records: records.clear(), 1, False, None, []),
}


@pytest.fixture(scope="module")
def constructed(tmp_path_factory):
    root = tmp_path_factory.mktemp("tamper")
    config = {
        "kind": "rationals", "count": 2, "E": 3, "budget": 100000,
        "k_max": 8,
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    transcript_path = root / "t.jsonl"
    assert main(["construct", "--config", str(config_path),
                 "--out", str(transcript_path)]) == 0
    records = [json.loads(line) for line in transcript_path.read_text().splitlines()]
    # Record 1 runs program 1, so true there equals the replayed e as a value.
    assert len(records) == 4 and records[1]["e"] == 1
    assert records[1]["branch"] == "diagonalized"
    return config_path, records


@pytest.mark.parametrize("name", sorted(TAMPERS))
def test_verify_rejects_tampered_records(name, constructed, tmp_path, capsys):
    config_path, records = constructed
    edit, want_code, want_bit_exact, divergence, stage_faults = TAMPERS[name]
    records = [dict(r) for r in records]
    edit(records)
    transcript_path = tmp_path / "t.jsonl"
    transcript_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    report_path = tmp_path / "r.jsonl"
    code, _ = run_cli(capsys, "verify", "--config", str(config_path),
                      "--transcript", str(transcript_path),
                      "--report", str(report_path))
    report = [json.loads(line) for line in report_path.read_text().splitlines()]
    replay, stage_checks = report[0], report[-1]
    assert (replay["kind"], stage_checks["kind"]) == ("TranscriptReplay", "StageChecks")
    check = replay["checks"][0]
    assert (code, check["ok"]) == (want_code, want_bit_exact)
    assert check.get("first_divergence_stage") == divergence
    assert [(c["stage"], c["check"]) for c in stage_checks["checks"]
            if not c["ok"]] == stage_faults


def test_verify_holds_each_record_to_the_runs_budget(tmp_path, capsys):
    """Program 3 halts in 2 steps, so its stage 3 record rewritten as a
    divergence under a budget of 1 passes every rerun at that budget; the
    record's budget must be the run's, checked before any rerun."""
    outdir = tmp_path / "run"
    assert run_cli(capsys, "scenario", "rationals", "--count", "2", "--E", "8",
                   "--outdir", str(outdir))[0] == 0
    transcript_path = outdir / "transcript.jsonl"
    records = [json.loads(line) for line in transcript_path.read_text().splitlines()]
    assert (records[3]["e"], records[3]["branch"]) == (3, "diagonalized")
    records[3].update(branch="non_total_under_budget", dx2=None, dy=None, ell=None,
                      budget=1, M_after=records[3]["k"])
    transcript_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    report_path = tmp_path / "r.jsonl"
    code, _ = run_cli(capsys, "verify", "--config", str(outdir / "config.json"),
                      "--transcript", str(transcript_path), "--report", str(report_path))
    assert code == 1
    report = {c["kind"]: c for c in map(json.loads, report_path.read_text().splitlines())}
    assert report["StageChecks"]["checks"] == [
        {"check": "budget", "ok": False, "stage": 3, "budget": 1}]
    assert report["DefeatBundle"]["checks"] == [
        {"check": "defeat_record", "ok": False, "e": 3, "stage": 3, "reason": "budget"}]


def _anchor(config_path, record):
    """b_j(k + 1), the anchor of a diagonalized record's witnesses."""
    coded, _ = prepare(ScenarioConfig.from_json(json.loads(config_path.read_text())))
    return coded.source(record["j"]).endpoint(record["k"] + 1)


# name -> (field, its tampered value given the anchor, the field the report
# names and the value it gives, given the anchor); each must fail StageChecks on record 1's
# witness_fields check, never crash or read as a usage error. Record 1 lies
# past the prefix (k >= k_max = 8 and (k - 1)! > budget), where a negative
# witness is named by its offset field.
WITNESS_TAMPERS = {
    "x_null": ("dx", lambda anchor: None, "dx", lambda anchor: None),
    "x_negative": ("dx", lambda anchor: hex(-anchor - 3), "dx", lambda anchor: str(-anchor - 3)),
    "y_negative": ("dy", lambda anchor: hex(-anchor - 3), "dy", lambda anchor: str(-anchor - 3)),
}


def _verify_with_record_1_set(constructed, tmp_path, capsys, field, value):
    """Exit code of verify and its StageChecks certificate, once record 1's
    field is set to value."""
    config_path, records = constructed
    records = [dict(r) for r in records]
    records[1][field] = value
    transcript_path = tmp_path / "t.jsonl"
    transcript_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    report_path = tmp_path / "r.jsonl"
    code, _ = run_cli(capsys, "verify", "--config", str(config_path),
                      "--transcript", str(transcript_path),
                      "--report", str(report_path))
    report = [json.loads(line) for line in report_path.read_text().splitlines()]
    [stage_checks] = [c for c in report if c["kind"] == "StageChecks"]
    return code, stage_checks


@pytest.mark.parametrize("name", sorted(WITNESS_TAMPERS))
def test_verify_bad_witness_fails_its_certificate(name, constructed, tmp_path, capsys):
    field, value, witness, reported = WITNESS_TAMPERS[name]
    config_path, records = constructed
    anchor = _anchor(config_path, records[1])
    code, stage_checks = _verify_with_record_1_set(
        constructed, tmp_path, capsys, field, value(anchor))
    assert code == 1
    assert stage_checks["verdict"] == "FAIL"
    assert stage_checks["checks"] == [
        {"check": "witness_fields", "ok": False, "stage": 1, "field": witness,
         "value": reported(anchor)}
    ]


@pytest.mark.parametrize("field, value", [("e", 10**30), ("i", 10**9)],
                         ids=["huge_e", "huge_i"])
def test_verify_record_off_schedule_fails_fast(field, value, constructed, tmp_path,
                                               capsys):
    """A record naming another requirement fails before its program is
    decoded or its witnesses located: for these values neither would finish."""
    scheduled = {key: constructed[1][1][key] for key in ("e", "i", "j")}
    code, stage_checks = _verify_with_record_1_set(constructed, tmp_path, capsys,
                                                   field, value)
    assert code == 1
    assert stage_checks["verdict"] == "FAIL"
    assert stage_checks["checks"] == [
        {"check": "schedule_mismatch", "ok": False, "stage": 1, **scheduled}
    ]


def test_verify_collision_witness_past_its_block_fails_before_any_rerun(constructed, tmp_path,
                                                                      capsys):
    """Record 1 rewritten as a collision of b_i(k) with b_i(k) + 2**1_000_000
    fails witness_block before either witness is rerun: a literal run from the
    far witness would hold a million-bit register in each state it records."""
    config_path, records = constructed
    records = [dict(r) for r in records]
    k = records[1]["k"]
    records[1].update(branch="non_injective", dx="0x0", dx2=hex(1 << 1_000_000), dy=None,
                      ell=None, M_after=k)
    transcript_path = tmp_path / "t.jsonl"
    transcript_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    report_path = tmp_path / "r.jsonl"
    code, _ = run_cli(capsys, "verify", "--config", str(config_path),
                      "--transcript", str(transcript_path), "--report", str(report_path))
    assert code == 1
    report = {c["kind"]: c for c in map(json.loads, report_path.read_text().splitlines())}
    assert report["StageChecks"]["checks"] == [
        {"check": "witness_block", "ok": False, "stage": 1, "expected": k}]


@pytest.fixture
def geometry_reach(monkeypatch):
    """A one-item list holding the largest block index whose endpoint any
    block table has cached since the test began: each source's and the
    target's, which extends through the same SourceBlocks._extend."""
    reach = [0]
    real = blocks.SourceBlocks._extend

    def extend(self, *args, **kwargs):
        real(self, *args, **kwargs)
        reach[0] = max(reach[0], len(self._ends) - 1)

    monkeypatch.setattr(blocks.SourceBlocks, "_extend", extend)
    return reach


def test_verify_k_past_the_selector_bound_fails_before_geometry(constructed, tmp_path,
                                                              capsys, geometry_reach):
    """A record whose k lies past the last block the domination search could
    pick fails k_bound before any geometry at k is read: nothing would
    finish building the endpoints of block 10**6."""
    config_path, records = constructed
    code, stage_checks = _verify_with_record_1_set(constructed, tmp_path, capsys,
                                                   "k", 10**6)
    assert code == 1
    [check] = stage_checks["checks"]
    assert (check["check"], check["stage"], check["k"]) == ("k_bound", 1, 10**6)
    assert records[1]["k"] <= check["bound"] < 10**6
    assert geometry_reach[0] <= _reach_bound(config_path, tmp_path / "t.jsonl")


def test_verify_oversized_offset_fails_its_block_without_growing_geometry(
        tmp_path, capsys, geometry_reach):
    """An offset that puts x far past its block fails witness_block by
    comparison with the block's endpoints: x is never located, so the block
    geometry stops at block max(K*, k_max) + 2."""
    outdir = tmp_path / "run"
    assert run_cli(capsys, "scenario", "rationals", "--count", "2", "--E", "4",
                   "--outdir", str(outdir))[0] == 0
    transcript_path = outdir / "transcript.jsonl"
    records = [json.loads(line) for line in transcript_path.read_text().splitlines()]
    assert records[1]["branch"] == "diagonalized"
    records[1]["dx"] = hex(1 << 600000)
    transcript_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    geometry_reach[0] = 0
    report_path = tmp_path / "r.jsonl"
    code, _ = run_cli(capsys, "verify", "--config", str(outdir / "config.json"),
                      "--transcript", str(transcript_path), "--report", str(report_path))
    assert code == 1
    report = {c["kind"]: c for c in map(json.loads, report_path.read_text().splitlines())}
    assert report["StageChecks"]["checks"] == [
        {"check": "witness_block", "ok": False, "stage": 1, "expected": records[1]["k"]}]
    assert geometry_reach[0] <= _reach_bound(outdir / "config.json", transcript_path)


def test_failed_record_does_not_raise_later_k_bounds(tmp_path, capsys, geometry_reach):
    """A record whose M_after is not established moves the frontier by the
    honest stage, not by its own M_after: record 0's image block moved far
    out fails image_block, and record 1's k just past it fails k_bound, so no
    geometry is built out there."""
    outdir = tmp_path / "run"
    assert run_cli(capsys, "scenario", "rationals", "--count", "2", "--E", "4",
                   "--outdir", str(outdir))[0] == 0
    transcript_path = outdir / "transcript.jsonl"
    records = [json.loads(line) for line in transcript_path.read_text().splitlines()]
    assert records[0]["branch"] == "diagonalized"
    honest_ell, far = int(records[0]["ell"], 16), 3000
    records[0]["ell"], records[0]["M_after"] = hex(far), far
    records[1]["k"] = far + 1
    transcript_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    geometry_reach[0] = 0
    report_path = tmp_path / "r.jsonl"
    code, _ = run_cli(capsys, "verify", "--config", str(outdir / "config.json"),
                      "--transcript", str(transcript_path), "--report", str(report_path))
    assert code == 1
    report = {c["kind"]: c for c in map(json.loads, report_path.read_text().splitlines())}
    assert [(c["check"], c["stage"]) for c in report["StageChecks"]["checks"]] == [
        ("image_block", 0), ("k_bound", 1)]
    assert report["StageChecks"]["checks"][0]["located"] == honest_ell
    assert geometry_reach[0] <= max(r["k"] for r in records[2:]) + 2


def test_a_failed_record_leaves_later_bounds_to_honest_records(tmp_path, capsys):
    """Past a failing record the frontier moves to the last block the honest
    stage's image could reach, which the honest M_after does not pass: a
    witness one off at stage 100 fails only that record, though every later k
    is bounded by F + 1 there (the frontier F is past every pair's K0 <= 60)."""
    outdir = tmp_path / "run"
    assert run_cli(capsys, "scenario", "rationals", "--count", "4",
                   "--outdir", str(outdir))[0] == 0
    transcript_path = outdir / "transcript.jsonl"
    records = [json.loads(line) for line in transcript_path.read_text().splitlines()]
    n = next(n for n in range(100, len(records))
             if records[n]["branch"] == "diagonalized")
    records[n]["dx"] = hex(int(records[n]["dx"], 16) + 1)
    transcript_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    report_path = tmp_path / "r.jsonl"
    code, _ = run_cli(capsys, "verify", "--config", str(outdir / "config.json"),
                      "--transcript", str(transcript_path), "--report", str(report_path))
    assert code == 1
    report = {c["kind"]: c for c in map(json.loads, report_path.read_text().splitlines())}
    assert [(c["check"], c["stage"]) for c in report["StageChecks"]["checks"]] == [
        ("rerun_value", n)]


def _verify_tampered(capsys, tmp_path, outdir, records):
    """verify's report of outdir's run with its transcript replaced by records,
    as {kind: [certificates]}."""
    transcript_path = outdir / "transcript.jsonl"
    transcript_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    report_path = tmp_path / "r.jsonl"
    code, _ = run_cli(capsys, "verify", "--config", str(outdir / "config.json"),
                      "--transcript", str(transcript_path), "--report", str(report_path))
    assert code == 1
    report = {}
    for cert in map(json.loads, report_path.read_text().splitlines()):
        report.setdefault(cert["kind"], []).append(cert)
    return report


@pytest.mark.parametrize("shift, failing", [
    (None, [("k_bound", 100)]),
    (-1, [("membership_split", 99), ("image_block", 100)]),
], ids=["k_far_out", "k_one_low"])
def test_failing_record_moves_the_frontier_by_the_schedule(shift, failing, tmp_path, capsys):
    """Past a failing record the frontier moves by the block the honest stage
    picks, never by the record's own k: record 100's k set to 10**6, or one
    lower than the honest block, fails only the records that read it and the
    bundles holding them, not every later honest record."""
    outdir = tmp_path / "run"
    assert run_cli(capsys, "scenario", "rationals", "--count", "4",
                   "--outdir", str(outdir))[0] == 0
    records = [json.loads(line)
               for line in (outdir / "transcript.jsonl").read_text().splitlines()]
    records[100]["k"] = 10**6 if shift is None else records[100]["k"] + shift
    report = _verify_tampered(capsys, tmp_path, outdir, records)
    [stage_checks] = report["StageChecks"]
    assert [(c["check"], c["stage"]) for c in stage_checks["checks"]] == failing
    bundles = report["DefeatBundle"]
    assert len(bundles) == 6
    assert sum(c["verdict"] == "FAIL" for c in bundles) == len(failing)


def test_failing_order_driven_records_read_no_geometry_past_the_honest_blocks(
        tmp_path, capsys, geometry_reach):
    """On an antichain run, whose selectors pick blocks of one 2-adic
    valuation, records 60 and 61 moved to block 10**6 fail k_bound alone, and
    the source geometry stops at block k + 2 of the records' largest honest k."""
    outdir = tmp_path / "run"
    assert run_cli(capsys, "scenario", "antichain", "--n", "3", "--E", "25",
                   "--outdir", str(outdir))[0] == 0
    records = [json.loads(line)
               for line in (outdir / "transcript.jsonl").read_text().splitlines()]
    honest_max = max(r["k"] for r in records)
    for n in (60, 61):
        records[n]["k"] = 10**6
    geometry_reach[0] = 0
    report = _verify_tampered(capsys, tmp_path, outdir, records)
    [stage_checks] = report["StageChecks"]
    assert [(c["check"], c["stage"]) for c in stage_checks["checks"]] == [
        ("k_bound", 60), ("k_bound", 61)]
    assert geometry_reach[0] <= honest_max + 2


def test_domination_search_makes_two_selector_calls_per_search(monkeypatch, tmp_path,
                                                               capsys):
    """Each search starts at the closed-form first selected block past the
    frontier: one selector call checks that it is least, and one reads each
    candidate. Candidates below K* have their lengths compared; the first at
    or past K* is returned unread. Nearly every first candidate dominates or
    lies past K*, so a search makes at most 2 calls but for the few whose
    first candidates fail. Counted per search, in process, with the
    candidates counted after the search by uncounted selector calls."""
    counts = {"s": 0, "length": 0}
    per_search = []
    real_s, real_length = profiles.GapCertificate.s, blocks.SourceBlocks.length
    real_search = construction.domination_search

    def counting(name, real):
        def method(self, *args):
            counts[name] += 1
            return real(self, *args)
        return method

    def counting_search(coded, cert, i, j, frontier, *rest):
        before = dict(counts)
        k = real_search(coded, cert, i, j, frontier, *rest)
        t = cert.first_past(i, j, frontier)
        candidates = 1
        while real_s(cert, i, j, t) < k:
            t, candidates = t + 1, candidates + 1
        per_search.append((counts["s"] - before["s"], candidates,
                           counts["length"] - before["length"]))
        return k

    monkeypatch.setattr(profiles.GapCertificate, "s", counting("s", real_s))
    monkeypatch.setattr(blocks.SourceBlocks, "length", counting("length", real_length))
    monkeypatch.setattr(construction, "domination_search", counting_search)
    assert run_cli(capsys, "scenario", "rationals", "--count", "4",
                   "--outdir", str(tmp_path / "run"))[0] == 0
    assert len(per_search) == 300
    assert all(calls <= 1 + candidates for calls, candidates, _ in per_search), per_search
    assert all(lengths <= candidates for _, candidates, lengths in per_search), per_search
    assert sum(calls <= 2 for calls, _, _ in per_search) >= 290
    # Searches that end past K* compare no length.
    assert sum(lengths == 0 for _, _, lengths in per_search) >= 250


def test_defeat_bundle_counts_only_its_own_requirement(monkeypatch, tmp_path, capsys):
    """With stage_of written as e*P - rank, the run stops one row short and
    each bundle of a pair of rank > 0 meets, at the stage stage_of names,
    another requirement's passing record: the bundle FAILs stage_of there,
    naming e and the stage, and counts no record."""
    def stage_of(self, e, i, j):
        return e * len(self._pairs) - self.rank_of(i, j)

    monkeypatch.setattr(construction.RequirementSchedule, "stage_of", stage_of)
    outdir = tmp_path / "run"
    code, _ = run_cli(capsys, "scenario", "rationals", "--count", "4", "--E", "10",
                      "--outdir", str(outdir))
    assert code == 1
    report = [json.loads(line) for line in (outdir / "report.jsonl").read_text().splitlines()]
    bundles = [c for c in report if c["kind"] == "DefeatBundle"]
    assert {c["verdict"] for c in report if c["kind"] != "DefeatBundle"} == {"PASS"}
    failing = [c for c in bundles if c["verdict"] == "FAIL"]
    assert len(failing) == len(bundles) - 1 == 5
    for cert in failing:
        assert {check["check"] for check in cert["checks"]} == {"stage_of"}
        assert [check["e"] for check in cert["checks"]] == list(range(10))
        assert cert["diagnostics"]["defeated"] == 0


@pytest.mark.parametrize("config, stages, frontier", [
    ({"kind": "antichain", "count": 3}, 1547, 55263),
    ({"kind": "combined", "count": 6}, 1842, 19471),
])
def test_full_order_defaults_construct(config, stages, frontier, tmp_path, capsys):
    """construct of the full-order README-default antichain and combined
    configs (E = 50) finishes: past K* its stages read no geometry, so no
    source caches an endpoint past block K* + 2 of its pairs, though the
    frontier passes block 19 000."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "t.jsonl"
    code, printed = run_cli(capsys, "construct", "--config", str(config_path),
                            "--out", str(out))
    assert (code, printed) == (0, "stages,%d\n" % stages)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert (len(records), records[-1]["M_after"]) == (stages, frontier)

    coded, schedule, transcript = construct(ScenarioConfig.from_json(config))
    assert transcript.to_jsonl() == out.read_text()
    k_b = next(k for k in range(1, 20) if math.factorial(k - 1) > 10**5 + 1)
    reach = {}
    for r in transcript.records:
        k_star = max(k_b, math.ceil(5 / schedule.cert.rule(r.i, r.j)[0]), 3)
        for index in (r.i, r.j):
            reach[index] = max(reach.get(index, 0), k_star + 2)
    for index, source in coded._sources.items():
        assert len(source._ends) - 1 <= reach[index], index


def test_tail_runs_once_per_program_and_budget(monkeypatch, tmp_path, capsys):
    """The construction and verify's replay each run the interpreter's tail
    mode at most once per (program, budget), however many stages schedule
    the program."""
    tails = []
    real_run = machine._run

    def counting_run(program, r0, budget, literal):
        if not literal:
            tails.append((program, budget))
        return real_run(program, r0, budget, literal)

    monkeypatch.setattr(machine, "_run", counting_run)
    outdir = tmp_path / "run"
    for argv in (["scenario", "rationals", "--count", "4", "--outdir", str(outdir)],
                 ["verify", "--config", str(outdir / "config.json"),
                  "--transcript", str(outdir / "transcript.jsonl"),
                  "--report", str(tmp_path / "r.jsonl")]):
        machine.tail_behavior.cache_clear()
        tails.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert tails and len(tails) == len(set(tails)), argv[0]


def test_wrong_tail_lemma_fails_the_rerun(monkeypatch, tmp_path, capsys):
    """The construction decides inputs above the tail path's step count by the
    tail lemma; the certificates rerun the witnesses literally, so a lemma off
    by one is caught."""
    real = machine.tail_behavior

    def off_by_one(program, budget):
        tail = real(program, budget)
        if isinstance(tail, machine.TailHalts):
            return machine.TailHalts(tail.offset + 1, tail.steps)
        return tail

    monkeypatch.setattr(construction, "tail_behavior", off_by_one)
    monkeypatch.setattr(machine, "tail_behavior", off_by_one)
    outdir = tmp_path / "run"
    code, _ = run_cli(capsys, "scenario", "rationals", "--count", "4", "--E", "10",
                      "--outdir", str(outdir))
    assert code == 1
    report = [json.loads(line)
              for line in (outdir / "report.jsonl").read_text().splitlines()]
    [stage_checks] = [cert for cert in report if cert["kind"] == "StageChecks"]
    failed = {(check["check"], "stage" in check)
              for check in stage_checks["checks"] if not check["ok"]}
    assert ("rerun_value", True) in failed


def _drop(key):
    def edit(records):
        del records[1][key]
    return edit


def _raw_line(text):
    def edit(records):
        records[1] = text
    return edit


def _non_utf8(records):
    records[1] = json.dumps(records[1]).encode().replace(b"diagonalized",
                                                         b"diagonal\xffized")


def _put(key, value):
    return _set(1, key, lambda _: value)


# name -> edit of the parsed records; a string or bytes replaces a whole line
MALFORMED = {
    # The keys are exactly the twelve of a line.
    "missing_budget": _drop("budget"),
    "missing_x2": _drop("dx2"),
    "extra_key": lambda records: records[1].update(foo=1),
    "list_line": _raw_line("[1,2]"),
    "bad_json": _raw_line("{bad"),
    # json.loads raises RecursionError, not ValueError, on deep nesting.
    "deeply_nested": _raw_line("[" * 200_000 + "]" * 200_000),
    "x_not_integer": _set(1, "dx", lambda x: "0x12xyz"),
    # Witnesses are null or exactly the text hex() writes.
    "x_json_number": _set(1, "dx", lambda x: int(x, 16)),
    "y_json_number": _set(1, "dy", lambda y: int(y, 16)),
    "ell_json_number": _set(1, "ell", lambda ell: int(ell, 16)),
    "x2_json_number": _put("dx2", 5),
    "x_float": _put("dx", 1.5),
    "x_true": _put("dx", True),
    "x_underscore": _put("dx", "0x1_000"),
    "x_space": _put("dx", " 0x12"),
    "x_plus": _put("dx", "+0x5"),
    "x_leading_zero": _put("dx", "0x007"),
    "x_minus_zero": _put("dx", "-0x0"),
    "x_empty": _put("dx", ""),
    "x_unicode_digit": _put("dx", "0x\u0661\u0662"),
    "x_decimal": _set(1, "dx", lambda x: str(int(x, 16))),
    "non_utf8": _non_utf8,
    # stage, e, i, j, k, budget and M_after must be JSON integers >= 0,
    # budget at least 1: true and 3.0 are not.
    "stage_as_float": _set(1, "stage", float),
    "e_as_bool": _set(1, "e", lambda e: e == 1),
    "budget_as_float": _set(1, "budget", float),
    "m_after_float": _set(1, "M_after", float),
    "k_true": _put("k", True),
    "e_string": _put("e", "1"),
    "e_null": _put("e", None),
    "i_null": _put("i", None),
    "j_string": _put("j", "0"),
    "e_float": _put("e", 1.0),
    "e_fraction": _put("e", 1.5),
    "budget_string": _put("budget", "100000"),
    "e_negative": _put("e", -1),
    "i_negative": _put("i", -1),
    "budget_negative": _put("budget", -5),
    # branch must be one of the three names.
    "branch_quote": _put("branch", 'a"b'),
    "branch_int": _put("branch", 7),
    "branch_null": _put("branch", None),
    "branch_capitalized": _put("branch", "Diagonalized"),
}


def _line(record):
    if isinstance(record, dict):
        record = json.dumps(record)
    if isinstance(record, str):
        record = record.encode()
    return record + b"\n"


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_verify_malformed_line_is_usage_error(name, constructed, tmp_path, capsys):
    config_path, records = constructed
    records = [dict(r) for r in records]
    MALFORMED[name](records)
    transcript_path = tmp_path / "t.jsonl"
    transcript_path.write_bytes(b"".join(_line(r) for r in records))
    code = main(["verify", "--config", str(config_path),
                 "--transcript", str(transcript_path),
                 "--report", str(tmp_path / "r.jsonl")])
    assert code == 3
    assert "%s:2" % transcript_path in capsys.readouterr().err
    assert not (tmp_path / "r.jsonl").exists()
