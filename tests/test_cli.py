import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from blockdensity import cli, construction, machine
from blockdensity.cli import main
from blockdensity.scenarios import ScenarioConfig, ScenarioResult

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


def test_machine_decode_and_run(capsys):
    code, out = run_cli(capsys, "machine", "decode", "--e", "1")
    assert (code, out.strip()) == (0, "INC 0")
    code, out = run_cli(capsys, "machine", "run", "--e", "0", "--x", "41",
                        "--budget", "10")
    assert code == 0
    assert out.strip() == "halted,41,0"


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
    records[0]["x"] = hex(int(records[0]["x"], 16) + 1)
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

    def run_scenario(config, outdir=None):
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
    def run_scenario(config, outdir=None):
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
# transcript.jsonl.
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
    '"x": "0x5226cc", "x2": null, "y": "0x5226cc", "ell": "0xb", "budget": 100000, '
    '"M_after": 11}\n'
    '{"stage": 1, "e": 1, "i": 0, "j": 1, "k": 12, "branch": "diagonalized", '
    '"x": "0x298f92cb", "x2": null, "y": "0x298f92cc", "ell": "0xd", '
    '"budget": 100000, "M_after": 13}\n'
)
# The same transcript with its witnesses in decimal.
DECIMAL_TRANSCRIPT = (
    '{"stage": 0, "e": 0, "i": 0, "j": 1, "k": 10, "branch": "diagonalized", '
    '"x": "5383884", "x2": null, "y": "5383884", "ell": "11", "budget": 100000, '
    '"M_after": 11}\n'
    '{"stage": 1, "e": 1, "i": 0, "j": 1, "k": 12, "branch": "diagonalized", '
    '"x": "697275083", "x2": null, "y": "697275084", "ell": "13", '
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
    assert "witness x must be null or hex text" in err
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
    "y_plus_one": (_set(1, "y", lambda y: hex(int(y, 16) + 1)), 1, False, 1,
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
    records[3].update(branch="non_total_under_budget", x2=None, y=None, ell=None,
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


# name -> (field, tampered value, value the report gives); each must fail
# StageChecks on record 1's witness_fields check, never crash or read as a
# usage error.
WITNESS_TAMPERS = {
    "x_null": ("x", None, None),
    "x_negative": ("x", "-0x3", "-3"),
    "y_negative": ("y", "-0x3", "-3"),
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
    field, value, reported = WITNESS_TAMPERS[name]
    code, stage_checks = _verify_with_record_1_set(constructed, tmp_path, capsys,
                                                   field, value)
    assert code == 1
    assert stage_checks["verdict"] == "FAIL"
    assert stage_checks["checks"] == [
        {"check": "witness_fields", "ok": False, "stage": 1, "field": field,
         "value": reported}
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
    "missing_x2": _drop("x2"),
    "extra_key": lambda records: records[1].update(foo=1),
    "list_line": _raw_line("[1,2]"),
    "bad_json": _raw_line("{bad"),
    # json.loads raises RecursionError, not ValueError, on deep nesting.
    "deeply_nested": _raw_line("[" * 200_000 + "]" * 200_000),
    "x_not_integer": _set(1, "x", lambda x: "0x12xyz"),
    # Witnesses are null or exactly the text hex() writes.
    "x_json_number": _set(1, "x", lambda x: int(x, 16)),
    "y_json_number": _set(1, "y", lambda y: int(y, 16)),
    "ell_json_number": _set(1, "ell", lambda ell: int(ell, 16)),
    "x2_json_number": _put("x2", 5),
    "x_float": _put("x", 1.5),
    "x_true": _put("x", True),
    "x_underscore": _put("x", "0x1_000"),
    "x_space": _put("x", " 0x12"),
    "x_plus": _put("x", "+0x5"),
    "x_leading_zero": _put("x", "0x007"),
    "x_minus_zero": _put("x", "-0x0"),
    "x_empty": _put("x", ""),
    "x_unicode_digit": _put("x", "0x\u0661\u0662"),
    "x_decimal": _set(1, "x", lambda x: str(int(x, 16))),
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
