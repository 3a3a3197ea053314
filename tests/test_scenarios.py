import json
from pathlib import Path

import pytest

from blockdensity.construction import Transcript
from blockdensity.numerics import enum_rationals_12
from blockdensity.scenarios import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_BUDGET,
    DEFAULT_COUNT,
    DEFAULT_E,
    DEFAULT_KMAX,
    ScenarioConfig,
    build_family,
    report_exit_code,
    run_scenario,
    verify_transcript,
)
from blockdensity.verify import FAIL, INCOMPLETE, PASS, Certificate


def test_config_validation_messages():
    with pytest.raises(ValueError, match="kind"):
        ScenarioConfig(kind="nonsense").validate()
    with pytest.raises(ValueError, match="alpha"):
        ScenarioConfig(kind="rationals", alpha=1, beta=2).validate()
    with pytest.raises(ValueError, match="matrix"):
        ScenarioConfig(kind="poset").validate()
    with pytest.raises(ValueError, match="partial order"):
        ScenarioConfig(kind="poset", poset_rows=["11", "11"]).validate()


@pytest.mark.parametrize("field", ["count", "budget", "e_bound", "k_max", "stages"])
def test_config_refuses_a_bool_or_non_int_integer_field(field, tmp_path):
    for bad in (True, False, 2.0, "2"):
        fields = {"count": 2, "e_bound": 2, field: bad}
        config = ScenarioConfig(kind="rationals", schedule="window", **fields)
        with pytest.raises(ValueError, match="%s must be an integer" % field):
            run_scenario(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()


def test_config_json_round_trip():
    config = ScenarioConfig(kind="poset", poset_rows=["11", "01"], e_bound=4)
    again = ScenarioConfig.from_json(json.loads(json.dumps(config.to_json())))
    assert again.to_json() == config.to_json()


def test_config_from_json_takes_the_defaults():
    config = ScenarioConfig.from_json({"kind": "rationals"})
    assert config == ScenarioConfig("rationals")
    assert config == ("rationals", DEFAULT_COUNT, DEFAULT_ALPHA, DEFAULT_BETA, (),
                      None, DEFAULT_BUDGET, DEFAULT_E, DEFAULT_KMAX, "full")


def test_default_configs_share_no_mutable_rows():
    # An empty tuple, unlike a shared list default, cannot grow through one config.
    for config in (ScenarioConfig("rationals"), ScenarioConfig("antichain"),
                   ScenarioConfig.from_json({"kind": "rationals"})):
        assert type(config.poset_rows) is tuple and config.poset_rows == ()


def test_config_schedule_key_is_written_only_for_window():
    full = ScenarioConfig(kind="rationals")
    assert full.schedule == "full" and "schedule" not in full.to_json()
    assert ScenarioConfig.from_json(full.to_json()).schedule == "full"
    window = ScenarioConfig(kind="rationals", schedule="window")
    assert window.to_json()["schedule"] == "window"
    assert ScenarioConfig.from_json(window.to_json()) == window
    for bad in ("cantor", "Window"):
        with pytest.raises(ValueError, match="schedule must be one of"):
            ScenarioConfig.from_json({"kind": "rationals", "schedule": bad})
    for bad in (1, None, ["window"]):
        with pytest.raises(ValueError, match="key 'schedule' must be a string"):
            ScenarioConfig.from_json({"kind": "rationals", "schedule": bad})


def test_readme_config_schema_matches_the_defaults():
    """The JSON block under README "## Config schema" names every config key
    with the default the scenario command gives it: the config schedule's
    default is full, written as no key, and scenario runs the window
    schedule. kind, poset and count hold example values."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config schema", 1)[1]
    block = section.split("```json", 1)[1].split("```", 1)[0]
    documented = json.loads(block)
    defaults = ScenarioConfig(kind="rationals", schedule="window").to_json()
    assert list(documented) == list(defaults)
    examples = ("kind", "poset", "count")
    assert {k: v for k, v in documented.items() if k not in examples} == {
        k: v for k, v in defaults.items() if k not in examples
    }


def test_combined_scenario_passes_with_device_certificates():
    config = ScenarioConfig(kind="combined", count=4, e_bound=3, budget=10**5,
                            k_max=8)
    result = run_scenario(config)
    kinds = {c.kind for c in result.certificates}
    assert {"PositiveReduction", "DefeatBundle", "BfoEquivalence",
            "IdentityDevice", "CollapseAutoreduction", "DiagWitness"} <= kinds
    assert result.exit_code == 0
    assert all(c.verdict == PASS for c in result.certificates)


def test_poset_scenario_passes():
    config = ScenarioConfig(kind="poset", poset_rows=["11", "01"], e_bound=3,
                            budget=10**5, k_max=6)
    result = run_scenario(config)
    assert result.exit_code == 0
    matrix_certs = [c for c in result.certificates if c.kind == "EmbeddingMatrix"]
    assert len(matrix_certs) == 1 and matrix_certs[0].verdict == PASS


def test_universal_scenario_passes():
    config = ScenarioConfig(kind="universal")
    result = run_scenario(config)
    assert result.transcript is None
    assert result.exit_code == 0
    assert all(c.kind == "UniversalEmbedding" for c in result.certificates)


def _subjects(certs, kind):
    return [(c.subject["i"], c.subject["j"]) for c in certs if c.kind == kind]


@pytest.mark.parametrize("kind, count", [
    ("rationals", 6), ("combined", 8), ("antichain", 3),
])
def test_certificate_pairs_follow_the_gap_certificate(kind, count):
    """Reductions go up the rational order of the constant profiles, defeats
    cover D and couplings every index."""
    config = ScenarioConfig(kind=kind, count=count, e_bound=1, budget=10**4,
                            k_max=4)
    certs = run_scenario(config).certificates
    q = enum_rationals_12
    if kind == "rationals":
        span = range(count)
        chain = [(a, b) for a in span for b in span if a != b and q(a) < q(b)]
    elif kind == "combined":
        evens = range(0, count, 2)
        chain = [(a, b) for a in evens for b in evens
                 if a != b and q(a // 2) < q(b // 2)]
    else:
        chain = []
    assert _subjects(certs, "PositiveReduction") == chain
    _, gap_cert = build_family(config)
    span = range(count)
    assert _subjects(certs, "DefeatBundle") == [
        (a, b) for a in span for b in span if a != b and gap_cert.in_D(a, b)
    ]
    assert [c.subject["i"] for c in certs if c.kind == "BfoEquivalence"] == list(span)
    assert all(c.verdict == PASS for c in certs)


def test_incomplete_exit_code_when_window_exceeds_transcript(tmp_path):
    config = ScenarioConfig(kind="rationals", count=2, e_bound=2, budget=10**5,
                            k_max=6)
    result = run_scenario(config, tmp_path)
    assert result.exit_code == 0

    wider = ScenarioConfig(kind="rationals", count=2, e_bound=30, budget=10**5,
                           k_max=6)
    transcript = Transcript.read_jsonl(tmp_path / "transcript.jsonl")
    certs = verify_transcript(wider, transcript)
    assert report_exit_code(certs) == 2
    incomplete = [c for c in certs if c.verdict == INCOMPLETE]
    assert incomplete
    hint = [c for c in incomplete[0].checks if not c["ok"]][0]
    assert "needed_stage" in hint


def test_report_exit_code_priorities():
    def cert(verdict):
        c = Certificate("X", {})
        c.verdict = verdict
        return c

    assert report_exit_code([cert(PASS)]) == 0
    assert report_exit_code([cert(PASS), cert(INCOMPLETE)]) == 2
    assert report_exit_code([cert(INCOMPLETE), cert(FAIL)]) == 1
