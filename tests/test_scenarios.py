import json
from pathlib import Path

import pytest

from blockdensity.cli import main
from blockdensity.construction import (
    BRANCH_DIAGONALIZED,
    ConstructionState,
    StageRecord,
    Transcript,
)
from blockdensity.machine import identity_index
from blockdensity.maps import CodedFamily
from blockdensity.numerics import cantor_pair, cantor_unpair, enum_rationals_12
from blockdensity.posets import FinitePoset, UniversalPoset, embed_finite
from blockdensity.profiles import constant_family
from blockdensity.scenarios import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_BUDGET,
    DEFAULT_COUNT,
    DEFAULT_E,
    DEFAULT_KMAX,
    ScenarioConfig,
    _identity_device_certificate,
    build_family,
    prepare,
    report_exit_code,
    required_stages,
    run_scenario,
    verify_transcript,
    write_outputs,
)
from blockdensity.verify import (
    FAIL, INCOMPLETE, PASS, Certificate, check_collapse_autoreduction,
)


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
            write_outputs(run_scenario(config), tmp_path / "out")
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
            "IdentityDevice", "CollapseAutoreduction", "StageChecks"} <= kinds
    assert result.exit_code == 0
    assert all(c.verdict == PASS for c in result.certificates)


def test_identity_device_counts_only_records_that_pass_their_checks(tmp_path):
    """A tampered identity-index record still claims to diagonalize, but its
    witness fails StageChecks, so the identity device does not count it."""
    config = ScenarioConfig(kind="combined", count=4, e_bound=3, k_max=8)
    transcript = run_scenario(config).transcript
    records = list(transcript.records)
    n = next(n for n, r in enumerate(records) if r.e == identity_index())
    records[n] = records[n]._replace(dx=records[n].dx + 1)
    path = tmp_path / "transcript.jsonl"
    Transcript(records).write_jsonl(path)
    certs = {c.kind: c for c in verify_transcript(config, path)}
    assert [c for c in certs["StageChecks"].checks if not c["ok"]][0]["stage"] == n
    device = certs["IdentityDevice"]
    assert device.verdict == FAIL
    assert device.checks[0] == {"check": "identity_always_diagonalizes", "ok": False,
                                "stages": [n]}


def _frontier(frontier):
    state = ConstructionState()
    state.frontier = frontier
    return state


def test_identity_device_needs_its_records_and_a_split_prefix():
    """No identity-index record leaves the device INCOMPLETE. One that
    diagonalizes and passes its checks still fails a prefix of zeros only."""
    cert = _identity_device_certificate(Transcript([]), _frontier(4), [])
    assert cert.verdict == INCOMPLETE
    assert cert.checks == [{"check": "identity_scheduled", "ok": False,
                            "hint": "run more stages"}]
    record = StageRecord(0, identity_index(), 0, 1, 3, BRANCH_DIAGONALIZED,
                         None, None, None, None, 10, 4)
    cert = _identity_device_certificate(Transcript([record]), _frontier(4), [None])
    assert cert.verdict == FAIL
    assert cert.checks == [
        {"check": "identity_always_diagonalizes", "ok": True, "count": 1},
        {"check": "prefix_split", "ok": False, "one_blocks": 0, "zero_blocks": 5}]


def _endpoint_high_at_3(coded):
    real = coded.targets.endpoint
    coded.targets.endpoint = lambda k: real(k) + (k == 3)


def _collapse_is_identity(coded):
    coded.collapse = lambda x: x


def _block_2_around_its_start(coded):
    """targets.block(2) as [a_2 - 1, a_2 + 1), whose ends collapse fixes; the
    reference scan reads a_3 from the walk, not from block(2)."""
    real, endpoint = coded.targets.block, coded.targets.endpoint
    coded.targets.block = lambda k: (endpoint(k) - 1, endpoint(k) + 1) if k == 2 else real(k)


# name -> (fault planted in a fresh coded family, frontier, verdict, the checks)
COLLAPSE_FAULTS = {
    "short_frontier": (None, 1, INCOMPLETE, [
        {"check": "frontier", "ok": False, "frontier": 1}]),
    "endpoint_high_at_3": (_endpoint_high_at_3, 9, FAIL, [
        {"check": "reference_geometry", "ok": False, "k": 3, "map": "targets.endpoint"}]),
    "collapse_is_identity": (_collapse_is_identity, 9, FAIL, [
        {"check": "reference_geometry", "ok": False, "k": 2, "map": "collapse"}]),
    "block_2_fixed": (_block_2_around_its_start, 9, FAIL, [
        {"check": "self_reduction", "ok": True, "scanned": 409114},
        {"check": "not_eventually_identity", "ok": False, "blocks": [3, 4, 5, 6, 7, 8, 9]}]),
}


@pytest.mark.parametrize("name", sorted(COLLAPSE_FAULTS))
def test_collapse_certificate_refuses_a_faulty_collapse(name):
    fault, frontier, verdict, checks = COLLAPSE_FAULTS[name]
    coded = CodedFamily(constant_family()[0])
    assert check_collapse_autoreduction(coded, _frontier(9)).verdict == PASS
    if fault is not None:
        fault(coded)
    cert = check_collapse_autoreduction(coded, _frontier(frontier))
    assert cert.verdict == verdict
    assert cert.checks == checks


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
    with pytest.raises(ValueError, match="runs no construction"):
        build_family(config)


def test_universal_embedding_fails_on_a_flipped_pair(monkeypatch, tmp_path, capsys):
    """embed_finite compares every cell of the induced matrix, so an order
    that flips one pair of a sample's images fails that sample's embed check,
    and the scenario exits 1."""
    rows = ["11", "01"]
    a, b = embed_finite(FinitePoset.from_rows(rows))
    real = UniversalPoset.leq

    def flipped(self, x, y):
        return real(self, x, y) != ((x, y) == (a, b))

    monkeypatch.setattr(UniversalPoset, "leq", flipped)
    assert main(["scenario", "universal", "--outdir", str(tmp_path)]) == 1
    capsys.readouterr()
    report = [json.loads(line) for line in (tmp_path / "report.jsonl").read_text().splitlines()]
    failed = [c for c in report if c["verdict"] == FAIL]
    assert rows in [c["subject"]["rows"] for c in failed]
    assert all([check["check"] for check in c["checks"]] == ["embed"] for c in failed)


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


@pytest.mark.parametrize("kind, count", [("rationals", 4), ("combined", 6)])
def test_required_stages_reaches_every_defeat_requirement(kind, count):
    """Under the window the count is exactly E * P for the P scheduled pairs
    of the span, under the full order the largest Cantor stage
    cantor_pair(E - 1, rank) of those pairs + 1, pairs ranked by code among
    all scheduled pairs; a larger config.stages wins."""
    e_bound = 7
    gap_cert = build_family(ScenarioConfig(kind=kind))[1]
    pairs = [(a, b) for a in range(count) for b in range(count)
             if a != b and gap_cert.in_D(a, b)]
    ranked = [pair for pair in map(cantor_unpair, range(cantor_pair(count, count)))
              if gap_cert.in_D(*pair)]
    full_order = max(cantor_pair(e_bound - 1, ranked.index(pair)) for pair in pairs) + 1
    for order, needed in (("window", e_bound * len(pairs)), ("full", full_order)):
        config = ScenarioConfig(kind=kind, count=count, e_bound=e_bound, schedule=order)
        schedule = prepare(config)[1]
        assert required_stages(config, schedule) == needed, order
        for stages in (1, needed - 1, needed, needed + 1, 10 * needed):
            assert required_stages(config._replace(stages=stages), schedule) == max(stages, needed)


def test_incomplete_exit_code_when_window_exceeds_transcript(tmp_path):
    config = ScenarioConfig(kind="rationals", count=2, e_bound=2, budget=10**5,
                            k_max=6)
    result = run_scenario(config)
    write_outputs(result, tmp_path)
    assert result.exit_code == 0

    wider = ScenarioConfig(kind="rationals", count=2, e_bound=30, budget=10**5,
                           k_max=6)
    certs = verify_transcript(wider, tmp_path / "transcript.jsonl")
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
