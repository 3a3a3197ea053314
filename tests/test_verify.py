from fractions import Fraction

import pytest

from blockdensity.construction import (
    BRANCH_DIAGONALIZED,
    BRANCH_NON_INJECTIVE,
    BRANCH_NON_TOTAL,
    ConstructionState,
    RequirementSchedule,
    Transcript,
    run_construction,
)
from blockdensity.maps import CodedFamily
from blockdensity.profiles import combined_family, constant_family
from blockdensity.scenarios import ScenarioConfig, run_scenario
from blockdensity.verify import (
    FAIL,
    INCOMPLETE,
    PASS,
    Certificate,
    check_bfo_equivalence,
    check_defeat_bundle,
    check_diag_witness,
    check_positive_reduction,
    check_transcript_replay,
)

ALPHA = Fraction(5, 4)
BETA = Fraction(7, 4)

# Constant enumeration: q_0 = 3/2, q_1 = 4/3, q_3 = 5/4.
I_32, I_43, I_54 = 0, 1, 3


@pytest.fixture(scope="module")
def constant_run():
    family, cert = constant_family()
    coded = CodedFamily(family)
    schedule = RequirementSchedule(cert)
    transcript, state = run_construction(
        coded, cert, 16, 10**5, schedule=schedule
    )
    return coded, cert, schedule, transcript, state


def test_positive_reduction_pass(constant_run):
    coded, _, _, _, state = constant_run
    cert = check_positive_reduction(coded, state, I_54, I_32, 10)
    assert cert.verdict == PASS
    assert cert.subject == {"i": I_54, "j": I_32, "blocks": 10}
    assert cert.checks == [{"check": "blockwise_exact", "ok": True, "blocks": 10}]


def test_positive_reduction_identity_pair(constant_run):
    coded, _, _, _, state = constant_run
    cert = check_positive_reduction(coded, state, 2, 2, 10)
    assert cert.verdict == PASS


def test_positive_reduction_same_index_walks_both_copies(constant_run):
    # No certificate kind builds a reduction from an index to itself, so a
    # direct call gets no shortcut: it walks the profile twice, like any pair,
    # and stops at the frontier like any pair.
    coded, _, _, _, state = constant_run
    cert = check_positive_reduction(coded, state, 2, 2, 10)
    assert cert.verdict == PASS
    assert cert.checks == [{"check": "blockwise_exact", "ok": True, "blocks": 10}]
    assert check_positive_reduction(coded, state, 2, 2, 60).verdict == INCOMPLETE


def test_positive_reduction_swapped_fails(constant_run):
    coded, _, _, _, state = constant_run
    cert = check_positive_reduction(coded, state, I_32, I_54, 8)
    assert cert.verdict == FAIL
    failing = [c for c in cert.checks if not c["ok"]]
    assert failing[0]["check"] == "pointwise_domination"
    assert failing[0]["k"] == 2


def test_positive_reduction_incomplete_beyond_frontier(constant_run):
    coded, _, _, _, state = constant_run
    cert = check_positive_reduction(coded, state, I_54, I_32, 60)
    assert cert.verdict == INCOMPLETE
    note = [c for c in cert.checks if not c["ok"]][0]
    assert note["needed_block"] == 59


def test_bfo_equivalence_pass_and_incomplete(constant_run):
    coded, _, _, _, state = constant_run
    for i in range(3):
        cert = check_bfo_equivalence(coded, state, i, 10)
        assert cert.verdict == PASS
        assert cert.subject == {"i": i, "blocks": 10}
    assert check_bfo_equivalence(coded, state, 0, 80).verdict == INCOMPLETE


@pytest.mark.parametrize("blocks", [0, -3])
def test_positive_certificates_without_blocks_fail_range(constant_run, blocks):
    coded, _, _, _, state = constant_run
    for cert in (
        check_positive_reduction(coded, state, I_54, I_32, blocks),
        check_positive_reduction(coded, state, 2, 2, blocks),
        check_bfo_equivalence(coded, state, 0, blocks),
    ):
        assert cert.verdict == FAIL
        assert [c["check"] for c in cert.checks] == ["range"]


@pytest.fixture(scope="module")
def combined_run():
    family, cert = combined_family(ALPHA, BETA)
    coded = CodedFamily(family)
    schedule = RequirementSchedule(cert)
    transcript, state = run_construction(
        coded, cert, 12, 10**5, schedule=schedule
    )
    return coded, cert, schedule, transcript, state


def test_diag_witness_pass_and_tamper(combined_run):
    coded, _, schedule, transcript, state = combined_run
    diagonal = [r for r in transcript.records if r.branch == BRANCH_DIAGONALIZED]
    assert diagonal
    for record in diagonal:
        req = schedule.requirement(record.stage)
        assert check_diag_witness(coded, state, record, req).verdict == PASS
    req = schedule.requirement(diagonal[0].stage)
    tampered = diagonal[0]._replace(y=diagonal[0].y + 1)
    assert check_diag_witness(coded, state, tampered, req).verdict == FAIL


def _state(frontier, ones):
    state = ConstructionState()
    state.frontier, state.ones = frontier, set(ones)
    return state


def test_diag_witness_membership_reads_blocks_k_and_ell(combined_run):
    coded, _, schedule, transcript, state = combined_run
    record = next(r for r in transcript.records if r.branch == BRANCH_DIAGONALIZED)
    req = schedule.requirement(record.stage)
    # Without block k, or with block ell, the witness and image do not split.
    for ones in (state.ones - {record.k}, state.ones | {record.ell}):
        cert = check_diag_witness(coded, _state(state.frontier, ones), record, req)
        assert cert.verdict == FAIL
        assert cert.checks[-1] == {"check": "membership_split", "ok": False}
    # A frontier below ell leaves the image's block undefined.
    cert = check_diag_witness(coded, _state(record.ell - 1, state.ones), record, req)
    assert cert.verdict == INCOMPLETE
    assert cert.checks[-1] == {"check": "frontier", "ok": False,
                               "needed_block": record.ell, "frontier": record.ell - 1}


def test_diag_witness_rejects_other_branches(combined_run):
    coded, _, schedule, transcript, state = combined_run
    other = [r for r in transcript.records if r.branch != BRANCH_DIAGONALIZED]
    if other:
        with pytest.raises(ValueError):
            check_diag_witness(coded, state, other[0],
                               schedule.requirement(other[0].stage))


def diag_verdicts(coded, schedule, state, transcript):
    """The DiagWitness verdict of each diagonalized record, by position."""
    return {
        n: check_diag_witness(coded, state, record, schedule.requirement(n)).verdict
        for n, record in enumerate(transcript.records)
        if record.branch == BRANCH_DIAGONALIZED
    }


def test_defeat_bundle_pass_and_incomplete(constant_run):
    coded, cert, schedule, transcript, state = constant_run
    verdicts = diag_verdicts(coded, schedule, state, transcript)
    bundle = check_defeat_bundle(coded, transcript, schedule, 0, 1, 3, verdicts)
    assert bundle.verdict == PASS
    assert bundle.diagnostics["defeated"] == 3
    too_wide = check_defeat_bundle(coded, transcript, schedule, 0, 1, 40, verdicts)
    assert too_wide.verdict == INCOMPLETE


@pytest.mark.parametrize("branch, field, value", [
    (BRANCH_NON_TOTAL, "x", None),
    (BRANCH_NON_TOTAL, "x", -3),
    (BRANCH_NON_INJECTIVE, "x", None),
    (BRANCH_NON_INJECTIVE, "x2", -3),
])
def test_defeat_record_without_natural_witness_fails(constant_run, branch, field, value):
    coded, _, schedule, transcript, state = constant_run
    stage = schedule.stage_of(0, 0, 1)
    record = transcript.records[stage]
    fields = {"branch": branch, "x": record.x, "x2": record.x + 1, field: value}
    records = list(transcript.records)
    records[stage] = record._replace(**fields)
    bundle = check_defeat_bundle(
        coded, Transcript(records), schedule, 0, 1, 1,
        diag_verdicts(coded, schedule, state, transcript),
    )
    assert bundle.verdict == FAIL
    assert bundle.checks == [{
        "check": "defeat_record", "ok": False, "e": 0, "stage": stage,
        "reason": "witness %s is missing or negative" % field,
    }]


def embedding_matrix(rows, **params):
    """The EmbeddingMatrix certificate of the poset scenario over rows."""
    config = ScenarioConfig(kind="poset", poset_rows=rows, alpha=ALPHA, beta=BETA,
                            **params)
    [cert] = [c for c in run_scenario(config).certificates
              if c.kind == "EmbeddingMatrix"]
    return cert


def test_embedding_matrix_small_posets():
    cert = embedding_matrix(["11", "01"], e_bound=4, budget=10**5, k_max=8)
    assert cert.verdict == PASS

    cert = embedding_matrix(["10", "01"], e_bound=4, budget=10**5, k_max=8)
    assert cert.verdict == PASS

    cert = embedding_matrix(["1"], e_bound=2, budget=10**4, k_max=6)
    assert cert.verdict == PASS


def test_embedding_matrix_incomplete_cell_is_not_a_fail():
    """A reduction cell past the frontier leaves the matrix INCOMPLETE and
    uncompared, not FAILed as if the cell were refuted."""
    cert = embedding_matrix(["11", "01"], e_bound=1, k_max=40)
    assert cert.verdict == INCOMPLETE
    assert cert.checks == [{"check": "positive_cell", "ok": False, "a": 0, "b": 1,
                            "verdict": INCOMPLETE}]


def test_transcript_replay(constant_run):
    _, cert, _, transcript, _ = constant_run
    fresh = CodedFamily(constant_family()[0])
    assert check_transcript_replay(fresh, cert, transcript, 10**5).verdict == PASS


def test_certificate_keeps_its_diagnostics():
    cert = Certificate("X", {}, diagnostics={"claim": "c"})
    cert.ok("first")
    assert cert.to_json() == {
        "kind": "X", "verdict": PASS, "subject": {},
        "checks": [{"check": "first", "ok": True}], "diagnostics": {"claim": "c"},
    }
    assert Certificate("X", {}).to_json()["diagnostics"] == {}
