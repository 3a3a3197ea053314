from fractions import Fraction

import pytest

from blockdensity.construction import (
    BRANCH_DIAGONALIZED,
    BRANCH_NON_INJECTIVE,
    BRANCH_NON_TOTAL,
    ConstructionState,
    Requirement,
    RequirementSchedule,
    StageRecord,
    Transcript,
    reconstruct_state,
    run_construction,
    run_stage,
    run_stages,
)
from blockdensity.maps import CodedFamily
from blockdensity.posets import FinitePoset
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
    check_embedding_matrix,
    check_positive_reduction,
    check_stage_records,
    check_transcript_replay,
)

ALPHA = Fraction(5, 4)
BETA = Fraction(7, 4)

# Constant enumeration: q_0 = 3/2, q_1 = 4/3, q_3 = 5/4.
I_32, I_43, I_54 = 0, 1, 3
BUDGET = 10**5


@pytest.fixture(scope="module")
def constant_run():
    family, cert = constant_family()
    coded = CodedFamily(family)
    schedule = RequirementSchedule(cert)
    transcript = run_construction(schedule, coded, 16, BUDGET)
    return coded, cert, schedule, transcript, reconstruct_state(transcript.records)


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
    transcript = run_construction(schedule, coded, 12, BUDGET)
    return coded, cert, schedule, transcript, reconstruct_state(transcript.records)


def test_diag_witness_pass_and_tamper(combined_run):
    coded, _, _, transcript, state = combined_run
    diagonal = [r for r in transcript.records if r.branch == BRANCH_DIAGONALIZED]
    assert diagonal
    for record in diagonal:
        assert check_diag_witness(coded, state, record) is None
    tampered = diagonal[0]._replace(dy=diagonal[0].dy + 1)
    assert check_diag_witness(coded, state, tampered) == ("rerun_value", {"dx": str(tampered.dx)})
    # x one off its place fails the rerun too, on either side.
    for dx in (diagonal[0].dx - 1, diagonal[0].dx + 1):
        assert check_diag_witness(coded, state, diagonal[0]._replace(dx=dx)) == (
            "rerun_value", {"dx": str(dx)})


def _state(frontier, ones):
    state = ConstructionState()
    state.frontier, state.ones = frontier, set(ones)
    return state


def test_diag_witness_membership_reads_blocks_k_and_ell(combined_run):
    coded, _, schedule, transcript, state = combined_run
    n, record = next((n, r) for n, r in enumerate(transcript.records)
                     if r.branch == BRANCH_DIAGONALIZED)
    # Without block k, or with block ell, the witness and image do not split.
    for ones in (state.ones - {record.k}, state.ones | {record.ell}):
        assert check_diag_witness(coded, _state(state.frontier, ones), record) == (
            "membership_split", {})
        cert, faults = check_stage_records(coded, _state(state.frontier, ones), schedule,
                                           transcript.records, BUDGET)
        assert cert.verdict == FAIL and faults[n] == "membership_split"
    # A frontier below ell leaves the image's block undefined.
    short = _state(record.ell - 1, state.ones)
    assert check_diag_witness(coded, short, record) == (
        "frontier", {"needed_block": record.ell, "frontier": record.ell - 1})
    cert, faults = check_stage_records(coded, short, schedule, transcript.records, BUDGET)
    assert cert.verdict == INCOMPLETE
    assert cert.checks[0] == {"check": "frontier", "ok": False, "stage": n,
                              "needed_block": record.ell, "frontier": record.ell - 1}


def test_diag_witness_rejects_other_branches(combined_run):
    coded, _, _, transcript, state = combined_run
    record = next(r for r in transcript.records if r.branch == BRANCH_DIAGONALIZED)
    for branch in (BRANCH_NON_TOTAL, BRANCH_NON_INJECTIVE):
        with pytest.raises(ValueError, match="needs a diagonalized record"):
            check_diag_witness(coded, state, record._replace(branch=branch))


def test_stage_checks_hold_m_after_to_the_branch(combined_run):
    """M_after must be ell for a diagonalized record and k otherwise, which
    ConstructionState.apply takes on trust."""
    coded, _, schedule, transcript, state = combined_run
    n, record = next((n, r) for n, r in enumerate(transcript.records)
                     if r.branch == BRANCH_DIAGONALIZED)
    for tampered in (record._replace(m_after=record.ell + 1),
                     record._replace(branch=BRANCH_NON_TOTAL)):
        records = list(transcript.records)
        records[n] = tampered
        cert, faults = check_stage_records(coded, state, schedule, records, BUDGET)
        assert cert.verdict == FAIL and faults[n] == "m_after"
        assert cert.checks == [
            {"check": "m_after", "ok": False, "stage": n, "m_after": tampered.m_after}]


def test_stage_checks_refuse_a_negative_ell(combined_run):
    coded, _, schedule, transcript, state = combined_run
    n, record = next((n, r) for n, r in enumerate(transcript.records)
                     if r.branch == BRANCH_DIAGONALIZED)
    records = list(transcript.records)
    records[n] = record._replace(ell=-1)
    cert, faults = check_stage_records(coded, state, schedule, records, BUDGET)
    assert cert.verdict == FAIL and faults[n] == "witness_fields"
    assert cert.checks == [
        {"check": "witness_fields", "ok": False, "stage": n, "field": "ell", "value": "-1"}]


def test_stage_checks_name_every_failing_record(combined_run):
    coded, _, schedule, transcript, state = combined_run
    records = list(transcript.records)
    bad = [n for n, r in enumerate(records) if r.branch == BRANCH_DIAGONALIZED][:2]
    assert len(bad) == 2
    records[bad[0]] = records[bad[0]]._replace(dy=records[bad[0]].dy + 1)
    records[bad[1]] = records[bad[1]]._replace(e=records[bad[1]].e + 1)
    cert, faults = check_stage_records(coded, state, schedule, records, BUDGET)
    assert cert.verdict == FAIL
    assert [(c["stage"], c["check"]) for c in cert.checks] == [
        (bad[0], "rerun_value"), (bad[1], "schedule_mismatch")]
    assert [n for n, fault in enumerate(faults) if fault is not None] == bad


class _OneRequirement(RequirementSchedule):
    """A schedule of a gap certificate that runs one requirement at every
    stage, or, given a list, the n-th requirement at stage n."""

    def __init__(self, cert, req):
        super().__init__(cert)
        self.req = req

    def requirement(self, n):
        return self.req[n] if isinstance(self.req, list) else self.req


# Program 76 runs out of any budget on every input; program 0 halts on each
# input with a value of its own; program 230857, DECJZ 0 2 then DECJZ 1 0,
# counts register 0 down and halts with 0 on every input, in 2x + 1 steps.
# Each witness is the first element of the named source block, written as
# its offset from b_0(5): the record chose block 5.
COUNT_DOWN = 230857


@pytest.mark.parametrize("e, branch, x_block, x2_block, fault", [
    (76, BRANCH_NON_TOTAL, 5, None, None),
    (76, BRANCH_NON_TOTAL, 6, None, "witness_block"),
    (0, BRANCH_NON_TOTAL, 5, None, "rerun_diverges"),
    (0, BRANCH_NON_INJECTIVE, 5, 6, "witness_block"),
    (0, BRANCH_NON_INJECTIVE, 5, 5, "rerun_collides"),
    (76, BRANCH_NON_INJECTIVE, 5, 6, "witness_block"),
    (COUNT_DOWN, BRANCH_NON_INJECTIVE, 5, 6, "witness_block"),
    (COUNT_DOWN, BRANCH_NON_INJECTIVE, 5, 5, "rerun_collides"),
])
def test_stage_checks_rerun_defeat_records(constant_run, e, branch, x_block, x2_block,
                                           fault):
    """A divergence witness reruns out of budget inside block k; collision
    witnesses are two inputs of block k that rerun to one value, so a
    collision with an input of block 6 fails witness_block before any
    rerun."""
    coded, cert = constant_run[:2]
    src = coded.source(0)
    dx, dx2 = (None if k is None else src.endpoint(k) - src.endpoint(5)
               for k in (x_block, x2_block))
    record = StageRecord(0, e, 0, 1, 5, branch, dx, dx2, None, None, 1000, 5)
    schedule = _OneRequirement(cert, Requirement(e, 0, 1))
    cert, faults = check_stage_records(coded, ConstructionState(), schedule, [record], 1000)
    assert faults == [fault]
    assert cert.verdict == (PASS if fault is None else FAIL)
    if fault is None:
        assert cert.checks == [{"check": "all_records", "ok": True, BRANCH_NON_TOTAL: 0,
                                BRANCH_NON_INJECTIVE: 0, BRANCH_DIAGONALIZED: 0,
                                branch: 1}]


@pytest.mark.parametrize("e, fault", [
    (0, "rerun_collides"), (76, "rerun_collides"), (COUNT_DOWN, None)])
def test_stage_checks_rerun_collisions_inside_block_k(constant_run, e, fault):
    """Two distinct inputs of block 5, b_0(5) and b_0(5) + 1, collide only
    when both rerun to one value."""
    coded, cert = constant_run[:2]
    record = StageRecord(0, e, 0, 1, 5, BRANCH_NON_INJECTIVE, 0, 1, None, None, 1000, 5)
    schedule = _OneRequirement(cert, Requirement(e, 0, 1))
    _, faults = check_stage_records(coded, ConstructionState(), schedule, [record], 1000)
    assert faults == [fault]


@pytest.fixture(scope="module")
def branches_run(constant_run):
    """Three stages on the pair (0, 1) at budget 1000, one per branch:
    program 76 diverges on block 5, COUNT_DOWN collides on b_0(6) and
    b_0(6) + 1, and program 0, run by run_stage past block 6, diagonalizes."""
    coded, cert = constant_run[:2]
    records = [StageRecord(0, 76, 0, 1, 5, BRANCH_NON_TOTAL, 0, None, None, None, 1000, 5),
               StageRecord(1, COUNT_DOWN, 0, 1, 6, BRANCH_NON_INJECTIVE, 0, 1, None, None,
                           1000, 6)]
    state = reconstruct_state(records)
    records.append(run_stage(state, Requirement(0, 0, 1), coded, cert, 1000))
    schedule = _OneRequirement(cert, [Requirement(r.e, 0, 1) for r in records])
    return coded, schedule, records, state


def test_stage_checks_count_every_branch(branches_run):
    coded, schedule, records, state = branches_run
    cert, faults = check_stage_records(coded, state, schedule, records, 1000)
    assert cert.verdict == PASS and faults == [None] * len(records)
    assert cert.subject == {"stages": len(records)}
    assert cert.checks == [{"check": "all_records", "ok": True, BRANCH_NON_TOTAL: 1,
                            BRANCH_NON_INJECTIVE: 1, BRANCH_DIAGONALIZED: 1}]


def test_defeat_bundle_pass_and_incomplete(constant_run):
    coded, cert, schedule, transcript, state = constant_run
    _, faults = check_stage_records(coded, state, schedule, transcript.records, BUDGET)
    bundle = check_defeat_bundle(schedule, 0, 1, 3, transcript.records, faults)
    assert bundle.verdict == PASS
    assert bundle.diagnostics["defeated"] == 3
    too_wide = check_defeat_bundle(schedule, 0, 1, 40, transcript.records, faults)
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
    # A defeat record's witnesses are offsets from b_i(k): x, x2 = b_i(k), b_i(k) + 1,
    # and its M_after is k.
    anchor = coded.source(record.i).endpoint(record.k)
    fields = {"branch": branch, "dx": 0, "dx2": 1, "m_after": record.k,
              "d" + field: None if value is None else value - anchor}
    records = list(transcript.records)
    records[stage] = record._replace(**fields)
    stage_checks, faults = check_stage_records(coded, state, schedule, records, BUDGET)
    # A null field is named as the record's field, a negative witness as itself.
    assert stage_checks.checks == [{
        "check": "witness_fields", "ok": False, "stage": stage,
        "field": "d" + field if value is None else field,
        "value": None if value is None else str(value),
    }]
    bundle = check_defeat_bundle(schedule, 0, 1, 1, records, faults)
    assert bundle.verdict == FAIL
    assert bundle.checks == [{
        "check": "defeat_record", "ok": False, "e": 0, "stage": stage,
        "reason": "witness_fields",
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


def test_embedding_matrix_fails_a_passing_cell_the_relation_refutes():
    """Every cell PASSes, but a PositiveReduction from 0 to 1 claims 0 below 1
    in an antichain, so the verdict matrix is not the relation."""
    cells = {(0, 1): Certificate("PositiveReduction", {}),
             (1, 0): Certificate("DefeatBundle", {})}
    cert = check_embedding_matrix(FinitePoset.from_rows(["10", "01"]), cells, 4,
                                  e_bound=1, budget=10)
    assert cert.verdict == FAIL
    assert cert.checks == [{"check": "matrix_equals_relation", "ok": False,
                            "matrix": [["1", "1"], ["0", "1"]]}]


def test_transcript_replay(constant_run, tmp_path):
    _, cert, _, transcript, _ = constant_run
    path = tmp_path / "t.jsonl"
    transcript.write_jsonl(path)
    fresh = CodedFamily(constant_family()[0])
    replay = run_stages(ConstructionState(), RequirementSchedule(cert), fresh, 10**5)
    loaded, divergence = Transcript.read_jsonl(path, replay)
    assert loaded.records == transcript.records and divergence is None
    assert check_transcript_replay(len(loaded.records), divergence).verdict == PASS


def test_certificate_keeps_its_diagnostics():
    cert = Certificate("X", {}, diagnostics={"claim": "c"})
    cert.ok("first")
    assert cert.to_json() == {
        "kind": "X", "verdict": PASS, "subject": {},
        "checks": [{"check": "first", "ok": True}], "diagnostics": {"claim": "c"},
    }
    assert Certificate("X", {}).to_json()["diagnostics"] == {}
