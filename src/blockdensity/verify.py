"""Certificate checking over transcripts and constructed prefixes.

Positive claims (reductions, equivalences) are certified exactly over a
number of blocks, source blocks 0 .. blocks - 1 for a reduction and target
blocks 0 .. blocks - 1 for a coupling, each in one pass. The pass does not use
the production geometry: it walks the blocks by running sums (block_walk: k!,
a_k, b_k and |K_k| = floor(u(k) * k!) from the profile alone, nothing from
blocks.py or maps.py). At every block it compares the walk with the
production endpoints and lengths, checks the block identity on the walk's
values, and compares the production maps with the walk at the block's two
ends and (for couplings) at sampled offsets. So the certificates test that
geometry instead of trusting it; a disagreement is a reference_geometry FAIL.

The block identity settles every element of the block, so no element is
checked one by one. Inside block k, with 0 <= r < |K_k| (|K_k^i| for a
reduction from i) and 0 <= q < k!:

- Reductions, given |K_k^i| <= |K_k^j|: b_i + r -> b_j + r lands inside
  source block k of j, so the map is injective across blocks. Both
  a_k + floor(r * k! / |K_k^i|) and a_k + floor(r * k! / |K_k^j|) lie in
  [a_k, a_{k+1}), so both coded bits are block k's bit.
- Couplings, given k! <= |K_k| < 2 * k!: the fiber over a_k + q has length
  ceil((q + 1) * |K_k| / k!) - ceil(q * |K_k| / k!), which is 1 or 2.
  lo(q) = ceil(q * |K_k| / k!) rises strictly and stays below |K_k|, and
  floor(lo(q) * k! / |K_k|) = q, so the least preimage b_k + lo(q) maps back
  to a_k + q, with the same bit.

Negative claims are explicitly budget-qualified: a defeat bundle says that no
scheduled program below the index bound is a total injective reduction on the
constructed prefix within the step budget, never more. Their witnesses, and
those of every diagonal record, are rerun literally with run_program, not with
the tail lemma (machine.tail_behavior) the construction chose them by; a
record is first matched against the requirement the schedule puts at its
position. INCOMPLETE names what is missing (stages or records); FAIL means a
check was run and refuted.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Mapping

from .construction import (
    BRANCH_DIAGONALIZED,
    BRANCH_NON_INJECTIVE,
    BRANCH_NON_TOTAL,
    ConstructionState,
    FrontierUndefined,
    Requirement,
    RequirementSchedule,
    StageRecord,
    Transcript,
    run_construction,
)
from .machine import Halted, OutOfBudget, decode, run_program
from .maps import CodedFamily
from .posets import FinitePoset

PASS = "PASS"
FAIL = "FAIL"
INCOMPLETE = "INCOMPLETE"


class Certificate:
    """One certificate: its kind and subject, the checks run so far and the
    verdict they give (PASS until a check fails or is incomplete)."""

    def __init__(self, kind: str, subject: dict, diagnostics: dict | None = None) -> None:
        self.kind = kind
        self.subject = subject
        self.verdict = PASS
        self.checks: list[dict] = []
        self.diagnostics = {} if diagnostics is None else diagnostics

    def ok(self, name: str, detail: dict | None = None) -> None:
        self.checks.append({"check": name, "ok": True, **(detail or {})})

    def fail(self, name: str, detail: dict | None = None) -> None:
        self.checks.append({"check": name, "ok": False, **(detail or {})})
        self.verdict = FAIL

    def incomplete(self, name: str, detail: dict | None = None) -> None:
        self.checks.append({"check": name, "ok": False, **(detail or {})})
        if self.verdict != FAIL:
            self.verdict = INCOMPLETE

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "subject": self.subject,
            "checks": self.checks,
            "diagnostics": self.diagnostics,
        }


def target_walk() -> Iterator[tuple[int, int, int]]:
    """Target blocks k = 0, 1, ... by running sums: (k!, a_k, a_{k+1})."""
    fact, a, k = 1, 0, 0
    while True:
        yield fact, a, a + fact
        a += fact
        k += 1
        fact *= k


def block_walk(
    profile: Callable[[int], Fraction]
) -> Iterator[tuple[int, int, int, int, int]]:
    """Blocks k = 0, 1, ... of one profile: (k!, a_k, a_{k+1}, b_k, |K_k|).

    b_k and |K_k| = floor(u(k) * k!) are running sums over the profile's
    values, independent of blocks.py. Inside block k, with 0 <= r < |K_k| and
    0 <= q < k!, the maps are h(b_k + r) = a_k + floor(r * k! / |K_k|), the
    fiber over a_k + q is b_k + [ceil(q * |K_k| / k!), ceil((q + 1) * |K_k| /
    k!)) with its least element the least preimage, and the translation to
    another profile's partition is b_k + r -> b'_k + r.
    """
    b = 0
    for k, (fact, a, a_next) in enumerate(target_walk()):
        u = profile(k)
        ln = u.numerator * fact // u.denominator
        yield fact, a, a_next, b, ln
        b += ln


def _geometry_mismatch(
    coded: CodedFamily, i: int, k: int, fact: int, a: int, b: int, ln: int
) -> str | None:
    """The first production geometry value at block k that the walk refutes."""
    src = coded.source(i)
    for name, have, want in (
        ("targets.endpoint", coded.targets.endpoint(k), a),
        ("targets.size", coded.targets.size(k), fact),
        ("source.endpoint", src.endpoint(k), b),
        ("source.length", src.length(k), ln),
    ):
        if have != want:
            return name
    return None


def _short_of_frontier(cert: Certificate, state: ConstructionState, blocks: int) -> bool:
    """Mark cert INCOMPLETE if block blocks - 1 lies beyond the frontier."""
    if blocks - 1 <= state.frontier:
        return False
    cert.incomplete(
        "frontier",
        {"needed_block": blocks - 1, "frontier": state.frontier,
         "hint": "run stages until the frontier reaches the needed block"},
    )
    return True


def check_positive_reduction(
    coded: CodedFamily, state: ConstructionState, i: int, j: int, blocks: int
) -> Certificate:
    """Certify the blockwise translation as a one-one reduction on source
    blocks 0 .. blocks - 1 of i.

    One pass over the walk's blocks. At each block the walk must agree with
    the production geometry, |K_k^i| <= |K_k^j| must hold
    (pointwise_domination, the identity that makes the translation injective
    and commuting on the whole block), and the production maps must agree
    with the walk at the block's two ends.
    """
    cert = Certificate("PositiveReduction", {"i": i, "j": j, "blocks": blocks})
    if blocks < 1:
        cert.fail("range", {"reason": "empty range"})
        return cert
    if _short_of_frontier(cert, state, blocks):
        return cert
    profile_i, profile_j = coded.family.profile(i), coded.family.profile(j)
    walks = zip(range(blocks), block_walk(profile_i), block_walk(profile_j))
    for k, (fact, a, _, b_i, ln_i), (_, _, _, b_j, ln_j) in walks:
        for name in (
            _geometry_mismatch(coded, i, k, fact, a, b_i, ln_i),
            _geometry_mismatch(coded, j, k, fact, a, b_j, ln_j),
        ):
            if name is not None:
                cert.fail("reference_geometry", {"k": k, "map": name})
                return cert
        # The reduction lemma of the module docstring needs only this.
        if ln_i > ln_j:
            cert.fail(
                "pointwise_domination",
                {"k": k, "len_i": str(ln_i), "len_j": str(ln_j)},
            )
            return cert
        for r in sorted({0, ln_i - 1}):
            x, fx = b_i + r, b_j + r
            for name, have, want in (
                ("positive_reduction", coded.positive_reduction(i, j, x), fx),
                ("h_apply", coded.h_apply(i, x), a + r * fact // ln_i),
                ("h_apply", coded.h_apply(j, fx), a + r * fact // ln_j),
            ):
                if have != want:
                    cert.fail("reference_geometry", {"k": k, "map": name})
                    return cert
    cert.ok("blockwise_exact", {"blocks": blocks})
    return cert


def check_bfo_equivalence(
    coded: CodedFamily, state: ConstructionState, i: int, blocks: int
) -> Certificate:
    """Certify the two-way coupling between the base set and coded set i.

    Fibers of the compression map stay within size two, the least-preimage
    map is injective, and base membership equals coded membership of the
    least preimage, over target blocks 0 .. blocks - 1. One pass over the
    walk's blocks as in check_positive_reduction, with the length band
    k! <= |K_k| < 2 * k! as the block identity and the maps also compared at
    every floor(k! / 7)-th offset.
    """
    cert = Certificate("BfoEquivalence", {"i": i, "blocks": blocks})
    if blocks < 1:
        cert.fail("range", {"reason": "empty range"})
        return cert
    if _short_of_frontier(cert, state, blocks):
        return cert
    walk = zip(range(blocks), block_walk(coded.family.profile(i)))
    for k, (fact, a, _, b, ln) in walk:
        name = _geometry_mismatch(coded, i, k, fact, a, b, ln)
        if name is not None:
            cert.fail("reference_geometry", {"k": k, "map": name})
            return cert
        # The coupling lemma of the module docstring needs only this.
        if not fact <= ln < 2 * fact:
            cert.fail("length_band", {"k": k, "len": str(ln), "size": str(fact)})
            return cert
        step = max(1, fact // 7)
        for q in sorted({fact - 1, *range(0, fact, step)}):
            y = a + q
            fiber = coded.h_fibers(i, y)
            if not 1 <= len(fiber) <= 2:
                cert.fail("fiber_bound_sampled", {"k": k, "y": str(y)})
                return cert
            if any(coded.h_apply(i, x) != y for x in fiber):
                cert.fail("fiber_membership", {"k": k, "y": str(y)})
                return cert
            lo = -(-q * ln // fact)
            hi = -(-(q + 1) * ln // fact)
            for name, have, want in (
                ("least_preimage", coded.least_preimage(i, y), b + lo),
                ("h_fibers", fiber, list(range(b + lo, b + hi))),
            ):
                if have != want:
                    cert.fail("reference_geometry", {"k": k, "map": name})
                    return cert
    cert.ok("blockwise_exact", {"blocks": blocks})
    return cert


def _unnatural_witness(record: StageRecord, names: tuple[str, ...]) -> str | None:
    """The first named witness field that is missing or negative, if any."""
    for name in names:
        value = getattr(record, name)
        if value is None or value < 0:
            return name
    return None


def check_diag_witness(
    coded: CodedFamily,
    state: ConstructionState,
    record: StageRecord,
    req: Requirement,
) -> Certificate:
    """Recheck one diagonalization record from scratch.

    req is the requirement the schedule puts at the record's position; a
    record naming another (e, i, j) fails before its program is decoded or
    its witnesses located, as those costs grow with e and i.
    """
    if record.branch != BRANCH_DIAGONALIZED:
        raise ValueError("diagonal witness check needs a diagonalized record")
    cert = Certificate(
        "DiagWitness",
        {"stage": record.stage, "e": record.e, "i": record.i, "j": record.j},
    )
    if Requirement(record.e, record.i, record.j) != req:
        cert.fail("schedule_mismatch", {"e": req.e, "i": req.i, "j": req.j})
        return cert
    bad = _unnatural_witness(record, ("x", "y", "ell"))
    if bad is not None:
        value = getattr(record, bad)
        cert.fail("witness_fields",
                  {"field": bad, "value": None if value is None else str(value)})
        return cert
    src_i = coded.source(record.i)
    src_j = coded.source(record.j)
    k, _ = src_i.locate(record.x)
    if k != record.k:
        cert.fail("witness_block", {"expected": record.k, "located": k})
        return cert
    outcome = run_program(decode(record.e), record.x, record.budget)
    if not isinstance(outcome, Halted) or outcome.value != record.y:
        cert.fail("rerun_value", {"x": str(record.x)})
        return cert
    cert.ok("rerun_value")
    ell, _ = src_j.locate(record.y)
    if ell != record.ell or ell <= record.k:
        cert.fail("image_block", {"expected": record.ell, "located": ell})
        return cert
    cert.ok("image_block")
    try:
        hx = coded.h_apply(record.i, record.x)
        hy = coded.h_apply(record.j, record.y)
        if coded.targets.locate(hx) != record.k or coded.targets.locate(hy) != record.ell:
            cert.fail("compressed_targets")
            return cert
        # hx and hy lie in target blocks k and ell, as just checked.
        if state.block_bit(record.k) != 1 or state.block_bit(record.ell) != 0:
            cert.fail("membership_split")
            return cert
    except FrontierUndefined as exc:
        cert.incomplete("frontier", {"needed_block": exc.block, "frontier": exc.frontier})
        return cert
    cert.ok("membership_split", {"value_at_witness": 1, "value_at_image": 0})
    return cert


def _check_defeat_record(
    coded: CodedFamily, record: StageRecord, diag_verdict: str | None
) -> tuple[bool, str]:
    """Validate whichever branch a defeat record claims.

    A diagonalized record stands on diag_verdict, its DiagWitness verdict.
    """
    witnesses = {BRANCH_NON_TOTAL: ("x",), BRANCH_NON_INJECTIVE: ("x", "x2")}
    bad = _unnatural_witness(record, witnesses.get(record.branch, ()))
    if bad is not None:
        return False, "witness %s is missing or negative" % bad
    if record.branch == BRANCH_NON_TOTAL:
        outcome = run_program(decode(record.e), record.x, record.budget)
        if not isinstance(outcome, OutOfBudget):
            return False, "claimed divergence reruns to a halt"
        k, _ = coded.source(record.i).locate(record.x)
        if k != record.k:
            return False, "divergence witness outside the chosen block"
        return True, ""
    if record.branch == BRANCH_NON_INJECTIVE:
        program = decode(record.e)
        out1 = run_program(program, record.x, record.budget)
        out2 = run_program(program, record.x2, record.budget)
        if not (isinstance(out1, Halted) and isinstance(out2, Halted)):
            return False, "collision witnesses fail to halt"
        if record.x == record.x2 or out1.value != out2.value:
            return False, "claimed collision reruns to distinct values"
        return True, ""
    if record.branch == BRANCH_DIAGONALIZED:
        return diag_verdict == PASS, "" if diag_verdict == PASS else "diagonal recheck failed"
    return False, "unknown branch"


def check_defeat_bundle(
    coded: CodedFamily,
    transcript: Transcript,
    schedule: RequirementSchedule,
    i: int,
    j: int,
    e_bound: int,
    diag_verdicts: Mapping[int, str],
) -> Certificate:
    """One defeat record per program index below the bound, each revalidated.

    The conclusion is bounded: no program with index below e_bound is a total
    injective reduction on the constructed prefix within the recorded budget.
    diag_verdicts maps the position of each diagonalized record in the
    transcript to its DiagWitness verdict.
    """
    cert = Certificate(
        "DefeatBundle",
        {"i": i, "j": j, "e_bound": e_bound},
        diagnostics={
            "claim": "no scheduled program with index below %d is a one-one "
                     "reduction on the constructed prefix within its step budget"
                     % e_bound
        },
    )
    defeated = 0
    for e in range(e_bound):
        stage = schedule.stage_of(e, i, j)
        if stage >= len(transcript.records):
            cert.incomplete(
                "record_present",
                {"e": e, "needed_stage": stage, "stages_run": len(transcript.records),
                 "hint": "run at least %d stages" % (stage + 1)},
            )
            continue
        record = transcript.records[stage]
        if (record.e, record.i, record.j) != (e, i, j):
            cert.fail("schedule_mismatch", {"stage": stage})
            continue
        valid, reason = _check_defeat_record(coded, record, diag_verdicts.get(stage))
        if valid:
            defeated += 1
        else:
            cert.fail("defeat_record", {"e": e, "stage": stage, "reason": reason})
    if defeated == e_bound:
        cert.ok("all_defeats", {"count": defeated})
    cert.diagnostics["defeated"] = defeated
    return cert


def check_embedding_matrix(
    poset: FinitePoset,
    cells: Mapping[tuple[int, int], Certificate],
    stages_run: int,
    *,
    e_bound: int,
    budget: int,
) -> Certificate:
    """Certify that reduction evidence reproduces the poset relation exactly.

    cells maps each pair (a, b) with a != b to its certificate: a
    PositiveReduction where a is below b, a DefeatBundle over the
    program-index window where it is not. The verdict matrix, true on the
    diagonal by reflexivity, must equal the input relation matrix cell for
    cell. A cell that FAILs fails the matrix; otherwise a cell that is
    INCOMPLETE leaves the matrix INCOMPLETE, and it is not compared.
    """
    n = poset.n
    cert = Certificate(
        "EmbeddingMatrix",
        {"n": n, "rows": poset.rows(), "e_bound": e_bound, "budget": budget},
    )
    verdict_matrix = [[a == b for b in range(n)] for a in range(n)]
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            sub = cells[a, b]
            positive = sub.kind == "PositiveReduction"
            verdict_matrix[a][b] = (sub.verdict == PASS) == positive
            if sub.verdict != PASS:
                mark = cert.fail if sub.verdict == FAIL else cert.incomplete
                mark("positive_cell" if positive else "negative_cell",
                     {"a": a, "b": b, "verdict": sub.verdict})
    if cert.verdict != INCOMPLETE:
        matches = all(
            verdict_matrix[a][b] == poset.leq(a, b) for a in range(n) for b in range(n)
        )
        if matches:
            cert.ok("matrix_equals_relation")
        else:
            cert.fail("matrix_equals_relation", {
                "matrix": [["1" if v else "0" for v in row] for row in verdict_matrix]
            })
    cert.diagnostics["stages_run"] = stages_run
    return cert


def check_transcript_replay(
    coded: CodedFamily,
    gap_cert,
    transcript: Transcript,
    budget: int,
    *,
    schedule: RequirementSchedule | None = None,
) -> Certificate:
    """Re-run the schedule and demand a bit-identical transcript.

    Each loaded record is compared with its replay as StageRecord.same_json
    does, which decides exactly what comparing the JSON Lines encodings would.
    """
    cert = Certificate("TranscriptReplay", {"stages": len(transcript.records)})
    if not transcript.records:
        cert.fail("bit_exact", {"reason": "empty transcript"})
        return cert
    replay, _ = run_construction(
        coded, gap_cert, len(transcript.records), budget, schedule=schedule
    )
    divergence = next(
        (idx for idx, (a, b) in enumerate(zip(replay.records, transcript.records))
         if not a.same_json(b)),
        None,
    )
    if divergence is not None:
        cert.fail("bit_exact", {"first_divergence_stage": divergence})
    else:
        cert.ok("bit_exact")
    return cert
