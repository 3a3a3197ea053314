"""Acceptance suite: ten exact criteria, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Block-geometry claims are checked element-exhaustively up to k = 10 and by
exact integer identities plus dense deterministic sampling at k = 11, 12
(an element loop at 12! is out of reach in the time budget; every check that
does run is integer-exact).
"""

import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from blockdensity.construction import (
    BRANCH_DIAGONALIZED,
    ConstructionState,
    RequirementSchedule,
    domination_search,
    reconstruct_state,
    run_construction,
    run_stage,
)
from blockdensity.machine import identity_index
from blockdensity.maps import CodedFamily
from blockdensity.numerics import enum_rationals_12
from blockdensity.posets import FinitePoset, UniversalPoset, embed_finite
from blockdensity.profiles import (
    combined_family,
    constant_family,
    oscillating_family,
    poset_family,
)
from blockdensity.scenarios import ScenarioConfig, run_scenario
from blockdensity.verify import PASS, check_stage_records

from _oracles import domination_brute, random_poset_matrix

ALPHA = Fraction(5, 4)
BETA = Fraction(7, 4)
BUDGET = 10**5

K_EXHAUSTIVE = 10
K_GEOMETRY = 12


@pytest.fixture
def criterion(capfd):
    """Reporter that prints one pass/fail line past pytest's capture."""

    def _report(number: int, title: str, ok: bool) -> None:
        with capfd.disabled():
            print("CRITERION %2d [%s]: %s" % (number, title, "PASS" if ok else "FAIL"))
            sys.stdout.flush()

    return _report


def _chain_poset(n: int) -> FinitePoset:
    return FinitePoset.from_matrix([[a <= b for b in range(n)] for a in range(n)])


def _families_under_test():
    out = []
    fam, _ = constant_family()
    out.append(("constant", CodedFamily(fam), range(6)))
    fam, _ = oscillating_family(ALPHA, BETA)
    out.append(("oscillating", CodedFamily(fam), range(3)))
    fam, _ = combined_family(ALPHA, BETA)
    out.append(("combined", CodedFamily(fam), range(6)))
    fam, _ = poset_family(_chain_poset(3), ALPHA, BETA)
    out.append(("poset-chain", CodedFamily(fam), range(3)))
    return out


@pytest.fixture(scope="module")
def combined_run():
    family, cert = combined_family(ALPHA, BETA)
    coded = CodedFamily(family)
    schedule = RequirementSchedule(cert)
    transcript = run_construction(schedule, coded, 60, BUDGET)
    return coded, cert, schedule, transcript, reconstruct_state(transcript.records)


def test_criterion_01_block_geometry(criterion):
    violations = []
    for name, coded, indices in _families_under_test():
        for i in indices:
            src = coded.source(i)
            for k in range(K_EXHAUSTIVE + 1):
                m = coded.targets.size(k)
                ln = src.length(k)
                r = np.arange(ln, dtype=np.int64)
                g = (r * np.int64(m)) // np.int64(ln)
                d = np.diff(g)
                if g[0] != 0 or int(g[-1]) != m - 1:
                    violations.append((name, i, k, "endpoints"))
                if d.size and (int(d.min()) < 0 or int(d.max()) > 1):
                    violations.append((name, i, k, "step_bound"))
                if d.size > 1 and not bool(np.all(d[:-1] + d[1:] >= 1)):
                    violations.append((name, i, k, "fiber_bound"))
                lo = src.endpoint(k)
                a_k = coded.targets.endpoint(k)
                stride = max(1, ln // 257)
                for rr in range(0, ln, stride):
                    if coded.h_apply(i, lo + rr) != a_k + int(g[rr]):
                        violations.append((name, i, k, "h_apply_mismatch"))
                        break
            for k in range(K_EXHAUSTIVE + 1, K_GEOMETRY + 1):
                m = coded.targets.size(k)
                ln = src.length(k)
                lo = src.endpoint(k)
                a_k = coded.targets.endpoint(k)
                if not m <= ln < 2 * m:
                    violations.append((name, i, k, "length_band"))
                if coded.h_apply(i, lo) != a_k:
                    violations.append((name, i, k, "first_slot"))
                if coded.h_apply(i, lo + ln - 1) != a_k + m - 1:
                    violations.append((name, i, k, "last_slot"))
                stride = max(1, ln // 20_000)
                prev = 0
                for rr in range(stride, ln, stride):
                    cur = (rr * m) // ln
                    back = ((rr - 1) * m) // ln
                    if not 0 <= cur - back <= 1:
                        violations.append((name, i, k, "step_sampled"))
                        break
                    if cur < prev:
                        violations.append((name, i, k, "monotone_sampled"))
                        break
                    prev = cur
                qstride = max(1, m // 20_000)
                for q in range(0, m, qstride):
                    y = a_k + q
                    fiber = coded.h_fibers(i, y)
                    if not 1 <= len(fiber) <= 2:
                        violations.append((name, i, k, "fiber_sampled"))
                        break
                    if any(coded.h_apply(i, x) != y for x in fiber):
                        violations.append((name, i, k, "fiber_member_sampled"))
                        break
    criterion(1, "block geometry", not violations)
    assert not violations, violations[:5]


def test_criterion_02_reduction_algebra(criterion):
    from blockdensity.verify import check_bfo_equivalence, check_positive_reduction

    family, cert = constant_family()
    coded = CodedFamily(family)
    transcript = run_construction(RequirementSchedule(cert), coded, 16, BUDGET)
    state = reconstruct_state(transcript.records)
    assert state.frontier >= K_GEOMETRY

    order = sorted(range(6), key=enum_rationals_12)
    pairs = [
        (order[a], order[b]) for a in range(6) for b in range(a + 1, 6)
    ]
    assert len(pairs) == 15
    failures = []
    for a, b in pairs:
        cert_ab = check_positive_reduction(coded, state, a, b, K_GEOMETRY)
        if cert_ab.verdict != PASS:
            failures.append(("reduction", a, b, cert_ab.checks[-1]))
    for i in range(6):
        cert_i = check_bfo_equivalence(coded, state, i, K_GEOMETRY)
        if cert_i.verdict != PASS:
            failures.append(("equivalence", i, cert_i.checks[-1]))
    criterion(2, "reduction algebra", not failures)
    assert not failures, failures


def test_criterion_03_domination_oracle(criterion):
    rng = random.Random(20260808)
    cases = []

    fam_c, cert_c = constant_family()
    coded_c = CodedFamily(fam_c)
    while len(cases) < 7:
        i, j = rng.randint(0, 8), rng.randint(0, 8)
        if cert_c.in_D(i, j):
            cases.append((coded_c, cert_c, fam_c, i, j, rng.randint(-1, 6)))
    fam_o, cert_o = oscillating_family(ALPHA, BETA)
    coded_o = CodedFamily(fam_o)
    while len(cases) < 12:
        i, j = rng.randint(0, 4), rng.randint(0, 4)
        if cert_o.in_D(i, j):
            cases.append((coded_o, cert_o, fam_o, i, j, rng.randint(-1, 6)))
    fam_m, cert_m = combined_family(ALPHA, BETA)
    coded_m = CodedFamily(fam_m)
    while len(cases) < 16:
        i, j = rng.randint(0, 7), rng.randint(0, 7)
        if cert_m.in_D(i, j):
            cases.append((coded_m, cert_m, fam_m, i, j, rng.randint(-1, 6)))
    fam_p, cert_p = poset_family(_chain_poset(3), ALPHA, BETA)
    coded_p = CodedFamily(fam_p)
    while len(cases) < 20:
        i, j = rng.randint(0, 4), rng.randint(0, 4)
        if cert_p.in_D(i, j):
            cases.append((coded_p, cert_p, fam_p, i, j, rng.randint(-1, 6)))

    mismatches = []
    for n, (coded, cert, fam, i, j, frontier) in enumerate(cases):
        got = domination_search(coded, cert, i, j, frontier)
        want = domination_brute(
            fam.profile(i), fam.profile(j),
            lambda t, i=i, j=j: cert.s(i, j, t), frontier,
        )
        if got != want:
            mismatches.append((n, i, j, frontier, got, want))

    fam6, cert6 = constant_family()
    pinned = domination_search(CodedFamily(fam6), cert6, 4, 3, -1)
    ok = not mismatches and pinned == 4
    criterion(3, "domination search oracle", ok)
    assert ok, (mismatches, pinned)


def test_criterion_04_stage_soundness(combined_run, criterion):
    coded, cert, schedule, transcript, state = combined_run
    failures = []
    if len(transcript.records) < 60:
        failures.append("too few stages")

    frontiers = [-1] + [r.m_after for r in transcript.records]
    if any(b <= a for a, b in zip(frontiers, frontiers[1:])):
        failures.append("frontier not strictly increasing")

    stage_checks, _ = check_stage_records(coded, state, schedule, transcript.records,
                                         BUDGET)
    if stage_checks.verdict != PASS:
        failures.append(("stage checks", stage_checks.checks))

    # Bits never change: replay stagewise and snapshot every defined block.
    fresh = CodedFamily(combined_family(ALPHA, BETA)[0])
    replay_state = ConstructionState()
    snapshot = {}
    for n in range(60):
        run_stage(replay_state, schedule.requirement(n), fresh, cert, BUDGET)
        for block, bit in snapshot.items():
            if replay_state.block_bit(block) != bit:
                failures.append(("bit changed", n, block))
        for block in range(replay_state.frontier + 1):
            snapshot[block] = replay_state.block_bit(block)

    criterion(4, "stage soundness, 60 combined stages", not failures)
    assert not failures, failures[:5]


def test_criterion_05_rational_chain_scenario(criterion):
    config = ScenarioConfig(kind="rationals", count=4, e_bound=25, budget=BUDGET,
                            k_max=K_GEOMETRY)
    result = run_scenario(config)
    by_kind = {}
    for cert in result.certificates:
        by_kind.setdefault(cert.kind, []).append(cert)

    failures = []
    positives = {(c.subject["i"], c.subject["j"]): c for c in by_kind["PositiveReduction"]}
    defeats = {(c.subject["i"], c.subject["j"]): c for c in by_kind["DefeatBundle"]}
    for a in range(4):
        for b in range(4):
            if a == b:
                continue
            if enum_rationals_12(a) < enum_rationals_12(b):
                cert = positives.get((a, b))
                if cert is None or cert.verdict != PASS:
                    failures.append(("positive", a, b))
            else:
                cert = defeats.get((a, b))
                if cert is None or cert.verdict != PASS:
                    failures.append(("defeats", a, b))
                elif cert.diagnostics["defeated"] != 25:
                    failures.append(("defeat count", a, b, cert.diagnostics))
    if result.exit_code != 0:
        failures.append(("exit", result.exit_code))
    criterion(5, "rational chain, 4 profiles, E=25", not failures)
    assert not failures, failures


def test_criterion_06_antichain_scenario(criterion):
    config = ScenarioConfig(kind="antichain", count=3, e_bound=20, budget=BUDGET,
                            k_max=8)
    result = run_scenario(config)
    defeats = {
        (c.subject["i"], c.subject["j"]): c
        for c in result.certificates
        if c.kind == "DefeatBundle"
    }
    failures = []
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            cert = defeats.get((a, b))
            if cert is None or cert.verdict != PASS or cert.diagnostics["defeated"] != 20:
                failures.append((a, b))
    if result.exit_code != 0:
        failures.append(("exit", result.exit_code))
    criterion(6, "antichain, 3 profiles, E=20", not failures)
    assert not failures, failures


def test_criterion_07_poset_embedding(criterion):
    rng = random.Random(20260808)
    failures = []
    for trial in range(10):
        n = rng.randint(1, 4)
        poset = FinitePoset.from_matrix(random_poset_matrix(n, rng))
        config = ScenarioConfig(
            kind="poset", poset_rows=poset.rows(), alpha=ALPHA, beta=BETA,
            e_bound=15, budget=BUDGET, k_max=8,
        )
        [cert] = [c for c in run_scenario(config).certificates
                  if c.kind == "EmbeddingMatrix"]
        if cert.verdict != PASS:
            failures.append((trial, poset.rows(), cert.verdict))
    criterion(7, "poset embedding matrices, E=15", not failures)
    assert not failures, failures


def test_criterion_08_universal_embeddings(criterion):
    rng = random.Random(20260808)
    universe = UniversalPoset()
    failures = []
    for trial in range(20):
        n = rng.randint(1, 5)
        poset = FinitePoset.from_matrix(random_poset_matrix(n, rng))
        images = embed_finite(poset, universe)
        for a in range(n):
            for b in range(n):
                if poset.leq(a, b) != universe.leq(images[a], images[b]):
                    failures.append((trial, a, b))
    criterion(8, "universal order embeddings", not failures)
    assert not failures, failures


def test_criterion_09_collapse_evidence(combined_run, criterion):
    coded, _, _, _, state = combined_run
    limit = coded.targets.endpoint(10)
    failures = []
    bits = [state.block_bit(k) for k in range(10)]
    k = 0
    hi = coded.targets.endpoint(1)
    for x in range(limit):
        if x >= hi:
            k += 1
            hi = coded.targets.endpoint(k + 1)
        if bits[coded.targets.locate(coded.collapse(x))[0]] != bits[k]:
            failures.append(("membership moved", x))
            break
    for k in range(2, 10):
        lo, hi = coded.targets.block(k)
        if not any(coded.collapse(x) != x for x in range(lo, min(hi, lo + 3))):
            failures.append(("collapse fixes block", k))
    criterion(9, "collapse self-reduction evidence", not failures)
    assert not failures, failures


def test_criterion_10_identity_diagonalization(combined_run, criterion):
    coded, cert, _, transcript, state = combined_run
    e_id = identity_index()
    failures = []
    even_identity = [
        r for r in transcript.records
        if r.e == e_id and r.i % 2 == 0 and r.j % 2 == 0
    ]
    if not even_identity:
        failures.append("no identity requirement on a dominated pair was scheduled")
    for record in even_identity:
        if enum_rationals_12(record.i // 2) <= enum_rationals_12(record.j // 2):
            failures.append(("pair not strictly dominated", record.stage))
        if record.branch != BRANCH_DIAGONALIZED:
            failures.append(("identity failed to diagonalize", record.stage, record.branch))
    ones = len(state.ones)
    zeros = state.frontier + 1 - ones
    if ones < 1 or zeros < 1:
        failures.append(("prefix split", ones, zeros))
    criterion(10, "identity-index diagonalization", not failures)
    assert not failures, failures
