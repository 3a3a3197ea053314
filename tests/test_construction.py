import math
import random
from fractions import Fraction
from itertools import count, islice

import pytest
from hypothesis import assume, given, strategies as st

from blockdensity import construction
from blockdensity.construction import (
    BRANCH_DIAGONALIZED,
    BRANCH_NON_INJECTIVE,
    BRANCH_NON_TOTAL,
    ConstructionState,
    FrontierUndefined,
    Requirement,
    RequirementSchedule,
    StageRecord,
    _KEYS,
    _evaluate_block,
    domination_search,
    reconstruct_state,
    run_construction,
    run_stage,
    run_stages,
)
from blockdensity.machine import (
    DECJZ,
    HALT,
    INC,
    Halted,
    OutOfBudget,
    decode,
    identity_index,
    run_program,
    tail_behavior,
    TailHalts,
)
from blockdensity.maps import CodedFamily
from blockdensity.numerics import cantor_pair, cantor_unpair
from blockdensity.posets import FinitePoset
from blockdensity.profiles import (
    GapCertificate,
    combined_family,
    constant_family,
    oscillating_family,
    poset_family,
)
from blockdensity.scenarios import ScenarioConfig, construct

from _oracles import block_geometry, domination_brute, encode, read_transcript

ALPHA = Fraction(5, 4)
BETA = Fraction(7, 4)

# Constant enumeration: q_0 = 3/2, q_1 = 4/3, q_3 = 5/4, q_4 = 7/4.
I_32, I_43, I_54, I_74 = 0, 1, 3, 4

LOOP = ((INC, 0), (DECJZ, 1, 0))
CONST0 = ((DECJZ, 0, 2), (DECJZ, 1, 0))
# Input 0 jumps past HALT to INC; every other input stops at HALT.
BOUNDARY = ((DECJZ, 0, 2), (HALT,), (INC, 0))


def constant_setup():
    family, cert = constant_family()
    return CodedFamily(family), cert


def test_requirement_enumeration_examples():
    _, cert = constant_setup()
    schedule = RequirementSchedule(cert)
    assert schedule.pair(0) == (0, 1)
    assert schedule.requirement(0) == Requirement(0, 0, 1)
    reqs = [schedule.requirement(n) for n in range(100)]
    assert len(set(reqs)) == 100


# One family of each kind: constant, order-driven and combined.
FAMILIES = {
    "constant": constant_family,
    "poset": lambda: poset_family(
        FinitePoset.from_rows(["110", "010", "111"]), ALPHA, BETA
    ),
    "combined": lambda: combined_family(ALPHA, BETA),
}


@given(kind=st.sampled_from(sorted(FAMILIES)), n=st.integers(0, 5000))
def test_stage_of_inverts_requirement(kind, n):
    schedule = RequirementSchedule(FAMILIES[kind]()[1])
    req = schedule.requirement(n)
    assert schedule.stage_of(req.e, req.i, req.j) == n


@given(
    kind=st.sampled_from(sorted(FAMILIES)),
    e=st.integers(0, 10**6),
    i=st.integers(0, 20),
    j=st.integers(0, 20),
)
def test_requirement_inverts_stage_of(kind, e, i, j):
    cert = FAMILIES[kind]()[1]
    assume(cert.in_D(i, j))
    schedule = RequirementSchedule(cert)
    assert schedule.requirement(schedule.stage_of(e, i, j)) == Requirement(e, i, j)


def _window(kind, drawn):
    """The gap certificate of kind and the drawn pairs it schedules."""
    cert = FAMILIES[kind]()[1]
    return cert, [pair for pair in drawn if cert.in_D(*pair)]


WINDOWS = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                   min_size=1, max_size=20, unique=True)


@given(kind=st.sampled_from(sorted(FAMILIES)), drawn=WINDOWS, n=st.integers(0, 5000))
def test_window_stage_of_inverts_requirement(kind, drawn, n):
    cert, pairs = _window(kind, drawn)
    assume(pairs)
    schedule = RequirementSchedule(cert, pairs)
    req = schedule.requirement(n)
    assert (req.e, pairs.index((req.i, req.j))) == divmod(n, len(pairs))
    assert schedule.stage_of(req.e, req.i, req.j) == n


@given(kind=st.sampled_from(sorted(FAMILIES)), drawn=WINDOWS,
       e=st.integers(0, 10**6), data=st.data())
def test_window_requirement_inverts_stage_of(kind, drawn, e, data):
    cert, pairs = _window(kind, drawn)
    assume(pairs)
    schedule = RequirementSchedule(cert, pairs)
    i, j = data.draw(st.sampled_from(pairs))
    assert schedule.requirement(schedule.stage_of(e, i, j)) == Requirement(e, i, j)


@given(kind=st.sampled_from(sorted(FAMILIES)), drawn=WINDOWS, e_bound=st.integers(1, 300))
def test_window_stage_count_is_e_bound_times_pairs(kind, drawn, e_bound):
    cert, pairs = _window(kind, drawn)
    assume(pairs)
    schedule = RequirementSchedule(cert, pairs)
    needed = max(schedule.stage_of(e_bound - 1, i, j) + 1 for i, j in pairs)
    assert needed == e_bound * len(pairs)


def test_window_schedule_refuses_pairs_it_cannot_run():
    _, cert = constant_setup()
    assert cert.in_D(I_74, I_54) and not cert.in_D(I_54, I_74)
    for pairs, message in (
        ([(I_74, I_54), (I_54, I_74)], "not scheduled"),
        ([(I_74, I_54), (I_74, I_54)], "distinct"),
        ([], "at least one pair"),   # else requirement(n) would divide by 0
        ([(I_74, I_54), (-1, I_54)], "natural indices"),
    ):
        with pytest.raises(ValueError, match=message):
            RequirementSchedule(cert, pairs)
    schedule = RequirementSchedule(cert, [(I_74, I_54)])
    assert cert.in_D(I_32, I_43)
    with pytest.raises(ValueError, match="not in the window"):
        schedule.stage_of(0, I_32, I_43)


def test_full_order_scans_pair_codes_only_through_the_asked_pair():
    """On the combined family, whose mixed pairs are unscheduled, a fresh
    full-order schedule asks the rule about each pair code up to the pair it
    ranks once and about none above it, and a second lookup of any scanned
    pair asks nothing."""
    oracle = combined_family(ALPHA, BETA)[1]
    for i, j in [(1, 3), (0, 2), (7, 1), (3, 1), (8, 0), (0, 12)]:
        cert = combined_family(ALPHA, BETA)[1]
        rule, asked = cert.rule, []
        cert.rule = lambda a, b: asked.append(cantor_pair(a, b)) or rule(a, b)
        code = cantor_pair(i, j)
        schedule = RequirementSchedule(cert)
        stage = schedule.stage_of(2, i, j)
        assert sorted(asked) == list(range(code + 1)), (i, j)
        asked.clear()
        assert schedule.requirement(stage) == Requirement(2, i, j)
        for scanned in map(cantor_unpair, range(code + 1)):
            if oracle.in_D(*scanned):
                schedule.stage_of(0, *scanned)
            else:
                with pytest.raises(ValueError, match="not scheduled"):
                    schedule.stage_of(0, *scanned)
        assert asked == [], (i, j)


def test_requirement_window_is_covered_early():
    _, cert = constant_setup()
    schedule = RequirementSchedule(cert)
    for i in range(4):
        for j in range(4):
            if not cert.in_D(i, j):
                continue
            for e in range(4):
                assert schedule.stage_of(e, i, j) < 10_000


def test_domination_search_examples():
    coded, cert = constant_setup()
    assert domination_search(coded, cert, I_74, I_54, -1) == 4
    assert domination_search(coded, cert, I_74, I_54, 4) == 5
    osc_family, osc_cert = oscillating_family(ALPHA, BETA)
    osc_coded = CodedFamily(osc_family)
    k = domination_search(osc_coded, osc_cert, 0, 1, -1)
    assert k == 5 and k % 2 == 1


def test_domination_search_matches_brute_force():
    rng = random.Random(20260808)
    coded, cert = constant_setup()
    family = coded.family
    for _ in range(8):
        i, j = rng.randint(0, 8), rng.randint(0, 8)
        if not cert.in_D(i, j):
            continue
        frontier = rng.randint(-1, 6)
        got = domination_search(coded, cert, i, j, frontier)
        want = domination_brute(
            family.profile(i), family.profile(j), lambda t: t, frontier
        )
        assert got == want


def _selector_shapes():
    """One family per selector shape: t, 2^n(2t+1) and (1<<i)(2t+1)."""
    chain = FinitePoset.from_rows(["111", "011", "001"])
    return {
        "constant": (constant_family(), [(I_74, I_54), (I_32, I_43)]),
        "oscillating": (oscillating_family(ALPHA, BETA), [(0, 1), (2, 0), (1, 3)]),
        "poset": (poset_family(chain, ALPHA, BETA), [(1, 0), (2, 1), (0, 3)]),
    }


@pytest.mark.parametrize("shape", ["constant", "oscillating", "poset"])
def test_domination_search_matches_brute_force_on_every_selector_shape(shape):
    (family, cert), pairs = _selector_shapes()[shape]
    coded = CodedFamily(family)
    for i, j in pairs:
        selected = [cert.s(i, j, t) for t in (0, 1, 2, 5, 9)]
        # Frontiers exactly on selected blocks, one either side, and far out.
        frontiers = {-1, 0, 7, 64, 150, 299, 300}
        frontiers |= {k + d for k in selected for d in (-1, 0, 1) if k + d <= 300}
        for frontier in sorted(frontiers):
            got = domination_search(coded, cert, i, j, frontier)
            want = domination_brute(
                family.profile(i), family.profile(j),
                lambda t: cert.s(i, j, t), frontier,
            )
            assert got == want, (shape, i, j, frontier)


@pytest.mark.parametrize("shape", ["constant", "oscillating", "poset", "combined"])
def test_first_selected_block_is_the_brute_force_least(shape):
    """The certificate's closed-form first index past a frontier is the least
    t with s(i, j, t) > frontier, found by counting up from 0."""
    shapes = _selector_shapes()
    shapes["combined"] = (combined_family(ALPHA, BETA), [(0, 2), (8, 6), (1, 3), (5, 1)])
    (_, cert), pairs = shapes[shape]
    for i, j in pairs:
        assert cert.in_D(i, j), (shape, i, j)
        t = 0
        for frontier in range(-1, 301):
            while cert.s(i, j, t) <= frontier:
                t += 1
            assert cert.first_past(i, j, frontier) == t, (shape, i, j, frontier)


def test_domination_search_refuses_a_first_index_that_is_not_least():
    """A first function one too high skips the least selected block past the
    frontier; the one selector call before the scan catches it."""
    (family, cert), pairs = _selector_shapes()["oscillating"]
    coded = CodedFamily(family)
    high = GapCertificate(cert.rule)
    high.first_past = lambda i, j, f: cert.first_past(i, j, f) + 1
    for i, j in pairs:
        for frontier in (-1, 0, 40, 299):
            with pytest.raises(AssertionError, match="selected block past %d" % frontier):
                domination_search(coded, high, i, j, frontier)
            assert domination_search(coded, cert, i, j, frontier) > frontier


def test_domination_search_refuses_a_gap_the_lengths_contradict():
    coded, cert = constant_setup()
    # Pair (7/4, 5/4) first dominates at block 4. A claimed gap of 5 gives
    # K0 = max(3, ceil(5/5)) = 3, so block 3 failing contradicts the lemma;
    # a gap <= 0 proves nothing, so the certificate refuses the pair.
    for delta, message in (
        (5, r"block 3 of pair \(4, 3\) does not dominate, though K0 = 3"),
        (0, r"pair \(4, 3\) has gap 0 <= 0"),
        (Fraction(-1, 2), r"pair \(4, 3\) has gap -1/2 <= 0"),
    ):
        lying = GapCertificate(lambda i, j, d=delta: (d, None))
        with pytest.raises(AssertionError, match=message):
            domination_search(coded, lying, I_74, I_54, -1)
    assert domination_search(coded, cert, I_74, I_54, -1) == 4


LEMMA_K = 200


def _lemma_families():
    """Each family with the indices whose scheduled pairs the lemma test takes."""
    chain = FinitePoset.from_rows(["111", "011", "001"])
    return {
        "constant": (constant_family(), range(8)),
        "oscillating": (oscillating_family(ALPHA, BETA), range(4)),
        "combined": (combined_family(ALPHA, BETA), range(8)),
        "poset": (poset_family(chain, ALPHA, BETA), range(5)),
    }


@pytest.mark.parametrize("kind", ["constant", "oscillating", "combined", "poset"])
def test_profile_lemma_every_selected_block_from_k0_dominates(kind):
    """On oracle geometry (running sums, no blocks.py), every selected block
    k of a scheduled pair with K0 = max(3, ceil(5/delta)) <= k <= LEMMA_K is
    longer than the opposing prefix: |K_k^i| > b_j(k + 1)."""
    (family, cert), indices = _lemma_families()[kind]
    geometry = {i: block_geometry(family.profile(i), range(LEMMA_K + 2)) for i in indices}
    pairs = [(i, j) for i in indices for j in indices if cert.in_D(i, j)]
    assert pairs
    for i, j in pairs:
        k0 = max(3, math.ceil(5 / cert.rule(i, j)[0]))
        assert cert.k0(i, j) == k0, (kind, i, j)
        checked = 0
        for t in count():
            k = cert.s(i, j, t)
            if k > LEMMA_K:
                break
            if k >= k0:
                assert geometry[i][k][3] > geometry[j][k + 1][1], (kind, i, j, k, k0)
                checked += 1
        assert checked, (kind, i, j, k0)


def test_domination_search_rejects_selector_not_strictly_increasing():
    coded, cert = constant_setup()
    # s(t) = t // 2 repeats values and stays below t, breaking s(t) >= t;
    # s(t) = max(t, 3) stalls on block 3, which does not dominate (block 4
    # is the first that does), below K0 = 10.
    for selector, frontier in ((lambda i, j, t: t // 2, 10),
                               (lambda i, j, t: max(t, 3), -1)):
        broken = GapCertificate(cert.rule)
        broken.s = selector
        with pytest.raises(AssertionError, match="strictly increasing"):
            domination_search(coded, broken, I_74, I_54, frontier)


def test_run_stage_identity_diagonalizes():
    coded, cert = constant_setup()
    state = ConstructionState()
    record = run_stage(state, Requirement(identity_index(), I_74, I_54), coded, cert, 10_000)
    assert record.branch == BRANCH_DIAGONALIZED
    assert record.k == 4
    # Least source element whose image leaves the opposing prefix [0, 41).
    # x = y = 41 = b_j(5), the anchor, so both offsets are 0.
    assert record.dx == 0 and record.dy == 0 and record.ell == 5
    assert state.frontier == 5 and state.ones == {4}
    assert state.block_bit(coded.targets.locate(10)[0]) == 1     # a_4 = 10
    assert state.block_bit(coded.targets.locate(34)[0]) == 0     # a_5 = 34


def test_run_stage_diverging_program():
    coded, cert = constant_setup()
    state = ConstructionState()
    record = run_stage(state, Requirement(encode(LOOP), I_74, I_54), coded, cert, 1000)
    assert record.branch == BRANCH_NON_TOTAL
    assert record.dx == 0                    # x = 15 = b_i(4), the anchor
    assert record.k == 4 and state.frontier == 4
    assert state.ones == set()


def test_run_stage_constant_program_collides():
    coded, cert = constant_setup()
    state = ConstructionState()
    record = run_stage(state, Requirement(encode(CONST0), I_74, I_54), coded, cert, 10_000)
    assert record.branch == BRANCH_NON_INJECTIVE
    assert (record.dx, record.dx2) == (0, 1)     # x, x2 = 15, 16 past b_i(4) = 15


def test_run_stage_rejects_unscheduled_pair():
    coded, cert = constant_setup()
    with pytest.raises(ValueError):
        run_stage(ConstructionState(), Requirement(0, I_54, I_74), coded, cert, 100)


@pytest.mark.parametrize("k_star", [math.inf, 0], ids=["below_k_star", "past_k_star"])
def test_run_stage_refuses_a_zero_budget_before_the_state_changes(k_star):
    """Both of run_stage's paths ask tail_behavior, which refuses the budget,
    before the record is applied."""
    coded, cert = constant_setup()
    state = ConstructionState()
    req = Requirement(identity_index(), I_74, I_54)
    run_stage(state, req, coded, cert, 10_000)
    before = (state.frontier, set(state.ones), state.stage)
    with pytest.raises(ValueError, match="budget must be at least 1"):
        run_stage(state, req, coded, cert, 0, k_star)
    assert (state.frontier, state.ones, state.stage) == before


def test_run_construction_monotone_frontier_and_replay():
    coded, cert = constant_setup()
    transcript = run_construction(RequirementSchedule(cert), coded, 5, 10_000)
    frontiers = [r.m_after for r in transcript.records]
    assert frontiers == sorted(frontiers) and len(set(frontiers)) == 5

    fresh = CodedFamily(constant_family()[0])
    again = run_construction(RequirementSchedule(cert), fresh, 5, 10_000)
    assert again.to_jsonl() == transcript.to_jsonl()

    with pytest.raises(ValueError):
        run_construction(RequirementSchedule(cert), coded, 0, 10_000)


def test_no_injury_across_stages():
    coded, cert = constant_setup()
    schedule = RequirementSchedule(cert)
    state = ConstructionState()
    snapshot: dict[int, int] = {}
    for n in range(8):
        run_stage(state, schedule.requirement(n), coded, cert, 10_000)
        for block, bit in snapshot.items():
            assert state.block_bit(block) == bit
        for block in range(state.frontier + 1):
            snapshot[block] = state.block_bit(block)


def test_membership_is_blockwise_constant():
    coded, cert = constant_setup()
    state = ConstructionState()
    run_stage(state, Requirement(identity_index(), I_74, I_54), coded, cert, 10_000)
    with pytest.raises(FrontierUndefined):
        state.block_bit(coded.targets.locate(coded.targets.endpoint(state.frontier + 1))[0])
    # Blockwise constancy of the coded sets on the constructed prefix.
    for i in (I_32, I_74):
        src = coded.source(i)
        for k in range(state.frontier + 1):
            lo, hi = src.block(k)
            bits = {state.block_bit(coded.targets.locate(coded.h_apply(i, x))[0])
                    for x in range(lo, min(hi, lo + 40))}
            assert len(bits) == 1
            assert bits.pop() == state.block_bit(k)


def _literal_branch(program, lo, hi, budget, threshold):
    """Reference implementation scanning every element of the block."""
    values = {}
    for x in range(lo, hi):
        outcome = run_program(program, x, budget)
        if isinstance(outcome, OutOfBudget):
            return (BRANCH_NON_TOTAL, x, None, None)
        values[x] = outcome.value
    seen = {}
    for x in range(lo, hi):
        v = values[x]
        if v in seen:
            return (BRANCH_NON_INJECTIVE, seen[v], x, None)
        seen[v] = x
    for x in range(lo, hi):
        if values[x] >= threshold:
            return (BRANCH_DIAGONALIZED, x, None, values[x])
    raise AssertionError("no branch")


def test_block_evaluation_matches_literal_scan():
    # Mixed concrete prefix and uniform tail: the budget, or the tail path's
    # step count, cuts inside the block. The block starting at 0 holds
    # BOUNDARY's boundary (steps + 1 = 3) for every budget.
    programs = [
        decode(identity_index()),
        ((INC, 0),),
        ((INC, 0), (INC, 0), (INC, 0)),
        ((DECJZ, 0, 1),),
        LOOP,
        CONST0,
        BOUNDARY,
        ((DECJZ, 0, 2), (DECJZ, 1, 0), (INC, 0)),
    ]
    rng = random.Random(3)
    programs += [decode(rng.randint(0, 4000)) for _ in range(40)]
    for lo, hi, threshold in ((90, 160, 140), (0, 60, 40)):
        for budget in (64, 100, 120, 200, 100_000):
            for program in programs:
                try:
                    want = _literal_branch(program, lo, hi, budget, threshold)
                except AssertionError:
                    continue
                got = _evaluate_block(program, lo, hi, budget, threshold)
                assert got == want, (program, lo, budget, got, want)


def test_block_evaluation_runs_only_inputs_up_to_the_tail_steps(monkeypatch):
    """A halting tail bounds the literal runs by its own step count, not by
    the budget; the branch still matches a literal scan of the block."""
    calls = []

    def counting_run(program, x, budget):
        calls.append(x)
        return run_program(program, x, budget)

    monkeypatch.setattr(construction, "run_program", counting_run)
    # Forward jumps only, so each literal run takes a few steps.
    programs = [BOUNDARY, ((INC, 0),), ((DECJZ, 0, 1),), ((DECJZ, 0, 3), (INC, 1), (INC, 0))]
    programs += [
        p for p in map(decode, range(2000))
        if all(ins[0] != DECJZ or ins[2] > pc for pc, ins in enumerate(p))
    ][::20]
    lo, hi, budget, threshold = 0, 8820, 100_000, 5000
    for program in programs:
        tail = tail_behavior(program, budget)
        assert isinstance(tail, TailHalts)
        calls.clear()
        got = _evaluate_block(program, lo, hi, budget, threshold)
        assert len(calls) <= tail.steps + 1, (program, len(calls))
        assert got == _literal_branch(program, lo, hi, budget, threshold), program


def test_transcript_round_trip(tmp_path):
    coded, cert = constant_setup()
    transcript = run_construction(RequirementSchedule(cert), coded, 4, 10_000)
    path = tmp_path / "t.jsonl"
    transcript.write_jsonl(path)
    assert read_transcript(path) == transcript.records


def test_run_construction_takes_the_first_records_of_the_stage_loop():
    """run_stages goes on from the state's stage; run_construction's records
    are its first ones."""
    coded, cert = constant_setup()
    transcript = run_construction(RequirementSchedule(cert), coded, 6, 10_000)
    loop = run_stages(ConstructionState(), RequirementSchedule(cert), coded, 10_000)
    assert [next(loop) for _ in range(4)] == transcript.records[:4]
    assert [next(loop) for _ in range(2)] == transcript.records[4:]


def test_stage_record_fields_are_the_line_keys_in_order():
    assert StageRecord._fields == tuple("m_after" if key == "M_after" else key for key in _KEYS)


def test_stage_record_replace_keeps_the_type():
    record = StageRecord(0, 1, 2, 3, 4, BRANCH_DIAGONALIZED, 6, None, 7, 5, 10, 5)
    changed = record._replace(dy=8)
    assert type(changed) is StageRecord
    assert changed.dy == 8 and changed._replace(dy=7) == record


def test_reconstruct_state_matches_live_state():
    coded, cert = constant_setup()
    state = ConstructionState()
    records = list(islice(run_stages(state, RequirementSchedule(cert), coded, 10_000), 6))
    rebuilt = reconstruct_state(records)
    assert rebuilt.frontier == state.frontier
    assert rebuilt.ones == state.ones
    assert rebuilt.stage == state.stage


def test_window_stage_count():
    _, cert = constant_setup()
    schedule = RequirementSchedule(cert)
    pairs = [(0, 1)]
    needed = max(schedule.stage_of(3 - 1, i, j) + 1 for i, j in pairs)
    covered = {
        (schedule.requirement(n).e, schedule.requirement(n).i, schedule.requirement(n).j)
        for n in range(needed)
    }
    assert {(e, 0, 1) for e in range(3)} <= covered


# Closed-form stages: from K* = max(K0, k_B) on, k_B the least k with
# (k - 1)! > budget + 1, a stage's record comes from the tail behaviour alone.
CLOSED_FORM_BUDGETS = [1, 3, 50, 10**3, 10**5, 10**6]


def _cached_blocks(coded):
    """The most endpoints any source of the family has cached."""
    return max(len(src._ends) for src in coded._sources.values())


def k_star(cert, i, j, budget):
    """K* of pair (i, j) at the budget, worked out here from its definition."""
    k_b = next(k for k in count(1) if math.factorial(k - 1) > budget + 1)
    return max(3, math.ceil(5 / cert.rule(i, j)[0]), k_b)


def test_k_star_takes_each_bound_over_the_budgets():
    """k_B runs from 4 at budget 1 to 11 at budget 10**6, so across the
    budgets K* is K0 for some pairs and k_B for others."""
    (family, cert), indices = _lemma_families()["oscillating"]
    k0 = max(3, math.ceil(5 / cert.rule(0, 1)[0]))
    assert k0 == 10
    assert [k_star(cert, 0, 1, b) for b in CLOSED_FORM_BUDGETS] == [10] * 5 + [11]


@pytest.mark.parametrize("budget", CLOSED_FORM_BUDGETS)
@pytest.mark.parametrize("kind, params", [
    ("rationals", {"count": 4}),
    ("antichain", {"count": 3}),
    ("combined", {"count": 6}),
    ("poset", {"poset_rows": ("111", "011", "001")}),
])
def test_closed_form_transcript_is_the_compared_one(kind, params, budget, monkeypatch):
    """The construction with the closed form writes, byte for byte, the
    transcript it writes when every stage compares lengths and evaluates its
    block (K* forced past every block), and some of its stages take it."""
    config = ScenarioConfig(kind=kind, e_bound=10, budget=budget, schedule="window",
                            **params)
    coded, schedule, closed = construct(config)
    real = construction.run_stage
    monkeypatch.setattr(construction, "run_stage",
                        lambda state, req, coded, cert, budget, k_star:
                        real(state, req, coded, cert, budget, 10**9))
    compared_coded, _, compared = construct(config)
    assert compared.to_jsonl() == closed.to_jsonl()
    assert any(r.k >= k_star(schedule.cert, r.i, r.j, budget) for r in closed.records)
    # Only the compared run builds geometry out to its frontier.
    assert _cached_blocks(compared_coded) > _cached_blocks(coded)


_CLOSED_FORM_CODED = {kind: CodedFamily(family)
                      for kind, ((family, _), _) in _lemma_families().items()}


@given(kind=st.sampled_from(sorted(_CLOSED_FORM_CODED)), e=st.integers(0, 10**6),
       budget=st.sampled_from(CLOSED_FORM_BUDGETS), data=st.data())
def test_closed_form_stage_is_the_evaluated_block(kind, e, budget, data):
    """At a selected block k from K* to about K* + 40, on the real geometry,
    run_stage's closed-form record places x, x2 and y where _evaluate_block
    finds them, and y opens block ell of j."""
    (_, cert), indices = _lemma_families()[kind]
    coded = _CLOSED_FORM_CODED[kind]
    i, j = data.draw(st.sampled_from(
        [(i, j) for i in indices for j in indices if cert.in_D(i, j)]), label="pair")
    start = k_star(cert, i, j, budget)
    drawn = data.draw(st.integers(start, start + 40), label="k")
    k = cert.s(i, j, cert.first_past(i, j, drawn - 1))
    src_i, src_j = coded.source(i), coded.source(j)
    lo, hi = src_i.block(k)
    threshold = src_j.endpoint(k + 1)
    branch, x, x2, y = _evaluate_block(decode(e), lo, hi, budget, threshold)

    state = ConstructionState()
    state.frontier = k - 1
    record = run_stage(state, Requirement(e, i, j), coded, cert, budget, start)
    assert (record.k, record.branch, record.dx2) == (k, branch, x2)
    if branch == BRANCH_DIAGONALIZED:
        assert (threshold + record.dx, threshold + record.dy) == (x, y)
        assert src_j.locate(y)[0] == record.ell == record.m_after == k + 1
    else:
        assert branch == BRANCH_NON_TOTAL
        assert (lo + record.dx, record.dy, record.ell, record.m_after) == (x, None, None, k)
