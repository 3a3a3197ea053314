"""The record checks past the concrete prefix against the concrete checks.

verify.compare_endpoints decides sign(b(K) + c - b2(K2) - c2) from the top
factorial digits of the profiles, or leaves it undecided, and verify._sign
settles what it leaves from the top block down. Where either decides it
must give the exact sign, computed here from verify.block_walk's running
sums. The record checks use them at k >= k_max, where (k - 1)! > budget:
every such record is passed or named there, with no production geometry.
So on every record of four runs, honest and tampered, the checks with the
prefix at k_max must name the same fault as the checks with every record
concrete, and every honest record at or past k_max must be passed by the
comparator alone. Past the prefix a pass reruns each (program, offset)
once, from an anchor the run never branches on, so a record that shares an
earlier record's rerun must still fail as it would concretely. The
comparator reads m! from a table up to 170! and past it compares bit
lengths: at the edges of every factorial bound it must read the profile
values a bisection of the factorials read, and answer as it did.
"""

import random
import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import islice
from math import factorial, inf

import pytest
from hypothesis import given, strategies as st

from blockdensity import verify
from blockdensity.construction import (
    BRANCH_DIAGONALIZED, BRANCH_NON_INJECTIVE, BRANCH_NON_TOTAL, ConstructionState,
    RequirementSchedule, StageRecord, reconstruct_state,
)
from blockdensity.machine import Halted, decode, run_program
from blockdensity.maps import CodedFamily
from blockdensity.profiles import constant_family
from blockdensity.scenarios import ScenarioConfig, construct
from blockdensity.verify import (
    PASS, _Anchored, _below_factorial, _block_of, _passes_past_prefix, _record_fault, _sign,
    block_walk, check_diag_witness, check_stage_records, compare_endpoints,
)
from _oracles import FAMILIES


# Program 230857, DECJZ 0 2 then DECJZ 1 0, halts with 0 from x in 2x + 1 steps.
COUNT_DOWN = 230857


def _sign_of(value):
    return (value > 0) - (value < 0)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_compare_endpoints_gives_the_exact_sign_where_it_decides(kind):
    family, indices = FAMILIES[kind]
    profiles = [family.profile(s) for s in indices]
    ends = [[b for _, _, _, b, _ in islice(block_walk(u), 61)] for u in profiles]
    rng = random.Random(20261021)
    decided = 0
    for n in range(4000):
        p, p2 = rng.randrange(len(profiles)), rng.randrange(len(profiles))
        K, K2 = rng.randrange(61), rng.randrange(61)
        # Offsets from a few units up to past the exact difference, and every
        # fourth pair a few units off equal.
        c, c2 = (rng.choice((-1, 1)) * rng.randrange(1 << rng.choice((3, 20, 60, 300)))
                 for _ in range(2))
        if n % 4 == 0:
            c = ends[p2][K2] - ends[p][K] + c2 + rng.randrange(-3, 4)
        sign = compare_endpoints(profiles[p], K, c, profiles[p2], K2, c2)
        if sign is not None:
            decided += 1
            assert sign == _sign_of(ends[p][K] + c - ends[p2][K2] - c2), (p, K, c, p2, K2, c2)
    assert decided > 1000


# Two profiles' values on blocks 0 .. 5 whose endpoints b(6) - 4 and
# b2(6) + 3 are equal, though the top digit differs by 1/5 from 1.
EQUAL_AT_6 = ([Fraction(37, 20), Fraction(14, 11), Fraction(32, 17), Fraction(10, 9),
               Fraction(31, 29), Fraction(32, 17)],
              [Fraction(29, 24), Fraction(3, 2), Fraction(28, 17), Fraction(11, 7),
               Fraction(7, 4), Fraction(33, 20)])

# Two profiles' values on blocks 0 .. 6 whose endpoints b(7) and b2(7) are
# equal, 1257: the top digits lead by 1.98 units of 6!, but each block length
# of the first is floored from just below the next integer, so the floors
# take back just under one unit per block.
EQUAL_AT_7 = ([Fraction(1999, 1000), Fraction(193, 97), Fraction(199, 100),
               Fraction(10999, 6000), Fraction(40999, 24000), Fraction(236999, 120000),
               Fraction(5211, 3880)],
              [Fraction(1001, 1000), Fraction(98, 97), Fraction(151, 100),
               Fraction(10001, 6000), Fraction(42001, 24000), Fraction(235001, 120000),
               Fraction(15601, 11640)])


def test_compare_endpoints_on_random_short_profiles():
    """Profiles of random values in (1, 2) with denominators below 30 on
    blocks 0 .. 11, compared at small offsets, where the digits below the top
    one can outweigh it."""
    rng = random.Random(20261022)
    values = [Fraction(p, q) for q in range(2, 30) for p in range(q + 1, 2 * q)]
    cases = [(*EQUAL_AT_6, 6, -4, 6, 3), (*EQUAL_AT_7, 7, 0, 7, 0)]
    for _ in range(20000):
        n = rng.randrange(2, 12)
        cases.append(([rng.choice(values) for _ in range(n)],
                      [rng.choice(values) for _ in range(n)],
                      rng.randrange(n), rng.randrange(-5, 6), rng.randrange(n),
                      rng.randrange(-5, 6)))
    for t, t2, K, c, K2, c2 in cases:
        exact = sum(v.numerator * factorial(m) // v.denominator for m, v in enumerate(t[:K]))
        exact -= sum(v.numerator * factorial(m) // v.denominator for m, v in enumerate(t2[:K2]))
        sign = compare_endpoints(t.__getitem__, K, c, t2.__getitem__, K2, c2)
        assert sign in (None, _sign_of(exact + c - c2)), (t, t2, K, c, K2, c2)


@pytest.mark.parametrize("K, K2, same", [(-3, 5, False), (5, -3, False), (-2, -2, True),
                                         (4, -1, True)])
def test_compare_endpoints_refuses_a_negative_block_index(K, K2, same):
    family, _ = constant_family()
    u0, u1 = family.profile(0), family.profile(1)
    with pytest.raises(ValueError, match="block index %d is negative" % min(K, K2)):
        compare_endpoints(u0, K, 0, u0 if same else u1, K2, 0)


_FACTS = [factorial(m) for m in range(401)]


@pytest.mark.parametrize("m", [*range(165, 260), 1000, 2973, 4803])
def test_below_factorial_is_exact_past_the_table(m):
    """w < m! at w = m! - 1, m!, m! + 1 and at w one bit either side of m!:
    past 170! the bit lengths decide only with a margin, and the factorial
    settles the rest."""
    f = factorial(m)
    for w in (f - 1, f, f + 1, f >> 1, f << 1, (f >> 2) - 1, (f << 2) + 1):
        assert _below_factorial(w, m) == (w < f), (m, w - f)


def test_compare_endpoints_decides_past_the_factorial_table():
    """Offsets from 170! up to just below min(K, K2)! or (L - 1)!, where the
    m! table ends, are decided by the bit lengths, with the exact sign."""
    for kind in ("constant", "combined"):
        family, indices = FAMILIES[kind]
        u, u2 = (family.profile(s) for s in indices)
        ends = {v: [b for _, _, _, b, _ in islice(block_walk(v), 260)] for v in (u, u2)}
        for K, K2, w in ((200, 230, factorial(199) - 4), (240, 200, factorial(180)),
                         (250, 250, factorial(200))):
            for v, v2 in ((u, u), (u, u2)):
                for c, c2 in ((w, 0), (0, w), (-w, 3)):
                    assert compare_endpoints(v, K, c, v2, K2, c2) == _sign_of(
                        ends[v][K] + c - ends[v2][K2] - c2), (kind, K, K2, c, c2)


def test_sign_settles_what_the_comparator_leaves():
    """Endpoints one unit apart, with offsets the size of a block, and
    endpoints far apart: verify._sign gives the exact sign with one memo,
    its cursors moving up and down."""
    rng = random.Random(20261023)
    for kind in sorted(FAMILIES):
        family, indices = FAMILIES[kind]
        profiles = [family.profile(s) for s in indices]
        ends = [[b for _, _, _, b, _ in islice(block_walk(u), 61)] for u in profiles]
        memo = {}
        for _ in range(300):
            p, p2 = rng.randrange(len(profiles)), rng.randrange(len(profiles))
            K, K2 = rng.randrange(61), rng.randrange(61)
            c2 = rng.randrange(-50, 50)
            c = ends[p2][K2] - ends[p][K] + c2 + rng.choice((-1, 0, 1, rng.randrange(-10**9, 10**9)))
            assert _sign(profiles[p], K, c, profiles[p2], K2, c2, memo) == _sign_of(
                ends[p][K] + c - ends[p2][K2] - c2), (kind, p, K, c, p2, K2, c2)




def _factorial_above(w):
    """The least m with m! > w, for a natural w below 400!."""
    return bisect_right(_FACTS, w)


def _bisecting_compare(u, K, c, u2, K2, c2):
    """compare_endpoints as it stood when it bisected the factorial table,
    with the table run on to 400!."""
    if u is u2:
        if K == K2:
            return (c > c2) - (c < c2)
        return None if min(K, K2) < _factorial_above(abs(c - c2)) else 1 if K > K2 else -1
    top = max(K, K2)
    n, den = 0, 1
    for L in range(top - 1, min(top, _factorial_above(top + abs(c - c2))), -1):
        n *= L + 1
        for v, sign, bound in (u, 1, K), (u2, -1, K2):
            if L < bound:
                d = v(L)
                n, den = n * d.denominator + sign * d.numerator * den, den * d.denominator
        if abs(n) * L >= 5 * den:
            return 1 if n > 0 else -1
    return None


def _reading(u, reads, tag):
    def v(m):
        reads.append((tag, m))
        return u(m)
    return v


def _answer_and_reads(compare, u, K, c, u2, K2, c2):
    reads = []
    v = _reading(u, reads, 0)
    return compare(v, K, c, v if u is u2 else _reading(u2, reads, 1), K2, c2), reads


# Each w at a factorial bound: m! - 1, m! and m! + 1 for m <= 12, and at
# 170!, where the m! table ends, and 180!, past it.
EDGES = sorted({w for m in range(13) for w in (factorial(m) - 1, factorial(m), factorial(m) + 1)}
               | {w for m in (170, 180) for w in (factorial(m) - 1, factorial(m))})
THREE_HALVES = Fraction(3, 2)
# Pairs of distinct profiles: equal values, so the scan reads every digit up
# to its bound; a difference at every digit; a difference at digit 9 alone.
PAIRS = [(lambda m: THREE_HALVES, lambda m: THREE_HALVES),
         (lambda m: THREE_HALVES, lambda m: THREE_HALVES + Fraction(1, 10 ** 9)),
         (lambda m: THREE_HALVES, lambda m: THREE_HALVES + (Fraction(1, 7) if m == 9 else 0))]


def test_compare_endpoints_reads_the_digits_a_bisection_read_at_every_bound():
    """One profile: |c - c2| at each edge, min(K, K2) on either side of the
    edge's m and of the table's end at 170!, and K = K2. Two profiles:
    max(K, K2) + |c - c2| at each edge, from scans that start at L <= 1 up to
    scans past 182, so a comparator that reads one digit too many or too few,
    or answers where the factorials say not to, differs here."""
    u = PAIRS[0][0]
    lows = [*range(15), 169, 170, 171, 172, 179, 180, 181]
    for w in EDGES:
        for low in lows:
            for K, K2 in (low, low), (low, low + 1), (low + 1, low):
                for c, c2 in (w, 0), (3, w + 3):
                    case = (u, K, c, u, K2, c2)
                    assert (_answer_and_reads(compare_endpoints, *case)
                            == _answer_and_reads(_bisecting_compare, *case)), case[1:]
    tops = [0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 14, 170, 171, 172, 181, 182, 183]
    for w in EDGES:
        for top in (t for t in tops if t <= w):
            for K, K2 in {(top, top), (top, max(top - 1, 0)), (max(top - 1, 0), top)}:
                for c, c2 in (w - top, 0), (0, w - top):
                    for u, u2 in PAIRS:
                        case = (u, K, c, u2, K2, c2)
                        assert (_answer_and_reads(compare_endpoints, *case)
                                == _answer_and_reads(_bisecting_compare, *case)), case[1:]


# Program 76, DECJZ 1 0, never halts and never changes a register.
LOOP = 76


def test_the_budget_gate_passes_where_a_bisection_passed(monkeypatch):
    """A non-total record of block k whose program never halts is passed,
    and from k_max = 0 on it is checked past the prefix exactly when
    (k - 1)! > budget: at budgets (k - 1)! - 1, (k - 1)! and (k - 1)! + 1,
    and about 170!, where the m! table ends."""
    family, cert = constant_family()
    coded, state = CodedFamily(family), ConstructionState()
    schedule = RequirementSchedule(cert, [(0, 1)])
    past = []

    def passes(*args):
        past.append(args[2])
        return _passes_past_prefix(*args)

    monkeypatch.setattr(verify, "_passes_past_prefix", passes)
    for k in [*range(15), 169, 170, 171, 172, 200]:
        for budget in {factorial(max(k - 1, 0)) + d for d in (-1, 0, 1)} | {
                factorial(170) - 1, factorial(170), factorial(170) + 1}:
            if budget < 1:
                continue
            record = StageRecord(LOOP, LOOP, 0, 1, k, BRANCH_NON_TOTAL, 0, None, None, None,
                                 budget, k)
            past.clear()
            assert _record_fault(coded, state, schedule, LOOP, record, budget, k - 1, 0,
                                 {}) is None, (k, budget)
            assert past == ([record] if k >= 1 and k - 1 >= _factorial_above(budget)
                            else []), (k, budget)


@pytest.mark.parametrize("e, k", [(COUNT_DOWN, 5), (0, 8)])
def test_non_total_records_that_halt_fail_past_the_prefix(e, k):
    """A non-total record of block k whose program halts from x = b_0(k)
    fails rerun_diverges with the prefix at 0 as with every record concrete.
    At k = 5 its block starts within the budget, (k - 1)! <= 1000, so it takes
    the concrete checks: COUNT_DOWN (DECJZ 0 2, DECJZ 1 0) halts from
    b_0(5) within 1000 steps, which a rerun from an anchor never brought to
    zero would miss. At k = 8 program 0 halts at once, on the anchor too."""
    family, cert = constant_family()
    coded, schedule = CodedFamily(family), RequirementSchedule(cert, [(0, 1)])
    record = StageRecord(e, e, 0, 1, k, BRANCH_NON_TOTAL, 0, None, None, None, 1000, k)
    for k_max in (0, inf):
        assert _record_fault(coded, ConstructionState(), schedule, e, record, 1000,
                             -1, k_max, {}) == ("rerun_diverges", {"dx": "0"})


def test_an_image_block_not_past_k_is_never_passed():
    """A diagonalized record of block 8 for the pair (1, 0) of the constant
    family whose y lies in block 7 of 0 fails image_block, though x = b_1(8)
    lies in block 7 of 0 too, so program 0 reruns it to y = x, and the state
    puts block 8 in the set and block 7 out of it."""
    family, _ = constant_family()
    coded = CodedFamily(family)
    x, k = coded.source(1).endpoint(8), 8
    state = ConstructionState()
    state.frontier, state.ones = k, {k}
    dx = x - coded.source(0).endpoint(k + 1)
    record = StageRecord(0, 0, 1, 0, k, BRANCH_DIAGONALIZED, dx, None, dx, k - 1, 1000, k - 1)
    assert check_diag_witness(coded, state, record) == (
        "image_block", {"expected": k - 1, "located": k - 1})
    assert _passes_past_prefix(coded, state, record, {}) == check_diag_witness(
        coded, state, record)


# The runs the record checks are compared on: (config, stages or None).
RUNS = {
    "rationals-e50": (ScenarioConfig("rationals", count=4, schedule="window"), None),
    "antichain-e25": (ScenarioConfig("antichain", count=3, e_bound=25, schedule="window"),
                      None),
    "antichain-e200": (ScenarioConfig("antichain", count=3, e_bound=200, schedule="window"),
                       None),
    "combined-full-prefix": (ScenarioConfig("combined", count=6), 400),
}


@pytest.fixture(scope="module", params=sorted(RUNS))
def run(request):
    config, stages = RUNS[request.param]
    coded, schedule, transcript = construct(config, stages)
    records = transcript.records
    frontiers = [-1] + [r.m_after for r in records[:-1]]
    return config, coded, schedule, records, frontiers, reconstruct_state(records)


def test_comparator_passes_every_honest_record_past_the_prefix(run):
    config, coded, _, records, _, state = run
    past = [r for r in records if r.k >= config.k_max]
    assert past
    reruns = {}
    assert all(_passes_past_prefix(coded, state, r, reruns) is None for r in past)


def _tampers(coded, record, k_other):
    """The record with one field or witness moved, each a record; k_other,
    when not None, is an earlier diagonalized block of the reversed pair."""
    r = record
    if k_other is not None and r.ell is not None:
        # A block set to 1 where j's block is the longer, so x = b_j(k + 1) + dx
        # lies past block k of i though it still reruns to y in block k + 1.
        yield r._replace(k=k_other, ell=k_other + 1, m_after=k_other + 1)
    src_i, src_j = coded.source(r.i), coded.source(r.j)
    yield r._replace(e=r.e + 1)
    yield r._replace(m_after=r.m_after + 1)
    for shift in (-1, 1):
        yield r._replace(dx=r.dx + shift)
        yield r._replace(k=r.k + shift, m_after=r.m_after + shift * (r.ell is None))
        if r.ell is not None:
            yield r._replace(dy=r.dy + shift)
            yield r._replace(ell=r.ell + shift, m_after=r.ell + shift)
    places = [src_i.endpoint(r.k) - 1, src_i.endpoint(r.k + 1) - 1, src_i.endpoint(r.k + 1)]
    if r.ell is None:
        anchor = src_i.endpoint(r.k)
    else:
        anchor = src_j.endpoint(r.k + 1)
        places.append(src_j.endpoint(r.ell + 1))
    for place in places:
        yield r._replace(dx=place - anchor)
        if r.ell is not None:
            yield r._replace(dy=place - anchor)
            # x moved with y, so that it still reruns to y.
            yield r._replace(dx=place - anchor, dy=place - anchor + r.dy - r.dx)
    if r.ell is not None:
        # y moved with x to the last element of block k - 1 of j, and ell
        # with it: the image block must lie past k.
        y = src_j.endpoint(r.k) - 1
        yield r._replace(dx=y - anchor - r.dy + r.dx, dy=y - anchor, ell=r.k - 1,
                         m_after=r.k - 1)


@pytest.fixture
def no_digit_limit():
    """Lift the int<->str digit limit, as the command line does: a fault's
    detail may hold a factorial-scale offset as decimal text."""
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    yield
    if lift:
        sys.set_int_max_str_digits(saved)


def test_checks_past_the_prefix_name_the_concrete_fault(run, no_digit_limit):
    """Each record and each of its tampers fails the same check, with the
    same detail, or passes, whether the comparator may pass it or not."""
    config, coded, schedule, records, frontiers, state = run
    budget = config.budget
    diagonal = {}   # pair -> the k of its last diagonalized record so far
    reruns = {}     # one memo for the run, as in check_stage_records
    for n, record in enumerate(records):
        k_other = diagonal.get((record.j, record.i))
        if record.ell is not None:
            diagonal[record.i, record.j] = record.k
        if record.k < config.k_max:
            continue
        for tampered in (record, *_tampers(coded, record, k_other)):
            concrete = _record_fault(coded, state, schedule, n, tampered, budget,
                                     frontiers[n], inf, {})
            assert _record_fault(coded, state, schedule, n, tampered, budget,
                                 frontiers[n], config.k_max, reruns) == concrete, (n, tampered)


def test_a_memoized_rerun_fails_the_records_it_does_not_fit(run):
    """A record past the prefix whose (e, dx) an earlier honest record already
    ran reads that rerun from the pass's memo. With dy moved by one, or made
    non-total, it fails with the name and detail of the all-concrete checks:
    rerun_value, and rerun_diverges where its x lies in block k."""
    config, coded, schedule, records, frontiers, state = run
    budget, reruns, names = config.budget, {}, set()
    for n, record in enumerate(records):
        if (record.k >= config.k_max and record.ell is not None
                and (record.e, record.dx) in reruns):
            for tampered in (record._replace(dy=record.dy + 1),
                             record._replace(branch=BRANCH_NON_TOTAL, dy=None, ell=None,
                                             m_after=record.k)):
                concrete = _record_fault(coded, state, schedule, n, tampered, budget,
                                         frontiers[n], inf, {})
                assert _record_fault(coded, state, schedule, n, tampered, budget,
                                     frontiers[n], config.k_max, reruns) == concrete, (n, tampered)
                names.add(concrete[0])
        assert _record_fault(coded, state, schedule, n, record, budget, frontiers[n],
                             config.k_max, reruns) is None
    assert {"rerun_value", "rerun_diverges"} <= names


# run_program calls in one check_stage_records pass of each run: one per
# record below k_max and one per distinct (e, dx) past it, where its records
# make 300, 150, 1 200 and 400 calls without the memo.
RERUNS = {"rationals-e50": 51, "antichain-e25": 28, "antichain-e200": 203,
          "combined-full-prefix": 29}
# compare_endpoints calls in one pass of each run, and the profile values
# they read: the comparator reads m! from a table, so these do not depend on
# how it finds a bound.
COMPARISONS = {"rationals-e50": (1196, 911), "antichain-e25": (588, 441),
               "antichain-e200": (4608, 3411), "combined-full-prefix": (1596, 1209)}


def test_a_pass_reruns_each_program_and_offset_once(run, request, monkeypatch):
    """Counted in process; the memo is the pass's, so a second pass reruns
    them all again."""
    config, coded, schedule, records, _, state = run
    calls = []

    def counting(*args):
        calls.append(args)
        return run_program(*args)

    monkeypatch.setattr(verify, "run_program", counting)
    for passes in (1, 2):
        cert, _ = check_stage_records(coded, state, schedule, records, config.budget,
                                      config.k_max)
        assert cert.verdict == PASS
        assert len(calls) == passes * RERUNS[request.node.callspec.params["run"]]


def test_a_pass_makes_the_same_comparisons_and_reads(run, request, monkeypatch):
    config, coded, schedule, records, _, state = run
    calls, reads = [], []
    compare = verify.compare_endpoints

    def counting(*case):
        answer, read = _answer_and_reads(compare, *case)
        calls.append(case[1:])
        reads.extend(read)
        return answer

    monkeypatch.setattr(verify, "compare_endpoints", counting)
    cert, _ = check_stage_records(coded, state, schedule, records, config.budget, config.k_max)
    assert cert.verdict == PASS
    assert (len(calls), len(reads)) == COMPARISONS[request.node.callspec.params["run"]]


@given(e=st.integers(0, 3999), budget=st.integers(1, 200), data=st.data())
def test_an_anchored_rerun_does_not_depend_on_its_anchor(e, budget, data):
    """The memo's soundness: from anchor + dx with |dx| <= budget, two anchors
    give one outcome type, step count and output offset, and so does a
    literal run from the natural anchor 2 * budget + 1, where register 0
    stays positive for the whole budget."""
    dx = data.draw(st.integers(-budget, budget), label="dx")
    program = decode(e)
    a, b = (run_program(program, _Anchored(anchor, dx), budget) for anchor in ((0, 5), (2, 9)))
    literal = run_program(program, 2 * budget + 1 + dx, budget)
    assert type(a) is type(b) is type(literal)
    if isinstance(a, Halted):
        assert a.steps == b.steps == literal.steps
        assert a.value.offset == b.value.offset == literal.value - 2 * budget - 1


def _counting(monkeypatch, name):
    """Count the calls of verify's name from now on, in a one-item list."""
    calls, real = [0], getattr(verify, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(verify, name, counted)
    return calls


def test_non_injective_records_past_the_prefix_fail_with_no_rerun(run, monkeypatch,
                                                                 no_digit_limit):
    """The honest construction writes no collision past (k - 1)! > budget.
    There a non-injective record fails as with every record concrete:
    witness_block for a witness outside block k, else rerun_collides, with
    no rerun, as its two witnesses follow one control path."""
    config, coded, schedule, records, frontiers, state = run
    past = [n for n, r in enumerate(records) if r.k >= config.k_max]
    reruns = _counting(monkeypatch, "run_program")
    names = set()
    for n in past[:: max(1, len(past) // 8)]:
        record, memo = records[n], {}
        length = coded.source(record.i).length(record.k)
        for dx, dx2 in ((0, 1), (1, 0), (0, 0), (-1, 0), (0, -5), (length - 1, length),
                        (length - 2, length - 1), (7, length + 3)):
            tampered = record._replace(branch=BRANCH_NON_INJECTIVE, dx=dx, dx2=dx2, dy=None,
                                       ell=None, m_after=record.k)
            concrete = _record_fault(coded, state, schedule, n, tampered, config.budget,
                                     frontiers[n], inf, {})
            before = reruns[0]
            assert _record_fault(coded, state, schedule, n, tampered, config.budget,
                                 frontiers[n], config.k_max, memo) == concrete, (n, dx, dx2)
            assert reruns[0] == before
            names.add(concrete[0])
    assert names == {"witness_block", "rerun_collides"}


def test_a_negative_witness_past_the_prefix_is_named_by_its_offset(run, no_digit_limit):
    """An offset that puts its witness below 0 fails witness_fields, past
    the prefix named by the offset field, and any other offset fails as with
    every record concrete: offsets down to -(K - 1)! of the anchor b(K) are
    natural at once, offsets below -4 * (K - 1)! negative at once, and the
    endpoint cursor settles those between."""
    config, coded, schedule, records, frontiers, state = run
    for n, record in enumerate(records):
        if record.k < config.k_max:
            continue
        diagonal = record.ell is not None
        K = record.k + diagonal
        src = coded.source(record.j if diagonal else record.i)
        anchor = src.endpoint(K)
        for name in ("dx", "dy") if diagonal else ("dx",):
            for c in (-anchor - 1, -anchor, -anchor + 1, -factorial(K - 1),
                      -4 * factorial(K - 1), -4 * factorial(K - 1) - 1, -(anchor << 3)):
                tampered = record._replace(**{name: c})
                concrete = _record_fault(coded, state, schedule, n, tampered, config.budget,
                                         frontiers[n], inf, {})
                fault = _record_fault(coded, state, schedule, n, tampered, config.budget,
                                      frontiers[n], config.k_max, {})
                if anchor + c < 0:
                    assert concrete == ("witness_fields", {"field": name[1:], "value": str(anchor + c)})
                    assert fault == ("witness_fields", {"field": name, "value": str(c)})
                else:
                    assert fault == concrete, (n, name, c)
        if n > 60:
            break


def test_an_image_block_fault_walks_from_block_k_plus_1(run, monkeypatch):
    """ell moved by one on a diagonalized record past the prefix fails
    image_block, and the walk that locates y makes one comparison for block
    k + 1 and one for each block up to y's block, ell: with two comparisons
    to place x, and one or two to place y in the moved block."""
    config, coded, schedule, records, frontiers, state = run
    compares = _counting(monkeypatch, "compare_endpoints")
    moved = 0
    for n, record in enumerate(records):
        if record.k < config.k_max or record.ell is None:
            continue
        k, ell = record.k, record.ell
        for shift in (1, -1):
            tampered = record._replace(ell=ell + shift, m_after=ell + shift)
            before = compares[0]
            fault = _passes_past_prefix(coded, state, tampered, {})
            assert fault == ("image_block", {"expected": ell + shift, "located": ell}), n
            placing_y = 0 if ell + shift <= k else 1 if shift == 1 else 2
            assert compares[0] - before == 2 + placing_y + 1 + (ell - k), (n, shift)
            moved += 1
    assert moved


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_the_walk_locates_every_block_start(kind):
    """verify._block_of from any start block returns the block that holds
    b2(K) + c, as SourceBlocks.locate does, at each block start of u and one
    either side of it."""
    family, indices = FAMILIES[kind]
    u, u2 = family.profile(indices[0]), family.profile(indices[-1])
    coded = CodedFamily(family)
    src, src2 = coded.source(indices[0]), coded.source(indices[-1])
    memo = {}
    for K in (14, 20, 30):
        for m in range(8, 34):
            for d in (-1, 0, 1):
                c = src.endpoint(m) + d - src2.endpoint(K)
                located = src.locate(src2.endpoint(K) + c)[0]
                for start in (0, 9, K, K + 1, 40):
                    assert _block_of(u, u2, K, c, start, memo) == located, (K, m, d, start)


def test_the_frontier_past_a_failing_record_walks_from_block_k_plus_1(run, monkeypatch):
    """dy moved by one on the first diagonalized record past the prefix
    fails rerun_value after two placements, and the frontier moves to the
    block r of j that holds b_i(k + 1) + budget - 1: one comparison for
    block k + 1 and one for each block up to r, every other record making
    the comparisons of the honest pass."""
    config, coded, schedule, records, _, state = run
    n, record = next((n, r) for n, r in enumerate(records)
                     if r.k >= config.k_max and r.ell is not None)
    k, i, j = record.k, record.i, record.j
    r = coded.source(j).locate(coded.source(i).endpoint(k + 1) + config.budget - 1)[0]
    compares = _counting(monkeypatch, "compare_endpoints")
    cert, faults = check_stage_records(coded, state, schedule, records, config.budget,
                                       config.k_max)
    honest = compares[0]
    tampered = [*records[:n], record._replace(dy=record.dy + 1), *records[n + 1:]]
    compares[0] = 0
    cert, faults = check_stage_records(coded, state, schedule, tampered, config.budget,
                                       config.k_max)
    assert [f for f in faults if f is not None] == ["rerun_value"]
    assert compares[0] == honest - 4 + 2 + 1 + (r - k)
