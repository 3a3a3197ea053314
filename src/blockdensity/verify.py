"""Certificate checking over transcripts and constructed prefixes.

Positive claims (reductions, equivalences, block collapse) are certified
exactly over a number of blocks, source blocks 0 .. blocks - 1 for a
reduction and target blocks 0 .. blocks - 1 for a coupling or collapse, each
in one pass over one reference walk (_reference_walk). The walk does not use
the production geometry: it sums the blocks (target_walk and block_walk: k!,
a_k, b_k and |K_k| = floor(u(k) * k!) from the profiles alone, nothing from
blocks.py or maps.py), and at every block compares them with the production
target endpoints and sizes, then each profile's endpoints and lengths. Each
certificate checks its block identity on the walk's values and compares the
production maps with the walk at the block's two ends and (for couplings) at
sampled offsets, up to the first disagreement, a reference_geometry FAIL:
the certificates test that geometry, not trust it.

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
constructed prefix within the step budget, never more. One forward pass checks
every stage record once (check_stage_records). A record must sit at its stage,
hold the requirement the schedule puts there and the run's budget, and have k
at most s(i, j, max(frontier + 1, K0)), the last block the domination search
could pick, before any geometry is read. Its witnesses, offsets from anchors
(construction's module docstring), are placed in their blocks and rerun
literally within the budget, not by the tail lemma. Below k_max, or where
(k - 1)! <= budget, the concrete checks place them by the production
endpoints. Past that prefix no production geometry is read: a placement is
sign(b(K) + c - b'(K') - c') for source endpoints of profiles u, u' valued
in (1, 2), which compare_endpoints reads from the top factorial digits. As
|K_m| = u(m) * m! - f(m), 0 <= f(m) < 1, the difference is A_L * L! + R_L -
F + c - c', with A_M = 0 at M = max(K, K'), A_L = d(L) + (L + 1) * A_{L+1}
for d(m) the difference of the values present at m, |R_L| < 2 * a_L <=
4 * (L - 1)! and |F| < M: it has A_L's sign once |A_L| * L >= 5 and
(L - 1)! > M + |c - c'|. On one profile all below min(K, K') cancels and
|K_m| >= m!, so K = K' gives sign(c - c') and |c - c'| < min(K, K')! gives
sign(K - K'). Past 170! the bit length n of w settles w < m! against
log2(m!) = lgamma(m + 1) / ln 2 where n < log2(m!) - 1 or n >= log2(m!) + 2.
Offsets of a block's size are settled by exact endpoints, from a cursor
(m, b(m), m!) per profile that the pass moves block by block, and negative
witnesses, named by their offset field, mostly by (K - 1)! <= b(K) <
4 * (K - 1)!. As x >= (k - 1)! > budget, a rerun never brings register 0 to
zero: it holds an _Anchored anchor + offset, which is truthy, keeps its
anchor under + and - and is not < 0, so the outcome depends on (program,
offset, budget) alone and the pass keeps it by (e, dx). Two collision
witnesses there follow one control path and end x2 - x apart, so a
non-injective record placed in block k fails rerun_collides, unrun. As h_i
sends source block k onto target block k, compressed_targets follows, and a
record fails as the concrete checks name it; y, and past a failing record
the frontier, are located by walking j's blocks from k + 1. The transcript
is read against its replay in one forward pass (Transcript.read_jsonl), and
check_transcript_replay reports the first record that is not its replay's.
INCOMPLETE names what is missing (stages or records); FAIL means a check was
run and refuted. Report lines are json.dumps's bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial, inf, lgamma, log
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .construction import (
    BRANCH_DIAGONALIZED, BRANCH_NON_INJECTIVE, BRANCH_NON_TOTAL, BRANCHES,
    ConstructionState, FrontierUndefined, RequirementSchedule, StageRecord,
    domination_search,
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

    def line(self) -> str:
        """The report line, json.dumps's bytes."""
        return _encode(self.to_json()) + "\n"


# json.dumps's encoder less its cycle check, which a report's fresh trees skip.
_encode = json.JSONEncoder(check_circular=False).encode


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
    fact, a, b, k = 1, 0, 0, 0
    while True:
        p, q = profile(k).as_integer_ratio()
        ln = p * fact // q
        yield fact, a, a + fact, b, ln
        a, b, k = a + fact, b + ln, k + 1
        fact *= k


def _reference_walk(
    cert: Certificate, coded: CodedFamily, state: ConstructionState, blocks: int, *indices: int
) -> Iterator[tuple]:
    """The zip of target_walk and each index's block_walk over blocks
    0 .. blocks - 1, each block as (k, target_walk's tuple, block_walk's per
    index) once it agrees with targets.endpoint and targets.size, then each
    index's source.endpoint and source.length; else cert fails
    reference_geometry there. An empty range fails cert and a last block past
    the frontier leaves it INCOMPLETE: the walk ends with cert not PASS."""
    if blocks < 1:
        cert.fail("range", {"reason": "empty range"})
        return
    if blocks - 1 > state.frontier:
        cert.incomplete("frontier", {
            "needed_block": blocks - 1, "frontier": state.frontier,
            "hint": "run stages until the frontier reaches the needed block"})
        return
    targets = coded.targets
    sources = [(n, coded.source(i)) for n, i in enumerate(indices, 2)]
    walks = [block_walk(coded.family.profile(i)) for i in indices]
    for block in zip(range(blocks), target_walk(), *walks):
        k, (fact, a, _) = block[0], block[1]
        name = ("targets.endpoint" if targets.endpoint(k) != a
                else "targets.size" if targets.size(k) != fact else None)
        for n, src in sources:   # block[n] is src's block_walk tuple
            _, _, _, b, ln = block[n]
            name = name or ("source.endpoint" if src.endpoint(k) != b
                            else "source.length" if src.length(k) != ln else None)
        if name is not None:
            cert.fail("reference_geometry", {"k": k, "map": name})
            return
        yield block


def check_positive_reduction(
    coded: CodedFamily, state: ConstructionState, i: int, j: int, blocks: int
) -> Certificate:
    """Certify the blockwise translation as a one-one reduction on source
    blocks 0 .. blocks - 1 of i.

    One pass over the reference walk of i and j (_reference_walk). At each
    block |K_k^i| <= |K_k^j| must hold (pointwise_domination, the identity
    that makes the translation injective and commuting on the whole block),
    and the production maps must agree with the walk at the block's two ends.
    """
    cert = Certificate("PositiveReduction", {"i": i, "j": j, "blocks": blocks})
    walk = _reference_walk(cert, coded, state, blocks, i, j)
    for k, (fact, a, _), (_, _, _, b_i, ln_i), (_, _, _, b_j, ln_j) in walk:
        # The reduction lemma of the module docstring needs only this.
        if ln_i > ln_j:
            cert.fail(
                "pointwise_domination",
                {"k": k, "len_i": str(ln_i), "len_j": str(ln_j)},
            )
            return cert
        for r in sorted({0, ln_i - 1}):
            x, fx = b_i + r, b_j + r
            name = ("positive_reduction" if coded.positive_reduction(i, j, x) != fx
                    else "h_apply" if coded.h_apply(i, x) != a + r * fact // ln_i
                    or coded.h_apply(j, fx) != a + r * fact // ln_j else None)
            if name is not None:
                cert.fail("reference_geometry", {"k": k, "map": name})
                return cert
    if cert.verdict == PASS:
        cert.ok("blockwise_exact", {"blocks": blocks})
    return cert


def check_bfo_equivalence(
    coded: CodedFamily, state: ConstructionState, i: int, blocks: int
) -> Certificate:
    """Certify the two-way coupling between the base set and coded set i.

    Fibers of the compression map stay within size two, the least-preimage
    map is injective, and base membership equals coded membership of the
    least preimage, over target blocks 0 .. blocks - 1. One pass over the
    reference walk of i as in check_positive_reduction, with the length band
    k! <= |K_k| < 2 * k! as the block identity and the maps also compared at
    every floor(k! / 7)-th offset.
    """
    cert = Certificate("BfoEquivalence", {"i": i, "blocks": blocks})
    for k, (fact, a, _), (_, _, _, b, ln) in _reference_walk(cert, coded, state, blocks, i):
        # The coupling lemma of the module docstring needs only this.
        if not fact <= ln < 2 * fact:
            cert.fail("length_band", {"k": k, "len": str(ln), "size": str(fact)})
            return cert
        for q in (*range(0, fact - 1, fact // 7 or 1), fact - 1):
            y = a + q
            fiber = coded.h_fibers(i, y)
            if not 1 <= len(fiber) <= 2:
                cert.fail("fiber_bound_sampled", {"k": k, "y": str(y)})
                return cert
            for x in fiber:
                if coded.h_apply(i, x) != y:
                    cert.fail("fiber_membership", {"k": k, "y": str(y)})
                    return cert
            lo = b - (-q * ln // fact)
            name = ("least_preimage" if coded.least_preimage(i, y) != lo
                    else "h_fibers" if fiber != [*range(lo, b - (-(q + 1) * ln // fact))]
                    else None)
            if name is not None:
                cert.fail("reference_geometry", {"k": k, "map": name})
                return cert
    if cert.verdict == PASS:
        cert.ok("blockwise_exact", {"blocks": blocks})
    return cert


def check_collapse_autoreduction(coded: CodedFamily, state: ConstructionState) -> Certificate:
    """Certify block collapse as a self-reduction of the constructed prefix,
    over target blocks 0 .. min(frontier, 9), that is not eventually the
    identity. Collapse sends every x of target block k to a_k, in the same
    block, so both sides read block k's bit: the reference walk of the
    targets checks collapse at each block's two ends."""
    k_hi = min(state.frontier, 9)
    cert = Certificate("CollapseAutoreduction", {"k_hi": k_hi})
    if k_hi < 2:
        cert.incomplete("frontier", {"frontier": state.frontier})
        return cert
    for k, (_, a, a_next) in _reference_walk(cert, coded, state, k_hi + 1):
        if coded.collapse(a) != a or coded.collapse(a_next - 1) != a:
            cert.fail("reference_geometry", {"k": k, "map": "collapse"})
            return cert
    if cert.verdict != PASS:
        return cert
    cert.ok("self_reduction", {"scanned": a_next})
    moved = []
    for k in range(2, k_hi + 1):
        lo, hi = coded.targets.block(k)
        if any(coded.collapse(x) != x for x in (lo + 1, hi - 1)):
            moved.append(k)
    if len(moved) == k_hi - 1:
        cert.ok("not_eventually_identity", {"blocks": moved})
    else:
        cert.fail("not_eventually_identity", {"blocks": moved})
    return cert


# The witness fields each branch needs, ints.
_WITNESSES = {BRANCH_NON_TOTAL: ("dx",), BRANCH_NON_INJECTIVE: ("dx", "dx2"),
              BRANCH_DIAGONALIZED: ("dx", "dy", "ell")}


def _negative(witnesses: dict) -> tuple[str, dict] | None:
    """The witness_fields fault of the first negative witness by name, or None."""
    for name, value in witnesses.items():
        if value is not None and value < 0:
            return "witness_fields", {"field": name, "value": str(value)}
    return None


# m! for m <= 170, past which _below_factorial reads bit lengths.
_FACTS = [factorial(m) for m in range(171)]
_LN2 = log(2)


def _below_factorial(w: int, m: int) -> bool:
    """w < m! for naturals w and m, exactly, by bit lengths where they
    decide (module docstring)."""
    bits, n = lgamma(m + 1) / _LN2, w.bit_length()
    return n < bits - 1 or n < bits + 2 and w < factorial(m)


def compare_endpoints(u: Callable[[int], Fraction], K: int, c: int,
                      u2: Callable[[int], Fraction], K2: int, c2: int) -> int | None:
    """sign(b(K) + c - b2(K2) - c2) for the source endpoints of profiles u
    and u2 from the top factorial digits (module docstring), or None; a
    negative block index raises ValueError."""
    if K < 0 or K2 < 0:
        raise ValueError("block index %d is negative" % (K if K < 0 else K2))
    w = c - c2 if c > c2 else c2 - c
    if u is u2:
        if K == K2:
            return (c > c2) - (c < c2)
        low = K if K < K2 else K2
        if w < _FACTS[low if low < 170 else 170] or low > 170 and _below_factorial(w, low):
            return 1 if K > K2 else -1
        return None
    top = K if K > K2 else K2
    w += top
    n, den, L = 0, 1, top - 1   # A_L = n / den, for L from top - 1 down while (L - 1)! > w
    while 0 < L and (w < _FACTS[L - 1 if L < 171 else 170]
                     or L > 171 and _below_factorial(w, L - 1)):
        n *= L + 1
        if L < K:
            p, q = u(L).as_integer_ratio()
            n, den = n * q + p * den, den * q
        if L < K2:
            p, q = u2(L).as_integer_ratio()
            n, den = n * q - p * den, den * q
        if (n if n > 0 else -n) * L >= 5 * den:
            return 1 if n > 0 else -1
        L -= 1
    return None


def _endpoint(u: Callable[[int], Fraction], K: int, memo: dict) -> int:
    """b(K) for profile u, by its cursor (m, b(m), m!) in a pass's memo."""
    m, b, f = memo.get(u, (0, 0, 1))
    while m < K:
        p, q = u(m).as_integer_ratio()
        b += p * f // q
        m += 1
        f *= m
    while m > K:
        f //= m
        m -= 1
        p, q = u(m).as_integer_ratio()
        b -= p * f // q
    memo[u] = m, b, f
    return b


def _sign(u: Callable[[int], Fraction], K: int, c: int,
          u2: Callable[[int], Fraction], K2: int, c2: int, memo: dict) -> int:
    """compare_endpoints' sign, or where it is undecided the exact one."""
    sign = compare_endpoints(u, K, c, u2, K2, c2)
    if sign is None:
        d = _endpoint(u, K, memo) + c - _endpoint(u2, K2, memo) - c2
        sign = (d > 0) - (d < 0)
    return sign


def _block_of(u: Callable[[int], Fraction], u2: Callable[[int], Fraction], K: int, c: int,
              m: int, memo: dict) -> int:
    """The block of profile u that holds the natural b2(K) + c, walking u's
    blocks by _sign from block m, down and then up."""
    while m > 0 and _sign(u, m, 0, u2, K, c, memo) > 0:
        m -= 1
    while _sign(u, m + 1, 0, u2, K, c, memo) <= 0:
        m += 1
    return m


class _Anchored(NamedTuple):
    """A rerun's register 0, anchor + offset, the anchor one fixed source
    endpoint never computed (module docstring); truth and == are exact past
    the budget, and run_program's x < 0 is False, as the witness is natural."""

    anchor: object
    offset: int

    def __add__(self, n):
        return _Anchored(self.anchor, self.offset + n)

    def __sub__(self, n):
        return _Anchored(self.anchor, self.offset - n)

    def __lt__(self, n):
        return False


def _membership(state: ConstructionState, k: int, ell: int) -> tuple[str, dict] | None:
    """The fault of a state that does not put block k in the set and block
    ell out of it, or of one whose frontier stops short of either, or None."""
    try:
        if state.block_bit(k) != 1 or state.block_bit(ell) != 0:
            return "membership_split", {}
    except FrontierUndefined as exc:
        return "frontier", {"needed_block": exc.block, "frontier": exc.frontier}
    return None


def _passes_past_prefix(coded: CodedFamily, state: ConstructionState, record: StageRecord,
                        memo: dict) -> tuple[str, dict] | None:
    """The first check a record past the prefix fails after its record
    fields, or None, with the pass's memo (module docstring)."""
    _, e, i, j, k, branch, dx, dx2, dy, ell, budget, _ = record
    u_i, u_j = coded.family.profile(i), coded.family.profile(j)
    diag = branch == BRANCH_DIAGONALIZED
    for name, c in (("dx", dx), ("dy", dy) if diag else ("dx2", dx2)):
        # The anchor b(K) has (K - 1)! <= b(K) < 4 * (K - 1)! and (K - 1)! >
        # budget: bit lengths and then the cursor settle an offset below -budget.
        if c is not None and c < -budget:
            u, K = (u_j, k + 1) if diag else (u_i, k)
            n, bits = c.bit_length(), lgamma(K) / _LN2   # |c| < 2^n, log2((K - 1)!)
            if n >= bits - 1 and (n >= bits + 4 or _endpoint(u, K, memo) + c < 0):
                return "witness_fields", {"field": name, "value": str(c)}
    if not diag:
        if not all(d >= 0 and _sign(u_i, k, d, u_i, k + 1, 0, memo) < 0
                   for d in (dx, dx2) if d is not None):
            return "witness_block", {"expected": k}
        if branch == BRANCH_NON_INJECTIVE:
            return "rerun_collides", {"dx": str(dx), "dx2": str(dx2)}
    elif not (_sign(u_j, k + 1, dx, u_i, k, 0, memo) >= 0
              and _sign(u_j, k + 1, dx, u_i, k + 1, 0, memo) < 0):
        return "witness_block", {"expected": k}
    if (e, dx) not in memo:
        memo[e, dx] = run_program(decode(e), _Anchored(None, dx), budget)
    outcome = memo[e, dx]
    if branch == BRANCH_NON_TOTAL:
        return None if isinstance(outcome, OutOfBudget) else ("rerun_diverges", {"dx": str(dx)})
    if not isinstance(outcome, Halted) or outcome.value.offset != dy:
        return "rerun_value", {"dx": str(dx)}
    if not (k < ell and _sign(u_j, k + 1, dy, u_j, ell, 0, memo) >= 0
            and _sign(u_j, k + 1, dy, u_j, ell + 1, 0, memo) < 0):
        located = _block_of(u_j, u_j, k + 1, dy, k + 1, memo)
        return "image_block", {"expected": ell, "located": located}
    # h_i and h_j send source blocks k and ell onto target blocks k and ell.
    return _membership(state, k, ell)


def check_diag_witness(
    coded: CodedFamily, state: ConstructionState, record: StageRecord
) -> tuple[str, dict] | None:
    """The first check a diagonalized record with int witness fields fails,
    as (name, detail), or None: x = b_j(k + 1) + dx and y = b_j(k + 1) + dy
    are natural, x lies in block k and reruns to y, y lies in a block
    ell > k, h(x) and h(y) lie in target blocks k and ell, and the state puts
    block k in the set and block ell out of it. y, at most x plus the budget
    once it reruns, is the only witness located."""
    _, e, i, j, k, branch, dx, _, dy, ell, budget, _ = record
    if branch != BRANCH_DIAGONALIZED:
        raise ValueError("diagonal witness check needs a diagonalized record")
    src_i, src_j = coded.source(i), coded.source(j)
    anchor = src_j.endpoint(k + 1)
    x, y = anchor + dx, anchor + dy
    if x < 0 or y < 0:
        return _negative({"x": x, "y": y})
    if not src_i.endpoint(k) <= x < src_i.endpoint(k + 1):
        return "witness_block", {"expected": k}
    outcome = run_program(decode(e), x, budget)
    if not isinstance(outcome, Halted) or outcome.value != y:
        return "rerun_value", {"dx": str(dx)}
    located, _ = src_j.locate(y)
    if located != ell or ell <= k:
        return "image_block", {"expected": ell, "located": located}
    a, h = coded.targets.endpoint, coded.h_apply
    if not (a(k) <= h(i, x) < a(k + 1) and a(ell) <= h(j, y) < a(ell + 1)):
        return "compressed_targets", {}
    return _membership(state, k, ell)


def _record_fault(
    coded: CodedFamily,
    state: ConstructionState,
    schedule: RequirementSchedule,
    n: int,
    record: StageRecord,
    budget: int,
    frontier: int,
    k_max: float,
    memo: dict,
) -> tuple[str, dict] | None:
    """The first check the stage n record of a run of the given step budget
    fails past the given frontier, as (name, detail), or None. The record
    fields come first, before a program is decoded or any geometry read, as
    those costs grow with e, i, the budget and k. Then from k_max on, where
    (k - 1)! > budget, _passes_past_prefix decides with the pass's memo;
    below, a non-total record's x lies in block k and reruns out of budget,
    and a non-injective record's two witnesses lie in block k and rerun to
    one value."""
    stage, e, i, j, k, branch, dx, dx2, _, ell, _, m_after = record
    if stage != n:
        return "stage_field", {"value": stage}
    req = schedule.requirement(n)
    if (e, i, j) != req:
        return "schedule_mismatch", req._asdict()
    if record.budget != budget:
        return "budget", {"budget": record.budget}
    cert = schedule.cert
    bound = cert.s(i, j, max(frontier + 1, cert.k0(i, j)))
    if k > bound:
        return "k_bound", {"k": k, "bound": bound}
    for name in _WITNESSES[branch]:
        if getattr(record, name) is None:
            return "witness_fields", {"field": name, "value": None}
    # ConstructionState.apply moves the frontier to M_after on trust, so it
    # must be ell for a diagonalized record and k otherwise.
    if branch == BRANCH_DIAGONALIZED and ell < 0:
        return _negative({"ell": ell})
    if m_after != (ell if branch == BRANCH_DIAGONALIZED else k):
        return "m_after", {"m_after": m_after}
    if k >= k_max and 0 < k and (budget < _FACTS[k - 1 if k < 171 else 170]
                                 or k > 171 and _below_factorial(budget, k - 1)):
        return _passes_past_prefix(coded, state, record, memo)
    if branch == BRANCH_DIAGONALIZED:
        return check_diag_witness(coded, state, record)
    lo = coded.source(i).endpoint(k)
    x, x2 = lo + dx, None if dx2 is None else lo + dx2
    fault = _negative({"x": x, "x2": x2})
    if fault is not None:
        return fault
    if not all(0 <= d < coded.source(i).length(k) for d in (dx, dx2) if d is not None):
        return "witness_block", {"expected": k}
    program = decode(e)
    if branch == BRANCH_NON_TOTAL:
        if not isinstance(run_program(program, x, budget), OutOfBudget):
            return "rerun_diverges", {"dx": str(dx)}
        return None
    out, out2 = run_program(program, x, budget), run_program(program, x2, budget)
    if (x == x2 or not isinstance(out, Halted) or not isinstance(out2, Halted)
            or out.value != out2.value):
        return "rerun_collides", {"dx": str(dx), "dx2": str(dx2)}
    return None


def check_stage_records(
    coded: CodedFamily,
    state: ConstructionState,
    schedule: RequirementSchedule,
    records: Sequence[StageRecord],
    budget: int,
    k_max: float = inf,
) -> tuple[Certificate, list[str | None]]:
    """Check every stage record in one forward pass: (the StageChecks
    certificate, the name of each record's first failing check or None).

    Each record takes _record_fault, past the prefix from k_max on (by
    default at no k). The frontier is -1 before stage 0 and moves to each
    passing record's M_after; past a failing record, by the schedule alone,
    to the last block the image of an element of the block the honest stage
    picks can reach within the budget, which the honest M_after does not
    pass. So a failing record neither raises a later bound beyond the honest
    stage's reach nor lowers one below an honest k. The certificate counts
    the records of each branch, or names each failing record by stage and
    check; a record whose image block lies past the frontier leaves it
    INCOMPLETE.
    """
    cert = Certificate("StageChecks", {"stages": len(records)})
    counts = dict.fromkeys(BRANCHES, 0)
    faults: list[str | None] = []
    frontier = -1
    memo: dict = {}
    for n, record in enumerate(records):
        fault = _record_fault(coded, state, schedule, n, record, budget, frontier, k_max, memo)
        if fault is None:
            frontier = record.m_after
            counts[record.branch] += 1
            faults.append(None)
            continue
        name, detail = fault
        (cert.incomplete if name == "frontier" else cert.fail)(name, {"stage": n, **detail})
        faults.append(name)
        # The record is untrusted: take the block k the honest stage picks
        # past the frontier, and the last block its image y <= x + budget
        # reaches, past k as block k dominates.
        _, i, j = schedule.requirement(n)
        k = domination_search(coded, schedule.cert, i, j, frontier, schedule.cert.k0(i, j))
        u_i, u_j = coded.family.profile(i), coded.family.profile(j)
        frontier = _block_of(u_j, u_i, k + 1, budget - 1, k + 1, memo)
    if cert.verdict == PASS:
        cert.ok("all_records", counts)
    return cert, faults


def check_defeat_bundle(
    schedule: RequirementSchedule,
    i: int,
    j: int,
    e_bound: int,
    records: Sequence[StageRecord],
    faults: Sequence[str | None],
) -> Certificate:
    """One passing stage record per program index below the bound.

    The conclusion is bounded: no program with index below e_bound is a total
    injective reduction on the constructed prefix within the recorded budget.
    faults holds, per stage, the name of the record's first failing check or
    None (check_stage_records). A passing record counts only when it holds
    (e, i, j) itself; one that holds another requirement at the stage
    stage_of names FAILs stage_of.
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
        if stage >= len(faults):
            cert.incomplete(
                "record_present",
                {"e": e, "needed_stage": stage, "stages_run": len(faults),
                 "hint": "run at least %d stages" % (stage + 1)},
            )
        elif faults[stage] is not None:
            cert.fail("defeat_record", {"e": e, "stage": stage, "reason": faults[stage]})
        elif records[stage][1:4] != (e, i, j):   # the record's own (e, i, j)
            cert.fail("stage_of", {"e": e, "stage": stage})
        else:
            defeated += 1
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


def check_transcript_replay(stages: int, divergence: int | None) -> Certificate:
    """The replay check of a transcript of `stages` records, given the first
    stage whose record is not its replay's (Transcript.read_jsonl), or None.

    A record is its replay's when both give the same JSON Lines text, which
    == decides, as StageRecord.from_json loads a line only as it is written;
    an empty transcript fails.
    """
    cert = Certificate("TranscriptReplay", {"stages": stages})
    if not stages:
        cert.fail("bit_exact", {"reason": "empty transcript"})
    elif divergence is not None:
        cert.fail("bit_exact", {"first_divergence_stage": divergence})
    else:
        cert.ok("bit_exact")
    return cert
