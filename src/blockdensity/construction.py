"""The stage construction of the diagonal set.

Requirements (program index, scheduled pair) are enumerated in one of two
orders (RequirementSchedule). The full order is the paper's: it ranks every
scheduled pair of the infinite family and interleaves requirements by Cantor
pairing of (program index, pair rank), so every requirement is met eventually.
The window order covers only a given list of pairs, the ones a scenario
certifies, and runs programs 0, 1, ... on them in turn.

Each stage finds a source block past the frontier that is longer than the
entire opposing prefix, runs the scheduled program over it, and either
records a non-totality witness, a collision, or diagonalizes: the chosen block
gets membership value 1 and everything else up to the image block gets 0. Bits
are only ever assigned beyond the frontier, so nothing is ever rewritten. A
stage makes one record, and ConstructionState.apply is the one state change
a record makes, live or replayed.

The profile lemma ends the search for that block. A selected block k >= 3 of
a pair with gap u_i(k) - u_j(k) >= delta has |K_k^i| > u_i(k)*k! - 1, and
every block m has length below 2*m!, so b_j(k + 1) <= u_j(k)*k! + 4*(k - 1)!.
Block k therefore dominates once delta*k >= 5: at every selected block from
K0 = max(3, ceil(5/delta)) on.

Per-element runs are confined to inputs not exceeding the step count S of the
tail path, or the step budget when that path diverges; all larger inputs of a
block follow one control path (see machine.tail_behavior), so the branch
decision and its least witnesses are computed exactly without scanning
factorial-sized blocks.

Transcripts hold witnesses as hex text, exactly what hex() writes: the big
witnesses, at or next to block endpoints b_i(k) or b_j(k + 1), reach thousands
of digits, and CPython converts ints to and from hex in linear time (decimal
takes quadratic time), with no int/str digit limit. Each line is one %-template
filled in, json.dumps's bytes for the record (StageRecord.line). run_stages is
the one stage loop: run_construction takes its first records, and a transcript
is read against it in one forward pass, decoding only the lines that differ
from the replay's own.
"""

from __future__ import annotations

import json
from itertools import count, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

from .machine import (
    OutOfBudget,
    TailHalts,
    decode,
    run_program,
    tail_behavior,
)
from .maps import CodedFamily
from .numerics import cantor_pair, cantor_unpair, is_int
from .profiles import GapCertificate

BRANCH_NON_TOTAL = "non_total_under_budget"
BRANCH_NON_INJECTIVE = "non_injective"
BRANCH_DIAGONALIZED = "diagonalized"
BRANCHES = (BRANCH_NON_TOTAL, BRANCH_NON_INJECTIVE, BRANCH_DIAGONALIZED)


class TranscriptError(ValueError):
    """A transcript line that is no stage record."""


class FrontierUndefined(Exception):
    """Membership queried beyond the constructed prefix; run more stages."""

    def __init__(self, block: int, frontier: int) -> None:
        super().__init__(
            "block %d undefined: frontier is %d, insufficient stages" % (block, frontier)
        )
        self.block = block
        self.frontier = frontier


class Requirement(NamedTuple):
    e: int
    i: int
    j: int


# A transcript line: the twelve keys in order, each witness "hex() text" or null.
_LINE = ('{"stage": %d, "e": %d, "i": %d, "j": %d, "k": %d, "branch": "%s", '
         '"x": %s, "x2": %s, "y": %s, "ell": %s, "budget": %d, "M_after": %d}\n')
_KEYS = ("stage", "e", "i", "j", "k", "branch", "x", "x2", "y", "ell", "budget", "M_after")


class StageRecord(NamedTuple):
    """One stage's outcome, an immutable NamedTuple. The witnesses x, x2, y
    and ell are ints or None."""

    stage: int
    e: int
    i: int
    j: int
    k: int
    branch: str
    budget: int
    m_after: int
    x: int | None = None
    x2: int | None = None
    y: int | None = None
    ell: int | None = None

    def line(self) -> str:
        """The transcript line: json.dumps's bytes for a record with int
        fields and one of the three branches, as run_stage makes it."""
        stage, e, i, j, k, branch, budget, m_after, x, x2, y, ell = self
        return _LINE % (
            stage, e, i, j, k, branch,
            "null" if x is None else '"' + hex(x) + '"',
            "null" if x2 is None else '"' + hex(x2) + '"',
            "null" if y is None else '"' + hex(y) + '"',
            "null" if ell is None else '"' + hex(ell) + '"',
            budget, m_after,
        )

    @staticmethod
    def from_json(obj: dict) -> "StageRecord":
        """The record a JSON object holds, which must be exactly what line()
        writes; anything else raises ValueError naming the key or field.

        The keys are the twelve of a line, no more and no fewer. stage, e, i,
        j, k, budget (>= 1) and M_after must be JSON integers >= 0: true and
        3.0 are not. Each witness must be null or a string that hex() writes,
        which int(text, 16) reads back to an int with that same hex() text:
        "0x1f" and "-0x3" load; "0x1F", "0x01", "-0x0", "1f", decimal text
        and a JSON number do not. branch must be one of the three names. So
        two records are equal exactly when their lines are.
        """
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        for key in obj:
            if key not in _KEYS:
                raise ValueError("unknown key %r" % key)
        for key in _KEYS:
            if key not in obj:
                raise ValueError("missing key %r" % key)

        def whole(name, least=0):
            v = obj[name]
            if not is_int(v) or v < least:
                raise ValueError("field %s must be an int >= %d, got %r" % (name, least, v))
            return v

        def witness(name):
            v = obj[name]
            if v is None:
                return None
            try:
                n = int(v, 16)   # a JSON number raises TypeError
            except (TypeError, ValueError):
                n = None
            if n is None or hex(n) != v:
                raise ValueError(
                    "witness %s must be null or hex text as hex() writes it, got %r"
                    % (name, v))
            return n

        if obj["branch"] not in BRANCHES:
            raise ValueError("field branch must be in %r, got %r" % (BRANCHES, obj["branch"]))
        return StageRecord(
            stage=whole("stage"),
            e=whole("e"),
            i=whole("i"),
            j=whole("j"),
            k=whole("k"),
            branch=obj["branch"],
            budget=whole("budget", 1),
            m_after=whole("M_after"),
            x=witness("x"),
            x2=witness("x2"),
            y=witness("y"),
            ell=witness("ell"),
        )


class ConstructionState:
    """Frontier plus the sparse table of blocks explicitly set to 1.

    Blocks at or below the frontier default to 0; blocks beyond it are
    undefined and querying them raises rather than guessing.
    """

    def __init__(self) -> None:
        self.frontier = -1
        self.ones: set[int] = set()
        self.stage = 0

    def block_bit(self, k: int) -> int:
        if k > self.frontier:
            raise FrontierUndefined(k, self.frontier)
        return 1 if k in self.ones else 0

    def apply(self, record: StageRecord) -> None:
        """Take one stage's record: a diagonalized block k becomes 1, and the
        frontier moves to M_after."""
        if record.branch == BRANCH_DIAGONALIZED:
            self.ones.add(record.k)
        self.frontier = record.m_after
        self.stage += 1


class RequirementSchedule:
    """The fixed enumeration of requirements over a gap certificate.

    Stage n runs requirement (e, i, j) where (i, j) is the pair of rank r.
    With pairs None the order is the full one: pairs are ranked by Cantor
    code over every scheduled pair of the family, and n = cantor_pair(e, r).
    Given a non-empty list of P distinct scheduled pairs (a scenario config
    with an empty window is refused up front), the order is the window over
    them: pairs[r] has rank r, and n = e * P + r, so requirements e < E of
    every pair take exactly E * P stages. Pairs outside the window are never
    scheduled.
    """

    def __init__(
        self, cert: GapCertificate, pairs: Sequence[tuple[int, int]] | None = None
    ) -> None:
        self._cert = cert
        self._window = pairs is not None
        self._pairs: list[tuple[int, int]] = []
        self._next_code = 0
        if self._window:
            self._pairs = list(pairs)
            for i, j in self._pairs:
                if not cert.in_D(i, j):
                    raise ValueError("pair (%d, %d) is not scheduled" % (i, j))
            self._ranks = {pair: rank for rank, pair in enumerate(self._pairs)}
            if len(self._ranks) != len(self._pairs):
                raise ValueError("window pairs must be distinct")

    def pair(self, rank: int) -> tuple[int, int]:
        """The rank-th scheduled pair; the full order scans pair codes in
        increasing order."""
        while not self._window and len(self._pairs) <= rank:
            i, j = cantor_unpair(self._next_code)
            self._next_code += 1
            if self._cert.in_D(i, j):
                self._pairs.append((i, j))
        return self._pairs[rank]

    def rank_of(self, i: int, j: int) -> int:
        """Position of a scheduled pair in the enumeration."""
        if self._window:
            if (i, j) not in self._ranks:
                raise ValueError("pair (%d, %d) is not in the window" % (i, j))
            return self._ranks[i, j]
        if not self._cert.in_D(i, j):
            raise ValueError("pair (%d, %d) is not scheduled" % (i, j))
        target = cantor_pair(i, j)
        rank = 0
        while True:
            a, b = self.pair(rank)
            if (a, b) == (i, j):
                return rank
            if cantor_pair(a, b) > target:
                raise AssertionError("pair enumeration skipped its own member")
            rank += 1

    def requirement(self, n: int) -> Requirement:
        e, rank = divmod(n, len(self._pairs)) if self._window else cantor_unpair(n)
        i, j = self.pair(rank)
        return Requirement(e, i, j)

    def stage_of(self, e: int, i: int, j: int) -> int:
        """The stage number at which requirement (e, i, j) is scheduled."""
        rank = self.rank_of(i, j)
        return e * len(self._pairs) + rank if self._window else cantor_pair(e, rank)

    def window_stage_count(self, pairs: Iterable[tuple[int, int]], e_bound: int) -> int:
        """Stages needed so every (e < e_bound, pair) requirement has run."""
        return max((self.stage_of(e_bound - 1, i, j) + 1 for i, j in pairs), default=0)


def domination_search(
    coded: CodedFamily,
    cert: GapCertificate,
    i: int,
    j: int,
    frontier: int,
) -> int:
    """Least selected block past the frontier longer than the opposing prefix.

    The selector is strictly increasing, so s(t) >= t and the first candidate
    past the frontier has index at most frontier + 1; bisection finds it, and
    the scan goes forward from there, comparing lengths at every candidate.
    The profile lemma (see the module docstring) ends the scan: every
    selected block from K0 = max(3, ceil(5/delta)) on dominates, delta =
    cert.delta(i, j). K0 is worked out once a candidate fails; a failing
    candidate at or past K0, or a delta <= 0, raises AssertionError.
    """
    src_i = coded.source(i)
    src_j = coded.source(j)
    lo, hi = 0, frontier + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cert.s(i, j, mid) > frontier:
            hi = mid
        else:
            lo = mid + 1
    k0 = None
    for t in count(lo):
        k = cert.s(i, j, t)
        if k <= frontier:
            raise AssertionError("selector not strictly increasing")
        if src_i.length(k) > src_j.endpoint(k + 1):
            return k
        if k0 is None:
            delta = cert.delta(i, j)
            if delta <= 0:
                raise AssertionError("pair (%d, %d) has gap %s <= 0" % (i, j, delta))
            k0 = max(3, -(-5 // delta))   # ceil(5/delta), exactly
        if k >= k0:
            raise AssertionError("selected block %d of pair (%d, %d) does not dominate, "
                                 "though K0 = %d" % (k, i, j, k0))
        frontier = k   # the next candidate lies past this one


def _evaluate_block(program, lo: int, hi: int, budget: int, threshold: int):
    """Three-way branch decision for one source block, as (branch, x, x2, y).

    Returns (non_total, x, None, None), (non_injective, x1, x2, None) or
    (diagonalized, x, None, y). When the tail path halts after `steps` steps,
    every input above `steps` follows it (machine.tail_behavior), so at most
    steps + 1 individual runs happen; when it diverges, inputs above the
    budget do, and at most budget + 1 runs happen. Witnesses are the least
    ones, matching a full in-order scan of the block.
    """
    behavior = tail_behavior(program, budget)
    boundary = (behavior.steps if isinstance(behavior, TailHalts) else budget) + 1
    seen: dict[int, int] = {}
    collision = None   # (x2, x1): the least x2 whose value x1 < x2 took first
    high = None        # (x, y): the least x whose value y reaches the threshold
    for x in range(lo, min(hi, boundary)):
        outcome = run_program(program, x, budget)
        if isinstance(outcome, OutOfBudget):
            return (BRANCH_NON_TOTAL, x, None, None)
        v = outcome.value
        if collision is None:
            if v in seen:
                collision = (x, seen[v])
            else:
                seen[v] = x
        if high is None and v >= threshold:
            high = (x, v)

    tail_lo = max(lo, boundary)
    tail = None
    if hi > tail_lo:
        if not isinstance(behavior, TailHalts):
            return (BRANCH_NON_TOTAL, tail_lo, None, None)
        tail = behavior
        if collision is None:
            collision = min(((v - tail.offset, x1) for v, x1 in seen.items()
                             if tail_lo <= v - tail.offset < hi), default=None)
    if collision is not None:
        return (BRANCH_NON_INJECTIVE, collision[1], collision[0], None)
    if high is not None:
        return (BRANCH_DIAGONALIZED, high[0], None, high[1])
    if tail is not None:
        x = max(tail_lo, threshold - tail.offset)
        if x < hi:
            return (BRANCH_DIAGONALIZED, x, None, x + tail.offset)
    raise ArithmeticError(
        "pigeonhole violated: a total injective map stayed inside the dominated range"
    )


def run_stage(
    state: ConstructionState,
    req: Requirement,
    coded: CodedFamily,
    cert: GapCertificate,
    budget: int,
) -> StageRecord:
    """Execute one stage and apply its record; bits are only added, never changed."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not cert.in_D(req.i, req.j):
        raise ValueError("requirement pair (%d, %d) is not scheduled" % (req.i, req.j))
    k = domination_search(coded, cert, req.i, req.j, state.frontier)
    src_j = coded.source(req.j)
    lo, hi = coded.source(req.i).block(k)
    branch, x, x2, y = _evaluate_block(decode(req.e), lo, hi, budget, src_j.endpoint(k + 1))
    ell = None
    if branch == BRANCH_DIAGONALIZED:
        ell, _ = src_j.locate(y)
        if ell <= k:
            raise AssertionError("diagonal image landed at or before the chosen block")
    record = StageRecord(state.stage, req.e, req.i, req.j, k, branch, budget,
                         k if ell is None else ell, x, x2, y, ell)
    state.apply(record)
    return record


def run_stages(state: ConstructionState, schedule: RequirementSchedule, coded: CodedFamily,
               cert: GapCertificate, budget: int) -> Iterator[StageRecord]:
    """The one stage loop: stages state.stage, state.stage + 1, ... of the
    schedule, each run by run_stage when its record is drawn."""
    while True:
        yield run_stage(state, schedule.requirement(state.stage), coded, cert, budget)


class Transcript:
    """The stage records of one run, in stage order."""

    def __init__(self, records: list[StageRecord] | None = None) -> None:
        self.records = [] if records is None else records

    def lines(self) -> Iterator[str]:
        """The JSON Lines text, one line at a time."""
        return map(StageRecord.line, self.records)

    def to_jsonl(self) -> str:
        return "".join(self.lines())

    def write_jsonl(self, path) -> None:
        """Write the lines as they are made, never the whole text at once."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(self.lines())

    @staticmethod
    def read_jsonl(path, replay: Iterator[StageRecord]) -> tuple["Transcript", int | None]:
        """(the transcript at path, the first stage whose record is not its
        replay's or None), in one forward pass: each non-blank line, bytes
        that are not UTF-8 kept by surrogateescape, draws the next record of
        replay (run_stages). A line that is that record's line, as text, is
        that record; any other is decoded by StageRecord.from_json, which
        loads a line only as line() writes it, so == with the replayed record
        decides whether the two lines hold the same JSON. A line that is no
        record raises TranscriptError naming it, once the stages before it
        replayed.
        """
        records = []
        divergence = None
        with open(path, "rb") as handle:
            for number, raw in enumerate(handle, 1):
                text = raw.decode("utf-8", "surrogateescape")
                if text.isspace():
                    continue
                replayed = next(replay)
                if text == replayed.line():
                    records.append(replayed)
                    continue
                try:
                    record = StageRecord.from_json(json.loads(raw.decode("utf-8").strip()))
                except (ValueError, RecursionError) as exc:   # RecursionError: too deep
                    raise TranscriptError("%s:%d: bad transcript record: %s: %s" % (
                        path, number, type(exc).__name__, exc)) from exc
                if divergence is None and record != replayed:
                    divergence = len(records)
                records.append(record)
        return Transcript(records), divergence


def run_construction(
    coded: CodedFamily,
    cert: GapCertificate,
    stages: int,
    budget: int,
    *,
    schedule: RequirementSchedule | None = None,
) -> tuple[Transcript, ConstructionState]:
    """Run requirements 0..stages-1 in order and return the audit transcript."""
    if stages < 1:
        raise ValueError("need at least one stage")
    state = ConstructionState()
    loop = run_stages(state, schedule or RequirementSchedule(cert), coded, cert, budget)
    return Transcript(list(islice(loop, stages))), state


def reconstruct_state(records: Iterable[StageRecord]) -> ConstructionState:
    """Rebuild the membership state from a transcript alone."""
    state = ConstructionState()
    for record in records:
        state.apply(record)
    return state
