"""The stage construction of the diagonal set.

Requirements (program index, scheduled pair) are enumerated in one of two
orders (RequirementSchedule). The full order is the paper's: it ranks every
scheduled pair of the infinite family and interleaves requirements by Cantor
pairing of (program index, pair rank), so every requirement is met eventually.
The window order covers only a given list of pairs, the ones a scenario
certifies, and runs programs 0, 1, ... on them in turn.

Each stage finds a source block past the frontier that is longer than the
entire opposing prefix, from the pair's first selected block past it
(GapCertificate.first_past), runs the scheduled program over it, and either
records a non-totality witness, a collision, or diagonalizes: the chosen block
gets membership value 1 and everything else up to the image block gets 0. Bits
are only ever assigned beyond the frontier, so nothing is ever rewritten. A
stage makes one record, and ConstructionState.apply is the one state change
a record makes, live or replayed.

The profile lemma ends the search for that block. A selected block k >= 3 of
a pair with gap u_i(k) - u_j(k) >= delta has |K_k^i| > u_i(k)*k! - 1, and
every block m has length below 2*m!, so b_j(k + 1) <= u_j(k)*k! + 4*(k - 1)!.
Block k therefore dominates once delta*k >= 5: at every selected block from
K0 = max(3, ceil(5/delta)) on, which the gap certificate holds per pair
(GapCertificate.k0).

Per-element runs are confined to inputs not exceeding the step count S of the
tail path, or the step budget when that path diverges; all larger inputs of a
block follow one control path (see machine.tail_behavior), so the branch
decision and its least witnesses are computed exactly without scanning
factorial-sized blocks.

From K* = max(K0, k_B) on, k_B the least k with (k - 1)! > B + 1 at step
budget B, a record has a closed form. There b_i(k) >= a_k >= (k - 1)! > B
leaves nothing to run literally, b_j(k + 1) - b_i(k) >= k! - 2*(k - 1)! >= B
and b_i(k + 1) - b_j(k + 1) > (delta*k - 4)*(k - 1)! - 1 > B, while the tail
offset has |offset| <= B. So a halting tail diagonalizes at x = b_j(k + 1) -
offset and y = b_j(k + 1), which opens block k + 1 of j (dx = -offset, dy = 0,
ell = k + 1), and a diverging one is non-total at x = b_i(k) (dx = 0). No
geometry is read; the record checks still rerun and place every witness.

Records hold each witness as a signed offset from an anchor its branch fixes,
b_j(k + 1) for a diagonalized x and y and b_i(k) otherwise: the witnesses reach
thousands of digits, their offsets a few. Offsets are hex text, exactly what
hex() writes, read in linear time with no int/str digit limit (decimal takes
quadratic time), so a tampered huge one loads fast. Each line is one
%-template filled in, json.dumps's bytes for the record (StageRecord.line).
run_stages, over a schedule and the gap certificate it holds, is the one stage
loop: run_construction takes its first records, and a transcript is read
against it in one forward pass, decoding only the lines that differ from the
replay's own.
"""

from __future__ import annotations

import json
from itertools import count, islice
from math import factorial, inf
from typing import Iterable, Iterator, NamedTuple, Sequence

from .machine import OutOfBudget, TailHalts, decode, run_program, tail_behavior
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
         '"dx": %s, "dx2": %s, "dy": %s, "ell": %s, "budget": %d, "M_after": %d}\n')
_KEYS = ("stage", "e", "i", "j", "k", "branch", "dx", "dx2", "dy", "ell", "budget", "M_after")


class StageRecord(NamedTuple):
    """One stage's outcome, an immutable NamedTuple whose fields are the
    line's keys in order, M_after as m_after. dx, dx2, dy (witnesses x, x2,
    y less their anchor) and ell (the image block) are ints or None."""

    stage: int
    e: int
    i: int
    j: int
    k: int
    branch: str
    dx: int | None
    dx2: int | None
    dy: int | None
    ell: int | None
    budget: int
    m_after: int

    def line(self) -> str:
        """The transcript line: json.dumps's bytes for a record with int
        fields and one of the three branches, as run_stage makes it."""
        stage, e, i, j, k, branch, dx, dx2, dy, ell, budget, m_after = self
        return _LINE % (
            stage, e, i, j, k, branch,
            "null" if dx is None else '"' + hex(dx) + '"',
            "null" if dx2 is None else '"' + hex(dx2) + '"',
            "null" if dy is None else '"' + hex(dy) + '"',
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
        two records are equal exactly when their lines are. The first failing
        check is named: the keys, then branch, the ints, the witnesses.
        """
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        for key in obj:
            if key not in _KEYS:
                raise ValueError("unknown key %r" % key)
        for key in _KEYS:
            if key not in obj:
                raise ValueError("missing key %r" % key)
        if obj["branch"] not in BRANCHES:
            raise ValueError("field branch must be in %r, got %r" % (BRANCHES, obj["branch"]))
        for key in ("stage", "e", "i", "j", "k", "budget", "M_after"):
            v, least = obj[key], int(key == "budget")
            if not is_int(v) or v < least:
                raise ValueError("field %s must be an int >= %d, got %r" % (key, least, v))
        fields = dict(obj)
        for key in ("dx", "dx2", "dy", "ell"):
            v = obj[key]
            if v is None:
                continue
            try:
                n = int(v, 16)   # a JSON number raises TypeError
            except (TypeError, ValueError):
                n = None
            if n is None or hex(n) != v:
                raise ValueError(
                    "witness %s must be null or hex text as hex() writes it, got %r" % (key, v))
            fields[key] = n
        return StageRecord(*[fields[key] for key in _KEYS])


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
    Either order is one table: the pairs in rank order and a dict from pair
    to rank. With pairs None the order is the full one: pairs are ranked by
    Cantor code over every scheduled pair of the family, and n =
    cantor_pair(e, r); the table is filled lazily, scanning pair codes
    upward only as far as a lookup needs, so each code is asked about once.
    Given a non-empty list of P distinct scheduled pairs (an empty one is
    refused with ValueError), the order is the window over them: pairs[r]
    has rank r, and n = e * P + r, so requirements e < E of every pair take
    exactly E * P stages. Pairs outside the window are never scheduled.
    """

    def __init__(
        self, cert: GapCertificate, pairs: Sequence[tuple[int, int]] | None = None
    ) -> None:
        self.cert = cert
        self._window = pairs is not None
        self._pairs: list[tuple[int, int]] = list(pairs or ())
        self._next_code = 0   # the full order's least unscanned pair code
        if self._window:
            if not self._pairs:
                raise ValueError("a window needs at least one pair")
            for i, j in self._pairs:
                if not cert.in_D(i, j):
                    raise ValueError("pair (%d, %d) is not scheduled" % (i, j))
        self._ranks = {pair: rank for rank, pair in enumerate(self._pairs)}
        if len(self._ranks) != len(self._pairs):
            raise ValueError("window pairs must be distinct")

    def _scan(self) -> None:
        """Rank the full order's next pair code if its pair is scheduled."""
        pair = cantor_unpair(self._next_code)
        self._next_code += 1
        if self.cert.in_D(*pair):
            self._ranks[pair] = len(self._pairs)
            self._pairs.append(pair)

    def pair(self, rank: int) -> tuple[int, int]:
        """The rank-th scheduled pair."""
        while not self._window and len(self._pairs) <= rank:
            self._scan()
        return self._pairs[rank]

    def rank_of(self, i: int, j: int) -> int:
        """Position of a scheduled pair in the enumeration; on a miss the
        full order scans pair codes only through cantor_pair(i, j)."""
        rank = self._ranks.get((i, j))
        if rank is None:
            if self._window:
                raise ValueError("pair (%d, %d) is not in the window" % (i, j))
            code = cantor_pair(i, j)
            while self._next_code <= code:
                self._scan()
            if (i, j) not in self._ranks:
                raise ValueError("pair (%d, %d) is not scheduled" % (i, j))
            rank = self._ranks[i, j]
        return rank

    def requirement(self, n: int) -> Requirement:
        e, rank = divmod(n, len(self._pairs)) if self._window else cantor_unpair(n)
        i, j = self.pair(rank)
        return Requirement(e, i, j)

    def stage_of(self, e: int, i: int, j: int) -> int:
        """The stage number at which requirement (e, i, j) is scheduled."""
        rank = self.rank_of(i, j)
        return e * len(self._pairs) + rank if self._window else cantor_pair(e, rank)


def domination_search(
    coded: CodedFamily,
    cert: GapCertificate,
    i: int,
    j: int,
    frontier: int,
    k_star: float = inf,
) -> int:
    """Least selected block past the frontier longer than the opposing prefix.

    The scan starts at t = cert.first_past(i, j, frontier), checked least
    with one selector call (s(t - 1) <= frontier when t > 0, else
    AssertionError), and goes forward, comparing lengths at each candidate
    below k_star, K* >= K0 (by default every candidate). The profile lemma
    (see the module docstring) ends the scan: every selected block from K0 =
    cert.k0(i, j) on dominates, so the first candidate at or past k_star is
    returned unread. A failing candidate at or past K0 raises AssertionError.
    """
    first = cert.first_past(i, j, frontier)
    src_i = coded.source(i)
    src_j = coded.source(j)
    if first > 0 and cert.s(i, j, first - 1) > frontier:
        raise AssertionError("selected block past %d before t = %d" % (frontier, first))
    for t in count(first):
        k = cert.s(i, j, t)
        if k <= frontier:
            raise AssertionError("selector not strictly increasing")
        if k >= k_star or src_i.length(k) > src_j.endpoint(k + 1):
            return k
        k0 = cert.k0(i, j)
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
    k_star: float = inf,
) -> StageRecord:
    """Execute one stage and apply its record; bits are only added, never
    changed. At k >= k_star (K*, by default never) the record is the closed
    form of the module docstring; below, _evaluate_block decides it on block k.
    An unscheduled pair raises ValueError (GapCertificate.first_past) before
    the state changes."""
    k = domination_search(coded, cert, req.i, req.j, state.frontier, k_star)
    src_j = coded.source(req.j)
    if k >= k_star:
        lo = threshold = 0   # so x, x2 and y below are offsets from their anchors
        tail = tail_behavior(decode(req.e), budget)
        branch, x, x2, y = ((BRANCH_DIAGONALIZED, -tail.offset, None, 0)
                            if isinstance(tail, TailHalts) else (BRANCH_NON_TOTAL, 0, None, None))
    else:
        lo, hi = coded.source(req.i).block(k)
        threshold = src_j.endpoint(k + 1)
        branch, x, x2, y = _evaluate_block(decode(req.e), lo, hi, budget, threshold)
    if branch == BRANCH_DIAGONALIZED:
        ell = k + 1 if k >= k_star else src_j.locate(y)[0]
        if ell <= k:
            raise AssertionError("diagonal image landed at or before the chosen block")
        record = StageRecord(state.stage, req.e, req.i, req.j, k, branch,
                             x - threshold, None, y - threshold, ell, budget, ell)
    else:
        record = StageRecord(state.stage, req.e, req.i, req.j, k, branch,
                             x - lo, None if x2 is None else x2 - lo, None, None, budget, k)
    state.apply(record)
    return record


def run_stages(state: ConstructionState, schedule: RequirementSchedule, coded: CodedFamily,
               budget: int) -> Iterator[StageRecord]:
    """The one stage loop: stages state.stage, state.stage + 1, ... of the
    schedule, each run by run_stage when its record is drawn, with K* =
    max(K0, k_B): K0 from the schedule's gap certificate, k_B found once."""
    cert = schedule.cert
    k_b = next(k for k in count(1) if factorial(k - 1) > budget + 1)
    while True:
        req = schedule.requirement(state.stage)
        yield run_stage(state, req, coded, cert, budget, max(cert.k0(req.i, req.j), k_b))


class Transcript:
    """The stage records of one run, in stage order."""

    def __init__(self, records: list[StageRecord]) -> None:
        self.records = records

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


def run_construction(schedule: RequirementSchedule, coded: CodedFamily, stages: int,
                     budget: int) -> Transcript:
    """Run requirements 0..stages-1 of the schedule and return the audit transcript."""
    if stages < 1:
        raise ValueError("need at least one stage")
    loop = run_stages(ConstructionState(), schedule, coded, budget)
    return Transcript(list(islice(loop, stages)))


def reconstruct_state(records: Iterable[StageRecord]) -> ConstructionState:
    """Rebuild the membership state from a transcript alone."""
    state = ConstructionState()
    for record in records:
        state.apply(record)
    return state
