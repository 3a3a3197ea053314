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
are only ever assigned beyond the frontier, so nothing is ever rewritten.

Per-element runs are confined to inputs not exceeding the step count S of the
tail path, or the step budget when that path diverges; all larger inputs of a
block follow one control path (see machine.tail_behavior), so the branch
decision and its least witnesses are computed exactly without scanning
factorial-sized blocks.

Transcripts hold witnesses as hex text, exactly what hex() writes. The big
witnesses sit at or next to block endpoints b_i(k) or b_j(k + 1), which reach
thousands of digits; CPython converts such ints to and from decimal in
quadratic time but to and from hex in linear time, and the int/str digit
limit does not apply to hex. Each line is one fixed %-template filled in, the
bytes json.dumps writes for the record's object, with no dict or encoder call.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, NamedTuple, Sequence

from .machine import (
    OutOfBudget,
    TailHalts,
    decode,
    run_program,
    tail_behavior,
)
from .maps import CodedFamily
from .numerics import cantor_pair, cantor_unpair
from .profiles import GapCertificate

BRANCH_NON_TOTAL = "non_total_under_budget"
BRANCH_NON_INJECTIVE = "non_injective"
BRANCH_DIAGONALIZED = "diagonalized"


class FrontierUndefined(Exception):
    """Membership queried beyond the constructed prefix; run more stages."""

    def __init__(self, block: int, frontier: int) -> None:
        super().__init__(
            "block %d undefined: frontier is %d, insufficient stages" % (block, frontier)
        )
        self.block = block
        self.frontier = frontier


# Selector candidates domination_search tries before it gives up.
MAX_CANDIDATES = 10**6


class DominationCeilingError(RuntimeError):
    """Candidate ceiling reached; the gap hypothesis looks violated."""


class Requirement(NamedTuple):
    e: int
    i: int
    j: int


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

    def same_json(self, other: "StageRecord") -> bool:
        """Whether both records give the same transcript line, without encoding them.

        Equal fields are not enough: 3.0 or true read from a file compare
        equal to 3 or 1 but encode differently, so the fields written as JSON
        integers must hold exactly int. The witness fields hold ints or None,
        and each int has one hex text, so equal values give equal text. other
        must be a StageRecord too: NamedTuple equality is tuple equality.
        """
        return self == other and all(
            type(getattr(r, name)) is int
            for r in (self, other)
            for name in ("stage", "e", "i", "j", "k", "budget", "m_after")
        )

    @staticmethod
    def from_json(obj: dict) -> "StageRecord":
        """The record a JSON object holds; a bad field raises ValueError.

        e, i, j and k must be ints >= 0 (a JSON true is one). stage,
        M_after and budget (>= 1) may also be integral floats, which replay
        then fails. Each witness must be null or a string that hex() writes,
        which int(text, 16) reads back to an int with that same hex() text:
        "0x1f" and "-0x3" load; "0x1F", "0x01", "-0x0", "1f", decimal text
        and a JSON number do not.
        """
        def whole(name, least=0, floats=False):
            v = obj[name]
            if not (isinstance(v, int) or floats and isinstance(v, float)
                    and v.is_integer()) or v < least:
                raise ValueError("field %s must be %s >= %d, got %r" % (
                    name, "an integral number" if floats else "an int", least, v))
            return v

        def witness(name):
            v = obj.get(name)
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

        return StageRecord(
            stage=whole("stage", floats=True),
            e=whole("e"),
            i=whole("i"),
            j=whole("j"),
            k=whole("k"),
            branch=obj["branch"],
            budget=whole("budget", 1, floats=True),
            m_after=whole("M_after", floats=True),
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
    the scan goes forward from there. Candidate indices count from t = 0
    against MAX_CANDIDATES.
    """
    src_i = coded.source(i)
    src_j = coded.source(j)
    lo, hi = 0, min(frontier + 1, MAX_CANDIDATES)
    while lo < hi:
        mid = (lo + hi) // 2
        if cert.s(i, j, mid) > frontier:
            hi = mid
        else:
            lo = mid + 1
    for t in range(lo, MAX_CANDIDATES):
        k = cert.s(i, j, t)
        if k <= frontier:
            raise AssertionError("selector not strictly increasing")
        if src_i.length(k) > src_j.endpoint(k + 1):
            return k
    raise DominationCeilingError(
        "no dominating block for pair (%d, %d) in MAX_CANDIDATES = %d" % (i, j, MAX_CANDIDATES)
    )


def _evaluate_block(program, lo: int, hi: int, budget: int, threshold: int):
    """Three-way branch decision for one source block.

    Returns ('non_total', x), ('non_injective', x1, x2) or
    ('diagonalized', x, y). When the tail path halts after `steps` steps,
    every input above `steps` follows it (machine.tail_behavior), so at most
    steps + 1 individual runs happen; when it diverges, inputs above the
    budget do, and at most budget + 1 runs happen. Witnesses are the least
    ones, matching a full in-order scan of the block.
    """
    behavior = tail_behavior(program, budget)
    boundary = (behavior.steps if isinstance(behavior, TailHalts) else budget) + 1
    prefix_hi = min(hi, boundary)
    values: list[int] = []
    seen: dict[int, int] = {}
    first_divergence = None
    first_collision = None
    for x in range(lo, prefix_hi):
        outcome = run_program(program, x, budget)
        if isinstance(outcome, OutOfBudget):
            first_divergence = x
            break
        v = outcome.value
        if first_collision is None:
            if v in seen:
                first_collision = (seen[v], x)
            else:
                seen[v] = x
        values.append(v)

    tail = None
    tail_lo = max(lo, boundary)
    if first_divergence is None and hi > tail_lo:
        if isinstance(behavior, TailHalts):
            tail = behavior
        else:
            first_divergence = tail_lo
    if first_divergence is not None:
        return (BRANCH_NON_TOTAL, first_divergence)

    if first_collision is None and tail is not None:
        crossings = [
            (v - tail.offset, x1)
            for v, x1 in seen.items()
            if tail_lo <= v - tail.offset < hi
        ]
        if crossings:
            x2, x1 = min(crossings)
            first_collision = (x1, x2)
    if first_collision is not None:
        return (BRANCH_NON_INJECTIVE, first_collision[0], first_collision[1])

    for x, v in zip(range(lo, prefix_hi), values):
        if v >= threshold:
            return (BRANCH_DIAGONALIZED, x, v)
    if tail is not None:
        x = max(tail_lo, threshold - tail.offset)
        if x < hi:
            return (BRANCH_DIAGONALIZED, x, x + tail.offset)
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
    """Execute one stage and update the state; bits are only added, never changed."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not cert.in_D(req.i, req.j):
        raise ValueError("requirement pair (%d, %d) is not scheduled" % (req.i, req.j))
    k = domination_search(coded, cert, req.i, req.j, state.frontier)
    src_i = coded.source(req.i)
    src_j = coded.source(req.j)
    lo, hi = src_i.block(k)
    threshold = src_j.endpoint(k + 1)
    if not src_i.length(k) > threshold:
        raise AssertionError("domination search returned a non-dominating block")

    program = decode(req.e)
    result = _evaluate_block(program, lo, hi, budget, threshold)
    stage = state.stage
    if result[0] == BRANCH_NON_TOTAL:
        record = StageRecord(
            stage, req.e, req.i, req.j, k, BRANCH_NON_TOTAL, budget, k, x=result[1]
        )
        state.frontier = k
    elif result[0] == BRANCH_NON_INJECTIVE:
        record = StageRecord(
            stage, req.e, req.i, req.j, k, BRANCH_NON_INJECTIVE, budget, k,
            x=result[1], x2=result[2],
        )
        state.frontier = k
    else:
        x, y = result[1], result[2]
        ell, _ = src_j.locate(y)
        if ell <= k:
            raise AssertionError("diagonal image landed at or before the chosen block")
        record = StageRecord(
            stage, req.e, req.i, req.j, k, BRANCH_DIAGONALIZED, budget, ell,
            x=x, y=y, ell=ell,
        )
        state.ones.add(k)
        state.frontier = ell
    state.stage += 1
    return record


# A transcript line: the twelve keys in order, each witness "hex() text" or null.
_LINE = ('{"stage": %d, "e": %d, "i": %d, "j": %d, "k": %d, "branch": "%s", '
         '"x": %s, "x2": %s, "y": %s, "ell": %s, "budget": %d, "M_after": %d}\n')


class Transcript:
    """The stage records of one run, in stage order."""

    def __init__(self, records: list[StageRecord] | None = None) -> None:
        self.records = [] if records is None else records

    def lines(self) -> Iterator[str]:
        """The JSON Lines text, one line at a time: json.dumps's bytes for
        records with int fields and one of the three branches, as run_stage
        makes them."""
        for stage, e, i, j, k, branch, budget, m_after, x, x2, y, ell in self.records:
            yield _LINE % (
                stage, e, i, j, k, branch,
                "null" if x is None else '"' + hex(x) + '"',
                "null" if x2 is None else '"' + hex(x2) + '"',
                "null" if y is None else '"' + hex(y) + '"',
                "null" if ell is None else '"' + hex(ell) + '"',
                budget, m_after,
            )

    def to_jsonl(self) -> str:
        return "".join(self.lines())

    def write_jsonl(self, path) -> None:
        """Write the lines as they are made, never the whole text at once."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(self.lines())

    @staticmethod
    def read_jsonl(path) -> "Transcript":
        """Load records; a line that is no record raises ValueError naming it.

        Lines are decoded one at a time, so a byte that is not UTF-8 is
        reported with its line like any other bad line. Each witness must be
        hex text (StageRecord.from_json).
        """
        records = []
        with open(path, "rb") as handle:
            for number, raw in enumerate(handle, 1):
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    records.append(StageRecord.from_json(json.loads(line)))
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(
                        "%s:%d: bad transcript record: %s: %s"
                        % (path, number, type(exc).__name__, exc)
                    ) from exc
        return Transcript(records)


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
    schedule = schedule or RequirementSchedule(cert)
    state = ConstructionState()
    transcript = Transcript()
    for n in range(stages):
        req = schedule.requirement(n)
        before = state.frontier
        record = run_stage(state, req, coded, cert, budget)
        if state.frontier <= before:
            raise AssertionError("frontier failed to increase")
        transcript.records.append(record)
    return transcript, state


def reconstruct_state(records: Iterable[StageRecord]) -> ConstructionState:
    """Rebuild the membership state from a transcript alone."""
    state = ConstructionState()
    for record in records:
        if record.branch == BRANCH_DIAGONALIZED:
            state.ones.add(record.k)
        state.frontier = record.m_after
        state.stage += 1
    return state


def eval_A(state: ConstructionState, coded: CodedFamily, n: int) -> int:
    """Membership bit of n in the constructed set (0/1), frontier permitting."""
    return state.block_bit(coded.targets.locate(n))

