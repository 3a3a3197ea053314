"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes from first principles (direct sums, literal scans,
tuple arithmetic) so the implementations under test never check themselves.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product
from math import gcd

from blockdensity.construction import StageRecord, run_construction
from blockdensity.posets import FinitePoset
from blockdensity.profiles import (
    ProfileFamily,
    combined_family,
    constant_family,
    oscillating_family,
    poset_family,
)


def frac_norm(num: int, den: int) -> tuple[int, int]:
    if den == 0:
        raise ZeroDivisionError
    if den < 0:
        num, den = -num, -den
    g = gcd(abs(num), den)
    return (num // g, den // g) if g else (0, 1)


def frac_add(a, b):
    return frac_norm(a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def frac_sub(a, b):
    return frac_norm(a[0] * b[1] - b[0] * a[1], a[1] * b[1])


def frac_mul(a, b):
    return frac_norm(a[0] * b[0], a[1] * b[1])


def frac_div(a, b):
    if b[0] == 0:
        raise ZeroDivisionError
    return frac_norm(a[0] * b[1], a[1] * b[0])


def rationals_between_one_and_two(count: int) -> list[tuple[int, int]]:
    """Reduced fractions in (1, 2) listed by (denominator, numerator)."""
    out: list[tuple[int, int]] = []
    den = 2
    while len(out) < count:
        for num in range(den + 1, 2 * den):
            if gcd(num, den) == 1:
                out.append((num, den))
        den += 1
    return out[:count]


def factorial(k: int) -> int:
    out = 1
    for m in range(2, k + 1):
        out *= m
    return out


def target_endpoints(k_max: int) -> list[int]:
    """a_0..a_{k_max+1} by direct summation."""
    ends = [0]
    for k in range(k_max + 1):
        ends.append(ends[-1] + factorial(k))
    return ends


def source_lengths(u, k_max: int) -> list[int]:
    """floor(u(k) * k!) per block, u given as a Fraction-like value function."""
    return [
        (u(k).numerator * factorial(k)) // u(k).denominator for k in range(k_max + 1)
    ]


def source_endpoints(u, k_max: int) -> list[int]:
    ends = [0]
    for ln in source_lengths(u, k_max):
        ends.append(ends[-1] + ln)
    return ends


def compression_table(u, k: int) -> dict[int, int]:
    """Per-element images of the k-th source block under proportional rounding."""
    block = block_geometry(u, [k])[k]
    _, b, _, ln = block
    return {b + r: compression_image(block, r) for r in range(ln)}


def block_geometry(u, ks) -> dict[int, tuple[int, int, int, int]]:
    """(a_k, b_k, k!, |K_k|) for each k in ks, by one pass of running sums."""
    wanted = set(ks)
    out = {}
    a = b = 0
    fact = 1
    for k in range(max(wanted) + 1):
        if k:
            fact *= k
        ln = (u(k).numerator * fact) // u(k).denominator
        if k in wanted:
            out[k] = (a, b, fact, ln)
        a += fact
        b += ln
    return out


def compression_image(block, r: int) -> int:
    """a_k + floor(r * k! / |K_k|) for source offset r of a block_geometry entry."""
    a, _, fact, ln = block
    return a + (r * fact) // ln


def compression_fiber(block, q: int) -> list[int]:
    """Source elements whose image is a_k + q, in increasing order.

    The fiber lies in [q * |K_k| / k!, (q + 1) * |K_k| / k!), shorter than 2,
    so the forward map is tested on every offset around its left end.
    """
    a, b, fact, ln = block
    r0 = (q * ln) // fact
    return [
        b + r
        for r in range(max(0, r0 - 1), min(ln, r0 + 3))
        if compression_image(block, r) == a + q
    ]


def domination_brute(u_i, u_j, selector, frontier: int, limit: int = 4000) -> int:
    """Least selected block past the frontier beating the opposing prefix sum."""
    lens_j: list[int] = []
    total = 0
    t = 0
    while True:
        k = selector(t)
        t += 1
        if t > limit:
            raise AssertionError("oracle search ran away")
        while len(lens_j) <= k:
            m = len(lens_j)
            lens_j.append((u_j(m).numerator * factorial(m)) // u_j(m).denominator)
        if k <= frontier:
            continue
        len_i = (u_i(k).numerator * factorial(k)) // u_i(k).denominator
        if len_i > sum(lens_j[: k + 1]):
            return k


def random_poset_matrix(n: int, rng: random.Random) -> list[list[bool]]:
    """Reflexive transitive closure of a random DAG on 0..n-1."""
    rel = [[a == b for b in range(n)] for a in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                rel[a][b] = True
    for c in range(n):
        for a in range(n):
            if rel[a][c]:
                for b in range(n):
                    if rel[c][b]:
                        rel[a][b] = True
    return rel


def encode(program) -> int:
    """One index whose decoding is the given program: the inverse of
    machine.decode with canonical opcode tags (INC 0, DECJZ 1, HALT 2)."""

    def pair(x: int, y: int) -> int:
        return (x + y) * (x + y + 1) // 2 + y

    tags = {"INC": lambda ins: pair(0, ins[1]),
            "DECJZ": lambda ins: pair(1, pair(ins[1], ins[2])),
            "HALT": lambda ins: pair(2, 0)}
    body = 0
    for ins in reversed(program):
        body = pair(tags[ins[0]](ins), body)
    return pair(len(program), body)


def simulate(program, x: int, budget: int) -> tuple[int, int] | None:
    """(output, steps) of the literal run of a decoded program from input x,
    or None when it has not halted after budget steps. Registers are a list
    indexed by register number; no cycle rule, no tail lemma: a run that does
    not halt spends its whole budget."""
    regs = [0] * (1 + max((ins[1] for ins in program if len(ins) > 1), default=0))
    regs[0] = x
    pc = steps = 0
    while pc < len(program):
        if steps == budget:
            return None
        ins = program[pc]
        steps += 1
        if ins[0] == "HALT":
            return regs[0], steps
        if ins[0] == "INC":
            regs[ins[1]] += 1
            pc += 1
        elif regs[ins[1]] > 0:
            regs[ins[1]] -= 1
            pc += 1
        else:
            pc = ins[2]
    return regs[0], steps


def in_Z(n: int, k: int) -> bool:
    """True iff k > 0 and the 2-adic valuation of k equals n."""
    return k > 0 and (k & -k) == (1 << n)


def oscillating_formulas(alpha, beta):
    """(value, in_D, delta, s) of the oscillating family in closed form."""
    return (
        lambda n, k: beta if in_Z(n, k) else alpha,
        lambda n, m: n != m,
        lambda n, m: beta - alpha,
        lambda n, m, t: (1 << n) * (2 * t + 1),
    )


def constant_formulas(count: int):
    """(value, in_D, delta, s) of the constant family in closed form, for
    indices below count: index i carries the i-th rational q_i in (1, 2), and
    (i, j) is scheduled with gap q_i - q_j on every block when q_i > q_j."""
    q = [Fraction(num, den) for num, den in rationals_between_one_and_two(count)]
    return (
        lambda i, k: q[i],
        lambda i, j: q[i] > q[j],
        lambda i, j: q[i] - q[j],
        lambda i, j, t: t,
    )


def poset_formulas(rel, alpha, beta):
    """(value, in_D, delta, s) of the order-driven family in closed form over
    the relation matrix rel, padded by points related only to themselves:
    (i, j) is scheduled when i is not below j, on the blocks of valuation i."""
    def leq(a, b):
        return rel[a][b] if a < len(rel) and b < len(rel) else a == b

    return (
        poset_value(leq, alpha, beta),
        lambda i, j: not leq(i, j),
        lambda i, j: beta - alpha,
        lambda i, j, t: (1 << i) * (2 * t + 1),
    )


def combined_formulas(alpha, beta, count: int):
    """(value, in_D, delta, s) of the combined family in closed form.

    Each function branches on parity: even index 2m carries the m-th rational
    in (1, 2), for m < count, and odd index 2m + 1 peaks at beta exactly on
    the blocks of 2-adic valuation m.
    """
    q = [Fraction(num, den) for num, den in rationals_between_one_and_two(count)]

    def value(i, k):
        if i % 2 == 0:
            return q[i // 2]
        return beta if in_Z((i - 1) // 2, k) else alpha

    def in_d(i, j):
        if i % 2 == 0 and j % 2 == 0:
            return q[i // 2] > q[j // 2]
        if i % 2 == 1 and j % 2 == 1:
            return i != j
        return False

    def delta(i, j):
        if i % 2 == 0:
            return q[i // 2] - q[j // 2]
        return beta - alpha

    def s(i, j, t):
        if i % 2 == 0:
            return t
        return (1 << ((i - 1) // 2)) * (2 * t + 1)

    return value, in_d, delta, s


def record_json(record) -> dict:
    """The JSON object of a StageRecord, each witness field null or its hex()
    text, keyed in the order of a transcript line."""
    dx, dx2, dy, ell = (None if v is None else hex(v)
                        for v in (record.dx, record.dx2, record.dy, record.ell))
    return {
        "stage": record.stage,
        "e": record.e,
        "i": record.i,
        "j": record.j,
        "k": record.k,
        "branch": record.branch,
        "dx": dx,
        "dx2": dx2,
        "dy": dy,
        "ell": ell,
        "budget": record.budget,
        "M_after": record.m_after,
    }


def read_transcript(path) -> list[StageRecord]:
    """The records of a transcript file, every non-blank line decoded.

    Each line is decoded from UTF-8, stripped, parsed by json.loads and read
    by StageRecord.from_json, whether or not a replay would reproduce it; a
    bad line raises ValueError "path:line: bad transcript record: ...". This
    is the reader verify used before it compared lines with its replay.
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
    return records


def transcript_replay_json(schedule, coded, records, budget) -> dict:
    """The TranscriptReplay certificate's report object for loaded records:
    a fresh replay of as many stages, each record compared with its replay
    by ==."""
    replay = {"kind": "TranscriptReplay", "verdict": "PASS",
              "subject": {"stages": len(records)}, "checks": [], "diagnostics": {}}
    if not records:
        replay["verdict"] = "FAIL"
        replay["checks"].append({"check": "bit_exact", "ok": False,
                                 "reason": "empty transcript"})
        return replay
    rerun = run_construction(schedule, coded, len(records), budget)
    for stage, (a, b) in enumerate(zip(rerun.records, records)):
        if a != b:
            replay["verdict"] = "FAIL"
            replay["checks"].append({"check": "bit_exact", "ok": False,
                                     "first_divergence_stage": stage})
            return replay
    replay["checks"].append({"check": "bit_exact", "ok": True})
    return replay


def constant_value(i: int, k: int) -> Fraction:
    """u_i(k) of the constant family: the i-th rational in (1, 2)."""
    return Fraction(*rationals_between_one_and_two(i + 1)[i])


def poset_value(leq, alpha, beta):
    """u_i(k) of the order-driven family over the order decided by leq: beta
    on the blocks whose valuation class lies below i, found by scanning the
    classes."""
    def value(i, k):
        n = next((n for n in range(k.bit_length()) if in_Z(n, k)), None)
        return beta if n is not None and leq(n, i) else alpha
    return value


def gap_check(family, cert, i: int, j: int, T: int) -> bool:
    """Check the gap inequality at the first T selected blocks of pair (i, j)."""
    if not cert.in_D(i, j):
        raise ValueError("pair (%d, %d) is not scheduled" % (i, j))
    delta = cert.rule(i, j)[0]
    prev = -1
    for t in range(T):
        k = cert.s(i, j, t)
        if k <= prev:
            return False
        prev = k
        if family.profile(i)(k) < family.profile(j)(k) + delta:
            return False
    return True


class BfsGenericOrder:
    """The generic order built breadth first, one level per chain length.

    Node ids count in level order. Each node's relation vector holds one mark
    per member of its parent's chain plus the parent (0: below it, 1: above
    it, 2: incomparable), and a parent's children take every vector, in
    itertools.product order, whose full relation matrix over the chain plus
    the new point is transitive.
    """

    def __init__(self, levels: int) -> None:
        self.parents = [-1]
        self.trits: list[tuple[int, ...]] = [()]
        self.matrices = [[[True]]]   # relation matrix over chain + node
        level = [0]
        for width in range(1, levels):
            nxt = []
            for parent in level:
                for trits in product(range(3), repeat=width):
                    rel = [row + [trits[i] == 1] for i, row in
                           enumerate(self.matrices[parent])]
                    rel.append([t == 0 for t in trits] + [True])
                    if all(rel[a][c] for a in range(width + 1)
                           for b in range(width + 1) if rel[a][b]
                           for c in range(width + 1) if rel[b][c]):
                        nxt.append(len(self.parents))
                        self.parents.append(parent)
                        self.trits.append(trits)
                        self.matrices.append(rel)
            level = nxt


# Families whose block endpoints the walk and witness tests check at
# factorial scale: kind -> (family, source indices checked), and the block
# indices checked.
PRIME_DEN = Fraction(1013, 1009)   # 1009 prime: 1009 | k! only from k = 1009 on
ALPHA, BETA = Fraction(5, 4), Fraction(7, 4)
FAMILIES = {
    "constant": (constant_family()[0], (0, 3)),
    "oscillating": (oscillating_family(PRIME_DEN, Fraction(3, 2))[0], (0, 1)),
    "combined": (combined_family(ALPHA, BETA)[0], (0, 1)),
    "poset": (
        poset_family(FinitePoset.from_rows(["111", "011", "001"]),
                     ALPHA, BETA)[0],
        (0, 2),
    ),
    "prime_denominator": (ProfileFamily(lambda i: lambda k: PRIME_DEN), (0,)),
}
KS = [*range(13), 1007, 1008, 1009, 1010, 3000]
