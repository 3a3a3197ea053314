"""The verifier's running-sum block walk against the production geometry.

verify.block_walk feeds the positive certificates without blocks.py or
maps.py. These tests hold it to TargetBlocks and SourceBlocks at factorial
scale and to CodedFamily's maps element by element, check on its values the
block lemma that lets the certificates skip a per-element scan, and inject
faults into either side to show that the certificates notice them.
"""

import math
import random
from fractions import Fraction
from itertools import count, islice

import pytest

from blockdensity import blocks, construction, verify
from blockdensity.blocks import SourceBlocks, TargetBlocks
from blockdensity.construction import BRANCH_DIAGONALIZED, ConstructionState
from blockdensity.maps import CodedFamily
from blockdensity.profiles import ProfileFamily, constant_family
from blockdensity.scenarios import (
    ScenarioConfig, prepare, run_scenario, verify_transcript, write_outputs,
)
from blockdensity.verify import FAIL, PASS, block_walk, target_walk
from _oracles import FAMILIES, KS


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_walk_matches_source_blocks(kind):
    family, indices = FAMILIES[kind]
    coded = CodedFamily(family)
    targets = coded.targets
    for s in indices:
        src = coded.source(s)
        blocks = list(islice(block_walk(family.profile(s)), max(KS) + 1))
        for k in KS:
            fact, a, a_next, b, ln = blocks[k]
            assert (fact, a, a_next) == (
                targets.size(k), targets.endpoint(k), targets.endpoint(k + 1)
            ), (s, k)
            assert (b, ln) == (src.endpoint(k), src.length(k)), (s, k)
    assert [w[:3] for w in islice(block_walk(family.profile(0)), 13)] == list(
        islice(target_walk(), 13)
    )


LIMIT = 20_000


def walk_maps(profile, limit=LIMIT):
    """h, the fibers and the block offsets on [0, limit), from the walk alone."""
    h, fibers, offsets = {}, {}, {}
    for k, (fact, a, _, b, ln) in enumerate(block_walk(profile)):
        if a >= limit and b >= limit:
            return h, fibers, offsets
        for r in range(min(ln, limit - b)):
            h[b + r] = a + r * fact // ln
            offsets[b + r] = (k, r)
        for q in range(min(fact, limit - a)):
            lo = -(-q * ln // fact)
            hi = -(-(q + 1) * ln // fact)
            fibers[a + q] = list(range(b + lo, b + hi))


def test_walk_maps_match_coded_family():
    family, cert = constant_family()
    coded = CodedFamily(family)
    maps = [walk_maps(family.profile(i)) for i in range(4)]
    for i, (h, fibers, _) in enumerate(maps):
        for x in range(LIMIT):
            assert coded.h_apply(i, x) == h[x], (i, x)
        for y in range(LIMIT):
            fiber = coded.h_fibers(i, y)
            assert fiber == fibers[y], (i, y)
            assert coded.least_preimage(i, y) == fibers[y][0], (i, y)
    # Translations run down the chain: i below j pointwise where D schedules
    # only (j, i).
    pairs = [(i, j) for i in range(4) for j in range(4)
             if i != j and cert.in_D(j, i) and not cert.in_D(i, j)]
    assert pairs
    for i, j in pairs:
        offsets = maps[i][2]
        ends_j = [b for _, _, _, b, _ in islice(block_walk(family.profile(j)), 12)]
        for x in range(LIMIT):
            k, r = offsets[x]
            assert coded.positive_reduction(i, j, x) == ends_j[k] + r, (i, j, x)


def reduction_lemma(fact, ln_i, ln_j, r):
    """The reduction lemma of verify at offset r of a block with
    |K_k^i| <= |K_k^j|: b_i + r -> b_j + r lands inside block k of j, and
    both images under h lie in target block k."""
    return 0 <= r < ln_j and 0 <= r * fact // ln_i < fact and 0 <= r * fact // ln_j < fact


def fiber_offsets(fact, ln, q):
    """[lo, hi): the offsets of the fiber over a_k + q."""
    return -(-q * ln // fact), -(-(q + 1) * ln // fact)


def coupling_lemma(fact, ln, q):
    """The coupling lemma of verify at offset q of a block with
    k! <= |K_k| < 2 * k!: the fiber over a_k + q has one or two elements, all
    mapped to a_k + q, and its least element rises strictly with q, stays
    inside the block and maps back to a_k + q."""
    lo, hi = fiber_offsets(fact, ln, q)
    prev_lo = fiber_offsets(fact, ln, q - 1)[0] if q else -1
    return (
        1 <= hi - lo <= 2
        and prev_lo < lo < ln
        and lo * fact // ln == q
        and all(x * fact // ln == q for x in range(lo, hi))
    )


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_block_lemma_on_every_element_through_block_8(kind):
    family, indices = FAMILIES[kind]
    walks = {s: list(islice(block_walk(family.profile(s)), 9)) for s in indices}
    dominated = 0
    for s in indices:
        for k, (fact, _, _, _, ln) in enumerate(walks[s]):
            assert fact <= ln < 2 * fact, (s, k)
            assert all(coupling_lemma(fact, ln, q) for q in range(fact)), (s, k)
        for t in indices:
            for k, (fact, _, _, _, ln_i), (_, _, _, _, ln_j) in zip(
                range(9), walks[s], walks[t]
            ):
                if ln_i <= ln_j:
                    dominated += 1
                    assert all(
                        reduction_lemma(fact, ln_i, ln_j, r) for r in range(ln_i)
                    ), (s, t, k)
    assert dominated


def test_block_lemma_at_sampled_offsets_of_large_blocks():
    rng = random.Random(20261018)
    checked = 0
    for kind in sorted(FAMILIES):
        family, indices = FAMILIES[kind]
        walks = {
            s: [w for k, w in zip(range(max(KS) + 1), block_walk(family.profile(s)))
                if k in KS]
            for s in indices
        }
        for s in indices:
            for k, (fact, _, _, _, ln) in zip(KS, walks[s]):
                assert fact <= ln < 2 * fact, (kind, s, k)
                for q in {0, fact - 1, *(rng.randrange(fact) for _ in range(5))}:
                    assert coupling_lemma(fact, ln, q), (kind, s, k, q)
            for t in indices:
                for k, (fact, _, _, _, ln_i), (_, _, _, _, ln_j) in zip(
                    KS, walks[s], walks[t]
                ):
                    if ln_i > ln_j:
                        continue
                    for r in {0, ln_i - 1, *(rng.randrange(ln_i) for _ in range(5))}:
                        assert reduction_lemma(fact, ln_i, ln_j, r), (kind, s, t, k, r)
                    checked += 1
    assert checked


# Fault injection: a small rationals run, whose certificates must all pass as
# they are and some must fail under each mutation.
GATE = ScenarioConfig(kind="rationals", count=3, e_bound=3, k_max=8)


def failing_checks(certs):
    """(kind, check, k, map) of each failing check, k and map None where the
    check names none."""
    return {
        (cert.kind, check["check"], check.get("k"), check.get("map"))
        for cert in certs
        for check in cert.checks
        if not check["ok"]
    }


def h_apply_ceil(self, i, x):
    """CodedFamily.h_apply rounding up instead of down."""
    src = self.source(i)
    k, r = src.locate(x)
    n, d = src.ratio(k)
    return self.targets.endpoint(k) - (-(r * n) // d)


def extend_long_from(first, real=SourceBlocks._extend):
    """SourceBlocks._extend with |K_m| one too long from m = first on: the
    production loop extends, then each endpoint it appended moves by the
    number of its new blocks from first on. The loop goes on from the moved
    last endpoint, so the fault compounds like a wrong length would. The
    target table, which extends through the same loop, keeps its lengths, so
    the fault is in the sources alone."""
    def extend(self, k=None, beyond=None):
        ends = self._ends
        start, shift = len(ends), 0
        real(self, k, beyond)
        if isinstance(self, TargetBlocks):
            return
        for n in range(start, len(ends)):
            shift += n - 1 >= first
            ends[n] += shift
    return extend


def positive_reduction_shifted(real):
    def shifted(self, i, j, x):
        return real(self, i, j, x) + 1
    return shifted


def walk_long_from_5(real):
    def walk(profile):
        shift = 0
        for k, (fact, a, a_next, b, ln) in enumerate(real(profile)):
            yield fact, a, a_next, b + shift, ln + (k >= 5)
            shift += k >= 5
    return walk


def fibers_of_three(real):
    """CodedFamily.h_fibers with a third element on every fiber of two."""
    def h_fibers(self, i, y):
        fiber = real(self, i, y)
        return fiber + [fiber[-1] + 1] if len(fiber) == 2 else fiber
    return h_fibers


def size_high_at_2(real):
    """TargetBlocks.size one too large at block 2 only."""
    def size(self, k):
        return real(self, k) + (k == 2)
    return size


# name -> (mutation, config, the failing (kind, check, k, map) quadruples)
MUTATIONS = {
    "h_apply_rounding": (
        lambda mp: mp.setattr(CodedFamily, "h_apply", h_apply_ceil),
        GATE,
        {("BfoEquivalence", "fiber_membership", 2, None),
         ("BfoEquivalence", "fiber_membership", 3, None),
         ("PositiveReduction", "reference_geometry", 2, "h_apply")},
    ),
    "source_length_from_5": (
        lambda mp: mp.setattr(SourceBlocks, "_extend", extend_long_from(5)),
        GATE,
        {("BfoEquivalence", "reference_geometry", 5, "source.length"),
         ("PositiveReduction", "reference_geometry", 5, "source.length")},
    ),
    "source_length_from_6_unscanned": (
        lambda mp: mp.setattr(SourceBlocks, "_extend", extend_long_from(6)),
        GATE,
        {("BfoEquivalence", "reference_geometry", 6, "source.length"),
         ("PositiveReduction", "reference_geometry", 6, "source.length")},
    ),
    "h_fibers_third_element": (
        lambda mp: mp.setattr(CodedFamily, "h_fibers", fibers_of_three(CodedFamily.h_fibers)),
        GATE,
        {("BfoEquivalence", "fiber_bound_sampled", 2, None),
         ("BfoEquivalence", "fiber_bound_sampled", 3, None)},
    ),
    "positive_reduction_offset": (
        lambda mp: mp.setattr(
            CodedFamily, "positive_reduction",
            positive_reduction_shifted(CodedFamily.positive_reduction),
        ),
        GATE,
        {("PositiveReduction", "reference_geometry", 0, "positive_reduction")},
    ),
    "walk_floor_from_5": (
        lambda mp: mp.setattr(verify, "block_walk", walk_long_from_5(block_walk)),
        GATE,
        {("BfoEquivalence", "reference_geometry", 5, "source.length"),
         ("PositiveReduction", "reference_geometry", 5, "source.length")},
    ),
    # Every walk-based certificate, collapse's too, compares the target sizes
    # first, in one order.
    "target_size_at_2": (
        lambda mp: mp.setattr(TargetBlocks, "size", size_high_at_2(TargetBlocks.size)),
        GATE._replace(kind="combined", count=4),
        {("BfoEquivalence", "reference_geometry", 2, "targets.size"),
         ("CollapseAutoreduction", "reference_geometry", 2, "targets.size"),
         ("PositiveReduction", "reference_geometry", 2, "targets.size")},
    ),
}


def test_a_profile_past_the_band_fails_length_band(monkeypatch):
    """With the production band check widened to (1, 3), a profile at 2
    extends and the walk agrees with it, so only BfoEquivalence's own band
    k! <= |K_k| < 2 * k! refutes it, at block 0."""
    monkeypatch.setattr(blocks, "TWO", Fraction(3))
    coded = CodedFamily(ProfileFamily(lambda i: lambda k: Fraction(2)))
    state = ConstructionState()
    state.frontier = 5
    cert = verify.check_bfo_equivalence(coded, state, 0, 5)
    assert cert.verdict == FAIL
    assert cert.checks == [
        {"check": "length_band", "ok": False, "k": 0, "len": "2", "size": "1"}]


@pytest.mark.parametrize("first", [5, 6])
def test_length_mutation_plants_one_more_from_first(first, monkeypatch):
    monkeypatch.setattr(SourceBlocks, "_extend", extend_long_from(first))
    family = constant_family()[0]
    src = CodedFamily(family).source(2)
    # Out of order, so the mutated loop resumes from a moved endpoint.
    assert src.locate(src.endpoint(9))[0] == 9
    for k, (_, _, _, b, ln) in zip(range(12), block_walk(family.profile(2))):
        assert src.length(k) == ln + (k >= first), k
        assert src.endpoint(k) == b + max(0, k - first), k


def test_gate_run_passes_unmutated():
    certs = run_scenario(GATE).certificates
    assert {c.kind for c in certs} >= {"PositiveReduction", "BfoEquivalence"}
    assert all(c.verdict == PASS for c in certs)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_fails_a_certificate(name, monkeypatch):
    mutate, config, caught_by = MUTATIONS[name]
    mutate(monkeypatch)
    certs = run_scenario(config).certificates
    assert any(c.verdict == FAIL for c in certs)
    assert failing_checks(certs) == caught_by


# Faults in each production map the sample loops compare, planted in a run
# whose window reaches block 11, where record 0's image y, the first element
# of its block, lies: h_apply one low there moves h(y) into block 10, and
# the defeat bundle that counts record 0 fails with record 0's StageChecks
# check.
GATE_12 = GATE._replace(k_max=12)


def at_block(real, block, shift):
    """CodedFamily.h_apply moved by shift on source block `block` only."""
    def h_apply(self, i, x):
        return real(self, i, x) + shift * (self.source(i).locate(x)[0] == block)
    return h_apply


# name -> (method, its fault, the failing (kind, check, map) triples)
MAP_FAULTS = {
    "least_preimage_off_by_one": (
        "least_preimage", lambda real: lambda self, i, y: real(self, i, y) + 1,
        {("BfoEquivalence", "reference_geometry", "least_preimage")},
    ),
    "h_fibers_drops_an_element": (
        "h_fibers", lambda real: lambda self, i, y: real(self, i, y)[:1],
        {("BfoEquivalence", "reference_geometry", "h_fibers")},
    ),
    "h_apply_low_at_block_11": (
        "h_apply", lambda real: at_block(real, 11, -1),
        {("BfoEquivalence", "fiber_membership", None),
         ("DefeatBundle", "defeat_record", None),
         ("StageChecks", "compressed_targets", None),
         ("PositiveReduction", "reference_geometry", "h_apply")},
    ),
}


@pytest.mark.parametrize("name", sorted(MAP_FAULTS))
def test_certificates_call_every_production_map(name, monkeypatch):
    method, fault, caught_by = MAP_FAULTS[name]
    monkeypatch.setattr(CodedFamily, method, fault(getattr(CodedFamily, method)))
    certs = run_scenario(GATE_12).certificates
    assert {(cert.kind, check["check"], check.get("map"))
            for cert in certs for check in cert.checks if not check["ok"]} == caught_by
    # A failing record check names its record: record 0, as above.
    assert all(check["stage"] == 0 for cert in certs if cert.kind == "StageChecks"
               for check in cert.checks if not check["ok"])


# Faults in the closed form the construction writes from K* on: each turns
# every diagonalized record at or past K* into what a wrong closed form
# would write, in the construction and in verify's replay alike, so the
# transcript replays and only the record checks, which rerun and place each
# witness on the blocks, can catch it. name -> (fault, its first failing
# check).
CLOSED_FORM_FAULTS = {
    "dx_sign_flipped": (lambda r: r._replace(dx=-r.dx), "rerun_value"),
    "ell_k_plus_2": (lambda r: r._replace(ell=r.k + 2, m_after=r.k + 2), "image_block"),
}
CLOSED_FORM_GATE = ScenarioConfig(kind="rationals", count=4, e_bound=10, schedule="window")


def closed_form_fault(change, real):
    """run_stage with change applied to each diagonalized record at or past
    K*, the frontier moved to its M_after as ConstructionState.apply would."""
    def run_stage(state, req, coded, cert, budget, k_star):
        record = real(state, req, coded, cert, budget, k_star)
        if record.k < k_star or record.branch != BRANCH_DIAGONALIZED:
            return record
        record = change(record)
        state.frontier = record.m_after
        return record
    return run_stage


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_FAULTS))
def test_wrong_closed_form_fails_stage_checks(name, monkeypatch, tmp_path):
    """verify's StageChecks FAILs a wrong closed form, its first failing check
    naming the first stage the fault changes: for the sign flip, the first
    closed-form stage whose program's tail offset is not 0."""
    change, check = CLOSED_FORM_FAULTS[name]
    config = CLOSED_FORM_GATE
    gap_cert = prepare(config)[1].cert
    k_b = next(k for k in count(1) if math.factorial(k - 1) > config.budget + 1)

    def changed(r):
        k_star = max(3, math.ceil(5 / gap_cert.rule(r.i, r.j)[0]), k_b)
        return r.k >= k_star and r.branch == BRANCH_DIAGONALIZED and change(r) != r

    first = next(r.stage for r in run_scenario(config).transcript.records if changed(r))
    monkeypatch.setattr(construction, "run_stage",
                        closed_form_fault(change, construction.run_stage))
    result = run_scenario(config)
    write_outputs(result, tmp_path)
    assert result.exit_code == 1
    certs = verify_transcript(config, tmp_path / "transcript.jsonl")
    verdicts = {c.kind: c.verdict for c in certs}
    assert (verdicts["TranscriptReplay"], verdicts["StageChecks"]) == (PASS, FAIL)
    [stage_checks] = [c for c in certs if c.kind == "StageChecks"]
    assert (stage_checks.checks[0]["check"], stage_checks.checks[0]["stage"]) == (check, first)
