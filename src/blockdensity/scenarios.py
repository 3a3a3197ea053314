"""Scenario configs and the end-to-end pipeline.

A scenario names a profile family, runs the stage construction far enough to
cover its program-index window, and emits a certificate report. Its schedule
is "full", the paper's order over every scheduled pair of the family, or
"window", which runs only the pairs the scenario certifies. Certificates
are computed from the transcript-reconstructed state, so every verdict
re-derives from the written files alone. Reports carry no timestamps; the same
config produces byte-identical outputs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Sequence

from .construction import (
    BRANCH_DIAGONALIZED, ConstructionState, RequirementSchedule, Transcript,
    reconstruct_state, run_construction, run_stages,
)
from .machine import identity_index
from .maps import CodedFamily
from .numerics import is_int, rat_parse, rat_str
from .posets import FinitePoset, UniversalPoset, embed_finite
from .profiles import (
    combined_family,
    constant_family,
    oscillating_family,
    poset_family,
)
from .verify import (
    FAIL,
    INCOMPLETE,
    Certificate,
    check_bfo_equivalence,
    check_collapse_autoreduction,
    check_defeat_bundle,
    check_embedding_matrix,
    check_positive_reduction,
    check_stage_records,
    check_transcript_replay,
)


DEFAULT_COUNT = 4
DEFAULT_ALPHA = Fraction(5, 4)
DEFAULT_BETA = Fraction(7, 4)
DEFAULT_BUDGET = 10**5
DEFAULT_E = 50
DEFAULT_KMAX = 12
SCHEDULES = ("full", "window")


class ScenarioConfig(NamedTuple):
    """A scenario's parameters, an immutable NamedTuple; poset_rows holds
    the 0/1 rows of the poset and universal kinds."""

    kind: str
    count: int = DEFAULT_COUNT
    alpha: Fraction = DEFAULT_ALPHA
    beta: Fraction = DEFAULT_BETA
    poset_rows: Sequence[str] = ()
    stages: int | None = None
    budget: int = DEFAULT_BUDGET
    e_bound: int = DEFAULT_E
    k_max: int = DEFAULT_KMAX
    schedule: str = "full"

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError("kind must be one of %s, got %r" % (", ".join(KINDS), self.kind))
        for name in ("count", "budget", "e_bound", "k_max", "stages"):
            value = getattr(self, name)
            if not is_int(value) and (name != "stages" or value is not None):
                raise ValueError("%s must be an integer, got %r" % (name, value))
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if not Fraction(1) < self.alpha < self.beta < Fraction(2):
            raise ValueError("need 1 < alpha < beta < 2")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.e_bound < 1:
            raise ValueError("E (program-index window) must be at least 1")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if self.stages is not None and self.stages < 1:
            raise ValueError("stages must be at least 1 when given")
        if self.kind == "poset" and not self.poset_rows:
            raise ValueError("poset scenario needs a relation matrix")
        if self.kind in ("poset", "universal"):
            FinitePoset.from_rows(self.poset_rows)
        if self.schedule not in SCHEDULES:
            raise ValueError("schedule must be one of %s, got %r"
                             % (", ".join(SCHEDULES), self.schedule))
        if (self.schedule == "window" and KINDS[self.kind] is not None
                and not _scheduled_pairs(self, build_family(self)[1])):
            raise ValueError(
                "schedule window runs no requirement: the %s scenario schedules no "
                "pair among its profiles 0 .. %d; use --schedule full"
                % (self.kind, len(_span(self)) - 1))

    def to_json(self) -> dict:
        """The JSON object; the schedule key is written only for window, so a
        full config keeps the bytes it had before the key existed."""
        return {
            "kind": self.kind,
            "count": self.count,
            "alpha": rat_str(self.alpha),
            "beta": rat_str(self.beta),
            "poset": list(self.poset_rows),
            "stages": self.stages,
            "budget": self.budget,
            "E": self.e_bound,
            "k_max": self.k_max,
            **({"schedule": self.schedule} if self.schedule != "full" else {}),
        }

    @staticmethod
    def from_json(obj) -> "ScenarioConfig":
        """The config a JSON object names; a missing key takes the field default.

        An unknown key, or a value of the wrong JSON type, is a ValueError
        naming its key; a retired key is ignored.
        """
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        for key in obj:
            if key not in _KEY_TYPES and key not in _RETIRED_KEYS:
                raise ValueError("unknown key %r" % key)
        for key, (ok, expected) in _KEY_TYPES.items():
            if key in obj and not ok(obj[key]):
                raise ValueError("key %r must be %s, got %s"
                                 % (key, expected, json.dumps(obj[key])))
        d = ScenarioConfig._field_defaults
        config = ScenarioConfig(
            kind=obj.get("kind", ""),
            count=obj.get("count", d["count"]),
            alpha=rat_parse(obj["alpha"]) if "alpha" in obj else d["alpha"],
            beta=rat_parse(obj["beta"]) if "beta" in obj else d["beta"],
            poset_rows=tuple(obj.get("poset", d["poset_rows"])),
            stages=obj.get("stages", d["stages"]),
            budget=obj.get("budget", d["budget"]),
            e_bound=obj.get("E", d["e_bound"]),
            k_max=obj.get("k_max", d["k_max"]),
            schedule=obj.get("schedule", d["schedule"]),
        )
        config.validate()
        return config


def _is_rational(value) -> bool:
    try:
        return isinstance(value, str) and rat_parse(value) is not None
    except ValueError:
        return False


# config key -> (test of its JSON value, the type the test expects)
_KEY_TYPES = {
    "kind": (lambda v: isinstance(v, str), "a string"),
    **dict.fromkeys(("count", "budget", "E", "k_max"), (is_int, "an integer")),
    **dict.fromkeys(("alpha", "beta"), (_is_rational, "a p/q string")),
    "poset": (lambda v: isinstance(v, list) and all(isinstance(r, str) for r in v),
              "a list of strings"),
    "stages": (lambda v: v is None or is_int(v), "an integer or null"),
    "schedule": (lambda v: isinstance(v, str), "a string"),
}
# Keys that no longer mean anything but still appear in older configs.
_RETIRED_KEYS = ("element_scan",)


# Scenario kind -> builder of its (profile family, gap certificate); the
# universal kind runs no construction.
KINDS = {
    "rationals": lambda config: constant_family(),
    "antichain": lambda config: oscillating_family(config.alpha, config.beta),
    "combined": lambda config: combined_family(config.alpha, config.beta),
    "poset": lambda config: poset_family(
        FinitePoset.from_rows(config.poset_rows), config.alpha, config.beta),
    "universal": None,
}


def build_family(config: ScenarioConfig):
    """The profile family and gap certificate a config names."""
    builder = KINDS[config.kind]
    if builder is None:
        raise ValueError("scenario kind %r runs no construction" % config.kind)
    return builder(config)


def prepare(config: ScenarioConfig):
    """The coded family and requirement schedule (which holds the gap
    certificate) of a config."""
    family, gap_cert = build_family(config)
    window = _scheduled_pairs(config, gap_cert) if config.schedule == "window" else None
    return CodedFamily(family), RequirementSchedule(gap_cert, window)


def construct(config: ScenarioConfig, stages: int | None = None):
    """(coded, schedule, transcript) of the run a config names.

    A stages other than None or 0 overrides the window's count and
    config.stages.
    """
    coded, schedule = prepare(config)
    stages = stages or required_stages(config, schedule)
    return coded, schedule, run_construction(schedule, coded, stages, config.budget)


def _span(config: ScenarioConfig) -> range:
    """The profile indices a scenario certifies."""
    return range(len(config.poset_rows) if config.kind == "poset" else config.count)


def _scheduled_pairs(config: ScenarioConfig, cert) -> list[tuple[int, int]]:
    """Scheduled pairs the scenario certifies defeats for."""
    span = _span(config)
    return [(a, b) for a in span for b in span if a != b and cert.in_D(a, b)]


def required_stages(config: ScenarioConfig, schedule: RequirementSchedule) -> int:
    """config.stages, or more if the defeat bundles of the scenario's
    program-index window need more; at least one."""
    window = max((schedule.stage_of(config.e_bound - 1, i, j) + 1
                  for i, j in _scheduled_pairs(config, schedule.cert)), default=0)
    return max(config.stages or 0, window, 1)


def _identity_device_certificate(transcript, state, faults) -> Certificate:
    """Every identity-index stage must diagonalize, its record passing its
    checks (faults, check_stage_records), splitting the prefix."""
    e_id = identity_index()
    cert = Certificate("IdentityDevice", {"e_id": e_id})
    records = [(n, r) for n, r in enumerate(transcript.records) if r.e == e_id]
    if not records:
        cert.incomplete("identity_scheduled", {"hint": "run more stages"})
        return cert
    bad = [n for n, r in records if r.branch != BRANCH_DIAGONALIZED or faults[n] is not None]
    if bad:
        cert.fail("identity_always_diagonalizes", {"stages": bad})
    else:
        cert.ok("identity_always_diagonalizes", {"count": len(records)})
    ones = len(state.ones)
    zeros = state.frontier + 1 - ones
    if ones >= 1 and zeros >= 1:
        cert.ok("prefix_split", {"one_blocks": ones, "zero_blocks": zeros})
    else:
        cert.fail("prefix_split", {"one_blocks": ones, "zero_blocks": zeros})
    return cert


def _construction_certificates(config, coded, schedule, transcript):
    """The certificate suite for one run, derived from the transcript alone."""
    state = reconstruct_state(transcript.records)
    # Each stage record is checked once, in one pass; the defeat bundles and
    # the identity device read its per-stage results, and its certificate
    # ends the report.
    stage_checks, faults = check_stage_records(coded, state, schedule, transcript.records,
                                              config.budget, config.k_max)
    # The gap certificate fixes the order: a pair (a, b) that D schedules
    # only as (b, a) has a pointwise below b, so it gets a reduction.
    span = _span(config)
    reductions = {
        (a, b): check_positive_reduction(coded, state, a, b, config.k_max)
        for a in span
        for b in span
        if a != b and schedule.cert.in_D(b, a) and not schedule.cert.in_D(a, b)
    }
    defeats = {
        (a, b): check_defeat_bundle(schedule, a, b, config.e_bound, transcript.records, faults)
        for a, b in _scheduled_pairs(config, schedule.cert)
    }

    if config.kind == "poset":
        # D schedules exactly the pairs (a, b) with a not below b, so every
        # cell off the diagonal has one certificate.
        certs = [
            check_embedding_matrix(
                FinitePoset.from_rows(config.poset_rows),
                {**reductions, **defeats},
                len(transcript.records),
                e_bound=config.e_bound,
                budget=config.budget,
            )
        ]
    else:
        certs = [*reductions.values(), *defeats.values()]
        certs.extend(check_bfo_equivalence(coded, state, i, config.k_max) for i in span)
        if config.kind == "combined":
            certs.append(_identity_device_certificate(transcript, state, faults))
            certs.append(check_collapse_autoreduction(coded, state))

    certs.append(stage_checks)
    return certs


def _universal_certificates(config: ScenarioConfig) -> list[Certificate]:
    """Embed sample posets into the staged generic order and compare matrices."""
    samples: list[FinitePoset] = []
    if config.poset_rows:
        samples.append(FinitePoset.from_rows(config.poset_rows))
    samples.extend(
        FinitePoset.from_rows(rows)
        for rows in (
            ["1"],
            ["11", "01"],
            ["10", "01"],
            ["111", "011", "001"],
            ["101", "011", "001"],
            ["1000", "0100", "0010", "0001"],
        )
    )
    universe = UniversalPoset()
    certs = []
    for poset in samples:
        cert = Certificate("UniversalEmbedding", {"rows": poset.rows()})
        try:
            images = embed_finite(poset, universe)
        except AssertionError as exc:
            cert.fail("embed", {"reason": str(exc)})
        else:
            # embed_finite has compared every cell of the induced matrix.
            cert.ok("induced_matrix_equal", {"images": images})
        certs.append(cert)
    return certs


def report_exit_code(certs: list[Certificate]) -> int:
    verdicts = {c.verdict for c in certs}
    if FAIL in verdicts:
        return 1
    if INCOMPLETE in verdicts:
        return 2
    return 0


class ScenarioResult(NamedTuple):
    config: ScenarioConfig
    certificates: list[Certificate]
    transcript: Transcript | None
    exit_code: int


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Run the full pipeline; write_outputs writes its outputs."""
    config.validate()
    if config.kind == "universal":
        certs = _universal_certificates(config)
        transcript = None
    else:
        coded, schedule, transcript = construct(config)
        certs = _construction_certificates(config, coded, schedule, transcript)
    return ScenarioResult(config, certs, transcript, report_exit_code(certs))


def write_outputs(result: ScenarioResult, outdir: str | Path) -> None:
    """Write config.json, transcript.jsonl (when the run has a transcript)
    and report.jsonl into outdir, making it if need be."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.json").write_text(
        json.dumps(result.config.to_json(), indent=2) + "\n", encoding="utf-8"
    )
    if result.transcript is not None:
        result.transcript.write_jsonl(outdir / "transcript.jsonl")
    write_report(result.certificates, outdir / "report.jsonl")


def write_report(certs: list[Certificate], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines([cert.line() for cert in certs])


def verify_transcript(config: ScenarioConfig, path: str | Path):
    """Read the transcript at path against its replay, one stage per line
    (Transcript.read_jsonl), and recompute its certificate suite."""
    config.validate()
    coded, schedule = prepare(config)
    replay = run_stages(ConstructionState(), schedule, coded, config.budget)
    transcript, divergence = Transcript.read_jsonl(path, replay)
    certs = [check_transcript_replay(len(transcript.records), divergence)]
    certs += _construction_certificates(config, coded, schedule, transcript)
    return certs
