"""Command-line interface: scenarios, construction runs, map and machine
queries, poset tools, and certificate verification.

All output is machine-readable (CSV or JSON Lines). Exit codes: 0 every
certificate passed, 1 some check failed, 2 some check is incomplete (and none
failed), 3 usage or config error, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .construction import TranscriptError
from .machine import Halted, decode, program_text, run_program
from .maps import CodedFamily
from .numerics import rat_parse
from .posets import FinitePoset, UniversalPoset, embed_finite
from .scenarios import (
    DEFAULT_ALPHA, DEFAULT_BETA, DEFAULT_BUDGET, DEFAULT_COUNT, KINDS, SCHEDULES, ScenarioConfig,
    build_family, construct, report_exit_code, run_scenario, verify_transcript,
    write_outputs, write_report,
)

USAGE_ERROR = 3
INTERNAL_ERROR = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _rat(text: str) -> Fraction:
    try:
        return rat_parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("bad rational %r: %s" % (text, exc))


# Family kinds of the blocks and map commands, and the scenario kind that
# builds the same family: every kind with a family builder, two of them
# under the name of their family.
FAMILY_KINDS = {
    {"rationals": "constant", "antichain": "oscillating"}.get(kind, kind): kind
    for kind, builder in KINDS.items() if builder is not None
}


def _rows(text: str) -> list[str]:
    """The rows of a comma-separated 0/1 relation matrix."""
    return [row for row in text.split(",") if row]


def _family_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", default="constant", choices=list(FAMILY_KINDS))
    parser.add_argument("--count", type=int, default=DEFAULT_COUNT)
    parser.add_argument("--alpha", type=_rat, default=DEFAULT_ALPHA)
    parser.add_argument("--beta", type=_rat, default=DEFAULT_BETA)
    parser.add_argument("--matrix", type=_rows, default=[],
                        help="comma-separated 0/1 rows for the poset kind")


def _coded_family(args) -> CodedFamily:
    if args.kind == "poset" and not args.matrix:
        raise UsageError("the poset kind needs --matrix")
    config = ScenarioConfig(
        kind=FAMILY_KINDS[args.kind], count=args.count, alpha=args.alpha,
        beta=args.beta, poset_rows=args.matrix,
    )
    config.validate()
    return CodedFamily(build_family(config)[0])


def _usage_errors(cmd):
    """cmd, whose ValueErrors can only come from its arguments, raising them
    as UsageErrors; the other commands check their inputs where they read them.
    """
    @functools.wraps(cmd)
    def checked(args) -> int:
        try:
            return cmd(args)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return checked


def _writing(path, write, *args, **kwargs):
    """write(*args, **kwargs), which writes path; an OSError it raises means
    path cannot be written, a usage error."""
    try:
        return write(*args, **kwargs)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc.strerror or exc)) from exc


def _writable_dir(path: str) -> bool:
    return os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)


def _check_writable(path: str) -> None:
    """Refuse an output file before any work is spent on it: an existing file
    must open for writing (it is not truncated here), and a new one needs a
    writable directory."""
    if os.path.isfile(path):
        os.close(_writing(path, os.open, path, os.O_WRONLY))
    elif os.path.isdir(path) or not _writable_dir(os.path.dirname(path) or os.curdir):
        raise UsageError("cannot write %s: not a file in a writable directory" % path)


def _out_stream(path: str | None):
    return _writing(path, open, path, "w", encoding="utf-8") if path else sys.stdout


def _cmd_blocks(args) -> int:
    if args.kmax < 0:
        raise UsageError("--kmax must be at least 0")
    coded = _coded_family(args)
    indices = [int(s) for s in args.i.split(",")] if args.i else list(range(args.count))
    sources = [coded.source(i) for i in indices]
    out = _out_stream(args.out)
    header = ["k", "a_k", "k_factorial"]
    for i in indices:
        header += ["ell_%d" % i, "b_%d" % i]
    out.write(",".join(header) + "\n")
    for k in range(args.kmax + 1):
        row = [str(k), str(coded.targets.endpoint(k)), str(coded.targets.size(k))]
        for src in sources:
            row += [str(src.length(k)), str(src.endpoint(k))]
        out.write(",".join(row) + "\n")
    if out is not sys.stdout:
        out.close()
    return 0


def _cmd_map(args) -> int:
    coded = _coded_family(args)
    if args.action == "apply":
        print(coded.h_apply(args.i, args.x))
    elif args.action == "fibers":
        print(",".join(str(v) for v in coded.h_fibers(args.i, args.y)))
    elif args.action == "preimage":
        print(coded.least_preimage(args.i, args.y))
    elif args.action == "reduce":
        print(coded.positive_reduction(args.i, args.j, args.x))
    else:
        print(coded.collapse(args.x))
    return 0


def _cmd_machine(args) -> int:
    if args.action == "decode":
        print(program_text(decode(args.e)))
        return 0
    outcome = run_program(decode(args.e), args.x, args.budget)
    if isinstance(outcome, Halted):
        print("halted,%d,%d" % (outcome.value, outcome.steps))
    else:
        print("out_of_budget,%d" % outcome.budget)
    return 0


def _cmd_poset(args) -> int:
    if args.action != "dump-universal" and not args.matrix:
        raise UsageError("poset %s needs --matrix" % args.action)
    if args.action == "validate":
        try:
            FinitePoset.from_rows(args.matrix)
        except ValueError as exc:
            print("invalid: %s" % exc)
            return 1
        print("valid")
        return 0
    if args.action == "embed":
        poset = FinitePoset.from_rows(args.matrix)
        images = embed_finite(poset)
        print(",".join(str(m) for m in images))
        return 0
    if args.size < 1:
        raise UsageError("--size must be at least 1")
    matrix = UniversalPoset().matrix(args.size)
    for row in matrix:
        print("".join("1" if v else "0" for v in row))
    return 0


def _load_construction_config(path: str) -> ScenarioConfig:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:   # bad UTF-8 or JSON, or too deep
        raise UsageError("cannot read config %s: %s" % (path, exc))
    try:
        config = ScenarioConfig.from_json(payload)
    except ValueError as exc:
        raise UsageError("bad config: %s" % exc)
    if KINDS[config.kind] is None:
        raise UsageError("%s scenarios run no construction" % config.kind)
    return config


def _cmd_construct(args) -> int:
    config = _load_construction_config(args.config)
    if args.stages is not None and args.stages < 1:
        raise UsageError("--stages must be at least 1")
    _check_writable(args.out)
    *_, transcript = construct(config, args.stages)
    _writing(args.out, transcript.write_jsonl, args.out)
    print("stages,%d" % len(transcript.records))
    return 0


def _cmd_verify(args) -> int:
    config = _load_construction_config(args.config)
    _check_writable(args.report)
    try:
        certs = verify_transcript(config, args.transcript)
    except (OSError, TranscriptError) as exc:
        raise UsageError(str(exc))
    _writing(args.report, write_report, certs, args.report)
    sys.stdout.write("".join(["%s,%s\n" % (c.kind, c.verdict) for c in certs]))
    return report_exit_code(certs)


_RUN = ("--stages", "--budget", "--E", "--kmax", "--schedule")
_BAND = ("--alpha", "--beta", *_RUN)
# The scenario flags each kind reads, the one it takes its profile count from
# first. A flag's argparse dest is its name without the dashes.
SCENARIO_FLAGS = {
    "rationals": ("--count", *_RUN),
    "antichain": ("--n", *_BAND),
    "combined": ("--count", *_BAND),
    "poset": ("--matrix", *_BAND),
    "universal": ("--matrix",),
}
# The config field of each flag not named like it.
_FIELDS = {"--n": "count", "--matrix": "poset_rows", "--E": "e_bound", "--kmax": "k_max"}


def _cmd_scenario(args) -> int:
    kind = args.scenario_kind
    reads = SCENARIO_FLAGS[kind]
    fields = {"kind": kind, "count": 3 if kind == "antichain" else DEFAULT_COUNT}
    if "--schedule" in reads:
        # A new run certifies its window only; "full", the paper's order, is
        # what a config without the key means.
        fields["schedule"] = "window"
    for flag in ("--count", "--n", "--matrix", *_BAND):
        value = getattr(args, flag[2:])
        if value is None:
            continue
        if flag not in reads:
            if flag in ("--count", "--n"):
                raise UsageError("scenario %s reads %s, not %s" % (kind, reads[0], flag))
            raise UsageError("scenario %s does not read %s" % (kind, flag))
        fields[_FIELDS.get(flag, flag[2:])] = value
    try:
        config = ScenarioConfig(**fields)
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc))
    outdir = args.outdir or ("out-%s" % args.scenario_kind)
    # write_outputs makes outdir; its nearest existing ancestor must allow that.
    ancestor = os.path.abspath(outdir)
    while not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not _writable_dir(ancestor):
        raise UsageError("cannot write %s: %s is no writable directory" % (outdir, ancestor))
    result = run_scenario(config)
    _writing(outdir, write_outputs, result, outdir)
    sys.stdout.write("".join(["%s,%s\n" % (c.kind, c.verdict) for c in result.certificates])
                     + "report,%s\n" % (Path(outdir) / "report.jsonl"))
    return result.exit_code


def _add_blocks(sub) -> None:
    p = sub.add_parser("blocks", help="dump endpoint tables as CSV")
    _family_flags(p)
    p.add_argument("--kmax", type=int, default=12)
    p.add_argument("--i", default="", help="comma-separated profile indices")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_usage_errors(_cmd_blocks))


def _add_map(sub) -> None:
    p = sub.add_parser("map", help="apply coded maps")
    p.add_argument("action", choices=["apply", "fibers", "preimage", "reduce", "collapse"])
    _family_flags(p)
    p.add_argument("--i", type=int, default=0)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--y", type=int, default=0)
    p.set_defaults(fn=_usage_errors(_cmd_map))


def _add_machine(sub) -> None:
    p = sub.add_parser("machine", help="decode or run enumerated programs")
    p.add_argument("action", choices=["decode", "run"])
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(fn=_usage_errors(_cmd_machine))


def _add_poset(sub) -> None:
    p = sub.add_parser("poset", help="validate, embed, or dump the generic order")
    p.add_argument("action", choices=["validate", "embed", "dump-universal"])
    p.add_argument("--matrix", type=_rows, default=[])
    p.add_argument("--size", type=int, default=20)
    p.set_defaults(fn=_usage_errors(_cmd_poset))


def _add_construct(sub) -> None:
    p = sub.add_parser("construct", help="run the stage construction from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stages", type=int, default=None)
    p.set_defaults(fn=_cmd_construct)


def _add_verify(sub) -> None:
    p = sub.add_parser("verify", help="replay a transcript and write certificates")
    p.add_argument("--config", required=True)
    p.add_argument("--transcript", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(fn=_cmd_verify)


def _add_scenario(sub) -> None:
    p = sub.add_parser("scenario", help="full pipeline: construct, certify, report")
    p.add_argument("scenario_kind", choices=list(KINDS))
    p.add_argument("--count", type=int, default=None,
                   help="profile count for rationals and combined (default %d)"
                   % DEFAULT_COUNT)
    p.add_argument("--n", type=int, default=None,
                   help="profile count for antichain (default 3)")
    # A flag left out takes the ScenarioConfig default.
    p.add_argument("--alpha", type=_rat, default=None)
    p.add_argument("--beta", type=_rat, default=None)
    p.add_argument("--matrix", type=_rows, default=None)
    p.add_argument("--stages", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--E", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--schedule", choices=SCHEDULES, default=None,
                   help="requirement order: window, the certified pairs only "
                   "(default), or full, the paper's order")
    p.add_argument("--outdir", default=None)
    p.set_defaults(fn=_cmd_scenario)


# Each command's subparser builder, in the order --help lists them.
_COMMANDS = {
    "blocks": _add_blocks, "map": _add_map, "machine": _add_machine,
    "poset": _add_poset, "construct": _add_construct, "verify": _add_verify,
    "scenario": _add_scenario,
}


def build_parser(argv=None) -> _Parser:
    """The command-line parser. When argv's first word names a command, only
    that command's subparser is built, as parsing argv reads no other; any
    other argv (help, no command, an unknown one) gets all of them.
    """
    parser = _Parser(prog="blockdensity", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    if argv and argv[0] in _COMMANDS:
        _COMMANDS[argv[0]](sub)
    else:
        for add in _COMMANDS.values():
            add(sub)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    # Commands read and print factorial-scale ints, past the interpreter's
    # default int<->str digit limit (Python 3.11+): lift it for this call only.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(2_000_000)
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return INTERNAL_ERROR
    finally:
        if lift:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
