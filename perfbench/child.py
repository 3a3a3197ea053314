"""One measured blockdensity process, started by run.py.

Usage: python3 child.py SPEC_JSON

SPEC_JSON names the package source directory ("src"), the address-space cap
in bytes ("rlimit_as"), where to write the JSON result ("result") and a mode:

- "import": only import blockdensity.cli and report the time it took;
- "cli": then run blockdensity.cli.main(SPEC["argv"]) with standard output
  sent to SPEC["sink"]; with SPEC["trace"] set, run it under tracer.Tracer
  and write its spans to SPEC["trace"]["spans"];
- "probe": then time the blocks and maps layers on a fresh CodedFamily
  (see probe()).

The result holds the import time, the command's wall time and exit code, and
the peak RSS of this process.  The cap is set on this process only, so a run
that outgrows it fails with MemoryError instead of exhausting the machine.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    cap = spec["rlimit_as"]
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, spec["src"])

    start = time.perf_counter()
    import blockdensity.cli as cli
    result = {"import_s": time.perf_counter() - start}

    if spec["mode"] == "cli":
        result.update(run_cli(cli, spec))
    elif spec["mode"] == "probe":
        result.update(probe(spec))
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def run_cli(cli, spec: dict) -> dict:
    import contextlib

    tracer = None
    if spec.get("trace"):
        sys.dont_write_bytecode = True
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out: dict = {}
    with open(spec["sink"], "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        try:
            out["rc"] = cli.main(spec["argv"])
        except Exception as exc:  # MemoryError under the cap, or an internal fault
            out["rc"] = None
            out["error"] = "%s: %s" % (type(exc).__name__, exc)
        out["wall_s"] = time.perf_counter() - start
    if tracer is not None:
        tracer.remove()
        out["leftover_shims"] = tracer.leftover_shims()
        out["trace"] = tracer.summary()
        tracer.write_spans(spec["trace"]["spans"], spec["trace"]["id"])
    return out


def probe(spec: dict) -> dict:
    """Extend a fresh CodedFamily to the run's frontier and time maps on it.

    blocks.extend_s times the extension through the public endpoint calls.
    blocks.cache_mb_computed is the summed size of the integers the block
    caches hold after it, computed from the public values, not read from
    memory.  maps.*_us time h_apply and h_fibers per call for profile 0 at
    block 12 and at the frontier block, on seeded sample points; SPEC["probe_calls"]
    gives the number of points at each.
    """
    import random

    from blockdensity.maps import CodedFamily
    from blockdensity.scenarios import ScenarioConfig, build_family

    with open(spec["config"], encoding="utf-8") as handle:
        config = ScenarioConfig.from_json(json.load(handle))
    family, _ = build_family(config)
    frontier = spec["frontier"]
    indices = range(config.count)

    coded = CodedFamily(family)
    start = time.perf_counter()
    coded.targets.endpoint(frontier + 1)
    for i in indices:
        coded.source(i).endpoint(frontier + 1)
    out = {"blocks.extend_s": time.perf_counter() - start}

    size = sys.getsizeof
    targets = coded.targets
    cache = sum(size(targets.endpoint(k)) + size(targets.size(k)) for k in range(frontier + 2))
    for i in indices:
        src = coded.source(i)
        cache += sum(size(targets.size(k)) + size(src.length(k)) for k in range(frontier + 1))
        cache += sum(size(src.endpoint(k)) for k in range(frontier + 2))
    out["blocks.cache_mb_computed"] = cache / 2**20

    rng = random.Random(spec["seed"])
    src = coded.source(0)
    for label, k in (("k12", 12), ("frontier", frontier)):
        b, length = src.endpoint(k), src.length(k)
        a, width = targets.endpoint(k), targets.size(k)
        calls = spec["probe_calls"][label]
        xs = [b + rng.randrange(length) for _ in range(calls)]
        ys = [a + rng.randrange(width) for _ in range(calls)]
        out["maps.h_apply_us." + label] = _per_call_us(lambda: [coded.h_apply(0, x) for x in xs], len(xs))
        out["maps.h_fibers_us." + label] = _per_call_us(lambda: [coded.h_fibers(0, y) for y in ys], len(ys))
    out["rc"] = 0
    return out


def _per_call_us(batch, calls: int, rounds: int = 3) -> float:
    """Median over rounds of the mean time per call, in microseconds."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        batch()
        times.append((time.perf_counter() - start) / calls * 1e6)
    times.sort()
    return times[len(times) // 2]


if __name__ == "__main__":
    sys.exit(main())
