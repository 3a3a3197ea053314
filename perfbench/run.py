#!/usr/bin/env python3
"""Benchmark of the blockdensity command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload rationals-e50 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Each workload is one `scenario` command followed by its check in a second
process.  Every command runs in a fresh child process (child.py) that caps
its own address space at 4 GiB, imports blockdensity.cli from src/ and calls
blockdensity.cli.main with README-style arguments, its listing going to a
file.  Processes run one at a time.

--trace 0 repeats the workload for about --seconds seconds (see measure)
and reports the end-to-end metrics as medians over the repetitions, with
times scaled by the host's speed during each command (see PROBE_PERIOD_S).
--trace 1 runs the workload once untraced and once under tracer.Tracer,
probes the blocks and maps layers, and reports the per-layer metrics.
Spans are written to .perfbench_runs/spans-<workload>-<process>.jsonl.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

RLIMIT_AS = 4 * 2**30
RUN_DEADLINE_S = 170.0     # a run must end within 180 s, set-up included
SETUP_SAMPLES = 8          # import-only processes per untraced run
MIN_REPETITIONS = 3        # a median needs three samples, even past --seconds,
STRETCH = 2.0              # but a run stops at STRETCH * --seconds
# Sample points per maps probe.  A call at the frontier block divides
# integers of tens of thousands of bits and takes milliseconds.
PROBE_CALLS = {"k12": 2000, "frontier": 40}

# A shared host's CPU speed swings by up to 2x within seconds, and each CPU
# swings on its own.  So the benchmark keeps itself and its children on one
# CPU and, while a child runs, wakes every PROBE_PERIOD_S to time
# probe_kernel (which runs no code of the package) on that CPU.  A child's
# times are scaled by PROBE_REF_S / (the probe's time during it, see
# host_factor): they read as seconds on a host that runs the probe in
# PROBE_REF_S.  The probe takes well under a scheduler slice, about 1% of
# the CPU.
PROBE_PERIOD_S = 0.05
PROBE_REF_S = 0.00025

CONSTRUCTION = {
    "rationals-e50": ["scenario", "rationals", "--count", "4"],
    "antichain-e25": ["scenario", "antichain", "--n", "3", "--E", "25"],
}
UNIVERSAL = "universal-6"
UNIVERSAL_POINTS = 6
WORKLOADS = (*CONSTRUCTION, UNIVERSAL)

# sha256 of the outputs at the commit that defined this benchmark.  A change
# to the stage schedule or the file formats may change them on purpose, so a
# mismatch is reported as scenarios.outputs_match_seed = 0, not as a failure.
# For universal-6 only the report lines after the first are pinned: the first
# one embeds the poset drawn from --seed.
SEED_DIGESTS = {
    "rationals-e50": {
        "transcript.jsonl": "536f89e7e3320c6b5b73a0a62eb01a638a17fd14a4ba2144a5f93f7c7bbd6120",
        "report.jsonl": "cff23ec2ffb16d527023dde078d18638621206ca8e9d89336b0a45a70d9a4949",
        "verify-report.jsonl": "1fcf2695fe40d883963092c4149c0dd95dda544975518971d8af0876b49bdacf",
    },
    "antichain-e25": {
        "transcript.jsonl": "8afac2c0c466e77ed046a35e57c6fd5667a97343b3851c4681af6e55c84ecb1b",
        "report.jsonl": "51a5dadb83f6fee4a67dce85774e2dcaef15f3f3bff096d0c2d6bbebe0c92f62",
        "verify-report.jsonl": "83ec856f6f87907eabde4b6a91789ef8332bf85813e16b25f7f1744d6e54c118",
    },
    UNIVERSAL: {
        "report.jsonl:fixed-samples": "291667911169a71ed6998724890c651f210e8a43ad77a9859c803007a58b660f",
    },
}

# Certificate kind -> the checker that produces it.
CHECKERS = {
    "PositiveReduction": "verify.check_positive_reduction",
    "BfoEquivalence": "verify.check_bfo_equivalence",
    "DiagWitness": "verify.check_diag_witness",
    "DefeatBundle": "verify.check_defeat_bundle",
}
BRANCHES = ("diagonalized", "non_injective", "non_total_under_budget")
SELF_LAYERS = ("cli", "scenarios", "construction", "verify", "machine", "posets")


def random_poset_rows(rng: random.Random, n: int) -> list[str]:
    """A transitively closed n-point partial order as 0/1 rows (a <= b)."""
    order = list(range(n))
    rng.shuffle(order)
    leq = [[a == b for b in range(n)] for a in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            if rng.random() < 0.4:
                leq[order[p]][order[q]] = True
    for m in range(n):
        for a in range(n):
            if leq[a][m]:
                for b in range(n):
                    if leq[m][b]:
                        leq[a][b] = True
    return ["".join("1" if v else "0" for v in row) for row in leq]


def probe_kernel() -> int:
    """Fixed work like the package's: tuple keys, fractions, big integers.

    Its share of big-integer decimal conversion (what JSONL encoding of the
    endpoints does) makes it follow antichain-e25's swings as well as the
    interpreter-bound workloads'.
    """
    table = {}
    for i in range(300):
        table[(i, i & 15, i >> 4)] = i
    acc = sum(table.get((i >> 1, (i >> 1) & 15, i >> 5), 0) for i in range(300))
    q = Fraction(0)
    for i in range(1, 20):
        q = (q + Fraction(i % 97, i)).limit_denominator(10**6)
    big = 3 ** 4000
    for i in range(1, 3):
        acc ^= (big * i * i) % (big + i)
    return acc + q.numerator + len(str(7 ** 3000))


def probe() -> float:
    """Seconds for one probe_kernel run, after one untimed run.

    The child evicts the probe's code and data from the caches; the untimed
    run brings them back, so the timed one depends on the CPU's speed, not
    on what the child did to the caches.
    """
    probe_kernel()
    start = time.perf_counter()
    probe_kernel()
    return time.perf_counter() - start


def host_factor(probes: list[float]) -> float:
    """PROBE_REF_S over the mean probe time, without the slowest tenth.

    The slowest probes are those the child preempted.  A mean, not a
    median, follows the share of time the CPU spent slow.
    """
    kept = sorted(probes)[:len(probes) - len(probes) // 10]
    return PROBE_REF_S / statistics.mean(kept)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def spans_path(workload: str, proc: str) -> Path:
    return RUNS / ("spans-%s-%s.jsonl" % (workload, proc))


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """One benchmark run of one workload: its child processes and their tally."""

    def __init__(self, workload: str, seed: int, started: float) -> None:
        self.workload = workload
        self.seed = seed
        self.started = started
        self.work = RUNS / ("%s-%d" % (workload, os.getpid()))
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        if workload == UNIVERSAL:
            rows = random_poset_rows(random.Random(seed), UNIVERSAL_POINTS)
            self.scenario_argv = ["scenario", "universal", "--matrix", ",".join(rows)]
        else:
            self.scenario_argv = list(CONSTRUCTION[workload])
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.import_s: list[float] = []      # scaled, see PROBE_REF_S
        self.probe_s: list[float] = []

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def child(self, mode: str, name: str, **spec) -> dict | None:
        """Run child.py; its result, or None when the process failed.

        The result's "scale" is host_factor of the probes taken while the
        process ran.
        """
        result_path = self.work / (name + ".result.json")
        result_path.unlink(missing_ok=True)
        spec.update(mode=mode, src=str(SRC), rlimit_as=RLIMIT_AS,
                    result=str(result_path), sink=str(self.work / (name + ".out")))
        err_path = self.work / (name + ".err")
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            probes = []
            try:
                while True:
                    probes.append(probe())
                    if proc.poll() is not None:
                        break
                    if self.remaining() < 0:
                        return self.problem(name, "timed out")
                    time.sleep(PROBE_PERIOD_S)
                code = proc.returncode
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0 or not result_path.exists():
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-400:]
            return self.problem(name, "exit status %d: %s" % (code, tail.strip()))
        result = json.loads(result_path.read_text(encoding="utf-8"))
        self.probe_s += probes
        result["scale"] = host_factor(probes)
        self.import_s.append(result["import_s"] * result["scale"])
        return result

    def problem(self, name: str, why: str) -> None:
        self.problems.append("%s: %s" % (name, why))
        return None

    def failed_op(self, name: str, why: str) -> None:
        self.failed += 1
        return self.problem(name, why)

    def op(self, mode: str, name: str, **spec) -> dict | None:
        """A counted operation: a CLI command or a probe that must succeed."""
        self.attempted += 1
        result = self.child(mode, name, **spec)
        if result is None:
            self.failed += 1
            return None
        if result.get("rc") != 0:
            return self.failed_op(name, "exit code %r %s"
                                  % (result.get("rc"), result.get("error", "")))
        return result

    def _all_pass(self, name: str, report: Path) -> bool:
        if not report.exists():
            self.failed_op(name, "no %s written" % report.name)
            return False
        bad = [c["kind"] for c in read_jsonl(report) if c["verdict"] != "PASS"]
        if bad:
            self.failed_op(name, "certificates not PASS: %s" % ", ".join(bad[:5]))
        return not bad

    def iteration(self, label: str, trace: bool) -> dict | None:
        """Scenario then its check; timings, outputs and digests, or None."""
        out = self.work / ("out-" + label)
        shutil.rmtree(out, ignore_errors=True)

        def traced(proc: str) -> dict | None:
            if not trace:
                return None
            return {"spans": str(spans_path(self.workload, proc)),
                    "id": "%s-%s-seed%d" % (self.workload, proc, self.seed)}

        scen = self.op("cli", label + "-scenario", trace=traced("scenario"),
                       argv=self.scenario_argv + ["--outdir", str(out)])
        if scen is None or not self._all_pass(label + "-scenario", out / "report.jsonl"):
            return None
        if self.workload == UNIVERSAL:
            rows = json.loads((out / "config.json").read_text(encoding="utf-8"))["poset"]
            ver = self.op("cli", label + "-verify", trace=traced("verify"),
                          argv=["poset", "embed", "--matrix", ",".join(rows)])
            if ver is None:
                return None
            listing = (self.work / (label + "-verify.out")).read_text(encoding="utf-8").strip()
            reported = read_jsonl(out / "report.jsonl")[0]["checks"][0]["images"]
            if [int(v) for v in listing.split(",")] != reported:
                return self.failed_op(label + "-verify", "re-embedding gave %s, report has %s"
                                    % (listing, reported))
            lines = (out / "report.jsonl").read_bytes().splitlines(keepends=True)
            digests = {"report.jsonl": sha256(out / "report.jsonl"),
                       "report.jsonl:fixed-samples": hashlib.sha256(b"".join(lines[1:])).hexdigest()}
        else:
            ver = self.op("cli", label + "-verify", trace=traced("verify"),
                          argv=["verify", "--config", str(out / "config.json"),
                                "--transcript", str(out / "transcript.jsonl"),
                                "--report", str(out / "verify-report.jsonl")])
            if ver is None or not self._all_pass(label + "-verify", out / "verify-report.jsonl"):
                return None
            digests = {name: sha256(out / name)
                       for name in ("transcript.jsonl", "report.jsonl", "verify-report.jsonl")}
        return {"scenario": scen, "verify": ver, "out": out, "digests": digests}

    def matches_seed(self, digests: dict) -> bool:
        return all(digests.get(k) == v for k, v in SEED_DIGESTS[self.workload].items())


def measure(run: Run, seconds: int) -> tuple[dict, list[str]]:
    """Untraced: repeat the workload for about `seconds`, medians of each metric.

    Times are scaled by the probes taken during each process (see
    PROBE_REF_S); the notes give the unscaled medians.

    A repetition starts while the run would end nearer to `seconds` with it
    than without it.  Below MIN_REPETITIONS, one also starts while the run
    would end within STRETCH * `seconds`.
    """
    for n in range(SETUP_SAMPLES):
        run.child("import", "setup-%d" % n)
    iterations = []
    begin = time.perf_counter()
    while True:
        it = run.iteration("run", trace=False)
        if it is None:
            break
        iterations.append(it)
        elapsed = time.perf_counter() - begin
        per_iteration = elapsed / len(iterations)
        if 1.5 * per_iteration > run.remaining():
            break
        nearer = elapsed + per_iteration / 2 <= seconds
        stretch = (len(iterations) < MIN_REPETITIONS
                   and elapsed + per_iteration <= STRETCH * seconds)
        if not (nearer or stretch):
            break
    notes = []
    if iterations:
        first = iterations[0]["digests"]
        if any(it["digests"] != first for it in iterations[1:]):
            run.problem("outputs", "they differ between repetitions of the same config")
        notes.append("scenarios.outputs_match_seed %d" % run.matches_seed(first))
    notes.append("repetitions %d" % len(iterations))
    notes.append("probe median %.3g s over %d probes, reference %.3g s"
                 % (median(run.probe_s), len(run.probe_s), PROBE_REF_S))
    for proc in ("scenario", "verify"):
        notes.append("unscaled %s_s median %.4f" % (proc, median(
            [it[proc]["wall_s"] for it in iterations])))
        notes.append("samples %s_s %s" % (proc, " ".join(
            "%.4f/%.4f" % (it[proc]["wall_s"], it[proc]["scale"]) for it in iterations)))
    metrics = {
        "setup_s": median(run.import_s),
        "scenario_s": median([it["scenario"]["wall_s"] * it["scenario"]["scale"]
                              for it in iterations]),
        "verify_s": median([it["verify"]["wall_s"] * it["verify"]["scale"]
                            for it in iterations]),
        "scenario_rss_mb": median([it["scenario"]["rss_mb"] for it in iterations]),
        "verify_rss_mb": median([it["verify"]["rss_mb"] for it in iterations]),
    }
    return metrics, notes


def trace_layers(run: Run) -> tuple[dict, list[str]]:
    """Traced: one untraced and one traced pass, a probe, per-layer metrics."""
    plain = run.iteration("plain", trace=False)
    traced = run.iteration("traced", trace=True) if plain is not None else None
    if traced is None:
        return {}, []
    scen, ver = traced["scenario"], traced["verify"]
    procs = (scen, ver)

    for name, proc in (("scenario", scen), ("verify", ver)):
        if proc["leftover_shims"]:
            run.problem("self-test", "tracer left shims in the %s process: %s"
                        % (name, ", ".join(proc["leftover_shims"])))
        self_total = sum(proc["trace"]["self_s"].values())
        if self_total > proc["wall_s"] + 1e-6:
            run.problem("self-test", "%s self times sum to %.6f s, above the wall time %.6f s"
                        % (name, self_total, proc["wall_s"]))
    if traced["digests"] != plain["digests"]:
        run.problem("self-test", "traced outputs differ from untraced outputs")

    def total(name, *ps):
        return sum(p["trace"]["by_name"].get(name, (0, 0.0))[1] for p in ps)

    def calls(name, *ps):
        return sum(p["trace"]["by_name"].get(name, (0, 0.0))[0] for p in ps)

    def count(name, *ps):
        return sum(p["trace"]["counts"].get(name, 0) for p in ps)

    out = traced["out"]
    m: dict[str, float] = {}
    m["construction.run_construction_s"] = total("construction.run_construction", scen)
    m["construction.replay_s"] = total("construction.run_construction", ver)
    stage_ms = sorted(scen["trace"]["stage_ms"])
    m["construction.stage_ms.p50"] = median(stage_ms)
    m["construction.stage_ms.p95"] = stage_ms[int(0.95 * (len(stage_ms) - 1))] if stage_ms else 0.0
    m["construction.domination_search_s"] = total("construction.domination_search", *procs)
    selector = count("profiles.GapCertificate.s", *procs)
    m["profiles.selector_calls"] = selector
    m["construction.search_hit_ratio"] = (
        calls("construction.run_stage", *procs) / selector if selector else 0.0)

    records = read_jsonl(out / "transcript.jsonl") if run.workload != UNIVERSAL else []
    m["construction.stages"] = len(records)
    m["construction.frontier_block"] = records[-1]["M_after"] if records else 0
    for branch in BRANCHES:
        m["construction.branch." + branch] = sum(r["branch"] == branch for r in records)
    m["construction.transcript_encode_s"] = total("construction.Transcript.to_jsonl", *procs)
    m["construction.transcript_encode_calls"] = calls("construction.Transcript.to_jsonl", *procs)
    m["construction.transcript_decode_s"] = total("construction.Transcript.read_jsonl", *procs)
    m["construction.transcript_mb"] = (
        (out / "transcript.jsonl").stat().st_size / 2**20 if records else 0.0)
    m["scenarios.report_write_s"] = total("scenarios.write_report", *procs)
    m["scenarios.report_mb"] = (out / "report.jsonl").stat().st_size / 2**20

    for kind, checker in CHECKERS.items():
        m["verify.%s.s" % kind] = total(checker, *procs)
        m["verify.%s.count" % kind] = calls(checker, *procs)
    diag_checks = calls("verify.check_diag_witness", ver)
    m["verify.diag_check_useful_ratio"] = (
        m["construction.branch.diagonalized"] / diag_checks if diag_checks else 0.0)

    probe_keys = ("blocks.extend_s", "blocks.cache_mb_computed",
                  "maps.h_apply_us.k12", "maps.h_apply_us.frontier",
                  "maps.h_fibers_us.k12", "maps.h_fibers_us.frontier")
    probe = None
    if records:
        probe = run.op("probe", "probe", config=str(out / "config.json"),
                       frontier=m["construction.frontier_block"],
                       seed=run.seed, probe_calls=PROBE_CALLS)
    for key in probe_keys:
        m[key] = probe[key] if probe else 0.0

    m["machine.run_program_calls"] = calls("machine.run_program", *procs)
    m["machine.run_program_s"] = total("machine.run_program", *procs)
    m["machine.tail_behavior_calls"] = calls("machine.tail_behavior", *procs)
    m["machine.tail_behavior_s"] = total("machine.tail_behavior", *procs)
    m["machine.halted_steps"] = count("machine.halted_steps", *procs)
    m["posets.ensure_depth_s"] = (total("posets.UniversalPoset.ensure_depth", *procs)
                                  + total("posets.UniversalPoset.ensure_size", *procs))
    m["posets.nodes_built"] = count("posets.nodes_built", *procs)
    m["posets.leq_calls"] = calls("posets.UniversalPoset.leq", *procs)
    m["posets.leq_s"] = total("posets.UniversalPoset.leq", *procs)
    m["posets.embed_s"] = total("posets.embed_finite", *procs)
    for layer in SELF_LAYERS:
        m[layer + ".self_s"] = sum(p["trace"]["self_s"].get(layer, 0.0) for p in procs)
    m["scenarios.outputs_match_seed"] = int(run.matches_seed(traced["digests"]))
    m["trace.overhead_s"] = scen["wall_s"] - plain["scenario"]["wall_s"]

    notes = ["spans %s" % spans_path(run.workload, p) for p in ("scenario", "verify")]
    return m, notes


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    units = declared_units(trace)
    run = Run(workload, seed, time.perf_counter())
    try:
        run.child("import", "warm-up")   # writes bytecode caches; not timed
        run.import_s.clear()
        values, notes = trace_layers(run) if trace else measure(run, seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if values and set(values) != set(units):
        raise SystemExit("metrics %s do not match BENCHMARK.json"
                         % sorted(set(values) ^ set(units)))
    print("# workload %s seed %d trace %d" % (workload, seed, int(trace)))
    print("# command %s" % " ".join(run.scenario_argv))
    for note in notes:
        print("# " + note)
    for problem in run.problems:
        print("# FAILED " + problem)
    for name, value in values.items():
        print("%-40s %.6g %s" % (name, value, units[name]))
    print("%-40s %d" % ("ops_attempted", run.attempted))
    print("%-40s %d" % ("ops_failed", run.failed))
    return {
        "correct": not run.problems and bool(values),
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "blockdensity" / "cli.py").is_file():
        print("error: no blockdensity package under %s" % SRC, file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("error: no BENCHMARK.json in %s" % ROOT, file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    # One CPU for this process and its children, so the probes time the CPU
    # the commands run on (see PROBE_PERIOD_S).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Unwind on SIGTERM too, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
