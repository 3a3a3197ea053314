"""Out-of-band tracing of the blockdensity package, installed from outside it.

`Tracer.install` replaces chosen public functions and methods of the package
with recording shims: every module attribute that holds the original (the
package imports many functions by name) and every class attribute.  A shim
records a span (name, parent span, start, end) or only bumps a counter, and
never touches arguments or results, so the program's outputs stay the same.
`Tracer.remove` puts every original back; `Tracer.leftover_shims` lists any
shim still reachable, which the benchmark treats as a failed self-test.

Spans are kept in memory and summarised at the end: totals per span name and
self time per layer, where a layer is the package module a span belongs to
and a span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

PACKAGE = "blockdensity"

# (module, attribute) pairs wrapped with a timed span.  The span name is
# "<module>.<attribute>" and its layer is the module.
SPANNED = (
    ("cli", "main"),
    ("scenarios", "run_scenario"),
    ("scenarios", "verify_transcript"),
    ("scenarios", "write_report"),
    ("construction", "run_construction"),
    ("construction", "run_stage"),
    ("construction", "domination_search"),
    ("construction", "reconstruct_state"),
    ("construction", "Transcript.to_jsonl"),
    ("construction", "Transcript.write_jsonl"),
    ("construction", "Transcript.read_jsonl"),
    ("verify", "check_positive_reduction"),
    ("verify", "check_bfo_equivalence"),
    ("verify", "check_diag_witness"),
    ("verify", "check_defeat_bundle"),
    ("machine", "run_program"),
    ("machine", "tail_behavior"),
    ("posets", "UniversalPoset.ensure_depth"),
    ("posets", "UniversalPoset.ensure_size"),
    ("posets", "UniversalPoset.leq"),
    ("posets", "embed_finite"),
)

# Called millions of times per run, so counted without a span; their time
# stays in the caller's self time.
COUNTED = (("profiles", "GapCertificate.s"),)

_MARK = "_perfbench_shim"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._boxes: dict[str, list[int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installing and removing shims ---------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module("%s.%s" % (PACKAGE, name))
                   for name in {m for m, _ in SPANNED + COUNTED}}
        for module, attr in SPANNED:
            self._patch(modules[module], attr, self._span)
        for module, attr in COUNTED:
            self._patch(modules[module], attr, self._counter)

    def _patch(self, module, attr: str, make) -> None:
        name = "%s.%s" % (module.__name__.rsplit(".", 1)[-1], attr)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                shim = staticmethod(make(name, raw.__func__))
            else:
                shim = make(name, raw)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, shim)
            return
        original = getattr(module, attr)
        shim = make(name, original)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, shim)

    def remove(self) -> None:
        for owner, key, raw in reversed(self._patches):
            setattr(owner, key, raw)
        self._patches.clear()

    @staticmethod
    def leftover_shims() -> list[str]:
        """Names of package attributes that still hold a shim."""
        found = []
        for mod in _package_modules():
            for key, value in vars(mod).items():
                if _is_shim(value):
                    found.append("%s.%s" % (mod.__name__, key))
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for meth, raw in vars(value).items():
                        if _is_shim(raw):
                            found.append("%s.%s.%s" % (mod.__name__, key, meth))
        return found

    # -- shims ----------------------------------------------------------------

    def _span(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        before, after = self._observers(name)

        def shim(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            token = before(args) if before else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, stack[-1] if stack else -1, name, start, end)
            if after:
                after(args, result, token)
            return result

        return _mark(shim, fn)

    def _counter(self, name: str, fn):
        box = self._boxes.setdefault(name, [0])

        def shim(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return _mark(shim, fn)

    def _observers(self, name: str):
        """Hooks (before, after) that count facts from arguments or results."""
        counts = self.counts
        if name == "machine.run_program":
            def halted_steps(args, result, token):
                if type(result).__name__ == "Halted":
                    counts["machine.halted_steps"] += result.steps
            return None, halted_steps
        if name in ("posets.UniversalPoset.ensure_depth",
                    "posets.UniversalPoset.ensure_size"):
            def size(args):
                return args[0].size()

            def nodes_built(args, result, token):
                counts["posets.nodes_built"] += args[0].size() - token
            return size, nodes_built
        return None, None

    # -- summary --------------------------------------------------------------

    def summary(self) -> dict:
        """Totals per span name, self time per layer and the counters."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict[str, list] = {}
        self_s: dict[str, float] = defaultdict(float)
        root_s = 0.0
        for sid, parent, name, start, end in self.spans:
            duration = end - start
            entry = by_name.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += duration
            self_s[name.split(".")[0]] += duration - child_time[sid]
            if parent < 0:
                root_s += duration
        counts = dict(self.counts)
        for name, box in self._boxes.items():
            counts[name] = box[0]
        stage_ms = [(end - start) * 1e3 for _, _, name, start, end in self.spans
                    if name == "construction.run_stage"]
        return {
            "by_name": by_name,
            "self_s": dict(self_s),
            "root_s": root_s,
            "counts": counts,
            "stage_ms": stage_ms,
        }

    def write_spans(self, path: str, trace_id: str) -> None:
        """Spans as JSON Lines, times in seconds from the first span's start."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "trace": trace_id, "id": sid, "parent": parent, "name": name,
                    "start_s": round(start - origin, 9), "end_s": round(end - origin, 9),
                }) + "\n")


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _mark(shim, fn):
    shim = functools.wraps(fn)(shim)
    setattr(shim, _MARK, True)
    return shim


def _is_shim(value) -> bool:
    if isinstance(value, staticmethod):
        value = value.__func__
    return getattr(value, _MARK, False) is True
