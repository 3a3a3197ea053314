"""Everything the benchmark's tracer wraps and its probe mode calls still
exists in the package.

perfbench/tracer.py names its targets as (module, attribute) pairs; one that
no longer resolves makes `perfbench/run.py --trace 1` fail. perfbench/child.py's
probe() times the blocks and maps layers through ScenarioConfig.from_json,
build_family, the targets' endpoint and size, each source's endpoint and
length, h_apply and h_fibers. Both files are compiled from their source here,
so no bytecode is written beside them.
"""

import importlib
import json
import types
from pathlib import Path

import pytest

from blockdensity.scenarios import ScenarioConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PROBE_METRICS = {
    "blocks.extend_s",
    "blocks.cache_mb_computed",
    "maps.h_apply_us.k12",
    "maps.h_apply_us.frontier",
    "maps.h_fibers_us.k12",
    "maps.h_fibers_us.frontier",
}


def _load(name):
    path = PERFBENCH / ("%s.py" % name)
    module = types.ModuleType("perfbench_" + name)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


tracer = _load("tracer")
TARGETS = tracer.SPANNED + tracer.COUNTED


@pytest.mark.parametrize("module, attr", TARGETS, ids=["%s.%s" % t for t in TARGETS])
def test_traced_attribute_resolves(module, attr):
    owner = importlib.import_module("%s.%s" % (tracer.PACKAGE, module))
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # The tracer patches a method in its class's own namespace.
    target = vars(owner)[name] if classes else getattr(owner, name)
    assert callable(getattr(target, "__func__", target)), (module, attr)


def test_probe_times_every_layer_on_a_small_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(ScenarioConfig("rationals", count=2).to_json()))
    spec = {"config": str(config), "frontier": 20, "seed": 1,
            "probe_calls": {"k12": 5, "frontier": 5}}
    out = _load("child").probe(spec)
    assert out.pop("rc") == 0
    assert set(out) == PROBE_METRICS
    assert all(value >= 0 for value in out.values())
