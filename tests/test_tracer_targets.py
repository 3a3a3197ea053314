"""Every function the benchmark's tracer wraps still exists in the package.

perfbench/tracer.py names its targets as (module, attribute) pairs; one that
no longer resolves makes `perfbench/run.py --trace 1` fail. The tracer is
compiled from its source here, so no bytecode is written beside it.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(module))
    return module


tracer = _load_tracer()
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
