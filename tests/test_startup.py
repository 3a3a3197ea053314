"""Importing the command line stays cheap and leaves the interpreter alone:
no module it loads pulls in dataclasses, whose import brings inspect, ast, dis
and tokenize along, and the int<->str digit limit keeps its value."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs under -I -S, so neither the environment nor site-packages adds modules,
# and -B, since -I ignores PYTHONDONTWRITEBYTECODE.
PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
digits = getattr(sys, "get_int_max_str_digits", lambda: None)
limit = digits()
import blockdensity.cli
assert digits() == limit, (limit, digits())
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_dataclasses():
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    loaded = set(json.loads(out))
    assert "blockdensity.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
