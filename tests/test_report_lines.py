"""Report lines are json.dumps's bytes.

write_report writes each certificate as Certificate.line gives it, through
one module-level JSON encoder. This test holds every line to
json.dumps(cert.to_json()) + "\n" on the real certificate lists of each
scenario kind and of verify.
"""

import json

import pytest

from blockdensity.scenarios import (
    ScenarioConfig, run_scenario, verify_transcript, write_outputs, write_report,
)

CONFIGS = {
    "rationals": ScenarioConfig("rationals", count=3, e_bound=3, k_max=6, schedule="window"),
    "antichain": ScenarioConfig("antichain", count=3, e_bound=2, k_max=6, schedule="window"),
    "combined": ScenarioConfig("combined", count=3, e_bound=2, k_max=6),
    "poset": ScenarioConfig("poset", poset_rows=("111", "011", "001"), e_bound=2, k_max=6,
                            schedule="window"),
    "universal": ScenarioConfig("universal", poset_rows=("11", "01")),
}


@pytest.fixture(scope="module")
def cert_lists(tmp_path_factory):
    """name -> the certificates of a scenario run, or of verify on its files."""
    out = {}
    for kind, config in CONFIGS.items():
        outdir = tmp_path_factory.mktemp(kind)
        result = run_scenario(config)
        write_outputs(result, outdir)
        out[kind] = result.certificates
        if result.transcript is not None:
            out[kind + "-verify"] = verify_transcript(config, outdir / "transcript.jsonl")
    return out


def dumps_lines(certs):
    return "".join(json.dumps(cert.to_json()) + "\n" for cert in certs)


def test_every_real_report_line_is_json_dumps(cert_lists, tmp_path):
    assert len(cert_lists) == 9
    for name, certs in cert_lists.items():
        path = tmp_path / ("%s.jsonl" % name)
        write_report(certs, path)
        assert path.read_text(encoding="utf-8") == dumps_lines(certs), name
