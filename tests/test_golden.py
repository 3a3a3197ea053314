"""Golden outputs: small scenarios plus verify must keep their exact bytes.

A speed-up counts only if transcripts and reports stay byte-identical for a
given config. The digests below were computed from the same commands before
the bisecting domination search and the record-level replay comparison
landed; the combined digests before the block caches shared one k! table;
the two factorial-scale cases, whose witnesses run to about 2,600 and 2,700
digits, before transcripts were written from running Decimal endpoints.
"""

import hashlib

import pytest

from blockdensity.cli import main

GOLDEN = {
    "rationals": (
        ["scenario", "rationals", "--count", "3", "--E", "6"],
        {
            "transcript.jsonl": "af5f065c518ebb6b201957cbd06d7a023703acf0fb916a8617e097db797df939",
            "report.jsonl": "e69e7001bc431bce0f8fe1952adb40a0ed4983033256e6621a68a74d665d388d",
            "verify-report.jsonl": "ea1b172513723498c5fee30da82a8a31a90bb2d8fa2de04c4b294cfca9d9f62c",
        },
    ),
    "antichain": (
        ["scenario", "antichain", "--n", "3", "--E", "6"],
        {
            "transcript.jsonl": "ecfeafba5b615b261f09707dfc4667edbab61ec9f300366682f999858e6ac6c4",
            "report.jsonl": "2e835a9de57102457734b5d7852abc8c928f01bb8aae907eb6d8d29215766af8",
            "verify-report.jsonl": "f0c1f4e30c77ed9c89b4268ec54880a9b7fcb7386a46a56952fe1f9a0d0a0906",
        },
    ),
    # Covers CodedFamily.collapse, the IdentityDevice certificate and the
    # even/odd family.
    "combined": (
        ["scenario", "combined", "--count", "4", "--E", "4"],
        {
            "transcript.jsonl": "ec732ec187a5941cbe4955d426f657aeac06ac5b0f41c6dfb5a3385f3fd14256",
            "report.jsonl": "5491b1a8be5ca1f13ffd10e0dd4caae80c99e02ab9963c8b9e1743f1df8396f4",
            "verify-report.jsonl": "138e5721ee2fb5103bd0b70a65ce0ee8dbf53c8bc8ceae2b7a5e65b755f6136d",
        },
    ),
    # Witnesses at factorial scale, written from Decimal block endpoints.
    "rationals_e25": (
        ["scenario", "rationals", "--count", "4", "--E", "25"],
        {
            "transcript.jsonl": "f73a88633d857ed941d72e12cb0ff1b93cb41daceea097066d6bc009864135e5",
            "report.jsonl": "b5219a1389460efe72b94ca5f74f4572050dd74bba1e3306391661baee9a70b7",
            "verify-report.jsonl": "210b8aab1eca1a71ea94aee852cc640843f2ab092b76649fc90d770cfe52ccbd",
        },
    ),
    "antichain_e12": (
        ["scenario", "antichain", "--n", "3", "--E", "12"],
        {
            "transcript.jsonl": "1015d199d3ee8ba1fafd033dbc719a0a34d6bbfcf5bbfe2a950ecceb2e7d552c",
            "report.jsonl": "8dc7a7617dde9f5902ed897c9313b56d39830c73c9248d62fe4073b547f05133",
            "verify-report.jsonl": "718f73915a6d2ca71f37d491b6621096430f3bd58373c04181b590c802542a66",
        },
    ),
    "poset": (
        ["scenario", "poset", "--matrix", "111,011,001", "--E", "4"],
        {
            "transcript.jsonl": "e309e3e4bc67e378cf3f19988db8b7b9e76a4cf1724326272aec2385b513b3d2",
            "report.jsonl": "9c484ddc092bce765b0f8289c8f77367840bacbe57d441b596788e4d6617f11c",
            "verify-report.jsonl": "82389f0340a31a07c2d65404a341f58e5fb69db79e4d6ceac33a39f72d8a6128",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_and_verify_outputs_are_byte_identical(name, tmp_path, capsys):
    argv, digests = GOLDEN[name]
    out = tmp_path / name
    assert main(argv + ["--outdir", str(out)]) == 0
    assert main([
        "verify", "--config", str(out / "config.json"),
        "--transcript", str(out / "transcript.jsonl"),
        "--report", str(out / "verify-report.jsonl"),
    ]) == 0
    capsys.readouterr()
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in digests}
    assert got == digests
