"""Golden outputs: small scenarios plus verify must keep their exact bytes.

A speed-up counts only if transcripts and reports stay byte-identical for a
given config. The digests below were computed from the same commands before
the bisecting domination search and the record-level replay comparison
landed; the combined digests before the block caches shared one k! table;
the two factorial-scale cases, whose witnesses run to about 2,600 and 2,700
digits, before transcripts were written from running Decimal endpoints.

The report digests of every case but poset were re-pinned once, on purpose,
when the positive certificates came to take a block count: their subjects
lost the element bound and the element_scan field and gained "blocks", and
their element_scan check went. Each new report equals the old one with
exactly those edits made, line for line. Every transcript digest and the
poset case's digests are unchanged.
"""

import hashlib

import pytest

from blockdensity.cli import main

GOLDEN = {
    "rationals": (
        ["scenario", "rationals", "--count", "3", "--E", "6"],
        {
            "transcript.jsonl": "af5f065c518ebb6b201957cbd06d7a023703acf0fb916a8617e097db797df939",
            "report.jsonl": "77f5ad7d5b61673e71ec83e4a85161db648a3f4f64781998e6fbbd7c764dcfe6",
            "verify-report.jsonl": "678fedb6e9136f170f94cce8bb2ed82a0d39cd702316fdb6a3724ecfab12431a",
        },
    ),
    "antichain": (
        ["scenario", "antichain", "--n", "3", "--E", "6"],
        {
            "transcript.jsonl": "ecfeafba5b615b261f09707dfc4667edbab61ec9f300366682f999858e6ac6c4",
            "report.jsonl": "d814c356477dc9b75d463715917f0a12c910f8a53730f7193ea17d416b5ddd1c",
            "verify-report.jsonl": "7d5b83a3c74f4f5bcf2b70fc9a120b3afa48aa607a88159bbb438f66d4a10ed9",
        },
    ),
    # Covers CodedFamily.collapse, the IdentityDevice certificate and the
    # even/odd family.
    "combined": (
        ["scenario", "combined", "--count", "4", "--E", "4"],
        {
            "transcript.jsonl": "ec732ec187a5941cbe4955d426f657aeac06ac5b0f41c6dfb5a3385f3fd14256",
            "report.jsonl": "f23d666e24ac5b6685d9834b3b19204b89c26fd28fbe01b7c7c97b6b54415c90",
            "verify-report.jsonl": "6c4b1e98f44b28d770ec5fb2dcd42f4fcf141fbe5edd928f40c9eceb519cc5f3",
        },
    ),
    # Witnesses at factorial scale, written from Decimal block endpoints.
    "rationals_e25": (
        ["scenario", "rationals", "--count", "4", "--E", "25"],
        {
            "transcript.jsonl": "f73a88633d857ed941d72e12cb0ff1b93cb41daceea097066d6bc009864135e5",
            "report.jsonl": "0f7f4fd8fe59ac3b9b3122a4c3eda73057b6a40271b555673a4cffa92084cd6c",
            "verify-report.jsonl": "9e93b6781ff90369fb7e3014f5de2864f4970af5a2ae72dc2da3cb2b9878a088",
        },
    ),
    "antichain_e12": (
        ["scenario", "antichain", "--n", "3", "--E", "12"],
        {
            "transcript.jsonl": "1015d199d3ee8ba1fafd033dbc719a0a34d6bbfcf5bbfe2a950ecceb2e7d552c",
            "report.jsonl": "d2951dd72d5ad7499cc7b8544ea6a3184c0dc897fa354bb289a65f738e5e4bf8",
            "verify-report.jsonl": "c7e70fbd5e69b2dc3bc5fdbb82aecb835b5569512a79e20ef951a4c0e9e434ca",
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
