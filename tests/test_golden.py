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
exactly those edits made, line for line.

The twelve transcript digests were re-pinned once, on purpose, when
transcripts came to write witnesses as hex text instead of decimal: each new
transcript reads back, field for field, to the witness ints and other fields
of the decimal one it replaces. No report digest changed then.

The commands name --schedule full, the paper's requirement order, since the
scenario command came to default to the window schedule; their digests did
not change. WINDOW pins the same commands under the window schedule, which
runs only the requirements each scenario certifies.
"""

import hashlib

import pytest

from blockdensity.cli import main

GOLDEN = {
    "rationals": (
        ["scenario", "rationals", "--count", "3", "--E", "6", "--schedule", "full"],
        {
            "transcript.jsonl": "374bc65372ccd86474cee207cf4926343393af935aaa8188df7b8a3b8b195766",
            "report.jsonl": "77f5ad7d5b61673e71ec83e4a85161db648a3f4f64781998e6fbbd7c764dcfe6",
            "verify-report.jsonl": "678fedb6e9136f170f94cce8bb2ed82a0d39cd702316fdb6a3724ecfab12431a",
        },
    ),
    "antichain": (
        ["scenario", "antichain", "--n", "3", "--E", "6", "--schedule", "full"],
        {
            "transcript.jsonl": "2124b5cc5477bfb2800d5b54ea7cbb8eb8268232f39c88219e9e8befe009c043",
            "report.jsonl": "d814c356477dc9b75d463715917f0a12c910f8a53730f7193ea17d416b5ddd1c",
            "verify-report.jsonl": "7d5b83a3c74f4f5bcf2b70fc9a120b3afa48aa607a88159bbb438f66d4a10ed9",
        },
    ),
    # Covers CodedFamily.collapse, the IdentityDevice certificate and the
    # even/odd family.
    "combined": (
        ["scenario", "combined", "--count", "4", "--E", "4", "--schedule", "full"],
        {
            "transcript.jsonl": "d7665fe32de2aff1392acf85989ff7283ca2b8665c13cc114da385d5cb03d260",
            "report.jsonl": "f23d666e24ac5b6685d9834b3b19204b89c26fd28fbe01b7c7c97b6b54415c90",
            "verify-report.jsonl": "6c4b1e98f44b28d770ec5fb2dcd42f4fcf141fbe5edd928f40c9eceb519cc5f3",
        },
    ),
    # Witnesses at factorial scale.
    "rationals_e25": (
        ["scenario", "rationals", "--count", "4", "--E", "25",
         "--schedule", "full"],
        {
            "transcript.jsonl": "d509fafe8770ec1adc62fc9ba2d6d1467d4e8b24651b2818b42dc97f4d375836",
            "report.jsonl": "0f7f4fd8fe59ac3b9b3122a4c3eda73057b6a40271b555673a4cffa92084cd6c",
            "verify-report.jsonl": "9e93b6781ff90369fb7e3014f5de2864f4970af5a2ae72dc2da3cb2b9878a088",
        },
    ),
    "antichain_e12": (
        ["scenario", "antichain", "--n", "3", "--E", "12",
         "--schedule", "full"],
        {
            "transcript.jsonl": "10c6fb0dfe0493c1402724d5da3b7916f56d8b3859dc3d23684b2fcb67f58507",
            "report.jsonl": "d2951dd72d5ad7499cc7b8544ea6a3184c0dc897fa354bb289a65f738e5e4bf8",
            "verify-report.jsonl": "c7e70fbd5e69b2dc3bc5fdbb82aecb835b5569512a79e20ef951a4c0e9e434ca",
        },
    ),
    "poset": (
        ["scenario", "poset", "--matrix", "111,011,001", "--E", "4",
         "--schedule", "full"],
        {
            "transcript.jsonl": "680dc410fd473ce9185c8a628371e28d4b974b1b77d5da12c652f80759c15c9f",
            "report.jsonl": "9c484ddc092bce765b0f8289c8f77367840bacbe57d441b596788e4d6617f11c",
            "verify-report.jsonl": "82389f0340a31a07c2d65404a341f58e5fb69db79e4d6ceac33a39f72d8a6128",
        },
    ),
}


# The GOLDEN commands with --schedule window: name -> digests.
WINDOW = {
    "rationals": {
        "transcript.jsonl": "6c1bdcadfee975ad6b7d17ae7c5ef67caf88bb7fe56f8fdc09f1cb578424e87f",
        "report.jsonl": "05d154306e8cd4991d37e9dc8bc26d648b5f0af92ff829fdc96e48c2e7ac33de",
        "verify-report.jsonl": "cdf4ef811850768e5609a8b590de8854398941851bfa0c083632985926a30afe",
    },
    "antichain": {
        "transcript.jsonl": "990524d75d6c75a129ba97d89176463ee57ee66a8bfb7d2caa0097ce2ce2b161",
        "report.jsonl": "d80f31fe407f62ea4e2a1552fd71494ac380c02ce5decb32e5b4ecda68b44660",
        "verify-report.jsonl": "41f4099fb3c3789225ad54354e708fd43d269bc697f1dc21d147c38c13356974",
    },
    "combined": {
        "transcript.jsonl": "1b1e762ae258c4fde2393e275306152116981f3ea11b7c3df3bc7a14a7906490",
        "report.jsonl": "dcdb04346857fdc4231ee8f862988f9c6873bc40d53c74d84ab1e5963f7a10d9",
        "verify-report.jsonl": "ab19921d224bdfbebee1a98c6bd154db1146be95c332679ffa35b32ad524fa60",
    },
    "rationals_e25": {
        "transcript.jsonl": "e6ddd5afd5cbd9d89a8fdb8bcc705069bfdb1f92847805e29167084b5f3474a4",
        "report.jsonl": "75d6f8a1610719176603fff8189743b983b63ac405cd03dca1fde94a0f764fd9",
        "verify-report.jsonl": "97f329e3b6eef1885d04d9d738fb830c9fc6e7b131bf9d0eeb538a7d79d98db7",
    },
    "antichain_e12": {
        "transcript.jsonl": "13a9f92af7aab2177f6d5dba90b88e7e40415d5d686c1402ff90f8d5882c4e89",
        "report.jsonl": "78d50c7c4a6da98e600d0ea2d9ae31d14e54c317c70fe189fb4ce77920849806",
        "verify-report.jsonl": "1ccc52aabaef7d366eaebdf9bd61efaa97cfa791e1ad2eb32861f85ecd2a916d",
    },
    "poset": {
        "transcript.jsonl": "26b60b741edfa9776e11229791ffd4175c97be47aad84b46ace749797f339923",
        "report.jsonl": "254b63b7616a73f4d63bf5a551f7e5bb57911ad300b0572c0c57ae2bdaa7a608",
        "verify-report.jsonl": "c57cd4b89b16ef043272926df8810ca95067440e383a4f10d4f0854a4ad6421f",
    },
}


def _run_digests(argv, files, out):
    """Run scenario argv into out, verify it, and hash the named files."""
    assert main(argv + ["--outdir", str(out)]) == 0
    assert main([
        "verify", "--config", str(out / "config.json"),
        "--transcript", str(out / "transcript.jsonl"),
        "--report", str(out / "verify-report.jsonl"),
    ]) == 0
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_and_verify_outputs_are_byte_identical(name, tmp_path, capsys):
    argv, digests = GOLDEN[name]
    assert _run_digests(argv, digests, tmp_path / name) == digests
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(WINDOW))
def test_window_schedule_outputs_are_byte_identical(name, tmp_path, capsys):
    argv = GOLDEN[name][0][:-1] + ["window"]
    assert _run_digests(argv, WINDOW[name], tmp_path / name) == WINDOW[name]
    capsys.readouterr()
