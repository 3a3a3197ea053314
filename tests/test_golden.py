"""Golden outputs: small scenarios plus verify must keep their exact bytes.

A speed-up counts only if transcripts and reports stay byte-identical for a
given config. The digests below were computed from the same commands before
the domination search bisected for its first candidate (it now reads that
candidate from the gap certificate in closed form) and before the
record-level replay comparison landed; the combined digests before the block caches shared one k! table;
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

The twenty-four report and verify-report digests were re-pinned once more, on
purpose, when every stage record came to be checked in one pass reported as
one StageChecks certificate: each new report equals the old one with its
trailing run of DiagWitness lines, one per diagonalized record, replaced by
one StageChecks line. No transcript digest changed then.

The twelve transcript digests were re-pinned once more, on purpose, when
stage records came to hold each witness as a signed offset from an anchor
its branch fixes (dx, dx2 and dy in place of x, x2 and y): each new
transcript reads back, field for field, to the old one, every old witness
being its anchor, b_j(k + 1) for a diagonalized record and b_i(k) otherwise,
plus the new offset. No report digest changed then.

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
            "transcript.jsonl": "8681f1139eef6654e4f69ffd4be473172ccc060ed84d5478cf1e841912bfaabf",
            "report.jsonl": "65a8b86351e52545b56f128bcd9f312c5cc9da00b4d7e443cebd0774274e9329",
            "verify-report.jsonl": "19cd998f185954347cd5f36482c81f2e7704509f67b157510a614bb720dcecc5",
        },
    ),
    "antichain": (
        ["scenario", "antichain", "--n", "3", "--E", "6", "--schedule", "full"],
        {
            "transcript.jsonl": "47de275c87d2fe9d93fb7cca2593c4f1ab343f20f2e37973b29f5b7e14e157df",
            "report.jsonl": "8290c4b00722be8267e98128efad9f04009f6bf3535e2fe567f8ef7648722c23",
            "verify-report.jsonl": "a6bced5a4c32140481e72606ae01f2dd447689afc43345abcd2597f10d0d5068",
        },
    ),
    # Covers CodedFamily.collapse, the IdentityDevice certificate and the
    # even/odd family.
    "combined": (
        ["scenario", "combined", "--count", "4", "--E", "4", "--schedule", "full"],
        {
            "transcript.jsonl": "484ff6defbea057a69b95a56a3318a9c2bb535f6538c18e368982a8fe4cd7d6a",
            "report.jsonl": "34ab79f4e6b024aa50c58d70b678c4efb8cabc85713255717461cb248522d498",
            "verify-report.jsonl": "102b041a155b99f63cedaef24a344dd949cd53c5219a11603b96cd85eafbb44e",
        },
    ),
    # Witnesses at factorial scale.
    "rationals_e25": (
        ["scenario", "rationals", "--count", "4", "--E", "25",
         "--schedule", "full"],
        {
            "transcript.jsonl": "465e055ed695f03965ab5b19dbd8afe9f09921a47ba33e2c73f578c13bc40782",
            "report.jsonl": "dbad4fb46f6c95283606d64b3c4c39201345f758b1ae543e70932c2818878bd8",
            "verify-report.jsonl": "b46cfae1eee430f5c51aa746710d6ac996f0b685b9ce2dd14d33567bd33ecb79",
        },
    ),
    "antichain_e12": (
        ["scenario", "antichain", "--n", "3", "--E", "12",
         "--schedule", "full"],
        {
            "transcript.jsonl": "a31929ef8c6ef003eacc6e30c6660a17f7df2a3f226ef8fd067879e0044d6224",
            "report.jsonl": "d8034e9f31aa75cdddce78e3229a0f5d2282486d4f3fcd855b9fd60f26da6a91",
            "verify-report.jsonl": "624b55fdba4e0eb9ad6d924d4214bf9360f0bd045c84cf135a824866bcf9ed62",
        },
    ),
    "poset": (
        ["scenario", "poset", "--matrix", "111,011,001", "--E", "4",
         "--schedule", "full"],
        {
            "transcript.jsonl": "0c887f8c1991197c8b8477f43899416504d7e3cb772b679b615a122c6b20c65f",
            "report.jsonl": "c13a0c788b354c3cee8df55bf3bb673fdce211ec0f0be871b8c27451d4fabd7a",
            "verify-report.jsonl": "e870df153d0a04b896319ab4550487fab9c99a6a26320c0241bd4eacaf47b180",
        },
    ),
}


# The GOLDEN commands with --schedule window: name -> digests.
WINDOW = {
    "rationals": {
        "transcript.jsonl": "dbb5c4b0226388ccb2d3e71dd937b49c00a673aca9a363ff76aef29d4c43e475",
        "report.jsonl": "682e320d334e9ad7b79496960b602c107c8088e84d2e8c8f8169262f1d767a20",
        "verify-report.jsonl": "1bb3be07d98d3e30411e7b592fc5bf14e77672c79ac1a455ca0396285d84caa9",
    },
    "antichain": {
        "transcript.jsonl": "666083d5e4f255d2cac7bb21d61fe8a1e8f6d8c3cca0080ffd9723bc79517c26",
        "report.jsonl": "c1016329ead393fce3345707192446ed9007cc59286773f6b49427051e4c2f3d",
        "verify-report.jsonl": "b84875c4d4d4471e4c0a92f4c17bc1671aacd4de6987a4046d6c58d09bae1036",
    },
    "combined": {
        "transcript.jsonl": "099abe9d79df54b5780355f2432c5f69d9cadb6e94ff1337ab625f0b45ee0548",
        "report.jsonl": "7de68712224b6899ad1c2a46683039a6558376a38a5756dbad1ba7e268e662aa",
        "verify-report.jsonl": "3365724dd6a8d307c5112615df85228d8ea1e49b0b7446fcd3c3950e80e549ec",
    },
    "rationals_e25": {
        "transcript.jsonl": "61a568a1f1e442351c218086ca946d06be8be302df6c0b29fbd084481ad10b7d",
        "report.jsonl": "e47a79291c18fa78df17239b1dc70d75ffda7b8cd8abe355417f0d68c8a8d9bb",
        "verify-report.jsonl": "e77f8ad63c4ea1902633c23bb6f3a9a24fd6c2a263104a28222dcd08dc824dca",
    },
    "antichain_e12": {
        "transcript.jsonl": "459b5a0b930d45cc67cdddda5b3c1d7dc5666800ccede243e34a1c1e38ea9bb3",
        "report.jsonl": "a03465debca24e84d3376ff9b75dd3965c8b7f6a984e3b7f56ce80cba627552d",
        "verify-report.jsonl": "512fdf2a4a0115bf79a78ba262ae5f1df26829817936c7d096f5b3a93ea533be",
    },
    "poset": {
        "transcript.jsonl": "4f40500801f3c707d4514b4e9c6021e6419e9f849b832d2a75e3a1983de980e3",
        "report.jsonl": "2159dd7e58f636f76374df26c29ed24747af98995e7e97ea26ab33efa451df40",
        "verify-report.jsonl": "177973ecaef7d38d6e14b2f1d0b3cc73d3be665e056912c755cb1e56f63b2b6c",
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
