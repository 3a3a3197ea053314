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

The twenty-four report and verify-report digests were re-pinned once more, on
purpose, when every stage record came to be checked in one pass reported as
one StageChecks certificate: each new report equals the old one with its
trailing run of DiagWitness lines, one per diagonalized record, replaced by
one StageChecks line. No transcript digest changed then.

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
            "report.jsonl": "65a8b86351e52545b56f128bcd9f312c5cc9da00b4d7e443cebd0774274e9329",
            "verify-report.jsonl": "19cd998f185954347cd5f36482c81f2e7704509f67b157510a614bb720dcecc5",
        },
    ),
    "antichain": (
        ["scenario", "antichain", "--n", "3", "--E", "6", "--schedule", "full"],
        {
            "transcript.jsonl": "2124b5cc5477bfb2800d5b54ea7cbb8eb8268232f39c88219e9e8befe009c043",
            "report.jsonl": "8290c4b00722be8267e98128efad9f04009f6bf3535e2fe567f8ef7648722c23",
            "verify-report.jsonl": "a6bced5a4c32140481e72606ae01f2dd447689afc43345abcd2597f10d0d5068",
        },
    ),
    # Covers CodedFamily.collapse, the IdentityDevice certificate and the
    # even/odd family.
    "combined": (
        ["scenario", "combined", "--count", "4", "--E", "4", "--schedule", "full"],
        {
            "transcript.jsonl": "d7665fe32de2aff1392acf85989ff7283ca2b8665c13cc114da385d5cb03d260",
            "report.jsonl": "34ab79f4e6b024aa50c58d70b678c4efb8cabc85713255717461cb248522d498",
            "verify-report.jsonl": "102b041a155b99f63cedaef24a344dd949cd53c5219a11603b96cd85eafbb44e",
        },
    ),
    # Witnesses at factorial scale.
    "rationals_e25": (
        ["scenario", "rationals", "--count", "4", "--E", "25",
         "--schedule", "full"],
        {
            "transcript.jsonl": "d509fafe8770ec1adc62fc9ba2d6d1467d4e8b24651b2818b42dc97f4d375836",
            "report.jsonl": "dbad4fb46f6c95283606d64b3c4c39201345f758b1ae543e70932c2818878bd8",
            "verify-report.jsonl": "b46cfae1eee430f5c51aa746710d6ac996f0b685b9ce2dd14d33567bd33ecb79",
        },
    ),
    "antichain_e12": (
        ["scenario", "antichain", "--n", "3", "--E", "12",
         "--schedule", "full"],
        {
            "transcript.jsonl": "10c6fb0dfe0493c1402724d5da3b7916f56d8b3859dc3d23684b2fcb67f58507",
            "report.jsonl": "d8034e9f31aa75cdddce78e3229a0f5d2282486d4f3fcd855b9fd60f26da6a91",
            "verify-report.jsonl": "624b55fdba4e0eb9ad6d924d4214bf9360f0bd045c84cf135a824866bcf9ed62",
        },
    ),
    "poset": (
        ["scenario", "poset", "--matrix", "111,011,001", "--E", "4",
         "--schedule", "full"],
        {
            "transcript.jsonl": "680dc410fd473ce9185c8a628371e28d4b974b1b77d5da12c652f80759c15c9f",
            "report.jsonl": "c13a0c788b354c3cee8df55bf3bb673fdce211ec0f0be871b8c27451d4fabd7a",
            "verify-report.jsonl": "e870df153d0a04b896319ab4550487fab9c99a6a26320c0241bd4eacaf47b180",
        },
    ),
}


# The GOLDEN commands with --schedule window: name -> digests.
WINDOW = {
    "rationals": {
        "transcript.jsonl": "6c1bdcadfee975ad6b7d17ae7c5ef67caf88bb7fe56f8fdc09f1cb578424e87f",
        "report.jsonl": "682e320d334e9ad7b79496960b602c107c8088e84d2e8c8f8169262f1d767a20",
        "verify-report.jsonl": "1bb3be07d98d3e30411e7b592fc5bf14e77672c79ac1a455ca0396285d84caa9",
    },
    "antichain": {
        "transcript.jsonl": "990524d75d6c75a129ba97d89176463ee57ee66a8bfb7d2caa0097ce2ce2b161",
        "report.jsonl": "c1016329ead393fce3345707192446ed9007cc59286773f6b49427051e4c2f3d",
        "verify-report.jsonl": "b84875c4d4d4471e4c0a92f4c17bc1671aacd4de6987a4046d6c58d09bae1036",
    },
    "combined": {
        "transcript.jsonl": "1b1e762ae258c4fde2393e275306152116981f3ea11b7c3df3bc7a14a7906490",
        "report.jsonl": "7de68712224b6899ad1c2a46683039a6558376a38a5756dbad1ba7e268e662aa",
        "verify-report.jsonl": "3365724dd6a8d307c5112615df85228d8ea1e49b0b7446fcd3c3950e80e549ec",
    },
    "rationals_e25": {
        "transcript.jsonl": "e6ddd5afd5cbd9d89a8fdb8bcc705069bfdb1f92847805e29167084b5f3474a4",
        "report.jsonl": "e47a79291c18fa78df17239b1dc70d75ffda7b8cd8abe355417f0d68c8a8d9bb",
        "verify-report.jsonl": "e77f8ad63c4ea1902633c23bb6f3a9a24fd6c2a263104a28222dcd08dc824dca",
    },
    "antichain_e12": {
        "transcript.jsonl": "13a9f92af7aab2177f6d5dba90b88e7e40415d5d686c1402ff90f8d5882c4e89",
        "report.jsonl": "a03465debca24e84d3376ff9b75dd3965c8b7f6a984e3b7f56ce80cba627552d",
        "verify-report.jsonl": "512fdf2a4a0115bf79a78ba262ae5f1df26829817936c7d096f5b3a93ea533be",
    },
    "poset": {
        "transcript.jsonl": "26b60b741edfa9776e11229791ffd4175c97be47aad84b46ace749797f339923",
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
