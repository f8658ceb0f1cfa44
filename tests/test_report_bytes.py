"""Report bytes pinned across versions.

The other reproducibility tests compare two runs of the same code.  These
compare SHA-256 digests of whole reports against values recorded from an
earlier version, so a change to any byte of them fails here.  Only the
rational models appear: their tables are dyadic, so the bytes do not depend
on the platform's libm.
"""

import hashlib

import pytest

from retrobell.cli import main


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sample(model, label, settings, *extra):
    return ["sample", "--model", model, "--label", label, "--settings", settings,
            "--n", "20000", "--seed", "11", *extra]


PINNED = [
    (_sample("ghz", "0", "0,1,1"),
     "315628d458f23c0bab930e2aab1c99079ecf14243682d0ab82446e326ecd60d1"),
    (_sample("ghz", "bar", "0,1,1"),
     "597a79b13053b792695d5f57e91da8b002204bbed6b3bec68469c05308e99480"),
    (_sample("ghz", "0", "1,1,1"),
     "ab9af55c555e834bfe014d92214334d4e1512233a98d1045514226b86c53b12f"),
    (_sample("ghz", "bar", "1,1,1"),
     "36bfa6838dbefdd4ecc73f5d30522c53647b5bb79ea5b145eaeaade83ecfad4e"),
    (_sample("prbox", "pr", "0,0"),
     "18d94f7cc975beec381d9d1967932a0e5e80eb153b1ff83376692b7a95ea780e"),
    (_sample("prbox", "pr", "0,1"),
     "12748006180d110bfd608db25dd71fd3bb02a662060f009b9417a56a02abeacd"),
    (_sample("prbox", "pr", "1,0"),
     "0d58529d2fe72d9d07d3c8d0ebdddaf2b9e070a023774aab7a9345b9b2304e75"),
    (_sample("prbox", "pr", "1,1"),
     "746f3432c6406076fc40c7dc77b323af71773a4a08078662729a49c7cd530d5c"),
    # two shards pin the per-shard seed derivation and the merge
    (["sample", "--model", "ghz", "--label", "bar", "--settings", "1,0,1",
      "--n", "20001", "--seed", "11", "--threads", "2"],
     "ebb03bd5243a253b0389efe980090fef719cbe292c5e17e8665409630a752533"),
]


@pytest.mark.parametrize("argv, digest", PINNED,
                         ids=[" ".join(argv[2:7:2]) for argv, _ in PINNED])
def test_sample_report_bytes(capsys, argv, digest):
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out) == digest

