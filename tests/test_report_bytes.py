"""Report bytes pinned across versions.

The other reproducibility tests compare two runs of the same code.  These
compare SHA-256 digests of whole reports, or their whole JSON, against values
recorded from an earlier version, so a change to any byte of them fails here.
Only dyadic values appear (the rational models, and Bell at angle 0, where
the cosine is 1), so the bytes do not depend on the platform's libm.
"""

import hashlib
import json

import pytest

from retrobell import bell_backward_model, ghz_backward_model, pr_backward_model
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


WITNESSES = {
    # int-given settings are reported checked, as floats
    "bell": (bell_backward_model, "lambda1", (0, 0), (1, 1), {
        "check": "lc_witness", "pass": True, "max_deviation": 0.25,
        "worst_case": {"label": "lambda1", "settings": [0.0, 0.0], "outcomes": [1, 1],
                       "product_of_wing_conditionals": 0.25, "joint_conditional": 0.5},
        "tolerance": 1e-12, "backend": "float"}),
    # an exact zero is the literal 0
    "prbox": (pr_backward_model, "lambda_pr", (1, 1), (1, 1), {
        "check": "lc_witness", "pass": True, "max_deviation": 0.25,
        "worst_case": {"label": "lambda_pr", "settings": [1, 1], "outcomes": [1, 1],
                       "product_of_wing_conditionals": 0.25, "joint_conditional": 0},
        "tolerance": 0, "backend": "rational"}),
    "ghz": (ghz_backward_model, "lambda0", (0, 1, 1), (1, 1, -1), {
        "check": "lc_witness", "pass": True, "max_deviation": 0.125,
        "worst_case": {"label": "lambda0", "settings": [0, 1, 1], "outcomes": [1, 1, -1],
                       "product_of_wing_conditionals": 0.125, "joint_conditional": 0.25},
        "tolerance": 0, "backend": "rational"}),
}


@pytest.mark.parametrize("name", WITNESSES)
def test_witness_report_bytes(name):
    build, label, settings, outcomes, expected = WITNESSES[name]
    report = build().lc_violation_witness(label, settings, outcomes)
    assert json.dumps(report.to_json_dict()) == json.dumps(expected)
