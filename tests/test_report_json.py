"""The JSON contract of the dataclass reports: keys, order and numpy inputs.

``CheckReport``, ``SampleReport`` and ``ScanReport`` write each field in
field order under its name or a fixed rename.  The key lists below are the
ones every earlier version emitted.  A numpy integer where the API takes an
int must give the same text as the Python int.
"""

import json
import math

import numpy as np
import pytest

from retrobell import (
    ANGLE,
    BackwardModel,
    ColliderKernel,
    LambdaSpace,
    Wing,
    entry_table,
    quantum_chsh_scan,
    sample_postselected,
)

CHECK_KEYS = ["check", "pass", "max_deviation", "worst_case", "tolerance", "backend"]
SAMPLE_KEYS = [
    "model", "label", "settings", "requested", "accepted", "total_draws", "cap",
    "shards", "seed", "rng", "backend", "cells", "tv_distance", "max_abs_z",
    "z_gate", "acceptance", "unconditional", "conditioned_correlation", "pass",
]
SCAN_KEYS = ["max_S", "argmax", "bound", "resolution", "configs_scanned", "state"]


def _text(report) -> str:
    return json.dumps(report.to_json_dict(), allow_nan=False)


@pytest.mark.parametrize("shards", [1, 3])
def test_sample_report(bell_model, shards):
    def run(n, seed):
        return sample_postselected(bell_model, "lambda2", (0.3, 1.1), n, seed, shards=shards)

    rep = run(2000, 5)
    assert list(rep.to_json_dict()) == SAMPLE_KEYS
    assert _text(run(np.int64(2000), np.int64(5))) == _text(rep)


def test_scan_report():
    rep = quantum_chsh_scan(1, 8)
    assert list(rep.to_json_dict()) == SCAN_KEYS
    assert _text(quantum_chsh_scan(np.int64(1), np.int64(8))) == _text(rep)


def test_check_report_with_a_nan_deviation():
    # a NaN kernel value fails kernel normalization; its report stays strict JSON
    labels = ("L1", "L2")
    wings = (Wing("a1", "s1", ANGLE, 0.5), Wing("a2", "s2", ANGLE, 0.5))
    kernel = entry_table(lambda o, s, label: math.nan if label == "L1" else 0.5, labels)
    model = BackwardModel("nan", wings, LambdaSpace(labels, (0.5, 0.5)),
                          ColliderKernel(labels, kernel), "float")
    rep = model.verify_kernel_normalization([(0.0, 1.0)])
    assert list(rep.to_json_dict()) == CHECK_KEYS
    doc = json.loads(_text(rep))
    assert doc["max_deviation"] == "nan" and doc["pass"] is False
    assert doc["worst_case"] == {"settings": [0.0, 1.0], "outcomes": [1, 1]}
