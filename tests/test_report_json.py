"""The JSON contract of the dataclass reports: keys, order and numpy inputs.

``SampleReport``, ``ScanReport`` and ``EmpiricalChshReport`` write each field
in field order under its name or a fixed rename.  The key lists below are the
ones every earlier version emitted.  A numpy integer where the API takes an
int must give the same text as the Python int.
"""

import json

import numpy as np
import pytest

from retrobell import (
    STANDARD_BELL_CONFIG,
    empirical_chsh,
    quantum_chsh_scan,
    sample_postselected,
)

SAMPLE_KEYS = [
    "model", "label", "settings", "requested", "accepted", "total_draws", "cap",
    "shards", "seed", "rng", "backend", "cells", "tv_distance", "max_abs_z",
    "z_gate", "acceptance", "unconditional", "conditioned_correlation", "pass",
]
SCAN_KEYS = ["max_S", "argmax", "bound", "resolution", "configs_scanned", "state"]
EMPIRICAL_CHSH_KEYS = ["S", "stderr", "n_per_pair", "seed", "rng", "config", "pairs"]


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


def test_empirical_chsh_report(bell_model):
    rep = empirical_chsh(bell_model, "lambda1", STANDARD_BELL_CONFIG, 1000, 3)
    assert list(rep.to_json_dict()) == EMPIRICAL_CHSH_KEYS
    same = empirical_chsh(bell_model, "lambda1", STANDARD_BELL_CONFIG, np.int64(1000), 3)
    assert _text(same) == _text(rep)
