"""Fast self-test of the benchmark.

Runs every workload once at reduced size, untraced and traced, and shows
that the correctness gate counts a failure when an expectation is wrong.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import harness

sys.path.insert(0, str(harness.SRC))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Command, gate  # noqa: E402

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_at_reduced_size(name):
    commands = WORKLOADS[name](3, small=True)
    result = run.measure_end_to_end(commands, seconds=0, setup_probes=1)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(commands) + 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_at_reduced_size(name):
    result = run.measure_traced(WORKLOADS[name](3, small=True), seconds=0)
    assert result["failed"] == 0
    assert result["summary"]["counters_repeat"]
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_same_seed_same_inputs():
    for build in WORKLOADS.values():
        assert build(7) == build(7)
    assert workloads.sample_postselect(7) != workloads.sample_postselect(8)


def test_gate_counts_a_counterexample_expected_to_pass():
    bell, counterexample = workloads.verify_dense(0, small=True)
    assert run.run_pass([bell, counterexample]).failed == 0
    wrong = replace(counterexample, expect={"si.pass": ("==", True)}, exit_code=0)
    stats = run.run_pass([bell, wrong])
    assert stats.failed == 1
    assert len(stats.problems[0]["problems"]) == 2  # exit code and si.pass


def test_gate_rejects_non_finite_json_and_missing_keys():
    cmd = Command(("chsh", "--lhv"), {"S_max": ("==", 2)})
    assert gate(cmd, 0, '{"results": {"S_max": 2}}') == []
    assert gate(cmd, 0, '{"results": {"S_max": NaN}}')
    assert gate(cmd, 0, '{"results": {}}')
    assert gate(cmd, 3, '{"results": {"S_max": 2}}')


def test_end_to_end_refused_while_traced():
    import tracing

    with tracing.Tracer():
        with pytest.raises(RuntimeError):
            run.measure_end_to_end([], seconds=0)


def test_fails_without_sources(tmp_path):
    shutil.copytree(harness.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
