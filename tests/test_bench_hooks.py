"""The package names the benchmark's traced run patches and calls must exist.

``bench/tracing.Tracer`` swaps package functions and methods for wrappers
by name, and entering it raises ``KeyError`` when one of them is gone;
``bench/tracing.unit_costs`` calls package functions with fixed signatures.
The tier-1 suite does not run the benchmark's own self-test, so these tests
run the tracer in a fresh interpreter, where its patches cannot leak into
other tests.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import tracing
import retrobell.backward as backward
import retrobell.cli as cli

before = (cli.main, backward.ColliderKernel.probability, backward.bell_prob)
with tracing.Tracer() as tracer:
    assert tracer._saved
    assert backward.ColliderKernel.probability is not before[1]
assert (cli.main, backward.ColliderKernel.probability, backward.bell_prob) == before
assert not tracer._saved
print("ok")
"""

#: ``unit_costs`` with each timed function called once instead of timed.
UNIT_COSTS = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import tracing

def once(fn):
    fn()
    return 1.0

tracing.per_call = once
print(" ".join(sorted(tracing.unit_costs())))
"""

UNIT_COST_KEYS = [
    f"dist.{op}{suffix}.us" for op in ("condition", "make_joint", "marginalize", "tv_distance")
    for suffix in ("", ".rational")
] + ["backward.assemble_joint.us", "backward.condition_on_lambda.us",
     "ghz.verify_ghz_recovery.ms", "quantum.bell_prob.ns", "sampling.sample_run.us"]


def run_script(template: str) -> str:
    script = template.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracer_enters_and_exits_on_the_current_package():
    assert run_script(SCRIPT) == "ok\n"


def test_unit_costs_call_the_current_package():
    assert run_script(UNIT_COSTS).split() == sorted(UNIT_COST_KEYS)
