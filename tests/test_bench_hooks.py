"""The package names the benchmark's traced run patches must exist.

``bench/tracing.Tracer`` swaps package functions and methods for wrappers
by name, and entering it raises ``KeyError`` when one of them is gone.  The
tier-1 suite does not run the benchmark's own self-test, so this test enters
and exits a tracer in a fresh interpreter, where its patches cannot leak
into other tests.
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


def test_tracer_enters_and_exits_on_the_current_package():
    script = SCRIPT.format(bench=str(ROOT / "bench"), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
