"""The package surface: lazy public exports and the numpy-free commands."""

import contextlib
import io
import subprocess
import sys
from pathlib import Path

import pytest

import retrobell
from retrobell.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every public name, by the module that defines it.
PUBLIC = {
    "backward": [
        "ANGLE", "BINARY", "BackwardModel", "ColliderKernel", "LambdaSpace", "Wing",
        "bell_backward_model", "bell_table", "collider_model",
        "default_grid", "entry_table", "settings_grid", "sign_of",
        "signalling_counterexample_model", "verify_no_signalling_all",
    ],
    "chsh": [
        "LHV_BOUND", "PR_BOUND", "PR_BOX_CONFIG", "STANDARD_BELL_CONFIG",
        "TSIRELSON_BOUND", "ChshConfig", "ScanReport", "backward_model_chsh",
        "chsh_value", "lhv_max_chsh", "pr_backward_model", "quantum_chsh_scan",
    ],
    "dist": [
        "FLOAT", "FLOAT_TOL", "RATIONAL", "ConstructionError", "DistributionError",
        "Joint", "NullEvidenceError", "Variable", "VariableMismatchError", "condition",
        "expectation", "make_joint", "marginalize", "tv_distance",
    ],
    "ghz": [
        "ExhaustionReport", "GHZ_CONSTRAINTS", "classical_assignment_exhaustion",
        "ghz_backward_model", "verify_ghz_recovery",
    ],
    "quantum": [
        "AXES", "BELL_STATES", "OUTCOMES", "angle_grid", "bell_expectation", "bell_prob",
        "ghz_prob", "pr_prob",
    ],
    "reports": ["CheckReport"],
    "sampling": [
        "AcceptanceCapError", "RNG_ALGORITHM", "RunRecord", "SampleReport", "Z_GATE",
        "make_rng", "sample_postselected", "sample_run",
    ],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


@pytest.mark.parametrize("module, name",
                         [(m, n) for m, names in PUBLIC.items() for n in names])
def test_public_name_is_its_defining_modules_object(module, name):
    defining = __import__(f"retrobell.{module}", fromlist=[name])
    assert getattr(retrobell, name) is getattr(defining, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from retrobell import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES
    assert sorted(retrobell.__all__) == NAMES


def test_dir_lists_every_public_name():
    assert set(NAMES) <= set(dir(retrobell))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        retrobell.no_such_name  # noqa: B018


# ---------------------------------------------------------------------------
# numpy loads only in the commands that tabulate a float grid of more than
# four points or sample
# ---------------------------------------------------------------------------

NUMPY_PROBE = """
import contextlib, io, sys
sys.path.insert(0, {src!r})
argv = sys.argv[1:]
if argv == ["import retrobell"]:
    import retrobell
elif argv == ["import retrobell.cli"]:
    import retrobell.cli
else:
    from retrobell.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
print("numpy" in sys.modules)
"""


#: The Bell CHSH commands: four setting pairs, and a 64 x 64 table of floats.
BELL_ANGLES = ("chsh", "--model", "bell", "--state", "2", "--angles", "0.1,1.2,0.7,2.9")
BELL_SCAN = ("chsh", "--model", "bell", "--scan", "--resolution", "64")


def numpy_loaded(*argv: str) -> bool:
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE.format(src=str(SRC)), *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {"True\n": True, "False\n": False}[proc.stdout]


@pytest.mark.parametrize("argv", [
    ("import retrobell",),
    ("import retrobell.cli",),
    ("chsh", "--lhv"),
    ("ghz-exhaust", "--list-near-misses"),
    ("emit-curve", "--points", "8"),
    ("verify", "--model", "ghz", "--backend", "rational"),
    ("verify", "--model", "prbox"),
    ("chsh", "--model", "prbox"),
    BELL_ANGLES,
    BELL_SCAN,
], ids=" ".join)
def test_classical_commands_leave_numpy_unloaded(argv):
    assert numpy_loaded(*argv) is False


def test_model_commands_load_numpy():
    assert numpy_loaded("verify", "--model", "bell", "--grid", "4") is True
    assert numpy_loaded("sample", "--model", "prbox", "--label", "pr", "--settings", "1,1",
                        "--n", "100") is True


#: Runs the CLI with ``import numpy`` made to fail, and writes its exit code
#: and stdout.
BLOCKED_NUMPY_RUN = """
import contextlib, io, sys
sys.path.insert(0, {src!r})
sys.modules["numpy"] = None
from retrobell.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(code)
sys.stdout.write(out.getvalue())
"""


@pytest.mark.parametrize("fmt", ["json", "human", "csv"])
@pytest.mark.parametrize("argv", [
    ("verify", "--model", "ghz", "--backend", "rational"),
    ("verify", "--model", "prbox"),
    ("chsh", "--model", "prbox"),
    BELL_ANGLES,
    BELL_SCAN,
], ids=" ".join)
def test_exact_commands_run_with_numpy_blocked(argv, fmt):
    argv = (*argv, "--format", fmt)
    proc = subprocess.run([sys.executable, "-c", BLOCKED_NUMPY_RUN.format(src=str(SRC)), *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    assert proc.stdout == f"0\n{out.getvalue()}"
