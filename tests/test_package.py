"""The package surface: lazy public exports and the modules each command loads."""

import contextlib
import functools
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
# Each command loads only the modules it runs: numpy only for a float grid of
# more than four points or sampling, the model stack (``backward``, ``dist``,
# ``dataclasses``, ``fractions``) only for a model, ``chsh`` and ``ghz`` only
# for their own commands, and ``csv`` only for CSV output
# ---------------------------------------------------------------------------

#: The modules whose loading the tests below pin.
WATCHED = ("numpy", "dataclasses", "fractions", "decimal", "csv",
           "retrobell.backward", "retrobell.chsh", "retrobell.dist", "retrobell.ghz")

MODULE_PROBE = """
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
        # the counterexample's checks fail, as they should
        assert main(argv) == (1 if "counterexample" in argv else 0)
print(*(m for m in {watched!r} if m in sys.modules))
"""


#: The Bell CHSH commands: four setting pairs, and a 64 x 64 table of floats.
BELL_ANGLES = ("chsh", "--model", "bell", "--state", "2", "--angles", "0.1,1.2,0.7,2.9")
BELL_SCAN = ("chsh", "--model", "bell", "--scan", "--resolution", "64")

#: ``verify`` on four points (grid 2), tuples: bell passes (exit 0), the
#: counterexample fails (exit 1).
FEW_POINT_VERIFY = [("verify", "--model", "bell", "--grid", "2"),
                    ("verify", "--model", "counterexample", "--grid", "2")]

VERIFY_GHZ = ("verify", "--model", "ghz", "--backend", "rational")
SAMPLE_BELL = ("sample", "--model", "bell", "--label", "1", "--alpha1", "0.3", "--alpha2", "1.1",
               "--n", "100")

#: The commands that build no model.
NO_MODEL = [("chsh", "--lhv"), ("chsh", "--model", "bell", "--scan", "--resolution", "8"),
            ("ghz-exhaust",), ("emit-curve", "--points", "8")]
MODEL_STACK = {"dataclasses", "fractions", "decimal", "retrobell.backward", "retrobell.dist"}


@functools.cache
def loaded(*argv: str) -> frozenset[str]:
    """The ``WATCHED`` modules loaded after running ``argv`` in a fresh interpreter."""
    probe = MODULE_PROBE.format(src=str(SRC), watched=WATCHED)
    proc = subprocess.run([sys.executable, "-c", probe, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.split())


@pytest.mark.parametrize("argv", [
    ("import retrobell",),
    ("import retrobell.cli",),
    ("chsh", "--lhv"),
    ("ghz-exhaust", "--list-near-misses"),
    ("emit-curve", "--points", "8"),
    VERIFY_GHZ,
    ("verify", "--model", "prbox"),
    ("chsh", "--model", "prbox"),
    BELL_ANGLES,
    BELL_SCAN,
    *FEW_POINT_VERIFY,
], ids=" ".join)
def test_classical_commands_leave_numpy_unloaded(argv):
    assert "numpy" not in loaded(*argv)


def test_model_commands_load_numpy():
    assert "numpy" in loaded("verify", "--model", "bell", "--grid", "4")
    # nine points, one more grid step than FEW_POINT_VERIFY: a float64 array
    assert "numpy" in loaded("verify", "--model", "bell", "--grid", "3")
    assert "numpy" in loaded("sample", "--model", "prbox", "--label", "pr", "--settings", "1,1",
                             "--n", "100")


@pytest.mark.parametrize("argv", [("import retrobell.cli",), *NO_MODEL], ids=" ".join)
def test_commands_without_a_model_leave_the_model_stack_unloaded(argv):
    assert loaded(*argv) & MODEL_STACK == set()


@pytest.mark.parametrize("argv", [("chsh", "--lhv"), ("chsh", "--model", "prbox"), BELL_ANGLES,
                                  BELL_SCAN], ids=" ".join)
def test_chsh_commands_leave_ghz_unloaded(argv):
    assert "retrobell.chsh" in loaded(*argv)
    assert "retrobell.ghz" not in loaded(*argv)


@pytest.mark.parametrize("argv", [*FEW_POINT_VERIFY, VERIFY_GHZ, ("ghz-exhaust",), SAMPLE_BELL],
                         ids=" ".join)
def test_commands_outside_chsh_leave_chsh_unloaded(argv):
    assert "retrobell.chsh" not in loaded(*argv)


@pytest.mark.parametrize("argv", [
    *NO_MODEL, VERIFY_GHZ, BELL_ANGLES,
    ("chsh", "--lhv", "--format", "csv"),
    ("ghz-exhaust", "--format", "csv"),
    (*VERIFY_GHZ, "--format", "csv"),
    (*VERIFY_GHZ, "--format", "human"),
], ids=" ".join)
def test_csv_loads_only_for_csv_output(argv):
    assert ("csv" in loaded(*argv)) == (argv[0] == "emit-curve" or "csv" in argv)


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
    VERIFY_GHZ,
    ("verify", "--model", "prbox"),
    ("chsh", "--model", "prbox"),
    BELL_ANGLES,
    BELL_SCAN,
    *FEW_POINT_VERIFY,
], ids=" ".join)
def test_exact_commands_run_with_numpy_blocked(argv, fmt):
    argv = (*argv, "--format", fmt)
    proc = subprocess.run([sys.executable, "-c", BLOCKED_NUMPY_RUN.format(src=str(SRC)), *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == (1 if "counterexample" in argv else 0)  # its checks fail, as they should
    assert proc.stdout == f"{code}\n{out.getvalue()}"
