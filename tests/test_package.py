"""The package surface: lazy public exports and the numpy-free commands."""

import subprocess
import sys
from pathlib import Path

import pytest

import retrobell

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every public name, by the module that defines it.
PUBLIC = {
    "backward": [
        "ANGLE", "BINARY", "BackwardModel", "ColliderKernel", "LambdaSpace", "Wing",
        "angle_grid", "bell_backward_model", "bell_table", "collider_model",
        "default_grid", "entry_table", "settings_grid", "sign_of",
        "signalling_counterexample_model", "verify_no_signalling_all",
    ],
    "chsh": [
        "LHV_BOUND", "PR_BOUND", "PR_BOX_CONFIG", "STANDARD_BELL_CONFIG",
        "TSIRELSON_BOUND", "ChshConfig", "DeterministicStrategy", "ScanReport",
        "backward_model_chsh", "chsh_value", "enumerate_strategies", "lhv_max_chsh",
        "pr_backward_model", "quantum_chsh_scan",
    ],
    "dist": [
        "FLOAT", "FLOAT_TOL", "RATIONAL", "ConstructionError", "DistributionError",
        "Joint", "NullEvidenceError", "Variable", "VariableMismatchError", "condition",
        "expectation", "joint_from_json_dict", "joint_to_json_dict", "make_joint",
        "marginalize", "tv_distance",
    ],
    "ghz": [
        "ExhaustionReport", "GHZ_CONSTRAINTS", "classical_assignment_exhaustion",
        "ghz_allowed", "ghz_backward_model", "ghz_settings_grid", "verify_ghz_recovery",
    ],
    "quantum": [
        "AXES", "BELL_STATES", "OUTCOMES", "bell_expectation", "bell_prob", "ghz_prob",
        "pr_prob", "wing_marginal",
    ],
    "reports": ["CheckReport", "WitnessReport"],
    "sampling": [
        "AcceptanceCapError", "EmpiricalChshReport", "RNG_ALGORITHM", "RunRecord",
        "SampleReport", "Z_GATE", "empirical_chsh", "make_rng", "sample_postselected",
        "sample_run",
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
# numpy loads only in the commands that build a model, scan or sample
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
], ids=" ".join)
def test_classical_commands_leave_numpy_unloaded(argv):
    assert numpy_loaded(*argv) is False


def test_model_commands_load_numpy():
    assert numpy_loaded("verify", "--model", "prbox") is True
