"""retrobell: backward-conditional collider models of Bell/GHZ experiments.

The package builds models in which measurement outcomes are drawn
independently per wing and a hidden label is distributed conditionally on
the outcomes and settings.  Conditioning on the label (collider bias)
reproduces the quantum correlations of Bell pairs, the GHZ state, and the
Popescu-Rohrlich box exactly, while statistical independence and
no-signalling hold as checked, fine-tuned properties.  Verification runs
both analytically (exact rationals or 1e-12 float identities) and by seeded
Monte Carlo.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: Each public name, by the module that defines it.  Names resolve on first
#: use, so ``import retrobell`` loads no module, and numpy loads only for
#: float tables of more than ``dist.TUPLE_POINTS`` (400) points and the
#: sampler (``sampling``).
_EXPORTS = {
    "backward": (
        "ANGLE", "BINARY", "BackwardModel", "ColliderKernel", "LambdaSpace", "Wing",
        "bell_backward_model", "bell_table", "collider_model",
        "default_grid", "entry_table", "pr_backward_model", "settings_grid", "sign_of",
        "signalling_counterexample_model", "verify_no_signalling_all",
    ),
    "chsh": (
        "LHV_BOUND", "PR_BOUND", "PR_BOX_CONFIG", "STANDARD_BELL_CONFIG",
        "TSIRELSON_BOUND", "ChshConfig", "ScanReport", "backward_model_chsh",
        "chsh_value", "lhv_max_chsh", "quantum_chsh_scan",
    ),
    "dist": (
        "FLOAT", "FLOAT_TOL", "RATIONAL", "ConstructionError", "DistributionError",
        "Joint", "NullEvidenceError", "Variable", "VariableMismatchError", "condition",
        "make_joint", "marginalize", "tv_distance",
    ),
    "ghz": (
        "ExhaustionReport", "GHZ_CONSTRAINTS", "classical_assignment_exhaustion",
        "ghz_backward_model", "verify_ghz_recovery",
    ),
    "quantum": (
        "AXES", "BELL_STATES", "OUTCOMES", "angle_grid", "bell_expectation", "bell_prob",
        "ghz_prob", "pr_prob",
    ),
    "reports": ("CheckReport",),
    "sampling": (
        "AcceptanceCapError", "RNG_ALGORITHM", "RunRecord", "SampleReport", "Z_GATE",
        "make_rng", "sample_postselected", "sample_run",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
