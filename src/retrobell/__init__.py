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

from .backward import (
    ANGLE,
    BINARY,
    BackwardModel,
    ColliderKernel,
    LambdaSpace,
    Wing,
    angle_grid,
    bell_backward_model,
    collider_model,
    default_grid,
    entry_table,
    settings_grid,
    sign_of,
    signalling_counterexample_model,
    verify_no_signalling_all,
)
from .chsh import (
    LHV_BOUND,
    PR_BOUND,
    PR_BOX_CONFIG,
    STANDARD_BELL_CONFIG,
    TSIRELSON_BOUND,
    ChshConfig,
    DeterministicStrategy,
    ScanReport,
    backward_model_chsh,
    chsh_value,
    enumerate_strategies,
    lhv_max_chsh,
    pr_backward_model,
    quantum_chsh_scan,
)
from .dist import (
    FLOAT,
    FLOAT_TOL,
    RATIONAL,
    ConstructionError,
    DistributionError,
    Joint,
    NullEvidenceError,
    Variable,
    VariableMismatchError,
    condition,
    expectation,
    joint_from_json_dict,
    joint_to_json_dict,
    make_joint,
    marginalize,
    tv_distance,
)
from .ghz import (
    ExhaustionReport,
    GHZ_CONSTRAINTS,
    classical_assignment_exhaustion,
    ghz_allowed,
    ghz_backward_model,
    ghz_settings_grid,
    verify_ghz_recovery,
)
from .quantum import (
    AXES,
    BELL_STATES,
    OUTCOMES,
    bell_expectation,
    bell_prob,
    bell_table,
    ghz_prob,
    pr_prob,
    wing_marginal,
)
from .reports import CheckReport, WitnessReport
from .sampling import (
    AcceptanceCapError,
    EmpiricalChshReport,
    RNG_ALGORITHM,
    RunRecord,
    SampleReport,
    Z_GATE,
    empirical_chsh,
    make_rng,
    sample_postselected,
    sample_run,
)

__version__ = "0.1.0"
