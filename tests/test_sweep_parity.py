"""Dense verification sweeps against a per-point reference.

The reference walks the grid one settings point at a time through the frozen
sparse tables of ``sparse_reference`` (the per-cell ``assemble_joint`` loop,
``kernel_rows``, ``lambda_marginal``, ``condition_on_lambda``, ``make_joint``,
``tv_distance``), which share no code with the dense tables.  The dense
checks must report the same JSON, bit for bit: same deviations, same
pass/fail and the same first-in-grid-order worst case.
"""

import itertools
import json
import math
from fractions import Fraction

import pytest

import sparse_reference as ref
from retrobell import (
    ANGLE,
    BINARY,
    OUTCOMES,
    BackwardModel,
    CheckReport,
    ColliderKernel,
    ConstructionError,
    LambdaSpace,
    NullEvidenceError,
    Wing,
    default_grid,
    entry_table,
    make_joint,
    sign_of,
    tv_distance,
    verify_no_signalling_all,
)
from retrobell import dist

PI = math.pi


# ---------------------------------------------------------------------------
# Per-point reference sweeps
# ---------------------------------------------------------------------------


def _zero(model):
    return Fraction(0) if model.backend == "rational" else 0.0


def oracle_si(model, grid):
    max_dev, worst, count = _zero(model), None, 0
    for settings in grid:
        count += 1
        settings = model.check_settings(settings)
        marg = ref.lambda_marginal(model, settings)
        for label, prior in zip(model.lam.labels, model.lam.priors):
            dev = abs(marg.prob((label,)) - prior)
            if dev > max_dev:
                max_dev, worst = dev, {"settings": settings, "label": label}
    if count == 0:
        raise ConstructionError("empty settings grid")
    tol = model.tolerance
    return CheckReport(check="si", passed=max_dev <= tol, max_deviation=max_dev,
                       worst_case=worst, tolerance=tol, backend=model.backend)


def oracle_no_signalling(model, label, grid):
    seen = {}
    for settings in grid:
        settings = model.check_settings(settings)
        cond = ref.condition_on_lambda(model, label, settings)
        for i, wing in enumerate(model.wings):
            wing_marg = ref.marginalize(cond, [wing.outcome_name])
            for outcome in OUTCOMES:
                p = wing_marg.prob((outcome,))
                slot = seen.setdefault(
                    (i, settings[i], outcome),
                    {"min": p, "max": p, "at_min": settings, "at_max": settings},
                )
                if p < slot["min"]:
                    slot["min"], slot["at_min"] = p, settings
                if p > slot["max"]:
                    slot["max"], slot["at_max"] = p, settings
    if not seen:
        raise ConstructionError("empty settings grid")
    max_dev, worst = _zero(model), None
    for (i, local, outcome), slot in seen.items():
        spread = slot["max"] - slot["min"]
        if spread > max_dev:
            max_dev = spread
            worst = {
                "wing": model.wings[i].outcome_name,
                "local_setting": local,
                "outcome": outcome,
                "label": label,
                "min_probability": slot["min"],
                "max_probability": slot["max"],
                "min_at_settings": slot["at_min"],
                "max_at_settings": slot["at_max"],
            }
    tol = model.tolerance
    return CheckReport(check="no_signalling", passed=max_dev <= tol, max_deviation=max_dev,
                       worst_case=worst, tolerance=tol, backend=model.backend)


def oracle_no_signalling_all(model, grid):
    worst, all_passed = None, True
    for label in model.lam.labels:
        rep = oracle_no_signalling(model, label, grid)
        all_passed = all_passed and rep.passed
        if worst is None or rep.max_deviation > worst.max_deviation:
            worst = rep
    return CheckReport(
        check="no_signalling", passed=all_passed, max_deviation=worst.max_deviation,
        worst_case=worst.worst_case, tolerance=worst.tolerance, backend=worst.backend,
    )


def oracle_kernel_normalization(model, grid):
    max_dev, worst, count = _zero(model), None, 0
    for settings in grid:
        count += 1
        settings = model.check_settings(settings)
        cells = itertools.product(OUTCOMES, repeat=len(model.wings))
        for combo, values in zip(cells, ref.kernel_rows(model, settings), strict=True):
            range_excess = max(max(-k, k - 1) for k in values)
            dev = max(abs(sum(values) - 1), range_excess)
            # the first NaN deviation wins and is never displaced
            if dev > max_dev or (dev != dev and max_dev == max_dev):
                max_dev, worst = dev, {"settings": settings, "outcomes": combo}
    if count == 0:
        raise ConstructionError("empty settings grid")
    tol = model.tolerance
    return CheckReport(check="kernel_norm", passed=max_dev <= tol, max_deviation=max_dev,
                       worst_case=worst, tolerance=tol, backend=model.backend)


def oracle_recovery(model, grid):
    if not model.quantum_targets:
        raise ConstructionError(f"{model.name} has no quantum targets to recover")
    variables = model.outcome_variables()
    max_dev, worst, count = _zero(model), None, 0
    for settings in grid:
        count += 1
        settings = model.check_settings(settings)
        targets = model.target_table([settings])[0]
        for t, label in enumerate(model.quantum_targets):
            conditioned = ref.condition_on_lambda(model, label, settings)
            weights = {
                combo: targets[c][t]
                for c, combo in enumerate(itertools.product(OUTCOMES, repeat=len(model.wings)))
            }
            target_joint = ref.make_joint(variables, weights, backend=model.backend)
            dev = ref.tv_distance(conditioned, target_joint)
            if dev > max_dev:
                max_dev, worst = dev, {"settings": settings, "label": label}
    if count == 0:
        raise ConstructionError("empty settings grid")
    tol = model.tolerance
    return CheckReport(check="recovery", passed=max_dev <= tol, max_deviation=max_dev,
                       worst_case=worst, tolerance=tol, backend=model.backend)


def check_pairs(model):
    """(name, dense check, reference check) for every check the model takes."""
    pairs = [
        ("si", model.verify_si, lambda g: oracle_si(model, g)),
        ("no_signalling_all", lambda g: verify_no_signalling_all(model, g),
         lambda g: oracle_no_signalling_all(model, g)),
        ("kernel_norm", model.verify_kernel_normalization,
         lambda g: oracle_kernel_normalization(model, g)),
    ]
    for label in model.lam.labels:
        pairs.append((
            f"no_signalling[{label}]",
            lambda g, label=label: model.verify_no_signalling([label], g),
            lambda g, label=label: oracle_no_signalling(model, label, g),
        ))
    if model.quantum_targets:
        pairs.append(("recovery", model.verify_recovery,
                      lambda g: oracle_recovery(model, g)))
    return pairs


def _text(report):
    return json.dumps(report.to_json_dict())


def _two_label_model(kernel, backend="float", p_plus=0.5, kind=ANGLE):
    wings = (Wing("a1", "s1", kind, p_plus), Wing("a2", "s2", kind, p_plus))
    half = Fraction(1, 2) if backend == "rational" else 0.5
    return BackwardModel(
        name="custom",
        wings=wings,
        lam=LambdaSpace(("L1", "L2"), (half, half)),
        kernel=ColliderKernel(("L1", "L2"), entry_table(kernel, ("L1", "L2"))),
        backend=backend,
        quantum_targets=("L1",),
        target_table=entry_table(lambda outcomes, settings, _: 0.25, ("L1",)),
    )


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------

#: Hand-written non-Cartesian grids.  Local settings repeat across points,
#: integer and signed-zero angles must group with 0.0 and are reported as
#: checked, and the last point flips the sign the counterexample's kernel reads.
CUSTOM_ANGLE_GRID = [(0, 0), (0, PI / 4), (0, PI / 2), (PI / 4, -0.0), (-0.0, PI / 4),
                     (-0.0, -PI / 3)]
CUSTOM_BINARY_GRID = {2: [(0, 0), (1, 0), (0, 1)], 3: [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 0)]}

MODELS = ("bell_model", "counterexample_model", "ghz_model", "pr_model")


def _grid(model, grid):
    if grid != "custom":
        return default_grid(model, grid)
    if model.wings[0].setting_kind == ANGLE:
        return CUSTOM_ANGLE_GRID
    return CUSTOM_BINARY_GRID[len(model.wings)]


@pytest.mark.parametrize("grid", [4, 16, "custom"])
@pytest.mark.parametrize("model_name", MODELS)
def test_dense_checks_match_per_point_reference(request, model_name, grid):
    model = request.getfixturevalue(model_name)
    points = _grid(model, grid)
    for name, dense, oracle in check_pairs(model):
        assert _text(dense(points)) == _text(oracle(points)), name


@pytest.mark.parametrize("grid", [4, 16, "custom"])
@pytest.mark.parametrize("model_name", ["bell_model", "counterexample_model"])
def test_array_form_checks_match_per_point_reference(request, monkeypatch, model_name, grid):
    # these grids tabulate as tuples by default; with the bound at 0 the same
    # checks read float64 arrays, the form ``verify-dense`` runs
    monkeypatch.setattr(dist, "TUPLE_POINTS", 0)
    model = request.getfixturevalue(model_name)
    points = _grid(model, grid)
    assert type(model.tabulate(points).K).__name__ == "ndarray"
    for name, dense, oracle in check_pairs(model):
        assert _text(dense(points)) == _text(oracle(points)), name


def _mutual_model():
    """Conditioning on L1 pins each wing to the sign of the other's setting."""

    def kernel(o, s, label):
        k = float(o[0] == sign_of(s[1]) and o[1] == sign_of(s[0]))
        return k if label == "L1" else 1.0 - k

    wings = (Wing("a1", "s1", ANGLE, 0.5), Wing("a2", "s2", ANGLE, 0.5))
    return BackwardModel("mutual", wings, LambdaSpace(("L1", "L2"), (0.25, 0.75)),
                         ColliderKernel(("L1", "L2"), entry_table(kernel, ("L1", "L2"))), "float")


def test_no_signalling_worst_case_is_first_in_grid_order():
    # wing a2's entry at local setting 1 is reached before wing a1's
    model, grid = _mutual_model(), [(5, 1), (1, 1), (-1, 1), (1, -1)]
    for name, dense, oracle in check_pairs(model):
        assert _text(dense(grid)) == _text(oracle(grid)), name
    rep = model.verify_no_signalling(["L1"], grid)
    assert rep.max_deviation == 1.0
    assert rep.worst_case["wing"] == "a2"
    assert rep.worst_case["max_at_settings"] == (5.0, 1.0)


def test_no_signalling_tie_across_labels_names_the_first_label():
    # L1 and L2 are the same kernel column at half weight, so conditioning
    # on either gives the same table and the same largest deviation
    def kernel(o, s, label):
        k = float(o[0] == sign_of(s[1]) and o[1] == sign_of(s[0]))
        return 1.0 - k if label == "L3" else k / 2

    labels = ("L1", "L2", "L3")
    wings = (Wing("a1", "s1", ANGLE, 0.5), Wing("a2", "s2", ANGLE, 0.5))
    model = BackwardModel("tied", wings, LambdaSpace(labels, (0.125, 0.125, 0.75)),
                          ColliderKernel(labels, entry_table(kernel, labels)), "float")
    grid = [(5, 1), (1, 1), (-1, 1), (1, -1)]
    for name, dense, oracle in check_pairs(model):
        assert _text(dense(grid)) == _text(oracle(grid)), name
    rep = verify_no_signalling_all(model, grid)
    assert rep.max_deviation == model.verify_no_signalling(["L2"], grid).max_deviation == 1.0
    assert rep.worst_case["label"] == "L1"


def _skewed_model():
    """Recovery fails by ~0.1, so each deviation's last bit depends on the
    order ``tv_distance`` sums in."""

    def kernel(o, s, label):
        k = (1 + 0.3 * math.sin(s[0]) * o[0] + 0.2 * math.cos(s[1]) * o[1]
             + 0.1 * o[0] * o[1] * math.sin(s[0] + s[1])) / 2
        return k if label == "L1" else 1.0 - k

    def target(o, s, _):
        return 0.25 * (1 + 0.5 * o[0] * o[1] * math.cos(s[0] - s[1]))

    model = _two_label_model(kernel)
    return BackwardModel(model.name, model.wings, model.lam, model.kernel,
                         model.backend, ("L1",), entry_table(target, ("L1",)))


def test_failing_recovery_matches_reference_to_rounding():
    # The dense recovery sums |P - Q| in canonical cell order; tv_distance
    # sums in the iteration order of a set of keys.  When recovery fails by
    # more than rounding the two can differ in the last bit, and a tie
    # between two grid points can then resolve to either point.
    model = _skewed_model()
    grid = default_grid(model, 16)
    dense, ref = model.verify_recovery(grid), oracle_recovery(model, grid)
    assert dense.passed is ref.passed is False
    assert abs(dense.max_deviation - ref.max_deviation) <= 1e-15
    at_worst = oracle_recovery(model, [dense.worst_case["settings"]])
    assert abs(at_worst.max_deviation - ref.max_deviation) <= 1e-15
    for name, dense_check, oracle in check_pairs(model):
        if name != "recovery":
            assert _text(dense_check(grid)) == _text(oracle(grid)), name


def test_recovery_deviation_is_the_public_tv_distance():
    # every total runs in canonical order, so each point's dense recovery
    # deviation is exactly tv_distance of the single-point tables
    model = _skewed_model()
    variables = model.outcome_variables()
    cells = list(itertools.product(OUTCOMES, repeat=2))
    for settings in default_grid(model, 8):
        target = model.target_table([settings])[0]
        target_joint = make_joint(
            variables, {c: target[i][0] for i, c in enumerate(cells)}, backend=model.backend)
        dev = tv_distance(model.condition_on_lambda("L1", settings), target_joint)
        assert model.verify_recovery([settings]).max_deviation == dev


@pytest.mark.parametrize("model_name", MODELS)
def test_single_point_tables_match_reference(request, model_name):
    model = request.getfixturevalue(model_name)
    for settings in _grid(model, 4)[:6] + _grid(model, "custom"):
        assert (list(model.assemble_joint(settings).items())
                == list(ref.assemble_joint(model, settings).items()))
        assert (list(model.lambda_marginal(settings).items())
                == list(ref.lambda_marginal(model, settings).items()))
        for label in model.lam.labels:
            dense = model.condition_on_lambda(label, settings)
            sparse = ref.condition_on_lambda(model, label, settings)
            assert dense.variables == sparse.variables
            assert list(dense.items()) == list(sparse.items())


def test_dense_checks_accept_a_one_shot_iterator(bell_model):
    points = [(0.0, 0.3), (1.0, 0.3), (0.0, 2.0)]
    for name, dense, oracle in check_pairs(bell_model):
        assert _text(dense(iter(points))) == _text(oracle(points)), name


# ---------------------------------------------------------------------------
# Error contract: the dense checks raise what the per-point path raises
# ---------------------------------------------------------------------------


def _assert_same_error(error, dense, oracle, grid):
    with pytest.raises(error):
        dense(grid)
    with pytest.raises(error):
        oracle(grid)


@pytest.mark.parametrize("bad", [-0.25, math.inf, math.nan])
def test_invalid_kernel_weight_raises_but_kernel_norm_reports(bad):
    model = _two_label_model(lambda o, s, label: bad if label == "L1" else 0.5)
    grid = [(0.0, 0.0), (0.5, 1.0)]
    for name, dense, oracle in check_pairs(model):
        if name == "kernel_norm":
            assert _text(dense(grid)) == _text(oracle(grid))
        else:
            _assert_same_error(ConstructionError, dense, oracle, grid)
    assert not model.verify_kernel_normalization(grid).passed


def test_first_nan_kernel_value_is_the_kernel_norm_worst_case():
    # a finite excess of 2 comes first in the grid; NaN still wins, at the
    # first point and cell where it appears
    def kernel(outcomes, settings, label):
        if settings[0] == 0.0:
            return 3.0
        if settings[0] > 0.4 and outcomes == (-1, 1) and label == "L2":
            return math.nan
        return 0.5

    model = _two_label_model(kernel)
    grid = [(0.0, 0.0), (0.2, 0.0), (0.5, 1.0), (0.7, 1.0)]
    rep = model.verify_kernel_normalization(grid)
    assert _text(rep) == _text(oracle_kernel_normalization(model, grid))
    assert not rep.passed
    assert math.isnan(rep.max_deviation)
    assert rep.worst_case == {"settings": (0.5, 1.0), "outcomes": (-1, 1)}
    doc = json.loads(json.dumps(rep.to_json_dict(), allow_nan=False))
    assert doc["max_deviation"] == "nan" and doc["pass"] is False


def test_zero_mass_label_raises_null_evidence():
    # L1 carries no mass once s1 >= 1
    model = _two_label_model(lambda o, s, label: float((s[0] < 1) == (label == "L1")))
    grid = [(0.0, 0.0), (2.0, 0.0)]
    _assert_same_error(
        NullEvidenceError,
        lambda g: model.verify_no_signalling(["L1"], g),
        lambda g: oracle_no_signalling(model, "L1", g),
        grid,
    )
    _assert_same_error(
        NullEvidenceError,
        lambda g: verify_no_signalling_all(model, g),
        lambda g: oracle_no_signalling_all(model, g),
        grid,
    )


@pytest.mark.parametrize(
    "grid", [[], [(0.0,)], [(0.0, 0.0, 0.0)], [(0.0, math.nan)], [(0.0, math.inf)]]
)
def test_empty_grid_and_bad_settings_raise(bell_model, grid):
    for name, dense, oracle in check_pairs(bell_model):
        _assert_same_error(ConstructionError, dense, oracle, grid)


def test_bad_binary_setting_raises(pr_model):
    for name, dense, oracle in check_pairs(pr_model):
        _assert_same_error(ConstructionError, dense, oracle, [(0, 2)])


def test_float_weight_on_rational_backend_raises():
    def kernel(outcomes, settings, label):
        return 0.5 if label == "L1" else Fraction(1, 2)

    model = _two_label_model(kernel, backend="rational", p_plus=Fraction(1, 2), kind=BINARY)
    for name, dense, oracle in check_pairs(model):
        for check in (dense, oracle):
            with pytest.raises(ConstructionError, match="exact entries, got 0.5"):
                check([(0, 1)])


def test_unknown_label_raises(bell_model):
    _assert_same_error(
        ConstructionError,
        lambda g: bell_model.verify_no_signalling(["lambda9"], g),
        lambda g: oracle_no_signalling(bell_model, "lambda9", g),
        [(0.0, 0.0)],
    )
