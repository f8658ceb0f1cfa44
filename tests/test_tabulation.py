"""One tabulation per ``verify``: ``BackwardModel.tabulate`` and its checks.

The CLI checks a grid and tabulates the kernel once, then hands the same
``Tabulation`` to every check.  Each check must report exactly what it
reports for the raw grid, and the grid check must raise what the per-point
``check_settings`` raises for the first bad point.
"""

import contextlib
import dataclasses
import gc
import io
import json
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import retrobell.cli as cli
from retrobell import (
    ANGLE,
    BackwardModel,
    ColliderKernel,
    ConstructionError,
    LambdaSpace,
    Wing,
    bell_table,
    collider_model,
    default_grid,
    entry_table,
    settings_grid,
    sign_of,
    verify_no_signalling_all,
)
from retrobell.backward import Tabulation
from retrobell.dist import TUPLE_POINTS

MODELS = ("bell_model", "counterexample_model", "ghz_model", "pr_model")


def _checks(model):
    """Every public check, by name, as a function of the grid."""
    checks = {
        "si": model.verify_si,
        "no_signalling_all": lambda g: verify_no_signalling_all(model, g),
        "kernel_norm": model.verify_kernel_normalization,
    }
    if model.quantum_targets:
        checks["recovery"] = model.verify_recovery
    for label in model.lam.labels:
        checks[f"no_signalling[{label}]"] = (
            lambda g, label=label: model.verify_no_signalling([label], g))
    return checks


def _text(report):
    # the JSON, plus the Python types behind it: a Fraction, a float or an
    # int deviation, and the types of the reported settings
    return json.dumps(report.to_json_dict()) + repr((report.max_deviation, report.worst_case))


# ---------------------------------------------------------------------------
# The shared tabulation reports what the raw grid reports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("res", [1, 2, 5, 16, 48])
@pytest.mark.parametrize("model_name", MODELS)
def test_checks_report_the_same_from_the_clis_tabulation(request, model_name, res):
    model = request.getfixturevalue(model_name)
    grid = default_grid(model, res)
    tab = model.tabulate(grid)
    assert len(tab) == len(grid) and list(tab) == grid
    for name, check in _checks(model).items():
        assert _text(check(tab)) == _text(check(grid)), name


#: Integer angles: the raw settings differ from the checked floats.
INT_GRID = [(0, 0), (0, 1), (1, -1), (-2, 1), (1, 1)]


def test_si_worst_case_reports_the_checked_settings(counterexample_model):
    tab = counterexample_model.tabulate(INT_GRID)
    rep = counterexample_model.verify_si(tab)
    assert rep.worst_case["settings"] == (0.0, 0.0)
    assert [type(x) for x in rep.worst_case["settings"]] == [float, float]
    assert _text(rep) == _text(counterexample_model.verify_si(INT_GRID))


def test_other_checks_report_the_checked_settings(counterexample_model):
    tab = counterexample_model.tabulate(INT_GRID)
    rep = verify_no_signalling_all(counterexample_model, tab)
    assert type(rep.worst_case["local_setting"]) is float
    for key in ("min_at_settings", "max_at_settings"):
        assert all(type(x) is float for x in rep.worst_case[key])
    assert _text(rep) == _text(verify_no_signalling_all(counterexample_model, INT_GRID))


def _rigged_model():
    """Each label pulls wing 1's outcome toward or away from the sign of s2,
    and kernel rows sum to 1.1 or 0.9: every check fails."""

    def kernel(outcomes, settings, label):
        pulled = outcomes[0] == sign_of(settings[1])
        return (0.6 if pulled else 0.1) if label == "L1" else (0.5 if pulled else 0.8)

    wings = (Wing("a1", "s1", ANGLE, 0.5), Wing("a2", "s2", ANGLE, 0.5))
    return BackwardModel("rigged", wings, LambdaSpace(("L1", "L2"), (0.5, 0.5)),
                         ColliderKernel(("L1", "L2"), entry_table(kernel, ("L1", "L2"))),
                         "float", ("L1",), entry_table(lambda o, s, _: 0.25, ("L1",)))


def test_every_check_reports_the_checked_settings():
    model = _rigged_model()
    tab = model.tabulate(INT_GRID)
    for name, check in _checks(model).items():
        rep = check(tab)
        case = rep.worst_case
        values = [case.get("local_setting", 0.0)] + [
            x for key in ("settings", "min_at_settings", "max_at_settings")
            for x in case.get(key, ())]
        assert len(values) > 1 and all(type(x) is float for x in values), name
        assert _text(rep) == _text(check(INT_GRID)), name


def _off_kernel_model():
    """Kernel rows sum to 1.1: kernel normalization fails at every point."""

    def kernel(outcomes, settings, label):
        return 0.6 if label == "L1" else 0.5

    wings = (Wing("a1", "s1", ANGLE, 0.5), Wing("a2", "s2", ANGLE, 0.5))
    return BackwardModel("off", wings, LambdaSpace(("L1", "L2"), (0.5, 0.5)),
                         ColliderKernel(("L1", "L2"), entry_table(kernel, ("L1", "L2"))),
                         "float")


def test_kernel_norm_worst_case_reports_the_checked_settings():
    model = _off_kernel_model()
    rep = model.verify_kernel_normalization(model.tabulate(INT_GRID))
    assert rep.worst_case["settings"] == (0.0, 0.0)
    assert all(type(x) is float for x in rep.worst_case["settings"])
    assert _text(rep) == _text(model.verify_kernel_normalization(INT_GRID))


def test_kernel_norm_alone_never_builds_the_joint():
    # negative kernel values make the joint unbuildable; the check that
    # exists to catch them must still report
    def kernel(outcomes, settings, label):
        return -0.5 if label == "L1" else 1.5

    model = BackwardModel(
        "negative", _off_kernel_model().wings, LambdaSpace(("L1", "L2"), (0.5, 0.5)),
        ColliderKernel(("L1", "L2"), entry_table(kernel, ("L1", "L2"))), "float")
    tab = model.tabulate(INT_GRID)
    rep = model.verify_kernel_normalization(tab)
    assert rep.passed is False and rep.max_deviation == 0.5
    with pytest.raises(ConstructionError, match="non-negative"):
        model.verify_si(tab)


def test_a_models_own_tabulation_comes_back_unchanged(bell_model):
    tab = bell_model.tabulate(default_grid(bell_model, 4))
    assert isinstance(tab, Tabulation)
    assert bell_model.tabulate(tab) is tab


@pytest.mark.parametrize("owner, reader", [
    ("bell", "counterexample"), ("counterexample", "bell"), ("bell", "bell"), ("prbox", "prbox"),
])
def test_another_models_tabulation_is_read_as_its_raw_grid(owner, reader):
    # each builder call makes a new model, so ("bell", "bell") is two models
    owner_model, reader_model = cli.MODEL_BUILDERS[owner](), cli.MODEL_BUILDERS[reader]()
    grid = default_grid(owner_model, 6)
    if owner_model.wings[0].setting_kind == ANGLE:
        grid += INT_GRID
    tab = owner_model.tabulate(grid)
    assert reader_model.tabulate(tab) is not tab
    for name, check in _checks(reader_model).items():
        assert _text(check(tab)) == _text(check(grid)), name


def test_verify_checks_and_tabulates_the_grid_once(monkeypatch):
    flags = ("bell", "counterexample", "ghz", "prbox")
    models = [cli.MODEL_BUILDERS[flag]() for flag in flags]
    grids = [default_grid(model, 8) for model in models]
    checked, kernels = [], []
    check_setting, fill = Wing.check_setting, BackwardModel._fill

    def counted_check(self, value):
        checked.append(self.setting_name)
        return check_setting(self, value)

    def counted_fill(self, points, table, width):
        if getattr(table, "func", table) is self.kernel.table:  # a collider's: given its targets
            kernels.append(self.name)
        return fill(self, points, table, width)

    monkeypatch.setattr(Wing, "check_setting", counted_check)
    monkeypatch.setattr(BackwardModel, "_fill", counted_fill)
    with contextlib.redirect_stdout(io.StringIO()):
        for flag in flags:
            assert cli.main(["verify", "--model", flag, "--grid", "8"]) in (0, 1)
    # one kernel tabulation per verify, and each wing's settings checked once per
    # distinct value (a set of the grid's column, which holds one type)
    assert kernels == [model.name for model in models]
    assert checked == [w.setting_name for model, grid in zip(models, grids)
                       for i, w in enumerate(model.wings) for _ in {p[i] for p in grid}]


@pytest.mark.parametrize("targets", [4, 3], ids=["bell", "leftover-label"])
@pytest.mark.parametrize("resolution", [20, 21], ids=["400-tuples", "441-arrays"])
def test_target_table_is_tabulated_once(bell_model, targets, resolution):
    # every check over one tabulation of a collider reads one target table: bell's
    # own (the kernel is the target table) and three of its states with a leftover label
    calls = []

    def counted(points):
        calls.append(len(points))
        return np.asarray(bell_table(points))[:, :, :targets]

    model = collider_model("counted", bell_model.wings, bell_model.lam,
                           bell_model.lam.labels[:targets], counted, "float")
    tab = model.tabulate(default_grid(model, resolution))
    assert isinstance(tab.K, tuple) == (resolution == 20)
    for name, check in _checks(model).items():
        assert check(tab).passed, name
    assert calls == [resolution ** 2]


@pytest.mark.parametrize("model_name", ["bell_model", "counterexample_model"])
def test_a_checked_tabulation_holds_one_kernel_size_table(request, model_name):
    # after every check, the tabulation keeps K (bell's is also Q), the label marginal
    # (a quarter of bell's K, half the counterexample's, whose rows hold two labels)
    # and a column of totals, never the joint T, a second table of K's size
    model = request.getfixturevalue(model_name)
    grid = default_grid(model, 64)  # 4,096 points: arrays
    tracemalloc.start()
    try:
        tab = model.tabulate(grid)
        for check in _checks(model).values():
            check(tab)
        gc.collect()
        with_tab = tracemalloc.get_traced_memory()[0]
        K = tab.K.nbytes
        del tab
        gc.collect()
        held = with_tab - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert K <= held < 1.6 * K


def test_a_collider_kernel_at_scale_one_is_its_target_table(bell_model, pr_model):
    # bell's scale is 0.25 / (0.5 * 0.5) = 1 with no leftover label: past TUPLE_POINTS the
    # kernel is the target table itself, not a second table beside it
    tab = bell_model.tabulate(default_grid(bell_model, 21))
    assert tab.K is tab.Q
    # prbox's is (1/2) / (1/4) = 2, and its leftover label takes 1 - 2 * target
    tab = pr_model.tabulate(settings_grid(pr_model))
    assert tab.K is not tab.Q
    assert tab.K == tuple(tuple((2 * q, 1 - 2 * q) for (q,) in cells) for cells in tab.Q)


# ---------------------------------------------------------------------------
# The grid check raises what check_settings raises for the first bad point
# ---------------------------------------------------------------------------


def _first_error(model, grid):
    for settings in grid:
        try:
            model.check_settings(settings)
        except Exception as e:  # noqa: BLE001 - the reference is any error
            return type(e), str(e)
    raise AssertionError("the grid has no bad point")


GOOD = [(0.0, 0.5), (1.0, -0.0), (2.0, 3.0)]

BAD_ANGLE_GRIDS = {
    "nan": [(math.nan, 0.0)],
    "+inf": [(0.0, math.inf)],
    "-inf": [(-math.inf, 1.0)],
    "nan-string": [("nan", 0.0)],
    "huge-int": [(0.0, 10 ** 400)],
    "non-numeric": [(0.0, "abc")],
    "none": [(None, 0.0)],
    "list-value": [([1.0], 0.0)],
    "one-setting": [(0.0,)],
    "three-settings": [(0.0, 1.0, 2.0)],
    "not-iterable": [5],
    "mid-grid-nan": GOOD + [(0.5, math.nan)] + GOOD,
    "mid-grid-arity": GOOD + [(0.5,)] + GOOD,
    "first-bad-wins": GOOD + [(math.inf, 0.0), ("abc", 0.0), 5] + GOOD,
    "arity-before-value": GOOD + [(0.5, 0.5, 0.5), (math.nan, 0.0)],
    # past TUPLE_POINTS, each wing's values otherwise good floats, signed zeros among them
    "late-nan": GOOD * 150 + [(-0.0, 0.0), (0.5, math.nan)],
    "late-nan-before-inf": GOOD * 150 + [(0.5, math.nan), (math.inf, 0.5)],
    "late-inf-before-nan": GOOD * 150 + [(math.inf, 0.5), (0.5, math.nan)],
    "late-list-value": GOOD * 150 + [(0.5, [0.5])],
}

BAD_BINARY_GRIDS = {
    "two": [(0, 2)],
    "half": [(0.5, 1)],
    "string": [("0", 1)],
    "nan": [(0, math.nan)],
    "unhashable": [([0], 1)],
    "three-settings": [(0, 1, 1)],
    "mid-grid": [(0, 0), (1, 1), (1, 2), (0, 1)],
    "first-bad-wins": [(0, 0), (1,), (2, 2), (0, 1)],
    "late-two": [(0, 1), (1, 0)] * 201 + [(True, 1), (1, 2), (2, 0)],
    "late-nan": [(0, 1), (1, 0)] * 201 + [(0, 0), (1, math.nan)],
}


def _cases():
    for key, grid in BAD_ANGLE_GRIDS.items():
        yield pytest.param("bell_model", grid, id=f"bell-{key}")
    for key, grid in BAD_BINARY_GRIDS.items():
        yield pytest.param("pr_model", grid, id=f"prbox-{key}")
    yield pytest.param("ghz_model", [(0, 1, 1), (1, 1, 3)], id="ghz-three")


@pytest.mark.parametrize("model_name, grid", _cases())
def test_bad_grid_raises_what_check_settings_raises_first(request, model_name, grid):
    model = request.getfixturevalue(model_name)
    cls, message = _first_error(model, grid)
    for name, check in {"tabulate": model.tabulate, **_checks(model)}.items():
        with pytest.raises(cls) as info:
            check(grid)
        assert type(info.value) is cls, name
        assert str(info.value) == message, name


def test_a_point_given_as_an_iterator_is_read_once(bell_model):
    # the grid is built afresh for every call, as its points are used up
    def bad():
        return [iter((0.0, 1.0)), 5]

    cls, message = _first_error(bell_model, bad())
    assert cls is TypeError
    for name, check in {"tabulate": bell_model.tabulate, **_checks(bell_model)}.items():
        with pytest.raises(cls) as info:
            check(bad())
        assert str(info.value) == message, name

    def good():
        return [iter((0, 1)), iter((2.0, 3.0))]

    tab = bell_model.tabulate(good())
    assert tab.points == [(0.0, 1.0), (2.0, 3.0)]
    assert list(tab) == tab.points
    for name, check in _checks(bell_model).items():
        assert _text(check(good())) == _text(check([(0, 1), (2.0, 3.0)])), name


@pytest.mark.parametrize("model_name", MODELS)
def test_empty_grid_is_rejected(request, model_name):
    model = request.getfixturevalue(model_name)
    for name, check in {"tabulate": model.tabulate, **_checks(model)}.items():
        with pytest.raises(ConstructionError, match="^empty settings grid$"):
            check([])
        with pytest.raises(ConstructionError, match="^empty settings grid$"):
            check(iter([]))


#: Angles of every numeric kind float() accepts, signed zeros among them.
ODD_ANGLES = [0, -0.0, True, Fraction(1, 3), Decimal("0.1"), np.float32(0.1),
              np.int64(-7), np.float64(-0.0), "2.5", " 1e-3 ", b"1.5", 2 ** 64 + 1,
              np.array(0.25)]


def _same_settings(points, reference):
    """Type, value and sign of zero of every checked setting."""
    assert len(points) == len(reference)
    for point, ref in zip(points, reference):
        assert type(point) is tuple and len(point) == len(ref)
        for x, r in zip(point, ref):
            assert type(x) is type(r) and x == r
            assert math.copysign(1, x) == math.copysign(1, r)


#: Grids of angles: each point's checked settings must be check_settings's.
ANGLE_GRIDS = {
    "odd": [(a, b) for a in ODD_ANGLES for b in ODD_ANGLES[:4]],
    "zero-then-minus-zero": [(0.0, 0.5), (-0.0, -0.0), (0.5, 0.0), (1.0, -0.0)],
    "minus-zero-then-zero": [(-0.0, 0.5), (0.0, 0.0), (0.5, -0.0), (1.0, 0.0)],
    "true-beside-1": [(1, 0.5), (True, 1), (1.0, True), (0.5, 1)],
    "float64": [(np.float64(-0.0), 0.0), (0.0, np.float64(0.0)), (np.float64(0.5), -0.0)],
    "list-point": [(0.0, -0.0), [-0.0, 0.0], (0.5, 1.0)],
}


def test_checked_angles_equal_check_settings_value_for_value(bell_model):
    # each grid as it is (tuple tables) and repeated past TUPLE_POINTS (arrays)
    for name, grid in ANGLE_GRIDS.items():
        for grid in (grid, grid * (TUPLE_POINTS // len(grid) + 1)):
            tab = bell_model.tabulate(grid)
            reference = [bell_model.check_settings(s) for s in grid]
            assert repr(tab.points) == repr(reference), name
            _same_settings(tab.points, reference)
            assert all(type(x) is float for p in tab.points for x in p), name
            assert list(tab) == tab.points, name
            assert isinstance(tab.K, tuple) == (len(grid) <= TUPLE_POINTS), name
            # a grid of float tuples is its own checked points, each tuple as given
            own = all(type(p) is tuple and all(type(x) is float for x in p) for p in grid)
            assert all(p is s for p, s in zip(tab.points, grid)) == own, name


def test_checked_binary_settings_keep_their_values(pr_model, ghz_model):
    values = [0, 1, False, True, 0.0, 1.0, np.int64(1), Fraction(0)]
    grid = [(a, b) for a in values for b in values[:3]]
    assert repr(pr_model.tabulate(grid).points) == repr(
        [pr_model.check_settings(s) for s in grid])
    # a value no set can hold passes as check_settings passes it
    grid = [(np.array(0), 1, 1), (1, 0, 1)]
    assert repr(ghz_model.tabulate(grid).points) == repr(
        [ghz_model.check_settings(s) for s in grid])


#: Grids of binary settings: each point's checked settings must be check_settings's.
BINARY_GRIDS = {
    "ints": [(0, 1, 1), (1, 0, 1), (1, 1, 0)],
    "zero-then-minus-zero": [(0, 0.0, 1), (-0.0, 0, 1), (0.0, -0.0, 0)],
    "minus-zero-then-zero": [(-0.0, 0, 1), (0, 0.0, 1), (0.0, -0.0, 0)],
    "true-beside-1": [(1, True, 0), (True, 1, 1), (1, 1, True)],
    "float64": [(np.float64(1.0), 0, 1), (np.float64(-0.0), 1, 1)],
    "list-point": [(0, 1, 1), [1, 0, 1], (1, 1, 0)],
}


def test_checked_binary_settings_are_ints(ghz_model):
    assert repr(ghz_model.tabulate([(True, 0, 1.0)]).points) == "[(1, 0, 1)]"
    values = [0, 1, False, True, 0.0, 1.0, np.int64(1), Fraction(0), np.array(0)]
    points = ghz_model.tabulate([(v, v, v) for v in values]).points
    assert [p[0] for p in points] == [0, 1, 0, 1, 0, 1, 1, 0, 0]
    assert all(type(x) is int for p in points for x in p)
    # rational tables are tuples at any size: each grid as it is and past TUPLE_POINTS
    for name, grid in BINARY_GRIDS.items():
        for grid in (grid, grid * (TUPLE_POINTS // len(grid) + 1)):
            tab = ghz_model.tabulate(grid)
            _same_settings(tab.points, [ghz_model.check_settings(s) for s in grid])
            assert all(type(x) is int for p in tab.points for x in p), name
            own = all(type(p) is tuple and all(type(x) is int for x in p) for p in grid)
            assert all(p is s for p, s in zip(tab.points, grid)) == own, name


# ---------------------------------------------------------------------------
# Wing marginals away from 1/2, with every expected value derived by hand
# ---------------------------------------------------------------------------


def _with_marginals(model, *p_plus):
    """``model`` with its leading wings' P(outcome = +1) replaced by ``p_plus``."""
    wings = tuple(dataclasses.replace(w, p_plus=p) for w, p in zip(model.wings, p_plus))
    return dataclasses.replace(model, wings=wings + model.wings[len(p_plus):])


def test_a_skewed_wing_weights_its_cells_by_its_marginal(ghz_model):
    # one y axis: the kernel is 1/2 on every triple, so M = 1/2 and
    # P(cell | lambda0) = P(cell) = (3/5 or 2/5) * 1/2 * 1/2
    model = _with_marginals(ghz_model, Fraction(3, 5))
    row = model.tabulate([(0, 0, 1)]).conditioned("lambda0")[0]
    assert row == (Fraction(3, 20),) * 4 + (Fraction(1, 10),) * 4


def test_a_wing_pinned_to_plus_one_keeps_its_zero_cells_out(pr_model):
    # cells (-1, +/-1) weigh 0; at (0, 0) the box sends (1, 1) to lambda_pr
    # and (1, -1) to lambda_bar, each with the other wing's 1/2
    tab = _with_marginals(pr_model, Fraction(1)).tabulate([(0, 0)])
    assert tab.conditioned("lambda_pr")[0] == (1, 0, 0, 0)
    assert tab.joint[1][0] == (Fraction(1, 2), Fraction(1, 2))


def test_si_reports_an_exact_nonzero_deviation_on_the_rational_backend(pr_model):
    # the kernel gives lambda_pr the equal-outcome cells at (0, 0):
    # P(lambda_pr | 0, 0) = 9/16 + 1/16 = 5/8, an exact 1/8 off the prior
    model = _with_marginals(pr_model, Fraction(3, 4), Fraction(3, 4))
    rep = model.verify_si(settings_grid(model))
    assert not rep.passed
    assert rep.max_deviation == Fraction(1, 8)
    assert isinstance(rep.max_deviation, Fraction)
    assert rep.worst_case == {"settings": (0, 0), "label": "lambda_pr"}
