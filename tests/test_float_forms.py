"""A float tabulation reads the same in both of its forms.

At up to ``dist.TUPLE_POINTS`` points a float tabulation is nested tuples, one
row of Python floats per point; beyond, it is float64 arrays, one row of
columns over every point, and the same formulas reduce both.  With the bound
patched to 0 every grid takes the array form, and with it patched to 10**9
every grid takes the tuple form, so each model below is read in both forms on
grids of one, four and nine points, and a few of them on a grid past the bound.
Every check report (with its worst case), the witness, the one-point joint of
``assemble_joint`` at the grid's first point, and every entry of ``conditioned``
must agree by ``float.hex``, and every error by class and message.  In each
form, and on the rational models, ``conditioned`` must also equal, entry for
entry and bit for bit, the label's entries of ``assemble_joint`` over its
``lambda_marginal``, at each point.

The reductions ``dist`` runs on the array form (the worst of a sweep, a no-signalling
slot's first minimum and maximum, and the slots themselves) are also run on their
own, on cases the models cannot reach (a NaN in a wing marginal), against values
derived by hand.
"""

import functools
import math
from fractions import Fraction

import pytest

import test_sweep_parity as sweep
from retrobell import (
    ANGLE,
    BackwardModel,
    ColliderKernel,
    LambdaSpace,
    Wing,
    bell_backward_model,
    entry_table,
    ghz_backward_model,
    pr_backward_model,
    settings_grid,
    sign_of,
    signalling_counterexample_model,
    verify_no_signalling_all,
)
from retrobell import dist


def _nan_model():
    """``test_report_json``'s kernel: NaN on the first label of every cell."""
    labels = ("L1", "L2")
    wings = (Wing("a1", "s1", ANGLE, 0.5), Wing("a2", "s2", ANGLE, 0.5))
    kernel = entry_table(lambda o, s, label: math.nan if label == "L1" else 0.5, labels)
    return BackwardModel("nan", wings, LambdaSpace(labels, (0.5, 0.5)),
                         ColliderKernel(labels, kernel), "float")


def _tied_model():
    """Two labels share one kernel column at half weight each."""

    def kernel(o, s, label):
        k = float(o[0] == sign_of(s[1]) and o[1] == sign_of(s[0]))
        return 1.0 - k if label == "L3" else k / 2

    labels = ("L1", "L2", "L3")
    wings = (Wing("a1", "s1", ANGLE, 0.5), Wing("a2", "s2", ANGLE, 0.5))
    return BackwardModel("tied", wings, LambdaSpace(labels, (0.125, 0.125, 0.75)),
                         ColliderKernel(labels, entry_table(kernel, labels)), "float")


def _fraction_model():
    """Exact wing marginals and priors (wing 2's marginal is ``Wing``'s default
    1/2) on the float backend."""

    def kernel(o, s, label):
        k = 0.5 + 0.25 * math.sin(s[0] + 2 * s[1]) * o[0] * o[1]
        return k if label == "L1" else 1.0 - k

    labels = ("L1", "L2")
    wings = (Wing("a1", "s1", ANGLE, Fraction(1, 3)), Wing("a2", "s2", ANGLE))
    return BackwardModel("fractions", wings, LambdaSpace(labels, (Fraction(1, 3), Fraction(2, 3))),
                         ColliderKernel(labels, entry_table(kernel, labels)), "float")


def _first_nan(o, s, label):
    if s[0] == 0.0:
        return 3.0
    if s[0] > 0.4 and o == (-1, 1) and label == "L2":
        return math.nan
    return 0.5


MODELS = {
    "bell": bell_backward_model,
    "counterexample": signalling_counterexample_model,
    "nan": _nan_model,
    "mutual": sweep._mutual_model,
    "tied": _tied_model,
    "skewed": sweep._skewed_model,
    "negative": lambda: sweep._two_label_model(lambda o, s, label: -0.25 if label == "L1" else 0.5),
    "inf": lambda: sweep._two_label_model(lambda o, s, label: math.inf if label == "L1" else 0.5),
    "first-nan": lambda: sweep._two_label_model(_first_nan),
    "zero-mass": lambda: sweep._two_label_model(
        lambda o, s, label: float((s[0] < 1) == (label == "L1"))),
    "fractions": _fraction_model,
}

#: One point either side of the sign flips and the zero-mass edge, and four
#: points with signed zeros.
GRIDS = {
    "1-point": [(0.5, 1.0)],
    "1-point-flipped": [(2.0, -0.0)],
    "4-points": [(0.0, 0.0), (0.5, 1.0), (2.0, -0.0), (-0.0, 3.0)],
    # signed zeros, +/-pi, large angles
    "9-points": [(0.0, 0.0), (0.5, 1.0), (2.0, -0.0), (-0.0, 3.0), (math.pi, -math.pi),
                 (-1.0, 0.25), (1e6, -1e6), (0.5, -0.5), (6.0, 1.5)],
}

#: 21 x 21 = 441 points, past ``dist.TUPLE_POINTS``: signed zeros in both wings (one
#: slot each, reached first at -0.0 on wing 2 and at 0.0 on wing 1), +/-pi, 1e6.
ANGLES = (0.0, -0.0, 0.5, -0.5, 1.0, 2.0, -2.0, 3.0, math.pi, -math.pi, 0.25, 1.5, 6.0,
          -1.0, 1e6, -1e6, 0.75, 2.5, -3.0, 4.0, 0.45)
LARGE_GRID = [(a, b) for a in ANGLES for b in ANGLES[1:] + ANGLES[:1]]


def _hex(x):
    """``x`` with every float as its ``float.hex`` and every array as lists."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _hex(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_hex(v) for v in x]
    if hasattr(x, "tolist"):
        return _hex(x.tolist())
    return x


def _outcome(read):
    try:
        return _hex(read())
    except Exception as error:  # noqa: BLE001 -- the class and message are the reading
        return type(error), str(error)


def _one_point_tables(tab):
    """The entries of ``assemble_joint`` and of ``lambda_marginal`` at each point of ``tab``."""
    model = tab.model
    return [(model.assemble_joint(s)._table, model.lambda_marginal(s)._table) for s in tab]


def _joint_over_marginal(model, tables, label):
    """The label's joint entries over its marginal at each point of ``tables``
    (:func:`_one_point_tables`), entry by entry as Python numbers (so 0 / 0 raises in
    both forms): what ``conditioned(label)`` must give bit for bit wherever it gives a
    table."""
    at, n = model.lam.labels.index(label), len(model.lam.labels)
    return [[dist._at(T, i) / dist._at(M, at) for i in range(at, len(T), n)] for T, M in tables]


def _assert_conditioned_is_joint_over_marginal(model, readings):
    for label in model.lam.labels:
        conditioned = readings[f"conditioned {label}"]
        if isinstance(conditioned, list):  # not an error's (class, message)
            assert conditioned == readings[f"joint over marginal {label}"], label


def _readings(model, grid):
    labels = model.lam.labels
    tab = model.tabulate(grid)
    one_point = functools.cache(lambda: _one_point_tables(tab))  # read by every label
    reads = {
        "form": lambda: type(tab.K).__name__,
        "joint": lambda: list(model.assemble_joint(grid[0]).items()),
        "si": lambda: model.verify_si(grid).to_json_dict(),
        "nosignal": lambda: verify_no_signalling_all(model, grid).to_json_dict(),
        "kernel_norm": lambda: model.verify_kernel_normalization(grid).to_json_dict(),
        "recovery": lambda: model.verify_recovery(grid).to_json_dict(),
    }
    for label in labels:
        reads[f"conditioned {label}"] = lambda label=label: tab.conditioned(label)
        reads[f"joint over marginal {label}"] = (
            lambda label=label: _joint_over_marginal(model, one_point(), label))
        reads[f"nosignal {label}"] = (
            lambda label=label: model.verify_no_signalling([label], grid).to_json_dict())
        reads[f"witness {label}"] = (
            lambda label=label: model.lc_violation_witness(label, grid[0], (1, -1)).to_json_dict())
    return {name: _outcome(read) for name, read in reads.items()}


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("name", MODELS)
def test_tuple_and_array_forms_read_the_same(monkeypatch, name, grid):
    model, points = MODELS[name](), GRIDS[grid]
    tuples = _readings(model, points)
    monkeypatch.setattr(dist, "TUPLE_POINTS", 0)
    arrays = _readings(model, points)
    assert (tuples.pop("form"), arrays.pop("form")) == ("tuple", "ndarray")
    assert tuples == arrays
    _assert_conditioned_is_joint_over_marginal(model, tuples)


@pytest.mark.parametrize("name", ["bell", "counterexample", "first-nan", "tied", "zero-mass"])
def test_large_grid_reads_the_same_as_tuples(monkeypatch, name):
    model = MODELS[name]()
    arrays = _readings(model, LARGE_GRID)
    monkeypatch.setattr(dist, "TUPLE_POINTS", 10**9)
    tuples = _readings(model, LARGE_GRID)
    assert (tuples.pop("form"), arrays.pop("form")) == ("tuple", "ndarray")
    assert tuples == arrays
    _assert_conditioned_is_joint_over_marginal(model, tuples)


@pytest.mark.parametrize("name", ["ghz", "prbox"])
def test_rational_conditioned_is_joint_over_marginal(name):
    model = (ghz_backward_model if name == "ghz" else pr_backward_model)()
    tab = model.tabulate(settings_grid(model))
    for label in model.lam.labels:
        conditioned = tab.conditioned(label)
        assert [list(row) for row in conditioned] == _joint_over_marginal(
            model, _one_point_tables(tab), label)
        assert {type(p) for row in conditioned for p in row} == {Fraction}


# ---------------------------------------------------------------------------
# The reductions on their own
# ---------------------------------------------------------------------------

#: Each case's points run in both forms: a few with ``TUPLE_POINTS`` patched to 0,
#: and padded past ``TUPLE_POINTS`` unpatched.
FORMS = ["patched", "past-the-bound"]


def _array_form(monkeypatch, form, entries, pad):
    """``entries`` (a list) padded with ``pad`` past ``TUPLE_POINTS`` points, or left as
    they are with the bound patched to 0: the array form either way."""
    if form == "patched":
        monkeypatch.setattr(dist, "TUPLE_POINTS", 0)
        return entries
    return entries + [pad] * (dist.TUPLE_POINTS + 1 - len(entries))


#: A wing marginal over one slot (wing 1 at 0.0), and the ``(lo, hi)`` that
#: ``min``/``max(at, key=p.__getitem__)`` give, whose values' difference is the slot's
#: spread: a NaN at the slot's first point is both, a later NaN neither (plain
#: ``argmin``/``argmax`` would pick it), and ties go to the first point.  A model never
#: reaches the NaN rows (``_normalized`` rejects a NaN weight), so they stay here.
SPANS = {
    "nan-after-finite": ([0.5, math.nan, 0.25, 0.75, math.nan], (2, 3)),
    "nan-first": ([math.nan, 0.25, 0.75, math.nan], (0, 0)),
    "tied-min-and-max": ([0.5, 0.25, 0.75, 0.25, 0.75], (1, 2)),
    "signed-zero-min": ([0.5, 0.0, -0.0, 1.0, 1.0], (1, 3)),
    "flat": ([0.25, 0.25, 0.25], (0, 0)),
}


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("case", SPANS)
def test_slot_span_is_min_and_max_by_key(monkeypatch, case, form):
    values, (lo, hi) = SPANS[case]
    # the case's slot (wing 1 at 0.0) first; the padding is a second slot (wing 1 at 1.0)
    points = [(0.0, float(g)) for g in range(len(values))]
    points = _array_form(monkeypatch, form, points, (1.0, 0.0))
    p = dist._form(values + [0.5] * (len(points) - len(values)), "float")
    (slot, *rest), _ = dist._slots(points, "float")
    assert type(p).__name__ == type(slot).__name__ == "ndarray"
    assert slot.tolist() == list(range(len(values)))
    assert (lo, hi) == (min(range(len(values)), key=values.__getitem__),
                        max(range(len(values)), key=values.__getitem__))
    spreads = dist._spreads(p, [slot, *rest])
    assert [type(x) for x in spreads] == [float] * (1 + len(rest))
    assert _hex(spreads) == _hex([values[hi] - values[lo]] + [0.0] * len(rest))
    # the tuple form, the reference, reads the same
    assert _hex(dist._spreads(values, [list(range(len(values)))])) == _hex(spreads[:1])


#: A flat sweep and the index ``_sweep`` reports: the first NaN, even after the
#: maximum, else the first strict maximum above zero (a tie goes to the first).
SWEEPS = {
    "tie": ([0.0, 0.5, 0.25, 0.5], 1),
    "nan-after-max": ([0.0, 0.75, 0.5, math.nan, 1.0, math.nan], 3),
    "nothing-above-zero": ([0.0, -0.0, 0.0], None),
}


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("case", SWEEPS)
def test_sweep_reports_the_first_nan_else_first_maximum(monkeypatch, case, form):
    devs, worst = SWEEPS[case]
    array = dist._form(_array_form(monkeypatch, form, devs, 0.0), "float")
    assert type(array).__name__ == "ndarray"
    assert dist._first_worst(array) == dist._first_worst(devs) == worst
    if worst is not None:
        value = dist._at(array, worst)
        assert type(value) is float and _hex(value) == _hex(devs[worst])


@pytest.mark.parametrize("form", FORMS)
def test_slots_follow_first_reach_and_merge_signed_zeros(monkeypatch, form):
    # wing 1: -0.0 then 0.0 (one slot, reached first at point 0), then 2.0 and 1 / 1.0;
    # wing 2 is binary: the int 1 and the float 1.0 share a slot
    points = [(-0.0, 1), (2.0, 0), (0.0, 1.0), (1, 0), (1.0, 1), (2.0, 1)]
    expected = [[[0, 2], [1, 5], [3, 4]], [[0, 2, 4, 5], [1, 3]]]
    assert dist._slots(points, "float") == expected  # the tuple form
    points = _array_form(monkeypatch, form, points, (7.0, 0))
    slots = dist._slots(points, "float")
    assert type(slots[0][0]).__name__ == "ndarray"
    if form == "patched":
        assert [[s.tolist() for s in wing] for wing in slots] == expected
    else:  # the padding joins wing 2's slot at 0 and adds wing 1's at 7.0
        pad = list(range(6, len(points)))
        assert [[s.tolist() for s in wing] for wing in slots] == [
            expected[0] + [pad], [expected[1][0], expected[1][1] + pad]]


@pytest.mark.parametrize("form", FORMS)
def test_signed_zero_slot_reports_its_first_reached_setting(monkeypatch, form):
    # wing 1 reaches -0.0, then 0.0: one slot.  Given lambda1 the counterexample pins
    # a1 to the sign of alpha2 (sign(0) = +1), so P(a1 = +1 | lambda1) is 0 at the first
    # point and 1 at the second: the first slot of the sweep spans the full deviation 1.
    model = signalling_counterexample_model()
    points = [(-0.0, -1.0), (0.0, 1.0)]
    grid = _array_form(monkeypatch, form, points, (0.5, 1.0))
    assert type(model.tabulate(grid).K).__name__ == "ndarray"
    report = model.verify_no_signalling(["lambda1"], grid)
    assert _hex(report.worst_case) == _hex({
        "wing": "a1", "local_setting": -0.0, "outcome": 1, "label": "lambda1",
        "min_probability": 0.0, "max_probability": 1.0,
        "min_at_settings": (-0.0, -1.0), "max_at_settings": (0.0, 1.0)})
    assert _hex(report.max_deviation) == _hex(1.0)
