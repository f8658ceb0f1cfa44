"""A float tabulation reads the same in both of its forms.

At up to ``dist.TUPLE_POINTS`` points a float tabulation is nested tuples, one
row of Python floats per point; beyond, it is float64 arrays, one row of
columns over every point, and the same formulas reduce both.  With the bound
patched to 0 every grid takes the array form, and with it patched to 10**9
every grid takes the tuple form, so each model below is read in both forms on
grids of one, four and nine points.  Every check
report (with its worst case), the witness, and every entry of ``joint`` and
``conditioned`` must agree by ``float.hex``, and every error by class and
message.
"""

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
}

#: Nine points: signed zeros, +/-pi, large angles.
NINE_POINTS = [(0.0, 0.0), (0.5, 1.0), (2.0, -0.0), (-0.0, 3.0), (math.pi, -math.pi),
               (-1.0, 0.25), (1e6, -1e6), (0.5, -0.5), (6.0, 1.5)]


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


def _readings(model, grid):
    labels = model.lam.labels
    tab = model.tabulate(grid)
    reads = {
        "form": lambda: type(tab.K).__name__,
        "joint": lambda: tab.joint,
        "si": lambda: model.verify_si(grid).to_json_dict(),
        "nosignal": lambda: verify_no_signalling_all(model, grid).to_json_dict(),
        "kernel_norm": lambda: model.verify_kernel_normalization(grid).to_json_dict(),
        "recovery": lambda: model.verify_recovery(grid).to_json_dict(),
    }
    for label in labels:
        reads[f"conditioned {label}"] = lambda label=label: tab.conditioned(label)
        reads[f"nosignal {label}"] = (
            lambda label=label: model.verify_no_signalling(label, grid).to_json_dict())
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


@pytest.mark.parametrize("name", MODELS)
def test_nine_points_read_the_same_as_tuples(monkeypatch, name):
    model = MODELS[name]()
    monkeypatch.setattr(dist, "TUPLE_POINTS", 0)
    arrays = _readings(model, NINE_POINTS)
    monkeypatch.setattr(dist, "TUPLE_POINTS", 10**9)
    tuples = _readings(model, NINE_POINTS)
    assert (tuples.pop("form"), arrays.pop("form")) == ("tuple", "ndarray")
    assert tuples == arrays
