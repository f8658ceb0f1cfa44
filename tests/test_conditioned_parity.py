"""CHSH, the LC witness and the label marginal against per-point reductions.

``backward_model_chsh``, ``lc_violation_witness`` and ``lambda_marginal``
read the label-conditioned tensor of one tabulation.  The oracles here are
the reductions they replaced: the one-point conditioned table, one setting
tuple at a time, reduced by left-to-right sums over its cells in canonical
order, and ``marginalize`` of ``assemble_joint``.  Both must agree bit for bit:
same types, ``float.hex`` for floats and equal Fractions, on the four stock
models, every label, and angle grids holding 0.0, -0.0 and pi/4 multiples.
"""

import itertools
import json
import math

import pytest

from retrobell import (
    ANGLE,
    BackwardModel,
    CheckReport,
    ChshConfig,
    ColliderKernel,
    ConstructionError,
    LambdaSpace,
    Wing,
    backward_model_chsh,
    bell_backward_model,
    chsh_value,
    entry_table,
    ghz_backward_model,
    marginalize,
    pr_backward_model,
    signalling_counterexample_model,
)
from retrobell.backward import LAMBDA

PI = math.pi

#: Angles for the witness and the label marginal: both zeros, pi/4 multiples
#: of either sign and one generic angle.
ANGLES = (0.0, -0.0, PI / 4, -PI / 4, PI / 2, 3 * PI / 4, PI, 1.0)

#: Angles for the four CHSH slots: every config over them is scanned, so
#: 0.0 and -0.0 appear as distinct slots of one config.
CHSH_ANGLES = (0.0, -0.0, PI / 4, -3 * PI / 4)

MODELS = {
    "bell": bell_backward_model(),
    "counterexample": signalling_counterexample_model(),
    "ghz": ghz_backward_model(),
    "prbox": pr_backward_model(),
}


def _signed_zero_model():
    """Two angle wings whose correlation under L1 depends on each setting's
    sign bit, so a pair holding -0.0 differs from the one holding 0.0."""
    corr = {(1.0, 1.0): 0.5, (1.0, -1.0): -0.25, (-1.0, 1.0): 0.1, (-1.0, -1.0): 0.3}

    def kernel(cell, settings, label):
        p = (1 + cell[0] * cell[1] * corr[tuple(math.copysign(1.0, s) for s in settings)]) / 2
        return p if label == "L1" else 1 - p

    wings = (Wing("a1", "alpha1", ANGLE, 0.5), Wing("a2", "alpha2", ANGLE, 0.5))
    labels = ("L1", "L2")
    return BackwardModel("signed-zero", wings, LambdaSpace(labels, (0.5, 0.5)),
                         ColliderKernel(labels, entry_table(kernel, labels)), "float")


def _grid(model, values):
    if model.wings[0].setting_kind == "angle":
        return list(itertools.product(values, repeat=len(model.wings)))
    return list(itertools.product((0, 1), repeat=len(model.wings)))


def exact(x):
    """``x`` as its type and exact content, so equal means bit for bit."""
    if isinstance(x, tuple):
        return tuple(exact(v) for v in x)
    if isinstance(x, dict):
        return tuple((k, exact(v)) for k, v in x.items())
    return type(x), x.hex() if isinstance(x, float) else x


# ---------------------------------------------------------------------------
# The composition each path replaced
# ---------------------------------------------------------------------------


def conditioned(model, label, settings):
    """P(cell | settings, label) by cell, from the one-point tabulation."""
    return dict(zip(model._cells(), model.tabulate([settings]).conditioned(label)[0]))


def oracle_chsh(model, label, c):
    def correlation(s1, s2):
        total = 0  # E(a1 * a2) over the cells of nonzero probability
        for (a1, a2), p in conditioned(model, label, (s1, s2)).items():
            if p:
                total = total + a1 * a2 * p
        return total

    return chsh_value(correlation, c)


def oracle_witness(model, label, settings, outcomes):
    settings = model.check_settings(settings)
    cond = conditioned(model, label, settings)
    joint_p = cond[outcomes]
    product = 1
    for i, outcome in enumerate(outcomes):
        product = product * sum(p for cell, p in cond.items() if cell[i] == outcome)
    difference = abs(joint_p - product)
    return CheckReport("lc_witness", difference > model.tolerance, difference, {
        "label": label, "settings": settings, "outcomes": outcomes,
        "product_of_wing_conditionals": product, "joint_conditional": joint_p,
    }, model.tolerance, model.backend)


def oracle_lambda_marginal(model, settings):
    return marginalize(model.assemble_joint(settings), [LAMBDA])


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["bell", "counterexample", "prbox", "signed-zero"])
def test_chsh_matches_expectation_of_conditioned_tables(name):
    model = _signed_zero_model() if name == "signed-zero" else MODELS[name]
    values = CHSH_ANGLES if model.wings[0].setting_kind == "angle" else (0, 1)
    configs = [ChshConfig(*slots) for slots in itertools.product(values, repeat=4)]
    for label in model.lam.labels:
        for c in configs:
            assert exact(backward_model_chsh(model, label, c)) == exact(
                oracle_chsh(model, label, c)), (label, c)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_witness_matches_marginalized_conditioned_table(name):
    model = MODELS[name]
    for label in model.lam.labels:
        for settings in _grid(model, ANGLES):
            for outcomes in model._cells():
                w = model.lc_violation_witness(label, settings, outcomes)
                o = oracle_witness(model, label, settings, outcomes)
                for f in w._fields:
                    assert exact(getattr(w, f)) == exact(getattr(o, f)), (
                        f, label, settings, outcomes)
                assert json.dumps(w.to_json_dict()) == json.dumps(o.to_json_dict())


@pytest.mark.parametrize("name", sorted(MODELS))
def test_lambda_marginal_matches_marginalized_joint(name):
    model = MODELS[name]
    for settings in _grid(model, ANGLES):
        m = model.lambda_marginal(settings)
        o = oracle_lambda_marginal(model, settings)
        assert m.variables == o.variables
        assert exact(tuple(m.items())) == exact(tuple(o.items())), settings


def test_chsh_still_needs_two_wings():
    with pytest.raises(ValueError, match="two-wing"):
        backward_model_chsh(MODELS["ghz"], "lambda0", ChshConfig(0, 1, 0, 1))


def test_chsh_checks_all_four_pairs_before_the_label():
    bell = MODELS["bell"]
    with pytest.raises(ConstructionError, match="finite"):
        backward_model_chsh(bell, "nosuch", ChshConfig(0.0, 0.0, 0.0, math.nan))
    with pytest.raises(ConstructionError, match="unknown lambda label"):
        backward_model_chsh(bell, "nosuch", ChshConfig(0.0, 0.0, 0.0, 1.0))
