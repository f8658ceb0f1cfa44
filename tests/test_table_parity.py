"""Batched kernel and target tables against per-entry references.

A stock float model's ``kernel.table`` (and bell's ``target_table``) must
give the tensor a per-entry reference gives, bit for bit: ``tobytes()``
equality, so ``-0.0`` and ``0.0`` count as different, and in the same form:
nested tuples at up to ``TUPLE_POINTS`` points, float64 arrays beyond.  The reference is the
same model with its tables built by ``entry_table`` from one scalar call per
entry: ``bell_prob`` for bell, the sign rule for the counterexample.  The
exact ghz and prbox kernels must equal their scalar collider rules, k times
the target and 1 - k.
"""

import itertools
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from retrobell import (
    ColliderKernel,
    ConstructionError,
    bell_backward_model,
    bell_prob,
    bell_table,
    default_grid,
    entry_table,
    ghz_backward_model,
    ghz_prob,
    pr_backward_model,
    pr_prob,
    settings_grid,
    sign_of,
    signalling_counterexample_model,
    verify_no_signalling_all,
)
from retrobell import dist
from retrobell.dist import TUPLE_POINTS

MODELS = {"bell": bell_backward_model, "counterexample": signalling_counterexample_model}

#: Signed zeros, the ends of the centered grid and large angles, every pair.
EDGE_VALUES = (-0.0, 0.0, math.pi, -math.pi, 1e6, -1e6, 0.5)
EDGE_GRID = list(itertools.product(EDGE_VALUES, repeat=2))


def bell_entry(cell, settings, label):
    return bell_prob(int(label[-1]), cell[0], cell[1], settings[0], settings[1])


def sign_rule(cell, settings, label):
    pinned = 1.0 if cell[0] == sign_of(settings[1]) else 0.0
    return pinned if label == "lambda1" else 1.0 - pinned


ENTRIES = {"bell": bell_entry, "counterexample": sign_rule}


def _scalar(model):
    entry, targets = ENTRIES[model.name], model.quantum_targets
    return replace(model, kernel=replace(model.kernel, table=entry_table(entry, model.lam.labels)),
                   target_table=entry_table(entry, targets) if targets else None)


def _grids():
    for res in (1, 4, 16, 48, 64):
        for centered in (False, True):
            yield pytest.param(res, centered, id=f"{res}-{'centered' if centered else 'plain'}")


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype == np.float64
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _reference_targets(model, points):
    return np.asarray(entry_table(bell_entry, model.quantum_targets)(points), dtype=float)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("res, centered", _grids())
def test_kernel_table_matches_scalar_loop(name, res, centered):
    model = MODELS[name]()
    grid = settings_grid(model, res, centered=centered)
    tab, ref = model.tabulate(grid), _scalar(model).tabulate(grid)
    assert tab.points == ref.points
    assert isinstance(tab.K, tuple) == isinstance(ref.K, tuple) == (len(grid) <= TUPLE_POINTS)
    _same_bits(tab.K, ref.K)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_tuple_points_is_the_last_tuple_table(name):
    model = MODELS[name]()
    grid = [(0.001 * i, 0.5 - 0.001 * i) for i in range(TUPLE_POINTS + 1)]
    assert isinstance(model.tabulate(grid[:-1]).K, tuple)
    assert isinstance(model.tabulate(grid).K, np.ndarray)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_kernel_table_matches_scalar_loop_on_edge_angles(name):
    model = MODELS[name]()
    K = model.tabulate(EDGE_GRID).K
    _same_bits(K, _scalar(model).tabulate(EDGE_GRID).K)


@pytest.mark.parametrize("res, centered", _grids())
def test_bell_target_table_matches_quantum_targets(res, centered):
    model = bell_backward_model()
    points = model.tabulate(settings_grid(model, res, centered=centered)).points
    table = model.target_table(points)
    assert isinstance(table, np.ndarray) == (len(points) > TUPLE_POINTS)
    _same_bits(table, _reference_targets(model, points))


def test_bell_target_table_on_edge_angles():
    model = bell_backward_model()
    points = [model.check_settings(s) for s in EDGE_GRID]
    _same_bits(model.target_table(points), _reference_targets(model, points))


def test_bell_table_is_bell_prob_per_state(monkeypatch):
    # the array form, forced; the tuple form meets bell_prob in the scalar-loop tests
    monkeypatch.setattr(dist, "TUPLE_POINTS", 0)
    cells = list(itertools.product((1, -1), repeat=2))
    P = bell_table(EDGE_GRID)
    for g, (a1, a2) in enumerate(EDGE_GRID):
        for c, (o1, o2) in enumerate(cells):
            for state in (1, 2, 3, 4):
                assert P[g, c, state - 1].tobytes() == np.float64(
                    bell_prob(state, o1, o2, a1, a2)).tobytes()


def test_bell_table_rejects_non_finite_angles():
    with pytest.raises(ValueError):
        bell_table([(0.0, math.nan)])


@pytest.mark.parametrize("points", [1, TUPLE_POINTS + 1])
@pytest.mark.parametrize("last, message", [
    ((1e308, 1e308), "alpha1 + alpha2 overflows at angles 1e+308, 1e+308"),
    ((1e308, -1e308), "alpha1 - alpha2 overflows at angles 1e+308, -1e+308"),
    ((0.5, math.inf), "angle must be finite, got inf"),
])
def test_bell_table_names_what_is_not_finite_in_both_forms(points, last, message):
    # finite angles whose sum alone (or difference alone) overflows, and an infinite
    # angle, at the last point: the message is bell_expectation's
    grid = [(0.5, 1.0)] * (points - 1) + [last]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bell_table(grid)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_checks_report_the_same_with_and_without_tables(name):
    model = MODELS[name]()
    scalar = _scalar(model)
    grid = settings_grid(model, 7, centered=True)
    checks = [lambda m: m.verify_si(grid), lambda m: verify_no_signalling_all(m, grid),
              lambda m: m.verify_kernel_normalization(grid)]
    if model.quantum_targets:
        checks.append(lambda m: m.verify_recovery(grid))
    for check in checks:
        assert check(model).to_json_dict() == check(scalar).to_json_dict()


def test_batched_table_of_the_wrong_shape_is_rejected():
    model = bell_backward_model()
    short = replace(model, kernel=replace(
        model.kernel, table=lambda points: np.asarray(bell_table(points))[:, :3]))
    with pytest.raises(ConstructionError, match="shape"):
        short.verify_si([(0.0, 0.0)])
    wide = replace(model, target_table=lambda points: np.zeros((len(points), 4, 5)))
    with pytest.raises(ConstructionError, match="shape"):
        wide.verify_recovery([(0.0, 0.0)])


@pytest.mark.parametrize("resolution, n", [(1, 1), (3, 9)])
def test_ragged_float_table_is_rejected_on_both_forms(monkeypatch, resolution, n):
    # one short row: the tuple form (1 point) and the array form (9 points,
    # forced) name the same nested shape, where numpy would raise its own ValueError
    if n == 9:
        monkeypatch.setattr(dist, "TUPLE_POINTS", 0)
    model = bell_backward_model()
    ragged = replace(model, kernel=replace(
        model.kernel, table=lambda points: [[[0.25] * 4] * 3 + [[0.25]] for _ in points]))
    with pytest.raises(ConstructionError, match=re.escape(f"shape ({n}, 4), not ({n}, 4, 4)")):
        ragged.verify_si(default_grid(model, resolution))


HALF = Fraction(1, 2)


@pytest.mark.parametrize("table, found", [
    (lambda points: [[[HALF] * 2] * 3 for _ in points], (4, 3, 2)),
    (lambda points: [[HALF] * 4 for _ in points], (4, 4)),
    (lambda points: [[[HALF] * 2] * 3 + [[HALF]] for _ in points], (4, 4)),
    (lambda points: [[[(HALF,)] * 2] * 4 for _ in points], (4, 4, 2, 1)),
], ids=["short", "flat", "ragged", "deep"])
def test_rational_table_of_the_wrong_shape_is_rejected(table, found):
    # the shape named is numpy's for the same nested lists
    model = pr_backward_model()
    grid = settings_grid(model)
    bad_kernel = replace(model, kernel=replace(model.kernel, table=table))
    with pytest.raises(ConstructionError, match=re.escape(f"shape {found}, not (4, 4, 2)")):
        bad_kernel.verify_si(grid)
    with pytest.raises(ConstructionError, match=re.escape(f"shape {found}, not (4, 4, 1)")):
        replace(model, target_table=table).verify_recovery(grid)


def test_custom_kernel_table_is_used_in_place_of_func(monkeypatch):
    # the checks read whole tables, never one kernel entry at a time
    model = bell_backward_model()

    def refuse(self, outcomes, settings, label):
        raise AssertionError("a check read a single kernel entry")

    monkeypatch.setattr(ColliderKernel, "probability", refuse)
    batched = replace(model, kernel=ColliderKernel(model.lam.labels, bell_table))
    grid = settings_grid(model, 4)
    assert batched.verify_si(grid).to_json_dict() == model.verify_si(grid).to_json_dict()


def _collider_rule(target, label, norm):
    """The exact collider kernel entry by entry: k = norm * target, and the
    complement label takes 1 - k."""

    def kernel(cell, settings, column):
        k = norm * target(*cell, *settings)
        return k if column == label else 1 - k

    return kernel


@pytest.mark.parametrize("build, target, label, norm, grid", [
    (ghz_backward_model, ghz_prob, "lambda0", Fraction(4), settings_grid(ghz_backward_model())),
    (pr_backward_model, pr_prob, "lambda_pr", Fraction(2), list(itertools.product((0, 1), repeat=2))),
], ids=["ghz", "prbox"])
def test_exact_collider_kernels_equal_their_scalar_rule(build, target, label, norm, grid):
    model = build()
    assert model.kernel.normalization == {label: norm}
    K = model.tabulate(grid).K
    ref = entry_table(_collider_rule(target, label, norm), model.lam.labels)(grid)
    # nested K[point][cell][label], every entry a Fraction equal to the scalar rule
    cells, labels = 2 ** len(grid[0]), len(model.lam.labels)
    assert [[len(row) for row in point] for point in K] == [[labels] * cells] * len(grid)
    assert all(type(k) is Fraction and k == r
               for point, ref_point in zip(K, ref, strict=True)
               for row, ref_row in zip(point, ref_point, strict=True)
               for k, r in zip(row, ref_row, strict=True))


@pytest.mark.parametrize("build", [ghz_backward_model, pr_backward_model], ids=["ghz", "prbox"])
def test_exact_tables_hold_fractions(build):
    model = build()
    tab = model.tabulate(settings_grid(model))
    T, M = tab.joint
    cells = list(itertools.product((1, -1), repeat=len(model.wings)))
    assert all(type(p) is Fraction for point in T for row in point for p in row)
    assert all(type(p) is Fraction for row in M for p in row)
    for label in model.lam.labels:
        cond = tab.conditioned(label)
        assert [len(row) for row in cond] == [len(cells)] * len(tab)
        assert all(type(p) is Fraction for row in cond for p in row)
        for settings in tab:
            for cell in cells:
                assert type(model.kernel.probability(cell, settings, label)) is Fraction


def test_probability_is_one_entry_of_the_one_point_table():
    bell, ghz = bell_backward_model(), ghz_backward_model()
    for a1, a2 in EDGE_GRID:
        for cell in itertools.product((1, -1), repeat=2):
            for label in bell.lam.labels:
                p = bell.kernel.probability(cell, (a1, a2), label)
                assert type(p) is float
                assert np.float64(p).tobytes() == np.float64(bell_entry(cell, (a1, a2), label)).tobytes()
    for s in settings_grid(ghz):
        for cell in itertools.product((1, -1), repeat=3):
            p = ghz.kernel.probability(cell, s, "lambda0")
            assert type(p) is Fraction and p == 4 * ghz_prob(*cell, *s)
