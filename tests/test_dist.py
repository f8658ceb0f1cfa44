"""Probability-table engine: construction, operations, backends.

Tables are read through ``items()``, the nonzero entries in canonical order.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sparse_reference as ref
from retrobell import (
    FLOAT,
    FLOAT_TOL,
    RATIONAL,
    ConstructionError,
    NullEvidenceError,
    Variable,
    VariableMismatchError,
    condition,
    make_joint,
    marginalize,
    tv_distance,
)

A = Variable("a", (1, -1))
B = Variable("b", (1, -1))


def uniform2():
    return make_joint((A, B), {k: 1 for k in itertools.product((1, -1), repeat=2)}, RATIONAL)


def total(j):
    return sum(p for _, p in j.items())


class TestVariable:
    def test_empty_domain_rejected(self):
        with pytest.raises(ConstructionError):
            Variable("x", ())

    def test_duplicate_values_rejected(self):
        with pytest.raises(ConstructionError):
            Variable("x", (1, 1))

    def test_domain_order_is_preserved(self):
        v = Variable("x", (3, 1, 2))
        assert v.domain == (3, 1, 2)


class TestMakeJoint:
    def test_uniform_two_binary_vars(self):
        j = uniform2()
        assert all(p == Fraction(1, 4) for _, p in j.items())
        assert j.backend == RATIONAL

    def test_normalization_of_3_1_weights(self):
        v = Variable("a", (1, -1))
        j = make_joint((v,), {(1,): 3, (-1,): 1}, RATIONAL)
        assert dict(j.items()) == {(1,): Fraction(3, 4), (-1,): Fraction(1, 4)}

    def test_single_positive_entry_is_point_mass(self):
        j = make_joint((A, B), {(1, -1): 7}, RATIONAL)
        assert dict(j.items()) == {(1, -1): 1}

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ConstructionError):
            make_joint((A,), {(1,): 0, (-1,): 0}, RATIONAL)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConstructionError):
            make_joint((A,), {(1,): 1, (-1,): -0.5}, FLOAT)

    @pytest.mark.parametrize("weight", [Fraction(-1, 2), 0.5])
    def test_rational_weights_are_non_negative_and_exact(self, weight):
        # either test alone rejects: -1/2 is exact but negative, 0.5 non-negative
        # but a float; the other weight (3/2) makes the total positive
        with pytest.raises(ConstructionError, match="rational weights must be non-negative and exact"):
            make_joint((A,), {(1,): Fraction(3, 2), (-1,): weight}, RATIONAL)

    def test_out_of_domain_assignment_rejected(self):
        with pytest.raises(ConstructionError):
            make_joint((A,), {(2,): 1}, RATIONAL)

    def test_zero_entries_are_absent(self):
        j = make_joint((A, B), {(1, 1): 1, (1, -1): 0}, RATIONAL)
        assert dict(j.items()) == {(1, 1): Fraction(1)}

    def test_canonical_iteration_order(self):
        j = make_joint((A, B), {(-1, -1): 1, (1, 1): 1, (1, -1): 2}, RATIONAL)
        assert list(dict(j.items())) == [(1, 1), (1, -1), (-1, -1)]


class TestMarginalize:
    def test_uniform_marginal_is_uniform(self):
        m = marginalize(uniform2(), ["a"])
        assert dict(m.items()) == {(1,): Fraction(1, 2), (-1,): Fraction(1, 2)}

    def test_keep_all_is_identity(self):
        j = uniform2()
        m = marginalize(j, ["a", "b"])
        assert m.variables == j.variables and list(m.items()) == list(j.items())

    def test_unknown_variable_rejected(self):
        with pytest.raises(VariableMismatchError):
            marginalize(uniform2(), ["zz"])

    def test_mass_preserved(self):
        j = make_joint((A, B), {(1, 1): 3, (-1, 1): 1, (-1, -1): 4}, RATIONAL)
        assert total(marginalize(j, ["b"])) == 1


class TestCondition:
    def test_point_mass_conditioning(self):
        j = make_joint((A, B), {(1, -1): 1}, RATIONAL)
        c = condition(j, {"a": 1})
        assert c.names == ("b",)
        assert dict(c.items()) == {(-1,): 1}

    def test_zero_probability_evidence_raises(self):
        j = make_joint((A, B), {(1, 1): 1}, RATIONAL)
        with pytest.raises(NullEvidenceError):
            condition(j, {"a": -1})

    def test_renormalizes_slice(self):
        j = make_joint((A, B), {(1, 1): 3, (1, -1): 1, (-1, 1): 4}, RATIONAL)
        c = condition(j, {"a": 1})
        assert dict(c.items()) == {(1,): Fraction(3, 4), (-1,): Fraction(1, 4)}

    def test_unknown_evidence_variable_rejected(self):
        with pytest.raises(VariableMismatchError):
            condition(uniform2(), {"zz": 1})

    def test_full_evidence_leaves_trivial_table(self):
        c = condition(uniform2(), {"a": 1, "b": -1})
        assert c.variables == ()
        assert dict(c.items()) == {(): 1}


class TestTvDistance:
    def test_identical_joints(self):
        assert tv_distance(uniform2(), uniform2()) == 0

    def test_disjoint_point_masses(self):
        j1 = make_joint((A,), {(1,): 1}, RATIONAL)
        j2 = make_joint((A,), {(-1,): 1}, RATIONAL)
        assert tv_distance(j1, j2) == 1

    def test_uniform_vs_half_support(self):
        j1 = uniform2()
        j2 = make_joint((A, B), {(1, 1): 1, (1, -1): 1}, RATIONAL)
        assert tv_distance(j1, j2) == Fraction(1, 2)

    def test_mismatched_spaces_rejected(self):
        j1 = make_joint((A,), {(1,): 1}, RATIONAL)
        j2 = make_joint((B,), {(1,): 1}, RATIONAL)
        with pytest.raises(VariableMismatchError):
            tv_distance(j1, j2)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@st.composite
def weight_tables(draw):
    n_vars = draw(st.integers(1, 3))
    variables = tuple(
        Variable(f"v{i}", tuple(range(draw(st.integers(2, 3)))))
        for i in range(n_vars)
    )
    assignments = list(itertools.product(*(v.domain for v in variables)))
    weights = {a: draw(st.integers(0, 9)) for a in assignments}
    assume(any(weights.values()))
    return variables, weights


@given(weight_tables())
def test_joints_are_normalized_and_nonnegative(table):
    variables, weights = table
    j = make_joint(variables, weights, RATIONAL)
    assert total(j) == 1
    assert all(p > 0 for _, p in j.items())
    jf = make_joint(variables, {k: float(w) for k, w in weights.items()}, FLOAT)
    assert abs(total(jf) - 1.0) <= FLOAT_TOL


@given(weight_tables(), st.data())
def test_marginalize_composition_law(table, data):
    variables, weights = table
    j = make_joint(variables, weights, RATIONAL)
    names = list(j.names)
    outer = data.draw(st.sets(st.sampled_from(names), min_size=1))
    inner = data.draw(st.sets(st.sampled_from(sorted(outer)), min_size=1))
    two_step = marginalize(marginalize(j, outer), inner)
    one_step = marginalize(j, inner)
    assert two_step.variables == one_step.variables
    assert list(two_step.items()) == list(one_step.items())


@given(weight_tables(), st.data())
def test_condition_is_a_normalized_bayes_slice(table, data):
    variables, weights = table
    j = make_joint(variables, weights, RATIONAL)
    support = [a for a, _ in j.items()]
    anchor = data.draw(st.sampled_from(support))
    n_fixed = data.draw(st.integers(1, len(variables)))
    evidence = {variables[i].name: anchor[i] for i in range(n_fixed)}
    c = condition(j, evidence)
    assert total(c) == 1
    rest = anchor[n_fixed:]
    mass = sum(
        p for a, p in j.items() if a[:n_fixed] == anchor[:n_fixed]
    )
    assert dict(c.items())[rest] * mass == dict(j.items())[anchor]


@given(weight_tables(), st.data())
@settings(max_examples=60)
def test_backends_agree_within_tolerance(table, data):
    variables, weights = table
    jr = make_joint(variables, weights, RATIONAL)
    jf = make_joint(variables, {k: float(w) for k, w in weights.items()}, FLOAT)
    keep = data.draw(st.sets(st.sampled_from(list(jr.names)), min_size=1))
    mr, mf = marginalize(jr, keep), marginalize(jf, keep)
    pr, pf = dict(mr.items()), dict(mf.items())
    assert pr.keys() == pf.keys()
    for assignment, p in pr.items():
        assert abs(float(p) - pf[assignment]) <= FLOAT_TOL


class TestDenseTable:
    def test_values_are_python_numbers(self):
        jf = make_joint((A, B), {(1, 1): 0.3, (-1, 1): 0.7}, FLOAT)
        assert all(type(p) is float for _, p in jf.items())
        assert type(tv_distance(jf, jf)) is float


# ---------------------------------------------------------------------------
# Dense tables against the frozen sparse reference
# ---------------------------------------------------------------------------


def _same_table(dense, sparse):
    assert dense.variables == sparse.variables and dense.backend == sparse.backend
    assert list(dense.items()) == list(sparse.items())
    assert [type(p) for _, p in dense.items()] == [type(q) for _, q in sparse.items()]


@given(weight_tables(), st.sampled_from([RATIONAL, FLOAT]), st.data())
@settings(max_examples=80)
def test_dense_ops_equal_sparse_reference(table, backend, data):
    variables, weights = table
    if backend == FLOAT:
        # non-dyadic weights, so a different summation order shows
        scale = data.draw(st.floats(0.01, 100.0))
        weights = {k: w * scale / 7 for k, w in weights.items()}
    dense = make_joint(variables, weights, backend)
    sparse = ref.make_joint(variables, weights, backend)
    _same_table(dense, sparse)

    names = list(dense.names)
    keep = data.draw(st.sets(st.sampled_from(names), min_size=1))
    _same_table(marginalize(dense, keep), ref.marginalize(sparse, keep))

    anchor = data.draw(st.sampled_from([a for a, _ in sparse.items()]))
    pinned = data.draw(st.sets(st.sampled_from(range(len(names))), min_size=1))
    evidence = {names[i]: anchor[i] for i in sorted(pinned)}
    _same_table(condition(dense, evidence), ref.condition(sparse, evidence))

    # tv_distance is the left-to-right sum over the canonical assignments
    other_weights = {a: data.draw(st.integers(0, 9)) for a in dense.assignments()}
    assume(any(other_weights.values()))
    if backend == FLOAT:
        other_weights = {k: w / 3 for k, w in other_weights.items()}
    dense2 = make_joint(variables, other_weights, backend)
    sparse2 = ref.make_joint(variables, other_weights, backend)
    expected = ref.tv_distance(sparse, sparse2)
    got = tv_distance(dense, dense2)
    assert got == expected and type(got) is type(expected)
