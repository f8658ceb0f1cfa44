"""Probability-table engine: construction, operations, backends."""

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
    expectation,
    make_joint,
    marginalize,
    tv_distance,
)

A = Variable("a", (1, -1))
B = Variable("b", (1, -1))


def uniform2():
    return make_joint((A, B), {k: 1 for k in itertools.product((1, -1), repeat=2)})


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
        j = make_joint((v,), {(1,): 3, (-1,): 1})
        assert j.prob((1,)) == Fraction(3, 4)
        assert j.prob((-1,)) == Fraction(1, 4)

    def test_single_positive_entry_is_point_mass(self):
        j = make_joint((A, B), {(1, -1): 7})
        assert j.prob((1, -1)) == 1
        assert j.prob((1, 1)) == 0

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ConstructionError):
            make_joint((A,), {(1,): 0, (-1,): 0})

    def test_negative_weight_rejected(self):
        with pytest.raises(ConstructionError):
            make_joint((A,), {(1,): 1, (-1,): -0.5})

    def test_out_of_domain_assignment_rejected(self):
        with pytest.raises(ConstructionError):
            make_joint((A,), {(2,): 1})

    def test_float_weight_selects_float_backend(self):
        j = make_joint((A,), {(1,): 0.5, (-1,): 0.5})
        assert j.backend == FLOAT
        assert isinstance(j.prob((1,)), float)

    def test_zero_entries_are_absent(self):
        j = make_joint((A, B), {(1, 1): 1, (1, -1): 0})
        assert dict(j.items()) == {(1, 1): Fraction(1)}

    def test_canonical_iteration_order(self):
        j = make_joint((A, B), {(-1, -1): 1, (1, 1): 1, (1, -1): 2})
        assert list(dict(j.items())) == [(1, 1), (1, -1), (-1, -1)]


class TestMarginalize:
    def test_uniform_marginal_is_uniform(self):
        m = marginalize(uniform2(), ["a"])
        assert m.prob((1,)) == Fraction(1, 2)
        assert m.prob((-1,)) == Fraction(1, 2)

    def test_keep_all_is_identity(self):
        j = uniform2()
        assert marginalize(j, ["a", "b"]) == j

    def test_unknown_variable_rejected(self):
        with pytest.raises(VariableMismatchError):
            marginalize(uniform2(), ["zz"])

    def test_mass_preserved(self):
        j = make_joint((A, B), {(1, 1): 3, (-1, 1): 1, (-1, -1): 4})
        assert marginalize(j, ["b"]).total() == 1


class TestCondition:
    def test_point_mass_conditioning(self):
        j = make_joint((A, B), {(1, -1): 1})
        c = condition(j, {"a": 1})
        assert c.names == ("b",)
        assert c.prob((-1,)) == 1

    def test_zero_probability_evidence_raises(self):
        j = make_joint((A, B), {(1, 1): 1})
        with pytest.raises(NullEvidenceError):
            condition(j, {"a": -1})

    def test_renormalizes_slice(self):
        j = make_joint((A, B), {(1, 1): 3, (1, -1): 1, (-1, 1): 4})
        c = condition(j, {"a": 1})
        assert c.prob((1,)) == Fraction(3, 4)
        assert c.prob((-1,)) == Fraction(1, 4)

    def test_unknown_evidence_variable_rejected(self):
        with pytest.raises(VariableMismatchError):
            condition(uniform2(), {"zz": 1})

    def test_full_evidence_leaves_trivial_table(self):
        c = condition(uniform2(), {"a": 1, "b": -1})
        assert c.variables == ()
        assert c.prob(()) == 1


class TestExpectation:
    def test_constant_one_gives_one(self):
        assert expectation(uniform2(), lambda x: 1) == 1

    def test_product_on_uniform_is_zero(self):
        assert expectation(uniform2(), lambda x: x["a"] * x["b"]) == 0

    def test_stays_rational_on_rational_backend(self):
        j = make_joint((A,), {(1,): 3, (-1,): 1})
        value = expectation(j, lambda x: x["a"])
        assert value == Fraction(1, 2)
        assert isinstance(value, Fraction)


class TestTvDistance:
    def test_identical_joints(self):
        assert tv_distance(uniform2(), uniform2()) == 0

    def test_disjoint_point_masses(self):
        j1 = make_joint((A,), {(1,): 1})
        j2 = make_joint((A,), {(-1,): 1})
        assert tv_distance(j1, j2) == 1

    def test_uniform_vs_half_support(self):
        j1 = uniform2()
        j2 = make_joint((A, B), {(1, 1): 1, (1, -1): 1})
        assert tv_distance(j1, j2) == Fraction(1, 2)

    def test_mismatched_spaces_rejected(self):
        j1 = make_joint((A,), {(1,): 1})
        j2 = make_joint((B,), {(1,): 1})
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
    j = make_joint(variables, weights)
    assert j.total() == 1
    assert all(p > 0 for _, p in j.items())
    jf = make_joint(variables, {k: float(w) for k, w in weights.items()})
    assert abs(jf.total() - 1.0) <= FLOAT_TOL


@given(weight_tables(), st.data())
def test_marginalize_composition_law(table, data):
    variables, weights = table
    j = make_joint(variables, weights)
    names = list(j.names)
    outer = data.draw(st.sets(st.sampled_from(names), min_size=1))
    inner = data.draw(st.sets(st.sampled_from(sorted(outer)), min_size=1))
    two_step = marginalize(marginalize(j, outer), inner)
    one_step = marginalize(j, inner)
    assert two_step == one_step


@given(weight_tables(), st.data())
def test_condition_is_a_normalized_bayes_slice(table, data):
    variables, weights = table
    j = make_joint(variables, weights)
    support = [a for a, _ in j.items()]
    anchor = data.draw(st.sampled_from(support))
    n_fixed = data.draw(st.integers(1, len(variables)))
    evidence = {variables[i].name: anchor[i] for i in range(n_fixed)}
    c = condition(j, evidence)
    assert expectation(c, lambda x: 1) == 1
    rest = anchor[n_fixed:]
    mass = sum(
        p for a, p in j.items() if a[:n_fixed] == anchor[:n_fixed]
    )
    assert c.prob(rest) * mass == j.prob(anchor)


@given(weight_tables(), st.data())
@settings(max_examples=60)
def test_backends_agree_within_tolerance(table, data):
    variables, weights = table
    jr = make_joint(variables, weights)
    jf = make_joint(variables, {k: float(w) for k, w in weights.items()})
    keep = data.draw(st.sets(st.sampled_from(list(jr.names)), min_size=1))
    mr, mf = marginalize(jr, keep), marginalize(jf, keep)
    for assignment in mr.assignments():
        assert abs(float(mr.prob(assignment)) - mf.prob(assignment)) <= FLOAT_TOL
    er = expectation(jr, lambda x: sum(hash(v) % 5 for v in x.values()))
    ef = expectation(jf, lambda x: sum(hash(v) % 5 for v in x.values()))
    assert abs(float(er) - ef) <= FLOAT_TOL * 10


class TestDenseTable:
    def test_prob_is_zero_outside_the_domains(self):
        j = uniform2()
        assert j.prob((1, 2)) == 0 and isinstance(j.prob((1, 2)), Fraction)
        assert j.prob((1,)) == 0 and j.prob((1, -1, 1)) == 0
        jf = make_joint((A,), {(1,): 0.5, (-1,): 0.5})
        assert jf.prob((0,)) == 0.0 and isinstance(jf.prob((0,)), float)

    def test_values_are_python_numbers(self):
        jf = make_joint((A, B), {(1, 1): 0.3, (-1, 1): 0.7})
        assert all(type(p) is float for _, p in jf.items())
        assert type(jf.prob((1, 1))) is float and type(jf.total()) is float
        assert type(tv_distance(jf, jf)) is float


# ---------------------------------------------------------------------------
# Dense tables against the frozen sparse reference
# ---------------------------------------------------------------------------


def _same_table(dense, sparse):
    assert dense.variables == sparse.variables and dense.backend == sparse.backend
    assert list(dense.items()) == list(sparse.items())
    for assignment in dense.assignments():
        p, q = dense.prob(assignment), sparse.prob(assignment)
        assert p == q and type(p) is type(q)
    assert dense.total() == sparse.total()


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
    expected = sum(
        abs(sparse.prob(a) - sparse2.prob(a)) for a in sparse.assignments()
    ) / 2
    got = tv_distance(dense, dense2)
    assert got == expected and type(got) is type(expected)
    if backend == RATIONAL:
        assert got == ref.tv_distance(sparse, sparse2)
