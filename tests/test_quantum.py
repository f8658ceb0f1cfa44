"""Closed-form target statistics against independently computed values."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from retrobell import (
    AXES,
    BELL_STATES,
    OUTCOMES,
    bell_expectation,
    bell_prob,
    bell_table,
    ghz_prob,
    pr_prob,
)

angles = st.floats(-10.0, 10.0, allow_nan=False)

# Pauli matrices for the test-only statevector checks.
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _projector(outcome, observable):
    """Projector onto the ``outcome`` (+1 or -1) eigenspace of a +/-1 observable."""
    return (np.eye(len(observable)) + outcome * observable) / 2


class TestBellProb:
    def test_state1_equal_angles_aligned_outcomes(self):
        assert bell_prob(1, 1, 1, 0.0, 0.0) == 0.5

    def test_state3_equal_angles_aligned_outcomes(self):
        assert bell_prob(3, 1, 1, 0.0, 0.0) == 0.0

    def test_state1_at_pi_over_3(self):
        # independent evaluation of (1 + cos(pi/3))/4
        expected = 0.25 * (1.0 + math.cos(math.pi / 3))
        assert expected == 0.375
        assert bell_prob(1, 1, 1, 0.0, math.pi / 3) == pytest.approx(expected, abs=1e-15)

    def test_sign_structure_of_all_four_states(self):
        a, b = 0.3, 1.1
        cm, cp = math.cos(a - b), math.cos(a + b)
        assert bell_prob(1, 1, -1, a, b) == pytest.approx(0.25 * (1 - cm), abs=1e-15)
        assert bell_prob(2, 1, -1, a, b) == pytest.approx(0.25 * (1 + cm), abs=1e-15)
        assert bell_prob(3, 1, -1, a, b) == pytest.approx(0.25 * (1 + cp), abs=1e-15)
        assert bell_prob(4, 1, -1, a, b) == pytest.approx(0.25 * (1 - cp), abs=1e-15)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            bell_prob(5, 1, 1, 0.0, 0.0)
        with pytest.raises(ValueError):
            bell_prob(1, 0, 1, 0.0, 0.0)
        with pytest.raises(ValueError):
            bell_prob(1, 1, 1, math.inf, 0.0)

    def test_overflowing_angle_sum_or_difference_is_named(self):
        # finite angles whose sum (states 3, 4) or difference (states 1, 2) is not
        for state, a, b, named in [(3, 1e308, 1e308, "alpha1 + alpha2"),
                                   (2, 1e308, -1e308, "alpha1 - alpha2")]:
            with pytest.raises(ValueError, match=re.escape(named)):
                bell_expectation(state, a, b)
        assert bell_expectation(1, 1e308, 1e308) == 1.0
        with pytest.raises(ValueError, match=re.escape("alpha1 + alpha2")):
            bell_table([(0.0, 0.0), (1e308, 1e308)])

    @given(angles, angles)
    def test_states_sum_to_one_for_every_outcome(self, a, b):
        for a1, a2 in itertools.product(OUTCOMES, repeat=2):
            total = sum(bell_prob(s, a1, a2, a, b) for s in BELL_STATES)
            assert total == pytest.approx(1.0, abs=1e-12)

    @given(st.sampled_from(BELL_STATES), angles, angles)
    def test_range_is_zero_to_half(self, state, a, b):
        for a1, a2 in itertools.product(OUTCOMES, repeat=2):
            p = bell_prob(state, a1, a2, a, b)
            assert -1e-15 <= p <= 0.5 + 1e-15


class TestBellExpectation:
    def test_perfect_correlation_at_equal_angles(self):
        assert bell_expectation(1, 0.7, 0.7) == pytest.approx(1.0, abs=1e-15)

    def test_state2_at_zero_pi(self):
        # oracle: sum of a1*a2 * P_2 over outcomes
        oracle = sum(
            a1 * a2 * bell_prob(2, a1, a2, 0.0, math.pi)
            for a1, a2 in itertools.product(OUTCOMES, repeat=2)
        )
        assert oracle == pytest.approx(1.0, abs=1e-12)
        assert bell_expectation(2, 0.0, math.pi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_angles_uncorrelated(self):
        assert bell_expectation(1, 0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    @given(st.sampled_from(BELL_STATES), angles, angles)
    def test_matches_outcome_sum_and_is_bounded(self, state, a, b):
        oracle = sum(
            a1 * a2 * bell_prob(state, a1, a2, a, b)
            for a1, a2 in itertools.product(OUTCOMES, repeat=2)
        )
        value = bell_expectation(state, a, b)
        assert value == pytest.approx(oracle, abs=1e-12)
        assert abs(value) <= 1.0 + 1e-15


#: The Bell pairs by label, as BELL_STATES names them, in the |0>, |1> basis.
BELL_VECTORS = {
    1: np.array([1, 0, 0, 1]) / math.sqrt(2),   # Phi+
    2: np.array([0, 1, -1, 0]) / math.sqrt(2),  # Psi-
    3: np.array([0, 1, 1, 0]) / math.sqrt(2),   # Psi+
    4: np.array([1, 0, 0, -1]) / math.sqrt(2),  # Phi-
}


def _observable(alpha):
    return math.cos(alpha) * PAULI_Z + math.sin(alpha) * PAULI_X


class TestBellStatevector:
    GRID = [k * math.pi / 8 for k in range(-8, 9)]

    @pytest.mark.parametrize("state", BELL_STATES)
    def test_expectation_matches_the_named_state(self, state):
        psi = BELL_VECTORS[state]
        for a1, a2 in itertools.product(self.GRID, repeat=2):
            E = np.vdot(psi, np.kron(_observable(a1), _observable(a2)) @ psi)
            assert abs(E - bell_expectation(state, a1, a2)) <= 1e-15

    @pytest.mark.parametrize("state", BELL_STATES)
    def test_outcome_probabilities_match_the_named_state(self, state):
        psi = BELL_VECTORS[state]
        for a1, a2 in itertools.product(self.GRID, repeat=2):
            for o1, o2 in itertools.product(OUTCOMES, repeat=2):
                P = np.kron(_projector(o1, _observable(a1)), _projector(o2, _observable(a2)))
                assert abs(np.vdot(psi, P @ psi) - bell_prob(state, o1, o2, a1, a2)) <= 1e-15


class TestGhzProb:
    def test_allowed_triple_at_all_x(self):
        assert ghz_prob(1, 1, 1, 0, 0, 0) == Fraction(1, 4)

    def test_parity_condition_both_ways(self):
        # no y axis: product +1, so the -1-product triple is excluded
        assert ghz_prob(1, 1, -1, 0, 0, 0) == 0
        # two y axes: product (-1)**(2/2) = -1 flips the support
        assert ghz_prob(1, 1, 1, 1, 1, 0) == 0
        assert ghz_prob(1, 1, -1, 1, 1, 0) == Fraction(1, 4)
        # one y axis: uniform, whatever the product
        assert ghz_prob(1, 1, -1, 1, 0, 0) == Fraction(1, 8)
        assert ghz_prob(1, 1, 1, 1, 0, 0) == Fraction(1, 8)

    def test_normalization_at_every_setting(self):
        for s in itertools.product(AXES, repeat=3):
            total = sum(
                ghz_prob(*a, *s) for a in itertools.product(OUTCOMES, repeat=3)
            )
            assert total == 1

    def test_support_is_four_triples_at_even_y_and_all_at_odd_y(self):
        for s in itertools.product(AXES, repeat=3):
            support = [
                a
                for a in itertools.product(OUTCOMES, repeat=3)
                if ghz_prob(*a, *s) > 0
            ]
            assert len(support) == (8 if sum(s) % 2 else 4)

    def test_matches_the_ghz_statevector(self):
        # <psi| P_a1 (x) P_a2 (x) P_a3 |psi> for (|000> + |111>)/sqrt(2), with
        # setting 0 measuring X and 1 measuring Y: 8x8 matrices, all 64 entries
        psi = np.zeros(8, dtype=complex)
        psi[0] = psi[7] = 1 / math.sqrt(2)
        for s in itertools.product(AXES, repeat=3):
            for a in itertools.product(OUTCOMES, repeat=3):
                P = np.eye(1)
                for outcome, axis in zip(a, s):
                    P = np.kron(P, _projector(outcome, PAULI_Y if axis else PAULI_X))
                assert P.shape == (8, 8)
                p = np.vdot(psi, P @ psi)
                assert abs(p.imag) <= 1e-15
                assert abs(p.real - float(ghz_prob(*a, *s))) <= 1e-15

    def test_values_are_exact_rationals(self):
        assert isinstance(ghz_prob(1, 1, 1, 0, 0, 0), Fraction)


class TestPrProb:
    def test_aligned_outcomes_at_00(self):
        assert pr_prob(1, 1, 0, 0) == Fraction(1, 2)

    def test_aligned_outcomes_at_11(self):
        assert pr_prob(1, 1, 1, 1) == 0

    def test_normalization_at_every_setting(self):
        for s1, s2 in itertools.product(AXES, repeat=2):
            total = sum(
                pr_prob(a1, a2, s1, s2)
                for a1, a2 in itertools.product(OUTCOMES, repeat=2)
            )
            assert total == 1

    def test_anticorrelated_only_at_both_y(self):
        for s1, s2 in itertools.product(AXES, repeat=2):
            winning = 1 if (s1, s2) != (1, 1) else -1
            assert pr_prob(1, winning, s1, s2) == Fraction(1, 2)

