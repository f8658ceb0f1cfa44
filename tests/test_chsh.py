"""CHSH analyzer: functional, strategy enumeration, scan, model bounds."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrobell import (
    LHV_BOUND,
    PR_BOUND,
    PR_BOX_CONFIG,
    STANDARD_BELL_CONFIG,
    TSIRELSON_BOUND,
    ChshConfig,
    backward_model_chsh,
    bell_expectation,
    chsh_value,
    lhv_max_chsh,
    quantum_chsh_scan,
    angle_grid,
    settings_grid,
    verify_no_signalling_all,
)
from retrobell.chsh import _max_chsh

PI = math.pi
SQRT8 = 2.0 * math.sqrt(2.0)

#: The sixteen deterministic response tuples (a1(alpha1), a1(alpha1'),
#: a2(alpha2), a2(alpha2')).
RESPONSES = list(itertools.product((1, -1), repeat=4))


def deterministic_chsh(r):
    """S of fixed responses ``r``, the four slots taking the CHSH settings."""
    return chsh_value(lambda x, y: r[x] * r[2 + y], ChshConfig(0, 1, 0, 1))


class TestChshValue:
    def test_null_correlations(self):
        assert chsh_value(lambda a, b: 0.0, STANDARD_BELL_CONFIG) == 0.0

    def test_state1_standard_angles(self):
        # independent oracle: the four cosines summed by hand
        c = STANDARD_BELL_CONFIG
        oracle = abs(
            math.cos(c.alpha1 - c.alpha2) - math.cos(c.alpha1 - c.alpha2_prime)
        ) + abs(
            math.cos(c.alpha1_prime - c.alpha2)
            + math.cos(c.alpha1_prime - c.alpha2_prime)
        )
        assert oracle == pytest.approx(SQRT8, abs=1e-12)
        value = chsh_value(lambda a, b: bell_expectation(1, a, b), c)
        assert value == pytest.approx(SQRT8, abs=1e-12)

    def test_pr_box_correlations_reach_four(self):
        value = chsh_value(lambda a, b: (-1) ** (a * b), PR_BOX_CONFIG)
        assert value == 4

    def test_invariant_under_global_outcome_flip(self):
        # flipping all outcomes leaves every pair correlation unchanged
        for r in RESPONSES:
            assert deterministic_chsh(r) == deterministic_chsh(tuple(-x for x in r))


class TestLhvMax:
    def test_exactly_two(self):
        value = lhv_max_chsh()
        assert value == 2
        assert isinstance(value, int)

    def test_all_plus_strategy(self):
        assert deterministic_chsh((1, 1, 1, 1)) == 2

    def test_one_flip_strategy(self):
        assert deterministic_chsh((1, 1, 1, -1)) == 2

    def test_no_strategy_exceeds_two(self):
        assert all(deterministic_chsh(r) <= 2 for r in RESPONSES)


def bell_table(state, resolution):
    """E[i1, i2] from scalar bell_expectation, and the grid it is read on."""
    grid = angle_grid(resolution)
    e = np.empty((resolution, resolution), dtype=float)
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            e[i, j] = bell_expectation(state, a, b)
    return e, grid


def reference_max(e):
    """The whole n**4 array of S and one argmax over it: (max_S, index tuple)."""
    term1 = np.abs(e[:, None, :, None] - e[:, None, None, :])
    term2 = np.abs(e[None, :, :, None] + e[None, :, None, :])
    s = term1 + term2
    flat_index = int(np.argmax(s))
    return float(s.flat[flat_index]), tuple(int(i) for i in np.unravel_index(flat_index, s.shape))


def reference_chsh_scan(state, resolution):
    """The full-array scan, as the scan was first written: (max_S, argmax angles)."""
    e, grid = bell_table(state, resolution)
    max_value, idx = reference_max(e)
    return max_value, tuple(grid[i] for i in idx)


def slice_chsh_scan(state, resolution):
    """The scan reduced one i1 slice at a time in O(resolution**3) memory, as
    it stood before the two CHSH terms were split: (max_S, argmax angles).  A
    later slice wins only when strictly larger, so the first maximum in C
    order is kept."""
    e, grid = bell_table(state, resolution)
    term2 = np.abs(e[:, :, None] + e[:, None, :])
    max_value, idx = -math.inf, None
    for i1 in range(resolution):
        s = np.abs(e[i1, :, None] - e[i1, None, :]) + term2
        flat_index = int(np.argmax(s))
        if s.flat[flat_index] > max_value:
            max_value = float(s.flat[flat_index])
            idx = (i1, *np.unravel_index(flat_index, s.shape))
    return max_value, tuple(grid[i] for i in idx)


#: Table entries with exact ties in S, and rounding ties: 1 + 2**-53 rounds to
#: 1, and 1 - 2**-53 is the float just below 1.
TIE_ENTRIES = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0**-53, -(2.0**-53), 1 - 2.0**-53, -1 + 2.0**-53)


@st.composite
def tie_tables(draw):
    n = draw(st.integers(1, 5))
    entries = st.sampled_from(TIE_ENTRIES)
    return np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                  min_size=n, max_size=n)))


class TestQuantumScan:
    @pytest.mark.parametrize("resolution", [8, 16, 24, 32])
    @pytest.mark.parametrize("state", [1, 2, 3, 4])
    def test_scan_equals_the_full_array_reference(self, state, resolution):
        rep = quantum_chsh_scan(state, resolution)
        assert (rep.max_value, rep.argmax) == reference_chsh_scan(state, resolution)
        assert rep.configs_scanned == resolution**4

    @pytest.mark.parametrize("resolution", range(8, 65))
    @pytest.mark.parametrize("state", [1, 2, 3, 4])
    def test_scan_equals_the_slice_reference_bit_for_bit(self, state, resolution):
        rep = quantum_chsh_scan(state, resolution)
        max_value, argmax = slice_chsh_scan(state, resolution)
        assert (rep.max_value.hex(), rep.argmax) == (max_value.hex(), argmax)

    @settings(max_examples=400, deadline=None)
    @given(tie_tables())
    def test_ties_resolve_to_the_first_configuration_in_c_order(self, e):
        max_value, idx = _max_chsh(e)
        want_value, want_idx = reference_max(e)
        assert (max_value.hex(), idx) == (want_value.hex(), want_idx)

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_tie_tables_match_the_full_array_reference(self, seed):
        rng = np.random.default_rng(seed)
        e = rng.choice(TIE_ENTRIES, size=(6, 6))
        max_value, idx = _max_chsh(e)
        want_value, want_idx = reference_max(e)
        assert (max_value.hex(), idx) == (want_value.hex(), want_idx)

    def test_rounding_tie_keeps_the_first_configuration(self):
        # exactly, S(1, 0, 0, 1) = 1 + (1 + 2**-53) is the largest, but in
        # floats it rounds to 2 = S(0, 0, 0, 0), which comes first
        e = np.array([[-1.0, -(2.0**-53)], [-1.0, 0.0]])
        assert reference_max(e) == (2.0, (0, 0, 0, 0))
        assert _max_chsh(e) == (2.0, (0, 0, 0, 0))

    @pytest.mark.parametrize("state", [1, 2, 3, 4])
    def test_peak_allocation_is_a_few_resolution_squared_buffers(self, state):
        quantum_chsh_scan(state, 8)
        tracemalloc.start()
        try:
            quantum_chsh_scan(state, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**19

    def test_state1_reaches_tsirelson_on_16_grid(self):
        rep = quantum_chsh_scan(1, 16)
        assert rep.max_value == pytest.approx(TSIRELSON_BOUND, abs=1e-9)
        assert rep.max_value <= TSIRELSON_BOUND + 1e-9
        assert rep.configs_scanned == 16**4

    def test_state2_same_maximum_by_symmetry(self):
        rep = quantum_chsh_scan(2, 16)
        assert rep.max_value == pytest.approx(TSIRELSON_BOUND, abs=1e-9)

    def test_all_states_reach_at_least_two(self):
        for state in (1, 2, 3, 4):
            rep = quantum_chsh_scan(state, 8)
            assert rep.max_value >= 2.0 - 1e-12

    def test_argmax_is_deterministic(self):
        a = quantum_chsh_scan(1, 16)
        b = quantum_chsh_scan(1, 16)
        assert a.argmax == b.argmax
        assert a.max_value == b.max_value

    def test_argmax_achieves_reported_value(self):
        rep = quantum_chsh_scan(1, 16)
        recomputed = chsh_value(
            lambda x, y: bell_expectation(1, x, y), ChshConfig(*rep.argmax)
        )
        assert recomputed == pytest.approx(rep.max_value, abs=1e-12)

    def test_low_resolution_rejected(self):
        with pytest.raises(ValueError):
            quantum_chsh_scan(1, 4)

    def test_resolution_above_the_cap_rejected(self):
        with pytest.raises(ValueError, match="64 is the cap"):
            quantum_chsh_scan(1, 65)

    def test_report_json_shape(self):
        d = quantum_chsh_scan(1, 16).to_json_dict()
        assert set(d) == {
            "max_S", "argmax", "bound", "resolution", "configs_scanned", "state",
        }
        assert d["bound"] == 2.8284271247461903
        assert d["resolution"] == 16


class TestBackwardModelChsh:
    def test_bell_standard_angles(self, bell_model):
        value = backward_model_chsh(bell_model, "lambda1", STANDARD_BELL_CONFIG)
        assert value == pytest.approx(SQRT8, abs=1e-12)

    def test_bell_equal_angles_gives_two(self, bell_model):
        config = ChshConfig(0.7, 0.7, 0.7, 0.7)
        value = backward_model_chsh(bell_model, "lambda1", config)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_all_four_labels_violate_at_suitable_angles(self, bell_model):
        # per-state optimal settings differ in sign structure; the scan-found
        # argmax for state 1 serves states 1 and 2 via reflection
        reached = {}
        for label in bell_model.lam.labels:
            best = 0.0
            for cfg in (
                STANDARD_BELL_CONFIG,
                ChshConfig(0.0, PI / 2, -PI / 4, PI / 4),
                ChshConfig(0.0, PI / 2, 3 * PI / 4, PI / 4),
                ChshConfig(0.0, -PI / 2, -PI / 4, PI / 4),
            ):
                best = max(best, backward_model_chsh(bell_model, label, cfg))
            reached[label] = best
        for label, best in reached.items():
            assert best == pytest.approx(SQRT8, abs=1e-9), label

    def test_three_wing_model_rejected(self, ghz_model):
        with pytest.raises(ValueError):
            backward_model_chsh(ghz_model, "lambda0", PR_BOX_CONFIG)


class TestPrBackwardModel:
    def test_chsh_is_exactly_four(self, pr_model):
        value = backward_model_chsh(pr_model, "lambda_pr", PR_BOX_CONFIG)
        assert value == 4
        assert isinstance(value, Fraction)

    def test_kernel_is_deterministic_with_norm_two(self, pr_model):
        assert pr_model.kernel.normalization["lambda_pr"] == 2
        for s in itertools.product((0, 1), repeat=2):
            for a in itertools.product((1, -1), repeat=2):
                k = pr_model.kernel.probability(a, s, "lambda_pr")
                assert k in (Fraction(0), Fraction(1))

    def test_si_and_no_signalling_hold_exactly(self, pr_model):
        grid = settings_grid(pr_model)
        si = pr_model.verify_si(grid)
        ns = verify_no_signalling_all(pr_model, grid)
        assert si.passed and si.max_deviation == 0
        assert ns.passed and ns.max_deviation == 0

    def test_recovery_is_exact(self, pr_model):
        rep = pr_model.verify_recovery(settings_grid(pr_model))
        assert rep.passed
        assert rep.max_deviation == 0

    def test_bounds_ordering(self):
        assert LHV_BOUND < TSIRELSON_BOUND < PR_BOUND
