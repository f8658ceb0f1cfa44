"""Backward-conditional models: assembly, conditioning, checked properties."""

import itertools
import json
import math
from fractions import Fraction

import pytest

from retrobell import (
    ANGLE,
    BINARY,
    PR_BOX_CONFIG,
    BackwardModel,
    ColliderKernel,
    ConstructionError,
    LambdaSpace,
    NullEvidenceError,
    Wing,
    angle_grid,
    backward_model_chsh,
    bell_prob,
    collider_model,
    condition,
    default_grid,
    entry_table,
    ghz_prob,
    pr_prob,
    sign_of,
    settings_grid,
    verify_no_signalling_all,
)

PI = math.pi

#: Outcome pairs in canonical cell order, as the model's tables index them.
CELLS = list(itertools.product((1, -1), repeat=2))


def conditioned(model, label, settings):
    """P(a1, a2 | settings, label) by cell, from the model's one-point tabulation."""
    return dict(zip(CELLS, model.tabulate([settings]).conditioned(label)[0]))


def correlation(model, label, settings):
    """E(a1 * a2 | settings, label)."""
    return sum(a1 * a2 * p for (a1, a2), p in conditioned(model, label, settings).items())


def wing_marginal(table, wing, outcome):
    """P(a_wing = outcome) from a table by cell."""
    return sum(p for cell, p in table.items() if cell[wing] == outcome)


class TestBellModelConstruction:
    def test_normalization_constant_is_one(self, bell_model):
        # brute force: the four target distributions already sum to one over
        # states, for every outcome pair on an angle grid
        for a in angle_grid(8):
            for b in angle_grid(8):
                for a1, a2 in itertools.product((1, -1), repeat=2):
                    total = sum(
                        bell_prob(s, a1, a2, a, b) for s in (1, 2, 3, 4)
                    )
                    assert total == pytest.approx(1.0, abs=1e-12)
        assert all(n == 1.0 for n in bell_model.kernel.normalization.values())

    def test_kernel_value_at_zero_angles(self, bell_model):
        k = bell_model.kernel.probability((1, 1), (0.0, 0.0), "lambda1")
        assert k == 0.5

    def test_kernel_sums_to_one_at_generic_point(self, bell_model):
        total = sum(
            bell_model.kernel.probability((1, -1), (0.3, 1.1), label)
            for label in bell_model.lam.labels
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_uniform_prior_and_half_marginals(self, bell_model):
        assert bell_model.lam.priors == (0.25, 0.25, 0.25, 0.25)
        assert all(w.p_plus == 0.5 for w in bell_model.wings)


def joint(model, settings):
    """P(a1, a2, lambda | settings) by (a1, a2, label), from ``assemble_joint``."""
    return dict(model.assemble_joint(settings).items())


class TestAssembleJoint:
    """The one-point joint and the label marginal ``M[point][label]``."""

    def test_entry_at_zero_angles(self, bell_model):
        assert joint(bell_model, (0.0, 0.0))[1, 1, "lambda1"] == pytest.approx(0.125, abs=1e-15)

    def test_total_mass_one(self, bell_model):
        assert sum(joint(bell_model, (0.4, 2.2)).values()) == pytest.approx(1.0, abs=1e-12)

    def test_lambda_marginal_is_prior(self, bell_model):
        # brute-force summation over outcomes, independent of M
        T = joint(bell_model, (0.0, 0.0))
        M, _ = bell_model.tabulate([(0.0, 0.0)]).marginal
        for i, label in enumerate(bell_model.lam.labels):
            mass = sum(p for (a1, a2, at), p in T.items() if at == label)
            assert mass == pytest.approx(0.25, abs=1e-12)
            assert M[0][i] == pytest.approx(0.25, abs=1e-12)

    def test_setting_arity_checked(self, bell_model):
        with pytest.raises(ConstructionError):
            bell_model.assemble_joint((0.0,))


class TestConditionOnLambda:
    def test_lambda1_at_pi_over_3(self, bell_model):
        c = conditioned(bell_model, "lambda1", (0.0, PI / 3))
        assert c[(1, 1)] == pytest.approx(0.375, abs=1e-12)
        assert c[(1, -1)] == pytest.approx(0.125, abs=1e-12)
        assert c[(-1, 1)] == pytest.approx(0.125, abs=1e-12)
        assert c[(-1, -1)] == pytest.approx(0.375, abs=1e-12)

    def test_lambda3_anticorrelated_at_equal_angles(self, bell_model):
        c = conditioned(bell_model, "lambda3", (0.0, 0.0))
        assert c[(1, -1)] == pytest.approx(0.5, abs=1e-12)
        assert c[(-1, 1)] == pytest.approx(0.5, abs=1e-12)
        assert c[(1, 1)] == 0.0

    def test_perfect_correlation_at_equal_angles(self, bell_model):
        e = correlation(bell_model, "lambda1", (1.234, 1.234))
        assert e == pytest.approx(1.0, abs=1e-12)

    def test_expectation_reproduces_cosine(self, bell_model):
        e = correlation(bell_model, "lambda1", (0.0, PI / 3))
        assert e == pytest.approx(math.cos(PI / 3), abs=1e-12)

    def test_degenerate_outcome_slice_raises_null_evidence(self, bell_model):
        j = bell_model.assemble_joint((0.0, 0.0))
        with pytest.raises(NullEvidenceError):
            condition(j, {"lambda": "lambda3", "a1": 1, "a2": 1})

    def test_unknown_label_rejected(self, bell_model):
        with pytest.raises(ConstructionError):
            bell_model.condition_on_lambda("lambda9", (0.0, 0.0))


class TestVerifySi:
    def test_bell_passes_on_16x16_grid(self, bell_model, bell_grid):
        rep = bell_model.verify_si(bell_grid)
        assert rep.passed
        assert rep.max_deviation <= 1e-12
        assert rep.check == "si"

    def test_counterexample_fails(self, counterexample_model):
        grid = default_grid(counterexample_model, 16)
        rep = counterexample_model.verify_si(grid)
        assert not rep.passed
        assert rep.max_deviation == pytest.approx(0.25, abs=1e-12)

    def test_settings_independent_kernel_passes(self):
        # kernel ignores the settings entirely; prior matches the derived
        # label distribution, so independence holds trivially
        wings = (Wing("a1", "alpha1", ANGLE, 0.5), Wing("a2", "alpha2", ANGLE, 0.5))

        def kernel(outcomes, settings, label):
            k = 0.25 if outcomes[0] == 1 else 0.5
            return k if label == "L1" else 1.0 - k

        model = BackwardModel(
            name="flat",
            wings=wings,
            lam=LambdaSpace(("L1", "L2"), (0.375, 0.625)),
            kernel=ColliderKernel(("L1", "L2"), entry_table(kernel, ("L1", "L2"))),
            backend="float",
        )
        grid = settings_grid(model, 6)
        assert model.verify_si(grid).passed
        assert verify_no_signalling_all(model, grid).passed


class TestVerifyNoSignalling:
    def test_bell_passes_with_remote_variation(self, bell_model):
        grid = [(0.0, 0.0), (0.0, PI / 4), (0.0, PI / 2)]
        rep = bell_model.verify_no_signalling(["lambda1"], grid)
        assert rep.passed
        # and the conditionals really are 1/2
        for settings in grid:
            c = conditioned(bell_model, "lambda1", settings)
            assert wing_marginal(c, 0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_counterexample_fails_with_unit_deviation(self, counterexample_model):
        grid = default_grid(counterexample_model, 16)
        rep = counterexample_model.verify_no_signalling(["lambda1"], grid)
        assert not rep.passed
        assert rep.max_deviation == pytest.approx(1.0, abs=1e-12)
        assert rep.worst_case["wing"] == "a1"

    def test_bare_label_string_is_rejected(self, bell_model):
        # a str is a sequence of one-letter labels; the error names the list form
        with pytest.raises(TypeError, match=r"\['lambda1'\]"):
            bell_model.verify_no_signalling("lambda1", [(0.0, 0.0)])

    def test_no_labels_is_rejected(self, counterexample_model):
        # a sweep over no labels would pass the signalling model
        with pytest.raises(ConstructionError, match="no labels"):
            counterexample_model.verify_no_signalling([], default_grid(counterexample_model, 4))

    def test_labels_may_be_any_iterable(self, counterexample_model):
        # an empty generator is no labels too, and an iterator reads as its list
        grid = default_grid(counterexample_model, 4)
        with pytest.raises(ConstructionError, match="no labels"):
            counterexample_model.verify_no_signalling((label for label in []), grid)
        rep = counterexample_model.verify_no_signalling(iter(["lambda1"]), grid)
        assert not rep.passed
        assert rep.to_json_dict() == counterexample_model.verify_no_signalling(
            ["lambda1"], grid).to_json_dict()

    def test_report_json_shape(self, bell_model, bell_grid):
        rep = verify_no_signalling_all(bell_model, bell_grid)
        d = rep.to_json_dict()
        assert d["check"] == "no_signalling"
        assert d["pass"] is True
        assert d["backend"] == "float"
        assert d["tolerance"] == 1e-12


def _witness_values(w):
    """The witness's product of wing conditionals, joint conditional and difference."""
    return (w.worst_case["product_of_wing_conditionals"], w.worst_case["joint_conditional"],
            w.max_deviation)


class TestLcViolationWitness:
    def test_violation_at_zero_angles(self, bell_model):
        w = bell_model.lc_violation_witness("lambda1", (0.0, 0.0), (1, 1))
        assert w.worst_case["product_of_wing_conditionals"] == pytest.approx(0.25, abs=1e-12)
        assert w.worst_case["joint_conditional"] == pytest.approx(0.5, abs=1e-12)
        assert w.passed

    def test_no_violation_at_orthogonal_angles(self, bell_model):
        for outcomes in itertools.product((1, -1), repeat=2):
            w = bell_model.lc_violation_witness(
                "lambda1", (0.0, PI / 2), outcomes
            )
            assert not w.passed
            assert w.max_deviation <= 1e-12

    def test_factorizing_kernel_never_violates(self):
        # every label's kernel is a per-wing product, so conditioning can
        # never induce a correlation; labels form a product structure to
        # keep the kernel normalized
        wings = (Wing("a1", "s1", ANGLE, 0.5), Wing("a2", "s2", ANGLE, 0.5))
        labels = ("Lpp", "Lpm", "Lmp", "Lmm")

        def u(side, a):  # per-wing label-component probabilities
            bias = 0.3 if side == 0 else 0.4
            p = (1 + bias * a) / 2
            return p

        def kernel(outcomes, settings, label):
            first = u(0, outcomes[0])
            second = u(1, outcomes[1])
            p1 = first if label[1] == "p" else 1.0 - first
            p2 = second if label[2] == "p" else 1.0 - second
            return p1 * p2

        model = BackwardModel(
            name="factorized",
            wings=wings,
            lam=LambdaSpace(labels, (0.25, 0.25, 0.25, 0.25)),
            kernel=ColliderKernel(labels, entry_table(kernel, labels)),
            backend="float",
        )
        assert model.verify_kernel_normalization([(0.1, 0.2)]).passed
        for outcomes in itertools.product((1, -1), repeat=2):
            for label in labels:
                w = model.lc_violation_witness(label, (0.1, 0.2), outcomes)
                assert not w.passed

    @pytest.mark.parametrize("label", ["lambda_pr", "lambda_bar"])
    def test_prbox_witness_is_exact(self, pr_model, label):
        # the box label gives the box (joint 1/2 at settings (0, 0) and
        # outcomes (1, 1)), the other label the anti-box; every wing marginal
        # is 1/2, so the product is 1/4
        for settings in itertools.product((0, 1), repeat=2):
            for outcomes in itertools.product((1, -1), repeat=2):
                w = pr_model.lc_violation_witness(label, settings, outcomes)
                box = pr_prob(*outcomes, *settings)
                joint = box if label == "lambda_pr" else Fraction(1, 2) - box
                values = _witness_values(w)
                assert all(type(v) is Fraction for v in values)
                assert values == (Fraction(1, 4), joint, Fraction(1, 4))
                assert w.passed

    @pytest.mark.parametrize("label", ["lambda0", "lambda_bar"])
    def test_ghz_witness_is_exact_with_its_json(self, ghz_model, label):
        # wing marginals are 1/2, so the product is 1/8; at an odd number of
        # y axes the conditioned table is uniform and nothing is violated
        for settings in itertools.product((0, 1), repeat=3):
            for outcomes in itertools.product((1, -1), repeat=3):
                w = ghz_model.lc_violation_witness(label, settings, outcomes)
                ghz = ghz_prob(*outcomes, *settings)
                joint = ghz if label == "lambda0" else Fraction(1, 4) - ghz
                difference = abs(joint - Fraction(1, 8))
                values = _witness_values(w)
                assert all(type(v) is Fraction for v in values)
                assert values == (Fraction(1, 8), joint, difference)
                assert w.passed == (sum(settings) % 2 == 0)
                expected = {
                    "check": "lc_witness",
                    "pass": sum(settings) % 2 == 0,
                    "max_deviation": 0 if difference == 0 else float(difference),
                    "worst_case": {
                        "label": label,
                        "settings": list(settings),
                        "outcomes": list(outcomes),
                        "product_of_wing_conditionals": 0.125,
                        "joint_conditional": 0 if joint == 0 else float(joint),
                    },
                    "tolerance": 0,
                    "backend": "rational",
                }
                assert json.dumps(w.to_json_dict()) == json.dumps(expected)

    def test_witness_json_shape(self, bell_model):
        w = bell_model.lc_violation_witness("lambda1", (0.0, 0.0), (1, 1))
        d = w.to_json_dict()
        assert d["check"] == "lc_witness"
        assert d["pass"] is True  # the violation is exhibited
        assert d["worst_case"]["joint_conditional"] == pytest.approx(0.5)


class TestRecoveryAndKernelNorm:
    def test_recovery_on_full_grid(self, bell_model, bell_grid):
        rep = bell_model.verify_recovery(bell_grid)
        assert rep.passed
        assert rep.max_deviation <= 1e-12

    def test_recovery_equality_spotcheck(self, bell_model):
        # Eq-by-eq: conditioned model equals the closed-form target
        settings = (0.0, PI / 3)
        for i, label in enumerate(bell_model.lam.labels):
            c = conditioned(bell_model, label, settings)
            tv = sum(abs(c[a] - bell_prob(i + 1, *a, *settings)) for a in CELLS) / 2
            assert tv <= 1e-12

    def test_kernel_norm_on_grid(self, bell_model, bell_grid):
        rep = bell_model.verify_kernel_normalization(bell_grid)
        assert rep.passed
        assert rep.max_deviation <= 1e-12

    def test_kernel_norm_catches_out_of_range_values(self):
        # rows sum to one but individual values leave [0, 1]
        wings = (Wing("a1", "s1", ANGLE, 0.5), Wing("a2", "s2", ANGLE, 0.5))

        def kernel(outcomes, settings, label):
            return 1.5 if label == "L1" else -0.5

        model = BackwardModel(
            name="broken",
            wings=wings,
            lam=LambdaSpace(("L1", "L2"), (0.5, 0.5)),
            kernel=ColliderKernel(("L1", "L2"), entry_table(kernel, ("L1", "L2"))),
            backend="float",
        )
        rep = model.verify_kernel_normalization([(0.0, 0.0)])
        assert not rep.passed
        assert rep.max_deviation == pytest.approx(0.5)

    def test_recovery_without_targets_rejected(self, counterexample_model):
        with pytest.raises(ConstructionError):
            counterexample_model.verify_recovery([(0.0, 0.0)])


class TestBayesConsistency:
    def test_kernel_prior_identity_on_grid(self, bell_model):
        # P(lambda | a, s) * P(a | s) == P(a | lambda, s) * P(lambda | s)
        for settings in [(0.0, 0.0), (0.3, 1.1), (2.0, 5.5)]:
            M, _ = bell_model.tabulate([settings]).marginal
            for i, label in enumerate(bell_model.lam.labels):
                cond = conditioned(bell_model, label, settings)
                for a1, a2 in CELLS:
                    lhs = bell_model.kernel.probability(
                        (a1, a2), settings, label
                    ) * 0.25  # P(a|s) = 1/2 * 1/2
                    rhs = cond[(a1, a2)] * M[0][i]
                    assert lhs == pytest.approx(rhs, abs=1e-12)


class TestFineTuningSignature:
    def test_unconditional_outcomes_are_product_uniform(self, bell_model):
        # without conditioning on the label the outcomes are uncorrelated
        for settings in [(0.0, 0.0), (0.0, PI / 3), (1.0, 2.0)]:
            T = joint(bell_model, settings)
            for cell in CELLS:  # each cell, summed over the labels
                mass = sum(p for (a1, a2, _), p in T.items() if (a1, a2) == cell)
                assert mass == pytest.approx(0.25, abs=1e-12)

    def test_conditioning_induces_correlations(self, bell_model):
        settings = (0.0, PI / 3)
        c = conditioned(bell_model, "lambda1", settings)
        # total-variation distance from the uniform outcome table
        assert sum(abs(p - 0.25) for p in c.values()) / 2 > 0.2


class TestCounterexampleModel:
    def test_kernel_pins_wing1_to_sign_of_alpha2(self, counterexample_model):
        k = counterexample_model.kernel.probability
        assert k((1, 1), (0.0, 0.5), "lambda1") == 1.0
        assert k((1, -1), (0.0, 0.5), "lambda1") == 1.0
        assert k((-1, 1), (0.0, 0.5), "lambda1") == 0.0
        assert k((-1, 1), (0.0, -0.5), "lambda1") == 1.0

    def test_sign_zero_convention(self, counterexample_model):
        assert sign_of(0.0) == 1
        assert counterexample_model.kernel.probability(
            (1, 1), (0.3, 0.0), "lambda1"
        ) == 1.0

    def test_remote_setting_steers_local_outcome(self, counterexample_model):
        c_pos = conditioned(counterexample_model, "lambda1", (0.0, 0.5))
        c_neg = conditioned(counterexample_model, "lambda1", (0.0, -0.5))
        assert wing_marginal(c_pos, 0, 1) == 1.0
        assert wing_marginal(c_neg, 0, 1) == 0.0

    def test_wing2_is_untouched(self, counterexample_model):
        c = conditioned(counterexample_model, "lambda1", (0.0, 0.5))
        assert wing_marginal(c, 1, 1) == pytest.approx(0.5, abs=1e-12)


class TestGrids:
    def test_angle_grid_default_range(self):
        g = angle_grid(16)
        assert len(g) == 16
        assert g[0] == 0.0
        assert all(0.0 <= a < 2 * PI for a in g)

    def test_angle_grid_centered(self):
        g = angle_grid(16, centered=True)
        assert min(g) < 0.0 < max(g)

    def test_default_grid_shapes(self, bell_model, ghz_model):
        assert len(default_grid(bell_model, 16)) == 256
        assert len(default_grid(ghz_model)) == 8

    def test_counterexample_grid_spans_signs(self, counterexample_model):
        grid = default_grid(counterexample_model, 16)
        signs = {sign_of(s[1]) for s in grid}
        assert signs == {1, -1}


class TestLambdaSpaceInvariantsAndReports:
    def test_zero_prior_rejected(self):
        with pytest.raises(ConstructionError):
            LambdaSpace(("a", "b"), (1.0, 0.0))

    def test_priors_must_sum_to_one(self):
        with pytest.raises(ConstructionError):
            LambdaSpace(("a", "b"), (0.5, 0.6))

    def test_nan_prior_rejected(self):
        # NaN is neither <= 0 nor further than the tolerance from 1
        with pytest.raises(ConstructionError, match="sum to nan"):
            LambdaSpace(("a", "b"), (float("nan"), 0.5))

    def test_si_report_json_shape(self, bell_model, bell_grid):
        d = bell_model.verify_si(bell_grid).to_json_dict()
        assert set(d) == {
            "check", "pass", "max_deviation", "worst_case", "tolerance", "backend",
        }
        assert d["check"] == "si"


class TestColliderModel:
    @staticmethod
    def _noisy_pr():
        # the README's custom model: the PR box mixed half and half with noise
        def noisy_pr(cell, settings, _):
            return pr_prob(*cell, *settings) / 2 + Fraction(1, 8)

        half = Fraction(1, 2)
        wings = tuple(Wing(f"a{i}", f"s{i}", BINARY, half) for i in (1, 2))
        lam = LambdaSpace(("lambda_box", "lambda_bar"), (half, half))
        return collider_model("noisy-pr", wings, lam, ("lambda_box",),
                              entry_table(noisy_pr, ("lambda_box",)), "rational")

    def test_custom_collider_recovers_its_target_exactly(self):
        model = self._noisy_pr()
        grid = settings_grid(model)
        assert model.kernel.normalization == {"lambda_box": 2}
        for report in (model.verify_si(grid), model.verify_recovery(grid),
                       model.verify_kernel_normalization(grid),
                       verify_no_signalling_all(model, grid)):
            assert report.passed and report.max_deviation == 0
        assert backward_model_chsh(model, "lambda_box", PR_BOX_CONFIG) == 2
        assert model.kernel.probability((1, 1), (0, 0), "lambda_box") == Fraction(3, 4)
        assert model.kernel.probability((1, 1), (0, 0), "lambda_bar") == Fraction(1, 4)

    def test_targets_must_be_the_leading_labels(self):
        model = self._noisy_pr()
        with pytest.raises(ConstructionError, match="leading"):
            collider_model("x", model.wings, model.lam, ("lambda_bar",),
                           model.target_table, "rational")
        three = LambdaSpace(("a", "b", "c"), (Fraction(1, 3),) * 3)
        with pytest.raises(ConstructionError, match="leading"):
            collider_model("x", model.wings, three, ("a",), model.target_table, "rational")

    def test_unequal_cell_weights_are_rejected(self):
        model = self._noisy_pr()
        wings = (Wing("a1", "s1", BINARY, Fraction(3, 4)), model.wings[1])
        with pytest.raises(ConstructionError, match="P\\(cell\\)"):
            collider_model("x", wings, model.lam, ("lambda_box",),
                           model.target_table, "rational")

    def test_targets_need_a_target_table(self):
        model = self._noisy_pr()
        with pytest.raises(ConstructionError, match="target table"):
            BackwardModel("x", model.wings, model.lam, model.kernel, "rational",
                          ("lambda_box",))


    @pytest.mark.parametrize("wing_p, prior", [(0.5, Fraction(1, 2)), (Fraction(1, 2), 0.5)],
                             ids=["wing-marginal", "prior"])
    def test_rational_model_rejects_float_constants(self, wing_p, prior):
        model = self._noisy_pr()
        wings = (Wing("a1", "s1", BINARY, wing_p), model.wings[1])
        lam = LambdaSpace(model.lam.labels, (prior, 1 - prior))
        with pytest.raises(ConstructionError, match="exact priors and wing marginals"):
            BackwardModel("x", wings, lam, model.kernel, "rational")

    def test_rational_tables_reject_float_entries(self):
        # every check reads the table, kernel-norm too, which reports on entries
        model = self._noisy_pr()
        floats = entry_table(lambda cell, settings, _: 0.5, model.lam.labels)
        model = BackwardModel("x", model.wings, model.lam, ColliderKernel(model.lam.labels, floats),
                              "rational")
        for check in (model.verify_si, model.verify_kernel_normalization,
                      lambda g: verify_no_signalling_all(model, g)):
            with pytest.raises(ConstructionError, match="exact entries, got 0.5"):
                check([(0, 1)])


class TestMalformedOutcomes:
    @pytest.mark.parametrize("outcomes", [(1,), (1, 1, 1), (), (2, 1)])
    def test_witness_rejects_a_non_cell(self, bell_model, outcomes):
        with pytest.raises(ConstructionError, match="not a cell"):
            bell_model.lc_violation_witness("lambda1", (0.0, 0.0), outcomes)

    def test_witness_rejects_a_non_cell_of_three_wings(self, ghz_model):
        with pytest.raises(ConstructionError, match="not a cell"):
            ghz_model.lc_violation_witness("lambda0", (0, 1, 1), (1, 1))

    @pytest.mark.parametrize("outcomes", [(1,), (1, 1, 1)])
    def test_kernel_entry_needs_one_outcome_per_setting(self, bell_model, outcomes):
        with pytest.raises(ConstructionError, match="outcomes for 2 settings"):
            bell_model.kernel.probability(outcomes, (0.0, 0.0), "lambda1")
