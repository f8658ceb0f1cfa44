"""GHZ model: deterministic collider, exact recovery, classical exhaustion."""

import itertools
from fractions import Fraction

from retrobell import (
    GHZ_CONSTRAINTS,
    classical_assignment_exhaustion,
    ghz_prob,
    settings_grid,
    verify_ghz_recovery,
    verify_no_signalling_all,
)

OUTCOMES = (1, -1)
AXES = (0, 1)


class TestGhzAllowed:
    def test_all_plus_at_all_x(self):
        assert ghz_prob(1, 1, 1, 0, 0, 0) > 0

    def test_all_minus_at_all_x(self):
        assert not ghz_prob(-1, -1, -1, 0, 0, 0) > 0

    def test_four_of_eight_allowed_at_even_y_and_all_at_odd_y(self):
        for s in itertools.product(AXES, repeat=3):
            allowed = [
                a for a in itertools.product(OUTCOMES, repeat=3)
                if ghz_prob(*a, *s) > 0
            ]
            assert len(allowed) == (8 if sum(s) % 2 else 4)


class TestGhzBackwardModel:
    def test_normalization_constant_is_four(self, ghz_model):
        # prior 1/2 over the product of wing marginals 1/8
        prior = ghz_model.lam.prior("lambda0")
        marginals = Fraction(1)
        for w in ghz_model.wings:
            marginals *= w.p_plus
        assert prior / marginals == 4
        assert ghz_model.kernel.normalization["lambda0"] == 4

    def test_kernel_is_zero_or_one_at_even_y_and_half_at_odd_y(self, ghz_model):
        for s in itertools.product(AXES, repeat=3):
            for a in itertools.product(OUTCOMES, repeat=3):
                k = ghz_model.kernel.probability(a, s, "lambda0")
                assert k in ((Fraction(1, 2),) if sum(s) % 2 else (Fraction(0), Fraction(1)))
                assert k == 4 * ghz_prob(*a, *s)
                kbar = ghz_model.kernel.probability(a, s, "lambda_bar")
                assert k + kbar == 1

    def test_kernel_values_at_all_x(self, ghz_model):
        assert ghz_model.kernel.probability((1, 1, 1), (0, 0, 0), "lambda0") == 1
        assert ghz_model.kernel.probability((1, 1, -1), (0, 0, 0), "lambda0") == 0

    def test_si_exact(self, ghz_model):
        rep = ghz_model.verify_si(settings_grid(ghz_model))
        assert rep.passed
        assert rep.max_deviation == 0
        assert isinstance(rep.max_deviation, Fraction)

    def test_lambda0_probability_is_half_everywhere(self, ghz_model):
        M, _ = ghz_model.tabulate(settings_grid(ghz_model)).marginal
        for m in M:
            assert m[0] == Fraction(1, 2)  # lambda0

    def test_no_signalling_exact(self, ghz_model):
        rep = verify_no_signalling_all(ghz_model, settings_grid(ghz_model))
        assert rep.passed
        assert rep.max_deviation == 0

    def test_wing_conditionals_are_exactly_half(self, ghz_model):
        for c in ghz_model.tabulate(settings_grid(ghz_model)).conditioned("lambda0"):
            for w in range(3):
                m = sum(p for a, p in zip(itertools.product(OUTCOMES, repeat=3), c) if a[w] == 1)
                assert m == Fraction(1, 2)


class TestGhzRecovery:
    def test_recovery_is_exact(self, ghz_model):
        rep = verify_ghz_recovery(ghz_model)
        assert rep.passed
        assert rep.max_deviation == 0
        assert rep.backend == "rational"

    def test_conditioned_equals_target_cell_by_cell(self, ghz_model):
        grid = settings_grid(ghz_model)
        for s, c in zip(grid, ghz_model.tabulate(grid).conditioned("lambda0")):
            for a, p in zip(itertools.product(OUTCOMES, repeat=3), c):
                assert p == ghz_prob(*a, *s)

    def test_support_at_two_y_settings(self, ghz_model):
        c = ghz_model.condition_on_lambda("lambda0", (1, 1, 0))
        support = {a for a, _ in c.items()}
        assert support == {
            a for a in itertools.product(OUTCOMES, repeat=3)
            if a[0] * a[1] * a[2] == -1
        }


class TestLocalModel:
    """Shared randomness r1, r2 uniform, r3 = r1*r2, outputs a_i = r_i*(-1)**s_i.

    Its outcome product is (-1)**(#Y) at every setting, so it agrees with
    the GHZ target at xxx and misses it at the three settings with two y axes.
    """

    @staticmethod
    def local_distribution(s):
        dist = dict.fromkeys(itertools.product(OUTCOMES, repeat=3), Fraction(0))
        for r1, r2 in itertools.product(OUTCOMES, repeat=2):
            r = (r1, r2, r1 * r2)
            dist[tuple(ri * (-1) ** si for ri, si in zip(r, s))] += Fraction(1, 4)
        return dist

    def test_agrees_at_xxx(self):
        local = self.local_distribution((0, 0, 0))
        assert all(local[a] == ghz_prob(*a, 0, 0, 0) for a in local)

    def test_misses_the_target_at_the_paradox_settings(self):
        for s in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            local = self.local_distribution(s)
            tv = sum(abs(local[a] - ghz_prob(*a, *s)) for a in local) / 2
            assert tv == 1, s


class TestExhaustion:
    def test_no_assignment_satisfies_all(self):
        rep = classical_assignment_exhaustion()
        assert rep.total == 64
        assert rep.satisfying_all == 0

    def test_each_constraint_alone_is_satisfied_by_half(self):
        rep = classical_assignment_exhaustion()
        assert rep.per_constraint == (32, 32, 32, 32)

    def test_counts_against_independent_enumeration(self):
        # independent oracle: explicit loops over the 64 assignments
        names = ("x1", "y1", "x2", "y2", "x3", "y3")
        sat_all = 0
        per = [0, 0, 0, 0]
        per_three_subset = {}
        for values in itertools.product(OUTCOMES, repeat=6):
            a = dict(zip(names, values))
            results = []
            for idx, (_, factors, target) in enumerate(GHZ_CONSTRAINTS):
                prod = 1
                for f in factors:
                    prod *= a[f]
                ok = prod == target
                per[idx] += ok
                results.append(ok)
            sat_all += all(results)
            for subset in itertools.combinations(range(4), 3):
                if all(results[i] for i in subset):
                    per_three_subset[subset] = per_three_subset.get(subset, 0) + 1
        assert sat_all == 0
        assert per == [32, 32, 32, 32]
        # any choice of three constraints admits exactly eight assignments
        assert set(per_three_subset.values()) == {8}

    def test_near_misses(self):
        rep = classical_assignment_exhaustion(include_near_misses=True)
        assert rep.satisfying_exactly_three == 32
        assert len(rep.near_misses) == 32
        by_violated = {}
        for m in rep.near_misses:
            by_violated[m["violated"]] = by_violated.get(m["violated"], 0) + 1
        # eight near misses per constraint that fails
        assert by_violated == {name: 8 for name, _, _ in GHZ_CONSTRAINTS}

    def test_each_near_miss_names_the_constraint_it_breaks(self):
        misses = classical_assignment_exhaustion(include_near_misses=True).near_misses
        # by hand: x1x2x3 = +1, x1y2y3 = -1 and y1x2y3 = -1 hold, y1y2x3 = +1 does not
        by_hand = dict(zip(("x1", "y1", "x2", "y2", "x3", "y3"), (1, 1, 1, 1, 1, -1)))
        assert {"assignment": by_hand, "violated": "y1y2x3=-1"} in misses
        for m in misses:
            a = m["assignment"]
            broken = []
            for name, factors, target in GHZ_CONSTRAINTS:
                prod = 1
                for f in factors:
                    prod *= a[f]
                if prod != target:
                    broken.append(name)
            assert broken == [m["violated"]], m

    def test_contradiction_by_multiplication(self):
        # every variable appears an even number of times across the four
        # products, so the product of left-hand sides is +1 for any
        # assignment, while the required right-hand sides multiply to -1
        from collections import Counter

        usage = Counter()
        rhs = 1
        for _, factors, target in GHZ_CONSTRAINTS:
            usage.update(factors)
            rhs *= target
        assert all(count % 2 == 0 for count in usage.values())
        assert rhs == -1

    def test_report_json_shape(self):
        d = classical_assignment_exhaustion().to_json_dict()
        assert d["total"] == 64
        assert d["satisfying_all"] == 0
        assert d["per_constraint"] == [32, 32, 32, 32]
        assert d["constraints"] == [
            "x1x2x3=+1", "x1y2y3=-1", "y1x2y3=-1", "y1y2x3=-1",
        ]
        assert "sign_convention_note" not in d
        assert "near_misses" not in d
