"""Acceptance suite: the headline claims, each at its stated tolerance.

One criterion per test, each printing a PASS/FAIL line (visible with
``pytest -s``).  Tolerances are pinned here, not configurable: 1e-12 for
float identities, exact equality on the rational backend, 1e-9 for the
scanned quantum maximum, |z| <= 5 for statistical gates.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import pytest

import retrobell as rb

PI = math.pi
SQRT8 = 2.0 * math.sqrt(2.0)
N_MC = 1_000_000
MC_SEED = 42


def _gate(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


@pytest.fixture(scope="module")
def bell():
    return rb.bell_backward_model()


@pytest.fixture(scope="module")
def ghz():
    return rb.ghz_backward_model()


@pytest.fixture(scope="module")
def prbox():
    return rb.pr_backward_model()


@pytest.fixture(scope="module")
def grid(bell):
    return rb.default_grid(bell, 16)


@pytest.fixture(scope="module")
def mc_bell_report(bell):
    return rb.sample_postselected(bell, "lambda1", (0.0, PI / 3), N_MC, MC_SEED)


def test_criterion_1_recovery_identity(bell, grid):
    start = time.perf_counter()
    report = bell.verify_recovery(grid)
    elapsed = time.perf_counter() - start
    ok = (
        report.passed
        and report.max_deviation <= 1e-12
        and len(grid) == 256
        and len(bell.quantum_targets) == 4
        and elapsed < 1.0
    )
    _gate(
        1,
        ok,
        f"conditioned model equals the closed-form pair distributions for "
        f"all 4 labels on a 16x16 angle grid; max tv "
        f"{float(report.max_deviation):.3e} <= 1e-12 in {elapsed:.2f}s",
    )


def test_criterion_2_statistical_independence(bell, ghz, grid):
    start = time.perf_counter()
    bell_si = bell.verify_si(grid)
    ghz_si = ghz.verify_si(rb.settings_grid(ghz))
    elapsed = time.perf_counter() - start
    _, ghz_marginals = ghz.tabulate(rb.settings_grid(ghz)).joint
    ghz_marginals_exact = all(m[0] == Fraction(1, 2) for m in ghz_marginals)  # lambda0
    ok = (
        bell_si.passed
        and bell_si.max_deviation <= 1e-12
        and ghz_si.passed
        and ghz_si.max_deviation == 0
        and isinstance(ghz_si.max_deviation, Fraction)
        and ghz_marginals_exact
        and elapsed < 1.0
    )
    _gate(
        2,
        ok,
        f"label distribution is setting-independent: pair model deviates "
        f"{float(bell_si.max_deviation):.3e} <= 1e-12 from 1/4; GHZ label "
        f"probability exactly 1/2 (rational, deviation 0) in {elapsed:.2f}s",
    )


def test_criterion_3_no_signalling(bell, ghz, prbox, grid):
    start = time.perf_counter()
    results = {}
    for model, model_grid in (
        (bell, grid),
        (ghz, rb.settings_grid(ghz)),
        (prbox, rb.settings_grid(prbox)),
    ):
        report = rb.verify_no_signalling_all(model, model_grid)
        # the spread check plus one absolute anchor pins every conditional
        # to 1/2 within tolerance
        cells = itertools.product((1, -1), repeat=len(model.wings))
        conditioned = model.tabulate(model_grid[:1]).conditioned(model.lam.labels[0])[0]
        anchor = sum(p for cell, p in zip(cells, conditioned) if cell[0] == 1)
        results[model.name] = (
            report.passed
            and report.max_deviation <= 1e-12
            and abs(anchor - Fraction(1, 2)) <= 1e-12
        )
    counterexample = rb.signalling_counterexample_model()
    ce_report = counterexample.verify_no_signalling(
        "lambda1", rb.default_grid(counterexample, 16)
    )
    elapsed = time.perf_counter() - start
    ok = (
        all(results.values())
        and not ce_report.passed
        and ce_report.max_deviation == pytest.approx(1.0, abs=1e-12)
        and elapsed < 1.0
    )
    _gate(
        3,
        ok,
        f"single-wing conditionals equal 1/2 within 1e-12 for bell/ghz/prbox "
        f"({results}); the signalling counterexample fails with deviation "
        f"{float(ce_report.max_deviation)} (marginal flips 0<->1) in "
        f"{elapsed:.2f}s",
    )


def test_criterion_4_lc_violation_witness(bell):
    witness = bell.lc_violation_witness("lambda1", (0.0, 0.0), (1, 1))
    product = witness.worst_case["product_of_wing_conditionals"]
    joint = witness.worst_case["joint_conditional"]
    ok = (
        witness.passed
        and product == pytest.approx(0.25, abs=1e-12)
        and joint == pytest.approx(0.5, abs=1e-12)
        and witness.max_deviation >= 0.25 - 1e-12
    )
    _gate(
        4,
        ok,
        f"at equal angles the product of wing conditionals is "
        f"{float(product)} but the joint conditional is "
        f"{float(joint)}; difference >= 0.25 - 1e-12",
    )


def test_criterion_5_chsh_bounds(bell, prbox):
    lhv = rb.lhv_max_chsh()
    model_s = rb.backward_model_chsh(bell, "lambda1", rb.STANDARD_BELL_CONFIG)
    start = time.perf_counter()
    scan = rb.quantum_chsh_scan(1, 16)
    scan_elapsed = time.perf_counter() - start
    pr_s = rb.backward_model_chsh(prbox, "lambda_pr", rb.PR_BOX_CONFIG)
    ok = (
        lhv == 2
        and isinstance(lhv, int)
        and abs(model_s - SQRT8) <= 1e-12
        and scan.max_value <= SQRT8 + 1e-9
        and abs(scan.max_value - SQRT8) <= 1e-9
        and pr_s == 4
        and isinstance(pr_s, Fraction)
        and scan_elapsed < 5.0
    )
    _gate(
        5,
        ok,
        f"deterministic strategies peak at exactly {lhv}; conditioned pair "
        f"model gives {model_s:.13f} (= 2*sqrt(2) +/- 1e-12); scan max "
        f"{scan.max_value:.13f} <= 2*sqrt(2) + 1e-9 in {scan_elapsed:.2f}s; "
        f"PR-box model gives exactly {pr_s}",
    )


def test_criterion_6_ghz_recovery(ghz):
    report = rb.verify_ghz_recovery(ghz)
    grid = rb.settings_grid(ghz)
    cellwise = all(
        p == rb.ghz_prob(*a, *s)
        for s, row in zip(grid, ghz.tabulate(grid).conditioned("lambda0"))
        for a, p in zip(itertools.product((1, -1), repeat=3), row)
    )
    ok = (
        report.passed
        and report.max_deviation == 0
        and report.backend == "rational"
        and cellwise
    )
    _gate(
        6,
        ok,
        "conditioned GHZ model equals the parity distribution exactly on all "
        "8 setting combinations x 8 outcome triples (rational backend, "
        "deviation 0)",
    )


def test_criterion_7_ghz_classical_exhaustion():
    report = rb.classical_assignment_exhaustion()
    ok = (
        report.total == 64
        and report.satisfying_all == 0
        and report.per_constraint == (32, 32, 32, 32)
    )
    _gate(
        7,
        ok,
        f"{report.satisfying_all} of {report.total} classical assignments "
        f"satisfy all four product constraints; per-constraint counts "
        f"{list(report.per_constraint)} (exact integers)",
    )


def test_criterion_8_monte_carlo_consistency(bell, ghz, mc_bell_report):
    start = time.perf_counter()
    rep = mc_bell_report
    rep_again = rb.sample_postselected(bell, "lambda1", (0.0, PI / 3), N_MC, MC_SEED)
    ghz_rep = rb.sample_postselected(ghz, "lambda0", (0, 1, 1), N_MC, 7)
    elapsed = time.perf_counter() - start
    byte_identical = (json.dumps(rep.to_json_dict(), indent=2, allow_nan=False)
                      == json.dumps(rep_again.to_json_dict(), indent=2, allow_nan=False))
    ghz_disallowed = sum(
        c["count"] for c in ghz_rep.cells if c["exact_p"] == 0.0
    )
    ok = (
        rep.accepted == N_MC
        and rep.max_abs_z <= 5.0
        and abs(rep.acceptance["z"]) <= 5.0
        and rep.acceptance["expected_rate"] == pytest.approx(0.25, abs=1e-12)
        and ghz_disallowed == 0
        and ghz_rep.passed
        and byte_identical
        and elapsed < 60.0
    )
    _gate(
        8,
        ok,
        f"1e6 postselected runs: every cell |z| <= 5 (max {rep.max_abs_z:.2f}); "
        f"acceptance rate {rep.acceptance['observed_rate']:.4f} within 5z of "
        f"1/4 (z={rep.acceptance['z']:.2f}); GHZ disallowed triples "
        f"{ghz_disallowed}; fixed seed reproduces byte-identical reports; "
        f"{elapsed:.1f}s",
    )


def test_criterion_9_fine_tuning_signature(bell, mc_bell_report):
    # correlations appear only upon conditioning on the collider variable
    uncond_zs = [abs(mc_bell_report.unconditional["z"])]
    for settings, seed in (((0.0, 0.0), 11), ((1.1, 2.2), 12)):
        extra = rb.sample_postselected(bell, "lambda1", settings, 200_000, seed)
        uncond_zs.append(abs(extra.unconditional["z"]))
    cond = mc_bell_report.conditioned_correlation
    cond_ok = cond["exact"] == pytest.approx(0.5, abs=1e-12) and abs(cond["z"]) <= 5.0
    ok = all(z <= 5.0 for z in uncond_zs) and cond_ok
    _gate(
        9,
        ok,
        f"pre-postselection outcome correlation is 0 within 5z at all tested "
        f"settings (|z| max {max(uncond_zs):.2f}); conditioned correlation at "
        f"(0, pi/3) is {cond['empirical']:.4f}, within 5z of 0.5 "
        f"(z={cond['z']:.2f})",
    )
