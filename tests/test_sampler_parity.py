"""Fused postselection batches against the per-label reference loop.

The reference below is the batch loop the sampler used before it built cell
indices from bits and tested hits against two bounds per cell: it builds an
outcome array, a combo index and the label index of every draw.  The fused
loop must return the same ``(counts, accepted, total, product_sum)`` and raise
the same ``AcceptanceCapError``, for every model, label, seed and shard.
"""

import math

import numpy as np
import pytest

import retrobell.sampling as sampling
from retrobell import (
    ANGLE,
    BINARY,
    AcceptanceCapError,
    BackwardModel,
    ColliderKernel,
    LambdaSpace,
    Wing,
    entry_table,
    make_rng,
)

PI = math.pi


# ---------------------------------------------------------------------------
# Per-label reference loop
# ---------------------------------------------------------------------------


def reference_shard_postselect(model, settings, target_idx, quota, cap, rng):
    n_wings = len(model.wings)
    p_plus, combos, cum = sampling._sampling_tables(model, model.tabulate([settings]).K)
    pow2 = np.array([2 ** (n_wings - 1 - i) for i in range(n_wings)], dtype=int)

    counts = np.zeros(len(combos), dtype=np.int64)
    accepted = 0
    total = 0
    uncond_product_sum = 0
    while accepted < quota:
        room = cap - total
        if room <= 0:
            raise AcceptanceCapError(
                model.lam.labels[target_idx], accepted, quota, total, cap
            )
        b = min(sampling.BATCH_RUNS, room)
        u = rng.random((b, n_wings + 1))
        outcomes = np.where(u[:, :n_wings] < p_plus, 1, -1)
        combo_idx = (outcomes == -1) @ pow2
        label_idx = (u[:, n_wings][:, None] >= cum[combo_idx]).sum(axis=1)
        hits = label_idx == target_idx
        new = int(hits.sum())
        if accepted + new >= quota:
            need = quota - accepted
            stop = int(np.nonzero(hits)[0][need - 1])
            outcomes = outcomes[: stop + 1]
            combo_idx = combo_idx[: stop + 1]
            hits = hits[: stop + 1]
            counts += np.bincount(combo_idx[hits], minlength=len(combos))
            accepted = quota
            total += stop + 1
            uncond_product_sum += int((outcomes[:, 0] * outcomes[:, 1]).sum())
            break
        counts += np.bincount(combo_idx[hits], minlength=len(combos))
        accepted += new
        total += b
        uncond_product_sum += int((outcomes[:, 0] * outcomes[:, 1]).sum())
    return counts, accepted, total, uncond_product_sum


def outcome(fn, *args):
    """``fn``'s statistics as plain ints, or the fields of its cap error."""
    try:
        counts, accepted, total, product_sum = fn(*args)
    except AcceptanceCapError as e:
        return ("cap", e.label, e.accepted, e.requested, e.total_draws, e.cap)
    return (counts.tolist(), accepted, total, product_sum)


def assert_parity(model, settings, label, quota, cap, rng_factory):
    settings = model.check_settings(settings)
    target_idx = model.lam.labels.index(label)
    args = (model, settings, target_idx, quota, cap)
    expected = outcome(reference_shard_postselect, *args, rng_factory())
    tables = sampling._sampling_tables(model, model.tabulate([settings]).K)
    got = outcome(sampling._shard_postselect, model, tables, *args[2:], rng_factory())
    assert got == expected
    return got


# ---------------------------------------------------------------------------
# Stock models
# ---------------------------------------------------------------------------

STOCK_CASES = [
    ("bell", (0.0, PI / 3), "lambda1"),
    ("bell", (1.3, 4.9), "lambda2"),
    ("bell", (2.2, 2.2), "lambda3"),
    ("bell", (5.7, 0.4), "lambda4"),
    ("ghz", (0, 1, 1), "lambda0"),
    ("ghz", (1, 0, 1), "lambda0"),
    ("ghz", (0, 0, 0), "lambda0"),
    ("prbox", (0, 1), "lambda_pr"),
    ("prbox", (1, 1), "lambda_pr"),
]


@pytest.fixture(scope="module")
def stock(bell_model, ghz_model, pr_model):
    return {"bell": bell_model, "ghz": ghz_model, "prbox": pr_model}


@pytest.mark.parametrize("seed", [1, 2, 2**63 + 11])
@pytest.mark.parametrize("name, settings, label", STOCK_CASES)
def test_stock_models_single_stream(stock, name, settings, label, seed):
    # 40,000 hits span at least two batches at every label probability here
    quota = 40_000
    got = assert_parity(
        stock[name], settings, label, quota, 100 * quota, lambda: make_rng(seed)
    )
    assert got[1] == quota and got[2] > sampling.BATCH_RUNS


@pytest.mark.parametrize("name, settings, label", STOCK_CASES[::2])
def test_stock_models_two_shards(stock, name, settings, label):
    for shard, quota in enumerate((15_001, 15_000)):
        assert_parity(
            stock[name], settings, label, quota, 100 * quota,
            lambda: make_rng(5, shard=shard),
        )


def test_shard_substreams_feed_the_report(bell_model):
    # the report's statistics are the shard results merged in shard order
    settings, n = (0.4, 2.5), 30_001
    rep = sampling.sample_postselected(bell_model, "lambda2", settings, n, 8, shards=2)
    merged = [reference_shard_postselect(
        bell_model, settings, 1, quota, 100 * quota, make_rng(8, shard=i))
        for i, quota in enumerate((15_001, 15_000))]
    assert [c["count"] for c in rep.cells] == sum(m[0] for m in merged).tolist()
    assert rep.total_draws == sum(m[2] for m in merged)
    assert rep.unconditional["correlation"] == sum(m[3] for m in merged) / rep.total_draws


def test_final_hit_on_last_run_of_a_batch(bell_model):
    # find a seed whose first batch ends with a hit; a quota of exactly that
    # batch's hits then stops on its last run
    settings = bell_model.check_settings((0.0, PI / 3))
    _, _, cum = sampling._sampling_tables(bell_model, bell_model.tabulate([settings]).K)
    b = sampling.BATCH_RUNS
    for seed in range(100):
        u = make_rng(seed).random((b, 3))
        combo = (u[:, 0] >= 0.5) * 2 + (u[:, 1] >= 0.5)
        labels = (u[:, 2][:, None] >= cum[combo]).sum(axis=1)
        if labels[-1] == 0:
            break
    else:
        pytest.fail("no seed among the first 100 ends its first batch with a hit")
    quota = int((labels == 0).sum())
    got = assert_parity(bell_model, settings, "lambda1", quota, 100 * quota,
                        lambda: make_rng(seed))
    assert got[2] == b
    # one more hit reaches into the second batch
    assert_parity(bell_model, settings, "lambda1", quota + 1, 100 * quota,
                  lambda: make_rng(seed))


def test_label_uniform_equal_to_a_row_entry():
    # the first run's label uniform sits exactly on a cumulative row entry;
    # u >= cum counts the entry, so the run draws the second label
    u0 = make_rng(6).random(3)[2]
    model = BackwardModel(
        name="tie",
        wings=(Wing("a1", "s1", ANGLE, 0.5), Wing("a2", "s2", ANGLE, 0.5)),
        lam=LambdaSpace(("L1", "L2"), (0.5, 0.5)),
        kernel=ColliderKernel(("L1", "L2"), entry_table(
            lambda o, s, lab: u0 if lab == "L1" else 1 - u0, ("L1", "L2"))),
        backend="float",
    )
    got = assert_parity(model, (0.0, 0.0), "L2", 1, 10, lambda: make_rng(6))
    assert got[2] == 1


def test_quota_inside_a_short_first_batch(ghz_model):
    # a cap below BATCH_RUNS shortens the first batch; 1,000 hits at label
    # probability 1/2 complete well inside its 3,000 runs
    got = assert_parity(ghz_model, (0, 1, 1), "lambda0", 1_000, 3_000,
                        lambda: make_rng(4))
    assert got[1] == 1_000 and got[2] < 3_000


def test_final_hit_on_last_run_of_a_short_batch(ghz_model):
    # the hits in the first 3,000 runs are the accepted count of the cap
    # error; a quota of that many stops on run 3,000 exactly when it is a hit
    settings, cap = (0, 1, 1), 3_000
    args = (ghz_model, settings, 0, cap, cap)
    for seed in range(100):
        hits = outcome(reference_shard_postselect, *args, make_rng(seed))[2]
        got = assert_parity(ghz_model, settings, "lambda0", hits, cap,
                            lambda: make_rng(seed))
        if got[2] == cap:
            break
    else:
        pytest.fail("no seed among the first 100 ends its short batch with a hit")
    assert got[1] == hits


# ---------------------------------------------------------------------------
# Cap paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("quota, cap", [
    (10_000, 10_000),    # one short batch
    (50_000, 100_000),   # six full batches, then a short one
    (40_000, 2 * sampling.BATCH_RUNS),  # stops on a batch edge
])
def test_cap_error_fields(bell_model, quota, cap):
    got = assert_parity(bell_model, (0.0, 0.0), "lambda1", quota, cap,
                        lambda: make_rng(1))
    assert got[0] == "cap" and got[4] == cap


def test_unreachable_label_hits_cap():
    wings = (Wing("a1", "s1", ANGLE, 0.5), Wing("a2", "s2", ANGLE, 0.5))
    model = BackwardModel(
        name="stuck",
        wings=wings,
        lam=LambdaSpace(("L1", "never"), (0.5, 0.5)),
        kernel=ColliderKernel(("L1", "never"), entry_table(
            lambda o, s, lab: float(lab == "L1"), ("L1", "never"))),
        backend="float",
    )
    got = assert_parity(model, (0.0, 0.0), "never", 10, 50, lambda: make_rng(1))
    assert got == ("cap", "never", 0, 10, 50, 50)


# ---------------------------------------------------------------------------
# Kernels whose cumulative rows are not a distribution
# ---------------------------------------------------------------------------

NAN = math.nan

#: Kernel rows per canonical cell of three wings.  Their cumulative sums are
#: non-monotone, exceed 1, hold NaN, or are exact ties.
ODD_ROWS = [
    (0.7, -0.4, 0.5, 0.2),
    (0.6, 0.9, -0.8, 0.0),
    (NAN, 0.2, 0.3, 0.5),
    (0.2, NAN, 0.1, 0.7),
    (0.25, 0.0, 0.0, 0.75),
    (-0.5, 0.3, NAN, 1.2),
    (1.5, -1.0, 0.25, 0.25),
    (0.0, 0.0, 0.0, 0.0),
]


def odd_model(p_plus):
    labels = ("L0", "L1", "L2", "L3")
    wings = tuple(Wing(f"a{i}", f"s{i}", BINARY, p) for i, p in enumerate(p_plus))

    def kernel(outcomes, settings, label):
        cell = sum((o == -1) << (2 - i) for i, o in enumerate(outcomes))
        row = ODD_ROWS[(cell + sum(settings)) % len(ODD_ROWS)]
        return row[labels.index(label)]

    return BackwardModel(
        name="odd",
        wings=wings,
        lam=LambdaSpace(labels, (0.25, 0.25, 0.25, 0.25)),
        kernel=ColliderKernel(labels, entry_table(kernel, labels)),
        backend="float",
    )


@pytest.mark.parametrize("p_plus", [(0.5, 0.5, 0.5), (0.3, 0.8, 0.6), (0.0, 1.0, 0.4)])
@pytest.mark.parametrize("settings", [(0, 0, 0), (1, 0, 1)])
@pytest.mark.parametrize("label", ["L0", "L1", "L2", "L3"])
def test_odd_kernels(p_plus, settings, label):
    model = odd_model(p_plus)
    _, _, cum = sampling._sampling_tables(model, model.tabulate([settings]).K)
    assert np.isnan(cum).any() and (np.diff(cum, axis=1) < 0).any() and (cum > 1).any()
    for seed in (3, 4):
        assert_parity(model, settings, label, 20_000, 200_000, lambda: make_rng(seed))


@pytest.mark.parametrize("p_plus", [(0.5, 0.5, 0.5), (0.3, 0.8, 0.6)])
def test_sample_run_loop_matches_batched_sampler_on_odd_kernels(p_plus):
    # both read a run's label uniform against the same non-monotone row, so a
    # run-by-run loop stops on the same draw with the same statistics
    model, settings, quota = odd_model(p_plus), (0, 0, 0), 2_000
    cells = model._cells()
    rng = make_rng(3)
    counts, hits, total, product_sum = [0] * len(cells), 0, 0, 0
    while hits < quota:
        run = sampling.sample_run(model, settings, rng)
        total += 1
        product_sum += run.outcomes[0] * run.outcomes[1]
        if run.label == "L1":
            hits += 1
            counts[cells.index(run.outcomes)] += 1
    expected = (counts, quota, total, product_sum)
    tables = sampling._sampling_tables(model, model.tabulate([settings]).K)
    assert outcome(sampling._shard_postselect, model, tables, 1, quota,
                   100 * quota, make_rng(3)) == expected


# ---------------------------------------------------------------------------
# Batch size
# ---------------------------------------------------------------------------

BATCH_CASES = [
    *((name, settings, label, 2_000, 200_000) for name, settings, label in STOCK_CASES),
    ("odd", (0, 0, 0), "L1", 500, 50_000),
    ("odd", (1, 0, 1), "L3", 500, 50_000),
    ("bell", (0.0, 0.0), "lambda1", 1_000, 1_000),
    ("bell", (0.0, 0.0), "lambda1", 3_000, 5_000),
    ("bell", (0.0, 0.0), "lambda1", 2_000, 4_096),
]


@pytest.mark.parametrize("name, settings, label, quota, cap", BATCH_CASES)
def test_batch_size_changes_no_statistic(stock, monkeypatch, name, settings, label,
                                         quota, cap):
    # each batch reads the next runs of the one stream and sampling stops at
    # the exact draw, so the batch size is a performance constant only
    model = stock.get(name) or odd_model((0.3, 0.8, 0.6))
    settings = model.check_settings(settings)
    tables = sampling._sampling_tables(model, model.tabulate([settings]).K)
    target_idx = model.lam.labels.index(label)
    got = []
    for runs in (1, 1000, 4096, 1 << 14, 1 << 16):
        monkeypatch.setattr(sampling, "BATCH_RUNS", runs)
        got.append(outcome(sampling._shard_postselect, model, tables, target_idx,
                           quota, cap, make_rng(9)))
    assert got[1:] == got[:-1]
