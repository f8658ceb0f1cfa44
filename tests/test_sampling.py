"""Monte Carlo harness: determinism, postselection semantics, gates."""

import concurrent.futures
import json
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import retrobell.sampling as sampling
from retrobell import (
    ANGLE,
    AcceptanceCapError,
    BackwardModel,
    ColliderKernel,
    ConstructionError,
    LambdaSpace,
    Wing,
    Z_GATE,
    entry_table,
    ghz_prob,
    make_rng,
    sample_postselected,
    sample_run,
)
from retrobell.dist import FLOAT, make_joint, tv_distance

PI = math.pi
SETTINGS = (0.0, PI / 3)


def report_json(rep) -> str:
    """The report's JSON text in the CLI's strict form, NaN rejected."""
    return json.dumps(rep.to_json_dict(), indent=2, allow_nan=False)


class TestSampleRun:
    def test_deterministic_for_fixed_seed(self, bell_model):
        # a fresh generator always reproduces the same first run
        firsts = [sample_run(bell_model, SETTINGS, make_rng(7)) for _ in range(5)]
        assert len({(r.outcomes, r.label) for r in firsts}) == 1
        # one generator reused across calls advances through a fixed sequence
        rng1, rng2 = make_rng(7), make_rng(7)
        seq1 = [sample_run(bell_model, SETTINGS, rng1) for _ in range(12)]
        seq2 = [sample_run(bell_model, SETTINGS, rng2) for _ in range(12)]
        assert seq1 == seq2
        assert len({(r.outcomes, r.label) for r in seq1}) > 1
        assert seq1[0].outcomes == firsts[0].outcomes

    def test_record_fields(self, bell_model):
        r = sample_run(bell_model, SETTINGS, make_rng(0))
        assert r.settings == SETTINGS
        assert all(a in (1, -1) for a in r.outcomes)
        assert r.label in bell_model.lam.labels

    def test_outcome_frequencies_near_quarter(self, bell_model):
        rng = make_rng(11)
        n = 40_000
        hits = sum(
            sample_run(bell_model, SETTINGS, rng).outcomes == (1, 1)
            for _ in range(n)
        )
        z = (hits - n * 0.25) / math.sqrt(n * 0.25 * 0.75)
        assert abs(z) <= Z_GATE

    def test_label_frequencies_near_quarter(self, bell_model):
        rng = make_rng(12)
        n = 40_000
        hits = sum(
            sample_run(bell_model, SETTINGS, rng).label == "lambda1"
            for _ in range(n)
        )
        z = (hits - n * 0.25) / math.sqrt(n * 0.25 * 0.75)
        assert abs(z) <= Z_GATE


class TestPostselection:
    def test_batched_path_equals_run_by_run_loop(self, bell_model):
        # the vectorized sampler must consume the stream exactly as repeated
        # sample_run calls do: same accepted outcomes, same total draws
        n = 60
        rng = make_rng(42)
        accepted = []
        total = 0
        while len(accepted) < n:
            r = sample_run(bell_model, SETTINGS, rng)
            total += 1
            if r.label == "lambda1":
                accepted.append(r.outcomes)
        report = sample_postselected(bell_model, "lambda1", SETTINGS, n, 42)
        assert report.total_draws == total
        counts = {}
        for o in accepted:
            counts[o] = counts.get(o, 0) + 1
        cells = {tuple(c["assignment"]): c["count"] for c in report.cells}
        assert all(cells[o] == counts.get(o, 0) for o in cells)

    def test_z_gates_pass_at_moderate_n(self, bell_model):
        rep = sample_postselected(bell_model, "lambda1", SETTINGS, 100_000, 42)
        assert rep.passed
        assert rep.max_abs_z <= Z_GATE
        assert abs(rep.acceptance["z"]) <= Z_GATE
        assert rep.accepted == 100_000

    def test_acceptance_rate_tracks_label_prior(self, bell_model):
        rep = sample_postselected(bell_model, "lambda1", SETTINGS, 100_000, 1)
        assert rep.acceptance["expected_rate"] == pytest.approx(0.25, abs=1e-12)
        assert rep.acceptance["observed_rate"] == pytest.approx(0.25, rel=0.02)

    def test_reports_are_byte_identical_for_fixed_seed(self, bell_model):
        a = sample_postselected(bell_model, "lambda1", SETTINGS, 30_000, 5)
        b = sample_postselected(bell_model, "lambda1", SETTINGS, 30_000, 5)
        assert report_json(a) == report_json(b)

    def test_different_seeds_differ(self, bell_model):
        a = sample_postselected(bell_model, "lambda1", SETTINGS, 10_000, 5)
        b = sample_postselected(bell_model, "lambda1", SETTINGS, 10_000, 6)
        assert report_json(a) != report_json(b)

    def test_sharded_run_is_deterministic_and_passes(self, bell_model):
        a = sample_postselected(bell_model, "lambda1", SETTINGS, 80_000, 9, shards=4)
        b = sample_postselected(bell_model, "lambda1", SETTINGS, 80_000, 9, shards=4)
        assert report_json(a) == report_json(b)
        assert a.passed
        assert a.shards == 4
        assert a.accepted == 80_000

    def test_unconditional_correlation_is_null(self, bell_model):
        rep = sample_postselected(bell_model, "lambda1", SETTINGS, 50_000, 3)
        assert rep.unconditional["exact"] == 0.0
        assert abs(rep.unconditional["z"]) <= Z_GATE

    def test_conditioned_correlation_tracks_cosine(self, bell_model):
        rep = sample_postselected(bell_model, "lambda1", SETTINGS, 50_000, 3)
        assert rep.conditioned_correlation["exact"] == pytest.approx(0.5, abs=1e-12)
        assert abs(rep.conditioned_correlation["z"]) <= Z_GATE

    def test_rng_algorithm_recorded(self, bell_model):
        rep = sample_postselected(bell_model, "lambda1", SETTINGS, 1_000, 0)
        assert rep.rng_algorithm == "philox4x64"
        assert rep.to_json_dict()["rng"] == "philox4x64"

    def test_ghz_accepted_runs_are_all_allowed(self, ghz_model):
        rep = sample_postselected(ghz_model, "lambda0", (0, 1, 1), 50_000, 21)
        for cell in rep.cells:
            if cell["exact_p"] == 0.0:
                assert cell["count"] == 0
                assert not ghz_prob(*cell["assignment"], 0, 1, 1) > 0
        assert rep.passed

    def test_invalid_requests_rejected(self, bell_model):
        with pytest.raises(ValueError):
            sample_postselected(bell_model, "lambda1", SETTINGS, 0, 1)
        with pytest.raises(ValueError):
            sample_postselected(bell_model, "nosuch", SETTINGS, 10, 1)
        with pytest.raises(ValueError):
            sample_postselected(bell_model, "lambda1", SETTINGS, 10, 1, shards=0)

    @pytest.mark.parametrize("cap_factor", [0, -3])
    def test_cap_factor_below_one_rejected(self, bell_model, cap_factor):
        # a factor clamped to 1 would run, and stop at its cap of 100 draws
        # with AcceptanceCapError rather than reject the argument
        with pytest.raises(ValueError, match="cap_factor"):
            sample_postselected(bell_model, "lambda1", SETTINGS, 100, 1, cap_factor=cap_factor)

    @pytest.mark.parametrize("cap_factor", [1.5, 100.0, "100"])
    def test_non_integer_cap_factor_rejected_before_tabulation(
            self, bell_model, monkeypatch, cap_factor):
        def no_tables(*args):
            raise AssertionError("tabulated before the arguments were checked")

        monkeypatch.setattr(BackwardModel, "tabulate", no_tables)
        with pytest.raises(TypeError, match="cap_factor"):
            sample_postselected(bell_model, "lambda1", SETTINGS, 100, 1, cap_factor=cap_factor)

    @pytest.mark.parametrize("name, value", [
        ("n", 2.5), ("n", 100.0), ("n", "100"), ("seed", 1.5), ("seed", "7"),
        ("shards", 1.5), ("shards", "2"),
    ])
    def test_non_integer_n_seed_or_shards_rejected_before_tabulation(
            self, bell_model, monkeypatch, name, value):
        def no_tables(*args):
            raise AssertionError("tabulated before the arguments were checked")

        monkeypatch.setattr(BackwardModel, "tabulate", no_tables)
        args = {"n": 100, "seed": 1, "shards": 1, name: value}
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
            sample_postselected(bell_model, "lambda1", SETTINGS, args["n"], args["seed"],
                                shards=args["shards"])

    def test_bool_n_and_shards_run_as_one(self, bell_model):
        as_bool = sample_postselected(bell_model, "lambda1", (0.3, 1.1), True, 1, shards=True)
        as_int = sample_postselected(bell_model, "lambda1", (0.3, 1.1), 1, 1, shards=1)
        assert report_json(as_bool) == report_json(as_int)

    def test_binary_settings_are_reported_as_ints(self, ghz_model):
        report = sample_postselected(ghz_model, "lambda_bar", (True, 0, 1.0), 10, 1)
        assert json.dumps(report.to_json_dict()["settings"]) == "[1, 0, 1]"

    @pytest.mark.parametrize("seed", [1.5, 1.0, "7"])
    def test_non_integer_seed_rejected(self, bell_model, seed):
        with pytest.raises(TypeError):
            sample_postselected(bell_model, "lambda1", (0.3, 1.1), 1000, seed)


def zero_cell_model():
    """Float model whose label L1 never meets outcome (+1, +1)."""
    wings = (Wing("a1", "s1", ANGLE, 0.5), Wing("a2", "s2", ANGLE, 0.25))

    def kernel(outcomes, settings, label):
        p = 0.0 if outcomes == (1, 1) else 0.3 + 0.1 * math.cos(settings[0] - settings[1])
        return p if label == "L1" else 1.0 - p

    return BackwardModel(
        name="zero-cell",
        wings=wings,
        lam=LambdaSpace(("L1", "L2"), (0.5, 0.5)),
        kernel=ColliderKernel(("L1", "L2"), entry_table(kernel, ("L1", "L2"))),
        backend="float",
    )


#: (model, settings, label) where the report's exact numbers are compared
#: with the model's one-point tables; -0.0 is the counterexample's sign boundary.
EXACT_CASES = [
    ("bell", (0.0, PI / 3), "lambda1"),
    ("bell", (1.3, 4.9), "lambda2"),
    ("bell", (2.2, 2.2), "lambda3"),
    ("bell", (5.7, 0.4), "lambda4"),
    ("counterexample", (0.3, -0.0), "lambda1"),
    ("counterexample", (0.3, -0.0), "lambda_bar"),
    ("counterexample", (1.1, 0.0), "lambda1"),
    ("ghz", (0, 1, 1), "lambda0"),
    ("ghz", (1, 1, 1), "lambda_bar"),
    ("prbox", (1, 1), "lambda_pr"),
    ("prbox", (0, 1), "lambda_bar"),
    ("zero-cell", (0.4, 1.7), "L1"),
    ("zero-cell", (0.4, 1.7), "L2"),
]


@pytest.mark.parametrize("name, settings, label", EXACT_CASES)
def test_exact_reference_matches_joint_api(
    name, settings, label, bell_model, ghz_model, pr_model, counterexample_model
):
    model = {"bell": bell_model, "ghz": ghz_model, "prbox": pr_model,
             "counterexample": counterexample_model, "zero-cell": zero_cell_model()}[name]
    n = 3_001
    rep = sample_postselected(model, label, settings, n, 17)
    tab = model.tabulate([settings])
    exact = dict(zip(model._cells(), tab.conditioned(label)[0]))
    assert [c["exact_p"] for c in rep.cells] == [
        float(exact[c["assignment"]]) for c in rep.cells]
    _, M = tab.joint
    assert rep.acceptance["expected_rate"] == float(M[0][model.lam.labels.index(label)])
    empirical = make_joint(
        model.outcome_variables(),
        {c["assignment"]: c["count"] / n for c in rep.cells if c["count"]},
        backend=FLOAT,
    )
    assert rep.tv_distance == float(
        tv_distance(empirical, model.condition_on_lambda(label, settings)))
    assert rep.conditioned_correlation["exact"] == float(
        sum(a[0] * a[1] * p for a, p in exact.items() if p))


class TestShardWorkers:
    def test_worker_count_is_bounded_by_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(sampling.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert [sampling._worker_count(s) for s in (1, 2, 3, 10**9)] == [1, 2, 2, 2]

    def test_worker_count_without_affinity_uses_cpu_count(self, monkeypatch):
        monkeypatch.delattr(sampling.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sampling.os, "cpu_count", lambda: 4)
        assert [sampling._worker_count(s) for s in (3, 10**9)] == [3, 4]
        monkeypatch.setattr(sampling.os, "cpu_count", lambda: None)
        assert sampling._worker_count(10**9) == 1

    @pytest.mark.parametrize("cpus, pool_workers", [(1, []), (3, [3])])
    def test_many_shards_share_few_workers(self, bell_model, monkeypatch, cpus, pool_workers):
        # a serial stand-in records the pool size without starting threads
        expected = sample_postselected(bell_model, "lambda1", SETTINGS, 9_000, 2, shards=6)
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(sampling, "_worker_count", lambda shards: min(shards, cpus))
        rep = sample_postselected(bell_model, "lambda1", SETTINGS, 9_000, 2, shards=6)
        assert started == pool_workers
        assert rep.shards == 6
        assert report_json(rep) == report_json(expected)

    def test_shards_beyond_n_allocate_nothing(self, bell_model, monkeypatch):
        # only min(shards, n) quotas are built, so a huge shard count costs
        # what n shards cost; run inline, without starting threads
        monkeypatch.setattr(sampling, "_worker_count", lambda shards: 1)
        rep = sample_postselected(bell_model, "lambda1", SETTINGS, 3, 2, shards=10**15)
        assert rep.shards == 3
        expected = sample_postselected(bell_model, "lambda1", SETTINGS, 3, 2, shards=3)
        assert report_json(rep) == report_json(expected)


class TestBatchMemory:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_peak_allocation_is_one_batch_per_shard_whatever_n(self, bell_model, shards):
        # each shard holds one fixed buffer set, so ten times the runs
        # allocate no more than a few small Python objects; two threads' sets
        # overlap only when their shards happen to run at once, so there only
        # the bound holds whatever the timing
        sample_postselected(bell_model, "lambda1", SETTINGS, 1_000, 1)
        peaks = []
        for n in (50_000, 500_000):
            tracemalloc.start()
            try:
                sample_postselected(bell_model, "lambda1", SETTINGS, n, 3, shards=shards)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= shards * 2**20
        if shards == 1:
            assert abs(peaks[1] - peaks[0]) < 2**12


class TestSampleRunTables:
    def test_cached_tables_follow_model_and_settings(self, bell_model):
        # each pair is drawn twice (a miss, then a hit) and must draw what
        # freshly built tables draw
        other = BackwardModel(
            name="flipped",
            wings=bell_model.wings,
            lam=bell_model.lam,
            kernel=ColliderKernel(
                bell_model.lam.labels,
                lambda points: bell_model.kernel.table([(a1, a2 + PI) for a1, a2 in points]),
            ),
            backend="float",
        )
        calls = [(bell_model, SETTINGS), (other, SETTINGS), (bell_model, (0.0, 2.0)),
                 (bell_model, SETTINGS), (other, (0.0, 2.0))] * 40
        rng_cached, rng_fresh = make_rng(3), make_rng(3)
        for model, settings in calls:
            got = [sample_run(model, settings, rng_cached) for _ in range(2)]
            want = []
            for _ in range(2):
                sampling._run_tables = (None, None, None)
                want.append(sample_run(model, settings, rng_fresh))
            assert got == want

    def test_threads_sharing_the_cache_draw_from_their_own_tables(self, bell_model):
        # more threads than cores, switching often, each on its own settings
        jobs = [(0.0, a) for a in (0.5, 1.5, 2.5, 3.5)]

        def draws(i):
            rng = make_rng(i)
            return [sample_run(bell_model, jobs[i], rng) for _ in range(300)]

        expected = [draws(i) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                futures = [pool.submit(draws, i) for i in range(len(jobs))]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected

    def test_signed_zero_settings_do_not_share_tables(self):
        wings = (Wing("a1", "s1", ANGLE, 0.5), Wing("a2", "s2", ANGLE, 0.5))

        def kernel(outcomes, settings, label):
            return float((math.copysign(1.0, settings[0]) > 0) == (label == "L1"))

        model = BackwardModel(
            name="signed",
            wings=wings,
            lam=LambdaSpace(("L1", "L2"), (0.5, 0.5)),
            kernel=ColliderKernel(("L1", "L2"), entry_table(kernel, ("L1", "L2"))),
            backend="float",
        )
        rng = make_rng(0)
        assert sample_run(model, (0.0, 0.0), rng).label == "L1"
        assert sample_run(model, (-0.0, 0.0), rng).label == "L2"


class TestAcceptanceCap:
    def test_cap_exceeded_raises(self, bell_model):
        with pytest.raises(AcceptanceCapError) as exc:
            sample_postselected(
                bell_model, "lambda1", SETTINGS, 10_000, 1, cap_factor=1
            )
        assert exc.value.cap == 10_000
        assert exc.value.accepted < 10_000

    def test_unreachable_label_hits_cap(self):
        # a label with positive prior that the kernel never produces
        with pytest.raises(AcceptanceCapError):
            sample_postselected(two_label_model(1.0, 0.0), "never", (0.0, 0.0), 10, 1,
                                cap_factor=5)

    @pytest.mark.parametrize("weights, error", [
        ((1.0, 0.0), AcceptanceCapError),  # the kernel never produces "never"
        ((-0.5, 1.5), ConstructionError),  # the joint rejects negative weights
    ])
    def test_exact_reference_is_built_before_any_draw(self, monkeypatch, weights, error):
        def no_draws(*args):
            raise AssertionError("drew runs before building the exact reference")

        monkeypatch.setattr(sampling, "_shard_postselect", no_draws)
        with pytest.raises(error) as exc:
            sample_postselected(two_label_model(*weights), "never", (0.0, 0.0), 10, 1,
                                cap_factor=5)
        if error is AcceptanceCapError:
            assert (exc.value.accepted, exc.value.total_draws, exc.value.cap) == (0, 0, 50)


def two_label_model(first, never):
    """Float model whose labels "L1" and "never" take these kernel weights in
    every cell, at any settings."""
    wings = (Wing("a1", "s1", ANGLE, 0.5), Wing("a2", "s2", ANGLE, 0.5))
    labels = ("L1", "never")
    kernel = entry_table(lambda o, s, label: first if label == "L1" else never, labels)
    return BackwardModel("stuck", wings, LambdaSpace(labels, (0.5, 0.5)),
                         ColliderKernel(labels, kernel), "float")


class TestRng:
    def test_same_seed_same_stream(self):
        assert make_rng(123).random(8).tolist() == make_rng(123).random(8).tolist()

    def test_shard_streams_differ_from_root_and_each_other(self):
        root = make_rng(123).random(4).tolist()
        s0 = make_rng(123, shard=0).random(4).tolist()
        s1 = make_rng(123, shard=1).random(4).tolist()
        assert root != s0 != s1 and root != s1

    def test_batch_equals_singles(self):
        g1, g2 = make_rng(5), make_rng(5)
        assert g1.random(6).tolist() == [g2.random() for _ in range(6)]

    @pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
    def test_streams_are_numpys_spawned_children(self, seed):
        def draws(seed_sequence):
            return np.random.Generator(np.random.Philox(seed_sequence)).random(4).tolist()

        assert make_rng(seed).random(4).tolist() == draws(np.random.SeedSequence(seed))
        for k in range(3):
            child = np.random.SeedSequence(seed).spawn(k + 1)[k]
            assert make_rng(seed, shard=k).random(4).tolist() == draws(child)

    @pytest.mark.parametrize("seed", [1.5, 1.0, "7"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(TypeError):
            make_rng(seed)


class TestStrictJson:
    def test_non_finite_z_scores_serialize_as_strings(self, bell_model):
        rep = sample_postselected(bell_model, "lambda1", SETTINGS, 1000, 0)
        broken = rep._replace(
            cells=(dict(rep.cells[0], z=math.inf),) + rep.cells[1:],
            max_abs_z=math.inf,
            acceptance=dict(rep.acceptance, z=-math.inf),
            unconditional=dict(rep.unconditional, z=math.nan),
            passed=False,
        )

        def reject(token):
            raise AssertionError(f"non-standard JSON constant {token}")

        doc = json.loads(report_json(broken), parse_constant=reject)
        assert doc["cells"][0]["z"] == "inf"
        assert doc["max_abs_z"] == "inf"
        assert doc["acceptance"]["z"] == "-inf"
        assert doc["unconditional"]["z"] == "nan"
        assert doc["cells"][1] == json.loads(report_json(rep))["cells"][1]


@pytest.mark.parametrize("shards", [1, 3])
def test_sample_tabulates_the_kernel_once(bell_model, monkeypatch, shards):
    # the shards' cumulative rows and the exact reference share one tensor
    calls = []
    tabulate = type(bell_model).tabulate

    def counted(model, grid):
        calls.append(grid)
        return tabulate(model, grid)

    monkeypatch.setattr(type(bell_model), "tabulate", counted)
    rep = sample_postselected(bell_model, "lambda1", SETTINGS, 3000, 2, shards=shards)
    assert rep.shards == shards
    assert len(calls) == 1
