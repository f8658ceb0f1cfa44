"""The traced run: per-layer spans and work counters, from outside the package.

The traced run calls ``retrobell.cli.main(argv)`` in-process on the same argv
as the untraced run.  :class:`Tracer` swaps public functions of the package,
where the CLI and the library look them up, for wrappers and puts the
originals back on close.  Calls that happen a few times per command get a
span (name, start, end, parent span, command id); calls that happen once per
grid point or kernel entry only bump a counter, which keeps the tracing
overhead small.  A span's self time is its duration minus its direct
children's.

Per-call unit costs (``.us``, ``.ns`` and ``ghz.verify_ghz_recovery.ms``)
come from untraced loops over the same functions, so wrapper overhead does
not inflate them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import statistics
import time
import tracemalloc
import types
from collections import Counter
from dataclasses import dataclass, field

import harness
import retrobell.backward as backward
import retrobell.chsh as chsh
import retrobell.cli as cli
import retrobell.ghz as ghz
import retrobell.reports as reports
import retrobell.sampling as sampling
from retrobell import dist, quantum
from workloads import gate

CHECKS = (
    "backward.verify_si",
    "backward.verify_no_signalling_all",
    "backward.verify_recovery",
    "backward.verify_kernel_normalization",
)
SAMPLE = "sampling.sample_postselected"
EXACT_REFERENCE = "sampling.exact_reference"
TO_JSON = "reports.to_json"

#: Work counters.  They must repeat exactly between traced passes.
COUNTERS = (
    "backward.grid_points",
    "backward.assemble_joint.calls",
    "backward.condition_on_lambda.calls",
    "backward.kernel_evals",
    "dist.make_joint.calls",
    "quantum.bell_prob.calls",
    "sampling.draws",
    "sampling.accepted",
)


@dataclass
class Span:
    name: str
    index: int
    parent: int  # index of the enclosing span, -1 at top level
    command: int
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Install with ``with Tracer() as t:``; spans and counts land on ``t``.

    Spans are only opened from the calling thread.  Call counters are also
    bumped from the sampler's shard threads, so each is an
    ``itertools.count``: its increment is one C call under the interpreter
    lock and cannot lose an update, and it costs less than a lock.  The
    counts are read into ``counts`` when the tracer is removed.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.scan_peaks: list[int] = []
        self.command = -1
        self._calls: dict[str, itertools.count] = {}
        self._open: list[Span] = []
        self._saved: list[tuple] = []

    # -- span and counter primitives ----------------------------------------

    def _enter(self, name: str) -> Span:
        parent = self._open[-1].index if self._open else -1
        span = Span(name, len(self.spans), parent, self.command)
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def _spanned(self, name, fn, on_exit=None):
        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if on_exit is not None:
                on_exit(span, args, result)
            return result

        return wrapper

    def _counted(self, counter, fn, span_under=None, span_name=None):
        """Count every call; also open a span when called directly from a
        ``span_under`` span."""
        tick = self._calls.setdefault(counter, itertools.count()).__next__
        if span_under is None:
            def wrapper(*args, **kwargs):
                tick()
                return fn(*args, **kwargs)

            return wrapper

        def wrapper(*args, **kwargs):
            tick()
            if not self._open or self._open[-1].name != span_under:
                return fn(*args, **kwargs)
            span = self._enter(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)

        return wrapper

    def _with_peak(self, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.scan_peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return wrapper

    def _patch(self, owner, attr, make) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        span, count = self._spanned, self._counted
        model = backward.BackwardModel

        self._patch(cli, "main", lambda f: span("cli.main", f))
        for name in CHECKS:
            attr = name.split(".", 1)[1]
            owner = cli if attr == "verify_no_signalling_all" else model
            self._patch(owner, attr, lambda f, n=name: span(n, f, self._on_check))
        self._patch(cli, "quantum_chsh_scan", self._with_peak)
        self._patch(cli, "quantum_chsh_scan", lambda f: span("chsh.quantum_chsh_scan", f))
        self._patch(cli, "backward_model_chsh", lambda f: span("chsh.backward_model_chsh", f))
        self._patch(cli, "lhv_max_chsh", lambda f: span("chsh.lhv_max_chsh", f))
        self._patch(cli, "classical_assignment_exhaustion",
                    lambda f: span("ghz.classical_assignment_exhaustion", f))
        self._patch(cli, "sample_postselected", lambda f: span(SAMPLE, f, self._on_sample))

        for cls in (reports.CheckReport, chsh.ScanReport, sampling.SampleReport,
                    ghz.ExhaustionReport):
            self._patch(cls, "to_json_dict", lambda f: span(TO_JSON, f))
        self._patch(cli, "jsonable", lambda f: span(TO_JSON, f))
        # The CLI reaches json.dumps through its module global ``json``.
        self._patch(cli, "json", lambda m: types.SimpleNamespace(dumps=span(TO_JSON, m.dumps)))

        self._patch(model, "assemble_joint",
                    lambda f: count("backward.assemble_joint.calls", f))
        self._patch(model, "condition_on_lambda",
                    lambda f: count("backward.condition_on_lambda.calls", f, SAMPLE, EXACT_REFERENCE))
        self._patch(model, "lambda_marginal",
                    lambda f: count("backward.lambda_marginal.calls", f, SAMPLE, EXACT_REFERENCE))
        self._patch(backward.ColliderKernel, "probability",
                    lambda f: count("backward.kernel_evals", f))
        for owner in (backward, sampling):
            self._patch(owner, "make_joint", lambda f: count("dist.make_joint.calls", f))
        self._patch(backward, "bell_prob", lambda f: count("quantum.bell_prob.calls", f))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        for name, calls in self._calls.items():
            self.counts[name] = next(calls)

    def _on_check(self, span: Span, args, result) -> None:
        model, grid = args[0], args[1]
        span.info["backend"] = model.backend
        self.counts["backward.grid_points"] += len(grid)

    def _on_sample(self, span: Span, args, result) -> None:
        model, label, settings, n = args[:4]
        span.info["problem"] = (model.name, label, tuple(settings), n)
        span.info["shards"] = result.shards
        self.counts["sampling.draws"] += result.total_draws
        self.counts["sampling.accepted"] += result.accepted
        self.counts["sampling.cap"] += result.cap

    # -- per-pass metrics ----------------------------------------------------

    def self_times(self) -> Counter:
        children = Counter()
        for s in self.spans:
            if s.parent >= 0:
                children[s.parent] += s.duration
        own = Counter()
        for s in self.spans:
            own[s.name] += s.duration - children[s.index]
        return own

    def metrics(self) -> dict:
        own = self.self_times()
        c = self.counts
        out = {f"{name}.s": own[name] for name in CHECKS}
        out["backward.rational_verify.s"] = sum(
            s.duration for s in self.spans
            if s.name in CHECKS and s.info.get("backend") == dist.RATIONAL
        )
        out.update({name: c[name] for name in COUNTERS})
        out["chsh.quantum_chsh_scan.s"] = own["chsh.quantum_chsh_scan"]
        out["chsh.quantum_chsh_scan.peak_mb"] = max(self.scan_peaks, default=0) / 2**20
        for name in ("chsh.backward_model_chsh", "chsh.lhv_max_chsh",
                     "ghz.classical_assignment_exhaustion", EXACT_REFERENCE,
                     TO_JSON):
            out[f"{name}.ms"] = 1e3 * own[name]
        out["cli.self.ms"] = 1e3 * own["cli.main"]
        sample_s = own[SAMPLE]
        draws = c["sampling.draws"]
        out[f"{SAMPLE}.s"] = sample_s
        out["sampling.draws_per_s"] = draws / sample_s if sample_s else 0.0
        out["sampling.acceptance_ratio"] = c["sampling.accepted"] / draws if draws else 0.0
        out["sampling.cap_use"] = draws / c["sampling.cap"] if draws else 0.0
        out["sampling.shard_speedup"] = self._shard_speedup()
        return out

    def _shard_speedup(self) -> float:
        """One-shard over two-shard sampling time for the same problem."""
        by_shards: dict = {}
        for s in self.spans:
            if s.name == SAMPLE and "problem" in s.info:
                by_shards.setdefault(s.info["problem"], {})[s.info["shards"]] = s.duration
        for times in by_shards.values():
            if 1 in times and 2 in times:
                return times[1] / times[2]
        return 0.0


# ---------------------------------------------------------------------------
# Traced and untraced in-process passes
# ---------------------------------------------------------------------------


def run_in_process(commands, tracer: Tracer | None) -> tuple[float, int]:
    """Run every command through ``cli.main`` in-process.

    Returns the summed wall time of the ``cli.main`` calls and the number of
    commands that failed the correctness gate.
    """
    wall = 0.0
    failed = 0
    for i, cmd in enumerate(commands):
        if tracer is not None:
            tracer.command = i
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(list(cmd.argv))
            wall += time.perf_counter() - start
        failed += bool(gate(cmd, code, out.getvalue()))
    return wall, failed


def per_call(fn, repeats: int = 5, batch_s: float = 0.02) -> float:
    """Median seconds per call over ``repeats`` batches of ~``batch_s``."""
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        took = time.perf_counter() - start
        if took >= batch_s:
            break
        n *= 2
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return statistics.median(samples)


def unit_costs() -> dict:
    """Untraced per-call costs of the layers' hot functions.

    The float tables are the bell model's 2-wing+lambda joint; the rational
    tables the ghz model's 3-wing+lambda joint.
    """
    bell = backward.bell_backward_model()
    ghz_model = ghz.ghz_backward_model()
    out = {}
    tables = (
        ("", bell, (0.3, 1.1), (1.7, 0.4), "lambda1"),
        (".rational", ghz_model, (0, 1, 1), (1, 0, 1), "lambda0"),
    )
    for suffix, model, settings, other, label in tables:
        joint = model.assemble_joint(settings)
        variables = joint.variables
        weights = dict(joint.items())
        cond_a = model.condition_on_lambda(label, settings)
        cond_b = model.condition_on_lambda(label, other)
        out[f"dist.make_joint{suffix}.us"] = 1e6 * per_call(
            lambda: dist.make_joint(variables, weights, backend=model.backend))
        out[f"dist.condition{suffix}.us"] = 1e6 * per_call(
            lambda: dist.condition(joint, {backward.LAMBDA: label}))
        out[f"dist.marginalize{suffix}.us"] = 1e6 * per_call(
            lambda: dist.marginalize(joint, [backward.LAMBDA]))
        out[f"dist.tv_distance{suffix}.us"] = 1e6 * per_call(
            lambda: dist.tv_distance(cond_a, cond_b))
    out["backward.assemble_joint.us"] = 1e6 * per_call(lambda: bell.assemble_joint((0.3, 1.1)))
    out["backward.condition_on_lambda.us"] = 1e6 * per_call(
        lambda: bell.condition_on_lambda("lambda1", (0.3, 1.1)))
    out["quantum.bell_prob.ns"] = 1e9 * per_call(lambda: quantum.bell_prob(1, 1, -1, 0.3, 1.1))
    rng = sampling.make_rng(0)
    out["sampling.sample_run.us"] = 1e6 * per_call(
        lambda: sampling.sample_run(bell, (0.3, 1.1), rng))
    out["ghz.verify_ghz_recovery.ms"] = 1e3 * per_call(lambda: ghz.verify_ghz_recovery(ghz_model))
    return out


def import_costs(repeats: int = 3) -> dict:
    """Wall seconds of a fresh interpreter importing numpy, and retrobell."""
    out = {}
    for module in ("numpy", "retrobell"):
        walls = []
        for _ in range(repeats):
            done = harness.run_python(("-c", f"import {module}"))
            if done.returncode != 0:
                raise RuntimeError(f"import {module} failed: {done.stderr.strip()}")
            walls.append(done.wall_s)
        out[f"import.{module}.s"] = statistics.median(walls)
    return out


@dataclass
class TracedResult:
    metrics: dict
    attempted: int
    failed: int
    counters_repeat: bool
    passes: int


def traced_run(commands, seconds: float) -> TracedResult:
    """Alternate traced and untraced in-process passes for ``seconds``.

    One untimed untraced pass warms up first.  At least two traced passes
    run, so the counters can be compared; the layer times are medians over
    the traced passes and ``trace.overhead_frac`` compares the median traced
    and untraced pass walls.
    """
    deadline = time.perf_counter() + seconds
    _, failed = run_in_process(commands, None)
    attempted = len(commands)
    traced_walls, untraced_walls, per_pass = [], [], []
    while True:
        start = time.perf_counter()
        with Tracer() as tracer:
            wall, bad = run_in_process(commands, tracer)
        traced_walls.append(wall)
        per_pass.append(tracer.metrics())
        wall, bad_untraced = run_in_process(commands, None)
        untraced_walls.append(wall)
        attempted += 2 * len(commands)
        failed += bad + bad_untraced
        took = time.perf_counter() - start
        if len(per_pass) >= 2 and time.perf_counter() + took > deadline:
            break

    counts = [{k: m[k] for k in COUNTERS} for m in per_pass]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics.update(counts[0])
    metrics.update(unit_costs())
    metrics.update(import_costs())
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    return TracedResult(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        counters_repeat=all(c == counts[0] for c in counts),
        passes=len(per_pass),
    )

