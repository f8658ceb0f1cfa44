"""Seedable Monte Carlo replay of backward models.

Sampling follows the model's own factorization order: wing outcomes are
drawn first, independently, from their setting-free marginals; the hidden
label is then drawn from the collider kernel at those outcomes and settings.
Postselection keeps the runs whose label matches a target value, which is
the operational reading of preparing that label.  Before postselection the
outcomes are uncorrelated; the kept runs reproduce the label-conditioned
distribution.

Reproducibility contract: the generator is Philox (counter-based), keyed by
a non-negative integer seed (an ``int`` or numpy integer; a float or a string
is rejected); the algorithm name is recorded in every report.  Batched
sampling consumes the generator stream in exactly the order a run-by-run
loop would, so results are bit-identical for a given (model, settings, n,
seed, shards).  With several shards, shard ``k`` draws from the root seed's
``k``-th spawned child, numpy's ``SeedSequence(seed).spawn(k + 1)[k]``, and
counts merge in shard order, making parallel and serial execution
indistinguishable; ``shards=1`` draws from the root stream itself.
Shards run on at most one thread per usable CPU.

A shard refills one buffer set for every batch of ``BATCH_RUNS`` runs, so
its memory does not grow with ``n``: a ``(runs, wings + 1)`` block of
uniforms, a cell-key array, two masks and a bound array.  Each run's outcome
cell index is built from bits: wing ``i`` sets its bit when its uniform is
not below P(+1), wing 1 most significant, which is the canonical cell order.
The label is never computed; a run is a hit when its last uniform lies in
the target label's interval ``[lo[cell], hi[cell])``, read once per call
from the sorted cumulative kernel rows.  One ``bincount`` over the key
``2 * cell + hit`` then gives each cell's hits and draws, and the
pre-postselection product sum follows from the draws per cell.
"""

from __future__ import annotations

import math
import operator
import os
from typing import NamedTuple, Sequence

import numpy as np

from .backward import BackwardModel
from .dist import FLOAT, _normalized
from .dist import make_joint  # noqa: F401 (bench/tracing.py patches this name)
from .reports import fields_json

RNG_ALGORITHM = "philox4x64"

#: Runs drawn per vectorized batch, a performance constant: at two or three
#: wings a batch's buffers take ~0.7 MiB, small enough to stay in L2 cache.
#: Reports do not depend on it, since each batch reads the next runs of one
#: stream and sampling stops at the exact draw.
BATCH_RUNS = 1 << 14

#: Statistical gate on every z-score, |z| <= 5: a normal approximation, so its
#: false-alarm rate can be large where n * p is small.  Correct code fails it at
#: ``sample --model bell --label lambda1 --alpha1 0 --alpha2 0.01 --n 1000 --seed
#: 100``: one count in a cell of p = 1.25e-5 gives z = 8.83 (and the correlation -6.17).
Z_GATE = 5.0

DEFAULT_CAP_FACTOR = 100


class AcceptanceCapError(RuntimeError):
    """Postselection hit the total-draw cap before accepting enough runs.

    Signals an unreachable or vanishing-probability target label.
    """

    def __init__(self, label, accepted, requested, total_draws, cap):
        super().__init__(
            f"accepted only {accepted}/{requested} runs for {label!r} "
            f"after {total_draws} draws (cap {cap})"
        )
        self.label = label
        self.accepted = accepted
        self.requested = requested
        self.total_draws = total_draws
        self.cap = cap


class RunRecord(NamedTuple):
    """One sampled experiment run."""

    settings: tuple
    outcomes: tuple
    label: str


def make_rng(seed: int, shard: int | None = None) -> np.random.Generator:
    """Philox generator for an integer seed, optionally for one shard.

    The seed passes through ``operator.index``, so a float or a string raises
    ``TypeError``.  A shard's stream is the root's spawned child: the same as
    ``SeedSequence(seed).spawn(shard + 1)[shard]``, so the shards are mutually
    independent and each is reproducible without shared state.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(
        operator.index(seed), spawn_key=() if shard is None else (shard,))))


def _sampling_tables(model: BackwardModel, K):
    """Float lookup tables driving both scalar and batched sampling, from the
    kernel tensor ``K`` of a one-point ``model.tabulate``.

    Returns the per-wing P(+1) vector, the canonical outcome combos, and the
    per-combo cumulative kernel rows (last entry forced to 1.0 so that a
    uniform draw always lands on a label).
    """
    p_plus = np.array([float(w.p_plus) for w in model.wings], dtype=float)
    cum = np.cumsum(np.asarray(K[0], dtype=float), axis=1)
    cum[:, -1] = 1.0
    return p_plus, model._cells(), cum


#: ``sample_run``'s tables for the last (model, settings) it saw.  Holding the
#: model keeps ``is`` from matching a new model at a reused address; the repr
#: key tells 0.0 from -0.0.  The tuple is replaced whole, so a thread never
#: reads tables paired with another key.
_run_tables: tuple = (None, None, None)


def sample_run(
    model: BackwardModel,
    settings: Sequence,
    rng: np.random.Generator,
) -> RunRecord:
    """Draw one run: outcomes from the wing marginals, then the label.

    Consumes exactly ``len(wings) + 1`` uniforms from the generator, in wing
    order then label, so repeated calls define the reference stream that the
    batched sampler reproduces.
    """
    global _run_tables
    settings = model.check_settings(settings)
    key = repr(settings)
    held_model, held_key, tables = _run_tables
    if held_model is not model or held_key != key:
        tables = _sampling_tables(model, model.tabulate([settings]).K)
        _run_tables = (model, key, tables)
    p_plus, combos, cum = tables
    outcomes = tuple(
        1 if rng.random() < p_plus[i] else -1 for i in range(len(model.wings))
    )
    # the label index is the number of row entries at or below u, as in the
    # batched sampler; the last entry is 1.0, so it stays below len(labels)
    label_idx = int(np.count_nonzero(cum[combos.index(outcomes)] <= rng.random()))
    return RunRecord(settings, outcomes, model.lam.labels[label_idx])


def _label_bounds(cum: np.ndarray, target_idx: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell interval ``[lo, hi)`` of label uniforms that draw ``target_idx``.

    The batched label index at cell ``c`` is ``#{j : u >= cum[c, j]}``, the
    number of row entries at or below ``u``.  On the sorted row ``s`` that
    count is ``searchsorted(s, u, "right")`` whatever the row's order, so it
    equals ``t`` exactly when ``s[t-1] <= u < s[t]``, with ``s`` padded by
    -inf and +inf.  A NaN entry never counts, so it sorts as +inf.
    """
    rows = np.sort(np.where(np.isnan(cum), np.inf, cum), axis=1)
    padded = np.pad(rows, ((0, 0), (1, 1)), constant_values=(-np.inf, np.inf))
    return padded[:, target_idx].copy(), padded[:, target_idx + 1].copy()


def _shard_postselect(model, tables, target_idx, quota, cap, rng):
    """Accept ``quota`` runs with the target label, or raise at the cap.

    Returns (counts per outcome combo, accepted, total draws, sum of the
    wing-1 * wing-2 product over all draws).  Stops at the draw that yields
    the final acceptance, so statistics cover exactly the runs a sequential
    sampler would have seen.
    """
    n_wings = len(model.wings)
    p_plus, combos, cum = tables
    lo, hi = _label_bounds(cum, target_idx)
    n_cells = len(combos)

    # one buffer set per shard (uniforms, keys, two masks, bounds); a short
    # batch uses leading views of it
    size = min(BATCH_RUNS, cap)
    buffers = (np.empty((size, n_wings + 1)), np.empty(size, dtype=np.intp),
               np.empty(size, dtype=bool), np.empty(size, dtype=bool), np.empty(size))
    # tallies[2c] counts the rejected draws in cell c, tallies[2c + 1] the hits
    tallies = np.zeros(2 * n_cells, dtype=np.int64)
    accepted = 0
    total = 0
    while accepted < quota:
        room = cap - total
        if room <= 0:
            raise AcceptanceCapError(
                model.lam.labels[target_idx], accepted, quota, total, cap
            )
        b = min(size, room)
        u, key, bit, hit, bound = (a[:b] for a in buffers)
        rng.random(out=u)
        # wing i's bit is set when its outcome is -1; wing 1 is the top bit
        np.greater_equal(u[:, 0], p_plus[0], out=key)
        for i in range(1, n_wings):
            key <<= 1
            key |= np.greater_equal(u[:, i], p_plus[i], out=bit)
        # keys are cells, all below n_cells, so "clip" never clips; it only
        # spares take the copy it makes of ``out`` under "raise"
        v = u[:, n_wings]
        np.less_equal(lo.take(key, out=bound, mode="clip"), v, out=hit)
        hit &= np.less(v, hi.take(key, out=bound, mode="clip"), out=bit)
        key <<= 1  # the key becomes 2 * cell + hit
        key |= hit
        tally = np.bincount(key, minlength=2 * n_cells)
        new = int(tally[1::2].sum())
        if accepted + new >= quota:
            b = int(np.flatnonzero(hit)[quota - accepted - 1]) + 1
            tally = np.bincount(key[:b], minlength=2 * n_cells)
            new = quota - accepted
        tallies += tally
        accepted += new
        total += b
    counts = tallies[1::2]
    sign = np.array([c[0] * c[1] for c in combos], dtype=np.int64)
    return counts, accepted, total, int(sign @ (tallies[0::2] + counts))


def _worker_count(shards: int) -> int:
    """Threads for ``shards`` sampling shards: at most one per usable CPU.

    Shards beyond the worker count queue for a free thread; each keeps its
    own substream, so the count changes timing only, never a report.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(shards, cpus)


def _correlation_z(observed: float, exact: float, runs: int) -> float:
    """z-score of a mean +/-1 outcome product over ``runs`` runs against its
    exact value, whose variance per run is ``1 - exact**2``."""
    var = 1.0 - exact * exact
    if var > 0.0:
        return (observed - exact) * math.sqrt(runs / var)
    return 0.0 if observed == exact else math.inf


def _cell_z(count: int, n: int, p: float) -> float:
    """Binomial z-score of a cell count against its exact probability."""
    if p <= 0.0 or p >= 1.0:
        expected = n * p
        return 0.0 if count == expected else math.inf
    return (count - n * p) / math.sqrt(n * p * (1.0 - p))


class SampleReport(NamedTuple):
    """Empirical-versus-exact comparison of one postselection experiment."""

    model: str
    label: str
    settings: tuple
    requested: int
    accepted: int
    total_draws: int
    cap: int
    shards: int
    seed: int
    rng_algorithm: str
    backend: str
    cells: tuple[dict, ...]
    tv_distance: float
    max_abs_z: float
    z_gate: float
    acceptance: dict
    unconditional: dict
    conditioned_correlation: dict
    passed: bool

    to_json_dict = fields_json(rng_algorithm="rng", passed="pass")


def sample_postselected(
    model: BackwardModel,
    label: str,
    settings: Sequence,
    n: int,
    seed: int,
    *,
    cap_factor: int = DEFAULT_CAP_FACTOR,
    shards: int = 1,
) -> SampleReport:
    """Accept ``n`` runs with the given label and compare against the exact
    conditioned distribution.

    Each outcome cell is gated by a binomial z-score with the exact cell
    probability as the null; the acceptance rate is gated against the exact
    label probability at these settings (negative-binomial null, since
    sampling stops at the n-th acceptance).  The pre-postselection outcome
    product is gated against the product of the wing marginal biases, and
    the postselected product against the exact conditioned correlation.
    ``passed`` requires every gate to clear ``Z_GATE``.
    """
    checked = []
    for name, value in (("n", n), ("seed", seed), ("shards", shards), ("cap_factor", cap_factor)):
        try:
            checked.append(operator.index(value))
        except TypeError:
            raise TypeError(f"{name} must be an integer, got {value!r}") from None
    n, seed, shards, cap_factor = checked
    if n <= 0:
        raise ValueError("need a positive number of postselected runs")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if cap_factor < 1:
        raise ValueError("cap_factor must be >= 1")
    settings = model.check_settings(settings)
    if label not in model.lam.labels:
        raise ValueError(f"unknown label {label!r}")
    target_idx = model.lam.labels.index(label)

    tab = model.tabulate([settings])
    tables = _sampling_tables(model, tab.K)
    # shards beyond n would get no runs, so only min(shards, n) quotas exist
    quotas = [n // shards + (i < n % shards) for i in range(min(shards, n))]
    caps = [cap_factor * q for q in quotas]

    # The exact reference is one row of the joint of the sampled tensor, built
    # before any draw; a label of probability zero stops at 0 draws.
    _, M = tab.joint
    if M[0][target_idx] == 0:
        raise AcceptanceCapError(label, 0, n, 0, sum(caps))
    p_label = float(M[0][target_idx])
    exact = tab.conditioned(label)[0]

    def shard(i):
        # a single shard draws from the root stream, several from its children
        rng = make_rng(seed, None if len(quotas) == 1 else i)
        return _shard_postselect(model, tables, target_idx, quotas[i], caps[i], rng)

    workers = _worker_count(len(quotas))
    if workers == 1:
        shard_results = [shard(i) for i in range(len(quotas))]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only for a pool: it loads logging

        with ThreadPoolExecutor(max_workers=workers) as pool:
            shard_results = list(pool.map(shard, range(len(quotas))))

    counts, _, total, uncond_sum = map(sum, zip(*shard_results))

    combos = tables[1]
    cells = [
        {
            "assignment": combo,
            "exact_p": float(p),
            "empirical_p": count / n,
            "count": count,
            "z": _cell_z(count, n, float(p)),
        }
        for combo, p, count in zip(combos, exact, counts.tolist())
    ]
    max_abs_z = max(abs(cell["z"]) for cell in cells)

    # Acceptance rate: total draws to reach n acceptances is negative
    # binomial, so gate (p*total - n) / sqrt(n*(1-p)).
    if 0.0 < p_label < 1.0:
        z_acc = (p_label * total - n) / math.sqrt(n * (1.0 - p_label))
    else:
        z_acc = 0.0 if total * p_label == n else math.inf
    acceptance = {
        "observed_rate": n / total,
        "expected_rate": p_label,
        "z": z_acc,
    }

    # Pre-postselection product of the first two wings; exact value is the
    # product of the marginal biases because outcomes are drawn independently.
    bias = [float(2 * w.p_plus - 1) for w in model.wings[:2]]
    c0 = bias[0] * bias[1]
    mean_uncond = uncond_sum / total
    z_uncond = _correlation_z(mean_uncond, c0, total)
    unconditional = {
        "pair": [model.wings[0].outcome_name, model.wings[1].outcome_name],
        "runs": total,
        "correlation": mean_uncond,
        "exact": c0,
        "z": z_uncond,
    }

    e_exact = float(sum(c[0] * c[1] * p for c, p in zip(combos, exact)))
    e_emp = float(sum(c[0] * c[1] * k for c, k in zip(combos, counts.tolist()))) / n
    z_cond = _correlation_z(e_emp, e_exact, n)
    conditioned = {
        "pair": [model.wings[0].outcome_name, model.wings[1].outcome_name],
        "empirical": e_emp,
        "exact": e_exact,
        "z": z_cond,
    }

    gates = [max_abs_z, abs(z_acc), abs(z_uncond), abs(z_cond)]
    passed = all(g <= Z_GATE for g in gates)

    return SampleReport(
        model=model.name,
        label=label,
        settings=settings,
        requested=n,
        accepted=n,
        total_draws=total,
        cap=sum(caps),
        shards=len(quotas),
        seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        backend=model.backend,
        cells=tuple(cells),
        tv_distance=sum(abs(e - float(p)) for e, p in zip(
            _normalized([(counts / n).tolist()], FLOAT)[0], exact)) / 2,
        max_abs_z=max_abs_z,
        z_gate=Z_GATE,
        acceptance=acceptance,
        unconditional=unconditional,
        conditioned_correlation=conditioned,
        passed=passed,
    )
