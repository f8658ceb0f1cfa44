"""Backward-conditional collider models.

A model here factorizes the joint distribution of outcomes and a hidden
label as

    P(a_1, ..., a_w, lambda | settings)
        = P(a_1 | setting_1) * ... * P(a_w | setting_w)
          * P(lambda | a_1, ..., a_w, settings)

i.e. each wing's outcome is drawn from a setting-independent marginal, and
the hidden label is distributed *conditionally on the outcomes and settings*
through a collider kernel.  Unconditionally the outcomes are independent
across wings; conditioning on a particular label value induces the
correlations, which is ordinary collider bias put to work.

Two model properties are checked rather than assumed:

* statistical independence (SI): the label's marginal distribution,
  obtained by summing the kernel against the wing marginals, matches the
  declared prior at every setting combination;
* no-signalling: each wing's outcome distribution, conditional on a label
  value, is unaffected by the other wings' settings.

The stock Bell-pair model satisfies both while violating the per-wing
factorization of the joint conditional (the local-causality witness).  The
signalling counterexample model deliberately satisfies neither: its kernel
pins wing 1's outcome to the sign of wing 2's setting, so conditioning on
its label lets a remote setting choose a local outcome.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .dist import (
    FLOAT,
    FLOAT_TOL,
    RATIONAL,
    ConstructionError,
    Joint,
    NullEvidenceError,
    Prob,
    Variable,
    _normalized,
    _running_sum,
    make_joint,  # bench/tracing.py counts make_joint calls through this name
)
from .quantum import OUTCOMES, _check_angle
from .quantum import bell_prob  # bench/tracing.py counts bell_prob calls through this name
from .reports import CheckReport, WitnessReport

ANGLE = "angle"
BINARY = "binary"

#: Name of the hidden-label variable in every assembled joint.
LAMBDA = "lambda"

BELL_LABELS = ("lambda1", "lambda2", "lambda3", "lambda4")


def sign_of(x) -> int:
    """Sign with the convention sign(0) = +1."""
    return 1 if x >= 0 else -1


@dataclass(frozen=True)
class Wing:
    """One measurement wing: a setting slot plus an outcome marginal.

    ``p_plus`` is P(outcome = +1 | setting); the marginal is setting-
    independent by construction.  ``setting_kind`` is either a continuous
    angle in radians or a binary axis choice in {0, 1}.
    """

    outcome_name: str
    setting_name: str
    setting_kind: str
    p_plus: Prob = Fraction(1, 2)

    def __post_init__(self):
        if self.setting_kind not in (ANGLE, BINARY):
            raise ConstructionError(f"unknown setting kind {self.setting_kind!r}")
        if not 0 <= self.p_plus <= 1:
            raise ConstructionError(f"wing marginal {self.p_plus!r} outside [0, 1]")

    def marginal(self, outcome: int) -> Prob:
        return self.p_plus if outcome == 1 else 1 - self.p_plus

    def check_setting(self, value):
        if self.setting_kind == BINARY:
            if value not in (0, 1):
                raise ConstructionError(
                    f"{self.setting_name} must be 0 or 1, got {value!r}"
                )
            return int(value)
        value = float(value)
        if not math.isfinite(value):
            raise ConstructionError(f"{self.setting_name} must be finite")
        return value


@dataclass(frozen=True)
class LambdaSpace:
    """Ordered hidden-label values with a strictly positive prior."""

    labels: tuple[str, ...]
    priors: tuple[Prob, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.priors):
            raise ConstructionError("labels and priors must align")
        if len(set(self.labels)) != len(self.labels):
            raise ConstructionError("duplicate lambda labels")
        for label, p in zip(self.labels, self.priors):
            if p <= 0:
                raise ConstructionError(
                    f"prior of {label!r} must be positive (zero-prior labels "
                    "make conditioning ill-defined)"
                )
        total = sum(self.priors)
        if isinstance(total, Fraction):
            if total != 1:
                raise ConstructionError(f"priors sum to {total}, not 1")
        elif not abs(total - 1.0) <= FLOAT_TOL:  # a NaN prior fails this too
            raise ConstructionError(f"priors sum to {total!r}, not 1")

    def prior(self, label: str) -> Prob:
        return self.priors[self.labels.index(label)]


@dataclass(frozen=True)
class ColliderKernel:
    """The conditional distribution of the label given outcomes and settings.

    ``table(points)[point, cell, label]`` is the kernel at checked setting
    tuples, cells in canonical order and labels in ``labels`` order.  For
    labels constructed as a normalization constant times a target outcome
    distribution, ``normalization`` records that constant.
    """

    labels: tuple[str, ...]
    table: Callable[[list[tuple]], np.ndarray]
    normalization: Mapping[str, Prob] = field(default_factory=dict)

    def probability(self, outcomes: tuple, settings: tuple, label: str) -> Prob:
        """One entry of the one-point table, as a Python float or Fraction.

        The checks read whole tables and never call this; bench/tracing.py
        counts its calls as kernel evaluations.
        """
        if label not in self.labels:
            raise ConstructionError(f"unknown lambda label {label!r}")
        if len(outcomes) != len(settings):
            raise ConstructionError(f"{len(outcomes)} outcomes for {len(settings)} settings")
        cell = list(itertools.product(OUTCOMES, repeat=len(outcomes))).index(tuple(outcomes))
        value = self.table([tuple(settings)])[0][cell][self.labels.index(label)]
        return value.item() if isinstance(value, np.generic) else value


def entry_table(
    func: Callable[[tuple, tuple, str], Prob], columns: Sequence[str]
) -> Callable[[list[tuple]], np.ndarray]:
    """A table from a per-entry function, called once per entry:
    ``table(points)[point, cell, column]`` is ``func(cell, settings, column)``."""

    def table(points: list[tuple]) -> np.ndarray:
        cells = list(itertools.product(OUTCOMES, repeat=len(points[0])))
        return np.array([[[func(cell, settings, column) for column in columns]
                          for cell in cells] for settings in points], dtype=object)

    return table


@dataclass(frozen=True, eq=False)
class Tabulation(Sequence):
    """A model's grid checked (``points``) and kernel tabulated (``K``) by ``tabulate``,
    and the tables derived from them: ``joint``, built on first use, and ``conditioned``.
    A sequence of the checked points, it stands in for the grid anywhere."""

    model: BackwardModel
    points: list[tuple]
    K: np.ndarray

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]

    @cached_property
    def joint(self) -> tuple[np.ndarray, np.ndarray]:
        """``(T, M)``: the joint ``T[point, cell, label]`` and its marginal ``M[point, label]``."""
        base = np.array(self.model._outcome_weights(), dtype=self.K.dtype)[:, None]
        W = self.K * base
        # zero weights and zero-marginal cells are dropped unchecked
        T = _normalized(np.where((base != 0) & (W != 0), W, 0), self.model.backend)
        return T, _running_sum(T, axis=1)

    def conditioned(self, label: str) -> np.ndarray:
        """P(cell | settings, label) at every point, the label-conditioned outcome table."""
        T, M = self.joint
        labels = self.model.lam.labels
        if label not in labels:
            raise ConstructionError(f"unknown lambda label {label!r}")
        at = labels.index(label)
        if (M[:, at] == 0).any():
            raise NullEvidenceError(f"label {label!r} has probability zero on the grid")
        return T[:, :, at] / M[:, at, None]


@dataclass(frozen=True)
class BackwardModel:
    """An immutable backward-conditional model over two or three wings.

    ``quantum_targets`` names the labels that have a closed-form outcome
    distribution, and ``target_table(points)[point, cell, target]`` gives
    those distributions in that order, as ``ColliderKernel.table``; the
    recovery check compares the label-conditioned model against them.
    """

    name: str
    wings: tuple[Wing, ...]
    lam: LambdaSpace
    kernel: ColliderKernel
    backend: str
    quantum_targets: tuple[str, ...] = ()
    target_table: Callable[[list[tuple]], np.ndarray] | None = None

    def __post_init__(self):
        if not 2 <= len(self.wings) <= 3:
            raise ConstructionError("models have two or three wings")
        if self.kernel.labels != self.lam.labels:
            raise ConstructionError("kernel and lambda space disagree on labels")
        if self.backend not in (RATIONAL, FLOAT):
            raise ConstructionError(f"unknown backend {self.backend!r}")
        if self.quantum_targets and self.target_table is None:
            raise ConstructionError("quantum targets need a target table")

    # -- structure ---------------------------------------------------------

    @property
    def tolerance(self) -> Prob:
        return Fraction(0) if self.backend == RATIONAL else FLOAT_TOL

    def outcome_variables(self) -> tuple[Variable, ...]:
        return tuple(Variable(w.outcome_name, OUTCOMES) for w in self.wings)

    def lambda_variable(self) -> Variable:
        return Variable(LAMBDA, self.lam.labels)

    def check_settings(self, settings: Sequence) -> tuple:
        settings = tuple(settings)
        if len(settings) != len(self.wings):
            raise ConstructionError(
                f"{self.name} takes {len(self.wings)} settings, got {len(settings)}"
            )
        return tuple(w.check_setting(s) for w, s in zip(self.wings, settings))

    def _cells(self) -> list[tuple]:
        """Outcome combos in canonical order."""
        return list(itertools.product(OUTCOMES, repeat=len(self.wings)))

    def _outcome_weights(self) -> list[Prob]:
        """P(cell) per canonical cell: the product of the wing marginals."""
        return [math.prod(w.marginal(o) for w, o in zip(self.wings, c)) for c in self._cells()]

    # -- assembly and conditioning ------------------------------------------

    def assemble_joint(self, settings: Sequence) -> Joint:
        """The full joint over (outcomes..., lambda) at fixed settings.

        Entry weights are the product of the wing marginals and the collider
        kernel, per the model factorization: the one-point
        :attr:`Tabulation.joint`.
        """
        T, _ = self.tabulate([settings]).joint
        variables = self.outcome_variables() + (self.lambda_variable(),)
        return Joint(variables, T[0].reshape([len(v.domain) for v in variables]), self.backend)

    def lambda_marginal(self, settings: Sequence) -> Joint:
        """P(lambda | settings): outcomes summed out of the one-point joint."""
        _, M = self.tabulate([settings]).joint
        return Joint((self.lambda_variable(),), M[0], self.backend)

    def condition_on_lambda(self, label: str, settings: Sequence) -> Joint:
        """P(outcomes | settings, label): the postselected outcome table.

        Raises the conditioning-on-null error when the label has zero
        probability at these settings.
        """
        P = self.tabulate([settings]).conditioned(label)[0]
        variables = self.outcome_variables()
        return Joint(variables, P.reshape([len(v.domain) for v in variables]), self.backend)

    # -- checked properties --------------------------------------------------
    # Each check reads one :class:`Tabulation`, which checks may share, and
    # reduces it with the normalizer and the left-to-right sums of ``dist``, so
    # floats match the single-point tables at every point.

    def tabulate(self, settings_grid: Iterable[Sequence]) -> Tabulation:
        """The grid checked point by point and its kernel ``K[point, cell, label]`` filled
        once for any number of checks; this model's own tabulation comes back as is.

        Cells are the outcome combos in canonical order.  The dtype is float64,
        or ``object`` holding the kernel's own values on the rational backend.
        """
        if isinstance(settings_grid, Tabulation) and settings_grid.model is self:
            return settings_grid
        # each point is read once and checked in grid order
        points = [self.check_settings(s) for s in settings_grid]
        if not points:
            raise ConstructionError("empty settings grid")
        K = self._fill(points, self.kernel.table, len(self.lam.labels))
        return Tabulation(self, points, K)

    def _fill(self, points: list[tuple], table, width: int) -> np.ndarray:
        """``table(points)`` as ``X[point, cell]`` of ``width`` values, in the
        backend's dtype."""
        dtype = object if self.backend == RATIONAL else float
        shape = (len(points), 2 ** len(self.wings), width)
        X = np.asarray(table(points), dtype=dtype)
        if X.shape != shape:
            raise ConstructionError(f"batched table has shape {X.shape}, not {shape}")
        return X

    def _sweep(self, check: str, devs, describe: Callable[[int], dict]) -> CheckReport:
        """Report the first strict maximum of ``devs``, flattened in sweep order.

        ``describe(i)`` gives the worst case at deviation ``i``; there is none
        when no deviation exceeds zero.  The first NaN deviation is the worst
        case, and it fails the check.
        """
        max_dev: Prob = Fraction(0) if self.backend == RATIONAL else 0.0
        worst = None
        for i, dev in enumerate(np.ravel(devs).tolist()):
            if dev != dev:
                max_dev, worst = dev, i
                break
            if dev > max_dev:
                max_dev, worst = dev, i
        tol = self.tolerance
        worst_case = None if worst is None else describe(worst)
        return CheckReport(check, max_dev <= tol, max_dev, worst_case, tol, self.backend)

    def verify_si(self, settings_grid: Iterable[Sequence]) -> CheckReport:
        """Statistical independence: P(lambda | settings) equals the prior.

        The deviation is measured per label at every grid point; the check
        passes when the worst deviation is within the backend tolerance.
        """
        tab = self.tabulate(settings_grid)
        _, M = tab.joint
        labels = self.lam.labels
        devs = abs(M - np.array(self.lam.priors, dtype=tab.K.dtype))
        return self._sweep("si", devs, lambda i: {
            "settings": tab.points[i // len(labels)], "label": labels[i % len(labels)]})

    def verify_no_signalling(
        self, label: str, settings_grid: Iterable[Sequence]
    ) -> CheckReport:
        """No-signalling at a fixed label value.

        For each wing and each value of its local setting on the grid, the
        wing's conditional outcome probabilities are collected across all
        remote-setting variations; the deviation is the spread (max minus
        min) of each such collection.
        """
        return self._no_signalling([label], settings_grid)

    def _no_signalling(
        self, labels: Sequence[str], settings_grid: Iterable[Sequence]
    ) -> CheckReport:
        """No-signalling at every label of ``labels``, from one tabulation: one
        sweep over (label, wing, local setting, outcome) in that order."""
        tab = self.tabulate(settings_grid)
        points = tab.points
        # Grid points per (wing, local setting value), in the order the grid
        # first reaches each; equal setting values share one entry.
        slots: dict[tuple, list[int]] = {}
        for g, settings in enumerate(points):
            for i, local in enumerate(settings):
                slots.setdefault((i, local), []).append(g)
        devs, cases = [], []
        for label in labels:
            cond = tab.conditioned(label)
            wing_marginals = {(i, outcome): self._wing_marginal(cond, i, outcome)
                              for i in range(len(self.wings)) for outcome in OUTCOMES}
            for (i, local), at in slots.items():
                for outcome in OUTCOMES:
                    p = wing_marginals[i, outcome]
                    lo, hi = min(at, key=p.__getitem__), max(at, key=p.__getitem__)
                    devs.append(p[hi] - p[lo])
                    cases.append({
                        "wing": self.wings[i].outcome_name,
                        "local_setting": local,
                        "outcome": outcome,
                        "label": label,
                        "min_probability": p[lo],
                        "max_probability": p[hi],
                        "min_at_settings": points[lo],
                        "max_at_settings": points[hi],
                    })
        return self._sweep("no_signalling", devs, cases.__getitem__)

    def _wing_marginal(self, cond: np.ndarray, i: int, outcome: int) -> list[Prob]:
        """P(a_i = outcome | settings, label) at every point of ``cond[point, cell]``:
        a left-to-right sum over wing ``i``'s cells in canonical order."""
        return _running_sum(cond[:, [c[i] == outcome for c in self._cells()]], axis=1).tolist()

    def verify_kernel_normalization(
        self, settings_grid: Iterable[Sequence]
    ) -> CheckReport:
        """Kernel rows sum to one over labels, with every value in [0, 1]."""
        tab = self.tabulate(settings_grid)
        points, K = tab.points, tab.K
        range_excess = np.maximum(-K, K - 1).max(axis=2)
        devs = np.maximum(abs(_running_sum(K, axis=2) - 1), range_excess)
        cells = self._cells()
        return self._sweep("kernel_norm", devs, lambda i: {
            "settings": points[i // len(cells)], "outcomes": cells[i % len(cells)]})

    def verify_recovery(self, settings_grid: Iterable[Sequence]) -> CheckReport:
        """Label-conditioned model equals its closed-form target distribution.

        Measured as total-variation distance per (label, settings) pair; only
        labels with a registered quantum target participate.
        """
        if not self.quantum_targets:
            raise ConstructionError(
                f"{self.name} has no quantum targets to recover"
            )
        tab = self.tabulate(settings_grid)
        points, K = tab.points, tab.K
        labels = self.quantum_targets
        W = self._fill(points, self.target_table, len(labels))
        devs = np.empty((len(points), len(labels)), dtype=K.dtype)
        for t, label in enumerate(labels):
            P = tab.conditioned(label)
            devs[:, t] = _running_sum(abs(P - _normalized(W[:, :, t], self.backend)), axis=1) / 2
        return self._sweep("recovery", devs, lambda i: {
            "settings": points[i // len(labels)], "label": labels[i % len(labels)]})

    def lc_violation_witness(
        self, label: str, settings: Sequence, outcomes: Sequence
    ) -> WitnessReport:
        """Compare the product of wing conditionals against the joint one.

        Local causality would make P(outcomes | settings, label) factorize
        into per-wing conditionals; the witness reports both numbers and
        whether they differ beyond tolerance.
        """
        settings = self.check_settings(settings)
        outcomes = tuple(outcomes)
        cells = self._cells()
        if outcomes not in cells:
            raise ConstructionError(f"outcomes {outcomes!r} are not a cell of {self.name}")
        cond = self.tabulate([settings]).conditioned(label)
        joint_p = cond[0].tolist()[cells.index(outcomes)]
        product: Prob = 1
        for i, outcome in enumerate(outcomes):
            product = product * self._wing_marginal(cond, i, outcome)[0]
        difference = abs(joint_p - product)
        return WitnessReport(
            product_value=product,
            joint_value=joint_p,
            difference=difference,
            violated=difference > self.tolerance,
            tolerance=self.tolerance,
            backend=self.backend,
            label=label,
            settings=settings,
            outcomes=outcomes,
        )


def verify_no_signalling_all(
    model: BackwardModel, settings_grid: Sequence[Sequence]
) -> CheckReport:
    """No-signalling aggregated over every label of the model."""
    return model._no_signalling(model.lam.labels, settings_grid)


# ---------------------------------------------------------------------------
# Settings grids
# ---------------------------------------------------------------------------


def angle_grid(resolution: int = 16, *, centered: bool = False) -> tuple[float, ...]:
    """Evenly spaced angles: [0, 2pi) by default, [-pi, pi) when centered.

    The centered variant matters for models sensitive to the sign of an
    angle; the default never produces a negative setting.
    """
    if resolution < 1:
        raise ValueError("resolution must be positive")
    step = 2.0 * math.pi / resolution
    offset = -math.pi if centered else 0.0
    return tuple(offset + step * k for k in range(resolution))


def settings_grid(
    model: BackwardModel, resolution: int = 16, *, centered: bool = False
) -> list[tuple]:
    """Cartesian grid of setting tuples matched to the model's wing kinds.

    Angle wings contribute ``resolution`` evenly spaced angles; binary wings
    contribute {0, 1}.
    """
    axes = []
    for wing in model.wings:
        if wing.setting_kind == ANGLE:
            axes.append(angle_grid(resolution, centered=centered))
        else:
            axes.append((0, 1))
    return list(itertools.product(*axes))


def default_grid(model: BackwardModel, resolution: int = 16) -> list[tuple]:
    """The grid each model is verified on by default.

    The signalling counterexample gets a sign-centered angle grid: its
    kernel reacts to the sign of wing 2's setting, and a grid confined to
    non-negative angles would never exercise the flip.
    """
    centered = model.name == "counterexample"
    return settings_grid(model, resolution, centered=centered)


# ---------------------------------------------------------------------------
# Stock models
# ---------------------------------------------------------------------------


def collider_model(name: str, wings: tuple[Wing, ...], lam: LambdaSpace, targets: Sequence[str],
                   target_table: Callable[[list[tuple]], np.ndarray], backend: str) -> BackwardModel:
    """A model whose kernel is built from target outcome distributions.

    ``targets`` are the leading labels of ``lam``, and
    ``target_table(points)[point, cell, target]`` their distributions.  Each
    target label's kernel column is its prior over P(cell) times its target,
    so the label marginal is the prior at every setting and conditioning on
    the label recovers the target.  That scale is the label's
    ``normalization``; it needs P(cell) equal for every cell.  One leftover
    label, if any, takes the rest of each kernel row, 1 - sum.
    """
    targets = tuple(targets)
    if lam.labels[: len(targets)] != targets or len(lam.labels) - len(targets) > 1:
        raise ConstructionError("targets must be the leading labels, with at most one left over")
    cells = itertools.product(OUTCOMES, repeat=len(wings))
    weights = {math.prod(w.marginal(o) for w, o in zip(wings, c)) for c in cells}
    if len(weights) != 1:
        raise ConstructionError("a collider of targets needs P(cell) equal for every cell")
    (weight,) = weights
    normalization = {t: lam.prior(t) / weight for t in targets}
    dtype = object if backend == RATIONAL else float
    scale = np.array(list(normalization.values()), dtype=dtype)

    def table(points):
        K = np.asarray(target_table(points), dtype=dtype) * scale
        if len(targets) == len(lam.labels):
            return K
        return np.concatenate([K, 1 - _running_sum(K, axis=2)[:, :, None]], axis=2)

    kernel = ColliderKernel(lam.labels, table, normalization)
    return BackwardModel(name, wings, lam, kernel, backend, targets, target_table)


def _binary_collider(name: str, wings: int, labels: tuple, prob: Callable) -> BackwardModel:
    """A rational collider over ``wings`` binary wings at marginal 1/2.

    The first label, at prior 1/2, recovers ``prob(*cell, *settings)``; the
    second takes the rest of each kernel row.
    """
    half = Fraction(1, 2)
    wing_list = tuple(Wing(f"a{i}", f"alpha{i}", BINARY, half) for i in range(1, wings + 1))
    lam = LambdaSpace(labels, (half, half))
    target = entry_table(lambda cell, settings, _: prob(*cell, *settings), labels[:1])
    return collider_model(name, wing_list, lam, labels[:1], target, RATIONAL)


#: ``a1 * a2`` times the sign ``quantum.bell_expectation`` puts on the cosine, per
#: (outcome pair, state): rows are the pairs (1, 1), (1, -1), (-1, 1),
#: (-1, -1), columns the states 1 to 4.
_BELL_SIGNS = np.outer([1.0, -1.0, -1.0, 1.0], [1.0, -1.0, -1.0, 1.0])


def bell_table(points: Iterable[Sequence[float]]) -> np.ndarray:
    """:func:`bell_prob` over many angle pairs: ``P[point, pair, state - 1]``.

    Outcome pairs run (1, 1), (1, -1), (-1, 1), (-1, -1).  Every entry equals
    the scalar call bit for bit: the two cosines of a point come from
    ``math.cos`` (``np.cos`` may differ from libm in the last ulp), and the
    arithmetic after them is the scalar formula's, with ``a1 * a2`` times the
    cosine's sign exactly +/-1.
    """
    cosines = []
    for alpha1, alpha2 in points:
        alpha1, alpha2 = _check_angle(alpha1), _check_angle(alpha2)
        c_diff, c_sum = math.cos(alpha1 - alpha2), math.cos(alpha1 + alpha2)
        cosines.append((c_diff, c_diff, c_sum, c_sum))
    c = np.array(cosines, dtype=float).reshape(-1, 1, 4)
    return 0.25 * (1.0 + _BELL_SIGNS * c)


def bell_backward_model() -> BackwardModel:
    """The Bell-pair backward model.

    Four labels (one per Bell pair) with uniform prior 1/4, wing marginals
    1/2, and the collider kernel equal to the corresponding pair's outcome
    distribution.  The kernel's normalization constant is 1: the four pair
    distributions already sum to one at every outcome and angle pair, which
    is exactly what makes the label prior setting-independent.
    """
    wings = (
        Wing("a1", "alpha1", ANGLE, 0.5),
        Wing("a2", "alpha2", ANGLE, 0.5),
    )
    lam = LambdaSpace(BELL_LABELS, (0.25, 0.25, 0.25, 0.25))
    # label i is state i + 1, for kernel and target
    return collider_model("bell", wings, lam, BELL_LABELS, bell_table, FLOAT)


COUNTEREXAMPLE_LABELS = ("lambda1", "lambda_bar")


def signalling_counterexample_model() -> BackwardModel:
    """A deliberately broken model: remote settings steer local outcomes.

    The kernel assigns the first label probability 1 exactly when wing 1's
    outcome equals the sign of wing 2's setting (sign(0) = +1), and routes
    the complementary mass to a second label.  Wing 1's marginal is set to
    3/4 rather than the fine-tuned 1/2: with uniform marginals the label
    distribution would come out settings-independent despite the rigged
    kernel, masking the breakage.  As built, P(lambda1 | settings) flips
    between 3/4 and 1/4 with the sign of wing 2's setting (statistical
    independence fails), and conditioning on lambda1 pins wing 1's outcome
    to that sign (no-signalling fails with the maximal deviation of 1).
    """
    wings = (
        Wing("a1", "alpha1", ANGLE, 0.75),
        Wing("a2", "alpha2", ANGLE, 0.5),
    )
    lam = LambdaSpace(COUNTEREXAMPLE_LABELS, (0.5, 0.5))

    def kernel_table(points):
        # wing 1's outcome per canonical cell against sign_of(alpha2);
        # -0.0 >= 0 holds, as sign(0) = +1 needs
        sign2 = np.where(np.array([s[1] for s in points], dtype=float) >= 0, 1, -1)
        pinned = (np.repeat(OUTCOMES, 2) == sign2[:, None]).astype(float)
        return np.stack([pinned, 1.0 - pinned], axis=2)

    return BackwardModel(
        name="counterexample",
        wings=wings,
        lam=lam,
        kernel=ColliderKernel(COUNTEREXAMPLE_LABELS, kernel_table),
        backend=FLOAT,
    )
