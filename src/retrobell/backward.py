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

Each check reads one :class:`Tabulation`, which checks may share.  Its tables
take the one form ``dist._form`` picks, nested tuples or a float64 array, and
each check and stock table is one formula over their rows (``dist._rows``).
"""

from __future__ import annotations

import contextlib
import itertools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial, reduce
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .dist import (
    FLOAT,
    FLOAT_TOL,
    RATIONAL,
    ConstructionError,
    Joint,
    NullEvidenceError,
    Prob,
    Variable,
    _all,
    _at,
    _first_worst,
    _form,
    _normalized,
    _overflow_quietly,
    _per_value,
    _point_major,
    _rows,
    _slots,
    _spreads,
    _table,
    _top,
    make_joint,  # bench/tracing.py counts make_joint calls through this name
)
from .quantum import OUTCOMES, angle_grid, bell_expectation, pr_prob
from .quantum import bell_prob  # bench/tracing.py counts bell_prob calls through this name
from .reports import CheckReport

if TYPE_CHECKING:
    import numpy as np

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

    ``table(points)[point][cell][label]`` is the kernel at checked setting
    tuples, cells in canonical order and labels in ``labels`` order: nested
    sequences (of exact values on the rational backend) or an array, which
    ``tabulate`` puts in the one :func:`_form`.  For labels constructed as a
    normalization constant times a target outcome distribution,
    ``normalization`` records that constant.
    """

    labels: tuple[str, ...]
    table: Callable[[list[tuple]], Sequence]
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
        return _at(self.table([tuple(settings)])[0][cell], self.labels.index(label))


def entry_table(
    func: Callable[[tuple, tuple, str], Prob], columns: Sequence[str]
) -> Callable[[list[tuple]], tuple]:
    """A table from a per-entry function, called once per entry:
    ``table(points)[point][cell][column]`` is ``func(cell, settings, column)``,
    in nested tuples."""

    def table(points: list[tuple]) -> tuple:
        return tuple(tuple(tuple(func(cell, settings, column) for column in columns)
                           for cell in itertools.product(OUTCOMES, repeat=len(settings)))
                     for settings in points)

    return table


@dataclass(frozen=True, eq=False)
class Tabulation(Sequence):
    """A model's grid checked (``points``) and kernel tabulated (``K``) by ``tabulate``, with
    the target table ``Q`` a collider's kernel was built from (else None: recovery fills it),
    and the two tables the checks read: ``marginal``, kept once built, and ``conditioned``,
    built from ``K`` on each request, so it keeps no other table of ``K``'s size.  A
    sequence of the checked points, it stands in for the grid anywhere.  Each table is in
    ``K``'s form (:func:`_form`), one formula over the rows of the tables it reads."""

    model: BackwardModel
    points: list[tuple]
    K: np.ndarray | tuple
    Q: np.ndarray | tuple | None = None

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def _weights(self, labels: slice = slice(None)):
        """The joint's weights of ``labels``, per row (:func:`_rows`) flat, cell by cell: kernel
        entry k times its cell's weight b as ``0 + k * b`` (0 + w turns -0.0 into 0.0), and 0 in
        a zero-marginal cell (k ** 0 is 1, NaN too)."""
        base = self.model._outcome_weights()
        return [[0 + k * b if b else k ** 0 * b for row, b in zip(cells, base) for k in row[labels]]
                for cells in _rows(self.K)]

    @cached_property
    def marginal(self) -> tuple:
        """``(M, total)``: the joint's label marginal ``M[point][label]``, each label's joint
        entries ``w / total`` summed over cells, and per row (:func:`_rows`) the weight total
        the joint divides by.  The joint itself is never built whole."""
        W, n = self._weights(), len(self.model.lam.labels)
        _, total = _normalized(W, self.model.backend)  # its rows are lazy: none is read
        M = [tuple(sum(w / t for w in row[at::n]) for at in range(n)) for row, t in zip(W, total)]
        return _table(M), total

    def conditioned(self, label: str):
        """P(cell | settings, label) at every point, the label-conditioned outcome
        table ``[point][cell]``: the label's joint entries (:meth:`_weights` over their
        total) over its marginal."""
        M, total = self.marginal
        labels = self.model.lam.labels
        if label not in labels:
            raise ConstructionError(f"unknown lambda label {label!r}")
        at = labels.index(label)
        rows = list(zip(self._weights(slice(at, at + 1)), total, _rows(M)))
        if not _all(m[at] != 0 for _, _, m in rows):
            raise NullEvidenceError(f"label {label!r} has probability zero on the grid")
        return _table([tuple(w / t / m[at] for w in row) for row, t, m in rows])


def _point_case(points: list[tuple], cases: list[dict]) -> Callable[[int], dict]:
    """The worst case of flat index ``i`` in a sweep over ``points`` with ``cases`` at each
    point: ``points[i // n]`` as its settings and ``cases[i % n]`` (n cases)."""
    return lambda i: {"settings": points[i // len(cases)], **cases[i % len(cases)]}


@dataclass(frozen=True)
class BackwardModel:
    """An immutable backward-conditional model over two or three wings.

    ``quantum_targets`` names the labels that have a closed-form outcome
    distribution, and ``target_table(points)[point][cell][target]`` gives
    those distributions in that order, as ``ColliderKernel.table``; the
    recovery check compares the label-conditioned model against them.
    """

    name: str
    wings: tuple[Wing, ...]
    lam: LambdaSpace
    kernel: ColliderKernel
    backend: str
    quantum_targets: tuple[str, ...] = ()
    target_table: Callable[[list[tuple]], Sequence] | None = None

    def __post_init__(self):
        if not 2 <= len(self.wings) <= 3:
            raise ConstructionError("models have two or three wings")
        if self.kernel.labels != self.lam.labels:
            raise ConstructionError("kernel and lambda space disagree on labels")
        if self.backend not in (RATIONAL, FLOAT):
            raise ConstructionError(f"unknown backend {self.backend!r}")
        if self.backend == RATIONAL and not all(isinstance(p, numbers.Rational) for p in (
                *self.lam.priors, *(w.p_plus for w in self.wings))):
            raise ConstructionError("the rational backend takes exact priors and wing marginals")
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
        """P(cell) per canonical cell, the wing marginals' product: a float if FLOAT."""
        weights = [math.prod(w.marginal(o) for w, o in zip(self.wings, c)) for c in self._cells()]
        return [float(w) for w in weights] if self.backend == FLOAT else weights

    # -- assembly and conditioning ------------------------------------------

    def assemble_joint(self, settings: Sequence) -> Joint:
        """The full joint over (outcomes..., lambda) at fixed settings.

        Entry weights are the product of the wing marginals and the collider
        kernel, per the model factorization: the one point's
        :meth:`Tabulation._weights` over their total, cell by cell.
        """
        rows, _ = _normalized(self.tabulate([settings])._weights(), self.backend)
        return Joint(self.outcome_variables() + (self.lambda_variable(),),
                     tuple(_point_major([list(rows[0])])), self.backend)

    def lambda_marginal(self, settings: Sequence) -> Joint:
        """P(lambda | settings): outcomes summed out of the one-point joint."""
        M, _ = self.tabulate([settings]).marginal
        return Joint((self.lambda_variable(),), tuple(M[0]), self.backend)

    def condition_on_lambda(self, label: str, settings: Sequence) -> Joint:
        """P(outcomes | settings, label): the postselected outcome table.

        Raises the conditioning-on-null error when the label has zero
        probability at these settings.
        """
        P = self.tabulate([settings]).conditioned(label)[0]
        return Joint(self.outcome_variables(), tuple(P), self.backend)

    # -- checked properties --------------------------------------------------

    def tabulate(self, settings_grid: Iterable[Sequence]) -> Tabulation:
        """The grid checked and its kernel ``K[point][cell][label]`` filled once (a collider's
        from its target table, filled once too) for any number of checks; this model's own
        tabulation comes back as is.

        Cells are the outcome combos in canonical order; ``K`` is in the form of :func:`_form`.
        """
        if isinstance(settings_grid, Tabulation) and settings_grid.model is self:
            return settings_grid
        points = self._checked(list(settings_grid))
        if not points:
            raise ConstructionError("empty settings grid")
        table, Q = self.kernel.table, None
        if getattr(table, "targets", 0) is self.target_table:  # a collider of the target table
            Q = self._fill(points, self.target_table, len(self.quantum_targets))
            table = partial(table, Q=Q)
        return Tabulation(self, points, self._fill(points, table, len(self.lam.labels)), Q)

    def _checked(self, grid: list) -> list[tuple]:
        """``check_settings`` of each point of ``grid``: the grid's own tuples if each wing's
        column is floats (angle) or ints (binary) whose distinct values check to themselves
        (``is``), as every equal value of that type then does, 0.0 and -0.0 alike."""
        kinds = [float if w.setting_kind == ANGLE else int for w in self.wings]
        if set(map(type, grid)) == {tuple} and set(map(len, grid)) == {len(kinds)}:
            with contextlib.suppress(ConstructionError):  # a bad value: found again in grid order
                if all(set(map(type, map(itemgetter(i), grid))) == {kind} and all(
                        w.check_setting(x) is x for x in set(map(itemgetter(i), grid)))
                       for i, (w, kind) in enumerate(zip(self.wings, kinds))):
                    return grid
        return [self.check_settings(s) for s in grid]

    def _fill(self, points: list[tuple], table, width: int):
        """``table(points)`` as ``X[point][cell]`` of ``width`` values, its shape checked,
        in the one form :func:`_form` gives (of exact entries on the rational backend)."""
        shape = (len(points), 2 ** len(self.wings), width)
        X = table(points)
        if hasattr(X, "shape"):
            found = X.shape
        else:
            found, level = (), [X]  # an array's shape: levels of sequences of one length
            while (len(found) <= len(shape) and all(hasattr(x, "__len__") for x in level)
                   and len({len(x) for x in level}) == 1):
                found += (len(level[0]),)
                level = [y for x in level for y in x]
        if found != shape:
            raise ConstructionError(f"batched table has shape {found}, not {shape}")
        return _form(X, self.backend)

    def _sweep(self, check: str, devs, case: Callable[[int], dict]) -> CheckReport:
        """Report the first strict maximum of ``devs``, flat in sweep order (a list or a float64
        array), with worst case ``case(i)``, built for that one index ``i``; none if no
        deviation exceeds zero, and the first NaN if any (which fails the check)."""
        worst = _first_worst(devs)
        zero: Prob = Fraction(0) if self.backend == RATIONAL else 0.0
        max_dev = zero if worst is None else _at(devs, worst)
        tol = self.tolerance
        worst_case = None if worst is None else case(worst)
        return CheckReport(check, max_dev <= tol, max_dev, worst_case, tol, self.backend)

    def verify_si(self, settings_grid: Iterable[Sequence]) -> CheckReport:
        """Statistical independence: P(lambda | settings) equals the prior.

        The deviation is measured per label at every grid point; the check
        passes when the worst deviation is within the backend tolerance.
        """
        tab = self.tabulate(settings_grid)
        M, _ = tab.marginal
        priors = [float(p) for p in self.lam.priors] if self.backend == FLOAT else self.lam.priors
        devs = _point_major([[abs(m - p) for m, p in zip(row, priors)] for row in _rows(M)])
        return self._sweep("si", devs, _point_case(
            tab.points, [{"label": label} for label in self.lam.labels]))

    def verify_no_signalling(
        self, labels: Iterable[str], settings_grid: Iterable[Sequence]
    ) -> CheckReport:
        """No-signalling at every label of ``labels`` (one label is ``[label]``): for each
        label, wing and value of the wing's local setting on the grid, the spread (max
        minus min) of the wing's conditional outcome probabilities across all remote-
        setting variations.  One sweep runs over labels, then the (wing, local setting)
        slots in the order the grid first reaches them (wing order within a point), then
        outcomes; its worst case names the slot's first least and first greatest point."""
        if isinstance(labels, str):
            raise TypeError(f"labels is a sequence of labels: pass [{labels!r}]")
        labels = tuple(labels)
        if not labels:
            raise ConstructionError("no labels to check")
        tab = self.tabulate(settings_grid)
        points = tab.points
        # Grid points per (wing, local setting value): each wing's slots, and all of
        # them in the order the grid first reaches each (wing order within a point).
        slots = _slots(points, self.backend)
        order = sorted((at[0], i, k) for i, wing in enumerate(slots) for k, at in enumerate(wing))
        devs = []
        for label in labels:
            cond = tab.conditioned(label)
            spreads = {(i, outcome): _spreads(self._wing_marginal(cond, i, outcome), wing)
                       for i, wing in enumerate(slots) for outcome in OUTCOMES}
            devs += [spreads[i, outcome][k] for _, i, k in order for outcome in OUTCOMES]

        def case(n: int) -> dict:
            at, n = divmod(n, len(order) * len(OUTCOMES))
            (first, i, k), outcome = order[n // len(OUTCOMES)], OUTCOMES[n % len(OUTCOMES)]
            p = self._wing_marginal(tab.conditioned(labels[at]), i, outcome)
            lo, hi = min(slots[i][k], key=p.__getitem__), max(slots[i][k], key=p.__getitem__)
            return {"wing": self.wings[i].outcome_name, "local_setting": points[first][i],
                    "outcome": outcome, "label": labels[at],
                    "min_probability": _at(p, lo), "max_probability": _at(p, hi),
                    "min_at_settings": points[lo], "max_at_settings": points[hi]}

        return self._sweep("no_signalling", devs, case)

    def _wing_marginal(self, cond, i: int, outcome: int):
        """P(a_i = outcome | settings, label) at every point of ``cond[point][cell]``, flat
        as :func:`_point_major` gives it: a left-to-right sum over wing ``i``'s cells in
        canonical order."""
        mask = [c[i] == outcome for c in self._cells()]
        return _point_major([[sum(p for p, m in zip(row, mask) if m)] for row in _rows(cond)])

    def verify_kernel_normalization(
        self, settings_grid: Iterable[Sequence]
    ) -> CheckReport:
        """Kernel rows sum to one over labels, with every value in [0, 1]."""
        tab = self.tabulate(settings_grid)
        devs = _point_major([[_top(abs(sum(row) - 1), reduce(_top, [_top(-k, k - 1) for k in row]))
                              for row in cells] for cells in _rows(tab.K)])
        return self._sweep("kernel_norm", devs, _point_case(
            tab.points, [{"outcomes": c} for c in self._cells()]))

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
        labels = self.quantum_targets
        W = _rows(self._fill(tab.points, self.target_table, len(labels))
                  if tab.Q is None else tab.Q)
        tv = []  # per label, its distance in every row
        for t, label in enumerate(labels):
            Q, _ = _normalized([[row[t] for row in cells] for cells in W], self.backend)
            tv.append([sum(abs(p - q) for p, q in zip(*rows)) / 2
                       for rows in zip(_rows(tab.conditioned(label)), Q)])
        return self._sweep("recovery", _point_major(list(zip(*tv))),
                           _point_case(tab.points, [{"label": label} for label in labels]))

    def lc_violation_witness(self, label: str, settings: Sequence,
                             outcomes: Sequence) -> CheckReport:
        """Compare the product of wing conditionals against the joint one.

        Local causality would make P(outcomes | settings, label) factorize
        into per-wing conditionals; the "lc_witness" report holds both numbers
        and passes when they differ beyond tolerance.
        """
        settings = self.check_settings(settings)
        outcomes = tuple(outcomes)
        cells = self._cells()
        if outcomes not in cells:
            raise ConstructionError(f"outcomes {outcomes!r} are not a cell of {self.name}")
        cond = self.tabulate([settings]).conditioned(label)
        joint_p = _at(_point_major(_rows(cond)), cells.index(outcomes))
        product = math.prod(_at(self._wing_marginal(cond, i, o), 0) for i, o in enumerate(outcomes))
        difference = abs(joint_p - product)
        return CheckReport("lc_witness", difference > self.tolerance, difference, {
            "label": label, "settings": settings, "outcomes": outcomes,
            "product_of_wing_conditionals": product, "joint_conditional": joint_p,
        }, self.tolerance, self.backend)


def verify_no_signalling_all(
    model: BackwardModel, settings_grid: Sequence[Sequence]
) -> CheckReport:
    """No-signalling aggregated over every label of the model."""
    return model.verify_no_signalling(model.lam.labels, settings_grid)


# ---------------------------------------------------------------------------
# Settings grids
# ---------------------------------------------------------------------------


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
                   target_table: Callable[[list[tuple]], Sequence], backend: str) -> BackwardModel:
    """A model whose kernel is built from target outcome distributions.

    ``targets`` are the leading labels of ``lam``, and
    ``target_table(points)[point][cell][target]`` their distributions.  Each
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
    scale = [float(s) if backend == FLOAT else s for s in normalization.values()]
    rest = len(lam.labels) > len(targets)

    def table(points, Q=None):  # Q: the target table at points, if tabulate filled it
        Q = _form(target_table(points), backend) if Q is None else Q
        if backend == FLOAT and not rest and all(s == 1 for s in scale):
            return Q  # at scale 1 (bell's) the kernel is the target table itself
        K = [[tuple(x * s for x, s in zip(row, scale, strict=True)) for row in cells]
             for cells in _rows(Q)]
        return _table([tuple(row + (1 - sum(row),) if rest else row for row in cells)
                       for cells in K])

    table.targets = target_table  # on the table: a model given another table or targets reads both
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


PR_LABELS = ("lambda_pr", "lambda_bar")


def pr_backward_model() -> BackwardModel:
    """Backward model reproducing the Popescu-Rohrlich box.

    Binary settings, wing marginals 1/2, prior 1/2 on the box label, and a
    deterministic kernel: normalization (1/2)/(1/4) = 2 turns the box's
    1/2-or-0 probabilities into 0/1.
    """
    return _binary_collider("prbox", 2, PR_LABELS, pr_prob)


#: Each entry of :func:`bell_table` among a point's four distinct entries
#: [1/4 (1 + d), 1/4 (1 - d), 1/4 (1 + t), 1/4 (1 - t)], d = cos(alpha1 - alpha2) and
#: t = cos(alpha1 + alpha2): rows are the outcome pairs (1, 1), (1, -1), (-1, 1),
#: (-1, -1), columns the states 1 to 4.
_BELL_ENTRY = ((0, 1, 3, 2), (1, 0, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2))


def bell_table(points: Iterable[Sequence[float]]) -> np.ndarray | tuple:
    """:func:`bell_prob` over many angle pairs: ``P[point][pair][state - 1]``, one formula
    over the rows of the float ``dist._form`` (tuples at up to ``dist.TUPLE_POINTS`` points).

    Outcome pairs run (1, 1), (1, -1), (-1, 1), (-1, -1).  Every entry equals
    the scalar call bit for bit: the two cosines, cos(alpha1 - alpha2) and
    cos(alpha1 + alpha2), are :func:`~retrobell.quantum.bell_expectation`'s
    (``math.cos``, which ``np.cos`` may differ from in the last ulp), taken once per
    point of the tuple form and once per distinct argument of the array form
    (``dist._per_value``), and the arithmetic after them is the scalar formula's, with
    ``a1 * a2`` times the cosine's sign exactly +/-1.  An angle, difference or sum that
    is not finite raises ``bell_expectation``'s error at the first such point.
    """
    points = list(points)
    with _overflow_quietly():
        rows = [(a1 - a2, a1 + a2) for a1, a2 in _rows(_form(points, FLOAT))]
    if not _all((abs(d) < math.inf) & (abs(t) < math.inf) for d, t in rows):
        for alpha1, alpha2 in points:
            bell_expectation(1, float(alpha1), float(alpha2))
            bell_expectation(4, float(alpha1), float(alpha2))
    cosines = [(_per_value(math.cos, d), _per_value(math.cos, t)) for d, t in rows]
    entries = [[0.25 * (1.0 + s * c) for c in dt for s in (1.0, -1.0)] for dt in cosines]
    return _table([tuple(tuple(e[k] for k in pair) for pair in _BELL_ENTRY) for e in entries])


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
        # wing 1's outcome per canonical cell against sign_of(alpha2): k is 1.0
        # where alpha2 >= 0 (-0.0 >= 0 holds, as sign(0) = +1 needs), else 0.0
        return _table([tuple((k, 1.0 - k) if a1 == 1 else (1.0 - k, k) for a1 in (1, 1, -1, -1))
                       for k in ((s[1] >= 0) * 1.0 for s in _rows(_form(points, FLOAT)))])

    return BackwardModel(
        name="counterexample",
        wings=wings,
        lam=lam,
        kernel=ColliderKernel(COUNTEREXAMPLE_LABELS, kernel_table),
        backend=FLOAT,
    )
