"""Frozen sparse reference for the dense probability tables.

This is the dict-based table engine and the per-cell ``assemble_joint`` loop
that ``retrobell.dist`` and ``BackwardModel`` used before tables became
dense arrays, kept as a test oracle.  A table maps full assignment tuples to
probabilities and stores only nonzero entries.  The loop reads each point's
kernel table once, through :func:`kernel_rows`, which applies the rational
backend's exactness rule itself.  Nothing in the package imports this module.
"""

from __future__ import annotations

import itertools
import math
import numbers
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from retrobell.backward import LAMBDA
from retrobell.dist import (
    FLOAT,
    RATIONAL,
    ConstructionError,
    NullEvidenceError,
    Prob,
    Variable,
    VariableMismatchError,
)


class Joint:
    """Normalized joint distribution over an ordered tuple of variables.

    Do not call the constructor directly; use :func:`make_joint`, which
    validates and normalizes raw weights.  The internal table maps full
    assignment tuples (ordered like ``variables``) to probabilities and
    stores only nonzero entries.
    """

    __slots__ = ("variables", "backend", "_table")

    def __init__(self, variables: tuple[Variable, ...], table: dict, backend: str):
        self.variables = variables
        self.backend = backend
        self._table = table

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def assignments(self) -> Iterator[tuple]:
        """All assignments in the full Cartesian product, canonical order."""
        return itertools.product(*(v.domain for v in self.variables))

    def prob(self, assignment: tuple) -> Prob:
        """Probability of a full assignment (zero if absent from the table)."""
        zero = Fraction(0) if self.backend == RATIONAL else 0.0
        return self._table.get(tuple(assignment), zero)

    def items(self) -> Iterator[tuple[tuple, Prob]]:
        """Stored (assignment, probability) pairs in canonical order."""
        return iter(self._table.items())

    def total(self) -> Prob:
        return sum(self._table.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Joint):
            return NotImplemented
        return self.variables == other.variables and self._table == other._table

    def __repr__(self) -> str:
        return f"Joint({[v.name for v in self.variables]}, {len(self._table)} entries, {self.backend})"


def _check_variables(variables: Iterable[Variable]) -> tuple[Variable, ...]:
    vs = tuple(variables)
    if not vs:
        raise ConstructionError("a joint needs at least one variable")
    names = [v.name for v in vs]
    if len(set(names)) != len(names):
        raise ConstructionError(f"duplicate variable names: {names}")
    return vs


def _infer_backend(values) -> str:
    for v in values:
        if isinstance(v, float):
            return FLOAT
    return RATIONAL


def make_joint(
    variables: Iterable[Variable],
    weights: Mapping[tuple, int | Fraction | float],
    backend: str | None = None,
) -> Joint:
    """Build a normalized joint table from non-negative weights.

    Weights are divided by their sum; entries that are exactly zero are
    dropped (absent means probability zero).  The backend is inferred from
    the weight types when not given: any float weight selects the float
    backend, otherwise exact rationals are used.

    Raises :class:`ConstructionError` for negative, non-finite, or all-zero
    weights, and for assignments outside the variables' domains.
    """
    vs = _check_variables(variables)
    if backend is None:
        backend = _infer_backend(weights.values())
    if backend not in (RATIONAL, FLOAT):
        raise ConstructionError(f"unknown backend {backend!r}")

    domains = [set(v.domain) for v in vs]
    checked: dict[tuple, Prob] = {}
    for key, w in weights.items():
        key = tuple(key)
        if len(key) != len(vs):
            raise ConstructionError(f"assignment {key} has wrong arity (want {len(vs)})")
        for value, dom, v in zip(key, domains, vs):
            if value not in dom:
                raise ConstructionError(f"value {value!r} not in domain of {v.name!r}")
        if isinstance(w, float) and not math.isfinite(w):
            raise ConstructionError(f"non-finite weight {w!r} at {key}")
        if w < 0:
            raise ConstructionError(f"negative weight {w!r} at {key}")
        if backend == RATIONAL:
            if isinstance(w, float):
                raise ConstructionError("float weight in rational backend")
            checked[key] = Fraction(w)
        else:
            checked[key] = float(w)

    total = sum(checked.values())
    if total <= 0:
        raise ConstructionError("weights sum to zero; nothing to normalize")

    # Canonical iteration order: walk the full product, keep nonzero entries.
    table: dict[tuple, Prob] = {}
    for assignment in itertools.product(*(v.domain for v in vs)):
        w = checked.get(assignment)
        if w:
            table[assignment] = w / total
    return Joint(vs, table, backend)


def marginalize(j: Joint, keep: Iterable[str]) -> Joint:
    """Sum out every variable not named in ``keep``.

    The kept variables retain their original relative order; total mass is
    preserved.  Unknown names raise :class:`VariableMismatchError`.
    """
    keep_set = set(keep)
    known = set(j.names)
    unknown = keep_set - known
    if unknown:
        raise VariableMismatchError(f"unknown variables in keep: {sorted(unknown)}")
    idx = [i for i, v in enumerate(j.variables) if v.name in keep_set]
    if not idx:
        raise VariableMismatchError("cannot marginalize away every variable")
    new_vars = tuple(j.variables[i] for i in idx)

    acc: dict[tuple, Prob] = {}
    for assignment, p in j.items():
        short = tuple(assignment[i] for i in idx)
        acc[short] = acc.get(short, 0) + p
    table = {}
    for assignment in itertools.product(*(v.domain for v in new_vars)):
        p = acc.get(assignment)
        if p:
            table[assignment] = p
    return Joint(new_vars, table, j.backend)


def condition(j: Joint, evidence: Mapping[str, object]) -> Joint:
    """Condition on a partial assignment and renormalize.

    Returns a joint over the variables not mentioned in ``evidence``.  If the
    evidence slice has probability zero the operation raises
    :class:`NullEvidenceError`, a distinct catchable error (never a silent
    NaN).
    """
    name_to_pos = {v.name: i for i, v in enumerate(j.variables)}
    for name, value in evidence.items():
        if name not in name_to_pos:
            raise VariableMismatchError(f"unknown evidence variable {name!r}")
        var = j.variables[name_to_pos[name]]
        if value not in var.domain:
            raise VariableMismatchError(f"value {value!r} not in domain of {name!r}")

    fixed = {name_to_pos[name]: value for name, value in evidence.items()}
    rest = [i for i in range(len(j.variables)) if i not in fixed]
    new_vars = tuple(j.variables[i] for i in rest)

    sliced: dict[tuple, Prob] = {}
    mass: Prob = 0
    for assignment, p in j.items():
        if all(assignment[i] == v for i, v in fixed.items()):
            short = tuple(assignment[i] for i in rest)
            sliced[short] = sliced.get(short, 0) + p
            mass = mass + p
    if mass == 0:
        raise NullEvidenceError(f"evidence {dict(evidence)} has probability zero")

    if not new_vars:
        # Evidence pinned every variable: degenerate point over no variables.
        one = Fraction(1) if j.backend == RATIONAL else 1.0
        return Joint((), {(): one}, j.backend)
    table = {}
    for assignment in itertools.product(*(v.domain for v in new_vars)):
        p = sliced.get(assignment)
        if p:
            table[assignment] = p / mass
    return Joint(new_vars, table, j.backend)


def tv_distance(j1: Joint, j2: Joint) -> Prob:
    """Total-variation distance: half the sum of absolute entry differences,
    taken left to right over the canonical assignments.

    The joints must range over the same variables (names, domains, and
    order).  Backends may differ; a mixed comparison yields a float.
    """
    if j1.variables != j2.variables:
        raise VariableMismatchError(
            f"variable spaces differ: {j1.names} vs {j2.names}"
        )
    return sum(abs(j1.prob(a) - j2.prob(a)) for a in j1.assignments()) / 2


# ---------------------------------------------------------------------------
# The single-point model API over sparse tables
# ---------------------------------------------------------------------------


def kernel_rows(model, settings) -> list[list]:
    """The kernel at one checked point, ``rows[cell][label]`` with cells in
    canonical order: the model's table read once, as Python numbers.

    On the rational backend every entry must be exact.
    """
    rows = [[k.item() if hasattr(k, "item") else k for k in row]
            for row in model.kernel.table([tuple(settings)])[0]]
    inexact = [k for row in rows for k in row if not isinstance(k, numbers.Rational)]
    if model.backend == RATIONAL and inexact:
        raise ConstructionError(f"rational tables take exact entries, got {inexact[0]!r}")
    return rows


def assemble_joint(model, settings) -> Joint:
    """The full joint over (outcomes..., lambda) at fixed settings.

    Entry weights are the product of the wing marginals and the collider
    kernel, per the model factorization.
    """
    settings = model.check_settings(settings)
    variables = model.outcome_variables() + (model.lambda_variable(),)
    weights: dict[tuple, Prob] = {}
    cells = zip(model._cells(), model._outcome_weights(), kernel_rows(model, settings),
                strict=True)
    for combo, base, row in cells:
        if not base:
            continue
        for label, k in zip(model.lam.labels, row, strict=True):
            w = base * k
            if w:
                weights[combo + (label,)] = w
    return make_joint(variables, weights, backend=model.backend)


def lambda_marginal(model, settings) -> Joint:
    """P(lambda | settings): outcomes summed out of the assembled joint."""
    return marginalize(assemble_joint(model, settings), [LAMBDA])


def condition_on_lambda(model, label: str, settings) -> Joint:
    """P(outcomes | settings, label): the postselected outcome table."""
    if label not in model.lam.labels:
        raise ConstructionError(f"unknown lambda label {label!r}")
    return condition(assemble_joint(model, settings), {LAMBDA: label})
