"""Exact finite discrete probability tables.

Joint distributions over named variables with small finite domains: the
one-point tables that ``BackwardModel.assemble_joint``, ``lambda_marginal``
and ``condition_on_lambda`` return, and the operations on them.  A
table is dense: an array with one axis per variable, indexed by domain
position, so every assignment of the Cartesian product has an entry and a
zero entry means probability zero.  Two numeric backends share one code
path: exact rational arithmetic (an ``object`` array of
``fractions.Fraction``) for models whose probabilities are rational, and
float64 for models parameterized by continuous measurement angles.  A
single table never mixes backends.

Every total -- a normalization, a marginal, the mass of a condition, a
total-variation distance -- is a left-to-right sum in canonical assignment
order, so the float results do not depend on how a table was built.  The
model checks in :mod:`retrobell.backward` normalize through the same
normalizer, over the rows (:func:`_rows`) of tables in the one form :func:`_form`
picks, nested tuples or a float64 array: a rational model's checks never load
numpy, nor do a float model's at up to ``TUPLE_POINTS`` points.

Everything here is immutable after construction and every operation returns
a fresh table, so values may be shared freely across threads.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .reports import FLOAT_TOL  # noqa: F401 (a public name of this module)

if TYPE_CHECKING:
    import numpy as np

RATIONAL = "rational"
FLOAT = "float"

Prob = Fraction | float


class DistributionError(ValueError):
    """Base class for probability-table contract violations."""


class ConstructionError(DistributionError):
    """Raised when the given weights cannot form a probability distribution."""


class VariableMismatchError(DistributionError):
    """Raised when an operation references unknown or incompatible variables."""


class NullEvidenceError(DistributionError):
    """Raised when conditioning on an event of probability zero."""


@dataclass(frozen=True)
class Variable:
    """A named discrete variable with a fixed, ordered domain.

    The domain ordering is canonical for the lifetime of any model using the
    variable; it defines assignment iteration order.
    """

    name: str
    domain: tuple

    def __post_init__(self):
        if not isinstance(self.domain, tuple):
            object.__setattr__(self, "domain", tuple(self.domain))
        if not self.name:
            raise ConstructionError("variable name must be non-empty")
        if len(self.domain) == 0:
            raise ConstructionError(f"variable {self.name!r} has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise ConstructionError(f"variable {self.name!r} has duplicate domain values")


class Joint:
    """Normalized joint distribution over an ordered tuple of variables.

    Build tables with :func:`make_joint`, which validates and normalizes raw
    weights; the constructor takes an already normalized array.  The array
    has one axis per variable, in the order of ``variables``, indexed by
    domain position: float64, or ``object`` holding Fractions on the
    rational backend.  Read it through ``items()``.
    """

    __slots__ = ("variables", "backend", "_table")

    def __init__(self, variables: tuple[Variable, ...], table: np.ndarray, backend: str):
        self.variables = variables
        self.backend = backend
        self._table = table

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def assignments(self) -> Iterator[tuple]:
        """All assignments in the full Cartesian product, canonical order."""
        return itertools.product(*(v.domain for v in self.variables))

    def items(self) -> Iterator[tuple[tuple, Prob]]:
        """Nonzero (assignment, probability) pairs in canonical order."""
        entries = zip(self.assignments(), self._table.ravel().tolist())
        return ((a, p) for a, p in entries if p)


def _check_variables(variables: Iterable[Variable]) -> tuple[Variable, ...]:
    vs = tuple(variables)
    if not vs:
        raise ConstructionError("a joint needs at least one variable")
    names = [v.name for v in vs]
    if len(set(names)) != len(names):
        raise ConstructionError(f"duplicate variable names: {names}")
    return vs


def _running_sum(x: np.ndarray, axis: int | None = None):
    """Sum left to right from 0 in canonical order (``np.sum`` adds pairwise):
    along ``axis``, or over every entry when ``axis`` is None."""
    if axis is None:
        return sum(x.ravel().tolist())
    return sum(x.take(i, axis) for i in range(x.shape[axis]))


def _normalized(W, backend: str):
    """Each row of ``W`` divided by its total: the one normalizer.

    ``W`` is rows (:func:`_rows`) of weights, finite and non-negative, and exact
    (never float) on the rational backend; each comes back as a tuple (of Fractions
    if rational).  A row whose weights sum to zero anywhere cannot be normalized.
    """
    if backend == RATIONAL:
        if any(isinstance(w, float) or w < 0 for row in W for w in row):
            raise ConstructionError("rational weights must be non-negative and exact")
        W = [[Fraction(w) for w in row] for row in W]
    elif not _all((w >= 0) & (w < math.inf) for row in W for w in row):
        raise ConstructionError("weights must be finite and non-negative")
    total = [sum(row) for row in W]
    if not _all(t != 0 for t in total):  # no total is negative
        raise ConstructionError("weights sum to zero; nothing to normalize")
    return tuple(tuple(w / t for w in row) for row, t in zip(W, total))


#: The most points a float table holds as nested tuples, read per call: up to 400
#: (grid 20) a fresh ``verify`` of bell ran faster than loading numpy for arrays.
TUPLE_POINTS = 400


def _form(X, backend: str):
    """``X[point]...`` in its one form: nested tuples of exact entries (rational
    backend) or of floats (up to ``TUPLE_POINTS`` points), else a float64 array."""
    if backend == FLOAT and len(X) > TUPLE_POINTS:
        import numpy as np

        return np.asarray(X, dtype=float)

    def nested(x):
        x = x.tolist() if hasattr(x, "tolist") else x
        if isinstance(x, (list, tuple)):
            return tuple(map(nested, x))
        if backend == RATIONAL and not isinstance(x, numbers.Rational):
            raise ConstructionError(f"rational tables take exact entries, got {x!r}")
        return x if backend == RATIONAL else float(x)

    return nested(X)


def _rows(X):
    """The rows of a table ``X[point]...``, over which a formula is written once: a row
    of numbers per point of nested tuples, or one row of float64 columns for an array.
    ``+ - * / abs`` and a left-to-right ``sum`` from 0 give the same bits on both."""
    return X if isinstance(X, tuple) else (X.transpose(*range(1, X.ndim), 0),)


def _table(rows):
    """Rows back as a table with points first: a tuple of rows of numbers, or an array."""
    x = rows[0]
    while isinstance(x, (list, tuple)):
        x = x[0]
    if not getattr(x, "ndim", 0):
        return tuple(rows)
    import numpy as np

    return np.moveaxis(np.asarray(rows[0], dtype=float), -1, 0)


def _point_major(rows) -> list:
    """The entries of ``rows``, each row a flat sequence, as one list point by point."""
    X = _table(rows)
    return [x for row in X for x in row] if isinstance(X, tuple) else X.ravel().tolist()


def _all(tests) -> bool:
    """Whether every test holds, each a bool or a column of bools."""
    return all(t.all() if hasattr(t, "all") else t for t in tests)


def _top(a, b):
    """``np.maximum`` of numbers or columns: NaN if either is, else the larger (or a)."""
    if getattr(a, "ndim", 0) or getattr(b, "ndim", 0):
        import numpy as np

        return np.maximum(a, b)
    return a if a >= b or a != a else b


def make_joint(
    variables: Iterable[Variable],
    weights: Mapping[tuple, int | Fraction | float],
    backend: str,
) -> Joint:
    """Build a normalized joint table on ``backend`` from non-negative weights.

    Weights are scattered into a dense table (absent assignments weigh zero)
    and divided by their total, taken in canonical order; the rational backend
    takes exact weights only.

    Raises :class:`ConstructionError` for negative, non-finite, or all-zero
    weights, and for assignments outside the variables' domains.
    """
    vs = _check_variables(variables)
    if backend not in (RATIONAL, FLOAT):
        raise ConstructionError(f"unknown backend {backend!r}")

    import numpy as np

    shape = tuple(len(v.domain) for v in vs)
    W = np.zeros(shape) if backend == FLOAT else np.full(shape, 0, dtype=object)
    for key, w in weights.items():
        key = tuple(key)
        if len(key) != len(vs):
            raise ConstructionError(f"assignment {key} has wrong arity (want {len(vs)})")
        for value, v in zip(key, vs):
            if value not in v.domain:
                raise ConstructionError(f"value {value!r} not in domain of {v.name!r}")
        W[tuple(v.domain.index(value) for value, v in zip(key, vs))] = w
    table = np.array(_normalized(W.reshape(1, -1), backend)[0], dtype=W.dtype)
    return Joint(vs, table.reshape(shape), backend)


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
    kept = j._table.transpose(idx + [i for i in range(len(j.variables)) if i not in idx])
    table = _running_sum(kept.reshape(kept.shape[:len(idx)] + (-1,)), axis=-1)
    return Joint(tuple(j.variables[i] for i in idx), table, j.backend)


def condition(j: Joint, evidence: Mapping[str, object]) -> Joint:
    """Condition on a partial assignment and renormalize.

    Returns a joint over the variables not mentioned in ``evidence``; when
    the evidence pins every variable that is the point mass over no
    variables.  If the evidence slice has probability zero the operation
    raises :class:`NullEvidenceError`, a distinct catchable error (never a
    silent NaN).
    """
    name_to_pos = {v.name: i for i, v in enumerate(j.variables)}
    at = [slice(None)] * len(j.variables)
    for name, value in evidence.items():
        if name not in name_to_pos:
            raise VariableMismatchError(f"unknown evidence variable {name!r}")
        var = j.variables[name_to_pos[name]]
        if value not in var.domain:
            raise VariableMismatchError(f"value {value!r} not in domain of {name!r}")
        at[name_to_pos[name]] = var.domain.index(value)

    import numpy as np

    sliced = j._table[tuple(at) + (...,)]
    mass = _running_sum(sliced)
    if mass == 0:
        raise NullEvidenceError(f"evidence {dict(evidence)} has probability zero")
    rest = tuple(v for v in j.variables if v.name not in evidence)
    # a 0-d quotient is a scalar; the table stays an array
    return Joint(rest, np.asarray(sliced / mass), j.backend)


def tv_distance(j1: Joint, j2: Joint) -> Prob:
    """Total-variation distance: half the sum of absolute entry differences.

    The joints must range over the same variables (names, domains, and
    order).  Backends may differ; a mixed comparison yields a float.
    """
    if j1.variables != j2.variables:
        raise VariableMismatchError(
            f"variable spaces differ: {j1.names} vs {j2.names}"
        )
    return _running_sum(abs(j1._table - j2._table)) / 2

