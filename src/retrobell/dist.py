"""Exact finite discrete probability tables.

Joint distributions over named variables with small finite domains: the
one-point tables that ``BackwardModel.assemble_joint``, ``lambda_marginal``
and ``condition_on_lambda`` return, and the operations on them.  A
table is dense: a flat tuple of Python numbers, one per assignment of the
Cartesian product in canonical order, so a zero entry means probability
zero.  Two numeric backends share one code path: exact rational arithmetic
(``fractions.Fraction`` entries) for models whose probabilities are
rational, and floats for models parameterized by continuous measurement
angles.  A single table never mixes backends, and none needs numpy.

Every total -- a normalization, a marginal, the mass of a condition, a
total-variation distance -- is a left-to-right sum in canonical assignment
order, so the float results do not depend on how a table was built.  The
model checks in :mod:`retrobell.backward` normalize through the same
normalizer, over the rows (:func:`_rows`) of tables in the one form :func:`_form`
picks, nested tuples or a float64 array: a rational model's checks never load
numpy, nor do a float model's at up to ``TUPLE_POINTS`` points.  The reductions
over a whole grid (a sweep's worst case, the no-signalling slots and their spreads)
live here too, so the array form makes no Python object per entry.

Everything here is immutable after construction and every operation returns
a fresh table, so values may be shared freely across threads.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, truediv
from typing import Iterable, Iterator, Mapping

from .reports import FLOAT_TOL  # noqa: F401 (a public name of this module)

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
    weights; the constructor takes already normalized entries: a tuple with
    one number per assignment, in canonical order, floats or (on the
    rational backend) Fractions.  Read them through ``items()``.
    """

    __slots__ = ("variables", "backend", "_table")

    def __init__(self, variables: tuple[Variable, ...], table: tuple[Prob, ...], backend: str):
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
        return ((a, p) for a, p in zip(self.assignments(), self._table) if p)


def _check_variables(variables: Iterable[Variable]) -> tuple[Variable, ...]:
    vs = tuple(variables)
    if not vs:
        raise ConstructionError("a joint needs at least one variable")
    names = [v.name for v in vs]
    if len(set(names)) != len(names):
        raise ConstructionError(f"duplicate variable names: {names}")
    return vs


def _normalized(W, backend: str):
    """``(rows, total)``: each row of ``W`` divided by its total, the one normalizer, and
    the totals, each a left-to-right sum.

    ``W`` is rows (:func:`_rows`) of weights, finite and non-negative, and exact
    (never float) on the rational backend, where each total is a Fraction.  Each row
    comes back as an iterator that divides as it is read, so a caller that reads only
    the totals builds no row.  A row whose weights sum to zero anywhere cannot be
    normalized.
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
    return [map(truediv, row, itertools.repeat(t)) for row, t in zip(W, total)], total


#: The most points a float table holds as nested tuples, read per call: up to 400
#: (grid 20) a fresh ``verify`` of bell ran faster than loading numpy for arrays.
TUPLE_POINTS = 400


def _arrays(points: int, backend: str) -> bool:
    """Whether tables over ``points`` points on ``backend`` take the array form."""
    return backend == FLOAT and points > TUPLE_POINTS


def _form(X, backend: str):
    """``X[point]...`` in its one form: nested tuples of exact entries (rational
    backend) or of floats (up to ``TUPLE_POINTS`` points), else a float64 array."""
    if _arrays(len(X), backend):
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
    x = rows
    while isinstance(x, (list, tuple)) and x:
        x = x[0]
    if not getattr(x, "ndim", 0):
        return tuple(rows)
    import numpy as np

    return np.moveaxis(np.asarray(rows[0], dtype=float), -1, 0)


def _point_major(rows):
    """The entries of ``rows``, each row a flat sequence, point by point: one list, or
    one flat float64 array.  Read an entry as a Python number with :func:`_at`."""
    X = _table(rows)
    return [x for row in X for x in row] if isinstance(X, tuple) else X.ravel()


def _at(xs, i):
    """``xs[i]`` as a Python number, ``xs`` a sequence of numbers or an array."""
    x = xs[i]
    return x.item() if hasattr(x, "item") else x


def _per_value(func, x):
    """``func(x)`` of a number, or of each entry of a float64 column, called once per distinct
    value (by ``==``: ``func`` must not tell 0.0 from -0.0) and gathered back."""
    if not getattr(x, "ndim", 0):
        return func(x)
    import numpy as np

    order, starts = _runs(x)
    values = np.fromiter(map(func, x[order[starts]].tolist()), float, len(starts))
    out = np.empty_like(x)
    out[order] = np.repeat(values, np.diff(starts, append=len(x)))
    return out


def _overflow_quietly():
    """A context where float64 columns overflow to inf silently, as Python floats do."""
    np = sys.modules.get("numpy")  # no column exists before numpy loads
    return np.errstate(over="ignore") if np else contextlib.nullcontext()


def _first_worst(devs) -> int | None:
    """The index of the first NaN of ``devs`` (a list or a float64 array), else of its
    first strict maximum above zero, else None: the worst case a check reports."""
    if hasattr(devs, "ndim"):
        worst = int(devs.argmax())  # the first NaN, else the first maximum
        return None if devs[worst] <= 0 else worst
    top, worst = 0, None
    for i, dev in enumerate(devs):
        if dev != dev:
            return i
        if dev > top:
            top, worst = dev, i
    return worst


def _slots(points: list, backend: str) -> list[list]:
    """For each place ``i`` of the setting tuples ``points``, the positions of the points
    that share an ``i``th entry (by ``==``, so 0.0 and -0.0 share one), a sequence per
    entry in the order the points first reach it, positions ascending: lists, or int
    arrays past ``TUPLE_POINTS`` float points."""
    if not _arrays(len(points), backend):
        found = [{} for _ in points[0]]
        for g, point in enumerate(points):
            for by_value, x in zip(found, point):
                by_value.setdefault(x, []).append(g)
        return [list(by_value.values()) for by_value in found]
    import numpy as np

    found = []
    for i in range(len(points[0])):  # column by column: faster than an array of tuples
        order, starts = _runs(np.fromiter(map(itemgetter(i), points), float, len(points)))
        slots = np.split(order, starts[1:])
        found.append([slots[k] for k in np.argsort(order[starts], kind="stable")])
    return found


def _runs(column):
    """``(order, starts)``: a float64 column's stable ``argsort`` (equal entries keep their
    positions' order) and where each run of equal entries starts in it."""
    import numpy as np

    order = np.argsort(column, kind="stable")
    x = column[order]
    return order, np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))


def _spreads(p, slots: list) -> list:
    """Per slot ``at`` (positions into ``p``, a list or a float64 array), ``max`` minus
    ``min`` of its values as a Python number: NaN if the slot's first value is NaN, and a
    later NaN skipped, as ``min`` and ``max`` of ``at`` with ``key=p.__getitem__`` find them."""
    if not hasattr(p, "ndim"):
        return [max(v) - min(v) for v in ([p[g] for g in at] for at in slots)]
    import numpy as np

    starts = np.cumsum([0] + [len(at) for at in slots[:-1]])
    v = p[np.concatenate(slots)]
    spread = np.fmax.reduceat(v, starts) - np.fmin.reduceat(v, starts)
    return np.where(np.isnan(v[starts]), np.nan, spread).tolist()


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

    W = [0.0 if backend == FLOAT else 0] * math.prod(len(v.domain) for v in vs)
    for key, w in weights.items():
        key = tuple(key)
        if len(key) != len(vs):
            raise ConstructionError(f"assignment {key} has wrong arity (want {len(vs)})")
        at = 0  # the assignment's place in canonical order
        for value, v in zip(key, vs):
            if value not in v.domain:
                raise ConstructionError(f"value {value!r} not in domain of {v.name!r}")
            at = at * len(v.domain) + v.domain.index(value)
        W[at] = float(w) if backend == FLOAT else w
    return Joint(vs, tuple(_normalized([W], backend)[0][0]), backend)


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
    kept = tuple(v for v in j.variables if v.name in keep_set)
    if not kept:
        raise VariableMismatchError("cannot marginalize away every variable")
    # each entry keyed by its kept values (None for a variable summed out): a key's
    # entries are summed from 0 in canonical order, and keys first occur in theirs
    values = [v.domain if v.name in keep_set else (None,) * len(v.domain) for v in j.variables]
    total = {}
    for key, p in zip(itertools.product(*values), j._table):
        total[key] = total.get(key, 0) + p
    return Joint(kept, tuple(total.values()), j.backend)


def condition(j: Joint, evidence: Mapping[str, object]) -> Joint:
    """Condition on a partial assignment and renormalize.

    Returns a joint over the variables not mentioned in ``evidence``; when
    the evidence pins every variable that is the point mass over no
    variables.  If the evidence slice has probability zero the operation
    raises :class:`NullEvidenceError`, a distinct catchable error (never a
    silent NaN).
    """
    name_to_pos = {v.name: i for i, v in enumerate(j.variables)}
    at = {}  # each pinned variable's domain position
    for name, value in evidence.items():
        if name not in name_to_pos:
            raise VariableMismatchError(f"unknown evidence variable {name!r}")
        var = j.variables[name_to_pos[name]]
        if value not in var.domain:
            raise VariableMismatchError(f"value {value!r} not in domain of {name!r}")
        at[name_to_pos[name]] = var.domain.index(value)

    # per variable, whether each domain position agrees with the evidence
    hits = [[at.get(i, k) == k for k in range(len(v.domain))] for i, v in enumerate(j.variables)]
    sliced = [p for hit, p in zip(itertools.product(*hits), j._table) if all(hit)]
    mass = sum(sliced)
    if mass == 0:
        raise NullEvidenceError(f"evidence {dict(evidence)} has probability zero")
    rest = tuple(v for v in j.variables if v.name not in evidence)
    return Joint(rest, tuple(p / mass for p in sliced), j.backend)


def tv_distance(j1: Joint, j2: Joint) -> Prob:
    """Total-variation distance: half the sum of absolute entry differences.

    The joints must range over the same variables (names, domains, and
    order).  Backends may differ; a mixed comparison yields a float.
    """
    if j1.variables != j2.variables:
        raise VariableMismatchError(
            f"variable spaces differ: {j1.names} vs {j2.names}"
        )
    return sum(abs(p - q) for p, q in zip(j1._table, j2._table)) / 2

