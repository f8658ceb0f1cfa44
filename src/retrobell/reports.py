"""The one report of every check, and its JSON.

Checks never raise on failure: a failed property is an outcome, carried in a
report with the worst-case deviation and where it occurred, so a falsified
claim is diagnosable rather than just red; the LC witness passes when the
violation it looks for shows.

Every report record is a ``typing.NamedTuple``, immutable and equal to the
tuple of its values; this module loads neither ``dataclasses`` nor ``fractions``.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING, Mapping, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

#: Absolute tolerance for probability identities in the float backend.
#: All computations in this package are short chains of arithmetic on
#: well-conditioned values, so 1e-12 leaves ample headroom.  ``dist``
#: re-exports it; the CHSH scan reports it without loading ``dist``.
FLOAT_TOL = 1e-12


def as_number(x):
    """Coerce a probability-like value to a JSON number.

    Integral rationals become ints (so exact-zero deviations serialize as a
    literal 0); other rationals and floats become floats.
    """
    if isinstance(x, numbers.Integral):
        return int(x)
    if isinstance(x, numbers.Rational) and x.denominator == 1:
        return int(x)
    return float(x)


def jsonable(obj):
    """Recursively convert report payloads to plain JSON-ready values.

    Non-finite floats become the strings "inf", "-inf" and "nan".
    """
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, Mapping):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, numbers.Real):
        x = as_number(obj)
        return x if not isinstance(x, float) or math.isfinite(x) else str(x)
    return obj


def fields_json(**renames):
    """A ``to_json_dict`` method writing each record field, in field order
    and through :func:`jsonable`, under its name or its rename."""

    def to_json_dict(self) -> dict:
        return {renames.get(f, f): jsonable(v) for f, v in zip(self._fields, self)}

    return to_json_dict


class CheckReport(NamedTuple):
    """Outcome of one verification sweep over a settings grid.

    ``check`` is one of "si", "no_signalling", "recovery", "kernel_norm" or
    "lc_witness".  ``max_deviation`` is the largest deviation encountered and
    ``worst_case`` records where it happened.  An "lc_witness" report passes
    when the violation it looks for shows.
    """

    check: str
    passed: bool
    max_deviation: Fraction | float
    worst_case: dict | None
    tolerance: Fraction | float
    backend: str

    to_json_dict = fields_json(passed="pass")

