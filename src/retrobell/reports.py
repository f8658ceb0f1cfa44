"""Shared report containers for the verification surfaces.

Checks never raise on failure: a failed property is an outcome, carried in a
report together with the worst-case deviation and where it occurred, so a
falsified claim is diagnosable rather than just red.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Mapping


def as_number(x):
    """Coerce a probability-like value to a JSON number.

    Integral rationals become ints (so exact-zero deviations serialize as a
    literal 0); other rationals and floats become floats.
    """
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return float(x)
    if isinstance(x, numbers.Integral):
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
    """A ``to_json_dict`` method writing each dataclass field, in field
    order and through :func:`jsonable`, under its name or its rename."""

    def to_json_dict(self) -> dict:
        return {renames.get(f.name, f.name): jsonable(getattr(self, f.name)) for f in fields(self)}

    return to_json_dict


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification sweep over a settings grid.

    ``check`` is one of "si", "no_signalling", "recovery", "kernel_norm".
    ``max_deviation`` is the largest deviation encountered and ``worst_case``
    records where it happened.
    """

    check: str
    passed: bool
    max_deviation: Fraction | float
    worst_case: dict | None
    tolerance: Fraction | float
    backend: str

    to_json_dict = fields_json(passed="pass")


@dataclass(frozen=True)
class WitnessReport:
    """Side-by-side comparison of a factorized and a joint conditional.

    ``violated`` is True when the product of single-wing conditionals differs
    from the joint conditional by more than the tolerance.  In JSON the
    "pass" field carries ``violated``: the witness "passes" when it actually
    exhibits the factorization failure it was built to show.
    """

    product_value: Fraction | float
    joint_value: Fraction | float
    difference: Fraction | float
    violated: bool
    tolerance: Fraction | float
    backend: str
    label: str
    settings: tuple
    outcomes: tuple

    check: str = field(default="lc_witness", init=False)

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "pass": bool(self.violated),
            "max_deviation": as_number(self.difference),
            "worst_case": {
                "label": self.label,
                "settings": jsonable(self.settings),
                "outcomes": jsonable(self.outcomes),
                "product_of_wing_conditionals": as_number(self.product_value),
                "joint_conditional": as_number(self.joint_value),
            },
            "tolerance": as_number(self.tolerance),
            "backend": self.backend,
        }
