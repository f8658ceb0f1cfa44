"""Three-wing GHZ extension of the backward model.

The GHZ target is reproduced with a collider of the GHZ state's outcome
distribution: with wing marginals 1/2 and a prior of 1/2 on the GHZ label,
the normalization constant is (1/2) / (1/8) = 4, which turns the target
probabilities 0, 1/8 and 1/4 into kernel values 0, 1/2 and 1, and a
complement label takes the rest.  The whole module runs on the rational
backend; every probability involved lies in {0, 1/8, 1/4, 1/2, 1}.

The module also carries the classical side of the story: the brute-force
proof that no fixed assignment of per-axis values (x_i for axis 0, y_i for
axis 1, each +/-1) satisfies all four GHZ product constraints at once.  The
constraints are the GHZ state's perfect correlations: the outcome product is
+1 at xxx and -1 at each setting with two y axes.  That classical side loads
without numpy; :func:`ghz_backward_model` imports ``backward`` when it is
called.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, NamedTuple

from .quantum import OUTCOMES, ghz_prob
from .reports import CheckReport

if TYPE_CHECKING:
    from .backward import BackwardModel

GHZ_LABELS = ("lambda0", "lambda_bar")

#: The six classical per-axis values, in canonical order.
ASSIGNMENT_VARS = ("x1", "y1", "x2", "y2", "x3", "y3")

#: The four product constraints of the classical contradiction:
#: (display name, factor variables, required product value).
GHZ_CONSTRAINTS = (
    ("x1x2x3=+1", ("x1", "x2", "x3"), 1),
    ("x1y2y3=-1", ("x1", "y2", "y3"), -1),
    ("y1x2y3=-1", ("y1", "x2", "y3"), -1),
    ("y1y2x3=-1", ("y1", "y2", "x3"), -1),
)


def ghz_backward_model() -> BackwardModel:
    """The GHZ backward model.

    At an even number of y-axis settings the kernel is 0/1: the GHZ label
    occurs exactly on allowed triples, and disallowed triples are routed to
    the complement label, so under the GHZ label a disallowed triple is
    simply never observed.  At an odd number the target is uniform and the
    kernel is 1/2 on every triple.
    """
    from .backward import _binary_collider

    return _binary_collider("ghz", 3, GHZ_LABELS, ghz_prob)


def verify_ghz_recovery(model: BackwardModel) -> CheckReport:
    """Exact recovery of the GHZ statistics under the GHZ label.

    Runs the recovery check over all eight setting combinations on the
    rational backend; the deviation must be exactly zero.
    """
    from .backward import settings_grid

    return model.verify_recovery(settings_grid(model))


class ExhaustionReport(NamedTuple):
    """Result of enumerating all 64 classical per-axis assignments."""

    total: int
    satisfying_all: int
    per_constraint: tuple[int, ...]
    satisfying_exactly_three: int
    near_misses: tuple[dict, ...] | None = None

    def to_json_dict(self) -> dict:
        out = {
            "total": self.total,
            "satisfying_all": self.satisfying_all,
            "per_constraint": list(self.per_constraint),
            "constraints": [name for name, _, _ in GHZ_CONSTRAINTS],
            "satisfying_exactly_three": self.satisfying_exactly_three,
        }
        if self.near_misses is not None:
            out["near_misses"] = [dict(m) for m in self.near_misses]
        return out


def classical_assignment_exhaustion(
    include_near_misses: bool = False,
) -> ExhaustionReport:
    """Enumerate all 64 assignments against the four product constraints.

    No assignment satisfies all four: multiplying the four left-hand sides
    squares every variable (product +1) while the right-hand sides multiply
    to -1.  Each individual constraint is a parity condition satisfied by
    exactly half the assignments.  A near miss satisfies exactly three
    constraints; there are eight per choice of which constraint fails.
    """
    # per assignment, which of the four constraints it meets
    rows = []
    for values in itertools.product(OUTCOMES, repeat=len(ASSIGNMENT_VARS)):
        assignment = dict(zip(ASSIGNMENT_VARS, values))
        rows.append((assignment, [math.prod(assignment[f] for f in factors) == required
                                  for _, factors, required in GHZ_CONSTRAINTS]))
    near_misses = tuple({"assignment": assignment, "violated": GHZ_CONSTRAINTS[met.index(False)][0]}
                        for assignment, met in rows if sum(met) == 3)
    return ExhaustionReport(
        total=len(rows),
        satisfying_all=sum(all(met) for _, met in rows),
        per_constraint=tuple(map(sum, zip(*(met for _, met in rows)))),
        satisfying_exactly_three=len(near_misses),
        near_misses=near_misses if include_near_misses else None,
    )
