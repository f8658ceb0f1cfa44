"""CHSH functional evaluation and the three headline bounds.

The CHSH combination of four correlations,

    S = |E(a, b) - E(a, b')| + |E(a', b) + E(a', b')|,

separates three families of models: every locally causal, setting-
independent model obeys S <= 2 (shown here by enumerating all sixteen
deterministic response strategies, the extreme points of such models); the
Bell-pair correlations reach 2*sqrt(2) and never exceed it (checked by a
dense angle scan); and the Popescu-Rohrlich box reaches the algebraic
maximum 4 while still satisfying no-signalling.

A backward model for the PR box is included: the same collider recipe as
the Bell-pair model, applied to the box distribution.  With binary settings
and a prior of 1/2 the normalization constant is (1/2) / (1/4) = 2 and the
kernel is deterministic 0/1.  That this model passes statistical
independence and no-signalling yet yields S = 4 is the demonstration that
the collider construction is flexible enough to cover superquantum
correlations; nothing here explains why nature stops at 2*sqrt(2).

The classical half (configurations, strategies and bounds) loads without
numpy: the scan and the model functions import ``backward``, ``dist`` and
numpy when they are called.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from .quantum import bell_expectation, pr_prob
from .reports import jsonable

if TYPE_CHECKING:
    from .backward import BackwardModel
    from .dist import Prob

LHV_BOUND = 2
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
PR_BOUND = 4

#: Allowed ``quantum_chsh_scan`` resolutions (angles per wing).  The scan's
#: time grows as resolution**4; its memory as resolution**3.
MIN_SCAN_RESOLUTION = 8
MAX_SCAN_RESOLUTION = 64

#: Float headroom on the scan assertion, absorbing accumulated cosine
#: rounding across grid configurations (looser than the 1e-12 used for
#: single identities).
TSIRELSON_TOL = 1e-9


@dataclass(frozen=True)
class ChshConfig:
    """The four measurement settings entering the CHSH combination.

    Angles in radians for Bell-pair models; 0/1 axis choices for box
    models.  ``alpha1`` and ``alpha1_prime`` belong to wing 1, ``alpha2``
    and ``alpha2_prime`` to wing 2.
    """

    alpha1: float | int
    alpha1_prime: float | int
    alpha2: float | int
    alpha2_prime: float | int

    def as_tuple(self) -> tuple:
        return (self.alpha1, self.alpha1_prime, self.alpha2, self.alpha2_prime)


#: Angles achieving the quantum maximum for Bell pair 1.
STANDARD_BELL_CONFIG = ChshConfig(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)

#: Binary-setting assignment under which the PR box reaches S = 4 (the
#: subtracted pair must hit the anticorrelated setting combination).
PR_BOX_CONFIG = ChshConfig(1, 0, 0, 1)


def chsh_value(correlation: Callable[[object, object], Prob], c: ChshConfig):
    """Evaluate the CHSH combination for a correlation function E(s1, s2)."""
    e_ab = correlation(c.alpha1, c.alpha2)
    e_abp = correlation(c.alpha1, c.alpha2_prime)
    e_apb = correlation(c.alpha1_prime, c.alpha2)
    e_apbp = correlation(c.alpha1_prime, c.alpha2_prime)
    return abs(e_ab - e_abp) + abs(e_apb + e_apbp)


@dataclass(frozen=True)
class DeterministicStrategy:
    """Fixed +/-1 responses for each of the four CHSH setting slots."""

    responses: tuple[int, int, int, int]  # a1(alpha1), a1(alpha1'), a2(alpha2), a2(alpha2')

    def correlation(self, slot1: int, slot2: int) -> int:
        """E for wing-1 slot (0 or 1) versus wing-2 slot (0 or 1)."""
        return self.responses[slot1] * self.responses[2 + slot2]


def enumerate_strategies() -> list[DeterministicStrategy]:
    """All sixteen deterministic strategies of the 2x2 scenario."""
    return [
        DeterministicStrategy(r) for r in itertools.product((1, -1), repeat=4)
    ]


def strategy_chsh_value(strategy: DeterministicStrategy) -> int:
    return chsh_value(strategy.correlation, ChshConfig(0, 1, 0, 1))


def lhv_max_chsh(c: ChshConfig | None = None) -> int:
    """Maximum CHSH value over deterministic strategies: exactly 2.

    Deterministic strategies are the extreme points of locally causal,
    setting-independent models, so this integer enumeration is the full
    bound.  The configuration argument only labels the setting slots and
    does not affect the value.
    """
    del c  # settings only name the slots; the extremal value is universal
    return max(strategy_chsh_value(s) for s in enumerate_strategies())


@dataclass(frozen=True)
class ScanReport:
    """Result of a dense CHSH angle scan for one Bell pair."""

    state: int
    max_value: float
    argmax: tuple[float, float, float, float]
    bound: float
    resolution: int
    configs_scanned: int

    def to_json_dict(self) -> dict:
        return {
            "max_S": float(self.max_value),
            "argmax": [float(a) for a in self.argmax],
            "bound": float(self.bound),
            "resolution": int(self.resolution),
            "configs_scanned": int(self.configs_scanned),
            "state": int(self.state),
        }


def quantum_chsh_scan(state: int, resolution: int = 16) -> ScanReport:
    """Scan all 4-tuples of grid angles for the maximal CHSH value.

    The grid is ``resolution`` evenly spaced angles in [0, 2pi); resolution
    16 contains the pi/4 multiples and therefore the exact optimum.  Ties in
    the maximum resolve to the lexicographically smallest configuration, so
    the report does not depend on evaluation order.

    Raises if the scan ever exceeds the quantum ceiling plus float headroom,
    which would indicate a broken correlation function.
    """
    if resolution < MIN_SCAN_RESOLUTION:
        raise ValueError(f"scan resolution must be at least {MIN_SCAN_RESOLUTION}")
    if resolution > MAX_SCAN_RESOLUTION:
        raise ValueError(
            f"scan time grows as resolution**4; {MAX_SCAN_RESOLUTION} is the cap")
    import numpy as np

    from .backward import angle_grid

    grid = angle_grid(resolution)
    e = np.empty((resolution, resolution), dtype=float)
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            e[i, j] = bell_expectation(state, a, b)
    # S[i1, i1p, i2, i2p] = |E[i1,i2] - E[i1,i2p]| + |E[i1p,i2] + E[i1p,i2p]|,
    # reduced one i1 at a time in O(resolution**3) memory.  A later slice
    # wins only when strictly larger, so the first maximum in C order
    # (the lexicographically smallest configuration) is kept.
    term2 = np.abs(e[:, :, None] + e[:, None, :])
    max_value, idx = -math.inf, None
    for i1 in range(resolution):
        s = np.abs(e[i1, :, None] - e[i1, None, :]) + term2
        flat_index = int(np.argmax(s))
        if s.flat[flat_index] > max_value:
            max_value = float(s.flat[flat_index])
            idx = (i1, *np.unravel_index(flat_index, s.shape))
    if max_value > TSIRELSON_BOUND + TSIRELSON_TOL:
        raise RuntimeError(
            f"scan exceeded the quantum bound: {max_value} > {TSIRELSON_BOUND}"
        )
    return ScanReport(
        state=state,
        max_value=max_value,
        argmax=tuple(grid[i] for i in idx),
        bound=TSIRELSON_BOUND,
        resolution=resolution,
        configs_scanned=resolution**4,
    )


def backward_model_chsh(model: BackwardModel, label: str, c: ChshConfig):
    """CHSH value of a two-wing backward model conditioned on one label.

    The correlation at each setting pair is the expectation of the outcome
    product under the label-conditioned distribution.  Exact (a Fraction)
    on the rational backend.
    """
    from .dist import expectation

    if len(model.wings) != 2:
        raise ValueError("CHSH needs a two-wing model")
    name1 = model.wings[0].outcome_name
    name2 = model.wings[1].outcome_name

    def correlation(s1, s2):
        conditioned = model.condition_on_lambda(label, (s1, s2))
        return expectation(conditioned, lambda a: a[name1] * a[name2])

    return chsh_value(correlation, c)


PR_LABELS = ("lambda_pr", "lambda_bar")


def pr_backward_model() -> BackwardModel:
    """Backward model reproducing the Popescu-Rohrlich box.

    Binary settings, wing marginals 1/2, prior 1/2 on the box label, and a
    deterministic kernel: normalization (1/2)/(1/4) = 2 turns the box's
    1/2-or-0 probabilities into 0/1.
    """
    from .backward import BINARY, LambdaSpace, Wing, collider_model, entry_table
    from .dist import RATIONAL

    wings = (
        Wing("a1", "alpha1", BINARY, Fraction(1, 2)),
        Wing("a2", "alpha2", BINARY, Fraction(1, 2)),
    )
    lam = LambdaSpace(PR_LABELS, (Fraction(1, 2), Fraction(1, 2)))
    target = entry_table(lambda cell, settings, _: pr_prob(*cell, *settings), ("lambda_pr",))
    return collider_model("prbox", wings, lam, ("lambda_pr",), target, RATIONAL)


def reference_bounds() -> dict:
    """The three reference bounds every CHSH report carries for context."""
    return jsonable(
        {
            "lhv_bound": LHV_BOUND,
            "tsirelson_bound": TSIRELSON_BOUND,
            "pr_bound": PR_BOUND,
        }
    )
