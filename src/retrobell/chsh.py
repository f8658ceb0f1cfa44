"""CHSH functional evaluation and the three headline bounds.

The CHSH combination of four correlations,

    S = |E(a, b) - E(a, b')| + |E(a', b) + E(a', b')|,

separates three families of models: every locally causal, setting-
independent model obeys S <= 2 (shown here by enumerating all sixteen
deterministic response strategies, the extreme points of such models); the
Bell-pair correlations reach 2*sqrt(2) and never exceed it (checked by a
dense angle scan); and the Popescu-Rohrlich box reaches the algebraic
maximum 4 while still satisfying no-signalling.

The backward model for the PR box (``backward.pr_backward_model``) is the
same collider recipe as the Bell-pair model, applied to the box
distribution.  With binary settings
and a prior of 1/2 the normalization constant is (1/2) / (1/4) = 2 and the
kernel is deterministic 0/1.  That this model passes statistical
independence and no-signalling yet yields S = 4 is the demonstration that
the collider construction is flexible enough to cover superquantum
correlations; nothing here explains why nature stops at 2*sqrt(2).

Nothing here loads numpy: the classical half (configurations, strategies
and bounds), the scan, which is plain Python over a table of floats, and the
backward-model CHSH value, whose four setting pairs tabulate as nested tuples
(of Fractions for the PR box, of floats for the Bell pair), one row of numbers
per pair, by the formula that reads a float64 table's row of columns alike.
numpy loads only for a float grid of more than ``retrobell.dist.TUPLE_POINTS``
(400) points and for sampling.
"""

from __future__ import annotations

import itertools
import math
from operator import add, sub
from typing import TYPE_CHECKING, Callable, NamedTuple

from .quantum import MAX_SCAN_RESOLUTION, MIN_SCAN_RESOLUTION
from .quantum import angle_grid, bell_expectation
from .reports import fields_json

if TYPE_CHECKING:
    from .backward import BackwardModel
    from .dist import Prob

LHV_BOUND = 2
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
PR_BOUND = 4

#: The three reference bounds every CHSH report carries for context.
REFERENCE_BOUNDS = {"lhv_bound": LHV_BOUND, "tsirelson_bound": TSIRELSON_BOUND,
                    "pr_bound": PR_BOUND}

#: Float headroom on the scan assertion, absorbing accumulated cosine
#: rounding across grid configurations (looser than the 1e-12 used for
#: single identities).
TSIRELSON_TOL = 1e-9


class ChshConfig(NamedTuple):
    """The four measurement settings entering the CHSH combination.

    Angles in radians for Bell-pair models; 0/1 axis choices for box
    models.  ``alpha1`` and ``alpha1_prime`` belong to wing 1, ``alpha2``
    and ``alpha2_prime`` to wing 2.
    """

    alpha1: float | int
    alpha1_prime: float | int
    alpha2: float | int
    alpha2_prime: float | int


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


def lhv_max_chsh() -> int:
    """Maximum CHSH value over deterministic strategies: exactly 2.

    A strategy fixes responses r = (a1(alpha1), a1(alpha1'), a2(alpha2),
    a2(alpha2')) in {+1, -1}**4.  The sixteen strategies are the extreme points
    of locally causal, setting-independent models, so this integer enumeration
    is the full bound, whatever angles the four setting slots stand for.
    """
    return max(chsh_value(lambda x, y: r[x] * r[2 + y], ChshConfig(0, 1, 0, 1))
               for r in itertools.product((1, -1), repeat=4))


class ScanReport(NamedTuple):
    """Result of a dense CHSH angle scan for one Bell pair."""

    max_value: float
    argmax: tuple[float, float, float, float]
    bound: float
    resolution: int
    configs_scanned: int
    state: int

    to_json_dict = fields_json(max_value="max_S")


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
            f"scan time grows as resolution**3; {MAX_SCAN_RESOLUTION} is the cap")
    grid = angle_grid(resolution)
    max_value, idx = _max_chsh([[bell_expectation(state, a, b) for b in grid] for a in grid])
    if max_value > TSIRELSON_BOUND + TSIRELSON_TOL:
        raise RuntimeError(
            f"scan exceeded the quantum bound: {max_value} > {TSIRELSON_BOUND}"
        )
    return ScanReport(state=state, max_value=max_value, argmax=tuple(grid[i] for i in idx),
                      bound=TSIRELSON_BOUND, resolution=resolution,
                      configs_scanned=resolution**4)


def _max_chsh(e) -> tuple[float, tuple[int, int, int, int]]:
    """Largest S = |e[i1,i2] - e[i1,i2p]| + |e[i1p,i2] + e[i1p,i2p]| over the table
    ``e``, and the first (i1, i1p, i2, i2p) in C order that reaches it.

    The terms split by column pair (j, k): x -> fl(d + x) is monotone, so the max
    over i1 and i1p is fl(D + P), D and P the max over rows of |e[i,j] - e[i,k]|
    and of |e[i,j] + e[i,k]|, both symmetric in (j, k): O(n**3) time, O(n**2)
    memory, plain Python.  A rounding tie lets fl(d + p) reach the maximum with d
    or p below its own, so the argmax is looked for in the sums: the first i1
    whose d reaches it with some P, then the first i1p and (j, k) whose sum does.
    """
    n = len(e)
    cols = list(zip(*e))
    P = [[0.0] * n for _ in range(n)]
    S = [[0.0] * n for _ in range(n)]
    for j, cj in enumerate(cols):
        for k in range(j, n):
            ck = cols[k]
            P[j][k] = P[k][j] = max(map(abs, map(add, cj, ck)))
            S[j][k] = S[k][j] = max(map(abs, map(sub, cj, ck))) + P[j][k]
    best = max(map(max, S))
    # only these pairs can reach the maximum, from any i1 and i1p
    pairs = [(j, k) for j in range(n) for k in range(n) if S[j][k] == best]
    i1 = next(i for i, row in enumerate(e)
              if any(abs(row[j] - row[k]) + P[j][k] == best for j, k in pairs))
    d = [abs(e[i1][j] - e[i1][k]) for j, k in pairs]
    for i1p, row in enumerate(e):
        for (j, k), dj in zip(pairs, d):
            if dj + abs(row[j] + row[k]) == best:
                return float(best), (i1, i1p, j, k)


def backward_model_chsh(model: BackwardModel, label: str, c: ChshConfig):
    """CHSH value of a two-wing backward model conditioned on one label.

    The correlation at each setting pair is the expectation of the outcome
    product under the label-conditioned distribution, all four tabulated
    at once.  Exact (a Fraction) on the rational backend.
    """
    if len(model.wings) != 2:
        raise ValueError("CHSH needs a two-wing model")
    # the setting pairs in the order chsh_value asks for them
    pairs = [(c.alpha1, c.alpha2), (c.alpha1, c.alpha2_prime),
             (c.alpha1_prime, c.alpha2), (c.alpha1_prime, c.alpha2_prime)]
    from .dist import _point_major, _rows

    cond = model.tabulate(pairs).conditioned(label)
    e = [[sum(a1 * a2 * p for (a1, a2), p in zip(model._cells(), row))] for row in _rows(cond)]
    correlations = iter(_point_major(e))
    return chsh_value(lambda s1, s2: next(correlations), c)

