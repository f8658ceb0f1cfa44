"""Closed-form target statistics for maximally entangled two- and three-
particle experiments.

These are the distributions the backward-conditional models must reproduce:
the four Bell-pair outcome probabilities for coplanar measurement angles,
the three-party GHZ parity correlations for binary axis choices, and the
Popescu-Rohrlich box.

Angle-dependent quantities are floats; the GHZ and PR-box values are exact
dyadic rationals and stay on the rational backend.  No state vectors or
operators appear anywhere: each function is a direct formula.
``angle_grid`` gives the evenly spaced angles that the CHSH scan and the
models' settings grids read; the scan's resolution bounds stand beside it for
the CLI's help text.  ``fractions`` loads only when ``ghz_prob`` or ``pr_prob`` runs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

#: Valid Bell-pair labels.  Measured with A(alpha) = cos(alpha) Z + sin(alpha) X,
#: outcome +1 on |0>: 1 is Phi+ = (|00> + |11>)/sqrt(2), 2 is Psi- =
#: (|01> - |10>)/sqrt(2), 3 is Psi+ = (|01> + |10>)/sqrt(2) and 4 is Phi- =
#: (|00> - |11>)/sqrt(2).
BELL_STATES = (1, 2, 3, 4)

#: Measurement outcomes on every wing.
OUTCOMES = (1, -1)

#: Binary axis settings: 0 measures along x, 1 along y.
AXES = (0, 1)


def _check_state(state: int) -> None:
    if state not in BELL_STATES:
        raise ValueError(f"Bell state label must be in {BELL_STATES}, got {state!r}")


def _check_outcome(a) -> None:
    if a not in OUTCOMES:
        raise ValueError(f"outcome must be +1 or -1, got {a!r}")


def _check_axis(s) -> None:
    if s not in AXES:
        raise ValueError(f"binary setting must be 0 or 1, got {s!r}")


def _check_angle(alpha) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"angle must be finite, got {alpha!r}")
    return alpha


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


#: Allowed ``chsh.quantum_chsh_scan`` resolutions (angles per wing).  The
#: scan's time grows as resolution**3; its memory as resolution**2.
MIN_SCAN_RESOLUTION = 8
MAX_SCAN_RESOLUTION = 64


def bell_prob(state: int, a1: int, a2: int, alpha1: float, alpha2: float) -> float:
    """Outcome probability for one Bell pair at coplanar angles.

    (1 + a1*a2*E)/4 with E the state's :func:`bell_expectation` at the same
    angles, in radians.
    """
    _check_outcome(a1)
    _check_outcome(a2)
    return 0.25 * (1.0 + a1 * a2 * bell_expectation(state, alpha1, alpha2))


def bell_expectation(state: int, alpha1: float, alpha2: float) -> float:
    """Correlation <a1*a2> for one Bell pair at the given angles.

    Equals +cos(alpha1 - alpha2) for state 1, -cos(alpha1 - alpha2) for
    state 2, -cos(alpha1 + alpha2) for state 3, +cos(alpha1 + alpha2) for
    state 4.
    """
    _check_state(state)
    alpha1, alpha2 = _check_angle(alpha1), _check_angle(alpha2)
    op, x = ("-", alpha1 - alpha2) if state in (1, 2) else ("+", alpha1 + alpha2)
    if not math.isfinite(x):  # finite angles whose difference or sum overflows
        raise ValueError(f"alpha1 {op} alpha2 overflows at angles {alpha1!r}, {alpha2!r}")
    return math.cos(x) if state in (1, 4) else -math.cos(x)


def ghz_prob(a1: int, a2: int, a3: int, s1: int, s2: int, s3: int) -> Fraction:
    """Outcome probability of the GHZ state (|000> + |111>)/sqrt(2).

    Setting 0 measures along x, 1 along y.  With #Y the number of y-axis
    settings, an even #Y gives 1/4 on the four triples with
    a1*a2*a3 == (-1)**(#Y/2) and 0 on the others; an odd #Y gives 1/8 on
    every triple.
    """
    from fractions import Fraction

    for a in (a1, a2, a3):
        _check_outcome(a)
    for s in (s1, s2, s3):
        _check_axis(s)
    y = s1 + s2 + s3
    if y % 2:
        return Fraction(1, 8)
    if a1 * a2 * a3 == (-1) ** (y // 2):
        return Fraction(1, 4)
    return Fraction(0)


def pr_prob(a1: int, a2: int, s1: int, s2: int) -> Fraction:
    """Popescu-Rohrlich box: 1/2 when a1*a2 == (-1)**(s1*s2), else 0.

    In bit encoding this is the XOR game condition; here outcomes are +/-1
    and settings binary.
    """
    from fractions import Fraction

    _check_outcome(a1)
    _check_outcome(a2)
    _check_axis(s1)
    _check_axis(s2)
    if a1 * a2 == (-1) ** (s1 * s2):
        return Fraction(1, 2)
    return Fraction(0)

