"""The benchmark's workloads and the correctness gate on every command.

A workload turns a seed into a list of CLI commands; the program sees only
the argv.  Each command carries the exit code and report values it must
produce, and :func:`gate` lists every way a finished command missed them.
See README.md next to this file for why each workload exists.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field

FLOAT_TOL = 1e-12
#: Headroom the library itself allows on the scanned CHSH maximum.  The
#: resolution-64 scan lands one ulp above 2*sqrt(2) for every state.
SCAN_TOL = 1e-9
TSIRELSON = 2.0 * math.sqrt(2.0)

BELL_CHECKS = ("si", "no_signalling", "kernel_norm", "recovery")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must say.

    ``expect`` maps a key of the command's report view (see :func:`view`) to
    ``("==", value)``, ``("<=", bound)`` or ``("~", value, tolerance)``.
    """

    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)
    exit_code: int = 0

    @property
    def kind(self) -> str:
        return self.argv[0]


def _verify_expect(rules: dict) -> dict:
    """Expectations of a verify report: ``rules`` maps each check, in run
    order, to (whether it passes, the rule on its max_deviation)."""
    expect = {"checks": ("==", list(rules))}
    for check, (passed, deviation) in rules.items():
        expect[f"{check}.pass"] = ("==", passed)
        expect[f"{check}.max_deviation"] = deviation
    return expect


BELL_VERIFY = _verify_expect({c: (True, ("<=", FLOAT_TOL)) for c in BELL_CHECKS})
EXACT_VERIFY = _verify_expect({c: (True, ("==", 0)) for c in BELL_CHECKS})
COUNTEREXAMPLE_VERIFY = _verify_expect(
    {
        "si": (False, ("==", 0.25)),
        "no_signalling": (False, ("==", 1.0)),
        "kernel_norm": (True, ("<=", FLOAT_TOL)),
    }
)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def verify_dense(seed: int, small: bool = False) -> list[Command]:
    """Dense float verification; the grids are fixed, so the seed is unused."""
    del seed
    grid = "8" if small else "48"
    return [
        Command(("verify", "--model", "bell", "--grid", grid), BELL_VERIFY),
        Command(
            ("verify", "--model", "counterexample", "--grid", grid),
            COUNTEREXAMPLE_VERIFY,
            exit_code=1,
        ),
    ]


def _angle(rng: random.Random) -> str:
    return repr(rng.uniform(0.0, 2.0 * math.pi))


def _bits(rng: random.Random, count: int) -> str:
    return ",".join(str(rng.randrange(2)) for _ in range(count))


def _sample_expect(n: int, threads: int, label_probability: float) -> dict:
    return {
        "pass": ("==", True),
        "accepted": ("==", n),
        "shards": ("==", threads),
        "acceptance.expected_rate": ("~", label_probability, FLOAT_TOL),
    }


def sample_postselect(seed: int, small: bool = False) -> list[Command]:
    """Postselected Monte Carlo: bell on one and two shards, ghz, prbox.

    Statistical independence makes every label's probability its prior at
    every setting: 1/4 for the bell labels, 1/2 for the ghz and PR labels.
    """
    rng = random.Random(seed)
    n_bell = 20_000 if small else 2_000_000
    n_box = 10_000 if small else 1_000_000
    alpha1, alpha2 = _angle(rng), _angle(rng)
    label = str(rng.randint(1, 4))
    seeds = [str(rng.randrange(2**63)) for _ in range(3)]
    bell = ("sample", "--model", "bell", "--label", label, "--alpha1", alpha1,
            "--alpha2", alpha2, "--n", str(n_bell), "--seed", seeds[0])
    return [
        Command(bell + ("--threads", "1"), _sample_expect(n_bell, 1, 0.25)),
        Command(bell + ("--threads", "2"), _sample_expect(n_bell, 2, 0.25)),
        Command(
            ("sample", "--model", "ghz", "--label", "0", "--settings", _bits(rng, 3),
             "--n", str(n_box), "--seed", seeds[1]),
            _sample_expect(n_box, 1, 0.5),
        ),
        Command(
            ("sample", "--model", "prbox", "--label", "pr", "--settings", _bits(rng, 2),
             "--n", str(n_box), "--seed", seeds[2]),
            _sample_expect(n_box, 1, 0.5),
        ),
    ]


def chsh_closed_form(state: int, a1: float, a1p: float, a2: float, a2p: float) -> float:
    from retrobell.quantum import bell_expectation

    def e(x, y):
        return bell_expectation(state, x, y)

    return abs(e(a1, a2) - e(a1, a2p)) + abs(e(a1p, a2) + e(a1p, a2p))


def exact_and_scan(seed: int, small: bool = False) -> list[Command]:
    """Short exact and scan commands, dominated by start-up at seed."""
    rng = random.Random(seed)
    angles = [_angle(rng) for _ in range(4)]
    angle_state, scan_state, curve_state = (rng.randint(1, 4) for _ in range(3))
    resolution = 16 if small else 64
    points = 16 if small else 128
    s_exact = chsh_closed_form(angle_state, *map(float, angles))
    return [
        Command(("verify", "--model", "ghz", "--backend", "rational"), EXACT_VERIFY),
        Command(("verify", "--model", "prbox"), EXACT_VERIFY),
        Command(("chsh", "--lhv"), {"S_max": ("==", 2)}),
        Command(("chsh", "--model", "prbox"), {"S": ("==", 4)}),
        Command(
            ("chsh", "--model", "bell", "--state", str(angle_state), "--angles",
             ",".join(angles)),
            {"S": ("~", s_exact, FLOAT_TOL)},
        ),
        Command(
            ("chsh", "--model", "bell", "--state", str(scan_state), "--scan",
             "--resolution", str(resolution)),
            {"max_S": ("~", TSIRELSON, SCAN_TOL)},
        ),
        Command(("ghz-exhaust", "--list-near-misses"), {"satisfying_all": ("==", 0)}),
        Command(
            ("emit-curve", "--state", str(curve_state), "--points", str(points)),
            {"rows": ("==", points + 1)},
        ),
    ]


WORKLOADS = {
    "verify-dense": verify_dense,
    "sample-postselect": sample_postselect,
    "exact-and-scan": exact_and_scan,
}


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN/Infinity extensions Python accepts."""
    return json.loads(text, parse_constant=_reject_constant)


def view(cmd: Command, stdout: str) -> dict:
    """Flatten a command's output to the keys its expectations name."""
    if cmd.kind == "emit-curve":
        rows = list(csv.reader(io.StringIO(stdout)))
        return {"rows": len(rows)}
    report = strict_json(stdout)
    results = report["results"]
    if cmd.kind == "verify":
        flat = {"checks": [r["check"] for r in results]}
        for r in results:
            flat[f"{r['check']}.pass"] = r["pass"]
            flat[f"{r['check']}.max_deviation"] = r["max_deviation"]
        return flat
    flat = {}
    for key, value in results.items():
        if isinstance(value, dict):
            for sub, v in value.items():
                flat[f"{key}.{sub}"] = v
        else:
            flat[key] = value
    return flat


def _meets(actual, rule) -> bool:
    op = rule[0]
    if op == "==":
        return actual == rule[1]
    if isinstance(actual, bool) or not isinstance(actual, (int, float)):
        return False
    if op == "<=":
        return actual <= rule[1]
    if op == "~":
        return abs(actual - rule[1]) <= rule[2]
    raise ValueError(f"unknown expectation operator {op!r}")


def gate(cmd: Command, returncode: int, stdout: str) -> list[str]:
    """Every way the command's result misses its expectations (empty if none)."""
    problems = []
    if returncode != cmd.exit_code:
        problems.append(f"exit code {returncode}, expected {cmd.exit_code}")
    try:
        flat = view(cmd, stdout)
    except (ValueError, KeyError, TypeError) as e:
        return problems + [f"unreadable output: {e}"]
    for key, rule in cmd.expect.items():
        if key not in flat:
            problems.append(f"{key} missing from the report")
        elif not _meets(flat[key], rule):
            problems.append(f"{key} = {flat[key]!r}, expected {rule}")
    return problems

