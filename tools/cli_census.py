#!/usr/bin/env python3
"""Byte-identity census of the CLI: one JSON line per command.

Runs a fixed list of argvs in-process through ``retrobell.cli.main`` and
prints, for each, the exit code and the SHA-256 of its stdout and stderr.
Two source trees produce the same output exactly when every command's bytes
agree, so checking a change against its parent is a ``diff``:

    python3 tools/cli_census.py --src /path/to/parent/src > parent.jsonl
    python3 tools/cli_census.py > change.jsonl
    diff parent.jsonl change.jsonl

``--src`` defaults to the ``src/`` next to this script.  The argvs are every
command of the benchmark's three workloads at seeds 1-3, each output format,
the CHSH scan of every Bell state at resolutions 64 and 33, ``sample`` on
every model at 1-3 threads, bell ``sample`` at the 64-bit seed edge (2^63
and 2^64 - 1) on 1 and 3 threads and just past it (2^64), ``verify --checks nosignal`` on every model
(bell and counterexample at grids 1, 3 and 5), ``verify`` on bell and
counterexample at grids 2, 3 and 16 (4, 9 and 256 points, tabulated as
tuples) and 21 (441 points, the first grid beyond ``retrobell.dist.TUPLE_POINTS``,
as arrays), a cap failure and every usage-error path of ``retrobell.cli``,
finite bell angles whose sum overflows among them, ``--output`` to a file and
to a directory that does not exist, and the known statistical-gate failure on
correct code.  What a config file holds and ``$RETROBELL_SEED`` need a file or
an environment per command, so ``tests/test_cli.py`` covers them instead.
A full census takes a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``sample`` flags per model: a label and settings, with -0.0 where the
#: counterexample's sign convention tells it from 0.0.
SAMPLE_ARGS = {
    "bell": ("--label", "2", "--alpha1", "0.3", "--alpha2", "1.1"),
    "counterexample": ("--label", "1", "--alpha1", "0.3", "--alpha2", "-0.0"),
    "ghz": ("--label", "bar", "--settings", "0,1,1"),
    "prbox": ("--label", "pr", "--settings", "1,1"),
}

#: Commands run once in each output format.
FORMATTED = [
    ("verify", "--model", "bell", "--grid", "8"),
    ("verify", "--model", "counterexample", "--grid", "8"),
    ("verify", "--model", "ghz", "--backend", "rational"),
    ("chsh", "--lhv"),
    ("chsh", "--model", "prbox", "--settings", "1,0,0,1"),
    ("chsh", "--model", "bell", "--state", "2", "--angles", "0.1,1.2,0.7,2.9"),
    ("chsh", "--model", "bell", "--state", "3", "--scan", "--resolution", "8"),
    ("ghz-exhaust", "--list-near-misses"),
] + [("sample", "--model", m) + a + ("--n", "2000", "--seed", "4") for m, a in SAMPLE_ARGS.items()]

SAMPLE_BELL = ("sample", "--model", "bell") + SAMPLE_ARGS["bell"]

#: Bad input: each exits 2 with a message, or 3 for the sampling cap.
FAILING = [
    (),
    ("nosuch",),
    ("--config", "/nonexistent/census.cfg", "verify", "--model", "bell"),
    ("--config", "/dev/null", "verify", "--model", "bell", "--config", "/nonexistent/census.cfg"),
    ("verify", "--model", "bell", "--grid", "0"),
    ("verify", "--model", "bell", "--checks", "bogus"),
    ("verify", "--model", "bell", "--backend", "rational"),
    ("chsh", "--lhv", "--model", "bell"),
    ("chsh", "--model", "prbox", "--state", "1"),
    ("chsh", "--model", "bell", "--state", "1", "--scan", "--resolution", "7"),
    ("chsh", "--model", "bell", "--state", "1", "--angles", "1,2,3"),
    ("ghz-exhaust", "--backend", "float"),
    ("emit-curve", "--points", "1"),
    ("emit-curve", "--points", "100001"),
    SAMPLE_BELL + ("--n", "0"),
    SAMPLE_BELL + ("--n", "ten"),
    SAMPLE_BELL + ("--n", "10", "--threads", "0"),
    SAMPLE_BELL + ("--n", "10", "--threads", "257"),
    SAMPLE_BELL + ("--n", "10", "--cap-factor", "0"),
    SAMPLE_BELL + ("--n", "10", "--seed", "-1"),
    SAMPLE_BELL + ("--n", "10", "--seed", str(2**64)),
    SAMPLE_BELL + ("--n", "10", "--settings", "0,1"),
    ("sample", "--model", "bell", "--label", "9", "--alpha1", "0", "--alpha2", "0", "--n", "10"),
    ("sample", "--model", "bell", "--label", "1", "--alpha1", "nan", "--alpha2", "0", "--n", "10"),
    ("sample", "--model", "bell", "--label", "1", "--alpha1", "0", "--n", "10"),
    ("sample", "--model", "ghz", "--label", "0", "--settings", "0,1", "--n", "10"),
    ("sample", "--model", "ghz", "--label", "0", "--settings", "0,2,1", "--n", "10"),
    ("sample", "--model", "ghz", "--label", "0", "--alpha1", "0", "--n", "10"),
    ("sample", "--model", "ghz", "--label", "0", "--settings", "0,1,1", "--n", "10",
     "--backend", "float"),
    SAMPLE_BELL + ("--n", "1000", "--cap-factor", "1", "--seed", "1"),
    ("chsh", "--model", "bell", "--angles", "0 1,2,3"),
    ("chsh", "--model", "prbox", "--settings", "1 0,0,1"),
    ("chsh", "--model", "bell", "--state", "1", "--angles", "1e308,1e308,1e308,1e308"),
    ("chsh", "--model", "bell", "--state", "3", "--angles", "1e308,0,1e308,0"),
    ("sample", "--model", "bell", "--label", "1", "--alpha1", "1e308", "--alpha2", "1e308",
     "--n", "10"),
]

#: More bad input, one argv per usage error of ``retrobell.cli`` the lists above
#: never reach: each exits 2.
USAGE_ERRORS = [
    ("chsh", "--model", "bell", "--angles", "0,,1,2"),
    ("chsh", "--model", "bell", "--angles", "a,b,c,d"),
    ("chsh", "--model", "bell", "--angles", "nan,0,0,0"),
    ("sample", "--model", "ghz", "--label", "0", "--n", "10"),
    ("verify", "--model", "bell", "--checks", ""),
    ("verify", "--model", "bell", "--checks", "si,si"),
    ("verify", "--model", "counterexample", "--checks", "recovery"),
    ("chsh",),
    ("chsh", "--model", "prbox", "--angles", "0,1,0,1"),
    ("chsh", "--model", "bell", "--settings", "0,1,0,1"),
    ("chsh", "--model", "bell", "--scan", "--angles", "0,1,2,3"),
    ("chsh", "--model", "bell"),
    ("--config=/nonexistent/census.cfg", "verify", "--model", "bell"),
    ("--config", "/", "verify", "--model", "bell"),  # a directory: it cannot be read
]

#: ``--output``: written (exit 0), and a directory that does not exist (exit 3).
OUTPUT = [
    ("verify", "--model", "bell", "--grid", "4", "--output", "/dev/null"),
    ("verify", "--model", "bell", "--grid", "4", "--output", "/nonexistent/dir/report.json"),
]

#: Correct code that fails a statistical gate: each |z| <= 5 gate is a normal
#: approximation, which does not hold in a cell where n * p is small (here one
#: count where p = 1.25e-5, z = 8.83).  It exits 1 until the gates account for it.
GATE_COUNTEREXAMPLES = [
    ("sample", "--model", "bell", "--label", "lambda1", "--alpha1", "0", "--alpha2", "0.01",
     "--n", "1000", "--seed", "100"),
]


def argvs() -> list[tuple[str, ...]]:
    """The census commands, in a fixed order and without repeats."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    commands = [cmd.argv for seed in (1, 2, 3)
                for workload in WORKLOADS.values() for cmd in workload(seed)]
    commands += [argv + ("--format", fmt) for argv in FORMATTED
                 for fmt in ("json", "csv", "human")]
    commands += [("chsh", "--model", "bell", "--state", state, "--scan", "--resolution", res)
                 for res in ("64", "33") for state in "1234"]
    commands += [("sample", "--model", m) + a + ("--n", "50000", "--seed", "9", "--threads", t)
                 for m, a in SAMPLE_ARGS.items() for t in ("1", "2", "3")]
    commands += [SAMPLE_BELL + ("--n", "50000", "--seed", seed, "--threads", t)
                 for seed in (str(2**63), str(2**64 - 1)) for t in ("1", "3")]
    commands += [("verify", "--model", m, "--grid", g, "--checks", "nosignal")
                 for m in ("bell", "counterexample") for g in "135"]
    commands += [("verify", "--model", m, "--grid", g)
                 for m in ("bell", "counterexample") for g in "23"]
    commands += [("verify", "--model", m, "--checks", "nosignal", "--format", "human")
                 for m in ("ghz", "prbox")]
    commands += FAILING
    commands += [("verify", "--model", m, "--grid", g)
                 for m in ("bell", "counterexample") for g in ("16", "21")]
    commands += USAGE_ERRORS + OUTPUT + GATE_COUNTEREXAMPLES
    return list(dict.fromkeys(commands))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv) -> dict:
    """Exit code and output digests of one in-process CLI command."""
    from retrobell import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code,
            "stdout": _digest(out.getvalue()), "stderr": _digest(err.getvalue())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree holding the retrobell package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    # the sampler's default seed comes from the environment
    os.environ.pop("RETROBELL_SEED", None)
    for command in argvs():
        print(json.dumps(run(command)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
