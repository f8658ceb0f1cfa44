#!/usr/bin/env python3
"""retrobell benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all`` to run each in
turn.  With ``--trace 0`` every command runs as a fresh ``python -m
retrobell.cli`` subprocess, whole passes over the workload's command list
repeat for ``--seconds``, and the end-to-end metrics are medians over the
passes.  With ``--trace 1`` the same argv run in-process under the tracer
(see ``tracing.py``) and the per-layer metrics are reported instead; no
end-to-end number comes from a traced run.

Every command's output goes through the correctness gate.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the machine and build
metadata and a readable summary.  README.md next to this file explains the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

import harness
from workloads import WORKLOADS, gate, strict_json

#: End-to-end metrics the result line carries, with their units.
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

#: Reported in the summary only.  A workload without verify or sample
#: commands has no value for the first two, and ``failed_frac`` is 0 on a
#: correct program; the result line carries it as ``failed / attempted``.
SUMMARY_ONLY = {"verify_points_per_s": "1/s", "accepted_per_s": "1/s", "failed_frac": "1"}

#: Least number of set-up probes per run; the reported set-up time is
#: their median.
SETUP_PROBES = 7

#: Metric units of the traced run.
PER_LAYER_UNITS = {"_per_s": "1/s", ".s": "s", ".ms": "ms", ".us": "us", ".ns": "ns", ".peak_mb": "MiB"}


@dataclass
class PassStats:
    """Totals over one pass of a workload's commands."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    verify_points: int = 0
    verify_wall_s: float = 0.0
    accepted: int = 0
    sample_wall_s: float = 0.0
    failed: int = 0
    problems: list = field(default_factory=list)


def _work(cmd, stdout: str) -> int:
    """Checked grid points (points x checks) of a verify command, or the
    accepted runs of a sample command."""
    report = strict_json(stdout)
    if cmd.kind == "verify":
        return report["config"]["grid_points"] * len(report["config"]["checks"])
    return report["results"]["accepted"]


def run_pass(commands) -> PassStats:
    stats = PassStats()
    for cmd in commands:
        done = harness.run_cli(cmd.argv)
        stats.wall_s += done.wall_s
        stats.cpu_s += done.cpu_s
        stats.peak_rss_mb = max(stats.peak_rss_mb, done.maxrss_mib)
        problems = gate(cmd, done.returncode, done.stdout)
        if problems:
            stats.failed += 1
            stats.problems.append({"argv": list(cmd.argv), "problems": problems,
                                   "stderr": done.stderr[-2000:]})
            continue
        if cmd.kind == "verify":
            stats.verify_points += _work(cmd, done.stdout)
            stats.verify_wall_s += done.wall_s
        elif cmd.kind == "sample":
            stats.accepted += _work(cmd, done.stdout)
            stats.sample_wall_s += done.wall_s
    return stats


def _refuse_if_traced() -> None:
    import retrobell.cli as cli

    tracer_installed = cli.main.__module__ != "retrobell.cli"
    if sys.gettrace() is not None or sys.getprofile() is not None or tracer_installed:
        raise RuntimeError("tracing is on; end-to-end numbers are only taken untraced")


def _spread(values) -> dict:
    values = list(values)
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def measure_end_to_end(commands, seconds: float, setup_probes: int = SETUP_PROBES) -> dict:
    """Untraced run: whole passes for ``seconds``, each after a set-up probe."""
    _refuse_if_traced()
    harness.run_python(harness.SETUP_PROBE)  # warm-up: writes bytecode caches
    # One probe before each pass spreads the probes over the whole run.
    probes: list[harness.Completed] = []
    passes: list[PassStats] = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        probes.append(harness.run_python(harness.SETUP_PROBE))
        passes.append(run_pass(commands))
        took = time.perf_counter() - start
        if time.perf_counter() + took > deadline:
            break
    while len(probes) < setup_probes:
        probes.append(harness.run_python(harness.SETUP_PROBE))
    probe_failures = sum(p.returncode != 0 for p in probes)

    attempted = len(probes) + len(commands) * len(passes)
    failed = probe_failures + sum(p.failed for p in passes)
    summary = {
        "wall_s": _spread(p.wall_s for p in passes),
        "cpu_s": _spread(p.cpu_s for p in passes),
        "peak_rss_mb": _spread(p.peak_rss_mb for p in passes),
        "setup_s": _spread(p.wall_s for p in probes),
        "failed_frac": {"value": failed / attempted, "n": attempted},
    }
    for name, work, wall in (
        ("verify_points_per_s", "verify_points", "verify_wall_s"),
        ("accepted_per_s", "accepted", "sample_wall_s"),
    ):
        rates = [getattr(p, work) / getattr(p, wall) for p in passes if getattr(p, wall)]
        summary[name] = _spread(rates) if rates else None
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": summary[name]["median"], "unit": unit}
            for name, unit in END_TO_END.items()
        },
        "summary": summary,
        "problems": [p for s in passes for p in s.problems],
    }


def measure_traced(commands, seconds: float) -> dict:
    import tracing

    result = tracing.traced_run(commands, seconds)
    metrics = {}
    for name, value in sorted(result.metrics.items()):
        unit = next((u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix)),
                    "count" if name in tracing.COUNTERS else "1")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": result.failed == 0 and result.counters_repeat,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
        "summary": {"traced_passes": result.passes,
                    "counters_repeat": result.counters_repeat},
    }


def _print_summary(name: str, result: dict) -> None:
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    summary = result["summary"]
    if "wall_s" in summary:
        for metric, unit in {**END_TO_END, **SUMMARY_ONLY}.items():
            s = summary[metric]
            if s is None:
                print(f"  {metric:<22} n/a (no such commands in this workload)")
            elif "median" in s:
                print(f"  {metric:<22} {s['median']:.6g} {unit}  "
                      f"(median of {s['n']}; min {s['min']:.6g}, max {s['max']:.6g})")
            else:
                print(f"  {metric:<22} {s['value']:.6g}  (of {s['n']} commands)")
    else:
        for metric, m in result["metrics"].items():
            print(f"  {metric:<42} {m['value']:.6g} {m['unit']}")
    for problem in result.get("problems", []):
        print(f"  FAILED {' '.join(problem['argv'])}: {problem['problems']}")
    print("summary " + json.dumps({"workload": name, **summary}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not harness.have_sources():
        print(f"error: no retrobell sources under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"error: unknown workload {args.workload!r}; have {list(WORKLOADS)} or all",
              file=sys.stderr)
        return 2

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        meta = harness.machine_metadata(name, args.seed, bool(args.trace))
        print("meta " + json.dumps(meta), flush=True)
        commands = WORKLOADS[name](args.seed)
        if args.trace:
            result = measure_traced(commands, args.seconds)
        else:
            result = measure_end_to_end(commands, args.seconds)
        _print_summary(name, result)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in result["metrics"].items():
            combined["metrics"][prefix + metric] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
