"""Process helpers shared by the benchmark's untraced and traced modes.

Every CLI command the benchmark times runs as a fresh
``python -m retrobell.cli`` subprocess with ``PYTHONPATH=src``, so its wall
time includes interpreter start and ``import retrobell``, which is what a
user of the command line pays.  CPU time and peak resident memory come from
the child's own rusage, read with ``os.wait4``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata as importlib_metadata
from pathlib import Path

#: Root of the checkout: the directory that holds ``bench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A command that has not exited after this many seconds is killed and
#: counted as failed, so one hung command cannot stall a run.
COMMAND_TIMEOUT = 120.0

#: The set-up probe: import the CLI and build the four stock models, then
#: exit without running a check.  It is the same on every workload.
SETUP_PROBE = (
    "-c",
    "import retrobell.cli as cli\n"
    "for build in cli.MODEL_BUILDERS.values():\n"
    "    build()\n",
)


@dataclass(frozen=True)
class Completed:
    """One finished subprocess: exit code, output and its own resource use."""

    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_mib: float


def have_sources() -> bool:
    return (SRC / "retrobell" / "cli.py").is_file()


def run_python(args) -> Completed:
    """Run ``python <args>`` from the checkout root and reap it with wait4.

    Both pipes are drained (stderr on a helper thread) before the child is
    reaped, so a chatty child cannot block on a full pipe.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    killer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Completed(
        returncode=proc.returncode,
        stdout=out.decode("utf-8", "replace"),
        stderr=err[0].decode("utf-8", "replace"),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mib=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def run_cli(argv) -> Completed:
    return run_python(("-m", "retrobell.cli", *argv))


# ---------------------------------------------------------------------------
# Machine and build metadata
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args) -> str | None:
    # The checkout may sit inside some other repository; stop git from
    # walking up past the checkout root and reporting that one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    """SHA-256 over the package sources, which identifies the build even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_metadata(workload: str, seed: int, trace: bool) -> dict:
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    try:
        numpy_version = importlib_metadata.version("numpy")
    except importlib_metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": _src_digest(),
    }
