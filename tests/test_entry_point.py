"""The console entry point: ``python -m retrobell.cli`` and ``console_main``.

``console_main`` runs numpy's OpenBLAS on one thread unless the user set
``OPENBLAS_NUM_THREADS``; no command calls BLAS, so the thread pool numpy
would otherwise start on import is pure start-up cost.  In-process
``cli.main`` leaves the environment alone.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import retrobell.cli as cli

SRC = Path(__file__).resolve().parent.parent / "src"
VAR = "OPENBLAS_NUM_THREADS"
ARGV = ["verify", "--model", "bell", "--grid", "8"]


def _env(**extra):
    env = {k: v for k, v in os.environ.items() if k != VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def _console_main_sees(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(os.environ.get(VAR)) or 0)
    with pytest.raises(SystemExit) as exit_info:
        cli.console_main()
    assert exit_info.value.code == 0
    return seen


def test_console_main_runs_blas_on_one_thread_when_unset(monkeypatch):
    monkeypatch.delenv(VAR, raising=False)
    assert _console_main_sees(monkeypatch) == ["1"]


def test_console_main_keeps_the_users_value(monkeypatch):
    monkeypatch.setenv(VAR, "3")
    assert _console_main_sees(monkeypatch) == ["3"]


def test_in_process_main_leaves_the_environment_alone(monkeypatch):
    monkeypatch.delenv(VAR, raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(ARGV) == 0
    assert VAR not in os.environ


@pytest.mark.parametrize("value", [None, "2"], ids=["unset", "set-to-2"])
def test_module_entry_point_prints_what_main_prints(value):
    env = _env() if value is None else _env(**{VAR: value})
    done = subprocess.run([sys.executable, "-m", "retrobell.cli", *ARGV], env=env,
                          capture_output=True, timeout=120)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(ARGV)
    assert (done.returncode, done.stderr) == (code, b"") == (0, b"")
    assert done.stdout == out.getvalue().encode()


PROBE = """
import os, sys
sys.path.insert(0, {src!r})
import retrobell.cli as cli

def main():
    import numpy  # noqa: F401
    print(len(os.listdir("/proc/self/task")))
    return 0

cli.main = main
cli.console_main()
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_console_process_loads_numpy_on_one_thread():
    done = subprocess.run([sys.executable, "-c", PROBE.format(src=str(SRC))], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "1\n"
