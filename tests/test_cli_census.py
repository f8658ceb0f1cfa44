"""Smoke test of ``tools/cli_census.py``, the CLI byte-identity census."""

import hashlib
import importlib.util
from pathlib import Path

from retrobell.cli import main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_census.py"


def load_census():
    spec = importlib.util.spec_from_file_location("cli_census", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_census_lines_digest_exit_code_and_streams(capsys):
    census = load_census()
    for argv, code in ((("chsh", "--lhv"), 0), (("sample", "--model", "bell"), 2)):
        line = census.run(argv)
        assert main(list(argv)) == code
        out, err = capsys.readouterr()
        assert line == {"argv": list(argv), "exit": code,
                        "stdout": sha256(out), "stderr": sha256(err)}
