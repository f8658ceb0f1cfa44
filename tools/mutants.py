#!/usr/bin/env python3
"""Mutation score of named functions: would the tests notice a wrong operator?

Each mutant swaps one operator in one target function, from a fixed set:
``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``+``/``-``, ``*``/``/``,
``//``/``%`` and ``and``/``or``, and, passed as a value (``map(truediv, ...)``),
a function the module imports from ``operator``: ``truediv``/``mul`` and
``add``/``sub``, each written as an inline ``lambda`` so that the mutant imports
nothing new.  The
mutant module is written into a copy of the tree (never the tree itself), and
the target's test files run against it with ``-x``.  A failing run kills the
mutant; a passing one lets it survive.

    python3 tools/mutants.py                      # every module in TARGETS
    python3 tools/mutants.py --module dist        # one module

It prints one line per mutant (file, line, function, swap, killed or
survived, seconds) and then the score.  Modules are rewritten through
``ast.unparse``, so the copy loses comments; before any mutant, the
unmutated rewrite must pass the same tests, and the target module must
import from the copy.  A run takes minutes: it is a measurement, not part of
the test suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: Seconds per test run; a slower mutant counts as killed.
TIMEOUT = 600.0

#: Each operator, or ``operator`` function by name, and the one it becomes.
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.Div, ast.Div: ast.Mult, ast.FloorDiv: ast.Mod, ast.Mod: ast.FloorDiv,
    ast.And: ast.Or, ast.Or: ast.And,
    "truediv": "mul", "mul": "truediv", "add": "sub", "sub": "add",
}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.FloorDiv: "//", ast.Mod: "%", ast.And: "and", ast.Or: "or"}

#: Each ``operator`` function of ``SWAPS`` as the inline ``lambda`` that replaces it.
INLINE = {"truediv": "lambda a, b: a / b", "mul": "lambda a, b: a * b",
          "add": "lambda a, b: a + b", "sub": "lambda a, b: a - b"}


class Target(NamedTuple):
    """A module under ``src/``, the functions (qualified names) mutated in it, and
    the test files run against each mutant."""

    path: str
    functions: tuple[str, ...]
    tests: tuple[str, ...]


#: The test files that read the checks and their tables.
CHECK_TESTS = tuple(f"tests/{name}.py" for name in (
    "test_backward", "test_tabulation", "test_sweep_parity", "test_table_parity",
    "test_float_forms", "test_conditioned_parity", "test_dist", "test_acceptance",
    "test_one_point_tabulation"))

TARGETS = {
    "dist": Target("src/retrobell/dist.py",
                   ("_normalized", "_arrays", "_form", "_rows", "_table", "_point_major", "_at",
                    "_per_value", "_first_worst", "_slots", "_runs", "_spreads", "_all", "_top",
                    "make_joint", "marginalize", "condition", "tv_distance"),
                   CHECK_TESTS),
    "backward": Target("src/retrobell/backward.py", (
        "Tabulation._weights", "Tabulation.marginal", "Tabulation.conditioned",
        "BackwardModel._sweep",
        "BackwardModel.verify_si", "BackwardModel.verify_no_signalling",
        "BackwardModel._wing_marginal", "BackwardModel.verify_kernel_normalization",
        "BackwardModel.verify_recovery", "BackwardModel.lc_violation_witness",
        "BackwardModel.tabulate", "BackwardModel._checked", "BackwardModel.check_settings",
        "collider_model", "bell_table", "_point_case"), CHECK_TESTS),
    "chsh": Target("src/retrobell/chsh.py",
                   ("chsh_value", "lhv_max_chsh", "_max_chsh", "quantum_chsh_scan",
                    "backward_model_chsh"),
                   ("tests/test_chsh.py", "tests/test_conditioned_parity.py",
                    "tests/test_acceptance.py")),
    "ghz": Target("src/retrobell/ghz.py", ("classical_assignment_exhaustion",),
                  ("tests/test_ghz.py", "tests/test_acceptance.py", "tests/test_cli.py")),
    "sampling": Target("src/retrobell/sampling.py",
                       ("_cell_z", "_correlation_z", "_label_bounds", "sample_postselected"),
                       ("tests/test_sampling.py", "tests/test_sampler_parity.py")),
}


class Site(NamedTuple):
    function: str
    line: int
    before: type | str  # an operator's node type, or an ``operator`` function's name
    index: int  # the site's place among the function's sites, in walk order


def _functions(tree: ast.Module) -> dict[str, ast.AST]:
    """Every function and method of ``tree`` by qualified name (``Class.method``)."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    found.setdefault(name, child)
                visit(child, name + ".")

    visit(tree, "")
    return found


def _imported(tree: ast.Module) -> set[str]:
    """The functions of ``INLINE`` that ``tree`` imports from ``operator`` by name."""
    return {alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module == "operator"
            for alias in node.names if alias.name in INLINE and alias.asname is None}


def _kind(op: ast.AST) -> type | str:
    """A site's key in ``SWAPS``: an operator's node type, or a function's name."""
    return op.id if isinstance(op, ast.Name) else type(op)


def _operators(function: ast.AST, names: set[str]):
    """``(node, attribute, position, operator)`` for each swappable operator in
    ``function``, nested functions included, in ``ast.walk`` order: an operator of
    ``node``, or a ``Name`` of ``names`` read as a value, a child of ``node``."""
    for node in ast.walk(function):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield node, "ops", k, op
        elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
            yield node, "op", None, node.op
        for attribute, value in ast.iter_fields(node):
            children = enumerate(value) if isinstance(value, list) else [(None, value)]
            for k, child in children:
                if (isinstance(child, ast.Name) and child.id in names
                        and isinstance(child.ctx, ast.Load)):
                    yield node, attribute, k, child


def _function(tree: ast.Module, name: str, path: str) -> ast.AST:
    functions = _functions(tree)
    if name not in functions:
        raise SystemExit(f"{path} defines no function {name!r}")
    return functions[name]


def sites(source: str, target: Target) -> list[Site]:
    """Every mutation site of ``target``'s functions in ``source``, in source order."""
    tree = ast.parse(source)
    found = []
    for name in target.functions:
        operators = _operators(_function(tree, name, target.path), _imported(tree))
        found += sorted((Site(name, getattr(op, "lineno", node.lineno), _kind(op), i)
                         for i, (node, _, _, op) in enumerate(operators)),
                        key=lambda site: (site.line, site.index))
    return found


def mutant(source: str, target: Target, site: Site) -> str:
    """``source`` rewritten with the operator at ``site`` swapped."""
    tree = ast.parse(source)
    operators = list(_operators(_function(tree, site.function, target.path), _imported(tree)))
    node, attribute, position, op = operators[site.index]
    after = SWAPS[_kind(op)]
    swapped = ast.parse(INLINE[after], mode="eval").body if isinstance(after, str) else after()
    if position is None:
        setattr(node, attribute, swapped)
    else:
        getattr(node, attribute)[position] = swapped
    return ast.unparse(tree) + "\n"


def _copy(root: Path, into: Path) -> Path:
    copy = into / "tree"
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", ".bench_build"))
    return copy


def _environment(copy: Path) -> dict:
    # no bytecode: a mutant of the same size and second would reuse a stale .pyc
    return dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")


def _tests(copy: Path, tests: tuple[str, ...], timeout: float) -> tuple[bool, str]:
    """Whether ``tests`` pass in ``copy``, and pytest's output; a run past
    ``timeout`` counts as failing."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=_environment(copy), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {timeout} s"
    return proc.returncode == 0, proc.stdout + proc.stderr


def _check_import(copy: Path, path: str) -> None:
    """Stop unless the target module imports from the copy."""
    module = ".".join(Path(path).relative_to("src").with_suffix("").parts)
    proc = subprocess.run(
        [sys.executable, "-c", "import importlib, sys; "
         "print(importlib.import_module(sys.argv[1]).__file__)", module],
        cwd=copy, env=_environment(copy), capture_output=True, text=True)
    if proc.returncode or Path(proc.stdout.strip()).resolve() != (copy / path).resolve():
        raise SystemExit(f"{module} does not import from the copy: {proc.stdout}{proc.stderr}")


def run(root: Path, targets: list[Target], timeout: float = TIMEOUT, out=None) -> tuple[int, int]:
    """Mutate each target in a copy of ``root``; print a line per mutant and the
    score, and return ``(killed, total)``."""
    killed = total = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = _copy(root, Path(scratch))
        for target in targets:
            file = copy / target.path
            source = file.read_text()
            found = sites(source, target)
            file.write_text(ast.unparse(ast.parse(source)) + "\n")
            _check_import(copy, target.path)
            passed, output = _tests(copy, target.tests, timeout)
            if not passed:
                raise SystemExit(f"{target.path}: the tests fail on the unmutated rewrite\n"
                                 + output[-2000:])
            for site in found:
                file.write_text(mutant(source, target, site))
                start = time.perf_counter()
                survived, _ = _tests(copy, target.tests, timeout)
                seconds = time.perf_counter() - start
                before = SYMBOLS.get(site.before, site.before)  # a function by its name
                after = SYMBOLS.get(SWAPS[site.before], SWAPS[site.before])
                print(f"{target.path}:{site.line} {site.function} {before} -> {after} "
                      f"{'survived' if survived else 'killed'} {seconds:.1f}s", file=out, flush=True)
                killed += not survived
                total += 1
            file.write_text(source)
    print(f"score: {killed}/{total} killed", file=out, flush=True)
    return killed, total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", action="append", choices=sorted(TARGETS),
                        help="a module of TARGETS (repeatable; default: all)")
    args = parser.parse_args(argv)
    run(ROOT, [TARGETS[m] for m in args.module or sorted(TARGETS)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
