"""The README's library example runs and gives the values its comments state.

The ```python blocks run in order in one namespace.  Each expression
statement with a trailing comment is evaluated on its own, and the values
listed in ``STATED`` (and every comment that begins with ``True``) are
asserted: exact types and values for ``Fraction``s, 1e-12 for floats.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"

#: Each stated value, by the comment that states it.
STATED = {
    "0.375": 0.375,
    "(0.25, 0.5)": (0.25, 0.5),
    "Fraction(4)": Fraction(4),
    "Fraction(0, 1)": Fraction(0),
    "Fraction(2, 1)": Fraction(2),
}


def _commented_values():
    """(comment, value) for each commented expression statement, in order."""
    namespace, found = {}, []
    for block in re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        lines = block.splitlines()
        for node in ast.parse(block).body:
            if not isinstance(node, ast.Expr):
                exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(node.value), str(README), "eval"), namespace)
            comment = lines[node.end_lineno - 1].partition("#")[2].strip()
            if comment:
                found.append((comment, value))
    return found


def test_readme_example_gives_the_stated_values():
    found = _commented_values()
    stated = [(c, v) for c, v in found if c in STATED]
    assert sorted({c for c, _ in stated}) == sorted(STATED)
    for comment, value in stated:
        expected = STATED[comment]
        if isinstance(expected, Fraction):
            assert type(value) is Fraction and value == expected, comment
        else:
            assert value == pytest.approx(expected, abs=1e-12), comment
    truths = [(c, v) for c, v in found if c.split(":")[0] == "True"]
    assert len(truths) == 5
    for comment, value in truths:
        assert value is True, comment
