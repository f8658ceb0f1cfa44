"""``tools/mutants.py`` on a small fixture module: mutants in a copy, a line each."""

import importlib.util
import io
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"

FIXTURE = '''\
def clamp(x, lo, hi):
    if x < lo:
        return lo
    return hi if x > hi else x


def mean(xs):
    return sum(xs) / len(xs)


def untouched(a, b):
    return a + b
'''

# x at a bound is that bound either way, so both comparison swaps survive;
# ``/`` -> ``*`` is caught
FIXTURE_TESTS = '''\
from fixture_mod import clamp, mean


def test_clamp():
    assert (clamp(-1, 0, 1), clamp(0.5, 0, 1), clamp(2, 0, 1)) == (0, 0.5, 1)


def test_mean():
    assert mean([1, 2, 3]) == 2
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_mutants_are_scored_in_a_copy(tmp_path):
    tool = load_tool()
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "fixture_mod.py").write_text(FIXTURE)
    (tmp_path / "tests" / "test_fixture_mod.py").write_text(FIXTURE_TESTS)
    target = tool.Target("src/fixture_mod.py", ("clamp", "mean"), ("tests/test_fixture_mod.py",))
    out = io.StringIO()
    assert tool.run(tmp_path, [target], timeout=60, out=out) == (1, 3)
    lines = [line.rsplit(" ", 1)[0] for line in out.getvalue().splitlines()]
    assert lines == [
        "src/fixture_mod.py:2 clamp < -> <= survived",
        "src/fixture_mod.py:4 clamp > -> >= survived",
        "src/fixture_mod.py:8 mean / -> * killed",
        "score: 1/3",
    ]
    # never in place
    assert (tmp_path / "src" / "fixture_mod.py").read_text() == FIXTURE
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == [
        "fixture_mod.py", "test_fixture_mod.py"]


def test_every_target_function_exists():
    tool = load_tool()
    root = TOOL.parent.parent
    for target in tool.TARGETS.values():
        source = (root / target.path).read_text()
        assert tool.sites(source, target)
        for test in target.tests:
            assert (root / test).is_file(), test


OPERATOR_FIXTURE = '''\
from operator import add, itemgetter, truediv


def scale(xs, t):
    return list(map(truediv, xs, [t for _ in xs]))


def shift(xs, sub):
    return [add(x, sub) for x in xs]
'''


def test_operator_functions_passed_as_values_are_swapped_inline():
    tool = load_tool()
    target = tool.Target("src/ops_mod.py", ("scale", "shift"), ())
    found = tool.sites(OPERATOR_FIXTURE, target)
    # ``sub`` is a parameter here, not the imported function, and ``itemgetter`` has no swap
    assert [(site.function, site.line, site.before) for site in found] == [
        ("scale", 5, "truediv"), ("shift", 9, "add")]
    results = []
    for site in found:
        namespace = {}
        exec(tool.mutant(OPERATOR_FIXTURE, target, site), namespace)
        results.append((namespace["scale"]([2.0, 6.0], 2.0), namespace["shift"]([1, 2], 1)))
    assert results == [([4.0, 12.0], [2, 3]), ([1.0, 3.0], [0, 1])]
