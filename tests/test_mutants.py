"""The sites and mutants of `tests/mutants.py`, a run that leaves the checkout
as it was, and the form of the verdicts in `tests/mutants.txt`."""
import ast
import re

import mutants

SAMPLE = '''def f(a, b=2):
    """A docstring: 3 < 4 is no site."""
    if a < b and b != 0:
        a += 1
    return a * b - a // 3, a ** 2 << 1, a / b > -1, a % 2 is None
'''


def test_sites_are_operators_and_integer_constants_in_source_order():
    # % and `is` are no sites, and -1 is the constant 1 negated
    assert [label for *_, label in mutants.sites(ast.parse(SAMPLE))] == [
        "1:11 2 -> 3",
        "3:8 < -> <=", "3:12 and -> or", "3:18 != -> ==", "3:22 0 -> 1",
        "4:9 + -> -", "4:13 1 -> 2",
        "5:12 * -> //", "5:16 - -> +", "5:20 // -> *", "5:24 3 -> 4", "5:28 ** -> *",
        "5:32 2 -> 3", "5:33 << -> >>", "5:37 1 -> 2", "5:41 / -> *", "5:45 > -> >=",
        "5:49 1 -> 2", "5:56 2 -> 3",
    ]


def _differences(a: ast.AST, b: ast.AST) -> list[tuple[ast.AST, ast.AST]]:
    """The pairs of nodes, in walk order, that differ in type or constant value."""
    pairs = list(zip(ast.walk(a), ast.walk(b), strict=True))
    return [(x, y) for x, y in pairs
            if type(x) is not type(y) or isinstance(x, ast.Constant) and x.value != y.value]


def test_each_mutant_differs_from_the_source_in_one_node():
    tree = ast.parse(SAMPLE)
    labels = [label for *_, label in mutants.sites(tree)]
    for i, label in enumerate(labels):
        got, text = mutants.mutant(SAMPLE, i)
        assert got == label
        assert len(_differences(tree, ast.parse(text))) == 1, label
    # the doctest-bearing docstring comes through unchanged
    assert ast.get_docstring(ast.parse(mutants.mutant(SAMPLE, 0)[1]).body[0]) == (
        "A docstring: 3 < 4 is no site.")


def _checkout():
    return {path: path.stat().st_mtime_ns for path in mutants.ROOT.rglob("*")
            if ".git" not in path.relative_to(mutants.ROOT).parts}


def test_a_run_kills_a_mutant_and_writes_nothing_under_the_checkout():
    tests = ["tests/test_doctests.py::test_doctests[littlewood.ratpoly]"]
    source = (mutants.ROOT / "src" / "littlewood" / "ratpoly.py").read_text(encoding="utf-8")
    # poly_shift's inner loop from two past the end: its doctests raise IndexError
    i = next(i for i in range(len(mutants.sites(ast.parse(source))))
             if "range(len(a) + 2," in mutants.mutant(source, i)[1])
    before = _checkout()
    assert mutants.run_subset("ratpoly", None, tests, 60)[0]
    assert not mutants.run_subset("ratpoly", mutants.mutant(source, i)[1], tests, 60)[0]
    assert _checkout() == before


def test_every_verdict_is_one_of_three():
    verdicts = mutants.read_verdicts()
    assert verdicts
    for site, verdict in verdicts.items():
        assert re.fullmatch(r"\w+\.py:\d+:\d+ \S+ -> \S+", site), site
        assert re.match(r"killed by tests/test_\w+\.py::\w+|deleted: |equivalent: ",
                        verdict), site
