"""The code-line count of `tests/code_lines.py` and its comparison with a revision."""
from code_lines import code_lines, compare

SAMPLE = '''"""A module docstring
over two lines."""
import math  # a trailing comment

# a comment line


def f(x):
    """A function docstring."""
    y = "a string assigned is code"
    return math.fsum(
        [x, len(y)],
    )
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # import, def, the assignment and the three-line call
    assert code_lines(SAMPLE) == 6


def test_compare_rows_each_module_of_either_side_then_the_total():
    before = {"a.py": 10, "b.py": 5, "gone.py": 3}
    after = {"a.py": 8, "b.py": 5, "new.py": 4}
    assert compare(before, after) == [
        ("a.py", 10, 8, -2),
        ("b.py", 5, 5, 0),
        ("gone.py", 3, 0, -3),
        ("new.py", 0, 4, 4),
        ("total", 18, 17, -1),
    ]
