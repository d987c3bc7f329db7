"""The code-line count of `tests/code_lines.py`."""
from code_lines import code_lines

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
