"""Print the code lines of each `src/littlewood/*.py` module and their total.

A physical line is a code line when a token covers it.  Comments, blank lines
and docstrings (a string statement standing alone) cover none.  Standard
library only; run from the repository root:

    python tests/code_lines.py
"""
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "littlewood"

# tokens that hold no code: layout, comments and the end of input
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of physical lines of `source` that a code token covers."""
    covered: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the code tokens of the logical line
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            # a docstring is a logical line of string tokens alone
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    covered.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(covered)


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:20} {n:5}")
    print(f"{'total':20} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
