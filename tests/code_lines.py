"""Print the code lines of each `src/littlewood/*.py` module and their total.

A physical line is a code line when a token covers it.  Comments, blank lines
and docstrings (a string statement standing alone) cover none.  Standard
library only; run from the repository root:

    python tests/code_lines.py

Given a git revision, each row holds the module's code lines at that
revision, in the working tree and the difference, and a module that exists
on one side only counts 0 on the other:

    python tests/code_lines.py HEAD
"""
import io
import subprocess
import sys
import tokenize
from pathlib import Path, PurePosixPath

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "littlewood"

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


def compare(before: dict[str, int], after: dict[str, int]) -> list[tuple[str, int, int, int]]:
    """(module, lines before, lines after, difference) for each module of either
    side, a missing one counting 0, in name order, then the total row."""
    rows = [(name, before.get(name, 0), after.get(name, 0))
            for name in sorted(before.keys() | after.keys())]
    rows.append(("total", sum(b for _, b, _ in rows), sum(a for _, _, a in rows)))
    return [(name, b, a, a - b) for name, b, a in rows]


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          encoding="utf-8").stdout


def _counts_at(rev: str) -> dict[str, int]:
    paths = _git("ls-tree", "--name-only", rev, "src/littlewood/").split()
    return {PurePosixPath(path).name: code_lines(_git("show", f"{rev}:{path}"))
            for path in paths if path.endswith(".py")}


def main(argv: list[str]) -> int:
    now = {path.name: code_lines(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}
    if not argv:
        for name, n in [*now.items(), ("total", sum(now.values()))]:
            print(f"{name:20} {n:5}")
        return 0
    for name, b, a, d in compare(_counts_at(argv[0]), now):
        print(f"{name:20} {b:5} {a:5} {d:+5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
