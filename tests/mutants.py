"""Mutation run over `src/littlewood` modules: which changes the tests catch.

A mutant changes one site of one module: it swaps an arithmetic operator
(+ and -, * and //, / and ** to *, << and >>), a comparison (< and <=, > and
>=, == and !=) or a boolean operator (and, or), or adds 1 to an integer
constant.  Each mutant is written into a temporary copy of `src/`, which the
tests reach through PYTHONPATH, and the module's test subset (`SUBSETS`: the
doctests, its own tests, then the other tests, refusal tables and digests
that reach it) runs on it with -x and --hypothesis-seed=0.  A failure, a run past the
timeout or past 2 GiB of address space kills the mutant.  Nothing is written
under the checkout: no bytecode, no pytest cache, no hypothesis database.
Standard library only; run from the repository root:

    python tests/mutants.py sturm piecewise
    python tests/mutants.py limits --every 3

Two mutants run at a time.  It prints one line per mutant, then each
module's survivors and killed/total.  --every N runs every N-th site only,
from the first, and the sites that `tests/mutants.txt` lists.  That file
gives each survivor found a verdict, and the script exits 1 on a survivor it
does not list as equivalent.
"""
import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERDICTS = ROOT / "tests" / "mutants.txt"

_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Pow: ast.Mult, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.And: ast.Or, ast.Or: ast.And,
}
_SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Div: "/",
    ast.Pow: "**", ast.LShift: "<<", ast.RShift: ">>",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.And: "and", ast.Or: "or",
}

_DIGESTS = ["tests/test_cli.py::test_exact_csv_pinned_digests",
            "tests/test_cli.py::test_json_pinned_digests"]
_REFUSALS = ["tests/test_refusals.py", "tests/test_cli.py::test_error_record_is_the_library_refusal"]
# per module, the test files and functions run on its mutants, in order: the
# doctests first, as they take about a second
SUBSETS = {
    "ratpoly": ["tests/test_doctests.py", "tests/test_piecewise.py", "tests/test_acceptance.py",
                *_DIGESTS],
    "sturm": ["tests/test_doctests.py", "tests/test_piecewise.py", *_DIGESTS],
    "piecewise": ["tests/test_doctests.py", "tests/test_piecewise.py", *_REFUSALS, *_DIGESTS],
    "intconv": ["tests/test_doctests.py", "tests/test_polynomials.py", *_REFUSALS,
                "tests/test_cli.py::test_empirical_csv_pinned_digests", *_DIGESTS],
    "limits": ["tests/test_doctests.py", "tests/test_limits.py", *_REFUSALS,
               "tests/test_acceptance.py", "tests/test_piecewise.py", *_DIGESTS],
}


def sites(tree: ast.AST) -> list[tuple[ast.AST, str, int | None, object, str]]:
    """(node, field, index, new value, label) for each site of `tree`, in source
    order: the field (item `index` of it when not None) gets the new value, and
    the label is "line:col old -> new", at the operator or the constant."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            before = node.left if isinstance(node, ast.BinOp) else node.target
            found.append((node, "op", None, node.op, before))
        elif isinstance(node, ast.BoolOp):
            found.append((node, "op", None, node.op, node.values[0]))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            found += [(node, "ops", i, op, operands[i])
                      for i, op in enumerate(node.ops) if type(op) in _SWAPS]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((node, "value", None, node.value, None))
    out = []
    for node, field, index, old, before in found:
        if before is None:
            line, col, new = node.lineno, node.col_offset, old + 1
            label = f"{old} -> {new}"
        else:
            line, col, new = before.end_lineno, before.end_col_offset, _SWAPS[type(old)]()
            label = f"{_SYMBOLS[type(old)]} -> {_SYMBOLS[type(new)]}"
        out.append(((line, col), (node, field, index, new, f"{line}:{col} {label}")))
    return [site for _, site in sorted(out, key=lambda pair: pair[0])]


def mutant(source: str, i: int) -> tuple[str, str]:
    """(label, source) of the mutant of `source` at site i."""
    tree = ast.parse(source)
    node, field, index, new, label = sites(tree)[i]
    if index is None:
        setattr(node, field, new)
    else:
        getattr(node, field)[index] = new
    return label, ast.unparse(tree) + "\n"


def run_subset(module: str, source: str | None, tests: list[str],
               timeout: float | None) -> tuple[bool, float]:
    """(passed, seconds) of pytest over `tests` on a fresh copy of src/, with
    `module` replaced by `source` unless that is None, reached through
    PYTHONPATH.  It runs in a scratch directory that also holds the
    hypothesis database, and a run past the timeout is stopped, with its
    child processes, and fails."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if source is not None:
            (src / "littlewood" / f"{module}.py").write_text(source, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1",
               "HYPOTHESIS_STORAGE_DIRECTORY": str(Path(tmp) / "hypothesis")}
        # the shell caps the address space, so a mutant that allocates without
        # bound fails with MemoryError
        argv = ["sh", "-c", 'ulimit -v 2097152 && exec "$@"', "sh",
                sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", "--basetemp", str(Path(tmp) / "pytest"),
                *(str(ROOT / t) for t in tests)]
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            passed = proc.wait(timeout) == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            passed = False
        return passed, time.monotonic() - start


def read_verdicts() -> dict[str, str]:
    """{"module.py:line:col old -> new": verdict} from the lines of
    `tests/mutants.txt` that are not comments, each a site and its verdict
    split by "  # "."""
    verdicts = {}
    for line in VERDICTS.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            site, verdict = line.split("  # ", 1)
            verdicts[site.strip()] = verdict.strip()
    return verdicts


def run_module(module: str, every: int, listed) -> tuple[list[str], list[str]]:
    """(the labels run, the survivors' labels) of the module's mutants, at
    every `every`-th site from the first and every site labelled in `listed`,
    two at a time, after a run of the subset on the unmutated copy, whose time
    sets the timeout."""
    tests = SUBSETS[module]
    passed, base = run_subset(module, None, tests, None)
    if not passed:
        raise SystemExit(f"{module}: the test subset fails on the unmutated source")
    timeout = 2 * base + 10
    source = (ROOT / "src" / "littlewood" / f"{module}.py").read_text(encoding="utf-8")
    labels = [f"{module}.py:{label}" for *_, label in sites(ast.parse(source))]
    chosen = [i for i, label in enumerate(labels) if i % every == 0 or label in listed]
    print(f"{module}: {len(chosen)} mutants, subset {base:.1f} s, timeout {timeout:.0f} s",
          flush=True)

    def one(i):
        passed, seconds = run_subset(module, mutant(source, i)[1], tests, timeout)
        print(f"{labels[i]}  {'SURVIVED' if passed else 'killed'}  {seconds:.1f} s", flush=True)
        return labels[i], passed

    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(one, chosen))
    return [label for label, _ in results], [label for label, passed in results if passed]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", choices=sorted(SUBSETS))
    parser.add_argument("--every", type=int, default=1,
                        help="run every N-th site and the listed ones")
    args = parser.parse_args(argv)
    verdicts = read_verdicts()
    summary, unlisted = [], []
    for module in args.modules:
        start = time.monotonic()
        run, survivors = run_module(module, args.every, verdicts)
        summary.append(f"{module}: {len(run) - len(survivors)} of {len(run)} killed "
                       f"(every {args.every}) in {time.monotonic() - start:.0f} s")
        summary += [f"  survivor {label}  # {verdicts.get(label, 'NO VERDICT')}"
                    for label in survivors]
        summary += [f"  killed, but listed as equivalent: {label}" for label in run
                    if label not in survivors and verdicts.get(label, "").startswith("equivalent")]
        unlisted += [label for label in survivors
                     if not verdicts.get(label, "").startswith("equivalent")]
    print("\n".join(summary))
    if unlisted:
        print(f"{len(unlisted)} survivors have no equivalent verdict in {VERDICTS.name}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
