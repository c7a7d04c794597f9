"""Count the code lines of the ``zenodecay`` package, per module and in total.

A line counts when it holds a token that is neither a comment nor part of
a module, class or function docstring; blank lines, comment lines and
docstrings do not count.  A token spanning several lines (a multi-line
string that is not a docstring, say) counts on every line it spans.

Run from anywhere:

    python3 tools/code_lines.py [package directory] [--against REF]

The directory defaults to ``src/zenodecay`` next to this script.  With
``--against REF`` each module's count at the git ref REF (read with
``git show``) stands next to its count in the working tree, with the
difference; a module present on one side only counts 0 on the other.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of the module, its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of ``source`` holding a token other than a comment or docstring."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIPPED:
            continue
        if tok.type == tokenize.STRING and tok.start[0] in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _counts_at(ref: str, package: Path) -> dict[str, int]:
    """Code lines per module of ``package`` at the git ref ``ref``."""
    def git(*args):
        return subprocess.run(["git", "-C", str(package), *args], check=True,
                              capture_output=True, text=True).stdout

    names = [n for n in git("ls-tree", "--name-only", ref, "--", ".").split() if n.endswith(".py")]
    return {n[:-3]: code_lines(git("show", f"{ref}:./{n}")) for n in names}


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "zenodecay"
    parser = argparse.ArgumentParser(description="Count the code lines of a package.")
    parser.add_argument("package", nargs="?", type=Path, default=default)
    parser.add_argument("--against", metavar="REF", help="also count at this git ref")
    args = parser.parse_args(argv[1:])
    here = {path.stem: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(args.package.glob("*.py"))}
    if args.against is None:
        for name, n in here.items():
            print(f"{name:12s} {n:5d}")
        print(f"{'total':12s} {sum(here.values()):5d}")
        return 0
    try:
        there = _counts_at(args.against, args.package)
    except subprocess.CalledProcessError as exc:
        print(exc.stderr.strip(), file=sys.stderr)
        return 2
    print(f"{'module':12s} {'ref':>5s} {'tree':>5s} {'diff':>5s}    (ref = {args.against})")
    for name in sorted(here.keys() | there.keys()) + ["total"]:
        old, new = (sum(c.values()) if name == "total" else c.get(name, 0) for c in (there, here))
        print(f"{name:12s} {old:5d} {new:5d} {new - old:+5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
