"""Count each module's lines of code, leaving out comments and docstrings.

A line counts when it holds a token that is neither a comment nor part of a
docstring (the string that opens a module, class or function body); blank
lines and the lines of a docstring do not.  This is the count that the
ROADMAP's line budget tracks.  Run from the repository root:

    python3 tools/count_code_lines.py [directory ...]

With no argument it counts ``src``.  It prints one line per module and the
total last.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv: list[str]) -> int:
    total = 0
    for root in argv or ["src"]:
        for path in sorted(Path(root).rglob("*.py")):
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
