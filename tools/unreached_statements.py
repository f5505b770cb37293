"""Print each statement of ``src/linkclust`` that a pytest run never executes.

The repository has no coverage package, and Python 3.11 has no
``sys.monitoring``, so this tool traces lines itself: it runs pytest in this
process under ``sys.settrace`` and ``threading.settrace``, with a line
tracer only in the frames whose code lies in ``src/linkclust``.  A
statement is reached when any line it spans, decorators included, ran.
Docstrings and other constant expressions, which compile to nothing, are
left out.  Run from the repository root:

    python3 tools/unreached_statements.py [pytest args]

With no argument it runs ``tests``.  It prints ``module:line: source`` for
each unreached statement, with the first line of its source, and exits with
pytest's status.  Code that runs only in a subprocess, such as
``__main__.py`` and ``cli.main()`` under ``python -m linkclust``, shows as
unreached.  Tracing makes the run about twice as slow.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path
from typing import Callable, TypeVar

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "linkclust"

T = TypeVar("T")


def trace_lines(root: Path, run: Callable[[], T]) -> tuple[T, dict[str, set[int]]]:
    """``run()``'s result and, for each file under ``root`` whose code ran
    meanwhile, the numbers of the lines that ran.  The tracers that were
    installed before are restored afterwards."""
    prefix = str(root.resolve())
    lines: dict[str, set[int]] = defaultdict(set)
    inside: dict[object, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def enter(frame, event, arg):
        code = frame.f_code
        if code not in inside:
            inside[code] = code.co_filename.startswith(prefix)
        return local if inside[code] else None

    before = sys.gettrace(), threading.gettrace()
    threading.settrace(enter)
    sys.settrace(enter)
    try:
        result = run()
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    return result, dict(lines)


def _spans(tree: ast.AST) -> list[tuple[int, int]]:
    """``(first, last)`` lines of every statement in ``tree`` that compiles to
    code, a decorated definition from its first decorator."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring or another constant: no code
        decorators = getattr(node, "decorator_list", [])
        first = min([node.lineno, *(d.lineno for d in decorators)])
        spans.append((first, node.end_lineno))
    return sorted(spans)


def unreached(source: str, ran: set[int]) -> list[tuple[int, str]]:
    """``(line, first line of source)`` of each statement of ``source`` with
    no line in ``ran``."""
    text = source.splitlines()
    return [
        (first, text[first - 1].strip())
        for first, last in _spans(ast.parse(source))
        if not any(line in ran for line in range(first, last + 1))
    ]


def main(argv: list[str]) -> int:
    import pytest

    status, lines = trace_lines(PACKAGE, lambda: pytest.main(argv or ["tests"]))
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        for line, text in unreached(path.read_text(encoding="utf-8"), lines.get(str(path), set())):
            print(f"{module}:{line}: {text}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
