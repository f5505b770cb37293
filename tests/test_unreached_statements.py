"""The statement tracer of tools/unreached_statements.py."""

import importlib.util
import sys

from helpers import load_tool

unreached_statements = load_tool("unreached_statements")

SOURCE = '''"""Module docstring."""


def pick(flag):
    """Function docstring."""
    if flag:
        value = (
            1
        )
    else:
        value = 2
    return value


@staticmethod
def never(x):
    return x
'''


def _load(path):
    spec = importlib.util.spec_from_file_location("traced_module", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_the_branch_not_taken_is_unreached(tmp_path):
    path = tmp_path.resolve() / "traced_module.py"
    path.write_text(SOURCE)
    tracer = sys.gettrace()
    value, lines = unreached_statements.trace_lines(tmp_path, lambda: _load(path).pick(True))
    assert value == 1
    assert sys.gettrace() is tracer
    assert list(lines) == [str(path)]
    assert unreached_statements.unreached(SOURCE, lines[str(path)]) == [
        (11, "value = 2"),
        (17, "return x"),
    ]


def test_a_file_that_never_ran_is_all_unreached():
    # the docstrings compile to nothing, so they are never listed
    assert unreached_statements.unreached(SOURCE, set()) == [
        (4, "def pick(flag):"),
        (6, "if flag:"),
        (7, "value = ("),
        (11, "value = 2"),
        (12, "return value"),
        (15, "@staticmethod"),
        (17, "return x"),
    ]
