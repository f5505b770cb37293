"""The line counter of tools/count_code_lines.py."""

from helpers import load_tool

count_code_lines = load_tool("count_code_lines")

SOURCE = '''"""Module docstring,
two lines."""

import os  # a comment after code counts as code


class A:
    """Class docstring."""

    # a comment line
    x = """a string that is
not a docstring"""

    def f(self):
        """One line."""
        return (
            1
        )
'''


def test_counts_code_and_skips_comments_blank_lines_and_docstrings():
    # import, class, x (2 lines), def, return (3 lines)
    assert count_code_lines.code_lines(SOURCE) == 8


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert count_code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "9"]
    assert lines[-1].split()[1] == "total"
