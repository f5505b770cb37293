"""The digest list of tools/format_digests.py."""

import contextlib
import hashlib
import io
import re

import pytest

from helpers import load_tool

format_digests = load_tool("format_digests")


@pytest.fixture(scope="module")
def printed():
    """The tool's output, built once: the corpus serializes T(1200, 3)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert format_digests.main([]) == 0
    return out.getvalue().splitlines()


def test_prints_one_digest_per_case_and_one_of_them_all(printed):
    names = [line.split("  ", 1)[1] for line in printed]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in printed)
    assert names[-1] == "all" and len(set(names)) == len(names)
    assert printed[-1].split()[0] == hashlib.sha256("\n".join(printed[:-1]).encode()).hexdigest()


def test_the_corpus_holds_every_kind_of_case(printed):
    kinds = {line.split("  ", 1)[1].split()[0] for line in printed[:-1]}
    assert kinds == {"serialize", "gen", "parse", "report"}


def test_the_reports_read_every_spelling_from_a_file_and_stdin(tmp_path):
    cases = dict(format_digests.reports(tmp_path))
    for spelling in ("lf", "crlf", "cr", "utf8-comment"):
        for name in ("decide-kcolor", "cluster"):
            file, stdin = (cases[f"report {name} {spelling} {source}"] for source in ("file", "stdin"))
            assert file == stdin and file.startswith(b"0\n{") and b"wall_time_s" not in file
    for spelling in ("latin1-comment", "bom"):
        case = cases[f"report cluster {spelling} file"]
        assert case.startswith(b"3\nnull\nlinkclust: error: ")


def test_an_argument_prints_the_usage(capsys):
    assert format_digests.main(["--help"]) == 2
    assert "format_digests.py" in capsys.readouterr().err
