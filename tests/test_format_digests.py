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
    assert kinds == {"serialize", "gen", "parse"}


def test_an_argument_prints_the_usage(capsys):
    assert format_digests.main(["--help"]) == 2
    assert "format_digests.py" in capsys.readouterr().err
