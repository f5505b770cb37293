"""The digest list of tools/decision_digests.py."""

import contextlib
import hashlib
import io
import re

import pytest

from helpers import load_tool

decision_digests = load_tool("decision_digests")


@pytest.fixture(scope="module")
def printed():
    """The tool's output, built once."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert decision_digests.main([]) == 0
    return out.getvalue().splitlines()


def test_prints_one_digest_per_case_and_one_of_them_all(printed):
    names = [line.split("  ", 1)[1] for line in printed]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in printed)
    assert names[-1] == "all" and len(set(names)) == len(names)
    assert printed[-1].split()[0] == hashlib.sha256("\n".join(printed[:-1]).encode()).hexdigest()


def test_the_corpus_holds_every_kind_of_case(printed):
    kinds = {line.split("  ", 1)[1].split()[0] for line in printed[:-1]}
    assert kinds == {"decide", "lagrangian", "phi", "rigidity_report", "is_minimal"}
    names = {line.split("  ", 1)[1] for line in printed[:-1]}
    for config in decision_digests.CONFIGS:
        assert f"decide kcolor-3 T36 {config}" in names


def test_an_argument_prints_the_usage(capsys):
    assert decision_digests.main(["--help"]) == 2
    assert "decision_digests.py" in capsys.readouterr().err


def test_the_numeric_patterns_run_at_a_second_seed(printed):
    digests = {name: digest for digest, name in (line.split("  ", 1) for line in printed)}
    for call in ("lagrangian", "phi", "rigidity_report", "is_minimal"):
        # the seed draws the starts, so the runs differ; an exact record
        # reads no seed and has no second line
        assert digests[f"{call} fano seed-3"] != digests[f"{call} fano"]
        assert f"{call} C5 seed-3" not in digests
