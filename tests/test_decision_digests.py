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
    # k-colorability's non-strict fallback at k > Δ+1, and the clique
    # decider's step-1 "no" and unforced step-4 "yes" and step-3 "no"
    later = [
        "decide kcolor-4 C5 non-strict",
        "decide kcolor-6 E6 non-strict",
        "decide avg-3-0 T54-stripped",
        "decide avg-8-2 T481-cut-0-61-62",
        "decide avg-8-2 T481-cut-0-61-62-63-plus-0-1",
    ]
    assert set(later) <= names
    # after the calibrations, so that the lines of the first corpus stay a prefix
    order = [line.split("  ", 1)[1] for line in printed[:-1]]
    calibrations = [i for i, name in enumerate(order) if not name.startswith("decide ")]
    assert min(order.index(name) for name in later) > max(calibrations)


def test_the_later_decisions_reach_the_exits_they_name():
    outcomes = dict(decision_digests.later_decisions())
    assert b"exhaustive search (sub-threshold fallback)" in outcomes["kcolor-6 E6 non-strict"]
    assert b"vertices peeled, above the bound" in outcomes["avg-3-0 T54-stripped"]
    assert outcomes["avg-8-2 T481-cut-0-61-62"].startswith(b"('yes', None")
    assert b"has neighbors in every class" in outcomes["avg-8-2 T481-cut-0-61-62-63-plus-0-1"]


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
