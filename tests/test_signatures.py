"""Edge signature tests: the coded signature verdict against the count-matrix
reference, and the number of relabeling searches it makes."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkclust import Hypergraph, Pattern, deciders
from linkclust.deciders import DecideStats, _signature_verdict

from helpers import reference_signature_verdict


@st.composite
def signature_cases(draw):
    """``(host, pattern, labels)`` with r in {2, 3, 4} and labels that may
    leave classes empty.

    The pattern takes each of the host's own signatures under one random
    relabeling, under a relabeling of its own, or not at all, plus a few
    random multisets.  A signature taken under its own relabeling keeps its
    profile allowed, so the set can be jointly unmatchable although no single
    profile is bad.
    """
    r = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(min_value=r, max_value=8))
    pool = list(itertools.combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=30))
    num = draw(st.integers(min_value=1, max_value=5))
    labels = np.array(
        draw(st.lists(st.integers(0, num - 1), min_size=n, max_size=n)), dtype=np.int64
    )
    sigs = sorted({tuple(sorted(int(labels[v]) for v in e)) for e in edges})
    perm = draw(st.permutations(range(num)))
    multisets = list(itertools.combinations_with_replacement(range(num), r))
    chosen = set(draw(st.lists(st.sampled_from(multisets), unique=True, max_size=4)))
    for sig in sigs:
        how = draw(st.sampled_from(["shared", "own", "dropped"]))
        if how != "dropped":
            relabel = perm if how == "shared" else draw(st.permutations(range(num)))
            chosen.add(tuple(sorted(relabel[c] for c in sig)))
    return Hypergraph(r, n, edges), Pattern.from_multisets(r, num, chosen), labels


def _verdicts(host, pattern, labels):
    stats = DecideStats()
    got = _signature_verdict(host, pattern, labels, stats)
    assert stats.edges_scanned == len(host)
    return got, reference_signature_verdict(host, pattern, labels)


def _assert_same(got, want):
    (labels, edge), (want_labels, want_edge) = got, want
    assert edge == want_edge
    if want_labels is None:
        assert labels is None
    else:
        np.testing.assert_array_equal(labels, want_labels)


@given(signature_cases())
@settings(max_examples=300, deadline=None)
def test_matches_the_count_matrix_reference(case):
    _assert_same(*_verdicts(*case))


# Signatures whose profiles are all allowed but which no relabeling maps into
# the pattern together; the last edge completes the shortest unmatchable
# prefix.  For r = 2 the signatures form a triangle and the pattern is a path;
# for r = 3 and 4 all pattern edges share pattern vertices 0 and 1, while the
# three signatures share only class 0.
JOINTLY_UNMATCHABLE = [
    (
        Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3)]),
        Pattern.path(3),
        [0, 1, 2, 0],
        (2, 3),
    ),
    (
        Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)]),
        Pattern.from_multisets(3, 4, [(0, 1, 2), (0, 1, 3)]),
        [0, 1, 2, 3],
        (0, 2, 3),
    ),
    (
        Hypergraph(4, 5, [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4)]),
        Pattern.from_multisets(4, 4, [(0, 0, 1, 2), (0, 0, 1, 3)]),
        [0, 0, 1, 2, 3],
        (0, 1, 3, 4),
    ),
]


@pytest.mark.parametrize("host, pattern, labels, edge", JOINTLY_UNMATCHABLE, ids=["r2", "r3", "r4"])
def test_jointly_unmatchable_signatures(host, pattern, labels, edge):
    got, want = _verdicts(host, pattern, np.array(labels))
    _assert_same(got, want)
    assert got == (None, edge)


def test_bad_prefix_takes_logarithmically_many_searches(monkeypatch):
    # classes 0..7 around a cycle, against a path on 8 vertices: every prefix
    # of the 8 signatures is a path until the last, {0, 7}, closes the cycle
    host = Hypergraph(2, 9, [(v, v + 1) for v in range(8)])
    labels = np.array([0, 1, 2, 3, 4, 5, 6, 7, 0])
    pattern = Pattern.path(8)
    calls = []
    original = deciders._match_to_pattern

    def counting(sigs, pat):
        calls.append(len(sigs))
        return original(sigs, pat)

    monkeypatch.setattr(deciders, "_match_to_pattern", counting)
    got, want = _verdicts(host, pattern, labels)
    _assert_same(got, want)
    assert got == (None, (7, 8))
    assert len(calls) <= math.ceil(math.log2(8)) + 1
