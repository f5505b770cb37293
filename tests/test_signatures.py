"""Edge signature tests: the signatures of ``Hypergraph.label_signatures`` and
the coded signature verdict against the count-matrix reference, the number
of relabeling searches it makes, and the complete pattern's verdict,
``Hypergraph.first_repeating_edge``, against both."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linkclust import Hypergraph, Pattern, oracles, pattern_blowup
from linkclust import hypergraph as hypergraph_module
from linkclust.deciders import _cluster, _signature_verdict
from linkclust.errors import InvalidInput

from helpers import (
    CountingDeadline,
    _reference_edge_signatures,
    is_valid_coloring,
    reference_signature_verdict,
)


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
    got = _signature_verdict(host, pattern, labels)
    return got, reference_signature_verdict(host, pattern, labels)


def _assert_same(got, want):
    (labels, edge), (want_labels, want_edge) = got, want
    assert edge == want_edge
    if want_labels is None:
        assert labels is None
    else:
        np.testing.assert_array_equal(labels, want_labels)


@st.composite
def labeled_hosts(draw):
    """``(host, labels, num_classes)`` with r in {2, 3, 4}: a random host,
    empty when n < r, that keeps link rows or link codes, under random labels
    or labels all in one class.  The label base is small, or the least whose
    codes of r-tuples need int64."""
    r = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(0, 9))
    pool = list(itertools.combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=60)) if pool else []
    wide = next(b for b in itertools.count(2) if b**r >= 2**31)
    num = draw(st.sampled_from([1, 2, 5, wide]))
    if draw(st.booleans()):
        labels = np.full(n, draw(st.integers(0, num - 1)), dtype=np.int64)
    else:
        drawn = draw(st.lists(st.integers(0, num - 1), min_size=n, max_size=n))
        labels = np.array(drawn, dtype=np.int64)
    return Hypergraph(r, n, np.array(edges, dtype=np.int64).reshape(-1, r)), labels, num


@given(labeled_hosts(), st.integers(1, 7))
@settings(max_examples=200, deadline=None)
def test_label_signatures_match_the_count_matrix_reference(case, slice_edges):
    host, labels, num = case
    r = host.r
    signatures, reps = host.label_signatures(labels, num)
    distinct, first = _reference_edge_signatures(host, labels, num)
    # a count row of the reference is the sorted tuple of its labels
    want = {tuple(np.repeat(np.arange(num), row).tolist()): i for row, i in zip(distinct, first)}
    got = {tuple(sig): int(i) for sig, i in zip(signatures.tolist(), reps)}
    assert signatures.shape == (len(want), r) and got == want
    assert list(got) == sorted(got)
    assert (signatures.dtype == np.int64) == (max(num, 2) ** r >= 2**31)
    # the lowest-index edge that repeats a label, from slices of a few edges
    # or rows, so that the edge count is rarely a multiple of the slice
    repeating = [i for sig, i in want.items() if len(set(sig)) < r]
    edge = tuple(int(v) for v in host.edge_array[min(repeating)]) if repeating else None
    with mock.patch.object(hypergraph_module, "SLICE_BYTES", 8 * r * slice_edges):
        assert host.first_repeating_edge(labels, num) == edge


@pytest.mark.parametrize(
    "labels",
    [[0, 1, 2], [0, 1, 2, 0, 1], [0, 1, -1, 2], [0, 1, 3, 2], [0.0, 1.0, 2.0, 0.0]],
    ids=["short", "long", "negative", "above", "float"],
)
def test_labeled_queries_refuse_bad_labels(labels):
    host = Hypergraph(3, 4, [(0, 1, 2), (1, 2, 3)])
    with pytest.raises(InvalidInput):
        host.label_signatures(np.array(labels), 3)
    with pytest.raises(InvalidInput):
        host.first_repeating_edge(np.array(labels), 3)


@given(signature_cases())
@settings(max_examples=300, deadline=None)
def test_matches_the_count_matrix_reference(case):
    host, pattern, labels = case
    got, want = _verdicts(*case)
    if want[0] is None:
        _assert_same(got, want)
        return
    # a pattern with automorphisms may give another first relabeling: any
    # permutation of the classes that colors every edge onto a pattern edge
    relabeled, edge = got
    assert edge is None and relabeled is not None
    perm: dict[int, int] = {}
    for c, image in zip(labels.tolist(), relabeled.tolist()):
        assert perm.setdefault(c, image) == image
    assert len(set(perm.values())) == len(perm)
    assert set(perm.values()) <= set(range(pattern.num_vertices))
    assert is_valid_coloring(host, pattern, relabeled)


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
    # each embedding search makes one deadline
    monkeypatch.setattr(oracles, "_Deadline", CountingDeadline)
    CountingDeadline.made.clear()
    got, want = _verdicts(host, pattern, labels)
    _assert_same(got, want)
    assert got == (None, (7, 8))
    assert len(CountingDeadline.made) <= math.ceil(math.log2(8)) + 1


# -- the complete pattern's verdict ---------------------------------------------


def complete_pattern(r: int, l: int) -> Pattern:
    return Pattern(r, l, itertools.combinations(range(l), r))


def _sample_edges(rng, n: int, r: int, count: int) -> np.ndarray:
    pool = np.array(list(itertools.combinations(range(n), r)), dtype=np.int64).reshape(-1, r)
    return pool[rng.choice(len(pool), count, replace=False)]


@st.composite
def complete_cases(draw):
    """``(host, l, labels)`` for K_l^(r) with r in {2, 3, 4} and l in
    {r, r+1, r+2}: a random host that keeps link rows or link codes, as drawn,
    under random labels that may leave classes empty; or a relabelled blow-up
    of K_l^(r) with parts of 1-3 vertices, some edges planted inside a part,
    under its part labels with a few of them redrawn."""
    r = draw(st.sampled_from([2, 3, 4]))
    l = r + draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(r, 9))
        total = math.comb(n, r)
        # rows when they take no more bytes than the int32 link codes
        least = -(-n * 8 * -(-(n ** (r - 1)) // 64) // (4 * r))
        form = draw(st.sampled_from(["rows", "codes"]))
        if form == "rows":
            assume(least <= total)
            count = draw(st.integers(least, total))
        else:
            count = draw(st.integers(0, min(least - 1, total)))
        host = Hypergraph(r, n, _sample_edges(rng, n, r, count))
        assert (host.link_rows is None) == (form == "codes")
        return host, l, rng.integers(0, l, size=n)
    sizes = rng.integers(1, 4, size=l)
    blowup = pattern_blowup(complete_pattern(r, l), sizes.tolist())
    n = blowup.n
    perm = rng.permutation(n)
    labels = np.empty(n, dtype=np.int64)
    labels[perm] = np.repeat(np.arange(l), sizes)
    edges = [perm[blowup.edge_array]]
    for _ in range(draw(st.integers(0, 2))):
        part = rng.integers(l)
        if sizes[part] >= r:
            edges.append(np.sort(rng.choice(np.flatnonzero(labels == part), r, replace=False))[None])
    edges = np.unique(np.concatenate(edges).reshape(-1, r), axis=0)
    flips = rng.choice(n, min(n, draw(st.integers(0, 2))), replace=False)
    labels[flips] = rng.integers(0, l, size=flips.size)
    return Hypergraph(r, n, edges[rng.permutation(len(edges))]), l, labels


@given(complete_cases())
@settings(max_examples=300, deadline=None)
def test_the_complete_verdict_matches_the_reference(case):
    host, l, labels = case
    pattern = complete_pattern(host.r, l)
    edge = host.first_repeating_edge(labels, l)
    assert edge == reference_signature_verdict(host, pattern, labels)[1]
    assert edge == _signature_verdict(host, pattern, labels)[1]
    if edge is None:
        assert is_valid_coloring(host, pattern, labels)
    # a class's rows split across slices of one or two rows give the same edge
    if host.link_rows is not None:
        for rows in (1, 2):
            slice_bytes = rows * host.link_rows.shape[1]
            with mock.patch.object(hypergraph_module, "SLICE_BYTES", slice_bytes):
                assert host.first_repeating_edge(labels, l) == edge


@given(st.sampled_from([2, 3, 4]), st.integers(0, 2), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_balanced_blowups_keep_the_signature_labels(r, extra, size, seed):
    # the clustering at the core's radius recovers the parts, and the
    # signature path's relabeling of them is the identity
    l = r + extra
    pattern = complete_pattern(r, l)
    blowup = pattern_blowup(pattern, [size] * l)
    perm = np.random.default_rng(seed).permutation(blowup.n)
    host = Hypergraph(r, blowup.n, perm[blowup.edge_array])
    radius = Fraction(2, 3 * l - 1) if r == 2 else Fraction(1, 2 * l) ** (r - 1) / math.factorial(r - 1)
    labels, _ = _cluster(host, l, radius)
    assert host.first_repeating_edge(labels, l) is None
    relabeled, edge = _signature_verdict(host, pattern, labels)
    assert edge is None
    np.testing.assert_array_equal(relabeled, labels)


@pytest.mark.parametrize("r", [2, 3])
def test_the_complete_verdict_on_no_vertices(r):
    # rows of zero bytes still slice the classes
    host = Hypergraph(r, 0, [])
    assert host.link_rows.shape == (0, 0)
    assert host.first_repeating_edge(np.zeros(0, dtype=np.int64), r) is None
