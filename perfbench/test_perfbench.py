"""Each of the benchmark's output checks accepts a right answer and rejects
a corrupted one."""

import json
import time
import types
from fractions import Fraction

import numpy as np
import pytest

import linkclust as lc
from checks import (
    CheckFailed,
    check_coloring,
    check_digests,
    check_embedding,
    check_host_edge,
    check_multipartite_text,
    check_roundtrip,
    check_value,
    read_edges,
    sha256_text,
)
from harness import Refused, Request, Tracer, round_count, run_workload
from workloads import GraphText, clique_vectors, cycle_vectors, triple_vectors

N = 12


@pytest.fixture
def t3():
    text = lc.serialize_hypergraph(lc.turan_graph(N, 3))
    return text, read_edges(text)[2]


def classes_of(labels):
    return [np.nonzero(labels == c)[0].tolist() for c in range(labels.max() + 1)]


def test_read_edges_rejects_a_short_body(t3):
    text, _ = t3
    read_edges(text)
    with pytest.raises(CheckFailed):
        read_edges(text.rsplit("\n", 2)[0] + "\n")


def test_multipartite_text(t3):
    text, edges = t3
    assert len(check_multipartite_text(text, N, 3, 0)) == len(edges)
    inside = text.replace("0 4\n", "0 1\n", 1)  # vertices 0 and 1 share a class
    missing = text.replace("2 12 48", "2 12 47", 1).replace("0 4\n", "", 1)
    for bad, deleted in ((inside, 0), (missing, 0), (text, 1)):
        with pytest.raises(CheckFailed):
            check_multipartite_text(bad, N, 3, deleted)


def test_roundtrip_detects_a_lossy_serializer(t3):
    _, edges = t3
    check_roundtrip(lc, 2, N, edges)
    lossy = types.SimpleNamespace(
        Hypergraph=lc.Hypergraph,
        parse_hypergraph=lc.parse_hypergraph,
        serialize_hypergraph=lambda g: lc.serialize_hypergraph(
            lc.Hypergraph(g.r, g.n, g.edge_array[1:])
        ),
    )
    with pytest.raises(CheckFailed):
        check_roundtrip(lossy, 2, N, edges)


def test_coloring_accepts_any_class_order_and_rejects_a_moved_vertex(t3):
    _, edges = t3
    labels = np.repeat(np.arange(3), 4)
    classes = classes_of(labels)
    check_coloring(edges, N, classes[::-1], clique_vectors(3))
    moved = labels.copy()
    moved[0] = 1
    with pytest.raises(CheckFailed):
        check_coloring(edges, N, classes_of(moved), clique_vectors(3))
    with pytest.raises(CheckFailed):  # a vertex missing from every class
        check_coloring(edges, N, [c[1:] if i == 0 else c for i, c in enumerate(classes)], clique_vectors(3))


def test_coloring_by_a_cycle_pattern_needs_the_cycle_order():
    host = lc.pattern_blowup(lc.Pattern.cycle(5), [2] * 5)
    labels = np.repeat(np.arange(5), 2)
    shuffled = classes_of(labels)
    shuffled[1], shuffled[3] = shuffled[3], shuffled[1]
    check_coloring(host.edge_array, host.n, shuffled, cycle_vectors(5), surjective=True)
    merged = labels.copy()
    merged[merged == 2] = 0  # classes 0 and 2 are not adjacent in C5
    with pytest.raises(CheckFailed):
        check_coloring(host.edge_array, host.n, classes_of(merged), cycle_vectors(5))
    with pytest.raises(CheckFailed):
        check_coloring(host.edge_array, host.n, classes_of(labels)[:4] + [[]], cycle_vectors(5), surjective=True)


def test_three_partite_coloring():
    host = lc.pattern_blowup(lc.Pattern.single_edge(3), (3, 3, 3))
    labels = np.repeat(np.arange(3), 3)
    check_coloring(host.edge_array, host.n, classes_of(labels), triple_vectors(3))
    labels[[0, 3]] = labels[[3, 0]]
    with pytest.raises(CheckFailed):
        check_coloring(host.edge_array, host.n, classes_of(labels), triple_vectors(3))


def test_host_edge(t3):
    _, edges = t3
    check_host_edge([4, 0], edges, N)
    for bad in ([0, 1], [0, 0], [0, N], [0, 4, 8], None):
        with pytest.raises(CheckFailed):
            check_host_edge(bad, edges, N)


def test_embedding():
    small = lc.catalog("generalized_triangle", r=3)
    host = lc.Hypergraph(3, 15, np.concatenate([
        lc.pattern_blowup(lc.Pattern.single_edge(3), (5, 5, 5)).edge_array, [[0, 1, 2]]
    ]))
    found = lc.find_embedding(small, host)
    check_embedding({str(k): v for k, v in found.items()}, small.edge_array, small.n, host.edge_array, host.n)
    not_injective = {**found, 0: found[1]}
    a, b = found[2], found[3]  # the generalized triangle's edge {2, 3, 4}
    spare = next(v for v in range(15) if v not in found.values() and not host.has_edge((a, b, v)))
    off_edge = {**found, 4: spare}
    for bad in (not_injective, off_edge, {k: v for k, v in found.items() if k}):
        with pytest.raises(CheckFailed):
            check_embedding(bad, small.edge_array, small.n, host.edge_array, host.n)


def test_value():
    check_value(0.4000000000000001, Fraction(2, 5), "phi")
    for bad in (0.40000001, None, "0.4"):
        with pytest.raises(CheckFailed):
            check_value(bad, Fraction(2, 5), "phi")


def test_digests(t3):
    text, _ = t3
    report = {"input_digests": {"host": sha256_text(text)}}
    check_digests(report, {"host": text})
    with pytest.raises(CheckFailed):
        check_digests(report, {"host": text + "\n"})


def test_graph_text_verdicts(tmp_path):
    work = GraphText(lc, 0, str(tmp_path), Tracer())
    work.t4_text = lc.serialize_hypergraph(lc.turan_graph(8, 4))
    request = work._kcolor_no()
    refused = {"verdict": "precondition_violated", "results": {"reason": "minimum degree"}}
    with pytest.raises(Refused):
        request.check((2, json.dumps(refused), ""))
    with pytest.raises(CheckFailed):
        request.check((0, json.dumps({"verdict": "yes"}), ""))


def test_tracer_restores_the_library():
    tracer = Tracer()
    original = lc.formats.parse_hypergraph
    with tracer.traced_unit("round1", True):
        assert lc.formats.parse_hypergraph is not original
        lc.formats.parse_hypergraph("2 3 1\n0 1\n")
    assert lc.formats.parse_hypergraph is original
    assert [s["name"] for s in tracer.spans] == ["formats.parse"]


class FakeWorkload:
    name = "fake"
    request_span = "request"
    round_nominal_s = 0.1

    def __init__(self, sleep_s=0.0, deferred=()):
        self.sleep_s = sleep_s
        self.deferred = list(deferred)

    def setup(self, index):
        return Request("warm-up", lambda: None, lambda _: {})

    def round(self, index):
        def refuse(_):
            raise Refused("precondition_violated")

        def reject(_):
            raise CheckFailed("wrong verdict")

        return [
            Request("ok", lambda: time.sleep(self.sleep_s), lambda _: {"distance_evals": 1}),
            Request("refused", lambda: None, refuse),
            Request("wrong", lambda: None, reject),
        ]


def test_a_run_counts_refusals_as_failed_and_bad_answers_as_wrong():
    result = run_workload(FakeWorkload(), Tracer(), 0.0, False, 0.0)
    assert (result["attempted"], result["failed"], result["correct"]) == (3, 1, False)
    assert set(result["metrics"]) == {"setup_s", "wall_s", "request_p50_s", "peak_rss_mb"}


def test_the_round_count_does_not_depend_on_speed():
    fast = run_workload(FakeWorkload(), Tracer(), 0.25, False, 0.0)
    slow = run_workload(FakeWorkload(sleep_s=0.05), Tracer(), 0.25, False, 0.0)
    assert round_count(FakeWorkload(), 0.25, False) == 3
    assert (fast["attempted"], fast["failed"]) == (slow["attempted"], slow["failed"]) == (9, 3)
    # The median over the request list of each request's median: the slow
    # request, since the refused one counts as infinitely slow.
    assert 0.05 <= slow["detail"]["raw"]["request_p50_s"] < 0.5


def test_a_failed_deferred_check_makes_the_run_wrong():
    def reject():
        raise CheckFailed("parse(serialize(g)) != g")

    workload = FakeWorkload(deferred=[("round trip", reject)])
    workload.round = lambda index: [Request("ok", lambda: None, lambda _: {})]
    result = run_workload(workload, Tracer(), 0.0, False, 0.0)
    assert (result["correct"], result["detail"]["wrong"]) == (False, ["round trip: CheckFailed: parse(serialize(g)) != g"])


def test_a_traced_run_reports_a_positive_overhead():
    result = run_workload(FakeWorkload(), Tracer(), 0.0, True, 0.0)
    assert result["metrics"]["trace.overhead_s"]["value"] > 0
    assert Tracer.span_cost() > 0
