"""Core storage and elementary query tests."""

import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkclust import hypergraph as hypergraph_module
from linkclust import (
    Hypergraph,
    InvalidInput,
    InvalidVertex,
    Partition,
    Pattern,
    catalog,
    delete_random_edges,
    pattern_blowup,
    rng_from_seed,
    serialize_hypergraph,
    turan_graph,
)
from linkclust.corpus import _sample_without_replacement
from linkclust.oracles import _incidence
from helpers import erdos_renyi

K3 = Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])
TRIPLE = Hypergraph(3, 4, [(0, 1, 2)])
FANO = catalog("fano")


@st.composite
def edge_sets(draw):
    """``(r, n, edges)``: distinct r-sets, each listed in a random vertex order."""
    r = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(min_value=r, max_value=8))
    pool = list(itertools.combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return r, n, [draw(st.permutations(e)) for e in edges]


# the edge inputs the constructor takes: a list of tuples or an integer array
EDGE_FORMS = ["list", np.int32, np.int64]


def as_form(edges, r, form):
    if form == "list":
        return [tuple(e) for e in edges]
    return np.array(edges, dtype=form).reshape(len(edges), r)


@st.composite
def hypergraphs(draw):
    r, n, edges = draw(edge_sets())
    return Hypergraph(r, n, as_form(edges, r, draw(st.sampled_from(EDGE_FORMS))))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Hypergraph(2, -1, []), "vertex count must be a nonnegative integer, got -1"),
        (
            lambda: Hypergraph(2, 3, np.zeros((2, 3), dtype=np.int64)),
            "edge array must have shape (m, 2), got (2, 3)",
        ),
        (
            lambda: Hypergraph(2, 3, np.array([0, 1])),
            "edge array must have shape (m, 2), got (2,)",
        ),
    ],
    ids=["negative_n", "wrong_width", "one_dimensional"],
)
def test_argument_refusals(make, message):
    with pytest.raises(InvalidInput) as err:
        make()
    assert type(err.value) is InvalidInput
    assert str(err.value) == message


class TestConstruction:
    def test_canonicalizes_edge_order(self):
        g = Hypergraph(2, 3, [(2, 0), (1, 2), (1, 0)])
        assert g.edge_list() == [(0, 1), (0, 2), (1, 2)]

    def test_rejects_repeated_vertex(self):
        with pytest.raises(InvalidInput, match="repeated"):
            Hypergraph(2, 3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInput):
            Hypergraph(2, 3, [(0, 3)])
        with pytest.raises(InvalidInput):
            Hypergraph(2, 3, [(-1, 2)])

    def test_rejects_multi_edges(self):
        with pytest.raises(InvalidInput, match="duplicate"):
            Hypergraph(2, 3, [(0, 1), (1, 0)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(InvalidInput):
            Hypergraph(3, 4, [(0, 1)])

    def test_rejects_bad_uniformity(self):
        with pytest.raises(InvalidInput):
            Hypergraph(1, 3, [])

    # truncating or parsing any of these vertices would build a wrong edge
    @pytest.mark.parametrize(
        "build, edge",
        [
            (lambda: Hypergraph(2, 3, [(0.5, 1.7)]), "(0.5, 1.7)"),
            (lambda: Hypergraph(2, 3, np.array([[0.5, 2.2]])), "(0.5, 2.2)"),
            (lambda: Hypergraph(2, 3, [("1", "2")]), "('1', '2')"),
            (lambda: Hypergraph(2, 3, np.array([["1", "2"]])), "('1', '2')"),
            (lambda: Hypergraph(2, 3, [(1.0, 2)]), "(1.0, 2)"),
            (lambda: Pattern(2, 3, [(0.5, 1.7)]), "(0.5, 1.7)"),
            (lambda: Pattern(3, 3, [(0, 0, None)]), "(0, 0, None)"),
        ],
        ids=["floats", "float-array", "strings", "string-array", "integral-float",
             "pattern-floats", "pattern-none"],
    )
    def test_rejects_vertices_that_are_not_integers(self, build, edge):
        with pytest.raises(InvalidInput, match="not an integer") as err:
            build()
        assert f"edge {edge}" in str(err.value)

    # past int64, where a cast to int64 would overflow
    @pytest.mark.parametrize("vertex", [2**63, 2**64, -(2**63) - 1])
    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "object-array"])
    def test_rejects_integers_past_int64_as_out_of_range(self, vertex, as_array):
        edges = [(vertex, 1)]
        if as_array:
            edges = np.array(edges, dtype=object)
        with pytest.raises(InvalidInput, match=rf"^edge vertex {vertex} outside \[0, 3\)$"):
            Hypergraph(2, 3, edges)

    @pytest.mark.parametrize(
        "edges",
        [
            [(np.int64(0), np.int32(2))],
            [(False, 2)],
            [(np.False_, 2)],
            np.array([[0, 2]], dtype=np.uint8),
            np.array([[0, 2]], dtype=object),
            np.empty((0, 2)),
        ],
        ids=["numpy-ints", "bool", "numpy-bool", "uint8-array", "object-array", "empty-floats"],
    )
    def test_integer_vertices_of_every_type_are_accepted(self, edges):
        g = Hypergraph(2, 3, edges)
        assert g.edge_list() == ([] if len(edges) == 0 else [(0, 2)])

    @pytest.mark.parametrize("edge", [(0.5, 1.7), (0.0, 1.0), ("0", "1"), (0, None)])
    def test_has_edge_is_false_for_a_vertex_that_is_not_an_integer(self, edge):
        assert not K3.has_edge(edge) and not TRIPLE.has_edge(edge + (2,))

    def test_equality_and_hash(self):
        a = Hypergraph(2, 3, [(0, 1)])
        b = Hypergraph(2, 3, [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != Hypergraph(2, 3, [(0, 2)])

    @pytest.mark.parametrize("r, largest", [(3, 1_664_510), (4, 46_340)])
    def test_64_bit_encoding_boundary(self, r, largest):
        # r-tuples of vertices are coded base n in an int64
        edge = [tuple(range(r))]
        assert Hypergraph(r, largest, edge).n == largest
        with pytest.raises(InvalidInput, match="64 bits"):
            Hypergraph(r, largest + 1, edge)

    @pytest.mark.parametrize(
        "r, n",
        [(2**60, 0), (2**63, 0), (10**400, 0), (3, 1_664_511)],
        ids=["2^60", "2^63", "10^400", "r3"],
    )
    def test_rejects_unencodable_uniformity_without_edges(self, r, n):
        # a (0, r) array for r >= 2**60 cannot even be allocated, and
        # 10**400 has no float
        with pytest.raises(InvalidInput, match="64 bits"):
            Hypergraph(r, n, [])

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_every_row_order_gives_the_canonical_host(self, r):
        # canonical rows skip the sort; reversed, shuffled and column-rotated
        # rows take it, and every order must build the same host
        rng = np.random.default_rng(r)
        n = 12
        pool = np.array(list(itertools.combinations(range(n), r)))
        canon = pool[rng.random(len(pool)) < 0.4]
        orders = {
            "canonical": canon,
            "reversed": canon[::-1],
            "shuffled": canon[rng.permutation(len(canon))],
            "columns": canon[:, np.roll(np.arange(r), 1)],
        }
        ref = Hypergraph(r, n, [tuple(e) for e in canon.tolist()[::-1]])
        for name, rows in orders.items():
            for form in EDGE_FORMS:
                g = Hypergraph(r, n, as_form(rows.tolist(), r, form))
                assert g.edge_array.dtype == ref.edge_array.dtype == np.int32, name
                np.testing.assert_array_equal(g.edge_array, canon)
                np.testing.assert_array_equal(g.degrees(), ref.degrees())
                for e in itertools.combinations(range(n), r):
                    assert g.has_edge(e) == ref.has_edge(e)
                if r == 2:
                    np.testing.assert_array_equal(g.link_rows, ref.link_rows)
                for v in range(n):
                    np.testing.assert_array_equal(g.distances_from(v), ref.distances_from(v))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([(0, 1, 2), (0, 1, 2), (1, 2, 3)], "duplicate edge (0, 1, 2); multi-edges are rejected"),
            ([(0, 1, 2), (1, 1, 3), (1, 2, 3)], "edge (1, 1, 3) has a repeated vertex"),
        ],
        ids=["duplicate", "repeated"],
    )
    def test_faults_in_canonical_order_read_as_in_any_order(self, rows, message):
        for order in (rows, rows[::-1], [rows[1], rows[2], rows[0]]):
            for form in EDGE_FORMS:
                with pytest.raises(InvalidInput) as err:
                    Hypergraph(3, 4, as_form(order, 3, form))
                assert str(err.value) == message

    def test_errors_name_edges_with_plain_ints(self):
        with pytest.raises(InvalidInput) as err:
            Hypergraph(3, 4, np.array([(0, 1, 2), (2, 3, 2)]))
        assert str(err.value) == "edge (2, 2, 3) has a repeated vertex"
        with pytest.raises(InvalidInput) as err:
            Hypergraph(3, 4, [(0, 1, 2), (3, 1, 2), (2, 1, 0)])
        assert str(err.value) == "duplicate edge (0, 1, 2); multi-edges are rejected"

    @pytest.mark.parametrize(
        "r, largest_int32", [(2, 46_340), (3, 1_290), (4, 215)]
    )
    def test_code_dtype_follows_the_vertex_count(self, r, largest_int32):
        # edges and their codes are int32 exactly when max(n, 2)**r < 2**31
        edge = [tuple(range(r))]
        for n, dtype in ((largest_int32, np.int32), (largest_int32 + 1, np.int64)):
            g = Hypergraph(r, n, edge)
            assert g.edge_array.dtype == dtype
            assert (max(n, 2) ** r < 2**31) == (dtype == np.int32)
        assert Hypergraph(r, r, []).edge_array.dtype == np.int32

    @pytest.mark.parametrize("canonical", [False, True], ids=["reversed", "canonical"])
    def test_build_peak_memory(self, canonical):
        host = pattern_blowup(Pattern.single_edge(3), (80, 80, 80))
        rows = host.edge_array if canonical else host.edge_array[::-1, ::-1]
        edges = np.ascontiguousarray(rows, dtype=np.int64)
        tracemalloc.start()
        try:
            g = Hypergraph(3, host.n, edges)
            d = g.distances_from(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g == host and d.max() == 2 * g.degree(0)
        # about 2x: the build works in int32 columns, and the first distance
        # query builds the link rows from one 13.8 MB dense block; int64
        # (m, r) temporaries and a lexsort of the links take it past 4x
        assert peak < 4 * edges.nbytes

    def test_dense_rows_peak_near_the_packed_output(self, monkeypatch):
        # a graph with just enough edges to keep rows: the packed rows (2 MiB),
        # the second column's keys (1 MiB) and one dense block, here 2 MiB of
        # 512 rows; the whole n*n bool matrix in one block took the peak to
        # 9.3x the packed rows
        n = 4096
        g = Hypergraph(2, n, _circulant(n, 64))
        monkeypatch.setattr(hypergraph_module, "DENSE_BLOCK_BYTES", 1 << 21)
        tracemalloc.start()
        try:
            rows = g.link_rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.nbytes == n * n // 8 == 8 * len(g)
        assert peak < 3.5 * rows.nbytes

    def test_packed_rows_wait_for_their_first_query(self):
        # writing a graph that keeps rows reads none of them: building them
        # first, from one 16 MiB dense block, took this peak from 11.7 MiB to
        # 21.5 MiB
        n = 4096
        edges = _circulant(n, 64)
        tracemalloc.start()
        try:
            g = Hypergraph(2, n, edges)
            text = serialize_hypergraph(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g._links is None
        assert text.startswith(f"2 {n} {len(edges)}\n0 1\n0 2\n")
        assert peak < 16 << 20
        # row v marks v +- 1..64 mod n
        bits = np.unpackbits(g.link_rows, axis=1)
        assert bits.shape == (n, n) and int(bits.sum()) == 2 * len(edges)
        for v in (0, 100, n - 1):
            near = np.concatenate([np.arange(v - 64, v), np.arange(v + 1, v + 65)]) % n
            assert np.flatnonzero(bits[v]).tolist() == sorted(near.tolist())

    @pytest.mark.parametrize("rows_per_block", [1, 3, 7, 23])
    def test_dense_rows_match_across_block_boundaries(self, monkeypatch, rows_per_block):
        n = 23
        rng = np.random.default_rng(rows_per_block)
        pairs = np.array(list(itertools.combinations(range(n), 2)))
        edges = pairs[rng.random(len(pairs)) < 0.4]
        dense = np.zeros((n, n), dtype=bool)
        dense[edges[:, 0], edges[:, 1]] = dense[edges[:, 1], edges[:, 0]] = True
        monkeypatch.setattr(hypergraph_module, "DENSE_BLOCK_BYTES", rows_per_block * n)
        g = Hypergraph(2, n, edges[rng.permutation(len(edges))])
        # 23 bits padded to one 64-bit word: 3 bytes of adjacency, 5 of zeros
        assert g.link_rows.shape == (n, 8)
        np.testing.assert_array_equal(g.link_rows[:, :3], np.packbits(dense, axis=1))
        assert not g.link_rows[:, 3:].any()

    def test_sparse_graph_above_the_dense_cut_keeps_link_codes(self):
        # its rows would take 8.5 MB, its link codes 24 bytes
        g = Hypergraph(2, 8193, [(0, 8192), (5, 13), (8000, 13)])
        assert g.link_rows is None
        assert g.link(13) == {(5,), (8000,)} and g.link(8192) == {(0,)}
        assert np.flatnonzero(np.unpackbits(g.completions((13,)))).tolist() == [5, 8000]
        assert g.distances_from(13)[[0, 1, 5, 13, 8000, 8192]].tolist() == [3, 2, 3, 0, 3, 3]

    def test_a_sparse_graph_on_a_million_vertices_builds(self):
        # only the 16 * (n + 1) bytes of the degree and offset tables grow
        # with n; the link codes follow the one edge
        g = Hypergraph(2, 10**6, [(0, 1)])
        assert g.link(1) == {(0,)} and g.link_rows is None
        assert g.distances_from(0)[[0, 1, 2, 10**6 - 1]].tolist() == [0, 2, 1, 1]

    @pytest.mark.parametrize("r, n", [(2, 100_000_000), (3, 10**12)])
    def test_rejects_huge_vertex_tables_before_allocating(self, r, n):
        # 10^8 vertices would need 1.6 GB of degree and offset tables
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInput, match="MAX_VERTEX_TABLE_BYTES"):
                Hypergraph(r, n, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_constant_time_edge_query_backing(self):
        g = turan_graph(10, 2)
        # 10 bits padded to one 64-bit word; the padding bits are zero
        assert g.link_rows.shape == (10, 8)
        adjacency = [[g.has_edge((u, v)) for v in range(10)] for u in range(10)]
        np.testing.assert_array_equal(g.link_rows[:, :2], np.packbits(adjacency, axis=1))
        assert not g.link_rows[:, 2:].any()
        assert g.has_edge((0, 9)) and not g.has_edge((0, 1))


class TestRangeCheck:
    """An int32 or int64 edge array is range-checked by one read of its
    unsigned view, where a negative vertex is past n; narrower signed,
    unsigned, bool and object arrays by their least and greatest values.  Every dtype refuses with the
    same message, naming the least vertex when it is negative and the
    greatest otherwise."""

    def test_no_admitted_vertex_count_reaches_the_sign_bit(self):
        # the one-read check is sound only while every admitted n is below
        # 2**31, where a negative int32 or int64 vertex reads unsigned
        for r in (2, 3):
            with pytest.raises(InvalidInput, match="MAX_VERTEX_TABLE_BYTES"):
                hypergraph_module._check_size(r, 2**31)
        # the degree and offset tables alone cap a graph at 2**26 - 1 vertices
        hypergraph_module._check_size(2, 2**26 - 1)
        with pytest.raises(InvalidInput, match="MAX_VERTEX_TABLE_BYTES"):
            hypergraph_module._check_size(2, 2**26)

    @pytest.mark.parametrize("dtype", ["i1", "i2", "i4", "i8", ">i8"])
    @pytest.mark.parametrize("bad", ["negative", "least", "n", "both"])
    def test_signed_arrays_refuse_a_vertex_outside(self, dtype, bad):
        n = 5
        least = int(np.iinfo(np.dtype(dtype)).min)
        vertex, named = {
            "negative": ([-1], -1),
            "least": ([least], least),
            "n": ([n], n),
            "both": ([n, -2], -2),
        }[bad]
        edges = np.array([(0, 1, 2)] + [(3, 4, v) for v in vertex], dtype=dtype)
        with pytest.raises(InvalidInput) as err:
            Hypergraph(3, n, edges)
        assert str(err.value) == f"edge vertex {named} outside [0, {n})"

    @pytest.mark.parametrize(
        "dtype, r, n, vertex",
        [("i1", 3, 200, -100), ("i1", 2, 129, -128), ("i2", 2, 40000, -30000), ("i2", 3, 40000, -30000)],
    )
    def test_narrow_signed_arrays_refuse_a_negative_vertex_below_n_unsigned(self, dtype, r, n, vertex):
        # the unsigned view of the negative vertex lies below n, so only the
        # least value finds it
        assert int(np.array(vertex, dtype=dtype).view(dtype.replace("i", "u"))) < n
        edges = np.array([tuple(range(r)), tuple(range(1, r)) + (vertex,)], dtype=dtype)
        with pytest.raises(InvalidInput) as err:
            Hypergraph(r, n, edges)
        assert str(err.value) == f"edge vertex {vertex} outside [0, {n})"

    @pytest.mark.parametrize(
        "dtype, vertex",
        [(np.uint32, 5), (np.uint32, 2**32 - 1), (np.uint64, 5), (np.uint64, 2**63), (np.uint64, 2**64 - 1)],
    )
    def test_unsigned_arrays_refuse_a_vertex_past_n(self, dtype, vertex):
        edges = np.array([(0, 1, 2), (3, 4, vertex)], dtype=dtype)
        with pytest.raises(InvalidInput) as err:
            Hypergraph(3, 5, edges)
        assert str(err.value) == f"edge vertex {vertex} outside [0, 5)"

    def test_bool_arrays_are_checked_against_n(self):
        edges = np.array([(False, True)])
        assert Hypergraph(2, 2, edges).edge_list() == [(0, 1)]
        with pytest.raises(InvalidInput) as err:
            Hypergraph(2, 1, edges)
        assert str(err.value) == "edge vertex 1 outside [0, 1)"

    @pytest.mark.parametrize("vertex", [2**63, 2**64, -(2**63) - 1, -(2**64)])
    def test_object_arrays_refuse_a_vertex_past_int64(self, vertex):
        edges = np.array([(0, 1, 2), (3, 4, vertex)], dtype=object)
        with pytest.raises(InvalidInput) as err:
            Hypergraph(3, 5, edges)
        assert str(err.value) == f"edge vertex {vertex} outside [0, 5)"

    @pytest.mark.parametrize("r", [2, 3])
    def test_accepted_layouts_and_dtypes_build_the_same_host(self, r):
        rng = np.random.default_rng(r)
        base = pattern_blowup(Pattern.single_edge(r), (6,) * r)
        perm = rng.permutation(base.n)
        edges = np.ascontiguousarray(perm[base.edge_array], dtype=np.int64)
        ref = Hypergraph(r, base.n, edges)
        flipped = np.ascontiguousarray(edges[::-1, ::-1])
        forms = {
            "reversed-view": flipped[::-1, ::-1],
            "int32": edges.astype(np.int32),
            "uint16": edges.astype(np.uint16),
            "big-endian": edges.astype(">i8"),
            "shuffled": edges[rng.permutation(len(edges))],
        }
        assert not forms["reversed-view"].flags.c_contiguous
        for name, rows in forms.items():
            g = Hypergraph(r, base.n, rows)
            np.testing.assert_array_equal(g.edge_array, ref.edge_array, err_msg=name)
            np.testing.assert_array_equal(g.degrees(), ref.degrees(), err_msg=name)
            np.testing.assert_array_equal(g.link_rows, ref.link_rows, err_msg=name)
        assert ref.link_rows is not None


def _sampled_edges(r, vertices, count, seed):
    pool = list(itertools.combinations(vertices, r))
    pick = np.random.default_rng(seed).choice(len(pool), count, replace=False)
    return [pool[i] for i in sorted(pick)]


def _half_of_the_edges(r, vertices, seed):
    rng = np.random.default_rng(seed)
    return [e for e in itertools.combinations(vertices, r) if rng.random() < 0.5]


# hosts whose vertex 0 and two top vertices have empty links, by the form of
# their links: packed rows when their n * 8 * ceil(n**(r-1)/64) bytes are at
# most those of the r * m int32 link codes; otherwise link codes, marked by a
# table of n**(r-1) entries when that is at most r * m, and by np.isin past it
EMPTY_LINK_HOSTS = {
    "rows-r2": (2, 12, _sampled_edges(2, range(1, 10), 20, 0)),  # 96 bytes of rows, 160 of codes
    "table-r2": (2, 40, _sampled_edges(2, range(1, 38), 30, 1)),  # 60 codes, 40 entries
    "isin-r2": (2, 10, _sampled_edges(2, range(1, 8), 3, 2)),  # 6 codes, 10 entries
    "rows-r3": (3, 11, _sampled_edges(3, range(1, 9), 45, 0)),  # 176 bytes of rows, 540 of codes
    "rows-exact-r3": (3, 12, _sampled_edges(3, range(1, 10), 24, 2)),  # 288 of rows, 288 of codes
    "rows-r4": (4, 16, _sampled_edges(4, range(1, 14), 600, 5)),  # 8192 of rows, 9600 of codes
    "table-r3": (3, 40, _sampled_edges(3, range(1, 38), 600, 0)),  # 1800 codes, 1600 entries
    "table-exact-r3": (3, 42, _sampled_edges(3, range(1, 39), 588, 1)),  # 1764 codes, 1764 entries
    "isin-r3": (3, 10, _sampled_edges(3, range(1, 8), 10, 3)),  # 30 codes, 100 entries
    "isin-r4": (4, 10, _half_of_the_edges(4, range(1, 8), 4)),  # 52 codes, 1000 entries
}


def _circulant(n, k):
    """The edges of the circulant graph joining each v to v + 1..k mod n, for
    k < n / 2: n * k edges, each vertex of degree 2k."""
    ends = np.arange(n).repeat(k)
    return np.sort(np.column_stack([ends, (ends + np.tile(np.arange(1, k + 1), n)) % n]), axis=1)


def _row_bytes(r, n):
    """Bytes of the packed link rows of an r-uniform host on n vertices:
    n rows of n**(r-1) bits, each padded to whole 64-bit words."""
    return n * 8 * -(-(n ** (r - 1)) // 64)


def _links_by_brute_force(n, edges):
    return [{tuple(u for u in sorted(e) if u != v) for e in edges if v in e} for v in range(n)]


class TestDegree:
    def test_triangle_degrees(self):
        assert all(K3.degree(v) == 2 for v in range(3))

    def test_isolated_vertex(self):
        assert TRIPLE.degree(3) == 0

    def test_fano_degrees(self):
        # expected values recomputed straight off the edge list
        for v in range(7):
            expected = sum(1 for e in FANO if v in e)
            assert FANO.degree(v) == expected == 3

    def test_invalid_vertex(self):
        with pytest.raises(InvalidVertex):
            K3.degree(3)
        with pytest.raises(InvalidVertex):
            K3.degree(-1)

    def test_min_degree_turan_6_3(self):
        assert turan_graph(6, 3).min_degree() == 4

    def test_min_degree_empty_graph(self):
        assert Hypergraph(2, 5, []).min_degree() == 0

    def test_min_degree_cycle(self):
        assert catalog("cycle", k=5).min_degree() == 2

    def test_min_max_average(self):
        g = TRIPLE
        assert g.min_degree() == 0
        assert g.max_degree() == 1
        assert g.average_degree() == pytest.approx(3 / 4)

    def test_empty_vertex_set_errors(self):
        g = Hypergraph(2, 0, [])
        for op in (g.min_degree, g.max_degree, g.average_degree):
            with pytest.raises(InvalidInput):
                op()

    @pytest.mark.parametrize("shuffled", [False, True], ids=["canonical", "shuffled"])
    @pytest.mark.parametrize("n, m", [(0, 0), (1, 0), (6, 0), (6, 10), (50, 400), (50_000, 1000)])
    def test_graph_degrees_count_every_endpoint(self, monkeypatch, n, m, shuffled):
        # r = 2 degrees come from the sorted first column's offsets and a
        # count of the second, on both constructor branches (n = 50 000
        # codes the edges in int64), in one slice or in slices of n entries
        rng = np.random.default_rng(n + m)
        pairs = np.sort(rng.integers(0, max(n, 1), size=(4 * m, 2)), axis=1)
        pairs = np.unique(pairs[pairs[:, 0] < pairs[:, 1]], axis=0)
        edges = pairs[np.sort(rng.permutation(len(pairs))[:m])].reshape(m, 2)
        if shuffled:
            edges = edges[rng.permutation(m), ::-1]
        assert len(edges) == m
        g = Hypergraph(2, n, edges)
        np.testing.assert_array_equal(g.degrees(), np.bincount(edges.ravel(), minlength=n))
        monkeypatch.setattr(hypergraph_module, "SLICE_BYTES", 8)
        np.testing.assert_array_equal(Hypergraph(2, n, edges).degrees(), g.degrees())

    # the scattered rows are set in two dense blocks of 4032 rows at most
    @pytest.mark.parametrize(
        "graph",
        [turan_graph(6, 2), Hypergraph(2, 4160, _circulant(4160, 66)), TRIPLE],
        ids=["dense_rows", "scattered_rows", "r3"],
    )
    def test_degrees_and_rows_are_read_only(self, graph):
        # a caller's write would change min_degree and the serialized text
        low = graph.min_degree()
        with pytest.raises(ValueError):
            graph.degrees()[graph.n - 1] = 0
        if graph.r == 2:
            with pytest.raises(ValueError):
                graph.link_rows[0, 0] = 0
        assert graph.min_degree() == low


class TestLink:
    def test_triangle_link(self):
        assert K3.link(0) == {(1,), (2,)}

    def test_single_edge_link(self):
        assert TRIPLE.link(0) == {(1, 2)}

    def test_fano_link(self):
        expected = {tuple(sorted(set(e) - {1})) for e in FANO if 1 in e}
        assert FANO.link(1) == expected
        assert len(expected) == 3

    def test_invalid_vertex(self):
        with pytest.raises(InvalidVertex):
            K3.link(5)

    def test_completions(self):
        assert np.unpackbits(K3.completions((1,)), count=3).tolist() == [1, 0, 1]
        assert np.unpackbits(TRIPLE.completions((2, 0)), count=4).tolist() == [0, 1, 0, 0]
        quad = Hypergraph(4, 5, [(0, 1, 2, 3)])
        assert np.unpackbits(quad.completions((3, 1, 0)), count=5).tolist() == [0, 0, 1, 0, 0]
        # a face with a repeated vertex completes to no edge
        assert not quad.completions((0, 1, 1)).any()
        for r in (2, 3, 4):
            for n in (0, 1, r):
                g = Hypergraph(r, n, [])
                for face in itertools.combinations(range(n), r - 1):
                    assert g.completions(face).tolist() == [0] * ((n + 7) // 8)

    @pytest.mark.parametrize(
        "g, face, error",
        [
            (K3, (), InvalidInput),
            (K3, (0, 1), InvalidInput),
            (TRIPLE, (0,), InvalidInput),
            (TRIPLE, (0, 1, 2), InvalidInput),
            (K3, (3,), InvalidVertex),
            (TRIPLE, (0, 4), InvalidVertex),
            (TRIPLE, (-1, 0), InvalidVertex),
            (Hypergraph(2, 0, []), (0,), InvalidVertex),
            (Hypergraph(3, 0, []), (0, 1), InvalidVertex),
        ],
    )
    def test_completions_reject_bad_faces(self, g, face, error):
        with pytest.raises(error):
            g.completions(face)


class TestTwinClasses:
    def test_named_hosts(self):
        assert turan_graph(5, 2).twin_classes().tolist() == [0, 0, 0, 3, 3]
        assert K3.twin_classes().tolist() == [0, 1, 2]
        # the three vertices outside the edge have the same (empty) link
        assert TRIPLE.twin_classes().tolist() == [0, 1, 2, 3]
        assert Hypergraph(3, 6, [(0, 1, 2)]).twin_classes().tolist() == [0, 1, 2, 3, 3, 3]
        blowup = pattern_blowup(Pattern.single_edge(3), (2, 3, 1))
        assert blowup.twin_classes().tolist() == [0, 0, 2, 2, 2, 5]
        for r in (2, 3):
            assert Hypergraph(r, 0, []).twin_classes().tolist() == []

    @pytest.mark.parametrize("r, n, p", [(2, 40, 0.2), (2, 12, 0.05), (3, 14, 0.1), (4, 11, 0.1)])
    def test_hypergraphs_and_patterns_share_one_twin_rule(self, r, n, p):
        # packed rows or link codes against the pattern's link tuples, on
        # random hosts and relabelled blow-ups of K_{r+1}^(r); a pattern
        # has at least one vertex
        hosts = [erdos_renyi(n, p, seed, r) for seed in range(5)]
        clique = Pattern(r, r + 1, itertools.combinations(range(r + 1), r))
        for seed in range(5):
            rng = rng_from_seed(seed)
            blowup = pattern_blowup(clique, rng.integers(1, 5, size=r + 1).tolist())
            hosts.append(Hypergraph(r, blowup.n, rng.permutation(blowup.n)[blowup.edge_array]))
        for h in hosts:
            roots = h.twin_classes()
            assert roots.dtype == np.int64
            assert roots.tolist() == list(Pattern.from_hypergraph(h).twin_classes())
        assert Hypergraph(r, 0, []).twin_classes().dtype == np.int64

    @pytest.mark.parametrize("form", ["rows", "codes"])
    def test_isolated_vertices_match_the_per_vertex_dict_pass(self, form, monkeypatch):
        # the vertices of degree 0 are mapped in one step; the dict pass
        # sees only the others
        rng = rng_from_seed(7)
        dense = turan_graph(30, 3)
        blowup = pattern_blowup(Pattern.single_edge(3), (6, 6, 6))
        hosts = [
            Hypergraph(2, 45, rng.permutation(45)[dense.edge_array]),
            Hypergraph(3, 20, rng.permutation(20)[blowup.edge_array]),
            Hypergraph(2, 1000, [(3, 999), (4, 999), (7, 500)]),
            Hypergraph(3, 60, [(5, 6, 40), (5, 7, 40), (0, 1, 2)]),
            Hypergraph(4, 9, [(1, 2, 3, 8)]),
            Hypergraph(2, 6, []),
        ]
        real_first_by_key = hypergraph_module._first_by_key
        seen: list[bytes] = []

        def recording(keys):
            seen[:] = keys
            return real_first_by_key(seen)

        monkeypatch.setattr(hypergraph_module, "_first_by_key", recording)
        hosts = [h for h in hosts if isinstance(h._link_store(), tuple) == (form == "codes")]
        assert len(hosts) >= 2
        for h in hosts:
            links = h._link_store()
            if isinstance(links, tuple):
                off = links[1].tolist()
                keys = [links[0][a:b].tobytes() for a, b in zip(off, off[1:])]
            else:
                keys = [row.tobytes() for row in links]
            roots = h.twin_classes()
            assert roots.dtype == np.int64
            assert roots.tolist() == real_first_by_key(keys)
            assert len(seen) == np.count_nonzero(h.degrees()) < h.n

    def test_one_edge_on_a_million_vertices(self):
        roots = Hypergraph(2, 10**6, [(5, 999_999)]).twin_classes()
        assert roots[:7].tolist() == [0, 0, 0, 0, 0, 5, 0]
        assert roots[999_999] == 999_999 and np.count_nonzero(roots) == 2

    def test_twin_classes_peak_near_the_packed_rows(self):
        # one bytes key per distinct row; np.unique(axis=0) on the rows
        # peaked at about 3x their bytes
        n = 4096
        pairs = rng_from_seed(n).integers(0, n, size=(600000, 2))
        pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
        g = Hypergraph(2, n, pairs)
        rows = g.link_rows
        tracemalloc.start()
        try:
            roots = g.twin_classes()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert roots.tolist() == list(range(n))  # no two rows are equal
        assert peak < 1.5 * rows.nbytes

    @given(hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_the_least_vertex_with_the_same_link(self, g):
        links = [g.link(v) for v in range(g.n)]
        roots = g.twin_classes().tolist()
        assert roots == [links.index(link) for link in links]
        # no edge holds two twins
        assert all(len({roots[v] for v in e}) == g.r for e in g)


class TestHammingDistance:
    def test_same_side_twins(self):
        k23 = turan_graph(5, 2)  # sides {0,1,2} and {3,4}
        assert k23.hamming_distance(3, 4) == 0

    def test_opposite_sides(self):
        k23 = turan_graph(5, 2)
        assert k23.hamming_distance(3, 0) == 5

    def test_triangle_adjacent_pair(self):
        # adjacency makes the pair's own positions count, giving 2
        assert K3.hamming_distance(0, 1) == 2

    def test_requires_distinct_vertices(self):
        with pytest.raises(InvalidInput):
            K3.hamming_distance(1, 1)

    def test_three_uniform(self):
        g = Hypergraph(3, 5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
        # links: L(0) = {12, 13}, L(4) = {23}
        assert g.hamming_distance(0, 4) == 3
        assert g.hamming_distance(2, 3) == 2  # {01,34} vs {01,24}

    def test_distances_from_matches_pairwise(self):
        g = catalog("fano")
        d = g.distances_from(2)
        for u in range(7):
            expected = 0 if u == 2 else g.hamming_distance(u, 2)
            assert d[u] == expected

    @pytest.mark.parametrize("case", list(EMPTY_LINK_HOSTS))
    @pytest.mark.parametrize("block", [1, 3, 7, 1 << 18])
    def test_distances_with_empty_links(self, monkeypatch, case, block):
        # vertex 0 and the top vertices have empty links: their rows are
        # zero, or their segments of the link codes are empty and the last
        # owner of a code is not the last vertex; small blocks split the
        # link codes mid-segment (a block of codes takes 8 bytes of sums each)
        r, n, edges = EMPTY_LINK_HOSTS[case]
        monkeypatch.setattr(hypergraph_module, "SLICE_BYTES", 8 * block)
        isin_calls = []
        real_isin = np.isin

        def isin(*args, **kwargs):
            isin_calls.append(args)
            return real_isin(*args, **kwargs)

        monkeypatch.setattr(np, "isin", isin)
        g = Hypergraph(r, n, edges)
        links = _links_by_brute_force(n, edges)
        assert not links[0] and not links[n - 2] and not links[n - 1]
        for v in range(n):
            assert g.distances_from(v).tolist() == [len(links[u] ^ links[v]) for u in range(n)]
        code_bytes = 4 * r * len(edges)
        if _row_bytes(r, n) <= code_bytes:
            branch, exact = "rows", _row_bytes(r, n) == code_bytes
        else:
            branch = "table" if n ** (r - 1) <= r * len(edges) else "isin"
            exact = n ** (r - 1) == r * len(edges)
        assert case.split("-")[0] == branch
        assert exact == ("-exact-" in case)
        assert isinstance(g._links, np.ndarray) == (branch == "rows")
        assert bool(isin_calls) == (branch == "isin")

    @pytest.mark.parametrize("form", ["rows", "table"])
    def test_distances_peak_memory(self, form):
        # a query's temporaries once the links are built: the XOR of the
        # rows, or the membership marks of one block of link codes at a time
        # (marking the whole code array at once peaked at 3.7x its size)
        if form == "rows":
            host = pattern_blowup(Pattern.single_edge(3), (80, 80, 80))
        else:
            triples = np.sort(rng_from_seed(1000).integers(0, 1000, size=(450_000, 3)), axis=1)
            triples = triples[(triples[:, 0] < triples[:, 1]) & (triples[:, 1] < triples[:, 2])]
            host = Hypergraph(3, 1000, np.unique(triples, axis=0)[:400_000])
        link_bytes = host.r * len(host) * np.dtype(np.int32).itemsize  # 6.1 and 4.8 MB
        host.distances_from(0)
        assert isinstance(host._links, np.ndarray) == (form == "rows")
        tracemalloc.start()
        try:
            d = host.distances_from(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d[5] == 0
        link = host.link(5)
        assert [d[u] for u in (0, 1, 239)] == [len(host.link(u) ^ link) for u in (0, 1, 239)]
        assert peak <= link_bytes

    def test_row_distances_peak_at_a_slice_of_rows(self):
        # n = 480: 13.8 MB of rows, XORed SLICE_BYTES at a time into one
        # buffer; XORing them all at once peaked at 15.6 MB
        host = pattern_blowup(Pattern.single_edge(3), (160, 160, 160))
        rows = host.link_rows
        tracemalloc.start()
        try:
            d = host.distances_from(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        words = rows.view(np.uint64)
        assert d.dtype == np.int64
        assert d.tolist() == np.bitwise_count(words ^ words[5]).sum(axis=1).tolist()
        # 0 and 6 are twins of 5; 200 lies in another class, with a disjoint link
        assert d[[0, 5, 6]].tolist() == [0, 0, 0] and d[200] == 2 * host.degree(5)
        assert peak < 4 * hypergraph_module.SLICE_BYTES

    def test_a_sparse_host_builds_no_rows(self):
        # its rows would take n * n**2 / 8 = 1 GB; its link codes are 12 bytes
        g = Hypergraph(3, 2000, [(0, 1, 2)])
        tracemalloc.start()
        try:
            d = g.distances_from(1)
            roots = g.twin_classes()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d[:3].tolist() == [2, 0, 2] and (d[3:] == 1).all()
        assert roots[:4].tolist() == [0, 1, 2, 3] and (roots[4:] == 3).all()
        assert peak < 1 << 20


class TestLinkForms:
    """Both forms of the links of every uniformity, on either side of the
    row rule, and a graph's rows, built in one dense block or several, answer
    every query as the links of a brute-force count do."""

    @staticmethod
    def _hosts(r):
        rng = rng_from_seed(r)
        n = 14 if r == 3 else 16
        pool = np.array(list(itertools.combinations(range(n), r)))
        dense = pool[rng.random(len(pool)) < 0.6]
        sparse = pool[rng.random(len(pool)) < 0.02]
        clique = Pattern(r, r + 1, itertools.combinations(range(r + 1), r))
        blowup = pattern_blowup(clique, rng.integers(1, 4, size=r + 1).tolist())
        twins = rng.permutation(blowup.n)[blowup.edge_array]
        return [
            ("dense", n, dense),
            ("sparse", n, sparse),
            ("blowup", blowup.n, twins),
            ("padded-blowup", 3 * blowup.n, twins),
        ]

    @pytest.mark.parametrize("rows_per_block", [1, 3, None])
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_queries_match_brute_force_links(self, monkeypatch, r, rows_per_block):
        forms = []
        for name, n, edges in self._hosts(r):
            if rows_per_block:
                block_bytes = rows_per_block * n ** (r - 1)
                monkeypatch.setattr(hypergraph_module, "DENSE_BLOCK_BYTES", block_bytes)
            g = Hypergraph(r, n, edges[rng_from_seed(n).permutation(len(edges))])
            edge_set = {tuple(sorted(e)) for e in edges.tolist()}
            links = _links_by_brute_force(n, edge_set)
            np.testing.assert_array_equal(g.degrees(), [len(link) for link in links])
            for v in range(n):
                assert g.distances_from(v).tolist() == [len(links[u] ^ links[v]) for u in range(n)]
                assert g.link(v) == links[v]
            assert g.twin_classes().tolist() == [links.index(link) for link in links]
            for face in itertools.product(range(n), repeat=r - 1):
                row = np.unpackbits(g.completions(face), count=n).tolist()
                assert row == [
                    len(set(face) | {w}) == r and tuple(sorted(face + (w,))) in edge_set
                    for w in range(n)
                ], (name, face)
            rows = isinstance(g._links, np.ndarray)
            assert rows == (_row_bytes(r, n) <= 4 * r * len(edges))
            forms.append(rows)
        # the dense hosts keep rows, the sparse and the padded ones link codes
        assert forms[:2] == [True, False] and forms[3] is False

    @pytest.mark.parametrize("rows_per_block", [1, 5, None])
    @pytest.mark.parametrize("n", [0, 23, 63, 64, 65, 129])
    def test_graph_rows_match_brute_force_adjacency(self, monkeypatch, n, rows_per_block):
        # a graph's link rows are its adjacency rows, padded with zero bits
        # to whole 64-bit words, on either side of every word boundary and
        # built in one dense block or several
        if rows_per_block:
            monkeypatch.setattr(hypergraph_module, "DENSE_BLOCK_BYTES", rows_per_block * n)
        g = erdos_renyi(n, 0.3, n)
        adj = np.zeros((n, n), dtype=bool)
        for u, v in g:
            adj[u, v] = adj[v, u] = True
        rows = g.link_rows
        assert rows.nbytes == _row_bytes(2, n) and rows.shape[1] % 8 == 0
        np.testing.assert_array_equal(rows[:, : (n + 7) // 8], np.packbits(adj, axis=1))
        assert not np.unpackbits(rows, axis=1)[:, n:].any()
        for v in range(n):
            assert g.distances_from(v).tolist() == (adj ^ adj[v]).sum(axis=1).tolist()
            assert g.link(v) == {(int(u),) for u in np.flatnonzero(adj[v])}
            completions = g.completions((v,))
            assert completions.size == (n + 7) // 8
            assert np.unpackbits(completions, count=n).tolist() == adj[v].tolist()
        first = [next(u for u in range(n) if (adj[u] == adj[v]).all()) for v in range(n)]
        assert g.twin_classes().tolist() == first

    def test_a_sparse_graph_costs_memory_in_proportion_to_its_edges(self):
        # 2 edges on 30 000 vertices: the link codes, a distance array and a
        # twin array; the rows alone would take 113 MB
        g = Hypergraph(2, 30_000, [(0, 1), (2, 3)])
        tracemalloc.start()
        try:
            roots = g.twin_classes()
            d = g.distances_from(0)
            row = g.completions((0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.link_rows is None
        assert roots[:5].tolist() == [0, 1, 2, 3, 4] and (roots[4:] == 4).all()
        assert d[:5].tolist() == [0, 2, 2, 2, 1] and (d[4:] == 1).all()
        assert np.flatnonzero(np.unpackbits(row)).tolist() == [1]
        assert peak < 4 << 20

    @pytest.mark.parametrize("r", [3, 4])
    def test_links_wait_for_their_first_query(self, r):
        # build, degrees and serialization read no link; the eager link
        # codes took the build's peak from 2.4x to 3.4x the edge bytes
        host = pattern_blowup(Pattern.single_edge(r), (40, 40, 40) if r == 3 else (12,) * 4)
        edges = np.ascontiguousarray(host.edge_array)
        tracemalloc.start()
        try:
            g = Hypergraph(r, host.n, edges)
            deg = g.degrees()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert serialize_hypergraph(g) == serialize_hypergraph(host)
        np.testing.assert_array_equal(deg, np.bincount(edges.ravel(), minlength=host.n))
        assert g._links is None
        assert peak < 3 * edges.nbytes
        assert g.twin_classes().tolist() == host.twin_classes().tolist()
        assert g._links is not None


class TestDegreesByColumn:
    """For r >= 3 the degrees are the first column's offsets plus a count of
    every other column; they must equal a count of the edge array's entries,
    and reading them builds no link."""

    @pytest.mark.parametrize("r", [3, 4])
    @pytest.mark.parametrize("shuffled", [False, True], ids=["canonical", "shuffled"])
    def test_match_a_count_of_the_edge_array(self, monkeypatch, r, shuffled):
        # vertices 0, 1 and 9, 10 are isolated; the other columns are counted
        # in one slice, then in slices of n = 11 entries
        rng = np.random.default_rng(r)
        pool = np.array(list(itertools.combinations(range(2, 9), r)))
        edges = pool[rng.random(len(pool)) < 0.6]
        if shuffled:
            edges = rng.permuted(edges[rng.permutation(len(edges))], axis=1)
        self._check(Hypergraph(r, 11, edges))
        monkeypatch.setattr(hypergraph_module, "SLICE_BYTES", 8)
        self._check(Hypergraph(r, 11, edges))

    @pytest.mark.parametrize("r", [3, 4])
    @pytest.mark.parametrize("n", [0, 5])
    def test_without_edges(self, r, n):
        self._check(Hypergraph(r, n, []))

    @staticmethod
    def _check(g):
        expected = np.bincount(g.edge_array.ravel(), minlength=g.n)
        deg = g.degrees()
        assert deg.dtype == expected.dtype
        np.testing.assert_array_equal(deg, expected)
        assert [g.degree(v) for v in range(g.n)] == expected.tolist()
        assert g._links is None
        if g.n:
            with pytest.raises(ValueError):
                deg[0] = 1


def _slice_rows(monkeypatch, r, rows):
    """Make the constructor's slices ``rows`` rows of r int32 columns."""
    monkeypatch.setattr(hypergraph_module, "SLICE_BYTES", 4 * r * rows)


class TestSlicedBuild:
    """The constructor casts, sorts, checks and codes the rows a slice at a
    time; on slices of a few rows every input dtype and layout must build
    the edges, codes and degrees of a Python reference, and every fault must
    raise the message of the first one in canonical order."""

    ROWS = 4  # rows per slice

    @staticmethod
    def _reference(r, n, edges):
        canon = sorted({tuple(sorted(e)) for e in edges})
        base = max(n, 2)
        codes = [sum(v * base ** (r - 1 - i) for i, v in enumerate(e)) for e in canon]
        deg = Counter(v for e in canon for v in e)
        return canon, codes, [deg[v] for v in range(n)]

    @staticmethod
    def _inputs(edges, r, dtype):
        """The rows as a C-order and an F-order array of ``dtype`` and as a
        list of tuples (of Python ints, or of ``dtype`` scalars)."""
        arr = np.array(edges, dtype=dtype).reshape(len(edges), r)
        return {
            "C": arr,
            "F": np.asfortranarray(arr),
            "list": [tuple(row) for row in (arr.tolist() if dtype is object else arr)],
        }

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64, object])
    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("m", [0, 1, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 2])
    def test_every_dtype_and_layout_matches_a_python_reference(self, monkeypatch, dtype, r, m):
        _slice_rows(monkeypatch, r, self.ROWS)
        n = 9
        rng = np.random.default_rng([r, m])
        pool = list(itertools.combinations(range(n), r))
        canon = [pool[i] for i in sorted(rng.choice(len(pool), m, replace=False))]
        shuffled = [tuple(rng.permutation(e).tolist()) for e in canon]
        shuffled = [shuffled[i] for i in rng.permutation(m)]
        ref = self._reference(r, n, canon)
        for order, edges in (("sorted", canon), ("shuffled", shuffled)):
            for layout, rows in self._inputs(edges, r, dtype).items():
                g = Hypergraph(r, n, rows)
                what = (order, layout)
                assert g.edge_array.dtype == np.int32, what
                assert g.edge_list() == ref[0], what
                assert g._edge_codes.tolist() == ref[1], what
                assert g.degrees().tolist() == ref[2], what

    @pytest.mark.parametrize("m", [0, 1])
    def test_bool_arrays(self, monkeypatch, m):
        _slice_rows(monkeypatch, 2, 1)
        edges = [(True, False)][:m]
        for rows in self._inputs(edges, 2, bool).values():
            g = Hypergraph(2, 2, rows)
            assert g.edge_list() == [(0, 1)][:m]
            assert g._edge_codes.tolist() == [1][:m] and g.degrees().tolist() == [m, m]

    def test_a_code_drop_at_a_slice_boundary_takes_the_sort(self, monkeypatch):
        # slice 0 holds rows 0..3 of canonical order 1..4, and row 4 is the
        # canonical row 0: the codes drop exactly at the boundary, with no
        # duplicate, so the codes are sorted and decoded
        _slice_rows(monkeypatch, 3, self.ROWS)
        canon = list(itertools.combinations(range(7), 3))[:11]
        rows = canon[1:5] + canon[:1] + canon[5:]
        decoded = []
        decode = hypergraph_module._decode_codes

        def spy(codes, base, k, out=None):
            decoded.append(codes.size)
            return decode(codes, base, k, out)

        monkeypatch.setattr(hypergraph_module, "_decode_codes", spy)
        assert Hypergraph(3, 7, np.array(canon)).edge_list() == canon
        assert decoded == []  # canonical rows keep the block as cast
        g = Hypergraph(3, 7, np.array(rows))
        assert g.edge_list() == canon and g._edge_codes.tolist() == self._reference(3, 7, canon)[1]
        assert decoded == [4, 4, 3]

    # rows 0..3 are slice 0 and rows 4..7 slice 1; canonical rows of K_7^(3)
    CANON = list(itertools.combinations(range(7), 3))[:10]

    @pytest.mark.parametrize(
        "rows, dtype, n, message",
        [
            # a repeated vertex in the first row of slice 1 beats a duplicate
            # in slice 0 and a repeated vertex after it
            (CANON[:2] + CANON[:2] + [(5, 3, 5)] + [(0, 0, 1)] + CANON[4:], np.int64, 7,
             "edge (3, 5, 5) has a repeated vertex"),
            # the last row of slice 0 and the first of slice 1 are one edge
            (CANON[:4] + [(1, 5, 0)] + CANON[4:], np.int64, 7,
             "duplicate edge (0, 1, 5); multi-edges are rejected"),
            (CANON[:4] + [(5, 1, 0)] + CANON[4:], np.int32, 7,
             "duplicate edge (0, 1, 5); multi-edges are rejected"),
            # shuffled: after the sort the pair straddles the decode's boundary,
            # and the least of two duplicates is named
            ([(6, 2, 0)] + CANON[::-1] + [(5, 0, 1)], np.int64, 7,
             "duplicate edge (0, 1, 5); multi-edges are rejected"),
            # range faults come first, in any slice and any dtype
            (CANON[:4] + [(5, 5, 6)] + CANON[4:6] + [(1, 2, -100)], np.int8, 200,
             "edge vertex -100 outside [0, 200)"),
            ([(1, 1, 2)] + CANON + [(3, 9, 4)], np.int64, 7, "edge vertex 9 outside [0, 7)"),
            ([(1, 1, 2)] + CANON + [(3, 9, 4)], object, 7, "edge vertex 9 outside [0, 7)"),
        ],
        ids=["repeated", "duplicate-int64", "duplicate-int32", "least-duplicate",
             "negative-int8", "out-of-range", "out-of-range-object"],
    )
    def test_faults_across_slices(self, monkeypatch, rows, dtype, n, message):
        _slice_rows(monkeypatch, 3, self.ROWS)
        for layout, edges in self._inputs(rows, 3, dtype).items():
            with pytest.raises(InvalidInput) as err:
                Hypergraph(3, n, edges)
            assert str(err.value) == message, layout

    @pytest.mark.parametrize(
        "rows",
        [
            CANON,
            CANON[5:] + [(3, 1, 2)] + CANON[:3],
            CANON[:2] + CANON[:2] + [(5, 3, 5)] + [(0, 0, 1)] + CANON[4:],
            CANON[:4] + [(1, 5, 0)] + CANON[4:],
            [(6, 2, 0)] + CANON[::-1] + [(5, 0, 1)],
        ],
        ids=["canonical", "shuffled", "repeated", "duplicate", "least-duplicate"],
    )
    def test_a_handed_over_block_is_checked_in_place(self, monkeypatch, rows):
        # the generators' path: the (r, m) int32 block is kept, not copied,
        # and builds or refuses as the constructor does on its rows
        _slice_rows(monkeypatch, 3, self.ROWS)
        block = np.array(rows, dtype=np.int32).T.copy()
        try:
            expected = Hypergraph(3, 7, rows)
        except InvalidInput as exc:
            with pytest.raises(InvalidInput) as err:
                Hypergraph._from_block(3, 7, block)
            assert str(err.value) == str(exc)
            return
        g = Hypergraph._from_block(3, 7, block)
        assert np.shares_memory(g.edge_array, block)
        assert g == expected and not g.edge_array.flags.writeable
        assert g._edge_codes.tolist() == expected._edge_codes.tolist()
        assert g.degrees().tolist() == expected.degrees().tolist()

    def test_build_peak_of_a_shuffled_host(self):
        # the hyper-array host: relabelled, shuffled int64 triples, which take
        # the sort; the block and the codes are allocated once, next to
        # slice-sized temporaries (stacking sorted whole columns peaked at
        # about 1.6x)
        base = pattern_blowup(Pattern.single_edge(3), (80, 80, 80))
        rng = np.random.Generator(np.random.Philox(4101))
        edges = rng.permutation(base.n)[base.edge_array][rng.permutation(len(base))]
        assert edges.dtype == np.int64 and edges.flags.c_contiguous
        tracemalloc.start()
        try:
            g = Hypergraph(3, base.n, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(g.edge_array, np.unique(np.sort(edges, axis=1), axis=0))
        stored = g.edge_array.nbytes + g._edge_codes.nbytes  # 8.2 MB
        assert peak <= 1.25 * stored


class TestInduced:
    def test_complete_graph_restriction(self):
        k4 = catalog("complete", n=4)
        sub, mapping = k4.induced([0, 2, 3])
        assert sub == Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])
        assert mapping == {0: 0, 2: 1, 3: 2}

    def test_cycle_adjacent_pair(self):
        sub, _ = catalog("cycle", k=5).induced([1, 2])
        assert sub.edge_list() == [(0, 1)]

    def test_fano_single_edge(self):
        sub, _ = FANO.induced([0, 1, 2])
        assert sub.edge_list() == [(0, 1, 2)]

    def test_empty_subset(self):
        sub, mapping = K3.induced([])
        assert sub.n == 0 and len(sub) == 0 and mapping == {}

    def test_out_of_range_subset(self):
        with pytest.raises(InvalidVertex):
            K3.induced([0, 7])

    @staticmethod
    def _reference(g, subset):
        keep = sorted(set(subset))
        new = {v: i for i, v in enumerate(keep)}
        rows = [tuple(new[v] for v in e) for e in g.edge_list() if all(v in new for v in e)]
        return len(keep), sorted(rows), new

    def test_matches_a_python_reference(self):
        # seeded random hosts with unsorted subsets that repeat entries, plus
        # the empty subset, an edgeless host and the empty vertex set
        rng = np.random.default_rng(2024)
        hosts = [Hypergraph(2, 0, []), Hypergraph(3, 6, [])]
        for r in (2, 3, 4):
            for n in (r, 7, 12):
                pool = list(itertools.combinations(range(n), r))
                hosts.append(Hypergraph(r, n, [e for e in pool if rng.random() < 0.6]))
        for g in hosts:
            subsets = [[], list(range(g.n))[::-1]]
            for size in (1, g.n // 2, g.n + 3):
                subsets.append(rng.integers(0, g.n, size).tolist() if g.n else [])
            for subset in subsets:
                sub, mapping = g.induced(subset)
                assert (sub.n, sub.edge_list(), mapping) == self._reference(g, subset)
                assert sub.r == g.r


class TestCanonicalization:
    @given(edge_sets(), st.sampled_from(EDGE_FORMS))
    @settings(max_examples=150, deadline=None)
    def test_matches_a_python_reference(self, case, form):
        r, n, edges = case
        g = Hypergraph(r, n, as_form(edges, r, form))
        ref = {tuple(sorted(e)) for e in edges}
        assert g.edge_list() == sorted(ref)
        deg = Counter(v for e in ref for v in e)
        assert g.degrees().tolist() == [deg[v] for v in range(n)]
        links = [{tuple(u for u in e if u != v) for e in ref if v in e} for v in range(n)]
        for v in range(n):
            assert g.link(v) == links[v]
            assert g.distances_from(v).tolist() == [len(links[u] ^ links[v]) for u in range(n)]
        for sub in itertools.combinations(range(n), r):
            assert g.has_edge(sub[::-1]) == (sub in ref)
        for face in itertools.combinations(range(n), r - 1):
            row = np.unpackbits(g.completions(face[::-1]), count=n).tolist()
            assert row == [tuple(sorted(face + (w,))) in ref for w in range(n)]


class TestColumnLayout:
    """The edge array is stored column-major; nothing a caller reads of it
    may differ from the row-major array of the same edges."""

    BUILDS = ["list", "c_int64", "f_int32", "shuffled", "induced", "delete_random_edges"]

    @staticmethod
    def _built(r, n, build):
        """A host on n vertices (edges on 9 of them) made by ``build``, and
        the C-ordered reference array of its canonical edges."""
        rng = np.random.default_rng(100 * r + n % 97)
        used = np.sort(rng.choice(n, 9, replace=False)).tolist()
        rows = [e for e in itertools.combinations(used, r) if rng.random() < 0.6]
        dtype = np.int32 if max(n, 2) ** r < 2**31 else np.int64
        ref = np.array(rows, dtype=dtype).reshape(len(rows), r)
        scrambled = [tuple(rng.permutation(e).tolist()) for e in rows]
        if build == "list":
            return Hypergraph(r, n, scrambled), ref
        if build == "c_int64":
            return Hypergraph(r, n, np.array(scrambled, dtype=np.int64)), ref
        if build == "f_int32":
            return Hypergraph(r, n, np.asfortranarray(scrambled, dtype=np.int32)), ref
        if build == "shuffled":
            order = rng.permutation(len(rows))
            return Hypergraph(r, n, np.array(scrambled, dtype=np.int64)[order]), ref
        host = Hypergraph(r, n, rows)
        if build == "induced":
            keep = used[1:]
            new = {v: i for i, v in enumerate(keep)}
            sub = [[new[v] for v in e] for e in rows if all(v in new for v in e)]
            dtype = np.int32 if max(len(keep), 2) ** r < 2**31 else np.int64
            return host.induced(keep)[0], np.array(sub, dtype=dtype).reshape(len(sub), r)
        k = len(rows) // 3
        drop = _sample_without_replacement(rng_from_seed(5), len(rows), k)
        return delete_random_edges(host, k, 5), np.delete(ref, drop, axis=0)

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize(
        "r, n", [(2, 9), (2, 50_000), (3, 9), (3, 1_300), (4, 9), (4, 216)]
    )
    def test_layout_is_invisible(self, r, n, build):
        g, ref = self._built(r, n, build)
        assert ref.flags.c_contiguous and len(g) == len(ref) > 0
        edges = g.edge_array
        # the contract the column passes rely on
        assert edges.T.flags.c_contiguous
        np.testing.assert_array_equal(edges, ref)
        assert edges.dtype == ref.dtype and not edges.flags.writeable
        assert edges.tobytes() == ref.tobytes()
        assert g == Hypergraph(r, g.n, ref) and hash(g) == hash((r, g.n, ref.tobytes()))
        rows = ref.tolist()
        assert serialize_hypergraph(g) == f"{r} {g.n} {len(rows)}\n" + "".join(
            " ".join(map(str, e)) + "\n" for e in rows
        )
        members, incident = _incidence(g)
        assert members == ref.ravel().tolist()
        assert incident == [[i for i, e in enumerate(rows) if v in e] for v in range(g.n)]


class TestInvariants:
    @given(hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_distance_symmetry_and_inclusion_exclusion(self, g):
        for u in range(g.n):
            for v in range(u + 1, g.n):
                duv = g.hamming_distance(u, v)
                assert duv == g.hamming_distance(v, u)
                common = len(g.link(u) & g.link(v))
                assert duv == g.degree(u) + g.degree(v) - 2 * common

    @given(hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum(self, g):
        assert sum(g.degree(v) for v in range(g.n)) == g.r * len(g)

    @given(hypergraphs())
    @settings(max_examples=40, deadline=None)
    def test_induced_on_everything_is_identity(self, g):
        sub, mapping = g.induced(range(g.n))
        assert sub is g
        assert mapping == {v: v for v in range(g.n)}


class TestPartition:
    def test_valid(self):
        p = Partition([[0, 1], [2], []], 3)
        assert p.classes == ((0, 1), (2,), ())
        assert p.sizes() == (2, 1, 0)
        assert not p.has_full_support()
        assert Partition([[0, 1], [2]], 3).has_full_support()

    def test_labels_round_trip(self):
        p = Partition([[0, 2], [1]], 3)
        assert list(p.labels) == [0, 1, 0]
        assert Partition.from_labels(np.array([0, 1, 0]), 2) == p

    def test_overlap_rejected(self):
        with pytest.raises(InvalidInput):
            Partition([[0, 1], [1, 2]], 3)

    def test_missing_vertex_rejected(self):
        with pytest.raises(InvalidInput):
            Partition([[0], [2]], 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidVertex):
            Partition([[0, 5]], 2)

    def test_nonempty_class_sets(self):
        p = Partition([[1], [0, 2], []], 3)
        q = Partition([[0, 2], [], [1]], 3)
        assert p.nonempty_class_sets() == q.nonempty_class_sets()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Partition([[0.5, 1.7]], 2),
            lambda: Partition([["0", "1"]], 2),
            lambda: Partition([np.array([0.0, 1.0])], 2),
            lambda: Partition([[0, 1]], 2.0),
            lambda: Partition.from_labels(np.array([0.5, 1.2]), 2),
            lambda: Partition.from_labels(["0", "1"], 2),
            lambda: Partition.from_labels(np.array([0, 1]), 2.0),
        ],
        ids=["floats", "strings", "float-array", "float-n", "float-labels", "string-labels",
             "float-count"],
    )
    def test_non_integers_are_refused_not_truncated(self, build):
        with pytest.raises(InvalidInput, match="integer"):
            build()

    def test_integer_kinds_and_empty_float_arrays_are_accepted(self):
        p = Partition([np.array([2], dtype=np.uint8), [np.int32(0), True]], 3)
        assert p.classes == ((2,), (0, 1))
        # np.array([]) is float: the coloring of a 0-vertex host
        assert Partition.from_labels(np.array([]), 3).sizes() == (0, 0, 0)
        assert Partition([np.array([]), []], 0).classes == ((), ())
        assert Partition.from_labels([0, 1, 1], 2).labels.dtype == np.int64

    def test_a_vertex_past_int64_is_out_of_range(self):
        with pytest.raises(InvalidVertex):
            Partition([[0, 2**70]], 2)
        with pytest.raises(InvalidInput, match="label outside"):
            Partition.from_labels([0, 2**70], 2)
