"""Generator and fixture-catalog tests."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from linkclust import hypergraph as hypergraph_module
from linkclust import (
    Hypergraph,
    InvalidInput,
    Partition,
    Pattern,
    balanced_sizes,
    catalog,
    contiguous_classes,
    delete_random_edges,
    find_embedding,
    find_homomorphism,
    join_construction,
    pattern_blowup,
    plant_violation,
    rng_from_seed,
    serialize_hypergraph,
    turan_classes,
    turan_graph,
    turan_number,
)
from helpers import erdos_renyi, reference_blowup

K3 = catalog("complete", n=3)
K4 = catalog("complete", n=4)


class TestTuranGraph:
    def test_small_cases(self):
        assert turan_graph(5, 2) == Hypergraph(
            2, 5, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]
        )
        assert len(turan_graph(6, 3)) == 12

    def test_full_parts_give_complete_graph(self):
        assert turan_graph(4, 4) == K4

    def test_edge_counts_and_balance(self):
        for parts in range(1, 6):
            for n in range(parts, 40):
                sizes = balanced_sizes(n, parts)
                assert max(sizes) - min(sizes) <= 1 and sum(sizes) == n
                assert len(turan_graph(n, parts)) == turan_number(n, parts)

    def test_precondition(self):
        with pytest.raises(InvalidInput):
            turan_graph(2, 3)

    @pytest.mark.parametrize("n, parts", [(5, 0), (5, -1), (-3, 2), (0, 0)])
    def test_balanced_sizes_refuses_bad_counts(self, n, parts):
        with pytest.raises(InvalidInput, match="need n >= 0 and parts >= 1"):
            balanced_sizes(n, parts)

    def test_balanced_sizes_takes_no_vertices(self):
        assert balanced_sizes(0, 3) == (0, 0, 0)


class TestPatternBlowup:
    def test_identity_blowup(self):
        assert pattern_blowup(Pattern.complete_graph(3), (1, 1, 1)) == K3

    def test_transversal_blowup_edge_count(self):
        host = pattern_blowup(Pattern.single_edge(3), (2, 2, 2))
        assert host.n == 6 and len(host) == 8

    def test_multiset_blowup_edge_count(self):
        doubled = Pattern(3, 2, [(0, 0, 1)])
        host = pattern_blowup(doubled, (3, 2))
        assert host.n == 5 and len(host) == 6  # C(3,2) * 2

    def test_class_map_is_a_coloring(self):
        pattern = Pattern.cycle(5)
        sizes = (2, 1, 2, 1, 1)
        host = pattern_blowup(pattern, sizes)
        labels = contiguous_classes(sizes).labels
        allowed = set(pattern.edges)
        for e in host:
            assert tuple(sorted(labels[v] for v in e)) in allowed
        assert find_homomorphism(host, pattern, surjective=True) is not None

    def test_size_below_multiplicity_rejected(self):
        with pytest.raises(InvalidInput):
            pattern_blowup(Pattern(3, 2, [(0, 0, 1)]), (1, 5))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            pattern_blowup(Pattern.complete_graph(3), (2, 2))

    def test_memory_follows_the_pattern_edges(self):
        # K_120 has 7 140 edges of 2 vertices, not of 120 multiplicities
        tracemalloc.start()
        try:
            host = turan_graph(120, 120)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(host) == math.comb(120, 2)
        assert peak < 4 << 20

    def test_the_host_keeps_the_written_block(self):
        # the hyper-array base host: its 512 000 triples are written once,
        # as int32 columns that the host keeps; int64 rows copied into the
        # block peaked at 2.5x the block and codes
        tracemalloc.start()
        try:
            host = pattern_blowup(Pattern.single_edge(3), (80, 80, 80))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        edges = host.edge_array
        assert edges.dtype == np.int32 and edges.flags.f_contiguous and not edges.flags.writeable
        assert len(host) == 80**3 and host.edge_list()[:2] == [(0, 80, 160), (0, 80, 161)]
        assert peak <= 1.1 * (edges.nbytes + host._edge_codes.nbytes)

    @pytest.mark.parametrize(
        "pattern, sizes",
        [
            (Pattern.single_edge(3), (2, 3, 4)),  # one pattern edge: kept as written
            (Pattern.complete_graph(4), (3, 1, 4, 2)),  # its blocks' codes drop: sorted in place
            (Pattern.cycle(5), (2, 3, 1, 2, 2)),
            (Pattern.from_multisets(3, 2, [(0, 0, 1), (0, 1, 1)]), (4, 3)),
            (Pattern.from_multisets(4, 2, [(0, 0, 0, 1), (0, 0, 1, 1)]), (5, 4)),
            (Pattern.single_edge(3), (2, 2, 1300)),  # 1304**3 > 2**31: int64 codes
        ],
        ids=["single-edge", "K4", "C5", "multiplicities-r3", "multiplicities-r4", "int64-codes"],
    )
    def test_slices_of_a_few_rows(self, monkeypatch, pattern, sizes):
        # the kept block is checked and, when its codes drop, sorted in place
        # three rows at a time, across every slice boundary
        monkeypatch.setattr(hypergraph_module, "SLICE_BYTES", 4 * pattern.r * 3)
        host = pattern_blowup(pattern, sizes)
        expected = reference_blowup(pattern, sizes)
        assert host == expected
        assert host.edge_array.dtype == expected.edge_array.dtype
        assert host._edge_codes.tolist() == expected._edge_codes.tolist()
        assert host.degrees().tolist() == expected.degrees().tolist()


def _complete_pattern(k):
    return Pattern.from_multisets(2, k, itertools.combinations(range(k), 2))


def _join_pattern(base, q):
    """``base`` as a pattern, joined to q new vertices that are adjacent to
    every other vertex: the join is its blow-up with sizes (1, ..., 1, s, ..., s)."""
    n = base.n + q
    added = [(u, v) for u, v in itertools.combinations(range(n), 2) if v >= base.n]
    return Pattern.from_multisets(2, n, [*base, *added])


_JOIN_BASES = {
    "n0": Hypergraph(2, 0, []),
    "n1": Hypergraph(2, 1, []),
    "K2": Hypergraph(2, 2, [(0, 1)]),
    "C5": Hypergraph(2, 5, [(i, (i + 1) % 5) for i in range(5)]),
    "T9_3": Hypergraph(
        2, 9, [(u, v) for u, v in itertools.combinations(range(9), 2) if u // 3 != v // 3]
    ),
}

_MULTIPLICITY_BLOWUPS = [
    (Pattern.from_multisets(3, 2, [(0, 0, 1), (0, 1, 1)]), [(2, 2), (3, 4), (5, 2), (4, 3)]),
    (
        Pattern.from_multisets(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)]),
        [(1, 1, 1, 1), (3, 2, 2, 2), (2, 4, 1, 3)],
    ),
    (Pattern.from_multisets(2, 2, [(0, 0), (0, 1)]), [(2, 1), (5, 3), (4, 1)]),
    (Pattern.from_multisets(2, 3, [(0, 1)]), [(2, 3, 0), (2, 3, 4), (1, 1, 0)]),
    (Pattern.from_multisets(4, 2, [(0, 0, 0, 1), (0, 0, 1, 1)]), [(3, 2), (5, 4)]),
]


class TestBlowupReference:
    """Every generated host against ``reference_blowup``."""

    @pytest.mark.parametrize("parts", range(1, 7))
    def test_turan_graph(self, parts):
        pattern = _complete_pattern(parts)
        for n in range(parts, 41):
            expected = reference_blowup(pattern, balanced_sizes(n, parts))
            assert turan_graph(n, parts) == expected
            assert pattern_blowup(pattern, balanced_sizes(n, parts)) == expected

    @pytest.mark.parametrize("base", list(_JOIN_BASES))
    def test_join_construction(self, base):
        graph = _JOIN_BASES[base]
        for q in (1, 2, 3):
            for s in (1, 2, 4):
                sizes = (1,) * graph.n + (s,) * q
                expected = reference_blowup(_join_pattern(graph, q), sizes)
                assert join_construction(graph, q, s) == expected

    @pytest.mark.parametrize("case", range(len(_MULTIPLICITY_BLOWUPS)))
    def test_patterns_with_multiplicities(self, case):
        pattern, all_sizes = _MULTIPLICITY_BLOWUPS[case]
        for sizes in all_sizes:
            assert pattern_blowup(pattern, sizes) == reference_blowup(pattern, sizes)

    @pytest.mark.parametrize("case", range(len(_MULTIPLICITY_BLOWUPS)))
    def test_patterns_with_multiplicities_are_pinned(self, case):
        # the first 16 hex digits of the sha256 of each edge array's bytes
        pinned = [
            ["d208dd4e199c9a16", "869101eca40fbacd", "aee6d9f5485947f1", "9af9d0a86b19b62e"],
            ["c43133413e96303e", "ea1e43b1506dc6c2", "be586c3ade279b5c"],
            ["72373165deffec74", "7cac0d7dbd8dcc26", "aea45204ea3dad36"],
            ["bfe82f8f65fee624", "bfe82f8f65fee624", "01acecb507abfe1a"],
            ["01c6a535483e471a", "f306dfd278a2cfd0"],
        ][case]
        pattern, all_sizes = _MULTIPLICITY_BLOWUPS[case]
        digests = [
            hashlib.sha256(pattern_blowup(pattern, sizes).edge_array.tobytes()).hexdigest()[:16]
            for sizes in all_sizes
        ]
        assert digests == pinned

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: turan_graph(2, 3), "need n >= parts >= 1"),
            (lambda: turan_graph(3, 0), "need n >= parts >= 1"),
            (lambda: join_construction(K3, 0, 3), "need at least one added part"),
            (lambda: join_construction(K3, 2, 0), "added parts must be nonempty"),
            (
                lambda: join_construction(catalog("fano"), 1, 2),
                "join construction is defined for graphs",
            ),
            (
                lambda: pattern_blowup(Pattern(3, 2, [(0, 0, 1)]), (1, 5)),
                "class 0 has size 1, below the required multiplicity 2",
            ),
            (
                lambda: pattern_blowup(Pattern.complete_graph(3), (2, 2)),
                "2 sizes given for a pattern on 3 vertices",
            ),
            (
                lambda: pattern_blowup(Pattern.complete_graph(2), (2, -1)),
                "class sizes must be nonnegative",
            ),
            (
                lambda: plant_violation(K3, contiguous_classes((2, 2)), 0),
                "partition covers a different vertex count",
            ),
            (lambda: catalog("complete", n=0), "need at least one vertex"),
            (lambda: catalog("cycle", k=2), "cycles need at least 3 vertices"),
            (lambda: catalog("generalized_triangle", r=1), "uniformity must be at least 2"),
            (lambda: catalog("matching", k=0, r=3), "need k >= 1 edges of uniformity >= 2"),
            (lambda: catalog("matching", k=2, r=1), "need k >= 1 edges of uniformity >= 2"),
            (lambda: catalog("sunflower", k=0, r=3), "need k >= 1 edges of uniformity >= 2"),
            (lambda: catalog("sunflower", k=2, r=1), "need k >= 1 edges of uniformity >= 2"),
            (lambda: catalog("complete_blowup", n=3, t=0), "blow-up factor must be positive"),
            (
                lambda: catalog("expansion", graph=catalog("fano"), r=4),
                "expansion starts from a graph",
            ),
            (lambda: catalog("expansion", graph=K3, r=1), "uniformity must be at least 2"),
        ],
        ids=[
            "turan_n_below_parts",
            "turan_no_parts",
            "join_no_parts",
            "join_empty_parts",
            "join_r3",
            "size_below_multiplicity",
            "size_count",
            "negative_size",
            "plant_vertex_count",
            "complete_empty",
            "cycle_short",
            "triangle_r1",
            "matching_k0",
            "matching_r1",
            "sunflower_k0",
            "sunflower_r1",
            "blowup_t0",
            "expansion_of_r3",
            "expansion_to_r1",
        ],
    )
    def test_precondition_messages(self, make, message):
        with pytest.raises(InvalidInput) as err:
            make()
        assert type(err.value) is InvalidInput
        assert str(err.value) == message


class TestEdgeArrayCap:
    """A generator refuses, before allocating, an edge array of more than
    MAX_EDGE_ARRAY_BYTES (8 bytes per vertex of each edge)."""

    @pytest.mark.parametrize(
        "make, m, r",
        [
            (lambda: turan_graph(10**7, 2), 25 * 10**12, 2),
            (lambda: pattern_blowup(Pattern.single_edge(3), (10**5,) * 3), 10**15, 3),
            (lambda: join_construction(K3, 3, 10**5), 3 * 10**10 + 9 * 10**5, 2),
            (lambda: catalog("complete_blowup", n=3, t=10**5), 3 * 10**10, 2),
            (lambda: catalog("complete", n=90000), math.comb(90000, 2), 2),
            (lambda: catalog("matching", k=10**8, r=3), 10**8, 3),
            (lambda: catalog("sunflower", k=10**8, r=3), 10**8, 3),
        ],
        ids=["turan", "blowup", "join", "complete_blowup", "complete", "matching", "sunflower"],
    )
    def test_refused_before_allocating(self, make, m, r):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInput) as err:
                make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == (
            f"{m} edges of {r} vertices need {8 * r * m} bytes, "
            "above MAX_EDGE_ARRAY_BYTES = 1073741824"
        )
        assert peak < 1 << 20

    def test_the_bound_itself_is_allowed(self, monkeypatch):
        import linkclust.corpus

        assert len(turan_graph(6, 3)) == 12
        monkeypatch.setattr(linkclust.corpus, "MAX_EDGE_ARRAY_BYTES", 8 * 2 * 12)
        assert turan_graph(6, 3) == reference_blowup(_complete_pattern(3), (2, 2, 2))
        monkeypatch.setattr(linkclust.corpus, "MAX_EDGE_ARRAY_BYTES", 8 * 2 * 12 - 1)
        with pytest.raises(InvalidInput, match="12 edges of 2 vertices need 192 bytes"):
            turan_graph(6, 3)

    @pytest.mark.parametrize(
        "make, m",
        [
            (lambda: turan_graph(7, 3), 16),
            (lambda: turan_graph(1000, 1000), math.comb(1000, 2)),
            (lambda: join_construction(Hypergraph(2, 2, []), 3, 4), 2 * 3 * 4 + 3 * 16),
            (lambda: join_construction(Hypergraph(2, 0, []), 2000, 1), math.comb(2000, 2)),
            (lambda: catalog("complete_blowup", n=4, t=3), 6 * 9),
            (lambda: catalog("complete_blowup", n=2000, t=2), math.comb(2000, 2) * 4),
        ],
        ids=[
            "turan",
            "turan_large_l",
            "join",
            "join_large_q",
            "complete_blowup",
            "complete_blowup_large_n",
        ],
    )
    def test_k_l_blowups_are_refused_before_k_l_is_built(self, make, m, monkeypatch):
        import linkclust.corpus

        def refuse(*args):
            raise AssertionError("K_l built for a request that is refused")

        monkeypatch.setattr(linkclust.corpus, "MAX_EDGE_ARRAY_BYTES", 16)
        monkeypatch.setattr(Pattern, "complete_graph", refuse)
        with pytest.raises(InvalidInput) as err:
            make()
        assert str(err.value) == (
            f"{m} edges of 2 vertices need {16 * m} bytes, above MAX_EDGE_ARRAY_BYTES = 16"
        )


class TestUniformityCap:
    """A catalog entry whose r-tuples grow with r refuses a vertex count and
    uniformity that ``Hypergraph`` cannot encode before it builds them, with
    the message ``Hypergraph`` gives."""

    @pytest.mark.parametrize(
        "make, n",
        [
            (lambda r: catalog("matching", k=1, r=r), 10**6),
            (lambda r: catalog("sunflower", k=1, r=r), 10**6),
            (lambda r: catalog("generalized_triangle", r=r), 2 * 10**6 - 1),
            (lambda r: catalog("expansion", graph=K3, r=r), 3 * 10**6 - 3),
        ],
        ids=["matching", "sunflower", "generalized_triangle", "expansion"],
    )
    def test_refused_before_building_the_tuples(self, make, n):
        r = 10**6
        with pytest.raises(InvalidInput) as direct:
            Hypergraph(r, n, np.empty((0, r), dtype=np.int64))
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInput) as err:
                make(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == str(direct.value) == (
            f"vertex count {n} too large to encode {r}-tuples in 64 bits"
        )
        assert peak < 1 << 20

    def test_the_vertex_tables_are_refused_first(self, monkeypatch):
        # a smaller table cap stands in for r = 10**8 (n = 2 * 10**8 - 1),
        # whose tuples would take about 10 GB if they were built first
        import linkclust.hypergraph

        monkeypatch.setattr(linkclust.hypergraph, "MAX_VERTEX_TABLE_BYTES", 16 * 10**5)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInput) as err:
                catalog("generalized_triangle", r=10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == (
            "vertex count 199999 needs 3200000 bytes of per-vertex tables, "
            "above MAX_VERTEX_TABLE_BYTES = 1600000"
        )
        assert peak < 1 << 20

    def test_the_largest_encodable_uniformity_is_built(self):
        # 25**13 < 2**62 <= 27**14: the check refuses no more than Hypergraph
        assert catalog("generalized_triangle", r=13).edge_array.shape == (3, 13)
        with pytest.raises(InvalidInput, match="vertex count 27 too large to encode 14-tuples"):
            catalog("generalized_triangle", r=14)


def _c5_join_pattern(extra):
    """C5 joined to K_extra: the pattern of the Andrasfai-Erdos-Sos host."""
    n = 5 + extra
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(u, v) for u, v in itertools.combinations(range(n), 2) if v >= 5]
    return Pattern.from_multisets(2, n, edges)


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("l", [2, 3, 4])
def test_aes_extremal_host_is_one_blowup(l, s):
    """The host that makes the (3l-4)/(3l-1) bound sharp: the C5 blow-up
    joined to l-2 parts of size 3s is one blow-up of C5 joined to K_{l-2}.
    It is (3l-4)s-regular on (3l-1)s vertices, K_{l+1}-free and not
    l-colorable."""
    host = pattern_blowup(Pattern.cycle(5), [s] * 5)
    if l > 2:
        host = join_construction(host, l - 2, 3 * s)
    assert host == pattern_blowup(_c5_join_pattern(l - 2), [s] * 5 + [3 * s] * (l - 2))
    assert host.n == (3 * l - 1) * s
    assert set(host.degrees().tolist()) == {(3 * l - 4) * s}
    assert find_embedding(catalog("complete", n=l + 1), host) is None
    assert find_homomorphism(host, Pattern.complete_graph(l)) is None


class TestDeleteRandomEdges:
    def test_zero_deletions(self):
        g = turan_graph(10, 2)
        assert delete_random_edges(g, 0, 5) == g

    def test_counted_deletions(self):
        g = delete_random_edges(turan_graph(120, 2), 2, 5)
        assert len(g) == 3598

    def test_delete_everything(self):
        g = Hypergraph(2, 2, [(0, 1)])
        assert len(delete_random_edges(g, 1, 0)) == 0

    def test_determinism_and_seed_sensitivity(self):
        g = turan_graph(30, 3)
        a = delete_random_edges(g, 10, 7)
        b = delete_random_edges(g, 10, 7)
        c = delete_random_edges(g, 10, 8)
        assert a == b
        assert a != c

    def test_too_many(self):
        with pytest.raises(InvalidInput):
            delete_random_edges(K3, 4, 0)

    @pytest.mark.parametrize(
        "host, seed, gone",
        [
            ("t30", 0, [(0, 15), (2, 10), (3, 29), (5, 28), (18, 21)]),
            ("t30", 1, [(0, 16), (1, 10), (1, 16), (2, 23), (6, 16)]),
            ("t30", 2, [(9, 10), (10, 23), (14, 20), (14, 24), (14, 25)]),
            ("t30", 3, [(0, 24), (2, 10), (4, 12), (8, 24), (9, 27)]),
            ("k3_333", 0, [(0, 3, 7), (0, 4, 6), (1, 3, 6), (1, 4, 6), (2, 5, 7)]),
            ("k3_333", 1, [(0, 3, 8), (0, 4, 6), (0, 4, 7), (0, 5, 6), (1, 3, 8)]),
            ("k3_333", 2, [(0, 3, 6), (1, 5, 8), (2, 3, 6), (2, 4, 6), (2, 4, 7)]),
            ("k3_333", 3, [(0, 3, 6), (0, 3, 8), (0, 5, 6), (0, 5, 8), (1, 5, 8)]),
        ],
    )
    def test_pinned_rows(self, host, seed, gone):
        g = {
            "t30": turan_graph(30, 3),
            "k3_333": pattern_blowup(Pattern.single_edge(3), (3, 3, 3)),
        }[host]
        out = delete_random_edges(g, 5, seed)
        kept = [e for e in g.edge_list() if e not in gone]
        assert out.edge_list() == kept and out.n == g.n


class TestPlantViolation:
    def test_planting_in_turan_creates_next_clique(self):
        g = plant_violation(turan_graph(6, 3), turan_classes(6, 3), 4)
        assert len(g) == 13
        assert find_embedding(K4, g) is not None

    def test_planting_in_cycle_blowup_kills_colorability(self):
        pattern = Pattern.cycle(5)
        host = pattern_blowup(pattern, (3,) * 5)
        bad = plant_violation(host, contiguous_classes((3,) * 5), 2)
        assert find_homomorphism(host, pattern) is not None
        assert find_homomorphism(bad, pattern) is None

    def test_no_room_rejected(self):
        with pytest.raises(InvalidInput):
            plant_violation(K3, contiguous_classes((1, 1, 1)), 0)

    def test_full_classes_rejected(self):
        # both classes are complete inside, nothing to plant
        g = Hypergraph(2, 4, [(0, 1), (2, 3)])
        with pytest.raises(InvalidInput):
            plant_violation(g, contiguous_classes((2, 2)), 0)

    def test_lands_in_the_class_with_room(self):
        # class 0 is complete inside, class 1 has room, class 2 is too small
        room = list(itertools.combinations(range(5, 10), 3))[:7]
        g = Hypergraph(3, 12, list(itertools.combinations(range(5), 3)) + room)
        parts = Partition([range(5), range(5, 10), [10, 11]], 12)
        for seed in range(20):
            (edge,) = set(plant_violation(g, parts, seed).edge_list()) - set(g.edge_list())
            assert set(edge) <= set(range(5, 10))

    def test_determinism(self):
        g = turan_graph(12, 3)
        parts = turan_classes(12, 3)
        assert plant_violation(g, parts, 3) == plant_violation(g, parts, 3)

    def test_exhaustive_fallback_after_64_present_samples(self, monkeypatch):
        # K20 minus one edge in a single class: seed 0 draws 64 pairs that
        # are all present, so the exhaustive pass over all 190 pairs finds it
        g = Hypergraph(2, 20, [e for e in itertools.combinations(range(20), 2) if e != (3, 17)])
        calls = []
        has_edge = Hypergraph.has_edge
        monkeypatch.setattr(
            Hypergraph, "has_edge", lambda self, e: calls.append(e) or has_edge(self, e)
        )
        planted = plant_violation(g, contiguous_classes((20,)), 0)
        assert len(calls) == 64 + 190
        assert set(planted.edge_list()) - set(g.edge_list()) == {(3, 17)}


class TestJoinConstruction:
    def test_single_edge_plus_one_part(self):
        g = join_construction(Hypergraph(2, 2, [(0, 1)]), 1, 2)
        assert g.n == 4 and len(g) == 5
        assert find_embedding(K3, g) is not None
        assert g.min_degree() >= 1 * 2

    def test_empty_base_gives_multipartite(self):
        g = join_construction(Hypergraph(2, 3, []), 2, 3)
        assert g.n == 9 and len(g) == 27
        assert find_embedding(K3, g) is not None
        assert find_embedding(K4, g) is None

    def test_zero_parts_rejected(self):
        with pytest.raises(InvalidInput):
            join_construction(K3, 0, 3)

    def test_clique_shift_equivalence(self):
        for seed in range(6):
            g = erdos_renyi(9, 0.5, seed)
            for q in (1, 2):
                lifted = join_construction(g, q, g.n)
                has = find_embedding(K3, g) is not None
                lifted_has = (
                    find_embedding(catalog("complete", n=3 + q), lifted) is not None
                )
                assert has == lifted_has
                assert lifted.min_degree() >= q * g.n


class TestCatalog:
    def test_fano(self):
        fano = catalog("fano")
        assert fano.n == 7 and len(fano) == 7
        # every pair of edges shares exactly one vertex
        for a, b in itertools.combinations(fano.edge_list(), 2):
            assert len(set(a) & set(b)) == 1

    def test_generalized_triangle(self):
        t3 = catalog("generalized_triangle", r=3)
        assert t3.edge_list() == [(0, 1, 2), (0, 1, 3), (2, 3, 4)]
        t4 = catalog("generalized_triangle", r=4)
        assert t4.n == 7 and len(t4) == 3

    def test_matching(self):
        m33 = catalog("matching", k=3, r=3)
        assert m33.n == 9 and len(m33) == 3
        flat = [v for e in m33 for v in e]
        assert len(set(flat)) == len(flat)

    def test_sunflower(self):
        l33 = catalog("sunflower", k=3, r=3)
        assert l33.n == 7 and len(l33) == 3
        for a, b in itertools.combinations(l33.edge_list(), 2):
            assert set(a) & set(b) == {0}

    def test_books(self):
        f32 = catalog("f_3_2")
        assert (f32.r, f32.n, len(f32)) == (3, 5, 4)
        f7 = catalog("f_7")
        assert (f7.r, f7.n, len(f7)) == (4, 7, 4)
        f43 = catalog("f_4_3")
        assert (f43.r, f43.n, len(f43)) == (4, 7, 5)
        # the 3-page book is the 4-page book minus one page
        assert set(f7.edge_list()) < set(f43.edge_list())

    def test_disjoint_cliques(self):
        g = catalog("k4_k3_disjoint")
        assert (g.r, g.n, len(g)) == (3, 7, 5)
        sub, _ = g.induced(range(4))
        assert len(sub) == 4

    def test_cycle_and_blowup(self):
        assert catalog("cycle", k=6).min_degree() == 2
        assert catalog("complete_blowup", n=3, t=2) == turan_graph(6, 3)

    def test_expansion(self):
        expanded = catalog("expansion", graph=K3, r=3)
        assert expanded.n == 6 and len(expanded) == 3
        fresh = [tuple(set(e) - set(range(3))) for e in expanded]
        assert len(set(v for f in fresh for v in f)) == 3

    def test_unknown_name(self):
        with pytest.raises(InvalidInput):
            catalog("petersen")

    def test_bad_params(self):
        with pytest.raises(InvalidInput):
            catalog("cycle", n=5)


class TestSeeding:
    def test_seed_validation(self):
        with pytest.raises(InvalidInput):
            rng_from_seed(-1)
        with pytest.raises(InvalidInput):
            rng_from_seed(2**64)

    def test_byte_identical_reproduction(self):
        a = serialize_hypergraph(delete_random_edges(turan_graph(40, 4), 30, 123))
        b = serialize_hypergraph(delete_random_edges(turan_graph(40, 4), 30, 123))
        assert a == b
