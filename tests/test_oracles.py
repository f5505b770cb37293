"""Reference-implementation tests: searches, exact counts, grid bounds."""

import importlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkclust import (
    Hypergraph,
    InvalidInput,
    OptConfig,
    OracleTimeout,
    Pattern,
    catalog,
    find_embedding,
    find_homomorphism,
    join_construction,
    lagrangian,
    lagrangian_grid,
    pattern_blowup,
    phi,
    phi_grid,
    rng_from_seed,
    turan_graph,
    turan_number,
)
from helpers import (
    aes_host,
    brute_force_embeddings,
    brute_force_homomorphism,
    brute_force_max_edges_without,
    coloring_instance,
    count_ticks,
    erdos_renyi,
    graphs_up_to_iso,
    is_valid_coloring,
    is_valid_embedding,
    multiset_patterns,
    reference_find_embedding,
    reference_twin_before,
)

# the module, not the package's function of the same name
oracles_module = importlib.import_module("linkclust.oracles")

K3 = catalog("complete", n=3)
C5 = catalog("cycle", k=5)


class TestFindEmbedding:
    def test_no_triangle_in_pentagon(self):
        assert find_embedding(K3, C5) is None

    def test_triangle_in_k4(self):
        emb = find_embedding(K3, catalog("complete", n=4))
        assert emb is not None and is_valid_embedding(K3, catalog("complete", n=4), emb)

    def test_generalized_triangle_avoids_transversal_blowup(self):
        host = pattern_blowup(Pattern.single_edge(3), (2, 2, 2))
        assert find_embedding(catalog("generalized_triangle", r=3), host) is None

    def test_three_uniform_present(self):
        t3 = catalog("generalized_triangle", r=3)
        emb = find_embedding(t3, t3)
        assert emb is not None and is_valid_embedding(t3, t3, emb)

    def test_uniformity_mismatch(self):
        with pytest.raises(InvalidInput):
            find_embedding(K3, catalog("fano"))

    def test_deterministic(self):
        host = turan_graph(12, 3)
        assert find_embedding(K3, host) == find_embedding(K3, host)

    def test_too_large_pattern(self):
        assert find_embedding(catalog("complete", n=5), catalog("complete", n=4)) is None

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("host_n", [0, 6])
    def test_empty_small_embeds_as_empty_map(self, r, host_n):
        host = Hypergraph(r, host_n, itertools.combinations(range(host_n), r))
        assert find_embedding(Hypergraph(r, 0, []), host) == {}

    def test_matches_the_reference_search(self):
        rng = rng_from_seed(14)

        def random_hypergraph(r, n, p):
            tuples = list(itertools.combinations(range(n), r))
            return Hypergraph(r, n, [e for e in tuples if rng.random() < p])

        missing = 0
        for _ in range(300):
            r = int(rng.integers(2, 6))
            host_n = int(rng.integers(r, 11))
            small_n = int(rng.integers(r, min(host_n, 6) + 1))
            small = random_hypergraph(r, small_n, rng.uniform(0.2, 0.9))
            host = random_hypergraph(r, host_n, rng.uniform(0.3, 1.0))
            emb = find_embedding(small, host)
            assert emb == reference_find_embedding(small, host)
            missing += emb is None
        # 33 of the 300 smalls do not embed
        assert missing == 33

    @pytest.mark.parametrize(
        "small, host",
        [
            (catalog("complete", n=6), erdos_renyi(40, 0.4, 2)),
            (Hypergraph(3, 5, itertools.combinations(range(5), 3)), erdos_renyi(24, 0.3, 3, r=3)),
        ],
        ids=["k6", "k5^(3)"],
    )
    def test_timeout(self, monkeypatch, small, host):
        # random hosts have no twins to prune, so these searches outlast the
        # 1 024 ticks before the deadline first reads the clock
        _, ticks = count_ticks(monkeypatch, find_embedding, small, host)
        assert ticks > 1024
        with pytest.raises(OracleTimeout):
            find_embedding(small, host, budget_s=0.0)

    @pytest.mark.parametrize("budget", [math.nan, math.inf])
    def test_a_budget_that_never_runs_out_is_refused(self, budget):
        # refused whatever the input, even where no search is needed
        for small in (catalog("complete", n=3), Hypergraph(2, 0, [])):
            with pytest.raises(InvalidInput, match="never runs out"):
                find_embedding(small, catalog("complete", n=4), budget_s=budget)


@st.composite
def pattern_embedding_cases(draw):
    """``(small, host)`` patterns of one uniformity r in {2, 3, 4}, whose edges
    may repeat a vertex.  Half the smalls are random; the others read some
    host edges back through a random injection, so that they embed."""
    r = draw(st.sampled_from([2, 3, 4]))
    host = draw(multiset_patterns(r, 6, 24))
    if draw(st.booleans()):
        return draw(multiset_patterns(r, 4, 6)), host
    k = draw(st.integers(min_value=1, max_value=min(host.num_vertices, 4)))
    back = {w: v for v, w in enumerate(draw(st.permutations(range(host.num_vertices)))[:k])}
    inside = [[back[w] for w in e] for e in host.edges if back.keys() >= set(e)]
    edges = draw(st.lists(st.sampled_from(inside), max_size=6)) if inside else []
    return Pattern(r, k, set(map(tuple, edges))), host


class TestPatternEmbedding:
    """The embedding search with patterns on both sides, as the deciders'
    cluster match uses it."""

    @given(pattern_embedding_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_a_brute_force_over_injections(self, case):
        small, host = case
        emb = find_embedding(small, host)
        assert (emb is None) == (next(brute_force_embeddings(small, host), None) is None)
        if emb is not None:
            assert sorted(emb) == list(range(small.num_vertices))
            assert len(set(emb.values())) == small.num_vertices
            images = tuple(emb[v] for v in range(small.num_vertices))
            assert images in set(brute_force_embeddings(small, host))

    def test_a_repeated_vertex_has_no_image_in_a_hypergraph(self):
        host = catalog("complete", n=4)
        assert find_embedding(Pattern(2, 2, [(0, 0), (0, 1)]), host) is None
        assert find_embedding(Pattern.cycle(3), host) == find_embedding(K3, host)

    def test_a_hypergraph_embeds_into_a_pattern(self):
        host = Pattern(2, 4, [(0, 0), (0, 1), (1, 2), (0, 2), (2, 3)])
        emb = find_embedding(K3, host)
        assert emb is not None and sorted(emb.values()) == [0, 1, 2]
        assert find_embedding(catalog("complete", n=4), host) is None


def _relabelled(host, seed):
    perm = rng_from_seed(seed).permutation(host.n)
    return Hypergraph(host.r, host.n, perm[host.edge_array])


def _twin_rich_cases():
    gt = catalog("generalized_triangle", r=3)
    e3 = pattern_blowup(Pattern.single_edge(3), (3, 3, 3))
    planted = Hypergraph(3, 9, [*e3.edge_list(), (0, 1, 3)])
    cases = {
        "gt-in-E3-blowup": (gt, _relabelled(e3, 1)),
        "gt-in-planted-E3-blowup": (gt, _relabelled(planted, 2)),
        "K5^(4)-in-E4-blowup": (
            Hypergraph(4, 5, itertools.combinations(range(5), 4)),
            _relabelled(pattern_blowup(Pattern.single_edge(4), (2,) * 4), 3),
        ),
        "C5-in-C5-blowup": (C5, _relabelled(pattern_blowup(Pattern.cycle(5), (3,) * 5), 4)),
        "K2,2-in-C5-blowup": (
            catalog("complete_blowup", n=2, t=2),
            _relabelled(pattern_blowup(Pattern.cycle(5), (3,) * 5), 8),
        ),
        "K3-in-C5-blowup": (K3, _relabelled(pattern_blowup(Pattern.cycle(5), (3,) * 5), 5)),
        "K4-in-T(12,3)": (catalog("complete", n=4), _relabelled(turan_graph(12, 3), 6)),
        "K3-in-T(12,3)": (K3, _relabelled(turan_graph(12, 3), 7)),
    }
    for l, s in ((2, 2), (3, 2), (4, 1)):
        host = _relabelled(aes_host(l, s), 10 * l + s)
        cases[f"K{l + 1}-in-AES({l},{s})"] = (catalog("complete", n=l + 1), host)
        cases[f"K{l}-in-AES({l},{s})"] = (catalog("complete", n=l), host)
    for seed in range(3):
        base = erdos_renyi(7, 0.5, 20 + seed)
        for q in (1, 2):
            joined = _relabelled(join_construction(base, q, 3), seed)
            for size in (3 + q, 4 + q):
                cases[f"K{size}-in-join{seed}-{q}"] = (catalog("complete", n=size), joined)
    return cases


TWIN_RICH = _twin_rich_cases()


@st.composite
def multiset_families(draw):
    """``(edges, k)``: a set of sorted r-tuples over ``range(k)`` that may
    repeat a vertex, r in {2, 3, 4}.  Half are random; the others are
    blow-ups of a random family, whose classes have twins to find."""
    r = draw(st.sampled_from([2, 3, 4]))
    if draw(st.booleans()):
        pattern = draw(multiset_patterns(r, 7, 30))
        return pattern.edges, pattern.num_vertices
    base = set(draw(multiset_patterns(r, 3, 8)).edges)
    k = draw(st.integers(min_value=1, max_value=7))
    part = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    edges = [
        e
        for e in itertools.combinations_with_replacement(range(k), r)
        if tuple(sorted(part[v] for v in e)) in base
    ]
    return edges, k


class TestTwinBefore:
    """The transposition classes of the small side, read from the tuples
    through each pair, against remapping every tuple for every pair."""

    @given(multiset_families())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_remapping_reference(self, family):
        edges, k = family
        assert oracles_module._twin_before(edges, k) == reference_twin_before(edges, k)


class TestTwinRichHosts:
    """The symmetry rules prune twins on both sides; the embedding found must
    still be the reference search's first one."""

    @pytest.mark.parametrize("name", list(TWIN_RICH))
    def test_matches_the_reference_search(self, name):
        small, host = TWIN_RICH[name]
        assert len(set(host.twin_classes().tolist())) < host.n  # twins to prune
        assert find_embedding(small, host) == reference_find_embedding(small, host)

    def test_both_answers_occur(self):
        found = {find_embedding(*case) is not None for case in TWIN_RICH.values()}
        assert found == {True, False}


class TestEmbeddingWork:
    """Exact tick counts, independent of the machine: the twin rules must
    keep pruning."""

    @pytest.mark.parametrize(
        "l, bound",
        # 21, 43 and 87 ticks; 2 101, 188 161 and over 6 million without the
        # twin rules
        [(2, 40), (3, 80), (4, 160)],
    )
    def test_clique_into_the_aes_host(self, monkeypatch, l, bound):
        host = aes_host(l, 10)
        emb, ticks = count_ticks(monkeypatch, find_embedding, catalog("complete", n=l + 1), host)
        assert emb is None and ticks <= bound

    def test_generalized_triangle_into_a_relabelled_blowup(self, monkeypatch):
        # 31 ticks; 7 951 without the twin rules
        host = _relabelled(pattern_blowup(Pattern.single_edge(3), (5,) * 3), 2021)
        gt = catalog("generalized_triangle", r=3)
        emb, ticks = count_ticks(monkeypatch, find_embedding, gt, host)
        assert emb is None and ticks <= 60

    @pytest.mark.parametrize("k", [9, 11, 13, 17, 21])
    def test_relabelled_cycle_into_a_relabelled_cycle(self, monkeypatch, k):
        # the connected order maps the cycle along its edges, so each vertex
        # takes its first candidate: k ticks; the static degree order took
        # 13 to 10 666 267 ticks on these cases
        for seed in range(3):
            cycle = _relabelled(catalog("cycle", k=k), seed)
            host = _relabelled(pattern_blowup(Pattern.cycle(k), (1,) * k), 1000 + seed)
            emb, ticks = count_ticks(monkeypatch, find_embedding, cycle, host)
            assert is_valid_embedding(cycle, host, emb) and ticks <= 2 * k


@pytest.fixture(scope="module")
def c5_blowup():
    return pattern_blowup(Pattern.cycle(5), (250,) * 5)


class TestFindHomomorphism:
    def test_pentagon_needs_three_colors(self):
        assert find_homomorphism(C5, Pattern.complete_graph(2)) is None
        colors = find_homomorphism(C5, Pattern.complete_graph(3))
        assert colors is not None
        assert is_valid_coloring(C5, Pattern.complete_graph(3), colors)

    def test_surjective_vs_plain_on_bipartite_host(self):
        k33 = turan_graph(6, 2)
        target = Pattern.cycle(5)
        plain = find_homomorphism(k33, target, surjective=False)
        assert plain is not None and is_valid_coloring(k33, target, plain)
        assert find_homomorphism(k33, target, surjective=True) is None

    def test_surjective_on_blowup(self):
        host = pattern_blowup(Pattern.cycle(5), (2, 2, 2, 2, 2))
        colors = find_homomorphism(host, Pattern.cycle(5), surjective=True)
        assert colors is not None
        assert is_valid_coloring(host, Pattern.cycle(5), colors)
        assert set(colors) == set(range(5))

    def test_multiset_pattern(self):
        # host edge {0,1,2} with two vertices forced into one class
        host = Hypergraph(3, 3, [(0, 1, 2)])
        doubled = Pattern.from_multisets(3, 2, [(0, 0, 1)])
        colors = find_homomorphism(host, doubled)
        assert colors is not None and is_valid_coloring(host, doubled, colors)

    def test_uniformity_mismatch(self):
        with pytest.raises(InvalidInput):
            find_homomorphism(catalog("fano"), Pattern.complete_graph(3))

    def test_timeout(self):
        # two pentagons in front of a K4: the K4 fails under each of the
        # pentagons' 3-colorings, 2 638 steps in all
        pentagons = [(5 * i + j, 5 * i + (j + 1) % 5) for i in range(2) for j in range(5)]
        host = Hypergraph(2, 14, pentagons + list(itertools.combinations(range(10, 14), 2)))
        assert find_homomorphism(host, Pattern.complete_graph(3)) is None
        with pytest.raises(OracleTimeout):
            find_homomorphism(host, Pattern.complete_graph(3), budget_s=0.0)
        with pytest.raises(OracleTimeout):  # a negative budget is spent already
            find_homomorphism(host, Pattern.complete_graph(3), budget_s=-math.inf)

    @pytest.mark.parametrize("budget", [math.nan, math.inf])
    def test_a_budget_that_never_runs_out_is_refused(self, budget):
        with pytest.raises(InvalidInput, match="never runs out"):
            find_homomorphism(C5, Pattern.complete_graph(3), budget_s=budget)

    def test_edgeless_pattern_colors_only_isolated_vertices(self):
        assert find_homomorphism(Hypergraph(2, 12, [(10, 11)]), Pattern(2, 5, [])) is None
        assert find_homomorphism(Hypergraph(2, 3, []), Pattern(2, 2, [])) == [0, 0, 0]
        assert find_homomorphism(Hypergraph(2, 3, []), Pattern(2, 2, []), surjective=True) == [0, 0, 1]

    # dense hosts: the search must not recurse once per vertex

    def test_dense_turan_graph(self):
        host = turan_graph(1200, 3)
        colors = find_homomorphism(host, Pattern.complete_graph(3))
        assert colors is not None
        assert is_valid_coloring(host, Pattern.complete_graph(3), colors)

    @pytest.mark.parametrize("surjective", [False, True])
    def test_dense_pentagon_blowup_into_pentagon(self, c5_blowup, surjective):
        colors = find_homomorphism(c5_blowup, Pattern.cycle(5), surjective)
        assert colors is not None
        assert is_valid_coloring(c5_blowup, Pattern.cycle(5), colors)
        assert set(colors) == set(range(5))

    def test_dense_pentagon_blowup_into_triangle(self, c5_blowup):
        colors = find_homomorphism(c5_blowup, Pattern.complete_graph(3))
        assert colors is not None
        assert is_valid_coloring(c5_blowup, Pattern.complete_graph(3), colors)


@pytest.fixture(scope="module")
def small_graphs():
    return [Hypergraph(2, n, edges) for n in range(6) for edges in graphs_up_to_iso(n)]


def _agrees_with_brute_force(host, pattern):
    for surjective in (False, True):
        colors = find_homomorphism(host, pattern, surjective)
        expected = brute_force_homomorphism(host, pattern, surjective)
        assert (colors is None) == (expected is None), (host.edge_list(), surjective)
        if colors is not None:
            assert is_valid_coloring(host, pattern, colors)
            assert not surjective or set(colors) == set(range(pattern.num_vertices))


class TestHomomorphismReference:
    @pytest.mark.parametrize(
        "pattern",
        [
            Pattern.complete_graph(2),
            Pattern.complete_graph(3),
            Pattern.cycle(5),
            Pattern.path(3),
            Pattern.from_multisets(2, 3, [(0, 0), (0, 1), (1, 2)]),
        ],
        ids=["K2", "K3", "C5", "P3", "looped"],
    )
    def test_every_small_graph(self, small_graphs, pattern):
        for host in small_graphs:
            _agrees_with_brute_force(host, pattern)

    @pytest.mark.parametrize(
        "pattern",
        [
            Pattern.single_edge(3),
            Pattern.from_multisets(3, 2, [(0, 0, 1), (0, 1, 1)]),
            Pattern.from_multisets(3, 4, itertools.combinations(range(4), 3)),
            Pattern.from_multisets(3, 3, [(0, 0, 1), (0, 1, 2)]),
        ],
        ids=["E3", "001-011", "K4^(3)", "001-012"],
    )
    def test_three_uniform_hosts(self, pattern):
        rng = rng_from_seed(16)
        for n in (3, 4, 5, 6):
            triples = list(itertools.combinations(range(n), 3))
            for p in (0.3, 0.6, 0.9):
                host = Hypergraph(3, n, [t for t in triples if rng.random() < p])
                _agrees_with_brute_force(host, pattern)


_MULTISET_PATTERNS = {
    "001-011": Pattern.from_multisets(3, 2, [(0, 0, 1), (0, 1, 1)]),
    "001-012": Pattern.from_multisets(3, 3, [(0, 0, 1), (0, 1, 2)]),
    "K4^(3)-": Pattern.from_multisets(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)]),
    "looped": Pattern.from_multisets(2, 3, [(0, 0), (0, 1), (1, 2)]),
}

# (pattern, n, first coloring, first surjective coloring) on the random host
# with n vertices drawn from seed n: each r-set with probability 0.4 (r = 2)
# or 0.15 (r = 3)
_HOM_WITNESSES = [
    ("001-011", 6, [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]),
    ("001-011", 8, [0, 1, 1, 1, 0, 1, 0, 0], [0, 1, 1, 1, 0, 1, 0, 0]),
    ("001-011", 10, [0, 0, 1, 0, 0, 1, 1, 0, 1, 1], [0, 0, 1, 0, 0, 1, 1, 0, 1, 1]),
    ("001-012", 6, [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 2]),
    ("001-012", 8, None, None),
    ("001-012", 10, [0, 0, 1, 0, 0, 1, 1, 1, 0, 0], [0, 0, 1, 0, 0, 1, 1, 1, 0, 2]),
    ("K4^(3)-", 6, [0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 2, 3]),
    ("K4^(3)-", 8, None, None),
    ("K4^(3)-", 10, [1, 2, 0, 1, 1, 0, 0, 0, 3, 3], [1, 2, 0, 1, 1, 0, 0, 0, 3, 3]),
    ("looped", 6, [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 2]),
    ("looped", 8, [0] * 8, [0, 0, 1, 0, 2, 0, 0, 1]),
    ("looped", 10, [0] * 10, [0, 0, 2, 0, 0, 0, 1, 0, 0, 0]),
]


@pytest.mark.parametrize(
    "name, n, first, first_onto", _HOM_WITNESSES, ids=[f"{c[0]}-n{c[1]}" for c in _HOM_WITNESSES]
)
def test_multiset_pattern_witnesses_are_pinned(name, n, first, first_onto):
    pattern = _MULTISET_PATTERNS[name]
    host = erdos_renyi(n, 0.4 if pattern.r == 2 else 0.15, n, pattern.r)
    assert find_homomorphism(host, pattern) == first
    assert find_homomorphism(host, pattern, surjective=True) == first_onto


class TestHomomorphismWork:
    """Exact step counts, independent of the machine: the symmetry breaking
    within transposition classes must keep pruning."""

    @staticmethod
    def _steps(monkeypatch, host, pattern):
        colors, ticks = count_ticks(monkeypatch, find_homomorphism, host, pattern)
        assert colors is None
        return ticks

    def test_k5_into_k4(self, monkeypatch):
        # 4 steps; 36 without symmetry breaking
        assert self._steps(monkeypatch, catalog("complete", n=5), Pattern.complete_graph(4)) <= 8

    def test_planted_four_partite_instance(self, monkeypatch):
        # a non-4-colorable instance of acceptance criterion 1: 73 steps;
        # 864 without symmetry breaking
        host = coloring_instance(4, 103 * 3 + 4)
        assert self._steps(monkeypatch, host, Pattern.complete_graph(4)) <= 150


class TestTuranNumber:
    def test_small_against_exhaustive(self):
        assert turan_number(5, 2) == brute_force_max_edges_without(K3, 5) == 6

    def test_named_values(self):
        assert turan_number(6, 3) == 12
        assert turan_number(3, 3) == 3

    def test_floor_formula(self):
        for parts in range(1, 7):
            for n in range(0, 60):
                assert turan_number(n, parts) == (parts - 1) * n * n // (2 * parts)

    def test_single_vertex_removal_identity(self):
        for parts in range(1, 7):
            for n in range(1, 60):
                drop = turan_number(n, parts) - turan_number(n - 1, parts)
                assert drop == n - math.ceil(n / parts)

    def test_extremal_graphs_avoid_next_clique(self):
        for parts in range(2, 5):
            clique = catalog("complete", n=parts + 1)
            for n in (parts, 11, 25, 40):
                assert find_embedding(clique, turan_graph(n, parts)) is None

    def test_invalid(self):
        with pytest.raises(InvalidInput):
            turan_number(-1, 2)
        with pytest.raises(InvalidInput):
            turan_number(4, 0)


class TestGridSearch:
    def test_triangle_grid(self):
        assert abs(lagrangian_grid(Pattern.complete_graph(3), 300) - 1 / 3) <= 1e-5

    def test_transversal_grid(self):
        assert abs(lagrangian_grid(Pattern.single_edge(3), 300) - 1 / 27) <= 1e-5

    def test_empty_pattern(self):
        assert lagrangian_grid(Pattern(2, 3, []), 10) == 0.0

    def test_maximin_grid(self):
        assert abs(phi_grid(Pattern.complete_graph(3), 300) - 2 / 3) <= 1e-5
        assert abs(phi_grid(Pattern.cycle(4), 100) - 1 / 2) <= 1e-12

    def test_grid_never_exceeds_optimizer(self):
        cfg = OptConfig()
        for pattern in (
            Pattern.complete_graph(4),
            Pattern.cycle(5),
            Pattern.path(3),
            Pattern.single_edge(3),
            Pattern(3, 2, [(0, 0, 1)]),
        ):
            assert lagrangian_grid(pattern, 60) <= lagrangian(pattern, cfg).value + 1e-9
            assert phi_grid(pattern, 60) <= phi(pattern, cfg).value + 1e-9

    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("resolution", [1, 2, 5, 12])
    def test_chunks_enumerate_the_compositions_in_order(self, dim, resolution):
        # the stars-and-bars enumeration: bar positions in lexicographic order
        expected = []
        for bars in itertools.combinations(range(resolution + dim - 1), dim - 1):
            ends = (-1, *bars, resolution + dim - 1)
            expected.append(tuple((b - a - 1) / resolution for a, b in zip(ends, ends[1:])))
        for chunk in (1, 7, 200_000):
            blocks = list(oracles_module._grid_chunks(resolution, dim, chunk))
            assert [len(b) for b in blocks[:-1]] == [chunk] * (len(blocks) - 1)
            assert [tuple(row) for b in blocks for row in b.tolist()] == expected

    def test_point_cap(self):
        with pytest.raises(InvalidInput):
            lagrangian_grid(Pattern.complete_graph(6), 300)
        with pytest.raises(InvalidInput):
            lagrangian_grid(Pattern.complete_graph(3), 0)
