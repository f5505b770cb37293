"""Decider tests: spec-level examples, fallbacks, witnesses, work counters."""

import dataclasses
import itertools
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from linkclust import deciders, oracles
from linkclust import (
    DeciderConfig,
    Hypergraph,
    InvalidInput,
    NumericFailure,
    OracleTimeout,
    Partition,
    Pattern,
    PatternNotMinimal,
    PatternNotRigid,
    PeelResult,
    Verdict,
    balanced_sizes,
    catalog,
    clique_avg_decide,
    contiguous_classes,
    decide_hom_minimal,
    decide_k_colorable,
    decide_shom_rigid,
    delete_random_edges,
    embed_min_decide,
    find_embedding,
    find_homomorphism,
    hamming_clustering,
    pattern_blowup,
    peel,
    plant_violation,
    rigidity_report,
    rng_from_seed,
    serialize_hypergraph,
    serialize_pattern,
    turan_classes,
    turan_graph,
    turan_number,
)

from linkclust.cli import run_cli

from helpers import (
    CountingDeadline,
    aes_host,
    count_ticks,
    erdos_renyi,
    reference_signature_verdict,
)

K3 = catalog("complete", n=3)
K6 = catalog("complete", n=6)
SHOM_CFG = DeciderConfig(n_small=15)


def planted_edge(before: Hypergraph, after: Hypergraph) -> tuple:
    extra = set(after.edge_list()) - set(before.edge_list())
    assert len(extra) == 1
    return extra.pop()


class TestDecideKColorable:
    def test_balanced_tripartite_yes(self):
        d = decide_k_colorable(turan_graph(30, 3), 3)
        assert d.verdict is Verdict.YES
        assert sorted(d.partition.sizes()) == [10, 10, 10]

    def test_planted_edge_is_the_witness(self):
        base = turan_graph(30, 3)
        bad = plant_violation(base, turan_classes(30, 3), 7)
        d = decide_k_colorable(bad, 3)
        assert d.verdict is Verdict.NO
        assert d.violating_edge == planted_edge(base, bad)

    def test_boundary_degree_refused(self):
        # the pentagon sits exactly at the bound: 5*2 == 2*5, not strictly above
        d = decide_k_colorable(catalog("cycle", k=5), 2)
        assert d.verdict is Verdict.PRECONDITION_VIOLATED
        assert d.details["min_degree"] == 2

    def test_non_strict_falls_back_to_the_oracle(self):
        pentagon = catalog("cycle", k=5)
        hexagon = catalog("cycle", k=6)
        relaxed = DeciderConfig(strict=False)
        assert decide_k_colorable(pentagon, 2, relaxed).verdict is Verdict.NO
        d = decide_k_colorable(hexagon, 2, relaxed)
        assert d.verdict is Verdict.YES
        assert d.partition.nonempty_class_sets() == frozenset(
            {frozenset({0, 2, 4}), frozenset({1, 3, 5})}
        )

    @pytest.mark.parametrize(
        "host",
        [catalog("cycle", k=5), catalog("cycle", k=6), turan_graph(9, 3), Hypergraph(2, 4, [(0, 1)])],
        ids=["C5", "C6", "T9_3", "isolated"],
    )
    @pytest.mark.parametrize("more", ["n+1", "2n+3"])
    def test_the_fallback_searches_at_most_n_colors(self, host, more, monkeypatch):
        # a coloring of n vertices opens no color past the n-th, so a K_k
        # with k > n only adds C(k, 2) edges to the search
        k = host.n + 1 if more == "n+1" else 2 * host.n + 3
        self._check_the_fallback_matches_k_k(host, k, monkeypatch)

    @pytest.mark.parametrize(
        "host, k",
        [
            (Hypergraph(2, 6, []), 2),
            (Hypergraph(2, 6, []), 6),
            (catalog("cycle", k=5), 4),
            (catalog("cycle", k=5), 5),
            (Hypergraph(2, 7, [(0, 1), (0, 2), (0, 3), (4, 5)]), 5),
        ],
        ids=["edgeless-2", "edgeless-n", "C5-4", "C5-n", "star-5"],
    )
    def test_the_fallback_searches_at_most_max_degree_plus_1_colors(self, host, k, monkeypatch):
        # Δ+1 < k <= n: a vertex has at most Δ colored neighbours, so the
        # K_k search never opens a color past the (Δ+1)-th
        assert host.max_degree() + 1 < k <= host.n
        self._check_the_fallback_matches_k_k(host, k, monkeypatch)

    @staticmethod
    def _check_the_fallback_matches_k_k(host, k, monkeypatch):
        by_k_k = find_homomorphism(host, Pattern.complete_graph(k))
        complete_graph, built = Pattern.complete_graph, []

        def spy(num_vertices):
            built.append(num_vertices)
            return complete_graph(num_vertices)

        monkeypatch.setattr(Pattern, "complete_graph", spy)
        d = decide_k_colorable(host, k, DeciderConfig(strict=False))
        assert built == [min(k, host.max_degree() + 1)]
        assert d.verdict is Verdict.YES and d.partition.num_classes == k
        assert d.partition == Partition.from_labels(np.array(by_k_k), k)

    def test_uniqueness_against_the_oracle(self):
        g = turan_graph(40, 4)
        d = decide_k_colorable(g, 4)
        colors = find_homomorphism(g, Pattern.complete_graph(4))
        oracle = Partition.from_labels(np.array(colors), 4)
        assert d.partition.nonempty_class_sets() == oracle.nonempty_class_sets()

    def test_work_counters(self):
        g = turan_graph(50, 3)
        d = decide_k_colorable(g, 3)
        assert d.stats.distance_evals <= 3 * 50
        assert d.stats.work_units <= 4 * 50 * 50

    def test_requires_graph(self):
        with pytest.raises(InvalidInput):
            decide_k_colorable(catalog("fano"), 3)


class TestDecideHomMinimal:
    def test_transversal_blowup_at_the_exact_boundary(self):
        host = pattern_blowup(Pattern.single_edge(3), (10, 10, 10))
        assert host.min_degree() == 100  # equals (3 * 1/27) * 900 exactly
        d = decide_hom_minimal(host, Pattern.single_edge(3))
        assert d.verdict is Verdict.YES
        assert sorted(d.partition.sizes()) == [10, 10, 10]

    def test_planted_internal_edge(self):
        base = pattern_blowup(Pattern.single_edge(3), (10, 10, 10))
        bad = plant_violation(base, contiguous_classes((10, 10, 10)), 3)
        d = decide_hom_minimal(bad, Pattern.single_edge(3))
        assert d.verdict is Verdict.NO
        assert d.violating_edge == planted_edge(base, bad)

    def test_k4_3_blowup_at_the_exact_boundary(self):
        # min degree 1875 = (3 * 1/16) * 100^2: refused while the threshold
        # was Fraction(float) of a numeric λ that rounds up
        k4_3 = Pattern.from_multisets(3, 4, list(itertools.combinations(range(4), 3)))
        parts = contiguous_classes((25,) * 4)
        host = pattern_blowup(k4_3, (25,) * 4)
        assert host.min_degree() == 1875
        d = decide_hom_minimal(host, k4_3)
        assert d.verdict is Verdict.YES
        assert d.partition.nonempty_class_sets() == parts.nonempty_class_sets()
        bad = plant_violation(host, parts, 4)
        d = decide_hom_minimal(bad, k4_3)
        assert d.verdict is Verdict.NO
        assert d.violating_edge == planted_edge(host, bad)

    def test_small_host_fallback(self):
        host = pattern_blowup(Pattern.single_edge(3), (2, 2, 2))
        strict = decide_hom_minimal(host, Pattern.single_edge(3))
        assert strict.verdict is Verdict.PRECONDITION_VIOLATED
        relaxed = decide_hom_minimal(
            host, Pattern.single_edge(3), DeciderConfig(strict=False)
        )
        assert relaxed.verdict is Verdict.YES

    def test_rejects_non_minimal_pattern(self):
        host = turan_graph(30, 3)
        with pytest.raises(PatternNotMinimal):
            decide_hom_minimal(host, Pattern.path(3))

    def test_shuffled_host_classes_still_accepted(self):
        # interleave class labels so discovery order differs from 0,1,2
        host = pattern_blowup(Pattern.single_edge(3), (9, 9, 9))
        perm = np.arange(27)
        rng = np.random.Generator(np.random.Philox(5))
        rng.shuffle(perm)
        shuffled = Hypergraph(
            3, 27, [tuple(int(perm[v]) for v in e) for e in host]
        )
        d = decide_hom_minimal(shuffled, Pattern.single_edge(3))
        assert d.verdict is Verdict.YES

    def test_peak_memory_of_one_decision(self):
        # a decision of the hyper-array benchmark: 17.4 MB traced, against
        # 18.4 MB allowed; the edge signatures gather their labels by
        # ``lab.take(col)``, one contiguous edge column at a time, while one
        # ``lab.take(edge_array)`` of the whole (m, 3) block peaked at 21.5 MB
        host = pattern_blowup(Pattern.single_edge(3), (80, 80, 80))
        bad = plant_violation(host, contiguous_classes((80, 80, 80)), 7)
        edge_bytes = bad.edge_array.size * np.dtype(np.int32).itemsize
        # the links are built on the first query; when this bound was set the
        # constructor built them, so they are built before the trace here too
        bad.distances_from(0)
        tracemalloc.start()
        try:
            d = decide_hom_minimal(bad, Pattern.single_edge(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.verdict is Verdict.NO
        assert d.violating_edge == planted_edge(host, bad)
        assert peak <= 3 * edge_bytes


def relabelled_cycle_blowup(length: int, size: int, chord: bool = False) -> Hypergraph:
    """The blow-up of C_length with parts of ``size``, plus a chord between
    parts 0 and 2 if asked, with its vertices relabelled at random."""
    host = pattern_blowup(Pattern.cycle(length), (size,) * length)
    if chord:
        host = Hypergraph(2, host.n, [*host.edge_list(), (0, 2 * size)])
    perm = rng_from_seed(7).permutation(host.n)
    return Hypergraph(2, host.n, perm[host.edge_array])


class TestDecideShomRigid:
    def test_cycle_blowup(self):
        host = pattern_blowup(Pattern.cycle(5), (5,) * 5)
        d = decide_shom_rigid(host, Pattern.cycle(5), SHOM_CFG)
        assert d.verdict is Verdict.YES
        assert d.partition.sizes() == (5,) * 5
        # the emitted classes really are the blow-up classes
        assert d.partition.nonempty_class_sets() == contiguous_classes(
            (5,) * 5
        ).nonempty_class_sets()

    @pytest.mark.parametrize("length, size", [(5, 30), (7, 21)], ids=["C5", "C7"])
    def test_blowup_at_the_exact_threshold(self, length, size):
        # at eps 0: every vertex has degree exactly φ(C_l)·n, 2/5·150 or 2/7·147
        pattern, sizes = Pattern.cycle(length), (size,) * length
        host = pattern_blowup(pattern, sizes)
        d = decide_shom_rigid(host, pattern)
        assert d.verdict is Verdict.YES
        assert d.partition.nonempty_class_sets() == contiguous_classes(sizes).nonempty_class_sets()
        planted = plant_violation(host, contiguous_classes(sizes), 11)
        d = decide_shom_rigid(planted, pattern)
        assert d.verdict is Verdict.NO
        assert d.violating_edge == planted_edge(host, planted)

    def test_internal_edge_kills_it(self):
        base = pattern_blowup(Pattern.cycle(5), (5,) * 5)
        bad = plant_violation(base, contiguous_classes((5,) * 5), 9)
        d = decide_shom_rigid(bad, Pattern.cycle(5), SHOM_CFG)
        assert d.verdict is Verdict.NO
        assert d.violating_edge == planted_edge(base, bad)

    def test_bipartite_host_misses_classes(self):
        d = decide_shom_rigid(turan_graph(20, 2), Pattern.cycle(5), SHOM_CFG)
        assert d.verdict is Verdict.NO
        assert "empty" in d.reason
        # a plain coloring exists even though no surjective one does
        assert find_homomorphism(turan_graph(6, 2), Pattern.cycle(5)) is not None

    def test_rejects_non_rigid_pattern(self):
        with pytest.raises(PatternNotRigid):
            decide_shom_rigid(turan_graph(20, 2), Pattern.cycle(4), SHOM_CFG)

    def test_cross_class_chord_is_caught(self):
        # a chord between classes 0 and 2 gives class 0 three distinct
        # neighbor classes; no relabeling onto the 5-cycle supports that
        host = pattern_blowup(Pattern.cycle(5), (5,) * 5)
        chord = Hypergraph(2, 25, host.edge_list() + [(0, 10)])
        d = decide_shom_rigid(chord, Pattern.cycle(5), SHOM_CFG)
        assert d.verdict is Verdict.NO
        # the reported edge completes the unmatchable signature prefix
        assert d.violating_edge == (0, 20)
        # the shrunk copy agrees: chord between classes 0 and 2 kills it
        shrunk_base = pattern_blowup(Pattern.cycle(5), (2,) * 5)
        shrunk = Hypergraph(2, 10, shrunk_base.edge_list() + [(0, 4)])
        assert find_homomorphism(shrunk, Pattern.cycle(5)) is None

    @pytest.mark.parametrize("length", [17, 21])
    def test_long_cycle_blowups_match_without_backtracking(self, monkeypatch, length):
        # one search of one tick per cluster: the quotient is the cycle,
        # numbered along it
        host = relabelled_cycle_blowup(length, 12)
        d, ticks = count_ticks(monkeypatch, decide_shom_rigid, host, Pattern.cycle(length))
        assert d.verdict is Verdict.YES and ticks <= 2 * length
        assert d.partition.sizes() == (12,) * length
        assert all(abs(int(a) - int(b)) in (1, length - 1) for a, b in d.partition.labels[host.edge_array])

    def test_chord_in_a_long_cycle_blowup_takes_few_searches(self, monkeypatch):
        # 4 searches of 0, 8, 35 and 13 ticks; the count-matrix reference
        # reports the same edge
        monkeypatch.setattr(oracles, "_Deadline", CountingDeadline)
        CountingDeadline.made.clear()
        d = decide_shom_rigid(relabelled_cycle_blowup(13, 12, chord=True), Pattern.cycle(13))
        assert d.verdict is Verdict.NO and d.violating_edge == (36, 127)
        assert len(CountingDeadline.made) <= 5
        assert sum(deadline.ticks for deadline in CountingDeadline.made) <= 4 * 26

    def test_chord_gives_the_reference_edge(self, monkeypatch):
        verdict = deciders._signature_verdict
        edges = []

        def with_reference(host, pattern, labels, budget_s):
            got = verdict(host, pattern, labels, budget_s)
            edges.append((got[1], reference_signature_verdict(host, pattern, labels)[1]))
            return got

        monkeypatch.setattr(deciders, "_signature_verdict", with_reference)
        d = decide_shom_rigid(relabelled_cycle_blowup(9, 12, chord=True), Pattern.cycle(9))
        assert d.verdict is Verdict.NO and edges == [(d.violating_edge, d.violating_edge)]

    def test_the_cluster_match_runs_under_the_oracle_budget(self):
        # the signatures of K6 against a random 40-vertex graph: the search
        # outlasts the 1 024 ticks before its deadline first reads the clock
        pattern = Pattern.from_hypergraph(erdos_renyi(40, 0.4, 2))
        labels = np.arange(6)
        with pytest.raises(OracleTimeout):
            deciders._signature_verdict(K6, pattern, labels, 0.0)


class TestEmbedMinDecide:
    def test_bipartite_boundary_yes(self):
        d = embed_min_decide(turan_graph(40, 2), K3, Pattern.complete_graph(2))
        assert d.verdict is Verdict.YES

    def test_planted_edge_no(self):
        bad = plant_violation(turan_graph(40, 2), turan_classes(40, 2), 5)
        d = embed_min_decide(bad, K3, Pattern.complete_graph(2))
        assert d.verdict is Verdict.NO
        assert find_embedding(K3, bad) is not None

    def test_small_host_goes_to_the_embedding_oracle(self):
        fano = catalog("fano")
        cfg = DeciderConfig(n_small=10)
        d = embed_min_decide(fano, fano, Pattern.single_edge(3), cfg)
        assert d.verdict is Verdict.NO and "embedding" in d.details
        trimmed = Hypergraph(3, 7, fano.edge_list()[:-1])
        d2 = embed_min_decide(trimmed, fano, Pattern.single_edge(3), cfg)
        assert d2.verdict is Verdict.YES

    def test_colorable_pairing_is_refused(self):
        # K3 is K3-colorable, so every K3 blow-up contains it
        host = turan_graph(60, 3)
        assert find_embedding(K3, host) is not None
        with pytest.raises(InvalidInput, match="colorable by the pattern"):
            embed_min_decide(host, K3, Pattern.complete_graph(3))
        # small hosts still go to the embedding search
        d = embed_min_decide(catalog("complete", n=4), K3, Pattern.complete_graph(3))
        assert d.verdict is Verdict.NO and "embedding" in d.details

    def test_pairing_is_checked_once(self, monkeypatch):
        deciders._colorable_by.cache_clear()
        searched = []
        original = deciders.find_homomorphism

        def counting(host, pattern, *args):
            searched.append(host)
            return original(host, pattern, *args)

        monkeypatch.setattr(deciders, "find_homomorphism", counting)
        for _ in range(2):
            d = embed_min_decide(turan_graph(40, 2), K3, Pattern.complete_graph(2))
            assert d.verdict is Verdict.YES
        assert searched == [K3]

    def test_the_pairing_check_runs_under_the_oracle_budget(self):
        # the C7 blow-up with parts of 10 maps onto C7, but the search for the
        # map outlasts 0.01 s many times over (ROADMAP item 3); the check
        # searched under the 60 s default whatever the budget
        small = pattern_blowup(Pattern.cycle(7), [10] * 7)
        cfg = DeciderConfig(oracle_budget_s=0.01)
        with pytest.raises(OracleTimeout):
            embed_min_decide(turan_graph(240, 2), small, Pattern.cycle(7), cfg)

    def test_generalized_triangle_pair(self):
        host = pattern_blowup(Pattern.single_edge(3), (9, 9, 9))
        t3 = catalog("generalized_triangle", r=3)
        d = embed_min_decide(host, t3, Pattern.single_edge(3))
        assert d.verdict is Verdict.YES
        assert find_embedding(t3, host) is None


@pytest.mark.parametrize(
    "decide",
    [
        # a C5 blow-up whose smallest degree (12) is far below 2/5 of n = 50
        lambda: decide_shom_rigid(
            pattern_blowup(Pattern.cycle(5), (6, 14, 14, 6, 10)), Pattern.cycle(5)
        ),
        # K_{10,30} is far below the triangle-free threshold n/2 = 20
        lambda: embed_min_decide(
            pattern_blowup(Pattern.complete_graph(2), (10, 30)),
            K3,
            Pattern.complete_graph(2),
        ),
        lambda: decide_hom_minimal(turan_graph(30, 2), Pattern.complete_graph(3)),
    ],
    ids=["shom", "kfree", "hom"],
)
def test_refusal_names_the_exact_threshold(decide):
    d = decide()
    assert d.verdict is Verdict.PRECONDITION_VIOLATED
    assert d.details["threshold"] in d.reason
    assert Fraction(d.details["threshold"]) > d.details["min_degree"]


# -- every branch of the calibrated deciders, pinned whole ------------------------

C5 = Pattern.cycle(5)
K2, P_K3 = Pattern.complete_graph(2), Pattern.complete_graph(3)
RELAXED = DeciderConfig(strict=False)
EPS_005 = DeciderConfig(eps=0.05)
P_001_011 = Pattern.from_multisets(3, 2, [(0, 0, 1), (0, 1, 1)])
P_K4_3_MINUS = Pattern.from_multisets(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])


def blocks(*sizes: int) -> tuple:
    """The classes of a contiguous partition with the given class sizes."""
    return contiguous_classes(sizes).classes


def zero_stats(**stats) -> dict:
    return {"distance_evals": 0, "edges_scanned": 0, "work_units": 0, "z": None, **stats}


def pinned(d) -> dict:
    """Every field of a decision, with the classes for the partition."""
    return dict(
        verdict=d.verdict.value,
        reason=d.reason,
        details=d.details,
        violating_edge=d.violating_edge,
        classes=None if d.partition is None else d.partition.classes,
        stats=dataclasses.asdict(d.stats),
    )


# pinned() of a decision that sets only its verdict
UNSET = dict(reason=None, details={}, violating_edge=None, classes=None, stats=zero_stats())


def small_host_refused(n, n_small):
    return dict(
        verdict="precondition_violated",
        reason=f"host has {n} vertices, below the small-instance cutoff {n_small}",
        details={"n": n, "n_small": n_small},
    )


def below_threshold(dmin, threshold):
    return dict(
        verdict="precondition_violated",
        reason=f"minimum degree {dmin} below the threshold {threshold}",
        details={"min_degree": dmin, "threshold": str(threshold)},
    )


def no_signature(edge, **stats):
    return dict(
        verdict="no",
        reason=f"edge {edge} has no legal class signature",
        violating_edge=edge,
        stats=zero_stats(**stats),
    )


K4_IN_K3 = dict(
    verdict="no",
    reason="exhaustive embedding search found a copy (small host)",
    details={"embedding": {0: 0, 1: 1, 2: 2}},
)

BRANCHES = {
    "hom-small-strict": (
        lambda: decide_hom_minimal(turan_graph(12, 3), P_K3),
        small_host_refused(12, 18),
    ),
    "hom-small-relaxed": (
        lambda: decide_hom_minimal(turan_graph(12, 3), P_K3, RELAXED),
        dict(verdict="yes", reason="exhaustive search (small host)", classes=blocks(4, 4, 4)),
    ),
    "hom-sub-threshold-strict": (
        lambda: decide_hom_minimal(turan_graph(30, 2), P_K3),
        below_threshold(15, 20),
    ),
    "hom-sub-threshold-relaxed": (
        lambda: decide_hom_minimal(turan_graph(30, 2), P_K3, RELAXED),
        dict(
            verdict="yes",
            reason="exhaustive search (sub-threshold fallback)",
            classes=blocks(15, 15) + ((),),
        ),
    ),
    "hom-yes": (
        lambda: decide_hom_minimal(turan_graph(30, 3), P_K3),
        dict(
            verdict="yes",
            classes=blocks(10, 10, 10),
            stats=zero_stats(distance_evals=58, edges_scanned=300, work_units=2340),
        ),
    ),
    "hom-planted": (
        lambda: decide_hom_minimal(
            plant_violation(turan_graph(30, 3), turan_classes(30, 3), 7), P_K3
        ),
        no_signature((4, 9), distance_evals=58, edges_scanned=301, work_units=2342),
    ),
    "hom-r3-yes": (
        lambda: decide_hom_minimal(
            pattern_blowup(Pattern.single_edge(3), (10, 10, 10)), Pattern.single_edge(3)
        ),
        dict(
            verdict="yes",
            classes=blocks(10, 10, 10),
            stats=zero_stats(distance_evals=58, edges_scanned=1000, work_units=55200),
        ),
    ),
    "shom-small-strict": (
        lambda: decide_shom_rigid(pattern_blowup(C5, (2,) * 5), C5),
        small_host_refused(10, 30),
    ),
    "shom-small-relaxed": (
        lambda: decide_shom_rigid(pattern_blowup(C5, (2,) * 5), C5, RELAXED),
        dict(verdict="yes", reason="exhaustive search (small host)", classes=blocks(*(2,) * 5)),
    ),
    "shom-sub-threshold-strict": (
        lambda: decide_shom_rigid(pattern_blowup(C5, (6, 14, 14, 6, 10)), C5),
        below_threshold(12, 20),
    ),
    "shom-sub-threshold-relaxed": (
        lambda: decide_shom_rigid(pattern_blowup(C5, (6, 14, 14, 6, 10)), C5, RELAXED),
        dict(
            verdict="yes",
            reason="exhaustive search (sub-threshold fallback)",
            classes=blocks(6, 14, 14, 6, 10),
        ),
    ),
    "shom-yes": (
        lambda: decide_shom_rigid(pattern_blowup(C5, (6,) * 5), C5),
        dict(
            verdict="yes",
            classes=blocks(*(6,) * 5),
            stats=zero_stats(distance_evals=116, edges_scanned=180, work_units=3840),
        ),
    ),
    "shom-planted": (
        lambda: decide_shom_rigid(
            plant_violation(pattern_blowup(C5, (6,) * 5), contiguous_classes((6,) * 5), 11), C5
        ),
        no_signature((12, 15), distance_evals=116, edges_scanned=181, work_units=3842),
    ),
    "shom-empty-class": (
        lambda: decide_shom_rigid(turan_graph(40, 2), C5),
        dict(
            verdict="no",
            reason="class 2 is empty; no surjective coloring exists",
            details={"empty_class": 2},
            stats=zero_stats(distance_evals=78, edges_scanned=400, work_units=3920),
        ),
    ),
    # a small kfree host goes to the embedding search whatever strict says
    "kfree-small-strict": (
        lambda: embed_min_decide(catalog("complete", n=4), K3, K2),
        K4_IN_K3,
    ),
    "kfree-small-relaxed": (
        lambda: embed_min_decide(catalog("complete", n=4), K3, K2, RELAXED),
        K4_IN_K3,
    ),
    "kfree-small-yes": (
        lambda: embed_min_decide(turan_graph(8, 2), K3, K2),
        dict(verdict="yes", reason="exhaustive embedding search found none (small host)"),
    ),
    "kfree-sub-threshold-strict": (
        lambda: embed_min_decide(pattern_blowup(K2, (10, 30)), K3, K2),
        below_threshold(10, 20),
    ),
    "kfree-sub-threshold-relaxed": (
        lambda: embed_min_decide(pattern_blowup(K2, (10, 30)), K3, K2, RELAXED),
        dict(
            verdict="yes",
            reason="exhaustive embedding search found none (sub-threshold fallback)",
        ),
    ),
    "kfree-yes": (
        lambda: embed_min_decide(turan_graph(40, 2), K3, K2),
        dict(
            verdict="yes",
            classes=blocks(20, 20),
            stats=zero_stats(distance_evals=39, edges_scanned=400, work_units=2360),
        ),
    ),
    "kfree-planted": (
        lambda: embed_min_decide(
            plant_violation(turan_graph(40, 2), turan_classes(40, 2), 5), K3, K2
        ),
        no_signature((23, 37), distance_evals=39, edges_scanned=401, work_units=2362),
    ),
    # patterns that use a vertex more than once, or are numeric with r = 3
    "hom-multiset-yes": (
        lambda: decide_hom_minimal(pattern_blowup(P_001_011, (20, 20)), P_001_011, EPS_005),
        dict(
            verdict="yes",
            classes=blocks(20, 20),
            stats=zero_stats(distance_evals=39, edges_scanned=7600, work_units=85200),
        ),
    ),
    "hom-multiset-planted": (
        lambda: decide_hom_minimal(
            plant_violation(pattern_blowup(P_001_011, (20, 20)), contiguous_classes((20, 20)), 5),
            P_001_011,
            EPS_005,
        ),
        no_signature((23, 37, 38), distance_evals=39, edges_scanned=7601, work_units=85203),
    ),
    "hom-multiset-sub-threshold-strict": (
        lambda: decide_hom_minimal(pattern_blowup(P_001_011, (20, 20)), P_001_011),
        below_threshold(570, "337769972052787425/562949953421312"),
    ),
    "hom-multiset-small-relaxed": (
        lambda: decide_hom_minimal(pattern_blowup(P_001_011, (4, 5)), P_001_011, RELAXED),
        dict(verdict="yes", reason="exhaustive search (small host)", classes=blocks(4, 5)),
    ),
    "hom-k4-3-minus-sub-threshold-strict": (
        lambda: decide_hom_minimal(pattern_blowup(P_K4_3_MINUS, (12, 8, 8, 8)), P_K4_3_MINUS),
        below_threshold(192, "864691128455136399/4503599627370496"),
    ),
}


@pytest.mark.parametrize("decide, expected", BRANCHES.values(), ids=BRANCHES.keys())
def test_calibrated_decider_branches(decide, expected):
    assert pinned(decide()) == UNSET | expected


def test_degenerate_kfree_radius_is_refused():
    # K3 does not map into the path, but the path's optimum drops a vertex
    with pytest.raises(InvalidInput, match="^pattern admits no positive clustering radius"):
        embed_min_decide(turan_graph(40, 2), K3, Pattern.path(3))


@pytest.mark.parametrize(
    "decide",
    [
        lambda: decide_hom_minimal(pattern_blowup(P_001_011, (20, 20)), P_001_011, EPS_005),
        lambda: decide_shom_rigid(pattern_blowup(C5, (6,) * 5), C5),
    ],
    ids=["hom", "shom"],
)
def test_degenerate_radius_is_a_numeric_failure(decide, monkeypatch):
    # both hosts pass the gate (hom-multiset-yes and shom-yes above); a
    # smallest coordinate of 0 leaves the clustering no positive radius
    def zero_smallest(pattern, opt):
        return dataclasses.replace(
            rigidity_report(pattern, opt), smallest_coordinate=0.0, smallest_exact=Fraction(0)
        )

    monkeypatch.setattr(deciders, "rigidity_report", zero_smallest)
    with pytest.raises(NumericFailure) as err:
        decide()
    assert str(err.value) == "clustering radius degenerated to zero (best value found: 0.0)"
    assert err.value.best_value == 0.0


@pytest.mark.parametrize(
    "decide",
    [
        lambda: decide_hom_minimal(catalog("fano"), Pattern.path(3)),
        lambda: decide_shom_rigid(catalog("fano"), Pattern.cycle(4)),
    ],
    ids=["hom-before-minimal", "shom-before-rigid"],
)
def test_uniformity_is_checked_before_the_pattern(decide):
    with pytest.raises(InvalidInput, match="^uniformity mismatch between host and pattern$"):
        decide()


def test_small_kfree_host_is_searched_before_the_pairing_is_checked():
    # K3 is K3-colorable, an unusable pairing, but K4 is below the cutoff
    d = embed_min_decide(catalog("complete", n=4), K3, P_K3)
    assert (d.verdict, d.reason, d.details) == (Verdict.NO, K4_IN_K3["reason"], K4_IN_K3["details"])


@pytest.mark.parametrize("budget", [float("nan"), float("inf")])
def test_an_unbounded_oracle_budget_is_refused_up_front(budget):
    with pytest.raises(InvalidInput, match=f"^oracle budget {budget} never runs out$"):
        DeciderConfig(oracle_budget_s=budget)


def test_a_negative_oracle_budget_times_out_at_the_first_check():
    # two pentagons in front of a K4: the oracle needs 2 638 steps to refute
    pentagons = [(5 * i + j, 5 * i + (j + 1) % 5) for i in range(2) for j in range(5)]
    host = Hypergraph(2, 14, pentagons + list(itertools.combinations(range(10, 14), 2)))
    cfg = DeciderConfig(strict=False, oracle_budget_s=-1.0)
    with pytest.raises(OracleTimeout):
        decide_k_colorable(host, 3, cfg)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: DeciderConfig(eps=-0.1), "eps must be nonnegative"),
        (lambda: DeciderConfig(n_small=0), "n_small must be positive"),
        (lambda: decide_k_colorable(K3, 1), "need at least 2 colors"),
        (lambda: decide_k_colorable(Hypergraph(2, 0, []), 2), "empty vertex set"),
        (lambda: embed_min_decide(catalog("fano"), K3, P_K3), "uniformity mismatch"),
        (lambda: peel(catalog("fano"), 2), "peeling expects a graph (r = 2)"),
        (lambda: peel(K3, 1), "need at least 2 parts"),
        (
            lambda: clique_avg_decide(catalog("fano"), 2, 0),
            "clique decider expects a graph (r = 2)",
        ),
        (lambda: clique_avg_decide(K3, 1, 0), "need at least 2 parts"),
        (lambda: clique_avg_decide(K3, 2, -1), "edge slack must be nonnegative"),
        # a count that is not an integer, and a delta that is not a number
        (lambda: DeciderConfig(n_small=2.5), "n_small must be an integer, got 2.5"),
        (lambda: decide_k_colorable(K3, 2.5), "color count must be an integer, got 2.5"),
        (lambda: peel(K3, 2.5), "part count must be an integer, got 2.5"),
        (lambda: clique_avg_decide(K3, 2.5, 0), "part count must be an integer, got 2.5"),
        (lambda: clique_avg_decide(K3, 2, 0.5), "edge slack must be an integer, got 0.5"),
        (lambda: hamming_clustering(K3, 2.5, 0), "class count must be an integer, got 2.5"),
        (lambda: hamming_clustering(K3, 2, float("nan")), "delta must lie in [0, 1], got nan"),
        (lambda: hamming_clustering(K3, 2, float("inf")), "delta must lie in [0, 1], got inf"),
        (lambda: hamming_clustering(K3, 2, "x"), "delta must lie in [0, 1], got 'x'"),
        # a config field or budget of the wrong type
        (lambda: DeciderConfig(eps="0.1"), "eps must be a real number, got '0.1'"),
        (lambda: DeciderConfig(eps=None), "eps must be a real number, got None"),
        # a NaN eps, Decimal or float, is refused before any comparison
        (lambda: DeciderConfig(eps=Decimal("NaN")), "eps must be finite, got Decimal('NaN')"),
        (lambda: DeciderConfig(eps=Decimal("sNaN")), "eps must be finite, got Decimal('sNaN')"),
        (lambda: DeciderConfig(eps=Decimal("-NaN")), "eps must be finite, got Decimal('-NaN')"),
        (lambda: DeciderConfig(eps=float("nan")), "eps must be finite, got nan"),
        (lambda: DeciderConfig(oracle_budget_s="1"), "oracle budget must be a real number, got '1'"),
        (lambda: DeciderConfig(strict="no"), "strict must be a bool, got 'no'"),
        (lambda: DeciderConfig(opt=None), "opt must be an OptConfig, got None"),
        (lambda: DeciderConfig(opt="x"), "opt must be an OptConfig, got 'x'"),
        (
            lambda: find_homomorphism(K3, Pattern.complete_graph(3), False, None),
            "oracle budget must be a real number, got None",
        ),
    ],
    ids=[
        "negative_eps",
        "n_small_zero",
        "one_color",
        "no_vertex",
        "embed_uniformity",
        "peel_r3",
        "peel_one_part",
        "clique_r3",
        "clique_one_part",
        "negative_slack",
        "n_small_fractional",
        "colors_fractional",
        "peel_parts_fractional",
        "clique_parts_fractional",
        "slack_fractional",
        "classes_fractional",
        "delta_nan",
        "delta_inf",
        "delta_not_a_number",
        "eps_string",
        "eps_none",
        "eps_decimal_nan",
        "eps_decimal_snan",
        "eps_decimal_negative_nan",
        "eps_float_nan",
        "budget_string",
        "strict_string",
        "opt_none",
        "opt_string",
        "oracle_budget_none",
    ],
)
def test_argument_refusals(make, message):
    with pytest.raises(InvalidInput) as err:
        make()
    assert type(err.value) is InvalidInput
    assert str(err.value) == message


# -- the K_k row: kcolor, hom(K_k) and kfree(K_{k+1}, K_k) ask one question -----


def aes_eps(l: int) -> Fraction:
    """ε of K_{l+1} in the Andrásfai–Erdős–Sós theorem, 1/(3l² - l)."""
    return Fraction(1, l * (3 * l - 1))


def two_missing_stars() -> Hypergraph:
    """Bipartite, P = 0..41 and Q = 42..99, all P-Q edges present but those
    from vertex 0 to 42..58 and from vertex 1 to 59..75.  Minimum degree
    41; the link distance from 0 to 1 is 34, more than n/4."""
    missing = {(0, q) for q in range(42, 59)} | {(1, q) for q in range(59, 76)}
    edges = [(p, q) for p in range(42) for q in range(42, 100) if (p, q) not in missing]
    return Hypergraph(2, 100, edges)


@pytest.mark.parametrize(
    "decide",
    [
        lambda g, cfg: decide_hom_minimal(g, K2, cfg),
        lambda g, cfg: embed_min_decide(g, K3, K2, cfg),
    ],
    ids=["hom", "kfree"],
)
def test_the_k_k_row_keeps_a_part_whole_below_eps(decide):
    # at 9/100 < 1/10 the λ gate admits the host exactly (41 >= (1/2 - 9/100)
    # * 100); a radius of n/4 split P and answered "no" with edge (1, 42)
    host = two_missing_stars()
    d = decide(host, DeciderConfig(eps=Fraction(9, 100)))
    assert d.verdict is Verdict.YES
    assert d.partition == decide_k_colorable(host, 2).partition
    assert d.partition.nonempty_class_sets() == {frozenset(range(42)), frozenset(range(42, 100))}


def test_a_float_eps_is_compared_by_its_binary_value():
    # Fraction(0.09) is below 9/100, so the bound comes out just above 41
    assert Fraction(0.09) < Fraction(9, 100)
    host = two_missing_stars()
    d = decide_hom_minimal(host, K2, DeciderConfig(eps=0.09))
    assert d.verdict is Verdict.PRECONDITION_VIOLATED
    assert Fraction(d.details["threshold"]) > 41
    assert decide_hom_minimal(host, K2, DeciderConfig(eps=Fraction(9, 100))).is_yes


def test_an_exact_eps_beyond_the_float_range_is_accepted():
    # an exact eps is finite whatever its size; converting it to a float
    # to check raised OverflowError.  K_2 still gates by dmin > 2/5 of n.
    huge = Fraction(10**400)
    host = two_missing_stars()
    d = decide_hom_minimal(host, K2, DeciderConfig(eps=huge))
    assert d == decide_k_colorable(host, 2)
    sparse = pattern_blowup(K2, (30, 70))
    d = decide_hom_minimal(sparse, K2, DeciderConfig(eps=huge))
    assert d.reason == "minimum degree 30 is not above 2/5 of 100"


def test_an_infinite_decimal_eps_is_refused():
    with pytest.raises(InvalidInput) as err:
        DeciderConfig(eps=Decimal("Infinity"))
    assert str(err.value) == "eps must be finite, got Decimal('Infinity')"


def not_above_aes_bound(k: int) -> dict:
    """T(40, 2)'s refusal by the K_k row's gate."""
    return dict(
        verdict="precondition_violated",
        reason=f"minimum degree 20 is not above {3 * k - 4}/{3 * k - 1} of 40",
        details={"min_degree": 20, "bound": (3 * k - 4, 3 * k - 1), "n": 40},
    )


@pytest.mark.parametrize(
    "make_host, k, expected",
    [
        *[(lambda: turan_graph(40, 2), k, not_above_aes_bound(k)) for k in (3, 41, 10**5)],
        (
            lambda: turan_graph(60, 3),
            3,
            dict(
                verdict="yes",
                classes=blocks(20, 20, 20),
                stats=zero_stats(distance_evals=118, edges_scanned=1200, work_units=9480),
            ),
        ),
        (
            lambda: plant_violation(turan_graph(60, 3), contiguous_classes((20, 20, 20)), 0),
            3,
            no_signature((0, 18), distance_evals=118, edges_scanned=1201, work_units=9482),
        ),
    ],
    ids=["refused-3", "refused-41", "refused-100000", "yes", "planted"],
)
def test_kcolor_builds_no_k_k(make_host, k, expected, monkeypatch):
    # T(40, 2) is not above the bound for any k >= 3, and no host is for
    # k > n; K_k has C(k, 2) edges, 5·10^9 at k = 10^5.  A strict decision
    # needs K_k nowhere, neither to refuse a host nor to cluster it.
    def refuse(*args):
        raise AssertionError("K_k built by a strict decision")

    host = make_host()
    monkeypatch.setattr(Pattern, "complete_graph", refuse)
    assert pinned(decide_k_colorable(host, k)) == UNSET | expected


def test_the_k_k_row_does_not_calibrate(monkeypatch):
    # its threshold 1 - 1/k and radius 2/(3k - 1) are closed forms
    def refuse(*args):
        raise AssertionError("K_k calibrated")

    monkeypatch.setattr(deciders, "lagrangian", refuse)
    monkeypatch.setattr(deciders, "rigidity_report", refuse)
    host = turan_graph(60, 3)
    assert decide_k_colorable(host, 3).is_yes
    planted = plant_violation(host, contiguous_classes(balanced_sizes(60, 3)), 0)
    assert decide_k_colorable(planted, 3).is_no
    assert decide_k_colorable(host, 4, DeciderConfig(strict=False)).is_yes


def test_shom_reads_one_rigidity_report_per_decision(monkeypatch):
    # the report that gives the threshold also certifies rigidity; the
    # uniformity is still checked before either
    calls = []

    def counted(pattern, opt):
        calls.append(pattern)
        return rigidity_report(pattern, opt)

    monkeypatch.setattr(deciders, "rigidity_report", counted)
    assert decide_shom_rigid(pattern_blowup(C5, (6,) * 5), C5).is_yes
    assert calls == [C5]
    with pytest.raises(PatternNotRigid):
        decide_shom_rigid(turan_graph(20, 2), Pattern.cycle(4), SHOM_CFG)
    assert calls == [C5, Pattern.cycle(4)]
    with pytest.raises(InvalidInput, match="^uniformity mismatch between host and pattern$"):
        decide_shom_rigid(catalog("fano"), Pattern.cycle(4))
    assert len(calls) == 2


def test_complete_patterns_answer_without_the_signature_path(monkeypatch, tmp_path, capsys):
    # the single 3-edge is K_3^(3): both deciders of the hyper-array
    # benchmark, the CLI's K4^(3) decision and kcolor take the complete row,
    # while C5 is not complete and still reads the signatures
    def refuse(*args):
        raise AssertionError("the signature path was reached")

    monkeypatch.setattr(deciders, "_signature_verdict", refuse)
    single = Pattern.single_edge(3)
    host = pattern_blowup(single, (10, 10, 10))
    assert decide_hom_minimal(host, single).is_yes
    assert embed_min_decide(host, catalog("generalized_triangle", r=3), single).is_yes
    k4_3 = Pattern.from_multisets(3, 4, list(itertools.combinations(range(4), 3)))
    (tmp_path / "host.txt").write_text(serialize_hypergraph(pattern_blowup(k4_3, (25,) * 4)))
    (tmp_path / "k4_3.pat").write_text(serialize_pattern(k4_3))
    argv = ["decide", "hom", "--host", str(tmp_path / "host.txt"), "--pattern", str(tmp_path / "k4_3.pat")]
    assert run_cli(argv) == 0
    assert decide_k_colorable(turan_graph(30, 3), 3).is_yes
    capsys.readouterr()
    with pytest.raises(AssertionError, match="signature path"):
        decide_shom_rigid(pattern_blowup(Pattern.cycle(5), (5,) * 5), Pattern.cycle(5), SHOM_CFG)


def test_the_complete_verdict_peaks_below_the_link_rows():
    # one class's share of the rows at a time, with no (n, width) gather of
    # the class masks: 0.77 MB traced against 1.73 MB of rows on the
    # hyper-array benchmark's host, one edge planted
    base = pattern_blowup(Pattern.single_edge(3), (80, 80, 80))
    parts = contiguous_classes((80, 80, 80))
    host = plant_violation(base, parts, 7)
    rows = host.link_rows
    tracemalloc.start()
    try:
        edge = host.first_repeating_edge(parts.labels, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edge == planted_edge(base, host)
    assert peak < rows.nbytes


def test_the_complete_verdict_peaks_below_the_link_rows_in_one_class():
    # every vertex labeled 0, so one class holds all the rows: taking the
    # class at once peaked at 1.92 MB traced against 1.73 MB of rows, slices
    # of SLICE_BYTES at 0.60 MB
    host = pattern_blowup(Pattern.single_edge(3), (80, 80, 80))
    rows = host.link_rows
    labels = np.zeros(host.n, dtype=np.int64)
    tracemalloc.start()
    try:
        edge = host.first_repeating_edge(labels, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edge == tuple(int(v) for v in host.edge_array[0])
    assert peak < rows.nbytes


@pytest.mark.parametrize("s", [2, 4, 10])
@pytest.mark.parametrize("l", [2, 3, 4])
def test_aes_hosts_at_eps_are_refused_or_searched(l, s):
    # minimum degree exactly (3l-4)/(3l-1) of n, the bound the theorem
    # excludes; the λ gate at eps admitted them and answered a wrong "no"
    host = aes_host(l, s)
    small, pattern = catalog("complete", n=l + 1), Pattern.complete_graph(l)
    d = embed_min_decide(host, small, pattern, DeciderConfig(eps=aes_eps(l)))
    refused = decide_k_colorable(host, l)
    assert d.verdict is Verdict.PRECONDITION_VIOLATED
    assert (d.reason, d.details) == (refused.reason, refused.details)
    bound = f"{3 * l - 4}/{3 * l - 1} of {host.n}"
    assert d.reason == f"minimum degree {(3 * l - 4) * s} is not above {bound}"
    relaxed = embed_min_decide(host, small, pattern, DeciderConfig(eps=aes_eps(l), strict=False))
    assert relaxed.verdict is Verdict.YES
    assert relaxed.reason == "exhaustive embedding search found none (sub-threshold fallback)"


def k_k_row_corpus():
    """l-partite hosts above the Andrásfai–Erdős–Sós bound, five per l, each
    also with one edge planted inside a part; unbalanced by one vertex on odd
    seeds, with up to two random edges deleted, and relabelled."""
    for l in (2, 3, 4):
        for seed in range(5):
            n = 2 * l * (3 * l - 1) + l * seed
            sizes = list(balanced_sizes(n, l))
            if seed % 2:
                sizes[0], sizes[-1] = sizes[0] + 1, sizes[-1] - 1
            host = pattern_blowup(Pattern.complete_graph(l), sizes)
            host = delete_random_edges(host, seed // 2, seed)
            planted = plant_violation(host, contiguous_classes(sizes), seed)
            perm = rng_from_seed(seed).permutation(n)
            for kind, g in (("host", host), ("planted", planted)):
                relabelled = Hypergraph(2, n, perm[g.edge_array])
                yield pytest.param(l, relabelled, id=f"l{l}-seed{seed}-{kind}")


@pytest.mark.parametrize("l, host", k_k_row_corpus())
def test_kcolor_is_the_k_k_row_of_kfree(l, host):
    assert (3 * l - 1) * host.min_degree() > (3 * l - 4) * host.n
    d = decide_k_colorable(host, l)
    assert d.verdict is not Verdict.PRECONDITION_VIOLATED
    kfree = embed_min_decide(
        host, catalog("complete", n=l + 1), Pattern.complete_graph(l), DeciderConfig(eps=aes_eps(l))
    )
    assert kfree == d
    assert d.stats.edges_scanned == len(host)


def near_aes_host(l: int, seed: int):
    """An unbalanced l-partite host on 60-200 vertices, relabelled, with
    minimum degree strictly above (3l-4)/(3l-1) of n, and its parts: the
    balanced parts trade vertices while each stays below 3n/(3l-1), then up
    to 8 % of the edges are deleted, skipping any that would take an
    endpoint down to the bound."""
    rng = rng_from_seed(seed)
    n = int(rng.integers(60, 201))
    cap = (3 * n - 1) // (3 * l - 1)
    sizes = list(balanced_sizes(n, l))
    for _ in range(4 * l):
        a, b = rng.choice(l, 2, replace=False)
        if sizes[a] > 1 and sizes[b] < cap:
            sizes[a], sizes[b] = sizes[a] - 1, sizes[b] + 1
    host = pattern_blowup(Pattern.complete_graph(l), sizes)
    edges = host.edge_array
    deg = host.degrees().astype(np.int64)
    keep = np.ones(len(host), dtype=bool)
    target = int(rng.integers(0, 8 * len(host) // 100 + 1))
    for i in rng.permutation(len(host)):
        if target == 0:
            break
        u, v = edges[i]
        if (3 * l - 1) * (min(deg[u], deg[v]) - 1) > (3 * l - 4) * n:
            keep[i] = False
            deg[u] -= 1
            deg[v] -= 1
            target -= 1
    perm = rng.permutation(n)
    parts = contiguous_classes(sizes).nonempty_class_sets()
    parts = {frozenset(perm[list(c)].tolist()) for c in parts}
    return Hypergraph(2, n, perm[edges[keep]]), parts


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_kfree_answers_yes_just_above_the_aes_bound(l, seed):
    # inside the theorem's range a "no" would be wrong: the host is
    # K_{l+1}-free with minimum degree above (1 - 1/l - ε_F)·n
    host, parts = near_aes_host(l, 1000 * l + seed)
    assert (3 * l - 1) * host.min_degree() > (3 * l - 4) * host.n
    cfg = DeciderConfig(eps=aes_eps(l) - Fraction(1, 10**6))
    d = embed_min_decide(host, catalog("complete", n=l + 1), Pattern.complete_graph(l), cfg)
    assert d.verdict is Verdict.YES
    assert d.partition.nonempty_class_sets() == parts


class TestPeel:
    def test_dense_graph_never_peels(self):
        res = peel(turan_graph(120, 2), 2)
        assert res.z == 0 and len(res.survivors) == 120

    def test_star_peels_until_the_last_edge_dominates(self):
        star = Hypergraph(2, 6, [(0, i) for i in range(1, 6)])
        res = peel(star, 2)
        # replay the removal rule by hand as an independent check
        edges = set(star.edge_list())
        alive = set(range(6))
        z = 0
        while alive:
            deg = {v: sum(1 for e in edges if v in e) for v in alive}
            v = min(alive, key=lambda u: (deg[u], u))
            if 5 * deg[v] > 2 * len(alive):
                break
            alive.discard(v)
            edges = {e for e in edges if v not in e}
            z += 1
        assert res.z == z == 4
        assert res.order == (1, 2, 3, 4)

    def test_empty_graph_peels_to_exhaustion(self):
        res = peel(Hypergraph(2, 4, []), 2)
        assert res.z == 4 and res.survivors == ()

    def test_lowest_index_tie_break(self):
        res = peel(catalog("cycle", k=5), 2)
        assert res.order[0] == 0


class TestCliqueAvgDecide:
    def test_near_extremal_bipartite_yes(self):
        g = delete_random_edges(turan_graph(120, 2), 2, 11)
        d = clique_avg_decide(g, 2, 2)
        assert d.verdict is Verdict.YES
        assert d.stats.z == 0
        assert find_embedding(K3, g) is None

    def test_planted_edge_no(self):
        g = plant_violation(turan_graph(120, 2), turan_classes(120, 2), 11)
        assert len(g) == turan_number(120, 2) + 1
        d = clique_avg_decide(g, 2, 0)
        assert d.verdict is Verdict.NO
        assert find_embedding(K3, g) is not None

    def test_size_gate(self):
        g = delete_random_edges(turan_graph(100, 2), 2, 1)
        assert clique_avg_decide(g, 2, 2).verdict is Verdict.PRECONDITION_VIOLATED

    def test_edge_count_gate(self):
        g = delete_random_edges(turan_graph(120, 2), 5, 1)
        assert clique_avg_decide(g, 2, 2).verdict is Verdict.PRECONDITION_VIOLATED

    def test_low_degree_vertex_with_compensating_edges_fails_fast(self):
        # strip one vertex below the peel threshold and repay the edge count
        # inside the other side; the peel count certifies a clique
        import itertools

        base = turan_graph(120, 2)  # sides 0..59 and 60..119
        kept = [e for e in base.edge_list() if not (e[0] == 0 and e[1] >= 80)]
        inside = list(itertools.combinations(range(100, 120), 2))
        g_edges = kept + inside[: len(base) - len(kept)]
        assert len(g_edges) == len(base)
        g = Hypergraph(2, 120, g_edges)
        assert g.min_degree() == 20  # vertex 0 peels immediately
        d = clique_avg_decide(g, 2, 0)
        assert d.verdict is Verdict.NO
        assert d.stats.z >= 1
        assert find_embedding(K3, g) is not None

    def _forced_peel(self, monkeypatch, order):
        # For k <= 7 a vertex that peels under the gates leaves a survivor
        # graph with too many edges to be k-partite, so these small hosts
        # reach step 3 only with a forced peel order.
        def forced(graph, num_parts):
            rest = tuple(v for v in range(graph.n) if v not in order)
            return PeelResult(order=tuple(order), z=len(order), survivors=rest)

        monkeypatch.setattr(deciders, "peel", forced)

    def test_peeled_vertices_rejoin_their_free_class(self, monkeypatch):
        g = turan_graph(120, 4)  # classes 0..29, 30..59, 60..89, 90..119
        self._forced_peel(monkeypatch, (95, 5))
        d = clique_avg_decide(g, 4, 1)
        assert d.verdict is Verdict.YES and d.stats.z == 2
        assert d.partition.nonempty_class_sets() == turan_classes(120, 4).nonempty_class_sets()

    def test_a_peeled_vertex_takes_its_first_free_class(self, monkeypatch):
        # 5 has no neighbor in its own class nor in 30..59 (cluster labels 0
        # and 1); the edge-count gate is lifted to let it lose those edges
        edges = [
            e for e in turan_graph(120, 4).edge_list() if not (e[0] == 5 and 30 <= e[1] < 60)
        ]
        self._forced_peel(monkeypatch, (5,))
        monkeypatch.setattr(deciders, "turan_number", lambda n, k: len(edges))
        d = clique_avg_decide(Hypergraph(2, 120, edges), 4, 1)
        assert d.verdict is Verdict.YES
        assert d.partition.labels[5] == d.partition.labels[0] == 0

    def test_first_stuck_vertex_in_peel_order_is_reported(self, monkeypatch):
        # 50 and 10 gain a neighbor in their own class; 140 can still rejoin
        g = Hypergraph(2, 150, turan_graph(150, 5).edge_list() + [(10, 11), (50, 51)])
        self._forced_peel(monkeypatch, (140, 50, 10))
        d = clique_avg_decide(g, 5, 1)
        assert d.verdict is Verdict.NO
        assert d.reason == "peeled vertex 50 has neighbors in every class"
        assert d.details == {"vertex": 50}

    def test_merged_class_edge_is_reported(self, monkeypatch):
        # 5 and 6 each rejoin their own class; the edge between them is
        # seen only by the final scan of the merged partition
        g = Hypergraph(2, 120, turan_graph(120, 4).edge_list() + [(5, 6)])
        self._forced_peel(monkeypatch, (5, 6))
        d = clique_avg_decide(g, 4, 1)
        assert d.verdict is Verdict.NO and d.partition is None
        assert d.violating_edge == (5, 6)
        assert d.reason == "merged class contains edge (5, 6)"
        assert d.details == {}
        assert d.stats == deciders.DecideStats(
            distance_evals=351, edges_scanned=10621, work_units=63362, z=2
        )

    @pytest.fixture(scope="class")
    def t1200_2(self):
        return turan_graph(1200, 2), turan_classes(1200, 2).nonempty_class_sets()

    @pytest.mark.parametrize("k", range(2, 10))
    def test_graph_text_hosts(self, t1200_2, k):
        # the hosts of the benchmark's `decide avg` request: T(1200, 2)
        # minus k edges, decided with slack k; both steps scan every edge
        base, sides = t1200_2
        for seed in (0, 1, 7):
            d = clique_avg_decide(delete_random_edges(base, k, seed), 2, k)
            assert d.verdict is Verdict.YES
            assert d.partition.nonempty_class_sets() == sides
            assert (d.violating_edge, d.reason, d.details) == (None, None, {})
            assert d.stats == deciders.DecideStats(
                distance_evals=1199,
                edges_scanned=2 * (360000 - k),
                work_units=1199 * 1200 + 4 * (360000 - k),
                z=0,
            )

    @pytest.mark.parametrize("k", range(3, 9))
    def test_agrees_with_the_oracle_beyond_k_2(self, k):
        # C4's check for k = 3..8: T(n, k) minus at most slack edges, T(n, k)
        # plus one edge inside a part, and T(n, k) with one vertex stripped
        # below the peel threshold and its edges repaid inside another part
        for slack in (0, 1, 2):
            n = max(6 * k * k, 30 * slack * k)
            base, classes = turan_graph(n, k), turan_classes(n, k)
            for seed in range(3):
                rng = rng_from_seed(seed)
                thin = delete_random_edges(base, int(rng.integers(slack + 1)), seed)
                planted = plant_violation(base, classes, seed)
                v = int(rng.integers(n))
                own = classes.labels[v]
                others = np.flatnonzero(classes.labels != own)
                cut = rng.choice(others, others.size - (3 * k - 4) * n // (3 * k - 1), False)
                edges = base.edge_array
                kept = edges[~((edges == v).any(axis=1) & np.isin(edges, cut).any(axis=1))]
                part = np.flatnonzero(classes.labels == (own + 1 + rng.integers(k - 1)) % k)
                inside = np.array(list(itertools.combinations(part, 2)))
                repaid = rng.choice(len(inside), len(base) - len(kept), replace=False)
                stripped = Hypergraph(2, n, np.concatenate([kept, inside[repaid]]))
                for host, kind in ((thin, "thin"), (planted, "planted"), (stripped, "stripped")):
                    d = clique_avg_decide(host, k, slack)
                    assert d.is_yes == (find_embedding(catalog("complete", n=k + 1), host) is None)
                    assert d.is_yes == (kind == "thin"), (slack, seed, kind)
                    if kind == "stripped":
                        assert d.stats.z >= 1

    @pytest.mark.parametrize("seed", [None, 34])
    def test_steps_3_and_4_run_unforced(self, seed):
        # Each host has n = max(6k^2, 30*slack*k) + 1 or 2 and ex(n, k) -
        # slack edges; the peeled vertices have no edge inside one class of
        # the survivors.  k = 8, slack 2: vertex 0 of T(481, 8) (part 0..60)
        # loses its edges to 61 and 62 and peels at degree 418 <= 20/23 *
        # 481.  Then it rejoins its part (yes), or, after also losing 63 and
        # gaining 1, has neighbors in every class (no at step 3).  k = 15,
        # slack 4: T(1800, 15) plus u = 1800 and v = 1801, adjacent to each
        # other and to all but two vertices outside the last part; both peel
        # into that part, and the merged partition holds uv (no at step 4).
        def near_turan(n, k, cut, add):
            edges = turan_graph(n, k).edge_array
            keep = ~np.isin(edges[:, 0] * n + edges[:, 1], [a * n + b for a, b in cut])
            return edges[keep], np.array(add, dtype=np.int64).reshape(-1, 2)

        rest = np.arange(1680)
        u, v = np.setdiff1d(rest, [1, 121]), np.setdiff1d(rest, [241, 361])
        step_4 = np.concatenate(
            [np.stack([u, np.full(u.size, 1800)], 1), np.stack([v, np.full(v.size, 1801)], 1)]
        )
        hosts = [
            (481, 8, 2, near_turan(481, 8, [(0, 61), (0, 62)], [])),
            (481, 8, 2, near_turan(481, 8, [(0, 61), (0, 62), (0, 63)], [(0, 1)])),
            (1802, 15, 4, near_turan(1800, 15, [], [(1800, 1801)]) + (step_4,)),
        ]
        decisions = []
        for n, k, slack, parts in hosts:
            perm = np.arange(n) if seed is None else rng_from_seed(seed).permutation(n)
            host = Hypergraph(2, n, perm[np.concatenate(parts)])
            assert len(host) == turan_number(n, k) - slack
            d = clique_avg_decide(host, k, slack)
            assert d.is_yes == (find_embedding(catalog("complete", n=k + 1), host) is None)
            decisions.append((d, perm))
        (yes, perm), (stuck, perm_b), (merged, perm_c) = decisions
        assert yes.is_yes and yes.stats.z == 1
        parts = {frozenset(perm[sorted(c)].tolist()) for c in turan_classes(481, 8).classes}
        assert yes.partition.nonempty_class_sets() == parts
        assert stuck.is_no and stuck.stats.z == 1
        assert stuck.reason == f"peeled vertex {perm_b[0]} has neighbors in every class"
        assert merged.is_no and merged.stats.z == 2
        edge = tuple(sorted(perm_c[[1800, 1801]].tolist()))
        assert merged.violating_edge == edge
        assert merged.reason == f"merged class contains edge {edge}"

    def test_z_bound_on_yes(self):
        for seed in range(5):
            g = delete_random_edges(turan_graph(132, 2), 1, seed)
            d = clique_avg_decide(g, 2, 1)
            assert d.verdict is Verdict.YES
            assert 8 * 132 * d.stats.z <= 12 * 4 * (8 * 1 + 2)
