"""Acceptance suite.

One test per acceptance criterion; each prints a pass line when it holds
(run with ``pytest tests/test_acceptance.py -v -s``).  Tolerances and counts
are pinned here, not configurable.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from linkclust import (
    DeciderConfig,
    Hypergraph,
    Partition,
    Pattern,
    Verdict,
    bench,
    catalog,
    clique_avg_decide,
    contiguous_classes,
    decide_k_colorable,
    decide_shom_rigid,
    find_embedding,
    find_homomorphism,
    has_twins,
    is_minimal,
    lagrange_eval,
    lagrange_grad,
    lagrangian,
    lagrangian_grid,
    pattern_blowup,
    phi,
    plant_violation,
    rigidity_report,
    rng_from_seed,
    turan_graph,
    turan_number,
)
from linkclust.corpus import _sample_without_replacement
from helpers import coloring_instance, erdos_renyi, graphs_up_to_iso, interior_points

K3 = catalog("complete", n=3)


def _report(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS{suffix}")


# -- criteria 1-3: coloring decider vs exhaustive search -------------------------


@pytest.fixture(scope="module")
def coloring_runs():
    records = []
    t0 = time.perf_counter()
    for num_colors in (2, 3, 4):
        for seed in range(500):
            host = coloring_instance(num_colors, seed * 3 + num_colors)
            decision = decide_k_colorable(host, num_colors)
            assert decision.verdict is not Verdict.PRECONDITION_VIOLATED
            oracle = find_homomorphism(host, Pattern.complete_graph(num_colors))
            records.append(
                {
                    "l": num_colors,
                    "n": host.n,
                    "decision": decision,
                    "oracle": oracle,
                }
            )
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_criterion_1_oracle_equivalence(coloring_runs):
    records, elapsed = coloring_runs
    assert len(records) == 1500
    mismatches = sum(
        1 for rec in records if rec["decision"].is_yes != (rec["oracle"] is not None)
    )
    assert mismatches == 0
    assert elapsed < 60.0
    _report("C1", f"1500 instances, 0 mismatches, {elapsed:.1f}s")


def test_criterion_2_uniqueness(coloring_runs):
    records, _ = coloring_runs
    yes = 0
    for rec in records:
        if not rec["decision"].is_yes:
            continue
        yes += 1
        oracle_part = Partition.from_labels(np.array(rec["oracle"]), rec["l"])
        assert (
            rec["decision"].partition.nonempty_class_sets()
            == oracle_part.nonempty_class_sets()
        )
    assert yes > 0
    _report("C2", f"{yes} yes-instances, identical class sets")


def test_criterion_3_work_bound(coloring_runs):
    records, _ = coloring_runs
    for rec in records:
        stats = rec["decision"].stats
        assert stats.distance_evals <= rec["l"] * rec["n"]
        assert stats.work_units <= (rec["l"] + 1) * rec["n"] ** 2
    _report("C3", "distance evals <= l*n and work within (l+1)n^2 throughout")


# -- criterion 4: near-extremal clique decider -----------------------------------


def test_criterion_4_near_extremal_grid():
    slacks = (0, 1, 2, 4)
    ns = (120, 132, 150)
    failures = 0
    checked = {"yes": 0, "no": 0, "gate": 0}
    for seed in range(200):
        slack = slacks[seed % 4]
        n = ns[(seed // 4) % 3]
        gate = max(6 * 2 * 2, 30 * slack * 2)
        thin = (
            turan_graph(n, 2)
            if slack == 0
            else Hypergraph(
                2,
                n,
                np.delete(
                    turan_graph(n, 2).edge_array,
                    _sample_without_replacement(
                        rng_from_seed(seed), turan_number(n, 2), slack
                    ),
                    axis=0,
                ),
            )
        )
        planted = plant_violation(
            turan_graph(n, 2), contiguous_classes((n - n // 2, n // 2)), seed
        )
        for host, kind in ((thin, "thin"), (planted, "planted")):
            decision = clique_avg_decide(host, 2, slack)
            if n < gate:
                if decision.verdict is not Verdict.PRECONDITION_VIOLATED:
                    failures += 1
                checked["gate"] += 1
                continue
            triangle_free = find_embedding(K3, host) is None
            if decision.is_yes != triangle_free:
                failures += 1
            if kind == "thin" and not decision.is_yes:
                failures += 1
            if kind == "planted" and decision.is_yes:
                failures += 1
            if decision.is_yes:
                z = decision.stats.z
                if not 8 * n * z <= 12 * 2 * 2 * (8 * slack + 2):
                    failures += 1
                checked["yes"] += 1
            else:
                checked["no"] += 1
    assert failures == 0
    assert checked["yes"] and checked["no"] and checked["gate"]
    _report("C4", f"200 seeds: {checked}")


# -- criteria 5-6: numerics -------------------------------------------------------


def test_criterion_5_closed_form_values():
    for l in range(2, 7):
        assert abs(lagrangian(Pattern.complete_graph(l)).value - (l - 1) / (2 * l)) <= 1e-6
        assert abs(phi(Pattern.complete_graph(l)).value - (l - 1) / l) <= 1e-6
    assert abs(lagrangian(Pattern.single_edge(3)).value - 1 / 27) <= 1e-6
    for pattern in (
        Pattern.complete_graph(3),
        Pattern.complete_graph(4),
        Pattern.complete_graph(5),
        Pattern.single_edge(3),
    ):
        assert is_minimal(pattern).minimal
        balance = pattern.r * lagrangian(pattern).value - phi(pattern).value
        assert abs(balance) <= 2e-6
    _report("C5", "closed forms and minimal-pattern balance within tolerance")


FIXTURE_PATTERNS = (
    [Pattern.complete_graph(l) for l in range(2, 7)]
    + [Pattern.single_edge(3), Pattern.cycle(4), Pattern.cycle(5), Pattern.cycle(7)]
    + [
        Pattern.path(3),
        Pattern(3, 2, [(0, 0, 1)]),
        Pattern.from_hypergraph(catalog("generalized_triangle", r=3)),
    ]
)


def test_criterion_6_gradient_and_euler_suites():
    h = 1e-5
    for pattern in FIXTURE_PATTERNS:
        dim = pattern.num_vertices
        for x in interior_points(dim, 100, seed=7):
            grad = lagrange_grad(pattern, tuple(x))
            for i in range(dim):
                up, dn = list(x), list(x)
                up[i] += h
                dn[i] -= h
                fd = (lagrange_eval(pattern, up) - lagrange_eval(pattern, dn)) / (2 * h)
                assert abs(grad[i] - fd) / max(abs(grad[i]), 1e-9) <= 1e-4
        for x in interior_points(dim, 1000, seed=13):
            grad = lagrange_grad(pattern, tuple(x))
            lhs = math.fsum(xi * gi for xi, gi in zip(x, grad))
            assert abs(lhs - pattern.r * lagrange_eval(pattern, tuple(x))) <= 1e-10
    _report("C6", f"{len(FIXTURE_PATTERNS)} fixture patterns")


# -- criterion 7: rigidity and exhaustive minimality ------------------------------


def test_criterion_7_rigidity_classification():
    for pattern in [Pattern.complete_graph(l) for l in (2, 3, 4, 5)] + [
        Pattern.cycle(5),
        Pattern.cycle(7),
    ]:
        assert rigidity_report(pattern).rigid
    twin_positive = [
        Pattern.cycle(4),
        Pattern.path(3),
        Pattern.from_hypergraph(turan_graph(5, 2)),
        Pattern.from_multisets(3, 3, [(0, 0, 2), (0, 1, 2), (1, 1, 2)]),
    ]
    for pattern in [Pattern.cycle(4), Pattern.path(3)] + twin_positive:
        assert not rigidity_report(pattern).rigid
    for pattern in twin_positive:
        assert has_twins(pattern)
        assert not rigidity_report(pattern).rigid

    # exhaustive minimality over all graphs with up to 5 vertices, decided
    # both by the optimizer and by the grid oracle; 60 divides every clique
    # size in range, so the grid is exact here
    checked = 0
    for n in range(2, 6):
        for edges in graphs_up_to_iso(n):
            pattern = Pattern.from_multisets(2, n, edges)
            by_optimizer = is_minimal(pattern).minimal
            top = lagrangian_grid(pattern, 60)
            by_grid = all(
                top - lagrangian_grid(pattern.vertex_deleted(i), 60) > 1e-7
                for i in range(n)
            )
            complete = pattern.is_complete()
            assert by_optimizer == by_grid == complete
            checked += 1
    _report("C7", f"{checked} graphs classified; minimal iff complete")


# -- criterion 8: surjective coloring suite ----------------------------------------


def test_criterion_8_surjective_suite():
    target = Pattern.cycle(5)
    cfg = DeciderConfig(n_small=15)
    mismatches = 0
    for m in (3, 4, 5, 6):
        host = pattern_blowup(target, (m,) * 5)
        decision = decide_shom_rigid(host, target, cfg)
        assert decision.verdict is Verdict.YES
        assert decision.partition.sizes() == (m,) * 5
        planted = plant_violation(host, contiguous_classes((m,) * 5), m)
        assert decide_shom_rigid(planted, target, cfg).verdict is Verdict.NO

    bipartite = turan_graph(20, 2)
    decision = decide_shom_rigid(bipartite, target, cfg)
    assert decision.verdict is Verdict.NO
    assert find_homomorphism(turan_graph(6, 2), target) is not None
    assert find_homomorphism(turan_graph(6, 2), target, surjective=True) is None

    # exhaustive search on shrunk copies agrees with every verdict above
    shrunk_yes = pattern_blowup(target, (2,) * 5)
    if find_homomorphism(shrunk_yes, target, surjective=True) is None:
        mismatches += 1
    shrunk_planted = plant_violation(shrunk_yes, contiguous_classes((2,) * 5), 1)
    if find_homomorphism(shrunk_planted, target, surjective=True) is not None:
        mismatches += 1
    # and directly on the smallest full-size instance
    full_small = pattern_blowup(target, (3,) * 5)
    if find_homomorphism(full_small, target, surjective=True) is None:
        mismatches += 1
    assert mismatches == 0
    _report("C8", "blow-ups, planted edges, and bipartite hosts all agree")


# -- criterion 9: join constructions ----------------------------------------------


def test_criterion_9_join_construction_sanity():
    from linkclust import join_construction

    for seed in range(50):
        rng = rng_from_seed(seed)
        n = int(rng.integers(6, 16))
        p = (0.3, 0.5, 0.7)[seed % 3]
        g = erdos_renyi(n, p, seed + 1000)
        for q in (1, 2):
            lifted = join_construction(g, q, n)
            assert lifted.min_degree() >= q * n
            for clique_size in (3, 4):
                small = catalog("complete", n=clique_size)
                big = catalog("complete", n=clique_size + q)
                assert (find_embedding(small, g) is not None) == (
                    find_embedding(big, lifted) is not None
                )
    _report("C9", "50 seeded graphs, q in {1,2}, clique shift exact")


# -- criterion 10: scaling smoke test ----------------------------------------------


def test_criterion_10_scaling_smoke():
    t0 = time.perf_counter()
    rows = bench("kcolor", [1000, 2000, 4000], seed=2024, num_classes=3)
    total = time.perf_counter() - t0
    ratios = [
        rows[i + 1]["seconds"] / rows[i]["seconds"] for i in range(len(rows) - 1)
    ]
    # every measurement, so that a failure under load can be told apart
    # from a regression
    seen = (
        f"total {total:.3f}s; n, seconds: "
        + ", ".join(f"{row['n']} {row['seconds']:.4f}" for row in rows)
        + "; ratios: "
        + ", ".join(f"{ratio:.3f}" for ratio in ratios)
    )
    assert total < 120.0, seen
    for ratio in ratios:
        assert 3.0 <= ratio <= 6.0, seen
    for row in rows:
        assert row["distance_evals"] <= 3 * row["n"], seen
        # two balls of n - 1 evaluations each, then one scan of T(n, 3)'s edges
        n = row["n"]
        assert row["distance_evals"] == 2 * (n - 1), seen
        assert row["work_units"] == 2 * (n - 1) * n + 2 * turan_number(n, 3), seen
    _report(
        "C10",
        f"total {total:.1f}s, ratios "
        + ", ".join(f"{ratio:.2f}" for ratio in ratios),
    )
