"""Benchmark harness for the deciders.

Each scenario builds a fresh yes-instance per size, times only the decide
call, and reports the exact distance-evaluation counter next to the wall
time.  The counter must stay within ``classes * n`` per run by construction;
the harness asserts it.  Wall times are indicative; compare ratios between
sizes, never absolute values.
"""

from __future__ import annotations

import time

import numpy as np
from typing import Callable, Sequence

from .corpus import (
    balanced_sizes,
    delete_random_edges,
    pattern_blowup,
    turan_graph,
)
from .deciders import (
    DeciderConfig,
    Decision,
    clique_avg_decide,
    decide_hom_minimal,
    decide_k_colorable,
    decide_shom_rigid,
)
from .errors import InvalidInput, _integer
from .hypergraph import Hypergraph
from .patterns import Pattern

__all__ = ["bench", "SCENARIOS"]

SCENARIOS = ("kcolor", "hom", "shom", "avg")


def _build(
    scenario: str, n: int, seed: int, num_classes: int, slack: int
) -> tuple[Hypergraph, Callable[[Hypergraph], Decision], int]:
    if scenario == "kcolor":
        host = turan_graph(n, num_classes)
        return host, lambda g: decide_k_colorable(g, num_classes), num_classes
    if scenario == "hom":
        n_eff = 3 * (n // 3)
        host = pattern_blowup(Pattern.single_edge(3), balanced_sizes(n_eff, 3))
        cfg = DeciderConfig()
        return host, lambda g: decide_hom_minimal(g, Pattern.single_edge(3), cfg), 3
    if scenario == "shom":
        n_eff = 5 * (n // 5)
        host = pattern_blowup(Pattern.cycle(5), balanced_sizes(n_eff, 5))
        return host, lambda g: decide_shom_rigid(g, Pattern.cycle(5)), 5
    if scenario == "avg":
        base = turan_graph(n, 2)
        host = delete_random_edges(base, min(slack, len(base)), seed)
        return host, lambda g: clique_avg_decide(g, 2, slack), 2
    raise InvalidInput(f"unknown scenario {scenario!r}; choose from {SCENARIOS}")


def _timed_run(
    host: Hypergraph, run: Callable[[Hypergraph], Decision]
) -> tuple[Decision, float]:
    """Time the full decision cost for an instance handed over as raw edges:
    indexing the edge list into a hypergraph, then deciding."""
    r, n, raw = host.r, host.n, np.array(host.edge_array)
    t0 = time.perf_counter()
    rebuilt = Hypergraph(r, n, raw)
    decision = run(rebuilt)
    return decision, time.perf_counter() - t0


def bench(
    scenario: str,
    sizes: Sequence[int],
    seed: int = 0,
    num_classes: int = 3,
    slack: int = 2,
) -> list[dict]:
    """One row per requested size: wall time and exact work counters.

    Each size must be an integer.  Sizes are rounded down where the
    scenario needs a divisible vertex count; the row reports the size
    actually used.
    """
    sizes = [_integer(n, "size") for n in sizes]
    if sizes:
        # absorb first-call costs outside the rows, on an instance of the
        # smallest size, so that the first row pays no first-touch costs
        host, run, _ = _build(scenario, min(sizes), seed, num_classes, slack)
        _timed_run(host, run)

    rows = []
    for n in sizes:
        host, run, classes = _build(scenario, n, seed, num_classes, slack)
        decision, seconds = _timed_run(host, run)
        evals = decision.stats.distance_evals
        budget = classes * host.n
        assert evals <= budget, f"{evals} distance evaluations exceed {budget}"
        rows.append(
            {
                "scenario": scenario,
                "n": host.n,
                "seconds": seconds,
                "distance_evals": evals,
                "work_units": decision.stats.work_units,
                "eval_budget": budget,
                "verdict": decision.verdict.value,
            }
        )
    return rows
