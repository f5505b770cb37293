"""Deciders for dense hypergraphs built on link-distance clustering.

The shared mechanism clusters vertices into balls of small link distance
around greedily chosen seeds, then tests whether the class map of the
resulting partition legally colors every edge.  Above the documented degree
thresholds this is exact; below them the deciders either refuse (strict
mode) or fall back to the exhaustive oracles.

The pattern deciders check an edge through its signature, the sorted tuple
of its vertices' class labels.  Signatures are canonicalized and coded by
the helpers that canonicalize the edges of a :class:`Hypergraph`, so only
the few distinct codes are decoded.  The embedding search of
:mod:`linkclust.oracles` matches their quotient, every class with one edge
per signature, to the pattern's edges; the classes that no edge touches are
isolated, so the search maps them last, to the unused pattern vertices in
ascending order.  The graph deciders (k-colorability and the clique
decider) instead test each class for independence on the packed adjacency
rows.

All degree and radius comparisons are exact integer or rational arithmetic.
The thresholds they compare against are exact for the complete r-graphs
K_l^(r) and for every pattern with r = 2; every other threshold is
``Fraction(float)`` of the numeric optimizer's estimate, so a host within a
rounding of the threshold can fall on either side of it.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidInput,
    NumericFailure,
    PatternNotMinimal,
    PatternNotRigid,
)
from .hypergraph import Hypergraph, Partition
from .hypergraph import _code_dtype, _decode_codes, _encode_rows, _sort_columns
from .lagrangian import OptConfig, is_minimal, lagrangian, rigidity_report
from .oracles import DEFAULT_BUDGET_S, find_embedding, find_homomorphism, turan_number
from .patterns import Pattern

__all__ = [
    "Verdict",
    "DecideStats",
    "Decision",
    "DeciderConfig",
    "PeelResult",
    "hamming_clustering",
    "decide_k_colorable",
    "decide_hom_minimal",
    "decide_shom_rigid",
    "embed_min_decide",
    "peel",
    "clique_avg_decide",
]


class Verdict(str, Enum):
    YES = "yes"
    NO = "no"
    PRECONDITION_VIOLATED = "precondition_violated"


@dataclass
class DecideStats:
    """Exact work counters for the decider's main loops."""

    distance_evals: int = 0
    edges_scanned: int = 0
    work_units: int = 0
    z: Optional[int] = None


@dataclass(frozen=True)
class Decision:
    """Outcome of a decider.

    A yes-verdict carries the certifying partition; a no-verdict carries a
    violating edge or a machine-readable reason in ``details``.
    """

    verdict: Verdict
    partition: Optional[Partition] = None
    violating_edge: Optional[tuple[int, ...]] = None
    reason: Optional[str] = None
    details: dict = field(default_factory=dict)
    stats: DecideStats = field(default_factory=DecideStats)

    @property
    def is_yes(self) -> bool:
        return self.verdict is Verdict.YES

    @property
    def is_no(self) -> bool:
        return self.verdict is Verdict.NO


@dataclass(frozen=True)
class DeciderConfig:
    """Caller-supplied constants for the deciders.

    ``eps`` is the accepted slack below the calibrated degree threshold; it
    must be finite and nonnegative.  A host with fewer than ``n_small``
    vertices, or with minimum degree below the slackened threshold, is
    refused when ``strict`` and otherwise handed to the exhaustive oracle
    (exponential worst case), which gives up after ``oracle_budget_s``
    seconds.  Each search that matches the clusters to the pattern runs
    under the same budget.  ``opt`` configures the calibration.  :func:`decide_k_colorable`
    reads only ``strict`` and ``oracle_budget_s``.

    ``n_small`` defaults per decider: ``3 * l * r`` for an l-vertex pattern
    in :func:`decide_hom_minimal` and :func:`decide_shom_rigid`, and
    ``3 * |V(F)|`` for the forbidden F in :func:`embed_min_decide`.  The
    latter sends every smaller host to the embedding search whatever
    ``strict`` says; ``strict`` governs only its sub-threshold hosts.
    """

    eps: float = 0.0
    n_small: Optional[int] = None
    strict: bool = True
    opt: OptConfig = OptConfig()
    oracle_budget_s: float = DEFAULT_BUDGET_S

    def __post_init__(self):
        if self.eps < 0:
            raise InvalidInput("eps must be nonnegative")
        if not math.isfinite(self.eps):
            raise InvalidInput(f"eps must be finite, got {self.eps!r}")
        if self.n_small is not None and self.n_small < 1:
            raise InvalidInput("n_small must be positive")
        if not self.oracle_budget_s < math.inf:  # NaN compares false with every time
            raise InvalidInput(f"oracle budget {self.oracle_budget_s!r} never runs out")


# -- the clustering core -------------------------------------------------------


def _cluster(
    hypergraph: Hypergraph, num_classes: int, delta: Fraction
) -> tuple[np.ndarray, int]:
    """Greedy ball clustering; returns (labels, distance evaluations).

    Seeds are the lowest-index vertices not yet covered.  Each of the first
    ``num_classes - 1`` seeds grabs the closed ball of link-distance radius
    ``delta * n**(r-1)`` around itself (within the whole vertex set); the
    last class absorbs the uncovered remainder.  A vertex falling into
    several balls lands in the latest one, and classes may come out empty.
    """
    n = hypergraph.n
    radius = int(delta * n ** (hypergraph.r - 1))  # Fraction floor; dist is integral
    labels = np.zeros(n, dtype=np.int64)
    covered = np.zeros(n, dtype=bool)
    evals = 0
    for i in range(num_classes):
        if covered.all():
            break
        if i < num_classes - 1:
            seed = int(np.argmax(~covered))
            members = hypergraph.distances_from(seed) <= radius
            evals += n - 1
        else:
            members = ~covered
        labels[members] = i
        covered |= members
    return labels, evals


def hamming_clustering(
    hypergraph: Hypergraph, num_classes: int, delta
) -> Partition:
    """Partition the vertex set by link-distance ball clustering.

    ``delta`` may be anything :class:`~fractions.Fraction` accepts; the ball
    radius comparison is exact.  Deterministic given the vertex order.
    """
    if num_classes < 2:
        raise InvalidInput("need at least 2 classes")
    frac = Fraction(delta)
    if frac < 0 or frac > 1:
        raise InvalidInput(f"delta must lie in [0, 1], got {delta!r}")
    labels, _ = _cluster(hypergraph, num_classes, frac)
    return Partition.from_labels(labels, num_classes)


# -- signature tests -----------------------------------------------------------


def _class_masks(
    n: int, vertices: np.ndarray, labels: np.ndarray, num_classes: int
) -> np.ndarray:
    """Packed bit rows of the classes: row j marks the vertices labeled j."""
    members = np.zeros((num_classes, n), dtype=bool)
    members[labels, vertices] = True
    return np.packbits(members, axis=1)


def _first_internal_edge(
    graph: Hypergraph, labels: np.ndarray, num_classes: int
) -> Optional[int]:
    """Index of the first edge with both ends in one class, or ``None``.

    The existence check is one AND of each packed row with its own class's
    mask; the index is located only when a violation exists.  This path
    stays beside the signature codes because it is much cheaper on graphs:
    after clustering T(4000, 3) it took 0.5-0.6 ms, against 137-150 ms for
    the signature verdict with K_3, and 0.05-0.08 ms against 11-13 ms on
    T(1200, 3) (best of 7, three sessions, 2 cores).
    """
    rows = graph.packed_adjacency
    masks = _class_masks(graph.n, np.arange(graph.n), labels, num_classes)
    if not np.any(rows & masks[labels]):
        return None
    arr = graph.edge_array
    step = 1 << 18
    for start in range(0, arr.shape[0], step):
        block = arr[start : start + step]
        lab = labels[block]
        hits = np.nonzero(lab[:, 0] == lab[:, 1])[0]
        if hits.size:
            return start + int(hits[0])
    return None


def _edge_signatures(
    hypergraph: Hypergraph, labels: np.ndarray, num_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted codes of the distinct edge signatures, and the lowest index of
    an edge with each.  A signature is the sorted tuple of an edge's class
    labels, coded base ``max(num_classes, 2)`` like the edges themselves."""
    base = max(num_classes, 2)
    lab = labels.astype(_code_dtype(base, hypergraph.r))
    # one contiguous edge column at a time: a take of the whole (m, r) array
    # peaked at 21.5 MB on the hyper-array host, against 17.4 MB
    cols = [lab.take(col) for col in hypergraph.edge_array.T]
    _sort_columns(cols)
    codes = _encode_rows(cols, base)
    return np.unique(codes, return_index=True)


def _signature_verdict(
    hypergraph: Hypergraph,
    pattern: Pattern,
    labels: np.ndarray,
    stats: DecideStats,
    budget_s: float = DEFAULT_BUDGET_S,
) -> tuple[Optional[np.ndarray], Optional[tuple[int, ...]]]:
    """Relabel clusters onto pattern vertices so the class map colors every
    edge, or return a violating edge.  Cluster indices come from seed
    discovery order, so the identity need not work even when some
    relabeling does.  Each search for a relabeling runs under ``budget_s``.

    Returns (relabeled labels, None) on success, (None, edge) otherwise.
    """
    num = pattern.num_vertices
    codes, reps = _edge_signatures(hypergraph, labels, num)
    stats.edges_scanned += len(hypergraph)
    sigs = [tuple(row) for row in _decode_codes(codes, max(num, 2), hypergraph.r).T.tolist()]

    # A class-count profile that no pattern edge has cannot be fixed by any
    # relabeling; report the earliest offending edge.
    allowed_profiles = {tuple(sorted(Counter(e).values())) for e in pattern.edges}
    profiles = [tuple(sorted(Counter(sig).values())) for sig in sigs]
    bad = [int(rep) for p, rep in zip(profiles, reps) if p not in allowed_profiles]
    if bad:
        return None, tuple(int(v) for v in hypergraph.edge_array[min(bad)])

    quotient = functools.partial(Pattern, pattern.r, num)
    emb = find_embedding(quotient(sigs), pattern, budget_s)
    if emb is None:
        # No single profile is wrong, but the signatures are jointly
        # unmatchable.  Report the edge whose signature completes the shortest
        # unmatchable prefix in representative order.  A relabeling that works
        # for a set works for each subset, so prefix matchability is monotone
        # and a binary search over the prefix lengths below the full one
        # finds it in ceil(log2 d) searches.
        order = np.argsort(reps)
        ordered = [sigs[i] for i in order]
        t = 1 + bisect.bisect_left(
            range(1, len(ordered)),
            True,
            key=lambda m: find_embedding(quotient(ordered[:m]), pattern, budget_s) is None,
        )
        return None, tuple(int(v) for v in hypergraph.edge_array[reps[order[t - 1]]])
    return np.array([emb[c] for c in range(num)])[labels], None


# -- oracle fallbacks ----------------------------------------------------------


def _oracle_hom_decision(
    hypergraph: Hypergraph,
    pattern: Pattern,
    surjective: bool,
    budget_s: float,
    note: str,
) -> Decision:
    coloring = find_homomorphism(hypergraph, pattern, surjective, budget_s)
    if coloring is None:
        return Decision(
            Verdict.NO, reason=f"exhaustive search found no coloring ({note})"
        )
    part = Partition.from_labels(coloring, pattern.num_vertices)
    return Decision(
        Verdict.YES, partition=part, reason=f"exhaustive search ({note})"
    )


def _oracle_embed_decision(
    hypergraph: Hypergraph, small: Hypergraph, budget_s: float, note: str
) -> Decision:
    emb = find_embedding(small, hypergraph, budget_s)
    if emb is None:
        return Decision(
            Verdict.YES, reason=f"exhaustive embedding search found none ({note})"
        )
    return Decision(
        Verdict.NO,
        reason=f"exhaustive embedding search found a copy ({note})",
        details={"embedding": emb},
    )


def _precondition(reason: str, details: dict) -> Decision:
    return Decision(Verdict.PRECONDITION_VIOLATED, reason=reason, details=details)


def _finish_work(stats: DecideStats, hypergraph: Hypergraph) -> DecideStats:
    stats.work_units = (
        stats.distance_evals * hypergraph.n ** (hypergraph.r - 1)
        + hypergraph.r * stats.edges_scanned
    )
    return stats


# -- graph colorability under minimum degree ------------------------------------


def decide_k_colorable(
    graph: Hypergraph, num_colors: int, cfg: DeciderConfig = DeciderConfig()
) -> Decision:
    """Decide proper ``num_colors``-colorability of a dense graph.

    Requires minimum degree strictly above ``(3k-4)/(3k-1) * n`` (checked by
    exact cross-multiplication); above it the ball clustering recovers the
    unique coloring when one exists, so the answer is the independence of
    all classes.  Below it the decision is refused, or delegated to the
    exhaustive oracle when ``cfg.strict`` is false.
    """
    if graph.r != 2:
        raise InvalidInput("colorability decider expects a graph (r = 2)")
    if num_colors < 2:
        raise InvalidInput("need at least 2 colors")
    if graph.n == 0:
        raise InvalidInput("empty vertex set")
    n, k = graph.n, num_colors
    dmin = graph.min_degree()
    if not (3 * k - 1) * dmin > (3 * k - 4) * n:
        if cfg.strict:
            return _precondition(
                f"minimum degree {dmin} is not above {3 * k - 4}/{3 * k - 1} of {n}",
                {"min_degree": dmin, "bound": (3 * k - 4, 3 * k - 1), "n": n},
            )
        return _oracle_hom_decision(
            graph,
            Pattern.complete_graph(k),
            False,
            cfg.oracle_budget_s,
            "sub-threshold fallback",
        )

    labels, evals = _cluster(graph, k, Fraction(2, 3 * k - 1))
    stats = DecideStats(distance_evals=evals)
    idx = _first_internal_edge(graph, labels, k)
    if idx is not None:
        stats.edges_scanned = idx + 1
        _finish_work(stats, graph)
        edge = tuple(int(v) for v in graph.edge_array[idx])
        return Decision(
            Verdict.NO,
            violating_edge=edge,
            reason=f"edge {edge} lies inside class {int(labels[edge[0]])}",
            stats=stats,
        )
    stats.edges_scanned = len(graph)
    _finish_work(stats, graph)
    return Decision(
        Verdict.YES, partition=Partition.from_labels(labels, k), stats=stats
    )


# -- pattern colorability under minimum degree -----------------------------------


def _exact_fraction(value: float, exact: Optional[Fraction]) -> Fraction:
    return exact if exact is not None else Fraction(value)


def _decide_core(
    hypergraph: Hypergraph,
    pattern: Pattern,
    cfg: DeciderConfig,
    oracle: Callable[[str], Decision],
    n_small: int,
    degenerate: Optional[Exception] = None,
    surjective: bool = False,
) -> Decision:
    """The criterion's decision procedure, shared by the pattern deciders.

    Calibrate: the threshold is r·λ of the pattern, or its maximin level φ
    when ``surjective``, and c is the least coordinate of the maximin
    optimum; both are exact where the calibration has a closed form.  Gate:
    a host with fewer than ``n_small`` vertices, then one with minimum
    degree below ``(threshold - eps) * n**(r-1)``, is refused when
    ``cfg.strict`` and else answered by ``oracle(note)``.  Decide: raise
    ``degenerate`` (a :class:`NumericFailure` by default) unless c > 0,
    cluster at radius ``(c/2)**(r-1) / (r-1)!``, and read the class
    signatures of the edges; when ``surjective`` every class must be
    nonempty.
    """
    n, r = hypergraph.n, hypergraph.r
    if surjective:
        rig = rigidity_report(pattern, cfg.opt)
        threshold = _exact_fraction(rig.maximin, rig.maximin_exact)
    else:
        lam = lagrangian(pattern, cfg.opt)
        threshold = r * _exact_fraction(lam.value, lam.value_exact)
        rig = rigidity_report(pattern, cfg.opt)
    smallest = _exact_fraction(rig.smallest_coordinate, rig.smallest_exact)

    if n < n_small:
        if cfg.strict:
            return _precondition(
                f"host has {n} vertices, below the small-instance cutoff {n_small}",
                {"n": n, "n_small": n_small},
            )
        return oracle("small host")
    dmin = hypergraph.min_degree()
    bound = (threshold - Fraction(cfg.eps)) * Fraction(n) ** (r - 1)
    if not Fraction(dmin) >= bound:
        if cfg.strict:
            return _precondition(
                f"minimum degree {dmin} below the threshold {bound}",
                {"min_degree": dmin, "threshold": str(bound)},
            )
        return oracle("sub-threshold fallback")

    if smallest <= 0:
        raise degenerate or NumericFailure("clustering radius degenerated to zero", float(smallest))
    radius = (smallest / 2) ** (r - 1) / math.factorial(r - 1)
    labels, evals = _cluster(hypergraph, pattern.num_vertices, radius)
    stats = DecideStats(distance_evals=evals)
    relabeled, bad_edge = _signature_verdict(
        hypergraph, pattern, labels, stats, cfg.oracle_budget_s
    )
    _finish_work(stats, hypergraph)
    if bad_edge is not None:
        return Decision(
            Verdict.NO,
            violating_edge=bad_edge,
            reason=f"edge {bad_edge} has no legal class signature",
            stats=stats,
        )
    part = Partition.from_labels(relabeled, pattern.num_vertices)
    if surjective and not part.has_full_support():
        empty = next(i for i, c in enumerate(part.classes) if not c)
        return Decision(
            Verdict.NO,
            reason=f"class {empty} is empty; no surjective coloring exists",
            details={"empty_class": empty},
            stats=stats,
        )
    return Decision(Verdict.YES, partition=part, stats=stats)


def decide_hom_minimal(
    hypergraph: Hypergraph, pattern: Pattern, cfg: DeciderConfig = DeciderConfig()
) -> Decision:
    """Decide colorability by a minimal pattern for dense hosts.

    The host's minimum degree must reach ``(r * L - eps) * n**(r-1)`` where
    L is the pattern's simplex maximum; the pattern must certify minimal.
    The certifying coloring, when it exists, is unique up to the pattern's
    automorphisms.
    """
    if hypergraph.r != pattern.r:
        raise InvalidInput("uniformity mismatch between host and pattern")
    mrep = is_minimal(pattern, cfg.opt)
    if not mrep.minimal:
        raise PatternNotMinimal(
            f"pattern is not minimal (margin {mrep.margin:.3g}); "
            "this decider requires a minimal pattern"
        )
    return _decide_core(
        hypergraph,
        pattern,
        cfg,
        functools.partial(_oracle_hom_decision, hypergraph, pattern, False, cfg.oracle_budget_s),
        cfg.n_small if cfg.n_small is not None else 3 * pattern.num_vertices * pattern.r,
    )


def decide_shom_rigid(
    hypergraph: Hypergraph, pattern: Pattern, cfg: DeciderConfig = DeciderConfig()
) -> Decision:
    """Decide surjective colorability by a rigid pattern for dense hosts.

    As :func:`decide_hom_minimal`, with the threshold taken from the maximin
    level of the pattern's partials and every class required nonempty.
    """
    if hypergraph.r != pattern.r:
        raise InvalidInput("uniformity mismatch between host and pattern")
    rig = rigidity_report(pattern, cfg.opt)
    if not rig.rigid:
        raise PatternNotRigid(
            f"pattern is not rigid ({(rig.certificate or {}).get('kind', 'unknown')}); "
            "this decider requires a rigid pattern"
        )
    return _decide_core(
        hypergraph,
        pattern,
        cfg,
        functools.partial(_oracle_hom_decision, hypergraph, pattern, True, cfg.oracle_budget_s),
        cfg.n_small if cfg.n_small is not None else 3 * pattern.num_vertices * pattern.r,
        surjective=True,
    )


# -- freeness under minimum degree ----------------------------------------------


@functools.lru_cache(maxsize=512)
def _colorable_by(small: Hypergraph, pattern: Pattern) -> bool:
    """Whether ``small`` maps into ``pattern``; cached per pairing."""
    return find_homomorphism(small, pattern) is not None


def embed_min_decide(
    hypergraph: Hypergraph,
    small: Hypergraph,
    pattern: Pattern,
    cfg: DeciderConfig = DeciderConfig(),
) -> Decision:
    """Decide whether a dense host avoids ``small`` entirely.

    The caller supplies the pairing: hosts colorable by ``pattern`` avoid
    ``small``, and dense ``small``-free hosts are pattern-colorable.  Small
    hosts go straight to the exhaustive embedding search; large ones are
    clustered and answered by the class-signature test.  Before that the
    checkable half of the pairing is checked, once per pairing: a ``small``
    that is itself ``pattern``-colorable lies in the pattern's blow-ups, so
    the pairing is refused with :class:`InvalidInput`.
    """
    if hypergraph.r != small.r or hypergraph.r != pattern.r:
        raise InvalidInput("uniformity mismatch")
    oracle = functools.partial(_oracle_embed_decision, hypergraph, small, cfg.oracle_budget_s)
    n_small = cfg.n_small if cfg.n_small is not None else 3 * small.n
    if hypergraph.n < n_small:
        return oracle("small host")
    if _colorable_by(small, pattern):
        raise InvalidInput(
            "the forbidden hypergraph is colorable by the pattern, so the "
            "pattern's blow-ups contain it; unusable pairing"
        )
    return _decide_core(
        hypergraph,
        pattern,
        cfg,
        oracle,
        0,
        InvalidInput("pattern admits no positive clustering radius; unusable pairing"),
    )


# -- peeling and near-extremal clique freeness -----------------------------------


@dataclass(frozen=True)
class PeelResult:
    order: tuple[int, ...]
    z: int
    survivors: tuple[int, ...]


def peel(graph: Hypergraph, num_parts: int) -> PeelResult:
    """Iterated minimum-degree removal until the survivor graph is dense.

    Repeatedly removes a minimum-degree vertex (lowest index on ties) until
    the survivor graph's minimum degree strictly exceeds
    ``(3k-4)/(3k-1) * (n - removed)`` by exact cross-multiplication, or the
    graph is exhausted, in which case ``z = n``.
    """
    if graph.r != 2:
        raise InvalidInput("peeling expects a graph (r = 2)")
    if num_parts < 2:
        raise InvalidInput("need at least 2 parts")
    n = graph.n
    k = num_parts
    rows = graph.packed_adjacency
    alive = np.ones(n, dtype=bool)
    deg = graph.degrees().astype(np.int64).copy()
    order: list[int] = []
    sentinel = np.int64(n + 1)
    for removed in range(n):
        masked = np.where(alive, deg, sentinel)
        v = int(np.argmin(masked))
        if (3 * k - 1) * int(masked[v]) > (3 * k - 4) * (n - removed):
            break
        order.append(v)
        alive[v] = False
        neigh = np.unpackbits(rows[v], count=n).astype(bool) & alive
        deg[neigh] -= 1
    survivors = tuple(int(v) for v in np.nonzero(alive)[0])
    return PeelResult(order=tuple(order), z=len(order), survivors=survivors)


def clique_avg_decide(
    graph: Hypergraph, num_parts: int, slack: int
) -> Decision:
    """Decide clique freeness for graphs within ``slack`` edges of the
    extremal multipartite count.

    Requires ``|G| >= ex(n) - slack`` and ``n >= max(6k^2, 30*slack*k)``.
    Peels low-degree vertices, refuses when too many peel off, clusters the
    dense survivor graph, reinserts the peeled vertices into classes they
    have no neighbors in, and accepts when the merged classes are all
    independent.

    Steps 3-4 (reinsert and merge) have been seen to run only from k = 8
    under these gates: an exact count over k <= 12, slack < 40 and every
    allowed (n, z) found no instance for k <= 7, the first being k = 8,
    slack 2, n = 481, z = 1.  This is evidence, not a proof.
    """
    if graph.r != 2:
        raise InvalidInput("clique decider expects a graph (r = 2)")
    if num_parts < 2:
        raise InvalidInput("need at least 2 parts")
    if slack < 0:
        raise InvalidInput("edge slack must be nonnegative")
    n, k = graph.n, num_parts
    extremal = turan_number(n, k)
    if len(graph) < extremal - slack:
        return _precondition(
            f"graph has {len(graph)} edges, below {extremal} - {slack}",
            {"edges": len(graph), "extremal": extremal, "slack": slack},
        )
    gate = max(6 * k * k, 30 * slack * k)
    if n < gate:
        return _precondition(
            f"{n} vertices, below the size gate {gate}",
            {"n": n, "gate": gate},
        )

    # step 1: peel; too many removals already certify a clique
    peeled = peel(graph, k)
    z = peeled.z
    stats = DecideStats(z=z)
    if 8 * n * z > 12 * k * k * (8 * slack + k):
        _finish_work(stats, graph)
        return Decision(
            Verdict.NO,
            reason=f"{z} vertices peeled, above the bound "
            f"12k^2(slack + k/8)/n = {12 * k * k * (8 * slack + k) / (8 * n):.3f}",
            details={"z": z, "order": peeled.order},
            stats=stats,
        )

    # step 2: cluster the survivor graph
    survivors = np.array(peeled.survivors, dtype=np.int64)
    sub, _ = graph.induced(survivors)
    labels_sub, evals = _cluster(sub, k, Fraction(1, 3 * k + 1))
    stats.distance_evals = evals
    stats.edges_scanned += len(sub)
    idx = _first_internal_edge(sub, labels_sub, k)
    if idx is not None:
        edge = tuple(int(survivors[v]) for v in sub.edge_array[idx])
        _finish_work(stats, graph)
        return Decision(
            Verdict.NO,
            violating_edge=edge,
            reason=f"survivor edge {edge} lies inside a class",
            stats=stats,
        )

    # step 3: reinsert each peeled vertex into the first class where it has
    # no neighbor: one (z, k, width) AND of its row against the class masks
    rows = graph.packed_adjacency
    class_masks = _class_masks(n, survivors, labels_sub, k)
    order = np.array(peeled.order, dtype=np.int64)
    free = ~np.any(rows[order][:, None, :] & class_masks[None, :, :], axis=2)
    stuck = np.flatnonzero(~free.any(axis=1))
    if stuck.size:
        v = int(order[stuck[0]])
        _finish_work(stats, graph)
        return Decision(
            Verdict.NO,
            reason=f"peeled vertex {v} has neighbors in every class",
            details={"vertex": v},
            stats=stats,
        )
    full_labels = np.full(n, -1, dtype=np.int64)
    full_labels[survivors] = labels_sub
    full_labels[order] = free.argmax(axis=1)

    # step 4: the merged partition must be proper
    stats.edges_scanned += len(graph)
    idx = _first_internal_edge(graph, full_labels, k)
    _finish_work(stats, graph)
    if idx is not None:
        edge = tuple(int(v) for v in graph.edge_array[idx])
        return Decision(
            Verdict.NO,
            violating_edge=edge,
            reason=f"merged class contains edge {edge}",
            stats=stats,
        )
    return Decision(
        Verdict.YES,
        partition=Partition.from_labels(full_labels, k),
        stats=stats,
    )
