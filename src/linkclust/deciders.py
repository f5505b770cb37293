"""Deciders for dense hypergraphs built on link-distance clustering.

The shared mechanism clusters vertices into balls of small link distance
around greedily chosen seeds, then tests whether the class map of the
resulting partition legally colors every edge.  Above the documented degree
thresholds this is exact; below them the deciders either refuse (strict
mode) or fall back to the exhaustive oracles.

The pattern deciders check an edge through its signature, the sorted tuple
of its vertices' class labels (:meth:`Hypergraph.label_signatures`).  The
embedding search of :mod:`linkclust.oracles` matches their quotient, every
class with one edge per signature, to the pattern's edges; the classes that
no edge touches are isolated, so the search maps them last, to the unused
pattern vertices in ascending order.  A complete pattern K_l^(r) needs no
match and no signatures: an edge maps onto one of its edges exactly when its
r labels are distinct, and every relabeling of such a coloring is one too,
so the clustering labels are the coloring as they stand.  Its verdict, which
k-colorability (the core's K_k row) and the clique decider share, is the
lowest-index edge that repeats a label
(:meth:`Hypergraph.first_repeating_edge`).

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
import numbers
from collections import Counter
from dataclasses import dataclass, field, replace
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    InvalidInput,
    NumericFailure,
    PatternNotMinimal,
    PatternNotRigid,
    _budget,
    _integer,
)
from .hypergraph import Hypergraph, Partition
from .lagrangian import OptConfig, _opt_config, is_minimal, lagrangian, rigidity_report
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
    """Exact work counters for the decider's main loops.

    ``distance_evals`` counts the link distances the clustering evaluates,
    each over the n**(r-1) codes of a link row, and ``edges_scanned`` the
    edges whose r labels a verdict reads, so the work is
    ``work_units = distance_evals * n**(r-1) + r * edges_scanned`` for the
    host's n and r.  ``z`` is the number of vertices
    :func:`clique_avg_decide` peels, ``None`` for every other decider.  One
    builder, ``_decided``, makes every :class:`Decision` the deciders return
    and works out its ``work_units``; a refusal and an exhaustive search's
    answer count no work.
    """

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


def _decided(
    host: Hypergraph,
    verdict: Verdict,
    evals: int = 0,
    scanned: int = 0,
    z: Optional[int] = None,
    **fields,
) -> Decision:
    """The one builder of every :class:`Decision` the deciders return: its
    :class:`DecideStats` from the work counted on ``host``, and ``fields``
    as the decision's other fields."""
    work = evals * host.n ** (host.r - 1) + host.r * scanned
    return Decision(verdict, stats=DecideStats(evals, scanned, work, z), **fields)


@dataclass(frozen=True)
class DeciderConfig:
    """Caller-supplied constants for the deciders.

    ``eps`` is the accepted slack below the calibrated degree threshold; it
    must be a finite, nonnegative real number (a ``numbers.Real`` or a
    ``Decimal``).  A ``Fraction`` is compared exactly, and a float by its
    binary value, so ``0.09`` is a little below ``9/100``.  ``strict`` must
    be a bool, and the budget a real number that runs out
    (``errors._budget``).  A host with fewer than ``n_small`` vertices, or
    with minimum degree below the slackened threshold, is refused when
    ``strict`` and otherwise handed to the exhaustive oracle (exponential
    worst case), which gives up after ``oracle_budget_s`` seconds.  Each
    search that matches the clusters to the pattern, and the pairing check
    of :func:`embed_min_decide`, runs under the same budget.  ``opt``, an
    :class:`OptConfig`, configures the calibration.  For K_k,
    eps >= 1/(k(3k-1)) gates by the strict bound of
    :func:`decide_k_colorable`, which reads only ``strict`` and
    ``oracle_budget_s``.

    ``n_small`` must be a positive integer.  It defaults to ``3 * l * r``
    for an l-vertex pattern in :func:`decide_hom_minimal` and
    :func:`decide_shom_rigid`, and to ``3 * |V(F)|`` for the forbidden F in
    :func:`embed_min_decide`.  The latter sends every smaller host to the
    embedding search whatever ``strict`` says; ``strict`` governs only its
    sub-threshold hosts.  :func:`decide_k_colorable` has no cutoff and
    ignores ``n_small``.
    """

    eps: float | Fraction = 0.0
    n_small: Optional[int] = None
    strict: bool = True
    opt: OptConfig = OptConfig()
    oracle_budget_s: float = DEFAULT_BUDGET_S

    def __post_init__(self):
        if not isinstance(self.eps, (numbers.Real, Decimal)):
            raise InvalidInput(f"eps must be a real number, got {self.eps!r}")
        # before any comparison: a Decimal NaN raises on one
        if isinstance(self.eps, Decimal):
            finite = self.eps.is_finite()
        else:
            finite = isinstance(self.eps, numbers.Rational) or math.isfinite(self.eps)
        if not finite:
            raise InvalidInput(f"eps must be finite, got {self.eps!r}")
        if self.eps < 0:
            raise InvalidInput("eps must be nonnegative")
        if self.n_small is not None and _integer(self.n_small, "n_small") < 1:
            raise InvalidInput("n_small must be positive")
        if not isinstance(self.strict, (bool, np.bool_)):
            raise InvalidInput(f"strict must be a bool, got {self.strict!r}")
        _opt_config(self.opt, "opt")
        _budget(self.oracle_budget_s)


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
    if _integer(num_classes, "class count") < 2:
        raise InvalidInput("need at least 2 classes")
    try:
        frac = Fraction(delta)
    except (TypeError, ValueError, OverflowError):  # not a number, NaN or infinite
        frac = None
    if frac is None or frac < 0 or frac > 1:
        raise InvalidInput(f"delta must lie in [0, 1], got {delta!r}")
    labels, _ = _cluster(hypergraph, num_classes, frac)
    return Partition.from_labels(labels, num_classes)


# -- signature tests -----------------------------------------------------------


def _signature_verdict(
    hypergraph: Hypergraph,
    pattern: Pattern,
    labels: np.ndarray,
    budget_s: float = DEFAULT_BUDGET_S,
) -> tuple[Optional[np.ndarray], Optional[tuple[int, ...]]]:
    """Relabel clusters onto pattern vertices so the class map colors every
    edge, or return a violating edge.  Cluster indices come from seed
    discovery order, so the identity need not work even when some
    relabeling does.  Each search for a relabeling runs under ``budget_s``.

    Returns (relabeled labels, None) on success, (None, edge) otherwise.
    """
    num = pattern.num_vertices
    signatures, reps = hypergraph.label_signatures(labels, num)
    sigs = [tuple(row) for row in signatures.tolist()]

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
    classes: Optional[int] = None,
) -> Decision:
    """The exhaustive search's coloring as a partition into ``classes``
    classes, by default one for each vertex of ``pattern``."""
    coloring = find_homomorphism(hypergraph, pattern, surjective, budget_s)
    if coloring is None:
        reason = f"exhaustive search found no coloring ({note})"
        return _decided(hypergraph, Verdict.NO, reason=reason)
    part = Partition.from_labels(coloring, classes or pattern.num_vertices)
    return _decided(hypergraph, Verdict.YES, partition=part, reason=f"exhaustive search ({note})")


def _oracle_embed_decision(
    hypergraph: Hypergraph, small: Hypergraph, budget_s: float, note: str
) -> Decision:
    emb = find_embedding(small, hypergraph, budget_s)
    if emb is None:
        reason = f"exhaustive embedding search found none ({note})"
        return _decided(hypergraph, Verdict.YES, reason=reason)
    return _decided(
        hypergraph,
        Verdict.NO,
        reason=f"exhaustive embedding search found a copy ({note})",
        details={"embedding": emb},
    )


# -- graph colorability under minimum degree ------------------------------------


def decide_k_colorable(
    graph: Hypergraph, num_colors: int, cfg: DeciderConfig = DeciderConfig()
) -> Decision:
    """Decide proper ``num_colors``-colorability of a dense graph.

    As :func:`decide_hom_minimal` with K_k at eps = 1/(k(3k-1)) and no
    small-host cutoff: requires minimum degree strictly above
    ``(3k-4)/(3k-1) * n``, where the ball clustering recovers the unique
    coloring when one exists.  Below it the decision is refused, or
    delegated to the exhaustive oracle when ``cfg.strict`` is false.  That
    oracle searches K_min(k, Δ+1) for the maximum degree Δ, never the
    C(k, 2) edges of a larger K_k, and its coloring is the one K_k gives,
    with the classes past the (Δ+1)-th empty.  For k >= Δ+1 the K_k search
    colors each vertex with the lowest color that canonical color
    introduction lets it try and that none of its at most Δ colored
    neighbours has; one of the colors up to Δ is always free, since either
    they are all open or the next unopened one is unused.  No domain loses
    more than Δ of its k colors either, so that search never backtracks and
    opens no color past the (Δ+1)-th.  Its domain sizes, colored vertices
    included, exceed those of the K_{Δ+1} search by the constant k - Δ - 1,
    so both pick the same vertex at every step and follow the same path.
    As Δ+1 <= n, the search is never larger than K_n.
    """
    if graph.r != 2:
        raise InvalidInput("colorability decider expects a graph (r = 2)")
    if _integer(num_colors, "color count") < 2:
        raise InvalidInput("need at least 2 colors")
    if graph.n == 0:
        raise InvalidInput("empty vertex set")
    k = num_colors

    def oracle(note: str) -> Decision:
        clique = Pattern.complete_graph(min(k, graph.max_degree() + 1))
        return _oracle_hom_decision(graph, clique, False, cfg.oracle_budget_s, note, classes=k)

    eps = Fraction(1, k * (3 * k - 1))
    return _decide_core(graph, None, replace(cfg, eps=eps, n_small=1), oracle, row=_clique_row(k))


# -- the decision pipeline: calibrate, gate, cluster, verdict ---------------------


class _Row(NamedTuple):
    """A calibrated pattern: the degree threshold (r·λ, or φ when
    surjective), the least coordinate c of the maximin optimum, the
    clustering radius (``(c/2)**(r-1) / (r-1)!`` but on the K_k row), the
    number of classes and whether the pattern is complete."""

    threshold: Fraction
    smallest: Fraction
    radius: Fraction
    k: int
    complete: bool


def _clique_row(k: int) -> _Row:
    """The K_k row (r = 2, complete on k vertices), all closed forms:
    r·λ = φ = 1 - 1/k and c = 1/k.  Its radius is 2/(3k-1), which separates
    the parts of a k-partite host above the gate of :func:`_gate`."""
    return _Row(Fraction(k - 1, k), Fraction(1, k), Fraction(2, 3 * k - 1), k, True)


def _calibrate(pattern: Pattern, surjective: bool, cfg: DeciderConfig) -> _Row:
    """The pattern's row, exact where the calibration has a closed form.

    ``exact or value`` takes the exact value where there is one; an exact 0
    falls back to its float, which is then 0.0 as well.  A surjective
    decision needs a rigid pattern: the one rigidity report that gives its
    threshold raises :class:`PatternNotRigid` for any other.  Every K_k is
    rigid, so its closed-form row needs no report.
    """
    r, complete = pattern.r, pattern.is_complete()
    if r == 2 and complete:
        return _clique_row(pattern.num_vertices)
    if surjective:
        rig = rigidity_report(pattern, cfg.opt)
        if not rig.rigid:
            raise PatternNotRigid(
                f"pattern is not rigid ({(rig.certificate or {}).get('kind', 'unknown')}); "
                "this decider requires a rigid pattern"
            )
        threshold = Fraction(rig.maximin_exact or rig.maximin)
    else:
        lam = lagrangian(pattern, cfg.opt)
        threshold = r * Fraction(lam.value_exact or lam.value)
        rig = rigidity_report(pattern, cfg.opt)
    smallest = Fraction(rig.smallest_exact or rig.smallest_coordinate)
    radius = (smallest / 2) ** (r - 1) / math.factorial(r - 1)
    return _Row(threshold, smallest, radius, pattern.num_vertices, complete)


def _gate(host: Hypergraph, row: _Row, cfg: DeciderConfig, n_small: int) -> Optional[tuple]:
    """``None`` for a host the criterion covers, else the oracle's note, the
    reason and its details.

    A host with fewer than ``n_small`` vertices is not covered.  Nor is one
    with minimum degree below ``(threshold - eps) * n**(r-1)``, except on
    the K_k row from eps = 1/(k(3k-1)) on: there the λ bound admits hosts
    at (3k-4)/(3k-1)·n, which the Andrásfai–Erdős–Sós theorem excludes, so
    the row needs minimum degree strictly above that bound.
    """
    n, r, k = host.n, host.r, row.k
    if n < n_small:
        reason = f"host has {n} vertices, below the small-instance cutoff {n_small}"
        return "small host", reason, {"n": n, "n_small": n_small}
    dmin = host.min_degree()
    if r == 2 and row.complete and Fraction(cfg.eps) >= Fraction(1, k * (3 * k - 1)):
        a, b = 3 * k - 4, 3 * k - 1
        if b * dmin > a * n:
            return None
        reason = f"minimum degree {dmin} is not above {a}/{b} of {n}"
        return "sub-threshold fallback", reason, {"min_degree": dmin, "bound": (a, b), "n": n}
    bound = (row.threshold - Fraction(cfg.eps)) * Fraction(n) ** (r - 1)
    if Fraction(dmin) >= bound:
        return None
    reason = f"minimum degree {dmin} below the threshold {bound}"
    return "sub-threshold fallback", reason, {"min_degree": dmin, "threshold": str(bound)}


def _decide_core(
    hypergraph: Hypergraph,
    pattern: Optional[Pattern],
    cfg: DeciderConfig,
    oracle: Callable[[str], Decision],
    degenerate: Optional[Exception] = None,
    surjective: bool = False,
    row: Optional[_Row] = None,
) -> Decision:
    """The criterion's decision procedure, shared by every decider but the
    clique decider, in four phases.

    Calibrate: ``row`` is the pattern's :func:`_calibrate` row unless the
    caller gives it, as k-colorability gives the K_k row with no pattern.
    Gate: :func:`_gate` with the cutoff ``cfg.n_small``, by default
    ``3 * k * r`` for k classes, refuses an uncovered host when
    ``cfg.strict`` and else hands it to ``oracle(note)``.  Cluster: raise
    ``degenerate`` (a :class:`NumericFailure` by default) unless c > 0,
    and cluster into k balls of the row's radius.  Verdict: a complete
    pattern K_l^(r) reads no signatures, but the lowest-index edge that
    repeats a label (:meth:`Hypergraph.first_repeating_edge`), and on a yes
    the clustering labels are the coloring, unrelabeled; any other pattern
    reads the class signatures of the edges; and when ``surjective`` every
    class must be nonempty.
    """
    if row is None:
        row = _calibrate(pattern, surjective, cfg)
    n_small = cfg.n_small if cfg.n_small is not None else 3 * row.k * hypergraph.r
    refusal = _gate(hypergraph, row, cfg, n_small)
    if refusal is not None:
        note, reason, details = refusal
        if not cfg.strict:
            return oracle(note)
        return _decided(hypergraph, Verdict.PRECONDITION_VIOLATED, reason=reason, details=details)

    if row.smallest <= 0:
        raise degenerate or NumericFailure("clustering radius degenerated to zero", float(row.smallest))
    labels, evals = _cluster(hypergraph, row.k, row.radius)
    if row.complete:  # every relabeling of a legal coloring is one: test the identity
        relabeled, bad_edge = labels, hypergraph.first_repeating_edge(labels, row.k)
    else:
        relabeled, bad_edge = _signature_verdict(hypergraph, pattern, labels, cfg.oracle_budget_s)
    decided = functools.partial(_decided, hypergraph, evals=evals, scanned=len(hypergraph))
    if bad_edge is not None:
        reason = f"edge {bad_edge} has no legal class signature"
        return decided(Verdict.NO, violating_edge=bad_edge, reason=reason)
    part = Partition.from_labels(relabeled, row.k)
    if surjective and not part.has_full_support():
        empty = next(i for i, c in enumerate(part.classes) if not c)
        return decided(
            Verdict.NO,
            reason=f"class {empty} is empty; no surjective coloring exists",
            details={"empty_class": empty},
        )
    return decided(Verdict.YES, partition=part)


# -- pattern colorability under minimum degree -----------------------------------


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
    )


def decide_shom_rigid(
    hypergraph: Hypergraph, pattern: Pattern, cfg: DeciderConfig = DeciderConfig()
) -> Decision:
    """Decide surjective colorability by a rigid pattern for dense hosts.

    As :func:`decide_hom_minimal`, with the threshold taken from the maximin
    level of the pattern's partials and every class required nonempty; the
    pattern must certify rigid, which the calibration checks.
    """
    if hypergraph.r != pattern.r:
        raise InvalidInput("uniformity mismatch between host and pattern")
    return _decide_core(
        hypergraph,
        pattern,
        cfg,
        functools.partial(_oracle_hom_decision, hypergraph, pattern, True, cfg.oracle_budget_s),
        surjective=True,
    )


# -- freeness under minimum degree ----------------------------------------------


@functools.lru_cache(maxsize=512)
def _colorable_by(small: Hypergraph, pattern: Pattern, budget_s: float) -> bool:
    """Whether ``small`` maps into ``pattern``, searched under ``budget_s``;
    cached per pairing and budget."""
    return find_homomorphism(small, pattern, False, budget_s) is not None


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
    clustered by :func:`_decide_core` and answered by the class-signature
    test, or for a complete pattern K_l^(r) by the lowest-index edge that
    repeats a label (:meth:`Hypergraph.first_repeating_edge`).  Before that
    the checkable half of the pairing is checked, once per pairing: a
    ``small`` that is itself ``pattern``-colorable lies in the pattern's
    blow-ups, so the pairing is refused with :class:`InvalidInput`.
    """
    if hypergraph.r != small.r or hypergraph.r != pattern.r:
        raise InvalidInput("uniformity mismatch")
    oracle = functools.partial(_oracle_embed_decision, hypergraph, small, cfg.oracle_budget_s)
    n_small = cfg.n_small if cfg.n_small is not None else 3 * small.n
    if hypergraph.n < n_small:
        return oracle("small host")
    if _colorable_by(small, pattern, cfg.oracle_budget_s):
        raise InvalidInput(
            "the forbidden hypergraph is colorable by the pattern, so the "
            "pattern's blow-ups contain it; unusable pairing"
        )
    return _decide_core(
        hypergraph,
        pattern,
        replace(cfg, n_small=n_small),
        oracle,
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
    if _integer(num_parts, "part count") < 2:
        raise InvalidInput("need at least 2 parts")
    n = graph.n
    k = num_parts
    alive = np.ones(n, dtype=bool)
    deg = graph.degrees().astype(np.int64)
    order: list[int] = []
    sentinel = np.int64(n + 1)
    for removed in range(n):
        masked = np.where(alive, deg, sentinel)
        v = int(np.argmin(masked))
        if (3 * k - 1) * int(masked[v]) > (3 * k - 4) * (n - removed):
            break
        order.append(v)
        alive[v] = False
        neigh = np.unpackbits(graph.completions((v,)), count=n).astype(bool) & alive
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

    Steps 3-4 (reinsert and merge) need a peeled vertex and k-partite
    survivors.  An exact count of the gates over k <= 15, slack < 40 and
    every allowed (n, z) first allows z = 1 at k = 8, slack 2, n = 481 (as
    T(481, 8) with vertex 0 cut from 61 and 62, which reaches step 4), and
    z = 2, which a no at step 4 needs, at k = 15, slack 4, n = 1802.  This
    is evidence, not a proof.
    """
    if graph.r != 2:
        raise InvalidInput("clique decider expects a graph (r = 2)")
    if _integer(num_parts, "part count") < 2:
        raise InvalidInput("need at least 2 parts")
    if _integer(slack, "edge slack") < 0:
        raise InvalidInput("edge slack must be nonnegative")
    n, k = graph.n, num_parts
    extremal = turan_number(n, k)
    refused = functools.partial(_decided, graph, Verdict.PRECONDITION_VIOLATED)
    if len(graph) < extremal - slack:
        return refused(
            reason=f"graph has {len(graph)} edges, below {extremal} - {slack}",
            details={"edges": len(graph), "extremal": extremal, "slack": slack},
        )
    gate = max(6 * k * k, 30 * slack * k)
    if n < gate:
        reason = f"{n} vertices, below the size gate {gate}"
        return refused(reason=reason, details={"n": n, "gate": gate})

    # step 1: peel; too many removals already certify a clique
    peeled = peel(graph, k)
    z = peeled.z
    if 8 * n * z > 12 * k * k * (8 * slack + k):
        return _decided(
            graph,
            Verdict.NO,
            z=z,
            reason=f"{z} vertices peeled, above the bound "
            f"12k^2(slack + k/8)/n = {12 * k * k * (8 * slack + k) / (8 * n):.3f}",
            details={"z": z, "order": peeled.order},
        )

    # step 2: cluster the survivor graph; the later exits count its work
    survivors = np.array(peeled.survivors, dtype=np.int64)
    sub, _ = graph.induced(survivors)
    labels_sub, evals = _cluster(sub, k, Fraction(1, 3 * k + 1))
    decided = functools.partial(_decided, graph, evals=evals, scanned=len(sub), z=z)
    edge = sub.first_repeating_edge(labels_sub, k)
    if edge is not None:
        edge = tuple(int(survivors[v]) for v in edge)
        reason = f"survivor edge {edge} lies inside a class"
        return decided(Verdict.NO, violating_edge=edge, reason=reason)

    # step 3: reinsert each peeled vertex into the first class where it has
    # no neighbor; the peeled vertices are labeled -1 until then
    full_labels = np.full(n, -1, dtype=np.int64)
    full_labels[survivors] = labels_sub
    order = np.array(peeled.order, dtype=np.int64)
    free = np.ones((z, k), dtype=bool)
    for i, v in enumerate(peeled.order):
        near = full_labels[np.unpackbits(graph.completions((v,)), count=n).astype(bool)]
        free[i, near[near >= 0]] = False
    stuck = np.flatnonzero(~free.any(axis=1))
    if stuck.size:
        v = int(order[stuck[0]])
        reason = f"peeled vertex {v} has neighbors in every class"
        return decided(Verdict.NO, reason=reason, details={"vertex": v})
    full_labels[order] = free.argmax(axis=1)

    # step 4: the merged partition must be proper
    decided = functools.partial(decided, scanned=len(sub) + len(graph))
    edge = graph.first_repeating_edge(full_labels, k)
    if edge is not None:
        return decided(Verdict.NO, violating_edge=edge, reason=f"merged class contains edge {edge}")
    return decided(Verdict.YES, partition=Partition.from_labels(full_labels, k))
