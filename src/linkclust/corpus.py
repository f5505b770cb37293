"""Deterministic instance generators and the fixture catalog.

All randomness flows through a 64-bit-seeded Philox counter-based generator,
and random subset choices use an explicit partial Fisher-Yates over its
integer stream, so identical (seed, parameters) reproduce identical
instances byte for byte.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInput
from .hypergraph import Hypergraph, Partition, _check_size
from .oracles import turan_number
from .patterns import Pattern

__all__ = [
    "Seed",
    "rng_from_seed",
    "turan_graph",
    "turan_classes",
    "balanced_sizes",
    "contiguous_classes",
    "pattern_blowup",
    "delete_random_edges",
    "plant_violation",
    "join_construction",
    "catalog",
    "CATALOG_NAMES",
]

Seed = int


def rng_from_seed(seed: Seed) -> np.random.Generator:
    """Philox-backed generator for a 64-bit unsigned seed."""
    if not isinstance(seed, (int, np.integer)) or seed < 0 or seed >= 2**64:
        raise InvalidInput(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return np.random.Generator(np.random.Philox(int(seed)))


def _sample_without_replacement(
    rng: np.random.Generator, pool: int, k: int
) -> np.ndarray:
    """First k entries of a partial Fisher-Yates shuffle, sorted.

    Spelled out here so the result depends only on the generator's integer
    stream, not on library internals.
    """
    idx = np.arange(pool, dtype=np.int64)
    for i in range(k):
        j = i + int(rng.integers(pool - i))
        idx[i], idx[j] = idx[j], idx[i]
    return np.sort(idx[:k])


def balanced_sizes(n: int, parts: int) -> tuple[int, ...]:
    """Class sizes differing by at most one; the first ``n mod parts``
    classes get the extra vertex."""
    if n < 0 or parts < 1:
        raise InvalidInput(f"need n >= 0 and parts >= 1, got n = {n} and parts = {parts}")
    q, s = divmod(n, parts)
    return tuple(q + 1 if i < s else q for i in range(parts))


def contiguous_classes(sizes: Sequence[int]) -> Partition:
    """Partition of ``sum(sizes)`` vertices into consecutive index blocks."""
    bounds = np.cumsum([0, *sizes])
    classes = [range(bounds[i], bounds[i + 1]) for i in range(len(sizes))]
    return Partition(classes, int(bounds[-1]))


# Bytes of the edge array a generator may allocate (8 per vertex of each
# edge).  A larger request is refused before anything is allocated, so
# ``turan_graph(10**7, 2)`` cannot ask for 364 TiB; the generators that blow
# up K_l check the closed-form edge count before they build K_l itself.
MAX_EDGE_ARRAY_BYTES = 1 << 30


def _check_edge_array(m: int, r: int) -> None:
    if 8 * r * m > MAX_EDGE_ARRAY_BYTES:
        raise InvalidInput(
            f"{m} edges of {r} vertices need {8 * r * m} bytes, above "
            f"MAX_EDGE_ARRAY_BYTES = {MAX_EDGE_ARRAY_BYTES}"
        )


def turan_graph(n: int, parts: int) -> Hypergraph:
    """Balanced complete multipartite graph on ``n`` vertices."""
    if parts < 1 or n < parts:
        raise InvalidInput("need n >= parts >= 1")
    _check_edge_array(turan_number(n, parts), 2)
    return pattern_blowup(Pattern.complete_graph(parts), balanced_sizes(n, parts))


def turan_classes(n: int, parts: int) -> Partition:
    return contiguous_classes(balanced_sizes(n, parts))


def _blowup_edges(pattern: Pattern, sizes: Sequence[int]) -> tuple[int, np.ndarray]:
    """Vertex count and ``(r, m)`` edge columns of :func:`pattern_blowup`, in
    the dtype of the host's edge codes, so that the host keeps them.

    The edges are counted first and written into one array: each pattern
    edge's block, viewed as an ``(r, n_1, ..., n_k)`` array over the
    classes it uses, gets each class's member tuples broadcast along that
    class's axis, so the first class varies slowest.
    """
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) != pattern.num_vertices:
        raise InvalidInput(
            f"{len(sizes)} sizes given for a pattern on {pattern.num_vertices} vertices"
        )
    if any(s < 0 for s in sizes):
        raise InvalidInput("class sizes must be nonnegative")
    need = pattern.max_multiplicities()
    for i, (s, m) in enumerate(zip(sizes, need)):
        if s < m:
            raise InvalidInput(
                f"class {i} has size {s}, below the required multiplicity {m}"
            )
    starts = [0, *itertools.accumulate(sizes)]
    # each pattern edge as its (class, multiplicity) pairs, in class order
    uses = [[(i, e.count(i)) for i in dict.fromkeys(e)] for e in pattern.edges]
    counts = [math.prod(math.comb(sizes[i], m) for i, m in used) for used in uses]
    _check_edge_array(sum(counts), pattern.r)
    edges = np.empty((pattern.r, sum(counts)), dtype=_check_size(pattern.r, starts[-1]))
    row = 0
    for used, count in zip(uses, counts):
        shape = [math.comb(sizes[i], m) for i, m in used]
        block = edges[:, row : row + count].reshape(pattern.r, *shape)
        col = 0
        for axis, (i, m) in enumerate(used):
            members = itertools.combinations(range(starts[i], starts[i + 1]), m)
            flat = itertools.chain.from_iterable(members)
            combos = np.fromiter(flat, dtype=np.int64, count=shape[axis] * m)
            view = [m] + [1] * len(used)
            view[1 + axis] = shape[axis]
            block[col : col + m] = combos.reshape(shape[axis], m).T.reshape(view)
            col += m
        row += count
    return starts[-1], edges


def pattern_blowup(pattern: Pattern, sizes: Sequence[int]) -> Hypergraph:
    """Replace pattern vertices by disjoint classes of the given sizes.

    For each pattern edge, every set using exactly the edge's multiplicity
    from each class (as distinct vertices) becomes an edge, so the class map
    is a homomorphism onto the pattern.
    """
    return Hypergraph._from_block(pattern.r, *_blowup_edges(pattern, sizes))


def delete_random_edges(
    hypergraph: Hypergraph, k: int, seed: Seed
) -> Hypergraph:
    """Remove ``k`` uniformly chosen edges, deterministically per seed."""
    if k < 0 or k > len(hypergraph):
        raise InvalidInput(
            f"cannot delete {k} edges from a hypergraph with {len(hypergraph)}"
        )
    rng = rng_from_seed(seed)
    keep = np.ones(len(hypergraph), dtype=bool)
    keep[_sample_without_replacement(rng, len(hypergraph), k)] = False
    # compressing the (r, m) columns keeps the kept edges column-major and
    # in order: a fresh block that the host keeps, and does not sort
    edges = hypergraph.edge_array.T.compress(keep, axis=1)
    return Hypergraph._from_block(hypergraph.r, hypergraph.n, edges)


def plant_violation(
    hypergraph: Hypergraph, parts: Partition, seed: Seed
) -> Hypergraph:
    """Add one edge lying inside a single class of ``parts``.

    The class is chosen by seed among those with at least r vertices and a
    missing internal edge; the edge is found by seeded rejection sampling
    with an exhaustive fallback.  The result is not colorable by ``parts``
    whenever the pattern in play has no edge repeating one vertex r times.
    """
    if parts.n != hypergraph.n:
        raise InvalidInput("partition covers a different vertex count")
    r = hypergraph.r
    rng = rng_from_seed(seed)
    lab = parts.labels[hypergraph.edge_array]
    inside = np.bincount(
        lab[np.all(lab == lab[:, :1], axis=1), 0], minlength=parts.num_classes
    )
    eligible = [
        ci
        for ci, (count, size) in enumerate(zip(inside.tolist(), parts.sizes()))
        if count < math.comb(size, r)
    ]
    if not eligible:
        raise InvalidInput("no class admits a new internal edge")
    chosen = eligible[int(rng.integers(len(eligible)))]
    members = parts.classes[chosen]
    edge = None
    for _ in range(64):
        pick = _sample_without_replacement(rng, len(members), r)
        cand = tuple(members[i] for i in pick)
        if not hypergraph.has_edge(cand):
            edge = cand
            break
    if edge is None:
        missing = [
            c
            for c in itertools.combinations(members, r)
            if not hypergraph.has_edge(c)
        ]
        edge = missing[int(rng.integers(len(missing)))]
    new_edges = np.concatenate(
        [hypergraph.edge_array, np.array([edge], dtype=np.int64)], axis=0
    )
    return Hypergraph(r, hypergraph.n, new_edges)


def join_construction(graph: Hypergraph, q: int, part_size: int) -> Hypergraph:
    """The original graph joined completely to ``q`` new independent sets.

    Every vertex pair from two distinct parts (counting the original vertex
    set as part 0) becomes an edge, so a clique on ``k`` vertices exists in
    the input exactly when a clique on ``k + q`` vertices exists in the
    output.
    """
    if graph.r != 2:
        raise InvalidInput("join construction is defined for graphs")
    if q < 1:
        raise InvalidInput("need at least one added part")
    if part_size < 1:
        raise InvalidInput("added parts must be nonempty")
    # the added edges blow up K_{q+1} over the graph's vertex set and the q
    # new parts, or K_q when the graph has no vertex
    _check_edge_array(graph.n * q * part_size + math.comb(q, 2) * part_size**2, 2)
    sizes = (graph.n, *[part_size] * q) if graph.n else (part_size,) * q
    n, added = _blowup_edges(Pattern.complete_graph(len(sizes)), sizes)
    return Hypergraph(2, n, np.concatenate([graph.edge_array, added.T]))


# -- fixture catalog -----------------------------------------------------------


def _complete_graph(n: int) -> Hypergraph:
    if n < 1:
        raise InvalidInput("need at least one vertex")
    _check_edge_array(math.comb(n, 2), 2)
    return Hypergraph(2, n, itertools.combinations(range(n), 2))


def _cycle(k: int) -> Hypergraph:
    if k < 3:
        raise InvalidInput("cycles need at least 3 vertices")
    return Hypergraph(2, k, [(i, (i + 1) % k) for i in range(k)])


# The entries below whose tuples grow with r refuse, by ``_check_size``, the
# vertex count and uniformity ``Hypergraph`` would refuse before they build
# any tuple, so a refusal costs no memory that grows with r.


def _generalized_triangle(r: int) -> Hypergraph:
    if r < 2:
        raise InvalidInput("uniformity must be at least 2")
    _check_size(r, 2 * r - 1)
    stem = tuple(range(r - 1))
    edges = [stem + (r - 1,), stem + (r,), tuple(range(r - 1, 2 * r - 1))]
    return Hypergraph(r, 2 * r - 1, edges)


def _matching(k: int, r: int) -> Hypergraph:
    if k < 1 or r < 2:
        raise InvalidInput("need k >= 1 edges of uniformity >= 2")
    _check_edge_array(k, r)
    _check_size(r, k * r)
    edges = [tuple(range(i * r, (i + 1) * r)) for i in range(k)]
    return Hypergraph(r, k * r, edges)


def _sunflower(k: int, r: int) -> Hypergraph:
    if k < 1 or r < 2:
        raise InvalidInput("need k >= 1 edges of uniformity >= 2")
    _check_edge_array(k, r)
    _check_size(r, 1 + k * (r - 1))
    edges = [
        (0,) + tuple(range(1 + i * (r - 1), 1 + (i + 1) * (r - 1))) for i in range(k)
    ]
    return Hypergraph(r, 1 + k * (r - 1), edges)


def _fano() -> Hypergraph:
    one_based = [(1, 2, 3), (3, 4, 5), (5, 6, 1), (1, 7, 4), (2, 7, 5), (3, 7, 6), (2, 4, 6)]
    return Hypergraph(3, 7, [tuple(v - 1 for v in e) for e in one_based])


def _f_3_2() -> Hypergraph:
    one_based = [(1, 2, 3), (1, 2, 4), (1, 2, 5), (3, 4, 5)]
    return Hypergraph(3, 5, [tuple(v - 1 for v in e) for e in one_based])


def _f_7() -> Hypergraph:
    # 4-uniform book with 3 pages: spine {0,1,2}, page tips 3,4,5, and the
    # cover edge {3,4,5,6} through a seventh vertex.
    edges = [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5), (3, 4, 5, 6)]
    return Hypergraph(4, 7, edges)


def _f_4_3() -> Hypergraph:
    # 4-uniform book with 4 pages: spine {0,1,2}, page tips 3,4,5,6, and the
    # cover edge on the tips.
    edges = [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5), (0, 1, 2, 6), (3, 4, 5, 6)]
    return Hypergraph(4, 7, edges)


def _k4_k3_disjoint() -> Hypergraph:
    edges = [e for e in itertools.combinations(range(4), 3)] + [(4, 5, 6)]
    return Hypergraph(3, 7, edges)


def _complete_blowup(n: int, t: int) -> Hypergraph:
    if t < 1:
        raise InvalidInput("blow-up factor must be positive")
    if n > 1:  # math.comb refuses a negative n, which complete_graph reports
        _check_edge_array(math.comb(n, 2) * t * t, 2)
    return pattern_blowup(Pattern.complete_graph(n), [t] * n)


def _expansion(graph: Hypergraph, r: int) -> Hypergraph:
    """Expand a graph to uniformity r by adding r-2 fresh vertices to each
    edge, the fresh sets pairwise disjoint, allocated in edge order."""
    if graph.r != 2:
        raise InvalidInput("expansion starts from a graph")
    if r < 2:
        raise InvalidInput("uniformity must be at least 2")
    _check_size(r, graph.n + len(graph) * (r - 2))
    fresh = graph.n
    edges = []
    for u, v in graph:
        extra = tuple(range(fresh, fresh + r - 2))
        fresh += r - 2
        edges.append((u, v) + extra)
    return Hypergraph(r, fresh, edges)


_CATALOG = {
    "complete": _complete_graph,
    "complete_blowup": _complete_blowup,
    "cycle": _cycle,
    "generalized_triangle": _generalized_triangle,
    "matching": _matching,
    "sunflower": _sunflower,
    "fano": _fano,
    "f_3_2": _f_3_2,
    "f_7": _f_7,
    "f_4_3": _f_4_3,
    "k4_k3_disjoint": _k4_k3_disjoint,
    "expansion": _expansion,
}

CATALOG_NAMES = tuple(sorted(_CATALOG))


def catalog(name: str, **params) -> Hypergraph:
    """Construct a named fixture hypergraph.

    Known names: complete(n), complete_blowup(n, t), cycle(k),
    generalized_triangle(r), matching(k, r), sunflower(k, r), fano,
    f_3_2, f_7, f_4_3, k4_k3_disjoint, expansion(graph, r).
    """
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise InvalidInput(
            f"unknown catalog name {name!r}; choose from {', '.join(CATALOG_NAMES)}"
        ) from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise InvalidInput(f"bad parameters for {name!r}: {exc}") from None
