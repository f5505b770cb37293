"""Ground-truth reference implementations.

Exhaustive subgraph embedding and (surjective) homomorphism searches, exact
balanced-multipartite edge counts, and grid searches over the simplex.  Every
decider in the library is tested against these on instances small enough to
enumerate.  Search orders are fixed so failures reproduce exactly; searches
carry a wall-clock budget and abort with :class:`OracleTimeout` rather than
hang.

The embedding search is one iterative loop for every uniformity: the host
candidates at each depth are a packed bit row, the unused vertices of large
enough degree ANDed with the completion rows of the small edges that close
there, each row made once per search and face.
"""

from __future__ import annotations

import math
import operator
import time
from typing import Optional

import numpy as np

from .errors import InvalidInput, OracleTimeout
from .hypergraph import Hypergraph
from .lagrangian import _Calc
from .patterns import Pattern

__all__ = [
    "find_embedding",
    "find_homomorphism",
    "turan_number",
    "lagrangian_grid",
    "phi_grid",
    "DEFAULT_BUDGET_S",
    "GRID_POINT_LIMIT",
]

DEFAULT_BUDGET_S = 60.0
GRID_POINT_LIMIT = 10_000_000


class _Deadline:
    __slots__ = ("t_end", "ticks")

    def __init__(self, budget_s: float):
        self.t_end = time.monotonic() + budget_s
        self.ticks = 0

    def check(self) -> None:
        self.ticks += 1
        if self.ticks % 1024 == 0 and time.monotonic() > self.t_end:
            raise OracleTimeout("exhaustive search exceeded its time budget")


def turan_number(n: int, parts: int) -> int:
    """Edge count of the balanced complete multipartite graph on ``n``
    vertices with ``parts`` classes; equals ``floor((parts-1) n^2 / (2 parts))``."""
    if n < 0 or parts < 1:
        raise InvalidInput("need n >= 0 and parts >= 1")
    q, s = divmod(n, parts)
    inside = s * (q + 1) * q // 2 + (parts - s) * q * (q - 1) // 2
    return n * (n - 1) // 2 - inside


# -- embedding search ----------------------------------------------------------


def _embed(
    small: Hypergraph, host: Hypergraph, deadline: _Deadline
) -> Optional[dict[int, int]]:
    n = host.n
    order = sorted(range(small.n), key=lambda v: (-small.degree(v), v))
    pos = {v: i for i, v in enumerate(order)}
    # each small edge closes at the depth of its last vertex; the images of
    # its other positions (its face) pick the host row that filters there
    closing: list[list[operator.itemgetter]] = [[] for _ in order]
    for e in small:
        *face, last = sorted(pos[v] for v in e)
        closing[last].append(operator.itemgetter(*face))
    deg_mask = [np.packbits(host.degrees() >= small.degree(v)) for v in order]
    # completion rows by face; a graph's faces are single vertices, whose
    # one-item itemgetter keys are ints
    rows = dict(enumerate(host.packed_adjacency)) if host.r == 2 else {}

    images = [-1] * small.n
    used = np.zeros((n + 7) // 8, dtype=np.uint8)
    iters: list = [None] * small.n

    depth = 0
    while True:
        if iters[depth] is None:
            cand = deg_mask[depth] & ~used
            for face in closing[depth]:
                key = face(images)
                row = rows.get(key)
                if row is None:
                    row = rows[key] = host.completions(key)
                cand &= row
            iters[depth] = iter(np.flatnonzero(np.unpackbits(cand, count=n)).tolist())
        deadline.check()
        w = next(iters[depth], None)
        if w is None:
            iters[depth] = None
            if depth == 0:
                return None
            depth -= 1
            prev = images[depth]
            used[prev >> 3] &= ~(128 >> (prev & 7)) & 0xFF
            images[depth] = -1
            continue
        images[depth] = w
        if depth == small.n - 1:
            return {order[i]: images[i] for i in range(small.n)}
        used[w >> 3] |= 128 >> (w & 7)
        depth += 1


def find_embedding(
    small: Hypergraph,
    host: Hypergraph,
    budget_s: float = DEFAULT_BUDGET_S,
) -> Optional[dict[int, int]]:
    """Injective vertex map sending every edge of ``small`` to an edge of
    ``host``, or ``None``.

    One search serves every uniformity.  Vertices of ``small`` are mapped in
    descending-degree order; at each depth the candidates are the unused
    host vertices of large enough degree, ANDed with the completion row
    (:meth:`Hypergraph.completions`) of each small edge that closes there,
    and are tried in ascending index.  So the returned embedding is the
    first one in that fixed search order.  An empty ``small`` embeds as
    ``{}``.
    """
    if small.r != host.r:
        raise InvalidInput(f"uniformity mismatch: {small.r} vs {host.r}")
    if small.n == 0:
        return {}
    if small.n > host.n or len(small) > len(host):
        return None
    return _embed(small, host, _Deadline(budget_s))


# -- homomorphism search -------------------------------------------------------


def _hom_complete(
    host: Hypergraph,
    colors: int,
    surjective: bool,
    deadline: _Deadline,
) -> Optional[list[int]]:
    """Proper coloring search for complete targets.

    Any bijection of a complete pattern's vertices is an automorphism, so
    colors may canonically be introduced in first-use order; vertices are
    picked most-constrained-first (fewest available colors, then lowest
    index) with forward checking.  This keeps dense instances tractable
    while remaining a deterministic exhaustive search.
    """
    n = host.n
    if n == 0:
        return None if surjective and colors > 0 else []
    neigh = [[] for _ in range(n)]
    for u, v in host.edge_array:
        neigh[int(u)].append(int(v))
        neigh[int(v)].append(int(u))
    full = (1 << colors) - 1
    avail = [full] * n
    color = [-1] * n
    uncolored = set(range(n))
    trail: list[list[int]] = []

    def choose() -> int:
        return min(uncolored, key=lambda v: (bin(avail[v]).count("1"), v))

    def assign(v: int, c: int) -> bool:
        color[v] = c
        uncolored.discard(v)
        touched = []
        ok = True
        bit = 1 << c
        for u in neigh[v]:
            if color[u] == -1 and avail[u] & bit:
                avail[u] ^= bit
                touched.append(u)
                if avail[u] == 0:
                    ok = False
                    break
        trail.append(touched)
        return ok

    def undo(v: int) -> None:
        bit = 1 << color[v]
        for u in trail.pop():
            avail[u] |= bit
        color[v] = -1
        uncolored.add(v)

    def rec(used: int) -> bool:
        if not uncolored:
            return not surjective or used == colors
        if surjective and len(uncolored) < colors - used:
            return False
        v = choose()
        cap = min(used + 1, colors)  # canonical color introduction
        mask = avail[v]
        for c in range(cap):
            deadline.check()
            if not (mask >> c) & 1:
                continue
            if assign(v, c):
                if rec(max(used, c + 1)):
                    return True
            undo(v)
        return False

    if rec(0):
        return color
    return None


def _hom_general(
    host: Hypergraph,
    pattern: Pattern,
    surjective: bool,
    deadline: _Deadline,
) -> Optional[list[int]]:
    n, colors = host.n, pattern.num_vertices
    if n == 0:
        return None if surjective and colors > 0 else []
    allowed = [np.array(e, dtype=np.int64) for e in pattern.edges]
    edges = host.edge_list()
    touching: list[list[int]] = [[] for _ in range(n)]
    for idx, e in enumerate(edges):
        for v in e:
            touching[v].append(idx)
    counts = [np.zeros(colors, dtype=np.int64) for _ in edges]
    filled = [0] * len(edges)
    color = [-1] * n
    used_count = [0] * colors

    def edge_ok(idx: int) -> bool:
        c = counts[idx]
        if filled[idx] == host.r:
            return any(np.array_equal(c, a) for a in allowed)
        return any(np.all(c <= a) for a in allowed)

    def rec(v: int, used: int) -> bool:
        if v == n:
            return not surjective or used == colors
        if surjective and n - v < colors - used:
            return False
        for c in range(colors):
            deadline.check()
            color[v] = c
            ok = True
            for idx in touching[v]:
                counts[idx][c] += 1
                filled[idx] += 1
            for idx in touching[v]:
                if not edge_ok(idx):
                    ok = False
                    break
            if ok:
                used_count[c] += 1
                nxt = used + 1 if used_count[c] == 1 else used
                if rec(v + 1, nxt):
                    return True
                used_count[c] -= 1
            for idx in touching[v]:
                counts[idx][c] -= 1
                filled[idx] -= 1
            color[v] = -1
        return False

    if rec(0, 0):
        return color
    return None


def find_homomorphism(
    host: Hypergraph,
    pattern: Pattern,
    surjective: bool = False,
    budget_s: float = DEFAULT_BUDGET_S,
) -> Optional[list[int]]:
    """Vertex-to-pattern-vertex map sending every host edge onto a pattern
    edge (as a multiset), or ``None``; with ``surjective`` every pattern
    vertex must be hit.

    Host vertices are assigned in ascending index for general patterns; for
    complete graph targets a deterministic most-constrained-first order with
    canonical color introduction is used instead, which is equivalent up to
    the target's automorphisms and exponentially faster on dense hosts.
    Returns the color list indexed by host vertex.
    """
    if host.r != pattern.r:
        raise InvalidInput(f"uniformity mismatch: {host.r} vs {pattern.r}")
    deadline = _Deadline(budget_s)
    if pattern.r == 2 and pattern.is_complete():
        return _hom_complete(host, pattern.num_vertices, surjective, deadline)
    return _hom_general(host, pattern, surjective, deadline)


# -- grid search over the simplex ---------------------------------------------


def _grid_chunks(resolution: int, dim: int, chunk: int = 200_000):
    """Yield (B, dim) arrays of grid weights with denominator ``resolution``,
    in lexicographic order of the compositions.

    Each rank is unranked part by part: with q the number of compositions
    from it to the last one sharing its leading parts, part j is rest - u
    for the least u with ways[j][1 + u] >= q, the count of compositions of
    u into the dim - j parts from j on (ways[j][0] = 0).
    """
    total = math.comb(resolution + dim - 1, dim - 1)
    ways = [
        np.array([0] + [math.comb(u + dim - j - 1, u) for u in range(resolution + 1)])
        for j in range(dim - 1)
    ]
    for start in range(0, total, chunk):
        q = total - np.arange(start, min(start + chunk, total), dtype=np.int64)
        counts = np.empty((len(q), dim), dtype=np.int64)
        rest = resolution
        for j in range(dim - 1):
            u = np.searchsorted(ways[j], q) - 1
            counts[:, j] = rest - u
            q -= ways[j][u]
            rest = u
        counts[:, dim - 1] = rest
        yield counts / resolution


def _grid_guard(resolution: int, dim: int) -> None:
    if resolution < 1:
        raise InvalidInput("grid resolution must be at least 1")
    points = math.comb(resolution + dim - 1, dim - 1)
    if points > GRID_POINT_LIMIT:
        raise InvalidInput(
            f"grid would have {points} points, above the {GRID_POINT_LIMIT} cap"
        )


def lagrangian_grid(pattern: Pattern, resolution: int) -> float:
    """Maximum of the pattern's weight polynomial over all simplex points
    with coordinates that are multiples of ``1/resolution``.

    Always a lower bound on the true maximum, converging as the resolution
    grows.
    """
    _grid_guard(resolution, pattern.num_vertices)
    calc = _Calc(pattern)
    best = -math.inf
    for X in _grid_chunks(resolution, pattern.num_vertices):
        vals = calc.value(X)
        m = float(vals.max())
        if m > best:
            best = m
    return best


def phi_grid(pattern: Pattern, resolution: int) -> float:
    """Grid-search lower bound on the maximin of the weight polynomial's
    partial derivatives."""
    _grid_guard(resolution, pattern.num_vertices)
    calc = _Calc(pattern)
    best = -math.inf
    for X in _grid_chunks(resolution, pattern.num_vertices):
        vals = calc.grad(X).min(axis=1)
        m = float(vals.max())
        if m > best:
            best = m
    return best
