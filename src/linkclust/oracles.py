"""Ground-truth reference implementations.

Exhaustive subgraph embedding and (surjective) homomorphism searches, exact
balanced-multipartite edge counts, and grid searches over the simplex.  Every
decider in the library is tested against these on instances small enough to
enumerate.  Search orders are fixed so failures reproduce exactly; searches
carry a wall-clock budget and abort with :class:`OracleTimeout` rather than
hang.

The embedding search is one iterative loop for every uniformity, and either
side may be a hypergraph or a pattern whose edges repeat a vertex; the
pattern deciders match their clusters to the pattern with it.  Each next
small vertex has the most neighbours already mapped, so a path or cycle is
mapped along its edges.  The host candidates at each depth are a packed bit
row, the unused vertices of large enough degree ANDed with the completion
rows of the small edges that close there, each row made once per search and
face.  Two symmetry rules prune it without changing its answer.  A host
twin (a vertex with the same link as a lower one, in a pattern too) is a
candidate only once the next-lower member of its class is in use, and
within each transposition class of the small side the images increase in
search order.  The search returns the lexicographically first embedding,
which obeys both rules: swapping twins in an embedding that breaks one
gives a smaller embedding.

The homomorphism search is likewise one iterative loop for every pattern:
bitmask color domains cut by forward checking through one table of the
colors that extend each part of a pattern edge, the most constrained vertex
first, and symmetry broken within the pattern's transposition classes.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Callable, Iterable, Optional

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
        # NaN compares false with every time, so it would never run out
        if not budget_s < math.inf:
            raise InvalidInput(f"oracle budget {budget_s!r} never runs out")
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


def _twin_before(multisets: Iterable[tuple[int, ...]], k: int) -> list[int]:
    """For each element j < k, the largest i < j whose transposition with j
    maps the set ``multisets`` of sorted tuples over ``range(k)`` onto
    itself, or -1.

    Two such transpositions sharing an element conjugate to a third, so
    they split the elements into classes, and this is the next-lower member
    of each element's class.  The transposition fixes every tuple that holds
    neither i nor j.  When as many tuples hold i as hold j, it maps those
    through i onto those through j exactly when each image lies in the set,
    and then it maps those through j back onto those through i; so only the
    tuples through i are checked.
    """
    edges = set(multisets)
    through: list[list[tuple[int, ...]]] = [[] for _ in range(k)]
    for e in edges:
        for v in set(e):
            through[v].append(e)
    before = [-1] * k
    for j in range(k):
        for i in range(j - 1, -1, -1):
            if len(through[i]) != len(through[j]):
                continue
            swap = {i: j, j: i}
            if all(tuple(sorted(swap.get(v, v) for v in e)) in edges for e in through[i]):
                before[j] = i
                break
    return before


def _embed(
    small: Pattern, host: Hypergraph | Pattern, deadline: _Deadline
) -> Optional[dict[int, int]]:
    small_deg, host_deg = small.degrees(), np.asarray(host.degrees())
    n, k = len(host_deg), small.num_vertices
    # connected order (see find_embedding); a vertex's newest key is its
    # least, so it pops first and the stale ones after it are skipped
    nbrs = [set(itertools.chain.from_iterable(link)) for link in small.links()]
    placed = [0] * k
    heap = sorted((0, -small_deg[v], v) for v in range(k))
    pos: dict[int, int] = {}
    while heap:
        v = heapq.heappop(heap)[2]
        if v not in pos:
            pos[v] = len(pos)
            for u in nbrs[v] - pos.keys():
                placed[u] += 1
                heapq.heappush(heap, (-placed[u], -small_deg[u], u))
    order = list(pos)
    # each small edge closes at the depth of its last vertex; the images of
    # its other vertices (its face) pick the host row that filters there
    closing: list[list[tuple[int, ...]]] = [[] for _ in order]
    edge_depths = []
    for e in small.edges:
        depths = tuple(sorted(pos[v] for v in e))
        closing[depths[-1]].append(depths[: depths.index(depths[-1])])
        edge_depths.append(depths)
    # twins in small: a depth's image lies above that of the next-lower depth
    # of its transposition class
    above = _twin_before(edge_depths, k)
    deg_mask = [np.packbits(host_deg >= small_deg[v]) for v in order]
    rows: dict[tuple[int, ...], np.ndarray] = {}  # completion rows by face
    # host twins: a twin is closed off until the next-lower member of its
    # class is in use; ``off`` holds the used vertices and the closed twins
    roots = np.asarray(host.twin_classes())
    by_class = np.argsort(roots, kind="stable")
    lower, upper = by_class[:-1], by_class[1:]
    twin = roots[lower] == roots[upper]
    nxt = np.full(n, -1)
    nxt[lower[twin]] = upper[twin]
    nxt = nxt.tolist()
    off = np.packbits(roots != np.arange(n))

    images = [-1] * k
    iters: list = [None] * k

    depth = 0
    while True:
        if iters[depth] is None:
            cand = deg_mask[depth] & ~off
            for face in closing[depth]:
                key = tuple([images[d] for d in face])
                row = rows.get(key)
                if row is None:
                    row = rows[key] = host.completions(key)
                cand &= row
            if above[depth] >= 0:
                lo = images[above[depth]] + 1
                cand[: lo >> 3] = 0
                if lo & 7:
                    cand[lo >> 3] &= 0xFF >> (lo & 7)
            iters[depth] = iter(np.flatnonzero(np.unpackbits(cand, count=n)).tolist())
        deadline.check()
        w = next(iters[depth], None)
        if w is None:
            iters[depth] = None
            if depth == 0:
                return None
            depth -= 1
            prev = images[depth]
            off[prev >> 3] &= ~(128 >> (prev & 7)) & 0xFF
            if (t := nxt[prev]) >= 0:
                off[t >> 3] |= 128 >> (t & 7)
            images[depth] = -1
            continue
        images[depth] = w
        if depth == k - 1:
            return {order[i]: images[i] for i in range(k)}
        off[w >> 3] |= 128 >> (w & 7)
        if (t := nxt[w]) >= 0:
            off[t >> 3] &= ~(128 >> (t & 7)) & 0xFF
        depth += 1


def find_embedding(
    small: Hypergraph | Pattern,
    host: Hypergraph | Pattern,
    budget_s: float = DEFAULT_BUDGET_S,
) -> Optional[dict[int, int]]:
    """Injective vertex map sending every edge of ``small`` to an edge of
    ``host``, or ``None``.

    Either side may be a :class:`Pattern`, whose edges may repeat a vertex
    and map to the multisets of their images; the pattern deciders match
    their clusters to the pattern this way.  One search serves every
    uniformity.  Vertices of ``small`` are mapped in a connected order, as
    in VF2: next the one with the most neighbours (vertices sharing an edge)
    already mapped, then the highest degree (edges through it), then the
    lowest index.  An edge closes at the depth of its last vertex, and its
    face is the images of its other vertices.  At each depth the candidates
    are the unused host vertices of large enough degree, ANDed with the
    completion row (``host.completions``) of each face closing there, and
    are tried in ascending index.  So the returned embedding is the first
    one in that fixed search order.  An empty ``small`` embeds as ``{}``.

    Two symmetry rules cut the candidates.  Host vertices u and v with equal
    links (``host.twin_classes``) are twins, and swapping them maps the
    edges onto themselves: if u^a v^b R is an edge with a > 0, dropping one
    u leaves u^(a-1) v^b R in link(u) = link(v), so u^(a-1) v^(b+1) R is an
    edge, and so is every u^i v^(a+b-i) R.  A twin is a candidate only once
    the next-lower member of its class is in use.  Two vertices of ``small``
    whose swap maps its edges onto themselves are in one transposition
    class, and their images must increase in search order.  Neither rule
    changes the answer: in an embedding that breaks one, swapping the twins
    concerned gives an embedding earlier in the search order, so the first
    embedding obeys both.
    """
    if small.r != host.r:
        raise InvalidInput(f"uniformity mismatch: {small.r} vs {host.r}")
    deadline = _Deadline(budget_s)
    if isinstance(small, Hypergraph):
        if small.n == 0:
            return {}
        small = Pattern.from_hypergraph(small)
    if small.num_vertices > len(host.degrees()):
        return None
    # a hypergraph has no edge for a repeated vertex, nor more edges than it has
    if isinstance(host, Hypergraph) and (small._has_repeats() or len(small.edges) > len(host)):
        return None
    return _embed(small, host, deadline)


# -- homomorphism search -------------------------------------------------------


def _incidence(host: Hypergraph) -> tuple[list[int], list[list[int]]]:
    """The vertices of the edges, edge by edge, and for every vertex the
    increasing indices of the edges through it, cut from one flat list
    (many small lists cost more in allocation and collection)."""
    # Both flatten the edge array in C (row) order, the defaults of
    # ``ravel`` and ``argsort(axis=None)``.  The array is stored
    # column-major, so an ``order="K"`` shortcut would list the vertices
    # column by column and silently reorder the incidence lists.
    members = host.edge_array.ravel().tolist()
    flat = (np.argsort(host.edge_array, axis=None, kind="stable") // host.r).tolist()
    ends = np.cumsum(host.degrees()).tolist()
    return members, [flat[a:b] for a, b in zip([0] + ends, ends)]


def _hom(
    host: Hypergraph,
    pattern: Pattern,
    surjective: bool,
    deadline: _Deadline,
) -> Optional[list[int]]:
    n, k, r = host.n, pattern.num_vertices, pattern.r
    # a color multiset is coded as the sum of weight[c] over its members,
    # unique since no multiplicity reaches r + 1; ext maps each sub-multiset
    # of a pattern edge to the colors that extend it inside some pattern
    # edge (for a graph: weight[c] -> the neighbors of c)
    weight = [(r + 1) ** c for c in range(k)]
    ext: dict[int, int] = {}
    for e in pattern.edges:
        for taken in itertools.product((False, True), repeat=r):
            code = rest = 0
            for c, t in zip(e, taken):
                if t:
                    code += weight[c]
                else:
                    rest |= 1 << c
            ext[code] = ext.get(code, 0) | rest
    # transposition classes: color j opens once the next-lower member i of
    # its class is in use
    opens = [0] * k
    locked = 0
    for j, i in enumerate(_twin_before(pattern.edges, k)):
        if i >= 0:
            opens[i] = 1 << j
            locked |= 1 << j

    members, incident = _incidence(host)
    dom = [ext.get(0, 0) if incident[v] else (1 << k) - 1 for v in range(n)]
    size = [d.bit_count() for d in dom]
    if 0 in size or (surjective and n < k):
        return None
    if n == 0:
        return []
    colored = k + 1  # the size of a colored vertex, above every domain's
    color = [-1] * n
    state = [0] * len(host)
    used = [0] * k
    trail: list[tuple[int, int]] = []
    left, unused = n, k
    v = size.index(min(size))
    # each frame: the vertex, the colors it has still to try, the trail mark
    stack = [[v, dom[v] & ~locked, 0]]
    while stack:
        frame = stack[-1]
        v, todo, mark = frame
        c = color[v]
        if c >= 0:  # take back the color tried last
            color[v] = -1
            left += 1
            used[c] -= 1
            if not used[c]:
                unused += 1
                locked |= opens[c]
            w = weight[c]
            for idx in incident[v]:
                state[idx] -= w
            while len(trail) > mark:
                u, d = trail.pop()
                dom[u] = d
                size[u] = d.bit_count()
            size[v] = dom[v].bit_count()
        if not todo:
            stack.pop()
            continue
        deadline.check()
        bit = todo & -todo
        frame[1] = todo ^ bit
        c = bit.bit_length() - 1
        color[v] = c
        size[v] = colored
        left -= 1
        used[c] += 1
        if used[c] == 1:
            unused -= 1
            locked &= ~opens[c]
        w = weight[c]
        ok = True
        for idx in incident[v]:
            s = state[idx] = state[idx] + w
            if ok:
                m = ext[s]
                for u in members[idx * r : idx * r + r]:
                    d = dom[u]
                    if d & ~m and color[u] < 0:
                        trail.append((u, d))
                        d &= m
                        dom[u] = d
                        size[u] = d.bit_count()
                        if not d:
                            ok = False
                            break
        if not ok or (surjective and left < unused):
            continue
        if not left:
            return color
        v = size.index(min(size))
        stack.append([v, dom[v] & ~locked, len(trail)])
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

    One iterative search serves every pattern.  Each host vertex keeps a
    bitmask domain of colors (pattern vertices).  Coloring a vertex narrows
    the domain of every uncolored vertex sharing a host edge with it to the
    colors that extend that edge's colored part inside some pattern edge.
    The next vertex is the one with the fewest colors left, lowest index on
    ties, and its colors are tried in ascending order.  Two colors whose
    swap maps the pattern's edges onto themselves are interchangeable, so
    within each such transposition class a color is tried only once the
    next-lower member of its class is in use; for K_l this is canonical
    color introduction.  The returned map is the first found in that order.
    Isolated host vertices may take any color.  Returns the color list
    indexed by host vertex.
    """
    if host.r != pattern.r:
        raise InvalidInput(f"uniformity mismatch: {host.r} vs {pattern.r}")
    return _hom(host, pattern, surjective, _Deadline(budget_s))


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


def _grid_max(
    pattern: Pattern, resolution: int, objective: Callable[[_Calc, np.ndarray], np.ndarray]
) -> float:
    """Maximum of ``objective(calc, X)`` over the simplex points whose
    coordinates are multiples of ``1/resolution``, at most
    ``GRID_POINT_LIMIT`` of them."""
    if resolution < 1:
        raise InvalidInput("grid resolution must be at least 1")
    dim = pattern.num_vertices
    points = math.comb(resolution + dim - 1, dim - 1)
    if points > GRID_POINT_LIMIT:
        raise InvalidInput(f"grid would have {points} points, above the {GRID_POINT_LIMIT} cap")
    calc = _Calc(pattern)
    return max(float(objective(calc, X).max()) for X in _grid_chunks(resolution, dim))


def lagrangian_grid(pattern: Pattern, resolution: int) -> float:
    """Maximum of the pattern's weight polynomial over all simplex points
    with coordinates that are multiples of ``1/resolution``.

    Always a lower bound on the true maximum, converging as the resolution
    grows.
    """
    return _grid_max(pattern, resolution, _Calc.value)


def phi_grid(pattern: Pattern, resolution: int) -> float:
    """Grid-search lower bound on the maximin of the weight polynomial's
    partial derivatives."""
    return _grid_max(pattern, resolution, lambda calc, X: calc.grad(X).min(axis=1))
