"""Coloring targets: edge collections with multiplicities, and simplex points.

A pattern generalizes an r-uniform hypergraph by allowing an edge to use a
vertex more than once.  Each edge is stored as a multiset of r vertices, the
tuple of its vertices in increasing order, as :class:`Hypergraph` stores its
edges.  The weight polynomial of a pattern sums, over its edges, the
monomials ``prod_i x_i**m(i) / m(i)!``, where m(i) is the multiplicity of
vertex i in the edge.  One pass over the edges builds the links, which give
the gradient, the degrees and the twin classes; rigidity slides mass along
the least twin pair only.  The degrees, twin classes and completion rows let
a pattern be either side of the embedding search, which matches the
deciders' clusters to their pattern.  The dense multiplicity matrix is built
only on demand, for the batched evaluator of the optimization layer.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidInput, _comparable, _integer, _is_integer
from .hypergraph import Hypergraph, _first_by_key, _integer_edge

__all__ = [
    "Pattern",
    "SimplexPoint",
    "lagrange_eval",
    "lagrange_grad",
    "has_twins",
]

_SUM_TOL = 1e-12


def _finite(coords: Iterable[float]) -> list[float]:
    """``coords`` as floats, refusing a NaN or infinite one."""
    vals = [float(x) for x in coords]
    for x in vals:
        if not math.isfinite(x):
            raise InvalidInput(f"coordinate {x!r} is not finite")
    return vals


class SimplexPoint:
    """A nonnegative vector of finite coordinates summing to 1 within
    ``1e-12``."""

    __slots__ = ("_coords",)

    def __init__(self, coords: Iterable[float]):
        vals = _finite(coords)
        if not vals:
            raise InvalidInput("a simplex point needs at least one coordinate")
        if min(vals) < -_SUM_TOL:
            raise InvalidInput(f"negative coordinate {min(vals)!r}")
        vals = [0.0 if x < 0.0 else x for x in vals]
        total = math.fsum(vals)
        if abs(total - 1.0) > _SUM_TOL:
            raise InvalidInput(f"coordinates sum to {total!r}, expected 1")
        self._coords = tuple(vals)

    @classmethod
    def normalized(cls, coords: Iterable[float]) -> "SimplexPoint":
        """Clip tiny negatives and rescale so the sum is exactly 1."""
        vals = [max(0.0, x) for x in _finite(coords)]
        total = math.fsum(vals)
        if total <= 0.0:
            raise InvalidInput("cannot normalize a nonpositive vector")
        return cls([x / total for x in vals])

    @classmethod
    def uniform(cls, dim: int) -> "SimplexPoint":
        if _comparable(dim, "dimension") < 1:
            raise InvalidInput("dimension must be positive")
        dim = _integer(dim, "dimension")
        return cls([1.0 / dim] * dim)

    @property
    def coords(self) -> tuple[float, ...]:
        return self._coords

    def as_array(self) -> np.ndarray:
        return np.array(self._coords, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._coords)

    def __getitem__(self, i: int) -> float:
        return self._coords[i]

    def __iter__(self) -> Iterator[float]:
        return iter(self._coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplexPoint):
            return NotImplemented
        return self._coords == other._coords

    def __hash__(self) -> int:
        return hash(self._coords)

    def __repr__(self) -> str:
        return f"SimplexPoint({self._coords!r})"


class Pattern:
    """An immutable coloring target on vertices ``0..num_vertices-1``.

    Each edge is a multiset of ``r`` vertices, stored as the tuple of its
    vertices in increasing order, so ``(0, 0, 1)`` uses vertex 0 twice and
    vertex 1 once; ``edges`` is the sorted tuple of these tuples.  A pattern
    with no repeated vertex in an edge round-trips to a :class:`Hypergraph`.
    """

    __slots__ = ("r", "num_vertices", "edges", "_links")

    def __init__(
        self,
        r: int,
        num_vertices: int,
        edges: Iterable[Iterable[int]],
    ):
        self.r = _integer(r, "uniformity", 1)
        self.num_vertices = _integer(num_vertices, "vertex count", 1)
        canon = set()
        for e in edges:
            ms = tuple(sorted(map(int, _integer_edge(e, self.r))))
            if ms[0] < 0 or ms[-1] >= self.num_vertices:
                bad = ms[0] if ms[0] < 0 else ms[-1]
                raise InvalidInput(f"vertex {bad} outside [0, {self.num_vertices})")
            if ms in canon:
                raise InvalidInput(f"duplicate edge {ms!r}")
            canon.add(ms)
        self.edges = tuple(sorted(canon))
        self._links = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_multisets(
        cls, r: int, num_vertices: int, multisets: Iterable[Iterable[int]]
    ) -> "Pattern":
        """The constructor under the name of its edge format."""
        return cls(r, num_vertices, multisets)

    @classmethod
    def from_hypergraph(cls, hypergraph: Hypergraph) -> "Pattern":
        return cls(hypergraph.r, hypergraph.n, iter(hypergraph))

    @classmethod
    def complete_graph(cls, num_vertices: int) -> "Pattern":
        if _comparable(num_vertices, "vertex count") < 1:
            raise InvalidInput("a complete graph pattern needs at least 1 vertex")
        num_vertices = _integer(num_vertices, "vertex count")
        return cls(2, num_vertices, itertools.combinations(range(num_vertices), 2))

    @classmethod
    def cycle(cls, length: int) -> "Pattern":
        if _comparable(length, "cycle length") < 3:
            raise InvalidInput("a cycle pattern needs at least 3 vertices")
        length = _integer(length, "cycle length")
        return cls(2, length, [(i, (i + 1) % length) for i in range(length)])

    @classmethod
    def path(cls, num_vertices: int) -> "Pattern":
        if _comparable(num_vertices, "vertex count") < 2:
            raise InvalidInput("a path pattern needs at least 2 vertices")
        num_vertices = _integer(num_vertices, "vertex count")
        return cls(2, num_vertices, [(i, i + 1) for i in range(num_vertices - 1)])

    @classmethod
    def single_edge(cls, r: int) -> "Pattern":
        """The pattern on r vertices whose only edge uses each vertex once."""
        r = _integer(r, "uniformity", 1)
        return cls(r, r, [tuple(range(r))])

    # -- structure -----------------------------------------------------------

    def _has_repeats(self) -> bool:
        return any(a == b for e in self.edges for a, b in zip(e, e[1:]))

    def to_hypergraph(self) -> Hypergraph:
        """Round-trip to a hypergraph; requires all multiplicities <= 1."""
        if self._has_repeats():
            raise InvalidInput(
                "pattern has a repeated vertex in an edge; no hypergraph form"
            )
        return Hypergraph(self.r, self.num_vertices, self.edges)

    def vertex_deleted(self, i: int) -> "Pattern":
        """Remove vertex ``i`` and every edge using it; reindex the rest."""
        if not _is_integer(i) or i < 0 or i >= self.num_vertices:
            raise InvalidInput(f"vertex {i} outside [0, {self.num_vertices})")
        if self.num_vertices == 1:
            raise InvalidInput("cannot delete the only vertex")
        kept = [[v - (v > i) for v in e] for e in self.edges if i not in e]
        return Pattern(self.r, self.num_vertices - 1, kept)

    def max_multiplicities(self) -> tuple[int, ...]:
        """Per-vertex maximum multiplicity over all edges (0 if isolated)."""
        out = [0] * self.num_vertices
        for e in self.edges:
            for v in dict.fromkeys(e):
                out[v] = max(out[v], e.count(v))
        return tuple(out)

    def is_complete(self) -> bool:
        """The complete r-graph K_l^(r) on l >= r vertices: every edge uses
        distinct vertices, and all C(l, r) such edges are present."""
        l = self.num_vertices
        return (
            l >= self.r
            and len(self.edges) == math.comb(l, self.r)
            and not self._has_repeats()
        )

    def links(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """For every vertex, the sorted edges through it, each with one copy
        of the vertex removed, from one pass over the sorted edges (removing
        one copy of a vertex keeps the order of the edges that hold it).
        Built on the first call and kept: the pattern is immutable."""
        if self._links is None:
            out: list[list[tuple[int, ...]]] = [[] for _ in range(self.num_vertices)]
            for e in self.edges:
                for v in dict.fromkeys(e):
                    k = e.index(v)
                    out[v].append(e[:k] + e[k + 1 :])
            self._links = tuple(map(tuple, out))
        return self._links

    def twin_classes(self) -> tuple[int, ...]:
        """For every vertex, the least vertex with the same link (itself when
        no lower vertex has it), as :meth:`Hypergraph.twin_classes`."""
        return tuple(_first_by_key(self.links()))

    def degrees(self) -> np.ndarray:
        """The number of edges through each vertex (:meth:`Hypergraph.degrees`)."""
        return np.array([len(link) for link in self.links()], dtype=np.int64)

    def completions(self, face: Sequence[int]) -> np.ndarray:
        """:meth:`Hypergraph.completions` for a face of any length below r:
        the packed ``ceil(num_vertices/8)`` uint8 row of the vertices c outside
        ``face`` for which ``face`` plus r - len(face) copies of c is an edge.

        Such an edge holds the face's first vertex v, and removing one copy
        of v leaves the rest of the face plus the copies of c; so a nonempty
        face reads only the link of v.  The empty face scans every edge."""
        face = tuple(face)
        if len(face) >= self.r:
            raise InvalidInput(f"face {face!r} does not have fewer than {self.r} vertices")
        fill = self.r - len(face)
        bits = np.zeros(self.num_vertices, dtype=bool)
        if not face:
            candidates, rest = self.edges, ()
        elif 0 <= face[0] < self.num_vertices:
            candidates, rest = self.links()[face[0]], face[1:]
        else:
            candidates = rest = ()  # no edge holds a vertex outside the pattern
        for e in candidates:
            for c in set(e).difference(face):
                bits[c] |= e == tuple(sorted(rest + (c,) * fill))
        return np.packbits(bits)

    def multiplicity_matrix(self) -> np.ndarray:
        """The ``(m, num_vertices)`` matrix of edge multiplicities, built on
        each call, one row per edge in reverse edge order.

        For two multisets of one size, the larger sorted tuple has the
        lexicographically smaller multiplicity vector, so the rows ascend as
        vectors.  Polynomial evaluators sum their terms in row order, and
        this order keeps their floats what they were when edges were stored
        as those vectors.
        """
        M = np.zeros((len(self.edges), self.num_vertices), dtype=np.int64)
        cols = np.array(self.edges[::-1], dtype=np.intp).reshape(-1, self.r)
        np.add.at(M, (np.arange(len(self.edges)).repeat(self.r), cols.ravel()), 1)
        return M

    def monomial_coeffs(self) -> np.ndarray:
        """``1 / prod_i m(i)!`` per row of :meth:`multiplicity_matrix`."""
        return np.array(
            [
                1.0 / math.prod(map(math.factorial, map(e.count, dict.fromkeys(e))))
                for e in reversed(self.edges)
            ],
            dtype=np.float64,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return (
            self.r == other.r
            and self.num_vertices == other.num_vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.r, self.num_vertices, self.edges))

    def __repr__(self) -> str:
        return (
            f"Pattern(r={self.r}, num_vertices={self.num_vertices}, "
            f"edges={len(self.edges)})"
        )


def _check_dim(pattern: Pattern, x: SimplexPoint | Sequence[float]) -> tuple[float, ...]:
    coords = tuple(float(c) for c in x)
    if len(coords) != pattern.num_vertices:
        raise InvalidInput(
            f"point has dimension {len(coords)}, pattern has "
            f"{pattern.num_vertices} vertices"
        )
    return coords


def _monomial(coords: tuple[float, ...], e: tuple[int, ...]) -> float:
    """``prod_i x_i**m(i) / m(i)!`` over the vertices i of the multiset
    ``e`` with their multiplicities m(i), the factors in vertex order."""
    mono = 1.0
    denom = 1
    for v in dict.fromkeys(e):
        m = e.count(v)
        mono *= coords[v] ** m
        denom *= math.factorial(m)
    return mono / denom


def lagrange_eval(pattern: Pattern, x: SimplexPoint | Sequence[float]) -> float:
    """Weight polynomial of the pattern at ``x``.

    Each edge contributes ``prod_i x_i**m(i) / m(i)!`` with exact integer
    factorials; the terms are combined with compensated summation.
    """
    coords = _check_dim(pattern, x)
    return math.fsum(_monomial(coords, e) for e in pattern.edges)


def lagrange_grad(pattern: Pattern, x: SimplexPoint | Sequence[float]) -> tuple[float, ...]:
    """Analytic gradient of the weight polynomial at ``x``.

    The partial for vertex ``i`` is the weight polynomial of the link of
    ``i`` (:meth:`Pattern.links`): each edge through ``i`` contributes the
    monomial of the edge with one copy of ``i`` removed.
    """
    coords = _check_dim(pattern, x)
    return tuple(
        math.fsum(_monomial(coords, e) for e in link) for link in pattern.links()
    )


def has_twins(pattern: Pattern) -> bool:
    """True when two vertices have identical links, which is the same as
    their partials being identical as formal polynomials."""
    return any(root != v for v, root in enumerate(pattern.twin_classes()))
