"""Coloring targets: edge collections with multiplicities, and simplex points.

A pattern generalizes an r-uniform hypergraph by allowing an edge to use a
vertex more than once.  Each edge is stored as a multiplicity vector over the
pattern's vertices, summing to the uniformity r.  The weight polynomial of a
pattern sums, over its edges, the monomials ``prod_i x_i**e(i) / e(i)!``;
its gradient drives both the optimization layer and the twin test here.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidInput
from .hypergraph import Hypergraph

__all__ = [
    "Pattern",
    "SimplexPoint",
    "lagrange_eval",
    "lagrange_grad",
    "has_twins",
]

_SUM_TOL = 1e-12


class SimplexPoint:
    """A nonnegative vector summing to 1 within ``1e-12``."""

    __slots__ = ("_coords",)

    def __init__(self, coords: Iterable[float]):
        vals = [float(x) for x in coords]
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
        vals = [max(0.0, float(x)) for x in coords]
        total = math.fsum(vals)
        if total <= 0.0:
            raise InvalidInput("cannot normalize a nonpositive vector")
        return cls([x / total for x in vals])

    @classmethod
    def uniform(cls, dim: int) -> "SimplexPoint":
        if dim < 1:
            raise InvalidInput("dimension must be positive")
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

    Edges are multiplicity vectors: length-``num_vertices`` tuples of
    nonnegative integers summing to ``r``.  A pattern whose multiplicities
    are all at most 1 round-trips to a :class:`Hypergraph`.
    """

    __slots__ = ("r", "num_vertices", "edges", "_mult", "_coeffs")

    def __init__(
        self,
        r: int,
        num_vertices: int,
        edges: Iterable[Sequence[int]],
    ):
        if not isinstance(r, (int, np.integer)) or r < 1:
            raise InvalidInput(f"uniformity must be a positive integer, got {r!r}")
        if not isinstance(num_vertices, (int, np.integer)) or num_vertices < 1:
            raise InvalidInput(
                f"vertex count must be a positive integer, got {num_vertices!r}"
            )
        self.r = int(r)
        self.num_vertices = int(num_vertices)
        canon = set()
        for e in edges:
            vec = tuple(int(x) for x in e)
            if len(vec) != self.num_vertices:
                raise InvalidInput(
                    f"multiplicity vector {vec!r} has length {len(vec)}, "
                    f"expected {self.num_vertices}"
                )
            if any(x < 0 for x in vec):
                raise InvalidInput(f"negative multiplicity in {vec!r}")
            if sum(vec) != self.r:
                raise InvalidInput(
                    f"multiplicities of {vec!r} sum to {sum(vec)}, expected {self.r}"
                )
            if vec in canon:
                raise InvalidInput(f"duplicate edge {vec!r}")
            canon.add(vec)
        self.edges = tuple(sorted(canon))
        self._mult = (
            np.array(self.edges, dtype=np.int64)
            if self.edges
            else np.zeros((0, self.num_vertices), dtype=np.int64)
        )
        self._mult.setflags(write=False)
        # 1 / prod e(i)!  with exact integer factorials
        self._coeffs = np.array(
            [1.0 / math.prod(math.factorial(x) for x in e) for e in self.edges],
            dtype=np.float64,
        )
        self._coeffs.setflags(write=False)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_multisets(
        cls, r: int, num_vertices: int, multisets: Iterable[Iterable[int]]
    ) -> "Pattern":
        """Build from edges given as vertex lists with repetition (0-based)."""
        vecs = []
        for ms in multisets:
            vec = [0] * num_vertices
            for v in ms:
                v = int(v)
                if v < 0 or v >= num_vertices:
                    raise InvalidInput(f"vertex {v} outside [0, {num_vertices})")
                vec[v] += 1
            vecs.append(vec)
        return cls(r, num_vertices, vecs)

    @classmethod
    def from_hypergraph(cls, hypergraph: Hypergraph) -> "Pattern":
        return cls.from_multisets(hypergraph.r, hypergraph.n, iter(hypergraph))

    @classmethod
    def complete_graph(cls, num_vertices: int) -> "Pattern":
        if num_vertices < 1:
            raise InvalidInput("a complete graph pattern needs at least 1 vertex")
        edges = [
            (i, j) for i in range(num_vertices) for j in range(i + 1, num_vertices)
        ]
        return cls.from_multisets(2, num_vertices, edges)

    @classmethod
    def cycle(cls, length: int) -> "Pattern":
        if length < 3:
            raise InvalidInput("a cycle pattern needs at least 3 vertices")
        return cls.from_multisets(
            2, length, [(i, (i + 1) % length) for i in range(length)]
        )

    @classmethod
    def path(cls, num_vertices: int) -> "Pattern":
        if num_vertices < 2:
            raise InvalidInput("a path pattern needs at least 2 vertices")
        return cls.from_multisets(
            2, num_vertices, [(i, i + 1) for i in range(num_vertices - 1)]
        )

    @classmethod
    def single_edge(cls, r: int) -> "Pattern":
        """The pattern on r vertices whose only edge uses each vertex once."""
        return cls.from_multisets(r, r, [tuple(range(r))])

    # -- structure -----------------------------------------------------------

    def to_hypergraph(self) -> Hypergraph:
        """Round-trip to a hypergraph; requires all multiplicities <= 1."""
        if any(x > 1 for e in self.edges for x in e):
            raise InvalidInput(
                "pattern has a repeated vertex in an edge; no hypergraph form"
            )
        plain = [tuple(i for i, x in enumerate(e) if x) for e in self.edges]
        return Hypergraph(self.r, self.num_vertices, plain)

    def vertex_deleted(self, i: int) -> "Pattern":
        """Remove vertex ``i`` and every edge using it; reindex the rest."""
        if i < 0 or i >= self.num_vertices:
            raise InvalidInput(f"vertex {i} outside [0, {self.num_vertices})")
        if self.num_vertices == 1:
            raise InvalidInput("cannot delete the only vertex")
        kept = [e[:i] + e[i + 1 :] for e in self.edges if e[i] == 0]
        return Pattern(self.r, self.num_vertices - 1, kept)

    def max_multiplicities(self) -> tuple[int, ...]:
        """Per-vertex maximum multiplicity over all edges (0 if isolated)."""
        if not self.edges:
            return (0,) * self.num_vertices
        return tuple(int(x) for x in self._mult.max(axis=0))

    def is_complete(self) -> bool:
        """The complete r-graph K_l^(r) on l >= r vertices: every edge uses
        distinct vertices, and all C(l, r) such edges are present."""
        l = self.num_vertices
        return (
            l >= self.r
            and len(self.edges) == math.comb(l, self.r)
            and int(self._mult.max()) <= 1
        )

    def link_multisets(self, i: int) -> tuple[tuple[int, ...], ...]:
        """Reduced multiplicity vectors of the edges using vertex ``i``."""
        out = []
        for e in self.edges:
            if e[i] >= 1:
                reduced = list(e)
                reduced[i] -= 1
                out.append(tuple(reduced))
        return tuple(sorted(out))

    def multiplicity_matrix(self) -> np.ndarray:
        return self._mult

    def monomial_coeffs(self) -> np.ndarray:
        return self._coeffs

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


def lagrange_eval(pattern: Pattern, x: SimplexPoint | Sequence[float]) -> float:
    """Weight polynomial of the pattern at ``x``.

    Each edge contributes ``prod_i x_i**e(i) / e(i)!`` with exact integer
    factorials; the terms are combined with compensated summation.
    """
    coords = _check_dim(pattern, x)
    terms = []
    for e in pattern.edges:
        mono = 1.0
        denom = 1
        for xi, mult in zip(coords, e):
            if mult:
                mono *= xi**mult
                denom *= math.factorial(mult)
        terms.append(mono / denom)
    return math.fsum(terms)


def lagrange_grad(pattern: Pattern, x: SimplexPoint | Sequence[float]) -> tuple[float, ...]:
    """Analytic gradient of the weight polynomial at ``x``.

    The partial for vertex ``i`` is the weight polynomial of the reduced
    edges that use ``i``, i.e. each such edge contributes the monomial of
    its multiplicity vector with one copy of ``i`` removed.
    """
    coords = _check_dim(pattern, x)
    out = []
    for i in range(pattern.num_vertices):
        terms = []
        for reduced in pattern.link_multisets(i):
            mono = 1.0
            denom = 1
            for xj, mult in zip(coords, reduced):
                if mult:
                    mono *= xj**mult
                    denom *= math.factorial(mult)
            terms.append(mono / denom)
        out.append(math.fsum(terms))
    return tuple(out)


def twin_pairs(pattern: Pattern) -> list[tuple[int, int]]:
    """All pairs of vertices whose links are identical.

    Two vertices are twins when the reduced edge collections through them
    coincide, which is the same as their weight-polynomial partials being
    identical as formal polynomials.
    """
    links = [pattern.link_multisets(i) for i in range(pattern.num_vertices)]
    out = []
    for i in range(pattern.num_vertices):
        for j in range(i + 1, pattern.num_vertices):
            if links[i] == links[j]:
                out.append((i, j))
    return out


def has_twins(pattern: Pattern) -> bool:
    """True when two vertices have identical links."""
    return bool(twin_pairs(pattern))
