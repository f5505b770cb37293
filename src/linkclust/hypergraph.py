"""Storage and elementary queries for r-uniform hypergraphs.

Vertices are dense 0-based indices; edges are strictly sorted r-tuples of
distinct vertices.  Every uniformity is canonicalized by one pipeline: each
row is sorted by compare-exchange of whole columns and coded as a base-n
integer.  Strictly increasing codes mean the rows are already canonical and
distinct, and they are kept as they are; otherwise the sorted codes are
checked for duplicates and decoded back into the lexicographically sorted
edge array.  Codes of k-tuples, and so the edges, are int32 when
``max(n, 2)**k < 2**31`` and int64 otherwise; past 62 bits they are rejected.
The edge array is stored column-major: both paths write its r columns into
one ``(r, m)`` block, the stacked sorted columns or the digits of the sorted
codes, and the ``(m, r)`` array is that block's transpose.  Every linear
pass (the link keys, the graph degrees, the deciders' signature scan) reads
one column at a time, and a contiguous column reads about twice as fast as
a strided one.  Edge membership is a binary search in the codes.  Two derived
representations back the distance queries:

* ``r == 2``: packed adjacency bit-rows, so the link distance of a pair is a
  popcount over XORed rows.  They are built on the first query that reads
  them, so a graph that is only parsed, generated or written never pays for
  them.
* ``r >= 3``: per-vertex links as sorted base-n codes of (r-1)-tuples, built
  by one sort of owner-first ``(v, rest...)`` codes; a binary search of the
  sorted keys at each owner's first key gives the link offsets, and their
  differences are the degrees.  The distances from a vertex v to all others
  come from one membership count: mark the codes that lie in v's link, and
  count the marks per owner.  The marks are read from a bool table over the
  (r-1)-tuple code space, set at v's link, when that space has no more
  entries than there are link codes, that is when the average degree is at
  least n**(r-2) (a 3 x 80 complete 3-partite host has 6400 against 240).
  Sparser hosts mark by ``np.isin``, whose cost follows the codes rather
  than the code space.

Both back the completion rows: for an (r-1)-face, the packed bit row of the
vertices that complete it to an edge (a graph's adjacency row, or for
r >= 3 the link tuples of the face's first vertex that hold the rest).  They
also back the twin classes, the vertices with equal links: equal adjacency
rows, or for r >= 3 equal link-code slices.

Instances are immutable after construction and safe to share across threads:
two threads whose first queries race build equal adjacency rows, and either
may be kept.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidInput, InvalidVertex

__all__ = ["Hypergraph", "Partition"]

# Upper bound on the per-vertex tables one instance allocates whatever its
# edge count: the degree and link-offset arrays and, for graphs, the packed
# adjacency bit rows (n * ceil(n/8) bytes, on their first query).  A larger request is rejected
# before anything is allocated, so a header such as ``2 1000000 0`` cannot
# ask for ~125 GB.
MAX_VERTEX_TABLE_BYTES = 1 << 30

# Bytes of the dense bool buffer that builds graph adjacency rows (n <= 8192)
# a block of rows at a time: one block up to n = 4096, so the n = 8192 peak
# is the packed rows plus this buffer instead of an n*n matrix.
DENSE_BLOCK_BYTES = 1 << 24

# Link codes marked and counted per block by the r >= 3 ``distances_from``,
# so that its temporaries stay well below the link codes themselves: the
# block's bool marks and the int64 sums that ``reduceat`` casts them to, plus
# the per-call mark table of at most one byte per link code.  Marking all
# 1.5M codes of a 3 x 80 host at once by ``np.isin`` peaked at 3.7x their
# bytes; 2**16 codes a block timed as fast as 2**18 there, with a quarter of
# the temporaries.
LINK_BLOCK = 1 << 16


def _code_dtype(base: int, k: int) -> type:
    """dtype of base-`base` codes of k-tuples: int32 when ``base**k < 2**31``."""
    if base ** min(k, 62) >= 2**62:  # exact for any k: base >= 2
        raise InvalidInput(
            f"vertex count {base} too large to encode {k}-tuples in 64 bits"
        )
    return np.int32 if base**k < 2**31 else np.int64


def _check_size(r: int, n: int) -> None:
    """Refuse an r-uniform hypergraph on n vertices whose per-vertex tables
    or edge codes do not fit, whatever its edges."""
    table_bytes = 16 * (n + 1) + (n * ((n + 7) // 8) if r == 2 else 0)
    if table_bytes > MAX_VERTEX_TABLE_BYTES:
        raise InvalidInput(
            f"vertex count {n} needs {table_bytes} bytes of per-vertex "
            f"tables, above MAX_VERTEX_TABLE_BYTES = {MAX_VERTEX_TABLE_BYTES}"
        )
    _code_dtype(max(n, 2), r)


def _sort_columns(cols: list[np.ndarray]) -> None:
    """Sort the rows with columns `cols` in place, by compare-exchange of
    whole columns (k passes of odd-even transposition; for k = 2 one
    min/max).  ``arr.sort(axis=1)`` took 21 ms on a (540 000, 2) array and
    made the graph-text benchmark's wall time about 8 % worse."""
    k = len(cols)
    for p in range(k):
        for j in range(p % 2, k - 1, 2):
            low = np.minimum(cols[j], cols[j + 1])
            np.maximum(cols[j], cols[j + 1], out=cols[j + 1])
            cols[j] = low


def _encode_rows(cols: Sequence[np.ndarray], base: int) -> np.ndarray:
    """Base-`base` codes of the rows with columns `cols`, by Horner's scheme
    in the sized dtype (no ``(m, k)`` temporaries)."""
    codes = cols[0].astype(_code_dtype(base, len(cols)))
    for col in cols[1:]:
        codes *= base
        codes += col
    return codes


def _integer_edge(edge: Iterable, r: int) -> tuple:
    """The vertices of ``edge`` as a tuple, refusing an edge without r of them
    or with one that is not an integer (a Python or numpy integer, or a bool)
    rather than truncating or parsing it."""
    e = tuple(edge)
    if len(e) != r:
        raise InvalidInput(f"edge {e!r} has {len(e)} vertices, expected {r}")
    for v in e:
        if not isinstance(v, (int, np.integer, np.bool_)):
            raise InvalidInput(f"edge {e!r} has a vertex {v!r} that is not an integer")
    return e


def _integer_values(values: Iterable, what: str) -> np.ndarray:
    """``values`` as an array, refusing a value that is not an integer as
    :func:`_integer_edge` does; an empty one, as ``np.array([])``, has none."""
    arr = values if isinstance(values, np.ndarray) else np.array(list(values))
    if arr.dtype.kind not in "iub":
        for v in arr.flat:
            if not isinstance(v, (int, np.integer, np.bool_)):
                raise InvalidInput(f"{what} has a value {v!r} that is not an integer")
    return arr


def _first_equal_rows(rows: np.ndarray) -> np.ndarray:
    """For each row of a 2-d array, the index of the first row equal to it."""
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    return first[inverse.reshape(-1)]


def _decode_codes(codes: np.ndarray, base: int, k: int) -> np.ndarray:
    """The ``(k, m)`` digit columns of base-`base` codes, most significant
    first, in the codes' dtype; ``.T`` gives the rows.  Each digit is written
    straight into its row of the output, as ``codes - (codes // base) *
    base``: about 3 ms on 512 000 int32 codes of triples (2 cores), less
    than half the time of ``np.divmod`` and ``np.column_stack``."""
    out = np.empty((k, codes.size), dtype=codes.dtype)
    for j in range(k - 1, 0, -1):
        quot = codes // base
        np.multiply(quot, base, out=out[j])
        np.subtract(codes, out[j], out=out[j])
        codes = quot
    out[0] = codes
    return out


class Hypergraph:
    """An immutable r-uniform hypergraph on vertices ``0..n-1``.

    Parameters
    ----------
    r:
        Uniformity, at least 2.
    n:
        Number of vertices.
    edges:
        Iterable of r-element vertex collections, or an ``(m, r)`` integer
        array.  Edges are canonicalized to sorted tuples; an edge with a
        repeated vertex, an out-of-range index, or a duplicate of another
        edge is rejected.
    """

    __slots__ = (
        "r",
        "n",
        "_edges",
        "_deg",
        "_rows",
        "_edge_codes",
        "_link_codes",
        "_link_off",
        "_hash",
    )

    def __init__(self, r: int, n: int, edges: Iterable[Iterable[int]] | np.ndarray):
        if not isinstance(r, (int, np.integer)) or r < 2:
            raise InvalidInput(f"uniformity must be an integer >= 2, got {r!r}")
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise InvalidInput(f"vertex count must be a nonnegative integer, got {n!r}")
        self.r = int(r)
        self.n = int(n)
        _check_size(self.r, self.n)

        base = max(self.n, 2)
        dtype = _code_dtype(base, self.r)

        if isinstance(edges, np.ndarray):
            arr = edges.reshape(0, self.r) if edges.size == 0 else edges
            if arr.ndim != 2 or arr.shape[1] != self.r:
                raise InvalidInput(
                    f"edge array must have shape (m, {self.r}), got {arr.shape}"
                )
            rows = arr.tolist() if arr.dtype.kind not in "iub" else []
        else:
            rows = [tuple(e) for e in edges]
            if any(len(e) != self.r for e in rows):
                bad = next(e for e in rows if len(e) != self.r)
                raise InvalidInput(f"edge {bad!r} does not have {self.r} vertices")
            arr = np.array(rows).reshape(len(rows), self.r)
        if arr.dtype.kind not in "iub":
            # numpy infers an integer or bool dtype when every vertex is one;
            # other rows (floats, strings, objects, integers past int64) are
            # checked vertex by vertex, never truncated, and range-checked as objects
            rows = [_integer_edge(e, self.r) for e in rows]
            arr = np.array(rows, dtype=object).reshape(arr.shape)

        if arr.size:
            lo, hi = int(arr.min()), int(arr.max())
            if lo < 0 or hi >= self.n:
                raise InvalidInput(
                    f"edge vertex {lo if lo < 0 else hi} outside [0, {self.n})"
                )
        cols = [arr[:, j].astype(dtype) for j in range(self.r)]
        _sort_columns(cols)
        repeated = np.logical_or.reduce([a == b for a, b in zip(cols, cols[1:])])
        if repeated.any():
            at = int(repeated.argmax())
            edge = tuple(int(col[at]) for col in cols)
            raise InvalidInput(f"edge {edge} has a repeated vertex")
        codes = _encode_rows(cols, base)
        if (codes[1:] > codes[:-1]).all():
            # strictly increasing codes: the rows are already canonical and
            # distinct (every parsed file, thinned host and induced subgraph)
            block = np.stack(cols)
            del cols
        else:
            del cols
            # The default sort kind: ``kind="stable"`` took 66 ms on 540 000
            # shuffled codes, against 2.9 ms.
            codes.sort()
            dup = codes[1:] == codes[:-1]
            if dup.any():
                at = int(dup.argmax())
                edge = tuple(int(x) for x in _decode_codes(codes[at : at + 1], base, self.r)[:, 0])
                raise InvalidInput(f"duplicate edge {edge}; multi-edges are rejected")
            # canonical lexicographic order, recovered arithmetically from the
            # sorted codes (cheaper than permuting the row array)
            block = _decode_codes(codes, base, self.r)

        # ``block`` holds the r columns, each contiguous; the edge array is
        # its transpose, so every pass below reads whole columns
        block.setflags(write=False)
        self._edges = block.T
        self._edge_codes = codes
        self._hash = None
        self._rows = self._link_codes = self._link_off = None
        if self.r == 2:
            # ``block.ravel()`` is a view; the F-ordered edge array's would copy
            self._deg = np.bincount(block.ravel(), minlength=self.n)
        else:
            # a vertex's degree is the length of its link
            self._link_codes, self._link_off = self._build_links(block)
            self._deg = np.diff(self._link_off)
        self._deg.setflags(write=False)

    def _adjacency(self) -> np.ndarray:
        """The packed adjacency rows of a graph, built on the first call."""
        rows = self._rows
        if rows is None:
            rows = self._build_rows()
            rows.setflags(write=False)
            self._rows = rows
        return rows

    def _build_rows(self) -> np.ndarray:
        n, arr, codes = self.n, self._edges, self._edge_codes
        packed = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
        if n > 8192:
            for a, b in ((arr[:, 0], arr[:, 1]), (arr[:, 1], arr[:, 0])):
                np.bitwise_or.at(packed, (a, b >> 3), (128 >> (b & 7)).astype(np.uint8))
            return packed
        # Pair codes u*n + v (u < v) and the sorted reverse codes are flat
        # adjacency indices: each block of rows is set from a slice of both in
        # a dense bool buffer, then packed.
        rev = np.sort(arr[:, 1] * n + arr[:, 0])
        step = DENSE_BLOCK_BYTES // max(n, 1)
        dense = np.empty(min(step, n) * n, dtype=bool)
        for lo in range(0, n, step):
            block = dense[: (min(n, lo + step) - lo) * n]
            block[:] = False
            for keys in (codes, rev):
                a, b = keys.searchsorted(np.array([lo, lo + step], keys.dtype) * n)
                block[keys[a:b] - lo * n] = True
            packed[lo : lo + step] = np.packbits(block.reshape(-1, n), axis=1)
        return packed

    def _build_links(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # One owner-first key per edge member, ``(v, rest...)`` coded base n
        # from the contiguous edge columns (rows of ``block``), so one sort
        # orders the links by owner and then by link code; the keys span
        # base**r like the edge codes, so no new encoding limit.  The keys of
        # owner u fill [u * span, (u + 1) * span), so the sorted keys give
        # the link offsets by one binary search per vertex.  ``keys %= span``
        # stays in place: subtracting ``np.repeat(arange(n) * span, deg)``
        # was no faster and its temporary the size of the keys lifted the
        # hyper-array benchmark's peak RSS by 6 MB (4.8 %).
        base = max(self.n, 2)
        span = base ** (self.r - 1)
        cols = list(block)
        keys = np.concatenate(
            [_encode_rows([c] + cols[:j] + cols[j + 1 :], base) for j, c in enumerate(cols)]
        )
        keys.sort()
        off = keys.searchsorted(np.arange(self.n + 1, dtype=keys.dtype) * span)
        keys %= span
        return keys.astype(_code_dtype(base, self.r - 1), copy=False), off

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return self._edges.shape[0]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for row in self._edges:
            yield tuple(int(x) for x in row)

    def __contains__(self, edge: Iterable[int]) -> bool:
        return self.has_edge(edge)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.r == other.r
            and self.n == other.n
            and np.array_equal(self._edges, other._edges)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.r, self.n, self._edges.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"Hypergraph(r={self.r}, n={self.n}, m={len(self)})"

    @property
    def edge_array(self) -> np.ndarray:
        """Canonical ``(m, r)`` edge array, rows sorted lexicographically,
        read-only.

        Its dtype is that of the edge codes: int32 when ``max(n, 2)**r <
        2**31``, int64 otherwise.  It is stored column-major (Fortran
        order): ``edge_array.T`` is r contiguous columns, which is how the
        build, the links and the deciders' signature scan read it.  Its
        values, ``tobytes()`` and row iteration are those of the row-major
        array.
        """
        return self._edges

    @property
    def packed_adjacency(self) -> np.ndarray:
        """Packed adjacency bit-rows (graphs only): ``(n, ceil(n/8))`` uint8,
        read-only."""
        if self.r != 2:
            raise InvalidInput("packed adjacency rows exist only for r = 2")
        return self._adjacency()

    def edge_list(self) -> list[tuple[int, ...]]:
        return [tuple(int(x) for x in row) for row in self._edges]

    def has_edge(self, edge: Iterable[int]) -> bool:
        try:
            e = sorted(map(int, _integer_edge(edge, self.r)))
        except InvalidInput:
            return False
        if len(set(e)) != self.r or e[0] < 0 or e[-1] >= self.n:
            return False
        base = max(self.n, 2)
        code = 0
        for x in e:
            code = code * base + x
        codes = self._edge_codes
        # cast to the codes' dtype: with a Python int, searchsorted took
        # 208 us per call on 480 000 int32 codes
        i = int(codes.searchsorted(codes.dtype.type(code)))
        return i < len(codes) and int(codes[i]) == code

    def completions(self, face: Sequence[int]) -> np.ndarray:
        """Packed ``ceil(n/8)`` uint8 row of the vertices w for which
        ``face + (w,)`` is an edge; ``face`` holds r - 1 vertices."""
        if len(face) != self.r - 1:
            raise InvalidInput(f"face {tuple(face)!r} does not have {self.r - 1} vertices")
        v, *rest = (self._check_vertex(u) for u in face)
        if self.r == 2:
            return self._adjacency()[v]
        # the link tuples of v holding all of ``rest`` (none if it repeats a
        # vertex); each has one vertex left, the completion
        codes = self._link_codes[self._link_off[v] : self._link_off[v + 1]]
        rows = _decode_codes(codes, max(self.n, 2), self.r - 1).T
        hits = np.isin(rows, rest)
        keep = hits.sum(axis=1) == self.r - 2
        bits = np.zeros(self.n, dtype=bool)
        bits[rows[keep][~hits[keep]]] = True
        return np.packbits(bits)

    def _check_vertex(self, v: int) -> int:
        if not isinstance(v, (int, np.integer)) or v < 0 or v >= self.n:
            raise InvalidVertex(f"vertex {v!r} outside [0, {self.n})")
        return int(v)

    # -- degrees -----------------------------------------------------------

    def degree(self, v: int) -> int:
        """Number of edges containing ``v``."""
        return int(self._deg[self._check_vertex(v)])

    def degrees(self) -> np.ndarray:
        """The degree of every vertex, as a read-only array."""
        return self._deg

    def min_degree(self) -> int:
        if self.n == 0:
            raise InvalidInput("minimum degree of an empty vertex set is undefined")
        return int(self._deg.min())

    def max_degree(self) -> int:
        if self.n == 0:
            raise InvalidInput("maximum degree of an empty vertex set is undefined")
        return int(self._deg.max())

    def average_degree(self) -> float:
        if self.n == 0:
            raise InvalidInput("average degree of an empty vertex set is undefined")
        return self.r * len(self) / self.n

    # -- links and distances -----------------------------------------------

    def link(self, v: int) -> set[tuple[int, ...]]:
        """The set of (r-1)-tuples completing ``v`` to an edge."""
        v = self._check_vertex(v)
        if self.r == 2:
            bits = np.unpackbits(self._adjacency()[v], count=self.n)
            return {(int(u),) for u in np.nonzero(bits)[0]}
        codes = self._link_codes[self._link_off[v] : self._link_off[v + 1]]
        rows = _decode_codes(codes, max(self.n, 2), self.r - 1).T
        return {tuple(int(x) for x in row) for row in rows}

    def hamming_distance(self, u: int, v: int) -> int:
        """Size of the symmetric difference of the links of ``u`` and ``v``.

        For graphs this equals the Hamming distance of the two adjacency
        rows, with the positions of ``u`` and ``v`` themselves counted
        literally (so an edge ``{u, v}`` contributes 2).
        """
        u = self._check_vertex(u)
        v = self._check_vertex(v)
        if u == v:
            raise InvalidInput("link distance requires two distinct vertices")
        return int(self.distances_from(v)[u])

    def distances_from(self, v: int) -> np.ndarray:
        """Link distances from every vertex to ``v`` (entry ``v`` is 0)."""
        v = self._check_vertex(v)
        if self.r == 2:
            rows = self._adjacency()
            xored = rows ^ rows[v]
            return np.bitwise_count(xored).sum(axis=1).astype(np.int64)
        # deg(u) + deg(v) - 2 |L(u) & L(v)|: mark the link codes that lie in
        # L(v), a block at a time, by a lookup in a bool table over the
        # (r-1)-tuple code space set at L(v).  The table is built only when
        # it has no more entries than there are link codes; a sparser host
        # (few edges on many vertices) marks by ``np.isin`` instead.  u owns
        # the marks between its offsets clipped to the block; ``reduceat``
        # sums each owner's nonempty share (it would read one mark for an
        # empty one).
        codes, off = self._link_codes, self._link_off
        seed = codes[off[v] : off[v + 1]]
        space = max(self.n, 2) ** (self.r - 1)
        if space <= len(codes):
            table = np.zeros(space, dtype=bool)
            table[seed] = True
            mark = table.take
        else:
            mark = functools.partial(np.isin, test_elements=seed)
        common = np.zeros(self.n, dtype=np.int64)
        for lo in range(0, len(codes), LINK_BLOCK):
            marks = mark(codes[lo : lo + LINK_BLOCK])
            start = np.clip(off - lo, 0, marks.size)
            owns = start[:-1] < start[1:]
            common[owns] += np.add.reduceat(marks, start[:-1][owns], dtype=np.int64)
        return self._deg + self._deg[v] - 2 * common

    def twin_classes(self) -> np.ndarray:
        """For every vertex, the least vertex with the same link (itself when
        no lower vertex has it).

        Vertices with equal links are twins.  No edge holds two twins u and
        v, since the rest of such an edge would lie in the link of u and hold
        v.  So swapping two twins maps the edges onto themselves.  Graphs
        compare their packed adjacency rows; for r >= 3 the link-code slices
        of vertices of equal degree are compared, one degree at a time.
        """
        if self.r == 2:
            return _first_equal_rows(self._adjacency())
        roots = np.arange(self.n)
        by_degree = np.argsort(self._deg, kind="stable")
        degs = self._deg[by_degree]
        bounds = np.flatnonzero(np.diff(degs, prepend=-1, append=-1))
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if b - a > 1:
                group = by_degree[a:b]
                links = self._link_codes[self._link_off[group, None] + np.arange(degs[a])]
                roots[group] = group[_first_equal_rows(links)]
        return roots

    # -- induced subgraphs ---------------------------------------------------

    def induced(self, subset: Iterable[int]) -> tuple["Hypergraph", dict[int, int]]:
        """Induced subgraph on ``subset``, relabeled to ``0..|subset|-1``.

        Returns the subgraph together with the old-to-new relabeling map.
        Vertices are relabeled in increasing order of their original index.
        On every vertex the subgraph is this instance itself, which is
        immutable, with the identity map.  Otherwise edge rows are relabeled
        through one index array; an increasing relabeling keeps them in
        canonical order, so the constructor only checks them.
        """
        keep = np.unique(np.fromiter((int(x) for x in subset), dtype=np.int64))
        if keep.size and (keep[0] < 0 or keep[-1] >= self.n):
            raise InvalidVertex(f"subset contains a vertex outside [0, {self.n})")
        if keep.size == self.n:
            return self, {v: v for v in range(self.n)}
        new = np.full(self.n, -1, dtype=self._edges.dtype)
        new[keep] = np.arange(keep.size)
        rows = new[self._edges]
        # these two take 1 ms each on 360 000 rows; ``.all(axis=1)`` took 8 and ``rows[kept]`` 5 ms
        kept = np.logical_and.reduce([col >= 0 for col in rows.T])
        sub = Hypergraph(self.r, int(keep.size), rows.compress(kept, axis=0))
        mapping = {int(old): i for i, old in enumerate(keep)}
        return sub, mapping


class Partition:
    """An ordered list of disjoint vertex classes covering ``0..n-1``.

    Classes may be empty; :meth:`has_full_support` reports whether all of
    them are inhabited.  Disjointness and coverage are checked on
    construction.
    """

    __slots__ = ("n", "_num_classes", "_labels", "_classes_cache")

    def __init__(self, classes: Sequence[Iterable[int]], n: int):
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise InvalidInput(f"vertex count must be a nonnegative integer, got {n!r}")
        self.n = int(n)
        labels = np.full(self.n, -1, dtype=np.int64)
        count = 0
        for i, cls in enumerate(classes):
            idx = np.unique(_integer_values(cls, f"class {i}"))
            if idx.size and (idx[0] < 0 or idx[-1] >= self.n):
                raise InvalidVertex(f"class {i} contains a vertex outside [0, {self.n})")
            idx = idx.astype(np.int64, copy=False)
            if np.any(labels[idx] != -1):
                clash = int(idx[labels[idx] != -1][0])
                raise InvalidInput(f"vertex {clash} appears in more than one class")
            labels[idx] = i
            count += 1
        if np.any(labels == -1):
            missing = int(np.nonzero(labels == -1)[0][0])
            raise InvalidInput(f"vertex {missing} is not covered by any class")
        self._num_classes = count
        self._labels = labels
        self._labels.setflags(write=False)
        self._classes_cache = None

    @classmethod
    def from_labels(cls, labels: np.ndarray, num_classes: int) -> "Partition":
        """Build from per-vertex class indices (disjointness and coverage
        hold by construction, so only the index range is checked)."""
        if not isinstance(num_classes, (int, np.integer)) or num_classes < 0:
            raise InvalidInput(f"class count must be a nonnegative integer, got {num_classes!r}")
        labels = _integer_values(labels, "the label array")
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise InvalidInput("label outside [0, num_classes)")
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        self = cls.__new__(cls)
        self.n = int(labels.size)
        self._num_classes = int(num_classes)
        self._labels = labels
        self._labels.setflags(write=False)
        self._classes_cache = None
        return self

    @property
    def num_classes(self) -> int:
        return self._num_classes

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        if self._classes_cache is None:
            order = np.argsort(self._labels, kind="stable")
            bounds = np.searchsorted(self._labels[order], np.arange(self._num_classes + 1))
            self._classes_cache = tuple(
                tuple(int(v) for v in order[bounds[i] : bounds[i + 1]])
                for i in range(self._num_classes)
            )
        return self._classes_cache

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    def sizes(self) -> tuple[int, ...]:
        counts = np.bincount(self._labels, minlength=self._num_classes)
        return tuple(int(c) for c in counts[: self._num_classes])

    def has_full_support(self) -> bool:
        """True when every class is nonempty."""
        return all(s > 0 for s in self.sizes())

    def nonempty_class_sets(self) -> frozenset[frozenset[int]]:
        """The set of nonempty classes, order-insensitively."""
        return frozenset(frozenset(c) for c in self.classes if c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self.n == other.n
            and self._num_classes == other._num_classes
            and np.array_equal(self._labels, other._labels)
        )

    def __hash__(self) -> int:
        return hash((self.n, self._num_classes, self._labels.tobytes()))

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, sizes={self.sizes()})"

