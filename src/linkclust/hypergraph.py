"""Storage and elementary queries for r-uniform hypergraphs.

Vertices are dense 0-based indices; edges are strictly sorted r-tuples of
distinct vertices.  Every uniformity is canonicalized by one pipeline, one
pass over slices of rows: each slice is cast into its share of one ``(r,
m)`` block of columns, its rows are sorted by compare-exchange of those
columns, and each row is coded as a base-n integer.  Strictly increasing
codes mean the rows are already canonical and distinct, and the block is
kept as it is; otherwise the sorted codes are checked for duplicates and
decoded back into the block, a slice at a time, in lexicographic order.
The blow-ups and thinned hosts of ``corpus`` write their edges as a fresh
block in the code dtype, which the pass takes over and runs on in place.
Codes of k-tuples, and so the edges, are int32 when ``max(n, 2)**k < 2**31``
and int64 otherwise; past 62 bits they are rejected.  The edge array is
stored column-major: the ``(m, r)`` array is the block's transpose.  Every
linear pass (the link keys, the degrees, the label signatures) reads one
column at a time, and a contiguous column reads about twice as fast as a
strided one.
Edge membership is a binary search in the codes.  Every uniformity counts
degrees one way: the first column is nondecreasing, so a binary search of
0..n in it gives its counts, and a ``bincount`` of the other columns, a
slice at a time, adds theirs.

The links are built on the first query that reads them, so a host that is
only parsed, generated, written or asked for its degrees never pays for
them.  Each member v of an edge has one owner-first key, the edge coded
base n with v moved first, ``(v, rest...)``: owner v's keys fill [v * span,
(v + 1) * span) with span = n**(r-1), and their rests are the codes of the
(r-1)-tuples of the link L(v).  The first members' keys are the edge codes.
The links take one of two forms:

* Packed link rows: row v marks the codes of L(v), so a key is the flat
  index of its bit in the (n, span) matrix of rows, and the link distance
  of a pair is a popcount over XORed rows.  Every row is padded with zero
  bits to whole 64-bit words, ``8 * ceil(n**(r-1)/64)`` bytes, so that the
  XOR is counted a word at a time.  A host of any uniformity keeps them
  when their bytes are no more than the bytes of its link codes: the 3 x 80
  complete 3-partite host has 1.73 MB of rows against 6.14 MB of codes, and
  T(1200, 3) 182 KB against 3.84 MB.  A graph's rows are its adjacency
  rows, kept from about n**2 / 64 edges on (average degree n / 32).  Every
  n and r builds them one way: a block of rows at a time is set in a dense
  bool buffer at the owner-first keys, then packed.  The keys are cast to
  intp, a slice at a time, as they index the buffer: numpy scatters through
  intp about twice as fast.
* Sorted link codes, for a sparser host: one sort of the owner-first keys
  orders them by owner and then by link code, and a binary search of the
  sorted keys at each owner's first key gives the link offsets.  The
  distances from a vertex v to all others come from one membership count:
  mark the codes that lie in v's link, and count the marks per owner.  The
  marks are read from a bool table over the (r-1)-tuple code space, set at
  v's link, when that space has no more entries than there are link codes;
  sparser hosts mark by ``np.isin``, whose cost follows the codes rather
  than the code space.

Either form backs the completion rows: for an (r-1)-face, the packed bit
row of the vertices that complete it to an edge (the adjacency row of a
graph that keeps rows, otherwise the link tuples of the face's first vertex
that hold the rest).  They also back the twin classes, the vertices with
equal links: equal rows, or equal link-code slices.

Two queries read the edges under a vertex labeling, the class map of a
clustering.  The signature of an edge is the sorted tuple of its r labels:
:meth:`Hypergraph.label_signatures` sorts the label columns and codes them
base ``max(num_classes, 2)`` by the pipeline that canonicalizes the edges,
so only the few distinct codes are decoded.  The verdict of a complete
pattern is the lowest-index edge that repeats a label:
:meth:`Hypergraph.first_repeating_edge` ANDs each packed link row with a
mask of the (r-1)-tuples that would repeat a label, or, on a host that
keeps link codes, compares the label columns of its edges, in either form
``SLICE_BYTES`` at a time.

Instances are immutable after construction and safe to share across threads:
two threads whose first queries race build equal links, and either may be
kept.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidInput, InvalidVertex, _integer, _integers, _is_integer

__all__ = ["Hypergraph", "Partition"]

# Upper bound on the per-vertex tables one instance allocates whatever its
# edge count: the int64 degree and link-offset arrays, 16 * (n + 1) bytes, so
# n stays below 2**26 for every r.  The links follow the edges, since rows are
# kept only when they take no more bytes than the link codes.  A larger
# request is rejected before anything is allocated, so a header such as
# ``2 100000000 0`` cannot ask for 1.6 GB.
MAX_VERTEX_TABLE_BYTES = 1 << 30

# Bytes of the dense bool buffer that builds packed link rows, for every n
# and r, a block of rows at a time: one block up to n = 4096 for graphs and
# n = 256 for r = 3, so the peak of a larger host is the packed rows plus this
# buffer instead of the whole bool matrix.
DENSE_BLOCK_BYTES = 1 << 24

# Bytes of the temporaries that a linear pass takes a slice at a time, so that
# they stay well below the arrays it reads: the constructor's slices of rows,
# as int32 columns, which it casts, sorts, checks and codes in cache (whole
# columns took a fresh temporary of m entries for each step, and the stacked
# block peaked at 1.6x the block and codes of the shuffled 3 x 80 host); the
# XOR of the packed rows in ``distances_from`` (all rows at once peaked at
# 15.6 MB traced at n = 480, a slice at 0.65 MB); the intp keys ``_build_rows``
# scatters, through one buffer reused for every slice (a whole column's cast
# took 8 bytes a key); the intp casts of the degree count; the int64 sums of
# the link codes ``distances_from`` marks (marking all 1.5M codes of a 3 x 80
# host at once by ``np.isin`` peaked at 3.7x their bytes, while 2**16 codes a
# block timed as fast as 2**18 with a quarter of the temporaries); and the link
# rows or int64 edge labels of ``first_repeating_edge`` (with every vertex in
# one class, taking the class at once peaked at 1.92 MB traced against 1.73 MB
# of rows on the 3 x 80 host).
SLICE_BYTES = 1 << 19


def _code_dtype(base: int, k: int) -> type:
    """dtype of base-`base` codes of k-tuples: int32 when ``base**k < 2**31``."""
    if base ** min(k, 62) >= 2**62:  # exact for any k: base >= 2
        raise InvalidInput(
            f"vertex count {base} too large to encode {k}-tuples in 64 bits"
        )
    return np.int32 if base**k < 2**31 else np.int64


def _row_bytes(n: int, r: int) -> int:
    """Bytes of one packed link row: n**(r-1) bits in whole 64-bit words."""
    return (n ** (r - 1) + 63) // 64 * 8


def _check_size(r: int, n: int) -> type:
    """Refuse an r-uniform hypergraph on n vertices whose degree and offset
    tables or edge codes do not fit, whatever its edges, and return the
    dtype of its edge codes.  Every n it admits is below 2**26, and so below
    the 2**31 that the constructor's one-read range check needs."""
    table_bytes = 16 * (n + 1)
    if table_bytes > MAX_VERTEX_TABLE_BYTES:
        raise InvalidInput(
            f"vertex count {n} needs {table_bytes} bytes of per-vertex "
            f"tables, above MAX_VERTEX_TABLE_BYTES = {MAX_VERTEX_TABLE_BYTES}"
        )
    return _code_dtype(max(n, 2), r)


def _scatter(dense: np.ndarray, keys: np.ndarray, offset: int, at: np.ndarray) -> None:
    """Set ``dense[keys - offset]``, ``at.size`` keys at a time cast into the
    intp buffer `at`.  numpy's int32 index path set the keys of the 3 x 80
    complete 3-partite 3-graph in 6.7 ms, through `at` in 3.6-5.1.  Casting
    each whole column was about as fast there (4.4-5.0 ms), but on T(4000, 3)
    its 21 MB temporary took the scatter from 55-67 ms (int32) to 73-75,
    against 50-51 through `at` (2-core Xeon, best of 5 after a cold run)."""
    for start in range(0, keys.size, at.size):
        part = at[: min(at.size, keys.size - start)]
        part[...] = keys[start : start + at.size]
        if offset:
            part -= offset
        dense[part] = True


def _sort_columns(cols: list[np.ndarray], spare: np.ndarray) -> None:
    """Sort the rows with columns `cols` in place, by compare-exchange of
    whole columns (k passes of odd-even transposition; for k = 2 one
    min/max), each minimum going through the `spare` buffer, as long as the
    columns, so that nothing is allocated.  ``arr.sort(axis=1)`` took 21 ms
    on a (540 000, 2) array and made the graph-text benchmark's wall time
    about 8 % worse."""
    k = len(cols)
    for p in range(k):
        for j in range(p % 2, k - 1, 2):
            np.minimum(cols[j], cols[j + 1], out=spare)
            np.maximum(cols[j], cols[j + 1], out=cols[j + 1])
            cols[j][...] = spare


def _encode_rows(cols: Sequence[np.ndarray], base: int, out: np.ndarray | None = None) -> np.ndarray:
    """Base-`base` codes of the rows with columns `cols`, by Horner's scheme
    in the sized dtype (no ``(m, k)`` temporaries), written into `out` when
    it is given."""
    codes = np.empty(cols[0].shape, _code_dtype(base, len(cols))) if out is None else out
    codes[...] = cols[0]
    for col in cols[1:]:
        codes *= base
        codes += col
    return codes


def _first_drop(codes: np.ndarray, lo: int, hi: int) -> int | None:
    """The first index i in ``[lo, hi)`` with ``codes[i] <= codes[i - 1]``,
    the previous slice's last code included, or None."""
    part = codes[max(lo - 1, 0) : hi]
    drops = part[1:] <= part[:-1]
    return max(lo, 1) + int(drops.argmax()) if drops.any() else None


def _integer_edge(edge: Iterable, r: int) -> tuple:
    """The vertices of ``edge`` as a tuple, refusing an edge without r of them
    or with one that is not an integer (``errors._is_integer``) rather than
    truncating or parsing it."""
    e = tuple(edge)
    if len(e) != r:
        raise InvalidInput(f"edge {e!r} has {len(e)} vertices, expected {r}")
    for v in e:
        if not _is_integer(v):
            raise InvalidInput(f"edge {e!r} has a vertex {v!r} that is not an integer")
    return e


def _first_by_key(keys: Iterable) -> list[int]:
    """For each position, the first position with an equal key, in one dict pass."""
    first: dict = {}
    return [first.setdefault(key, i) for i, key in enumerate(keys)]


def _decode_codes(codes: np.ndarray, base: int, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """The ``(k, m)`` digit columns of base-`base` codes, most significant
    first, in the codes' dtype, written into `out` when it is given (the
    constructor decodes its sorted codes a slice at a time into its block);
    ``.T`` gives the rows.  Each digit is written straight into its row of
    the output, as ``codes - (codes // base) * base``: about 3 ms on 512 000
    int32 codes of triples (2 cores), less than half the time of
    ``np.divmod`` and ``np.column_stack``."""
    out = np.empty((k, codes.size), dtype=codes.dtype) if out is None else out
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

    __slots__ = ("r", "n", "_edges", "_deg", "_edge_codes", "_links", "_hash")

    def __init__(self, r: int, n: int, edges: Iterable[Iterable[int]] | np.ndarray):
        self.r = _integer(r, "uniformity", 2)
        self.n = _integer(n, "vertex count", 0)
        dtype = _check_size(self.r, self.n)

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

        # An int32 or int64 array is range-checked in one read: viewed as the
        # unsigned type of its size, a negative vertex reads as at least 2**31,
        # past every n that ``_check_size`` admits (0.61 ms against 1.24 for
        # ``min`` and ``max`` on 512 000 int64 triples).  A narrower signed
        # array is not: int8 -100 reads as 156.  It, and unsigned, bool and
        # object arrays, whose values may lie past int64, read both; the bounds
        # that name the vertex are read only on the error path.
        if arr.size and (
            arr.dtype.kind != "i"
            or arr.dtype.itemsize < 4
            or arr.view(arr.dtype.str.replace("i", "u")).max() >= self.n
        ):
            lo, hi = int(arr.min()), int(arr.max())
            if lo < 0 or hi >= self.n:
                raise InvalidInput(
                    f"edge vertex {lo if lo < 0 else hi} outside [0, {self.n})"
                )
        self._canonicalize(np.empty((self.r, arr.shape[0]), dtype), arr)

    @classmethod
    def _from_block(cls, r: int, n: int, block: np.ndarray) -> Hypergraph:
        """The hypergraph whose edges are the columns of `block`, a C-order
        ``(r, m)`` array of the code dtype with every vertex in ``[0, n)``,
        made for it by a caller that has passed ``_check_size(r, n)`` and
        keeps no reference to it (the blow-ups and thinned hosts of
        ``corpus``).  The block is canonicalized in place and kept, so the
        edges are neither cast nor copied: at set-up, the 3 x 80 blow-up's
        11.7 MB of int64 rows and its copy into the block are gone."""
        self = cls.__new__(cls)
        self.r, self.n = r, n
        self._canonicalize(block)
        return self

    def _canonicalize(self, block: np.ndarray, arr: np.ndarray | None = None) -> None:
        """Store the edges in `block`, an ``(r, m)`` array of the code dtype,
        after the rows of `arr` are cast into it, or as it holds them when
        `arr` is None, and count the degrees.

        One pass over slices of rows builds the block and the codes, with no
        temporary of m entries: each slice is cast into the block from the
        input, whatever its layout or dtype, sorted through one spare buffer,
        tested for a repeated vertex (the first in row order raises) and
        coded into its share of the codes."""
        base = max(self.n, 2)
        m = block.shape[1]
        step = max(1, SLICE_BYTES // (4 * self.r))  # rows of int32 columns
        codes = np.empty(m, dtype=block.dtype)
        spare = np.empty(min(step, m), dtype=block.dtype)
        increasing = True
        for start in range(0, m, step):
            part = slice(start, start + step)
            if arr is not None:
                np.copyto(block[:, part], arr[part].T, casting="unsafe")
            cols = list(block[:, part])
            _sort_columns(cols, spare[: cols[0].size])
            repeated = functools.reduce(np.logical_or, [a == b for a, b in zip(cols, cols[1:])])
            if repeated.any():
                at = int(repeated.argmax())
                edge = tuple(int(col[at]) for col in cols)
                raise InvalidInput(f"edge {edge} has a repeated vertex")
            _encode_rows(cols, base, out=codes[part])
            increasing = increasing and _first_drop(codes, start, start + step) is None
        del spare  # before the degree count's intp slices
        if not increasing:
            # Strictly increasing codes mean canonical, distinct rows (every
            # parsed file, thinned host and induced subgraph), already in the
            # block.  Other codes are sorted, by the default kind
            # (``kind="stable"`` took 66 ms on 540 000 shuffled codes, against
            # 2.9 ms), and decoded a slice at a time back into the block,
            # whose pages are already touched: the canonical lexicographic
            # order, more cheaply than permuting the rows.  A drop left in the
            # sorted codes is a duplicate, and the first one the least.
            codes.sort()
            for start in range(0, m, step):
                at = _first_drop(codes, start, start + step)
                if at is not None:
                    edge = tuple(int(x) for x in _decode_codes(codes[at : at + 1], base, self.r)[:, 0])
                    raise InvalidInput(f"duplicate edge {edge}; multi-edges are rejected")
                _decode_codes(codes[start : start + step], base, self.r, out=block[:, start : start + step])

        # ``block`` holds the r columns, each contiguous; the edge array is
        # its transpose, so every pass below reads whole columns
        block.setflags(write=False)
        self._edges = block.T
        self._edge_codes = codes
        self._hash = None
        self._links = None
        # the first column is nondecreasing on both branches, so its counts
        # are the gaps between the first indices of 0..n; the other columns
        # are one contiguous run of the block, counted a slice at a time, as
        # ``bincount`` casts each slice to intp.  A slice holds at least n
        # vertices, so its n counts never outweigh it.
        self._deg = np.diff(block[0].searchsorted(np.arange(self.n + 1, dtype=block.dtype)))
        rest = block[1:].ravel()
        step = max(SLICE_BYTES // 8, self.n)
        for start in range(0, rest.size, step):
            self._deg += np.bincount(rest[start : start + step], minlength=self.n)
        self._deg.setflags(write=False)

    def _link_store(self) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """The links, built on the first call: the packed link rows, or the
        sorted link codes and their offsets when the rows would take more
        bytes (see the module docstring)."""
        links = self._links
        if links is None:
            code_bytes = np.dtype(_code_dtype(max(self.n, 2), self.r - 1)).itemsize
            if self.n * _row_bytes(self.n, self.r) <= self.r * len(self) * code_bytes:
                links = self._build_rows()
            else:
                links = self._build_links()
            for arr in links if isinstance(links, tuple) else (links,):
                arr.setflags(write=False)
            self._links = links
        return links

    def _owner_keys(self) -> Iterator[np.ndarray]:
        """The owner-first keys of each edge column in turn: the edge codes,
        then the edges coded with column j moved first, ``(v, rest...)``."""
        cols = list(self._edges.T)
        yield self._edge_codes
        for j in range(1, self.r):
            yield _encode_rows([cols[j]] + cols[:j] + cols[j + 1 :], max(self.n, 2))

    def _build_rows(self) -> np.ndarray:
        n, r = self.n, self.r
        # The owner-first keys are flat indices into the (n, span) bool matrix
        # of the rows: a block of rows at a time is set from them in a dense
        # buffer, packed and copied into the rows.  One block takes the keys
        # of one edge column at a time, made as they are set; several blocks
        # slice the keys, and need the non-first ones sorted (the edge codes
        # already are).  The keys stay int32, as the link codes sort them,
        # and are cast to intp as they are set (:func:`_scatter`).  The buffer
        # comes from ``np.zeros``, which touches only the pages a key sets, is
        # cleared only for a later block, and is freed before the last copy;
        # the rows are allocated at the first copy, so one block peaks at the
        # buffer and its packed bits.
        span = n ** (r - 1)
        step = max(1, DENSE_BLOCK_BYTES // max(span, 1))
        keys = self._owner_keys()
        if step < n:
            keys = list(keys)
            for others in keys[1:]:
                others.sort()
        at = np.empty(min(SLICE_BYTES // 8, max(len(self._edge_codes), 1)), dtype=np.intp)
        packed = np.zeros((0, 0), dtype=np.uint8)  # no vertices: no block
        dense = np.zeros(min(step, n) * span, dtype=bool)
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            block = dense[: (hi - lo) * span]
            if lo:
                block[:] = False
            for owned in keys:
                if step < n:
                    a, b = owned.searchsorted(np.array([lo, hi], owned.dtype) * span)
                    owned = owned[a:b]
                _scatter(block, owned, lo * span, at)
                del owned  # before the next column's keys are made
            bits = np.packbits(block.reshape(-1, span), axis=1)
            if hi == n:
                del block, dense
            if lo == 0:
                packed = np.zeros((n, _row_bytes(n, r)), dtype=np.uint8)
            packed[lo:hi, : bits.shape[1]] = bits
            del bits
        return packed

    def _build_links(self) -> tuple[np.ndarray, np.ndarray]:
        # One sort of the owner-first keys orders the links by owner and then
        # by link code; the keys span base**r like the edge codes, so no new
        # encoding limit.  The keys of owner u fill [u * span, (u + 1) *
        # span), so the sorted keys give the link offsets by one binary
        # search per vertex.  ``keys %= span`` stays in place: subtracting
        # ``np.repeat(arange(n) * span, deg)`` was no faster and its
        # temporary the size of the keys lifted the hyper-array benchmark's
        # peak RSS by 6 MB (4.8 %), when its host still kept link codes.
        base = max(self.n, 2)
        span = base ** (self.r - 1)
        keys = np.concatenate(list(self._owner_keys()))
        keys.sort()
        off = keys.searchsorted(np.arange(self.n + 1, dtype=keys.dtype) * span)
        keys %= span
        return keys.astype(_code_dtype(base, self.r - 1), copy=False), off

    def _link_codes(self, v: int) -> np.ndarray:
        """The sorted codes of the (r-1)-tuples of L(v): the set bits of its
        row, or its slice of the link codes."""
        links = self._link_store()
        if isinstance(links, tuple):
            codes, off = links
            return codes[off[v] : off[v + 1]]
        return np.flatnonzero(np.unpackbits(links[v], count=self.n ** (self.r - 1)))

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
        build, the links and the label signatures read it.  Its
        values, ``tobytes()`` and row iteration are those of the row-major
        array.
        """
        return self._edges

    @property
    def link_rows(self) -> np.ndarray | None:
        """The packed link rows, ``(n, 8 * ceil(n**(r-1)/64))`` uint8 and
        read-only, or ``None`` when the host keeps sorted link codes (see the
        module docstring).  Row v marks the base-n codes of the (r-1)-tuples
        of L(v), most significant bit first, and its padding bits are zero; a
        graph's are its adjacency rows, kept from about n**2 / 64 edges on."""
        links = self._link_store()
        return None if isinstance(links, tuple) else links

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
        ``face + (w,)`` is an edge; ``face`` holds r - 1 vertices.  A graph
        that keeps link rows returns a read-only slice of its row; any other
        host builds the row from the link of the face's first vertex."""
        if len(face) != self.r - 1:
            raise InvalidInput(f"face {tuple(face)!r} does not have {self.r - 1} vertices")
        v, *rest = (self._check_vertex(u) for u in face)
        if self.r == 2 and self.link_rows is not None:
            return self.link_rows[v, : (self.n + 7) // 8]
        # the link tuples of v holding all of ``rest`` (none if it repeats a
        # vertex); each has one vertex left, the completion
        rows = _decode_codes(self._link_codes(v), max(self.n, 2), self.r - 1).T
        hits = np.isin(rows, rest)
        keep = hits.sum(axis=1) == self.r - 2
        bits = np.zeros(self.n, dtype=bool)
        bits[rows[keep][~hits[keep]]] = True
        return np.packbits(bits)

    def _check_vertex(self, v: int) -> int:
        if not _is_integer(v) or v < 0 or v >= self.n:
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
        rows = _decode_codes(self._link_codes(v), max(self.n, 2), self.r - 1).T
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
        links = self._link_store()
        if not isinstance(links, tuple):
            # rows of whole words: a popcount per word is 6x faster than per
            # byte; ``SLICE_BYTES`` of rows are XORed at a time into one buffer
            words = links.view(np.uint64)
            out = np.empty(self.n, dtype=np.int64)
            step = max(1, SLICE_BYTES // links.shape[1])
            xor = np.empty_like(words[:step])
            for lo in range(0, self.n, step):
                part = np.bitwise_xor(words[lo : lo + step], words[v], out=xor[: min(step, self.n - lo)])
                np.bitwise_count(part).sum(axis=1, out=out[lo : lo + step])
            return out
        # deg(u) + deg(v) - 2 |L(u) & L(v)|: mark the link codes that lie in
        # L(v), a block at a time, by a lookup in a bool table over the
        # (r-1)-tuple code space set at L(v).  The table is built only when
        # it has no more entries than there are link codes; a sparser host
        # (few edges on many vertices) marks by ``np.isin`` instead.  u owns
        # the marks between its offsets clipped to the block; ``reduceat``
        # sums each owner's nonempty share (it would read one mark for an
        # empty one).
        codes, off = links
        seed = codes[off[v] : off[v + 1]]
        space = max(self.n, 2) ** (self.r - 1)
        if space <= len(codes):
            table = np.zeros(space, dtype=bool)
            table[seed] = True
            mark = table.take
        else:
            mark = functools.partial(np.isin, test_elements=seed)
        common = np.zeros(self.n, dtype=np.int64)
        step = SLICE_BYTES // 8  # int64 sums
        for lo in range(0, len(codes), step):
            marks = mark(codes[lo : lo + step])
            start = np.clip(off - lo, 0, marks.size)
            owns = start[:-1] < start[1:]
            common[owns] += np.add.reduceat(marks, start[:-1][owns], dtype=np.int64)
        return self._deg + self._deg[v] - 2 * common

    def twin_classes(self) -> np.ndarray:
        """For every vertex, the least vertex with the same link (itself when
        no lower vertex has it).

        Vertices with equal links are twins.  No edge holds two twins u and
        v, since the rest of such an edge would lie in the link of u and hold
        v.  So swapping two twins maps the edges onto themselves.  A link's
        key is the bytes of its packed link row or of its link-code slice,
        and one dict pass over the keys of the vertices of positive degree
        finds the first vertex of each.  The vertices of degree 0 share the
        empty link, which no other vertex has, so they map to the least of
        them in one step.
        """
        links = self._link_store()
        used = np.flatnonzero(self._deg)
        if isinstance(links, tuple):
            codes, off = links[0], links[1]
            ends = zip(off[used].tolist(), off[used + 1].tolist())
            keys = (codes[a:b].tobytes() for a, b in ends)
        else:
            keys = (links[v].tobytes() for v in used.tolist())
        # the least vertex of degree 0; with none, out[used] covers every vertex
        out = np.full(self.n, np.argmin(self._deg) if self.n else 0, dtype=np.int64)
        out[used] = used[_first_by_key(keys)]
        return out

    # -- labeled edges -------------------------------------------------------

    def _check_labels(self, labels: np.ndarray, num_classes: int) -> np.ndarray:
        """``labels`` as int64, refusing all but one integer label in
        ``[0, num_classes)`` per vertex.  The array's dtype must pass the
        test of ``errors._integers``, integer or bool, so a bool array reads
        as 0s and 1s, as in :meth:`Partition.from_labels`."""
        num_classes = _integer(num_classes, "class count")
        lab = np.asarray(labels)
        bad = lab.shape != (self.n,) or lab.dtype.kind not in "iub"
        if bad or lab.size and not 0 <= lab.min() <= lab.max() < num_classes:
            raise InvalidInput(f"need {self.n} integer labels in [0, {num_classes})")
        return lab.astype(np.int64, copy=False)

    def _repeat_mask(self, labels: np.ndarray, j: int) -> np.ndarray:
        """Packed mask of class j over the (r-1)-tuple codes, padded like a
        link row.  A code is marked when its tuple repeats a label or holds
        label j, so the AND of a class-j vertex's link row with it marks the
        link tuples that make an edge repeat a label."""
        n, k = self.n, self.r - 1
        digits = [labels.reshape([n if d == i else 1 for d in range(k)]) for i in range(k)]
        tests = [col == j for col in digits] + [a == b for a, b in itertools.combinations(digits, 2)]
        bits = np.packbits(functools.reduce(np.logical_or, tests).ravel())
        return np.pad(bits, (0, _row_bytes(n, self.r) - bits.size))

    def first_repeating_edge(self, labels: np.ndarray, num_classes: int) -> tuple[int, ...] | None:
        """The lowest-index edge two of whose vertices share a label, or
        ``None``; ``labels`` holds one class in ``[0, num_classes)`` per vertex.

        With link rows, vertex v lies in such an edge exactly when its row
        hits the repeat mask of its class; the rows are ANDed as words one
        inhabited class at a time, ``SLICE_BYTES`` of them at once.  Such an
        edge hits the rows of all its vertices, so the least vertex a whose
        row hits is the least vertex of the lexicographically least one,
        which is a plus the tuple of the least set bit of row a's hit.  With
        link codes the edges are scanned a slice at a time, by their label
        columns.
        """
        labels = self._check_labels(labels, num_classes)
        rows, r = self.link_rows, self.r
        if rows is None:
            step = SLICE_BYTES // (8 * r)  # the int64 labels of a slice of edges
            for start in range(0, len(self), step):
                block = self._edges[start : start + step]
                lab = labels[block]
                repeats = [lab[:, a] == lab[:, b] for a, b in itertools.combinations(range(r), 2)]
                hits = np.flatnonzero(functools.reduce(np.logical_or, repeats))
                if hits.size:
                    return tuple(int(v) for v in block[hits[0]])
            return None
        words = rows.view(np.uint64)
        hit = np.zeros(self.n, dtype=bool)
        step = max(1, SLICE_BYTES // max(rows.shape[1], 1))
        for j in np.unique(labels).tolist():
            members = np.flatnonzero(labels == j)
            mask = self._repeat_mask(labels, j).view(np.uint64)
            for start in range(0, members.size, step):
                part = members[start : start + step]
                anded = words.take(part, axis=0)
                anded &= mask
                if anded.any():  # on T(4000, 3) the flat test took 0.07 ms, per row 0.19
                    hit[part] = anded.any(axis=1)
                del anded  # before the next slice is taken
        if not hit.any():
            return None
        a = int(hit.argmax())
        first = np.flatnonzero(np.unpackbits(rows[a] & self._repeat_mask(labels, labels[a])))[0]
        rest = _decode_codes(np.array([first]), max(self.n, 2), r - 1)[:, 0]
        return (a, *(int(v) for v in rest))

    def label_signatures(
        self, labels: np.ndarray, num_classes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The distinct edge signatures, the sorted tuples of the edges' r
        labels, as the rows of a ``(d, r)`` array in lexicographic order, and
        the lowest index of an edge with each; ``labels`` holds one class in
        ``[0, num_classes)`` per vertex."""
        labels = self._check_labels(labels, num_classes)
        base = max(num_classes, 2)
        lab = labels.astype(_code_dtype(base, self.r))
        # one contiguous edge column at a time: a take of the whole (m, r)
        # array peaked at 21.5 MB on the hyper-array host, against 17.4 MB
        cols = [lab.take(col) for col in self._edges.T]
        _sort_columns(cols, np.empty_like(cols[0]))
        codes, reps = np.unique(_encode_rows(cols, base), return_index=True)
        return _decode_codes(codes, base, self.r).T, reps

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
        keep = np.unique(_integers(subset, "the subset"))
        if keep.size and (keep[0] < 0 or keep[-1] >= self.n):
            raise InvalidVertex(f"subset contains a vertex outside [0, {self.n})")
        keep = keep.astype(np.int64, copy=False)
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
        self.n = _integer(n, "vertex count", 0)
        labels = np.full(self.n, -1, dtype=np.int64)
        count = 0
        for i, cls in enumerate(classes):
            idx = np.unique(_integers(cls, f"class {i}"))
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
        num_classes = _integer(num_classes, "class count", 0)
        labels = _integers(labels, "the label array")
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise InvalidInput("label outside [0, num_classes)")
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        self = cls.__new__(cls)
        self.n = int(labels.size)
        self._num_classes = num_classes
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

