"""Independent checks of linkclust outputs.

Every check derives the right answer from how the benchmark built the input
(a balanced complete multipartite graph, a blow-up, a planted triple) or
from a closed form, and verifies witnesses edge by edge with numpy.  None
compares an output with a stored copy of an earlier output.  A failed check
raises :class:`CheckFailed`.
"""

from __future__ import annotations

import hashlib
import itertools
from fractions import Fraction

import numpy as np

# Closed forms of the calibration values (lambda = Lagrangian, phi = maximin
# of the partials).  lambda(C5) = lambda(C7) = 1/4 by Motzkin-Straus.
CLOSED_FORMS = {
    "C5": {"lagrangian": Fraction(1, 4), "phi": Fraction(2, 5)},
    "C7": {"lagrangian": Fraction(1, 4), "phi": Fraction(2, 7)},
    "K4^(3)": {"lagrangian": Fraction(1, 16), "phi": Fraction(3, 16)},
}
VALUE_TOL = 1e-9

_CHUNK_CHARS = 1 << 22


class CheckFailed(Exception):
    """An output contradicts what the construction of its input fixes."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_edges(text: str) -> tuple[int, int, np.ndarray]:
    """``(r, n, edges)`` of an edge-list text, read without linkclust.

    The body is converted in slices of a few MB so that the check's own
    memory stays far below the parser's.
    """
    header, _, body = text.partition("\n")
    fields = header.split()
    require(len(fields) == 3, f"header {header!r} is not 'r n m'")
    r, n, m = (int(x) for x in fields)
    parts = []
    start = 0
    while start < len(body):
        stop = body.find("\n", start + _CHUNK_CHARS)
        stop = len(body) if stop < 0 else stop + 1
        parts.append(np.array(body[start:stop].split(), dtype=np.int64))
        start = stop
    flat = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    require(flat.size == m * r, f"header declares {m} edges of size {r}, body has {flat.size} entries")
    edges = flat.reshape(m, r)
    require(m == 0 or (edges.min() >= 0 and edges.max() < n), "vertex outside [0, n)")
    return r, n, edges


def edge_codes(edges: np.ndarray, n: int) -> np.ndarray:
    """Sorted base-n codes of the edges, each edge taken as a vertex set."""
    rows = np.sort(edges, axis=1)
    pows = n ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
    return np.sort(rows @ pows)


def balanced_labels(n: int, parts: int) -> np.ndarray:
    """Class of each vertex in the balanced partition into consecutive
    blocks, the first ``n % parts`` blocks one vertex larger."""
    q, s = divmod(n, parts)
    sizes = [q + 1 if i < s else q for i in range(parts)]
    return np.repeat(np.arange(parts), sizes)


def complete_multipartite_edges(n: int, parts: int) -> int:
    sizes = np.bincount(balanced_labels(n, parts), minlength=parts)
    return (n * n - int((sizes * sizes).sum())) // 2


def check_multipartite_text(text: str, n: int, parts: int, deleted: int) -> np.ndarray:
    """The text is the balanced complete ``parts``-partite graph on ``n``
    vertices with exactly ``deleted`` edges removed; returns its edges."""
    r, n_text, edges = read_edges(text)
    require((r, n_text) == (2, n), f"header says r={r}, n={n_text}; expected r=2, n={n}")
    labels = balanced_labels(n, parts)
    inside = labels[edges[:, 0]] == labels[edges[:, 1]]
    require(not inside.any(), f"edge {edges[np.argmax(inside)].tolist()} lies inside a class")
    codes = edge_codes(edges, n)
    require(bool(np.all(codes[1:] != codes[:-1])), "the text repeats an edge")
    expected = complete_multipartite_edges(n, parts) - deleted
    require(len(edges) == expected, f"{len(edges)} edges, expected {expected}")
    return edges


def check_roundtrip(lc, r: int, n: int, edges: np.ndarray) -> None:
    """``parse_hypergraph(serialize_hypergraph(g)) == g`` for the graph g
    that a generated file encodes."""
    g = lc.Hypergraph(r, n, edges)
    require(lc.parse_hypergraph(lc.serialize_hypergraph(g)) == g, "parse(serialize(g)) != g")


def _labels_of(classes, n: int) -> np.ndarray:
    members = np.concatenate([np.asarray(c, dtype=np.int64) for c in classes]) if classes else np.zeros(0, np.int64)
    require(
        members.size == n and np.array_equal(np.sort(members), np.arange(n)),
        "the witness classes do not partition the vertex set",
    )
    labels = np.empty(n, dtype=np.int64)
    labels[members] = np.repeat(np.arange(len(classes)), [len(c) for c in classes])
    return labels


def check_coloring(edges: np.ndarray, n: int, classes, pattern_edges, surjective: bool = False) -> None:
    """The classes color the host by the pattern.

    ``pattern_edges`` are multiplicity vectors.  Reports list classes in an
    order of their own, so some bijection of classes onto pattern vertices
    must send every host edge's class counts to a pattern edge.
    """
    l = len(pattern_edges[0])
    require(len(classes) == l, f"{len(classes)} classes for a pattern on {l} vertices")
    labels = _labels_of(classes, n)
    if surjective:
        require(all(len(c) for c in classes), "a class is empty in a surjective coloring")
    # Each edge's class counts, read as the digits of one base-(r+1) number.
    base = edges.shape[1] + 1
    codes = np.unique((base ** labels[edges]).sum(axis=1))
    signatures = (codes[:, None] // base ** np.arange(l)) % base
    allowed = {tuple(int(x) for x in e) for e in pattern_edges}
    for perm in itertools.permutations(range(l)):
        mapped = np.zeros_like(signatures)
        mapped[:, list(perm)] = signatures
        if all(tuple(int(x) for x in row) in allowed for row in mapped):
            return
    raise CheckFailed("no relabeling of the classes colors every edge by the pattern")


def check_host_edge(edge, edges: np.ndarray, n: int) -> None:
    """``edge`` is an edge of the host with edge array ``edges``."""
    require(edge is not None and len(edge) == edges.shape[1], f"{edge!r} is not an edge of size {edges.shape[1]}")
    row = np.sort(np.asarray(edge, dtype=np.int64))
    require(len(set(row.tolist())) == len(row) and row.min() >= 0 and row.max() < n, f"{edge!r} is not a vertex set of the host")
    code = int(row @ (n ** np.arange(len(row) - 1, -1, -1, dtype=np.int64)))
    codes = edge_codes(edges, n)
    at = int(np.searchsorted(codes, code))
    require(at < len(codes) and codes[at] == code, f"{edge!r} is not a host edge")


def check_embedding(embedding: dict, small_edges: np.ndarray, small_n: int, host_edges: np.ndarray, host_n: int) -> None:
    """An injective map of the small graph's vertices sending every small
    edge to a host edge."""
    require(embedding is not None, "no embedding given")
    image = {int(k): int(v) for k, v in embedding.items()}
    require(sorted(image) == list(range(small_n)), "the embedding does not map every vertex")
    require(len(set(image.values())) == small_n, "the embedding is not injective")
    for e in small_edges:
        check_host_edge([image[int(v)] for v in e], host_edges, host_n)


def check_value(value, exact: Fraction, what: str) -> None:
    require(isinstance(value, (int, float)), f"{what} is {value!r}, not a number")
    require(abs(value - float(exact)) <= VALUE_TOL, f"{what} = {value!r}, expected {exact} within {VALUE_TOL}")


def check_digests(report: dict, texts: dict[str, str]) -> None:
    """Every input digest in the report is the SHA-256 of that input."""
    digests = report.get("input_digests", {})
    for name, text in texts.items():
        require(digests.get(name) == sha256_text(text), f"input digest of {name!r} does not match its text")
