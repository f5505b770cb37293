"""Text formats for hypergraphs and patterns, and the JSON run report.

Hypergraph edge-list format: a header line ``r n m`` followed by m lines of
r distinct 0-based vertex indices separated by whitespace.  Pattern format:
a header line ``r l m`` followed by m lines of r vertex labels in ``1..l``,
with repetition denoting multiplicity.  ``#`` starts a comment anywhere on a
line; blank lines are ignored.  Serialization is canonical, so parse and
serialize round-trip exactly.

Well-formed hypergraph text is parsed in bulk: numpy counts the tokens of
each line from the bytes, one ``np.array(text.split(), dtype=np.int64)``
converts every token, and the ``Hypergraph`` constructor checks ranges,
repeated vertices and duplicate edges on the whole array.  The line loop
``_parse_hypergraph_lines`` is the reference parser.  It runs only when the
bulk path declines an input (any error, and the rare texts the bulk path
does not handle: non-ASCII text, line breaks other than LF and CRLF, and
integers beyond int64), and it locates the offending line.  Serialization
formats the whole edge array at once.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import IO

import numpy as np

from .errors import DuplicateEdge, IndexOutOfRange, InvalidInput, ParseError
from .hypergraph import Hypergraph, Partition
from .patterns import Pattern

TOOL_NAME = "linkclust"
TOOL_VERSION = "0.1.0"
REPORT_SCHEMA_VERSION = 1

__all__ = [
    "TOOL_NAME",
    "TOOL_VERSION",
    "REPORT_SCHEMA_VERSION",
    "parse_hypergraph",
    "serialize_hypergraph",
    "parse_pattern",
    "serialize_pattern",
    "partition_classes_sorted",
    "build_report",
    "dump_report",
    "sha256_digest",
]


def _content_lines(source: str | IO[str]) -> list[tuple[int, str]]:
    text = source if isinstance(source, str) else source.read()
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _parse_header(lines: list[tuple[int, str]], kind: str) -> tuple[int, int, int]:
    if not lines:
        raise ParseError(1, f"empty {kind} input")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(lineno, f"header must be 3 integers, got {header!r}")
    try:
        a, b, m = (int(p) for p in parts)
    except ValueError:
        raise ParseError(lineno, f"header must be 3 integers, got {header!r}") from None
    if m < 0:
        raise ParseError(lineno, "edge count must be nonnegative")
    if len(lines) - 1 != m:
        raise ParseError(
            lines[-1][0],
            f"header declares {m} edges but {len(lines) - 1} edge lines follow",
        )
    return a, b, m


def parse_hypergraph(source: str | IO[str]) -> Hypergraph:
    """Parse the edge-list format; malformed lines raise with line numbers."""
    text = source if isinstance(source, str) else source.read()
    hypergraph = _parse_hypergraph_bulk(text)
    return hypergraph if hypergraph is not None else _parse_hypergraph_lines(text)


# Line breaks of ``str.splitlines`` and whitespace of ``str.split`` in ASCII
# other than LF, CRLF, space and tab: a text holding one is left to the line
# loop, so the bulk path never has to agree with Python on them.
_RARE_SEPARATORS = re.compile(r"[\r\x0b\x0c\x1c-\x1f]")
_COMMENT = re.compile(r"#[^\n]*")


def _parse_hypergraph_bulk(text: str) -> Hypergraph | None:
    """The graph of a well-formed text, or None to defer to the line loop.

    Returns a graph exactly when ``_parse_hypergraph_lines`` returns the
    same graph; every error, and every text it does not handle, is None.
    """
    if not text.isascii():
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if _RARE_SEPARATORS.search(text):
        return None
    if "#" in text:
        text = _COMMENT.sub("", text)
    # tokens per line, counted from the bytes: a token starts at byte 0
    # (unless it is blank) and at each non-blank byte after a blank one
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    blank = (raw == 32) | (raw == 9) | (raw == 10)
    first = int(raw.size > 0 and not blank[0])
    blank_before_token = np.flatnonzero(blank[:-1] & ~blank[1:])
    before = np.searchsorted(blank_before_token, np.flatnonzero(raw == 10)) + first
    per_line = np.diff(before, prepend=0, append=blank_before_token.size + first)
    per_line = per_line[per_line > 0]
    del raw, blank, blank_before_token, before  # freed before the token list exists
    if per_line.size == 0 or per_line[0] != 3:
        return None
    try:
        values = np.array(text.split(), dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    r, n, m = (int(v) for v in values[:3])
    # r < 2 and r > 62 (past the 64-bit encoding) are the constructor's errors
    # too, but a reshape to r <= 0 or to 2**60 or more columns fails first
    if not 2 <= r <= 62 or m != per_line.size - 1 or np.any(per_line[1:] != r):
        return None
    try:
        return Hypergraph(r, n, values[3:].reshape(m, r))
    except InvalidInput:
        return None


def _parse_hypergraph_lines(source: str | IO[str]) -> Hypergraph:
    """The reference parser: one line at a time, naming the first bad line."""
    lines = _content_lines(source)
    r, n, _ = _parse_header(lines, "hypergraph")
    if r < 2:
        raise ParseError(lines[0][0], f"uniformity must be at least 2, got {r}")
    if n < 0:
        raise ParseError(lines[0][0], "vertex count must be nonnegative")
    seen: dict[tuple[int, ...], int] = {}
    edges = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != r:
            raise ParseError(lineno, f"expected {r} vertices, got {len(parts)}")
        try:
            verts = tuple(int(p) for p in parts)
        except ValueError:
            raise ParseError(lineno, f"non-integer vertex in {line!r}") from None
        for v in verts:
            if v < 0 or v >= n:
                raise IndexOutOfRange(lineno, f"vertex {v} outside [0, {n})")
        key = tuple(sorted(verts))
        if len(set(key)) != r:
            raise ParseError(lineno, f"repeated vertex in edge {line!r}")
        if key in seen:
            raise DuplicateEdge(
                lineno, f"edge {line!r} duplicates line {seen[key]}"
            )
        seen[key] = lineno
        edges.append(key)
    return Hypergraph(r, n, edges)


def serialize_hypergraph(hypergraph: Hypergraph) -> str:
    edges = hypergraph.edge_array
    header = f"{hypergraph.r} {hypergraph.n} {len(edges)}\n"
    line = " ".join(["%d"] * hypergraph.r) + "\n"
    return header + (line * len(edges)) % tuple(edges.ravel().tolist())


def parse_pattern(source: str | IO[str]) -> Pattern:
    """Parse the pattern format (1-based labels, repetition = multiplicity)."""
    lines = _content_lines(source)
    r, num_vertices, _ = _parse_header(lines, "pattern")
    if r < 1:
        raise ParseError(lines[0][0], f"uniformity must be positive, got {r}")
    if num_vertices < 1:
        raise ParseError(lines[0][0], "vertex count must be positive")
    seen: dict[tuple[int, ...], int] = {}
    multisets = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != r:
            raise ParseError(lineno, f"expected {r} labels, got {len(parts)}")
        try:
            labels = tuple(int(p) for p in parts)
        except ValueError:
            raise ParseError(lineno, f"non-integer label in {line!r}") from None
        for v in labels:
            if v < 1 or v > num_vertices:
                raise IndexOutOfRange(lineno, f"label {v} outside [1, {num_vertices}]")
        key = tuple(sorted(labels))
        if key in seen:
            raise DuplicateEdge(lineno, f"edge {line!r} duplicates line {seen[key]}")
        seen[key] = lineno
        multisets.append(tuple(v - 1 for v in labels))
    return Pattern.from_multisets(r, num_vertices, multisets)


def serialize_pattern(pattern: Pattern) -> str:
    lines = [f"{pattern.r} {pattern.num_vertices} {len(pattern.edges)}"]
    for mult in pattern.edges:
        labels = []
        for v, count in enumerate(mult):
            labels.extend([v + 1] * count)
        lines.append(" ".join(str(v) for v in labels))
    return "\n".join(lines) + "\n"


def partition_classes_sorted(partition: Partition) -> list[list[int]]:
    """Classes as sorted lists, ordered by smallest member; empties last."""
    classes = [sorted(c) for c in partition.classes]
    return sorted(classes, key=lambda c: (not c, c[0] if c else -1))


def sha256_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_report(
    command: str,
    params: dict,
    inputs: dict[str, str],
    verdict: str | None = None,
    witness: Partition | None = None,
    stats: dict | None = None,
    results: dict | None = None,
    seed: int | None = None,
) -> dict:
    """Assemble the machine-readable run report.

    ``inputs`` maps input names to their serialized text; digests are stored
    rather than the texts.  The report is JSON-serializable and, except for
    wall-time entries inside ``stats``, deterministic for a given run.
    """
    report: dict = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "tool_version": TOOL_VERSION,
        "command": command,
        "params": params,
        "input_digests": {k: sha256_digest(v) for k, v in sorted(inputs.items())},
    }
    if seed is not None:
        report["seed"] = seed
    if verdict is not None:
        report["verdict"] = verdict
    if witness is not None:
        report["witness"] = {"classes": partition_classes_sorted(witness)}
    if stats is not None:
        report["stats"] = stats
    if results is not None:
        report["results"] = results
    return report


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=_shim) + "\n"


def _shim(obj):
    if isinstance(obj, (tuple, set, frozenset)):
        return list(obj)
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")
