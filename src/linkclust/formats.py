"""Text formats for hypergraphs and patterns, and the JSON run report.

Hypergraph edge-list format: a header line ``r n m`` followed by m lines of
r distinct 0-based vertex indices separated by whitespace.  Pattern format:
a header line ``r l m`` followed by m lines of r vertex labels in ``1..l``,
with repetition denoting multiplicity.  ``#`` starts a comment anywhere on a
line; blank lines are ignored.  Serialization is canonical, so parse and
serialize round-trip exactly.

Hypergraph text is parsed in bulk.  A text in the layout that
``serialize_hypergraph`` writes (ASCII, the header then one line of r
digit tokens per edge, each separator one space or LF) is recognized by
one ``bytes.translate`` that deletes the digits and a count of the tokens,
and goes straight to ``np.fromstring`` and the constructor.  When the
constructor refuses such a text, its values are kept and one search for LF
finds its lines, since row j is on line j + 2; the rows that may be bad are
then checked as below.  Every other text takes the structure pass below,
which finds the lines and names the bad one.

The structure pass works on the text's bytes, one byte per character:
CRLF becomes `` \\n``, the other line breaks and whitespace of ``str`` become
LF and space, and any other non-ASCII character ``?``, so offsets and line
numbers stay the text's.  One ``bytes.translate`` looks up the class of
every byte.  A byte is an event when it is an LF, or a token byte at byte 0
or after a blank: the LF events are the line breaks, the events between two
of them are the tokens of one line, so one array of event offsets gives
both.  One ``np.fromstring`` converts every token, with no Python string per
token.  An odd line, one with a byte that is neither a digit nor a blank
(a ``+``, ``-``, ``_`` or ``?``), is read by ``int()`` from the text and its
values spliced into the array; the bytes are searched for such a line only
when the largest byte class shows one may be there.  The ``Hypergraph``
constructor checks ranges, repeated vertices and duplicate edges on the
whole array.  When a check fails, the lines the arrays mark as possibly bad
are checked one by one in order, so the error names the same line, with the
same message, as the reference line loop in ``tests/helpers.py``.
Serialization gathers the text from a byte table: each vertex that occurs
in an edge gets its digits followed by a space and by a newline, and one
``take`` by the edge array, ``tobytes`` and the removal of the NUL padding
write every line, with no Python object per edge, value or vertex.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Sequence
from typing import IO

import numpy as np

from .errors import DuplicateEdge, IndexOutOfRange, InvalidInput, ParseError
from .hypergraph import Hypergraph, Partition
from .patterns import Pattern

TOOL_NAME = "linkclust"
TOOL_VERSION = "0.1.0"
REPORT_SCHEMA_VERSION = 2

__all__ = [
    "parse_hypergraph",
    "serialize_hypergraph",
    "parse_pattern",
    "serialize_pattern",
    "build_report",
]


def _content_lines(source: str | IO[str]) -> list[tuple[int, str]]:
    text = source if isinstance(source, str) else source.read()
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _parse_header(lines: Sequence[tuple[int, str]], kind: str) -> tuple[int, int, int]:
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


def _hypergraph_header(lines: Sequence[tuple[int, str]]) -> tuple[int, int, int]:
    r, n, m = _parse_header(lines, "hypergraph")
    if r < 2:
        raise ParseError(lines[0][0], f"uniformity must be at least 2, got {r}")
    if n < 0:
        raise ParseError(lines[0][0], "vertex count must be nonnegative")
    return r, n, m


def _edge_key(
    lineno: int, line: str, r: int, n: int, seen: dict[tuple[int, ...], int]
) -> tuple[int, ...]:
    """The sorted vertices of one edge line, entered in ``seen``; raises the
    line's error (token count, integer, range, repeated vertex, duplicate
    of an earlier line in ``seen``, in that order)."""
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
        raise DuplicateEdge(lineno, f"edge {line!r} duplicates line {seen[key]}")
    seen[key] = lineno
    return key


# Byte classes, looked up for every byte with one ``bytes.translate``.
# ``_ascii_bytes`` rewrites RARE: the ASCII line breaks of ``str.splitlines``
# other than LF and CRLF, and the ASCII whitespace of ``str.split`` other
# than space and tab.  OTHER holds every remaining byte: ``#`` (comments
# are cut out first) and the signs, underscores and bad bytes that make a
# line odd, since a line with a byte that is neither a digit nor a blank is
# read by ``int()``.
_DIGIT, _BLANK, _LF, _OTHER, _RARE = range(5)
_CLASS_OF = {
    **dict.fromkeys(b"0123456789", _DIGIT),
    **dict.fromkeys(b" \t", _BLANK),
    ord("\n"): _LF,
    **dict.fromkeys(b"\r\x0b\x0c\x1c\x1d\x1e\x1f", _RARE),
}
_BYTE_CLASS = bytes(_CLASS_OF.get(b, _OTHER) for b in range(256))
# The line breaks of ``str.splitlines`` other than LF and CRLF, and the
# whitespace of ``str.split`` that is neither a line break, a space nor a tab.
_BREAK = re.compile("[\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
_SPACE = re.compile("[\x1f\xa0\u1680\u2000-\u200a\u202f\u205f\u3000]")
_COMMENT = re.compile(rb"#[^\n]*")
_INT64_MIN, _INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def _byte_classes(data: bytes) -> np.ndarray:
    return np.frombuffer(data.translate(_BYTE_CLASS), dtype=np.uint8)


def _ascii_bytes(text: str, data: bytes | None) -> tuple[bytes, np.ndarray, int]:
    """The text as one byte per character, the class of each byte, and the
    largest class; ``data`` is the text's ASCII encoding, or None when the
    text is not ASCII.

    CRLF becomes `` \\n``, every other line break of ``str.splitlines`` LF,
    every other whitespace of ``str.split`` a space, and every other
    non-ASCII character ``?``.  Offsets and line numbers stay the text's."""
    if data is not None:
        if b"\r" in data:
            data = data.replace(b"\r\n", b" \n")
        cls = _byte_classes(data)
        top = int(cls.max(initial=0))
        if top < _RARE:
            return data, cls, top
    text = _BREAK.sub("\n", text.replace("\r\n", " \n"))
    data = _SPACE.sub(" ", text).encode("ascii", "replace")
    cls = _byte_classes(data)
    return data, cls, int(cls.max(initial=0))


class _Lines(Sequence[tuple[int, str]]):
    """The ``_content_lines`` of a text, made on demand: ``(line number,
    stripped text)`` for each line that holds a token."""

    def __init__(self, text: str, breaks: np.ndarray, content: np.ndarray):
        self._text = text
        self._breaks = breaks  # offsets of the line breaks
        self._content = content  # 0-based indices of the lines with tokens

    def __len__(self) -> int:
        return self._content.size

    def __getitem__(self, j):
        i = int(self._content[j])
        start = int(self._breaks[i - 1]) + 1 if i else 0
        end = int(self._breaks[i]) if i < self._breaks.size else len(self._text)
        return i + 1, self._text[start:end].split("#", 1)[0].strip()


def _serializer_layout(data: bytes) -> tuple[int, int, np.ndarray] | None:
    """``(r, n, rows)`` when the ASCII text ``data`` has the layout that
    ``serialize_hypergraph`` writes, else None: the header ``r n m``, then m
    lines of r tokens, every token plain digits and every separator one
    space or the LF ending a line (the last LF may be missing).

    The digits deleted, the text must leave ``"  \\n"`` and m times r - 1
    spaces and an LF.  The header is checked against that length before
    anything is sized from it.  When ``np.fromstring`` then finds one token
    per separator, or one more without a final LF, no two separators touch:
    no token is empty, so no line is blank, odd or short."""
    nl = data.find(b"\n")
    try:  # three tokens, each an int
        r, n, m = map(int, data[: nl if nl >= 0 else len(data)].split())
    except ValueError:
        return None
    seps = data.translate(None, b"0123456789")
    tokens = len(seps) + (not data.endswith(b"\n"))
    if r < 2 or r * m + 3 != tokens:  # so r <= len(seps) when m > 0
        return None
    line = b" " * (r - 1) + b"\n" if m else b""
    if not (b"  \n" + line * m).startswith(seps):
        return None
    del seps
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    if values.size != tokens:
        return None
    return r, n, values[3:].reshape(m, r) if m else values[3:3]


def _suspect_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Indices, in order, of the edge rows the line loop might reject: a
    superset of the bad rows that holds every row equal (as a sorted key) to
    another.  Values beyond int64 read as its bounds, so a row holding
    ``2**63 - 1`` may be in range when n is larger, and such rows may compare
    equal here while their texts differ; the exact checks sort that out."""
    keys = np.sort(rows, axis=1)
    suspect = (keys[:, 0] < 0) | (keys[:, -1] >= min(n, _INT64_MAX))
    suspect |= (keys[:, 1:] == keys[:, :-1]).any(axis=1)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    same = (keys[1:] == keys[:-1]).all(axis=1)
    suspect[order[1:][same]] = True
    suspect[order[:-1][same]] = True
    return np.flatnonzero(suspect)


def parse_hypergraph(source: str | IO[str]) -> Hypergraph:
    """Parse the edge-list format; malformed lines raise with line numbers.

    A bad text raises the error of its first bad line, with the class, line
    and message of the line loop in ``tests/helpers.py``.  Python objects
    are made only for the header, for the lines ``int()`` must read, and for
    the lines that may be bad."""
    text = source if isinstance(source, str) else source.read()
    data = text.encode("ascii") if text.isascii() else None
    layout = _serializer_layout(data) if data is not None else None
    if layout is not None:
        r, n, rows = layout
        try:
            return Hypergraph(r, n, rows)
        except InvalidInput as exc:
            error = exc.with_traceback(None)  # frees the constructor's arrays
        # every line of the layout holds r tokens: row j is on line j + 2
        breaks = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
        _raise_first_bad_line(_Lines(text, breaks, np.arange(len(rows) + 1)), r, n, rows, [], error)
    data, cls, top = _ascii_bytes(text, data)
    text_breaks = None  # the breaks of the text itself, when comments are cut
    if top >= _OTHER and b"#" in data:
        text_breaks = np.flatnonzero(cls == _LF)
        data = _COMMENT.sub(b"", data)
        cls = _byte_classes(data)
    odd = np.flatnonzero(cls == _OTHER) if top >= _OTHER else np.empty(0, np.intp)
    if odd.size:  # converted as zeros, and read by int() from the text below
        data = bytearray(data)
        np.frombuffer(data, dtype=np.uint8)[odd] = ord("0")
        data = bytes(data)
        cls = _byte_classes(data)
    # the events: the LFs, and each token byte at byte 0 or after a blank;
    # the tokens of a line are the events between its two LF events
    token = cls == _DIGIT
    events = cls == _LF
    events[:1] |= token[:1]
    events[1:] |= token[1:] > token[:-1]
    del token
    events = np.flatnonzero(events)
    lf = np.flatnonzero(cls.take(events) == _LF)
    del cls
    breaks = events.take(lf)
    per_line = np.diff(lf, prepend=-1, append=events.size) - 1
    del events, lf
    if odd.size:  # the lines of the odd bytes
        odd = np.flatnonzero(np.bincount(np.searchsorted(breaks, odd)))
    content = np.flatnonzero(per_line)
    lines = _Lines(text, breaks if text_breaks is None else text_breaks, content)
    r, n, m = _hypergraph_header(lines)  # raises on an empty text
    wrong = np.flatnonzero(per_line[content[1:]] != r)
    del per_line
    good = int(wrong[0]) if wrong.size else m  # edge lines before a miscounted one
    # "  " would read as [0]: an empty text never gets here
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    rows = values[3 : 3 + good * r].reshape(good, r) if good else values[3:3]
    failed = []  # the odd rows int() rejects
    for j in (np.searchsorted(content, odd) - 1).tolist():  # the header is row -1
        try:
            if 0 <= j < good:
                ints = [int(v) for v in lines[j + 1][1].split()]
                rows[j] = ints
        except ValueError:
            failed.append(j)
        except OverflowError:  # beyond int64: clipped, as np.fromstring saturates
            rows[j] = [min(max(v, _INT64_MIN), _INT64_MAX) for v in ints]
    error = None
    if good == m and not failed:
        try:
            return Hypergraph(r, n, rows)
        except InvalidInput as exc:
            error = exc.with_traceback(None)
    _raise_first_bad_line(lines, r, n, rows, failed, error)


def _raise_first_bad_line(lines: _Lines, r: int, n: int, rows: np.ndarray, failed: list, error) -> None:
    """Raise the error of the first bad edge line, as the line loop does.
    ``rows`` holds the values of the edge lines before the first one with a
    wrong token count, if any; ``failed`` the rows ``int()`` rejects, and
    ``error`` what the constructor raised on the rows.  Only the lines the
    arrays mark as possibly bad are checked, in order; when none is bad,
    ``error`` is raised, as the line loop's constructor raises it too."""
    good = len(rows)
    suspects = sorted({*_suspect_rows(rows, n).tolist(), *failed}) if good else []
    if good < len(lines) - 1:
        suspects.append(good)  # the first miscounted line, which raises
    seen: dict[tuple[int, ...], int] = {}
    for j in suspects:
        _edge_key(*lines[j + 1], r, n, seen)
    raise error


def serialize_hypergraph(hypergraph: Hypergraph) -> str:
    edges = hypergraph.edge_array
    header = f"{hypergraph.r} {hypergraph.n} {len(edges)}\n".encode("ascii")
    used = np.flatnonzero(hypergraph.degrees())
    if not used.size:
        return header.decode("ascii")
    # Two NUL-padded entries per used vertex: its digits, then " " in the
    # first half of the table and "\n" in the second.  The digits are right
    # aligned, one divmod pass per column; a column left of the leading digit
    # sums to 0 + 0, a NUL, and the units column shows even for vertex 0.
    u, d = used.size, len(str(int(used[-1])))
    table = np.zeros((2, u, d + 1), dtype=np.uint8)
    x = used
    for col in range(d - 1, -1, -1):
        lead = 48 * (x > 0) if col < d - 1 else 48
        x, digit = np.divmod(x, 10)
        table[0, :, col] = digit + lead
    table[1] = table[0]
    table[0, :, d] = ord(" ")
    table[1, :, d] = ord("\n")
    rank = np.zeros(hypergraph.n, dtype=edges.dtype)  # 2u fits the edge dtype
    rank[used] = np.arange(u, dtype=edges.dtype)
    idx = rank[edges]
    del rank
    idx[:, -1] += u
    body = table.view(f"S{d + 1}").reshape(2 * u).take(idx)
    del idx
    return (header + body.data).translate(None, b"\0").decode("ascii")


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
    return Pattern(r, num_vertices, multisets)


def serialize_pattern(pattern: Pattern) -> str:
    """The pattern format: the header, then one line per edge in increasing
    edge order, each listing its 1-based labels in increasing order."""
    lines = [f"{pattern.r} {pattern.num_vertices} {len(pattern.edges)}"]
    lines.extend(" ".join(str(v + 1) for v in e) for e in pattern.edges)
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
    if isinstance(obj, (set, frozenset)):
        return list(obj)
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")
