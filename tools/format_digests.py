"""Print one SHA-256 per case of a fixed corpus of edge-list texts, so that
two versions of ``linkclust.formats`` can be shown to write and read the
same bytes with one command each:

    PYTHONPATH=src python3 tools/format_digests.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python3 tools/format_digests.py > old.txt
    diff old.txt new.txt

The cases are ``serialize_hypergraph`` texts (hosts where every vertex
occurs and hosts with unused vertices, vertex counts at digit boundaries,
empty, generated, thinned and joined hosts, r = 2 to 5), the files that
``gen --out`` writes and the text ``gen`` prints, and parse outcomes: the
graph's r, n and edge array, or the error's class, line and message, for
the serializer's layout texts, each with and without its final LF, for
every one-edit variant of them (``one_edits``), and the reports of
``decide kcolor`` and ``cluster`` on one host spelled with LF, CRLF and
lone CR line breaks, a UTF-8 comment, a Latin-1 comment and a BOM, read
from a file and from stdin (``reports``).  Each line is the digest and the
case's name; the last line is the digest of all the others.  The corpus
uses the public API and ``run_cli`` only, and runs in a few seconds.

``tests/test_formats_bulk.py`` parses ``layout_graphs`` and ``one_edits``
and serializes ``serialized_hosts``, so the tests and the digests cover
one corpus: change them with the tests in mind.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import linkclust
from linkclust import (
    Hypergraph,
    Pattern,
    catalog,
    delete_random_edges,
    join_construction,
    parse_hypergraph,
    pattern_blowup,
    serialize_hypergraph,
    serialize_pattern,
    turan_graph,
)
from linkclust.cli import run_cli


def layout_graphs() -> list[Hypergraph]:
    """Hosts whose serializer texts are parsed, each also without its final
    LF: r = 2, 3 and 4, with m = 0 and n = 0 among them."""
    return [
        turan_graph(7, 3),
        Hypergraph(2, 12, [(0, 11), (3, 10), (10, 11)]),
        Hypergraph(2, 5, []),
        Hypergraph(2, 0, []),
        catalog("fano"),
        Hypergraph(3, 4, []),
        catalog("generalized_triangle", r=4),
        Hypergraph(4, 0, []),
    ]


def one_edits(text: str) -> list[str]:
    """Each one-edit mutation of a serializer text, at every line: a
    leading, trailing or doubled blank, a tab, CRLF, a blank line, a
    comment, header m +- 1, header r = 1, a missing token, leading zeros, a
    sign and a 20-digit token."""
    ends = text.endswith("\n")
    lines = text.split("\n")[: -1 if ends else None]

    def joined(new: list[str], brk: int = -1) -> str:
        out = "".join(line + ("\r\n" if i == brk else "\n") for i, line in enumerate(new))
        return out if ends else out[:-1]

    r, n, m = lines[0].split()
    variants = [
        joined([f"{r} {n} {int(m) + d}", *lines[1:]]) for d in (-1, 1)
    ] + [joined([f"1 {n} {m}", *lines[1:]])]
    for i, line in enumerate(lines):
        first = line.split(" ", 1)[0]
        edits = [
            " " + line,
            line + " ",
            line.replace(" ", "  ", 1),
            line.replace(" ", "\t", 1),
            line + " # c",
            line.rsplit(" ", 1)[0],
            "0" + line,
            "+" + line,
            "-" + line,
            "9" * 20 + line[len(first) :],
            first.zfill(20) + line[len(first) :],
        ]
        variants += [joined([*lines[:i], edit, *lines[i + 1 :]]) for edit in edits]
        variants.append(joined(lines, brk=i))
    for i in range(len(lines) + 1):
        variants += [joined([*lines[:i], extra, *lines[i:]]) for extra in ("", "# c")]
    return variants


def serialized_hosts() -> list[tuple[str, Hypergraph]]:
    """The hosts whose ``serialize_hypergraph`` texts are digested."""
    rng = np.random.default_rng(5)
    hosts = [
        ("turan-1200-3", turan_graph(1200, 3)),
        ("turan-12-3", turan_graph(12, 3)),
        ("fano", catalog("fano")),
        ("generalized-triangle-r4", catalog("generalized_triangle", r=4)),
        ("empty-r2-n5", Hypergraph(2, 5, [])),
        ("empty-r4-n0", Hypergraph(4, 0, [])),
        ("unused-first", Hypergraph(2, 12, [(1, 11), (3, 10), (10, 11)])),
        ("unused-last", Hypergraph(3, 12, [(0, 1, 2), (0, 5, 10)])),
        ("unused-first-and-last", Hypergraph(4, 300, [(1, 2, 3, 298), (9, 10, 99, 100)])),
        ("matching-unused-last", Hypergraph(3, 3001, rng.permutation(3000).reshape(-1, 3))),
        ("blowup-r3", pattern_blowup(Pattern.single_edge(3), [40, 41, 42])),
        ("blowup-r4", pattern_blowup(Pattern.single_edge(4), [9, 10, 11, 12])),
        ("blowup-r5", pattern_blowup(Pattern.single_edge(5), [4, 5, 6, 7, 8])),
        ("thinned-turan-300-4", delete_random_edges(turan_graph(300, 4), 5000, 7)),
        ("joined-c5", join_construction(catalog("cycle", k=5), 2, 3)),
        ("joined-turan-200-3", join_construction(turan_graph(200, 3), 3, 50)),
    ]
    for n in (10, 11, 100, 1000, 1001):
        hosts.append((f"turan-{n}-3", turan_graph(n, 3)))
        # every vertex but 0 and n - 1 in some edge
        middle = rng.permutation(np.arange(1, n - 1))[: (n - 2) // 2 * 2].reshape(-1, 2)
        hosts.append((f"unused-ends-{n}", Hypergraph(2, n, middle)))
    return hosts


def _outcome(text: str) -> bytes:
    """What ``parse_hypergraph`` makes of ``text``, as bytes."""
    try:
        graph = parse_hypergraph(text)
    except linkclust.InvalidInput as exc:
        return f"{type(exc).__name__} {getattr(exc, 'line', None)} {exc}".encode()
    head = f"{graph.r} {graph.n} {len(graph)}\n".encode("ascii")
    return head + np.ascontiguousarray(graph.edge_array, dtype=np.int64).tobytes()


def _gen_outputs(tmp: Path) -> list[tuple[str, bytes]]:
    """The files ``gen --out`` writes, and the text ``gen`` prints."""
    pattern = tmp / "pattern.txt"
    pattern.write_text(serialize_pattern(Pattern.cycle(5)), encoding="utf-8")
    graph = tmp / "graph.txt"
    graph.write_text(serialize_hypergraph(catalog("cycle", k=7)), encoding="utf-8")
    commands = {
        "gen-turan": ["turan", "--n", "300", "--l", "3"],
        "gen-turan-thinned": ["turan", "--n", "300", "--l", "3", "--delete-edges", "100", "--seed", "4"],
        "gen-turan-planted": ["turan", "--n", "60", "--l", "3", "--plant", "--seed", "2"],
        "gen-blowup": ["blowup", "--pattern", str(pattern), "--sizes", "3,4,5,6,7"],
        "gen-join": ["join", "--g", str(graph), "--q", "2", "--part-size", "3"],
        "gen-catalog-fano": ["catalog", "--name", "fano"],
    }
    outputs = []
    for name, argv in commands.items():
        out = tmp / f"{name}.txt"
        if run_cli(["gen", *argv, "--out", str(out)]) != 0:
            raise SystemExit(f"format_digests: gen {' '.join(argv)} failed")
        outputs.append((name, out.read_bytes()))
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        if run_cli(["gen", *commands["gen-turan"]]) != 0:
            raise SystemExit("format_digests: gen to stdout failed")
    outputs.append(("gen-turan-stdout", printed.getvalue().encode("utf-8")))
    return outputs


def reports(tmp: Path) -> list[tuple[str, bytes]]:
    """The reports of ``decide kcolor`` and ``cluster`` on each spelling of
    one host, from a file and from a stdin opened in Latin-1: each case is
    the exit code, the report without ``stats.wall_time_s`` and what went
    to stderr."""
    text = serialize_hypergraph(turan_graph(60, 3))
    spellings = {
        "lf": text.encode(),
        "crlf": text.replace("\n", "\r\n").encode(),
        "cr": text.replace("\n", "\r").encode(),
        "utf8-comment": ("# caf\xe9\r\n" + text).encode(),
        "latin1-comment": ("# caf\xe9\n" + text).encode("latin-1"),
        "bom": b"\xef\xbb\xbf" + text.encode(),
    }
    commands = {
        "decide-kcolor": ["decide", "kcolor", "--l", "3"],
        "cluster": ["cluster", "--l", "3", "--delta", "1/3"],
    }
    out = []
    for spelling, data in spellings.items():
        path = tmp / f"{spelling}.txt"
        path.write_bytes(data)
        for name, argv in commands.items():
            for source, host in (("file", str(path)), ("stdin", "-")):
                stdout, stderr, stdin = io.StringIO(), io.StringIO(), sys.stdin
                sys.stdin = io.TextIOWrapper(io.BytesIO(data), "latin-1")
                try:
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = run_cli([*argv, "--host", host])
                finally:
                    sys.stdin = stdin
                report = json.loads(stdout.getvalue()) if stdout.getvalue() else None
                if report is not None:
                    report.get("stats", {}).pop("wall_time_s", None)
                case = f"{code}\n{json.dumps(report, sort_keys=True)}\n{stderr.getvalue()}"
                out.append((f"report {name} {spelling} {source}", case.encode()))
    return out


def cases() -> list[tuple[str, bytes]]:
    """Every case of the corpus, as its name and the bytes digested."""
    out = [
        (f"serialize {name}", serialize_hypergraph(host).encode("ascii"))
        for name, host in serialized_hosts()
    ]
    with tempfile.TemporaryDirectory() as tmp:
        out += [(f"gen {name}", data) for name, data in _gen_outputs(Path(tmp))]
        out += reports(Path(tmp))
    big = serialize_hypergraph(turan_graph(1200, 3))
    header, rest = big.split("\n", 1)
    refused = f"2 1200 {int(header.split()[2]) + 1}\n{rest}0 400\n"  # a duplicate last line
    out += [("parse turan-1200-3", _outcome(big)), ("parse turan-1200-3-duplicate", _outcome(refused))]
    for graph in layout_graphs():
        full = serialize_hypergraph(graph)
        for end, text in (("", full), ("-no-final-lf", full[:-1])):
            name = f"r{graph.r}-n{graph.n}-m{len(graph)}{end}"
            out.append((f"parse {name}", _outcome(text)))
            variants = b"\n".join(_outcome(v) for v in one_edits(text))
            out.append((f"parse {name} one-edits", variants))
    return out


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    print(f"linkclust from {Path(linkclust.__file__).parent}", file=sys.stderr)
    lines = [f"{hashlib.sha256(data).hexdigest()}  {name}" for name, data in cases()]
    lines.append(f"{hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}  all")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
