"""The bulk edge-list parser and serializer against their line-by-line
references: the same graphs, the same errors, the same bytes."""

import io
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkclust import (
    DuplicateEdge,
    Hypergraph,
    IndexOutOfRange,
    ParseError,
    catalog,
    parse_hypergraph,
    serialize_hypergraph,
    turan_graph,
)
from linkclust import formats
from linkclust.cli import run_cli
from helpers import load_tool, reference_parse_hypergraph

# Line breaks and token separators as the writers of edge lists use them, and
# the rarer ones of ``str.splitlines`` and ``str.split`` (a rare separator may
# be a line break inside an edge line).
PLAIN_BREAKS = ["\n", "\r\n"]
RARE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029"]
PLAIN_BLANKS = [" ", "  ", "\t", " \t"]
RARE_BLANKS = ["\x1f", "\xa0", "\u3000", "\r", "\x0c"]
NON_ASCII_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))

FAULTS = [
    None,
    "header_short",
    "header_long",
    "edge_count",
    "uniformity",
    "vertex_count",
    "short_line",
    "long_line",
    "out_of_range",
    "negative",
    "repeated",
    "duplicate",
    "non_integer",
    "huge",
]


def _corrupt(draw, rows: list[list], fault: str | None) -> bool:
    """Apply ``fault`` to the token rows in place; False if it cannot apply."""
    body = range(1, len(rows))
    if fault is None:
        return False
    if fault == "header_short":
        rows[0].pop()
    elif fault == "header_long":
        rows[0].append(draw(st.integers(0, 3)))
    elif fault == "edge_count":
        rows[0][2] += draw(st.sampled_from([-2, -1, 1, 2]))
    elif fault == "uniformity":
        rows[0][0] = draw(st.sampled_from([-1, 0, 1]))
    elif fault == "vertex_count":
        rows[0][1] = -1
    elif fault == "huge":
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(st.sampled_from([2**63, 10**20, -(2**63) - 1]))
    elif not body:
        return False
    else:
        i = draw(st.sampled_from(body))
        j = draw(st.integers(0, len(rows[i]) - 1))
        if fault == "short_line":
            rows[i].pop()
        elif fault == "long_line":
            rows[i].append(rows[i][0])
        elif fault == "out_of_range":
            rows[i][j] = rows[0][1] + draw(st.integers(0, 2))
        elif fault == "negative":
            rows[i][j] = -1
        elif fault == "repeated":
            rows[i][j] = rows[i][j - 1]
        elif fault == "non_integer":
            rows[i][j] = draw(st.sampled_from(["x", "1.0", "1e0", "0x1", "--1", "1?2"]))
        elif fault == "duplicate":
            at = draw(st.integers(i + 1, len(rows)))
            rows.insert(at, list(draw(st.permutations(rows[i]))))
            rows[0][2] += 1
    return True


@st.composite
def edge_list_texts(draw):
    """A text in the edge-list format spelled in the ways the format allows
    (comments, blank lines, CRLF and rarer line breaks, tabs, ``+``, ``-0``
    and leading zeros, non-ASCII digits, non-ASCII comments), possibly with
    one fault.

    Returns ``(text, graph)``: ``graph`` is the encoded hypergraph when the
    text has no fault, else None.
    """
    n = draw(st.integers(0, 7))
    r = draw(st.integers(2, max(2, min(4, n))))
    pool = list(itertools.combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=8)) if pool else []
    rows = [[r, n, len(edges)]] + [list(draw(st.permutations(e))) for e in edges]
    faulty = _corrupt(draw, rows, draw(st.sampled_from(FAULTS)))
    rare = draw(st.booleans())  # whether rare spellings may occur at all

    def spell(token) -> str:
        text = str(token)
        ways = ["plain", "plain", "plus", "zero", "underscore", "minus"] + ["non_ascii"] * rare
        how = draw(st.sampled_from(ways))
        if how == "plus":
            return "+" + text
        if how == "zero":
            return "0" + text
        if how == "underscore":
            return "0_" + text
        if how == "minus" and token == 0:
            return "-0"
        if how == "non_ascii":
            return text.translate(NON_ASCII_DIGITS)
        return text

    def pick(usual: list[str], unusual: list[str]) -> str:
        if rare and draw(st.integers(0, 4)) == 4:
            return draw(st.sampled_from(unusual))
        return draw(st.sampled_from(usual))

    lines = []
    for row in rows:
        while draw(st.integers(0, 4)) == 4:
            lines.append(draw(st.sampled_from(["", "   ", "# note", "\t# 0 1 2"])))
        blank = pick(PLAIN_BLANKS, RARE_BLANKS)
        faulty = faulty or (blank in RARE_BREAKS and len(row) > 1)
        line = blank.join(spell(t) for t in row)
        if draw(st.booleans()):
            line = draw(st.sampled_from(["", " ", "\t"])) + line + " "
        if draw(st.integers(0, 3)) == 3:
            rare_comments = ["# \xe9", "# \U0001f600"] * rare  # UCS-1 and UCS-4 text
            line += draw(st.sampled_from(["# edge", "#1 2 3", "##", *rare_comments]))
        lines.append(line)
    text = "".join(line + pick(PLAIN_BREAKS, RARE_BREAKS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    graph = None if faulty else Hypergraph(r, n, edges)
    return text, graph


def _no_structure_pass(*args, **kwargs):
    raise AssertionError("the line-structure pass ran on a serializer text")


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # compared whole: class, line and message
        return type(exc), getattr(exc, "line", None), str(exc)


def _peak_per_byte(text: str) -> float:
    """The ``tracemalloc`` peak of parsing ``text`` (graph or error), per
    byte of the text."""
    tracemalloc.start()
    try:
        try:
            parse_hypergraph(text)
        except ParseError:
            pass
        return tracemalloc.get_traced_memory()[1] / len(text)
    finally:
        tracemalloc.stop()


def _serialize_peak_per_byte(graph: Hypergraph) -> float:
    """The ``tracemalloc`` peak of serializing ``graph``, per byte of its
    text."""
    tracemalloc.start()
    try:
        text = serialize_hypergraph(graph)
        return tracemalloc.get_traced_memory()[1] / len(text)
    finally:
        tracemalloc.stop()


T600 = serialize_hypergraph(turan_graph(600, 3))  # 120 000 edges on 600 vertices
# a byte that keeps a text from being plain: non-ASCII, a rare break or blank
NOT_PLAIN = re.compile(r"[^\x00-\x7f]|[\x0b\x0c\x1c-\x1f]|\r(?!\n)")
INT64_BEYOND = ["9223372036854775808", "99999999999999999999", "1" + "0" * 30]

format_digests = load_tool("format_digests")
LAYOUT_TEXTS = [
    pytest.param(text, id=f"r{graph.r}-n{graph.n}-m{len(graph)}{end}")
    for graph in format_digests.layout_graphs()
    for text, end in [
        (serialize_hypergraph(graph), ""),
        (serialize_hypergraph(graph)[:-1], "-no-final-lf"),
    ]
]


class TestBulkParser:
    @given(edge_list_texts())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_line_loop(self, case):
        text, graph = case
        outcome = _outcome(parse_hypergraph, text)
        assert outcome == _outcome(reference_parse_hypergraph, text)
        assert _outcome(parse_hypergraph, text.encode()) == outcome  # its UTF-8 bytes too
        if graph is not None:
            assert outcome == graph

    def test_takes_plain_text_with_comments_crlf_and_signs(self):
        text = "# K3\r\n2 3 3\r\n\r\n+0\t1  # first\r\n00 2\r\n1 0_2\r\n"
        assert parse_hypergraph(text) == catalog("complete", n=3)
        assert parse_hypergraph(text.encode()) == catalog("complete", n=3)

    @pytest.mark.parametrize(
        "text",
        [
            "2 3 1\r0 1\r",  # lone carriage returns
            "2 3 1\n0\r1 2\n",  # a lone carriage return inside a line
            "2 3 1\x0c0 1\n",  # form feed as a line break
            "2 3 1\n0\x1f1\n",  # unit separator as a blank
            "2 3 1\n0 \u0661\n",  # non-ASCII digit
            "2 3 1\n0 99999999999999999999\n",  # beyond int64
            "2 3 1\n0 0\n",  # an error
            "2 3 1\n0 1 # caf\xe9 \U0001f600\n",  # a non-ASCII comment
            "\ufeff2 3 1\n0 1\n",  # a BOM
        ],
    )
    def test_rare_spellings_read_as_in_the_line_loop(self, text):
        expected = _outcome(reference_parse_hypergraph, text)
        assert _outcome(parse_hypergraph, text) == expected
        assert _outcome(parse_hypergraph, text.encode()) == expected

    def test_bytes_that_are_not_utf8_raise(self):
        with pytest.raises(UnicodeDecodeError):
            parse_hypergraph(b"2 3 1\n0 1 # caf\xe9\n")

    @pytest.mark.parametrize(
        "space", [chr(c) for c in range(0x110000) if chr(c).isspace()], ids=ascii
    )
    def test_every_line_break_and_blank_of_str(self, space):
        # the line breaks of str.splitlines are whitespace of str.split too
        for text in [f"2 3 1{space}0{space}1{space}", f"2 3 1\n0 1 #{space}1 2\n"]:
            expected = _outcome(reference_parse_hypergraph, text)
            assert _outcome(parse_hypergraph, text) == expected

    @pytest.mark.parametrize(
        "text, error, line, reason",
        [
            ("2 3\n", ParseError, 1, "header must be 3 integers, got '2 3'"),
            ("2 3 2\n0 1\n", ParseError, 2, "header declares 2 edges but 1 edge lines follow"),
            ("3 4 1\n0 1\n", ParseError, 2, "expected 3 vertices, got 2"),
            ("2 3 1\n\n0 3\n", IndexOutOfRange, 3, "vertex 3 outside [0, 3)"),
            ("2 3 1\n0 0\n", ParseError, 2, "repeated vertex in edge '0 0'"),
            ("2 3 2\n0 1\n# c\n1 0\n", DuplicateEdge, 4, "edge '1 0' duplicates line 2"),
            ("2 3 1\n0 x\n", ParseError, 2, "non-integer vertex in '0 x'"),
        ],
    )
    def test_errors_name_the_offending_line(self, text, error, line, reason):
        with pytest.raises(error) as exc:
            parse_hypergraph(text)
        assert type(exc.value) is error
        assert (exc.value.line, exc.value.reason) == (line, reason)

    def test_reads_a_stream(self):
        text = serialize_hypergraph(catalog("fano"))
        assert parse_hypergraph(io.StringIO(text)) == catalog("fano")

    def test_memory_stays_proportional_to_the_text(self):
        text = serialize_hypergraph(turan_graph(600, 3))
        tracemalloc.start()
        try:
            graph = parse_hypergraph(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(graph) == 120_000
        assert peak <= 30 * len(text)

    @given(edge_list_texts())
    @settings(max_examples=400, deadline=None)
    def test_names_the_line_loops_error_itself(self, case):
        # a text of plain bytes (ASCII, LF or CRLF breaks, and only digits,
        # signs, underscores and blanks outside comments) gives the line
        # loop's outcome: the graph, or the error with its class, line and
        # message; its lines with a sign or an underscore are read by int()
        text, _ = case
        outside_comments = re.sub(r"#[^\n]*", "", text)
        plain = not NOT_PLAIN.search(text)
        if plain and not re.search(r"[^0-9+_ \t\r\n]", outside_comments):
            expected = _outcome(reference_parse_hypergraph, text)
            assert _outcome(parse_hypergraph, text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            # the first bad line wins, whatever its fault
            "2 4 4\n0 1\n1 2\n0 1 2\n2 2\n",
            "2 4 4\n0 1\n1 2\n2 2\n0 1 2\n",
            "2 4 4\n0 1\n3 3\n1 0\n0 9\n",
            "2 4 4\n0 1\n0 9\n1 0\n3 3\n",
            "2 4 3\n0 1\n1 2\n0 1 2\n",
            "2 4 3\n0 1 2\n0 1\n1 0\n",
            # within a line: range (first such vertex) before repetition
            "3 4 2\n0 1 2\n7 7 5\n",
            "3 4 2\n0 1 2\n0 0 5\n",
            "3 4 2\n0 1 2\n5 9 0\n",
            # range before duplication; the duplicate names its first copy
            "2 4 4\n0 1\n1 2\n2 1\n1 0\n",
            "2 4 4\n# c\n\n0 1\n\t1 2 # x\n 2   1\n1 0\n",
            "2 4 3\n0 1\n1 2\n1 4\n",
            "2 4 3\n0 1\n1 2\n01 +0\n",
            "2 4 2\r\n1_0 1\r\n0 1\r\n",
        ],
    )
    def test_locates_errors_from_its_own_arrays(self, text):
        expected = _outcome(reference_parse_hypergraph, text)
        assert isinstance(expected, tuple)
        assert _outcome(parse_hypergraph, text) == expected

    @pytest.mark.parametrize("big", INT64_BEYOND)
    @pytest.mark.parametrize(
        "template",
        [
            "{big} 3 1\n0 1\n",  # r: a line cannot have that many vertices
            "{big} 3 0\n",  # r: too wide to encode
            "2 {big} 1\n0 1\n",  # n: too many vertices to tabulate
            "2 3 {big}\n0 1\n",  # m: not the number of edge lines
            "2 3 1\n0 {big}\n",  # an edge: out of range
            "2 3 1\n{big} +{big}\n",
            "2 {big} 1\n0 {big}\n",  # a vertex equal to n
            "2 {big} 1\n{big}0 {big}\n",
            "2 {big}0 1\n{big} {big}\n",  # in range, and repeated
            "2 {big}0 2\n1 {big}\n1 {big}1\n",  # read alike, and still distinct
            "2 {big}0 3\n1 {big}\n1 {big}1\n{big} 1\n",  # a duplicate among them
            "2 {big}0 2\n1 {big}0\n1 {big}\n",
            "2 3 1\n0 -{big}\n",  # read by int(): below int64
            "2 {big}0 1\n-0 {big}\n",  # read by int(): in range
            "2 3 1\n1 {wide}\n",  # read by int(): out of range, not the zeros converted
        ],
    )
    def test_tokens_beyond_int64_fail_as_in_the_line_loop(self, template, big):
        # np.fromstring reads every one of them as 2**63 - 1, without an error
        text = template.format(big=big, wide=big.translate(NON_ASCII_DIGITS))
        expected = _outcome(reference_parse_hypergraph, text)
        assert isinstance(expected, tuple)
        assert _outcome(parse_hypergraph, text) == expected

    def test_int64_max_itself_is_a_vertex_like_any_other(self):
        big = 2**63 - 1
        assert _outcome(parse_hypergraph, f"2 3 1\n0 {big}\n") == (
            IndexOutOfRange,
            2,
            f"line 2: vertex {big} outside [0, 3)",
        )

    @pytest.mark.parametrize(
        "text",
        ["", " ", "  \t \n\t\n   ", "# only\n#comments\n", "\n# a\n  # b", "\r\n\r\n\r\n"],
    )
    def test_a_text_without_tokens_is_empty(self, text, monkeypatch):
        # np.fromstring reads blanks as [0]: such a text must never reach it
        def no_conversion(*args, **kwargs):
            raise AssertionError("np.fromstring called on a text without tokens")

        monkeypatch.setattr(np, "fromstring", no_conversion)
        expected = (ParseError, 1, "line 1: empty hypergraph input")
        assert _outcome(reference_parse_hypergraph, text) == expected
        assert _outcome(parse_hypergraph, text) == expected

    @pytest.mark.parametrize(
        "token, valid",
        [
            ("++1", False),
            ("1+2", False),
            ("+_1", False),
            ("_1", False),
            ("1_", False),
            ("0__1", False),
            ("+0", True),
            ("0_2", True),
            ("1_0", True),
            ("-0", True),
            ("x+1", False),
            ("-+1", False),
        ],
    )
    def test_signs_and_underscores_as_int_reads_them(self, token, valid):
        texts = [f"2 11 1\n{token} 1\n", f"2 11 1\n1 {token}\n", f"2 11 1\n1\t{token}"]
        for text in texts:
            expected = _outcome(reference_parse_hypergraph, text)
            assert _outcome(parse_hypergraph, text) == expected
            assert isinstance(expected, Hypergraph) == valid

    @pytest.mark.parametrize("text", ["2 3 1\n0 1 +", "2 3 1\n0 1\n+", "+"])
    def test_a_plus_at_the_end_of_the_text(self, text):
        assert _outcome(parse_hypergraph, text) == _outcome(reference_parse_hypergraph, text)

    @pytest.mark.parametrize("brk", ["\r", "\x0c", "\x1e", "\u2028"])
    def test_a_rare_line_break_ends_a_comment(self, brk):
        # the line loop ends the comment there and reads a second edge line
        text = f"2 3 1\n0 1 # x{brk}1 2\n"
        assert _outcome(parse_hypergraph, text) == _outcome(reference_parse_hypergraph, text)

    @pytest.mark.parametrize(
        "text",
        [
            "2 3 1\n0 1\n",  # a token at byte 0
            " 2 3 1\n0 1\n",  # a blank at byte 0
            "\n2 3 1\n0 1\n",  # a line break at byte 0
            "2 3 1\n0 1",  # a last line without a line break
            "2 3 1\n0 1 2",
            "7",  # a one-byte text
            "\n\n\n",  # only line breaks
            "2 3 0\n",  # only a header
            "2 3 0",
            "2 3 0\n\n",
            "2 3 2\n0 1\n   \n1 2\n",  # blank-only, tab-only and comment-only lines
            "2 3 2\n0 1\n\t\n1 2\n",
            "2 3 2\n0 1\n# c\n1 2\n",
            "2 3 3\n0 1\n \t \n\t# c\n#\n\n1 2\n  0 2\t\n",
            "2 3 2\n0 1\n# c\n \n1 1\n",
            "2 3 2\n# c\n+1 2\n0 1\n",  # an odd line after a comment line
            "2 3 2\n0 1\n# c\n# d\n1 +2\n",
            "2 3 2\n0 1\n# c\n1 +0_1\n",
            "2 3 2\n# c +1\n0 1\n# d\n-1 2\n",
            "#\n2 3 1\n# c\n+0 1",
        ],
    )
    def test_event_stream_boundaries(self, text):
        # tokens and line breaks are counted from one stream of events; the
        # odd lines are found on the breaks left after comments are cut
        assert _outcome(parse_hypergraph, text) == _outcome(reference_parse_hypergraph, text)

    def test_memory_of_the_fast_path(self):
        # the class array, the values and the constructor's arrays, and no
        # Python object per token: about 9x, against 18.8x with one Python
        # string per token
        assert _peak_per_byte(T600) <= 12

    @pytest.mark.parametrize(
        "last",
        ["200 0", "0 600", "0 x", "0 -1", "0 1.0"],
        ids=["duplicate", "out_of_range", "letter", "negative", "decimal"],
    )
    def test_memory_of_an_error_on_the_last_line(self, last):
        # "0 200" is the first edge; the line loop peaked at 38.8x the text
        # on its duplicate, and at 38.7x on the other bytes
        assert T600.split("\n")[1] == "0 200"
        text = T600.replace(" 120000\n", " 120001\n", 1) + last + "\n"
        with pytest.raises(ParseError) as exc:
            parse_hypergraph(text)
        assert exc.value.line == 120_002
        assert _peak_per_byte(text) <= 12

    @pytest.mark.parametrize(
        "text",
        [
            "# \xe9\n" + T600,
            T600.replace("\n1 599\n", "\n", 1) + "\u0661 599\n",
            T600.replace("\n", "\r", 5),
        ],
        ids=["accented_comment", "non_ascii_digit", "lone_carriage_returns"],
    )
    def test_memory_of_rare_spellings(self, text):
        # the line loop peaked at 45x the text on each
        assert parse_hypergraph(text) == turan_graph(600, 3)
        assert _peak_per_byte(text) <= 12

    def test_memory_of_the_serializer_layout(self):
        # the separators, the values and the constructor's arrays, with no
        # byte classes or event offsets: 5.9x, against 8.3x with them
        assert _peak_per_byte(T600) <= 7

    @pytest.mark.parametrize("text", LAYOUT_TEXTS)
    def test_the_serializer_layout_skips_the_structure_pass(self, text, monkeypatch):
        expected = _outcome(reference_parse_hypergraph, text)
        assert isinstance(expected, Hypergraph)
        monkeypatch.setattr(formats, "_ascii_bytes", _no_structure_pass)
        monkeypatch.setattr(formats, "_byte_classes", _no_structure_pass)
        assert parse_hypergraph(text) == expected
        assert parse_hypergraph(text.encode()) == expected

    @pytest.mark.parametrize("text", LAYOUT_TEXTS)
    def test_one_edit_from_the_layout_reads_as_in_the_line_loop(self, text):
        for variant in format_digests.one_edits(text):
            expected = _outcome(reference_parse_hypergraph, variant)
            assert _outcome(parse_hypergraph, variant) == expected, repr(variant)
            assert _outcome(parse_hypergraph, variant.encode()) == expected, repr(variant)

    @pytest.mark.parametrize(
        "edge, error, reason",
        [
            ("1 0", DuplicateEdge, "edge '1 0' duplicates line 2"),
            ("0 12", IndexOutOfRange, "vertex 12 outside [0, 12)"),
            ("4 4", ParseError, "repeated vertex in edge '4 4'"),
            ("99999999999999999999 4", IndexOutOfRange,
             "vertex 99999999999999999999 outside [0, 12)"),
        ],
    )
    def test_a_bad_edge_in_the_layout_names_its_line(self, edge, error, reason):
        # the layout holds, the constructor refuses, and the structure pass
        # names the line
        text = "2 12 4\n0 1\n2 3\n" + edge + "\n5 6\n"
        assert formats._serializer_layout(text.encode("ascii")) is not None
        assert _outcome(reference_parse_hypergraph, text) == (error, 4, f"line 4: {reason}")
        assert _outcome(parse_hypergraph, text) == (error, 4, f"line 4: {reason}")

    def test_a_refused_layout_is_converted_once(self, monkeypatch):
        # the layout's values and one search for LF name the line: neither
        # the structure pass nor a second np.fromstring runs
        text = serialize_hypergraph(turan_graph(1200, 3))
        header, rest = text.split("\n", 1)
        m = int(header.split()[2])
        text = f"2 1200 {m + 1}\n{rest}0 400\n"
        calls = []
        fromstring = np.fromstring

        def spy(*args, **kwargs):
            calls.append(args)
            return fromstring(*args, **kwargs)

        monkeypatch.setattr(np, "fromstring", spy)
        monkeypatch.setattr(formats, "_ascii_bytes", _no_structure_pass)
        monkeypatch.setattr(formats, "_byte_classes", _no_structure_pass)
        assert _outcome(parse_hypergraph, text) == (
            DuplicateEdge, m + 2, f"line {m + 2}: edge '0 400' duplicates line 2"
        )
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "9223372036854775808 3 1\n0 1\n",
            "2 3 99999999999999999999\n0 1\n",
            "1 3 2\n0\n1\n",  # the layout of r = 1
            "0 3 0\n",
        ],
    )
    def test_the_header_is_checked_before_the_layout_is_sized(self, text):
        assert formats._serializer_layout(text.encode("ascii")) is None
        assert isinstance(_outcome(reference_parse_hypergraph, text), tuple)
        assert _outcome(parse_hypergraph, text) == _outcome(reference_parse_hypergraph, text)

    @pytest.mark.parametrize("spell", [r"+\g<0>", r"0_\g<0>"], ids=["signed", "underscored"])
    def test_every_token_signed_or_underscored(self, spell):
        # every line is odd and read by int(): 10.5x the text signed and
        # 8.8x underscored, against 9.4x plain
        plain = serialize_hypergraph(turan_graph(300, 3))
        text = re.sub(r"\d+", spell, plain)
        assert parse_hypergraph(text) == parse_hypergraph(plain) == turan_graph(300, 3)
        assert _peak_per_byte(text) <= 12


def _joined(hypergraph: Hypergraph) -> str:
    """The per-edge serializer that the bulk one replaced."""
    lines = [f"{hypergraph.r} {hypergraph.n} {len(hypergraph)}"]
    lines.extend(" ".join(str(v) for v in e) for e in hypergraph)
    return "\n".join(lines) + "\n"


@st.composite
def hypergraphs(draw):
    """Random hypergraphs with r = 2..5, isolated vertices and vertex indices
    of up to seven digits: n stays below where packed rows (r = 2) grow
    large or edge codes (r = 4, 5) pass 64 bits."""
    r = draw(st.integers(min_value=2, max_value=5))
    top = draw(st.sampled_from([12, 3000, {2: 3000, 3: 10**6, 4: 40_000, 5: 5000}[r]]))
    n = draw(st.integers(min_value=0, max_value=top))
    if n < r:
        return Hypergraph(r, n, [])
    edge = st.lists(
        st.integers(min_value=0, max_value=n - 1), min_size=r, max_size=r, unique=True
    ).map(lambda e: tuple(sorted(e)))
    return Hypergraph(r, n, draw(st.lists(edge, unique=True, max_size=40)))


# a shuffled perfect matching: every vertex is used once
MATCHING = Hypergraph(3, 3000, np.random.default_rng(5).permutation(3000).reshape(-1, 3))
INT64_CODED = Hypergraph(4, 300, [(0, 1, 2, 299), (9, 10, 99, 100), (3, 50, 98, 297)])


class TestBulkSerializer:
    @pytest.mark.parametrize(
        "graph",
        [
            turan_graph(12, 3),
            catalog("fano"),
            catalog("generalized_triangle", r=4),
            Hypergraph(2, 5, []),
            Hypergraph(3, 4, []),
            Hypergraph(4, 0, []),
            Hypergraph(2, 0, []),
            Hypergraph(2, 1000, [(0, 999), (7, 500)]),
            Hypergraph(
                2, 1001, [(0, 9), (9, 10), (10, 99), (99, 100), (100, 999), (999, 1000)]
            ),
            Hypergraph(2, 1, []),
            Hypergraph(2, 2, [(0, 1)]),
            Hypergraph(3, 40, [(2, 5, 17), (5, 11, 39)]),
            Hypergraph(3, 10**6, [(0, 10, 999_999)]),
            *(
                Hypergraph(r, 11, list(itertools.combinations(range(1, 11), r)))
                for r in range(2, 6)
            ),
            INT64_CODED,
            MATCHING,
        ],
        ids=[
            "turan", "fano", "triangle4", "m0r2", "m0r3", "n0r4", "n0r2", "wide",
            "digit_boundaries", "n1", "one_edge", "isolated", "sparse_wide",
            "r2", "r3", "r4", "r5", "int64_coded", "matching",
        ],
    )
    def test_bytes_match_the_per_edge_join(self, graph):
        assert serialize_hypergraph(graph) == _joined(graph)

    def test_int64_coded_edges_are_covered(self):
        assert INT64_CODED.edge_array.dtype == np.int64

    @given(hypergraphs())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_per_edge_join(self, graph):
        assert serialize_hypergraph(graph) == _joined(graph)

    def test_the_digest_corpus_matches_the_per_edge_join(self):
        # built here rather than at collection, since T(1200, 3) is among them
        hosts = format_digests.serialized_hosts()
        for name, graph in hosts:
            assert serialize_hypergraph(graph) == _joined(graph), name
        # the rank is the identity when every vertex is used; unused first
        # and last vertices are its edge cases
        degrees = [g.degrees() for _, g in hosts if len(g)]
        assert any(d.all() for d in degrees)
        assert any(d[0] == 0 and d[1:].any() for d in degrees)
        assert any(d[-1] == 0 and d[:-1].any() for d in degrees)
        digits = {len(str(g.n - 1)) for _, g in hosts if g.n}
        assert digits >= {1, 2, 3, 4}

    def test_memory_stays_proportional_to_the_text(self):
        # the entry indices, the gathered entries and the text they become:
        # 3.17x, against 4.22x when the indices were gathered through the
        # strided view, and 9.8x when every value was a Python int
        assert _serialize_peak_per_byte(turan_graph(600, 3)) <= 3.5

    def test_report_digests_do_not_move(self, tmp_path, capsys):
        host = tmp_path / "t30.txt"
        host.write_text(serialize_hypergraph(turan_graph(30, 3)))
        assert run_cli(["decide", "kcolor", "--host", str(host), "--l", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        # digest of the per-edge serializer's text of T(30, 3)
        assert report["input_digests"] == {
            "host": "eff9405291a2e6f2364bb03666e1fa55de6caffa25bb87f7d3c4cc6c97d5c76a"
        }


class TestCliInputs:
    def test_oracle_embed_reads_both_files_before_parsing(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 3 1\n0 0\n")
        missing = str(tmp_path / "missing.txt")
        assert run_cli(["oracle", "embed", "--f", str(bad), "--host", missing]) == 3
        assert "missing.txt" in capsys.readouterr().err
        latin1 = tmp_path / "latin1.txt"  # not UTF-8: refused as it is read
        latin1.write_bytes(b"2 3 1\n0 1 # caf\xe9\n")
        assert run_cli(["oracle", "embed", "--f", str(bad), "--host", str(latin1)]) == 3
        assert "can't decode byte 0xe9 in position 15" in capsys.readouterr().err

    def test_oracle_hom_reads_both_files_before_parsing(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 3 1\n0 4\n")
        missing = str(tmp_path / "missing.txt")
        assert run_cli(["oracle", "hom", "--pattern", str(bad), "--host", missing]) == 3
        assert "missing.txt" in capsys.readouterr().err

    def test_oracle_reports_keep_their_inputs(self, tmp_path, capsys):
        k3 = tmp_path / "k3.txt"
        k3.write_text(serialize_hypergraph(catalog("complete", n=3)))
        k4 = tmp_path / "k4.txt"
        k4.write_text(serialize_hypergraph(catalog("complete", n=4)))
        assert run_cli(["oracle", "embed", "--f", str(k3), "--host", str(k4)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert sorted(report["input_digests"]) == ["forbidden", "host"]
        assert report["results"]["found"] is True

    def test_a_huge_vertex_count_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("2 100000000 0\n")
        assert run_cli(["decide", "kcolor", "--host", str(path), "--l", "3"]) == 3
        assert "MAX_VERTEX_TABLE_BYTES" in capsys.readouterr().err

    @pytest.mark.parametrize("r", [2**60, 2**63, 10**400], ids=["2^60", "2^63", "10^400"])
    def test_a_huge_uniformity_is_an_input_error(self, tmp_path, capsys, r):
        # 2**60 fits an int64 token and 2**63 does not; none may reach numpy
        path = tmp_path / "huge.txt"
        path.write_text(f"{r} 0 0\n")
        assert run_cli(["decide", "kcolor", "--host", str(path), "--l", "3"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("linkclust: error: ") and "64 bits" in err
        assert "Traceback" not in err
