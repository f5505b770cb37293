"""Text format and command-line tests."""

import argparse
import hashlib
import itertools
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkclust import (
    DuplicateEdge,
    Hypergraph,
    IndexOutOfRange,
    ParseError,
    Pattern,
    catalog,
    contiguous_classes,
    delete_random_edges,
    parse_hypergraph,
    parse_pattern,
    pattern_blowup,
    phi,
    plant_violation,
    serialize_hypergraph,
    serialize_pattern,
    turan_classes,
    turan_graph,
)
from linkclust import formats
from linkclust.cli import run_cli
from linkclust.formats import build_report, dump_report, partition_classes_sorted
from linkclust.hypergraph import Partition
from helpers import aes_host, is_valid_coloring


class TestHypergraphFormat:
    def test_triangle(self):
        g = parse_hypergraph("2 3 3\n0 1\n0 2\n1 2\n")
        assert g == catalog("complete", n=3)

    def test_three_uniform(self):
        text = "3 5 3\n0 1 2\n0 1 3\n2 3 4\n"
        assert parse_hypergraph(text) == catalog("generalized_triangle", r=3)

    def test_comments_and_blanks(self):
        text = "# a triangle\n2 3 3\n\n0 1  # first\n0 2\n1 2\n"
        assert parse_hypergraph(text) == catalog("complete", n=3)

    def test_repeated_vertex(self):
        with pytest.raises(ParseError, match="repeated"):
            parse_hypergraph("2 3 1\n0 0\n")

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            parse_hypergraph("2 3 2\n0 1\n1 0\n")

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange) as err:
            parse_hypergraph("2 3 1\n0 3\n")
        assert err.value.line == 2

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_hypergraph("2 3\n")
        with pytest.raises(ParseError):
            parse_hypergraph("2 3 2\n0 1\n")
        with pytest.raises(ParseError):
            parse_hypergraph("")

    def test_negative_edge_count(self):
        for parse in (parse_hypergraph, parse_pattern):
            with pytest.raises(ParseError) as err:
                parse("2 3 -1\n")
            assert (err.value.line, err.value.reason) == (1, "edge count must be nonnegative")

    def test_wrong_arity_line(self):
        with pytest.raises(ParseError, match="expected 3"):
            parse_hypergraph("3 4 1\n0 1\n")

    def test_round_trip_catalog(self):
        for name, params in [
            ("fano", {}),
            ("complete", {"n": 5}),
            ("generalized_triangle", {"r": 4}),
            ("k4_k3_disjoint", {}),
        ]:
            g = catalog(name, **params)
            assert parse_hypergraph(serialize_hypergraph(g)) == g

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random(self, n, data):
        pool = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pool), unique=True))
        g = Hypergraph(2, n, edges)
        assert parse_hypergraph(serialize_hypergraph(g)) == g


class TestPatternFormat:
    def test_parse_simple(self):
        p = parse_pattern("2 3 3\n1 2\n1 3\n2 3\n")
        assert p == Pattern.complete_graph(3)

    def test_multiplicity_via_repetition(self):
        p = parse_pattern("3 2 1\n1 1 2\n")
        assert p == Pattern(3, 2, [(0, 0, 1)])

    def test_label_range(self):
        with pytest.raises(IndexOutOfRange):
            parse_pattern("2 3 1\n0 1\n")
        with pytest.raises(IndexOutOfRange):
            parse_pattern("2 3 1\n1 4\n")

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            parse_pattern("2 3 2\n1 2\n2 1\n")

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("0 2 1\n1 2\n", 1, "uniformity must be positive, got 0"),
            ("2 0 0\n", 1, "vertex count must be positive"),
            ("2 3 1\n1 2 3\n", 2, "expected 2 labels, got 3"),
            ("2 3 1\n1 x\n", 2, "non-integer label in '1 x'"),
        ],
    )
    def test_malformed(self, text, line, reason):
        with pytest.raises(ParseError) as err:
            parse_pattern(text)
        assert (err.value.line, err.value.reason) == (line, reason)

    def test_round_trip(self):
        for p in (
            Pattern.complete_graph(4),
            Pattern.cycle(5),
            Pattern(3, 2, [(0, 0, 1), (0, 1, 1)]),
        ):
            assert parse_pattern(serialize_pattern(p)) == p

    def test_lines_follow_the_edge_order(self):
        text = serialize_pattern(Pattern(3, 2, [(0, 1, 1), (0, 0, 1)]))
        assert text == "3 2 2\n1 1 2\n1 2 2\n"

    def test_memory_follows_the_text_not_the_vertex_count(self):
        tracemalloc.start()
        try:
            p = parse_pattern("2 10000000 1\n1 2\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.edges == ((0, 1),)
        assert peak < 1 << 20


class TestReport:
    def test_witness_classes_sorted_with_empties_last(self):
        part = Partition([[5, 1], [3, 4], [0, 2]], 6)
        assert partition_classes_sorted(part) == [[0, 2], [1, 5], [3, 4]]
        with_empty = Partition([[2, 1, 0], []], 3)
        assert partition_classes_sorted(with_empty) == [[0, 1, 2], []]

    def test_report_shape(self):
        rep = build_report(
            command="decide kcolor",
            params={"l": 3},
            inputs={"host": "2 3 0\n"},
            verdict="yes",
            stats={"distance_evals": 5},
        )
        assert rep["schema_version"] == 2
        assert rep["tool"] == "linkclust"
        assert len(rep["input_digests"]["host"]) == 64

    def test_numpy_scalars_and_sets_are_written_as_json(self):
        text = dump_report(
            {"count": np.int64(3), "ratio": np.float32(0.5), "seen": {7}, "pair": frozenset({2})}
        )
        assert json.loads(text) == {"count": 3, "ratio": 0.5, "seen": [7], "pair": [2]}
        with pytest.raises(TypeError, match="not JSON serializable"):
            dump_report({"x": object()})


@pytest.fixture()
def turan_file(tmp_path):
    path = tmp_path / "t30.txt"
    path.write_text(serialize_hypergraph(turan_graph(30, 3)))
    return str(path)


@pytest.fixture()
def k3_pattern_file(tmp_path):
    path = tmp_path / "k3p.txt"
    path.write_text(serialize_pattern(Pattern.complete_graph(3)))
    return str(path)


@pytest.fixture()
def report_files(tmp_path):
    """Input files of the report characterization, by placeholder name."""
    files = {
        "t30": serialize_hypergraph(turan_graph(30, 3)),
        "bad30": serialize_hypergraph(plant_violation(turan_graph(30, 3), turan_classes(30, 3), 4)),
        "c5": serialize_hypergraph(catalog("cycle", k=5)),
        "c5x2": serialize_hypergraph(pattern_blowup(Pattern.cycle(5), (2,) * 5)),
        "t12": serialize_hypergraph(turan_graph(12, 2)),
        "t120": serialize_hypergraph(delete_random_edges(turan_graph(120, 2), 2, 3)),
        "t24": serialize_hypergraph(delete_random_edges(turan_graph(24, 2), 2, 3)),
        "k3": serialize_hypergraph(catalog("complete", n=3)),
        "k4": serialize_hypergraph(catalog("complete", n=4)),
        "k33": serialize_hypergraph(turan_graph(6, 2)),
        "k2p": serialize_pattern(Pattern.complete_graph(2)),
        "k3p": serialize_pattern(Pattern.complete_graph(3)),
        "c4p": serialize_pattern(Pattern.cycle(4)),
        "c5p": serialize_pattern(Pattern.cycle(5)),
    }
    paths = {}
    for name, text in files.items():
        paths[name] = str(tmp_path / f"{name}.txt")
        (tmp_path / f"{name}.txt").write_text(text)
    return paths


_T30_CLASSES = f"classes: {[list(range(i, i + 10)) for i in (0, 10, 20)]}"
_BASE_KEYS = ["command", "input_digests", "params", "schema_version", "tool", "tool_version"]
_OPT_PARAMS = {"opt_seed": 1729}

# One request per report subcommand and per verdict branch whose report
# fields differ: (argv, exit code, command, params, the report's keys beyond
# the six every report has, its input names, its text form line by line).
# ``wall_time_s=*`` masks the one timing.
_REPORTS = {
    "kcolor_yes": (
        ["decide", "kcolor", "--host", "{t30}", "--l", "3", "--seed", "7"],
        0,
        "decide kcolor",
        {"l": 3, "strict": True},
        ["seed", "stats", "verdict", "witness"],
        ["host"],
        [
            "verdict: yes",
            _T30_CLASSES,
            "stats: distance_evals=58 edges_scanned=300 wall_time_s=* work_units=2340",
        ],
    ),
    "kcolor_no": (
        ["decide", "kcolor", "--host", "{bad30}", "--l", "3"],
        1,
        "decide kcolor",
        {"l": 3, "strict": True},
        ["results", "stats", "verdict"],
        ["host"],
        [
            "verdict: no",
            "reason: edge (24, 28) has no legal class signature",
            "violating_edge: [24, 28]",
            "stats: distance_evals=58 edges_scanned=301 wall_time_s=* work_units=2342",
        ],
    ),
    "kcolor_refused": (
        ["decide", "kcolor", "--host", "{c5}", "--l", "2"],
        2,
        "decide kcolor",
        {"l": 2, "strict": True},
        ["results", "stats", "verdict"],
        ["host"],
        [
            "verdict: precondition_violated",
            "reason: minimum degree 2 is not above 2/5 of 5",
            "details: {'min_degree': 2, 'bound': [2, 5], 'n': 5}",
            "stats: distance_evals=0 edges_scanned=0 wall_time_s=* work_units=0",
        ],
    ),
    "hom": (
        ["decide", "hom", "--host", "{t30}", "--pattern", "{k3p}"],
        0,
        "decide hom",
        {"eps": "0", "n_small": None, "strict": True},
        ["stats", "verdict", "witness"],
        ["host", "pattern"],
        [
            "verdict: yes",
            _T30_CLASSES,
            "stats: distance_evals=58 edges_scanned=300 wall_time_s=* work_units=2340",
        ],
    ),
    "shom": (
        ["decide", "shom", "--host", "{c5x2}", "--pattern", "{c5p}", "--eps", "1e-9", "--n-small", "5"],
        0,
        "decide shom",
        {"eps": "1e-9", "n_small": 5, "strict": True},
        ["stats", "verdict", "witness"],
        ["host", "pattern"],
        [
            "verdict: yes",
            "classes: [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]",
            "stats: distance_evals=36 edges_scanned=20 wall_time_s=* work_units=400",
        ],
    ),
    "kfree": (
        ["decide", "kfree", "--host", "{t12}", "--f", "{k3}", "--pattern", "{k2p}"],
        0,
        "decide kfree",
        {"eps": "0", "n_small": None, "strict": True},
        ["stats", "verdict", "witness"],
        ["forbidden", "host", "pattern"],
        [
            "verdict: yes",
            "classes: [[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]]",
            "stats: distance_evals=11 edges_scanned=36 wall_time_s=* work_units=204",
        ],
    ),
    "avg_yes": (
        ["decide", "avg", "--host", "{t120}", "--l", "2", "--k", "2"],
        0,
        "decide avg",
        {"l": 2, "k": 2},
        ["stats", "verdict", "witness"],
        ["host"],
        [
            "verdict: yes",
            f"classes: {[list(range(60)), list(range(60, 120))]}",
            "stats: distance_evals=119 edges_scanned=7196 wall_time_s=* work_units=28672 z=0",
        ],
    ),
    "avg_refused": (
        ["decide", "avg", "--host", "{t24}", "--l", "2", "--k", "2"],
        2,
        "decide avg",
        {"l": 2, "k": 2},
        ["results", "stats", "verdict"],
        ["host"],
        [
            "verdict: precondition_violated",
            "reason: 24 vertices, below the size gate 120",
            "details: {'n': 24, 'gate': 120}",
            "stats: distance_evals=0 edges_scanned=0 wall_time_s=* work_units=0",
        ],
    ),
    "cluster": (
        ["cluster", "--host", "{t30}", "--l", "3", "--delta", "1/4"],
        0,
        "cluster",
        {"l": 3, "delta": "1/4"},
        ["witness"],
        ["host"],
        [_T30_CLASSES],
    ),
    "lagrangian": (
        ["lagrangian", "--pattern", "{k3p}"],
        0,
        "lagrangian",
        _OPT_PARAMS,
        ["results"],
        ["pattern"],
        [
            "value: 0.3333333333333333",
            "argmax: [0.3333333333333333, 0.3333333333333333, 0.3333333333333333]",
            "converged: True",
            "witnesses: 1",
        ],
    ),
    "phi": (
        ["phi", "--pattern", "{k3p}"],
        0,
        "phi",
        _OPT_PARAMS,
        ["results"],
        ["pattern"],
        [
            "value: 0.6666666666666666",
            "argmax: [0.3333333333333333, 0.3333333333333333, 0.3333333333333333]",
            "converged: True",
            "witnesses: 1",
        ],
    ),
    "rigidity": (
        ["rigidity", "--pattern", "{c4p}"],
        0,
        "rigidity",
        _OPT_PARAMS,
        ["results"],
        ["pattern"],
        [
            "rigid: False",
            "maximin: 0.5",
            "smallest_coordinate: 0.0",
            "minimal: False",
            "minimality_margin: 0.0",
            "certificate: {'kind': 'twins', 'pair': (0, 2), 'witness': (0.0, 0.5, 0.5, 0.0)}",
            "note: exact rational result",
        ],
    ),
    "oracle_embed_found": (
        ["oracle", "embed", "--f", "{k3}", "--host", "{k4}"],
        0,
        "oracle embed",
        {},
        ["results"],
        ["forbidden", "host"],
        ["found: True", "embedding: {0: 0, 1: 1, 2: 2}"],
    ),
    "oracle_embed_none": (
        ["oracle", "embed", "--f", "{k3}", "--host", "{c5}"],
        1,
        "oracle embed",
        {},
        ["results"],
        ["forbidden", "host"],
        ["found: False", "embedding: None"],
    ),
    "oracle_hom_yes": (
        ["oracle", "hom", "--pattern", "{c5p}", "--host", "{k33}"],
        0,
        "oracle hom",
        {"surjective": False},
        ["verdict", "witness"],
        ["host", "pattern"],
        ["verdict: yes", "classes: [[0, 1, 2], [3, 4, 5], [], [], []]"],
    ),
    "oracle_hom_no": (
        ["oracle", "hom", "--pattern", "{c5p}", "--host", "{k33}", "--surjective"],
        1,
        "oracle hom",
        {"surjective": True},
        ["verdict"],
        ["host", "pattern"],
        ["verdict: no"],
    ),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", list(_REPORTS))
def test_report_characterization(report_files, capsys, case, fmt):
    argv, code, command, params, keys, inputs, lines = _REPORTS[case]
    argv = [a.format(**report_files) for a in argv]
    assert run_cli([*argv, "--format", fmt]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    if fmt == "json":
        report = json.loads(captured.out)
        assert report["command"] == command
        assert report["params"] == params
        assert sorted(report) == sorted(_BASE_KEYS + keys)
        assert sorted(report["input_digests"]) == inputs
        if "seed" in keys:
            assert report["seed"] == 7
    else:
        masked = re.sub(r"wall_time_s=\S+", "wall_time_s=*", captured.out)
        assert masked.splitlines() == lines


@pytest.fixture()
def gen_files(tmp_path):
    """Input files of the generator transcript, by placeholder name; the
    hosts are written out edge by edge, not by a generator."""
    t12 = [(u, v) for u, v in itertools.combinations(range(12), 2) if u % 3 != v % 3]
    files = {
        "c5p": serialize_pattern(Pattern.cycle(5)),
        "k4mp": "3 4 3\n1 2 3\n1 2 4\n1 3 4\n",
        "k2": "2 2 1\n0 1\n",
        "c5": "2 5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n",
        "t12": serialize_hypergraph(Hypergraph(2, 12, t12)),
    }
    paths = {"tmp": str(tmp_path), "out": str(tmp_path / "out.txt")}
    for name, text in files.items():
        paths[name] = str(tmp_path / f"{name}.txt")
        (tmp_path / f"{name}.txt").write_text(text)
    return paths


# argv -> (the produced text's header line, the first 16 hex digits of its
# SHA-256).  Each exits 0 with an empty stderr; the produced text is the
# --out file when {out} is given (stdout is then empty), else stdout.
_GEN_OUTPUT = {
    "turan": ("gen turan --n 7 --l 3", "2 7 16", "33b37e86468ba356"),
    "turan_one_part": ("gen turan --n 5 --l 1", "2 5 0", "4f677b5492140adc"),
    "turan_delete": (
        "gen turan --n 30 --l 3 --delete-edges 5 --seed 2",
        "2 30 295",
        "3205696fd3093258",
    ),
    "turan_plant": ("gen turan --n 12 --l 3 --plant --seed 4", "2 12 49", "89eb8dc2198a0826"),
    "turan_delete_plant_out": (
        "gen turan --n 12 --l 3 --delete-edges 3 --plant --seed 1 --out {out}",
        "2 12 46",
        "a63372fd5a0a5fc5",
    ),
    "blowup": ("gen blowup --pattern {c5p} --sizes 2,1,2,1,1", "2 7 9", "0108b6cfec96b556"),
    "blowup_delete_plant": (
        "gen blowup --pattern {c5p} --sizes 3,3,3,3,3 --delete-edges 2 --plant --seed 3",
        "2 15 44",
        "cc605121c486152d",
    ),
    "blowup_r3_out": (
        "gen blowup --pattern {k4mp} --sizes 3,2,2,2 --out {out}",
        "3 9 36",
        "5cb8c1fe4d042f35",
    ),
    "join": ("gen join --g {c5} --q 2 --part-size 3", "2 11 44", "034cb435ad4e9c85"),
    "join_out": ("gen join --g {k2} --q 1 --part-size 2 --out {out}", "2 4 5", "b29c2ab2d89b3b30"),
    "catalog_fano": ("gen catalog --name fano", "3 7 7", "a5082f5383281bd2"),
    "catalog_complete": ("gen catalog --name complete --n 5", "2 5 10", "60f5443cc7ed0c7e"),
    "catalog_complete_blowup": (
        "gen catalog --name complete_blowup --n 3 --t 2",
        "2 6 12",
        "77803290889b8773",
    ),
    "catalog_expansion_out": (
        "gen catalog --name expansion --g {c5} --r 3 --out {out}",
        "3 10 5",
        "5a9cb28ca00cc6bd",
    ),
    "perturb_delete": (
        "gen perturb --host {t12} --delete-edges 4 --seed 9",
        "2 12 44",
        "0b7aad99cc839e0d",
    ),
    "perturb_plant": (
        "gen perturb --host {t12} --classes 0,3,6,9;1,4,7,10;2,5,8,11 --plant --seed 2",
        "2 12 49",
        "151733b0815e7cc5",
    ),
    "perturb_no_change": ("gen perturb --host {t12}", "2 12 48", "b5e06f5aff2451e2"),
}

# argv -> (exit code, stderr) for requests that produce no text.  A usage
# error (64) pins only the start of the last line of stderr, below the usage.
_GEN_ERRORS = {
    "turan_n_below_l": ("gen turan --n 2 --l 3", 3, "linkclust: error: need n >= parts >= 1\n"),
    "turan_missing_l": (
        "gen turan --n 5",
        64,
        "linkclust gen turan: error: the following arguments are required: --l",
    ),
    "blowup_size_count": (
        "gen blowup --pattern {c5p} --sizes 2,2",
        3,
        "linkclust: error: 2 sizes given for a pattern on 5 vertices\n",
    ),
    "blowup_size_below": (
        "gen blowup --pattern {k4mp} --sizes 0,2,2,2",
        3,
        "linkclust: error: class 0 has size 0, below the required multiplicity 1\n",
    ),
    "blowup_bad_sizes": (
        "gen blowup --pattern {c5p} --sizes a,b",
        64,
        "linkclust gen blowup: error: argument --sizes: invalid integers value: 'a,b'",
    ),
    "join_no_parts": (
        "gen join --g {k2} --q 0 --part-size 2",
        3,
        "linkclust: error: need at least one added part\n",
    ),
    "join_plant": (
        "gen join --g {k2} --q 1 --part-size 2 --plant",
        64,
        "linkclust: error: unrecognized arguments: --plant",
    ),
    "join_missing_file": (
        "gen join --g {tmp}/missing.txt --q 1 --part-size 2",
        3,
        "linkclust: error: [Errno 2] No such file or directory: '{tmp}/missing.txt'\n",
    ),
    "catalog_bad_params": (
        "gen catalog --name matching --k 2",
        3,
        "linkclust: error: bad parameters for 'matching': "
        "_matching() missing 1 required positional argument: 'r'\n",
    ),
    "catalog_unknown": (
        "gen catalog --name petersen",
        64,
        "linkclust gen catalog: error: argument --name: invalid choice: 'petersen'",
    ),
    "catalog_delete": (
        "gen catalog --name fano --delete-edges 1",
        64,
        "linkclust: error: unrecognized arguments: --delete-edges 1",
    ),
    "perturb_plant_no_classes": (
        "gen perturb --host {t12} --plant",
        3,
        "linkclust: error: this generator cannot plant without --classes\n",
    ),
    "perturb_too_many": (
        "gen perturb --host {t12} --delete-edges 100",
        3,
        "linkclust: error: cannot delete 100 edges from a hypergraph with 48\n",
    ),
    "perturb_bad_classes": (
        "gen perturb --host {t12} --classes x",
        64,
        "linkclust gen perturb: error: argument --classes: invalid classes value: 'x'",
    ),
    "no_generator": (
        "gen",
        64,
        "linkclust gen: error: the following arguments are required: generator",
    ),
}


@pytest.mark.parametrize("case", list(_GEN_OUTPUT))
def test_gen_output(gen_files, capsys, case):
    argv, header, digest = _GEN_OUTPUT[case]
    assert run_cli([word.format(**gen_files) for word in argv.split()]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    text = captured.out
    if "{out}" in argv:
        assert text == ""
        text = Path(gen_files["out"]).read_text()
    assert text.splitlines()[0] == header
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_gen_out_writes_the_text_as_bytes(gen_files, capsys, monkeypatch):
    # the ASCII bytes of the text gen prints, written with no str between:
    # neither the locale's encoding nor its newline can reach the file
    expected = serialize_hypergraph(turan_graph(30, 3)).encode("ascii")

    def refuse(*args, **kwargs):
        raise AssertionError("gen --out went through a str")

    monkeypatch.setattr(formats, "serialize_hypergraph", refuse)
    monkeypatch.setattr(Path, "write_text", refuse)
    argv = ["gen", "turan", "--n", "30", "--l", "3", "--out", gen_files["out"]]
    assert run_cli(argv) == 0
    assert capsys.readouterr().err == ""
    assert Path(gen_files["out"]).read_bytes() == expected


@pytest.mark.parametrize("case", list(_GEN_ERRORS))
def test_gen_errors(gen_files, capsys, case):
    argv, code, err = _GEN_ERRORS[case]
    assert run_cli([word.format(**gen_files) for word in argv.split()]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    if code == 64:
        assert captured.err.splitlines()[-1].startswith(err)
    else:
        assert captured.err.replace(gen_files["tmp"], "{tmp}") == err


def _gen_options():
    """(generator, option strings, dest, type, default, choices, required)
    for every option of every ``gen`` subcommand, in declaration order."""
    from linkclust.cli import build_parser

    def subcommands(parser):
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    rows = []
    for name, parser in subcommands(subcommands(build_parser())["gen"]).items():
        for a in parser._actions:
            if a.dest != "help":
                kind = getattr(a.type, "__name__", a.type)
                row = (name, tuple(a.option_strings), a.dest, kind, a.default, a.choices)
                rows.append((*row, a.required))
    return rows


def test_gen_options_are_pinned():
    from linkclust.corpus import CATALOG_NAMES

    assert _gen_options() == [
        ("turan", ("--n",), "n", "int", None, None, True),
        ("turan", ("--l",), "num_classes", "int", None, None, True),
        ("turan", ("--out",), "out", None, "-", None, False),
        ("turan", ("--seed",), "seed", "int", 0, None, False),
        ("turan", ("--delete-edges",), "delete_edges", "int", 0, None, False),
        ("turan", ("--plant",), "plant", None, False, None, False),
        ("blowup", ("--pattern",), "pattern", None, None, None, True),
        ("blowup", ("--sizes",), "sizes", "integers", None, None, True),
        ("blowup", ("--out",), "out", None, "-", None, False),
        ("blowup", ("--seed",), "seed", "int", 0, None, False),
        ("blowup", ("--delete-edges",), "delete_edges", "int", 0, None, False),
        ("blowup", ("--plant",), "plant", None, False, None, False),
        ("join", ("--g",), "graph", None, None, None, True),
        ("join", ("--q",), "q", "int", None, None, True),
        ("join", ("--part-size",), "part_size", "int", None, None, True),
        ("join", ("--out",), "out", None, "-", None, False),
        ("catalog", ("--name",), "name", None, None, CATALOG_NAMES, True),
        ("catalog", ("--n",), "n", "int", None, None, False),
        ("catalog", ("--k",), "k", "int", None, None, False),
        ("catalog", ("--r",), "r", "int", None, None, False),
        ("catalog", ("--t",), "t", "int", None, None, False),
        ("catalog", ("--g",), "graph", None, None, None, False),
        ("catalog", ("--out",), "out", None, "-", None, False),
        ("perturb", ("--host",), "host", None, None, None, True),
        ("perturb", ("--classes",), "classes", "classes", None, None, False),
        ("perturb", ("--out",), "out", None, "-", None, False),
        ("perturb", ("--seed",), "seed", "int", 0, None, False),
        ("perturb", ("--delete-edges",), "delete_edges", "int", 0, None, False),
        ("perturb", ("--plant",), "plant", None, False, None, False),
    ]


def _parsers(parser):
    """The parser and every subcommand parser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_the_parser_tree_has_no_mutable_default():
    # run_cli parses every request with one tree: a list, dict or set
    # default (an ``action="append"`` with ``default=[]``) would carry one
    # request's values into the next
    from linkclust.cli import build_parser

    mutable = (list, dict, set)
    for parser in _parsers(build_parser()):
        for action in parser._actions:
            assert not isinstance(action.default, mutable), (parser.prog, action.dest)
        for dest, value in parser._defaults.items():
            assert not isinstance(value, mutable), (parser.prog, dest)


def test_the_parser_takes_its_defaults_from_the_library():
    from linkclust.cli import build_parser
    from linkclust.lagrangian import OptConfig
    from linkclust.oracles import DEFAULT_BUDGET_S

    library = {
        "oracle_budget": DEFAULT_BUDGET_S,
        "opt_seed": OptConfig().seed,
    }
    seen = set()
    for parser in _parsers(build_parser()):
        for action in parser._actions:
            if action.dest in library:
                assert action.default == library[action.dest], (parser.prog, action.dest)
                seen.add(action.dest)
    assert seen == set(library)


def test_run_cli_builds_the_parser_once(report_files, capsys, monkeypatch):
    import linkclust.cli

    build, built = linkclust.cli.build_parser, []

    def counting():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(linkclust.cli, "build_parser", counting)
    linkclust.cli._shared_parser.cache_clear()
    for _ in range(3):
        assert run_cli(["lagrangian", "--pattern", report_files["k3p"]]) == 0
        assert run_cli(["--version"]) == 0
        assert run_cli(["nonsense"]) == 64
    capsys.readouterr()
    assert len(built) == 1
    assert linkclust.cli._shared_parser() is built[0]


def _run_captured(monkeypatch, argv, stdin):
    """(exit code, stdout, stderr) of one ``run_cli`` call, each stream a
    fresh object, with ``wall_time_s`` masked."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    mask = re.compile(r'("wall_time_s": |wall_time_s=)[^,}\s]+')
    return code, mask.sub(r"\1*", out.getvalue()), err.getvalue()


def test_the_shared_parser_leaks_no_state(report_files, monkeypatch):
    """One process-long sequence of requests on the shared parser, each
    compared with the same request on a freshly built one."""
    import linkclust.cli

    f = report_files
    hom = ["decide", "hom", "--host", f["t30"], "--pattern", f["k3p"]]
    perturb = ["gen", "perturb", "--host", f["t12"], "--plant", "--seed", "2"]
    sequence = [
        ["decide", "kcolor", "--l"],
        ["decide", "kcolor", "--host", f["t30"], "--l", "3"],
        ["--help"],
        ["decide", "--help"],
        ["--version"],
        ["--help"],
        ["--version"],
        [*hom, "--no-strict"],
        hom,
        ["gen", "turan", "--n", "12", "--l", "3", "--plant", "--seed", "4"],
        [*perturb, "--classes", "0,1,2,3,4,5;6,7,8,9,10,11"],
        perturb,
        ["decide", "kcolor", "--l", "3"],  # the host from stdin
        *(
            [*[a.format(**f) for a in argv], "--format", fmt]
            for argv, *_ in _REPORTS.values()
            for fmt in ("json", "text")
        ),
    ]
    stdin = serialize_hypergraph(turan_graph(30, 3))
    for argv in sequence:
        shared = _run_captured(monkeypatch, argv, stdin)
        with monkeypatch.context() as m:
            m.setattr(linkclust.cli, "_shared_parser", linkclust.cli.build_parser)
            fresh = _run_captured(monkeypatch, argv, stdin)
        assert shared == fresh, argv
        assert shared[1] or shared[2], argv


class TestCli:
    def test_decide_kcolor_yes(self, turan_file, capsys):
        code = run_cli(["decide", "kcolor", "--host", turan_file, "--l", "3"])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert code == 0
        assert report["verdict"] == "yes"
        assert [len(c) for c in report["witness"]["classes"]] == [10, 10, 10]
        assert report["params"] == {"l": 3, "strict": True}

    def test_decide_kcolor_no(self, tmp_path, capsys):
        code = run_cli(
            [
                "gen",
                "turan",
                "--n",
                "30",
                "--l",
                "3",
                "--plant",
                "--seed",
                "4",
                "--out",
                str(tmp_path / "bad.txt"),
            ]
        )
        assert code == 0
        code = run_cli(
            ["decide", "kcolor", "--host", str(tmp_path / "bad.txt"), "--l", "3"]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "no"

    def test_decide_kcolor_precondition(self, tmp_path, capsys):
        path = tmp_path / "c5.txt"
        path.write_text(serialize_hypergraph(catalog("cycle", k=5)))
        code = run_cli(["decide", "kcolor", "--host", str(path), "--l", "2"])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["verdict"] == "precondition_violated"

    def test_decide_avg(self, tmp_path, capsys):
        host = tmp_path / "g.txt"
        run_cli(
            [
                "gen",
                "turan",
                "--n",
                "120",
                "--l",
                "2",
                "--delete-edges",
                "2",
                "--seed",
                "3",
                "--out",
                str(host),
            ]
        )
        code = run_cli(["decide", "avg", "--host", str(host), "--l", "2", "--k", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stats"]["z"] == 0

    def test_decide_hom_via_stdin(self, k3_pattern_file, capsys, monkeypatch):
        import io

        text = serialize_hypergraph(turan_graph(30, 3))
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = run_cli(["decide", "hom", "--pattern", k3_pattern_file])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "yes"

    def test_decide_hom_k4_3_blowup(self, tmp_path, capsys):
        k4_3 = Pattern.from_multisets(3, 4, list(itertools.combinations(range(4), 3)))
        hpath, ppath = tmp_path / "host.txt", tmp_path / "k4_3.txt"
        hpath.write_text(serialize_hypergraph(pattern_blowup(k4_3, (25,) * 4)))
        ppath.write_text(serialize_pattern(k4_3))
        assert run_cli(["decide", "hom", "--host", str(hpath), "--pattern", str(ppath)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "yes"
        assert report["params"]["eps"] == "0"

    @pytest.mark.parametrize(
        "host, code",
        [
            (pattern_blowup(Pattern.cycle(5), (5,) * 5), 0),
            (
                plant_violation(
                    pattern_blowup(Pattern.cycle(5), (5,) * 5),
                    contiguous_classes((5,) * 5),
                    9,
                ),
                1,
            ),
            (pattern_blowup(Pattern.cycle(5), (6, 14, 14, 6, 10)), 2),
        ],
        ids=["yes", "no", "refused"],
    )
    def test_decide_shom(self, tmp_path, capsys, host, code):
        hpath, ppath = tmp_path / "host.txt", tmp_path / "c5.txt"
        hpath.write_text(serialize_hypergraph(host))
        ppath.write_text(serialize_pattern(Pattern.cycle(5)))
        argv = ["decide", "shom", "--host", str(hpath), "--pattern", str(ppath)]
        assert run_cli(argv + ["--eps", "1e-9", "--n-small", "15"]) == code
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "decide shom"
        assert report["params"] == {"eps": "1e-9", "n_small": 15, "strict": True}
        assert sorted(report["input_digests"]) == ["host", "pattern"]

    def test_decide_shom_at_the_exact_threshold(self, tmp_path, capsys):
        # at the default eps 0: every vertex of C7's blow-up has degree
        # exactly φ(C7)·n = 2/7·147
        hpath, ppath = tmp_path / "host.txt", tmp_path / "c7.txt"
        hpath.write_text(serialize_hypergraph(pattern_blowup(Pattern.cycle(7), (21,) * 7)))
        ppath.write_text(serialize_pattern(Pattern.cycle(7)))
        assert run_cli(["decide", "shom", "--host", str(hpath), "--pattern", str(ppath)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "yes" and report["params"]["eps"] == "0"

    @pytest.mark.parametrize(
        "host, code",
        [
            (turan_graph(40, 2), 0),
            (plant_violation(turan_graph(40, 2), turan_classes(40, 2), 5), 1),
            (pattern_blowup(Pattern.complete_graph(2), (10, 30)), 2),
        ],
        ids=["yes", "no", "refused"],
    )
    def test_decide_kfree(self, tmp_path, capsys, host, code):
        paths = {name: tmp_path / f"{name}.txt" for name in ("host", "k3", "k2")}
        paths["host"].write_text(serialize_hypergraph(host))
        paths["k3"].write_text(serialize_hypergraph(catalog("complete", n=3)))
        paths["k2"].write_text(serialize_pattern(Pattern.complete_graph(2)))
        argv = ["decide", "kfree", "--host", str(paths["host"])]
        assert run_cli(argv + ["--f", str(paths["k3"]), "--pattern", str(paths["k2"])]) == code
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "decide kfree"
        assert report["params"] == {"eps": "0", "n_small": None, "strict": True}
        assert sorted(report["input_digests"]) == ["forbidden", "host", "pattern"]

    @pytest.mark.parametrize("s", [2, 4, 10])
    def test_decide_kfree_reads_an_exact_eps(self, tmp_path, capsys, s):
        # the AES host has minimum degree exactly 5/8 of n: at eps = ε_F(K4)
        # = 1/24 the K_k row refuses it, and the decimal just below 1/24 is
        # read exactly, so the λ gate refuses it
        host = aes_host(3, s)
        paths = {name: tmp_path / f"{name}.txt" for name in ("host", "k4", "k3")}
        paths["host"].write_text(serialize_hypergraph(host))
        paths["k4"].write_text(serialize_hypergraph(catalog("complete", n=4)))
        paths["k3"].write_text(serialize_pattern(Pattern.complete_graph(3)))
        argv = ["decide", "kfree", "--host", str(paths["host"])]
        argv += ["--f", str(paths["k4"]), "--pattern", str(paths["k3"]), "--eps"]
        assert run_cli(argv + ["1/24"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["params"]["eps"] == "1/24"
        assert report["results"]["reason"] == f"minimum degree {5 * s} is not above 5/8 of {host.n}"
        assert report["results"]["details"]["bound"] == [5, 8]
        assert run_cli(argv + ["0.041666666666666664"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["params"]["eps"] == "0.041666666666666664"
        assert f"minimum degree {5 * s} below the threshold " in report["results"]["reason"]

    def test_decide_kfree_refuses_a_colorable_pairing(self, tmp_path, capsys):
        # K3 is K3-colorable: the pairing is an input error, not a verdict
        paths = {name: tmp_path / f"{name}.txt" for name in ("host", "k3", "p3")}
        paths["host"].write_text(serialize_hypergraph(turan_graph(60, 3)))
        paths["k3"].write_text(serialize_hypergraph(catalog("complete", n=3)))
        paths["p3"].write_text(serialize_pattern(Pattern.complete_graph(3)))
        argv = ["decide", "kfree", "--host", str(paths["host"]), "--f", str(paths["k3"])]
        assert run_cli(argv + ["--pattern", str(paths["p3"])]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("linkclust: error: ")
        assert "colorable by the pattern" in captured.err

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (
                ["decide", "kcolor", "--host", "{t30}", "--l", "3"],
                ["parse_hypergraph", "decide_k_colorable", "build_report"],
            ),
            (
                ["cluster", "--host", "{t30}", "--l", "3", "--delta", "1/4"],
                ["parse_hypergraph", "hamming_clustering", "build_report"],
            ),
            (["lagrangian", "--pattern", "{k3p}"], ["parse_pattern", "lagrangian", "build_report"]),
            (["phi", "--pattern", "{k3p}"], ["parse_pattern", "phi", "build_report"]),
            (
                ["rigidity", "--pattern", "{c4p}"],
                ["parse_pattern", "rigidity_report", "is_minimal", "build_report"],
            ),
            (
                ["oracle", "embed", "--f", "{k3}", "--host", "{k4}"],
                ["parse_hypergraph", "parse_hypergraph", "find_embedding", "build_report"],
            ),
            (
                ["oracle", "hom", "--pattern", "{c5p}", "--host", "{k33}"],
                ["parse_pattern", "parse_hypergraph", "find_homomorphism", "build_report"],
            ),
        ],
        ids=["kcolor", "cluster", "lagrangian", "phi", "rigidity", "oracle_embed", "oracle_hom"],
    )
    def test_reports_run_the_current_module_globals(
        self, report_files, capsys, monkeypatch, argv, calls
    ):
        # tracing tools patch these names; the subcommand table must not
        # hold the functions it saw at import
        import linkclust.cli
        import linkclust.formats

        seen = []

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                seen.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("parse_hypergraph", "parse_pattern", "build_report"):
            counting(linkclust.formats, name)
        for name in calls:
            if not hasattr(linkclust.formats, name):
                counting(linkclust.cli, name)
        assert run_cli([a.format(**report_files) for a in argv]) in (0, 1)
        capsys.readouterr()
        assert seen == calls

    def test_cluster_command(self, turan_file, capsys):
        code = run_cli(
            ["cluster", "--host", turan_file, "--l", "3", "--delta", "1/4"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [len(c) for c in report["witness"]["classes"]] == [10, 10, 10]

    def test_lagrangian_command(self, k3_pattern_file, capsys):
        code = run_cli(["lagrangian", "--pattern", k3_pattern_file])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["results"]["value"] - 1 / 3) <= 1e-6

    def test_phi_command(self, k3_pattern_file, capsys):
        assert run_cli(["phi", "--pattern", k3_pattern_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "phi"
        assert report["results"]["value"] == phi(Pattern.complete_graph(3)).value

    def test_rigidity_command(self, tmp_path, capsys):
        path = tmp_path / "c4.txt"
        path.write_text(serialize_pattern(Pattern.cycle(4)))
        code = run_cli(["rigidity", "--pattern", str(path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["rigid"] is False
        assert report["results"]["minimal"] is False

    def test_rigidity_of_many_isolated_twins(self, tmp_path, capsys):
        # 1 998 isolated vertices, about two million twin pairs
        path = tmp_path / "isolated.txt"
        path.write_text("2 2000 1\n1 2\n")
        tracemalloc.start()
        try:
            code = run_cli(["rigidity", "--pattern", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 8 << 20
        certificate = json.loads(capsys.readouterr().out)["results"]["certificate"]
        assert (certificate["kind"], certificate["pair"]) == ("twins", [2, 3])

    def test_oracle_embed_exit_codes(self, tmp_path, capsys):
        k3 = tmp_path / "k3.txt"
        k3.write_text(serialize_hypergraph(catalog("complete", n=3)))
        c5 = tmp_path / "c5.txt"
        c5.write_text(serialize_hypergraph(catalog("cycle", k=5)))
        k4 = tmp_path / "k4.txt"
        k4.write_text(serialize_hypergraph(catalog("complete", n=4)))
        assert run_cli(["oracle", "embed", "--f", str(k3), "--host", str(c5)]) == 1
        assert run_cli(["oracle", "embed", "--f", str(k3), "--host", str(k4)]) == 0
        capsys.readouterr()

    def test_oracle_embed_empty_forbidden(self, tmp_path, capsys):
        empty, k4 = tmp_path / "empty.txt", tmp_path / "k4.txt"
        empty.write_text("2 0 0\n")
        k4.write_text(serialize_hypergraph(catalog("complete", n=4)))
        assert run_cli(["oracle", "embed", "--f", str(empty), "--host", str(k4)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"] == {"found": True, "embedding": {}}

    @pytest.mark.parametrize(
        "command", [["oracle", "hom"], ["decide", "hom", "--no-strict"]], ids=["oracle", "fallback"]
    )
    def test_hom_coloring_of_an_empty_host(self, tmp_path, capsys, command):
        # the search colors no vertex, and np.array of that empty list is float
        empty, k3p = tmp_path / "empty.txt", tmp_path / "k3p.txt"
        empty.write_text("2 0 0\n")
        k3p.write_text(serialize_pattern(Pattern.complete_graph(3)))
        assert run_cli([*command, "--pattern", str(k3p), "--host", str(empty)]) == 0
        assert json.loads(capsys.readouterr().out)["witness"] == {"classes": [[], [], []]}

    def test_oracle_hom_surjective(self, tmp_path, capsys):
        c5p = tmp_path / "c5p.txt"
        c5p.write_text(serialize_pattern(Pattern.cycle(5)))
        k33 = tmp_path / "k33.txt"
        k33.write_text(serialize_hypergraph(turan_graph(6, 2)))
        assert run_cli(["oracle", "hom", "--pattern", str(c5p), "--host", str(k33)]) == 0
        assert (
            run_cli(
                [
                    "oracle",
                    "hom",
                    "--pattern",
                    str(c5p),
                    "--host",
                    str(k33),
                    "--surjective",
                ]
            )
            == 1
        )
        capsys.readouterr()

    def test_gen_catalog_and_join(self, tmp_path, capsys):
        assert run_cli(["gen", "catalog", "--name", "fano"]) == 0
        fano_text = capsys.readouterr().out
        assert parse_hypergraph(fano_text) == catalog("fano")
        k2 = tmp_path / "k2.txt"
        k2.write_text(serialize_hypergraph(catalog("complete", n=2)))
        assert run_cli(
            ["gen", "join", "--g", str(k2), "--q", "1", "--part-size", "2"]
        ) == 0
        joined = parse_hypergraph(capsys.readouterr().out)
        assert len(joined) == 5

    def test_gen_blowup(self, tmp_path, capsys):
        c5p = tmp_path / "c5p.txt"
        c5p.write_text(serialize_pattern(Pattern.cycle(5)))
        code = run_cli(
            ["gen", "blowup", "--pattern", str(c5p), "--sizes", "2,2,2,2,2"]
        )
        assert code == 0
        host = parse_hypergraph(capsys.readouterr().out)
        assert host.n == 10 and len(host) == 20

    def test_oversized_generator_request_is_3(self, capsys):
        # refused before the 400 TB edge array is asked for
        assert run_cli(["gen", "turan", "--n", "10000000", "--l", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "linkclust: error: 25000000000000 edges of 2 vertices need 400000000000000 "
            "bytes, above MAX_EDGE_ARRAY_BYTES = 1073741824\n"
        )

    def test_usage_error_is_64(self, capsys):
        assert run_cli(["decide", "kcolor", "--l"]) == 64
        assert run_cli(["nonsense"]) == 64
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["decide", "kcolor", "--l", "3", "--eps", "0.5"],
            ["decide", "avg", "--l", "2", "--k", "2", "--restarts", "3"],
        ],
        ids=["kcolor_eps", "avg_restarts"],
    )
    def test_options_a_decider_does_not_read_are_64(self, turan_file, capsys, argv):
        assert run_cli([*argv, "--host", turan_file]) == 64
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "--l", "3", "--delta", "abc"],
            ["cluster", "--l", "3", "--delta", "1/0"],
            ["gen", "blowup", "--pattern", "p.txt", "--sizes", "a,b"],
            ["bench", "--scenario", "kcolor", "--sizes", "x"],
            ["gen", "perturb", "--host", "h.txt", "--classes", "x"],
        ],
        ids=["delta", "delta_zero_denominator", "blowup_sizes", "bench_sizes", "classes"],
    )
    def test_malformed_arguments_are_64(self, capsys, argv):
        assert run_cli(argv) == 64
        err = capsys.readouterr().err
        assert "linkclust" in err and "error: argument" in err
        assert "Traceback" not in err

    def test_internal_error_is_3(self, turan_file, capsys, caplog, monkeypatch):
        import linkclust.cli

        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(linkclust.cli, "hamming_clustering", broken)
        caplog.set_level("DEBUG", logger="linkclust.cli")
        assert run_cli(["cluster", "--host", turan_file, "--l", "3", "--delta", "1/4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "linkclust: internal error: RuntimeError: boom\n"
        # the traceback goes to the debug log
        assert [r.exc_info[0] for r in caplog.records] == [RuntimeError]

    def test_decide_kcolor_below_the_threshold(self, tmp_path, capsys):
        # the 5 x 250 pentagon blow-up is 3-colorable but far below the
        # degree bound, so the exhaustive fallback answers
        host = pattern_blowup(Pattern.cycle(5), (250,) * 5)
        path = tmp_path / "c5x250.txt"
        path.write_text(serialize_hypergraph(host))
        assert run_cli(["decide", "kcolor", "--host", str(path), "--l", "3", "--no-strict"]) == 0
        classes = json.loads(capsys.readouterr().out)["witness"]["classes"]
        colors = [-1] * host.n
        for c, members in enumerate(classes):
            for v in members:
                colors[v] = c
        assert is_valid_coloring(host, Pattern.complete_graph(3), colors)

    def test_missing_file_is_3(self, capsys):
        assert run_cli(["decide", "kcolor", "--host", "/no/such/file", "--l", "3"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("content", [None, b"2 3 1\n0 1 # caf\xe9\n"], ids=["directory", "latin1"])
    def test_unreadable_input_is_3(self, tmp_path, capsys, content):
        host = tmp_path / "host"
        if content is None:
            host.mkdir()
        else:
            host.write_bytes(content)
        assert run_cli(["decide", "kcolor", "--host", str(host), "--l", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("linkclust: error: ")
        assert "Traceback" not in captured.err

    def test_stdin_is_read_as_utf8_like_a_file(self, tmp_path, capsys, monkeypatch):
        import io

        # stdin opened in Latin-1, as under a Latin-1 locale
        def stdin(data: bytes):
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), "latin-1"))

        data = "2 3 1\r\n0 1 # caf\xe9\r\n".encode("utf-8")
        host = tmp_path / "host.txt"
        host.write_bytes(data)
        argv = ["decide", "kcolor", "--l", "3", "--host"]
        code = run_cli([*argv, str(host)])
        from_file = json.loads(capsys.readouterr().out)["input_digests"]
        stdin(data)
        assert run_cli([*argv, "-"]) == code
        assert json.loads(capsys.readouterr().out)["input_digests"] == from_file
        stdin(b"2 3 1\n0 1 # caf\xe9\n")
        assert run_cli([*argv, "-"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("linkclust: error: ")
        assert "Traceback" not in captured.err

    def test_parse_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 3 1\n0 0\n")
        assert run_cli(["decide", "kcolor", "--host", str(bad), "--l", "3"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "option", [["--opt-seed", "-1"], ["--restarts", "0"], ["--restarts", "-3"]]
    )
    @pytest.mark.parametrize("command", ["lagrangian", "phi", "rigidity", "decide shom"])
    def test_invalid_optimizer_options_are_3(self, tmp_path, capsys, command, option):
        # the restart count is no option: no command recognizes --restarts
        path = tmp_path / "c5.txt"
        path.write_text(serialize_pattern(Pattern.cycle(5)))
        argv = [*command.split(), "--pattern", str(path), *option]
        if command == "decide shom":
            host = tmp_path / "host.txt"
            host.write_text(serialize_hypergraph(pattern_blowup(Pattern.cycle(5), [2] * 5)))
            argv += ["--host", str(host)]
        code = run_cli(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        if option[0] == "--restarts":
            assert code == 64
            assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(option)}\n")
        else:
            assert code == 3
            assert captured.err.startswith("linkclust: error: ")

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_is_64(self, turan_file, k3_pattern_file, capsys, eps):
        # --eps is read as an exact fraction, as --delta is
        argv = ["decide", "hom", "--host", turan_file, "--pattern", k3_pattern_file]
        assert run_cli(argv + ["--eps", eps]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --eps: invalid fraction value: '{eps}'\n")

    def test_oracle_budget_nan_is_3(self, turan_file, k3_pattern_file, capsys):
        argv = ["oracle", "hom", "--pattern", k3_pattern_file, "--host", turan_file]
        assert run_cli(argv + ["--oracle-budget", "nan"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "linkclust: error: oracle budget nan never runs out\n"

    @pytest.mark.parametrize(
        "argv, budget",
        [
            (["decide", "hom", "--pattern", "{k3p}", "--no-strict"], "nan"),
            (["decide", "kcolor", "--l", "3"], "inf"),
        ],
        ids=["hom_nan", "kcolor_inf"],
    )
    def test_unbounded_oracle_budget_is_3_above_the_threshold(
        self, report_files, capsys, argv, budget
    ):
        # T(30,3) never reaches the oracle, and the budget is still refused
        argv = [a.format(**report_files) for a in argv] + ["--host", report_files["t30"]]
        assert run_cli(argv + ["--oracle-budget", budget]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"linkclust: error: oracle budget {budget} never runs out\n"

    def test_rigidity_of_a_single_vertex_is_3(self, tmp_path, capsys):
        path = tmp_path / "k1.txt"
        path.write_text("2 1 0\n")
        assert run_cli(["rigidity", "--pattern", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "linkclust: error: rigidity needs at least 2 vertices\n"

    def test_restarts_above_the_memory_cap_are_3(self, tmp_path, capsys, monkeypatch):
        import importlib

        module = importlib.import_module("linkclust.lagrangian")
        # five vertices, so the restarts need RESTARTS * 5 * 5 * 8 bytes of
        # Hessians; r = 3 and not complete, so the CLI runs the numeric
        # optimizer on it
        batch = module.RESTARTS * 5 * 5 * 8
        k5_3_minus = Pattern.from_multisets(3, 5, list(itertools.combinations(range(5), 3))[1:])
        path = tmp_path / "k5_3_minus.txt"
        path.write_text(serialize_pattern(k5_3_minus))
        argv = ["lagrangian", "--pattern", str(path), "--opt-seed", "70003"]
        monkeypatch.setattr(module, "MAX_BATCH_BYTES", batch - 1)
        assert run_cli(argv) == 3
        assert f"MAX_BATCH_BYTES = {batch - 1}\n" in capsys.readouterr().err
        monkeypatch.setattr(module, "MAX_BATCH_BYTES", batch)
        assert run_cli(argv) == 0
        capsys.readouterr()

    def test_report_is_reproducible(self, turan_file, capsys):
        argv = ["decide", "kcolor", "--host", turan_file, "--l", "3"]
        run_cli(argv)
        first = json.loads(capsys.readouterr().out)
        run_cli(argv)
        second = json.loads(capsys.readouterr().out)
        first["stats"].pop("wall_time_s")
        second["stats"].pop("wall_time_s")
        assert first == second

    def test_text_format(self, turan_file, capsys):
        code = run_cli(
            ["decide", "kcolor", "--host", turan_file, "--l", "3", "--format", "text"]
        )
        out = capsys.readouterr().out
        assert code == 0 and "verdict: yes" in out

    def test_version_flag(self, capsys):
        assert run_cli(["--version"]) == 0
        assert "linkclust" in capsys.readouterr().out


# -- inputs as bytes --------------------------------------------------------------


_T30 = serialize_hypergraph(turan_graph(30, 3))
# the same host with every kind of line break, a UTF-8 comment, a BOM, and a
# Latin-1 comment, which is not UTF-8
_SPELLINGS = {
    "lf": _T30.encode("utf-8"),
    "crlf": _T30.replace("\n", "\r\n").encode("utf-8"),
    "cr": _T30.replace("\n", "\r").encode("utf-8"),
    "mixed": _T30.replace("\n", "\r\n", 40).replace("\n", "\r", 40).encode("utf-8"),
    "utf8-comment": ("# caf\xe9\r" + _T30).encode("utf-8"),
    "bom": b"\xef\xbb\xbf" + _T30.encode("utf-8"),
    "latin1-comment": ("# caf\xe9\n" + _T30).encode("latin-1"),
}


@pytest.mark.parametrize("spelling", list(_SPELLINGS))
@pytest.mark.parametrize(
    "command",
    [["decide", "kcolor", "--l", "3"], ["cluster", "--l", "3", "--delta", "1/3"]],
    ids=["kcolor", "cluster"],
)
def test_input_digests_hash_the_text_a_utf8_file_reads_as(
    tmp_path, capsys, monkeypatch, spelling, command
):
    import io

    data = _SPELLINGS[spelling]
    host = tmp_path / "host.txt"
    host.write_bytes(data)
    # the rule: the UTF-8 encoding of the text Path.read_text gives, or its error
    try:
        expected = {"host": hashlib.sha256(host.read_text(encoding="utf-8").encode()).hexdigest()}
    except UnicodeDecodeError as exc:
        expected = f"linkclust: error: {exc}\n"
    code = run_cli([*command, "--host", str(host)])
    captured = capsys.readouterr()
    if spelling == "bom":  # the BOM is part of the header's first token
        assert code == 3
        assert captured.err == (
            "linkclust: error: line 1: header must be 3 integers, got '\\ufeff2 30 300'\n"
        )
    elif spelling == "latin1-comment":  # read_text's own error
        assert (code, captured.err) == (3, expected)
    else:
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["input_digests"] == expected
    # the same bytes on a stdin opened in Latin-1, as under a Latin-1 locale
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), "latin-1"))
    assert run_cli([*command, "--host", "-"]) == code
    from_stdin = capsys.readouterr()
    assert from_stdin.err == captured.err
    if code == 0:
        assert json.loads(from_stdin.out)["input_digests"] == expected


def test_a_text_stdin_is_hashed_as_it_reads(capsys, monkeypatch):
    import io

    # an io.StringIO has no bytes below it: its text is encoded as it reads,
    # with its line breaks as they are
    text = _T30.replace("\n", "\r\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run_cli(["decide", "kcolor", "--l", "3"]) == 0
    digests = json.loads(capsys.readouterr().out)["input_digests"]
    assert digests == {"host": hashlib.sha256(text.encode()).hexdigest()}


def test_the_decide_path_hands_the_host_on_as_bytes(turan_file, capsys, monkeypatch):
    seen = []
    parse, report = formats.parse_hypergraph, formats.build_report

    def parse_spy(source):
        seen.append(("parse", type(source)))
        return parse(source)

    def report_spy(*args, inputs, **kwargs):
        seen.append(("report", *{type(v) for v in inputs.values()}))
        return report(*args, inputs=inputs, **kwargs)

    monkeypatch.setattr(formats, "parse_hypergraph", parse_spy)
    monkeypatch.setattr(formats, "build_report", report_spy)
    assert run_cli(["decide", "kcolor", "--host", turan_file, "--l", "3"]) == 0
    capsys.readouterr()
    assert seen == [("parse", bytes), ("report", bytes)]


@pytest.mark.parametrize("module", ["linkclust", "linkclust.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    import os
    import subprocess
    import sys

    import linkclust

    env = {**os.environ, "PYTHONPATH": str(Path(linkclust.__file__).parent.parent)}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env
        )

    helped = run("--help")
    assert helped.returncode == 0 and helped.stdout.startswith("usage: linkclust")
    host = tmp_path / "t30.txt"
    host.write_text(_T30)
    decided = run("decide", "kcolor", "--host", str(host), "--l", "3")
    assert (decided.returncode, decided.stderr) == (0, "")
    assert json.loads(decided.stdout)["verdict"] == "yes"
