"""The benchmark's workloads: fixed request lists over the public surface
of linkclust, and the checks of every answer.

* ``graph-text``: r = 2 CLI requests on files, where the text formats do
  nearly all the work.
* ``hyper-array``: r = 3 library calls on edge arrays, where the build,
  the clustering and the edge signatures do the work.
* ``calibrate-small``: small CLI requests, where cold numeric calibration
  and the exhaustive oracles do the work.

Each workload makes its inputs from the run's seed; the request list does
not depend on the seed, so every run does the same amount of work.
``round_nominal_s`` is one round's requests and kernel samples in
reference seconds, measured when the benchmark was made; it fixes how many
rounds a run of a given length makes.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from fractions import Fraction

import numpy as np

from checks import (
    CLOSED_FORMS,
    CheckFailed,
    check_coloring,
    check_digests,
    check_embedding,
    check_host_edge,
    check_multipartite_text,
    check_roundtrip,
    check_value,
    read_edges,
    require,
    sha256_text,
)
from harness import Refused, Request

GRAPH_N = 1200  # graph-text: T(1200,3), T(1200,4) and T(1200,2) minus k edges
GRAPH_WARM_N = 60
HYPER_CLASS = 80  # hyper-array: complete 3-partite 3-graph on 3 x 80 vertices
HYPER_WARM_CLASS = 10
# The clustering radius the r = 3 deciders use for the single-edge pattern:
# (smallest optimal coordinate / 2)^(r-1) / (r-1)! with coordinate 1/3.
HYPER_RADIUS = Fraction(1, 6) ** 2 / 2
ORACLE_CLASS = 5  # calibrate-small oracle hosts: 3 x 5 vertices
BLOWUP_SIZES = {"C5": 30, "C7": 21, "K4^(3)": 25}  # n = 150, 147, 100
# --opt-seed bases.  Every request gets a seed of its own, so that it never
# reuses an earlier request's cached calibration.  The seeds do not depend on
# the run's seed: the optimizer's work varies by tens of percent from one
# --opt-seed to another, and every run is to do the same work.
REFUSED_SEED_BASE = 1_000_000_000
WARM_SEED_BASE = 2_000_000_000
NUMERIC_SEED_BASE = 3_000_000_000


def clique_vectors(l: int) -> list[tuple[int, ...]]:
    """Edges of K_l as multiplicity vectors."""
    return [tuple(int(v in (i, j)) for v in range(l)) for i in range(l) for j in range(i + 1, l)]


def cycle_vectors(l: int) -> list[tuple[int, ...]]:
    return [tuple(int(v in (i, (i + 1) % l)) for v in range(l)) for i in range(l)]


def triple_vectors(l: int) -> list[tuple[int, ...]]:
    """Edges of the complete 3-graph on l vertices (l = 3: the single edge)."""
    return [
        tuple(int(v in (a, b, c)) for v in range(l))
        for a in range(l)
        for b in range(a + 1, l)
        for c in range(b + 1, l)
    ]


PATTERN_VECTORS = {"C5": cycle_vectors(5), "C7": cycle_vectors(7), "K4^(3)": triple_vectors(4)}


def _counts(distance_evals: int, edges_scanned: int, budget: int) -> dict:
    return {"distance_evals": distance_evals, "edges_scanned": edges_scanned, "eval_budget": budget}


def _refusal(code: int, out: str, err: str) -> str:
    try:
        report = json.loads(out)
    except ValueError:
        return f"exit {code}: {err.strip()[-300:]}"
    reason = (report.get("results") or {}).get("reason", "")
    return f"exit {code} {report.get('verdict', '')}: {reason}"


def _report(result: tuple[int, str, str], expect: int) -> dict:
    """The JSON report of a CLI call that answered; refusals and errors
    raise :class:`Refused`, a contradicted construction :class:`CheckFailed`."""
    code, out, err = result
    if code not in (0, 1):
        raise Refused(_refusal(code, out, err))
    require(code == expect, f"exit {code}, but the input's construction fixes exit {expect}")
    try:
        return json.loads(out)
    except ValueError:
        raise CheckFailed(f"the report is not JSON: {out[:200]!r}") from None


def _generated(result: tuple[int, str, str]) -> None:
    """A ``gen`` call, which writes its file and reports nothing, succeeded."""
    code, out, err = result
    if code != 0:
        raise Refused(_refusal(code, out, err))


def _classes(report: dict) -> list:
    """The witness coloring's classes of a yes-report."""
    witness = report.get("witness") or {}
    require("classes" in witness, "a yes-report without its witness coloring")
    return witness["classes"]


def _stats_counts(report: dict, budget: int) -> dict:
    stats = report.get("stats") or {}
    return _counts(int(stats.get("distance_evals", 0)), int(stats.get("edges_scanned", 0)), budget)


class _CliWorkload:
    """Requests through ``linkclust.cli.run_cli`` in process, on files."""

    request_span = "cli.self"

    def __init__(self, lc, seed: int, workdir: str, tracer):
        self.lc = lc
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write(self, name: str, text: str) -> str:
        with open(self.path(name), "w") as f:
            f.write(text)
        return self.path(name)

    def read(self, path: str) -> str:
        with open(path) as f:
            return f.read()

    def cli(self, *argv: str) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lc.cli.run_cli(list(argv))
        return code, out.getvalue(), err.getvalue()


class GraphText(_CliWorkload):
    """``gen turan`` and ``decide kcolor``/``decide avg`` on files.

    The seed picks the number k of deleted edges and which edges go.
    """

    name = "graph-text"
    round_nominal_s = 8.6

    def __init__(self, lc, seed, workdir, tracer):
        super().__init__(lc, seed, workdir, tracer)
        self.deleted = 2 + seed % 8
        self._verified: dict[str, np.ndarray] = {}
        # Format round trips of the generated files, run after the last
        # request: they hold a graph and its text beside the parser's own
        # memory, which would set the run's high-water mark.
        self.deferred: list = []

    def setup(self, index: int) -> Request:
        lc = self.lc
        self.t4_text = lc.serialize_hypergraph(lc.turan_graph(GRAPH_N, 4))
        self.t4 = self.write("t4.txt", self.t4_text)
        return self._kcolor_yes(GRAPH_WARM_N, "warm.txt")

    def round(self, index: int) -> list[Request]:
        return [self._kcolor_yes(GRAPH_N, "t3.txt"), self._kcolor_no(), self._avg_yes()]

    def _edges(self, text: str, n: int, parts: int, deleted: int) -> np.ndarray:
        """Edges of a generated file, verified in full the first time its
        text is seen: the construction now, the format round trip in
        :attr:`deferred`."""
        digest = sha256_text(text)
        if digest not in self._verified:
            edges = check_multipartite_text(text, n, parts, deleted)
            label = f"round trip of T({n},{parts}) minus {deleted} edges"
            self.deferred.append((label, functools.partial(check_roundtrip, self.lc, 2, n, edges)))
            self._verified[digest] = edges
        return self._verified[digest]

    def _kcolor_yes(self, n: int, name: str) -> Request:
        path = self.path(name)

        def run():
            gen = self.cli("gen", "turan", "--n", str(n), "--l", "3", "--out", path)
            return gen, self.cli("decide", "kcolor", "--host", path, "--l", "3", "--seed", str(self.seed))

        def check(result):
            gen, decide = result
            _generated(gen)
            text = self.read(path)
            edges = self._edges(text, n, 3, 0)
            report = _report(decide, 0)
            require(report.get("verdict") == "yes", "T(n,3) is 3-colorable")
            check_coloring(edges, n, _classes(report), clique_vectors(3))
            check_digests(report, {"host": text})
            return _stats_counts(report, 3 * n)

        return Request("kcolor-yes", run, check)

    def _kcolor_no(self) -> Request:
        def run():
            return self.cli("decide", "kcolor", "--host", self.t4, "--l", "3")

        def check(result):
            report = _report(result, 1)
            require(report.get("verdict") == "no", "T(n,4) contains K4, so it is not 3-colorable")
            edges = self._edges(self.t4_text, GRAPH_N, 4, 0)
            check_host_edge((report.get("results") or {}).get("violating_edge"), edges, GRAPH_N)
            check_digests(report, {"host": self.t4_text})
            return _stats_counts(report, 3 * GRAPH_N)

        return Request("kcolor-no", run, check)

    def _avg_yes(self) -> Request:
        path, k = self.path("t2.txt"), self.deleted

        def run():
            gen = self.cli(
                "gen", "turan", "--n", str(GRAPH_N), "--l", "2",
                "--delete-edges", str(k), "--seed", str(self.seed), "--out", path,
            )
            return gen, self.cli("decide", "avg", "--host", path, "--l", "2", "--k", str(k))

        def check(result):
            gen, decide = result
            _generated(gen)
            text = self.read(path)
            edges = self._edges(text, GRAPH_N, 2, k)
            report = _report(decide, 0)
            require(report.get("verdict") == "yes", "a bipartite graph is triangle-free")
            check_coloring(edges, GRAPH_N, _classes(report), clique_vectors(2))
            check_digests(report, {"host": text})
            survivors = GRAPH_N - int((report.get("stats") or {}).get("z") or 0)
            return _stats_counts(report, 2 * survivors)

        return Request("avg-yes", run, check)


class HyperArray:
    """``Hypergraph(3, n, edges)`` plus an r = 3 decider, on arrays.

    Hosts: the complete 3-partite 3-graph, and the same host with one
    triple planted inside a class.  The seed relabels the vertices,
    shuffles the edge rows and picks the planted triple.
    """

    name = "hyper-array"
    request_span = "request"
    round_nominal_s = 5.4

    def __init__(self, lc, seed: int, workdir: str, tracer):
        self.lc = lc
        self.seed = seed
        self.tracer = tracer
        self.single_edge = lc.Pattern.single_edge(3)
        self.triangle = lc.catalog("generalized_triangle", r=3)

    def _hosts(self, size: int) -> tuple[int, np.ndarray, np.ndarray]:
        """(n, yes edges, planted edges) on 3 classes of ``size`` vertices."""
        base = self.lc.pattern_blowup(self.single_edge, (size, size, size))
        n, m = 3 * size, len(base)
        rng = np.random.Generator(np.random.Philox(self.seed))
        perm = rng.permutation(n)
        yes = perm[base.edge_array][rng.permutation(m)]
        labels = np.empty(n, dtype=np.int64)
        labels[perm] = np.repeat(np.arange(3), size)
        members = np.nonzero(labels == rng.integers(3))[0]
        triple = np.sort(rng.choice(members, 3, replace=False))
        planted = np.insert(yes, int(rng.integers(m + 1)), triple, axis=0)
        return n, yes, planted

    def setup(self, index: int) -> Request:
        self.n, self.yes, self.planted = self._hosts(HYPER_CLASS)
        n, yes, _ = self._hosts(HYPER_WARM_CLASS)
        return self._request("hom", n, yes, True)

    def round(self, index: int) -> list[Request]:
        return [
            self._request("hom", self.n, self.yes, True),
            self._request("hom", self.n, self.planted, False),
            self._request("kfree", self.n, self.yes, True),
            self._request("kfree", self.n, self.planted, False),
        ]

    def _request(self, decider: str, n: int, edges: np.ndarray, expect_yes: bool) -> Request:
        lc = self.lc

        def run():
            with self.tracer.span("hypergraph.build"):
                host = lc.Hypergraph(3, n, edges)
            if decider == "hom":
                return host, lc.decide_hom_minimal(host, self.single_edge)
            return host, lc.embed_min_decide(host, self.triangle, self.single_edge)

        def check(result):
            decision = result[1]
            verdict = decision.verdict.value
            if verdict == "precondition_violated":
                raise Refused(f"precondition_violated: {decision.reason}")
            if expect_yes:
                require(verdict == "yes", "a complete 3-partite 3-graph is 3-partite and generalized-triangle-free")
                require(decision.partition is not None, "a yes-decision without its coloring")
                classes = [list(c) for c in decision.partition.classes]
                check_coloring(edges, n, classes, triple_vectors(3))
            else:
                require(verdict == "no", "a triple inside a class is neither 3-partite nor generalized-triangle-free")
                check_host_edge(decision.violating_edge, edges, n)
            stats = decision.stats
            return _counts(stats.distance_evals, stats.edges_scanned, 3 * n)

        def probe(result):
            with self.tracer.span("deciders.cluster"):
                lc.hamming_clustering(result[0], 3, HYPER_RADIUS)

        kind = f"{decider}-{'yes' if expect_yes else 'planted'}"
        return Request(kind, run, check, probe)


class CalibrateSmall(_CliWorkload):
    """Numeric calibration, decisions on blow-ups, and the oracles.

    The seed relabels the oracle hosts and picks their planted triple.
    """

    name = "calibrate-small"
    round_nominal_s = 4.6

    def setup(self, index: int) -> Request:
        lc = self.lc
        patterns = {
            "C5": lc.Pattern.cycle(5),
            "C7": lc.Pattern.cycle(7),
            "K4^(3)": lc.Pattern.from_multisets(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
            "E3": lc.Pattern.single_edge(3),
        }
        self.patterns = {}
        for name, pattern in patterns.items():
            text = lc.serialize_pattern(pattern)
            self.patterns[name] = (self.write(f"{name}.pat", text), text)
        self.blowups = {}
        for name, size in BLOWUP_SIZES.items():
            host = lc.pattern_blowup(patterns[name], [size] * patterns[name].num_vertices)
            self.blowups[name] = self._host(f"{name}.txt", host.n, host.edge_array)
        triangle = lc.serialize_hypergraph(lc.catalog("generalized_triangle", r=3))
        self.triangle = (self.write("gt.txt", triangle), triangle, read_edges(triangle)[2])

        base = lc.pattern_blowup(patterns["E3"], (ORACLE_CLASS,) * 3)
        rng = np.random.Generator(np.random.Philox(self.seed))
        n = base.n
        perm = rng.permutation(n)
        free = perm[base.edge_array]
        members = perm[rng.integers(3) * ORACLE_CLASS + np.arange(ORACLE_CLASS)]
        triple = np.sort(rng.choice(members, 3, replace=False))
        self.free = self._host("free.txt", n, free)
        self.planted = self._host("planted.txt", n, np.concatenate([free, triple[None, :]]))
        return self._numeric("rigidity", "K4^(3)", WARM_SEED_BASE + index)

    def _host(self, name: str, n: int, edges: np.ndarray) -> tuple[str, str, int, np.ndarray]:
        text = self.lc.serialize_hypergraph(self.lc.Hypergraph(edges.shape[1], n, edges))
        return self.write(name, text), text, n, edges

    def round(self, index: int) -> list[Request]:
        numeric_base = NUMERIC_SEED_BASE + 16 * index
        requests = [
            self._numeric(command, pattern, numeric_base + 3 * i + j)
            for i, pattern in enumerate(("C5", "C7", "K4^(3)"))
            for j, command in enumerate(("rigidity", "lagrangian", "phi"))
        ]
        requests += [
            self._decide("shom", "C5", REFUSED_SEED_BASE + 3 * index),
            self._decide("shom", "C7", REFUSED_SEED_BASE + 3 * index + 1),
            self._decide("hom", "K4^(3)", REFUSED_SEED_BASE + 3 * index + 2),
            self._embed(self.free, False),
            self._embed(self.planted, True),
            self._oracle_hom(self.free, True),
            self._oracle_hom(self.planted, False),
        ]
        return requests

    def _numeric(self, command: str, pattern: str, opt_seed: int) -> Request:
        path, text = self.patterns[pattern]
        quantity = "lagrangian" if command == "lagrangian" else "phi"

        def run():
            return self.cli(command, "--pattern", path, "--opt-seed", str(opt_seed))

        def check(result):
            report = _report(result, 0)
            results = report.get("results") or {}
            value = results.get("maximin" if command == "rigidity" else "value")
            check_value(value, CLOSED_FORMS[pattern][quantity], f"{quantity}({pattern})")
            check_digests(report, {"pattern": text})
            return {}

        return Request(f"{command}-{pattern}", run, check)

    def _decide(self, decider: str, pattern: str, opt_seed: int) -> Request:
        ppath, ptext = self.patterns[pattern]
        hpath, htext, n, edges = self.blowups[pattern]

        def run():
            return self.cli("decide", decider, "--host", hpath, "--pattern", ppath, "--opt-seed", str(opt_seed))

        def check(result):
            report = _report(result, 0)
            require(report.get("verdict") == "yes", "a balanced blow-up is colorable by its pattern")
            check_coloring(edges, n, _classes(report), PATTERN_VECTORS[pattern], surjective=decider == "shom")
            check_digests(report, {"host": htext, "pattern": ptext})
            return _stats_counts(report, len(PATTERN_VECTORS[pattern][0]) * n)

        return Request(f"decide-{decider}-{pattern}", run, check)

    def _embed(self, host, expect_found: bool) -> Request:
        hpath, htext, n, edges = host
        fpath, ftext, triangle_edges = self.triangle

        def run():
            return self.cli("oracle", "embed", "--f", fpath, "--host", hpath)

        def check(result):
            report = _report(result, 0 if expect_found else 1)
            results = report.get("results") or {}
            if expect_found:
                check_embedding(results.get("embedding"), triangle_edges, 5, edges, n)
            else:
                require(results.get("found") is False, "a 3-partite 3-graph is generalized-triangle-free")
            check_digests(report, {"forbidden": ftext, "host": htext})
            return {}

        return Request(f"oracle-embed-{'planted' if expect_found else 'free'}", run, check)

    def _oracle_hom(self, host, expect_yes: bool) -> Request:
        hpath, htext, n, edges = host
        ppath, ptext = self.patterns["E3"]

        def run():
            return self.cli("oracle", "hom", "--pattern", ppath, "--host", hpath)

        def check(result):
            report = _report(result, 0 if expect_yes else 1)
            require(report.get("verdict") == ("yes" if expect_yes else "no"), "verdict contradicts the construction")
            if expect_yes:
                check_coloring(edges, n, _classes(report), triple_vectors(3))
            check_digests(report, {"pattern": ptext, "host": htext})
            return {}

        return Request(f"oracle-hom-{'free' if expect_yes else 'planted'}", run, check)


WORKLOADS = {w.name: w for w in (GraphText, HyperArray, CalibrateSmall)}
