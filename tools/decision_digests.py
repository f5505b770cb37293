"""Print one SHA-256 per case of a fixed corpus of decisions and
calibrations, so that two versions of ``linkclust`` can be shown to decide
and calibrate alike with one command each:

    PYTHONPATH=src python3 tools/decision_digests.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python3 tools/decision_digests.py > old.txt
    diff old.txt new.txt

The cases are every decider, strict and non-strict, on small seeded hosts:
the verdict, reason, details, partition labels, violating edge and
``DecideStats`` of each decision, or the error's class and message; and
``lagrangian``, ``phi``, ``rigidity_report`` and ``is_minimal`` (the
report's repr, or the error) on the pattern constructors, the small catalog
hypergraphs read as patterns and the patterns the tests pin, edgeless ones
and r >= 3 numeric ones among them, the numeric ones once more at a second
seed, the one option of ``OptConfig``.  Then come the decisions added
since, after the calibrations so that the earlier lines stay a prefix of
the output: k-colorability's non-strict fallback with more colors than the
maximum degree plus one, and the exits of ``clique_avg_decide`` that the
first corpus does not reach.  No case can run out of its oracle budget:
every exhaustive search is on at most 12 vertices, or on a colorable host
of at most 36, and ends within milliseconds of the default 60 s.  Each
line is the digest and the case's name; the last line is the digest of all
the others.  The corpus uses the public API only, and runs in about three
seconds.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from fractions import Fraction
from pathlib import Path

import linkclust
from linkclust import (
    DeciderConfig,
    Decision,
    Hypergraph,
    OptConfig,
    Partition,
    Pattern,
    catalog,
    clique_avg_decide,
    decide_hom_minimal,
    decide_k_colorable,
    decide_shom_rigid,
    delete_random_edges,
    embed_min_decide,
    hamming_clustering,
    is_minimal,
    lagrangian,
    pattern_blowup,
    peel,
    phi,
    plant_violation,
    rigidity_report,
    turan_classes,
    turan_graph,
)


def _complete(r: int, l: int) -> Pattern:
    return Pattern(r, l, list(itertools.combinations(range(l), r)))


def _as_pattern(host: Hypergraph) -> Pattern:
    return Pattern(host.r, host.n, [tuple(e) for e in host.edge_array.tolist()])


def patterns() -> list[tuple[str, Pattern]]:
    """The calibrated patterns: closed forms, r = 2 exact records, edgeless
    patterns and r >= 3 patterns on the numeric path."""
    out = [(f"K{k}", Pattern.complete_graph(k)) for k in (2, 3, 4, 5)]
    out += [(f"C{k}", Pattern.cycle(k)) for k in (4, 5, 6, 7)]
    out += [(f"P{k}", Pattern.path(k)) for k in (2, 3, 4)]
    out += [(f"E{r}", Pattern.single_edge(r)) for r in (2, 3, 4)]
    out += [(f"K{l}^({r})", _complete(r, l)) for r, l in ((3, 4), (3, 5), (4, 5))]
    out += [
        ("loops-00-11-03-12-23", Pattern(2, 4, [(0, 0), (1, 1), (0, 3), (1, 2), (2, 3)])),
        ("loop-00-01-12", Pattern(2, 3, [(0, 0), (0, 1), (1, 2)])),
        ("K3-plus-a-loop", Pattern(2, 3, [(0, 1), (0, 2), (1, 2), (0, 0)])),
        ("isolated-vertex", Pattern(2, 3, [(0, 1)])),
        ("twin-pair", Pattern(2, 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])),
        ("r1", Pattern(1, 3, [(0,), (1,), (2,)])),
        ("K4^(3)-", Pattern(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])),
        ("K5^(3)-", Pattern(3, 5, list(itertools.combinations(range(5), 3))[1:])),
        ("K4^(3)-plus-001", Pattern(3, 4, [*itertools.combinations(range(4), 3), (0, 0, 1)])),
        ("001-011", Pattern(3, 2, [(0, 0, 1), (0, 1, 1)])),
        ("twins-r3", Pattern(3, 3, [(0, 0, 2), (0, 1, 2), (1, 1, 2)])),
        ("loops-r3", Pattern(3, 4, [(1, 1, 1), (0, 0, 0), (1, 1, 2), (1, 1, 3)])),
        ("r4", Pattern(4, 3, [(0, 0, 0, 1), (1, 1, 2, 2), (0, 1, 2, 2)])),
        ("fano", _as_pattern(catalog("fano"))),
        ("generalized-triangle-r3", _as_pattern(catalog("generalized_triangle", r=3))),
        ("f_3_2", _as_pattern(catalog("f_3_2"))),
    ]
    empty = ((1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3))
    out += [(f"empty-r{r}-l{l}", Pattern(r, l, [])) for r, l in empty]
    return out


def _outcome(call, *args) -> bytes:
    """``repr`` of what ``call(*args)`` returns, or the error's class and
    message.  A decision reads as its verdict, reason, details, partition
    labels, violating edge and stats."""
    try:
        got = call(*args)
    except linkclust.LinkclustError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    if isinstance(got, Decision):
        labels = None if got.partition is None else got.partition.labels.tolist()
        got = (got.verdict.value, got.reason, got.details, labels, got.violating_edge, got.stats)
    elif isinstance(got, Partition):
        got = got.labels.tolist()
    return repr(got).encode()


CONFIGS = {
    "strict": DeciderConfig(),
    "non-strict": DeciderConfig(strict=False),
    "eps-1/24": DeciderConfig(eps=Fraction(1, 24)),
    "eps-1/1000-non-strict": DeciderConfig(eps=Fraction(1, 1000), strict=False),
}


def decisions() -> list[tuple[str, bytes]]:
    """Every decider's outcomes, by name: the pattern deciders and
    k-colorability once per entry of ``CONFIGS``, then the clique decider,
    peeling and the clustering, which take no config."""
    t36 = turan_graph(36, 3)
    e3, k3, c5 = Pattern.single_edge(3), Pattern.complete_graph(3), Pattern.cycle(5)
    k4m = Pattern(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    b3 = pattern_blowup(e3, (10, 10, 10))
    graphs = {
        "T36": t36,
        "T36-planted": plant_violation(t36, turan_classes(36, 3), 11),
        "T12-thinned": delete_random_edges(turan_graph(12, 3), 6, 3),
        "T9-planted": plant_violation(turan_graph(9, 3), turan_classes(9, 3), 5),
    }
    calls = []
    for name, host in graphs.items():
        calls += [
            (f"kcolor-3 {name}", decide_k_colorable, host, 3),
            (f"kcolor-4 {name}", decide_k_colorable, host, 4),
            (f"hom-K3 {name}", decide_hom_minimal, host, k3),
            (f"shom-K3 {name}", decide_shom_rigid, host, k3),
            (f"kfree-K4-K3 {name}", embed_min_decide, host, catalog("complete", n=4), k3),
        ]
    c5_blowup = pattern_blowup(c5, (7,) * 5)
    b3_planted = plant_violation(b3, turan_classes(30, 3), 7)
    triangle = catalog("generalized_triangle", r=3)
    nonrigid = Pattern(2, 4, [(0, 0), (1, 1), (0, 3), (1, 2), (2, 3)])
    k4m_blowup = pattern_blowup(k4m, (12, 8, 8, 8))  # on the threshold: the float λ is above 4/81
    calls += [
        ("hom-E3 B3", decide_hom_minimal, b3, e3),
        ("hom-E3 B3-planted", decide_hom_minimal, b3_planted, e3),
        ("shom-E3 B3", decide_shom_rigid, b3, e3),
        ("kfree-F5-E3 B3", embed_min_decide, b3, triangle, e3),
        ("kfree-F5-E3 B3-planted", embed_min_decide, b3_planted, triangle, e3),
        ("hom-C5 C5-blowup", decide_hom_minimal, c5_blowup, c5),
        ("shom-C5 C5-blowup", decide_shom_rigid, c5_blowup, c5),
        ("shom-C5 C5-small", decide_shom_rigid, pattern_blowup(c5, (2,) * 5), c5),
        ("shom-nonrigid C5-blowup", decide_shom_rigid, c5_blowup, nonrigid),
        ("hom-K4^(3)- 12888-blowup", decide_hom_minimal, k4m_blowup, k4m),
        ("shom-K4^(3)- 12888-blowup", decide_shom_rigid, k4m_blowup, k4m),
    ]
    out = [
        (f"{name} {label}", _outcome(decide, *args, cfg))
        for name, decide, *args in calls
        for label, cfg in CONFIGS.items()
    ]
    t60 = turan_graph(60, 3)
    plain = [
        ("avg-3-0 T60", clique_avg_decide, t60, 3, 0),
        ("avg-3-0 T60-planted", clique_avg_decide, plant_violation(t60, turan_classes(60, 3), 2), 3, 0),
        ("avg-2-1 T60-2-thinned", clique_avg_decide, delete_random_edges(turan_graph(60, 2), 1, 4), 2, 1),
        ("avg-3-2 T36", clique_avg_decide, t36, 3, 2),
        ("peel-3 T36-planted", peel, graphs["T36-planted"], 3),
        ("peel-3 T12-thinned", peel, graphs["T12-thinned"], 3),
        ("cluster-3 T36", hamming_clustering, t36, 3, Fraction(1, 10)),
        ("cluster-3 B3", hamming_clustering, b3, 3, Fraction(1, 100)),
    ]
    return out + [(name, _outcome(*call)) for name, *call in plain]


def _near_turan(n: int, k: int, cut: list, add: list) -> Hypergraph:
    """T(n, k) without the edges ``cut`` and with the edges ``add``."""
    cut = set(cut)
    return Hypergraph(2, n, [e for e in turan_graph(n, k).edge_list() if e not in cut] + add)


def later_decisions() -> list[tuple[str, bytes]]:
    """The decisions added after the first corpus, by name: k-colorability's
    non-strict fallback at k > Δ+1 for the maximum degree Δ, and the
    clique decider's step-1 "no" (vertex 0 of T(54, 3) peeled at degree 33,
    its 3 cut edges repaid inside a part) and its unforced step-4 "yes" and
    step-3 "no" on T(481, 8) (vertex 0 peeled after losing 61 and 62, then
    also 63 while gaining 1)."""
    triangle = Hypergraph(2, 5, [(0, 1), (0, 2), (1, 2)])
    star = Hypergraph(2, 7, [(0, 1), (0, 2), (0, 3), (4, 5)])
    kcolor = [
        ("kcolor-4 C5", catalog("cycle", k=5), 4),
        ("kcolor-4 K3-plus-2-isolated", triangle, 4),
        ("kcolor-6 E6", Hypergraph(2, 6, []), 6),
        ("kcolor-5 star-K1,3-plus-an-edge", star, 5),
    ]
    stripped = _near_turan(54, 3, [(0, 18), (0, 19), (0, 20)], [(18, 21), (18, 22), (18, 23)])
    avg = [
        ("avg-3-0 T54-stripped", stripped, 3, 0),
        ("avg-8-2 T481-cut-0-61-62", _near_turan(481, 8, [(0, 61), (0, 62)], []), 8, 2),
        (
            "avg-8-2 T481-cut-0-61-62-63-plus-0-1",
            _near_turan(481, 8, [(0, 61), (0, 62), (0, 63)], [(0, 1)]),
            8,
            2,
        ),
    ]
    relaxed = CONFIGS["non-strict"]
    out = [
        (f"{name} non-strict", _outcome(decide_k_colorable, host, k, relaxed))
        for name, host, k in kcolor
    ]
    return out + [(name, _outcome(clique_avg_decide, *args)) for name, *args in avg]


SECOND_SEED = OptConfig(seed=3)


def cases() -> list[tuple[str, bytes]]:
    """Every case of the corpus, as its name and the bytes digested: the
    calibrations at the default config, then those of the r >= 3 patterns
    with edges that are not complete (the numeric path) at ``SECOND_SEED``,
    then :func:`later_decisions`."""
    out = [(f"decide {name}", data) for name, data in decisions()]
    calls = (lagrangian, phi, rigidity_report, is_minimal)
    for name, pattern in patterns():
        out += [(f"{call.__name__} {name}", _outcome(call, pattern)) for call in calls]
    for name, pattern in patterns():
        if pattern.r >= 3 and pattern.edges and not pattern.is_complete():
            out += [
                (f"{call.__name__} {name} seed-3", _outcome(call, pattern, SECOND_SEED))
                for call in calls
            ]
    return out + [(f"decide {name}", data) for name, data in later_decisions()]


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
