"""Command-line surface.

Exit codes: 0 = yes, 1 = no, 2 = precondition violated, 3 = input or runtime
error, 64 = usage error.  Reports go to standard output as JSON (the run
manifest) or a short text form; generated instances are emitted in the
edge-list text format.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import formats
from .bench import SCENARIOS, bench
from .corpus import (
    CATALOG_NAMES,
    catalog,
    contiguous_classes,
    delete_random_edges,
    join_construction,
    pattern_blowup,
    plant_violation,
    turan_classes,
    turan_graph,
)
from .deciders import (
    DeciderConfig,
    Decision,
    clique_avg_decide,
    decide_hom_minimal,
    decide_k_colorable,
    decide_shom_rigid,
    embed_min_decide,
    hamming_clustering,
)
from .errors import LinkclustError
from .hypergraph import Hypergraph, Partition
from .lagrangian import OptConfig, is_minimal, lagrangian, phi, rigidity_report
from .oracles import find_embedding, find_homomorphism
from .patterns import Pattern

EXIT_YES = 0
EXIT_NO = 1
EXIT_PRECONDITION = 2
EXIT_ERROR = 3
EXIT_USAGE = 64

_VERDICT_EXIT = {"yes": EXIT_YES, "no": EXIT_NO, "precondition_violated": EXIT_PRECONDITION}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_text(path: str) -> str:
    if path == "-":
        if hasattr(sys.stdin, "reconfigure"):  # not on an io.StringIO
            sys.stdin.reconfigure(encoding="utf-8")  # as files, whatever the locale
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


# argparse ``type=`` converters: a ValueError is a usage error (exit 64)
def fraction(text: str) -> str:
    try:
        Fraction(text)  # reports echo the text as given
    except ZeroDivisionError:
        raise ValueError(text) from None
    return text


def integers(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def classes(text: str) -> list[list[int]]:
    chunks = text.split(";") if text else []  # no classes, as without the option
    return [[int(v) for v in chunk.split(",") if v != ""] for chunk in chunks]


def _read_inputs(args, keys: tuple[str, ...]) -> tuple[dict[str, str], dict]:
    """Read the input file of every key in order, then parse each text in
    the same order: ``pattern`` as a pattern, any other key as a
    hypergraph.  The parsers are looked up at call time, so a patched
    module global is the one that runs."""
    texts = {key: _read_text(getattr(args, key)) for key in keys}
    parsed = {
        key: (formats.parse_pattern if key == "pattern" else formats.parse_hypergraph)(text)
        for key, text in texts.items()
    }
    return texts, parsed


def _emit_text(report: dict) -> None:
    for key in ("verdict", "results"):
        if key in report:
            if key == "results":
                for k, v in report["results"].items():
                    print(f"{k}: {v}")
            else:
                print(f"{key}: {report[key]}")
    if "witness" in report:
        print(f"classes: {report['witness']['classes']}")
    if "stats" in report:
        parts = " ".join(f"{k}={v}" for k, v in sorted(report["stats"].items()))
        print(f"stats: {parts}")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(formats.dump_report(report))
    else:
        _emit_text(report)


def _decision_stats(decision: Decision, wall: float) -> dict:
    stats = {
        "distance_evals": decision.stats.distance_evals,
        "edges_scanned": decision.stats.edges_scanned,
        "work_units": decision.stats.work_units,
        "wall_time_s": wall,
    }
    if decision.stats.z is not None:
        stats["z"] = decision.stats.z
    return stats


def _decision_results(decision: Decision) -> dict:
    results: dict = {}
    if decision.reason:
        results["reason"] = decision.reason
    if decision.violating_edge is not None:
        results["violating_edge"] = list(decision.violating_edge)
    if decision.details:
        results["details"] = {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in decision.details.items()
        }
    return results


def _finish_decision(
    args, command: str, params: dict, inputs: dict[str, str], decision: Decision, wall: float
) -> int:
    report = formats.build_report(
        command=command,
        params=params,
        inputs=inputs,
        verdict=decision.verdict.value,
        witness=decision.partition,
        stats=_decision_stats(decision, wall),
        results=_decision_results(decision) or None,
        seed=getattr(args, "seed", None),
    )
    _emit(report, args.format)
    return _VERDICT_EXIT[decision.verdict.value]


def _oracle_cfg(args) -> DeciderConfig:
    return DeciderConfig(strict=args.strict, oracle_budget_s=args.oracle_budget)


def _decider_cfg(args) -> DeciderConfig:
    return DeciderConfig(
        eps=args.eps,
        n_small=args.n_small,
        strict=args.strict,
        opt=OptConfig(seed=args.opt_seed, restarts=args.restarts),
        oracle_budget_s=args.oracle_budget,
    )


def _add_common(p: argparse.ArgumentParser, oracle: bool = True, calibrated: bool = True) -> None:
    """Options of a ``decide`` subcommand: I/O, then those of the oracle
    fallback and those of a pattern and its calibration, if it reads them."""
    p.add_argument("--host", default="-", help="host hypergraph file, '-' for stdin")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--seed", type=int, default=None, help="recorded in the report")
    if oracle:
        p.add_argument(
            "--strict",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="refuse sub-threshold inputs instead of falling back to the oracle",
        )
        p.add_argument("--oracle-budget", type=float, default=60.0, dest="oracle_budget")
    if calibrated:
        p.add_argument("--pattern", required=True, help="pattern file")
        p.add_argument("--eps", type=float, default=0.0, help="accepted threshold slack")
        p.add_argument("--n-small", type=int, default=None, dest="n_small")
        p.add_argument("--restarts", type=int, default=64)
        p.add_argument("--opt-seed", type=int, default=1729, dest="opt_seed")


# -- decide ----------------------------------------------------------------------


class _Decide(NamedTuple):
    """One ``decide`` subcommand: the input files it reads (in the order
    host, forbidden, pattern), its report params, and its decider call on
    the parsed inputs.  The calls name the deciders at call time, so a
    patched module global is the one that runs."""

    inputs: tuple[str, ...]
    params: Callable[[argparse.Namespace], dict]
    call: Callable[[argparse.Namespace, dict], Decision]


def _calibrated_params(args) -> dict:
    return {"eps": args.eps, "n_small": args.n_small, "strict": args.strict}


def _cmd_decide(args) -> int:
    spec: _Decide = args.decide
    texts, parsed = _read_inputs(args, spec.inputs)
    t0 = time.perf_counter()
    decision = spec.call(args, parsed)
    wall = time.perf_counter() - t0
    return _finish_decision(
        args, f"decide {args.decider}", spec.params(args), texts, decision, wall
    )


# -- cluster / numerics ------------------------------------------------------------


def _cmd_cluster(args) -> int:
    texts, parsed = _read_inputs(args, ("host",))
    part = hamming_clustering(parsed["host"], args.num_classes, Fraction(args.delta))
    report = formats.build_report(
        command="cluster",
        params={"l": args.num_classes, "delta": args.delta},
        inputs=texts,
        witness=part,
    )
    _emit(report, args.format)
    return EXIT_YES


def _cmd_numeric(args, which: str) -> int:
    texts, parsed = _read_inputs(args, ("pattern",))
    pattern = parsed["pattern"]
    cfg = OptConfig(seed=args.opt_seed, restarts=args.restarts)
    if which == "rigidity":
        rig = rigidity_report(pattern, cfg)
        mrep = is_minimal(pattern, cfg)
        results = {
            "rigid": rig.rigid,
            "maximin": rig.maximin,
            "smallest_coordinate": rig.smallest_coordinate,
            "minimal": mrep.minimal,
            "minimality_margin": mrep.margin,
            "certificate": rig.certificate,
            "note": rig.note,
        }
    else:
        rep = (lagrangian if which == "lagrangian" else phi)(pattern, cfg)
        results = {
            "value": rep.value,
            "argmax": list(rep.argmax.coords),
            "converged": rep.converged,
            "witnesses": len(rep.witness_set),
        }
    report = formats.build_report(
        command=which,
        params={"restarts": args.restarts, "opt_seed": args.opt_seed},
        inputs=texts,
        results=results,
    )
    _emit(report, args.format)
    return EXIT_YES


# -- generators ---------------------------------------------------------------------


def _write_instance(args, hypergraph: Hypergraph) -> int:
    text = formats.serialize_hypergraph(hypergraph)
    if args.out and args.out != "-":
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_YES


def _postprocess(args, hypergraph: Hypergraph, parts: Partition | None) -> Hypergraph:
    if args.delete_edges:
        hypergraph = delete_random_edges(hypergraph, args.delete_edges, args.seed)
    if args.plant:
        if parts is None:
            raise LinkclustError("this generator cannot plant without --classes")
        hypergraph = plant_violation(hypergraph, parts, args.seed)
    return hypergraph


def _cmd_gen_turan(args) -> int:
    host = turan_graph(args.n, args.num_classes)
    parts = turan_classes(args.n, args.num_classes)
    return _write_instance(args, _postprocess(args, host, parts))


def _cmd_gen_blowup(args) -> int:
    pattern = formats.parse_pattern(_read_text(args.pattern))
    host = pattern_blowup(pattern, args.sizes)
    return _write_instance(args, _postprocess(args, host, contiguous_classes(args.sizes)))


def _cmd_gen_join(args) -> int:
    base = formats.parse_hypergraph(_read_text(args.graph))
    return _write_instance(args, join_construction(base, args.q, args.part_size))


def _cmd_gen_catalog(args) -> int:
    params: dict = {}
    for key in ("n", "k", "r", "t"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if args.graph is not None:
        params["graph"] = formats.parse_hypergraph(_read_text(args.graph))
    return _write_instance(args, catalog(args.name, **params))


def _cmd_gen_perturb(args) -> int:
    host = formats.parse_hypergraph(_read_text(args.host))
    parts = Partition(args.classes, host.n) if args.classes else None
    return _write_instance(args, _postprocess(args, host, parts))


# -- oracles --------------------------------------------------------------------------


def _cmd_oracle_embed(args) -> int:
    texts, parsed = _read_inputs(args, ("forbidden", "host"))
    emb = find_embedding(parsed["forbidden"], parsed["host"], args.oracle_budget)
    report = formats.build_report(
        command="oracle embed",
        params={},
        inputs=texts,
        results={"found": emb is not None, "embedding": emb},
    )
    _emit(report, args.format)
    return EXIT_YES if emb is not None else EXIT_NO


def _cmd_oracle_hom(args) -> int:
    texts, parsed = _read_inputs(args, ("pattern", "host"))
    pattern = parsed["pattern"]
    coloring = find_homomorphism(parsed["host"], pattern, args.surjective, args.oracle_budget)
    witness = None
    if coloring is not None:
        witness = Partition.from_labels(np.array(coloring), pattern.num_vertices)
    report = formats.build_report(
        command="oracle hom",
        params={"surjective": args.surjective},
        inputs=texts,
        verdict="yes" if coloring is not None else "no",
        witness=witness,
    )
    _emit(report, args.format)
    return EXIT_YES if coloring is not None else EXIT_NO


# -- bench ----------------------------------------------------------------------------


def _cmd_bench(args) -> int:
    rows = bench(args.scenario, args.sizes, args.seed or 0, args.num_classes, args.k)
    if args.format == "json":
        report = formats.build_report(
            command="bench",
            params={"scenario": args.scenario, "sizes": args.sizes, "l": args.num_classes},
            inputs={},
            results={"rows": rows},
            seed=args.seed,
        )
        sys.stdout.write(formats.dump_report(report))
    else:
        cols = ["scenario", "n", "seconds", "distance_evals", "work_units", "eval_budget", "verdict"]
        print(",".join(cols))
        for row in rows:
            print(",".join(str(row[c]) for c in cols))
    return EXIT_YES


# -- parser -----------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="linkclust", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"{formats.TOOL_NAME} {formats.TOOL_VERSION}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decide = sub.add_parser("decide", help="run a decider")
    dsub = decide.add_subparsers(dest="decider", required=True)

    p = dsub.add_parser("kcolor", help="colorability under minimum degree")
    _add_common(p, calibrated=False)
    p.add_argument("--l", type=int, required=True, dest="num_classes")
    p.set_defaults(
        decide=_Decide(
            ("host",),
            lambda a: {"l": a.num_classes, "strict": a.strict},
            lambda a, x: decide_k_colorable(x["host"], a.num_classes, _oracle_cfg(a)),
        )
    )

    p = dsub.add_parser("hom", help="pattern colorability (minimal pattern)")
    _add_common(p)
    p.set_defaults(
        decide=_Decide(
            ("host", "pattern"),
            _calibrated_params,
            lambda a, x: decide_hom_minimal(x["host"], x["pattern"], _decider_cfg(a)),
        )
    )

    p = dsub.add_parser("shom", help="surjective pattern colorability (rigid pattern)")
    _add_common(p)
    p.set_defaults(
        decide=_Decide(
            ("host", "pattern"),
            _calibrated_params,
            lambda a, x: decide_shom_rigid(x["host"], x["pattern"], _decider_cfg(a)),
        )
    )

    p = dsub.add_parser("kfree", help="freeness from a forbidden subgraph")
    _add_common(p)
    p.add_argument("--f", required=True, dest="forbidden", help="forbidden hypergraph file")
    p.set_defaults(
        decide=_Decide(
            ("host", "forbidden", "pattern"),
            _calibrated_params,
            lambda a, x: embed_min_decide(
                x["host"], x["forbidden"], x["pattern"], _decider_cfg(a)
            ),
        )
    )

    p = dsub.add_parser("avg", help="clique freeness near the extremal edge count")
    _add_common(p, oracle=False, calibrated=False)
    p.add_argument("--l", type=int, required=True, dest="num_classes")
    p.add_argument("--k", type=int, required=True, help="edge slack below the extremal count")
    p.set_defaults(
        decide=_Decide(
            ("host",),
            lambda a: {"l": a.num_classes, "k": a.k},
            lambda a, x: clique_avg_decide(x["host"], a.num_classes, a.k),
        )
    )
    decide.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("cluster", help="ball clustering of the vertex set")
    p.add_argument("--host", default="-")
    p.add_argument("--l", type=int, required=True, dest="num_classes")
    p.add_argument("--delta", required=True, type=fraction, help="radius fraction, e.g. 2/5")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(handler=_cmd_cluster)

    for which in ("lagrangian", "phi", "rigidity"):
        p = sub.add_parser(which, help=f"{which} of a pattern")
        p.add_argument("--pattern", required=True)
        p.add_argument("--restarts", type=int, default=64)
        p.add_argument("--opt-seed", type=int, default=1729, dest="opt_seed")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.set_defaults(handler=lambda a, w=which: _cmd_numeric(a, w))

    gen = sub.add_parser("gen", help="generate instances")
    gsub = gen.add_subparsers(dest="generator", required=True)

    def _gen_common(p):
        p.add_argument("--out", default="-")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--delete-edges", type=int, default=0, dest="delete_edges")
        p.add_argument("--plant", action="store_true")

    p = gsub.add_parser("turan", help="balanced complete multipartite graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True, dest="num_classes")
    _gen_common(p)
    p.set_defaults(handler=_cmd_gen_turan)

    p = gsub.add_parser("blowup", help="pattern blow-up")
    p.add_argument("--pattern", required=True)
    p.add_argument("--sizes", required=True, type=integers, help="comma-separated class sizes")
    _gen_common(p)
    p.set_defaults(handler=_cmd_gen_blowup)

    p = gsub.add_parser("join", help="complete join with fresh independent parts")
    p.add_argument("--g", required=True, dest="graph")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--part-size", type=int, required=True, dest="part_size")
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_gen_join)

    p = gsub.add_parser("catalog", help="named fixture hypergraphs")
    p.add_argument("--name", required=True, choices=CATALOG_NAMES)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--g", dest="graph", help="base graph file (expansion)")
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_gen_catalog)

    p = gsub.add_parser("perturb", help="delete or plant edges in a host")
    p.add_argument("--host", required=True)
    p.add_argument("--classes", type=classes, help="semicolon-separated classes, e.g. 0,1;2,3")
    _gen_common(p)
    p.set_defaults(handler=_cmd_gen_perturb)

    oracle = sub.add_parser("oracle", help="exhaustive reference searches")
    osub = oracle.add_subparsers(dest="oracle", required=True)

    p = osub.add_parser("embed", help="injective subgraph embedding")
    p.add_argument("--f", required=True, dest="forbidden")
    p.add_argument("--host", default="-")
    p.add_argument("--oracle-budget", type=float, default=60.0, dest="oracle_budget")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(handler=_cmd_oracle_embed)

    p = osub.add_parser("hom", help="(surjective) pattern coloring")
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", default="-")
    p.add_argument("--surjective", action="store_true")
    p.add_argument("--oracle-budget", type=float, default=60.0, dest="oracle_budget")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(handler=_cmd_oracle_hom)

    p = sub.add_parser("bench", help="scaling measurements on fresh instances")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--sizes", required=True, type=integers, help="comma-separated vertex counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--l", type=int, default=3, dest="num_classes")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(handler=_cmd_bench)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.handler(args)
    except (LinkclustError, OSError, UnicodeDecodeError) as exc:
        print(f"linkclust: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a fault must not exit with a verdict's code
        logging.getLogger(__name__).debug("internal error", exc_info=exc)
        print(f"linkclust: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
