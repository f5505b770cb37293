"""Command-line surface.

Exit codes: 0 = yes, 1 = no, 2 = precondition violated, 3 = input or runtime
error, 64 = usage error.  Reports go to standard output as JSON (the run
manifest) or a short text form; generated instances are emitted in the
edge-list text format.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

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
from .oracles import DEFAULT_BUDGET_S, find_embedding, find_homomorphism
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


def _read_bytes(path: str) -> bytes:
    """The bytes of the file at ``path`` ('-' for stdin), read as a UTF-8
    text file would be, whatever the locale: bytes that are not UTF-8 raise
    ``UnicodeDecodeError``, and ``\\r\\n`` and then a lone ``\\r`` become
    ``\\n``.  So they equal the UTF-8 encoding of ``Path.read_text``.  A
    stdin with no bytes below it (an ``io.StringIO``) gives its text's
    UTF-8 encoding, as it reads."""
    if path == "-":
        if not hasattr(sys.stdin, "buffer"):
            return sys.stdin.read().encode("utf-8")
        data = sys.stdin.buffer.read()
    else:
        data = Path(path).read_bytes()
    if not data.isascii():
        data.decode("utf-8")  # raises at the offset read_text names
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


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


def _read_inputs(args, keys: tuple[str, ...]) -> tuple[dict[str, bytes], dict]:
    """Read the input file of every key in order as bytes (``_read_bytes``),
    then parse each in the same order: ``pattern`` as a pattern, from its
    decoded text, any other key as a hypergraph, from the bytes as read.
    The report hashes those same bytes, so a hypergraph text is never
    decoded on its way.  The parsers are looked up at call time, so a
    patched module global is the one that runs."""
    texts = {key: _read_bytes(getattr(args, key)) for key in keys}
    parsed = {
        key: (
            formats.parse_pattern(data.decode("utf-8"))
            if key == "pattern"
            else formats.parse_hypergraph(data)
        )
        for key, data in texts.items()
    }
    return texts, parsed


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(formats.dump_report(report))
        return
    if "verdict" in report:
        print(f"verdict: {report['verdict']}")
    for k, v in report.get("results", {}).items():
        print(f"{k}: {v}")
    if "witness" in report:
        print(f"classes: {report['witness']['classes']}")
    if "stats" in report:
        parts = " ".join(f"{k}={v}" for k, v in sorted(report["stats"].items()))
        print(f"stats: {parts}")


# -- reports -----------------------------------------------------------------------


class _Report(NamedTuple):
    """One report-writing subcommand: its command string, the input files
    it reads (in order), its report params (report key -> option dest), and
    its run on the parsed inputs, which returns the exit code and the
    report's other fields.  The runs name the library functions at call
    time, so a patched module global is the one that runs."""

    command: str
    inputs: tuple[str, ...]
    params: dict[str, str]
    run: Callable[[argparse.Namespace, dict], tuple[int, dict]]


def _cmd_report(args) -> int:
    spec: _Report = args.report
    texts, parsed = _read_inputs(args, spec.inputs)
    code, fields = spec.run(args, parsed)
    report = formats.build_report(
        command=spec.command,
        params={key: getattr(args, dest) for key, dest in spec.params.items()},
        inputs=texts,
        **fields,
    )
    _emit(report, args.format)
    return code


def _decision(call: Callable[[argparse.Namespace, dict], Decision]):
    """The run of a ``decide`` subcommand.  Its stats are the decision's
    counters and ``wall_time_s``, which times ``call`` alone."""

    def run(args, parsed) -> tuple[int, dict]:
        t0 = time.perf_counter()
        decision = call(args, parsed)
        wall = time.perf_counter() - t0
        stats = {k: v for k, v in vars(decision.stats).items() if v is not None}
        results = {
            "reason": decision.reason,
            "violating_edge": decision.violating_edge and list(decision.violating_edge),
            "details": {
                k: (list(v) if isinstance(v, tuple) else v) for k, v in decision.details.items()
            },
        }
        verdict = decision.verdict.value
        return _VERDICT_EXIT[verdict], {
            "verdict": verdict,
            "witness": decision.partition,
            "stats": {**stats, "wall_time_s": wall},
            "results": {k: v for k, v in results.items() if v} or None,
            "seed": args.seed,
        }

    return run


def _opt_cfg(args) -> OptConfig:
    return OptConfig(seed=args.opt_seed)


def _oracle_cfg(args) -> DeciderConfig:
    return DeciderConfig(strict=args.strict, oracle_budget_s=args.oracle_budget)


def _decider_cfg(args) -> DeciderConfig:
    return DeciderConfig(
        eps=Fraction(args.eps),
        n_small=args.n_small,
        strict=args.strict,
        opt=_opt_cfg(args),
        oracle_budget_s=args.oracle_budget,
    )


def _run_optimum(args, parsed) -> tuple[int, dict]:
    rep = (lagrangian if args.command == "lagrangian" else phi)(parsed["pattern"], _opt_cfg(args))
    results = {
        "value": rep.value,
        "argmax": list(rep.argmax.coords),
        "converged": rep.converged,
        "witnesses": len(rep.witness_set),
    }
    return EXIT_YES, {"results": results}


def _run_rigidity(args, parsed) -> tuple[int, dict]:
    cfg = _opt_cfg(args)
    rig = rigidity_report(parsed["pattern"], cfg)
    mrep = is_minimal(parsed["pattern"], cfg)
    results = {
        "rigid": rig.rigid,
        "maximin": rig.maximin,
        "smallest_coordinate": rig.smallest_coordinate,
        "minimal": mrep.minimal,
        "minimality_margin": mrep.margin,
        "certificate": rig.certificate,
        "note": rig.note,
    }
    return EXIT_YES, {"results": results}


def _run_embed(args, parsed) -> tuple[int, dict]:
    emb = find_embedding(parsed["forbidden"], parsed["host"], args.oracle_budget)
    found = emb is not None
    return (EXIT_YES if found else EXIT_NO), {"results": {"found": found, "embedding": emb}}


def _run_hom(args, parsed) -> tuple[int, dict]:
    pattern = parsed["pattern"]
    coloring = find_homomorphism(parsed["host"], pattern, args.surjective, args.oracle_budget)
    if coloring is None:
        return EXIT_NO, {"verdict": "no"}
    witness = Partition.from_labels(coloring, pattern.num_vertices)
    return EXIT_YES, {"verdict": "yes", "witness": witness}


# Every option of a report subcommand, declared once; each subcommand lists
# its own in the order of its usage line.
_OPTIONS = {
    "--host": {"default": "-", "help": "host hypergraph file, '-' for stdin"},
    "--pattern": {"required": True, "help": "pattern file"},
    "--f": {"required": True, "dest": "forbidden", "help": "forbidden hypergraph file"},
    "--format": {"choices": ("json", "text"), "default": "json"},
    "--seed": {"type": int, "default": None, "help": "recorded in the report"},
    "--strict": {
        "action": argparse.BooleanOptionalAction,
        "default": True,
        "help": "refuse sub-threshold inputs instead of falling back to the oracle",
    },
    "--oracle-budget": {"type": float, "default": DEFAULT_BUDGET_S},
    "--eps": {"type": fraction, "default": "0", "help": "accepted threshold slack, e.g. 1/24"},
    "--n-small": {"type": int, "default": None},
    "--opt-seed": {
        "type": int,
        "default": OptConfig.seed,
        "help": "seed of the numeric optimizer's random starts (patterns with no exact record)",
    },
    "--l": {"type": int, "required": True, "dest": "num_classes"},
    "--k": {"type": int, "required": True, "help": "edge slack below the extremal count"},
    "--delta": {"required": True, "type": fraction, "help": "radius fraction, e.g. 2/5"},
    "--surjective": {"action": "store_true"},
}
_DECIDE_FLAGS = ("--host", "--format", "--seed")
_ORACLE_FLAGS = (*_DECIDE_FLAGS, "--strict", "--oracle-budget")
_CALIBRATED_FLAGS = (*_ORACLE_FLAGS, "--pattern", "--eps", "--n-small", "--opt-seed")
_CALIBRATED_PARAMS = {"eps": "eps", "n_small": "n_small", "strict": "strict"}


def _add_report(sub, spec: _Report, summary: str, *flags: str) -> None:
    p = sub.add_parser(spec.command.split()[-1], help=summary)
    for flag in flags:
        p.add_argument(flag, **_OPTIONS[flag])
    p.set_defaults(handler=_cmd_report, report=spec)


# -- generators ---------------------------------------------------------------------


def _cmd_gen(args) -> int:
    hypergraph, parts = args.build(args)
    if getattr(args, "delete_edges", 0):
        hypergraph = delete_random_edges(hypergraph, args.delete_edges, args.seed)
    if getattr(args, "plant", False):
        if parts is None:
            raise LinkclustError("this generator cannot plant without --classes")
        hypergraph = plant_violation(hypergraph, parts, args.seed)
    if args.out and args.out != "-":
        Path(args.out).write_bytes(formats._hypergraph_bytes(hypergraph))
    else:
        sys.stdout.write(formats.serialize_hypergraph(hypergraph))
    return EXIT_YES


# the builds of ``gen``: (the instance, the classes that --plant plants in)
def _build_turan(args) -> tuple[Hypergraph, Partition]:
    return turan_graph(args.n, args.num_classes), turan_classes(args.n, args.num_classes)


def _build_blowup(args) -> tuple[Hypergraph, Partition]:
    pattern = formats.parse_pattern(_read_bytes(args.pattern).decode("utf-8"))
    return pattern_blowup(pattern, args.sizes), contiguous_classes(args.sizes)


def _build_join(args) -> tuple[Hypergraph, None]:
    base = formats.parse_hypergraph(_read_bytes(args.graph))
    return join_construction(base, args.q, args.part_size), None


def _build_catalog(args) -> tuple[Hypergraph, None]:
    keys = ("n", "k", "r", "t")
    params = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    if args.graph is not None:
        params["graph"] = formats.parse_hypergraph(_read_bytes(args.graph))
    return catalog(args.name, **params), None


def _build_perturb(args) -> tuple[Hypergraph, Partition | None]:
    host = formats.parse_hypergraph(_read_bytes(args.host))
    return host, Partition(args.classes, host.n) if args.classes else None


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
    """A fresh argparse tree of the whole command line.

    :func:`run_cli` parses with one tree per process, built on its first
    call, so the tree must hold no per-request state: each subcommand's
    ``handler``, ``report`` and ``build`` defaults are fixed, no option has a
    mutable default, and the handlers look the library functions up at
    call time, so a patched module global is the one that runs.  Usage,
    ``--help`` and ``--version`` write to ``sys.stdout``/``sys.stderr`` as
    they are at call time.  Tests and introspection build their own tree
    here.
    """
    parser = _Parser(prog="linkclust", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"{formats.TOOL_NAME} {formats.TOOL_VERSION}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decide = sub.add_parser("decide", help="run a decider")
    dsub = decide.add_subparsers(dest="decider", required=True)
    kcolor = _Report(
        "decide kcolor",
        ("host",),
        {"l": "num_classes", "strict": "strict"},
        _decision(lambda a, x: decide_k_colorable(x["host"], a.num_classes, _oracle_cfg(a))),
    )
    _add_report(dsub, kcolor, "colorability under minimum degree", *_ORACLE_FLAGS, "--l")
    hom = _Report(
        "decide hom",
        ("host", "pattern"),
        _CALIBRATED_PARAMS,
        _decision(lambda a, x: decide_hom_minimal(x["host"], x["pattern"], _decider_cfg(a))),
    )
    _add_report(dsub, hom, "pattern colorability (minimal pattern)", *_CALIBRATED_FLAGS)
    shom = _Report(
        "decide shom",
        ("host", "pattern"),
        _CALIBRATED_PARAMS,
        _decision(lambda a, x: decide_shom_rigid(x["host"], x["pattern"], _decider_cfg(a))),
    )
    _add_report(dsub, shom, "surjective pattern colorability (rigid pattern)", *_CALIBRATED_FLAGS)
    kfree = _Report(
        "decide kfree",
        ("host", "forbidden", "pattern"),
        _CALIBRATED_PARAMS,
        _decision(
            lambda a, x: embed_min_decide(x["host"], x["forbidden"], x["pattern"], _decider_cfg(a))
        ),
    )
    _add_report(dsub, kfree, "freeness from a forbidden subgraph", *_CALIBRATED_FLAGS, "--f")
    avg = _Report(
        "decide avg",
        ("host",),
        {"l": "num_classes", "k": "k"},
        _decision(lambda a, x: clique_avg_decide(x["host"], a.num_classes, a.k)),
    )
    _add_report(
        dsub, avg, "clique freeness near the extremal edge count", *_DECIDE_FLAGS, "--l", "--k"
    )

    cluster = _Report(
        "cluster",
        ("host",),
        {"l": "num_classes", "delta": "delta"},
        lambda a, x: (
            EXIT_YES,
            {"witness": hamming_clustering(x["host"], a.num_classes, Fraction(a.delta))},
        ),
    )
    _add_report(
        sub, cluster, "ball clustering of the vertex set", "--host", "--l", "--delta", "--format"
    )
    numerics = (("lagrangian", _run_optimum), ("phi", _run_optimum), ("rigidity", _run_rigidity))
    for which, run in numerics:
        numeric = _Report(which, ("pattern",), {"opt_seed": "opt_seed"}, run)
        _add_report(sub, numeric, f"{which} of a pattern", "--pattern", "--opt-seed", "--format")

    gen = sub.add_parser("gen", help="generate instances")
    gen.set_defaults(handler=_cmd_gen)
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
    p.set_defaults(build=_build_turan)

    p = gsub.add_parser("blowup", help="pattern blow-up")
    p.add_argument("--pattern", required=True)
    p.add_argument("--sizes", required=True, type=integers, help="comma-separated class sizes")
    _gen_common(p)
    p.set_defaults(build=_build_blowup)

    p = gsub.add_parser("join", help="complete join with fresh independent parts")
    p.add_argument("--g", required=True, dest="graph")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--part-size", type=int, required=True, dest="part_size")
    p.add_argument("--out", default="-")
    p.set_defaults(build=_build_join)

    p = gsub.add_parser("catalog", help="named fixture hypergraphs")
    p.add_argument("--name", required=True, choices=CATALOG_NAMES)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--g", dest="graph", help="base graph file (expansion)")
    p.add_argument("--out", default="-")
    p.set_defaults(build=_build_catalog)

    p = gsub.add_parser("perturb", help="delete or plant edges in a host")
    p.add_argument("--host", required=True)
    p.add_argument("--classes", type=classes, help="semicolon-separated classes, e.g. 0,1;2,3")
    _gen_common(p)
    p.set_defaults(build=_build_perturb)

    oracle = sub.add_parser("oracle", help="exhaustive reference searches")
    osub = oracle.add_subparsers(dest="oracle", required=True)
    embed = _Report("oracle embed", ("forbidden", "host"), {}, _run_embed)
    flags = ("--f", "--host", "--oracle-budget", "--format")
    _add_report(osub, embed, "injective subgraph embedding", *flags)
    coloring = _Report("oracle hom", ("pattern", "host"), {"surjective": "surjective"}, _run_hom)
    flags = ("--pattern", "--host", "--surjective", "--oracle-budget", "--format")
    _add_report(osub, coloring, "(surjective) pattern coloring", *flags)

    p = sub.add_parser("bench", help="scaling measurements on fresh instances")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--sizes", required=True, type=integers, help="comma-separated vertex counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--l", type=int, default=3, dest="num_classes")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(handler=_cmd_bench)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    return build_parser()


def run_cli(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.

    Every call in a process parses with the same tree, built by
    :func:`build_parser` on the first call (building it costs far more than
    parsing); see there for what keeps that tree free of per-request state.
    """
    try:
        args = _shared_parser().parse_args(argv)
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


if __name__ == "__main__":
    main()
