"""Run one workload of the linkclust end-to-end benchmark.

    env OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 perfbench/run.py --workload graph-text --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports linkclust from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  The line before it
holds the raw seconds, the reference kernel's times and per-request
medians.  Run details, and the spans of a traced run, are written to
``perfbench/out/``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("graph-text", "hyper-array", "calibrate-small")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return _fail("--seed must be nonnegative")

    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        return _fail(f"set {', '.join(f'{v}=1' for v in unpinned)}: each workload runs on one thread")
    if not os.path.isfile(os.path.join(SRC, "linkclust", "__init__.py")):
        return _fail(f"no linkclust sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import linkclust
    import linkclust.cli  # noqa: F401  (the CLI workloads call linkclust.cli.run_cli)

    if os.path.dirname(os.path.abspath(linkclust.__file__)) != os.path.join(SRC, "linkclust"):
        return _fail(f"imported linkclust from {linkclust.__file__}, not from {SRC}")
    from harness import Tracer, run_workload
    from workloads import WORKLOADS

    import_s = time.perf_counter() - START

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = Tracer()
    try:
        workload = WORKLOADS[args.workload](linkclust, args.seed, workdir, tracer)
        result = run_workload(workload, tracer, args.seconds, bool(args.trace), import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    detail = result.pop("detail")
    timeline = {"items": result.pop("items"), "kernel_s": result.pop("kernel")}
    with open(stem + ".json", "w") as f:
        json.dump(dict(result, detail=detail, timeline=timeline), f, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w") as f:
            json.dump(tracer.spans, f)

    for name, metric in result["metrics"].items():
        print(f"{args.workload:16s} {name:28s} {metric['value']:14.6f} {metric['unit']}")
    print(
        f"{args.workload:16s} attempted {result['attempted']}, failed {result['failed']}, "
        f"correct {result['correct']}"
    )
    for reason, count in sorted(detail["failures"].items()):
        print(f"{args.workload:16s} failed x{count}: {reason}")
    for message in detail["wrong"]:
        print(f"{args.workload:16s} WRONG: {message}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
