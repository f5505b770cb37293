"""Timing, speed scaling and tracing shared by the benchmark's workloads.

A run sets its workload up ``SETUP_REPEATS`` times, then runs a fixed
number of whole rounds of the workload's request list: the fewest rounds
whose nominal time reaches ``--seconds`` (see :func:`round_count`).  The
count depends on ``--seconds`` and the workload alone, never on how fast
the host or the program is, so every run with the same ``--seconds``
attempts the same requests.  ``gc.collect()`` and one reference-kernel
sample run before every set-up and request, while the program is idle;
latencies are measured around the program call alone, and outputs are
checked after the clock stops.

Speed scaling: the host's speed drifts, flipping between levels within
seconds, and the drift moves the reference kernel and the requests alike.
Times are therefore reported in reference seconds: an item's raw seconds x
``KERNEL_NOMINAL_S`` / the mean of the kernel samples just before and just
after it.  Raw seconds go into the run's detail.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# Median kernel time on the machine the benchmark was made on
# (2-core x86-64 VM, Python 3.11, numpy 2.4, one thread).
KERNEL_NOMINAL_S = 0.025
# Three set-ups, reported by their median: one set-up's time spreads more
# from run to run (see the README).
SETUP_REPEATS = 3

# Public linkclust functions timed in a traced run, by layer.  They are
# wrapped wherever a linkclust module binds them, so calls made inside the
# program (the CLI calling the parser, a decider calling the optimizer)
# are timed too.
LAYER_FUNCTIONS = {
    "formats.parse": ("parse_hypergraph", "parse_pattern"),
    "formats.serialize": ("serialize_hypergraph", "serialize_pattern"),
    "formats.report": ("build_report", "dump_report"),
    "corpus.generate": ("turan_graph", "pattern_blowup", "delete_random_edges"),
    "deciders.decide": (
        "decide_k_colorable",
        "decide_hom_minimal",
        "decide_shom_rigid",
        "embed_min_decide",
        "clique_avg_decide",
    ),
    "lagrangian.calibrate": ("lagrangian", "phi", "rigidity_report", "is_minimal"),
    "oracles.search": ("find_homomorphism", "find_embedding"),
}
# Layers whose self time is reported as ``<layer>_s``.  ``hypergraph.build``
# and ``deciders.cluster`` are spans the workloads open themselves;
# ``cli.self`` is the span around a whole CLI request.
TIMED_LAYERS = (
    "formats.parse",
    "formats.serialize",
    "formats.report",
    "corpus.generate",
    "hypergraph.build",
    "deciders.cluster",
    "deciders.decide",
    "lagrangian.calibrate",
    "oracles.search",
    "cli.self",
)
COUNTS = ("distance_evals", "edges_scanned")


class Refused(Exception):
    """The program refused a request or failed to answer it."""


@dataclass
class Request:
    """One entry of a workload's request list.

    ``run`` is the timed program call; ``check`` verifies its result after
    the clock stops and returns work counters (``distance_evals``,
    ``edges_scanned``, ``eval_budget``).  ``probe`` runs only in traced
    rounds, after the request, to time one layer on its own.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    probe: Optional[Callable[[object], None]] = None


def kernel_seconds(keys: np.ndarray) -> float:
    """The reference kernel: a Python integer loop and a numpy sort."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i & 7
    np.sort(keys)
    return time.perf_counter() - t0


class Tracer:
    """Spans kept in memory: name, start, end, parent, unit and request.

    A unit is one set-up or one round.  Outside a traced unit ``span`` does
    nothing and no linkclust function is wrapped.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.unit: Optional[str] = None
        self.request: Optional[str] = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if self.unit is None:
            yield None
            return
        record = {
            "name": name,
            "unit": self.unit,
            "request": self.request,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def traced_unit(self, unit: str, active: bool):
        if not active:
            yield
            return
        self.unit = unit
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            self.unit = self.request = None

    def _wrap(self, fn, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer) as record:
                result = fn(*args, **kwargs)
                restarts = getattr(result, "restarts_used", None)
                if record is not None and isinstance(restarts, int):
                    record["restarts"] = restarts
            return result

        return traced

    def _install(self) -> None:
        wrappers = {}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "linkclust" or name.startswith("linkclust.")):
                continue
            for layer, functions in LAYER_FUNCTIONS.items():
                for attr in functions:
                    fn = module.__dict__.get(attr)
                    if not callable(fn) or isinstance(fn, type):
                        continue
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = self._wrap(fn, layer)
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, wrappers[id(fn)])

    def _uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    @staticmethod
    def span_cost(calls: int = 4000, repeats: int = 5) -> float:
        """Raw seconds a traced call costs over a bare one, median of
        ``repeats`` timings of ``calls`` calls each."""
        probe = Tracer()
        probe.unit = "span-cost"

        def bare():
            return None

        traced = probe._wrap(bare, "span-cost")
        costs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                bare()
            t1 = time.perf_counter()
            for _ in range(calls):
                traced()
            costs.append((time.perf_counter() - t1 - (t1 - t0)) / calls)
            probe.spans.clear()
        return statistics.median(costs)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


class _Clock:
    """Timed items (set-ups and requests), each between two kernel samples."""

    def __init__(self):
        self.keys = np.random.Generator(np.random.Philox(2024)).integers(0, 2**62, 10**6)
        self.kernel: list[float] = []
        self.items: list[dict] = []

    def idle(self) -> None:
        """Collect garbage and take a kernel sample."""
        gc.collect()
        self.kernel.append(kernel_seconds(self.keys))

    def add(self, unit: str, kind: str, seconds: float, ok: bool = True, **extra) -> None:
        self.items.append(
            {"unit": unit, "kind": kind, "seconds": seconds, "ok": ok, "k": len(self.kernel) - 1, **extra}
        )

    def finish(self) -> None:
        """Take the sample after the last item and set each item's factor:
        nominal kernel time over the mean of the samples around it."""
        self.idle()
        for item in self.items:
            around = (self.kernel[item["k"]] + self.kernel[item["k"] + 1]) / 2
            item["factor"] = KERNEL_NOMINAL_S / around


def round_count(workload, seconds: float, traced: bool) -> int:
    """The fewest whole rounds whose nominal time reaches ``seconds``.

    ``workload.round_nominal_s`` is a constant: one round's requests and
    kernel samples in reference seconds, as measured when the benchmark was
    made.  A traced run has at least one traced and one untraced round.
    """
    return max(2 if traced else 1, math.ceil(seconds / workload.round_nominal_s))


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload, tracer: Tracer, seconds: float, traced: bool, import_s: float) -> dict:
    """Set up, run :func:`round_count` whole rounds, and aggregate.

    With ``traced``, odd rounds are traced and even rounds are not, so
    traced and untraced rounds alternate in the same run.  Each timed item
    records the process's high-water mark right after the program call and
    again after its check.  ``peak_rss_mb`` is read after the last request,
    before the checks a workload defers to the end of the run
    (``workload.deferred``, pairs of a label and a check).
    """
    clock = _Clock()
    for i in range(SETUP_REPEATS):
        clock.idle()
        unit = f"setup{i}"
        with tracer.traced_unit(unit, traced):
            tracer.request = f"{unit}/warm-up"
            t0 = time.perf_counter()
            warm = workload.setup(i)
            with tracer.span(workload.request_span):
                warm_result = warm.run()
            clock.add(unit, "warm-up", time.perf_counter() - t0)
        warm.check(warm_result)
        del warm_result

    wrong: list[str] = []
    failures: Counter = Counter()
    counts: dict[str, Counter] = defaultdict(Counter)
    traced_units: list[str] = []
    for index in range(round_count(workload, seconds, traced)):
        unit = f"round{index}"
        trace_round = traced and index % 2 == 1
        if trace_round:
            traced_units.append(unit)
        with tracer.traced_unit(unit, trace_round):
            for req in workload.round(index):
                clock.idle()
                tracer.request = f"{unit}/{req.kind}"
                failure = None
                t0 = time.perf_counter()
                try:
                    with tracer.span(workload.request_span):
                        result = req.run()
                except Exception as exc:  # the program crashed: count it and go on
                    failure = f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
                rss_mb = _rss_mb()
                if failure is None:
                    try:
                        counts[unit].update(req.check(result))
                    except Refused as exc:
                        failure = str(exc)
                    except Exception as exc:  # CheckFailed, or output too malformed to check
                        wrong.append(f"{unit}/{req.kind}: {type(exc).__name__}: {exc}")
                    else:
                        if trace_round and req.probe is not None:
                            req.probe(result)
                    del result
                if failure is not None:
                    failures[f"{req.kind}: {failure}"] += 1
                clock.add(unit, req.kind, latency, failure is None, rss_mb=rss_mb, rss_checked_mb=_rss_mb())
    peak_rss_mb = rss_mb
    for label, check in getattr(workload, "deferred", ()):
        try:
            check()
        except Exception as exc:  # CheckFailed, or output too malformed to check
            wrong.append(f"{label}: {type(exc).__name__}: {exc}")
    if traced:
        clock.idle()
        clock.add("trace", "span-cost", Tracer.span_cost())
    clock.finish()
    return _aggregate(workload.name, clock, import_s, peak_rss_mb, tracer, traced_units, counts, wrong, failures)


def _seconds(item: dict, scaled: bool) -> float:
    return item["seconds"] * (item["factor"] if scaled else 1.0)


def _round_walls(clock: _Clock, units, scaled: bool) -> list[float]:
    walls = defaultdict(float)
    for item in clock.items:
        if item["unit"] in units:
            walls[item["unit"]] += _seconds(item, scaled)
    return list(walls.values())


def _latencies(clock: _Clock, units, scaled: bool, failed_as_inf: bool = True) -> dict[str, list[float]]:
    """Each request kind's latencies in ``units``.  A failed request counts
    as missing any latency limit."""
    by_kind = defaultdict(list)
    for item in clock.items:
        if item["unit"] in units:
            ok = item["ok"] or not failed_as_inf
            by_kind[item["kind"]].append(_seconds(item, scaled) if ok else float("inf"))
    return by_kind


def _end_to_end(clock: _Clock, import_s: float, plain_units: list[str], scaled: bool) -> dict:
    setups = [_seconds(i, scaled) for i in clock.items if i["unit"].startswith("setup")]
    import_factor = KERNEL_NOMINAL_S / clock.kernel[0] if scaled else 1.0
    by_kind = _latencies(clock, plain_units, scaled)
    return {
        "setup_s": import_s * import_factor + statistics.median(setups),
        "wall_s": statistics.median(_round_walls(clock, plain_units, scaled)),
        # The median over the request list of each request's median over
        # rounds: the same request lands on the median in every run.
        "request_p50_s": statistics.median(statistics.median(v) for v in by_kind.values()),
    }


def _per_layer(clock: _Clock, tracer: Tracer, traced_units: list[str], counts) -> dict:
    factor = {f"{i['unit']}/{i['kind']}": i["factor"] for i in clock.items}
    self_times = defaultdict(float)
    for span, own in zip(tracer.spans, tracer.self_times()):
        self_times[(span["unit"], span["name"])] += own * factor[span["request"]]
    setup_units = sorted({i["unit"] for i in clock.items if i["unit"].startswith("setup")})
    metrics = {}
    for layer in TIMED_LAYERS:
        per_round = _median(self_times[(u, layer)] for u in traced_units)
        per_setup = _median(self_times[(u, layer)] for u in setup_units)
        metrics[f"{layer}_s"] = {"value": per_round + per_setup, "unit": "s"}
    for key in COUNTS:
        metrics[f"deciders.{key}"] = {"value": _median(counts[u][key] for u in traced_units), "unit": "count"}
    ratios = [
        counts[u]["distance_evals"] / counts[u]["eval_budget"] for u in traced_units if counts[u]["eval_budget"]
    ]
    metrics["deciders.eval_budget_ratio"] = {"value": _median(ratios), "unit": "ratio"}
    restarts = defaultdict(int)
    for span in tracer.spans:
        restarts[span["unit"]] += span.get("restarts", 0)
    metrics["lagrangian.restarts"] = {"value": _median(restarts[u] for u in traced_units), "unit": "count"}
    return metrics


def _trace_overhead(clock: _Clock, tracer: Tracer, traced_units: list[str]) -> float:
    """Tracing's cost per traced round: the spans a round records times the
    measured cost of one span.  The difference between traced and untraced
    rounds is smaller than the rounds' own spread, so it is not used."""
    cost = next(i for i in clock.items if i["unit"] == "trace")
    spans = Counter(s["unit"] for s in tracer.spans)
    return _median(spans[u] for u in traced_units) * _seconds(cost, scaled=True)


def _aggregate(name, clock, import_s, peak_rss_mb, tracer, traced_units, counts, wrong, failures) -> dict:
    round_units = sorted({i["unit"] for i in clock.items if i["unit"].startswith("round")})
    plain_units = [u for u in round_units if u not in traced_units]
    raw = _end_to_end(clock, import_s, plain_units, scaled=False)
    reference = _end_to_end(clock, import_s, plain_units, scaled=True)
    trace_detail = {}
    if traced_units:
        metrics = _per_layer(clock, tracer, traced_units, counts)
        metrics["trace.overhead_s"] = {"value": _trace_overhead(clock, tracer, traced_units), "unit": "s"}
        traced_wall = statistics.median(_round_walls(clock, traced_units, scaled=True))
        trace_detail = {"traced_minus_untraced_wall_s": traced_wall - reference["wall_s"]}
    else:
        metrics = {key: {"value": value, "unit": "s"} for key, value in reference.items()}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}

    requests = [i for i in clock.items if i["unit"] in round_units]
    by_kind = _latencies(clock, plain_units, scaled=False, failed_as_inf=False)
    detail = {
        "workload": name,
        "raw": dict(raw, peak_rss_mb=peak_rss_mb),
        "peak_rss_after_deferred_checks_mb": _rss_mb(),
        "reference_s": reference,
        "kernel_s": {
            "nominal": KERNEL_NOMINAL_S,
            "median": statistics.median(clock.kernel),
            "min": min(clock.kernel),
            "max": max(clock.kernel),
            "samples": len(clock.kernel),
        },
        "rounds": len(round_units),
        "import_s": import_s,
        "request_median_s": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "failures": dict(failures),
        "wrong": wrong[:20],
        **trace_detail,
    }
    return {
        "correct": not wrong,
        "attempted": len(requests),
        "failed": sum(not i["ok"] for i in requests),
        "metrics": metrics,
        "detail": detail,
        "items": clock.items,
        "kernel": clock.kernel,
    }
