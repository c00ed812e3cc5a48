"""Spans around rankcrank's layer entry points, and a profiled pass.

Nothing in rankcrank is changed on disk: the `Tracer` swaps module
attributes for timing wrappers while it is installed, and puts the
originals back when it leaves.  Because the package calls these
entries through module globals (``tables.build``, ``euler_inverse``
inside ``ospt_series``), the wrappers also see calls made between
layers.

The profiled pass runs under the stdlib profiler and attributes self
time to the package's nine modules.  Its call counts are exact and
repeat run to run; its times are inflated by the profiler and only
say where time goes, not how much.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
from pathlib import Path

LAYERS = ("partitions", "statistics", "symbols", "injections", "tables",
          "reordering", "qseries", "report", "cli")

# (module, attribute) pairs wrapped by the tracer; the span is named
# "<module>.<attribute>".  cli.main is the request span.
SPAN_ENTRIES = (
    ("cli", "main"),
    ("tables", "build"),
    ("tables", "build_accelerated"),
    ("tables", "verify_identities"),
    ("tables", "verify_bounds"),
    ("injections", "verify_injections"),
    ("reordering", "verify_reordering"),
    ("qseries", "ospt_series"),
    ("qseries", "euler_inverse"),
)
REPORT_SPAN = "report.to_json"  # VerifyReport.to_json, which cli calls on each report
SPAN_NAMES = tuple(f"{m}.{a}" for m, a in SPAN_ENTRIES) + (REPORT_SPAN,)
REQUEST_SPAN = "cli.main"

# Exact counts read from the profiled pass: metric -> (module, function names).
PROFILE_COUNTS = {
    "statistics.rank.calls": ("statistics", ("rank",)),
    "statistics.crank.calls": ("statistics", ("crank",)),
    "symbols.to_symbol.calls": ("symbols", ("to_symbol",)),
    "symbols.constructed": ("symbols", ("__post_init__",)),
    "symbols.format_symbol.calls": ("symbols", ("format_symbol",)),
    "report.expect.calls": ("report", ("expect",)),
    "tables.accessor.calls": ("tables", ("rank_count", "crank_count", "q_count", "rank_total",
                                         "crank_total", "cum_rank", "cum_crank", "p_ge")),
    "qseries.series_created": ("qseries", ("__init__",)),
}
YIELD_COUNT = "partitions.yielded"


def _module(name: str):
    return sys.modules[f"rankcrank.{name}"]


class Tracer:
    """Records one span per call into each traced entry while installed.

    A span is ``[span_id, parent_id, request_id, name, start, end]``
    with `time.perf_counter` seconds.  Spans stay in memory; the caller
    writes them out when the run ends.  Set `request_id` before each
    request so its spans share it.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self.request_id, name,
                    time.perf_counter(), None]
            spans.append(span)
            stack.append(span[0])
            try:
                return original(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def __enter__(self) -> "Tracer":
        for module, attr in SPAN_ENTRIES:
            self._wrap(_module(module), attr, f"{module}.{attr}")
        self._wrap(_module("report").VerifyReport, "to_json", REPORT_SPAN)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Busy seconds, call count and self seconds per span name.

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = {name: {"busy_s": 0.0, "calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
    for span_id, _, _, name, start, end in spans:
        entry = totals[name]
        entry["busy_s"] += end - start
        entry["calls"] += 1
        entry["self_s"] += end - start - child_time[span_id]
    return totals


class _YieldCounter:
    """Counts the partitions `enumerate_partitions` yields, wherever it is bound."""

    def __init__(self) -> None:
        self.count = 0
        self._saved: list[tuple[object, object]] = []

    def __enter__(self) -> "_YieldCounter":
        original = _module("partitions").enumerate_partitions

        def counted(n):
            for partition in original(n):
                self.count += 1
                yield partition

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "rankcrank" and module.__dict__.get(
                    "enumerate_partitions") is original:
                module.enumerate_partitions = counted
                self._saved.append((module, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, original in self._saved:
            module.enumerate_partitions = original
        self._saved.clear()


def _layer_of(filename: str, package_dir: Path) -> str | None:
    path = Path(filename)
    if path.parent == package_dir and path.stem in LAYERS:
        return path.stem
    return None


def profiled(run) -> tuple[object, dict[str, float]]:
    """Call `run()` under the profiler; return its result and the layer metrics.

    Metrics: ``<module>.self_s`` for the nine modules (self time of the
    module's functions plus the builtins they call directly), the
    exact counts in `PROFILE_COUNTS`, ``partitions.yielded``, and
    ``report.format_per_expect``.
    """
    package_dir = Path(_module("cli").__file__).resolve().parent
    profile = cProfile.Profile()
    with _YieldCounter() as yields:
        profile.enable()
        try:
            result = run()
        finally:
            profile.disable()
    stats = pstats.Stats(profile).stats
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls: dict[tuple[str, str], int] = {}
    for (filename, _, funcname), (_, ncalls, tottime, _, callers) in stats.items():
        layer = _layer_of(filename, package_dir)
        if layer is not None:
            self_s[layer] += tottime
            calls[(layer, funcname)] = calls.get((layer, funcname), 0) + ncalls
        elif filename == "~":  # a builtin: charge each caller its share
            for (caller_file, _, _), (_, _, caller_tt, _) in callers.items():
                caller_layer = _layer_of(caller_file, package_dir)
                if caller_layer is not None:
                    self_s[caller_layer] += caller_tt
    metrics: dict[str, float] = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for metric, (layer, funcnames) in PROFILE_COUNTS.items():
        metrics[metric] = sum(calls.get((layer, f), 0) for f in funcnames)
    metrics[YIELD_COUNT] = yields.count
    expects = metrics["report.expect.calls"]
    metrics["report.format_per_expect"] = (
        metrics["symbols.format_symbol.calls"] / expects if expects else 0.0)
    return result, metrics
