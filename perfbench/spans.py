"""Span recorder for the traced run, patched around the package's public functions.

The benchmark never edits the package.  It wraps each listed function from
outside and installs the wrapper into every ``overlapbounds`` module that
holds the same function object, so calls made through an imported name
(``from ..engine import run_chunked``) are seen as well as calls through
the home module.  Spans are kept in memory behind a lock and written once,
at the end of the run.

A span opened on a worker thread with no open span of its own is parented
to the open ``engine.run_chunked`` span, which is what started the worker.
Self time subtracts the *union* of the child intervals, because two
workers' spans overlap in time.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

CHUNK_RUNNER = "engine.run_chunked"


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op_id: str | None
    thread: int
    attrs: dict = field(default_factory=dict)


class SpanRecorder:
    """Thread-safe, in-memory span store."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_runners: list[int] = []
        self.spans: list[Span] = []
        self.op_id: str | None = None

    def set_op(self, op_id: str) -> None:
        self.op_id = op_id

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1].span_id
            else:
                parent = self._open_runners[-1] if self._open_runners else None
            span = Span(len(self.spans), name, 0.0, 0.0, parent, self.op_id, threading.get_ident())
            self.spans.append(span)
            if name == CHUNK_RUNNER:
                self._open_runners.append(span.span_id)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.name == CHUNK_RUNNER:
            with self._lock:
                self._open_runners.remove(span.span_id)


# ---------------------------------------------------------------------------
# interval arithmetic
# ---------------------------------------------------------------------------


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    kids = children_of(spans)
    return {
        s.span_id: (s.end - s.start) - union_length(((c.start, c.end) for c in kids.get(s.span_id, [])), s.start, s.end)
        for s in spans
    }


# ---------------------------------------------------------------------------
# the wrapped functions and the per-layer metrics derived from their spans
# ---------------------------------------------------------------------------

# (home module, attribute path, span name); an attribute path "Cls.meth"
# patches a class attribute.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("overlapbounds.engine", "simulate_overlap", "engine.simulate_overlap"),
    ("overlapbounds.engine", "run_chunked", "engine.run_chunked"),
    ("overlapbounds.engine", "choose_truncation", "engine.choose_truncation"),
    ("overlapbounds.engine", "EventFamilySpec.__post_init__", "engine.EventFamilySpec"),
    ("overlapbounds.engine", "empirical_moment", "engine.empirical_moment"),
    ("overlapbounds.engine", "write_sample_jsonl", "engine.write_sample_jsonl"),
    ("overlapbounds.engine", "read_sample_jsonl", "engine.read_sample_jsonl"),
    ("overlapbounds.series", "tail_sum", "series.tail_sum"),
    ("overlapbounds.series", "weighted_tail_series", "series.weighted_tail_series"),
    ("overlapbounds.series", "zeta", "series.zeta"),
    ("overlapbounds.bounds", "nested_moment_identity", "bounds.nested_moment_identity"),
    ("overlapbounds.bounds", "sn_exact_distribution", "bounds.sn_exact_distribution"),
    ("overlapbounds.bounds", "general_moment_bound", "bounds.general_moment_bound"),
    ("overlapbounds.bounds", "poly_moment_bound", "bounds.poly_moment_bound"),
    ("overlapbounds.bounds", "exp_moment_bound", "bounds.exp_moment_bound"),
    ("overlapbounds.bounds", "second_moment_bound", "bounds.second_moment_bound"),
    ("overlapbounds.bounds", "freedman_exp_bound", "bounds.freedman_exp_bound"),
    ("overlapbounds.bounds", "freedman_tail_bound", "bounds.freedman_tail_bound"),
    ("overlapbounds.bounds", "improved_exp_bound", "bounds.improved_exp_bound"),
    ("overlapbounds.bounds", "rate_aware_exp_bound", "bounds.rate_aware_exp_bound"),
    ("overlapbounds.bounds", "powerlaw_tail_asymptotic", "bounds.powerlaw_tail_asymptotic"),
    ("overlapbounds.bounds", "geometric_tail_bound", "bounds.geometric_tail_bound"),
    ("overlapbounds.applications.glivenko", "gc_simulate", "glivenko.gc_simulate"),
    ("overlapbounds.applications.glivenko", "scan_window", "glivenko.scan_window"),
    ("overlapbounds.applications.slln", "slln_mdf_report", "slln.slln_mdf_report"),
    ("overlapbounds.applications.lil", "lil_simulate", "lil.lil_simulate"),
    ("overlapbounds.applications.segments", "rare_segments", "segments.rare_segments"),
    ("overlapbounds.applications.segments", "running_max_segment", "segments.running_max_segment"),
    ("overlapbounds.applications.rates", "cramer_rate", "rates.cramer_rate"),
    ("overlapbounds.applications.rates", "sanov_rate", "rates.sanov_rate"),
    ("overlapbounds.applications.mdf", "MDFReport.to_json", "mdf.MDFReport.to_json"),
    ("overlapbounds.sde", "strong_error_estimate", "sde.strong_error_estimate"),
    ("overlapbounds.sde", "sde15_step", "sde.sde15_step"),
    ("overlapbounds.cli", "main", "cli.main"),
    ("overlapbounds.cli", "_emit", "cli._emit"),
)

# functions reported together as bounds.other
BOUNDS_OTHER = tuple(
    name
    for _, _, name in TARGETS
    if name.startswith("bounds.") and name not in ("bounds.nested_moment_identity", "bounds.sn_exact_distribution")
)
REPORTED_FUNCTIONS = tuple(n for _, _, n in TARGETS if n not in BOUNDS_OTHER) + ("bounds.other",)
FAMILIES = ("independent", "nested", "union")
KERNEL_PARENTS = (
    "glivenko.gc_simulate",
    "slln.slln_mdf_report",
    "lil.lil_simulate",
    "segments.rare_segments",
    "sde.strong_error_estimate",
)


def metric_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names: list[str] = []
    for fn in REPORTED_FUNCTIONS:
        names += [f"{fn}.calls", f"{fn}.self_s"]
    for fam in FAMILIES:
        names += [f"engine.simulate_overlap.{fam}.kernel_s", f"engine.simulate_overlap.{fam}.table_s"]
    names += [f"{p}.kernel_s" for p in KERNEL_PARENTS]
    names += [
        "engine.run_chunked.speedup_2w",
        "engine.simulate_overlap.peak_mb",
        "engine.write_sample_jsonl.bytes",
        "series.weighted_tail_series.terms",
        "series.weighted_tail_series.unconverged",
        "bounds.nested_moment_identity.unconverged",
        "glivenko.scan_window.value",
        "cli.import_s",
        "bench.traced_wall_s",
        "bench.trace_overhead_s",
    ]
    return names


def _record_call(name: str, span: Span, args: tuple, kwargs: dict) -> None:
    """Attributes read from a call's arguments."""
    if name == "engine.simulate_overlap":
        spec = args[0] if args else kwargs["spec"]
        span.attrs["family"] = spec.family
        span.attrs["threads"] = int(args[3] if len(args) > 3 else kwargs.get("threads", 1))


def _record_result(name: str, span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    """Attributes read from a call's result."""
    if name == "engine.write_sample_jsonl":
        span.attrs["bytes"] = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
    elif name == "series.weighted_tail_series":
        span.attrs["terms"] = int(result.terms_used)
        span.attrs["unconverged"] = int(not result.converged)
    elif name == "bounds.nested_moment_identity":
        span.attrs["unconverged"] = int(result.series is not None and not result.series.converged)
    elif name == "glivenko.scan_window":
        span.attrs["value"] = int(result)


def _wrap(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    measure_alloc = name == "engine.simulate_overlap"

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracing_alloc = measure_alloc and not tracemalloc.is_tracing()
        if tracing_alloc:
            tracemalloc.start()
        span = recorder.open(name)
        _record_call(name, span, args, kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
            if tracing_alloc:
                span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        _record_result(name, span, args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def installed(recorder: SpanRecorder):
    """Patch every target into every package module holding it; restore on exit."""
    patches: list[tuple[object, str, object]] = []
    try:
        for home, attr, name in TARGETS:
            owner_path, _, leaf = attr.rpartition(".")
            owner = sys.modules[home]
            if owner_path:
                owner = getattr(owner, owner_path)
                original = owner.__dict__[leaf]
                patches.append((owner, leaf, original))
                setattr(owner, leaf, _wrap(recorder, name, original))
                continue
            original = getattr(owner, leaf)
            wrapper = _wrap(recorder, name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "overlapbounds" and getattr(mod, leaf, None) is original:
                    patches.append((mod, leaf, original))
                    setattr(mod, leaf, wrapper)
        yield recorder
    finally:
        for owner, leaf, original in reversed(patches):
            setattr(owner, leaf, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (spans all closed)."""
    selfs = self_times(spans)
    kids = children_of(spans)
    out = {name: 0.0 for name in metric_names()}

    def runner_time(s: Span) -> float:
        return sum(c.end - c.start for c in kids.get(s.span_id, []) if c.name == CHUNK_RUNNER)

    by_threads = {1: 0.0, 2: 0.0}
    for s in spans:
        reported = "bounds.other" if s.name in BOUNDS_OTHER else s.name
        out[f"{reported}.calls"] += 1
        out[f"{reported}.self_s"] += selfs[s.span_id]
        if s.name == "engine.simulate_overlap":
            fam, kernel = s.attrs.get("family"), runner_time(s)
            if fam not in FAMILIES:
                continue
            out[f"engine.simulate_overlap.{fam}.kernel_s"] += kernel
            out[f"engine.simulate_overlap.{fam}.table_s"] += (s.end - s.start) - kernel
            out["engine.simulate_overlap.peak_mb"] = max(
                out["engine.simulate_overlap.peak_mb"], s.attrs.get("peak_bytes", 0) / 2**20
            )
            if s.attrs.get("threads") in by_threads:
                by_threads[s.attrs["threads"]] += kernel
        elif s.name in KERNEL_PARENTS:
            out[f"{s.name}.kernel_s"] += runner_time(s)
        elif s.name == "engine.write_sample_jsonl":
            out["engine.write_sample_jsonl.bytes"] += s.attrs.get("bytes", 0)
        elif s.name == "series.weighted_tail_series":
            out["series.weighted_tail_series.terms"] += s.attrs.get("terms", 0)
            out["series.weighted_tail_series.unconverged"] += s.attrs.get("unconverged", 0)
        elif s.name == "bounds.nested_moment_identity":
            out["bounds.nested_moment_identity.unconverged"] += s.attrs.get("unconverged", 0)
        elif s.name == "glivenko.scan_window":
            out["glivenko.scan_window.value"] = s.attrs.get("value", 0)
    if by_threads[1] > 0 and by_threads[2] > 0:
        out["engine.run_chunked.speedup_2w"] = by_threads[1] / by_threads[2]
    return out
