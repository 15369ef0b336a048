"""Timing shims around the public functions of each request-path layer.

The benchmark measures layers from the outside: :func:`install` replaces a
fixed set of public functions and methods of ``repro`` with wrappers that
record one span per call (name, start, end, parent, thread) into a
:class:`SpanRecorder` held in memory.  Nothing inside the program changes;
removing the wrappers (:func:`uninstall`) restores the original objects.

A layer's *self* time is its span minus the time covered by its child
spans, so the self times of all spans under one request add up to the
request's own duration.  :func:`layer_totals` aggregates self times and
call counts per layer name; :func:`write_perfetto` renders the spans
through :mod:`repro.obs.perfetto`.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    parent_id: int  # 0 = root
    name: str
    start: float  # perf_counter seconds
    end: float
    thread: int
    attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store with a per-thread parent stack.

    Unless ``record_roots`` is set, wrappers record a span only under an
    open parent span — so the
    benchmark's own bookkeeping calls into the same functions (verification
    decodes, reference runs) stay out of the request spans.  Server
    processes set ``record_roots``: every call there belongs to a request.
    """

    def __init__(self, *, record_roots: bool = False) -> None:
        self.spans: List[Span] = []
        self.record_roots = record_roots
        self._ids = itertools.count(1)
        self._local = threading.local()
        # perf_counter -> epoch seconds, for merging spans across processes.
        self.epoch_offset = time.time() - time.perf_counter()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             describe: Optional[Callable] = None) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        if not stack and not self.record_roots:
            return fn(*args, **kwargs)
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        out = None
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            t1 = time.perf_counter()
            stack.pop()
            attrs = describe(args, kwargs, out) if describe is not None else None
            self.spans.append(
                Span(span_id, parent, name, t0, t1, threading.get_ident(), attrs)
            )

    def root(self, name: str, **attrs: Any) -> "_Root":
        """Context manager opening a root span (one benchmark request)."""
        return _Root(self, name, attrs)


class _Root:
    def __init__(self, rec: SpanRecorder, name: str, attrs: Dict[str, Any]) -> None:
        self.rec, self.name, self.attrs = rec, name, attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> "_Root":
        self.span_id = next(self.rec._ids)
        self.rec._stack().append(self.span_id)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        t1 = time.perf_counter()
        self.rec._stack().pop()
        self.span = Span(self.span_id, 0, self.name, self.t0, t1, threading.get_ident(),
                         self.attrs)
        self.rec.spans.append(self.span)


# -- shim table ----------------------------------------------------------------

def _trace_bytes_out(args, kwargs, out):
    return {"bytes": len(out)} if isinstance(out, str) else None


def _trace_bytes_in(args, kwargs, out):
    return {"bytes": len(args[0])} if args and isinstance(args[0], str) else None


def _cache_outcome(args, kwargs, out):
    return {"hit": out is not None}


def _sched_events(args, kwargs, out):
    metrics = kwargs.get("metrics")
    doc = {"tasks": len(out) if out is not None else 0}
    if metrics is not None:
        doc["events"] = int(metrics.events_processed)
    return doc


def _targets() -> List[Tuple[str, Any, str, str, Optional[Callable]]]:
    """(layer, owner, attribute, kind, describe) for every wrapped callable.

    ``kind`` is ``function`` (a module-level binding — patched in every
    module whose globals the request path looks it up in), ``method`` or
    ``classmethod``.
    """
    from repro.core import soa
    from repro.kernels import timing
    from repro.runner import cache, runner, spec
    from repro.schedulers import base
    from repro.service import core as service_core
    from repro.trace import textio

    return [
        ("runner.run_cached", runner, "run_cached", "function", None),
        ("runner.run_cached", service_core, "run_cached", "function", None),
        ("runner.spec.cache_key", spec.RunSpec, "cache_key", "method", None),
        ("algorithms.build", spec.ProgramSpec, "build", "method", None),
        ("core.soa.lower", soa.SoAProgram, "__init__", "method", None),
        ("machine.calibration.collect", runner, "collect_samples", "function", None),
        ("kernels.timing.fit", timing.KernelModelSet, "from_samples", "classmethod", None),
        ("schedulers.run", base.SchedulerBase, "run", "method", _sched_events),
        ("trace.textio.encode", textio, "dumps_trace", "function", _trace_bytes_out),
        ("trace.textio.encode", runner, "dumps_trace", "function", _trace_bytes_out),
        ("trace.textio.decode", textio, "loads_trace", "function", _trace_bytes_in),
        ("trace.textio.decode", runner, "loads_trace", "function", _trace_bytes_in),
        ("runner.cache.get", cache.ResultCache, "get", "method", _cache_outcome),
        ("runner.cache.put", cache.ResultCache, "put", "method", None),
        ("runner.cache.read", runner.RunResult, "trace_dump", "method", _trace_bytes_out),
    ]


_installed: List[Tuple[Any, str, Any]] = []


def install(recorder: SpanRecorder) -> None:
    """Wrap every target so its calls record into ``recorder``."""
    if _installed:
        raise RuntimeError("layer shims are already installed")
    for layer, owner, attr, kind, describe in _targets():
        original = owner.__dict__[attr]
        fn = original.__func__ if kind == "classmethod" else original

        def make(fn=fn, layer=layer, describe=describe):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return recorder.call(layer, fn, args, kwargs, describe)
            return wrapper

        wrapped = make()
        setattr(owner, attr, classmethod(wrapped) if kind == "classmethod" else wrapped)
        _installed.append((owner, attr, original))


def uninstall() -> None:
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)


# -- aggregation ---------------------------------------------------------------

def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus its children's."""
    spans = list(spans)
    child = {s.span_id: 0.0 for s in spans}
    for s in spans:
        if s.parent_id in child:
            child[s.parent_id] += s.duration
    return {s.span_id: s.duration - child[s.span_id] for s in spans}


def layer_totals(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: self seconds, total seconds of outermost calls, call count,
    plus summed ``bytes``/``events``/``tasks``/``hits`` attributes."""
    spans = list(spans)
    selfs = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        agg = out.setdefault(
            s.name,
            {"self_s": 0.0, "total_s": 0.0, "calls": 0, "bytes": 0, "events": 0,
             "tasks": 0, "hits": 0},
        )
        agg["self_s"] += selfs[s.span_id]
        agg["calls"] += 1
        # Total time counts only the outermost span of a name, so nested
        # calls (the calibration run_cached inside a run_cached) are not
        # counted twice.
        p = by_id.get(s.parent_id)
        while p is not None and p.name != s.name:
            p = by_id.get(p.parent_id)
        if p is None:
            agg["total_s"] += s.duration
        if s.attrs:
            for k in ("bytes", "events", "tasks"):
                agg[k] += s.attrs.get(k, 0)
            agg["hits"] += 1 if s.attrs.get("hit") else 0
    return out


def subtrees(spans: List[Span], root_ids: Iterable[int]) -> List[Span]:
    """Every span under the given roots (the roots included)."""
    kids: Dict[int, List[Span]] = {}
    for s in spans:
        kids.setdefault(s.parent_id, []).append(s)
    by_id = {s.span_id: s for s in spans}
    out, todo = [], list(root_ids)
    while todo:
        sid = todo.pop()
        if sid in by_id:
            out.append(by_id[sid])
        todo.extend(k.span_id for k in kids.get(sid, ()))
    return out


# -- export --------------------------------------------------------------------

def span_documents(spans: Iterable[Span], component: str,
                   epoch_offset: float) -> List[Dict[str, Any]]:
    """Spans as :meth:`repro.obs.telemetry.Span.to_dict`-shaped documents,
    one Perfetto lane per ``component``/thread."""
    lanes: Dict[int, int] = {}
    docs = []
    for s in spans:
        lane = lanes.setdefault(s.thread, len(lanes))
        docs.append(
            {
                "name": s.name,
                "component": f"{component}/t{lane}",
                "start_s": s.start + epoch_offset,
                "duration_s": s.duration,
                "span_id": f"{os.getpid()}-{s.span_id}",
                "parent_id": f"{os.getpid()}-{s.parent_id}" if s.parent_id else None,
                "trace_id": None,
                "attrs": dict(s.attrs or {}),
            }
        )
    return docs


def write_perfetto(path: str, span_docs: List[Dict[str, Any]]) -> str:
    """Write span documents as a Perfetto ``trace_event`` file and validate
    it through the exporter's own loader."""
    import json

    from repro.obs.perfetto import loads_trace_event, service_trace_event_document

    doc = service_trace_event_document(span_docs)
    text = json.dumps(doc, sort_keys=True)
    loads_trace_event(text)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path
