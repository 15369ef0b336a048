"""Chrome/Perfetto ``trace_event`` export of a run plus its probe stream.

Produces the JSON object format of the Trace Event specification — the
format ``chrome://tracing`` and https://ui.perfetto.dev open directly — so a
simulated run can be inspected next to our SVG Gantt with full zoom, search,
and counter tracks:

* **per-worker task lanes** (process "workers", one thread per core): one
  complete ``"X"`` event per executed task, taken from the :class:`Trace`
  itself (start/end/kernel/label/width are authoritative there);
* **scheduler-internal spans** (process "scheduler"): window-stall episodes
  as spans on a dedicated lane, dispatch sweeps and watchdog stall episodes
  as instant events;
* **counter tracks**: ready-queue depth, window occupancy, active workers,
  and — for threaded runs — TEQ depth, emitted as ``"C"`` events from the
  derived time series.

Timestamps are virtual microseconds (the spec's ``ts`` unit); the virtual
origin is preserved, not rebased.  :func:`load_trace_event` is the
exporter's own loader: it re-parses and structurally validates a document,
and the CI smoke job round-trips every emitted file through it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..trace.events import Trace
from .probe import STALL_EPISODE, SWEEP, RecordingProbe
from .attribution import stall_episodes
from .series import TimeSeriesSet, build_series

__all__ = [
    "trace_event_document",
    "service_span_events",
    "service_trace_event_document",
    "write_trace_event",
    "load_trace_event",
    "loads_trace_event",
]

#: pid of the worker-lanes process, the scheduler-internals process, and
#: the service-request process (traced fleet requests).  The pid spaces are
#: disjoint so service spans and a simulation timeline can merge into one
#: document without lane collisions.  pid 3 is retired, not reused, so
#: documents written by earlier versions keep their lane identities.
_PID_WORKERS = 1
_PID_SCHED = 2
_PID_SERVICE = 4

#: tids inside the scheduler process.
_TID_WINDOW = 0
_TID_SWEEP = 1
_TID_WATCHDOG = 2

_US = 1e6  # virtual seconds -> trace_event microseconds


def _meta(pid: int, tid: Optional[int], key: str, name: str) -> Dict[str, Any]:
    ev: Dict[str, Any] = {
        "ph": "M",
        "pid": pid,
        "name": key,
        "args": {"name": name},
    }
    if tid is not None:
        ev["tid"] = tid
    return ev


def trace_event_document(
    trace: Trace,
    probe: Optional[RecordingProbe] = None,
    *,
    series: Optional[TimeSeriesSet] = None,
) -> Dict[str, Any]:
    """Build the ``trace_event`` JSON document for one run.

    Without a probe the document carries the task lanes only; with one it
    gains the scheduler spans and counter tracks.  ``series`` may be passed
    to reuse an already-built :class:`TimeSeriesSet` (the timeline CLI
    builds it once for several artifacts); otherwise it is derived here.
    """
    events: List[Dict[str, Any]] = []

    events.append(_meta(_PID_WORKERS, None, "process_name", "workers"))
    for w in range(trace.n_workers):
        events.append(_meta(_PID_WORKERS, w, "thread_name", f"core {w}"))

    for e in sorted(trace.events):
        args: Dict[str, Any] = {"task_id": e.task_id}
        if e.label:
            args["label"] = e.label
        if e.width > 1:
            args["width"] = e.width
        events.append(
            {
                "name": e.kernel,
                "cat": "task",
                "ph": "X",
                "ts": e.start * _US,
                "dur": e.duration * _US,
                "pid": _PID_WORKERS,
                "tid": e.worker,
                "args": args,
            }
        )

    if probe is not None:
        events.append(_meta(_PID_SCHED, None, "process_name", "scheduler"))
        events.append(_meta(_PID_SCHED, _TID_WINDOW, "thread_name", "window throttle"))
        events.append(_meta(_PID_SCHED, _TID_SWEEP, "thread_name", "dispatch sweeps"))
        events.append(_meta(_PID_SCHED, _TID_WATCHDOG, "thread_name", "watchdog"))

        end_of_run = trace.start_time + trace.makespan
        for begin, end in stall_episodes(probe, end_of_run=end_of_run):
            events.append(
                {
                    "name": "window stall",
                    "cat": "scheduler",
                    "ph": "X",
                    "ts": begin * _US,
                    "dur": max(0.0, end - begin) * _US,
                    "pid": _PID_SCHED,
                    "tid": _TID_WINDOW,
                    "args": {},
                }
            )
        for e in probe.sorted_events():
            if e.kind == SWEEP and e.value > 0:
                events.append(
                    {
                        "name": "dispatch",
                        "cat": "scheduler",
                        "ph": "i",
                        "s": "t",
                        "ts": e.t * _US,
                        "pid": _PID_SCHED,
                        "tid": _TID_SWEEP,
                        "args": {"placed": int(e.value), "ready_left": e.worker},
                    }
                )
            elif e.kind == STALL_EPISODE:
                events.append(
                    {
                        "name": "stall episode",
                        "cat": "scheduler",
                        "ph": "i",
                        "s": "p",
                        "ts": e.t * _US,
                        "pid": _PID_SCHED,
                        "tid": _TID_WATCHDOG,
                        "args": {"recover_attempts": int(e.value)},
                    }
                )

        if series is None:
            series = build_series(probe)
        for name in series.names():
            s = series[name]
            for t, v in zip(s.times, s.values):
                events.append(
                    {
                        "name": name,
                        "cat": "counter",
                        "ph": "C",
                        "ts": t * _US,
                        "pid": _PID_SCHED,
                        "args": {name: v},
                    }
                )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.obs.perfetto/v1",
            "meta": {k: str(v) for k, v in sorted(trace.meta.items())},
            "n_workers": trace.n_workers,
            "n_tasks": len(trace),
        },
    }


def service_span_events(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Render service span documents as ``trace_event`` complete events.

    ``spans`` are :meth:`repro.obs.telemetry.Span.to_dict` documents — the
    ``"spans"`` list a traced service response carries.  Each component
    (``router``, ``shard-0``, …) becomes one thread lane in a dedicated
    "service" process; timestamps are rebased so the earliest span starts at
    0, putting a fleet request on the same visual origin as the virtual-time
    simulation lanes it may share a document with.
    """
    if not spans:
        return []
    docs = [s.to_dict() if hasattr(s, "to_dict") else s for s in spans]
    components = sorted({str(s.get("component") or "service") for s in docs})
    tids = {c: i for i, c in enumerate(components)}
    origin = min(float(s["start_s"]) for s in docs)
    events = [_meta(_PID_SERVICE, None, "process_name", "service")]
    for c in components:
        events.append(_meta(_PID_SERVICE, tids[c], "thread_name", c))
    for s in docs:
        attrs = s.get("attrs")
        args: Dict[str, Any] = dict(attrs) if isinstance(attrs, dict) else {}
        for key in ("trace_id", "span_id", "parent_id"):
            if s.get(key):
                args[key] = s[key]
        events.append(
            {
                "name": str(s["name"]),
                "cat": "service",
                "ph": "X",
                "ts": max(0.0, float(s["start_s"]) - origin) * _US,
                "dur": max(0.0, float(s["duration_s"])) * _US,
                "pid": _PID_SERVICE,
                "tid": tids[str(s.get("component") or "service")],
                "args": args,
            }
        )
    return events


def service_trace_event_document(
    spans: List[Dict[str, Any]], *, base: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """A ``trace_event`` document for traced service request spans.

    ``base`` may be an existing trace_event document (typically a simulation
    timeline from :func:`trace_event_document`) whose events and metadata
    are carried over — the mixed document renders the fleet request *and*
    the run it triggered in one Perfetto UI.  Output passes
    :func:`loads_trace_event`.
    """
    events: List[Dict[str, Any]] = []
    other: Dict[str, Any] = {"exporter": "repro.obs.perfetto/v1"}
    if base is not None:
        if not isinstance(base, dict) or not isinstance(base.get("traceEvents"), list):
            raise ValueError("base is not a trace_event document")
        events.extend(base["traceEvents"])
        if isinstance(base.get("otherData"), dict):
            other.update(base["otherData"])
    events.extend(service_span_events(spans))
    docs = [s.to_dict() if hasattr(s, "to_dict") else s for s in spans]
    other["service_spans"] = len(docs)
    trace_ids = sorted({s["trace_id"] for s in docs if s.get("trace_id")})
    if trace_ids:
        other["trace_ids"] = trace_ids
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def write_trace_event(
    path: Union[str, Path],
    trace: Trace,
    probe: Optional[RecordingProbe] = None,
    *,
    series: Optional[TimeSeriesSet] = None,
) -> Path:
    """Write :func:`trace_event_document` output as JSON to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = trace_event_document(trace, probe, series=series)
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path


_PHASES_WITH_TS = ("X", "i", "C")


def loads_trace_event(text: str) -> Dict[str, Any]:
    """Parse and structurally validate a ``trace_event`` JSON string.

    Checks the invariants the exporter guarantees (and Perfetto relies on):
    a ``traceEvents`` list of dict events, every event carrying a known
    ``ph`` plus ``pid``/``name``, numeric non-negative ``ts`` on timed
    phases, numeric non-negative ``dur`` on complete events, and metadata
    events carrying an ``args.name``.  Returns the parsed document; raises
    ``ValueError`` naming the first offending event.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("not a trace_event document: missing traceEvents list")
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            raise ValueError(f"{where}: event is not an object")
        ph = ev.get("ph")
        if ph not in ("M", "X", "i", "C"):
            raise ValueError(f"{where}: unsupported phase {ph!r}")
        if not isinstance(ev.get("pid"), int):
            raise ValueError(f"{where}: missing integer pid")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            raise ValueError(f"{where}: missing event name")
        if ph in _PHASES_WITH_TS:
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where}: bad dur {dur!r}")
            if not isinstance(ev.get("tid"), int):
                raise ValueError(f"{where}: complete event without integer tid")
        if ph == "M":
            args = ev.get("args")
            if not isinstance(args, dict) or "name" not in args:
                raise ValueError(f"{where}: metadata event without args.name")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                raise ValueError(f"{where}: counter event without samples")
    return doc


def load_trace_event(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a ``trace_event`` JSON file (see :func:`loads_trace_event`)."""
    return loads_trace_event(Path(path).read_text())
