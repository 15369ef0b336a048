"""The probe bus: low-overhead instrumentation hooks for the simulation core.

A *probe* observes scheduler-internal transitions that neither the trace nor
the :class:`~repro.core.metrics.RunMetrics` counters preserve: when each
task moved through its lifecycle (inserted → ready → dispatched → running →
finished), when the insertion window throttled, what every dispatch sweep
achieved, and — on the threaded runtime — the Task Execution Queue's
insert/pop/bounce traffic and the watchdog's stall episodes.  The recorded
stream is the raw material for every derived product in this package:
virtual-time series (:mod:`repro.obs.series`), per-task wait attribution
(:mod:`repro.obs.attribution`), and the Perfetto export
(:mod:`repro.obs.perfetto`).

Design constraints, in priority order:

1. **Probes observe, never perturb.**  No hook may change scheduling
   decisions, RNG draw order, or trace content; golden trace digests must
   stay byte-identical with a probe attached.
2. **The default path is near-free.**  Runtimes store ``probe`` as a plain
   attribute that is ``None`` when no *enabled* probe was supplied, so every
   hook site costs one attribute load plus an ``is not None`` test — well
   inside the CI bench gate.  :class:`NullProbe` exists for callers that
   need a probe-shaped object (subclassing, dependency injection); passing
   it is equivalent to passing ``None``.
3. **Deterministic for fixed seeds on the engine backend.**  The engine
   invokes hooks from its single event loop in event order, so a
   :class:`RecordingProbe` stream (and its digest) is a pure function of
   ``(program, scheduler, backend, seed)``.  Threaded-runtime streams are
   timestamped in *virtual* time but appended in real-thread order, so only
   their per-task content — not their interleaving — is reproducible.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Any, Dict, List, NamedTuple, Optional, Protocol, Tuple, runtime_checkable

__all__ = [
    "ProbeEvent",
    "Probe",
    "NullProbe",
    "RecordingProbe",
    "PROBE_STREAM_SCHEMA",
    "active_probe",
]

#: Schema tag of the serialised probe stream document.
PROBE_STREAM_SCHEMA = "repro.probe_stream/v1"

# -- event kinds -----------------------------------------------------------
INSERTED = "inserted"
READY = "ready"
DISPATCHED = "dispatched"
FINISHED = "finished"
WINDOW_STALL_BEGIN = "window_stall_begin"
WINDOW_STALL_END = "window_stall_end"
SWEEP = "sweep"
TEQ_INSERT = "teq_insert"
TEQ_POP = "teq_pop"
TEQ_BOUNCE = "teq_bounce"
STALL_EPISODE = "stall_episode"

EVENT_KINDS = (
    INSERTED,
    READY,
    DISPATCHED,
    FINISHED,
    WINDOW_STALL_BEGIN,
    WINDOW_STALL_END,
    SWEEP,
    TEQ_INSERT,
    TEQ_POP,
    TEQ_BOUNCE,
    STALL_EPISODE,
)


class ProbeEvent(NamedTuple):
    """One recorded scheduler-internal transition.

    ``t`` is virtual time (seconds).  The meaning of ``value`` depends on
    ``kind``: dispatch start time for ``dispatched``, queue depth after the
    operation for ``teq_insert``/``teq_pop``, tasks placed for ``sweep``,
    outstanding dependences for ``inserted``, recovery count for
    ``stall_episode`` — and 0.0 where unused.
    """

    t: float
    kind: str
    task_id: int = -1
    worker: int = -1
    value: float = 0.0
    width: int = 1


@runtime_checkable
class Probe(Protocol):
    """Hook surface the runtimes call into.

    Implementations must be cheap and side-effect-free with respect to the
    simulation: hooks run inside the engine's event loop (and, on the
    threaded runtime, under runtime locks), so they must never block, raise,
    or call back into the scheduler.  ``enabled`` is the opt-out switch the
    runtimes consult once at attach time — a falsy value makes attachment a
    no-op, keeping every hot-path hook behind a single ``None`` check.
    """

    enabled: bool

    # -- task lifecycle (engine + threaded runtime) ---------------------
    def task_inserted(self, t: float, task_id: int, n_deps: int) -> None: ...

    def task_ready(self, t: float, task_id: int) -> None: ...

    def task_dispatched(
        self, t: float, task_id: int, worker: int, start: float, width: int
    ) -> None: ...

    def task_finished(self, t: float, task_id: int, worker: int, width: int) -> None: ...

    # -- scheduler internals --------------------------------------------
    def window_stall(self, t: float, begin: bool) -> None: ...

    def dispatch_sweep(self, t: float, placed: int, ready_left: int) -> None: ...

    def task_deps(self, task_id: int, preds: Tuple[int, ...]) -> None: ...

    # -- threaded runtime / TEQ -----------------------------------------
    def teq_insert(self, t: float, task_id: int, depth: int) -> None: ...

    def teq_pop(self, t: float, task_id: int, depth: int) -> None: ...

    def teq_bounce(self, t: float, task_id: int) -> None: ...

    def stall_episode(self, t: float, attempts: int) -> None: ...


def active_probe(probe: Optional[Probe]) -> Optional[Probe]:
    """Normalise a caller-supplied probe to the runtimes' internal form.

    Returns ``probe`` when it is enabled, else ``None`` — so hook sites pay
    one ``is not None`` check and a disabled probe (or :class:`NullProbe`)
    costs exactly the uninstrumented path.
    """
    if probe is None or not getattr(probe, "enabled", True):
        return None
    return probe


class NullProbe:
    """A probe that records nothing and disables the hook sites entirely."""

    enabled = False

    def task_inserted(self, t: float, task_id: int, n_deps: int) -> None:
        pass

    def task_ready(self, t: float, task_id: int) -> None:
        pass

    def task_dispatched(
        self, t: float, task_id: int, worker: int, start: float, width: int
    ) -> None:
        pass

    def task_finished(self, t: float, task_id: int, worker: int, width: int) -> None:
        pass

    def window_stall(self, t: float, begin: bool) -> None:
        pass

    def dispatch_sweep(self, t: float, placed: int, ready_left: int) -> None:
        pass

    def task_deps(self, task_id: int, preds: Tuple[int, ...]) -> None:
        pass

    def teq_insert(self, t: float, task_id: int, depth: int) -> None:
        pass

    def teq_pop(self, t: float, task_id: int, depth: int) -> None:
        pass

    def teq_bounce(self, t: float, task_id: int) -> None:
        pass

    def stall_episode(self, t: float, attempts: int) -> None:
        pass


class RecordingProbe(NullProbe):
    """Append-only probe recording every hook as a :class:`ProbeEvent`.

    Thread-safe: the threaded runtime fires hooks from many worker threads,
    so appends are serialised by a lock (recording is opt-in; the default
    ``probe=None`` path never pays for it).  Besides the event stream it
    keeps the per-task dependence sets the :class:`HazardTracker` reports,
    which the wait-attribution report uses to name what a task waited *on*.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.events: List[ProbeEvent] = []
        self.deps: Dict[int, Tuple[int, ...]] = {}

    # -- hook implementations -------------------------------------------
    def task_inserted(self, t: float, task_id: int, n_deps: int) -> None:
        with self._lock:
            self.events.append(ProbeEvent(t, INSERTED, task_id, value=float(n_deps)))

    def task_ready(self, t: float, task_id: int) -> None:
        with self._lock:
            self.events.append(ProbeEvent(t, READY, task_id))

    def task_dispatched(
        self, t: float, task_id: int, worker: int, start: float, width: int
    ) -> None:
        with self._lock:
            self.events.append(ProbeEvent(t, DISPATCHED, task_id, worker, start, width))

    def task_finished(self, t: float, task_id: int, worker: int, width: int) -> None:
        with self._lock:
            self.events.append(ProbeEvent(t, FINISHED, task_id, worker, width=width))

    def window_stall(self, t: float, begin: bool) -> None:
        with self._lock:
            self.events.append(
                ProbeEvent(t, WINDOW_STALL_BEGIN if begin else WINDOW_STALL_END)
            )

    def dispatch_sweep(self, t: float, placed: int, ready_left: int) -> None:
        with self._lock:
            self.events.append(
                ProbeEvent(t, SWEEP, worker=ready_left, value=float(placed))
            )

    def task_deps(self, task_id: int, preds: Tuple[int, ...]) -> None:
        with self._lock:
            self.deps[task_id] = preds

    def teq_insert(self, t: float, task_id: int, depth: int) -> None:
        with self._lock:
            self.events.append(ProbeEvent(t, TEQ_INSERT, task_id, value=float(depth)))

    def teq_pop(self, t: float, task_id: int, depth: int) -> None:
        with self._lock:
            self.events.append(ProbeEvent(t, TEQ_POP, task_id, value=float(depth)))

    def teq_bounce(self, t: float, task_id: int) -> None:
        with self._lock:
            self.events.append(ProbeEvent(t, TEQ_BOUNCE, task_id))

    def stall_episode(self, t: float, attempts: int) -> None:
        with self._lock:
            self.events.append(ProbeEvent(t, STALL_EPISODE, value=float(attempts)))

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self.events)

    def by_kind(self, kind: str) -> List[ProbeEvent]:
        with self._lock:
            return [e for e in self.events if e.kind == kind]

    def sorted_events(self) -> List[ProbeEvent]:
        """Events in virtual-time order (stable on recording order).

        The engine records in nondecreasing time already; the threaded
        runtime's real-thread interleaving can reorder neighbours, so the
        derived products always consume this view.
        """
        with self._lock:
            return sorted(self.events, key=lambda e: e.t)

    # -- serialisation ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "schema": PROBE_STREAM_SCHEMA,
                "n_events": len(self.events),
                "events": [list(e) for e in self.events],
                "deps": {str(tid): list(p) for tid, p in self.deps.items()},
            }

    def digest(self) -> str:
        """SHA-256 of the canonical stream — the determinism fingerprint."""
        doc = self.to_dict()
        doc.pop("schema", None)
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
