"""Array-native discrete-event engine: the compiled core behind ``engine_backend="array"``.

This engine replays exactly the same simulation as
:class:`repro.schedulers.engine.Engine` — same event order, same random
variates, byte-identical traces — but runs the whole event loop inside the
hand-written C core of :mod:`repro.schedulers._array_core` (built with a
plain C compiler by ``tools/build_array_core.py``, loaded via ctypes), over
the flat data of :class:`repro.core.soa.SoAProgram`:

* task state, dependency counts, widths, priorities and the successor
  graph live in arrays indexed by task id; the hazard analysis behind the
  CSR successor arrays runs once, before the clock starts;
* the event set is one array sorted on ``(time, push sequence)`` — the
  same total order as the object engine's binary heap, so pops interleave
  identically; at most ``n_workers + 1`` events are ever pending;
* durations come from closed-form per-kernel transforms
  (:meth:`~repro.kernels.timing.KernelModelSet.sweep_transforms`) applied
  to the whole run's standard-normal stream, pre-drawn in a single
  vectorised call — bit-identical to the batched sampler because NumPy
  fills ``standard_normal(n)`` with the same ziggurat sequence regardless
  of chunking, and the unconsumed tail is never observed.

The object engine is the oracle and the only other trace source.  Every
configuration the core cannot replay — no core built, a probe attached, a
backend without closed-form transforms, StarPU's ``ws``/``dmda`` policies,
scheduler subclasses — runs there instead (see
:func:`array_backend_unsupported`); :meth:`SchedulerBase.run` performs that
fallback and records the reason.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..core.metrics import RunMetrics
from ..core.soa import SoAProgram
from ..core.task import Program
from ..obs.probe import active_probe
from ..trace.events import ColumnTrace, Trace
from ._array_core import N_COUNTERS, RUN_SERIALIZED as _c_run
from .base import Backend, SchedulerBase
from .ompss import OmpSsScheduler
from .quark import QuarkScheduler
from .starpu import StarPUScheduler

__all__ = ["ArrayEngine", "array_backend_unsupported"]


def array_backend_unsupported(
    scheduler: SchedulerBase, backend: Backend, probe: Optional[object] = None
) -> Optional[str]:
    """Why this configuration cannot run on the array engine, or ``None``.

    The compiled core implements the exact ready-queue semantics of the
    three stock schedulers' deterministic policies and draws durations only
    through closed-form transforms.  Anything it cannot replicate
    byte-for-byte — scheduler subclasses with overridden hooks, StarPU's
    ``ws``/``dmda`` policies (per-worker deques and ETA models), backends
    without closed-form transforms (machine-model real mode, calibrated
    mixture/KDE models), an attached probe, or a process without the built
    core — reports a reason here so callers fall back to the object engine
    instead of producing a divergent trace.
    """
    # Local import: simbackend's module chain reaches back into this
    # package, so importing it at module scope would be circular.
    from ..core.simbackend import SimulationBackend

    kind = type(scheduler)
    if kind is StarPUScheduler and scheduler.policy not in ("eager", "prio"):
        return f"StarPU policy {scheduler.policy!r} has no array-native ready queue"
    if kind not in (QuarkScheduler, OmpSsScheduler, StarPUScheduler):
        return f"scheduler type {kind.__name__} has no array-native implementation"
    if type(backend) is not SimulationBackend:
        return f"backend {type(backend).__name__} has no closed-form duration transforms"
    if backend.models.sweep_transforms() is None:
        return (
            f"timing models of family {backend.models.family!r} have no "
            f"closed-form duration transforms"
        )
    if active_probe(probe) is not None:
        return "a probe is attached and the compiled core emits no probe events"
    if _c_run is None:
        return "compiled array core not built (python tools/build_array_core.py)"
    return None


def _queue_layout(sched: SchedulerBase) -> Tuple[int, int]:
    """``(queue_kind, bounce_enabled)`` codes for the C core.

    Queue kinds: 0 FIFO, 1 priority (FIFO tie-break), 2 LIFO — the same
    disciplines as :mod:`repro.schedulers.policies`.
    """
    kind = type(sched)
    if kind is QuarkScheduler:
        return (1 if sched.queue_kind == "priority" else 2), 0
    if kind is StarPUScheduler:
        return (0 if sched.policy == "eager" else 1), 0
    # OmpSs: central fifo/priority queue, optional bounce slots.
    qk = 0 if sched.queue_kind == "fifo" else 1
    return qk, (1 if sched.immediate_successor else 0)


class ArrayEngine:
    """:class:`~repro.schedulers.engine.Engine` replacement on SoA data.

    Constructor (minus ``probe``) and :meth:`run` match the object engine;
    a configuration without an array path raises ``ValueError`` (use
    :func:`array_backend_unsupported` to pre-check and fall back).
    """

    def __init__(
        self,
        scheduler: SchedulerBase,
        program: Program,
        backend: Backend,
        *,
        seed: int = 0,
        trace_meta: Optional[Dict[str, Any]] = None,
        metrics: Optional[RunMetrics] = None,
    ) -> None:
        reason = array_backend_unsupported(scheduler, backend)
        if reason is not None:
            raise ValueError(f"array engine cannot run this configuration: {reason}")
        self.sched = scheduler
        self.program = program
        self.backend = backend
        self.seed = seed
        self.n_workers = scheduler.n_workers
        self.metrics = metrics if metrics is not None else RunMetrics()
        self.soa = SoAProgram.for_program(program)
        self.trace = Trace(
            n_workers=self.n_workers,
            meta={
                "scheduler": scheduler.name,
                "backend": type(backend).__name__,
                "program": program.name,
                "seed": seed,
                "n_workers": self.n_workers,
                **(trace_meta or {}),
            },
        )

    def run(self) -> Trace:
        """Run the whole serialized loop inside the C core."""
        wall_start = time.perf_counter()
        m = self.metrics
        soa = self.soa
        sched = self.sched
        n = soa.n_tasks
        n_workers = self.n_workers
        m.n_tasks = n
        m.n_workers = n_workers

        # Per-kernel transforms, then the whole run's normal stream: one
        # variate per task whose kernel is not constant, the same leading
        # variates the batched sampler consumes.
        sweep = self.backend.models.sweep_transforms()
        names = soa.kernel_names
        missing = [k for k in names if k not in sweep]
        if missing:
            raise KeyError(
                f"no timing model for kernel {missing[0]!r}; "
                f"calibrated kernels: {sorted(sweep)}"
            )
        tf_kind = np.array([sweep[k][0] for k in names], dtype=np.int32)
        tf_a = np.array([sweep[k][1] for k in names], dtype=np.float64)
        tf_b = np.array([sweep[k][2] for k in names], dtype=np.float64)
        n_normal = int(np.count_nonzero(tf_kind[soa.kernel_ids]))
        zs = np.random.default_rng(self.seed).standard_normal(n_normal)

        if n == 0:
            m.makespan = self.trace.makespan
            m.wall_time_s = time.perf_counter() - wall_start
            return self.trace
        if soa.max_width > n_workers:
            # Same failure mode as the object engine's insert-time check,
            # surfaced with the first offending task.
            tid = int(np.argmax(soa.widths > n_workers))
            width = int(soa.widths[tid])
            raise ValueError(
                f"task {tid} (width {width}) requires {width} workers "
                f"but the runtime has {n_workers}"
            )

        qk, bounce = _queue_layout(sched)
        out_worker = np.empty(n, dtype=np.int32)
        out_tid = np.empty(n, dtype=np.int32)
        out_start = np.empty(n, dtype=np.float64)
        out_end = np.empty(n, dtype=np.float64)
        counters = np.zeros(N_COUNTERS, dtype=np.int64)
        deps = soa.n_preds.copy()  # the core decrements it in place
        if zs.size == 0:
            zs = np.zeros(1, dtype=np.float64)  # never dereferenced
        rc = _c_run(
            n,
            n_workers,
            soa.kernel_ids,
            soa.widths,
            soa.priorities,
            deps,
            soa.succ_indptr,
            soa.succ_indices,
            tf_kind,
            tf_a,
            tf_b,
            zs,
            float(self.backend.warmup_penalty),
            1 if sched.master_is_worker else 0,
            sched.window,
            sched.insert_cost,
            sched.dispatch_overhead,
            sched.completion_cost,
            qk,
            bounce,
            out_worker,
            out_tid,
            out_start,
            out_end,
            counters,
        )
        if rc == 1:
            raise ValueError(
                f"backend produced invalid duration for task {int(counters[11])}"
            )
        if rc == 2:
            raise RuntimeError(
                f"simulation ended with {int(counters[11])} unfinished task(s)"
            )
        if rc != 0:  # pragma: no cover - allocation failure
            raise MemoryError("array core failed to allocate run state")
        # Hand the dispatch-order columns to a lazy trace: event objects are
        # only built if something actually reads them.
        trace = ColumnTrace(
            n_workers=n_workers,
            meta=self.trace.meta,
            col_workers=out_worker,
            col_task_ids=out_tid,
            col_starts=out_start,
            col_ends=out_end,
            kernel_names=soa.kernel_names,
            kernel_ids=soa.kernel_ids,
            labels=soa.labels,
            widths=soa.widths,
        )
        self.trace = trace
        m.events_processed = int(counters[0])
        m.insert_events = int(counters[1])
        m.finish_events = int(counters[2])
        m.heap_pushes = int(counters[3])
        m.heap_pops = int(counters[4])
        m.peak_heap_depth = int(counters[5])
        m.window_stalls = int(counters[6])
        m.dispatch_stalls = int(counters[7])
        m.tasks_executed = int(counters[8])
        m.peak_ready_depth = int(counters[9])
        m.makespan = trace.makespan
        m.wall_time_s = time.perf_counter() - wall_start
        return trace
