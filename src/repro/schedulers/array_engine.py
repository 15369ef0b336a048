"""Array-native discrete-event engine: the SoA core behind ``engine_backend="array"``.

This engine replays exactly the same simulation as
:class:`repro.schedulers.engine.Engine` — same event order, same probe
stream, same random variates, byte-identical traces — but runs it over the
flat data of :class:`repro.core.soa.SoAProgram` instead of per-task
``TaskNode`` objects:

* task state, dependency counts, widths, priorities and the successor
  graph live in arrays indexed by task id (numpy for construction and
  analysis, plain lists inside the loop, where scalar indexing is several
  times faster than numpy's);
* the event set is a :class:`~repro.core.soa.CalendarQueue` keyed on
  ``(time, push sequence)`` — the same total order as the object engine's
  binary heap, so pops interleave identically;
* hazard analysis is hoisted out of the run entirely (the CSR successor
  arrays are built once, before the clock starts);
* when the backend is a plain :class:`~repro.core.simbackend.SimulationBackend`
  whose models admit closed-form transforms
  (:meth:`~repro.kernels.timing.KernelModelSet.sweep_transforms`), the whole
  run's standard-normal stream is pre-drawn in a single vectorised call and
  each dispatch applies one scalar transform — bit-identical to the batched
  sampler because NumPy fills ``standard_normal(n)`` with the same ziggurat
  sequence regardless of chunking, and the unconsumed tail is never
  observed.  Any other backend is driven through a per-call adapter with
  the exact argument sequence the object engine would use.

One optional compiled accelerator slots in behind the pure-Python loop:
for the no-probe sweep-transform configuration, the *entire* event loop
runs inside the hand-written C core of ``repro.schedulers._array_core``
(built with a plain C compiler by ``tools/build_array_core.py``, loaded via
ctypes).  It is a transliteration of the Python code with the same float
operation order, so which layer executes never changes a single output bit.

Not every configuration has an array path: work-stealing and ``dmda``
StarPU policies, scheduler subclasses and programs the scheduler cannot
even express fall back to the object engine
(see :func:`array_backend_unsupported`); :meth:`SchedulerBase.run` performs
that fallback and records the reason.
"""

from __future__ import annotations

import math
import time
from bisect import insort
from collections import deque
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.metrics import RunMetrics
from ..core.soa import DONE, NOT_INSERTED, READY, RUNNING, WAITING, CalendarQueue, SoAProgram
from ..core.task import Program
from ..obs.probe import active_probe
from ..trace.events import ColumnTrace, Trace
from ._array_core import N_COUNTERS, RUN_SERIALIZED as _c_run
from .base import Backend, SchedulerBase
from .ompss import OmpSsScheduler
from .quark import QuarkScheduler
from .starpu import StarPUScheduler

__all__ = [
    "ArrayEngine",
    "array_backend_unsupported",
    "USING_COMPILED_CORE",
]

#: True when the ctypes-loaded C core can run whole simulations.
USING_COMPILED_CORE: bool = _c_run is not None


def release_successors(
    succ_ids: List[int],
    deps_left: List[int],
    state: List[int],
    lo: int,
    hi: int,
) -> List[int]:
    """Decrement dependency counts for one finished task's successors.

    ``succ_ids[lo:hi]`` is the finished task's CSR successor slice in
    ascending task id.  Every successor's count drops by one — including
    not-yet-inserted ones, whose insertion-time outstanding count is read
    from ``deps_left`` — and successors that reach zero while WAITING
    (state 1) flip to READY (state 2) and are returned in slice order,
    which is the order the object engine pushes them ready.
    """
    out: List[int] = []
    for i in range(lo, hi):
        s = succ_ids[i]
        d = deps_left[s] - 1
        deps_left[s] = d
        if d == 0 and state[s] == 1:
            state[s] = 2
            out.append(s)
    return out


def array_backend_unsupported(scheduler: SchedulerBase) -> Optional[str]:
    """Why ``scheduler`` cannot run on the array engine, or ``None``.

    The array engine natively implements the exact ready-queue semantics of
    the three stock schedulers' deterministic policies.  Anything it cannot
    replicate byte-for-byte — scheduler subclasses with overridden hooks
    and StarPU's ``ws``/``dmda`` policies (per-worker deques and ETA
    models) — reports a reason here so callers can fall back to the object
    engine instead of producing a divergent trace.
    """
    kind = type(scheduler)
    if kind is QuarkScheduler or kind is OmpSsScheduler:
        return None
    if kind is StarPUScheduler:
        if scheduler.policy in ("eager", "prio"):
            return None
        return f"StarPU policy {scheduler.policy!r} has no array-native ready queue"
    return f"scheduler type {kind.__name__} has no array-native implementation"


class _NodeView:
    """Minimal ``TaskNode`` stand-in for per-call backend adapters.

    Backends read ``spec`` (machine model), ``kernel`` (simulation models)
    and ``task_id`` (error messages); one mutable view is reused across
    calls so the adapter path allocates nothing per dispatch.
    """

    __slots__ = ("spec",)

    def __init__(self) -> None:
        self.spec = None

    @property
    def kernel(self) -> str:
        return self.spec.kernel

    @property
    def task_id(self) -> int:
        return self.spec.task_id

    def __repr__(self) -> str:  # pragma: no cover - error paths only
        return f"_NodeView({self.spec!r})"


class ArrayEngine:
    """Drop-in :class:`~repro.schedulers.engine.Engine` replacement on SoA data.

    Constructor and :meth:`run` signature match the object engine; a
    configuration without an array path raises ``ValueError`` (use
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
        probe=None,
    ) -> None:
        reason = array_backend_unsupported(scheduler)
        if reason is not None:
            raise ValueError(f"array engine cannot run this configuration: {reason}")
        self.sched = scheduler
        self.program = program
        self.backend = backend
        self.seed = seed
        self.n_workers = scheduler.n_workers
        self.metrics = metrics if metrics is not None else RunMetrics()
        self.probe = active_probe(probe)
        self.soa = SoAProgram.for_program(program, keep_preds=self.probe is not None)
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

    # -- ready-queue closures ---------------------------------------------
    def _make_ready_queue(self):
        """(push, pop) closures replicating the scheduler's ready queue.

        ``push(tid, releasing_worker)`` takes ``-1`` for "no releasing
        worker" (insertion-time pushes); ``pop(worker)`` returns ``-1``
        when the queue has nothing for that worker.  Tie-breaking matches
        :mod:`repro.schedulers.policies` exactly: priority heaps carry a
        per-queue monotone sequence so equal priorities pop FIFO.
        """
        sched = self.sched
        prios = self.soa.priorities.tolist()

        def make_priority():
            heap: List[Tuple[int, int, int]] = []
            seq = [0]

            def push(tid: int, rw: int) -> None:
                s = seq[0]
                seq[0] = s + 1
                heappush(heap, (-prios[tid], s, tid))

            def pop(worker: int) -> int:
                return heappop(heap)[2] if heap else -1

            return push, pop

        def make_lifo():
            stack: List[int] = []

            def push(tid: int, rw: int) -> None:
                stack.append(tid)

            def pop(worker: int) -> int:
                return stack.pop() if stack else -1

            return push, pop

        def make_fifo():
            q: deque = deque()

            def push(tid: int, rw: int) -> None:
                q.append(tid)

            def pop(worker: int) -> int:
                return q.popleft() if q else -1

            return push, pop

        kind = type(sched)
        if kind is QuarkScheduler:
            return make_priority() if sched.queue_kind == "priority" else make_lifo()
        if kind is StarPUScheduler:
            return make_fifo() if sched.policy == "eager" else make_priority()
        # OmpSs: central queue plus the immediate-successor bounce slots.
        central_push, central_pop = (
            make_fifo() if sched.queue_kind == "fifo" else make_priority()
        )
        if not sched.immediate_successor:
            return central_push, central_pop

        bounce: Dict[int, List[int]] = {}
        n_bounced = [0]

        def push(tid: int, rw: int) -> None:
            if rw >= 0:
                bounce.setdefault(rw, []).append(tid)
                n_bounced[0] += 1
            else:
                central_push(tid, -1)

        def pop(worker: int) -> int:
            own = bounce.get(worker)
            if own:
                n_bounced[0] -= 1
                return own.pop(0)
            tid = central_pop(worker)
            if tid < 0 and n_bounced[0] > 0:
                # Drain other workers' unclaimed bounce slots in worker
                # order, exactly like OmpSsScheduler.pop_ready.
                for w in sorted(bounce):
                    slot = bounce[w]
                    if slot:
                        n_bounced[0] -= 1
                        return slot.pop(0)
            return tid

        return push, pop

    # -- the run ------------------------------------------------------------
    def run(self) -> Trace:
        wall_start = time.perf_counter()
        m = self.metrics
        soa = self.soa
        sched = self.sched
        backend = self.backend
        probe = self.probe
        trace = self.trace
        n_nodes = soa.n_tasks
        n_workers = self.n_workers
        m.n_tasks = n_nodes
        m.n_workers = n_workers

        rng = np.random.default_rng(self.seed)

        # Duration source.  Fast path: pre-draw the whole run's normal
        # stream (consumes the same leading variates as the batched
        # sampler); otherwise reset the backend and call it per dispatch.
        # Local import: simbackend's module chain reaches back into this
        # package, so importing it at module scope would be circular.
        from ..core.simbackend import SimulationBackend

        kids = soa.kernel_ids.tolist()
        sweep = None
        if type(backend) is SimulationBackend:
            sweep = backend.models.sweep_transforms()
        if sweep is not None:
            names = soa.kernel_names
            missing = [k for k in names if k not in sweep]
            if missing:
                raise KeyError(
                    f"no timing model for kernel {missing[0]!r}; "
                    f"calibrated kernels: {sorted(sweep)}"
                )
            tf_kind = [sweep[k][0] for k in names]
            tf_a = [sweep[k][1] for k in names]
            tf_b = [sweep[k][2] for k in names]
            n_normal = sum(1 for k in kids if tf_kind[k] != 0)
            zs_arr = rng.standard_normal(n_normal)
            zs = None
            warmup_penalty = backend.warmup_penalty
            have_warmup = warmup_penalty > 0.0
            warmed = [False] * n_workers
            view = None
            specs = None
        else:
            backend.reset(rng, n_workers)
            backend_duration = backend.duration
            view = _NodeView()
            specs = soa.specs
            tf_kind = tf_a = tf_b = zs = zs_arr = None
            have_warmup = False
        zpos = 0

        sched.setup(())
        if n_nodes == 0:
            m.makespan = trace.makespan
            m.wall_time_s = time.perf_counter() - wall_start
            return trace

        # The compiled core covers exactly the probe-free sweep-transform
        # configuration: the whole event loop runs in C over the flat
        # arrays, and only the lazy column trace crosses back.
        if sweep is not None and probe is None and _c_run is not None:
            return self._run_compiled(tf_kind, tf_a, tf_b, zs_arr, warmup_penalty, wall_start)
        if zs_arr is not None:
            zs = zs_arr.tolist()

        # Flat run state (lists: scalar indexing beats numpy in the loop).
        state = [NOT_INSERTED] * n_nodes
        deps_left = soa.n_preds.tolist()
        succ_ptr = soa.succ_indptr.tolist()
        succ_ids = soa.succ_indices.tolist()
        widths = soa.widths.tolist()
        preds_tuples = soa.preds_tuples
        worker_of = [-1] * n_nodes
        start_t = [0.0] * n_nodes
        end_t = [0.0] * n_nodes
        math_exp = math.exp
        isfinite = math.isfinite
        release = release_successors

        cal = CalendarQueue()
        cal_push = cal.push
        cal_pop = cal.pop
        q_push, q_pop = self._make_ready_queue()

        # Scheduler constants.
        master_is_worker = sched.master_is_worker
        window = sched.window
        insert_cost = sched.insert_cost
        dispatch_overhead = sched.dispatch_overhead
        completion_cost = sched.completion_cost
        all_narrow = soa.max_width == 1
        if soa.max_width > n_workers:
            # Same failure mode as the object engine's insert-time check,
            # surfaced with the first offending task.
            for tid in range(n_nodes):
                if widths[tid] > n_workers:
                    raise ValueError(
                        f"task {tid} (width {widths[tid]}) requires "
                        f"{widths[tid]} workers but the runtime has {n_workers}"
                    )

        # Clock, workers, counters — mirrors of the object engine's fields.
        now = 0.0
        running = [False] * n_workers
        n_running = 0
        idle = list(range(n_workers))
        next_insert = 0
        in_flight = 0
        n_done = 0
        insert_pending = False
        window_stalled = False
        master_free = 0.0
        master_debt = 0.0
        pending_wide = -1
        n_ready = 0
        heap_pushes = 0
        heap_pops = 0
        heap_size = 0
        peak_heap = 0
        peak_ready = 0
        events = 0
        insert_events = 0
        finish_events = 0
        window_stalls = 0
        dispatch_stalls = 0
        tasks_executed = 0
        trace_cols: List[Tuple[int, int, float, float]] = []

        def maybe_start_insertion() -> None:
            """Mirror of Engine._maybe_start_insertion on flat state."""
            nonlocal window_stalls, window_stalled, master_debt
            nonlocal insert_pending, master_free, heap_pushes, heap_size, peak_heap
            if next_insert >= n_nodes:
                return
            if in_flight >= window:
                if not window_stalled:
                    window_stalls += 1
                    window_stalled = True
                    if probe is not None:
                        probe.window_stall(now, True)
                return
            if window_stalled and probe is not None:
                probe.window_stall(now, False)
            window_stalled = False
            if insert_pending:
                return
            if master_is_worker:
                if running[0]:
                    return
                t_ins = now + master_debt + insert_cost
            else:
                avail = now if now >= master_free else master_free
                t_ins = avail + master_debt + insert_cost
                master_free = t_ins
            master_debt = 0.0
            insert_pending = True
            cal_push(t_ins, -1)
            heap_pushes += 1
            heap_size += 1
            if heap_size > peak_heap:
                peak_heap = heap_size

        def assign(tid: int, worker: int) -> None:
            """Mirror of Engine._assign: place ``tid`` on ``worker`` now."""
            nonlocal master_debt, n_running, tasks_executed, zpos
            nonlocal heap_pushes, heap_size, peak_heap
            if state[tid] != READY:
                raise RuntimeError(f"dispatching task {tid} in state {state[tid]}")
            state[tid] = RUNNING
            worker_of[tid] = worker
            start = now + dispatch_overhead
            if master_is_worker and worker == 0 and master_debt > 0.0:
                start += master_debt
                master_debt = 0.0
            w = widths[tid]
            if tf_kind is not None:
                k = kids[tid]
                kind = tf_kind[k]
                if kind == 0:
                    d = tf_a[k]
                elif kind == 1:
                    d = tf_a[k] + tf_b[k] * zs[zpos]
                    zpos += 1
                    if d < 1e-9:
                        d = 1e-9
                else:
                    d = math_exp(tf_a[k] + tf_b[k] * zs[zpos])
                    zpos += 1
                    if d < 1e-9:
                        d = 1e-9
                if have_warmup and not warmed[worker]:
                    warmed[worker] = True
                    d += warmup_penalty
            else:
                view.spec = specs[tid]
                d = backend_duration(view, worker, start, n_running + w)
            if d < 0.0 or not isfinite(d):
                raise ValueError(f"backend produced invalid duration {d!r} for task {tid}")
            start_t[tid] = start
            end = start + d
            end_t[tid] = end
            if w == 1:
                running[worker] = True
                idle.remove(worker)
            else:
                for ww in range(worker, worker + w):
                    running[ww] = True
                    idle.remove(ww)
            n_running += w
            tasks_executed += 1
            if probe is not None:
                probe.task_dispatched(now, tid, worker, start, w)
            trace_cols.append((worker, tid, start, end))
            cal_push(end, tid)
            heap_pushes += 1
            heap_size += 1
            if heap_size > peak_heap:
                peak_heap = heap_size

        def gang_start(width: int) -> int:
            """Mirror of Engine._gang_start: lowest eligible contiguous run."""
            if master_is_worker:
                master_ok = not insert_pending and (
                    next_insert >= n_nodes or in_flight >= window
                )
            else:
                master_ok = True
            run_start = -1
            run_len = 0
            prev = -2
            for worker in idle:
                if running[worker] or (worker == 0 and not master_ok):
                    prev = -2
                    continue
                if worker == prev + 1 and run_len > 0:
                    run_len += 1
                else:
                    run_start, run_len = worker, 1
                if run_len == width:
                    return run_start
                prev = worker
            return -1

        def dispatch_sweep() -> None:
            """Mirror of Engine._dispatch_sweep on flat state."""
            nonlocal pending_wide, n_ready, dispatch_stalls
            while idle:
                if pending_wide >= 0:
                    # Head-of-line blocking for the gang at the queue front.
                    start = gang_start(widths[pending_wide])
                    if start < 0:
                        dispatch_stalls += 1
                        return
                    wide, pending_wide = pending_wide, -1
                    assign(wide, start)
                    continue
                if n_ready == 0:
                    return
                master_blocked = master_is_worker and (
                    insert_pending or (next_insert < n_nodes and in_flight < window)
                )
                progress = False
                for worker in list(idle):
                    if running[worker] or (master_blocked and worker == 0):
                        continue
                    tid = q_pop(worker)
                    if tid < 0:
                        if n_ready == 0:
                            return
                        continue
                    n_ready -= 1
                    if not all_narrow and widths[tid] > 1:
                        pending_wide = tid
                        progress = True
                        break
                    assign(tid, worker)
                    progress = True
                    if n_ready == 0:
                        return
                if not progress:
                    dispatch_stalls += 1
                    break

        maybe_start_insertion()

        while cal.size:
            t, payload = cal_pop()
            heap_pops += 1
            heap_size -= 1
            events += 1
            if t < now - 1e-12:
                raise RuntimeError(f"event time went backwards: {t} < {now}")
            if t > now:
                now = t
            if payload < 0:
                # INSERT: the master commits the next task in stream order.
                insert_events += 1
                insert_pending = False
                tid = next_insert
                next_insert += 1
                in_flight += 1
                outstanding = deps_left[tid]
                if probe is not None:
                    probe.task_deps(tid, preds_tuples[tid])
                    probe.task_inserted(now, tid, outstanding)
                if outstanding == 0:
                    state[tid] = READY
                    n_ready += 1
                    if n_ready > peak_ready:
                        peak_ready = n_ready
                    q_push(tid, -1)
                    if probe is not None:
                        probe.task_ready(now, tid)
                else:
                    state[tid] = WAITING
            else:
                # FINISH: free the task's workers, release its successors.
                finish_events += 1
                tid = payload
                worker = worker_of[tid]
                state[tid] = DONE
                w = widths[tid]
                if w == 1:
                    running[worker] = False
                    insort(idle, worker)
                else:
                    for ww in range(worker, worker + w):
                        running[ww] = False
                        insort(idle, ww)
                n_running -= w
                in_flight -= 1
                n_done += 1
                master_debt += completion_cost
                if probe is not None:
                    probe.task_finished(now, tid, worker, w)
                lo = succ_ptr[tid]
                hi = succ_ptr[tid + 1]
                if lo != hi:
                    for s in release(succ_ids, deps_left, state, lo, hi):
                        n_ready += 1
                        if n_ready > peak_ready:
                            peak_ready = n_ready
                        q_push(s, worker)
                        if probe is not None:
                            probe.task_ready(now, s)
            maybe_start_insertion()
            if probe is None:
                dispatch_sweep()
            else:
                before = tasks_executed
                dispatch_sweep()
                probe.dispatch_sweep(now, tasks_executed - before, n_ready)

        if n_done != n_nodes:
            stuck = [tid for tid in range(n_nodes) if state[tid] != DONE]
            raise RuntimeError(
                f"simulation ended with {len(stuck)} unfinished task(s): {stuck[:10]}"
            )

        # Hand the dispatch-order columns to a lazy trace: event objects are
        # only built if something actually reads them.
        if trace_cols:
            col_workers, col_tids, col_starts, col_ends = zip(*trace_cols)
        else:
            col_workers = col_tids = col_starts = col_ends = ()
        trace = ColumnTrace(
            n_workers=n_workers,
            meta=trace.meta,
            col_workers=col_workers,
            col_task_ids=col_tids,
            col_starts=col_starts,
            col_ends=col_ends,
            kernel_names=soa.kernel_names,
            kernel_ids=kids,
            labels=soa.labels,
            widths=widths,
        )
        self.trace = trace

        m.events_processed = events
        m.insert_events = insert_events
        m.finish_events = finish_events
        m.heap_pushes = heap_pushes
        m.heap_pops = heap_pops
        m.peak_heap_depth = peak_heap
        m.window_stalls = window_stalls
        m.dispatch_stalls = dispatch_stalls
        m.tasks_executed = tasks_executed
        m.peak_ready_depth = peak_ready
        m.makespan = trace.makespan
        m.wall_time_s = time.perf_counter() - wall_start
        return trace

    # -- compiled fast path -------------------------------------------------
    def _queue_layout(self) -> Tuple[int, int]:
        """``(queue_kind, bounce_enabled)`` codes for the C core.

        Queue kinds: 0 FIFO, 1 priority (FIFO tie-break), 2 LIFO — the
        same three structures :meth:`_make_ready_queue` builds in Python.
        """
        sched = self.sched
        kind = type(sched)
        if kind is QuarkScheduler:
            return (1 if sched.queue_kind == "priority" else 2), 0
        if kind is StarPUScheduler:
            return (0 if sched.policy == "eager" else 1), 0
        # OmpSs: central fifo/priority queue, optional bounce slots.
        qk = 0 if sched.queue_kind == "fifo" else 1
        return qk, (1 if sched.immediate_successor else 0)

    def _run_compiled(
        self,
        tf_kind: List[int],
        tf_a: List[float],
        tf_b: List[float],
        zs: np.ndarray,
        warmup_penalty: float,
        wall_start: float,
    ) -> Trace:
        """Run the whole serialized loop inside the C core."""
        m = self.metrics
        soa = self.soa
        sched = self.sched
        n = soa.n_tasks
        n_workers = self.n_workers
        if soa.max_width > n_workers:
            widths = soa.widths
            for tid in range(n):
                if widths[tid] > n_workers:
                    raise ValueError(
                        f"task {tid} (width {int(widths[tid])}) requires "
                        f"{int(widths[tid])} workers but the runtime has "
                        f"{n_workers}"
                    )
        qk, bounce = self._queue_layout()
        deps = soa.n_preds.copy()
        out_worker = np.empty(n, dtype=np.int32)
        out_tid = np.empty(n, dtype=np.int32)
        out_start = np.empty(n, dtype=np.float64)
        out_end = np.empty(n, dtype=np.float64)
        counters = np.zeros(N_COUNTERS, dtype=np.int64)
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
            np.asarray(tf_kind, dtype=np.int32),
            np.asarray(tf_a, dtype=np.float64),
            np.asarray(tf_b, dtype=np.float64),
            zs,
            float(warmup_penalty),
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
