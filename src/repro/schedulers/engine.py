"""Deterministic discrete-event engine driving a superscalar runtime.

The engine models the *runtime itself* — serial task insertion with its
per-task cost, window throttling, hazard analysis, dependence release, and
dispatch — while the policy decisions live in the scheduler object and the
kernel durations live in the backend.  Time is virtual (double-precision
seconds, paper §V: "the clock is stored as a double precision floating point
number").

Event order is deterministic: the heap is keyed by ``(time, sequence)`` and
idle workers are offered work in increasing id order, so a run is a pure
function of ``(program, scheduler, backend, seed)``.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.metrics import RunMetrics
from ..core.task import Program
from ..obs.probe import Probe, active_probe
from ..trace.events import Trace
from .base import Backend, SchedulerBase, TaskNode, TaskState
from .taskdep import HazardTracker

__all__ = ["Engine"]

_INSERT = 0
_FINISH = 1


class Engine:
    """One run of ``program`` on ``scheduler`` with durations from ``backend``."""

    def __init__(
        self,
        scheduler: SchedulerBase,
        program: Program,
        backend: Backend,
        *,
        seed: int = 0,
        trace_meta: Optional[Dict[str, object]] = None,
        metrics: Optional[RunMetrics] = None,
        probe: Optional[Probe] = None,
    ) -> None:
        self.sched = scheduler
        self.program = program
        self.backend = backend
        self.seed = seed
        self.n_workers = scheduler.n_workers
        self.metrics = metrics if metrics is not None else RunMetrics()
        # Observation hooks: ``None`` unless an *enabled* probe was supplied,
        # so every hook site below costs one attribute check by default.
        self.probe = active_probe(probe)

        meta = {
            "scheduler": scheduler.name,
            "backend": type(backend).__name__,
            "program": program.name,
            "seed": seed,
            "n_workers": self.n_workers,
        }
        meta.update(trace_meta or {})
        self.trace = Trace(self.n_workers, meta=meta)

        # -- run state -----------------------------------------------------
        self.nodes: List[TaskNode] = [TaskNode(spec) for spec in program]
        self._n_nodes = len(self.nodes)
        # The engine only consumes the dependence *structure*; skipping the
        # per-edge Dependence records saves an allocation per hazard.
        self.tracker = HazardTracker(record_edges=False, probe=self.probe)
        self.now = 0.0
        self._heap: List[Tuple[float, int, int, int]] = []  # (t, seq, kind, node_idx)
        self._seq = itertools.count()
        self._running: Dict[int, TaskNode] = {}  # worker -> node
        self._idle: List[int] = list(range(self.n_workers))  # sorted invariant
        self._next_insert = 0
        self._in_flight = 0
        self._insert_pending = False  # an INSERT event is on the heap
        self._window_stalled = False  # currently inside one window-stall episode
        self._master_free = 0.0  # dedicated-master timeline
        self._master_debt = 0.0  # accrued per-completion bookkeeping cost
        # Multi-threaded task waiting for a contiguous block of idle workers
        # (head-of-line: nothing else dispatches while one is pending, so
        # wide tasks cannot be starved by streams of narrow ones).
        self._pending_wide: Optional[TaskNode] = None
        self._done = 0
        self._n_ready = 0  # tasks pushed to the policy queue, not yet popped

    # -- helpers -------------------------------------------------------------
    def _push(self, t: float, kind: int, node_idx: int = -1) -> None:
        heap = self._heap
        heapq.heappush(heap, (t, next(self._seq), kind, node_idx))
        m = self.metrics
        m.heap_pushes += 1
        if len(heap) > m.peak_heap_depth:
            m.peak_heap_depth = len(heap)

    def _mark_ready(self) -> None:
        self._n_ready += 1
        if self._n_ready > self.metrics.peak_ready_depth:
            self.metrics.peak_ready_depth = self._n_ready

    def _master_idle(self) -> bool:
        """Can the master start an insertion right now?"""
        if self._insert_pending:
            return False
        if self.sched.master_is_worker:
            return 0 not in self._running
        return True

    def _master_available_at(self) -> float:
        if self.sched.master_is_worker:
            return self.now  # worker 0 is idle (checked by _master_idle)
        return max(self.now, self._master_free)

    def _maybe_start_insertion(self) -> None:
        """Begin inserting the next task if the window and master allow it.

        ``window_stalls`` counts *episodes*: one increment per contiguous
        period in which insertion is blocked by a full window, however many
        times this poll runs inside it.  Counting every poll made the
        metric scale with event traffic instead of with actual throttling.
        """
        if self._next_insert >= self._n_nodes:
            return
        if self._in_flight >= self.sched.window:
            if not self._window_stalled:
                self.metrics.window_stalls += 1
                self._window_stalled = True
                if self.probe is not None:
                    self.probe.window_stall(self.now, True)
            return
        if self._window_stalled and self.probe is not None:
            self.probe.window_stall(self.now, False)
        self._window_stalled = False
        if not self._master_idle():
            return
        # Outstanding completion bookkeeping is paid before the next insert.
        t = self._master_available_at() + self._master_debt + self.sched.insert_cost
        self._master_debt = 0.0
        self._insert_pending = True
        if not self.sched.master_is_worker:
            self._master_free = t
        self._push(t, _INSERT)

    # -- event handlers --------------------------------------------------------
    def _handle_insert(self) -> None:
        self._insert_pending = False
        node = self.nodes[self._next_insert]
        self._next_insert += 1
        self._in_flight += 1
        if node.spec.width > self.n_workers:
            raise ValueError(
                f"task {node!r} requires {node.spec.width} workers but the "
                f"runtime has {self.n_workers}"
            )

        self.tracker.add_task(node.spec)
        preds = self.tracker.predecessors_view(node.task_id)
        outstanding = 0
        for pid in preds:
            pred = self.nodes[pid]
            if pred.state is not TaskState.DONE:
                pred.successors.append(node)
                outstanding += 1
        node.n_deps = outstanding
        node.state = TaskState.WAITING
        if self.probe is not None:
            self.probe.task_inserted(self.now, node.task_id, outstanding)
        if outstanding == 0:
            node.state = TaskState.READY
            node.ready_time = self.now
            self._mark_ready()
            self.sched.push_ready(node, None)
            if self.probe is not None:
                self.probe.task_ready(self.now, node.task_id)

        self._maybe_start_insertion()
        self._dispatch()

    def _handle_finish(self, node_idx: int) -> None:
        node = self.nodes[node_idx]
        worker = node.worker
        node.state = TaskState.DONE
        for w in range(worker, worker + node.spec.width):
            self._running.pop(w, None)
            bisect.insort(self._idle, w)
        self._in_flight -= 1
        self._done += 1
        self._master_debt += self.sched.completion_cost

        self.sched.on_finish(node, worker, node.end_time - node.start_time)
        if self.probe is not None:
            self.probe.task_finished(self.now, node.task_id, worker, node.spec.width)

        for succ in node.successors:
            succ.n_deps -= 1
            if succ.n_deps == 0 and succ.state is TaskState.WAITING:
                succ.state = TaskState.READY
                succ.ready_time = self.now
                self._mark_ready()
                self.sched.push_ready(succ, worker)
                if self.probe is not None:
                    self.probe.task_ready(self.now, succ.task_id)

        self._maybe_start_insertion()
        self._dispatch()

    def _worker_eligible(self, worker: int) -> bool:
        if worker in self._running:
            return False
        if self.sched.master_is_worker and worker == 0:
            # The master only executes tasks once insertion is finished or
            # stalled on a full window (QUARK behaviour).
            inserting = self._insert_pending
            more_to_insert = self._next_insert < self._n_nodes
            window_full = self._in_flight >= self.sched.window
            if inserting:
                return False
            if more_to_insert and not window_full:
                return False
        return True

    def _gang_start(self, width: int) -> Optional[int]:
        """Lowest start of a contiguous block of ``width`` eligible idle
        workers, or ``None``."""
        run_start, run_len = -1, 0
        prev = -2
        for worker in self._idle:
            if not self._worker_eligible(worker):
                prev = -2
                continue
            if worker == prev + 1 and run_len > 0:
                run_len += 1
            else:
                run_start, run_len = worker, 1
            if run_len == width:
                return run_start
            prev = worker
        return None

    def _try_place_wide(self) -> bool:
        """Place the pending multi-threaded task if a gang is free."""
        node = self._pending_wide
        assert node is not None
        start = self._gang_start(node.spec.width)
        if start is None:
            return False
        self._pending_wide = None
        self._assign(node, start)
        return True

    def _dispatch(self) -> None:
        """Offer work to idle workers until nothing more can be placed."""
        if self.probe is None:
            self._dispatch_sweep()
            return
        # Instrumented path: report the sweep as one span (how many tasks it
        # placed and whether work was left queued) without touching the
        # sweep logic itself.
        before = self.metrics.tasks_executed
        self._dispatch_sweep()
        self.probe.dispatch_sweep(
            self.now, self.metrics.tasks_executed - before, self._n_ready
        )

    def _dispatch_sweep(self) -> None:
        sched = self.sched
        while self._idle:
            if self._pending_wide is not None:
                # Head-of-line: the wide task must be placed first.
                if not self._try_place_wide():
                    self.metrics.dispatch_stalls += 1
                    return
                continue
            if not sched.has_ready():
                return
            # Master eligibility is loop-invariant across one sweep: it
            # depends only on insertion state, which dispatch never changes.
            master_blocked = sched.master_is_worker and (
                self._insert_pending
                or (
                    self._next_insert < self._n_nodes
                    and self._in_flight < sched.window
                )
            )
            progress = False
            running = self._running
            for worker in list(self._idle):
                if worker in running or (master_blocked and worker == 0):
                    continue
                node = sched.pop_ready(worker, self.now)
                if node is not None:
                    self._n_ready -= 1
                if node is None:
                    if not sched.has_ready():
                        # The sweep drained the queue: every remaining poll
                        # would be a no-op (pop_ready never consumes on a
                        # None return, so an empty queue stays empty).
                        return
                    continue
                if node.spec.width > 1:
                    self._pending_wide = node
                    progress = True
                    break  # restart the loop to place it head-of-line
                self._assign(node, worker)
                progress = True
                if not sched.has_ready():
                    return
            if not progress:
                self.metrics.dispatch_stalls += 1
                break

    def _assign(self, node: TaskNode, worker: int) -> None:
        if node.state is not TaskState.READY:
            raise RuntimeError(f"dispatching non-ready task {node!r}")
        node.state = TaskState.RUNNING
        node.worker = worker
        start = self.now + self.sched.dispatch_overhead
        if self.sched.master_is_worker and worker == 0 and self._master_debt > 0.0:
            # The master clears its bookkeeping backlog before computing.
            start += self._master_debt
            self._master_debt = 0.0
        active = len(self._running) + node.spec.width
        duration = self.backend.duration(node, worker, start, active)
        if duration < 0 or not math.isfinite(duration):
            raise ValueError(f"backend produced invalid duration {duration!r} for {node!r}")
        node.start_time = start
        node.end_time = start + duration
        for w in range(worker, worker + node.spec.width):
            self._running[w] = node
            self._idle.remove(w)
        self.metrics.tasks_executed += 1
        if self.probe is not None:
            self.probe.task_dispatched(
                self.now, node.task_id, worker, start, node.spec.width
            )
        self.trace.record(
            worker=worker,
            task_id=node.task_id,
            kernel=node.kernel,
            start=start,
            end=node.end_time,
            label=node.spec.label,
            width=node.spec.width,
        )
        self._push(node.end_time, _FINISH, node.task_id)

    # -- event loop --------------------------------------------------------------
    def _run_serialized(self) -> None:
        """The single-queue loop — the byte-identity reference path."""
        m = self.metrics
        heap = self._heap
        heappop = heapq.heappop
        handle_insert = self._handle_insert
        handle_finish = self._handle_finish
        while heap:
            t, _, kind, node_idx = heappop(heap)
            m.heap_pops += 1
            m.events_processed += 1
            if t < self.now - 1e-12:
                raise RuntimeError("event time went backwards — engine bug")
            if t > self.now:
                self.now = t
            if kind == _INSERT:
                m.insert_events += 1
                handle_insert()
            else:
                m.finish_events += 1
                handle_finish(node_idx)

    # -- main loop ---------------------------------------------------------------
    def run(self) -> Trace:
        wall_start = time.perf_counter()
        m = self.metrics
        m.n_tasks = len(self.nodes)
        m.n_workers = self.n_workers
        rng = np.random.default_rng(self.seed)
        self.backend.reset(rng, self.n_workers)
        self.sched.setup(self.nodes)

        if not self.nodes:
            m.wall_time_s = time.perf_counter() - wall_start
            return self.trace

        self._maybe_start_insertion()
        self._run_serialized()

        m.makespan = self.trace.makespan
        m.wall_time_s = time.perf_counter() - wall_start
        if self._done != len(self.nodes):
            stuck = [n for n in self.nodes if n.state is not TaskState.DONE]
            raise RuntimeError(
                f"run ended with {len(stuck)} unfinished tasks "
                f"(first: {stuck[0]!r}) — scheduler dropped work"
            )
        return self.trace
