"""Scheduler base class and the runtime task-node bookkeeping.

A *superscalar scheduler* here is an object that (1) accepts a serial task
stream, (2) performs its own hazard analysis via
:class:`~repro.schedulers.taskdep.HazardTracker`, and (3) makes dynamic
scheduling decisions through a small set of policy hooks that the
discrete-event :class:`~repro.schedulers.engine.Engine` invokes.  The three
concrete runtimes (:mod:`~repro.schedulers.quark`,
:mod:`~repro.schedulers.starpu`, :mod:`~repro.schedulers.ompss`) differ only
in those hooks and in their overhead constants — mirroring how the paper's
simulation library treats QUARK, StarPU, and OmpSs interchangeably.

Timing semantics shared by every runtime:

* **insertion** of each task occupies the *master* for ``insert_cost``
  seconds.  With ``master_is_worker`` (QUARK) the master is worker 0 and
  insertion competes with task execution on that core — the origin of the
  sparse core-0 row in the paper's Fig. 6.  Otherwise (StarPU, OmpSs) the
  master is a dedicated thread and workers only execute tasks.
* a **task window** bounds the number of inserted-but-unfinished tasks;
  insertion stalls when the window is full (QUARK's throttling behaviour).
* each dispatch adds ``dispatch_overhead`` seconds of scheduler bookkeeping
  before the kernel starts; the kernel duration itself comes from the
  pluggable backend (machine model or simulation model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Sequence

import numpy as np

from ..core.task import Program, TaskSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..core.metrics import RunMetrics
    from ..trace.events import Trace

__all__ = ["TaskState", "TaskNode", "Backend", "SchedulerBase"]


class TaskState(Enum):
    """Lifecycle of a task inside the runtime."""

    NOT_INSERTED = "not_inserted"
    WAITING = "waiting"  # inserted, dependences outstanding
    READY = "ready"  # all dependences satisfied, queued
    RUNNING = "running"
    DONE = "done"


@dataclass(slots=True)
class TaskNode:
    """Runtime bookkeeping wrapped around one :class:`TaskSpec`."""

    spec: TaskSpec
    n_deps: int = 0
    successors: List["TaskNode"] = field(default_factory=list)
    state: TaskState = TaskState.NOT_INSERTED
    ready_time: float = 0.0
    worker: int = -1
    start_time: float = 0.0
    end_time: float = 0.0

    @property
    def task_id(self) -> int:
        return self.spec.task_id

    @property
    def kernel(self) -> str:
        return self.spec.kernel

    @property
    def priority(self) -> int:
        return self.spec.priority

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskNode(#{self.task_id} {self.kernel} {self.state.value})"


class Backend(Protocol):
    """Source of task durations — the only thing that differs between a
    "real" run (machine model) and a simulated run (fitted kernel models)."""

    def reset(self, rng: np.random.Generator, n_workers: int) -> None:
        """Called once at the start of every run."""
        ...

    def duration(self, node: TaskNode, worker: int, now: float, active_workers: int) -> float:
        """Kernel execution time for ``node`` starting on ``worker`` at ``now``."""
        ...


class SchedulerBase:
    """Common machinery of the three superscalar runtimes.

    Subclasses must define the class attributes ``name``,
    ``master_is_worker``, and the default overhead constants, and implement
    the queue-discipline hooks :meth:`push_ready` / :meth:`pop_ready`.
    Optional hooks: :meth:`on_finish` (policy bookkeeping, e.g. perf-model
    updates or immediate-successor bypass).
    """

    #: human-readable runtime name
    name: str = "base"
    #: does the inserting master also execute tasks (QUARK) or not?
    master_is_worker: bool = False
    #: default per-task insertion cost (seconds)
    default_insert_cost: float = 2.0e-6
    #: default per-dispatch scheduler overhead (seconds)
    default_dispatch_overhead: float = 1.0e-6
    #: default per-completion master bookkeeping cost (seconds) — dependence
    #: release and window accounting performed by the master thread
    default_completion_cost: float = 0.0
    #: default task-window size (max in-flight tasks)
    default_window: int = 1024

    def __init__(
        self,
        n_workers: int,
        *,
        window: Optional[int] = None,
        insert_cost: Optional[float] = None,
        dispatch_overhead: Optional[float] = None,
        completion_cost: Optional[float] = None,
    ) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.n_workers = n_workers
        self.window = self.default_window if window is None else int(window)
        if self.window < 1:
            raise ValueError("window must be at least 1")
        self.insert_cost = (
            self.default_insert_cost if insert_cost is None else float(insert_cost)
        )
        self.dispatch_overhead = (
            self.default_dispatch_overhead
            if dispatch_overhead is None
            else float(dispatch_overhead)
        )
        self.completion_cost = (
            self.default_completion_cost
            if completion_cost is None
            else float(completion_cost)
        )
        if self.insert_cost < 0 or self.dispatch_overhead < 0 or self.completion_cost < 0:
            raise ValueError("overheads must be non-negative")

    # -- queue-discipline hooks (subclass responsibility) -------------------
    def setup(self, nodes: Sequence[TaskNode]) -> None:
        """Reset per-run policy state.  Called once before the run starts."""
        raise NotImplementedError

    def push_ready(self, node: TaskNode, releasing_worker: Optional[int]) -> None:
        """A task became ready.  ``releasing_worker`` is the worker whose
        task completion satisfied the last dependence (``None`` for tasks
        ready at insertion), which locality-aware policies use."""
        raise NotImplementedError

    def pop_ready(self, worker: int, now: float) -> Optional[TaskNode]:
        """Return the next task ``worker`` should run, or ``None``."""
        raise NotImplementedError

    def has_ready(self) -> bool:
        """Any task queued?  Used by the engine's idle-dispatch sweep."""
        raise NotImplementedError

    def on_finish(self, node: TaskNode, worker: int, duration: float) -> None:
        """Policy bookkeeping after a task completes (default: none)."""

    # -- running -------------------------------------------------------------
    def run(
        self,
        program: Program,
        backend: Backend,
        *,
        seed: int = 0,
        trace_meta: Optional[Dict[str, object]] = None,
        metrics: Optional["RunMetrics"] = None,
        probe: Optional[object] = None,
        engine_backend: Optional[str] = None,
    ) -> "Trace":
        """Execute ``program`` against ``backend`` and return the trace.

        Deterministic given ``seed``: all engine decisions are tie-broken
        deterministically and all randomness flows through one
        ``numpy`` generator handed to the backend.  ``metrics``, when given,
        collects the run's :class:`~repro.core.metrics.RunMetrics` counters.
        ``probe``, when given and enabled, receives the scheduler-internal
        event stream (see :mod:`repro.obs.probe`); probes observe only and
        never change the trace.  ``engine_backend`` selects the engine
        *implementation* — ``"object"`` (per-task-node event loop, the
        oracle) or ``"array"`` (the compiled SoA core of
        :mod:`repro.schedulers.array_engine`); ``None`` defers to
        :func:`repro.core.soa.default_engine_backend` (the
        ``REPRO_ENGINE_BACKEND`` environment variable).  A configuration
        the compiled core cannot replay — see
        :func:`~repro.schedulers.array_engine.array_backend_unsupported` —
        runs on the object engine, recording the reason under
        ``metrics.extra["engine_backend"]``.  Both backends produce the
        same trace.
        """
        from ..core.soa import ENGINE_BACKENDS, default_engine_backend

        if engine_backend is None:
            engine_backend = default_engine_backend()
        elif engine_backend not in ENGINE_BACKENDS:
            raise ValueError(
                f"unknown engine backend {engine_backend!r}; "
                f"expected one of {ENGINE_BACKENDS}"
            )
        if engine_backend == "array":
            from .array_engine import ArrayEngine, array_backend_unsupported

            reason = array_backend_unsupported(self, backend, probe)
            if reason is None:
                engine = ArrayEngine(
                    self,
                    program,
                    backend,
                    seed=seed,
                    trace_meta=trace_meta,
                    metrics=metrics,
                )
                if metrics is not None:
                    metrics.extra["engine_backend"] = {"requested": "array", "used": "array"}
                return engine.run()
            if metrics is not None:
                metrics.extra["engine_backend"] = {
                    "requested": "array",
                    "used": "object",
                    "fallback_reason": reason,
                }

        from .engine import Engine  # local import to avoid a cycle

        engine = Engine(
            self,
            program,
            backend,
            seed=seed,
            trace_meta=trace_meta,
            metrics=metrics,
            probe=probe,
        )
        return engine.run()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_workers={self.n_workers}, window={self.window})"
