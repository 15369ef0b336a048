"""Structure-of-arrays program layout and the calendar event queue.

The object engine (:mod:`repro.schedulers.engine`) spends most of a run
churning per-task Python objects: ``TaskNode`` attribute access, per-insert
hazard analysis through :class:`~repro.schedulers.taskdep.HazardTracker`,
and a binary-heap event set.  This module provides the flat data layer the
array-native engine (:mod:`repro.schedulers.array_engine`) runs on — the
ScaleSimulator approach of keeping simulation state in contiguous arrays so
the event loop touches integers and floats, never objects:

* :class:`SoAProgram` — one-shot conversion of a
  :class:`~repro.core.task.Program` into numpy arrays: per-task kernel ids,
  priorities, widths, static dependency counts, and the successor graph in
  CSR form.  The hazard pass (RaW/WaW/WaR over data addresses) runs once up
  front instead of once per inserted task.
* :class:`CalendarQueue` — a bucketed event set (R. Brown, CACM 1988)
  keyed on ``(time, insertion sequence)``, replacing the binary heap.  Ties
  in time pop in FIFO push order, exactly like the object engine's
  ``(t, seq)`` heap entries, so event order — and therefore every trace —
  is preserved bit-for-bit.

Backend selection plumbing also lives here: :data:`ENGINE_BACKENDS` and
:func:`default_engine_backend`, with the ``REPRO_ENGINE_BACKEND``
environment variable providing the process-wide default the CI array lane
uses to run the whole suite on the array core.
"""

from __future__ import annotations

import os
from bisect import insort
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .task import Program, TaskSpec

__all__ = [
    "ENGINE_BACKENDS",
    "default_engine_backend",
    "CalendarQueue",
    "SoAProgram",
    "NOT_INSERTED",
    "WAITING",
    "READY",
    "RUNNING",
    "DONE",
]

#: The two event-engine cores, in documentation order.  ``object`` is the
#: classic per-task-object engine; ``array`` is the SoA core in
#: :mod:`repro.schedulers.array_engine`.
ENGINE_BACKENDS: Tuple[str, ...] = ("object", "array")

#: Environment override for the default engine backend (used by the CI
#: matrix to run the whole suite on the array core without touching every
#: call site).
_ENV_VAR = "REPRO_ENGINE_BACKEND"


def default_engine_backend() -> str:
    """``$REPRO_ENGINE_BACKEND`` if set (validated), else ``"object"``."""
    backend = os.environ.get(_ENV_VAR, "object")
    if backend not in ENGINE_BACKENDS:
        raise ValueError(
            f"{_ENV_VAR}={backend!r} is not a valid engine backend; "
            f"expected one of {ENGINE_BACKENDS}"
        )
    return backend


# Integer task states for the SoA engine.  Values are ordered like the
# object engine's TaskState lifecycle; NOT_INSERTED must stay 0 so a fresh
# zeroed state array means "nothing inserted yet".
NOT_INSERTED = 0
WAITING = 1
READY = 2
RUNNING = 3
DONE = 4


class CalendarQueue:
    """Bucketed future-event set ordered by ``(time, push sequence)``.

    Events hash into ``n_buckets`` buckets of ``bucket_width`` simulated
    seconds each (``bucket index = floor(t / width) mod n_buckets``); each
    bucket keeps its events sorted, so a pop scans at most one lap of the
    calendar starting at the bucket of the last popped time and falls back
    to a direct minimum search when the calendar is sparse.  The bucket
    count adapts to the population: the queue starts as a single bucket —
    one sorted list, the cheapest structure for the small event sets the
    engine produces (at most one pending insertion plus one completion per
    worker) — and spreads into a true multi-bucket calendar once more than
    ``grow_threshold`` events are pending, re-deriving the width from the
    occupied time span at every resize so pops stay O(1) amortised.

    Ties in time pop in FIFO push order via a monotonically increasing
    per-queue sequence number — the same discipline as the object engine's
    ``(t, seq)`` heap entries, which is what makes the array engine's event
    order (and traces) bit-identical.  Payloads are opaque integers.
    """

    __slots__ = (
        "_buckets",
        "_n_buckets",
        "_width",
        "_min_width",
        "_grow",
        "_size",
        "_seq",
        "_last_t",
    )

    def __init__(
        self,
        *,
        n_buckets: int = 1,
        bucket_width: float = 1e-5,
        min_bucket_width: float = 1e-12,
        grow_threshold: int = 64,
    ) -> None:
        if n_buckets < 1:
            raise ValueError("n_buckets must be at least 1")
        if bucket_width <= 0.0 or min_bucket_width <= 0.0:
            raise ValueError("bucket widths must be positive")
        if grow_threshold < 2:
            raise ValueError("grow_threshold must be at least 2")
        self._n_buckets = n_buckets
        self._width = max(bucket_width, min_bucket_width)
        self._min_width = min_bucket_width
        self._grow = grow_threshold
        self._buckets: List[List[Tuple[float, int, int]]] = [
            [] for _ in range(n_buckets)
        ]
        self._size = 0
        self._seq = 0
        self._last_t = 0.0

    def __len__(self) -> int:
        return self._size

    @property
    def size(self) -> int:
        return self._size

    @property
    def n_buckets(self) -> int:
        return self._n_buckets

    @property
    def bucket_width(self) -> float:
        return self._width

    def push(self, t: float, payload: int) -> None:
        """Insert an event; equal times pop in push order."""
        if t != t or t == float("inf") or t == float("-inf"):
            raise ValueError(f"event time must be finite, got {t!r}")
        entry = (t, self._seq, payload)
        self._seq += 1
        n = self._n_buckets
        if n == 1:
            insort(self._buckets[0], entry)
        else:
            insort(self._buckets[int(t / self._width) % n], entry)
        size = self._size + 1
        self._size = size
        # The pop scan starts at _last_t's bucket and relies on it lower-
        # bounding every pending event; a push into the past rewinds it.
        if t < self._last_t:
            self._last_t = t
        if size > self._grow and size > 2 * n:
            self._resize(max(2 * n, size))

    def pop(self) -> Tuple[float, int]:
        """Remove and return ``(t, payload)`` of the earliest event."""
        size = self._size
        if size == 0:
            raise IndexError("pop from an empty CalendarQueue")
        self._size = size - 1
        if self._n_buckets == 1:
            t, _seq, payload = self._buckets[0].pop(0)
            self._last_t = t
            return t, payload
        width = self._width
        n = self._n_buckets
        buckets = self._buckets
        start_day = int(self._last_t / width)
        best: Optional[Tuple[float, int, int]] = None
        best_bucket = -1
        for lap in range(n):
            day = start_day + lap
            bucket = buckets[day % n]
            if not bucket:
                continue
            head = bucket[0]
            # An event whose absolute day matches this bucket's position in
            # the current lap is guaranteed minimal: every earlier bucket on
            # this lap was empty and later days only hold later times.
            if int(head[0] / width) == day:
                best, best_bucket = head, day % n
                break
            if best is None or head < best:
                best, best_bucket = head, day % n
        if best is None:
            # No head fell inside the current lap's windows: direct minimum
            # search across bucket heads.
            for i, bucket in enumerate(buckets):
                if bucket and (best is None or bucket[0] < best):
                    best, best_bucket = bucket[0], i
        assert best is not None  # _size > 0 guarantees a head exists
        buckets[best_bucket].pop(0)
        self._last_t = best[0]
        if self._size < self._n_buckets // 2:
            self._resize(max(1, self._n_buckets // 2))
        return best[0], best[2]

    def front(self) -> Tuple[float, int]:
        """``(t, payload)`` of the earliest event without removing it."""
        if self._size == 0:
            raise IndexError("front of an empty CalendarQueue")
        best: Optional[Tuple[float, int, int]] = None
        for bucket in self._buckets:
            if bucket and (best is None or bucket[0] < best):
                best = bucket[0]
        assert best is not None
        return best[0], best[2]

    def snapshot(self) -> List[Tuple[float, int]]:
        """All pending events as ``(t, payload)`` in pop order."""
        merged = sorted(e for bucket in self._buckets for e in bucket)
        return [(t, payload) for t, _seq, payload in merged]

    def _resize(self, n_buckets: int) -> None:
        events = [e for bucket in self._buckets for e in bucket]
        if events:
            lo = min(e[0] for e in events)
            hi = max(e[0] for e in events)
            # Aim for ~1 event per bucket across the occupied span; clamp so
            # degenerate spans (all-equal times) never divide to zero.
            self._width = max((hi - lo) / max(1, len(events)), self._min_width)
        self._n_buckets = n_buckets
        buckets: List[List[Tuple[float, int, int]]] = [[] for _ in range(n_buckets)]
        width = self._width
        for entry in events:
            insort(buckets[int(entry[0] / width) % n_buckets], entry)
        self._buckets = buckets


class SoAProgram:
    """A :class:`~repro.core.task.Program` flattened into numpy arrays.

    The conversion runs the full hazard analysis (the same RaW/WaW/WaR
    rules as :class:`~repro.schedulers.taskdep.HazardTracker`, keyed on
    ``DataRef.addr``) once, ahead of simulation, producing:

    ``kernel_ids`` / ``kernel_names``
        Per-task kernel as an index into the unique-name table (first
        appearance order), so the hot loop compares ints, not strings.
    ``priorities`` / ``widths`` / ``labels``
        Scheduling inputs lifted out of ``TaskSpec``.
    ``n_preds``
        Static in-degree of each task — the total number of distinct
        predecessor tasks its accesses hazard against.
    ``succ_indptr`` / ``succ_indices``
        The successor graph in CSR form; ``succ_indices[indptr[i]:
        indptr[i+1]]`` lists task ``i``'s successors in ascending task id —
        the same order the object engine discovers them, because tasks are
        inserted (and therefore appended to predecessor lists) in id order.
    ``preds_tuples``
        Sorted predecessor tuples per task, built only when
        ``keep_preds=True`` (the array engine needs them to replay the
        ``task_deps`` probe hook byte-for-byte).
    """

    __slots__ = (
        "n_tasks",
        "specs",
        "kernel_names",
        "kernel_ids",
        "priorities",
        "widths",
        "labels",
        "n_preds",
        "succ_indptr",
        "succ_indices",
        "preds_tuples",
        "max_width",
    )

    def __init__(self, program: "Program", *, keep_preds: bool = False) -> None:
        specs: List["TaskSpec"] = list(program)
        n = len(specs)
        self.n_tasks = n
        self.specs = specs

        kernel_index: Dict[str, int] = {}
        kernel_ids = np.empty(n, dtype=np.int32)
        priorities = np.empty(n, dtype=np.int64)
        widths = np.empty(n, dtype=np.int32)
        labels: List[str] = []

        # Hazard state per data address, mirroring HazardTracker._RefState:
        # the last writer (or -1) and the readers since that write.
        last_writer: Dict[int, int] = {}
        readers: Dict[int, Set[int]] = {}
        n_preds = np.zeros(n, dtype=np.int64)
        succs: List[List[int]] = [[] for _ in range(n)]
        preds_tuples: Optional[List[Tuple[int, ...]]] = [() for _ in range(n)] if keep_preds else None

        for tid, spec in enumerate(specs):
            kid = kernel_index.setdefault(spec.kernel, len(kernel_index))
            kernel_ids[tid] = kid
            priorities[tid] = spec.priority
            widths[tid] = spec.width
            labels.append(spec.label)

            preds: Set[int] = set()
            accesses = spec.accesses
            # Pass 1: collect hazards against the pre-task state.
            for acc in accesses:
                reads, writes = acc.mode.rw_flags
                addr = acc.ref.addr
                lw = last_writer.get(addr, -1)
                if reads and lw >= 0 and lw != tid:
                    preds.add(lw)
                if writes:
                    if lw >= 0 and lw != tid:
                        preds.add(lw)
                    for r in readers.get(addr, ()):
                        if r != tid:
                            preds.add(r)
            # Pass 2: advance the state with this task's own accesses.
            for acc in accesses:
                reads, writes = acc.mode.rw_flags
                addr = acc.ref.addr
                if writes:
                    last_writer[addr] = tid
                    rd = readers.get(addr)
                    if rd is not None:
                        rd.clear()
                elif reads:
                    readers.setdefault(addr, set()).add(tid)
            n_preds[tid] = len(preds)
            for p in preds:
                succs[p].append(tid)
            if preds_tuples is not None:
                preds_tuples[tid] = tuple(sorted(preds))

        indptr = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum([len(s) for s in succs], out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        for tid, s in enumerate(succs):
            indices[indptr[tid] : indptr[tid + 1]] = s

        self.kernel_names: List[str] = list(kernel_index)
        self.kernel_ids = kernel_ids
        self.priorities = priorities
        self.widths = widths
        self.labels = labels
        self.n_preds = n_preds
        self.succ_indptr = indptr
        self.succ_indices = indices
        self.preds_tuples = preds_tuples
        self.max_width = int(widths.max()) if n else 1

    def initial_ready_mask(self) -> np.ndarray:
        """Boolean mask of tasks with no static predecessors."""
        return self.n_preds == 0

    @classmethod
    def for_program(cls, program: "Program", *, keep_preds: bool = False) -> "SoAProgram":
        """Cached conversion of ``program``, rebuilt only when it grows.

        The flat arrays are immutable once built and programs are
        append-only (``task_id`` is assigned serially at :meth:`Program.add`
        time), so a previous conversion is reused whenever the task count
        still matches — which hoists the hazard pass out of repeated runs of
        the same program (benchmark repeats, parameter sweeps).  A
        ``keep_preds=True`` build is a superset and satisfies later
        ``keep_preds=False`` requests.
        """
        cached = getattr(program, "_soa_cache", None)
        if (
            cached is not None
            and cached.n_tasks == len(program)
            and (not keep_preds or cached.preds_tuples is not None)
        ):
            return cached
        soa = cls(program, keep_preds=keep_preds)
        try:
            program._soa_cache = soa
        except AttributeError:  # pragma: no cover - slotted Program stand-ins
            pass
        return soa
