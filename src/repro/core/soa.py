"""Structure-of-arrays program layout and engine-backend selection.

The object engine (:mod:`repro.schedulers.engine`) spends most of a run
churning per-task Python objects: ``TaskNode`` attribute access and
per-insert hazard analysis through
:class:`~repro.schedulers.taskdep.HazardTracker`.  This module provides the
flat data layer the array-native engine (:mod:`repro.schedulers.array_engine`)
hands to its compiled core — the ScaleSimulator approach of keeping
simulation state in contiguous arrays so the event loop touches integers
and floats, never objects.  :class:`SoAProgram` is a one-shot conversion of
a :class:`~repro.core.task.Program` into numpy arrays: per-task kernel ids,
priorities, widths, static dependency counts, and the successor graph in
CSR form.  The hazard pass (RaW/WaW/WaR over data addresses) runs once up
front instead of once per inserted task.

Backend selection plumbing also lives here: :data:`ENGINE_BACKENDS` and
:func:`default_engine_backend`, with the ``REPRO_ENGINE_BACKEND``
environment variable providing the process-wide default the CI array lane
uses to run the whole suite on the array core.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .task import Program

__all__ = ["ENGINE_BACKENDS", "default_engine_backend", "SoAProgram"]

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
    """

    __slots__ = (
        "n_tasks",
        "kernel_names",
        "kernel_ids",
        "priorities",
        "widths",
        "labels",
        "n_preds",
        "succ_indptr",
        "succ_indices",
        "max_width",
    )

    def __init__(self, program: "Program") -> None:
        specs = list(program)
        n = len(specs)
        self.n_tasks = n

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
        self.max_width = int(widths.max()) if n else 1

    @classmethod
    def for_program(cls, program: "Program") -> "SoAProgram":
        """Cached conversion of ``program``, rebuilt only when it grows.

        The flat arrays are immutable once built and programs are
        append-only (``task_id`` is assigned serially at :meth:`Program.add`
        time), so a previous conversion is reused whenever the task count
        still matches — which hoists the hazard pass out of repeated runs of
        the same program (benchmark repeats, parameter sweeps).
        """
        cached = getattr(program, "_soa_cache", None)
        if cached is not None and cached.n_tasks == len(program):
            return cached
        soa = cls(program)
        try:
            program._soa_cache = soa
        except AttributeError:  # pragma: no cover - slotted Program stand-ins
            pass
        return soa
