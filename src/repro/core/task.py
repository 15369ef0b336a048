"""Task and data model for superscalar task streams.

The unit of work handed to a superscalar scheduler is a :class:`TaskSpec`: a
named kernel plus a tuple of :class:`Access` records, each tying a
:class:`DataRef` (a tile or other memory region) to an :class:`AccessMode`.
Tasks are submitted *serially*; schedulers derive all parallelism from the
read/write annotations by analysing Read-after-Write, Write-after-Read, and
Write-after-Write hazards exactly as the paper's Section IV-A describes.

A :class:`Program` is an ordered serial task stream together with the registry
of data it touches and bookkeeping metadata (algorithm name, problem size,
total flop count).  Algorithm generators in :mod:`repro.algorithms` produce
``Program`` objects; schedulers, the machine model, and the simulator all
consume them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "AccessMode",
    "DataRef",
    "Access",
    "TaskSpec",
    "DataRegistry",
    "Program",
    "READ",
    "WRITE",
    "RW",
]


class AccessMode(Enum):
    """How a task uses one of its data parameters.

    ``READ``/``WRITE``/``RW`` participate in hazard analysis; ``VALUE`` marks
    by-value parameters (scalars such as a tile size) that create no
    dependences, mirroring QUARK's ``VALUE`` flag.
    """

    READ = "r"
    WRITE = "w"
    RW = "rw"
    VALUE = "v"

    def __init__(self, code: str) -> None:
        # Plain attributes, not properties: hazard analysis consults these
        # once per access per task, and a property call builds a tuple each
        # time.  ``rw_flags`` bundles both for single-lookup unpacking.
        self.reads: bool = code in ("r", "rw")
        self.writes: bool = code in ("w", "rw")
        self.rw_flags: Tuple[bool, bool] = (self.reads, self.writes)


#: Convenience aliases so task generators read like the paper's pseudocode
#: (``geqrt(A[k][k].rw, T[k][k].w)``).
READ = AccessMode.READ
WRITE = AccessMode.WRITE
RW = AccessMode.RW


@dataclass(frozen=True, slots=True)
class DataRef:
    """A handle to a region of (virtual) memory, typically one matrix tile.

    ``addr`` is a synthetic, unique base address assigned by the
    :class:`DataRegistry`; schedulers key their hazard tables on it the same
    way the real runtimes key on pointer values.  ``key`` is a structured,
    human-meaningful identity such as ``("A", 2, 3)`` used to map the ref back
    onto a NumPy tile during numeric execution.
    """

    name: str
    addr: int
    size: int
    key: Tuple[Any, ...] = ()

    # Python 3.10 restores slot state with setattr, which a frozen dataclass
    # rejects; 3.11+ generates equivalent hooks itself.
    def __getstate__(self):
        return tuple(getattr(self, f) for f in self.__slots__)

    def __setstate__(self, state) -> None:
        for f, v in zip(self.__slots__, state):
            object.__setattr__(self, f, v)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataRef({self.name}@0x{self.addr:x},{self.size}B)"

    def read(self) -> "Access":
        return Access(self, AccessMode.READ)

    def write(self) -> "Access":
        return Access(self, AccessMode.WRITE)

    def rw(self) -> "Access":
        return Access(self, AccessMode.RW)


@dataclass(frozen=True, slots=True)
class Access:
    """One data parameter of a task: a :class:`DataRef` plus its usage mode."""

    ref: DataRef
    mode: AccessMode

    def __getstate__(self):
        return (self.ref, self.mode)

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "ref", state[0])
        object.__setattr__(self, "mode", state[1])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.ref.name}^{self.mode.value}"


@dataclass(slots=True)
class TaskSpec:
    """One task in a serial superscalar task stream.

    Attributes
    ----------
    task_id:
        Position in the serial stream (assigned by :class:`Program`).
    kernel:
        Kernel class name, e.g. ``"DGEMM"`` or ``"DTSMQR"``.  Timing models
        and numeric implementations are looked up by this name.
    accesses:
        The data parameters with their read/write annotations.
    flops:
        Floating-point operation count of the kernel instance; used for
        GFLOP/s reporting and critical-path weighting.
    priority:
        Larger runs earlier among simultaneously-ready tasks under
        priority-aware queue disciplines (QUARK ``TASK_PRIORITY``).
    params:
        By-value parameters forwarded to the numeric kernel (e.g. tile
        coordinates).  They never create dependences.
    label:
        Optional human-readable tag used in traces and DAG exports.
    width:
        Number of cores the task occupies (multi-threaded tasks — the
        QUARK feature listed as the paper's §VII future work).  The engine
        reserves ``width`` workers for the task's whole duration.
    """

    kernel: str
    accesses: Tuple[Access, ...]
    flops: float = 0.0
    priority: int = 0
    params: Dict[str, Any] = field(default_factory=dict)
    label: str = ""
    width: int = 1
    task_id: int = -1

    def __post_init__(self) -> None:
        self.accesses = tuple(self.accesses)
        for acc in self.accesses:
            if not isinstance(acc, Access):
                raise TypeError(f"accesses must be Access instances, got {acc!r}")
        if self.flops < 0:
            raise ValueError("flops must be non-negative")
        if self.width < 1:
            raise ValueError("width must be at least 1")

    @property
    def reads(self) -> Tuple[DataRef, ...]:
        """Refs this task reads (``READ`` or ``RW``)."""
        return tuple(a.ref for a in self.accesses if a.mode.reads)

    @property
    def writes(self) -> Tuple[DataRef, ...]:
        """Refs this task writes (``WRITE`` or ``RW``)."""
        return tuple(a.ref for a in self.accesses if a.mode.writes)

    @property
    def footprint_bytes(self) -> int:
        """Total bytes touched, counting each distinct ref once."""
        return sum(ref.size for ref in {a.ref for a in self.accesses})

    def describe(self) -> str:
        """Render the task the way Fig. 2 of the paper lists them."""
        args = ", ".join(f"{a.ref.name}^{a.mode.value}" for a in self.accesses)
        return f"{self.kernel.lower()}({args})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskSpec(#{self.task_id} {self.describe()})"


class DataRegistry:
    """Allocates :class:`DataRef` handles with unique synthetic addresses.

    Addresses are handed out from a monotonically increasing bump allocator so
    distinct refs never alias, mimicking distinct heap allocations in the real
    runtimes.  Registering the same ``key`` twice returns the original ref,
    which is what lets independent loop nests in an algorithm generator refer
    to the same tile.
    """

    def __init__(self, base_addr: int = 0x10_0000) -> None:
        self._next_addr = base_addr
        self._by_key: Dict[Tuple[Any, ...], DataRef] = {}

    def alloc(self, name: str, size: int, key: Optional[Tuple[Any, ...]] = None) -> DataRef:
        """Return the ref for ``key``, allocating it on first use."""
        if size <= 0:
            raise ValueError("size must be positive")
        key = key if key is not None else (name,)
        existing = self._by_key.get(key)
        if existing is not None:
            if existing.size != size:
                raise ValueError(
                    f"ref {key!r} re-registered with size {size} != {existing.size}"
                )
            return existing
        ref = DataRef(name=name, addr=self._next_addr, size=size, key=key)
        # Pad to a cache line so synthetic addresses never share lines.
        self._next_addr += (size + 63) & ~63
        self._by_key[key] = ref
        return ref

    def get(self, key: Tuple[Any, ...]) -> DataRef:
        return self._by_key[key]

    def __contains__(self, key: Tuple[Any, ...]) -> bool:
        return key in self._by_key

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self) -> Iterator[DataRef]:
        return iter(self._by_key.values())

    @property
    def total_bytes(self) -> int:
        return sum(ref.size for ref in self)


class Program:
    """An ordered, serial superscalar task stream plus its data registry.

    The insertion order is semantically significant: hazard analysis of the
    serial order defines the DAG.  ``Program`` is append-only; iterating it
    yields tasks in submission order.  :meth:`seal` ends the appending: a
    sealed program is shared between callers (see
    :meth:`repro.runner.spec.ProgramSpec.build`), so :meth:`add` raises.
    """

    def __init__(
        self,
        name: str,
        registry: Optional[DataRegistry] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.registry = registry if registry is not None else DataRegistry()
        self.meta: Dict[str, Any] = dict(meta or {})
        self._tasks: List[TaskSpec] = []
        self.sealed = False

    def seal(self) -> "Program":
        """Forbid further :meth:`add` calls; returns ``self``."""
        self.sealed = True
        return self

    def add(self, task: TaskSpec) -> TaskSpec:
        """Append ``task`` to the stream, assigning its serial ``task_id``."""
        if self.sealed:
            raise RuntimeError(f"program {self.name!r} is sealed; it takes no more tasks")
        if task.task_id != -1:
            raise ValueError(f"task already belongs to a program: {task!r}")
        task.task_id = len(self._tasks)
        self._tasks.append(task)
        return task

    def add_task(
        self,
        kernel: str,
        accesses: Iterable[Access],
        *,
        flops: float = 0.0,
        priority: int = 0,
        label: str = "",
        **params: Any,
    ) -> TaskSpec:
        """Convenience builder: create, append, and return a task."""
        spec = TaskSpec(
            kernel=kernel,
            accesses=tuple(accesses),
            flops=flops,
            priority=priority,
            label=label,
            params=params,
        )
        return self.add(spec)

    @property
    def tasks(self) -> Sequence[TaskSpec]:
        return tuple(self._tasks)

    @property
    def total_flops(self) -> float:
        return sum(t.flops for t in self._tasks)

    def kernel_counts(self) -> Dict[str, int]:
        """Histogram of kernel names, e.g. ``{"DGEMM": 120, ...}``."""
        counts: Dict[str, int] = {}
        for t in self._tasks:
            counts[t.kernel] = counts.get(t.kernel, 0) + 1
        return counts

    def kernels(self) -> Tuple[str, ...]:
        """Distinct kernel names in first-appearance order."""
        seen: Dict[str, None] = {}
        for t in self._tasks:
            seen.setdefault(t.kernel, None)
        return tuple(seen)

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[TaskSpec]:
        return iter(self._tasks)

    def __getitem__(self, idx: int) -> TaskSpec:
        return self._tasks[idx]

    def describe(self, limit: Optional[int] = None) -> str:
        """Multi-line rendering in the style of the paper's Fig. 2 listing."""
        rows = []
        stream = self._tasks if limit is None else self._tasks[:limit]
        for t in stream:
            rows.append(f"F{t.task_id} {t.describe()}")
        if limit is not None and len(self._tasks) > limit:
            rows.append(f"... ({len(self._tasks) - limit} more)")
        return "\n".join(rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Program({self.name!r}, {len(self)} tasks, {len(self.registry)} refs)"


def renumber(tasks: Iterable[TaskSpec]) -> List[TaskSpec]:
    """Return ``tasks`` with fresh consecutive ids (for program slicing)."""
    out: List[TaskSpec] = []
    counter = itertools.count()
    for t in tasks:
        clone = TaskSpec(
            kernel=t.kernel,
            accesses=t.accesses,
            flops=t.flops,
            priority=t.priority,
            params=dict(t.params),
            label=t.label,
        )
        clone.task_id = next(counter)
        out.append(clone)
    return out
