"""Declarative run specifications — the unit of work of the sweep runner.

A :class:`RunSpec` fully describes one engine run as plain data: which
program (algorithm generator plus parameters), which scheduler configuration,
which machine preset, which seed, and — for simulated runs — the calibration
recipe that produces the kernel timing models.  Being plain frozen
dataclasses of primitives, specs are hashable, picklable (so they travel to
``multiprocessing`` workers), and serialisable to JSON (so they are stored
next to cached results for provenance).

The cache identity of a spec is :meth:`RunSpec.cache_key`: a SHA-256 digest
over the spec's canonical JSON *plus a content digest of the generated task
stream*.  Hashing the stream content (kernel, data accesses, flops, width of
every task) means the cache invalidates itself when an algorithm generator
changes behaviour, not just when its parameters change.

Building and hashing a program does not depend on the seed or the
scheduler, so both happen once per process: :meth:`ProgramSpec.build`
hands out one shared, sealed :class:`~repro.core.task.Program` per spec
from a memo bounded by a fixed task budget, and
:meth:`ProgramSpec.content_digest` keeps its hex digests in a separate
small memo, so a key stays cheap after its program has been evicted.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, Optional

from ..algorithms import cholesky_program, lu_program, qr_program
from ..core.soa import ENGINE_BACKENDS
from ..core.task import Program
from ..core.watchdog import STALL_POLICIES, StallPolicy
from ..schedulers import make_scheduler
from ..schedulers.base import SchedulerBase

__all__ = ["ProgramSpec", "SchedulerSpec", "RunSpec", "CACHE_VERSION", "RUNTIMES"]

#: Bump to invalidate every cached result (engine semantics changed).
#: v2: window_stalls became episode-based and specs grew the threaded
#: runtime / race-guard fields.
CACHE_VERSION = 2

#: Execution engines a spec can target.
RUNTIMES = ("engine", "threaded")

_GENERATORS = {
    "cholesky": cholesky_program,
    "qr": qr_program,
    "lu": lu_program,
}

#: Tasks the process-wide program memo holds in total: about 20 MB at
#: ~620 bytes per task, two Cholesky nt=40 programs plus their calibration
#: programs.  Least recently used programs go first; the newest always
#: stays, whatever its size.  A count of entries would not bound memory:
#: eight Cholesky nt=100 programs take about 850 MB.
_PROGRAM_MEMO_TASKS = 32_768

#: Digests the digest memo holds (64 hex characters each).
_DIGEST_MEMO_SIZE = 4096


class _ProgramMemo:
    """Thread-safe LRU of built programs under a total task budget.

    Builds run one at a time under ``_build_lock`` and look the spec up
    again first, so concurrent first callers of a spec (shard worker
    threads) wait for one build instead of each running the generator.
    Lookups take only ``_lock``, so a hit never waits for a build; with
    the interpreter lock, parallel builds would gain nothing.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.tasks = 0
        self._programs: "OrderedDict[ProgramSpec, Program]" = OrderedDict()
        self._lock = threading.Lock()
        self._build_lock = threading.Lock()

    def _lookup(self, spec: "ProgramSpec") -> Optional[Program]:
        with self._lock:
            program = self._programs.get(spec)
            if program is not None:
                self._programs.move_to_end(spec)
            return program

    def get(self, spec: "ProgramSpec") -> Program:
        program = self._lookup(spec)
        if program is not None:
            return program
        with self._build_lock:
            program = self._lookup(spec)
            if program is not None:
                return program
            program = spec._generate().seal()
            with self._lock:
                self._programs[spec] = program
                self.tasks += len(program)
                while self.tasks > self.budget and len(self._programs) > 1:
                    _, old = self._programs.popitem(last=False)
                    self.tasks -= len(old)
            return program

    def __len__(self) -> int:
        return len(self._programs)

    def clear(self) -> None:
        with self._lock:
            self._programs.clear()
            self.tasks = 0


_PROGRAMS = _ProgramMemo(_PROGRAM_MEMO_TASKS)


def _known_fields(cls, data: Dict[str, Any], what: str) -> Dict[str, Any]:
    """Validate that ``data`` holds only fields of dataclass ``cls``.

    Spec documents arrive over the wire (the ``repro serve`` protocol) and
    from provenance files; an unknown key is far more likely a client typo
    (``"sheduler"``) than a forward-compat field, and silently dropping it
    would run a *different* spec than the caller asked for.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} document must be a JSON object, got {type(data).__name__}")
    known = set(cls.__dataclass_fields__)
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown {what} field(s) {unknown}; known fields: {sorted(known)}")
    return dict(data)


@dataclass(frozen=True)
class ProgramSpec:
    """Parameters of one algorithm-generated task stream."""

    algorithm: str  # cholesky | qr | lu
    nt: int  # tiles per matrix side
    nb: int  # tile order
    panel_width: int = 1

    def __post_init__(self) -> None:
        # Specs arrive from JSON, where ``200.0`` equals ``200`` and hashes
        # alike but generates a differently named program; the per-process
        # memos key on the spec, so only plain ints may reach them.
        for name in ("nt", "nb", "panel_width"):
            value = getattr(self, name)
            if type(value) is not int:
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.algorithm not in _GENERATORS:
            raise KeyError(
                f"unknown algorithm {self.algorithm!r}; choose from {sorted(_GENERATORS)}"
            )
        if self.nt < 1 or self.nb < 1:
            raise ValueError("nt and nb must be positive")
        if self.panel_width < 1:
            raise ValueError("panel_width must be at least 1")

    def build(self) -> Program:
        """The generated program, built once per process and shared.

        The result is sealed (``add`` raises) because every caller of the
        same spec gets the same object.
        """
        return _PROGRAMS.get(self)

    def _generate(self) -> Program:
        gen = _GENERATORS[self.algorithm]
        kwargs: Dict[str, Any] = {}
        if self.panel_width != 1:
            kwargs["panel_width"] = self.panel_width
        return gen(self.nt, self.nb, **kwargs)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProgramSpec":
        return cls(**_known_fields(cls, data, "ProgramSpec"))

    def content_digest(self) -> str:
        """SHA-256 over the generated stream's semantic content (memoized
        per process)."""
        return _program_digest(self)


@functools.lru_cache(maxsize=_DIGEST_MEMO_SIZE)
def _program_digest(spec: ProgramSpec) -> str:
    program = spec.build()
    h = hashlib.sha256()
    h.update(program.name.encode())
    for t in program:
        h.update(
            f"{t.task_id}|{t.kernel}|{t.describe()}|{t.flops!r}|"
            f"{t.priority}|{t.width}\n".encode()
        )
    return h.hexdigest()


@dataclass(frozen=True)
class SchedulerSpec:
    """Constructor arguments of one scheduler configuration."""

    name: str  # quark | starpu | ompss
    n_workers: int
    policy: Optional[str] = None  # StarPU only
    window: Optional[int] = None
    immediate_successor: Optional[bool] = None  # OmpSs only

    def build(self) -> SchedulerBase:
        kwargs: Dict[str, Any] = {}
        if self.policy is not None:
            kwargs["policy"] = self.policy
        if self.window is not None:
            kwargs["window"] = self.window
        if self.immediate_successor is not None:
            kwargs["immediate_successor"] = self.immediate_successor
        return make_scheduler(self.name, self.n_workers, **kwargs)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SchedulerSpec":
        return cls(**_known_fields(cls, data, "SchedulerSpec"))


@dataclass(frozen=True)
class RunSpec:
    """One cacheable engine run: program x scheduler x backend x seed.

    ``mode="real"`` runs against the machine-model backend; the calibration
    fields are ignored.  ``mode="simulated"`` first obtains a calibration
    trace (itself an ordinary cacheable *real* run of ``cal_scheduler`` on a
    ``cal_nt``-sized problem), fits the per-kernel timing models, and runs
    against the simulation backend.

    ``runtime="engine"`` (default) uses the deterministic discrete-event
    engine.  ``runtime="threaded"`` replays the spec on the *threaded*
    runtime (real worker threads, §V-D protocol) under race guard ``guard``
    and the stall watchdog configured by ``stall_timeout`` / ``on_stall``;
    it requires ``mode="simulated"``.  Threaded traces are representative,
    not byte-canonical: real thread interleaving decides RNG draw order, so
    only the engine's byte-identical caching contract applies to them
    loosely.  The watchdog settings never change a (successful) trace, so
    they are normalised out of the cache key; the guard can, so it stays in.
    """

    program: ProgramSpec
    scheduler: SchedulerSpec
    machine: str
    seed: int = 0
    mode: str = "real"  # real | simulated

    # -- execution runtime -------------------------------------------------
    runtime: str = "engine"  # engine | threaded
    guard: Optional[str] = None  # threaded only; default "quiesce"
    stall_timeout: Optional[float] = None  # threaded only; None = default budget
    on_stall: str = "raise"  # threaded only; raise | recover

    # -- calibration recipe (simulated mode only) --------------------------
    cal_nt: Optional[int] = None
    cal_seed: int = 0
    cal_scheduler: Optional[SchedulerSpec] = None  # default: ``scheduler``
    cal_drop_first: bool = True  # drop each worker's first task (warm-up)
    cal_trim: bool = True  # trim warm-up outliers during fitting
    family: str = "lognormal"
    warmup: bool = True  # apply the machine's warm-up penalty in sim

    #: Path to a ``repro.calib/v1`` document.  When set (simulated mode
    #: only), the fitted models in the document replace the in-line
    #: calibration recipe above — no calibration run happens and the
    #: ``cal_*``/``family`` fields become inert.  Cache identity uses the
    #: document's *content* digest, never the path; ``None`` is normalised
    #: out of the cache key so pre-existing caches survive.
    calibration: Optional[str] = None

    # -- engine implementation (engine runtime only) -----------------------
    #: object | array — the engine implementation (:mod:`repro.core.soa`).
    #: Both produce byte-identical traces, so ``object`` (the default) is
    #: normalised out of the cache key and pre-existing caches survive;
    #: ``array`` stays in because the recorded metrics (wall time, fallback
    #: provenance) differ.
    engine_backend: str = "object"

    def __post_init__(self) -> None:
        if self.mode not in ("real", "simulated"):
            raise ValueError(f"unknown mode {self.mode!r}; choose real/simulated")
        if self.calibration is not None and self.mode != "simulated":
            raise ValueError("calibration documents only apply to simulated runs")
        if self.cal_nt is not None and type(self.cal_nt) is not int:
            raise TypeError(f"cal_nt must be an int, got {self.cal_nt!r}")
        if self.mode == "simulated" and self.cal_nt is None and self.calibration is None:
            raise ValueError(
                "simulated runs need cal_nt (calibration problem size) "
                "or a calibration document"
            )
        if self.runtime not in RUNTIMES:
            raise ValueError(f"unknown runtime {self.runtime!r}; choose from {RUNTIMES}")
        if self.engine_backend not in ENGINE_BACKENDS:
            raise ValueError(
                f"unknown engine_backend {self.engine_backend!r}; "
                f"choose from {ENGINE_BACKENDS}"
            )
        if self.runtime == "threaded" and self.engine_backend != "object":
            raise ValueError(
                "the threaded runtime has no array-native event loop; "
                "engine_backend must stay 'object' with runtime='threaded'"
            )
        if self.runtime == "threaded":
            from ..core.threaded import RACE_GUARDS  # deferred: heavy module

            if self.mode != "simulated":
                raise ValueError("the threaded runtime replays simulated runs only")
            if self.guard is not None and self.guard not in RACE_GUARDS:
                raise ValueError(
                    f"unknown race guard {self.guard!r}; choose from {RACE_GUARDS}"
                )
            if self.stall_timeout is not None and self.stall_timeout <= 0.0:
                raise ValueError("stall_timeout must be positive")
            if self.on_stall not in STALL_POLICIES:
                raise ValueError(
                    f"unknown on_stall policy {self.on_stall!r}; "
                    f"choose from {STALL_POLICIES}"
                )

    def stall_policy(self) -> StallPolicy:
        """The watchdog configuration for a threaded replay of this spec."""
        if self.stall_timeout is None:
            return StallPolicy(on_stall=self.on_stall)
        return StallPolicy(timeout_s=self.stall_timeout, on_stall=self.on_stall)

    # -- derived specs -----------------------------------------------------
    def calibration_spec(self) -> "RunSpec":
        """The real run whose trace calibrates this simulated run."""
        if self.mode != "simulated":
            raise ValueError("only simulated runs have a calibration spec")
        if self.calibration is not None:
            raise ValueError(
                "this spec loads a calibration document; no calibration run exists"
            )
        return RunSpec(
            program=replace(self.program, nt=self.cal_nt),
            scheduler=self.cal_scheduler if self.cal_scheduler is not None else self.scheduler,
            machine=self.machine,
            seed=self.cal_seed,
            mode="real",
        )

    # -- identity ----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        """Rebuild a spec from its :meth:`to_dict` document.

        This is the wire format of the ``repro serve`` protocol and the
        ``spec.json`` provenance files: nested ``program`` / ``scheduler`` /
        ``cal_scheduler`` objects are reconstructed recursively, every
        field is validated by the dataclass ``__post_init__`` checks, and
        unknown keys raise ``ValueError`` instead of being dropped.

        The one exception is the retired ``engine_mode`` key: documents
        written while the engine had partitioned modes carry
        ``"engine_mode": "serialized"``, which is exactly today's single
        event loop, so it is accepted and dropped; any other value names a
        removed mode and raises.
        """
        if isinstance(data, dict) and "engine_mode" in data:
            data = dict(data)
            mode = data.pop("engine_mode")
            if mode != "serialized":
                raise ValueError(
                    f"engine_mode {mode!r} is no longer supported: the partitioned "
                    "engine modes were removed; drop the key or send 'serialized'"
                )
        fields = _known_fields(cls, data, "RunSpec")
        fields["program"] = ProgramSpec.from_dict(fields.get("program") or {})
        fields["scheduler"] = SchedulerSpec.from_dict(fields.get("scheduler") or {})
        if fields.get("cal_scheduler") is not None:
            fields["cal_scheduler"] = SchedulerSpec.from_dict(fields["cal_scheduler"])
        return cls(**fields)

    def cache_key(self) -> str:
        """Stable content-addressed identity of this run."""
        doc = self.to_dict()
        doc["cache_version"] = CACHE_VERSION
        doc["program_digest"] = self.program.content_digest()
        if self.mode == "simulated" and self.calibration is not None:
            # The document's content is the identity: the same fitted models
            # under a renamed/moved file hit the same cache entry, and a
            # refit document at the same path misses as it must.  The in-line
            # calibration recipe is inert here, so it drops out (``warmup``
            # stays — it still shapes the simulation).
            from ..calib.document import load_calibration  # deferred: keeps spec light

            doc["calibration"] = load_calibration(self.calibration).digest()
            for k in (
                "cal_nt", "cal_seed", "cal_scheduler", "cal_drop_first",
                "cal_trim", "family",
            ):
                doc.pop(k, None)
        elif self.mode == "simulated":
            cal = self.calibration_spec()
            doc["cal_program_digest"] = cal.program.content_digest()
        else:
            # Calibration fields are inert for real runs: normalise them out
            # so e.g. ``family`` never splits identical real runs.
            for k in (
                "cal_nt", "cal_seed", "cal_scheduler", "cal_drop_first",
                "cal_trim", "family", "warmup",
            ):
                doc.pop(k, None)
        # No document attached: normalise the field out entirely so every
        # pre-calibration cache key (and cache entry) stays valid.
        if self.calibration is None:
            doc.pop("calibration", None)
        # The stall watchdog never alters a successful trace, and the race
        # guard only matters on the threaded runtime: normalise both so
        # inert knobs never split identical runs.
        doc.pop("stall_timeout", None)
        doc.pop("on_stall", None)
        if self.runtime != "threaded":
            doc.pop("guard", None)
        # The default object backend drops out so existing caches stay
        # valid.
        if self.engine_backend == "object":
            doc.pop("engine_backend", None)
        canon = json.dumps(doc, sort_keys=True, default=str)
        return hashlib.sha256(canon.encode()).hexdigest()
