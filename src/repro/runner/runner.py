"""The parallel sweep runner: fan runs out over processes, cache results.

The execution unit is one :class:`~repro.runner.spec.RunSpec`.  The runner
offers three levels of service:

* :func:`execute_spec` — build and run one spec in-process (simulated specs
  transparently obtain their calibration trace, through the cache when one
  is available);
* :func:`run_cached` — cache-aware execution: return the cached result when
  the spec's content key is present, execute-and-publish otherwise;
* :func:`sweep` — run many specs, optionally across ``multiprocessing``
  workers, and aggregate the per-run :class:`RunMetrics` plus cache-hit
  accounting into a :class:`SweepResult`.

Traces stay byte-identical whichever path produced them: a run is a pure
function of its spec, the plain-text trace format round-trips floats via
``repr``, and wall-clock observability lives in the metrics JSON, never in
the trace.  Parallel workers therefore compose with the cache for free —
whichever process publishes a key first wins, and every reader sees the
same bytes.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.metrics import RunMetrics
from ..core.simbackend import SimulationBackend
from ..kernels.timing import KernelModelSet
from ..machine import MachineBackend, collect_samples, get_machine
from ..trace.events import Trace
from ..trace.textio import dumps_trace, loads_trace
from .cache import CachedRun, ResultCache
from .spec import ProgramSpec, RunSpec

__all__ = ["RunResult", "SweepResult", "execute_spec", "run_cached", "run_observed", "sweep"]


def execute_spec(
    spec: RunSpec, cache: Optional[ResultCache] = None, *, probe=None
) -> Tuple[Trace, RunMetrics]:
    """Run ``spec`` in this process and return its trace and metrics.

    For simulated specs the calibration run goes through :func:`run_cached`
    with the same ``cache``, so repeated sweeps (and the many simulated
    points sharing one calibration recipe) pay for the calibration trace
    once.  ``probe`` (see :mod:`repro.obs.probe`) observes the main run —
    never the calibration run, whose stream would otherwise pollute it.
    """
    program = spec.program.build()
    machine = get_machine(spec.machine)
    metrics = RunMetrics()

    if spec.mode == "real":
        backend = MachineBackend(machine)
        trace_meta: Dict[str, object] = {"mode": "real"}
        models = None
    else:
        if spec.calibration is not None:
            # A pre-fitted repro.calib/v1 document replaces the in-line
            # calibration recipe: no calibration run, cached or otherwise.
            from ..calib.document import load_calibration

            models = load_calibration(spec.calibration).to_model_set()
        else:
            cal = run_cached(spec.calibration_spec(), cache)
            samples = collect_samples(
                cal.load_trace(), drop_first_per_worker=spec.cal_drop_first
            )
            if not samples:
                raise ValueError("calibration run produced no samples (empty program?)")
            models = KernelModelSet.from_samples(
                samples, family=spec.family, trim_warmup=spec.cal_trim
            )
        backend = SimulationBackend(
            models, warmup_penalty=machine.warmup_penalty if spec.warmup else 0.0
        )
        trace_meta = {"mode": "simulated"}

    if spec.runtime == "threaded":
        # Replay on real worker threads (§V-D protocol) under the spec's
        # race guard, supervised by the spec's stall watchdog.
        from ..core.threaded import ThreadedRuntime

        runtime = ThreadedRuntime(
            spec.scheduler.n_workers,
            mode="simulate",
            guard=spec.guard if spec.guard is not None else "quiesce",
            window=spec.scheduler.window if spec.scheduler.window is not None else 4096,
            stall=spec.stall_policy(),
        )
        trace = runtime.run(
            program, models=models, seed=spec.seed, metrics=metrics, probe=probe
        )
    else:
        trace = spec.scheduler.build().run(
            program, backend, seed=spec.seed, trace_meta=trace_meta,
            metrics=metrics, probe=probe, engine_backend=spec.engine_backend,
        )
    metrics.extra.update(
        {
            "algorithm": spec.program.algorithm,
            "nt": spec.program.nt,
            "nb": spec.program.nb,
            "scheduler": spec.scheduler.name,
            "machine": spec.machine,
            "seed": spec.seed,
            "mode": spec.mode,
            "runtime": spec.runtime,
        }
    )
    return trace, metrics


@dataclass
class RunResult:
    """Outcome of one spec through the runner.

    ``cached`` says whether the result came out of the cache.  ``wall_s`` is
    the time this invocation spent obtaining the result (near zero on a
    hit).  ``trace_text`` carries the serialised trace: on a hit, the bytes
    the cache verified against the entry's digest, so what is served is
    what was checked.  ``trace_path`` points at the cache entry, if any;
    :meth:`load_trace` reads it only when no text is carried.
    """

    spec: RunSpec
    key: str
    cached: bool
    metrics: RunMetrics
    wall_s: float
    trace_path: Optional[str] = None
    trace_text: Optional[str] = None

    def trace_dump(self) -> str:
        """The serialised plain-text trace (byte-comparable across runs)."""
        if self.trace_text is not None:
            return self.trace_text
        if self.trace_path is not None:
            return Path(self.trace_path).read_text()
        raise RuntimeError("result carries no trace")

    def load_trace(self) -> Trace:
        return loads_trace(self.trace_dump())


def run_cached(
    spec: RunSpec, cache: Optional[ResultCache] = None, *, probe=None
) -> RunResult:
    """Return the cached result for ``spec``, executing and publishing on miss.

    With ``cache=None`` the spec always executes and the trace travels
    in-memory with the result.  An enabled ``probe`` forces execution (a
    cached trace carries no scheduler-internal event stream to replay) but
    still publishes the result, so later unobserved runs hit the cache.
    """
    t0 = time.perf_counter()
    key = spec.cache_key()
    observing = probe is not None and getattr(probe, "enabled", True)
    if cache is not None and not observing:
        hit = cache.get(key)
        if hit is not None:
            return RunResult(
                spec=spec,
                key=key,
                cached=True,
                metrics=hit.load_metrics(),
                wall_s=time.perf_counter() - t0,
                trace_path=str(hit.trace_path),
                trace_text=hit.trace_text,
            )
    trace, metrics = execute_spec(spec, cache, probe=probe)
    if cache is not None:
        entry: CachedRun = cache.put(key, trace, metrics, spec.to_dict())
        return RunResult(
            spec=spec,
            key=key,
            cached=False,
            metrics=metrics,
            wall_s=time.perf_counter() - t0,
            trace_path=str(entry.trace_path),
            trace_text=entry.trace_text,
        )
    return RunResult(
        spec=spec,
        key=key,
        cached=False,
        metrics=metrics,
        wall_s=time.perf_counter() - t0,
        trace_text=dumps_trace(trace),
    )


def run_observed(
    spec: RunSpec,
    cache: Optional[ResultCache] = None,
    probe_dir: Union[str, Path, None] = None,
    *,
    prefix: Optional[str] = None,
) -> RunResult:
    """One spec, optionally with a recording probe + timeline artifact export.

    With ``probe_dir`` set, the run executes under a fresh
    :class:`~repro.obs.probe.RecordingProbe` and its timeline artifact set
    (Perfetto JSON, counter series, wait attribution, metrics) lands in
    ``probe_dir`` under ``prefix`` (default: the run's cache-key prefix —
    one artifact family per distinct spec, stable across re-runs).  Observed
    runs always execute (a cached trace carries no probe stream to replay)
    but still publish to ``cache``, so the next unobserved run hits.  This
    is the execution path shared by the sweep workers and the serving layer.
    """
    if probe_dir is None:
        return run_cached(spec, cache)
    from ..obs.probe import RecordingProbe
    from ..obs.timeline import export_timeline

    probe = RecordingProbe()
    result = run_cached(spec, cache, probe=probe)
    export_timeline(
        str(probe_dir),
        result.load_trace(),
        probe,
        metrics=result.metrics,
        prefix=prefix if prefix is not None else result.key[:16],
    )
    return result


def _sweep_worker(payload: Tuple[RunSpec, Optional[str], Optional[str]]) -> RunResult:
    """Pool entry point: one spec against the shared on-disk cache."""
    spec, cache_dir, probe_dir = payload
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return run_observed(spec, cache, probe_dir)


@dataclass
class SweepResult:
    """Aggregate outcome of one :func:`sweep` invocation."""

    results: List[RunResult]
    wall_s: float
    jobs: int
    cache_dir: Optional[str] = None
    #: sweep-level schema tag for the exported metrics document
    schema: str = field(default="repro.sweep_metrics/v1", repr=False)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for r in self.results if not r.cached)

    def metrics_document(self) -> Dict[str, Any]:
        """The combined metrics JSON document (the CI benchmark artifact)."""
        return {
            "schema": self.schema,
            "jobs": self.jobs,
            "wall_s": self.wall_s,
            "n_runs": len(self.results),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_dir": self.cache_dir,
            "runs": [
                {
                    "key": r.key,
                    "spec": r.spec.to_dict(),
                    "cached": r.cached,
                    "wall_s": r.wall_s,
                    "metrics": r.metrics.to_dict(),
                }
                for r in self.results
            ],
        }

    def write_metrics(self, path: Union[str, Path]) -> Path:
        import json

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.metrics_document(), sort_keys=True, indent=2, default=str)
            + "\n"
        )
        return path

    def summary(self) -> str:
        return (
            f"{len(self.results)} runs in {self.wall_s:.2f}s "
            f"(jobs={self.jobs}, cache: {self.cache_hits} hits, "
            f"{self.cache_misses} misses)"
        )


def sweep(
    specs: Sequence[RunSpec],
    *,
    jobs: int = 1,
    cache: Union[ResultCache, str, Path, None] = None,
    ephemeral_cache: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    probe_dir: Union[str, Path, None] = None,
) -> SweepResult:
    """Run every spec, fanning out over ``jobs`` worker processes.

    ``cache`` may be a :class:`ResultCache`, a directory path, or ``None``.
    With ``cache=None`` and ``ephemeral_cache=True`` (the default) the sweep
    still shares results *within* itself through a temporary cache — so the
    simulated points of one sweep reuse each other's calibration runs — and
    deletes it afterwards, returning traces in-memory.  Pass an explicit
    cache (or directory) to persist results across sweeps; see
    :func:`~repro.runner.cache.default_cache_dir` for the conventional
    location.

    ``probe_dir``, when given, attaches a recording probe to every run and
    writes each run's timeline artifact set there (named by cache-key
    prefix); observed runs always execute — the cache cannot replay a probe
    stream — but still publish, so the artifacts and the cache stay in sync.

    Results come back in spec order regardless of completion order.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    t0 = time.perf_counter()
    if probe_dir is not None:
        probe_dir = str(probe_dir)

    tmp_root: Optional[str] = None
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)
    if cache is None and ephemeral_cache and specs:
        tmp_root = tempfile.mkdtemp(prefix="repro-sweep-")
        cache = ResultCache(tmp_root)
    cache_dir = str(cache.root) if cache is not None else None

    try:
        n_jobs = max(1, min(jobs, len(specs)))
        if n_jobs == 1:
            results = []
            for i, spec in enumerate(specs):
                r = run_observed(spec, cache, probe_dir)
                results.append(r)
                if progress is not None:
                    progress(
                        f"[{i + 1}/{len(specs)}] "
                        f"{'hit ' if r.cached else 'run '} {_describe(spec)} "
                        f"({r.wall_s:.2f}s)"
                    )
        else:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
            if ctx.get_start_method() == "fork":
                # Forked workers inherit this process's program and digest
                # memos: build and hash each program once here, not once
                # per worker.
                for program in _programs_of(specs):
                    program.content_digest()
            payloads = [(spec, cache_dir, probe_dir) for spec in specs]
            with ctx.Pool(processes=n_jobs) as pool:
                results = []
                for i, r in enumerate(pool.imap(_sweep_worker, payloads)):
                    results.append(r)
                    if progress is not None:
                        progress(
                            f"[{i + 1}/{len(specs)}] "
                            f"{'hit ' if r.cached else 'run '} {_describe(r.spec)} "
                            f"({r.wall_s:.2f}s)"
                        )
        if tmp_root is not None:
            # The backing store is about to vanish: pull traces in-memory.
            for r in results:
                r.trace_text = r.trace_dump()
                r.trace_path = None
            cache_dir = None
    finally:
        if tmp_root is not None:
            shutil.rmtree(tmp_root, ignore_errors=True)

    return SweepResult(
        results=results,
        wall_s=time.perf_counter() - t0,
        jobs=n_jobs if specs else jobs,
        cache_dir=cache_dir,
    )


def _programs_of(specs: Sequence[RunSpec]) -> List[ProgramSpec]:
    """The distinct programs the specs run, calibration programs included,
    in first-use order."""
    programs: Dict[ProgramSpec, None] = {}
    for spec in specs:
        if spec.mode == "simulated" and spec.calibration is None:
            programs.setdefault(spec.calibration_spec().program)
        programs.setdefault(spec.program)
    return list(programs)


def _describe(spec: RunSpec) -> str:
    return (
        f"{spec.program.algorithm} nt={spec.program.nt} "
        f"{spec.scheduler.name} seed={spec.seed} {spec.mode}"
    )
