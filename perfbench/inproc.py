"""The in-process workloads: one caller, ``run_cached`` then ``load_trace``.

``inproc-newseed`` sends a spec with an unseen seed every time (the miss
and write path); ``inproc-hit`` cycles through specs published during
set-up (the read path).  The request time is ``run_cached(spec, cache)``
plus ``RunResult.load_trace()``; verification runs after it, off the clock.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.runner import runner as runner_mod
from repro.runner.cache import ResultCache
from repro.runner.runner import execute_spec

import checks
import hostspeed
import layers
import workloads


@dataclass
class Setup:
    """What one set-up produced, and how long each part took."""

    cache: ResultCache
    root: str
    seconds: float
    real_makespans: Dict[str, List[float]]  # accuracy program -> makespans
    real_run_s: List[float]
    references: Dict[str, str]


@dataclass
class Outcome:
    """One measured window.  Latencies and the window are scaled to the
    reference host speed (:mod:`hostspeed`); ``raw_window_s`` is not."""

    latencies: List[float] = field(default_factory=list)  # seconds, untraced requests
    traced_latencies: List[float] = field(default_factory=list)
    tasks: int = 0  # simulated tasks in verified responses
    trace_bytes: int = 0  # trace text delivered by verified responses
    attempted: int = 0
    failed: int = 0
    sim_makespans: Dict[str, List[float]] = field(default_factory=dict)
    request_roots: List[layers.Span] = field(default_factory=list)
    window_s: float = 0.0
    raw_window_s: float = 0.0
    probes: List[float] = field(default_factory=list)


def accuracy_program(spec) -> str:
    return f"{spec.program.algorithm}-{spec.program.nt}-{spec.scheduler.name}"


def real_runs(specs, real_s: List[float]) -> Dict[str, List[float]]:
    """Machine-model makespans of each accuracy program (``REAL_SEEDS``)."""
    out: Dict[str, List[float]] = {}
    for s in specs:
        key = accuracy_program(s)
        if key in out:
            continue
        out[key] = []
        for seed in workloads.REAL_SEEDS:
            t0 = time.perf_counter()
            trace, _ = execute_spec(workloads.real_spec(s, seed))
            real_s.append(time.perf_counter() - t0)
            out[key].append(trace.makespan)
    return out


def setup(seq: workloads.Sequence, scratch: str) -> Setup:
    """Fresh cache, calibration (and hit pool) published, real runs and
    reference digests computed."""
    t0 = time.perf_counter()
    root = tempfile.mkdtemp(prefix="cache-", dir=scratch)
    cache = ResultCache(root)
    first = seq.spec(0)
    runner_mod.run_cached(first.calibration_spec(), cache)
    if seq.name == "inproc-hit":
        for spec in seq.hit_pool():
            runner_mod.run_cached(spec, cache)
    real_s: List[float] = []
    real = real_runs([seq.spec(i) for i in seq.accuracy_indices], real_s)
    refs = checks.reference_digests([seq.spec(i) for i in seq.reference_indices])
    return Setup(cache, root, time.perf_counter() - t0, real, real_s, refs)


def discard(s: Setup) -> None:
    shutil.rmtree(s.root, ignore_errors=True)


def measure(seq: workloads.Sequence, st: Setup, verifier: checks.Verifier,
            seconds: float, start: int = 0,
            recorder: Optional[layers.SpanRecorder] = None) -> Outcome:
    """Closed loop until ``seconds`` of request time have passed (and at
    least every reference and accuracy request has been sent).  With a
    ``recorder``, every other request is traced, so traced and untraced
    requests share the host's conditions.  The host-speed probe runs
    between requests; each request is scaled by the probes nearest to it."""
    out = Outcome()
    must_reach = max((*seq.reference_indices, *seq.accuracy_indices), default=0) + 1
    want_cached = seq.name == "inproc-hit"
    i = start
    timed = []  # (request time, probe before it, list it belongs to)
    out.probes.append(hostspeed.probe())
    while out.raw_window_s < seconds or i < must_reach:
        # The previous request's result and the garbage of its verification
        # are the benchmark's: free them off the clock.
        result = trace = text = None
        gc.collect()
        spec = seq.spec(i)
        out.attempted += 1
        reason = None
        root = recorder.root("bench.request", index=i) if recorder and i % 2 else None
        t0 = time.perf_counter()
        try:
            if root is not None:
                with root:
                    result = runner_mod.run_cached(spec, st.cache)
                    trace = result.load_trace()
            else:
                result = runner_mod.run_cached(spec, st.cache)
                trace = result.load_trace()
        except Exception as exc:  # a failed request is counted, not fatal
            reason = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        out.raw_window_s += latency
        if reason is None:
            if result.cached != want_cached:
                reason = f"cached={result.cached}, expected {want_cached}"
            else:
                text = result.trace_dump()
                reason = verifier.check(spec, text, trace)
        out.probes.append(hostspeed.probe())
        bucket = None
        if reason is not None:
            out.failed += 1
            verifier.fail(i, reason)
        else:
            out.tasks += len(trace)
            out.trace_bytes += len(text)
            if i in seq.accuracy_indices:
                out.sim_makespans.setdefault(accuracy_program(spec), []).append(trace.makespan)
            if root is not None:
                bucket = out.traced_latencies
                out.request_roots.append(root.span)
            else:
                bucket = out.latencies
        timed.append((latency, len(out.probes) - 2, bucket))
        i += 1
    for latency, before, bucket in timed:
        latency *= hostspeed.factor(out.probes, before)
        out.window_s += latency
        if bucket is not None:
            bucket.append(latency)
    if seq.name == "inproc-newseed":
        # Hit/miss identity: the reference specs again, now served from the
        # cache, must return the bytes their miss returned.
        for j in seq.reference_indices:
            spec = seq.spec(j)
            out.attempted += 1
            result = runner_mod.run_cached(spec, st.cache)
            if not result.cached:
                out.failed += 1
                verifier.fail(j, "repeat of a published spec missed the cache")
            else:
                reason = verifier.check(spec, result.trace_dump())
                if reason is not None:
                    out.failed += 1
                    verifier.fail(j, f"on the hit: {reason}")
    return out
