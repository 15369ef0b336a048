#!/usr/bin/env python3
"""Request-path benchmark: a RunSpec in, a verified trace plus RunMetrics out.

Run from the root of a checkout::

    python3 perfbench/run.py --workload inproc-newseed --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split from a run with timing shims installed (and writes its spans as a
Perfetto file).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list every metric by name with its unit, and the environment.
The full result, environment included, is also written under
``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
OUT_DIR = os.path.join(REPO, ".perfbench")
SETUP_REPEATS = 3
T = TypeVar("T")

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "requests_per_s": "1/s",
    "sim_tasks_per_s": "1/s",
    "makespan_error_pct": "%",
    "verified_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "runner.spec.cache_key.ms": "ms",
    "runner.spec.cache_key.total_ms": "ms",
    "runner.spec.cache_key.calls": "count",
    "algorithms.build.ms": "ms",
    "algorithms.build.calls": "count",
    "core.soa.lower.ms": "ms",
    "core.soa.lower.calls": "count",
    "machine.calibration.collect.ms": "ms",
    "kernels.timing.fit.ms": "ms",
    "schedulers.run.ms": "ms",
    "schedulers.events_per_s": "1/s",
    "trace.textio.encode.ms": "ms",
    "trace.textio.decode.ms": "ms",
    "trace.bytes": "bytes",
    "runner.cache.get.ms": "ms",
    "runner.cache.put.ms": "ms",
    "runner.cache.read.ms": "ms",
    "runner.cache.hit_ratio": "ratio",
    "runner.run_cached.ms": "ms",
    "runner.run_cached.self_ms": "ms",
    "machine.backend.real_run.ms": "ms",
    "service.shard.wall_ms": "ms",
    "service.shard.queue_wait_ms": "ms",
    "service.hop.ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.coalesced_ratio": "ratio",
    "service.retry_rate": "ratio",
    "service.response_bytes": "bytes",
    "bench.trace_overhead_pct": "%",
    "bench.unattributed_pct": "%",
    "host.probe_ms": "ms",
}


#: The per-layer self-time metrics that partition an in-process request.
SELF_MS = (
    "runner.spec.cache_key.ms",
    "algorithms.build.ms",
    "core.soa.lower.ms",
    "machine.calibration.collect.ms",
    "kernels.timing.fit.ms",
    "schedulers.run.ms",
    "trace.textio.encode.ms",
    "trace.textio.decode.ms",
    "runner.cache.get.ms",
    "runner.cache.put.ms",
    "runner.cache.read.ms",
    "runner.run_cached.self_ms",
)


def quantile(values: List[float], q: float) -> float:
    """Harrell–Davis estimate of the ``q`` quantile: a Beta-weighted mean of
    the order statistics, steadier on small samples than one order
    statistic."""
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def ensure_array_core() -> None:
    """Build the compiled array core before timing, as CI does; a build is
    skipped when the library is newer than its source."""
    src = os.path.join(REPO, "src", "repro", "schedulers", "_array_core.c")
    lib = os.path.join(os.path.dirname(src), "lib_array_core.so")
    if os.path.exists(lib) and os.path.getmtime(lib) >= os.path.getmtime(src):
        return
    subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "build_array_core.py"), "--if-possible"],
        cwd=REPO, stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=300,
    )


def environment(seed: int) -> Dict[str, object]:
    from repro.core.soa import default_engine_backend
    from repro.schedulers import _array_core
    from workloads import REFERENCE_SHAPE, sim_spec

    return {
        "array_core_loaded": _array_core.RUN_SERIALIZED is not None,
        "engine_backend": sim_spec(*REFERENCE_SHAPE, 0).engine_backend,
        "engine_backend_env": default_engine_backend(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
    }


def repeated_setups(make: Callable[[], T], drop: Callable[[T], None]) -> Tuple[T, List[float]]:
    """``SETUP_REPEATS`` set-ups, each dropped before the next one starts;
    the last one is returned with every set-up's time, scaled to the
    reference host speed by the probes nearest to it."""
    import hostspeed

    kept: Optional[T] = None
    raw: List[float] = []
    probes = [hostspeed.probe()]
    for _ in range(SETUP_REPEATS):
        if kept is not None:
            drop(kept)
        kept = make()
        raw.append(kept.seconds)
        probes.append(hostspeed.probe())
    return kept, [t * hostspeed.factor(probes, j) for j, t in enumerate(raw)]


def makespan_error_pct(sim: Dict[str, List[float]], real: Dict[str, List[float]]) -> float:
    """Mean over accuracy programs of |mean simulated - mean real| / mean real."""
    errs = []
    for prog, makespans in sorted(sim.items()):
        ref = statistics.fmean(real[prog])
        errs.append(abs(statistics.fmean(makespans) - ref) / ref * 100.0)
    return statistics.fmean(errs)


def ms(seconds: float) -> float:
    return seconds * 1000.0


def end_to_end(lat: List[float], window_s: float, tasks: int,
               sim: Dict[str, List[float]], real: Dict[str, List[float]],
               attempted: int, failed: int, rss_mb: float,
               setup_runs_s: List[float]) -> Tuple[Dict[str, float], dict]:
    """The end-to-end metrics of one window, and notes for the result file."""
    notes = {"setup_runs_s": setup_runs_s, "samples": len(lat),
             "latencies_ms": [round(ms(x), 3) for x in lat]}
    if not lat or len(sim) < len(real):  # nothing verified: correct is false
        return {k: 0.0 for k in END_TO_END_UNITS}, notes
    return {
        "latency_p50_ms": ms(quantile(lat, 0.5)),
        "latency_p90_ms": ms(quantile(lat, 0.9)),
        "requests_per_s": len(lat) / window_s,
        "sim_tasks_per_s": tasks / window_s,
        "makespan_error_pct": makespan_error_pct(sim, real),
        "verified_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup_runs_s),
    }, notes


def layer_metrics(totals: Dict[str, Dict[str, float]], n: int) -> Dict[str, float]:
    """Per-request layer metrics from :func:`layers.layer_totals`."""
    def get(layer: str, key: str) -> float:
        return totals.get(layer, {}).get(key, 0.0)

    per = lambda layer, key="self_s": get(layer, key) / n  # noqa: E731
    gets = get("runner.cache.get", "calls")
    sched_s = get("schedulers.run", "self_s")
    return {
        "runner.spec.cache_key.ms": ms(per("runner.spec.cache_key")),
        "runner.spec.cache_key.total_ms": ms(per("runner.spec.cache_key", "total_s")),
        "runner.spec.cache_key.calls": per("runner.spec.cache_key", "calls"),
        "algorithms.build.ms": ms(per("algorithms.build")),
        "algorithms.build.calls": per("algorithms.build", "calls"),
        "core.soa.lower.ms": ms(per("core.soa.lower")),
        "core.soa.lower.calls": per("core.soa.lower", "calls"),
        "machine.calibration.collect.ms": ms(per("machine.calibration.collect")),
        "kernels.timing.fit.ms": ms(per("kernels.timing.fit")),
        "schedulers.run.ms": ms(per("schedulers.run")),
        "schedulers.events_per_s": get("schedulers.run", "events") / sched_s if sched_s else 0.0,
        "trace.textio.encode.ms": ms(per("trace.textio.encode")),
        "trace.textio.decode.ms": ms(per("trace.textio.decode")),
        "runner.cache.get.ms": ms(per("runner.cache.get")),
        "runner.cache.put.ms": ms(per("runner.cache.put")),
        "runner.cache.read.ms": ms(per("runner.cache.read")),
        "runner.cache.hit_ratio": get("runner.cache.get", "hits") / gets if gets else 0.0,
        "runner.run_cached.ms": ms(per("runner.run_cached", "total_s")),
        "runner.run_cached.self_ms": ms(per("runner.run_cached")),
    }


# -- in-process ------------------------------------------------------------------

def run_inproc(name: str, seed: int, seconds: float, trace: bool, scratch: str) -> dict:
    import checks
    import inproc
    import layers
    import workloads

    seq = workloads.make_sequence(name, seed)
    verifier = checks.Verifier({}, workloads.task_counts([seq.spec(0)]))
    result: dict = {"metrics": {}, "notes": {}}
    if not trace:
        st, setup_runs_s = repeated_setups(lambda: inproc.setup(seq, scratch), inproc.discard)
        verifier.references = st.references
        out = inproc.measure(seq, st, verifier, seconds)
        inproc.discard(st)
        result["metrics"], result["notes"] = end_to_end(
            out.latencies, out.window_s, out.tasks, out.sim_makespans, st.real_makespans,
            out.attempted, out.failed,
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, setup_runs_s)
        result["notes"]["raw_window_s"] = out.raw_window_s
        result["notes"]["probe_ms"] = [round(ms(p), 4) for p in out.probes]
    else:
        recorder = layers.SpanRecorder()
        layers.install(recorder)
        try:
            st = inproc.setup(seq, scratch)
            verifier.references = st.references
            out = inproc.measure(seq, st, verifier, seconds, recorder=recorder)
        finally:
            layers.uninstall()
        inproc.discard(st)
        n = len(out.request_roots)
        if n == 0 or not out.latencies:  # nothing verified: correct is false
            result["metrics"] = {k: 0.0 for k in PER_LAYER_UNITS}
            result.update(attempted=out.attempted, failed=out.failed,
                          errors=verifier.errors or ["no traced request passed verification"],
                          span_docs=[])
            return result
        spans = layers.subtrees(recorder.spans, (r.span_id for r in out.request_roots))
        inner = [s for s in spans if s.parent_id != 0]
        m = layer_metrics(layers.layer_totals(inner), n)
        # The request span's own time (glue between the calls, shim
        # bookkeeping, a collection pause) is attributed to no layer: it
        # joins run_cached's residual, so the per-layer self times of the
        # table add up to the request time.
        selfs = layers.self_times(spans)
        root_self = [selfs[r.span_id] for r in out.request_roots]
        request_ms = ms(statistics.fmean(r.duration for r in out.request_roots))
        m["runner.run_cached.self_ms"] += ms(sum(root_self) / n)
        m.update({
            "trace.bytes": out.trace_bytes / (n + len(out.latencies)),
            "machine.backend.real_run.ms": ms(statistics.fmean(st.real_run_s)),
            "service.shard.wall_ms": 0.0,
            "service.shard.queue_wait_ms": 0.0,
            "service.hop.ms": 0.0,
            "service.cache_hit_ratio": 0.0,
            "service.coalesced_ratio": 0.0,
            "service.retry_rate": 0.0,
            "service.response_bytes": 0.0,
            "bench.trace_overhead_pct": overhead_pct(out.latencies, out.traced_latencies),
            "bench.unattributed_pct": 100.0 * sum(root_self) / sum(
                r.duration for r in out.request_roots),
            "host.probe_ms": ms(statistics.median(out.probes)),
        })
        result["metrics"] = m
        result["notes"]["samples"] = {"untraced": len(out.latencies), "traced": n}
        result["notes"]["traced_request_ms"] = request_ms
        result["span_docs"] = layers.span_documents(spans, "bench", recorder.epoch_offset)
        covered = sum(m[k] for k in SELF_MS)
        if min(selfs.values()) < -1e-6 or abs(covered - request_ms) > 1e-6 * request_ms:
            verifier.errors.append(
                f"layer self times add up to {covered:.3f} ms of a {request_ms:.3f} ms "
                "traced request (overlapping spans, or a layer missing from the table)")
    result["attempted"] = out.attempted
    result["failed"] = out.failed
    result["errors"] = verifier.errors
    return result


def overhead_pct(untraced: List[float], traced: List[float]) -> float:
    return (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0


# -- fleet -------------------------------------------------------------------------

def run_fleet(seed: int, seconds: float, trace: bool, scratch: str) -> dict:
    import checks
    import fleetctl
    import inproc
    import layers
    import workloads

    seq = workloads.make_sequence("fleet-mix", seed)
    counts = workloads.task_counts(workloads.all_fleet_programs())
    result: dict = {"metrics": {}, "notes": {}}
    runs = []  # (setup, outcome, verifier)
    started = []  # every fleet this run started, stopped in the finally
    try:
        if not trace:
            def make():
                st = fleetctl.setup(seq, REPO, scratch, traced=False)
                started.append(st.fleet)
                return st

            st, setup_runs_s = repeated_setups(make, lambda st: fleetctl.stop(st.fleet))
            verifier = checks.Verifier(st.references, counts)
            out = fleetctl.measure(seq, st.fleet, seconds)
            rss = st.fleet.peak_rss_mb()
            runs.append((st, out, verifier))
        else:
            # An untraced fleet for the baseline half, a traced one for the
            # layer split; both start from an empty cache at index 0.
            for traced in (False, True):
                st = fleetctl.setup(seq, REPO, scratch, traced=traced)
                started.append(st.fleet)
                verifier = checks.Verifier(st.references, counts)
                out = fleetctl.measure(seq, st.fleet, seconds / 2, count_bytes=True)
                fleetctl.stop(st.fleet)
                runs.append((st, out, verifier))
    finally:
        for fleet in started:
            fleetctl.stop(fleet)
    attempted = failed = 0
    errors: List[str] = []
    per_run = []
    for st, out, verifier in runs:
        bad, makespans = fleetctl.verify(seq, out, verifier)
        errors += [f"request {i}: {why}" for i, why in sorted(bad.items())]
        attempted += len(out.responses)
        failed += len(bad)
        good = [r for r in out.responses if r.index not in bad]
        per_run.append((st, out, good, makespans))
    st, out, good, makespans = per_run[0]
    if not trace:
        sim: Dict[str, List[float]] = {}
        for r in good:
            if r.index in seq.accuracy_indices:
                sim.setdefault(inproc.accuracy_program(seq.spec(r.index)), []).append(
                    makespans[r.digest])
        tasks = sum(counts[seq.spec(r.index).program] for r in good)
        result["metrics"], result["notes"] = end_to_end(
            [r.scaled_latency for r in good], out.window_s, tasks, sim, st.real_makespans,
            attempted, failed, rss, setup_runs_s)
        result["notes"]["raw_window_s"] = out.raw_window_s
        result["notes"]["raw_latencies_ms"] = [round(ms(r.latency), 3) for r in good]
        result["notes"]["probe_ms"] = [round(ms(p), 4) for p in out.probes]
        result["notes"]["cached"] = sum(1 for r in good if r.doc["cached"])
        result["notes"]["coalesced"] = sum(1 for r in good if r.doc["coalesced"])
    else:
        st_t, out_t, good_t, _ = per_run[1]
        spans, docs = fleetctl.load_spans(st_t.fleet.span_dir, out_t.t_start, out_t.t_end)
        n, n0 = len(good_t), len(good)
        if n == 0 or n0 == 0:  # nothing verified: correct is false
            result["metrics"] = {k: 0.0 for k in PER_LAYER_UNITS}
            errors = errors or ["no request passed verification"]
            docs = []
        else:
            m = layer_metrics(layers.layer_totals(spans), n)
            # The service view comes from the untraced fleet, undisturbed by shims.
            m.update({
                "trace.bytes": statistics.fmean(len(out.texts[r.digest]) for r in good),
                "machine.backend.real_run.ms": ms(statistics.fmean(st.real_run_s)),
                "service.shard.wall_ms": ms(statistics.fmean(r.doc["wall_s"] for r in good)),
                "service.shard.queue_wait_ms": ms(
                    statistics.fmean(r.doc["queue_wait_s"] for r in good)),
                "service.hop.ms": ms(
                    statistics.fmean(r.latency - r.doc["wall_s"] for r in good)),
                "service.cache_hit_ratio": sum(1 for r in good if r.doc["cached"]) / n0,
                "service.coalesced_ratio": sum(1 for r in good if r.doc["coalesced"]) / n0,
                "service.retry_rate": (sum(r.retries for r in out.responses)
                                       + out.router_retries) / len(out.responses),
                "service.response_bytes": statistics.fmean(r.response_bytes for r in good),
                "bench.trace_overhead_pct": overhead_pct(
                    [r.scaled_latency for r in good], [r.scaled_latency for r in good_t]),
                "bench.unattributed_pct": 0.0,
                "host.probe_ms": ms(statistics.median(out.probes + out_t.probes)),
            })
            result["metrics"] = m
        result["notes"]["samples"] = {"untraced": n0, "traced": n}
        result["span_docs"] = docs
    for fleet in started:
        fleetctl.discard(fleet)
    result["attempted"] = attempted
    result["failed"] = failed
    result["errors"] = errors
    return result


# -- entry point -------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed; claims are made on 1 and must also hold on "
                    "the held-out seed 7")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(REPO, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {REPO}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    # Temporary files of this process, the compiler and the fleet stay
    # inside the checkout.
    os.makedirs(os.path.join(OUT_DIR, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(OUT_DIR, "tmp")
    ensure_array_core()
    sys.path[:0] = [HERE, os.path.join(REPO, "src")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    t0 = time.perf_counter()
    try:
        if args.workload == "fleet-mix":
            result = run_fleet(args.seed, args.seconds, bool(args.trace), scratch)
        else:
            result = run_inproc(args.workload, args.seed, args.seconds, bool(args.trace),
                                scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {k: {"value": float(result["metrics"][k]), "unit": u} for k, u in units.items()}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    if args.trace:
        import layers

        path = os.path.join(OUT_DIR, "results", f"{tag}.perfetto.json")
        layers.write_perfetto(path, result.pop("span_docs"))
        print(f"spans: {path}")
    failed = result["failed"]
    attempted = result["attempted"]
    correct = failed == 0 and not result["errors"]
    full = {
        "schema": "perfbench.result/v1",
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "wall_s": time.perf_counter() - t0,
        "error_rate": failed / attempted,
        "notes": result["notes"],
        "errors": result["errors"][:50],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, "results", f"{tag}.json"), "w") as fh:
        json.dump(full, fh, indent=2, sort_keys=True)
    for err in result["errors"][:20]:
        print(f"FAILED {err}")
    print("environment: " + json.dumps(env, sort_keys=True))
    probes = result["notes"].get("probe_ms")
    if probes:
        import hostspeed

        print(f"host-speed probe: median {statistics.median(probes):.3f} ms, nominal "
              f"{ms(hostspeed.NOMINAL_S):.3f} ms; time metrics are scaled by nominal / "
              "probe time (see perfbench/hostspeed.py)")
    print(f"{'error_rate':34s} {failed / attempted:14.6g} ratio   ({failed}/{attempted})")
    for k, v in metrics.items():
        print(f"{k:34s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
