"""The ``fleet-mix`` workload: ``repro fleet --shards 2`` on 127.0.0.1.

One process sends the index-fixed request sequence of :mod:`workloads`
through the router, one unit of the fixed mix at a time, the (at most
two) requests of a unit at once on their own connections.  Request time is
the full HTTP round trip (``http_json_request``, response JSON decoded),
retries included.  Verification runs after the window, off the clock.

With ``traced=True`` the fleet processes start with the benchmark's
``sitehook`` directory on ``PYTHONPATH``: its ``sitecustomize`` installs
the same layer shims as the in-process run and writes every span to
``PERFBENCH_SPAN_DIR`` when the process exits.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.telemetry import parse_exposition
from repro.service.client import http_json_request, http_text_request
from repro.service.protocol import RunRequest

import checks
import hostspeed
import inproc
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
START_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0
RETRIABLE = ("overloaded", "draining", "timeout", "unavailable")
MAX_RETRIES = 5


@dataclass
class Fleet:
    process: subprocess.Popen
    host: str
    port: int
    state: dict
    root: str
    span_dir: Optional[str]

    def pids(self) -> List[int]:
        return [self.state["router"]["pid"]] + [s["pid"] for s in self.state["shards"]]

    def peak_rss_mb(self) -> float:
        """Largest VmHWM among the router and shard processes."""
        peak = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]))
            except OSError:
                pass
        return peak / 1024.0


def launch(repo: str, scratch: str, *, traced: bool) -> Fleet:
    """Spawn ``repro fleet``; :func:`wait_ready` completes the start."""
    root = tempfile.mkdtemp(prefix="fleet-", dir=scratch)
    env = dict(os.environ)
    paths = [os.path.join(repo, "src")]
    span_dir = None
    if traced:
        span_dir = os.path.join(root, "spans")
        os.makedirs(span_dir)
        env["PERFBENCH_SPAN_DIR"] = span_dir
        paths.append(os.path.join(HERE, "sitehook"))
    env["PYTHONPATH"] = os.pathsep.join(paths)
    cmd = [sys.executable, "-m", "repro", "fleet", "--shards", "2", "--host", "127.0.0.1",
           "--port", "0", "--cache-dir", os.path.join(root, "cache"),
           "--state-file", os.path.join(root, "state.json"), "--quiet"]
    # Its own session: stop() can reap every process of the fleet by group.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True, env=env, cwd=repo, start_new_session=True)
    return Fleet(proc, "", 0, {"router": {}, "shards": []}, root, span_dir)


def wait_ready(fleet: Fleet) -> None:
    """Block until the router prints its readiness line, then read the
    topology the fleet wrote to its state file."""
    proc = fleet.process
    timer = threading.Timer(START_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
    finally:
        timer.cancel()
    if not line.startswith("listening on "):
        raise RuntimeError(f"fleet did not start (exit {proc.poll()}): {line!r}")
    host, port = line.split()[-1].rsplit(":", 1)
    fleet.host, fleet.port = host, int(port)
    with open(os.path.join(fleet.root, "state.json")) as fh:
        fleet.state = json.load(fh)


def _reap(proc: subprocess.Popen) -> None:
    try:
        proc.wait(STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def stop(fleet: Fleet) -> None:
    """SIGTERM drain of the whole fleet; waits until every process ended."""
    if fleet.process.poll() is None:
        fleet.process.send_signal(signal.SIGTERM)
    _reap(fleet.process)
    # The drain normally ended every shard; make sure of it, and wait (a
    # bounded time) until no process of the fleet's group is left.
    deadline = time.monotonic() + 10.0
    sig = signal.SIGKILL
    while time.monotonic() < deadline:
        try:
            os.killpg(fleet.process.pid, sig)
        except (ProcessLookupError, PermissionError):
            break
        sig = 0
        time.sleep(0.05)
    if fleet.process.stdout is not None:
        fleet.process.stdout.close()


def discard(fleet: Fleet) -> None:
    shutil.rmtree(fleet.root, ignore_errors=True)


def warm(fleet: Fleet) -> None:
    """Publish every calibration run on every shard (sent to each shard
    directly, so each cache partition holds its own copy)."""
    recipes = []
    for alg, sizes in sorted(workloads.FLEET_SIZES.items()):
        for sched in workloads.SCHEDULERS:
            recipes.append(workloads.sim_spec(alg, sizes[0], sched, 0).calibration_spec())
    errors: List[str] = []

    def one(shard: dict) -> None:
        for cal in recipes:
            status, doc = http_json_request(
                shard["host"], shard["port"], "POST", "/v1/run",
                RunRequest(spec=cal).to_document(), timeout_s=REQUEST_TIMEOUT_S)
            if status >= 400 or not doc.get("ok"):
                errors.append(f"shard {shard['id']}: {doc.get('message', status)}")

    threads = [threading.Thread(target=one, args=(s,)) for s in fleet.state["shards"]]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise RuntimeError("calibration warm-up failed: " + "; ".join(errors))


@dataclass
class SetupResult:
    fleet: Fleet
    seconds: float
    real_makespans: Dict[str, List[float]]
    real_run_s: List[float]
    references: Dict[str, str]


def setup(seq: workloads.Sequence, repo: str, scratch: str, *, traced: bool) -> SetupResult:
    """Start and warm a fleet; the real runs and references are computed
    here while the fleet processes start up."""
    t0 = time.perf_counter()
    fleet = launch(repo, scratch, traced=traced)
    try:
        real_s: List[float] = []
        real = inproc.real_runs([seq.spec(i) for i in seq.accuracy_indices], real_s)
        refs = checks.reference_digests([seq.spec(i) for i in seq.reference_indices])
        wait_ready(fleet)
        warm(fleet)
    except BaseException:
        stop(fleet)
        raise
    return SetupResult(fleet, time.perf_counter() - t0, real, real_s, refs)


@dataclass
class Response:
    index: int
    latency: float  # seconds, as measured
    doc: Optional[dict]
    digest: Optional[str]
    retries: int
    error: Optional[str]
    response_bytes: int = 0
    scale: float = 1.0  # to the reference host speed (hostspeed.factor)

    @property
    def scaled_latency(self) -> float:
        return self.latency * self.scale


@dataclass
class FleetOutcome:
    responses: List[Response] = field(default_factory=list)
    window_s: float = 0.0  # scaled to the reference host speed
    raw_window_s: float = 0.0
    probes: List[float] = field(default_factory=list)  # host-speed probe between units
    t_start: float = 0.0  # epoch seconds
    t_end: float = 0.0
    router_retries: float = 0.0
    texts: Dict[str, str] = field(default_factory=dict)  # digest -> trace text


def _router_retries(fleet: Fleet) -> float:
    status, text = http_text_request(fleet.host, fleet.port, "GET", "/metrics",
                                     timeout_s=30.0)
    if status != 200:
        raise RuntimeError(f"router /metrics answered HTTP {status}")
    return parse_exposition(text).total("repro_router_retries_total", without=("shard",))


def _request(fleet: Fleet, spec, count_bytes: bool) -> Tuple[Optional[dict], int, Optional[str], int]:
    body = RunRequest(spec=spec).to_document()
    retries = 0
    while True:
        try:
            status, doc = http_json_request(fleet.host, fleet.port, "POST", "/v1/run", body,
                                            timeout_s=REQUEST_TIMEOUT_S)
        except Exception as exc:  # transport failure: a failed request
            return None, retries, f"{type(exc).__name__}: {exc}", 0
        if status < 400 and doc.get("ok"):
            size = len(json.dumps(doc, sort_keys=True, default=str).encode()) if count_bytes else 0
            return doc, retries, None, size
        if doc.get("error") not in RETRIABLE or retries >= MAX_RETRIES:
            return None, retries, f"HTTP {status} {doc.get('error')}: {doc.get('message')}", 0
        pause = doc.get("retry_after_s")
        time.sleep(min(2.0, 0.1 * 2 ** retries) if pause is None else float(pause))
        retries += 1


def measure(seq: workloads.Sequence, fleet: Fleet, seconds: float, *,
            count_bytes: bool = False) -> FleetOutcome:
    """Send the fleet-mix blocks until ``seconds`` of request time have
    passed and every reference and accuracy request has been sent.  Within
    a block the units go one after another, the requests of a unit at once
    on their own connections.  Between units, with the fleet idle, the
    host-speed probe runs; each unit's latencies and time are scaled by the
    probes nearest to it."""
    out = FleetOutcome()
    must_reach = max((*seq.reference_indices, *seq.accuracy_indices)) + 1
    lock = threading.Lock()
    texts = out.texts

    def send(i: int, spec, responses: List[Response]) -> None:
        ts = time.perf_counter()
        doc, retries, error, size = _request(fleet, spec, count_bytes)
        latency = time.perf_counter() - ts
        digest = None
        if doc is not None:
            text = doc.get("trace", "")
            digest = checks.digest(text)
            doc.pop("trace", None)
            with lock:
                texts.setdefault(digest, text)
        with lock:
            responses.append(Response(i, latency, doc, digest, retries, error, size))

    out.router_retries = -_router_retries(fleet)
    out.t_start = time.time()
    units = []  # (responses, wall time, probe before the unit)
    out.probes.append(hostspeed.probe())
    for block in seq.fleet_blocks():
        if out.raw_window_s >= seconds and block[0].start >= must_reach:
            break
        for unit in block:
            responses: List[Response] = []
            threads = [threading.Thread(target=send, args=(i, seq.spec(i), responses))
                       for i in unit]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - t0
            gc.collect()
            out.probes.append(hostspeed.probe())
            out.raw_window_s += wall
            units.append((responses, wall, len(out.probes) - 2))
    for responses, wall, before in units:
        scale = hostspeed.factor(out.probes, before)
        out.window_s += wall * scale
        for r in responses:
            r.scale = scale
        out.responses.extend(responses)
    out.t_end = time.time()
    out.router_retries += _router_retries(fleet)
    out.responses.sort(key=lambda r: r.index)
    return out


def verify(seq: workloads.Sequence, outcome: FleetOutcome,
           verifier: checks.Verifier) -> Tuple[Dict[int, str], Dict[str, float]]:
    """Failure reason per failed request index (every response checked),
    and the makespan of every distinct trace by digest."""
    from repro.trace.textio import loads_trace

    failed: Dict[int, str] = {}
    makespans: Dict[str, float] = {}
    parsed: Dict[str, Optional[str]] = {}  # digest -> structural failure
    keys: Dict[str, str] = {}
    for r in outcome.responses:
        spec = seq.spec(r.index)
        if r.error is not None:
            failed[r.index] = r.error
            continue
        if r.digest not in parsed:
            try:
                trace = loads_trace(outcome.texts[r.digest])
            except (ValueError, KeyError) as exc:
                parsed[r.digest] = f"trace does not parse: {exc}"
            else:
                parsed[r.digest] = verifier.check_trace(spec, trace)
                makespans[r.digest] = trace.makespan
        reason = parsed[r.digest] or verifier.check_bytes(spec, r.digest)
        if reason is None:
            key = keys.setdefault(checks.spec_id(spec), r.doc.get("key"))
            if key != r.doc.get("key"):
                reason = "cache key differs from an earlier response to the same spec"
        if reason is not None:
            failed[r.index] = reason
    return failed, makespans


def load_spans(span_dir: str, t0: float, t1: float) -> Tuple[List[layers.Span], List[dict]]:
    """Spans the fleet processes wrote at exit, limited to [t0, t1] (epoch)."""
    spans: List[layers.Span] = []
    docs: List[dict] = []
    for name in sorted(os.listdir(span_dir)):
        with open(os.path.join(span_dir, name)) as fh:
            dump = json.load(fh)
        base = int(dump["pid"]) << 32
        kept = []
        for sid, parent, lname, start, end, thread, attrs in dump["spans"]:
            if t0 <= start <= t1:
                kept.append(layers.Span(base + sid, base + parent if parent else 0, lname,
                                        start, end, thread, attrs))
        spans.extend(kept)
        docs.extend(layers.span_documents(kept, dump["component"], 0.0))
    return spans, docs
