"""Tests for the probe stream's derived products: series, attribution,
Perfetto export, and the bundled timeline artifact set."""

import json

import pytest

from repro.algorithms import cholesky_program
from repro.core.metrics import RunMetrics
from repro.core.simulator import run_real
from repro.obs import (
    RecordingProbe,
    TimeSeries,
    attribute_waits,
    build_series,
    export_timeline,
    load_trace_event,
    loads_trace_event,
    stall_episodes,
    trace_event_document,
)
from repro.obs.probe import EVENT_KINDS
from repro.schedulers import make_scheduler
from repro.trace.events import Trace


def _observed_run(*, window=None, nt=6, workers=4, scheduler="quark"):
    probe = RecordingProbe()
    metrics = RunMetrics()
    trace = run_real(
        cholesky_program(nt, 100),
        make_scheduler(scheduler, workers, window=window),
        "uniform_4",
        seed=3,
        probe=probe,
        metrics=metrics,
    )
    return trace, probe, metrics


class TestTimeSeries:
    def test_append_collapses_same_timestamp_to_last_value(self):
        s = TimeSeries("x")
        s.append(0.0, 1)
        s.append(0.0, 2)
        s.append(1.0, 3)
        assert s.times == [0.0, 1.0]
        assert s.values == [2, 3]

    def test_peak_sees_collapsed_transients(self):
        s = TimeSeries("x")
        s.append(0.0, 5)
        s.append(0.0, 1)  # burst collapses, but the 5 still counts
        assert s.values == [1]
        assert s.peak == 5

    def test_value_at_step_semantics(self):
        s = TimeSeries("x")
        s.append(1.0, 10)
        s.append(2.0, 20)
        assert s.value_at(0.5) == 0.0
        assert s.value_at(1.0) == 10
        assert s.value_at(1.9) == 10
        assert s.value_at(5.0) == 20


class TestBuildSeries:
    def test_engine_run_has_no_teq_series(self):
        _, probe, _ = _observed_run()
        series = build_series(probe)
        assert "teq_depth" not in series
        assert series.names() == ["active_workers", "ready_depth", "window_occupancy"]

    def test_peaks_consistent_with_run_metrics(self):
        _, probe, metrics = _observed_run()
        peaks = build_series(probe).peaks()
        assert peaks["ready_depth"] == metrics.peak_ready_depth
        assert peaks["window_occupancy"] >= 1

    def test_counters_return_to_zero(self):
        _, probe, _ = _observed_run()
        series = build_series(probe)
        for name in ("ready_depth", "window_occupancy", "active_workers"):
            assert series[name].values[-1] == 0, name

    def test_active_workers_bounded_by_pool(self):
        _, probe, _ = _observed_run()
        assert build_series(probe).peaks()["active_workers"] <= 4

    def test_csv_long_format(self):
        _, probe, _ = _observed_run()
        text = build_series(probe).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "series,t,value"
        assert all(line.count(",") == 2 for line in lines[1:])

    def test_json_document_schema(self):
        _, probe, _ = _observed_run()
        doc = build_series(probe).to_dict()
        assert doc["schema"] == "repro.timeline_series/v1"
        assert set(doc["series"]) == set(doc["peaks"])


class TestStallEpisodes:
    def test_balanced_stream_pairs_up(self):
        probe = RecordingProbe()
        probe.window_stall(1.0, True)
        probe.window_stall(2.0, False)
        probe.window_stall(3.0, True)
        probe.window_stall(4.5, False)
        assert stall_episodes(probe) == [(1.0, 2.0), (3.0, 4.5)]

    def test_dangling_begin_closed_at_end_of_run(self):
        probe = RecordingProbe()
        probe.window_stall(1.0, True)
        assert stall_episodes(probe, end_of_run=9.0) == [(1.0, 9.0)]


class TestAttribution:
    def test_components_sum_to_latency(self):
        trace, probe, _ = _observed_run()
        report = attribute_waits(probe, trace)
        assert len(report.tasks) == len(trace)
        for t in report.tasks:
            total = t.dep_wait + t.throttle_wait + t.worker_wait
            assert total == pytest.approx(t.latency, abs=1e-12)
            assert t.dep_wait >= 0 and t.throttle_wait >= 0 and t.worker_wait >= 0

    def test_throttled_run_charges_window_wait(self):
        trace, probe, metrics = _observed_run(window=4)
        report = attribute_waits(probe, trace)
        assert metrics.window_stalls > 0
        assert report.episodes
        assert report.totals()["throttle_wait"] > 0.0

    def test_unthrottled_run_has_zero_throttle(self):
        trace, probe, _ = _observed_run(window=None)
        report = attribute_waits(probe, trace)
        assert report.totals()["throttle_wait"] == 0.0
        assert report.episodes == []

    def test_busy_time_matches_trace(self):
        trace, probe, _ = _observed_run()
        report = attribute_waits(probe, trace)
        busy = sum(e.duration for e in trace.events)
        assert report.totals()["run_time"] == pytest.approx(busy)

    def test_slowest_sorted_descending(self):
        trace, probe, _ = _observed_run()
        slow = attribute_waits(probe, trace).slowest(5)
        assert len(slow) == 5
        assert all(a.latency >= b.latency for a, b in zip(slow, slow[1:]))

    def test_report_text_and_json(self, tmp_path):
        trace, probe, _ = _observed_run()
        report = attribute_waits(probe, trace)
        text = report.report()
        assert "wait attribution" in text and "aggregate waits" in text
        doc = json.loads(report.write_json(tmp_path / "a.json").read_text())
        assert doc["schema"] == "repro.wait_attribution/v1"
        assert doc["n_tasks"] == len(trace)


class TestPerfettoExport:
    def test_document_without_probe_is_lanes_only(self):
        trace, _, _ = _observed_run()
        doc = trace_event_document(trace)
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X"}
        n_tasks = sum(1 for e in doc["traceEvents"] if e.get("cat") == "task")
        assert n_tasks == len(trace)

    def test_document_with_probe_gains_counters(self):
        trace, probe, _ = _observed_run(window=4)
        doc = trace_event_document(trace, probe)
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert "counter" in cats and "scheduler" in cats
        stalls = [e for e in doc["traceEvents"] if e["name"] == "window stall"]
        assert stalls and all(e["dur"] >= 0 for e in stalls)
        # One event loop: no partitioned-engine kinds or lanes exist.
        assert "cell_advance" not in EVENT_KINDS
        processes = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "cells" not in processes

    def test_round_trip_through_own_loader(self, tmp_path):
        from repro.obs import write_trace_event

        trace, probe, _ = _observed_run()
        path = write_trace_event(tmp_path / "t.json", trace, probe)
        doc = load_trace_event(path)
        assert doc["otherData"]["exporter"] == "repro.obs.perfetto/v1"
        assert doc["otherData"]["n_tasks"] == len(trace)

    def test_loader_rejects_garbage_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            loads_trace_event("{nope")

    def test_loader_rejects_missing_trace_events(self):
        with pytest.raises(ValueError, match="missing traceEvents"):
            loads_trace_event(json.dumps({"foo": []}))

    @pytest.mark.parametrize(
        "event, match",
        [
            ({"ph": "B", "pid": 1, "name": "x"}, "unsupported phase"),
            ({"ph": "X", "name": "x", "ts": 0, "dur": 1, "tid": 0}, "integer pid"),
            ({"ph": "X", "pid": 1, "name": "", "ts": 0, "dur": 1}, "event name"),
            ({"ph": "X", "pid": 1, "name": "x", "ts": -1, "dur": 1}, "bad ts"),
            ({"ph": "X", "pid": 1, "name": "x", "ts": 0, "dur": -2, "tid": 0}, "bad dur"),
            ({"ph": "X", "pid": 1, "name": "x", "ts": 0, "dur": 1}, "without integer tid"),
            ({"ph": "M", "pid": 1, "name": "x", "args": {}}, "without args.name"),
            ({"ph": "C", "pid": 1, "name": "x", "ts": 0, "args": {}}, "without samples"),
        ],
    )
    def test_loader_rejects_malformed_events(self, event, match):
        with pytest.raises(ValueError, match=match):
            loads_trace_event(json.dumps({"traceEvents": [event]}))

    def test_empty_trace_exports_metadata_only(self):
        doc = trace_event_document(Trace(2))
        assert all(e["ph"] == "M" for e in doc["traceEvents"])
        loads_trace_event(json.dumps(doc))


class TestExportTimeline:
    def test_writes_full_artifact_set(self, tmp_path):
        trace, probe, metrics = _observed_run()
        art = export_timeline(tmp_path, trace, probe, metrics=metrics)
        for path in art.paths():
            assert path.exists(), path
        assert len(art.paths()) == 6
        load_trace_event(art.perfetto)
        series_doc = json.loads(art.series_json.read_text())
        assert series_doc["peaks"]["ready_depth"] == metrics.peak_ready_depth
        attribution = json.loads(art.attribution_json.read_text())
        assert attribution["n_tasks"] == len(trace)
        samples_doc = json.loads(art.samples_json.read_text())
        assert samples_doc["schema"] == "repro.kernel_samples/v1"
        # drop-first-per-worker: samples + dropped accounts for every task
        n_kept = sum(len(v) for v in samples_doc["samples"].values())
        assert n_kept + samples_doc["n_dropped"] == len(trace)
        assert all(d > 0 for v in samples_doc["samples"].values() for d in v)

    def test_metrics_optional(self, tmp_path):
        trace, probe, _ = _observed_run()
        art = export_timeline(tmp_path, trace, probe, prefix="p")
        assert art.metrics_json is None
        assert len(art.paths()) == 5
        assert art.perfetto.name == "p.perfetto.json"
