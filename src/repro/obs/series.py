"""Virtual-time series derived from a recorded probe stream.

Replays the lifecycle and TEQ events of a :class:`~repro.obs.probe.RecordingProbe`
into step-function counters over virtual time:

``ready_depth``
    Tasks ready but not yet claimed by a worker (+1 on ``ready``, −1 on
    ``dispatched``).
``window_occupancy``
    Inserted-but-unfinished tasks — the quantity the scheduler window
    throttles (+1 on ``inserted``, −1 on ``finished``).
``active_workers``
    Cores currently executing a task (+width on ``dispatched``, −width on
    ``finished``).
``teq_depth``
    Task Execution Queue depth; present only for threaded-runtime streams
    (the event-driven engine has no TEQ).  Uses the depth each TEQ hook
    recorded rather than re-deriving it, so real-thread append reordering
    cannot corrupt the counter.

Each series is a pair of parallel lists ``(times, values)``: the counter
holds ``values[i]`` from ``times[i]`` until ``times[i+1]``.  Consecutive
samples at one timestamp are collapsed to the last value so the exported
documents stay compact and monotone in time; :attr:`TimeSeries.peak` is
tracked over *every* appended sample, so a transient high-water mark inside
a zero-width burst (task ready and dispatched at the same instant) still
matches the corresponding :class:`~repro.core.metrics.RunMetrics` peak.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Union

from .probe import (
    DISPATCHED,
    FINISHED,
    INSERTED,
    READY,
    TEQ_INSERT,
    TEQ_POP,
    RecordingProbe,
)

__all__ = ["TimeSeries", "TimeSeriesSet", "build_series", "SERIES_SCHEMA"]

#: Schema tag of the exported time-series document.
SERIES_SCHEMA = "repro.timeline_series/v1"


@dataclass
class TimeSeries:
    """One step-function counter over virtual time."""

    name: str
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)
    _peak: float = 0.0

    def append(self, t: float, value: float) -> None:
        """Add a sample, collapsing repeated timestamps to the last value.

        The peak is updated *before* collapsing, so transient values inside
        a same-timestamp burst still count.
        """
        if value > self._peak:
            self._peak = value
        if self.times and self.times[-1] == t:
            self.values[-1] = value
            return
        self.times.append(t)
        self.values.append(value)

    @property
    def peak(self) -> float:
        """High-water mark over every appended sample, transients included."""
        return self._peak

    def value_at(self, t: float) -> float:
        """Counter value in effect at virtual time ``t`` (0 before the start)."""
        from bisect import bisect_right

        i = bisect_right(self.times, t)
        return self.values[i - 1] if i > 0 else 0.0

    def __len__(self) -> int:
        return len(self.times)


class TimeSeriesSet:
    """The named counters of one run, with CSV/JSON export."""

    def __init__(self, series: Dict[str, TimeSeries]) -> None:
        self.series = series

    def __getitem__(self, name: str) -> TimeSeries:
        return self.series[name]

    def __contains__(self, name: str) -> bool:
        return name in self.series

    def names(self) -> List[str]:
        return sorted(self.series)

    def peaks(self) -> Dict[str, float]:
        return {name: s.peak for name, s in sorted(self.series.items())}

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SERIES_SCHEMA,
            "peaks": self.peaks(),
            "series": {
                name: {"t": s.times, "value": s.values}
                for name, s in sorted(self.series.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        """Long-format CSV: ``series,t,value`` — one row per sample."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["series", "t", "value"])
        for name in self.names():
            s = self.series[name]
            for t, v in zip(s.times, s.values):
                writer.writerow([name, repr(t), repr(v)])
        return buf.getvalue()

    def write_json(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    def write_csv(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_csv())
        return path


def build_series(probe: RecordingProbe) -> TimeSeriesSet:
    """Replay ``probe``'s stream into the standard counter set."""
    ready = TimeSeries("ready_depth")
    window = TimeSeries("window_occupancy")
    active = TimeSeries("active_workers")
    teq = TimeSeries("teq_depth")

    n_ready = 0
    n_window = 0
    n_active = 0
    saw_teq = False
    for e in probe.sorted_events():
        kind = e.kind
        if kind == READY:
            n_ready += 1
            ready.append(e.t, n_ready)
        elif kind == DISPATCHED:
            n_ready -= 1
            n_active += e.width
            ready.append(e.t, n_ready)
            active.append(e.t, n_active)
        elif kind == INSERTED:
            n_window += 1
            window.append(e.t, n_window)
        elif kind == FINISHED:
            n_window -= 1
            n_active -= e.width
            window.append(e.t, n_window)
            active.append(e.t, n_active)
        elif kind in (TEQ_INSERT, TEQ_POP):
            saw_teq = True
            teq.append(e.t, e.value)

    out = {"ready_depth": ready, "window_occupancy": window, "active_workers": active}
    if saw_teq:
        out["teq_depth"] = teq
    return TimeSeriesSet(out)
