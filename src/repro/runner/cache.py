"""Content-addressed on-disk result cache for simulation runs.

Layout (two-level fan-out to keep directories small)::

    <root>/
        ab/
            ab3f9c.../            one entry per RunSpec.cache_key()
                trace.txt         the run's trace (plain-text format)
                trace.sha256      SHA-256 hex digest of trace.txt's bytes
                metrics.json      the RunMetrics of the producing run
                spec.json         the RunSpec that produced it (provenance)

Writes are atomic and parallel-safe: an entry is staged in a temporary
directory under the root and published with ``os.rename``, so concurrent
sweep workers computing the same point race benignly (first rename wins,
the loser discards its staging directory).  Traces are a pure function of
the spec, so whichever copy lands is correct.

Lookups serve only verified entries: :meth:`ResultCache.get` hashes the
trace bytes and compares them with the sidecar digest, so a truncated or
altered trace reads as a miss (counted in ``corrupt``) and is removed, and
the next run republishes it.  Entries written before the sidecar existed
lack it and read as misses once, then are republished.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from ..core.metrics import RunMetrics
from ..trace import textio
from ..trace.events import Trace

__all__ = ["CachedRun", "ResultCache", "default_cache_dir", "partition_cache_dir"]

_TRACE = "trace.txt"
_DIGEST = "trace.sha256"
_METRICS = "metrics.json"
_SPEC = "spec.json"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE`` or ``.repro_cache`` in the working directory."""
    return Path(os.environ.get("REPRO_CACHE", ".repro_cache"))


def partition_cache_dir(root: Union[str, Path], shard_id: Union[int, str]) -> Path:
    """The cache partition one fleet shard owns: ``<root>/shard-<id>``.

    The fleet router consistent-hashes ``cache_key`` across shards, so each
    shard only ever sees its own slice of the keyspace; giving every shard a
    disjoint subdirectory keeps the partitions honest (no cross-shard
    directory contention, per-shard eviction/inspection stays trivial) while
    the entries inside remain ordinary :class:`ResultCache` entries that any
    offline ``repro sweep`` could also have produced.

    Numeric ids are normalised (zero-padded to two digits, wider ids kept
    as-is) whether they arrive as ``int`` or ``str``, so the same logical
    shard addressed as ``5`` or ``"5"`` maps to one partition; non-numeric
    string ids are used verbatim.
    """
    if isinstance(shard_id, bool):
        raise TypeError("shard_id must be an int or str, not bool")
    if isinstance(shard_id, int) or (isinstance(shard_id, str) and shard_id.isdigit()):
        numeric = int(shard_id)
        if numeric < 0:
            raise ValueError(f"numeric shard ids must be non-negative, got {numeric}")
        name = f"shard-{numeric:02d}"
    else:
        name = f"shard-{shard_id}"
    return Path(root) / name


@dataclass(frozen=True)
class CachedRun:
    """Handle to one published cache entry.

    Handles from :meth:`ResultCache.get` and :meth:`ResultCache.put` carry
    the entry's trace as ``trace_text``: the bytes ``get`` verified, or the
    bytes ``put`` published, so the trace served is exactly the one checked.
    Listing handles (:meth:`ResultCache.entries`) leave it ``None`` and read
    the file on demand.
    """

    key: str
    path: Path
    trace_text: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def trace_path(self) -> Path:
        return self.path / _TRACE

    @property
    def metrics_path(self) -> Path:
        return self.path / _METRICS

    def load_trace(self) -> Trace:
        if self.trace_text is not None:
            return textio.loads_trace(self.trace_text)
        return textio.load_trace(self.trace_path)

    def load_metrics(self) -> RunMetrics:
        return RunMetrics.read_json(self.metrics_path)

    def load_spec_dict(self) -> Dict[str, Any]:
        return json.loads((self.path / _SPEC).read_text())


class ResultCache:
    """Content-addressed store of ``(trace, metrics, spec)`` run results."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: lookups that found a published entry whose trace bytes did not
        #: match its digest (each is also a miss)
        self.corrupt = 0

    def _entry_dir(self, key: str) -> Path:
        return self.root / key[:2] / key

    @staticmethod
    def _complete(path: Path) -> bool:
        """One definition of "published" for lookups, listing, and publish
        conflicts: the trace, its digest and the metrics survived the
        rename.  Existence only; :meth:`get` also checks the bytes."""
        return all((path / name).is_file() for name in (_TRACE, _DIGEST, _METRICS))

    @staticmethod
    def _verified_trace(path: Path) -> Optional[bytes]:
        """The trace bytes if they still match the digest written with
        them, else ``None``."""
        try:
            data = (path / _TRACE).read_bytes()
            want = (path / _DIGEST).read_text().strip()
        except OSError:
            return None
        return data if hashlib.sha256(data).hexdigest() == want else None

    def _discard(self, path: Path) -> None:
        """Remove an entry directory; renamed aside first, so no reader
        sees it half deleted."""
        aside = Path(tempfile.mkdtemp(prefix=".corrupt-", dir=self.root))
        try:
            os.rename(path, aside / "entry")
        except OSError:
            pass  # already replaced or removed by another writer
        shutil.rmtree(aside, ignore_errors=True)

    # -- lookup ------------------------------------------------------------
    def get(self, key: str) -> Optional[CachedRun]:
        """The verified entry for ``key``, carrying its trace, or ``None``.

        Incomplete entries count as misses (an interrupted writer never
        published its rename).  A complete entry whose trace bytes do not
        match its digest counts as a miss and in ``corrupt``, and is
        removed so the next :meth:`put` republishes the key.
        """
        path = self._entry_dir(key)
        if self._complete(path):
            data = self._verified_trace(path)
            if data is not None:
                self.hits += 1
                return CachedRun(key=key, path=path, trace_text=data.decode())
            self.corrupt += 1
            self._discard(path)
        self.misses += 1
        return None

    def __contains__(self, key: str) -> bool:
        return self._complete(self._entry_dir(key))

    # -- publish -----------------------------------------------------------
    def put(
        self,
        key: str,
        trace: Trace,
        metrics: RunMetrics,
        spec_dict: Optional[Dict[str, Any]] = None,
    ) -> CachedRun:
        """Atomically publish one result; a concurrent duplicate is a no-op."""
        final = self._entry_dir(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=f".stage-{key[:8]}-", dir=self.root))
        try:
            text = textio.dumps_trace(trace)
            data = text.encode()
            (stage / _TRACE).write_bytes(data)
            (stage / _DIGEST).write_text(hashlib.sha256(data).hexdigest() + "\n")
            metrics.write_json(stage / _METRICS)
            if spec_dict is not None:
                (stage / _SPEC).write_text(
                    json.dumps(spec_dict, sort_keys=True, indent=2, default=str) + "\n"
                )
            try:
                os.rename(stage, final)
            except OSError:
                if self._complete(final):
                    # Somebody else published this key first; keep theirs.
                    shutil.rmtree(stage, ignore_errors=True)
                else:
                    # Stale *partial* entry (interrupted writer or manual
                    # deletion inside the directory): replace it.  The test
                    # must be completeness, not existence — a directory
                    # holding only a trace reads as a permanent miss, and
                    # keeping it would wedge the key into re-executing
                    # forever.
                    shutil.rmtree(final, ignore_errors=True)
                    try:
                        os.rename(stage, final)
                    except OSError:
                        if not self._complete(final):
                            raise
                        shutil.rmtree(stage, ignore_errors=True)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
        return CachedRun(key=key, path=final, trace_text=text)

    # -- maintenance -------------------------------------------------------
    def _entry_dirs(self) -> Iterator[Path]:
        """Every entry directory, complete or not (maintenance view)."""
        for shard in sorted(self.root.glob("??")):
            if not shard.is_dir():
                continue
            yield from sorted(p for p in shard.iterdir() if p.is_dir())

    def entries(self) -> Iterator[CachedRun]:
        """Every *complete* entry — the existence half of :meth:`get`'s test.

        A directory holding only a trace (an interrupted writer, or a
        manually truncated entry) is not yielded: handing out a
        :class:`CachedRun` whose ``load_metrics`` would fail while ``get``
        reports the same key as a miss made ``len(cache)`` disagree with
        what lookups can actually see.  Listing does not hash traces, so
        an entry whose bytes were altered after publishing is still listed
        until a :meth:`get` of its key finds and removes it.
        """
        for entry in self._entry_dirs():
            if self._complete(entry):
                yield CachedRun(key=entry.name, path=entry)

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def clear(self) -> int:
        """Delete every entry, partial ones included; returns the count."""
        n = 0
        for path in list(self._entry_dirs()):
            shutil.rmtree(path, ignore_errors=True)
            n += 1
        return n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultCache({str(self.root)!r}, {len(self)} entries)"
