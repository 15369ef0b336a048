"""Output verification: every response is checked, never skipped.

A response passes when its trace parses, ``Trace.validate()`` holds, its
event count equals the program's task count, its bytes equal the in-process
reference (for specs that have one), and every response to the same spec —
hit, miss or coalesced — carries the same bytes.  References come from
:func:`repro.runner.runner.execute_spec` with no cache, so a cache or
service defect cannot make its own reference.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Set, Tuple

from repro.runner.runner import execute_spec
from repro.runner.spec import ProgramSpec, RunSpec
from repro.trace.events import Trace
from repro.trace.textio import dumps_trace, loads_trace


def spec_id(spec: RunSpec) -> str:
    """Identity of a spec without computing its (costly) cache key."""
    return json.dumps(spec.to_dict(), sort_keys=True, default=str)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_digests(specs: List[RunSpec]) -> Dict[str, str]:
    """sha256 of the trace each spec produces in-process, without a cache."""
    out: Dict[str, str] = {}
    for s in specs:
        sid = spec_id(s)
        if sid not in out:
            trace, _ = execute_spec(s)
            out[sid] = digest(dumps_trace(trace))
    return out


class Verifier:
    """Collects per-response evidence and reports failed request indices."""

    def __init__(self, references: Dict[str, str], task_counts: Dict) -> None:
        self.references = references
        self.task_counts = task_counts
        self.seen: Dict[str, str] = {}  # spec id -> first digest served
        self.valid: Set[Tuple[ProgramSpec, str]] = set()  # structurally checked bytes
        self.errors: List[str] = []

    def check_trace(self, spec: RunSpec, trace: Trace) -> Optional[str]:
        """Structural checks on a parsed trace; the failure reason or None."""
        try:
            trace.validate()
        except ValueError as exc:
            return f"validate: {exc}"
        want = self.task_counts[spec.program]
        if len(trace) != want:
            return f"{len(trace)} events for a {want}-task program"
        return None

    def check_bytes(self, spec: RunSpec, text_digest: str) -> Optional[str]:
        """Byte checks against the reference and earlier responses."""
        sid = spec_id(spec)
        ref = self.references.get(sid)
        if ref is not None and ref != text_digest:
            return "trace bytes differ from the in-process reference"
        first = self.seen.setdefault(sid, text_digest)
        if first != text_digest:
            return "trace bytes differ from an earlier response to the same spec"
        return None

    def check(self, spec: RunSpec, text: str, trace: Optional[Trace] = None) -> Optional[str]:
        """Every check on one response; parses ``text`` when no trace is given.
        Bytes that already passed the structural checks for the same program
        are not parsed or validated again: they decode to the same trace."""
        text_digest = digest(text)
        if (spec.program, text_digest) not in self.valid:
            if trace is None:
                try:
                    trace = loads_trace(text)
                except (ValueError, KeyError) as exc:
                    return f"trace does not parse: {exc}"
            reason = self.check_trace(spec, trace)
            if reason is not None:
                return reason
            self.valid.add((spec.program, text_digest))
        return self.check_bytes(spec, text_digest)

    def fail(self, index: int, reason: str) -> None:
        self.errors.append(f"request {index}: {reason}")
