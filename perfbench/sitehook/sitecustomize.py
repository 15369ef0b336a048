"""Layer shims for the fleet processes of a traced ``fleet-mix`` run.

Python imports ``sitecustomize`` at start-up from ``PYTHONPATH``.  The
benchmark puts this directory there only for a traced fleet, together with
``PERFBENCH_SPAN_DIR``; the router and every shard then install the layer
shims of ``perfbench/layers.py`` and, at exit (the fleet's SIGTERM drain
ends each process normally), write their spans to
``$PERFBENCH_SPAN_DIR/spans-<pid>.json``.  Without the variable this
module does nothing.
"""

import os

_SPAN_DIR = os.environ.get("PERFBENCH_SPAN_DIR")

if _SPAN_DIR:
    import atexit
    import json
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import layers

    _recorder = layers.SpanRecorder(record_roots=True)
    layers.install(_recorder)

    def _component() -> str:
        argv = sys.argv
        if "--shard-id" in argv:
            return f"shard-{argv[argv.index('--shard-id') + 1]}"
        return "router" if "fleet" in argv else "repro"

    def _dump() -> None:
        off = _recorder.epoch_offset
        doc = {
            "pid": os.getpid(),
            "component": _component(),
            "spans": [
                [s.span_id, s.parent_id, s.name, s.start + off, s.end + off, s.thread, s.attrs]
                for s in _recorder.spans
            ],
        }
        path = os.path.join(_SPAN_DIR, f"spans-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)

    atexit.register(_dump)
