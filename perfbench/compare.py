#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BEFORE AFTER

``BEFORE`` and ``AFTER`` are directories of result files written by
``perfbench/run.py`` (``.perfbench/results/*.json``), or single files.
For every workload and trace mode present on both sides it prints each
metric's median per side, the relative change, and whether the change
exceeds the metric's bound in ``BENCHMARK.json``.  Two sets whose compiled
array core or engine backend differ measure different programs; the
comparison is refused (exit 2).
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ENV_KEYS = ("array_core_loaded", "engine_backend", "engine_backend_env")


def load(path: str) -> List[dict]:
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    out = []
    for f in files:
        if f.endswith(".perfetto.json"):
            continue
        with open(f) as fh:
            doc = json.load(fh)
        if doc.get("schema") == "perfbench.result/v1":
            out.append(doc)
    return out


def bounds() -> Dict[str, Tuple[str, float]]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m.get("bound")) for m in
            spec["end_to_end"] + spec["per_layer"]}


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    if not before or not after:
        print("compare: no result files on one side", file=sys.stderr)
        return 2
    envs = {side: {tuple(r["environment"][k] for k in ENV_KEYS) for r in rs}
            for side, rs in (("before", before), ("after", after))}
    if len(envs["before"] | envs["after"]) != 1:
        print(f"compare: refusing — {ENV_KEYS} differ between result sets: {envs}",
              file=sys.stderr)
        return 2
    limits = bounds()
    worse = 0
    groups = sorted({(r["workload"], r["trace"]) for r in before}
                    & {(r["workload"], r["trace"]) for r in after})
    for workload, trace in groups:
        b = [r for r in before if (r["workload"], r["trace"]) == (workload, trace)]
        a = [r for r in after if (r["workload"], r["trace"]) == (workload, trace)]
        print(f"\n{workload} (trace={trace}; runs: {len(b)} before, {len(a)} after)")
        for name in b[0]["metrics"]:
            mb = statistics.median(r["metrics"][name]["value"] for r in b)
            ma = statistics.median(r["metrics"][name]["value"] for r in a)
            change = (ma - mb) / mb if mb else 0.0
            better, bound = limits.get(name, ("lower", None))
            regress = change if better == "lower" else -change
            flag = ""
            if bound is not None and regress > bound:
                flag = "  WORSE than bound"
                worse += 1
            print(f"  {name:34s} {mb:14.6g} -> {ma:14.6g} {b[0]['metrics'][name]['unit']:6s}"
                  f" {100 * change:+8.2f}%{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
