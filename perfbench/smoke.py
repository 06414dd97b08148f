"""Smoke test of the benchmark itself, at tiny sizes (about ten seconds).

    python3 perfbench/smoke.py

For every workload it runs an untraced and two traced runs of one seed and
checks that:
- every metric named in BENCHMARK.json is emitted, with its unit, and
  nothing else;
- all outputs pass their checks;
- no span is shorter than its children, no self time is negative, and an
  op's self times add up to its traced latency exactly;
- the per-op work counts of the two traced runs are identical.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import sys
from collections import defaultdict

import run

TINY = {
    "q3_csv": {"rows": 400, "brute_rows": 200},
    "q4_knapsack": {"assets": 3, "months": 120, "cells": 200_000},
    "sat_orderflow": {"pool_size": 8},
    "momentum_mc": {"pool_size": 2, "assets": 30, "months": 48},
}
SECONDS = 0.4
# Per-layer metrics that are exact work counts rather than timings.
COUNT_UNITS = {"count", "bytes", "bytes-computed"}


def _expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"smoke test failed: {what}")


def _check_spans(name: str, tracer) -> None:
    own = tracer.self_times()
    durations = [end - start for _, start, end, _, _, _ in tracer.spans]
    children = defaultdict(int)
    op_self = defaultdict(int)
    for (span, _, _, parent, op, _), dur, self_ns in zip(tracer.spans, durations, own):
        _expect(self_ns >= 0, f"{name}: span {span} has negative self time")
        if parent >= 0:
            children[parent] += dur
            _expect(dur <= durations[parent], f"{name}: span {span} outlasts its parent")
        op_self[op] += self_ns
    for idx, (span, _, _, parent, op, _) in enumerate(tracer.spans):
        _expect(children[idx] <= durations[idx], f"{name}: children of {span} exceed it")
        if parent < 0:
            _expect(op_self[op] == durations[idx], f"{name}: op {op} self times do not add up")


def main() -> int:
    import_runs = run.bootstrap()
    import workloads

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    _expect(sorted(workloads.WORKLOADS) == sorted(w["name"] for w in bench["workloads"]),
            "BENCHMARK.json workloads differ from the benchmark's")
    for name, cls in workloads.WORKLOADS.items():
        counts = []
        for trace in (False, True, True):
            workdir = run.OUT / f"smoke-{name}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                result, _, tracer = run.run(cls(7, workdir, **TINY[name]), SECONDS, trace, import_runs)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            got = {metric: m["unit"] for metric, m in result["metrics"].items()}
            _expect(got == wanted[trace], f"{name}: metrics or units differ: {got}")
            _expect(result["correct"] and result["failed"] == 0, f"{name}: outputs failed checks")
            if trace:
                _check_spans(name, tracer)
                counts.append({metric: m["value"] for metric, m in result["metrics"].items()
                               if m["unit"] in COUNT_UNITS})
        _expect(counts[0] == counts[1], f"{name}: work counts differ between runs: {counts}")
        print(f"ok {name}: {len(counts[0])} work counts repeat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
