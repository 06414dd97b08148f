"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload q3_csv --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: the next op starts when
the previous one returns. Inputs come from --seed alone. Set-up (imports,
input generation, one warm-up op) is repeated and its median reported;
then ops run for --seconds and their outputs are checked afterwards.

--trace 0 reports the end-to-end metrics. --trace 1 spends the first half
of --seconds untraced and the second half with spans on every layer's
public functions, and reports the per-layer metrics plus the tracing
overhead between the two halves. Both halves run whole passes over the
workload's input pool, so per-op work counts repeat exactly for a seed.

The last stdout line is the result JSON; the line before it is the run
record, which is also written with the spans under perfbench/out/.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
# Reserved for confirming a claimed gain on a seed not used while tuning.
HELD_OUT_SEED = 604_729
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TAIL_SAMPLES_BEYOND = 10


def bootstrap() -> list[float]:
    """Cap numeric threads at nproc and import the checkout's package.

    Returns the package's import times. The package is imported afresh
    SETUP_REPEATS times after numpy, whose own import time follows the
    machine's file-system state rather than anything in the package.
    """
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = nproc
    src = ROOT / "src"
    if not (src / "marketsolver" / "__init__.py").is_file():
        sys.exit(f"error: package source not found under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401

    runs = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m.split(".")[0] == "marketsolver"]:
            del sys.modules[name]
        start = time.perf_counter()
        importlib.import_module("marketsolver.cli")
        runs.append(time.perf_counter() - start)
    return runs


def _loop(workload, seconds: float, whole_cycles: bool, tracer=None):
    """Run ops until `seconds` pass (and, if asked, a pool pass ends)."""
    import tracing

    ops = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline or (whole_cycles and i % workload.pool_size):
        if tracer is not None:
            tracer.op = i
            root = tracer.enter(tracing.ROOT)
        t0 = time.perf_counter_ns()
        try:
            out, error = workload.op(i), None
        except Exception as exc:  # a failed op is counted, the loop goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        latency_ms = (time.perf_counter_ns() - t0) / 1e6
        if tracer is not None:
            tracer.leave(root)
        ops.append((i, latency_ms, out, error))
        i += 1
    return ops, time.perf_counter() - start


def _check(workload, ops) -> tuple[list[str], list[dict]]:
    """Failure reason per failed op, and the facts of every op that ran."""
    failures, facts = [], []
    for i, _, out, error in ops:
        if error is not None:
            failures.append(error)
            facts.append({})
            continue
        try:
            reasons = workload.check(i, out)
            facts.append(workload.facts(i, out))
        except Exception as exc:
            reasons = [f"unreadable output: {type(exc).__name__}: {exc}"]
            facts.append({})
        if reasons:
            failures.append("; ".join(reasons))
    return failures, facts


def _latency(ops) -> tuple[float, float, float]:
    """Median, and the highest percentile with ten samples beyond it."""
    lat = sorted(ms for _, ms, _, _ in ops)
    idx = max(0, len(lat) - TAIL_SAMPLES_BEYOND - 1)
    return statistics.median(lat), lat[idx], 100.0 * (idx + 1) / len(lat)


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _machine() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }


def run(workload, seconds: float, trace: bool, import_runs: list[float]) -> tuple[dict, dict, object]:
    """Set up, time, check. Returns (result, run record, tracer or None)."""
    import tracing

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        workload.op(0)
        setups.append(time.perf_counter() - start)
    setup_s = statistics.median(import_runs) + statistics.median(setups)

    tracer = None
    ops, elapsed = _loop(workload, seconds / 2 if trace else seconds, whole_cycles=trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced_ops = []
    if trace:
        tracer = tracing.Tracer()
        saved = tracing.install(tracer)
        try:
            traced_ops, traced_elapsed = _loop(workload, seconds / 2, True, tracer)
        finally:
            tracing.uninstall(saved)

    failures, facts = _check(workload, ops + traced_ops)
    crosscheck = workload.crosscheck() if hasattr(workload, "crosscheck") else []
    ops_per_s = len(ops) / elapsed
    p50, tail, tail_pct = _latency(ops)
    if trace:
        metrics = tracing.layer_metrics(tracer, facts[len(ops):], traced_elapsed, ops_per_s)
        units = dict(tracing.PER_LAYER)
    else:
        metrics = {"ops_per_s": ops_per_s, "latency_p50_ms": p50, "latency_tail_ms": tail,
                   "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}
    attempted = len(ops) + len(traced_ops)
    result = {
        "correct": not failures and not crosscheck,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "client": "closed loop, 1 client, single process",
        "machine": _machine(),
        "pool_size": workload.pool_size,
        "latency_samples": len(ops),
        "traced_ops": len(traced_ops),
        "latency_tail_percentile": tail_pct,
        "setup_runs_s": setups,
        "import_runs_s": import_runs,
        "untraced_ops_per_s": ops_per_s,
        "failed_share": len(failures) / attempted,
        "failure_causes": dict(collections.Counter(failures)),
        "work_crosscheck_failures": crosscheck,
        "metrics": result["metrics"],
    }
    return result, record, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_runs = bootstrap()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(workloads.WORKLOADS)}")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        result, record, tracer = run(workload, args.seconds, bool(args.trace), import_runs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.jsonl")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
