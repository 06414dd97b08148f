"""Spans around calls into the package's public functions, and the
per-layer metrics computed from them.

Only a traced run calls `install`. It replaces module and class
attributes that the CLI and the engines call through, so nested calls
(for example `decide_q3` -> `optimal_strategy`, or `partition_report` ->
`run_backtest`) get spans too. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

from marketsolver import cli, knapsack_bridge, momentum, sat_market, series, strategy_search

ROOT = "bench.op"


def _brute_work(args, result):
    n, t = len(args[0]), args[1]
    strategies = 2 ** (2**t)
    return {"strategies": strategies, "strategy_periods": strategies * (n - t)}


def _backtest_work(args, result):
    # Exact for panels without skipped formation months, which momentum_mc has.
    return {"cohort_months": result.months_used * args[1].holding_months}


# (owner, attribute, span name, work counts derived from arguments and result)
TARGETS = [
    (cli, "main", "cli.main", None),
    (series, "load_panel_csv", "series.load_panel_csv",
     lambda args, r: {"rows": r.n_entries()}),
    (series.PanelData, "series_for", "series.series_for", None),
    (series.PriceSeries, "from_returns", "series.from_returns", None),
    (series.PriceSeries, "with_shifted_levels", "series.with_shifted_levels", None),
    (series.PriceSeries, "__post_init__", "series.PriceSeries", None),
    (strategy_search, "optimal_strategy", "strategy_search.optimal_strategy",
     lambda args, r: {"periods": len(args[0])}),
    (strategy_search, "brute_force_best", "strategy_search.brute_force_best", _brute_work),
    (knapsack_bridge, "read_scenario_csv", "knapsack_bridge.read_scenario_csv", None),
    (knapsack_bridge, "scenario_to_knapsack", "knapsack_bridge.scenario_to_knapsack", None),
    (knapsack_bridge, "solve_dp", "knapsack_bridge.solve_dp",
     lambda args, r: {"cells": (len(args[0].items) + 1) * (args[0].budget + 1)}),
    (knapsack_bridge, "realized_profit_and_cost", "knapsack_bridge.realized_profit_and_cost", None),
    (knapsack_bridge, "knapsack_to_scenario", "knapsack_bridge.knapsack_to_scenario", None),
    (knapsack_bridge, "write_scenario_csv", "knapsack_bridge.write_scenario_csv", None),
    (sat_market, "parse_dimacs", "sat_market.parse_dimacs", None),
    (sat_market, "encode_market", "sat_market.encode_market", None),
    (sat_market, "market_decides_sat", "sat_market.market_decides_sat",
     lambda args, r: {"nodes": r.nodes}),
    (sat_market, "apply_ticks", "sat_market.apply_ticks", None),
    (sat_market, "verify_assignment", "sat_market.verify_assignment", None),
    (momentum, "gen_momentum_panel", "momentum.gen_momentum_panel", None),
    (momentum, "run_backtest", "momentum.run_backtest", _backtest_work),
    (momentum, "partition_report", "momentum.partition_report", None),
]

# Per-layer time metric fed by each span's self time.
SELF_TIME = {
    "cli.main": "cli.self_ms",
    "series.load_panel_csv": "series.parse_ms",
    "series.series_for": "series.build_ms",
    "series.from_returns": "series.build_ms",
    "series.with_shifted_levels": "series.build_ms",
    "series.PriceSeries": "series.build_ms",
    "strategy_search.optimal_strategy": "strategy_search.optimal_ms",
    "strategy_search.brute_force_best": "strategy_search.brute_ms",
    "knapsack_bridge.read_scenario_csv": "knapsack_bridge.scenario_ms",
    "knapsack_bridge.scenario_to_knapsack": "knapsack_bridge.aggregate_ms",
    "knapsack_bridge.solve_dp": "knapsack_bridge.dp_ms",
    "knapsack_bridge.realized_profit_and_cost": "knapsack_bridge.verify_ms",
    "knapsack_bridge.knapsack_to_scenario": "knapsack_bridge.to_market_ms",
    "knapsack_bridge.write_scenario_csv": "knapsack_bridge.to_market_ms",
    "sat_market.parse_dimacs": "sat_market.parse_ms",
    "sat_market.encode_market": "sat_market.encode_ms",
    "sat_market.market_decides_sat": "sat_market.search_ms",
    "sat_market.apply_ticks": "sat_market.verify_ms",
    "sat_market.verify_assignment": "sat_market.verify_ms",
    "momentum.gen_momentum_panel": "momentum.gen_ms",
    "momentum.run_backtest": "momentum.backtest_ms",
    "momentum.partition_report": "momentum.partition_ms",
    ROOT: "trace.glue_ms",
}

# Every per-layer metric, in report order, with its unit. Values are per
# traced op, except rates, shares and dp_bytes (the largest DP table).
PER_LAYER = [
    ("series.parse_ms", "ms"),
    ("series.rows_parsed", "count"),
    ("series.ns_per_row", "ns/row"),
    ("series.build_ms", "ms"),
    ("strategy_search.optimal_ms", "ms"),
    ("strategy_search.optimal_calls", "count"),
    ("strategy_search.periods_scanned", "count"),
    ("strategy_search.ns_per_period", "ns/period"),
    ("strategy_search.brute_ms", "ms"),
    ("strategy_search.strategies_evaluated", "count"),
    ("strategy_search.ns_per_strategy_period", "ns/strat-period"),
    ("strategy_search.profit_ulp_mismatch", "count"),
    ("knapsack_bridge.scenario_ms", "ms"),
    ("knapsack_bridge.aggregate_ms", "ms"),
    ("knapsack_bridge.dp_ms", "ms"),
    ("knapsack_bridge.dp_cells", "count"),
    ("knapsack_bridge.ns_per_cell", "ns/cell"),
    ("knapsack_bridge.dp_bytes", "bytes-computed"),
    ("knapsack_bridge.verify_ms", "ms"),
    ("knapsack_bridge.to_market_ms", "ms"),
    ("sat_market.parse_ms", "ms"),
    ("sat_market.encode_ms", "ms"),
    ("sat_market.search_ms", "ms"),
    ("sat_market.nodes", "count"),
    ("sat_market.us_per_node", "us/node"),
    ("sat_market.verify_ms", "ms"),
    ("sat_market.sat_share", "share"),
    ("momentum.gen_ms", "ms"),
    ("momentum.backtest_ms", "ms"),
    ("momentum.backtests", "count"),
    ("momentum.us_per_cohort_month", "us/cohort-month"),
    ("momentum.partition_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.op_ms", "ms"),
    ("trace.glue_ms", "ms"),
    ("trace.ops_per_s", "1/s"),
    ("trace.overhead_share", "share"),
]


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, op id, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def leave(self, idx: int, work=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[5] = work
        self._stack.pop()

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent, op, work), self_ns in zip(self.spans, own):
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "self_ns": self_ns,
                                     "work": work}) + "\n")


def _wrap(tracer: Tracer, name: str, fn, work):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.leave(idx)
            raise
        tracer.leave(idx, work(args, result) if work else None)
        return result

    return traced


def install(tracer: Tracer) -> list:
    """Put traced wrappers on every target; returns what `uninstall` needs."""
    saved = []
    for owner, attr, name, work in TARGETS:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(_wrap(tracer, name, raw.__func__, work))
        else:
            replacement = _wrap(tracer, name, raw, work)
        saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, raw in reversed(saved):
        setattr(owner, attr, raw)


def layer_metrics(tracer: Tracer, facts: list[dict], elapsed_s: float,
                  untraced_ops_per_s: float) -> dict[str, float]:
    """Per-op layer metrics from the spans and facts of the traced ops."""
    n_ops = len(facts)
    own = tracer.self_times()
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    max_cells = 0
    op_ns = 0
    for span, ns in zip(tracer.spans, own):
        name = span[0]
        self_ns[SELF_TIME[name]] += ns
        calls[name] += 1
        for key, value in (span[5] or {}).items():
            work[key] += value
        if name == "knapsack_bridge.solve_dp":
            max_cells = max(max_cells, span[5]["cells"])
        if name == ROOT:
            op_ns += span[2] - span[1]

    def per_op(x):
        return x / n_ops

    def ratio(ns, count, scale=1.0):
        return ns / scale / count if count else 0.0

    def fact(key):
        return per_op(sum(f.get(key, 0) for f in facts))

    ops_per_s = n_ops / elapsed_s
    out = {metric: per_op(self_ns[metric]) / 1e6 for metric in set(SELF_TIME.values())}
    out.update({
        "series.rows_parsed": per_op(work["rows"]),
        "series.ns_per_row": ratio(self_ns["series.parse_ms"], work["rows"]),
        "strategy_search.optimal_calls": per_op(calls["strategy_search.optimal_strategy"]),
        "strategy_search.periods_scanned": per_op(work["periods"]),
        "strategy_search.ns_per_period": ratio(self_ns["strategy_search.optimal_ms"], work["periods"]),
        "strategy_search.strategies_evaluated": per_op(work["strategies"]),
        "strategy_search.ns_per_strategy_period":
            ratio(self_ns["strategy_search.brute_ms"], work["strategy_periods"]),
        "strategy_search.profit_ulp_mismatch": fact("profit_ulp_mismatch"),
        "knapsack_bridge.dp_cells": per_op(work["cells"]),
        "knapsack_bridge.ns_per_cell": ratio(self_ns["knapsack_bridge.dp_ms"], work["cells"]),
        "knapsack_bridge.dp_bytes": 8 * max_cells,
        "sat_market.nodes": per_op(work["nodes"]),
        "sat_market.us_per_node": ratio(self_ns["sat_market.search_ms"], work["nodes"], 1e3),
        "sat_market.sat_share": fact("sat"),
        "momentum.backtests": per_op(calls["momentum.run_backtest"]),
        "momentum.us_per_cohort_month":
            ratio(self_ns["momentum.backtest_ms"], work["cohort_months"], 1e3),
        "cli.stdout_bytes": fact("stdout_bytes"),
        "trace.op_ms": per_op(op_ns) / 1e6,
        "trace.ops_per_s": ops_per_s,
        "trace.overhead_share": 1.0 - ops_per_s / untraced_ops_per_s,
    })
    return {name: out[name] for name, _ in PER_LAYER}
