"""Command-line surface.

Subcommands wire the library into reproducible experiments: strategy
search on a CSV panel, knapsack solving and both reduction directions,
CNF encoding/solving/verification on the simulated market, momentum
backtests and reports, and the scaling benchmark contrasting exhaustive
strategy search with the linear-pass optimum.

Results go to stdout as JSON (CSV where noted); diagnostics to stderr.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from . import knapsack_bridge, momentum, sat_market, series, strategy_search
from .errors import CapacityError, MarketSolverError

BENCH_SERIES_LENGTH = 512
BENCH_SEED = 20240131


@dataclass
class BenchRecord:
    """One benchmark row; work units are counted, never estimated."""

    task: str
    parameter: int
    work_units: int
    wall_time: float
    error: Optional[str] = None


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_series(path: str, asset: Optional[str]) -> series.PriceSeries:
    panel = series.load_panel_csv(_read_text(path))
    if asset is None:
        if len(panel.assets) != 1:
            raise MarketSolverError(
                f"panel has {len(panel.assets)} assets; pick one with --asset"
            )
        asset = panel.assets[0]
    # strategy profits never read price levels; when the data is not
    # compoundable (returns <= -1, e.g. unit moves), synthesize additive
    # levels instead of failing
    return panel.series_for(asset, synthesis="auto")


def _emit(obj) -> None:
    # NaN and Infinity are not JSON; refuse them before writing anything
    sys.stdout.write(json.dumps(obj, indent=2, allow_nan=False))
    sys.stdout.write("\n")


def _int_at_least(low: int):
    """argparse type: an int >= low, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


# ---------------------------------------------------------------- strategy


def _cmd_strategy(args) -> int:
    srs = _load_series(args.file, args.asset)
    t = args.lookback
    if args.action == "optimal":
        strat, profit = strategy_search.optimal_strategy(srs, t)
        _emit({"strategy": json.loads(strat.to_json()), "profit": profit})
    elif args.action == "brute":
        strat, profit = strategy_search.brute_force_best(srs, t)
        _emit({"strategy": json.loads(strat.to_json()), "profit": profit})
    else:  # decide
        critical = strategy_search.CriticalValue(K=args.target)
        _, profit = strategy_search.optimal_strategy(srs, t)
        _emit({"decision": critical.beaten_by(profit), "profit": profit, "target": args.target})
    return 0


# ---------------------------------------------------------------- knapsack


def _cmd_knapsack(args) -> int:
    if args.action in ("solve", "decide"):
        inst = knapsack_bridge.KnapsackInstance.from_json(_read_text(args.file))
        if args.action == "solve":
            sol = knapsack_bridge.solve_dp(inst)
            _emit(
                {
                    "chosen": list(sol.chosen),
                    "total_size": sol.total_size,
                    "total_value": sol.total_value,
                }
            )
        else:
            if args.strict:
                inst = knapsack_bridge.KnapsackInstance(
                    items=inst.items, budget=inst.budget, target=inst.target + 1
                )
            _emit({"decision": knapsack_bridge.decide_knapsack(inst)})
    elif args.action == "reduce":
        if not args.sidecar:
            print("error: reduce needs --sidecar SIDE.json", file=sys.stderr)
            return 2
        sidecar = json.loads(_read_text(args.sidecar))
        sc = knapsack_bridge.read_scenario_csv(_read_text(args.file), sidecar)
        if args.strict:
            sc.target += 1
        inst, mapping = knapsack_bridge.scenario_to_knapsack(sc)
        decision, witness = knapsack_bridge.decide_q4(sc)
        _emit(
            {
                "instance": json.loads(inst.to_json()),
                "context_items": {str(c): i for c, i in sorted(mapping.items())},
                "decision": decision,
                "witness": None
                if witness is None
                else json.loads(witness.to_json()),
            }
        )
    else:  # to-market
        inst = knapsack_bridge.KnapsackInstance.from_json(_read_text(args.file))
        sc = knapsack_bridge.knapsack_to_scenario(inst, tick=args.tick)
        csv_text, sidecar = knapsack_bridge.write_scenario_csv(sc)
        if args.out:
            csv_path = args.out + ".csv"
            sidecar_path = args.out + ".json"
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
            with open(sidecar_path, "w", encoding="utf-8") as fh:
                json.dump(sidecar, fh, indent=2)
            print(f"wrote {csv_path} and {sidecar_path}", file=sys.stderr)
        else:
            _emit({"panel_csv": csv_text, "sidecar": sidecar})
    return 0


# --------------------------------------------------------------------- sat


def _cmd_sat(args) -> int:
    formula = sat_market.parse_dimacs(_read_text(args.file))
    if args.action == "encode":
        state = sat_market.MarketState.default_for(formula.num_vars)
        groups = sat_market.encode_market(formula, state)
        _emit(
            [
                {"group": g.index, "orders": [o.to_dict() for o in g.orders]}
                for g in groups
            ]
        )
    elif args.action == "solve":
        # budget exhaustion is a reported status, not a failure
        result = sat_market.market_decides_sat(formula, search_budget=args.budget)
        _emit(result.to_dict())
    else:  # verify
        if not args.witness:
            print("error: verify needs --witness FILE", file=sys.stderr)
            return 2
        raw = json.loads(_read_text(args.witness))
        witness = {int(k): bool(v) for k, v in raw.items()}
        _emit({"verified": sat_market.verify_assignment(formula, witness)})
    return 0


# ---------------------------------------------------------------- momentum


def _momentum_config(args) -> momentum.MomentumConfig:
    return momentum.MomentumConfig(
        formation_months=args.formation,
        holding_months=args.holding,
        decile_count=args.deciles,
        skip_months=args.skip,
    )


def _cmd_momentum(args) -> int:
    if args.action == "gen":
        panel = momentum.gen_momentum_panel(
            args.assets, args.months, args.persistence, args.seed
        )
        sys.stdout.write("date,asset,return\n")
        for month in panel.months:
            for asset in panel.assets:
                key = (asset, month)
                if key in panel.returns:
                    sys.stdout.write(f"{month},{asset},{panel.returns[key]!r}\n")
        return 0
    panel = series.load_panel_csv(_read_text(args.file))
    cfg = _momentum_config(args)
    if args.action == "backtest":
        result = momentum.run_backtest(panel, cfg)
        _emit(result.to_dict())
    else:  # partition
        breakpoints = [b.strip() for b in args.breakpoints.split(",") if b.strip()]
        report = momentum.partition_report(panel, breakpoints, cfg)
        if args.format == "csv":
            sys.stdout.write(report.to_csv())
        else:
            _emit(report.to_dicts())
    return 0


# ------------------------------------------------------------------- bench


def bench_strategies(
    t_values: Sequence[int],
    n: int = BENCH_SERIES_LENGTH,
    seed: int = BENCH_SEED,
) -> list[BenchRecord]:
    """Exhaustive-search cost per lookback, plus linear-scan reference rows.

    For each t, run the exhaustive search on one fixed seeded series and
    record the exact number of strategies evaluated. Then run the
    single-pass optimum at n and 2n, recording the exact periods scanned.
    Guard violations become error rows; the run continues.
    """
    records: list[BenchRecord] = []
    srs = series.gen_random_walk(n, 0.5, seed)
    for t in t_values:
        counter = strategy_search.WorkCounter()
        start = time.perf_counter()
        try:
            strategy_search.brute_force_best(srs, t, counter=counter)
        except CapacityError as exc:
            records.append(
                BenchRecord(
                    task="brute_force",
                    parameter=t,
                    work_units=0,
                    wall_time=0.0,
                    error=str(exc),
                )
            )
            continue
        elapsed = time.perf_counter() - start
        records.append(
            BenchRecord(
                task="brute_force",
                parameter=t,
                work_units=counter.strategies_evaluated,
                wall_time=elapsed,
            )
        )
    for length in (n, 2 * n):
        scan_series = series.gen_random_walk(length, 0.5, seed)
        counter = strategy_search.WorkCounter()
        start = time.perf_counter()
        strategy_search.optimal_strategy(scan_series, 3, counter=counter)
        elapsed = time.perf_counter() - start
        records.append(
            BenchRecord(
                task="optimal_scan",
                parameter=length,
                work_units=counter.periods_scanned,
                wall_time=elapsed,
            )
        )
    return records


def verify_scaling(n: int = 10_000, seed: int = BENCH_SEED, repeats: int = 5) -> dict:
    """Check the linear-pass claim: scans == n, doubling n at most doubles time.

    Wall times take the minimum over `repeats` runs to damp scheduler
    noise; the scan counters are exact.
    """
    out = {"runs": [], "wall_time_ratio": None}
    timings = []
    for length in (n, 2 * n):
        srs = series.gen_random_walk(length, 0.5, seed)
        counter = strategy_search.WorkCounter()
        best = None
        for _ in range(repeats):
            single = strategy_search.WorkCounter()
            start = time.perf_counter()
            strategy_search.optimal_strategy(srs, 3, counter=single)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        strategy_search.optimal_strategy(srs, 3, counter=counter)
        out["runs"].append(
            {
                "n": length,
                "periods_scanned": counter.periods_scanned,
                "wall_time": best,
            }
        )
        timings.append(best)
    out["wall_time_ratio"] = timings[1] / timings[0] if timings[0] > 0 else None
    return out


def _cmd_bench(args) -> int:
    if args.action == "strategies":
        t_values = [int(x) for x in args.t.split(",") if x.strip()]
        records = bench_strategies(t_values, seed=args.seed)
        _emit([asdict(r) for r in records])
    else:  # verify-scaling
        _emit(verify_scaling(n=args.n, seed=args.seed))
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketsolver",
        description="Strategy search, knapsack reductions, CNF order-flow "
        "encodings, and momentum backtests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_strategy = sub.add_parser("strategy", help="search strategies on one series")
    p_strategy.add_argument("action", choices=["optimal", "brute", "decide"])
    p_strategy.add_argument("file", help="panel CSV path, or - for stdin")
    p_strategy.add_argument("--lookback", type=_positive_int, required=True)
    p_strategy.add_argument("--asset", default=None)
    p_strategy.add_argument("--target", type=float, default=0.0)
    p_strategy.set_defaults(func=_cmd_strategy)

    p_knap = sub.add_parser("knapsack", help="exact solvers and both reductions")
    p_knap.add_argument("action", choices=["solve", "decide", "reduce", "to-market"])
    p_knap.add_argument("file", help="instance JSON or scenario CSV, - for stdin")
    p_knap.add_argument("--sidecar", help="scenario sidecar JSON (reduce)")
    p_knap.add_argument("--tick", type=float, default=1.0)
    p_knap.add_argument("--strict", action="store_true",
                        help="require profit strictly above the target (target+1 tick)")
    p_knap.add_argument("--out", help="output path prefix for to-market")
    p_knap.set_defaults(func=_cmd_knapsack)

    p_sat = sub.add_parser("sat", help="CNF to order flow; solve and verify")
    p_sat.add_argument("action", choices=["encode", "solve", "verify"])
    p_sat.add_argument("file", help="DIMACS cnf path, or - for stdin")
    p_sat.add_argument("--budget", type=_positive_int, default=sat_market.DEFAULT_SEARCH_BUDGET)
    p_sat.add_argument("--witness", help="witness JSON path (verify)")
    p_sat.set_defaults(func=_cmd_sat)

    p_mom = sub.add_parser("momentum", help="panel backtests and reports")
    p_mom.add_argument("action", choices=["backtest", "partition", "gen"])
    p_mom.add_argument("file", nargs="?", default="-",
                       help="panel CSV path, or - for stdin (unused by gen)")
    p_mom.add_argument("--formation", type=_positive_int, default=6)
    p_mom.add_argument("--holding", type=_positive_int, default=6)
    p_mom.add_argument("--deciles", type=_positive_int, default=10)
    p_mom.add_argument("--skip", type=_non_negative_int, default=0)
    p_mom.add_argument("--breakpoints", default="",
                       help="comma-separated period-end months (partition)")
    p_mom.add_argument("--format", choices=["json", "csv"], default="json")
    p_mom.add_argument("--assets", type=_positive_int, default=100)
    p_mom.add_argument("--months", type=_positive_int, default=240)
    p_mom.add_argument("--persistence", type=float, default=0.0)
    p_mom.add_argument("--seed", type=int, default=0)
    p_mom.set_defaults(func=_cmd_momentum)

    p_bench = sub.add_parser("bench", help="work-unit and wall-time scaling")
    p_bench.add_argument("action", choices=["strategies", "verify-scaling"])
    p_bench.add_argument("--t", default="2,3",
                         help="comma-separated lookbacks (strategies)")
    p_bench.add_argument("--n", type=_positive_int, default=10_000)
    p_bench.add_argument("--seed", type=int, default=BENCH_SEED)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except MarketSolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
