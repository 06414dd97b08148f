"""Command-line surface.

Subcommands wire the library into reproducible experiments: strategy
search on a CSV panel, knapsack solving and both reduction directions,
CNF encoding/solving/verification on the simulated market, and momentum
backtests and reports.

Results go to stdout as JSON (CSV where noted); diagnostics to stderr.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import MarketSolverError, WitnessFormatError

if TYPE_CHECKING:
    from . import momentum, series

# Each command imports the engines it runs, so `sat` and `--help` never
# load numpy. Engines are called as module attributes (series.load_panel_csv),
# which is where a tracer that patches them finds the calls.


def _read_text(path: str) -> str:
    """The UTF-8 text of a file, or of stdin for "-", as it is.

    Line ends are left as they are, so a quoted CSV field keeps its CR/LF
    exactly as the library reads it from a file opened with newline="".
    Each reader drops the one leading byte-order mark an input may have.
    """
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def _json_of(text: str, **kwargs):
    """The JSON value of `text`, less one leading byte-order mark."""
    return json.loads(text.removeprefix("\ufeff"), **kwargs)


def _load_series(path: str, asset: Optional[str]) -> series.PriceSeries:
    from . import series

    panel = series.load_panel_csv(_read_text(path))
    if asset is None:
        if len(panel.assets) != 1:
            raise MarketSolverError(
                f"panel has {len(panel.assets)} assets; pick one with --asset"
            )
        asset = panel.assets[0]
    # no strategy engine reads price levels, so they are the additive ones
    # that every return sequence has
    return panel.series_for(asset, synthesis="shifted")


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
    from . import strategy_search

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
    from . import knapsack_bridge

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
                inst = replace(inst, target=inst.target + 1)
            _emit({"decision": knapsack_bridge.decide_knapsack(inst)})
    elif args.action == "reduce":
        if not args.sidecar:
            print("error: reduce needs --sidecar SIDE.json", file=sys.stderr)
            return 2
        sidecar = _json_of(_read_text(args.sidecar))
        sc = knapsack_bridge.read_scenario_csv(_read_text(args.file), sidecar)
        inst, mapping = knapsack_bridge.scenario_to_knapsack(sc)
        if args.strict:
            inst = replace(inst, target=inst.target + 1)
        decision, witness = knapsack_bridge.decide_reduced(sc, inst, mapping)
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


def _parse_witness(text: str, num_vars: int) -> dict[int, bool]:
    """A JSON object mapping variables 1..num_vars to true/false, nothing looser."""
    # objects decode to tuples of (key, value) pairs, so repeated keys stay visible
    raw = _json_of(text, object_pairs_hook=tuple)
    if not isinstance(raw, tuple):
        raise WitnessFormatError("witness must be a JSON object of variable numbers to booleans")
    witness = {}
    for key, value in raw:
        if not isinstance(value, bool):
            raise WitnessFormatError(f"witness value for {key!r} is {value!r}, not true or false")
        if not key.isdecimal() or key != str(int(key)):
            raise WitnessFormatError(f"witness key {key!r} is not a variable number")
        var = int(key)
        if not 1 <= var <= num_vars:
            raise WitnessFormatError(f"witness key {key!r} names no variable in 1..{num_vars}")
        if var in witness:
            raise WitnessFormatError(f"witness names variable {var} twice")
        witness[var] = value
    return witness


def _cmd_sat(args) -> int:
    from . import sat_market

    formula = sat_market.parse_dimacs(_read_text(args.file))
    if args.action == "encode":
        state = sat_market.MarketState.for_formula(formula)
        groups = sat_market.encode_market(formula, state)
        _emit(
            [
                {"group": g.index, "orders": [o.to_dict() for o in g.orders]}
                for g in groups
            ]
        )
    elif args.action == "solve":
        # budget exhaustion is a reported status, not a failure
        budget = sat_market.DEFAULT_SEARCH_BUDGET if args.budget is None else args.budget
        result = sat_market.market_decides_sat(formula, search_budget=budget)
        _emit(result.to_dict())
    else:  # verify
        if not args.witness:
            print("error: verify needs --witness FILE", file=sys.stderr)
            return 2
        witness = _parse_witness(_read_text(args.witness), formula.num_vars)
        _emit({"verified": sat_market.verify_assignment(formula, witness)})
    return 0


# ---------------------------------------------------------------- momentum


def _momentum_config(args) -> momentum.MomentumConfig:
    from . import momentum

    return momentum.MomentumConfig(
        formation_months=args.formation,
        holding_months=args.holding,
        decile_count=args.deciles,
        skip_months=args.skip,
    )


def _cmd_momentum(args) -> int:
    import numpy as np

    from . import momentum, series

    if args.action == "gen":
        panel = momentum.gen_momentum_panel(
            args.assets, args.months, args.persistence, args.seed
        )
        sys.stdout.write("date,asset,return\n")
        for month, column in zip(panel.months, panel.return_matrix.T.tolist()):
            sys.stdout.write("".join(
                f"{month},{asset},{r!r}\n"
                for asset, r in zip(panel.assets, column)
                if not math.isnan(r)
            ))
        return 0
    panel = series.load_panel_csv(_read_text(args.file))
    cfg = _momentum_config(args)
    # returns near the float64 limit overflow in the sums; the results'
    # serializers report that as one domain error, so numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
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


# ------------------------------------------------------------------ parser


def _strategy_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=["optimal", "brute", "decide"])
    p.add_argument("file", help="panel CSV path, or - for stdin")
    p.add_argument("--lookback", type=_positive_int, required=True)
    p.add_argument("--asset", default=None)
    p.add_argument("--target", type=float, default=0.0)


def _knapsack_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=["solve", "decide", "reduce", "to-market"])
    p.add_argument("file", help="instance JSON or scenario CSV, - for stdin")
    p.add_argument("--sidecar", help="scenario sidecar JSON (reduce)")
    p.add_argument("--tick", type=float, default=1.0)
    p.add_argument("--strict", action="store_true",
                   help="require profit strictly above the target (target+1 tick)")
    p.add_argument("--out", help="output path prefix for to-market")


def _sat_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=["encode", "solve", "verify"])
    p.add_argument("file", help="DIMACS cnf path, or - for stdin")
    p.add_argument("--budget", type=_positive_int, default=None)
    p.add_argument("--witness", help="witness JSON path (verify)")


def _momentum_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=["backtest", "partition", "gen"])
    p.add_argument("file", nargs="?", default="-",
                   help="panel CSV path, or - for stdin (unused by gen)")
    p.add_argument("--formation", type=_positive_int, default=6)
    p.add_argument("--holding", type=_positive_int, default=6)
    p.add_argument("--deciles", type=_positive_int, default=10)
    p.add_argument("--skip", type=_non_negative_int, default=0)
    p.add_argument("--breakpoints", default="",
                   help="comma-separated period-end months (partition)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--assets", type=_positive_int, default=100)
    p.add_argument("--months", type=_positive_int, default=240)
    p.add_argument("--persistence", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)


# name -> (help, adds the subcommand's arguments, handler), in --help order
_COMMANDS = {
    "strategy": ("search strategies on one series", _strategy_arguments, _cmd_strategy),
    "knapsack": ("exact solvers and both reductions", _knapsack_arguments, _cmd_knapsack),
    "sat": ("CNF to order flow; solve and verify", _sat_arguments, _cmd_sat),
    "momentum": ("panel backtests and reports", _momentum_arguments, _cmd_momentum),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI parser: every subcommand, with the arguments of `command` only.

    Every subcommand is listed with its help, so the top-level help, usage
    and "invalid choice" error do not depend on `command`. With `command`
    None, every subcommand gets its arguments and handler.
    """
    parser = argparse.ArgumentParser(
        prog="marketsolver",
        description="Strategy search, knapsack reductions, CNF order-flow "
        "encodings, and momentum backtests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command is None or command == name:
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top-level parser's only option is -h, so argparse dispatches on the
    # first token not starting with "-"; the other subcommands' arguments
    # would cost about half the time of parsing a short command
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = build_parser(command if command in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except MarketSolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, KeyError, ValueError) as exc:
        # a KeyError's str() is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
