"""Strategy search, knapsack reductions, CNF order-flow encodings, and
momentum backtests on binary price paths.

Importing the package loads no engine. Each name below is imported from
its submodule on first use (PEP 562), so a program that runs only the
CNF engine never loads numpy or the other engines.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "errors": (
        "CapacityError",
        "ClauseArityError",
        "CompletenessError",
        "DegenerateSampleError",
        "DimacsFormatError",
        "DuplicateRowError",
        "InstanceFormatError",
        "InsufficientDataError",
        "InvalidWindowError",
        "MarketSolverError",
        "PanelParseError",
        "QuantizationError",
        "ResultOverflowError",
        "WitnessFormatError",
    ),
    "series": (
        "PanelData",
        "PriceSeries",
        "gen_planted",
        "gen_random_walk",
        "load_panel_csv",
    ),
    "strategy_search": (
        "CriticalValue",
        "TechnicalStrategy",
        "WorkCounter",
        "brute_force_best",
        "bucket_contexts",
        "decide_q3",
        "enumerate_long_or_out",
        "enumerate_position_sequences",
        "evaluate",
        "optimal_strategy",
    ),
    "knapsack_bridge": (
        "KnapsackInstance",
        "KnapsackSolution",
        "MultiAssetScenario",
        "decide_knapsack",
        "decide_q4",
        "knapsack_to_scenario",
        "scenario_to_knapsack",
        "solve_bruteforce",
        "solve_dp",
    ),
    "sat_market": (
        "CnfFormula",
        "ExecutionReport",
        "MarketState",
        "OcoGroup",
        "Order",
        "SatResult",
        "apply_ticks",
        "assignment_to_ticks",
        "encode_market",
        "market_decides_sat",
        "parse_dimacs",
        "reference_dpll",
        "ticks_to_assignment",
        "verify_assignment",
    ),
    "momentum": (
        "BacktestResult",
        "MomentumConfig",
        "PartitionReport",
        "count_data_points",
        "gen_momentum_panel",
        "partition_report",
        "run_backtest",
        "t_statistic",
    ),
}

# exported name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_SOURCE, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
