"""Strategy search, knapsack reductions, CNF order-flow encodings, and
momentum backtests on binary price paths."""

from .errors import (
    CapacityError,
    ClauseArityError,
    CompletenessError,
    DegenerateSampleError,
    DimacsFormatError,
    DuplicateRowError,
    InstanceFormatError,
    InsufficientDataError,
    InvalidWindowError,
    MarketSolverError,
    PanelParseError,
    QuantizationError,
    WitnessFormatError,
)
from .series import (
    PanelData,
    PriceSeries,
    gen_planted,
    gen_random_walk,
    load_panel_csv,
)
from .strategy_search import (
    CriticalValue,
    TechnicalStrategy,
    WorkCounter,
    brute_force_best,
    bucket_contexts,
    decide_q3,
    enumerate_long_or_out,
    enumerate_position_sequences,
    evaluate,
    optimal_strategy,
)
from .knapsack_bridge import (
    KnapsackInstance,
    KnapsackSolution,
    MultiAssetScenario,
    decide_knapsack,
    decide_q4,
    knapsack_to_scenario,
    scenario_to_knapsack,
    solve_bruteforce,
    solve_dp,
)
from .sat_market import (
    CnfFormula,
    ExecutionReport,
    MarketState,
    OcoGroup,
    Order,
    SatResult,
    apply_ticks,
    assignment_to_ticks,
    encode_market,
    market_decides_sat,
    parse_dimacs,
    reference_dpll,
    ticks_to_assignment,
    verify_assignment,
)
from .momentum import (
    BacktestResult,
    MomentumConfig,
    PartitionReport,
    count_data_points,
    gen_momentum_panel,
    partition_report,
    run_backtest,
    t_statistic,
)

__version__ = "0.1.0"
