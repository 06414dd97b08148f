"""Exception types shared across the package."""


class MarketSolverError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidWindowError(MarketSolverError):
    """Lookback window does not fit the series it is applied to."""


class CapacityError(MarketSolverError):
    """A size guard was exceeded (enumeration, DP table, exhaustive search)."""


class PanelParseError(MarketSolverError):
    """Malformed panel CSV row."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DuplicateRowError(PanelParseError):
    """Two panel rows carry the same (asset, date) key."""


class QuantizationError(MarketSolverError):
    """A price or return is not an exact multiple of the tick."""


class InstanceFormatError(MarketSolverError):
    """A knapsack instance or scenario sidecar field is missing or not a JSON integer."""


class CompletenessError(MarketSolverError):
    """A variable assignment or tick map is missing required entries."""


class DimacsFormatError(MarketSolverError):
    """DIMACS input violates the cnf header or token grammar."""


class WitnessFormatError(MarketSolverError):
    """A witness is not a JSON object of variable numbers to booleans."""


class ClauseArityError(MarketSolverError):
    """A CNF clause does not have exactly three literals."""

    def __init__(self, clause_number: int, arity: int):
        super().__init__(
            f"clause {clause_number} has {arity} literals, expected exactly 3"
        )
        self.clause_number = clause_number
        self.arity = arity


class InsufficientDataError(MarketSolverError):
    """Panel does not span enough months for the requested backtest."""


class DegenerateSampleError(MarketSolverError):
    """Sample too small or zero-variance for a t-statistic."""


class ResultOverflowError(MarketSolverError):
    """A result overflowed float64: it is infinite or not a number."""
