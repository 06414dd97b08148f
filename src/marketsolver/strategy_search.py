"""Technical strategy representation, evaluation, and search.

A technical strategy is a fixed lookup table from the last t direction
bits to a position in {-1, 0, +1}. Evaluating one strategy on a series is
a single linear pass; searching all long-or-out tables is exhaustive in
2^(2^t). `optimal_strategy` finds the best long-or-out table in one pass
plus one sweep over the 2^t context buckets, and is validated against the
exhaustive search in the tests.

Profit convention: the position selected after observing the context
ending at period i is held during period i+1 and earns that period's raw
return. Profits are additive in return units; no compounding.

All three kernels read the context codes from `series.context_codes` and
add floats in the same order as a plain loop over the periods would, so
their results do not depend on how the work is blocked.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from math import isfinite
from typing import Iterator, Optional

import numpy as np

from .errors import CapacityError, InvalidWindowError
from .series import PriceSeries, context_codes

# Exhaustive-search guards. 2^(2^5) tables and 3^13 sequences are beyond
# desk scale; anything above these limits raises CapacityError.
MAX_BRUTE_LOOKBACK = 4
MAX_SEQUENCE_LENGTH = 12

# The profit kernel works on (periods x tables) float64 blocks of at most
# this many bytes, over at most this many tables at a time.
PROFIT_BLOCK_BYTES = 256 * 1024
PROFIT_BLOCK_TABLES = 1024

LONG = 1
OUT = 0
SHORT = -1


@dataclass(frozen=True)
class TechnicalStrategy:
    """Position table over all 2^lookback direction contexts.

    table[code] is the position taken after observing the context with
    that code. A long_or_out strategy never goes short: every entry is
    0 or +1.
    """

    lookback: int
    table: tuple[int, ...]
    long_or_out: bool = False

    def __post_init__(self):
        if self.lookback < 1:
            raise ValueError("lookback must be a positive integer")
        if len(self.table) != (1 << self.lookback):
            raise ValueError(
                f"table length {len(self.table)} != 2^{self.lookback}"
            )
        allowed = (OUT, LONG) if self.long_or_out else (SHORT, OUT, LONG)
        if any(p not in allowed for p in self.table):
            raise ValueError(f"positions must be in {allowed}")

    def bitmask(self) -> int:
        """Pack a long-or-out table into an integer, context code = bit index."""
        if not self.long_or_out:
            raise ValueError("bitmask is defined for long-or-out tables only")
        mask = 0
        for code, pos in enumerate(self.table):
            if pos == LONG:
                mask |= 1 << code
        return mask

    def to_json(self) -> str:
        return json.dumps(
            {
                "lookback": self.lookback,
                "table": list(self.table),
                "long_or_out": self.long_or_out,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TechnicalStrategy":
        obj = json.loads(text)
        return cls(
            lookback=int(obj["lookback"]),
            table=tuple(int(p) for p in obj["table"]),
            long_or_out=bool(obj["long_or_out"]),
        )


@dataclass(frozen=True)
class PositionSequence:
    """An arbitrary per-period position path, one entry per period."""

    positions: tuple[int, ...]

    def __post_init__(self):
        if any(p not in (SHORT, OUT, LONG) for p in self.positions):
            raise ValueError("positions must be in {-1, 0, +1}")

    def __len__(self) -> int:
        return len(self.positions)


@dataclass
class ContextBuckets:
    """Subsequent returns gathered per context code.

    buckets[code] lists, in order of occurrence, the return of the period
    immediately after each occurrence of that context. The final context
    of a series has no subsequent return, so the bucketed total is n - t.
    """

    lookback: int
    buckets: dict[int, list[float]] = field(default_factory=dict)

    def total(self, code: int) -> float:
        return sum(self.buckets.get(code, ()))

    def count(self) -> int:
        return sum(len(v) for v in self.buckets.values())


@dataclass(frozen=True)
class CriticalValue:
    """Profit threshold separating significant strategies from noise.

    The equilibrium model backing a significance test collapses into this
    single number; callers pick it, this module only compares against it.
    """

    K: float

    def __post_init__(self):
        if not isfinite(self.K):
            raise ValueError("critical value must be finite")

    def beaten_by(self, profit: float) -> bool:
        """Does `profit` beat the threshold, strictly?"""
        return bool(profit > self.K)


@dataclass
class WorkCounter:
    """Instrumented work units for the scaling benchmarks and tests."""

    periods_scanned: int = 0
    strategies_evaluated: int = 0


def _tradable(series: PriceSeries, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(context code, next return) for every period that follows a full window."""
    return context_codes(series.returns, t)[:-1], series.returns[t:]


def _table_profits(
    positions: np.ndarray, codes: np.ndarray, nxt: np.ndarray
) -> np.ndarray:
    """Profit of each table column in `positions` (contexts x tables).

    Each profit is 0.0 plus position * return over the periods in time
    order, exactly as a scalar loop adds them.
    """
    # Summing axis 0 of a C-order (periods x tables) block adds row by row,
    # in time order; numpy would sum a one-column block as a 1-D array
    # (pairwise), so a single table gets a zero column beside it.
    n_tables = positions.shape[1]
    if n_tables == 1:
        positions = np.hstack([positions, np.zeros_like(positions)])
    width = positions.shape[1]
    rows = max(1, PROFIT_BLOCK_BYTES // (8 * width))
    block = np.empty((rows + 1, width))
    acc = np.zeros(width)
    for start in range(0, len(codes), rows):
        k = min(rows, len(codes) - start)
        block[0] = acc
        gathered = block[1 : k + 1]
        np.take(positions, codes[start : start + k], axis=0, out=gathered, mode="clip")
        gathered *= nxt[start : start + k, None]
        acc = block[: k + 1].sum(axis=0)
    return acc[:n_tables]


def evaluate(
    strategy: TechnicalStrategy,
    series: PriceSeries,
    counter: Optional[WorkCounter] = None,
) -> float:
    """Profit of one strategy on one series, in a single linear pass.

    Scans each of the n periods exactly once: the period both closes the
    rolling context and pays the previously selected position.
    """
    t = strategy.lookback
    n = len(series)
    if t > n:
        raise InvalidWindowError(f"lookback {t} exceeds series length {n}")
    codes, nxt = _tradable(series, t)
    positions = np.array(strategy.table, dtype=np.float64)[:, None]
    profit = float(_table_profits(positions, codes, nxt)[0])
    if counter is not None:
        counter.periods_scanned += n
        counter.strategies_evaluated += 1
    return profit


def best_position_sequence(series: PriceSeries) -> tuple[PositionSequence, float]:
    """The unconstrained optimum: long every up period, short every down one.

    Not a bona fide strategy (it is a hindsight position path, not a
    function of prior data); its profit sum(|r|) is the ceiling any
    strategy's profit can be compared against.
    """
    returns = series.returns.tolist()
    positions = tuple(LONG if r > 0 else (SHORT if r < 0 else OUT) for r in returns)
    profit = sum(abs(r) for r in returns)
    return PositionSequence(positions=positions), profit


def _check_enumerable(t: int) -> None:
    if t < 1:
        raise InvalidWindowError(f"lookback must be >= 1, got {t}")
    if t > MAX_BRUTE_LOOKBACK:
        raise CapacityError(
            f"lookback {t} exceeds enumeration guard {MAX_BRUTE_LOOKBACK}"
        )


def enumerate_long_or_out(t: int) -> Iterator[TechnicalStrategy]:
    """Yield all 2^(2^t) long-or-out tables in ascending bitmask order."""
    _check_enumerable(t)
    n_contexts = 1 << t
    for mask in range(1 << n_contexts):
        table = tuple((mask >> code) & 1 for code in range(n_contexts))
        yield TechnicalStrategy(lookback=t, table=table, long_or_out=True)


def enumerate_position_sequences(n: int) -> Iterator[PositionSequence]:
    """Yield all 3^n position paths of length n."""
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    if n > MAX_SEQUENCE_LENGTH:
        raise CapacityError(
            f"length {n} exceeds enumeration guard {MAX_SEQUENCE_LENGTH}"
        )
    for combo in itertools.product((SHORT, OUT, LONG), repeat=n):
        yield PositionSequence(positions=combo)


def brute_force_best(
    series: PriceSeries,
    t: int,
    counter: Optional[WorkCounter] = None,
) -> tuple[TechnicalStrategy, float]:
    """Exhaustively evaluate every long-or-out table and keep the best.

    Every table is scored over the full series by the profit kernel, in
    ascending bitmask order; ties break to the lowest bitmask (the first
    maximum). Cost is 2^(2^t) full-series evaluations.
    """
    n = len(series)
    if t > n:
        raise InvalidWindowError(f"lookback {t} exceeds series length {n}")
    _check_enumerable(t)
    codes, nxt = _tradable(series, t)
    n_contexts = 1 << t
    n_tables = 1 << n_contexts
    bit = np.arange(n_contexts)[:, None]
    profits = np.empty(n_tables)
    for first in range(0, n_tables, PROFIT_BLOCK_TABLES):
        masks = np.arange(first, min(n_tables, first + PROFIT_BLOCK_TABLES))
        positions = ((masks >> bit) & 1).astype(np.float64)
        profits[first : first + len(masks)] = _table_profits(positions, codes, nxt)
    best = int(np.argmax(profits))
    if counter is not None:
        counter.strategies_evaluated += n_tables
    table = tuple((best >> code) & 1 for code in range(n_contexts))
    strategy = TechnicalStrategy(lookback=t, table=table, long_or_out=True)
    return strategy, float(profits[best])


def bucket_contexts(series: PriceSeries, t: int) -> ContextBuckets:
    """Gather each context's subsequent returns.

    Only contexts followed by at least one more period are bucketed, so
    the bucketed return count is exactly n - t.
    """
    n = len(series)
    if t < 1:
        raise InvalidWindowError(f"lookback must be >= 1, got {t}")
    if t >= n:
        raise InvalidWindowError(
            f"lookback {t} leaves no subsequent period in a series of length {n}"
        )
    buckets: dict[int, list[float]] = {}
    codes, nxt = _tradable(series, t)
    for code, r in zip(codes.tolist(), nxt.tolist()):
        buckets.setdefault(code, []).append(r)
    return ContextBuckets(lookback=t, buckets=buckets)


def optimal_strategy(
    series: PriceSeries,
    t: int,
    counter: Optional[WorkCounter] = None,
) -> tuple[TechnicalStrategy, float]:
    """Best long-or-out table, in time proportional to n + 2^t.

    Go long exactly the contexts whose subsequent returns sum positive; a
    bucket sum of zero stays out (indifference with no transaction costs).
    The profit is the sum of the positive bucket sums, which dominates
    every long-or-out table's profit on this series. Bucket sums add in
    time order and the profit adds them in order of each context's first
    occurrence.
    """
    n = len(series)
    if t < 1:
        raise InvalidWindowError(f"lookback must be >= 1, got {t}")
    if t >= n:
        raise InvalidWindowError(
            f"lookback {t} leaves no subsequent period in a series of length {n}"
        )
    codes, nxt = _tradable(series, t)
    n_contexts = 1 << t
    sums = np.bincount(codes, weights=nxt, minlength=n_contexts)
    first_seen = np.full(n_contexts, len(codes))
    np.minimum.at(first_seen, codes, np.arange(len(codes)))
    seen = np.flatnonzero(first_seen < len(codes))
    in_order = sums[seen[np.argsort(first_seen[seen])]]
    gains = in_order[in_order > 0]
    profit = float(np.cumsum(gains)[-1]) if len(gains) else 0.0
    if counter is not None:
        counter.periods_scanned += n
    table = tuple(np.where(sums > 0, LONG, OUT).tolist())
    strategy = TechnicalStrategy(lookback=t, table=table, long_or_out=True)
    return strategy, profit


def decide_q3(series: PriceSeries, t: int, critical: CriticalValue) -> bool:
    """Does any long-or-out strategy beat the critical profit, strictly?"""
    _, profit = optimal_strategy(series, t)
    return critical.beaten_by(profit)
