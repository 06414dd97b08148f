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

All three kernels read the context codes from `series.context_codes`
and follow one exact rule: a profit is the true sum of position x return
over the periods held, correctly rounded (Shewchuk's exact summation, as
in `math.fsum`), and the searches compare tables by their true profits.
So on finite returns the optimum, the exhaustive search and `evaluate`
of either's table agree on the same float, and no long-or-out table
evaluates above the optimum.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from math import isfinite
from typing import Iterator, Optional

import numpy as np

from .errors import CapacityError, InvalidWindowError
from .series import PriceSeries, context_codes

# Exhaustive-search guards. 2^(2^5) tables and 3^13 sequences are beyond
# desk scale; anything above these limits raises CapacityError.
MAX_BRUTE_LOOKBACK = 4
MAX_SEQUENCE_LENGTH = 12
# `optimal_strategy` sums every one of the 2^t contexts; beyond this many
# bits that table no longer fits in desk memory.
MAX_TABLE_BITS = 24

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
        """Parse the to_json format; nothing is coerced.

        lookback must be a JSON integer, table a list of JSON integers and
        long_or_out a JSON boolean; anything else raises ValueError naming
        the field.
        """
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("strategy must be a JSON object")
        lookback, table = obj.get("lookback"), obj.get("table")
        long_or_out = obj.get("long_or_out")
        if not _is_json_int(lookback):
            raise ValueError(f"field 'lookback' must be a JSON integer, got {json.dumps(lookback)}")
        if not isinstance(table, list) or not all(map(_is_json_int, table)):
            raise ValueError("field 'table' must be a list of JSON integers")
        if not isinstance(long_or_out, bool):
            raise ValueError(
                f"field 'long_or_out' must be a JSON boolean, got {json.dumps(long_or_out)}"
            )
        return cls(lookback=lookback, table=tuple(table), long_or_out=long_or_out)


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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


def _tradable(returns: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(context code, next return) for every period that follows a full window.

    This is the one window rule, along the last axis of one series' returns
    or of an assets x periods matrix: a lookback t needs 1 <= t < n periods,
    so that a period follows a full window; else InvalidWindowError.
    """
    if t < 1:
        raise InvalidWindowError(f"lookback must be >= 1, got {t}")
    if t >= returns.shape[-1]:
        raise InvalidWindowError(
            f"lookback {t} leaves no subsequent period in a series of length {returns.shape[-1]}"
        )
    return context_codes(returns, t)[..., :-1], returns[..., t:]


def _sum_error_bound(nxt: np.ndarray) -> float:
    """Bound on the rounding error of any float sum over a subset of `nxt`.

    A left-to-right float loop over n terms errs by at most
    gamma_n * sum|x|, gamma_n = n*u / (1 - n*u) with u = 2^-53 (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2002, eq. 4.4). The
    bound n * 2^-51 * sum|x| is at least twice that, which also covers the
    rounding of sum|x| itself. It is inf or NaN for non-finite returns.
    """
    with np.errstate(over="ignore"):
        return len(nxt) * 2.0**-51 * float(np.abs(nxt).sum())


def _rounded_sum(values: list[float]) -> float:
    """The true sum of `values`, correctly rounded; its sign is exact.

    A true sum beyond the float range rounds to the infinity of its sign,
    and non-finite values give what float addition would give.
    """
    try:
        return math.fsum(values)
    except OverflowError:  # 2^-64 times the sum is in range and has its sign
        return math.copysign(math.inf, math.fsum(math.ldexp(v, -64) for v in values))
    except ValueError:  # inf + -inf
        return math.nan


def _buckets(codes: np.ndarray, nxt: np.ndarray) -> dict[int, list[float]]:
    """The returns after each occurring context, in order of occurrence."""
    groups: dict[int, list[float]] = {}
    for code, r in zip(codes.tolist(), nxt.tolist()):
        groups.setdefault(code, []).append(r)
    return groups


def _profit(table: np.ndarray, codes: np.ndarray, nxt: np.ndarray) -> float:
    """A position table's true profit, correctly rounded.

    The sum of position * return over the periods with a nonzero
    position; each product is exact, as positions are -1 or +1.
    """
    held = table[codes]
    rows = held != OUT
    return _rounded_sum((held[rows] * nxt[rows]).tolist())


def _table_profits(
    positions: np.ndarray, codes: np.ndarray, nxt: np.ndarray
) -> np.ndarray:
    """Profit of each table column in `positions` (contexts x tables).

    Each profit is 0.0 plus position * return over the periods in time
    order, exactly as a scalar loop adds them, given at least two tables.
    """
    # Summing axis 0 of a C-order (periods x tables) block adds row by row,
    # in time order; numpy would sum a one-column block as a 1-D array
    # (pairwise).
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
    return acc


def evaluate(
    strategy: TechnicalStrategy,
    series: PriceSeries,
    counter: Optional[WorkCounter] = None,
) -> float:
    """Profit of one strategy on one series, in a single linear pass.

    Scans each of the n periods exactly once: the period both closes the
    rolling context and pays the previously selected position. The
    profit is the true sum, correctly rounded, as the searches report it.
    """
    codes, nxt = _tradable(series.returns, strategy.lookback)
    profit = _profit(np.array(strategy.table), codes, nxt)
    if counter is not None:
        counter.periods_scanned += len(series)
        counter.strategies_evaluated += 1
    return profit


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


def enumerate_position_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """Yield all 3^n position paths of length n."""
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    if n > MAX_SEQUENCE_LENGTH:
        raise CapacityError(
            f"length {n} exceeds enumeration guard {MAX_SEQUENCE_LENGTH}"
        )
    yield from itertools.product((SHORT, OUT, LONG), repeat=n)


def brute_force_best(
    series: PriceSeries,
    t: int,
    counter: Optional[WorkCounter] = None,
) -> tuple[TechnicalStrategy, float]:
    """Exhaustively evaluate every long-or-out table and keep the best.

    Every table is scored over the full series by the float profit
    kernel, in ascending bitmask order. Float profits can tie, or even
    swap, tables whose true profits differ, so when several tables are
    within the rounding bound of the float maximum, the optimum's exact
    sign test settles the contexts on which they differ; ties break to
    the lowest bitmask. The profit returned is the chosen table's true
    profit, correctly rounded. Cost is 2^(2^t) full-series evaluations.
    With non-finite returns the float maximum is kept.
    """
    codes, nxt = _tradable(series.returns, t)
    _check_enumerable(t)
    n_contexts = 1 << t
    n_tables = 1 << n_contexts
    bit = np.arange(n_contexts)[:, None]
    profits = np.empty(n_tables)
    for first in range(0, n_tables, PROFIT_BLOCK_TABLES):
        masks = np.arange(first, min(n_tables, first + PROFIT_BLOCK_TABLES))
        positions = ((masks >> bit) & 1).astype(np.float64)
        profits[first : first + len(masks)] = _table_profits(positions, codes, nxt)
    best = int(np.argmax(profits))
    bound = _sum_error_bound(nxt)
    if 0 < bound < math.inf and math.isfinite(profits[best]):
        # The true best table's float profit is at least the float maximum
        # minus two bounds; a third covers rounding the threshold itself.
        near = np.flatnonzero(profits >= profits[best] - 3 * bound)
        if len(near) > 1:
            best = _exact_best(near, codes, nxt, n_contexts)
    if counter is not None:
        counter.strategies_evaluated += n_tables
    table = ((best >> np.arange(n_contexts)) & 1).tolist()
    strategy = TechnicalStrategy(lookback=t, table=tuple(table), long_or_out=True)
    return strategy, _profit(np.array(table), codes, nxt)


def _exact_best(near: np.ndarray, codes: np.ndarray, nxt: np.ndarray, n_contexts: int) -> int:
    """The lowest bitmask among `near` with the greatest true profit.

    The best table goes long exactly the contexts whose bucket has a
    positive true sum, as in `optimal_strategy`, and its float profit is
    within two rounding bounds of the float maximum, so it is in `near`.
    The tables in `near` agree off the contexts on which they vary; on
    those, the sign of each correctly rounded bucket sum decides.
    """
    varying = int(np.bitwise_or.reduce(near ^ near[0]))
    wanted = ((varying >> np.arange(n_contexts)) & 1).astype(bool)
    rows = wanted[codes]
    best = int(near[0]) & ~varying
    for code, values in _buckets(codes[rows], nxt[rows]).items():
        if _rounded_sum(values) > 0:
            best |= 1 << code
    if best not in near:
        raise AssertionError(f"the sign table {best} is not among the near-best tables")
    return best


def bucket_contexts(series: PriceSeries, t: int) -> dict[int, list[float]]:
    """Each occurring context's subsequent returns, in order of occurrence.

    Only contexts followed by at least one more period are bucketed, so
    the bucketed return count is exactly n - t.
    """
    return _buckets(*_tradable(series.returns, t))


def optimal_strategy(
    series: PriceSeries,
    t: int,
    counter: Optional[WorkCounter] = None,
) -> tuple[TechnicalStrategy, float]:
    """Best long-or-out table, in time proportional to n + 2^t.

    Go long exactly the contexts whose subsequent returns have a positive
    true sum; a bucket that sums to exactly zero stays out (indifference
    with no transaction costs). The profit, the true sum of the positive
    buckets, dominates every long-or-out table's profit on this series;
    it is returned correctly rounded. Float bucket sums decide every
    bucket they decide safely, beyond the rounding bound from zero; the
    rest are summed correctly rounded, whose sign is exact. A lookback
    above MAX_TABLE_BITS raises CapacityError.
    """
    codes, nxt = _tradable(series.returns, t)
    if t > MAX_TABLE_BITS:
        raise CapacityError(f"lookback {t} exceeds the {MAX_TABLE_BITS}-bit table limit")
    sums = np.bincount(codes, weights=nxt, minlength=1 << t)
    rows = ~(np.abs(sums) > _sum_error_bound(nxt))[codes]
    for code, values in _buckets(codes[rows], nxt[rows]).items():
        sums[code] = _rounded_sum(values)
    table = np.where(sums > 0, LONG, OUT)
    profit = _profit(table, codes, nxt)
    if counter is not None:
        counter.periods_scanned += len(series)
    strategy = TechnicalStrategy(lookback=t, table=tuple(table.tolist()), long_or_out=True)
    return strategy, profit


def decide_q3(series: PriceSeries, t: int, critical: CriticalValue) -> bool:
    """Does any long-or-out strategy beat the critical profit, strictly?"""
    _, profit = optimal_strategy(series, t)
    return critical.beaten_by(profit)
