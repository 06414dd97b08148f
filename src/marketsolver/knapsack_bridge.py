"""Exact knapsack solvers and the market/knapsack correspondence.

Budget-constrained long-or-out strategy selection over several assets is
the same problem as 0/1 knapsack: each distinct direction context is an
item whose size is the capital needed to buy at its occurrences and whose
value is the return earned after them. Both reduction directions live
here, plus a pseudo-polynomial DP solver and the subset-enumeration brute
force that validates it.

All knapsack quantities are positive integers in units of a configurable
tick; prices and returns must quantize exactly.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapacityError, QuantizationError
from .series import PriceSeries, context_codes
from .strategy_search import LONG, OUT, TechnicalStrategy

MAX_BRUTE_ITEMS = 25
MAX_DP_CELLS = 50_000_000


@dataclass(frozen=True)
class KnapsackInstance:
    """Decision/optimization instance: items (size, value), budget, target."""

    items: tuple[tuple[int, int], ...]
    budget: int
    target: int

    def __post_init__(self):
        for i, (s, v) in enumerate(self.items):
            if s < 1 or v < 1:
                raise ValueError(f"item {i} must have positive size and value, got {(s, v)}")
        if self.budget < 1:
            raise ValueError("budget must be a positive integer")
        if self.target < 1:
            raise ValueError("target must be a positive integer")

    def to_json(self) -> str:
        return json.dumps(
            {
                "items": [{"size": s, "value": v} for s, v in self.items],
                "budget": self.budget,
                "target": self.target,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "KnapsackInstance":
        obj = json.loads(text)
        return cls(
            items=tuple((int(it["size"]), int(it["value"])) for it in obj["items"]),
            budget=int(obj["budget"]),
            target=int(obj["target"]),
        )


@dataclass(frozen=True)
class KnapsackSolution:
    chosen: tuple[int, ...]
    total_size: int
    total_value: int


@dataclass
class MultiAssetScenario:
    """Several equal-length price series plus budget and profit targets.

    budget and target are integers in tick units; every price and return
    in every series must be an exact multiple of the tick.
    """

    assets: list[PriceSeries]
    lookback: int
    budget: int
    target: int
    tick: float = 1.0

    def __post_init__(self):
        if self.lookback < 1:
            raise ValueError("lookback must be a positive integer")
        if self.budget < 1 or self.target < 1:
            raise ValueError("budget and target must be positive integers")
        if not 0 < self.tick < math.inf:
            raise ValueError("tick must be positive and finite")
        if not self.assets:
            raise ValueError("scenario needs at least one asset")
        lengths = {len(a) for a in self.assets}
        if len(lengths) != 1:
            raise ValueError(f"asset series must share one length, got {sorted(lengths)}")
        n = lengths.pop()
        if n < self.lookback + 1:
            raise ValueError(
                f"series length {n} too short for lookback {self.lookback} plus one holding period"
            )
        for a in self.assets:
            # raises QuantizationError on the first misfit
            ticks_array(np.concatenate([a.prices, a.returns]), self.tick)


def ticks_array(values, tick: float) -> np.ndarray:
    """Convert prices or returns to int64 tick counts, exactly.

    Each value must lie within 1e-9 (relative) of a whole number of ticks;
    halves round to even. Non-finite values and counts beyond the int64
    range raise QuantizationError, naming the first offending value.
    """
    x = np.asarray(values, dtype=np.float64)
    with np.errstate(all="ignore"):
        q = x / tick
        r = np.rint(q)
        bad = ~(np.abs(r) < 2.0**63) | (np.abs(q - r) > 1e-9 * np.maximum(1.0, np.abs(q)))
    if bad.any():
        i = int(np.argmax(bad))
        v = float(x.flat[i])
        if not math.isfinite(v):
            raise QuantizationError(f"{v} is not a finite price or return")
        if not abs(r.flat[i]) < 2.0**63:
            raise QuantizationError(f"{v} at tick {tick} is beyond the int64 tick range")
        raise QuantizationError(f"{v} is not a multiple of tick {tick}")
    return r.astype(np.int64)


def to_ticks(x: float, tick: float) -> int:
    """Convert one price or return to an integer tick count, exactly."""
    return int(ticks_array(x, tick))


def solve_bruteforce(inst: KnapsackInstance) -> KnapsackSolution:
    """Enumerate every subset; the oracle the DP is checked against.

    Ties on value break to the lexicographically smallest index set.
    """
    n = len(inst.items)
    if n > MAX_BRUTE_ITEMS:
        raise CapacityError(f"{n} items exceeds brute-force guard {MAX_BRUTE_ITEMS}")
    # Subset sums by doubling: index = bitmask, bit i = item i.
    sizes = np.zeros(1, dtype=np.int64)
    values = np.zeros(1, dtype=np.int64)
    for s, v in inst.items:
        sizes = np.concatenate([sizes, sizes + s])
        values = np.concatenate([values, values + v])
    feasible = sizes <= inst.budget
    best_value = int(values[feasible].max()) if feasible.any() else 0
    candidates = np.nonzero(feasible & (values == best_value))[0]

    def index_set(mask: int) -> tuple[int, ...]:
        return tuple(i for i in range(n) if (mask >> i) & 1)

    chosen = min((index_set(int(m)) for m in candidates), default=())
    total_size = sum(inst.items[i][0] for i in chosen)
    return KnapsackSolution(chosen=chosen, total_size=total_size, total_value=best_value)


def solve_dp(inst: KnapsackInstance) -> KnapsackSolution:
    """Standard table over budgets 0..B, pseudo-polynomial in B."""
    n = len(inst.items)
    if (inst.budget + 1) * (n + 1) > MAX_DP_CELLS:
        raise CapacityError(
            f"DP table of {(inst.budget + 1) * (n + 1)} cells exceeds cap {MAX_DP_CELLS}"
        )
    # dp[i][b]: best value using items < i within budget b.
    dp = np.zeros((n + 1, inst.budget + 1), dtype=np.int64)
    for i, (s, v) in enumerate(inst.items):
        dp[i + 1] = dp[i]
        if s <= inst.budget:
            taken = dp[i, : inst.budget - s + 1] + v
            dp[i + 1, s:] = np.maximum(dp[i, s:], taken)
    best_value = int(dp[n, inst.budget])
    # Walk the table back to a witness subset.
    chosen = []
    b = inst.budget
    for i in range(n, 0, -1):
        if dp[i, b] != dp[i - 1, b]:
            s, _ = inst.items[i - 1]
            chosen.append(i - 1)
            b -= s
    chosen.reverse()
    total_size = sum(inst.items[i][0] for i in chosen)
    return KnapsackSolution(
        chosen=tuple(chosen), total_size=total_size, total_value=best_value
    )


def decide_knapsack(inst: KnapsackInstance) -> bool:
    """Can some subset fit the budget and reach the target value (>= K)?"""
    return solve_dp(inst).total_value >= inst.target


def _occurrence_ticks(sc: MultiAssetScenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every context occurrence over all assets: (codes, sizes, values).

    An occurrence is a context window followed by at least one more period;
    its size is the price level at the window's end, its value the next
    period's return, both in ticks. Raises QuantizationError if a total
    of either could leave the int64 range, so every sum of them is exact.
    """
    t = sc.lookback
    codes, sizes, values = [], [], []
    for series in sc.assets:
        codes.append(context_codes(series.returns, t)[:-1])
        sizes.append(ticks_array(series.prices[t - 1 : -1], sc.tick))
        values.append(ticks_array(series.returns[t:], sc.tick))
    codes, sizes, values = (np.concatenate(x) for x in (codes, sizes, values))
    for ticks in (sizes, values):
        if np.abs(ticks.astype(np.float64)).sum() >= 2.0**62:
            raise QuantizationError("tick totals exceed the exact int64 range")
    return codes, sizes, values


def _aggregate_contexts(sc: MultiAssetScenario) -> dict[int, tuple[int, int]]:
    """Per-context (size, value) tick totals over all occurrences, all assets.

    Keys are the context codes that occur, ascending. Contexts are shared
    across assets because one strategy must treat the same pattern
    identically everywhere.
    """
    codes, sizes, values = _occurrence_ticks(sc)
    present, item = np.unique(codes, return_inverse=True)
    size = np.zeros(len(present), dtype=np.int64)
    value = np.zeros(len(present), dtype=np.int64)
    np.add.at(size, item, sizes)
    np.add.at(value, item, values)
    return dict(zip(present.tolist(), zip(size.tolist(), value.tolist())))


def scenario_to_knapsack(
    sc: MultiAssetScenario,
) -> tuple[KnapsackInstance, dict[int, int]]:
    """Forward reduction: one item per profitable context.

    Contexts whose aggregate value is <= 0 ticks are dropped: they cannot
    help reach the target and only consume budget, so the decision is
    unchanged. Returns the instance plus the context-code -> item-index
    map for the survivors.
    """
    agg = _aggregate_contexts(sc)
    mapping: dict[int, int] = {}
    items: list[tuple[int, int]] = []
    for code in sorted(agg):
        size, value = agg[code]
        if value <= 0:
            continue
        mapping[code] = len(items)
        items.append((size, value))
    inst = KnapsackInstance(
        items=tuple(items), budget=sc.budget, target=sc.target
    )
    return inst, mapping


def knapsack_to_scenario(
    inst: KnapsackInstance, tick: float = 1.0
) -> MultiAssetScenario:
    """Backward reduction: one synthetic asset per item.

    Item u becomes an asset whose first t direction bits spell u's index
    (so each item owns a distinct context), whose price level at the end
    of that window is s(u) ticks, and whose final return is v(u) ticks.
    Deciding the scenario then answers the original instance.
    """
    m = len(inst.items)
    if m < 1:
        raise ValueError("instance must have at least one item")
    t = max(1, math.ceil(math.log2(m)))
    assets = []
    for u, (s, v) in enumerate(inst.items):
        bits = [(u >> (t - 1 - j)) & 1 for j in range(t)]
        returns = [tick if b else -tick for b in bits] + [v * tick]
        prices = [s * tick] * (t + 1)
        assets.append(PriceSeries(returns=tuple(returns), prices=tuple(prices)))
    return MultiAssetScenario(
        assets=assets,
        lookback=t,
        budget=inst.budget,
        target=inst.target,
        tick=tick,
    )


def decide_q4(
    sc: MultiAssetScenario,
) -> tuple[bool, Optional[TechnicalStrategy]]:
    """Budget-constrained strategy decision via the knapsack reduction.

    Reduces, solves by DP, and converts the chosen items back to a
    long-or-out table. A YES answer is re-verified directly against the
    scenario: the witness's realized profit must reach the target and its
    summed entry prices must fit the budget, both in tick units.
    """
    inst, mapping = scenario_to_knapsack(sc)
    if not inst.items:
        return False, None
    sol = solve_dp(inst)
    if sol.total_value < sc.target:
        return False, None
    chosen_codes = {code for code, idx in mapping.items() if idx in set(sol.chosen)}
    table = [OUT] * (1 << sc.lookback)
    for code in chosen_codes:
        table[code] = LONG
    witness = TechnicalStrategy(
        lookback=sc.lookback, table=tuple(table), long_or_out=True
    )
    profit_ticks, cost_ticks = realized_profit_and_cost(sc, witness)
    if profit_ticks < sc.target or cost_ticks > sc.budget:
        raise AssertionError(
            "reduction witness failed direct re-verification; "
            f"profit={profit_ticks} target={sc.target} cost={cost_ticks} budget={sc.budget}"
        )
    return True, witness


def realized_profit_and_cost(
    sc: MultiAssetScenario, strategy: TechnicalStrategy
) -> tuple[int, int]:
    """Directly replay a strategy on a scenario: (profit, cost) in ticks.

    Profit sums the post-occurrence returns of every long context; cost
    sums the entry price at each of those occurrences.
    """
    if strategy.lookback != sc.lookback:
        raise ValueError("strategy lookback does not match scenario lookback")
    codes, sizes, values = _occurrence_ticks(sc)
    held = np.asarray(strategy.table)[codes] == LONG
    return int(values[held].sum()), int(sizes[held].sum())


def write_scenario_csv(sc: MultiAssetScenario) -> tuple[str, dict]:
    """Serialize to the panel CSV format plus the JSON sidecar dict."""
    n = len(sc.assets[0])
    months = [f"{2000 + i // 12:04d}-{i % 12 + 1:02d}" for i in range(n)]
    lines = ["date,asset,return,price"]
    for a_idx, series in enumerate(sc.assets):
        name = f"A{a_idx:04d}"
        lines.extend(
            f"{month},{name},{r!r},{p!r}"
            for month, r, p in zip(months, series.returns.tolist(), series.prices.tolist())
        )
    sidecar = {
        "lookback": sc.lookback,
        "budget": sc.budget,
        "target": sc.target,
        "tick": sc.tick,
    }
    return "\n".join(lines) + "\n", sidecar


def read_scenario_csv(csv_text: str, sidecar: dict) -> MultiAssetScenario:
    """Rebuild a scenario from the CSV panel plus its sidecar."""
    from .series import load_panel_csv

    panel = load_panel_csv(csv_text)
    assets = []
    for name in panel.assets:
        keys = list(zip(itertools.repeat(name), panel.months))
        rets = list(map(panel.returns.get, keys))
        prices = list(map(panel.prices.get, keys))
        if None in prices:
            # a row without a return carries no price either, so the first
            # missing price is the first incomplete month
            gap = prices.index(None)
            m = panel.months[gap]
            if rets[gap] is None:
                raise ValueError(f"scenario asset {name!r} has a hole at {m!r}")
            raise ValueError(f"scenario asset {name!r} is missing a price at {m!r}")
        assets.append(PriceSeries(returns=rets, prices=prices))
    return MultiAssetScenario(
        assets=assets,
        lookback=int(sidecar["lookback"]),
        budget=int(sidecar["budget"]),
        target=int(sidecar["target"]),
        tick=float(sidecar["tick"]),
    )
