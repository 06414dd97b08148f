"""Exact knapsack solvers and the market/knapsack correspondence.

Budget-constrained long-or-out strategy selection over several assets is
the same problem as 0/1 knapsack: each distinct direction context is an
item whose size is the capital needed to buy at its occurrences and whose
value is the return earned after them. Both reduction directions live
here, plus the exact solver `solve_dp` and the subset-enumeration brute
force that validates it.

`solve_dp` has two paths and picks one by counted work. With n items of
which n' fit the budget B, it enumerates the 2**n' subsets when n' is at
most MAX_SUBSET_ITEMS (20) and 2**n' * SUBSET_ENTRY_WEIGHT is below the
DP's (n+1)*(B+1) cells; otherwise it runs the pseudo-polynomial DP. The
weight W is the measured cost of one subset entry in DP cells; counting
both in raw units would send 20 items at B = 150,000 to the slower path.
A reduced scenario has a few items and a budget in cents, so it takes the
subset path; many items with a small budget take the DP.

All knapsack quantities are positive integers in units of a configurable
tick; prices and returns must quantize exactly.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import CapacityError, InstanceFormatError, QuantizationError
from . import series
from .strategy_search import LONG, MAX_TABLE_BITS, OUT, TechnicalStrategy, _tradable

MAX_BRUTE_ITEMS = 25
MAX_DP_CELLS = 50_000_000
# The subset path holds two arrays of 2**n' entries: 16 MB at 20 items.
MAX_SUBSET_ITEMS = 20
# Cost of one subset entry (build plus walk back) in DP cells. Timed on
# 2-vCPU x86-64, numpy 2.4: an entry costs 9-23 ns at 14-20 items, a DP
# cell 0.7-2 ns, and the two paths cross at weights of 8-17.
SUBSET_ENTRY_WEIGHT = 10


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
        """Parse the to_json format; every field must be a JSON integer.

        One leading byte-order mark (U+FEFF) is dropped.
        """
        obj = json.loads(text.removeprefix(series.BOM))
        items = obj.get("items") if isinstance(obj, dict) else None
        if not isinstance(items, list):
            raise InstanceFormatError('instance must be a JSON object with an "items" list')
        return cls(
            items=tuple(
                (_json_int(it, "size", f"item {i}"), _json_int(it, "value", f"item {i}"))
                for i, it in enumerate(items)
            ),
            budget=_json_int(obj, "budget", "instance"),
            target=_json_int(obj, "target", "instance"),
        )


def _json_int(obj, key: str, where: str) -> int:
    """obj[key] if it is a JSON integer; floats, bools and strings are refused.

    Coercing them with int() would silently answer a different instance.
    """
    if not isinstance(obj, dict) or key not in obj:
        raise InstanceFormatError(f"{where} has no {key!r} field")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InstanceFormatError(
            f"{where} field {key!r} must be a JSON integer, got {json.dumps(value)}"
        )
    return value


@dataclass(frozen=True)
class KnapsackSolution:
    chosen: tuple[int, ...]
    total_size: int
    total_value: int


@dataclass(frozen=True, eq=False)
class MultiAssetScenario:
    """Returns and price levels of several assets plus budget and profit targets.

    `returns` and `prices` are read-only assets x periods float64 matrices
    (a read-only float64 array is kept, anything else copied), prices > 0;
    budget, target and every price and return are whole ticks, and the
    lookback leaves a period to hold (1 <= lookback < periods).

    The scenario is read as its context occurrences, asset by asset: an
    occurrence is a context window followed by one more period. `codes`
    holds each occurrence's context code, `sizes` the price level at the
    window's end and `values` the next period's return, both in ticks and
    totalling within the int64 range. All are read-only, computed here.
    """

    returns: np.ndarray
    prices: np.ndarray
    lookback: int
    budget: int
    target: int
    tick: float = 1.0
    codes: np.ndarray = field(init=False, repr=False)
    sizes: np.ndarray = field(init=False, repr=False)
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        returns, prices = (np.asarray(a, dtype=np.float64) for a in (self.returns, self.prices))
        if returns.ndim != 2 or returns.shape != prices.shape:
            raise ValueError(f"returns {returns.shape} and prices {prices.shape} need a 2-D shape")
        # prices may be built from the tick, so a bad tick is named first
        if not 0 < self.tick < math.inf:
            raise ValueError("tick must be positive and finite")
        if np.any(prices <= 0):
            raise ValueError("price levels must be strictly positive")
        if self.budget < 1 or self.target < 1:
            raise ValueError("budget and target must be positive integers")
        if not len(returns):
            raise ValueError("scenario needs at least one asset")
        t = self.lookback
        codes = _tradable(returns, t)[0]
        # each raises QuantizationError on its first misfit
        sizes = ticks_array(prices, self.tick)[:, t - 1 : -1]
        values = ticks_array(returns, self.tick)[:, t:]
        for ticks in (sizes, values):
            if np.abs(ticks.astype(np.float64)).sum() >= 2.0**62:
                raise QuantizationError("tick totals exceed the exact int64 range")
        # a writable matrix may be the caller's, so it is copied
        returns, prices = (a.copy() if a.flags.writeable else a for a in (returns, prices))
        # occurrences run asset-major, as the rows do
        for name, value in (("returns", returns), ("prices", prices), ("codes", codes.ravel()),
                            ("sizes", sizes.ravel()), ("values", values.ravel())):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


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


def _exact_int_dtype(total: int, what: str) -> type:
    """Narrowest of int32/int64 that holds every partial sum up to total.

    Raises CapacityError when even int64 would wrap: numpy integers wrap
    silently, so a larger total would give a wrong answer, not an error.
    """
    if total < 2**31:
        return np.int32
    if total < 2**63:
        return np.int64
    raise CapacityError(f"{what} total {total} exceeds the exact int64 range")


def solve_bruteforce(inst: KnapsackInstance) -> KnapsackSolution:
    """Enumerate every subset; the oracle the DP is checked against.

    Ties on value break to the lexicographically smallest index set.
    Subset sums are int64; CapacityError if the sizes or the values
    total 2**63 or more.
    """
    n = len(inst.items)
    if n > MAX_BRUTE_ITEMS:
        raise CapacityError(f"{n} items exceeds brute-force guard {MAX_BRUTE_ITEMS}")
    _exact_int_dtype(sum(s for s, _ in inst.items), "item size")
    _exact_int_dtype(sum(v for _, v in inst.items), "item value")
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
    """Exact 0/1 knapsack: subset enumeration or DP, whichever does less work.

    Both paths answer with the DP's witness. Let F(k, b) be the best value
    of items 0..k-1 within budget b; the walk back from B takes item i
    exactly when F(i+1, b) > F(i, b) at the remaining budget b, so ties
    resolve the same way on either path.

    Items larger than B can never be taken. When at most MAX_SUBSET_ITEMS
    items remain, n' of them, and 2**n' * SUBSET_ENTRY_WEIGHT is below the
    DP's (n+1)*(B+1) cells, the subset path runs (see `_solve_subsets`):
    its cost does not depend on B. Otherwise the DP runs over budgets
    0..B, pseudo-polynomial in B.

    DP: one value row over budgets 0..B holds the best value of the items
    seen so far; it is updated in place per item (s, v) from a separate
    scratch row of row[b - s] + v, so each item is used at most once. Item
    i's take bits, "row[b] rose strictly when item i came in", are packed 8
    budgets to a byte into an n x ceil((B+1)/8) table, and the walk back
    from B takes item i when its bit at the remaining budget is set. Memory
    is about (B+1)*(2*width + 1) + n*(B+1)/8 bytes, and the cell count
    (n+1)*(B+1) is capped at MAX_DP_CELLS.

    Values are int32 when the item values total less than 2**31 and int64
    when they total less than 2**63, exact either way; a larger total
    raises CapacityError on both paths.
    """
    n = len(inst.items)
    budget = inst.budget
    dtype = _exact_int_dtype(sum(v for _, v in inst.items), "item value")
    kept = [i for i, (s, _) in enumerate(inst.items) if s <= budget]
    if (
        len(kept) <= MAX_SUBSET_ITEMS
        and (1 << len(kept)) * SUBSET_ENTRY_WEIGHT < (n + 1) * (budget + 1)
    ):
        return _solve_subsets(inst, kept, dtype)
    if (budget + 1) * (n + 1) > MAX_DP_CELLS:
        raise CapacityError(
            f"DP table of {(budget + 1) * (n + 1)} cells exceeds cap {MAX_DP_CELLS}"
        )
    row = np.zeros(budget + 1, dtype=dtype)
    taken = np.empty(budget + 1, dtype=dtype)
    gain = np.empty(budget + 1, dtype=bool)
    took = np.zeros((n, (budget + 8) // 8), dtype=np.uint8)
    for i, (s, v) in enumerate(inst.items):
        if s > budget:
            continue
        fits = budget - s + 1
        np.add(row[:fits], v, out=taken[:fits])
        gain[:s] = False
        np.greater(taken[:fits], row[s:], out=gain[s:])
        np.maximum(row[s:], taken[:fits], out=row[s:])
        took[i] = np.packbits(gain)
    # Walk the take bits back to a witness subset.
    chosen = []
    b = budget
    for i in range(n - 1, -1, -1):
        if (took[i, b >> 3] >> (7 - (b & 7))) & 1:
            chosen.append(i)
            b -= inst.items[i][0]
    chosen.reverse()
    total_size = sum(inst.items[i][0] for i in chosen)
    return KnapsackSolution(
        chosen=tuple(chosen), total_size=total_size, total_value=int(row[budget])
    )


def _solve_subsets(inst: KnapsackInstance, kept: list[int], dtype: type) -> KnapsackSolution:
    """The DP's answer from the (size, value) table of every subset of `kept`.

    Entry m of the table is the subset whose bit k marks kept item k; it
    is built by doubling, entries [2**k, 2**(k+1)) being entries [0, 2**k)
    plus item k. So the first 2**k entries are the subsets of kept items
    0..k-1, and F(k, b) is the best value among them with size <= b.
    Walking back, kept item k is taken when the best entry holding it
    beats F(k, b), i.e. F(k+1, b) > F(k, b), the DP's own rule.

    F(k, b) is the same for every b at or above the total kept size, so
    the walk starts from min(B, that total). Sizes saturate one above the
    start, so they never wrap, and a saturated entry is too large for
    every budget the walk asks about. Sizes are int32 or int64 as the
    start allows; a start of 2**62 or more raises CapacityError.
    """
    items = inst.items
    start = min(inst.budget, sum(items[i][0] for i in kept))
    full = start + 1
    count = 1 << len(kept)
    sizes = np.zeros(count, dtype=_exact_int_dtype(2 * start + 1, "item size"))
    values = np.zeros(count, dtype=dtype)
    for k, i in enumerate(kept):
        s, v = items[i]
        half = 1 << k
        upper = sizes[half : 2 * half]
        np.add(sizes[:half], s, out=upper)
        np.minimum(upper, full, out=upper)
        np.add(values[:half], v, out=values[half : 2 * half])
    chosen = []
    b = start
    fits = sizes <= b
    for k in range(len(kept) - 1, -1, -1):
        half = 1 << k
        without = values[:half].max(where=fits[:half], initial=0)
        with_k = values[half : 2 * half].max(where=fits[half : 2 * half], initial=0)
        if with_k > without:
            chosen.append(kept[k])
            b -= items[kept[k]][0]
            fits = sizes[:half] <= b
    chosen.reverse()
    return KnapsackSolution(
        chosen=tuple(chosen),
        total_size=sum(items[i][0] for i in chosen),
        total_value=sum(items[i][1] for i in chosen),
    )


def decide_knapsack(inst: KnapsackInstance) -> bool:
    """Can some subset fit the budget and reach the target value (>= K)?"""
    return solve_dp(inst).total_value >= inst.target


def _aggregate_contexts(sc: MultiAssetScenario) -> dict[int, tuple[int, int]]:
    """Per-context (size, value) tick totals over all occurrences, all assets.

    Keys are the context codes that occur, ascending. Contexts are shared
    across assets because one strategy must treat the same pattern
    identically everywhere.
    """
    present, item = np.unique(sc.codes, return_inverse=True)
    size = np.zeros(len(present), dtype=np.int64)
    value = np.zeros(len(present), dtype=np.int64)
    np.add.at(size, item, sc.sizes)
    np.add.at(value, item, sc.values)
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
    Deciding the scenario then answers the original instance. A size or
    value beyond the float range raises QuantizationError.
    """
    m = len(inst.items)
    if m < 1:
        raise ValueError("instance must have at least one item")
    t = max(1, math.ceil(math.log2(m)))
    try:
        sizes, values = np.array(inst.items, dtype=np.float64).T
    except OverflowError:
        u = next(u for u, item in enumerate(inst.items) if max(item) > sys.float_info.max)
        raise QuantizationError(f"item {u} has a size or value beyond the float range") from None
    bits = (np.arange(m)[:, None] >> np.arange(t - 1, -1, -1)) & 1
    with np.errstate(over="ignore"):  # inf, as float math gives; quantising refuses it
        returns = np.column_stack([np.where(bits, tick, -tick), values * tick])
        # read-only, so the scenario keeps this view: one level per item
        prices = np.broadcast_to(sizes[:, None] * tick, (m, t + 1))
    returns.setflags(write=False)
    return MultiAssetScenario(
        returns=returns, prices=prices, lookback=t, budget=inst.budget, target=inst.target,
        tick=tick,
    )


def decide_q4(sc: MultiAssetScenario) -> tuple[bool, Optional[TechnicalStrategy]]:
    """Budget-constrained strategy decision via the knapsack reduction.

    Reduces the scenario, then decides it with `decide_reduced`.
    """
    inst, mapping = scenario_to_knapsack(sc)
    return decide_reduced(sc, inst, mapping)


def decide_reduced(
    sc: MultiAssetScenario, inst: KnapsackInstance, mapping: dict[int, int]
) -> tuple[bool, Optional[TechnicalStrategy]]:
    """Decide a scenario from its reduction (`scenario_to_knapsack`'s output).

    Solves the instance by `solve_dp` and converts the chosen items back
    to a long-or-out table. The instance's budget and target are the ones
    decided, so a caller may raise the target without rebuilding the
    scenario. A YES answer is re-verified directly against the scenario:
    the witness's realized profit must reach the target and its summed
    entry prices must fit the budget, both in tick units.

    The witness table has 2**lookback entries, so a lookback above
    MAX_TABLE_BITS raises CapacityError before anything is solved.
    """
    if sc.lookback > MAX_TABLE_BITS:
        raise CapacityError(
            f"lookback {sc.lookback} exceeds the {MAX_TABLE_BITS}-bit table limit"
        )
    if not inst.items:
        return False, None
    sol = solve_dp(inst)
    if sol.total_value < inst.target:
        return False, None
    chosen = set(sol.chosen)
    table = [OUT] * (1 << sc.lookback)
    for code, idx in mapping.items():
        if idx in chosen:
            table[code] = LONG
    witness = TechnicalStrategy(
        lookback=sc.lookback, table=tuple(table), long_or_out=True
    )
    profit_ticks, cost_ticks = realized_profit_and_cost(sc, witness)
    if profit_ticks < inst.target or cost_ticks > inst.budget:
        raise AssertionError(
            "reduction witness failed direct re-verification; "
            f"profit={profit_ticks} target={inst.target} "
            f"cost={cost_ticks} budget={inst.budget}"
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
    held = np.asarray(strategy.table)[sc.codes] == LONG
    return int(sc.values[held].sum()), int(sc.sizes[held].sum())


def write_scenario_csv(sc: MultiAssetScenario) -> tuple[str, dict]:
    """Serialize to the panel CSV format plus the JSON sidecar dict."""
    n = sc.returns.shape[1]
    months = [f"{2000 + i // 12:04d}-{i % 12 + 1:02d}" for i in range(n)]
    lines = ["date,asset,return,price"]
    for a_idx, (returns, prices) in enumerate(zip(sc.returns, sc.prices)):
        name = f"A{a_idx:04d}"
        lines.extend(
            f"{month},{name},{r!r},{p!r}"
            for month, r, p in zip(months, returns.tolist(), prices.tolist())
        )
    sidecar = {
        "lookback": sc.lookback,
        "budget": sc.budget,
        "target": sc.target,
        "tick": sc.tick,
    }
    return "\n".join(lines) + "\n", sidecar


def read_scenario_csv(csv_text: str, sidecar: dict) -> MultiAssetScenario:
    """Rebuild a scenario from the CSV panel plus its sidecar.

    The sidecar's lookback, budget and target must be JSON integers and
    its tick a positive, finite JSON number. Every cell needs a return
    and a price; the panel's matrices become the scenario's as they are.
    """
    lookback, budget, target = (
        _json_int(sidecar, key, "sidecar") for key in ("lookback", "budget", "target")
    )
    tick = sidecar.get("tick")
    # an integer beyond the float range would fail float() with OverflowError
    if isinstance(tick, bool) or not isinstance(tick, (int, float)) or not (
        0 < tick <= sys.float_info.max
    ):
        raise InstanceFormatError(
            f"sidecar field 'tick' must be a JSON number, positive and finite, "
            f"got {json.dumps(tick)}"
        )

    panel = series.load_panel_csv(csv_text)
    returns = panel.return_matrix
    prices = np.full(returns.shape, np.nan) if panel.price_matrix is None else panel.price_matrix
    gaps = np.isnan(prices)
    if gaps.any():
        # a cell without a return carries no price either, so the first
        # missing price is the first incomplete month
        i, j = np.unravel_index(np.argmax(gaps), gaps.shape)
        name, month = panel.assets[i], panel.months[j]
        if math.isnan(returns[i, j]):
            raise ValueError(f"scenario asset {name!r} has a hole at {month!r}")
        raise ValueError(f"scenario asset {name!r} is missing a price at {month!r}")
    return MultiAssetScenario(
        returns=returns, prices=prices, lookback=lookback, budget=budget, target=target,
        tick=float(tick),
    )
