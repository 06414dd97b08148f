"""Price series and panel data model.

Every other module consumes the types defined here: single-asset return
series with price levels, UP/DOWN direction bits, fixed-width direction
contexts read as base-two integers (oldest observation = most significant
bit), and (asset, month) return panels loaded from CSV.

Convention: a zero return counts as DOWN. The binary UP/DOWN model has no
flat case, so the sign function must be total; zero maps to bit 0.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from typing import IO, Iterable, Union

import numpy as np

from .errors import CapacityError, DuplicateRowError, InvalidWindowError, PanelParseError

DEFAULT_START_PRICE = 100.0
# Context codes live in int64 arrays, so a window holds at most 63 bits.
MAX_CONTEXT_BITS = 63
# Lines the bulk CSV parser splits at a time.
PARSE_CHUNK_LINES = 4096


def _float_vector(values: Iterable[float]) -> np.ndarray:
    """A private, read-only, one-dimensional float64 copy of `values`."""
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a one-dimensional sequence, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Per-period returns plus the price level after each period.

    Returns drive direction bits and strategy profits; prices are the
    capital outlay used by budget-constrained selection. Both are stored
    as read-only float64 arrays of equal length, and prices must stay
    strictly positive. No arithmetic relation between them is enforced.
    Two series are equal when their returns and prices are.
    """

    returns: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "returns", _float_vector(self.returns))
        object.__setattr__(self, "prices", _float_vector(self.prices))
        if len(self.prices) != len(self.returns):
            raise ValueError(
                f"prices length {len(self.prices)} != returns length {len(self.returns)}"
            )
        if np.any(self.prices <= 0):
            raise ValueError("price levels must be strictly positive")

    def __len__(self) -> int:
        return len(self.returns)

    def __eq__(self, other):
        if not isinstance(other, PriceSeries):
            return NotImplemented
        return np.array_equal(self.returns, other.returns) and np.array_equal(
            self.prices, other.prices
        )

    @classmethod
    def from_returns(
        cls, returns: Iterable[float], start: float = DEFAULT_START_PRICE
    ) -> "PriceSeries":
        """Build a series with price levels compounded from `start`.

        Levels are cumulative products start * prod(1 + r), multiplied in
        period order. Used when an input carries returns only (e.g. a CSV
        without a price column); returns must exceed -1 so levels stay
        positive.
        """
        rets = _float_vector(returns)
        factors = np.concatenate(([float(start)], 1.0 + rets))
        with np.errstate(over="ignore"):  # overflow gives inf, as float math does
            levels = np.cumprod(factors)[1:]
        if np.any(levels <= 0):
            raise ValueError(
                "cannot compound price levels: a return <= -1 wipes the level out"
            )
        return cls(returns=rets, prices=levels)

    @classmethod
    def with_shifted_levels(
        cls, returns: Iterable[float], base: float = DEFAULT_START_PRICE
    ) -> "PriceSeries":
        """Build a series with additive price levels, shifted to stay positive.

        Levels are base + cumsum(returns); if the running sum would drive a
        level to zero or below, the base is raised just enough to keep the
        minimum level at 1. Used by the synthetic generators, whose unit
        returns are additive moves rather than fractional rates.
        """
        rets = _float_vector(returns)
        with np.errstate(over="ignore"):
            cum = np.cumsum(rets)
        lo = float(cum.min()) if len(cum) else 0.0
        start = base if base + lo > 0 else 1.0 - lo
        return cls(returns=rets, prices=start + cum)


@dataclass(frozen=True)
class DirectionVector:
    """One UP(1)/DOWN(0) bit per period."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("direction bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class Context:
    """A t-period direction pattern packed into an integer.

    The oldest observation is the most significant bit, so the pattern
    reads left to right like the written bit string.
    """

    lookback: int
    code: int

    def __post_init__(self):
        if self.lookback < 1:
            raise ValueError("lookback must be a positive integer")
        if not 0 <= self.code < (1 << self.lookback):
            raise ValueError(
                f"code {self.code} out of range for lookback {self.lookback}"
            )

    def bits(self) -> tuple[int, ...]:
        """Unpack to bits, oldest first."""
        return tuple(
            (self.code >> (self.lookback - 1 - i)) & 1 for i in range(self.lookback)
        )


@dataclass
class PanelData:
    """Partial (asset, month) -> return map over sorted month labels.

    Missing cells are allowed. Month labels are ISO date strings compared
    lexicographically. `prices` holds the optional price column for rows
    that carried one; it may cover any subset of the return keys.
    """

    assets: list[str]
    months: list[str]
    returns: dict[tuple[str, str], float]
    prices: dict[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        month_set = set(self.months)
        asset_set = set(self.assets)
        for asset, month in self.returns:
            if asset not in asset_set:
                raise ValueError(f"unknown asset {asset!r} in returns map")
            if month not in month_set:
                raise ValueError(f"unknown month {month!r} in returns map")
        if not all(map(operator.lt, self.months, self.months[1:])):
            raise ValueError("months must be strictly increasing")

    def n_entries(self) -> int:
        return len(self.returns)

    def series_for(
        self,
        asset: str,
        start: float = DEFAULT_START_PRICE,
        synthesis: str = "compound",
    ) -> PriceSeries:
        """Extract one asset's contiguous series.

        The asset must have a return for every month from its first to its
        last observation. Price levels come from the price column when
        every one of those rows carried a price; otherwise they are
        synthesized: "compound" multiplies (1 + r) from `start` (the
        default; requires returns above -1), "shifted" treats returns as
        additive moves on a base kept positive, and "auto" compounds when
        every return is above -1 and shifts otherwise.
        """
        if synthesis not in ("compound", "shifted", "auto"):
            raise ValueError(f"unknown synthesis mode {synthesis!r}")
        def keys(months):
            return zip(itertools.repeat(asset), months)

        present = list(map(self.returns.__contains__, keys(self.months)))
        if True not in present:
            raise KeyError(f"asset {asset!r} has no observations")
        lo = present.index(True)
        hi = len(present) - present[::-1].index(True)
        span = self.months[lo:hi]
        if not all(present[lo:hi]):
            missing = [m for m, p in zip(span, present[lo:hi]) if not p]
            raise ValueError(
                f"asset {asset!r} has holes at {missing}; cannot form a series"
            )
        rets = np.fromiter(map(self.returns.__getitem__, keys(span)), np.float64, len(span))
        if all(map(self.prices.__contains__, keys(span))):
            prices = np.fromiter(map(self.prices.__getitem__, keys(span)), np.float64, len(span))
            return PriceSeries(returns=rets, prices=prices)
        if synthesis == "auto":
            synthesis = "compound" if np.all(rets > -1.0) else "shifted"
        if synthesis == "shifted":
            return PriceSeries.with_shifted_levels(rets, base=start)
        return PriceSeries.from_returns(rets, start=start)


def load_panel_csv(stream: Union[str, IO[str], Iterable[str]]) -> PanelData:
    """Parse a `date,asset,return[,price]` CSV into a PanelData.

    Rejects duplicate (asset, date) rows and non-finite numbers, and
    reports malformed rows with their 1-based line number. A header-only
    input yields an empty panel.
    """
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = stream
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise PanelParseError(1, "missing header row") from None
    header = [h.strip().lower() for h in header]
    if header[:3] != ["date", "asset", "return"]:
        raise PanelParseError(1, f"expected header date,asset,return[,price], got {header}")
    has_price_col = len(header) >= 4 and header[3] == "price"
    # Without quotes or NULs the csv module splits each line exactly at
    # its commas, so such text can be split column-wise in bulk.
    if isinstance(stream, str) and '"' not in stream and "\x00" not in stream:
        body = lines[1:]
        del lines, reader  # the bulk parser frees each line once it is split
        panel = _parse_plain_lines(body, has_price_col)
        if panel is not None:
            return panel
        reader = csv.reader(stream.splitlines())
        next(reader)
    return _parse_rows(reader, has_price_col)


def _parse_plain_lines(lines: list[str], has_price_col: bool):
    """Column-at-a-time parse of quote-free lines, or None if any is irregular.

    Handles the common case (every line has the same field count, no
    blank fields, finite numbers, no duplicate keys) with no per-row
    Python code. Otherwise it returns None and `_parse_rows` reads the
    lines one by one, so it alone decides what to skip and which line to
    blame. Lines are split, and removed from `lines`, a chunk at a time,
    so neither all lines nor all number fields stay alive at once.
    """
    widths = set(map(str.count, lines, itertools.repeat(",")))
    if len(widths) != 1:
        return None
    width = widths.pop() + 1
    if width < 3:
        return None
    with_prices = has_price_col and width >= 4
    dates: list[str] = []
    names: list[str] = []
    rets: list[float] = []
    levels: list[float] = []
    while lines:
        fields = ",".join(lines[:PARSE_CHUNK_LINES]).split(",")
        del lines[:PARSE_CHUNK_LINES]
        dates += map(str.strip, fields[0::width])
        names += map(str.strip, fields[1::width])
        try:
            rets += map(float, fields[2::width])
            if with_prices:
                levels += map(float, fields[3::width])
        except ValueError:  # also a blank price, which the row parser skips
            return None
    if "" in dates or "" in names:
        return None
    keys = list(zip(names, dates))
    returns = dict(zip(keys, rets))
    prices = dict(zip(keys, levels))
    if len(returns) != len(keys):
        return None
    if not all(map(math.isfinite, itertools.chain(returns.values(), prices.values()))):
        return None
    return PanelData(
        assets=sorted(dict.fromkeys(names)),
        months=sorted(dict.fromkeys(dates)),
        returns=returns,
        prices=prices,
    )


def _parse_number(line_no: int, field_name: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise PanelParseError(line_no, f"non-numeric {field_name} {text!r}") from None
    if not math.isfinite(value):
        raise PanelParseError(line_no, f"non-finite {field_name} {text!r}")
    return value


def _parse_rows(rows: Iterable[list[str]], has_price_col: bool) -> PanelData:
    """Row-by-row parse: skips blank rows, raises on the first bad line."""
    returns: dict[tuple[str, str], float] = {}
    prices: dict[tuple[str, str], float] = {}
    assets: set[str] = set()
    months: set[str] = set()
    for line_no, row in enumerate(rows, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 3:
            raise PanelParseError(line_no, f"expected at least 3 fields, got {len(row)}")
        date, asset = row[0].strip(), row[1].strip()
        if not date or not asset:
            raise PanelParseError(line_no, "empty date or asset field")
        ret = _parse_number(line_no, "return", row[2])
        key = (asset, date)
        if key in returns:
            raise DuplicateRowError(
                f"duplicate row for asset {asset!r} at {date!r} (line {line_no})"
            )
        returns[key] = ret
        if has_price_col and len(row) >= 4 and row[3].strip():
            prices[key] = _parse_number(line_no, "price", row[3])
        assets.add(asset)
        months.add(date)
    return PanelData(
        assets=sorted(assets),
        months=sorted(months),
        returns=returns,
        prices=prices,
    )


def context_codes(returns: Iterable[float], t: int) -> np.ndarray:
    """Code of every t-wide direction window, as an int64 array.

    Element k is the window ending at period k + t - 1, oldest bit most
    significant, so n returns give n - t + 1 codes (none when n < t). The
    codes are built from t shifted ORs of the UP bits (return > 0). This
    is the one rolling-context implementation in the package.
    """
    if t < 1:
        raise InvalidWindowError(f"lookback must be >= 1, got {t}")
    if t > MAX_CONTEXT_BITS:
        raise CapacityError(f"lookback {t} exceeds the {MAX_CONTEXT_BITS}-bit code limit")
    up = np.asarray(returns, dtype=np.float64) > 0
    m = len(up) - t + 1
    if m <= 0:
        return np.zeros(0, dtype=np.int64)
    codes = up[:m].astype(np.int64)
    for j in range(1, t):
        codes <<= 1
        codes |= up[j : j + m]
    return codes


def directions(series: PriceSeries) -> DirectionVector:
    """Map returns to direction bits: 1 iff strictly positive, else 0."""
    return DirectionVector(bits=tuple(context_codes(series.returns, 1).tolist()))


def sliding_contexts(series: PriceSeries, t: int) -> list[tuple[int, Context]]:
    """All t-wide direction windows, as (end_index, Context) pairs.

    The window ending at index i covers periods i-t+1..i, oldest bit most
    significant. A series of length n yields exactly n - t + 1 windows.
    """
    n = len(series)
    if t > n:
        raise InvalidWindowError(f"lookback {t} exceeds series length {n}")
    codes = context_codes(series.returns, t).tolist()
    return [(t - 1 + k, Context(lookback=t, code=c)) for k, c in enumerate(codes)]


def gen_random_walk(n: int, p_up: float, seed: int) -> PriceSeries:
    """n i.i.d. unit moves: +1 with probability p_up, else -1."""
    if not 0.0 <= p_up <= 1.0:
        raise ValueError(f"p_up must lie in [0, 1], got {p_up}")
    rng = random.Random(seed)
    rets = [1.0 if rng.random() < p_up else -1.0 for _ in range(n)]
    return PriceSeries.with_shifted_levels(rets)


def gen_planted(n: int, pattern: Context, edge: float, seed: int) -> PriceSeries:
    """Random walk with a conditional drift planted after one pattern.

    Whenever the trailing `pattern.lookback` directions equal the pattern,
    the next move is +1 with probability 0.5 + edge; everywhere else the
    walk is fair.
    """
    if not 0.0 <= edge <= 0.5:
        raise ValueError(f"edge must lie in [0, 0.5], got {edge}")
    t = pattern.lookback
    if t > n:
        raise InvalidWindowError(f"pattern lookback {t} exceeds series length {n}")
    rng = random.Random(seed)
    mask = (1 << t) - 1
    rets: list[float] = []
    code = 0
    # Sequential by nature: each move's odds depend on the code the
    # previous moves built, so `context_codes` cannot be used here.
    for i in range(n):
        p = 0.5 + edge if (i >= t and code == pattern.code) else 0.5
        r = 1.0 if rng.random() < p else -1.0
        rets.append(r)
        code = ((code << 1) | (1 if r > 0 else 0)) & mask
    return PriceSeries.with_shifted_levels(rets)
