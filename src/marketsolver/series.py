"""Price series and panel data model.

Every other module consumes what is defined here: single-asset return
series with price levels (`PriceSeries`), dense (asset, month) return
panels loaded from CSV (`PanelData`), and direction contexts. A context
is one int code: t UP/DOWN direction bits read as a base-two integer,
oldest observation the most significant bit, as `context_codes` computes
it; a direction bit is a context of width 1.

Convention: a zero return counts as DOWN. The binary UP/DOWN model has no
flat case, so the sign function must be total; zero maps to bit 0.
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import math
import operator
import random
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from typing import IO, Iterable, Union

import numpy as np

from .errors import CapacityError, DuplicateRowError, InvalidWindowError, PanelParseError

DEFAULT_START_PRICE = 100.0
# Context codes live in int64 arrays, so a window holds at most 63 bits.
MAX_CONTEXT_BITS = 63
# Characters of CSV body the bulk parser splits at a time, cut at a line end.
PARSE_CHUNK_CHARS = 1 << 16
# Dense panel cap: assets x months cells, 8 bytes per cell per array.
MAX_PANEL_CELLS = 50_000_000
# The byte-order mark some editors write at the start of a UTF-8 file.
BOM = "\ufeff"


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


def _check_panel_size(n_assets: int, n_months: int) -> None:
    cells = n_assets * n_months
    if cells > MAX_PANEL_CELLS:
        raise CapacityError(
            f"a dense panel of {n_assets} assets x {n_months} months has {cells} "
            f"cells, beyond the cap of {MAX_PANEL_CELLS} ({8 * cells} bytes per array)"
        )


class PanelData:
    """Monthly returns of several assets, dense, with NaN holes.

    `return_matrix` is an assets x months float64 array; a NaN cell is a
    missing (asset, month) observation. `price_matrix` has the same shape
    and holds the optional price column, or is None when no row carried a
    price; a price needs a return in the same cell. Both arrays are
    read-only and take 8 * assets * months bytes each, so the cell count
    is capped at MAX_PANEL_CELLS. Two panels are equal when their labels
    and arrays are, a NaN hole equal to a NaN hole.

    `returns` and `prices` may be given as (asset, month) -> value
    mappings or as arrays of the panel's shape with NaN holes. Values must
    be finite, asset labels distinct, and month labels (ISO date strings,
    compared lexicographically) strictly increasing; ValueError otherwise.
    """

    def __init__(self, assets, months, returns, prices=None):
        self.assets = list(assets)
        self.months = list(months)
        if len(set(self.assets)) != len(self.assets):
            dup = next(a for a, n in Counter(self.assets).items() if n > 1)
            raise ValueError(f"duplicate asset label {dup!r}")
        if not _increasing(self.months):
            raise ValueError("months must be strictly increasing")
        _check_panel_size(len(self.assets), len(self.months))
        self._row = {a: i for i, a in enumerate(self.assets)}
        col = {m: j for j, m in enumerate(self.months)}
        self.return_matrix = self._grid(returns, "returns", col)
        grid = None if prices is None else self._grid(prices, "prices", col)
        if grid is not None:
            priced = ~np.isnan(grid)
            if (priced & np.isnan(self.return_matrix)).any():
                raise ValueError("a price needs a return in the same cell")
            if not priced.any():
                grid = None
        self.price_matrix = grid
        self._index()

    @classmethod
    def _from_parser(cls, assets, months, row, return_matrix, price_matrix):
        """A panel over labels, asset map and arrays a CSV parser has checked.

        Nothing is copied or checked again: `assets` and `months` must be
        sorted and distinct, `row` the asset -> position map, and the
        arrays private, read-only, finite and of the panel's shape, with a
        price only where there is a return and not all holes.
        """
        panel = cls.__new__(cls)
        panel.assets, panel.months, panel._row = assets, months, row
        panel.return_matrix, panel.price_matrix = return_matrix, price_matrix
        panel._index()
        return panel

    def _index(self) -> None:
        """The running entry count: entries of months 0..j, for each month j."""
        self._entries_through = np.count_nonzero(~np.isnan(self.return_matrix), axis=0).cumsum()

    def _grid(self, values, what: str, col: dict) -> np.ndarray:
        """A private read-only assets x months copy of a mapping or an array.

        `col` maps each month label to its column.
        """
        shape = (len(self.assets), len(self.months))
        if isinstance(values, Mapping):
            rows, cols = [], []
            for asset, month in values:
                if asset not in self._row:
                    raise ValueError(f"unknown asset {asset!r} in {what} map")
                if month not in col:
                    raise ValueError(f"unknown month {month!r} in {what} map")
                rows.append(self._row[asset])
                cols.append(col[month])
            cells = np.fromiter(values.values(), np.float64, len(values))
            if not np.isfinite(cells).all():
                raise ValueError(f"non-finite value in {what} map")
            grid = np.full(shape, np.nan)
            grid[rows, cols] = cells
        else:
            grid = np.array(values, dtype=np.float64)
            if grid.shape != shape:
                raise ValueError(f"{what} array has shape {grid.shape}, expected {shape}")
            if np.isinf(grid).any():
                raise ValueError(f"non-finite value in {what} array")
        grid.setflags(write=False)
        return grid

    def __eq__(self, other):
        if not isinstance(other, PanelData):
            return NotImplemented
        # both constructors turn an all-hole price grid into None
        a, b = self.price_matrix, other.price_matrix
        return (
            (self.assets, self.months) == (other.assets, other.months)
            and np.array_equal(self.return_matrix, other.return_matrix, equal_nan=True)
            and (a is b if a is None or b is None else np.array_equal(a, b, equal_nan=True))
        )

    def n_entries(self) -> int:
        """Present (asset, month) cells."""
        return int(self._entries_through[-1]) if self.months else 0

    def entries_through(self, month: str) -> int:
        """Present cells whose month label is <= `month`."""
        j = bisect.bisect_right(self.months, month)
        return int(self._entries_through[j - 1]) if j else 0

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
        row = self._row.get(asset)
        present = [] if row is None else np.flatnonzero(~np.isnan(self.return_matrix[row]))
        if not len(present):
            raise KeyError(f"asset {asset!r} has no observations")
        lo, hi = int(present[0]), int(present[-1]) + 1
        rets = self.return_matrix[row, lo:hi]
        if len(present) != hi - lo:
            missing = [self.months[lo + j] for j in np.flatnonzero(np.isnan(rets)).tolist()]
            raise ValueError(
                f"asset {asset!r} has holes at {missing}; cannot form a series"
            )
        if self.price_matrix is not None:
            prices = self.price_matrix[row, lo:hi]
            if not np.isnan(prices).any():
                return PriceSeries(returns=rets, prices=prices)
        if synthesis == "auto":
            synthesis = "compound" if np.all(rets > -1.0) else "shifted"
        if synthesis == "shifted":
            return PriceSeries.with_shifted_levels(rets, base=start)
        return PriceSeries.from_returns(rets, start=start)


def load_panel_csv(source: Union[str, IO[str]]) -> PanelData:
    """Parse a `date,asset,return[,price]` CSV into a PanelData.

    `source` is the CSV text or a text file opened with newline="". One
    leading byte-order mark (U+FEFF) is dropped, and lines end at LF, CRLF
    or a lone CR, as the csv module reads them. Rejects duplicate (asset,
    date) rows and non-finite numbers, naming the 1-based physical line a
    malformed row ends on. Blank rows are skipped. A header-only input
    yields an empty panel. Assets and months are sorted; a panel beyond
    MAX_PANEL_CELLS dense cells raises CapacityError. Rows may come in any
    order; quote-free rows in asset- or date-major blocks need no scatter.
    """
    text = (source if isinstance(source, str) else source.read()).removeprefix(BOM)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise PanelParseError(1, "missing header row") from None
    header = [h.strip().lower() for h in header]
    if header[:3] != ["date", "asset", "return"]:
        raise PanelParseError(1, f"expected header date,asset,return[,price], got {header}")
    has_price_col = len(header) >= 4 and header[3] == "price"
    # With no lone CR, the csv module's lines are the pieces between LFs;
    # a CRLF line keeps its CR, which strip and float ignore. A NUL, which
    # the csv module refuses before Python 3.11, is left to the reader.
    if "\x00" not in text and ("\r" not in text or text.count("\r") == text.count("\r\n")):
        # the reader's buffer holds the text at up to 4 bytes a character;
        # free it before the bulk parse, and rebuild a reader only if needed
        start = 0
        for _ in range(reader.line_num):  # the body starts after the header's lines
            start = text.find("\n", start) + 1 or len(text)
        del reader
        # Without quotes each line splits exactly at its commas, so the
        # body can be split column-wise in bulk.
        if text.find('"', start) < 0:
            panel = _parse_plain_body(text, start, has_price_col)
            if panel is not None:
                return panel
        reader = csv.reader(io.StringIO(text, newline=""))
        next(reader)  # the header, checked above
    return _parse_rows(reader, has_price_col)


def _parse_plain_body(text: str, start: int, has_price_col: bool):
    """Column-at-a-time parse of the quote-free lines of `text[start:]`, or None.

    Handles the common case (every non-blank line has the same field
    count, no blank fields, finite numbers, no duplicate keys) with no
    per-row Python code, and puts the numbers straight into the dense
    arrays. Otherwise it returns None and `_parse_rows` reads the lines
    one by one, so it alone decides what to skip and which line to blame.
    The body is never copied whole: it is split once per PARSE_CHUNK_CHARS
    characters, and rows in blocks are recognised on the raw fields."""
    dates, names, rets, levels = [], [], [], []
    width = None
    while start < len(text):
        stop = text.find("\n", start + PARSE_CHUNK_CHARS) + 1 or len(text)
        chunk, start = text[start:stop], stop
        if not chunk.endswith("\n"):
            chunk += "\n"
        fields = _line_fields(chunk, width or chunk.count(",", 0, chunk.index("\n")) + 1)
        if fields is None:
            # drop the lines `_parse_rows` skips, those whose fields are all blank
            kept = [line for line in chunk.split("\n") if line.replace(",", "").strip()]
            if not kept:
                continue
            fields = _line_fields("\n".join(kept) + "\n", width or kept[0].count(",") + 1)
            if fields is None:
                return None
        width = fields.index("\n")
        if width < 3:
            return None
        step, with_prices = width + 1, has_price_col and width >= 4
        dates += fields[0::step]
        names += fields[1::step]
        try:
            rets.append(np.fromiter(map(float, fields[2::step]), np.float64))
            if with_prices:
                levels.append(np.fromiter(map(float, fields[3::step]), np.float64))
        except ValueError:  # also a blank price, which the row parser skips
            return None
    if width is None:
        return None
    columns = [np.concatenate(rets)] + ([np.concatenate(levels)] if with_prices else [])
    if not all(np.isfinite(col).all() for col in columns):
        return None
    # Rows in blocks need no scatter: each column is its array, in C order
    # (asset-major) or Fortran order (date-major), and no key can repeat.
    labels, order = _block_labels(names, dates), "C"
    if labels is None and (labels := _block_labels(dates, names)) is not None:
        labels, order = labels[::-1], "F"
    if labels is None:
        names, dates = list(map(str.strip, names)), list(map(str.strip, dates))
        if "" in dates or "" in names:
            return None
        # Deduplicating in arrival order keeps sorted input sorted, so the
        # sort is one linear pass on time-ordered files.
        labels, order = (sorted(dict.fromkeys(names)), sorted(dict.fromkeys(dates))), None
    assets, months = labels
    shape = (len(assets), len(months))
    _check_panel_size(*shape)
    row = dict(zip(assets, itertools.count()))
    if order:
        grids = [np.ascontiguousarray(values.reshape(shape, order=order)) for values in columns]
    else:
        col = dict(zip(months, itertools.count()))
        cell = np.fromiter(map(row.__getitem__, names), np.intp, len(names)) * len(months)
        cell += np.fromiter(map(col.__getitem__, dates), np.intp, len(dates))
        grids = []
        for values in columns:
            grid = np.full(len(assets) * len(months), np.nan)
            grid[cell] = values
            grids.append(grid.reshape(shape))
        if np.count_nonzero(~np.isnan(grids[0])) != len(cell):
            return None  # a duplicate (asset, date) key
    for grid in grids:
        grid.setflags(write=False)
    return PanelData._from_parser(assets, months, row, grids[0], grids[1] if with_prices else None)


def _line_fields(chunk: str, width: int):
    """The fields of `chunk`, which ends at a line end, with a "\\n" field
    after each line; None unless every line has exactly `width` fields."""
    fields = chunk.replace("\n", ",\n,").split(",")
    lines = chunk.count("\n")
    # the line ends are all at every (width + 1)-th field, and only there
    if len(fields) != lines * (width + 1) + 1 or fields[width :: width + 1].count("\n") != lines:
        return None
    fields.pop()  # the empty piece after the last line end
    return fields


def _block_labels(outer: list[str], inner: list[str]):
    """The stripped (outer, inner) labels of rows that run in blocks, else None.

    Each block is one outer label over the same inner labels, both strictly
    increasing, so row k is cell k of the outer x inner grid. The raw
    fields are compared, so only the distinct labels are stripped."""
    size = outer.count(outer[0])
    blocks, rest = divmod(len(outer), size)
    # one block is all one outer label, as the count shows
    if rest or blocks > 1 and (inner != inner[:size] * blocks or outer != list(
        itertools.chain.from_iterable(map(itertools.repeat, outer[::size], itertools.repeat(size)))
    )):
        return None
    heads, block = list(map(str.strip, outer[::size])), list(map(str.strip, inner[:size]))
    # "" sorts first, so strictly increasing labels are non-empty if the first is
    if heads[0] and block[0] and _increasing(heads) and _increasing(block):
        return heads, block
    return None


def _increasing(labels: list[str]) -> bool:
    return all(map(operator.lt, labels, itertools.islice(labels, 1, None)))


def _parse_number(line_no: int, field_name: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise PanelParseError(line_no, f"non-numeric {field_name} {text!r}") from None
    if not math.isfinite(value):
        raise PanelParseError(line_no, f"non-finite {field_name} {text!r}")
    return value


def _parse_rows(reader, has_price_col: bool) -> PanelData:
    """Row-by-row parse of a csv reader's remaining records.

    Skips blank rows and raises on the first bad one, naming its last line.
    """
    returns: dict[tuple[str, str], float] = {}
    prices: dict[tuple[str, str], float] = {}
    assets: set[str] = set()
    months: set[str] = set()
    for row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        line_no = reader.line_num
        if len(row) < 3:
            raise PanelParseError(line_no, f"expected at least 3 fields, got {len(row)}")
        date, asset = row[0].strip(), row[1].strip()
        if not date or not asset:
            raise PanelParseError(line_no, "empty date or asset field")
        ret = _parse_number(line_no, "return", row[2])
        key = (asset, date)
        if key in returns:
            raise DuplicateRowError(line_no, f"duplicate row for asset {asset!r} at {date!r}")
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
    """Code of every t-wide direction window along the last axis, as int64.

    Element k (of each row, for an assets x periods matrix) is the window
    ending at period k + t - 1, oldest bit most significant, so n returns
    give n - t + 1 codes (none when n < t). The codes are built from t
    shifted ORs of the UP bits (return > 0). This is the one
    rolling-context implementation in the package.
    """
    if t < 1:
        raise InvalidWindowError(f"lookback must be >= 1, got {t}")
    if t > MAX_CONTEXT_BITS:
        raise CapacityError(f"lookback {t} exceeds the {MAX_CONTEXT_BITS}-bit code limit")
    up = np.asarray(returns, dtype=np.float64) > 0
    m = up.shape[-1] - t + 1
    if m <= 0:
        return np.zeros(up.shape[:-1] + (0,), dtype=np.int64)
    codes = up[..., :m].astype(np.int64)
    for j in range(1, t):
        codes <<= 1
        codes |= up[..., j : j + m]
    return codes


def gen_random_walk(n: int, p_up: float, seed: int) -> PriceSeries:
    """n i.i.d. unit moves: +1 with probability p_up, else -1."""
    if not 0.0 <= p_up <= 1.0:
        raise ValueError(f"p_up must lie in [0, 1], got {p_up}")
    rng = random.Random(seed)
    rets = [1.0 if rng.random() < p_up else -1.0 for _ in range(n)]
    return PriceSeries.with_shifted_levels(rets)


def gen_planted(n: int, lookback: int, code: int, edge: float, seed: int) -> PriceSeries:
    """Random walk with a conditional drift planted after one context.

    Whenever the trailing `lookback` directions have context code `code`,
    the next move is +1 with probability 0.5 + edge; everywhere else the
    walk is fair. ValueError unless lookback >= 1 and 0 <= code <
    2**lookback.
    """
    if lookback < 1:
        raise ValueError("lookback must be a positive integer")
    if not 0 <= code < (1 << lookback):
        raise ValueError(f"code {code} out of range for lookback {lookback}")
    if not 0.0 <= edge <= 0.5:
        raise ValueError(f"edge must lie in [0, 0.5], got {edge}")
    if lookback > n:
        raise InvalidWindowError(f"pattern lookback {lookback} exceeds series length {n}")
    rng = random.Random(seed)
    mask = (1 << lookback) - 1
    rets: list[float] = []
    window = 0
    # Sequential by nature: each move's odds depend on the code the
    # previous moves built, so `context_codes` cannot be used here.
    for i in range(n):
        p = 0.5 + edge if (i >= lookback and window == code) else 0.5
        r = 1.0 if rng.random() < p else -1.0
        rets.append(r)
        window = ((window << 1) | (1 if r > 0 else 0)) & mask
    return PriceSeries.with_shifted_levels(rets)
