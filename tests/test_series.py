import gc
import io
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketsolver import (
    CapacityError,
    DuplicateRowError,
    InvalidWindowError,
    PanelData,
    PanelParseError,
    PriceSeries,
    gen_planted,
    gen_random_walk,
    load_panel_csv,
)
from marketsolver.series import context_codes


def make_series(returns):
    return PriceSeries.with_shifted_levels(returns)


class TestLoadPanelCsv:
    def test_header_only_gives_empty_panel(self):
        panel = load_panel_csv("date,asset,return\n")
        assert panel.n_entries() == 0
        assert panel.assets == []
        assert panel.months == []

    def test_small_fixture_counts(self):
        # 2 assets x 2 months with one missing cell: 3 entries, 1 hole.
        csv_text = (
            "date,asset,return\n"
            "2020-01,AAA,0.02\n"
            "2020-01,BBB,-0.01\n"
            "2020-02,AAA,0.03\n"
        )
        panel = load_panel_csv(csv_text)
        assert panel.n_entries() == 3
        assert panel.assets == ["AAA", "BBB"]
        assert panel.months == ["2020-01", "2020-02"]
        assert panel == PanelData(
            ["AAA", "BBB"],
            ["2020-01", "2020-02"],
            {("AAA", "2020-01"): 0.02, ("BBB", "2020-01"): -0.01, ("AAA", "2020-02"): 0.03},
        )
        holes = len(panel.assets) * len(panel.months) - panel.n_entries()
        assert holes == 1

    def test_non_numeric_return_names_line(self):
        csv_text = "date,asset,return\n2020-01,AAA,oops\n"
        with pytest.raises(PanelParseError) as exc:
            load_panel_csv(csv_text)
        assert exc.value.line_number == 2
        assert "line 2" in str(exc.value)

    def test_duplicate_key_rejected(self):
        csv_text = (
            "date,asset,return\n"
            "2020-01,AAA,0.02\n"
            "2020-01,AAA,0.05\n"
        )
        with pytest.raises(DuplicateRowError):
            load_panel_csv(csv_text)

    def test_price_column_round_trips(self):
        csv_text = (
            "date,asset,return,price\n"
            "2020-01,AAA,1.0,5.0\n"
            "2020-02,AAA,-1.0,4.0\n"
        )
        panel = load_panel_csv(csv_text)
        assert panel.price_matrix.tolist() == [[5.0, 4.0]]
        # a series' levels come from its returns, never from the price column
        assert panel.series_for("AAA", synthesis="shifted") == PriceSeries.with_shifted_levels(
            [1.0, -1.0]
        )

    def test_bad_header_rejected(self):
        with pytest.raises(PanelParseError):
            load_panel_csv("timestamp,ticker,ret\n")

    @pytest.mark.parametrize("source", [str, io.StringIO], ids=["text", "file"])
    def test_byte_order_mark_is_dropped(self, source):
        panel = load_panel_csv(source("\ufeffdate,asset,return\n2020-01,X,0.5\n"))
        assert panel == PanelData(["X"], ["2020-01"], {("X", "2020-01"): 0.5})

    def test_only_one_leading_byte_order_mark_is_dropped(self):
        with pytest.raises(PanelParseError, match="expected header"):
            load_panel_csv("\ufeff\ufeffdate,asset,return\n")
        with pytest.raises(PanelParseError, match="missing header"):
            load_panel_csv(io.StringIO(""))


class TestOneLineRule:
    """A str and a text file follow the csv module's line rule alike."""

    @pytest.mark.parametrize("text, expected", [
        ('date,asset,return\n2020-01,"X\ny",0.1\n', ["X\ny"]),
        ("date,asset,return\n2020-01,X\x0bY,0.1\n", ["X\x0bY"]),
        ("date,asset,return\n2020-01,X\u2028Y,0.1\n", ["X\u2028Y"]),
        ("date,asset,return\n2020-01,X\x0cY,0.1\x85\n", ["X\x0cY"]),
        ('"da\nte",asset,return\n2020-01,X,0.1\n', (PanelParseError, 1)),
        ("date,asset,return,price\r2020-01,X,0.5,2\r2020-02,Y,-0.5,1\r", ["X", "Y"]),
    ], ids=["quoted_newline", "vertical_tab", "line_separator", "form_feed", "quoted_header",
            "lone_cr"])
    def test_str_and_file_parse_alike(self, text, expected):
        outcome = _outcome(text)
        _assert_same_outcome(outcome, _outcome(io.StringIO(text, newline="")))
        if isinstance(expected, list):
            assert outcome.assets == expected
        else:
            assert type(outcome) is expected[0] and outcome.line_number == expected[1]

    @pytest.mark.parametrize("text, line", [
        ('date,asset,"return\n"\n2020-01,X,oops\n', 3),
        ('date,asset,return\n2020-01,"X\nY",0.1\n2020-02,X,oops\n', 4),
        ('date,asset,return\n2020-01,"X\nY",oops\n', 3),
        ('date,asset,return\n2020-01,"X\nY",0.1\n2020-01,"X\nY",0.2\n', 5),
        ('date,"asset\r\n",return\r\n2020-01,"X\r\nY",0.1\r\n2020-02,X,oops\r\n', 5),
        ('date,asset,return\r2020-01,"X\rY",0.1\r2020-02,X\r', 4),
    ], ids=["header", "field", "own_row", "duplicate", "crlf", "lone_cr"])
    def test_errors_name_the_physical_line(self, text, line):
        for source in (text, io.StringIO(text, newline="")):
            with pytest.raises(PanelParseError) as exc:
                load_panel_csv(source)
            assert exc.value.line_number == line
            assert str(exc.value).startswith(f"line {line}: ")


class TestDirections:
    """A direction bit is a context code of width 1."""

    def test_empty(self):
        assert context_codes(make_series([]).returns, 1).tolist() == []

    def test_sign_definition_with_zero_as_down(self):
        srs = make_series([1.0, -1.0, 2.0, 0.0])
        assert context_codes(srs.returns, 1).tolist() == [1, 0, 1, 0]

    @given(st.lists(st.floats(-10, 10, allow_nan=False), max_size=50))
    def test_up_count_matches_positive_count(self, returns):
        bits = context_codes(returns, 1).tolist()
        assert len(bits) == len(returns)
        assert sum(bits) == sum(1 for r in returns if r > 0)
        assert all(b == (1 if r > 0 else 0) for b, r in zip(bits, returns))


class TestSlidingContexts:
    """Every t-wide window of a series, as `context_codes` reads them."""

    def test_single_full_window(self):
        srs = make_series([1.0, -1.0, 1.0])  # bits 1,0,1
        assert context_codes(srs.returns, 3).tolist() == [0b101] == [5]

    def test_width_one_is_the_bit_itself(self):
        srs = make_series([1.0, 1.0])
        assert context_codes(srs.returns, 1).tolist() == [1, 1]

    def test_eight_wide_window_reads_137(self):
        # direction pattern 1,0,0,0,1,0,0,1 read oldest-first is binary
        # 10001001 = 137
        bits = [1, 0, 0, 0, 1, 0, 0, 1]
        srs = make_series([1.0 if b else -1.0 for b in bits])
        assert context_codes(srs.returns, 8).tolist() == [137]

    @given(st.integers(1, 6), st.integers(0, 40))
    def test_cardinality_and_code_range(self, t, extra):
        n = t + extra
        srs = gen_random_walk(n, 0.5, seed=n * 31 + t)
        codes = context_codes(srs.returns, t).tolist()
        assert len(codes) == n - t + 1
        assert all(0 <= c < (1 << t) for c in codes)


class TestGenRandomWalk:
    def test_zero_length(self):
        assert len(gen_random_walk(0, 0.5, 1)) == 0

    def test_degenerate_probability(self):
        assert gen_random_walk(5, 1.0, 3).returns.tolist() == [1.0] * 5
        assert gen_random_walk(5, 0.0, 3).returns.tolist() == [-1.0] * 5

    def test_fair_walk_up_fraction(self):
        srs = gen_random_walk(10_000, 0.5, seed=11)
        frac = sum(context_codes(srs.returns, 1).tolist()) / 10_000
        assert abs(frac - 0.5) < 0.02

    def test_deterministic_given_seed(self):
        assert gen_random_walk(200, 0.3, 7) == gen_random_walk(200, 0.3, 7)
        assert gen_random_walk(200, 0.3, 7) != gen_random_walk(200, 0.3, 8)

    def test_prices_positive(self):
        srs = gen_random_walk(5000, 0.2, seed=5)  # heavy drift down
        assert all(p > 0 for p in srs.prices)


def conditional_up_rate(srs, t, code):
    """Independent count: P(next period UP | trailing t bits have code `code`)."""
    bits = [1 if r > 0 else 0 for r in srs.returns.tolist()]
    hits = ups = 0
    for i in range(t, len(bits)):
        window = 0
        for b in bits[i - t : i]:
            window = (window << 1) | b
        if window == code:
            hits += 1
            ups += bits[i]
    return ups / hits if hits else float("nan")


class TestGenPlanted:
    def test_zero_edge_is_fair(self):
        srs = gen_planted(20_000, 3, 0b111, 0.0, seed=2)
        assert abs(conditional_up_rate(srs, 3, 0b111) - 0.5) < 0.05

    def test_planted_edge_shows_up(self):
        srs = gen_planted(20_000, 3, 0b111, 0.3, seed=2)
        assert abs(conditional_up_rate(srs, 3, 0b111) - 0.8) < 0.03

    def test_pattern_longer_than_series_rejected(self):
        with pytest.raises(InvalidWindowError):
            gen_planted(2, 3, 0, 0.1, seed=0)

    def test_deterministic_given_seed(self):
        a = gen_planted(500, 2, 1, 0.2, seed=9)
        b = gen_planted(500, 2, 1, 0.2, seed=9)
        assert a == b


class TestTypes:
    def test_price_series_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            PriceSeries(returns=(1.0,), prices=(1.0, 2.0))

    def test_price_series_rejects_nonpositive_levels(self):
        with pytest.raises(ValueError):
            PriceSeries(returns=(1.0,), prices=(0.0,))

    def test_context_code_must_fit_lookback(self):
        for lookback, code in [(2, 4), (2, -1), (0, 0)]:
            with pytest.raises(ValueError):
                gen_planted(10, lookback, code, 0.1, seed=0)

    def test_from_returns_compounds_levels(self):
        srs = PriceSeries.from_returns([0.5, -0.5])
        assert srs.prices.tolist() == [150.0, 75.0]

    def test_from_returns_rejects_total_loss(self):
        with pytest.raises(ValueError):
            PriceSeries.from_returns([-1.0])


class TestNonFiniteAndFastPath:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_return_names_line(self, value):
        csv_text = f"date,asset,return\n2020-01,AAA,0.01\n2020-02,AAA,{value}\n"
        with pytest.raises(PanelParseError) as exc:
            load_panel_csv(csv_text)
        assert exc.value.line_number == 3
        assert "non-finite return" in str(exc.value)

    def test_non_finite_price_names_line(self):
        csv_text = "date,asset,return,price\n2020-01,AAA,0.01,inf\n"
        with pytest.raises(PanelParseError) as exc:
            load_panel_csv(csv_text)
        assert exc.value.line_number == 2
        assert "non-finite price" in str(exc.value)

    def test_quoted_and_plain_text_parse_alike(self):
        plain = "date,asset,return,price\n2020-01,AAA,0.5,2.0\n2020-02,AAA,-0.5,\n"
        quoted = 'date,asset,return,price\n"2020-01",AAA,0.5,2.0\n2020-02,"AAA",-0.5,\n'
        a, b = load_panel_csv(plain), load_panel_csv(quoted)
        assert a == b == PanelData(
            ["AAA"],
            ["2020-01", "2020-02"],
            {("AAA", "2020-01"): 0.5, ("AAA", "2020-02"): -0.5},
            {("AAA", "2020-01"): 2.0},
        )

    def test_late_bad_line_is_found_after_bulk_split(self):
        rows = [f"{1000 + i // 12}-{i % 12 + 1:02d},X,0.01" for i in range(9000)]
        rows[8500] = rows[8500].replace("0.01", "oops")
        with pytest.raises(PanelParseError) as exc:
            load_panel_csv("date,asset,return\n" + "\n".join(rows) + "\n")
        assert exc.value.line_number == 8502

    def test_late_blank_price_falls_back_to_row_parse(self):
        rows = [f"{1000 + i // 12}-{i % 12 + 1:02d},X,0.01,1.5" for i in range(9000)]
        rows[8500] = rows[8500][: -len(",1.5")] + ","
        panel = load_panel_csv("date,asset,return,price\n" + "\n".join(rows) + "\n")
        assert panel.n_entries() == 9000
        assert np.count_nonzero(~np.isnan(panel.price_matrix)) == 8999

    def test_blank_lines_are_skipped_and_counted(self):
        csv_text = "date,asset,return\n2020-01,AAA,0.5\n\n , ,\n2020-02,AAA,oops\n"
        with pytest.raises(PanelParseError) as exc:
            load_panel_csv(csv_text)
        assert exc.value.line_number == 5

    def test_duplicate_reports_its_line(self):
        csv_text = "date,asset,return\n2020-01,AAA,0.5\n2020-02,AAA,0.5\n2020-01,AAA,0.1\n"
        with pytest.raises(DuplicateRowError) as exc:
            load_panel_csv(csv_text)
        assert isinstance(exc.value, PanelParseError) and exc.value.line_number == 4
        assert str(exc.value) == "line 4: duplicate row for asset 'AAA' at '2020-01'"

    def test_file_like_input(self):
        panel = load_panel_csv(io.StringIO("date,asset,return\n2020-01,AAA,0.5\n"))
        assert panel == PanelData(["AAA"], ["2020-01"], {("AAA", "2020-01"): 0.5})

    def test_shifted_synthesis_takes_unit_moves(self):
        panel = load_panel_csv("date,asset,return\n2020-01,X,1.0\n2020-02,X,-1.0\n")
        assert panel.series_for("X", synthesis="shifted") == PriceSeries.with_shifted_levels(
            [1.0, -1.0]
        )
        with pytest.raises(ValueError, match="cannot compound"):
            panel.series_for("X")
        with pytest.raises(ValueError, match="unknown synthesis mode 'auto'"):
            panel.series_for("X", synthesis="auto")
        panel = load_panel_csv("date,asset,return\n2020-01,X,0.5\n2020-02,X,-0.5\n")
        assert panel.series_for("X") == PriceSeries.from_returns([0.5, -0.5])

    def test_hole_is_reported(self):
        panel = load_panel_csv(
            "date,asset,return\n2020-01,X,1\n2020-02,Y,1\n2020-03,X,1\n"
        )
        with pytest.raises(ValueError, match="holes at \\['2020-02'\\]"):
            panel.series_for("X")


class TestDensePanel:
    MONTHS = ["2020-01", "2020-02", "2020-03"]

    def test_mapping_and_array_forms_agree(self):
        grid = [[0.1, np.nan, 0.3], [np.nan, -0.2, 0.0]]
        a = PanelData(["A", "B"], self.MONTHS, grid)
        b = PanelData(
            ["A", "B"],
            self.MONTHS,
            {("A", "2020-01"): 0.1, ("A", "2020-03"): 0.3, ("B", "2020-02"): -0.2,
             ("B", "2020-03"): 0.0},
        )
        assert a == b
        assert a.n_entries() == 4
        assert a.price_matrix is None and b.price_matrix is None
        assert np.array_equal(a.return_matrix, np.array(grid), equal_nan=True)

    def test_equality_compares_labels_and_arrays(self):
        grid = [[0.1, np.nan, 0.3]]
        panel = PanelData(["A"], self.MONTHS, grid)
        assert panel == PanelData(["A"], self.MONTHS, grid, [[np.nan] * 3])
        assert panel != PanelData(["B"], self.MONTHS, grid)
        assert panel != PanelData(["A"], ["2020-01", "2020-02", "2020-04"], grid)
        assert panel != PanelData(["A"], self.MONTHS, [[0.1, 0.0, 0.3]])
        priced = PanelData(["A"], self.MONTHS, grid, [[1.0, np.nan, 2.0]])
        assert priced != panel and panel != priced
        assert priced == PanelData(["A"], self.MONTHS, grid, {("A", "2020-01"): 1.0,
                                                               ("A", "2020-03"): 2.0})
        assert priced != PanelData(["A"], self.MONTHS, grid, [[1.0, np.nan, np.nan]])

    def test_arrays_are_read_only_copies(self):
        grid = np.zeros((1, 3))
        panel = PanelData(["A"], self.MONTHS, grid)
        grid[0, 0] = 9.0
        assert panel.return_matrix[0, 0] == 0.0
        assert not panel.return_matrix.flags.writeable
        with pytest.raises(ValueError):
            panel.return_matrix[0, 0] = 1.0

    def test_freed_without_the_cycle_collector(self):
        # a reference cycle through the panel would keep every dropped
        # panel's arrays alive until the cyclic collector ran
        panel = PanelData(["A"], self.MONTHS, np.zeros((1, 3)), np.ones((1, 3)))
        matrix = weakref.ref(panel.return_matrix)
        gc.disable()
        try:
            del panel
            assert matrix() is None
        finally:
            gc.enable()

    def test_entries_through_is_a_running_count(self):
        panel = PanelData(["A", "B"], self.MONTHS, [[1.0, np.nan, 1.0], [1.0, 1.0, np.nan]])
        assert [panel.entries_through(m) for m in ["2019-12", *self.MONTHS, "2021"]] == [
            0, 2, 3, 4, 4
        ]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mapping_value_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            PanelData(["A", "B"], ["2020-01"], {("A", "2020-01"): 0.1, ("B", "2020-01"): bad})

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_array_value_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            PanelData(["A"], ["2020-01"], [[bad]])

    def test_non_finite_price_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            PanelData(["A"], ["2020-01"], {("A", "2020-01"): 0.1}, {("A", "2020-01"): math.inf})

    def test_price_without_a_return_rejected(self):
        with pytest.raises(ValueError, match="needs a return"):
            PanelData(["A"], self.MONTHS[:2], {("A", "2020-01"): 0.1}, {("A", "2020-02"): 5.0})

    def test_duplicate_asset_rejected(self):
        with pytest.raises(ValueError, match="duplicate asset label 'A'"):
            PanelData(["A", "B", "A"], ["2020-01"], {("A", "2020-01"): 0.1})

    def test_unknown_keys_and_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="unknown asset"):
            PanelData(["A"], ["2020-01"], {("Z", "2020-01"): 0.1})
        with pytest.raises(ValueError, match="unknown month"):
            PanelData(["A"], ["2020-01"], {("A", "2020-02"): 0.1})
        with pytest.raises(ValueError, match="shape"):
            PanelData(["A"], ["2020-01"], [[0.1, 0.2]])

    def test_sparse_csv_hits_the_cell_cap(self, monkeypatch):
        from marketsolver import series

        monkeypatch.setattr(series, "MAX_PANEL_CELLS", 10_000)
        rows = [f"{1000 + i // 12}-{i % 12 + 1:02d},A{i:04d},0.01" for i in range(101)]
        text = "date,asset,return\n" + "\n".join(rows) + "\n"
        with pytest.raises(CapacityError, match="10201 cells"):
            load_panel_csv(text)
        with pytest.raises(CapacityError):  # the row-by-row parser too
            load_panel_csv(text.replace(",A0000,", ',"A0000",'))


def _outcome(source):
    """The panel `load_panel_csv` makes of `source`, or the exception it raises."""
    try:
        return load_panel_csv(source)
    except Exception as exc:  # compared by type, line and message
        return exc


def _row_outcome(text):
    """`_outcome` of `text` with the bulk parser declining, so the row parser reads it."""
    from marketsolver import series

    with mock.patch.object(series, "_parse_plain_body", return_value=None):
        return _outcome(text)


def _assert_same_outcome(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        assert type(a) is type(b), (a, b)
        assert getattr(a, "line_number", None) == getattr(b, "line_number", None)
        assert str(a) == str(b)
        return
    assert (a.assets, a.months) == (b.assets, b.months)
    assert a.return_matrix.shape == b.return_matrix.shape
    # bitwise, so NaN holes and signed zeros count too
    assert a.return_matrix.tobytes() == b.return_matrix.tobytes()
    assert (a.price_matrix is None) == (b.price_matrix is None)
    if a.price_matrix is not None:
        assert a.price_matrix.tobytes() == b.price_matrix.tobytes()


PAD = st.sampled_from(["", " ", "\t", "  "])
NUMBER = st.one_of(
    st.integers(-500, 500).map(lambda c: repr(c / 100)),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.sampled_from(["0", "-0.0", "1e-3", " 7 "]),
)


@st.composite
def quote_free_panels(draw):
    """Panel CSV text with the irregularities the row parser tolerates or names."""
    assets = draw(st.lists(st.sampled_from(["A", "BB", "c1", "X", "Y9"]),
                           min_size=1, max_size=5, unique=True))
    months = [f"20{20 + i // 12}-{i % 12 + 1:02d}" for i in range(draw(st.integers(1, 8)))]
    grid = [(a, m) for a in sorted(assets) for m in months]
    keys = draw(st.one_of(
        st.just(grid),  # every cell, in the panel's own order
        st.just(sorted(grid, key=lambda key: key[::-1])),  # every cell, date by date
        st.permutations(grid),
        st.lists(st.tuples(st.sampled_from(assets), st.sampled_from(months)), max_size=25),
    ))
    if keys and draw(st.integers(0, 3)) == 0:  # a duplicate (asset, date) key
        keys.append(draw(st.sampled_from(keys)))
    priced = draw(st.booleans())
    rows = [["date", "asset", "return"] + (["price"] if priced else [])]
    for asset, month in keys:
        rows.append([month, asset, draw(NUMBER)])
        if priced:  # sometimes blank, which leaves the cell unpriced
            rows[-1].append(draw(st.sampled_from(["", "  "])) if draw(st.integers(0, 7)) == 0
                            else draw(NUMBER))
    if len(rows) > 1 and draw(st.integers(0, 3)) == 0:  # one bad field
        row = draw(st.sampled_from(rows[1:]))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(["", "oops", "nan", "inf"]))
    lines = [",".join(draw(PAD) + field + draw(PAD) for field in row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        blank = draw(st.sampled_from(["", " ", "\t", " , ,", ",,,"]))
        lines.insert(draw(st.integers(1, len(lines))), blank)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))


class TestBulkAndRowParsersAgree:
    @settings(max_examples=400, deadline=None)
    @given(quote_free_panels())
    def test_random_quote_free_panels(self, text):
        from marketsolver import series

        expected = _row_outcome(text)
        _assert_same_outcome(_outcome(text), expected)
        # chunks of a line or two: widths, blank lines and labels across chunk ends
        with mock.patch.object(series, "PARSE_CHUNK_CHARS", 8):
            _assert_same_outcome(_outcome(text), expected)

    ONE_ASSET = "".join(
        f"{1000 + i // 12}-{i % 12 + 1:02d},X,{(i % 7 - 3) / 100!r},{10 + i % 5}.25\n"
        for i in range(600)
    )
    SHUFFLED = "".join(
        f"{2000 + k % 40 // 12}-{k % 40 % 12 + 1:02d}, {'ABC'[k % 3]} ,{k / 8!r},{k + 1}\n"
        for k in range(119, -1, -1)
        if k % 11
    )

    @pytest.mark.parametrize("body", [
        "2020-01,B,1\n2020-02,A,2\n2020-01,A,3\n2020-02,B,4\n",
        "2020-01,A,1\n2020-02,B,2\n2020-01,B,3\n2020-02,A,4\n",
        "2020-01,A,1\n2020-01,A,2\n2020-01,B,3\n2020-01,B,4\n",
        "2020-02,X,1\n2020-01,X,2\n",
        "2020-01,A,1\n2020-02,A,2\n2020-01,B,3\n",
        "2020-01,A,1\n2020-01,B,2\n2020-01,A,3\n",
    ], ids=["unsorted_assets", "interleaved_assets", "repeated_months", "reversed_months", "hole", "duplicate"])
    def test_rows_out_of_grid_order_are_placed_by_key(self, body):
        text = "date,asset,return\n" + body
        _assert_same_outcome(_outcome(text), _row_outcome(text))

    @pytest.mark.parametrize("body", [ONE_ASSET, SHUFFLED], ids=["in_order", "shuffled"])
    def test_spellings_stay_on_the_bulk_path(self, body, monkeypatch):
        from marketsolver import series

        plain = "date,asset,return,price\n" + body
        expected = _row_outcome(plain)

        def refuse(rows, has_price_col):
            raise AssertionError("the row parser was used")

        monkeypatch.setattr(series, "_parse_rows", refuse)
        crlf = plain.replace("\n", "\r\n")
        spellings = [
            plain,
            crlf,
            plain + "\n",
            crlf + "\r\n",
            plain.replace("\n", "\n \n", 3).replace("\n", "\n , ,\n", 1),
            '"date",asset,"return",price\n' + body,
            'date,asset,return,"price\n"\n' + body,  # a quoted header spanning two lines
            "\ufeff" + plain,
            "\ufeff" + crlf + "\r\n",
            io.StringIO(plain),
        ]
        for text in spellings:
            _assert_same_outcome(load_panel_csv(text), expected)

    @pytest.mark.parametrize("body, line", [
        ("2020-01,X,0.1\n2020-02,X,Y,0.2\n2020-03,X0.3\n", 3),
        ("2020-01,X,0.1\n2020-02,X,Y,0.2\n\n2020-03,X0.3\n", 3),
        # the fourth field is never read, so a split shifted by a field would parse
        ("2020-01,X,0.1,a\n2020-02,X,0.2\n2020-03,X,0.3,7,c\n", None),
        # one line with the fields of two, its line end where a line's would be
        ("2020-01,X,0.1\n2020-02,X,0.2,2020-03,X,0.3,7\n", None),
    ], ids=["adjacent", "blank_line_between", "unread_field", "two_lines_in_one"])
    def test_offsetting_field_counts_reach_the_row_parser(self, body, line, monkeypatch):
        # an extra comma on one line and a missing one on another keep the
        # chunk's field count right; the line ends are out of place
        from marketsolver import series

        text = "date,asset,return\n" + body
        expected = _row_outcome(text)
        assert getattr(expected, "line_number", None) == line
        calls = []
        row_parser = series._parse_rows

        def counted(rows, has_price_col):
            calls.append(has_price_col)
            return row_parser(rows, has_price_col)

        monkeypatch.setattr(series, "_parse_rows", counted)
        _assert_same_outcome(_outcome(text), expected)
        assert calls == [False]

    GRID = {(asset, 1999 + m): f"{(m * 7 + len(asset)) % 9 - 4}e-2,{m + 2}.5"
            for asset in ["AA", "B", "C7"] for m in range(30)}

    @pytest.mark.parametrize("order, bulk", [
        (sorted(GRID), True),
        (sorted(GRID, key=lambda key: key[::-1]), True),
        (sorted(GRID, key=lambda key: (key[1] * 7919) % 89 + ord(key[0][-1])), False),
    ], ids=["asset_major", "date_major", "shuffled"])
    def test_row_orders_give_one_panel(self, order, bulk, monkeypatch):
        from marketsolver import series

        text = "date,asset,return,price\n" + "".join(
            f"{year}-06,{asset},{self.GRID[asset, year]}\n" for asset, year in order
        )
        expected = _row_outcome("date,asset,return,price\n" + "".join(
            f"{year}-06,{asset},{self.GRID[asset, year]}\n" for asset, year in sorted(self.GRID)
        ))
        if bulk:
            monkeypatch.setattr(series, "_parse_rows", mock.Mock(side_effect=AssertionError))
        _assert_same_outcome(load_panel_csv(text), expected)
        # one label spelled with padding is no block; it is scattered by key
        padded = text.replace("\n1999-06,B,", "\n1999-06, B,", 1)
        _assert_same_outcome(load_panel_csv(padded), expected)
        assert load_panel_csv(text).return_matrix.flags.c_contiguous

    def test_quotes_in_the_body_use_the_row_parser(self, monkeypatch):
        from marketsolver import series

        calls = []
        row_parser = series._parse_rows

        def counted(rows, has_price_col):
            calls.append(has_price_col)
            return row_parser(rows, has_price_col)

        monkeypatch.setattr(series, "_parse_rows", counted)
        panel = load_panel_csv('"date",asset,return\n2020-01,"X",0.5\n')
        assert calls == [False]
        assert panel == PanelData(["X"], ["2020-01"], {("X", "2020-01"): 0.5})

    def test_reader_buffer_is_freed_before_the_bulk_parse(self, monkeypatch):
        # the csv reader's StringIO holds the text at up to 4 bytes a
        # character, so it must not stay alive through the bulk parse
        from marketsolver import series

        buffers = []
        string_io = io.StringIO

        def tracked(*args, **kwargs):
            buffer = string_io(*args, **kwargs)
            buffers.append(weakref.ref(buffer))
            return buffer

        bulk_parser = series._parse_plain_body
        live = []

        def checked(text, start, has_price_col):
            live.append(sum(ref() is not None for ref in buffers))
            return bulk_parser(text, start, has_price_col)

        monkeypatch.setattr(io, "StringIO", tracked)
        monkeypatch.setattr(series, "_parse_plain_body", checked)
        panel = load_panel_csv("date,asset,return,price\n" + self.ONE_ASSET)
        assert len(panel.months) == 600
        assert buffers and live == [0]
