import pytest
from hypothesis import given
from hypothesis import strategies as st

from marketsolver import (
    Context,
    DuplicateRowError,
    InvalidWindowError,
    PanelParseError,
    PriceSeries,
    directions,
    gen_planted,
    gen_random_walk,
    load_panel_csv,
    sliding_contexts,
)


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
        assert ("BBB", "2020-02") not in panel.returns
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
        srs = panel.series_for("AAA")
        assert srs.prices.tolist() == [5.0, 4.0]
        assert srs.returns.tolist() == [1.0, -1.0]

    def test_bad_header_rejected(self):
        with pytest.raises(PanelParseError):
            load_panel_csv("timestamp,ticker,ret\n")


class TestDirections:
    def test_empty(self):
        assert directions(make_series([])).bits == ()

    def test_sign_definition_with_zero_as_down(self):
        srs = make_series([1.0, -1.0, 2.0, 0.0])
        assert directions(srs).bits == (1, 0, 1, 0)

    @given(st.lists(st.floats(-10, 10, allow_nan=False), max_size=50))
    def test_up_count_matches_positive_count(self, returns):
        srs = PriceSeries(
            returns=tuple(returns), prices=tuple([1.0] * len(returns))
        )
        bits = directions(srs).bits
        assert sum(bits) == sum(1 for r in returns if r > 0)
        assert all(b == (1 if r > 0 else 0) for b, r in zip(bits, returns))


class TestSlidingContexts:
    def test_single_full_window(self):
        srs = make_series([1.0, -1.0, 1.0])  # bits 1,0,1
        out = sliding_contexts(srs, 3)
        assert len(out) == 1
        end, ctx = out[0]
        assert end == 2
        assert ctx.code == 0b101 == 5

    def test_width_one_is_the_bit_itself(self):
        srs = make_series([1.0, 1.0])
        out = sliding_contexts(srs, 1)
        assert [c.code for _, c in out] == [1, 1]

    def test_eight_wide_window_reads_137(self):
        # direction pattern 1,0,0,0,1,0,0,1 read oldest-first is binary
        # 10001001 = 137
        bits = [1, 0, 0, 0, 1, 0, 0, 1]
        srs = make_series([1.0 if b else -1.0 for b in bits])
        out = sliding_contexts(srs, 8)
        assert len(out) == 1
        assert out[0][1].code == 137

    def test_window_larger_than_series_rejected(self):
        with pytest.raises(InvalidWindowError):
            sliding_contexts(make_series([1.0, 1.0]), 3)

    @given(st.integers(1, 6), st.integers(0, 40))
    def test_cardinality_and_code_range(self, t, extra):
        n = t + extra
        srs = gen_random_walk(n, 0.5, seed=n * 31 + t)
        out = sliding_contexts(srs, t)
        assert len(out) == n - t + 1
        assert all(0 <= c.code < (1 << t) for _, c in out)


class TestGenRandomWalk:
    def test_zero_length(self):
        assert len(gen_random_walk(0, 0.5, 1)) == 0

    def test_degenerate_probability(self):
        assert gen_random_walk(5, 1.0, 3).returns.tolist() == [1.0] * 5
        assert gen_random_walk(5, 0.0, 3).returns.tolist() == [-1.0] * 5

    def test_fair_walk_up_fraction(self):
        srs = gen_random_walk(10_000, 0.5, seed=11)
        frac = sum(directions(srs).bits) / 10_000
        assert abs(frac - 0.5) < 0.02

    def test_deterministic_given_seed(self):
        assert gen_random_walk(200, 0.3, 7) == gen_random_walk(200, 0.3, 7)
        assert gen_random_walk(200, 0.3, 7) != gen_random_walk(200, 0.3, 8)

    def test_prices_positive(self):
        srs = gen_random_walk(5000, 0.2, seed=5)  # heavy drift down
        assert all(p > 0 for p in srs.prices)


def conditional_up_rate(srs, pattern):
    """Independent count: P(next period UP | trailing bits == pattern)."""
    bits = directions(srs).bits
    t = pattern.lookback
    hits = ups = 0
    for i in range(t, len(bits)):
        window = 0
        for b in bits[i - t : i]:
            window = (window << 1) | b
        if window == pattern.code:
            hits += 1
            ups += bits[i]
    return ups / hits if hits else float("nan")


class TestGenPlanted:
    def test_zero_edge_is_fair(self):
        pattern = Context(lookback=3, code=0b111)
        srs = gen_planted(20_000, pattern, 0.0, seed=2)
        assert abs(conditional_up_rate(srs, pattern) - 0.5) < 0.05

    def test_planted_edge_shows_up(self):
        pattern = Context(lookback=3, code=0b111)
        srs = gen_planted(20_000, pattern, 0.3, seed=2)
        assert abs(conditional_up_rate(srs, pattern) - 0.8) < 0.03

    def test_pattern_longer_than_series_rejected(self):
        with pytest.raises(InvalidWindowError):
            gen_planted(2, Context(lookback=3, code=0), 0.1, seed=0)

    def test_deterministic_given_seed(self):
        pattern = Context(lookback=2, code=1)
        a = gen_planted(500, pattern, 0.2, seed=9)
        b = gen_planted(500, pattern, 0.2, seed=9)
        assert a == b


class TestTypes:
    def test_price_series_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            PriceSeries(returns=(1.0,), prices=(1.0, 2.0))

    def test_price_series_rejects_nonpositive_levels(self):
        with pytest.raises(ValueError):
            PriceSeries(returns=(1.0,), prices=(0.0,))

    def test_context_code_must_fit_lookback(self):
        with pytest.raises(ValueError):
            Context(lookback=2, code=4)

    def test_context_bits_oldest_first(self):
        assert Context(lookback=4, code=0b1010).bits() == (1, 0, 1, 0)

    def test_from_returns_compounds_levels(self):
        srs = PriceSeries.from_returns([0.5, -0.5], start=100.0)
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
        assert (a.assets, a.months, a.returns, a.prices) == (
            b.assets, b.months, b.returns, b.prices
        )
        assert a.prices == {("AAA", "2020-01"): 2.0}

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
        assert len(panel.prices) == 8999

    def test_blank_lines_are_skipped_and_counted(self):
        csv_text = "date,asset,return\n2020-01,AAA,0.5\n\n , ,\n2020-02,AAA,oops\n"
        with pytest.raises(PanelParseError) as exc:
            load_panel_csv(csv_text)
        assert exc.value.line_number == 5

    def test_duplicate_reports_its_line(self):
        csv_text = "date,asset,return\n2020-01,AAA,0.5\n2020-02,AAA,0.5\n2020-01,AAA,0.1\n"
        with pytest.raises(DuplicateRowError, match="line 4"):
            load_panel_csv(csv_text)

    def test_file_like_input(self):
        import io

        panel = load_panel_csv(io.StringIO("date,asset,return\n2020-01,AAA,0.5\n"))
        assert panel.returns == {("AAA", "2020-01"): 0.5}

    def test_auto_synthesis_shifts_unit_moves(self):
        panel = load_panel_csv("date,asset,return\n2020-01,X,1.0\n2020-02,X,-1.0\n")
        assert panel.series_for("X", synthesis="auto") == PriceSeries.with_shifted_levels(
            [1.0, -1.0]
        )
        panel = load_panel_csv("date,asset,return\n2020-01,X,0.5\n2020-02,X,-0.5\n")
        assert panel.series_for("X", synthesis="auto") == PriceSeries.from_returns([0.5, -0.5])

    def test_hole_is_reported(self):
        panel = load_panel_csv(
            "date,asset,return\n2020-01,X,1\n2020-02,Y,1\n2020-03,X,1\n"
        )
        with pytest.raises(ValueError, match="holes at \\['2020-02'\\]"):
            panel.series_for("X")
