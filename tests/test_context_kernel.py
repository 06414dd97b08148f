"""The array-backed context kernel against plain scalar loops.

The reference functions below are the scalar per-period loops that the
vectorised kernels replaced. The vectorised versions must reproduce them
bit for bit (tables, profits and the sign of a zero profit), not just
approximately: they add the same floats in the same order.
"""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from marketsolver import (
    PriceSeries,
    TechnicalStrategy,
    WorkCounter,
    brute_force_best,
    evaluate,
    gen_random_walk,
    optimal_strategy,
    sliding_contexts,
)
from marketsolver.series import context_codes

# ------------------------------------------------------- scalar references


def ref_evaluate(table, returns, t):
    mask = (1 << t) - 1
    code = 0
    profit = 0.0
    for i, r in enumerate(returns):
        if i >= t:
            profit += table[code] * r
        code = ((code << 1) | (1 if r > 0 else 0)) & mask
    return profit


def ref_context_stream(returns, t):
    mask = (1 << t) - 1
    code = 0
    pairs = []
    for i, r in enumerate(returns):
        if i >= t:
            pairs.append((code, r))
        code = ((code << 1) | (1 if r > 0 else 0)) & mask
    return pairs


def ref_brute_force_best(returns, t):
    pairs = ref_context_stream(returns, t)
    n_contexts = 1 << t
    best_table = None
    best_profit = None
    for mask in range(1 << n_contexts):
        table = tuple((mask >> code) & 1 for code in range(n_contexts))
        profit = 0.0
        for code, r in pairs:
            profit += table[code] * r
        if best_profit is None or profit > best_profit:
            best_profit = profit
            best_table = table
    return best_table, best_profit


def ref_optimal_strategy(returns, t):
    sums = {}
    mask = (1 << t) - 1
    code = 0
    for i, r in enumerate(returns):
        if i >= t:
            sums[code] = sums.get(code, 0.0) + r
        code = ((code << 1) | (1 if r > 0 else 0)) & mask
    table = [0] * (1 << t)
    profit = 0.0
    for c, s in sums.items():
        if s > 0:
            table[c] = 1
            profit += s
    return tuple(table), profit


def bits(x):
    """The exact IEEE-754 bit pattern, so 0.0 and -0.0 differ."""
    return struct.pack("<d", x)


@st.composite
def cent_series(draw, min_extra=1):
    t = draw(st.integers(1, 3))
    cents = draw(st.lists(st.integers(-500, 500), min_size=t + min_extra, max_size=60))
    return t, [c / 100 for c in cents]


def as_series(returns):
    return PriceSeries(returns=returns, prices=[1.0] * len(returns))


# ----------------------------------------------------------------- kernel


class TestContextCodes:
    @given(st.integers(1, 8), st.lists(st.floats(-5, 5, allow_nan=False), max_size=40))
    def test_agrees_with_sliding_contexts(self, t, returns):
        codes = context_codes(returns, t)
        assert codes.dtype == np.int64
        if len(returns) < t:
            assert len(codes) == 0
            return
        windows = sliding_contexts(as_series(returns), t)
        assert [(k + t - 1, c) for k, c in enumerate(codes.tolist())] == [
            (end, ctx.code) for end, ctx in windows
        ]

    def test_zero_and_nan_count_as_down(self):
        assert context_codes([0.0, -0.0, float("nan"), 1e-300], 1).tolist() == [0, 0, 0, 1]

    def test_oldest_bit_is_most_significant(self):
        assert context_codes([1.0, -1.0, -1.0, 1.0], 4).tolist() == [0b1001]


# ------------------------------------------------ bit identity properties


class TestBitIdentity:
    @settings(max_examples=200, deadline=None)
    @given(cent_series())
    def test_optimal_strategy(self, case):
        t, returns = case
        strat, profit = optimal_strategy(as_series(returns), t)
        table, expected = ref_optimal_strategy(returns, t)
        assert strat.table == table
        assert all(type(p) is int for p in strat.table)
        assert type(profit) is float
        assert bits(profit) == bits(expected)

    @settings(max_examples=100, deadline=None)
    @given(cent_series(min_extra=0))
    def test_brute_force_best(self, case):
        t, returns = case
        strat, profit = brute_force_best(as_series(returns), t)
        table, expected = ref_brute_force_best(returns, t)
        assert strat.table == table
        assert type(profit) is float
        assert bits(profit) == bits(expected)

    @settings(max_examples=200, deadline=None)
    @given(cent_series(min_extra=0), st.data())
    def test_evaluate(self, case, data):
        t, returns = case
        table = tuple(
            data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=1 << t, max_size=1 << t))
        )
        strat = TechnicalStrategy(lookback=t, table=table)
        profit = evaluate(strat, as_series(returns))
        assert type(profit) is float
        assert bits(profit) == bits(ref_evaluate(table, returns, t))

    def test_all_losses_keep_a_positive_zero(self):
        # every tradable period loses, so the all-out table wins with 0.0
        returns = [-0.01] * 12
        _, profit = brute_force_best(as_series(returns), 2)
        assert bits(profit) == bits(0.0)
        out = TechnicalStrategy(lookback=2, table=(0, 0, 0, 0), long_or_out=True)
        assert bits(evaluate(out, as_series(returns))) == bits(0.0)

    def test_blocks_do_not_change_the_sums(self, monkeypatch):
        import marketsolver.strategy_search as ss

        srs = PriceSeries.with_shifted_levels(
            [((i * 37) % 11 - 5) / 100 for i in range(700)]
        )
        whole = brute_force_best(srs, 3)
        monkeypatch.setattr(ss, "PROFIT_BLOCK_BYTES", 8 * 256 * 3)
        monkeypatch.setattr(ss, "PROFIT_BLOCK_TABLES", 16)
        blocked = brute_force_best(srs, 3)
        assert blocked[0] == whole[0]
        assert bits(blocked[1]) == bits(whole[1])
        table, expected = ref_brute_force_best(srs.returns.tolist(), 3)
        assert whole[0].table == table and bits(whole[1]) == bits(expected)


class TestWorkCounts:
    def test_counts_stay_exact(self):
        srs = gen_random_walk(300, 0.5, seed=5)
        counter = WorkCounter()
        optimal_strategy(srs, 3, counter=counter)
        assert counter.periods_scanned == 300
        counter = WorkCounter()
        brute_force_best(srs, 3, counter=counter)
        assert counter.strategies_evaluated == 2 ** (2**3)


class TestPriceSeriesArrays:
    def test_arrays_are_read_only_copies(self):
        rets = [0.5, -0.25]
        srs = PriceSeries.from_returns(rets)
        rets[0] = 9.0
        assert srs.returns.tolist() == [0.5, -0.25]
        assert not srs.returns.flags.writeable and not srs.prices.flags.writeable
        assert srs.returns.dtype == np.float64

    def test_compounding_multiplies_in_period_order(self):
        rets = [0.07, -0.03, 0.11, 0.02, -0.05]
        level, expected = 100.0, []
        for r in rets:
            level *= 1.0 + r
            expected.append(level)
        assert PriceSeries.from_returns(rets).prices.tolist() == expected

    def test_equality_compares_values(self):
        a = PriceSeries(returns=[1.0, 2.0], prices=[1.0, 1.0])
        assert a == PriceSeries(returns=(1.0, 2.0), prices=(1.0, 1.0))
        assert a != PriceSeries(returns=(1.0, 3.0), prices=(1.0, 1.0))
