"""The array-backed context kernel against plain scalar references.

All three kernels follow the exact-sum rule, so their references sum in
exact rational arithmetic (`Fraction`): the tables must be equal, and
the profits must be the exact sums correctly rounded, bit for bit (a
zero profit is +0.0). `ref_evaluate` is the scalar per-period float loop
that `evaluate` used to be; the exact profit must stay within that
loop's rounding bound of it.
"""

import random
import struct
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from marketsolver import (
    PriceSeries,
    TechnicalStrategy,
    WorkCounter,
    brute_force_best,
    enumerate_long_or_out,
    evaluate,
    gen_random_walk,
    optimal_strategy,
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


def ref_exact_evaluate(table, returns, t):
    profit = sum((table[c] * Fraction(r) for c, r in ref_context_stream(returns, t)), Fraction(0))
    return float(profit)


def ref_context_stream(returns, t):
    mask = (1 << t) - 1
    code = 0
    pairs = []
    for i, r in enumerate(returns):
        if i >= t:
            pairs.append((code, r))
        code = ((code << 1) | (1 if r > 0 else 0)) & mask
    return pairs


def ref_bucket_totals(returns, t):
    """Exact sum of the returns after each occurring context."""
    totals = {}
    for code, r in ref_context_stream(returns, t):
        totals[code] = totals.get(code, Fraction(0)) + Fraction(r)
    return totals


def ref_brute_force_best(returns, t):
    """Every table's exact profit; the first (lowest-mask) maximum wins."""
    totals = ref_bucket_totals(returns, t)
    n_contexts = 1 << t
    best_table = None
    best_profit = None
    for mask in range(1 << n_contexts):
        table = tuple((mask >> code) & 1 for code in range(n_contexts))
        profit = sum((s for c, s in totals.items() if table[c]), Fraction(0))
        if best_profit is None or profit > best_profit:
            best_profit = profit
            best_table = table
    return best_table, float(best_profit)


def ref_optimal_strategy(returns, t):
    table = [0] * (1 << t)
    profit = Fraction(0)
    for c, s in ref_bucket_totals(returns, t).items():
        if s > 0:
            table[c] = 1
            profit += s
    return tuple(table), float(profit)


def bits(x):
    """The exact IEEE-754 bit pattern, so 0.0 and -0.0 differ."""
    return struct.pack("<d", x)


@st.composite
def cent_series(draw):
    t = draw(st.integers(1, 3))
    cents = draw(st.lists(st.integers(-500, 500), min_size=t + 1, max_size=60))
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
        # each window ending at period end, read on its own, oldest bit first
        windows = []
        for end in range(t - 1, len(returns)):
            code = 0
            for r in returns[end - t + 1 : end + 1]:
                code = (code << 1) | (1 if r > 0 else 0)
            windows.append(code)
        assert codes.tolist() == windows

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
    @given(cent_series())
    def test_brute_force_best(self, case):
        t, returns = case
        strat, profit = brute_force_best(as_series(returns), t)
        table, expected = ref_brute_force_best(returns, t)
        assert strat.table == table
        assert type(profit) is float
        assert bits(profit) == bits(expected)

    @settings(max_examples=200, deadline=None)
    @given(cent_series(), st.data())
    def test_evaluate(self, case, data):
        t, returns = case
        table = tuple(
            data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=1 << t, max_size=1 << t))
        )
        strat = TechnicalStrategy(lookback=t, table=table)
        profit = evaluate(strat, as_series(returns))
        assert type(profit) is float
        assert bits(profit) == bits(ref_exact_evaluate(table, returns, t))
        bound = len(returns) * 2.0**-51 * sum(abs(r) for r in returns[t:])
        assert abs(profit - ref_evaluate(table, returns, t)) <= bound

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


def q3_brute_returns(seed):
    """The 4,500 returns that the `q3_csv` benchmark feeds `strategy brute`.

    The workload draws 20,000 whole-cent moves for `strategy optimal` and
    20,000 for `strategy decide` from random.Random(seed) before these.
    """
    rng = random.Random(seed)
    for _ in range(40_000):
        rng.randint(-5, 5)
    return [rng.randint(-5, 5) / 100 for _ in range(4_500)]


class TestExactOracle:
    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(1, 2),
        st.lists(st.sampled_from((-0.7, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.7)), max_size=40),
    )
    def test_decimal_returns_agree_exactly(self, t, returns):
        # decimal steps whose sums are zero in decimal but not in binary,
        # so float bucket sums land on either side of zero
        returns = [0.1, 0.2, -0.3] + returns
        srs = as_series(returns)
        fast_strat, fast = optimal_strategy(srs, t)
        brute_strat, brute = brute_force_best(srs, t)
        assert fast_strat == brute_strat
        assert bits(fast) == bits(brute)
        table, expected = ref_optimal_strategy(returns, t)
        assert fast_strat.table == table and bits(fast) == bits(expected)

    # (seed, the exact optimum's table): seeds on which the float engines
    # picked different tables
    Q3_SEEDS = [
        (26, (1, 1, 1, 1, 1, 1, 1, 0)),
        (127, (0, 0, 0, 0, 1, 1, 1, 1)),
        (1234, (1, 1, 0, 1, 1, 1, 1, 1)),
    ]

    def test_q3_csv_brute_series(self):
        for seed, table in self.Q3_SEEDS:
            returns = q3_brute_returns(seed)
            srs = PriceSeries.from_returns(returns)
            fast = optimal_strategy(srs, 3)
            brute = brute_force_best(srs, 3)
            ref_table, expected = ref_optimal_strategy(returns, 3)
            assert fast[0].table == brute[0].table == ref_table == table
            assert bits(fast[1]) == bits(brute[1]) == bits(expected)

    def test_evaluate_of_the_optimum_is_its_profit(self):
        # the float loop read above the optimum on 15 of these 30 seeds
        for seed in range(30):
            srs = PriceSeries.from_returns(q3_brute_returns(seed))
            strat, profit = optimal_strategy(srs, 3)
            assert bits(evaluate(strat, srs)) == bits(profit)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 2),
        st.lists(st.sampled_from((-0.7, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.7)), max_size=40),
    )
    def test_no_table_evaluates_above_the_optimum(self, t, returns):
        srs = as_series([0.1, 0.2, -0.3] + returns)
        _, best = optimal_strategy(srs, t)
        assert all(evaluate(strat, srs) <= best for strat in enumerate_long_or_out(t))

    def test_float_ties_and_swaps_are_broken_exactly(self):
        # the float engines chose (0, 1) vs (1, 1) here, and (1, 1) vs
        # (1, 0) at the same float profit 0.7 in the second series
        for returns in ([-0.2, 0.1, 0.2, -0.1, -0.1], [0.7, 0.2, 0.1, -0.3, 0.7]):
            table, expected = ref_optimal_strategy(returns, 1)
            assert ref_brute_force_best(returns, 1) == (table, expected)
            for engine in (optimal_strategy, brute_force_best):
                strat, profit = engine(as_series(returns), 1)
                assert strat.table == table
                assert bits(profit) == bits(expected)

    def test_overflow_rounds_to_infinity(self):
        _, profit = optimal_strategy(as_series([1e308] * 5), 1)
        assert profit == float("inf")
        _, profit = brute_force_best(as_series([1e308] * 5), 1)
        assert profit == float("inf")


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
