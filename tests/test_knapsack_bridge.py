import itertools
import math
import random

import numpy as np
import pytest

from marketsolver import (
    CapacityError,
    KnapsackInstance,
    MultiAssetScenario,
    PriceSeries,
    QuantizationError,
    decide_knapsack,
    decide_q4,
    knapsack_to_scenario,
    scenario_to_knapsack,
    solve_bruteforce,
    solve_dp,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from marketsolver import knapsack_bridge
from marketsolver.knapsack_bridge import (
    _aggregate_contexts,
    read_scenario_csv,
    realized_profit_and_cost,
    ticks_array,
    write_scenario_csv,
)
from marketsolver.strategy_search import _tradable, bucket_contexts, optimal_strategy

EXAMPLE = KnapsackInstance(items=((3, 4), (4, 5), (5, 6)), budget=7, target=9)


def subsets_oracle(items, budget):
    """Plain loop over every subset; returns the best feasible value."""
    n = len(items)
    best = 0
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            size = sum(items[i][0] for i in combo)
            value = sum(items[i][1] for i in combo)
            if size <= budget:
                best = max(best, value)
    return best


def random_instance(rng, max_items=18, max_coeff=50, max_budget=200):
    n = rng.randint(1, max_items)
    items = tuple(
        (rng.randint(1, max_coeff), rng.randint(1, max_coeff)) for _ in range(n)
    )
    return KnapsackInstance(
        items=items,
        budget=rng.randint(1, max_budget),
        target=rng.randint(1, max_coeff * n),
    )


class TestSolveBruteforce:
    def test_no_items(self):
        inst = KnapsackInstance(items=(), budget=5, target=1)
        sol = solve_bruteforce(inst)
        assert sol.chosen == ()
        assert sol.total_value == 0

    def test_example_instance_beats_all_eight_subsets(self):
        sol = solve_bruteforce(EXAMPLE)
        assert sol.total_value == subsets_oracle(EXAMPLE.items, EXAMPLE.budget) == 9
        assert sol.chosen == (0, 1)
        assert sol.total_size == 7

    def test_single_infeasible_item(self):
        inst = KnapsackInstance(items=((10, 3),), budget=5, target=1)
        sol = solve_bruteforce(inst)
        assert sol.chosen == ()
        assert sol.total_value == 0

    def test_tie_breaks_to_lexicographically_smallest(self):
        # {0} and {1} both reach value 5 within budget; {0} wins
        inst = KnapsackInstance(items=((2, 5), (3, 5)), budget=3, target=5)
        assert solve_bruteforce(inst).chosen == (0,)

    def test_item_guard(self):
        items = tuple((1, 1) for _ in range(26))
        with pytest.raises(CapacityError):
            solve_bruteforce(KnapsackInstance(items=items, budget=1, target=1))


class TestSolveDp:
    def test_example_instance(self):
        assert solve_dp(EXAMPLE).total_value == 9

    def test_budget_below_every_size(self):
        inst = KnapsackInstance(items=((5, 9), (7, 2)), budget=4, target=1)
        sol = solve_dp(inst)
        assert sol.total_value == 0
        assert sol.chosen == ()

    def test_matches_bruteforce_on_random_instances(self):
        rng = random.Random(1234)
        for _ in range(60):
            inst = random_instance(rng, max_items=12)
            brute = solve_bruteforce(inst)
            dp = solve_dp(inst)
            assert dp.total_value == brute.total_value
            assert dp.total_size <= inst.budget
            assert sum(inst.items[i][1] for i in dp.chosen) == dp.total_value

    def test_cell_cap(self, monkeypatch):
        # 26 x 50M cells is past the DP's cap; the front answers with at most 26 pairs
        inst = KnapsackInstance(items=((1, 1),) * 25, budget=50_000_000, target=1)
        assert solve_dp(inst) == solve_bruteforce(inst)
        # a front past its byte cap leaves only the DP, which this budget also passes
        monkeypatch.setattr(knapsack_bridge, "MAX_FRONT_BYTES", 100)
        with pytest.raises(CapacityError, match="cap 100 bytes and DP table of 1300000026 cells"):
            solve_dp(inst)


class TestDecideKnapsack:
    def test_reachable_target(self):
        assert decide_knapsack(EXAMPLE) is True

    def test_unreachable_target(self):
        inst = KnapsackInstance(items=EXAMPLE.items, budget=7, target=10)
        assert decide_knapsack(inst) is False

    def test_trivial_single_item(self):
        assert decide_knapsack(
            KnapsackInstance(items=((1, 1),), budget=1, target=1)
        ) is True

    def test_budget_monotone(self):
        rng = random.Random(77)
        for _ in range(25):
            inst = random_instance(rng, max_items=8, max_coeff=12, max_budget=40)
            previous = False
            for budget in range(1, 41, 4):
                now = decide_knapsack(
                    KnapsackInstance(
                        items=inst.items, budget=budget, target=inst.target
                    )
                )
                assert now >= previous  # growing the budget never flips to NO
                previous = now


def hand_scenario():
    """Single asset, t=1, hand-traceable occurrences.

    Returns +1, +2, -1, +3 give direction bits 1, 1, 0 on the first three
    periods, so context 1 occurs at indices 0 and 1 (entry prices 5 and 7,
    subsequent returns +2 and -1) and context 0 occurs at index 2 (entry
    price 4, subsequent return +3).
    """
    return MultiAssetScenario(
        returns=[[1.0, 2.0, -1.0, 3.0]], prices=[[5.0, 7.0, 4.0, 9.0]],
        lookback=1, budget=20, target=4, tick=1.0,
    )


class TestScenarioToKnapsack:
    def test_hand_built_aggregation(self):
        inst, mapping = scenario_to_knapsack(hand_scenario())
        # context 1: occurrences at indices 0 and 1 -> sizes 5+7, values 2-1
        # context 0: occurrence at index 2 -> size 4, value 3
        assert mapping == {0: 0, 1: 1}
        assert inst.items == ((4, 3), (12, 1))
        assert inst.budget == 20 and inst.target == 4

    def test_nothing_profitable_gives_empty_items(self):
        sc = MultiAssetScenario(
            returns=[[1.0, -1.0, -2.0]], prices=[[1.0, 1.0, 1.0]], lookback=1, budget=5, target=1
        )
        inst, mapping = scenario_to_knapsack(sc)
        assert inst.items == ()
        assert mapping == {}
        assert decide_q4(sc) == (False, None)

    def test_shared_context_aggregates_across_assets(self):
        sc = MultiAssetScenario(
            returns=[[1.0, 2.0], [1.0, 5.0]], prices=[[3.0, 3.0], [4.0, 4.0]],
            lookback=1, budget=10, target=1,
        )
        inst, mapping = scenario_to_knapsack(sc)
        # one item: context 1 on both assets, size 3+4, value 2+5
        assert inst.items == ((7, 7),)
        assert mapping == {1: 0}

    def test_non_quantizing_price_rejected(self):
        with pytest.raises(QuantizationError):
            MultiAssetScenario(returns=[[1.0, 1.0]], prices=[[0.5, 1.0]], lookback=1, budget=1, target=1)


class TestKnapsackToScenario:
    def test_single_item(self):
        inst = KnapsackInstance(items=((5, 3),), budget=5, target=3)
        sc = knapsack_to_scenario(inst)
        assert sc.lookback == 1
        assert sc.returns.shape == sc.prices.shape == (1, 2)
        assert sc.prices[0, 0] == 5.0  # level after the one formation period
        assert sc.returns[0, -1] == 3.0
        assert decide_q4(sc)[0] is True
        assert decide_knapsack(inst) is True

    def test_two_items_get_distinct_contexts(self):
        inst = KnapsackInstance(items=((2, 2), (3, 3)), budget=5, target=5)
        sc = knapsack_to_scenario(inst)
        assert sc.lookback == 1
        agg = _aggregate_contexts(sc)
        assert sorted(agg) == [0, 1]  # each item owns one context code

    def test_round_trip_recovers_items(self):
        inst = KnapsackInstance(
            items=((3, 4), (4, 5), (5, 6), (2, 9)), budget=7, target=9
        )
        sc = knapsack_to_scenario(inst)
        back, mapping = scenario_to_knapsack(sc)
        assert back.items == inst.items
        assert back.budget == inst.budget and back.target == inst.target

    def test_unreachable_decision_matches(self):
        inst = KnapsackInstance(items=EXAMPLE.items, budget=7, target=10)
        sc = knapsack_to_scenario(inst)
        assert decide_q4(sc)[0] is False
        assert decide_knapsack(inst) is False


def random_scenario(rng, max_assets=3, max_len=10):
    n = rng.randint(3, max_len)
    t = rng.randint(1, 2)
    k = rng.randint(1, max_assets)
    return MultiAssetScenario(
        returns=[[float(rng.randint(-2, 2)) for _ in range(n)] for _ in range(k)],
        prices=[[float(rng.randint(1, 9)) for _ in range(n)] for _ in range(k)],
        lookback=t,
        budget=rng.randint(1, 30),
        target=rng.randint(1, 8),
    )


class TestDecideQ4:
    def test_round_trip_yes_with_verified_witness(self):
        sc = knapsack_to_scenario(EXAMPLE)
        decision, witness = decide_q4(sc)
        assert decision is True
        profit, cost = realized_profit_and_cost(sc, witness)
        assert profit >= sc.target
        assert cost <= sc.budget

    def test_infeasible_budget(self):
        sc = MultiAssetScenario(
            returns=[[1.0, 2.0]], prices=[[2.0, 2.0]], lookback=1, budget=1, target=1
        )
        assert decide_q4(sc) == (False, None)

    def test_matches_subset_enumeration_oracle(self):
        rng = random.Random(555)
        for _ in range(30):
            sc = random_scenario(rng)
            agg = _aggregate_contexts(sc)
            codes = sorted(agg)
            expected = False
            for r in range(len(codes) + 1):
                for combo in itertools.combinations(codes, r):
                    cost = sum(agg[c][0] for c in combo)
                    value = sum(agg[c][1] for c in combo)
                    if cost <= sc.budget and value >= sc.target:
                        expected = True
            decision, witness = decide_q4(sc)
            assert decision == expected
            if decision:
                profit, cost = realized_profit_and_cost(sc, witness)
                assert profit >= sc.target and cost <= sc.budget

    def test_decision_round_trip_on_random_instances(self):
        rng = random.Random(4321)
        for _ in range(40):
            inst = random_instance(rng, max_items=10, max_coeff=20, max_budget=60)
            assert decide_knapsack(inst) == decide_q4(knapsack_to_scenario(inst))[0]

    def test_encoding_injectivity(self):
        rng = random.Random(99)
        for _ in range(20):
            inst = random_instance(rng, max_items=9, max_coeff=9, max_budget=20)
            sc = knapsack_to_scenario(inst)
            owners: dict[int, int] = {}
            for a_idx in range(len(sc.returns)):
                for code in _aggregate_contexts(
                    MultiAssetScenario(
                        returns=sc.returns[a_idx : a_idx + 1],
                        prices=sc.prices[a_idx : a_idx + 1],
                        lookback=sc.lookback,
                        budget=sc.budget,
                        target=sc.target,
                        tick=sc.tick,
                    )
                ):
                    assert code not in owners, "context shared between assets"
                    owners[code] = a_idx
            assert len(owners) == len(inst.items)


def one_asset_q3_and_q4(seed, tick):
    """Q3's optimum and Q4's witness on one random series of tick moves.

    The scenario's prices are positive multiples of the tick, its budget
    covers every item and its target is 1, so Q4 takes every item of
    positive value. Returns (series, scenario, Q3 table, Q3 profit, Q4
    table, Q4 value total in ticks).
    """
    rng = random.Random(seed)
    t = rng.randint(1, 4)
    n = rng.randint(t + 1, 120)
    returns = [rng.randint(-5, 5) * tick for _ in range(n)]
    srs = PriceSeries.with_shifted_levels(returns)
    strat, profit = optimal_strategy(srs, t)
    sc = MultiAssetScenario(
        returns=[returns], prices=[[rng.randint(1, 100) * tick for _ in range(n)]],
        lookback=t, budget=10**15, target=1, tick=tick,
    )
    inst, mapping = scenario_to_knapsack(sc)
    decision, witness = knapsack_bridge.decide_reduced(sc, inst, mapping)
    q4_table = witness.table if decision else (0,) * (1 << t)
    value = realized_profit_and_cost(sc, witness)[0] if decision else 0
    return srs, sc, strat.table, profit, q4_table, value


class TestQ3AgreesWithQ4:
    """With a budget that holds every item, Q4 is Q3 read in ticks."""

    SEEDS = range(300)

    def test_dyadic_ticks_give_the_same_table_and_profit(self):
        for seed in self.SEEDS:
            _, _, q3_table, profit, q4_table, value = one_asset_q3_and_q4(seed, 1 / 64)
            assert q4_table == q3_table, seed
            assert value * (1 / 64) == profit, seed

    def test_cent_ticks_differ_only_where_the_tick_total_is_zero(self):
        # the doubles of 0.01 + 0.02 - 0.03 sum to 2**-59 > 0: Q3 goes long
        # on such a context, while its 0-tick item is dropped from Q4
        differing = 0
        for seed in self.SEEDS:
            srs, sc, q3_table, _, q4_table, _ = one_asset_q3_and_q4(seed, 0.01)
            agg = _aggregate_contexts(sc)
            expected = {
                code for code, values in bucket_contexts(srs, sc.lookback).items()
                if agg[code][1] == 0 and math.fsum(values) > 0
            }
            got = {code for code, (a, b) in enumerate(zip(q3_table, q4_table)) if a != b}
            assert got == expected, seed
            differing += bool(got)
        assert differing > 0


class TestScenarioSerialization:
    def test_csv_round_trip(self):
        sc = knapsack_to_scenario(EXAMPLE)
        csv_text, sidecar = write_scenario_csv(sc)
        back = read_scenario_csv(csv_text, sidecar)
        assert back.lookback == sc.lookback
        assert back.budget == sc.budget and back.target == sc.target
        assert back.tick == sc.tick
        assert back.returns.tolist() == sc.returns.tolist()
        assert back.prices.tolist() == sc.prices.tolist()
        assert decide_q4(back)[0] == decide_q4(sc)[0]

    def test_csv_is_read_through_the_series_module(self, monkeypatch):
        # the benchmark's tracer times the parse by patching series.load_panel_csv
        from marketsolver import series

        calls = []
        parse = series.load_panel_csv

        def spy(text):
            calls.append(len(text))
            return parse(text)

        monkeypatch.setattr(series, "load_panel_csv", spy)
        csv_text, sidecar = write_scenario_csv(knapsack_to_scenario(EXAMPLE))
        read_scenario_csv(csv_text, sidecar)
        assert calls == [len(csv_text)]

    def test_instance_json_round_trip(self):
        assert KnapsackInstance.from_json(EXAMPLE.to_json()) == EXAMPLE


class TestInstanceValidation:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            KnapsackInstance(items=((1, 0),), budget=1, target=1)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            KnapsackInstance(items=((1, 1),), budget=0, target=1)


class TestTickHardening:
    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf"), 1e19, -1e19])
    def test_non_finite_or_huge_values_raise(self, x):
        with pytest.raises(QuantizationError):
            ticks_array(x, 1.0)
        with pytest.raises(QuantizationError):
            ticks_array([1.0, x], 1.0)

    def test_ticks_are_exact_int64(self):
        ticks = ticks_array([0.07, -0.03, 1.5], 0.01)
        assert ticks.dtype == np.int64
        assert ticks.tolist() == [7, -3, 150]
        assert ticks_array([2.0**62], 1.0).tolist() == [2**62]
        assert ticks_array(0.07, 0.01) == 7 and ticks_array(0.07, 0.01).dtype == np.int64

    def test_first_misfit_is_named(self):
        with pytest.raises(QuantizationError, match="^0.005 is not a multiple"):
            ticks_array([0.01, 0.005, 0.0025], 0.01)

    def test_non_finite_tick_rejected(self):
        with pytest.raises(ValueError):
            MultiAssetScenario(
                returns=[[1.0, 1.0]], prices=[[1.0, 1.0]], lookback=1, budget=1, target=1,
                tick=float("nan"),
            )

    def test_a_price_below_one_tick_is_named(self):
        # a price within 1e-9 ticks of 0 used to become a size of 0 ticks
        with pytest.raises(QuantizationError, match=r"^price 3.0 is below one tick 1000000000000.0$"):
            MultiAssetScenario(
                returns=[[1.0, 2.0, 1.0]], prices=[[1e12, 3.0, 1.0]], lookback=1, budget=2,
                target=1, tick=1e12,
            )
        # returns may still be 0 ticks
        sc = MultiAssetScenario(
            returns=[[1.0, 2.0]], prices=[[1e12, 2e12]], lookback=1, budget=2, target=1, tick=1e12
        )
        assert (sc.sizes.tolist(), sc.values.tolist()) == ([1], [0])

    @pytest.mark.parametrize("tick", [0.0, -1.0, -float("inf")])
    def test_backward_reduction_names_a_bad_tick(self, tick):
        # the prices are sizes times the tick, so they turn bad with it
        with pytest.raises(ValueError, match="^tick must be positive and finite$"):
            knapsack_to_scenario(EXAMPLE, tick=tick)

    def test_int64_overflowing_totals_raise(self):
        # refused when the scenario is built, where the ticks are made
        big = float(2**61)
        with pytest.raises(QuantizationError, match="int64"):
            MultiAssetScenario(
                returns=[[1.0, 1.0, 1.0, 1.0]], prices=[[big] * 4], lookback=1, budget=1, target=1
            )

    def test_totals_are_python_ints(self):
        sc = hand_scenario()
        agg = _aggregate_contexts(sc)
        assert agg == {0: (4, 3), 1: (12, 1)}
        assert all(type(x) is int for pair in agg.values() for x in pair)
        witness = decide_q4(sc)[1]
        profit, cost = realized_profit_and_cost(sc, witness)
        assert type(profit) is int and type(cost) is int


def ref_scenario_arrays(returns, prices, t, tick):
    """The per-asset loop the scenario matrices replaced, frozen as a reference.

    One `PriceSeries` per asset; each asset's codes come from `_tradable`
    on its own returns and its ticks from one `ticks_array` call over its
    prices, then its returns.
    """
    assets = [PriceSeries(returns=r, prices=p) for r, p in zip(returns, prices)]
    n = len(assets[0])
    codes, sizes, values = [], [], []
    for a in assets:
        codes.append(_tradable(a.returns, t)[0])
        ticks = ticks_array(np.concatenate([a.prices, a.returns]), tick)
        sizes.append(ticks[t - 1 : n - 1])
        values.append(ticks[n + t :])
    return tuple(np.concatenate(parts) for parts in (codes, sizes, values))


@st.composite
def scenario_matrices(draw):
    """1-5 assets x 2-12 periods on a tick grid, a few cells off it."""
    k, n = draw(st.integers(1, 5)), draw(st.integers(2, 12))
    tick = draw(st.sampled_from([1.0, 0.01, 0.25]))
    cells = st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=k, max_size=k)
    returns = [[r * tick for r in row] for row in draw(cells)]
    prices = [[(abs(p) + 1) * tick for p in row] for row in draw(cells)]
    for grid in (returns, prices):
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1))
            grid[i][j] += tick / 3
    return returns, prices, draw(st.integers(1, 4)), tick


class TestScenarioMatrices:
    @settings(max_examples=300, deadline=None)
    @given(scenario_matrices())
    def test_matches_the_per_asset_reference(self, case):
        returns, prices, t, tick = case
        try:
            expected = ref_scenario_arrays(returns, prices, t, tick)
        except Exception as exc:
            with pytest.raises(type(exc)):
                MultiAssetScenario(
                    returns=returns, prices=prices, lookback=t, budget=1, target=1, tick=tick
                )
            return
        sc = MultiAssetScenario(returns=returns, prices=prices, lookback=t, budget=1, target=1, tick=tick)
        for got, want in zip((sc.codes, sc.sizes, sc.values), expected):
            assert got.dtype == np.int64 and got.tolist() == want.tolist()
            assert not got.flags.writeable

    @pytest.mark.parametrize(
        "returns, prices, message",
        [
            ([1.0, 2.0], [1.0, 2.0], "2-D shape"),
            ([[1.0, 2.0]], [[1.0, 2.0, 3.0]], "2-D shape"),
            (np.zeros((0, 3)), np.ones((0, 3)), "at least one asset"),
            ([[1.0, 2.0]], [[1.0, 0.0]], "strictly positive"),
        ],
    )
    def test_matrices_are_validated(self, returns, prices, message):
        with pytest.raises(ValueError, match=message):
            MultiAssetScenario(returns=returns, prices=prices, lookback=1, budget=1, target=1)

    def test_read_only_matrices_are_kept_and_writable_ones_copied(self):
        kept, mine = np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])
        kept.setflags(write=False)
        sc = MultiAssetScenario(returns=kept, prices=mine, lookback=1, budget=1, target=1)
        assert sc.returns is kept
        assert sc.prices is not mine and not sc.prices.flags.writeable
        mine[0, 0] = 9.0
        assert sc.prices.tolist() == [[3.0, 4.0]]
