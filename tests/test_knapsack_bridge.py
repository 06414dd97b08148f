import itertools
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
from marketsolver.knapsack_bridge import (
    _aggregate_contexts,
    read_scenario_csv,
    realized_profit_and_cost,
    write_scenario_csv,
)

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

    def test_cell_cap(self):
        inst = KnapsackInstance(items=((1, 1),) * 25, budget=50_000_000, target=1)
        with pytest.raises(CapacityError):
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
    series = PriceSeries(returns=(1.0, 2.0, -1.0, 3.0), prices=(5.0, 7.0, 4.0, 9.0))
    return MultiAssetScenario(
        assets=[series], lookback=1, budget=20, target=4, tick=1.0
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
        series = PriceSeries(returns=(1.0, -1.0, -2.0), prices=(1.0, 1.0, 1.0))
        sc = MultiAssetScenario(assets=[series], lookback=1, budget=5, target=1)
        inst, mapping = scenario_to_knapsack(sc)
        assert inst.items == ()
        assert mapping == {}
        assert decide_q4(sc) == (False, None)

    def test_shared_context_aggregates_across_assets(self):
        a = PriceSeries(returns=(1.0, 2.0), prices=(3.0, 3.0))
        b = PriceSeries(returns=(1.0, 5.0), prices=(4.0, 4.0))
        sc = MultiAssetScenario(assets=[a, b], lookback=1, budget=10, target=1)
        inst, mapping = scenario_to_knapsack(sc)
        # one item: context 1 on both assets, size 3+4, value 2+5
        assert inst.items == ((7, 7),)
        assert mapping == {1: 0}

    def test_non_quantizing_price_rejected(self):
        series = PriceSeries(returns=(1.0, 1.0), prices=(0.5, 1.0))
        with pytest.raises(QuantizationError):
            MultiAssetScenario(assets=[series], lookback=1, budget=1, target=1)


class TestKnapsackToScenario:
    def test_single_item(self):
        inst = KnapsackInstance(items=((5, 3),), budget=5, target=3)
        sc = knapsack_to_scenario(inst)
        assert sc.lookback == 1
        assert len(sc.assets) == 1
        asset = sc.assets[0]
        assert asset.prices[0] == 5.0  # level after the one formation period
        assert asset.returns[-1] == 3.0
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
    assets = []
    for _ in range(rng.randint(1, max_assets)):
        returns = tuple(float(rng.randint(-2, 2)) for _ in range(n))
        prices = tuple(float(rng.randint(1, 9)) for _ in range(n))
        assets.append(PriceSeries(returns=returns, prices=prices))
    return MultiAssetScenario(
        assets=assets,
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
        series = PriceSeries(returns=(1.0, 2.0), prices=(2.0, 2.0))
        sc = MultiAssetScenario(assets=[series], lookback=1, budget=1, target=1)
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
            for a_idx, series in enumerate(sc.assets):
                for code in _aggregate_contexts(
                    MultiAssetScenario(
                        assets=[series],
                        lookback=sc.lookback,
                        budget=sc.budget,
                        target=sc.target,
                        tick=sc.tick,
                    )
                ):
                    assert code not in owners, "context shared between assets"
                    owners[code] = a_idx
            assert len(owners) == len(inst.items)


class TestScenarioSerialization:
    def test_csv_round_trip(self):
        sc = knapsack_to_scenario(EXAMPLE)
        csv_text, sidecar = write_scenario_csv(sc)
        back = read_scenario_csv(csv_text, sidecar)
        assert back.lookback == sc.lookback
        assert back.budget == sc.budget and back.target == sc.target
        assert back.tick == sc.tick
        for orig, rebuilt in zip(sc.assets, back.assets):
            assert orig.returns.tolist() == rebuilt.returns.tolist()
            assert orig.prices.tolist() == rebuilt.prices.tolist()
        assert decide_q4(back)[0] == decide_q4(sc)[0]

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
        from marketsolver.knapsack_bridge import ticks_array, to_ticks

        with pytest.raises(QuantizationError):
            to_ticks(x, 1.0)
        with pytest.raises(QuantizationError):
            ticks_array([1.0, x], 1.0)

    def test_ticks_are_exact_int64(self):
        from marketsolver.knapsack_bridge import ticks_array, to_ticks

        ticks = ticks_array([0.07, -0.03, 1.5], 0.01)
        assert ticks.dtype == np.int64
        assert ticks.tolist() == [7, -3, 150]
        assert ticks_array([2.0**62], 1.0).tolist() == [2**62]
        assert to_ticks(0.07, 0.01) == 7 and type(to_ticks(0.07, 0.01)) is int

    def test_first_misfit_is_named(self):
        from marketsolver.knapsack_bridge import ticks_array

        with pytest.raises(QuantizationError, match="^0.005 is not a multiple"):
            ticks_array([0.01, 0.005, 0.0025], 0.01)

    def test_non_finite_tick_rejected(self):
        series = PriceSeries(returns=(1.0, 1.0), prices=(1.0, 1.0))
        with pytest.raises(ValueError):
            MultiAssetScenario(assets=[series], lookback=1, budget=1, target=1, tick=float("nan"))

    def test_int64_overflowing_totals_raise(self):
        big = float(2**61)
        series = PriceSeries(returns=(1.0, 1.0, 1.0, 1.0), prices=(big,) * 4)
        sc = MultiAssetScenario(assets=[series], lookback=1, budget=1, target=1)
        with pytest.raises(QuantizationError, match="int64"):
            scenario_to_knapsack(sc)

    def test_totals_are_python_ints(self):
        sc = hand_scenario()
        agg = _aggregate_contexts(sc)
        assert agg == {0: (4, 3), 1: (12, 1)}
        assert all(type(x) is int for pair in agg.values() for x in pair)
        witness = decide_q4(sc)[1]
        profit, cost = realized_profit_and_cost(sc, witness)
        assert type(profit) is int and type(cost) is int
