"""Both paths of `solve_dp` against the full-table DP it replaced.

`ref_solve_dp` below is the (n+1) x (B+1) int64 table DP that `solve_dp`
used to be. The rolling row with packed take bits and the subset table
must return the same witness, size and value, not just the same optimum:
the walk back asks the same question of every layout.
"""

import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketsolver import (
    CapacityError,
    KnapsackInstance,
    KnapsackSolution,
    solve_bruteforce,
    solve_dp,
)
from marketsolver import knapsack_bridge
from marketsolver.knapsack_bridge import _exact_int_dtype

# ------------------------------------------------------- frozen reference


def ref_solve_dp(inst):
    n = len(inst.items)
    dp = np.zeros((n + 1, inst.budget + 1), dtype=np.int64)
    for i, (s, v) in enumerate(inst.items):
        dp[i + 1] = dp[i]
        if s <= inst.budget:
            taken = dp[i, : inst.budget - s + 1] + v
            dp[i + 1, s:] = np.maximum(dp[i, s:], taken)
    best_value = int(dp[n, inst.budget])
    chosen = []
    b = inst.budget
    for i in range(n, 0, -1):
        if dp[i, b] != dp[i - 1, b]:
            chosen.append(i - 1)
            b -= inst.items[i - 1][0]
    chosen.reverse()
    total_size = sum(inst.items[i][0] for i in chosen)
    return KnapsackSolution(chosen=tuple(chosen), total_size=total_size, total_value=best_value)


def assert_same(inst):
    got = solve_dp(inst)
    assert got == ref_solve_dp(inst)
    assert got.total_size <= inst.budget
    assert sum(inst.items[i][1] for i in got.chosen) == got.total_value
    return got


@contextmanager
def subset_path(weight=None):
    """Count `solve_dp`'s subset-path calls, optionally at another weight."""
    calls = []
    real = knapsack_bridge._solve_subsets

    def counted(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knapsack_bridge, "_solve_subsets", counted)
        if weight is not None:
            mp.setattr(knapsack_bridge, "SUBSET_ENTRY_WEIGHT", weight)
        yield calls


def refuse_subsets(*args):
    raise AssertionError("the subset path ran")


# ---------------------------------------------------------------- inputs


@st.composite
def instances(draw):
    budget = draw(st.integers(1, 80))
    # a small value alphabet makes ties common; sizes reach past the budget
    size = st.integers(1, budget + 10)
    value = st.one_of(st.integers(1, 4), st.integers(1, 1000))
    pool = draw(st.lists(st.tuples(size, value), min_size=1, max_size=6))
    # drawing from a small pool repeats whole items
    items = draw(st.lists(st.sampled_from(pool), max_size=14))
    return KnapsackInstance(items=tuple(items), budget=budget, target=1)


@settings(max_examples=400, deadline=None)
@given(instances())
def test_matches_full_table_on_generated_instances(inst):
    assert_same(inst)


def test_matches_full_table_on_seeded_instances():
    rng = random.Random(20261018)
    for _ in range(1500):
        n = rng.randint(0, 14)
        budget = rng.choice([1, 2, rng.randint(1, 60), rng.randint(1, 3000)])
        top = rng.choice([3, 50, budget + 5, 2 * budget + 1])
        values = rng.choice([3, 100, 10**6])
        items = [(rng.randint(1, top), rng.randint(1, values)) for _ in range(n)]
        if items and rng.random() < 0.3:
            items[rng.randrange(n)] = rng.choice(items)
        assert_same(KnapsackInstance(items=tuple(items), budget=budget, target=1))


@pytest.mark.parametrize("n", range(15))
def test_every_item_count_up_to_fourteen(n):
    rng = random.Random(n)
    items = tuple((rng.randint(1, 40), rng.randint(1, 30)) for _ in range(n))
    assert_same(KnapsackInstance(items=items, budget=rng.randint(1, 120), target=1))


def test_budget_one():
    inst = KnapsackInstance(items=((1, 3), (2, 9), (1, 3), (1, 4)), budget=1, target=1)
    assert assert_same(inst).chosen == (3,)


def test_items_larger_than_the_budget_are_never_taken():
    inst = KnapsackInstance(items=((9, 100), (3, 2), (10, 50), (2, 2)), budget=5, target=1)
    assert assert_same(inst).chosen == (1, 3)


def test_duplicate_items_and_value_ties():
    inst = KnapsackInstance(items=((2, 5),) * 5 + ((3, 5), (1, 5)), budget=4, target=1)
    assert assert_same(inst).total_value == 10


# -------------------------------------------------------- exact row dtype


@pytest.mark.parametrize(
    "items, dtype",
    [
        (((1, 2**30), (1, 2**30 - 2), (1, 1)), np.int32),  # total 2**31 - 1
        (((1, 2**30), (1, 2**30 - 1), (1, 1)), np.int64),  # total 2**31
        (((1, 2**62), (1, 2**62 - 2), (1, 1)), np.int64),  # total 2**63 - 1
    ],
)
def test_value_totals_at_the_dtype_edges(items, dtype):
    assert _exact_int_dtype(sum(v for _, v in items), "item value") is dtype
    for budget in (1, 2, 3):
        assert_same(KnapsackInstance(items=items, budget=budget, target=1))
    sol = solve_dp(KnapsackInstance(items=items, budget=2, target=1))
    assert sol.chosen == (0, 1) and sol.total_value == items[0][1] + items[1][1]


def test_int32_row_with_many_items_near_the_edge():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(1, 14)
        cuts = sorted(rng.sample(range(1, 2**31 - 1), n - 1))
        values = [b - a for a, b in zip([0] + cuts, cuts + [2**31 - 1])]
        items = tuple((rng.randint(1, 30), v) for v in values)
        assert _exact_int_dtype(sum(values), "item value") is np.int32
        assert_same(KnapsackInstance(items=items, budget=rng.randint(1, 100), target=1))


@pytest.mark.parametrize(
    "items",
    [
        ((1, 2**62), (1, 2**62)),
        ((1, 2**65),),
        ((1, 2**63 - 1), (5, 1)),
    ],
)
def test_value_totals_beyond_int64_raise(items):
    inst = KnapsackInstance(items=items, budget=2, target=1)
    with pytest.raises(CapacityError, match="int64"):
        solve_dp(inst)
    with pytest.raises(CapacityError, match="int64"):
        solve_bruteforce(inst)


def test_bruteforce_size_totals_beyond_int64_raise():
    inst = KnapsackInstance(items=((2**62, 1), (2**62, 1), (1, 1)), budget=2, target=1)
    with pytest.raises(CapacityError, match="item size"):
        solve_bruteforce(inst)
    assert solve_dp(inst).chosen == (2,)


def test_largest_exact_value_total_is_solved():
    inst = KnapsackInstance(items=((1, 2**62), (1, 2**62 - 1)), budget=2, target=1)
    for solve in (solve_dp, solve_bruteforce):
        sol = solve(inst)
        assert sol.chosen == (0, 1) and sol.total_value == 2**63 - 1


# ------------------------------------------------------- choice of path


def boundary_budget(n):
    """Smallest budget at which n items, all fitting, take the subset path."""
    return (1 << n) * knapsack_bridge.SUBSET_ENTRY_WEIGHT // (n + 1)


def test_many_items_and_a_small_budget_take_the_dp(monkeypatch):
    monkeypatch.setattr(knapsack_bridge, "_solve_subsets", refuse_subsets)
    rng = random.Random(30)
    for _ in range(20):
        items = tuple((rng.randint(1, 12), rng.randint(1, 5)) for _ in range(30))
        assert_same(KnapsackInstance(items=items, budget=50, target=1))


@pytest.mark.parametrize("n", [4, 10, 16])
def test_each_side_of_the_work_boundary(n):
    weight = knapsack_bridge.SUBSET_ENTRY_WEIGHT
    edge = boundary_budget(n)
    assert (n + 1) * edge <= (1 << n) * weight < (n + 1) * (edge + 1)
    rng = random.Random(n)
    items = tuple((rng.randint(1, edge // n), rng.randint(1, 9)) for _ in range(n))
    for budget, subsets in ((edge - 1, 0), (edge, 1)):
        with subset_path() as calls:
            assert_same(KnapsackInstance(items=items, budget=budget, target=1))
        assert len(calls) == subsets


def test_twenty_items_and_a_mid_budget_take_the_dp(monkeypatch):
    # the raw count 2**21 < 21 * 150_001 would pick subsets, which cost more
    monkeypatch.setattr(knapsack_bridge, "_solve_subsets", refuse_subsets)
    rng = random.Random(20)
    items = tuple((rng.randint(1, 20_000), rng.randint(1, 10**6)) for _ in range(20))
    assert_same(KnapsackInstance(items=items, budget=150_000, target=1))


def test_the_item_cap_counts_only_items_that_fit():
    big = 10**12
    fit = tuple((10**10 + i, 3 + i % 4) for i in range(knapsack_bridge.MAX_SUBSET_ITEMS))
    with subset_path() as calls:
        # five more items larger than the budget are dropped, not counted
        sol = solve_dp(KnapsackInstance(items=fit + ((big + 1, 9),) * 5, budget=big, target=1))
    assert len(calls) == 1
    assert sol.chosen == tuple(range(len(fit)))
    # one more item that fits is over the cap: the DP's cell cap refuses it
    with subset_path() as calls, pytest.raises(CapacityError, match="cells"):
        solve_dp(KnapsackInstance(items=fit + ((1, 1),), budget=big, target=1))
    assert calls == []


@pytest.mark.parametrize("seed", range(5))
def test_few_items_and_a_huge_budget(seed):
    rng = random.Random(seed)
    budget = 10**12
    items = tuple((rng.randint(1, budget // 2), rng.randint(1, 100)) for _ in range(8))
    inst = KnapsackInstance(items=items, budget=budget, target=1)
    with subset_path() as calls:
        sol = solve_dp(inst)
    assert len(calls) == 1
    assert sol.total_value == solve_bruteforce(inst).total_value
    assert sol.total_size <= budget
    assert sum(items[i][1] for i in sol.chosen) == sol.total_value


def test_sizes_near_the_int64_edge():
    edge = 2**61
    inst = KnapsackInstance(
        items=((2**60, 1), (2**60, 2), (2**60 + 1, 3)), budget=edge, target=1
    )
    # {0, 1} and {2} both reach 3; the DP's rule keeps the earlier items
    assert solve_dp(inst) == KnapsackSolution(chosen=(0, 1), total_size=edge, total_value=3)
    assert solve_bruteforce(inst).chosen == (0, 1)
    too_big = KnapsackInstance(items=((2**62, 1), (2**62, 1)), budget=2**62, target=1)
    with pytest.raises(CapacityError, match="item size"):
        solve_dp(too_big)


def test_sizes_saturate_instead_of_wrapping():
    # int32 sizes: five items together pass 2**31, two fit the budget
    # and a wrapped size would make all five look affordable, taking item 4
    items = tuple((2**29 - 1, v) for v in (5, 4, 3, 2, 1))
    inst = KnapsackInstance(items=items, budget=2**30 - 1, target=1)
    with subset_path() as calls:
        sol = solve_dp(inst)
    assert len(calls) == 1
    assert sol == KnapsackSolution(chosen=(0, 1), total_size=2**30 - 2, total_value=9)
    assert sol.total_value == solve_bruteforce(inst).total_value


@pytest.mark.parametrize(
    "items",
    [
        ((1, 2**62), (1, 2**62)),
        ((1, 2**63 - 1), (10**13, 1)),
    ],
)
def test_value_totals_beyond_int64_raise_on_the_subset_path(items):
    with subset_path() as calls, pytest.raises(CapacityError, match="int64"):
        solve_dp(KnapsackInstance(items=items, budget=10**12, target=1))
    assert calls == []


def test_largest_exact_value_total_on_the_subset_path():
    inst = KnapsackInstance(items=((1, 2**62), (1, 2**62 - 1)), budget=10**12, target=1)
    with subset_path() as calls:
        sol = solve_dp(inst)
    assert len(calls) == 1
    assert sol.chosen == (0, 1) and sol.total_value == 2**63 - 1


@st.composite
def tie_heavy_instances(draw):
    budget = draw(st.integers(1, 30))
    size = st.integers(1, budget + 3)
    value = st.integers(1, draw(st.sampled_from([1, 2, 3, 50])))
    pool = draw(st.lists(st.tuples(size, value), min_size=1, max_size=4))
    items = draw(st.lists(st.sampled_from(pool), max_size=10))
    return KnapsackInstance(items=tuple(items), budget=budget, target=1)


@settings(max_examples=1000, deadline=None)
@given(tie_heavy_instances())
def test_subset_path_matches_full_table_on_ties(inst):
    with subset_path(weight=0) as calls:
        assert_same(inst)
    assert len(calls) == 1
