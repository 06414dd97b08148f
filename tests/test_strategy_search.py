import json
import math

import pytest

from marketsolver import (
    CapacityError,
    CriticalValue,
    InvalidWindowError,
    MultiAssetScenario,
    PriceSeries,
    TechnicalStrategy,
    WorkCounter,
    brute_force_best,
    bucket_contexts,
    decide_q3,
    enumerate_long_or_out,
    enumerate_position_sequences,
    evaluate,
    gen_planted,
    gen_random_walk,
    optimal_strategy,
)
from marketsolver.series import context_codes


def make_series(returns):
    return PriceSeries.with_shifted_levels(returns)


def pattern_137_series():
    """Three occurrences of the 8-bit context 137 followed by 1, 0, 1."""
    block = [1, 0, 0, 0, 1, 0, 0, 1]  # binary 10001001 = 137

    def rets(bits):
        return [1.0 if b else -1.0 for b in bits]

    return make_series(rets(block) + [1.0] + rets(block) + [0.0] + rets(block) + [1.0])


class TestEvaluate:
    def test_all_out_earns_nothing(self):
        strat = TechnicalStrategy(lookback=2, table=(0, 0, 0, 0), long_or_out=True)
        srs = gen_random_walk(50, 0.5, seed=1)
        assert evaluate(strat, srs) == 0.0

    def test_hand_trace_width_one(self):
        # long after an UP day, out after a DOWN day: the three tradable
        # periods earn +1, -1, 0 on returns [+1, +1, -1, +1].
        strat = TechnicalStrategy(lookback=1, table=(0, 1), long_or_out=True)
        srs = make_series([1.0, 1.0, -1.0, 1.0])
        assert evaluate(strat, srs) == 0.0

    def test_flipping_an_unobserved_context_changes_nothing(self):
        srs = gen_random_walk(24, 0.5, seed=3)
        t = 4
        # occurrence oracle: contexts that precede a tradable period, so
        # every window but the one ending at the last period
        seen = set(context_codes(srs.returns, t)[:-1].tolist())
        unused = next(c for c in range(1 << t) if c not in seen)
        table = [0] * (1 << t)
        base = TechnicalStrategy(lookback=t, table=tuple(table), long_or_out=True)
        table[unused] = 1
        flipped = TechnicalStrategy(lookback=t, table=tuple(table), long_or_out=True)
        assert evaluate(base, srs) == evaluate(flipped, srs)

    def test_scans_exactly_n_periods(self):
        for n in (5, 17, 64):
            srs = gen_random_walk(n, 0.5, seed=n)
            counter = WorkCounter()
            strat = TechnicalStrategy(lookback=2, table=(0, 1, 1, 0), long_or_out=True)
            evaluate(strat, srs, counter=counter)
            assert counter.periods_scanned == n
            assert counter.strategies_evaluated == 1

    def test_lookback_longer_than_series_rejected(self):
        strat = TechnicalStrategy(lookback=3, table=(0,) * 8, long_or_out=True)
        with pytest.raises(InvalidWindowError):
            evaluate(strat, make_series([1.0]))


class TestEnumeration:
    @pytest.mark.parametrize("t,expected", [(1, 4), (2, 16), (3, 256)])
    def test_long_or_out_counts(self, t, expected):
        assert sum(1 for _ in enumerate_long_or_out(t)) == expected

    def test_tables_distinct_at_width_three(self):
        tables = [s.table for s in enumerate_long_or_out(3)]
        assert len(set(tables)) == 256

    def test_ascending_bitmask_order(self):
        masks = [s.bitmask() for s in enumerate_long_or_out(2)]
        assert masks == list(range(16))

    def test_lookback_guard(self):
        with pytest.raises(CapacityError):
            list(enumerate_long_or_out(5))

    @pytest.mark.parametrize("n,expected", [(1, 3), (2, 9)])
    def test_position_sequence_counts(self, n, expected):
        assert sum(1 for _ in enumerate_position_sequences(n)) == expected

    def test_position_sequences_at_guard_edge(self):
        assert sum(1 for _ in enumerate_position_sequences(12)) == 3**12 == 531441

    def test_sequence_guard(self):
        with pytest.raises(CapacityError):
            list(enumerate_position_sequences(13))


class TestBruteForceBest:
    def test_out_dominates_when_every_bucket_is_negative(self):
        # strictly alternating down-heavy series: every context is
        # followed by a loss at least as often as a gain
        srs = make_series([1.0, -1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0, -1.0])
        strat, profit = brute_force_best(srs, 1)
        sums = bucket_contexts(srs, 1)
        assert all(math.fsum(sums[c]) <= 0 for c in sums)
        assert profit == 0.0
        assert strat.table == (0, 0)

    def test_matches_polynomial_search(self):
        for seed in range(40):
            srs = gen_random_walk(8 + (seed * 7) % 57, 0.5, seed=seed)
            for t in (1, 2, 3):
                if t >= len(srs):
                    continue
                _, brute = brute_force_best(srs, t)
                _, fast = optimal_strategy(srs, t)
                assert brute == fast

    def test_series_of_length_t_has_no_tradable_period(self):
        srs = make_series([1.0, -1.0, 1.0])
        with pytest.raises(InvalidWindowError):
            brute_force_best(srs, 3)

    def test_counts_strategies(self):
        counter = WorkCounter()
        brute_force_best(gen_random_walk(20, 0.5, 1), 2, counter=counter)
        assert counter.strategies_evaluated == 16


def _scenario(srs, t):
    return MultiAssetScenario(
        returns=srs.returns[None], prices=srs.prices[None], lookback=t, budget=1, target=1
    )


WINDOW_CALLERS = {
    "evaluate": lambda srs, t: evaluate(
        TechnicalStrategy(lookback=t, table=(0,) * (1 << t)), srs
    ),
    "brute_force_best": brute_force_best,
    "optimal_strategy": optimal_strategy,
    "bucket_contexts": bucket_contexts,
    "MultiAssetScenario": _scenario,
}


class TestWindowRule:
    """One rule for every reader of the occurrence stream: 1 <= t < n."""

    @pytest.mark.parametrize("caller", sorted(WINDOW_CALLERS))
    @pytest.mark.parametrize("t", [1, 3])
    def test_lookback_needs_a_following_period(self, caller, t):
        call = WINDOW_CALLERS[caller]
        with pytest.raises(InvalidWindowError):
            call(make_series([1.0, -1.0, 1.0][:t]), t)
        call(make_series([1.0, -1.0, 1.0, -1.0][: t + 1]), t)

    @pytest.mark.parametrize("caller", sorted(set(WINDOW_CALLERS) - {"evaluate"}))
    def test_lookback_below_one_rejected(self, caller):
        # (a strategy of lookback 0 cannot be built, so evaluate never sees one)
        with pytest.raises(InvalidWindowError):
            WINDOW_CALLERS[caller](make_series([1.0, -1.0]), 0)


class TestBucketContexts:
    def test_bucket_137_collects_literal_returns(self):
        srs = pattern_137_series()
        buckets = bucket_contexts(srs, 8)
        assert buckets[137] == [1.0, 0.0, 1.0]
        assert math.fsum(buckets[137]) == 2.0

    def test_total_bucketed_is_n_minus_t(self):
        for t in (1, 2, 5):
            srs = gen_random_walk(30, 0.5, seed=t)
            assert sum(map(len, bucket_contexts(srs, t).values())) == 30 - t

    def test_no_subsequent_period_rejected(self):
        with pytest.raises(InvalidWindowError):
            bucket_contexts(make_series([1.0, -1.0]), 2)

    def test_concatenation_differs_only_at_the_seam(self):
        a = [1.0, -1.0, 1.0, 1.0]
        b = [-1.0, 1.0, -1.0, -1.0]
        t = 2
        joint = bucket_contexts(make_series(a + b), t)
        parts = bucket_contexts(make_series(a), t)
        parts_b = bucket_contexts(make_series(b), t)
        for code, rets in parts_b.items():
            parts.setdefault(code, []).extend(rets)
        # joint sees exactly t extra entries at the seam: the windows whose
        # span or subsequent return crosses from a into b
        assert sum(map(len, joint.values())) == sum(map(len, parts.values())) + t
        joint_entries = sorted(
            (c, r) for c, rets in joint.items() for r in rets
        )
        part_entries = sorted(
            (c, r) for c, rets in parts.items() for r in rets
        )
        extra = len(joint_entries) - len(part_entries)
        assert extra == t


class TestOptimalStrategy:
    def test_all_nonpositive_buckets_stay_out(self):
        srs = make_series([-1.0, -1.0, -1.0, -1.0])
        strat, profit = optimal_strategy(srs, 1)
        assert strat.table == (0, 0)
        assert profit == 0.0

    def test_positive_bucket_goes_long(self):
        srs = pattern_137_series()
        strat, profit = optimal_strategy(srs, 8)
        assert strat.table[137] == 1

    def test_profit_equals_sum_of_positive_bucket_sums(self):
        srs = gen_random_walk(60, 0.5, seed=17)
        buckets = bucket_contexts(srs, 2)
        _, profit = optimal_strategy(srs, 2)
        expected = sum(max(0.0, math.fsum(buckets[c])) for c in buckets)
        assert profit == expected

    def test_dominates_every_enumerated_strategy(self):
        srs = gen_random_walk(48, 0.5, seed=23)
        for t in (1, 2, 3):
            _, best = optimal_strategy(srs, t)
            for strat in enumerate_long_or_out(t):
                assert evaluate(strat, srs) <= best

    def test_table_bits_are_capped_before_allocating(self, monkeypatch):
        import marketsolver.strategy_search as ss

        srs = gen_random_walk(30, 0.5, seed=2)
        with pytest.raises(CapacityError, match="table limit"):
            optimal_strategy(srs, ss.MAX_TABLE_BITS + 1)
        # the cap itself is a working lookback; shown at a small cap
        monkeypatch.setattr(ss, "MAX_TABLE_BITS", 3)
        assert len(optimal_strategy(srs, 3)[0].table) == 8
        with pytest.raises(CapacityError):
            optimal_strategy(srs, 4)

    def test_zero_sum_bucket_ties_to_out(self):
        # UP context followed by +1 once and -1 once: bucket sum 0 stays out
        srs = PriceSeries(returns=(1.0, 1.0, -1.0, -1.0), prices=(1.0,) * 4)
        strat, profit = optimal_strategy(srs, 1)
        assert strat.table == (0, 0)
        assert profit == 0.0


class TestDecideQ3:
    def test_unreachable_threshold(self):
        srs = gen_random_walk(100, 0.5, seed=4)
        ceiling = sum(abs(r) for r in srs.returns)
        assert decide_q3(srs, 2, CriticalValue(K=ceiling + 1)) is False

    def test_negative_threshold_always_passes(self):
        srs = gen_random_walk(100, 0.5, seed=4)
        assert decide_q3(srs, 2, CriticalValue(K=-1.0)) is True

    def test_planted_edge_clears_zero(self):
        srs = gen_planted(20_000, 3, 0b111, 0.3, seed=6)
        assert math.fsum(bucket_contexts(srs, 3)[0b111]) > 0
        assert decide_q3(srs, 3, CriticalValue(K=0.0)) is True

    def test_antitone_in_threshold(self):
        srs = gen_random_walk(80, 0.5, seed=9)
        answers = [
            decide_q3(srs, 2, CriticalValue(K=float(k))) for k in range(-2, 30)
        ]
        # once false, raising K further keeps it false
        assert all(a >= b for a, b in zip(answers, answers[1:]))


class TestStrategyType:
    def test_long_or_out_rejects_shorts(self):
        with pytest.raises(ValueError):
            TechnicalStrategy(lookback=1, table=(-1, 0), long_or_out=True)

    def test_table_length_must_match(self):
        with pytest.raises(ValueError):
            TechnicalStrategy(lookback=2, table=(0, 1), long_or_out=True)

    def test_json_round_trip(self):
        strat = TechnicalStrategy(lookback=2, table=(0, 1, 1, 0), long_or_out=True)
        assert TechnicalStrategy.from_json(strat.to_json()) == strat

    @pytest.mark.parametrize(
        "field,value",
        [
            ("lookback", 1.9),
            ("lookback", "1"),
            ("lookback", True),
            ("table", [0, "1"]),
            ("table", [0, True]),
            ("table", [0, 1.0]),
            ("table", "01"),
            ("long_or_out", "false"),
            ("long_or_out", 1),
            ("long_or_out", None),
        ],
    )
    def test_json_is_not_coerced(self, field, value):
        obj = {"lookback": 1, "table": [0, 1], "long_or_out": True, field: value}
        with pytest.raises(ValueError, match=field):
            TechnicalStrategy.from_json(json.dumps(obj))

    def test_json_needs_every_field(self):
        with pytest.raises(ValueError, match="long_or_out"):
            TechnicalStrategy.from_json('{"lookback": 1, "table": [0, 1]}')

    def test_critical_value_must_be_finite(self):
        with pytest.raises(ValueError):
            CriticalValue(K=float("inf"))
