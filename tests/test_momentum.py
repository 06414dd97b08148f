import math

import numpy as np
import pytest

from marketsolver import (
    DegenerateSampleError,
    InsufficientDataError,
    MomentumConfig,
    PanelData,
    ResultOverflowError,
    count_data_points,
    gen_momentum_panel,
    partition_report,
    run_backtest,
    t_statistic,
)


def build_panel(rows):
    """rows: list of (month, asset, return)."""
    returns = {(asset, month): float(r) for month, asset, r in rows}
    assets = sorted({a for _, a, _ in rows})
    months = sorted({m for m, _, _ in rows})
    return PanelData(assets=assets, months=months, returns=returns)


def full_panel(asset_returns, months):
    rows = []
    for asset, rets in asset_returns.items():
        for month, r in zip(months, rets):
            if r is not None:
                rows.append((month, asset, r))
    return build_panel(rows)


MONTHS_3 = ["2020-01", "2020-02", "2020-03"]
MONTHS_4 = ["2020-01", "2020-02", "2020-03", "2020-04"]


class TestRunBacktest:
    def test_identical_assets_give_exactly_zero(self):
        months = [f"2020-{m:02d}" for m in range(1, 10)]
        panel = full_panel(
            {f"A{i:02d}": [0.5] * len(months) for i in range(12)}, months
        )
        cfg = MomentumConfig(formation_months=2, holding_months=2, decile_count=3)
        result = run_backtest(panel, cfg)
        assert result.months_used > 0
        assert all(r == 0.0 for _, r in result.monthly_returns)
        assert result.cumulative == 0.0
        assert math.isnan(result.t_stat)  # constant series has no t-stat

    def test_two_asset_hand_panel(self):
        panel = full_panel({"X": [1, 1, 1], "Y": [-1, -1, -1]}, MONTHS_3)
        cfg = MomentumConfig(formation_months=1, holding_months=1, decile_count=2)
        result = run_backtest(panel, cfg)
        # both tradable months go long X, short Y: +1 - (-1) = +2
        assert result.monthly_returns == [("2020-02", 2.0), ("2020-03", 2.0)]
        assert result.cumulative == 4.0
        assert result.months_used == 2

    def test_planted_momentum_is_detected(self):
        panel = gen_momentum_panel(100, 240, persistence=0.15, seed=41)
        cfg = MomentumConfig(formation_months=6, holding_months=1)
        result = run_backtest(panel, cfg)
        mean_wml = result.cumulative / result.months_used
        assert mean_wml > 0
        assert result.t_stat > 3

    def test_too_few_months_rejected(self):
        panel = full_panel({"X": [1, 1], "Y": [-1, -1]}, MONTHS_3[:2])
        with pytest.raises(InsufficientDataError):
            run_backtest(
                panel,
                MomentumConfig(formation_months=1, holding_months=1, decile_count=2),
            )

    def test_missing_holding_return_renormalizes_the_leg(self):
        panel = full_panel(
            {
                "W1": [2, 1, 1],
                "W2": [2, None, 1],  # hole during the first holding month
                "L1": [-2, -1, -1],
                "L2": [-2, -1, -1],
            },
            MONTHS_3,
        )
        cfg = MomentumConfig(formation_months=1, holding_months=1, decile_count=2)
        result = run_backtest(panel, cfg)
        # month 2: long leg renormalizes to W1 alone -> +1 - (-1) = 2
        assert result.monthly_returns[0] == ("2020-02", 2.0)
        # W2's hole also makes it unrankable for the next cohort
        assert result.monthly_returns[1] == ("2020-03", 2.0)
        assert result.months_skipped == 0

    def test_unrankable_formation_month_is_skipped_with_a_count(self):
        panel = full_panel(
            {
                "A": [1, 1, 1, 1],
                "B": [-1, -1, -1, -1],
                "C": [0.5, 0.5, 0.5, 0.5],
                "D": [-0.5, -0.5, -0.5, -0.5],
            },
            MONTHS_4,
        )
        # min_history 2 makes every asset unrankable at the first
        # formation month; that cohort is skipped and counted
        cfg = MomentumConfig(
            formation_months=1, holding_months=1, decile_count=2, min_history=2
        )
        result = run_backtest(panel, cfg)
        assert result.months_skipped == 1
        # the month fed only by the skipped cohort drops out
        assert [m for m, _ in result.monthly_returns] == ["2020-03", "2020-04"]

    def test_legs_are_fully_invested_each_month(self):
        # winners both return +5, losers both +1: a zero-cost portfolio
        # with unit legs must earn exactly 4
        panel = full_panel(
            {"W1": [2, 5, 5], "W2": [2, 5, 5], "L1": [-2, 1, 1], "L2": [-2, 1, 1]},
            MONTHS_3,
        )
        cfg = MomentumConfig(formation_months=1, holding_months=1, decile_count=2)
        result = run_backtest(panel, cfg)
        assert all(r == 4.0 for _, r in result.monthly_returns)

    def test_overlapping_cohorts_average(self):
        # deterministic 3-asset panel, J=1 K=2: each month averages the
        # two live cohorts' winners-minus-losers returns
        months = [f"2021-{m:02d}" for m in range(1, 6)]
        panel = full_panel(
            {"A": [3, 3, 3, 3, 3], "B": [0, 0, 0, 0, 0], "C": [-3, -3, -3, -3, -3]},
            months,
        )
        cfg = MomentumConfig(formation_months=1, holding_months=2, decile_count=3)
        result = run_backtest(panel, cfg)
        # every cohort is long A short C; every month's WML is 6
        assert all(r == 6.0 for _, r in result.monthly_returns)
        assert result.months_used == len(months) - 2


class TestCountDataPoints:
    def test_empty_panel(self):
        panel = PanelData(assets=[], months=[], returns={})
        assert count_data_points(panel, "2020-12") == 0

    def test_hand_fixture(self):
        # 3 assets, 7 cells present through 2020-03, 2 more later
        rows = [
            ("2020-01", "A", 0.1),
            ("2020-01", "B", 0.2),
            ("2020-02", "A", 0.1),
            ("2020-02", "B", 0.2),
            ("2020-02", "C", 0.3),
            ("2020-03", "A", 0.1),
            ("2020-03", "C", 0.3),
            ("2020-04", "A", 0.1),
            ("2020-04", "B", 0.2),
        ]
        panel = build_panel(rows)
        assert count_data_points(panel, "2020-03") == 7
        assert count_data_points(panel, "2020-04") == 9

    def test_before_first_month(self):
        panel = build_panel([("2020-01", "A", 0.1)])
        assert count_data_points(panel, "2019-12") == 0

    def test_monotone_in_through(self):
        panel = gen_momentum_panel(5, 24, 0.0, seed=3)
        counts = [count_data_points(panel, m) for m in panel.months]
        assert counts == sorted(counts)
        assert counts[-1] == panel.n_entries()


class TestPartitionReport:
    def make_cfg(self):
        return MomentumConfig(formation_months=1, holding_months=1, decile_count=2)

    def test_single_breakpoint_gives_two_rows(self):
        panel = gen_momentum_panel(20, 24, 0.0, seed=9)
        cfg = MomentumConfig(formation_months=2, holding_months=2, decile_count=4)
        report = partition_report(panel, [panel.months[11]], cfg)
        assert len(report.rows) == 2
        counts = [count for _, _, count in report.rows]
        assert counts == sorted(counts)

    def test_schema_columns(self):
        panel = gen_momentum_panel(20, 24, 0.0, seed=9)
        cfg = MomentumConfig(formation_months=2, holding_months=2, decile_count=4)
        report = partition_report(panel, [panel.months[11]], cfg)
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "period,performance,data_count"
        dicts = report.to_dicts()
        assert set(dicts[0]) == {"period", "performance", "data_count"}

    def test_performance_splits_the_cumulative_total(self):
        panel = gen_momentum_panel(20, 36, 0.1, seed=5)
        cfg = MomentumConfig(formation_months=2, holding_months=2, decile_count=4)
        full = run_backtest(panel, cfg)
        report = partition_report(panel, [panel.months[17]], cfg)
        assert sum(perf for _, perf, _ in report.rows) == pytest.approx(
            full.cumulative
        )

    def test_quadrupled_universe_quadruples_the_increment(self):
        months = [f"2022-{m:02d}" for m in range(1, 13)]
        small = {f"A{i}": [0.1 * ((i + j) % 3 - 1) for j in range(12)] for i in range(5)}
        big = {
            f"B{i}": [None] * 6 + [0.1 * ((i + j) % 3 - 1) for j in range(6)]
            for i in range(20)
        }
        panel = full_panel({**small, **big}, months)
        report = partition_report(panel, [months[5]], self.make_cfg())
        first = report.rows[0][2]
        second = report.rows[1][2]
        assert first == 5 * 6
        # 20 extra assets in the second half: the increment outgrows the
        # first period's by more than 4x
        assert second - first > 4 * first

    def test_unsorted_breakpoints_rejected(self):
        panel = gen_momentum_panel(20, 24, 0.0, seed=9)
        with pytest.raises(ValueError):
            partition_report(
                panel,
                [panel.months[10], panel.months[2]],
                MomentumConfig(formation_months=2, holding_months=2, decile_count=4),
            )

    def test_repeated_breakpoint_rejected(self):
        # a repeat would report the empty period m..m
        panel = gen_momentum_panel(20, 24, 0.0, seed=9)
        with pytest.raises(ValueError, match="strictly increasing"):
            partition_report(
                panel,
                [panel.months[10], panel.months[10]],
                MomentumConfig(formation_months=2, holding_months=2, decile_count=4),
            )

    def test_breakpoint_before_the_first_month_rejected(self):
        # it used to print the reversed period 1980-01..1970-01
        panel = gen_momentum_panel(20, 24, 0.0, seed=9)
        cfg = MomentumConfig(formation_months=2, holding_months=2, decile_count=4)
        with pytest.raises(ValueError, match="precedes the panel's first month '1980-01'"):
            partition_report(panel, ["1970-01", panel.months[10]], cfg)
        # checked before the backtest runs, so a panel too short to backtest
        # gets the same error
        with pytest.raises(ValueError, match="precedes the panel's first month"):
            partition_report(panel, ["1970-01"], MomentumConfig(formation_months=24))
        assert partition_report(panel, [panel.months[0]], cfg).rows[0][0] == "1980-01..1980-01"
        # a breakpoint past the last month is one well-formed period
        (row,) = partition_report(panel, ["1999-12"], cfg).rows
        assert row[0] == "1980-01..1999-12" and row[2] == panel.n_entries()


class TestOverflowedResults:
    def overflowed(self):
        rng = np.random.default_rng(3)
        returns = rng.choice([1e308, -1e308, -9e307, 0.5], (12, 30))
        panel = gen_momentum_panel(12, 30, 0.0, seed=0)
        panel = PanelData(panel.assets, panel.months, returns)
        cfg = MomentumConfig(formation_months=8, holding_months=1, decile_count=3)
        with np.errstate(over="ignore", invalid="ignore"):
            return run_backtest(panel, cfg), partition_report(panel, [panel.months[12]], cfg)

    def test_results_keep_their_values_and_refuse_to_serialize(self):
        result, report = self.overflowed()
        # the library results stay as computed, infinities and NaN included
        assert not all(math.isfinite(r) for _, r in result.monthly_returns)
        assert not all(math.isfinite(perf) for _, perf, _ in report.rows)
        for serialize in (result.to_dict, report.to_csv, report.to_dicts):
            with pytest.raises(ResultOverflowError, match="overflow float64"):
                serialize()

    def test_finite_results_serialize_as_before(self):
        panel = gen_momentum_panel(20, 36, 0.1, seed=5)
        cfg = MomentumConfig(formation_months=2, holding_months=2, decile_count=4)
        result = run_backtest(panel, cfg)
        assert result.to_dict()["cumulative"] == result.cumulative
        report = partition_report(panel, [panel.months[17]], cfg)
        assert [row["performance"] for row in report.to_dicts()] == [
            perf for _, perf, _ in report.rows
        ]


def lag_one_autocorrelation(panel):
    demeaned = panel.return_matrix - panel.return_matrix.mean(axis=1, keepdims=True)
    num = (demeaned[:, 1:] * demeaned[:, :-1]).sum()
    den = (demeaned**2).sum()
    return num / den


class TestGenMomentumPanel:
    def test_iid_panel_has_no_autocorrelation(self):
        panel = gen_momentum_panel(100, 480, persistence=0.0, seed=13)
        assert not np.isnan(panel.return_matrix).any()
        assert abs(lag_one_autocorrelation(panel)) < 0.05

    def test_persistent_component_is_autocorrelated(self):
        # the returns' lag-1 autocorrelation reads 0.128-0.146 at
        # persistence 0.15 over seeds 13-32 (0.138 at seed 13)
        panel = gen_momentum_panel(100, 480, persistence=0.15, seed=13)
        assert lag_one_autocorrelation(panel) > 0.1

    def test_seed_determinism(self):
        a = gen_momentum_panel(10, 20, 0.1, seed=4)
        b = gen_momentum_panel(10, 20, 0.1, seed=4)
        c = gen_momentum_panel(10, 20, 0.1, seed=5)
        assert a == b
        assert a != c

    def test_shape(self):
        panel = gen_momentum_panel(7, 11, 0.0, seed=1)
        assert len(panel.assets) == 7
        assert len(panel.months) == 11
        assert panel.n_entries() == 77


class TestTStatistic:
    def test_zero_mean(self):
        assert t_statistic([1.0, -1.0, 1.0, -1.0]) == 0.0

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateSampleError):
            t_statistic([1.0, 1.0, 1.0])

    def test_hand_arithmetic(self):
        # mean 1, sample sd sqrt(6/5), n 6 -> t = sqrt(6)/sqrt(1.2)
        assert t_statistic([2.0, 0.0, 2.0, 0.0, 2.0, 0.0]) == pytest.approx(
            2.2360679, abs=1e-6
        )

    def test_too_short_rejected(self):
        with pytest.raises(DegenerateSampleError):
            t_statistic([1.0])
