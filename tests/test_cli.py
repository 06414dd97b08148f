import json

import pytest

from marketsolver.cli import bench_strategies, main, verify_scaling

EXAMPLE_DIMACS = "p cnf 4 2\n1 2 -3 0\n1 -2 4 0\n"

PANEL_CSV = (
    "date,asset,return\n"
    + "\n".join(
        f"2020-{m:02d},XYZ,{r}"
        for m, r in enumerate(
            [0.5, -0.5, 0.5, 0.5, -0.5, 0.5, 0.5, 0.5, -0.5, 0.5, -0.5, 0.5],
            start=1,
        )
    )
    + "\n"
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_no_arguments_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, [])
        assert code == 2

    def test_unknown_flag_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["sat", "solve", "-", "--frobnicate"])
        assert code == 2


class TestStrategyCommands:
    def test_optimal_and_brute_agree(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_text(PANEL_CSV)
        code, out, _ = run_cli(capsys, ["strategy", "optimal", str(path), "--lookback", "2"])
        assert code == 0
        optimal = json.loads(out)
        code, out, _ = run_cli(capsys, ["strategy", "brute", str(path), "--lookback", "2"])
        assert code == 0
        brute = json.loads(out)
        assert optimal["profit"] == brute["profit"]
        assert optimal["strategy"]["long_or_out"] is True

    def test_decide(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_text(PANEL_CSV)
        code, out, _ = run_cli(
            capsys,
            ["strategy", "decide", str(path), "--lookback", "1", "--target", "-1"],
        )
        assert code == 0
        assert json.loads(out)["decision"] is True

    def test_domain_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_text(PANEL_CSV)
        code, _, err = run_cli(
            capsys, ["strategy", "brute", str(path), "--lookback", "9"]
        )
        assert code == 1
        assert "error" in err


class TestKnapsackCommands:
    INSTANCE = {
        "items": [{"size": 3, "value": 4}, {"size": 4, "value": 5}, {"size": 5, "value": 6}],
        "budget": 7,
        "target": 9,
    }

    def test_solve(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(self.INSTANCE))
        code, out, _ = run_cli(capsys, ["knapsack", "solve", str(path)])
        assert code == 0
        sol = json.loads(out)
        assert sol["total_value"] == 9
        assert sol["total_size"] <= 7

    def test_decide_and_strict(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(self.INSTANCE))
        code, out, _ = run_cli(capsys, ["knapsack", "decide", str(path)])
        assert json.loads(out)["decision"] is True
        # strict mode needs profit > 9, i.e. >= 10: unattainable
        code, out, _ = run_cli(capsys, ["knapsack", "decide", str(path), "--strict"])
        assert json.loads(out)["decision"] is False

    def test_to_market_then_reduce_round_trip(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(self.INSTANCE))
        prefix = str(tmp_path / "scenario")
        code, _, err = run_cli(
            capsys, ["knapsack", "to-market", str(inst_path), "--out", prefix]
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys,
            [
                "knapsack",
                "reduce",
                prefix + ".csv",
                "--sidecar",
                prefix + ".json",
            ],
        )
        assert code == 0
        reduced = json.loads(out)
        assert reduced["decision"] is True
        items = reduced["instance"]["items"]
        assert sorted((it["size"], it["value"]) for it in items) == sorted(
            (it["size"], it["value"]) for it in self.INSTANCE["items"]
        )
        assert reduced["witness"] is not None


class TestSatCommands:
    def test_encode(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text(EXAMPLE_DIMACS)
        code, out, _ = run_cli(capsys, ["sat", "encode", str(path)])
        assert code == 0
        groups = json.loads(out)
        assert len(groups) == 2
        assert [o["side"] for o in groups[0]["orders"]] == ["BUY", "BUY", "SELL"]

    def test_solve_reports_sat_with_witness(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text(EXAMPLE_DIMACS)
        code, out, _ = run_cli(capsys, ["sat", "solve", str(path)])
        assert code == 0
        result = json.loads(out)
        assert result["status"] == "SAT"
        assert result["witness"] is not None

    def test_verify_witness_file(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(EXAMPLE_DIMACS)
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps({"1": True, "2": False, "3": False, "4": False}))
        code, out, _ = run_cli(
            capsys, ["sat", "verify", str(cnf), "--witness", str(witness)]
        )
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_unsat_formula(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
        code, out, _ = run_cli(capsys, ["sat", "solve", str(path)])
        assert code == 0
        assert json.loads(out)["status"] == "UNSAT"


class TestMomentumCommands:
    def test_gen_is_deterministic(self, capsys):
        argv = [
            "momentum", "gen", "--assets", "5", "--months", "10",
            "--persistence", "0.1", "--seed", "3",
        ]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2
        assert out1.startswith("date,asset,return\n")

    def test_gen_backtest_pipeline(self, tmp_path, capsys):
        _, csv_text, _ = run_cli(
            capsys,
            ["momentum", "gen", "--assets", "30", "--months", "40", "--seed", "2"],
        )
        path = tmp_path / "panel.csv"
        path.write_text(csv_text)
        code, out, _ = run_cli(
            capsys,
            ["momentum", "backtest", str(path), "--formation", "3", "--holding", "3",
             "--deciles", "5"],
        )
        assert code == 0
        result = json.loads(out)
        assert result["months_used"] > 0
        assert len(result["monthly_returns"]) == result["months_used"]

    def test_partition_csv_format(self, tmp_path, capsys):
        _, csv_text, _ = run_cli(
            capsys,
            ["momentum", "gen", "--assets", "30", "--months", "40", "--seed", "2"],
        )
        path = tmp_path / "panel.csv"
        path.write_text(csv_text)
        code, out, _ = run_cli(
            capsys,
            ["momentum", "partition", str(path), "--formation", "3", "--holding", "3",
             "--deciles", "5", "--breakpoints", "1981-08", "--format", "csv"],
        )
        assert code == 0
        assert out.splitlines()[0] == "period,performance,data_count"
        assert len(out.splitlines()) == 3


class TestBench:
    def test_strategy_counts_are_exact(self):
        records = bench_strategies([2, 3], n=64, seed=1)
        by_param = {r.parameter: r for r in records if r.task == "brute_force"}
        assert by_param[2].work_units == 16
        assert by_param[3].work_units == 256

    def test_guard_violation_becomes_an_error_row(self):
        records = bench_strategies([5], n=32, seed=1)
        row = [r for r in records if r.task == "brute_force"][0]
        assert row.error is not None
        # the linear-scan rows still ran
        assert any(r.task == "optimal_scan" for r in records)

    def test_scan_counts_match_series_length(self):
        records = bench_strategies([2], n=100, seed=1)
        scans = {r.parameter: r.work_units for r in records if r.task == "optimal_scan"}
        assert scans == {100: 100, 200: 200}

    def test_verify_scaling_counters(self):
        out = verify_scaling(n=2000, repeats=2)
        assert [run["periods_scanned"] for run in out["runs"]] == [2000, 4000]
        assert out["wall_time_ratio"] > 0

    def test_cli_bench_strategies(self, capsys):
        code = main(["bench", "strategies", "--t", "2,3"])
        out = capsys.readouterr().out
        assert code == 0
        records = json.loads(out)
        brute = [r for r in records if r["task"] == "brute_force"]
        assert [r["work_units"] for r in brute] == [16, 256]


class TestHardening:
    @pytest.mark.parametrize(
        "argv",
        [
            ["strategy", "optimal", "-", "--lookback", "0"],
            ["sat", "solve", "-", "--budget", "-5"],
            ["sat", "solve", "-", "--budget", "0"],
            ["momentum", "backtest", "-", "--formation", "0"],
            ["momentum", "backtest", "-", "--holding", "-1"],
            ["momentum", "backtest", "-", "--deciles", "0"],
            ["momentum", "backtest", "-", "--skip", "-1"],
            ["momentum", "gen", "--assets", "0"],
            ["momentum", "gen", "--months", "-3"],
            ["bench", "verify-scaling", "--n", "0"],
            ["strategy", "optimal", "-", "--lookback", "two"],
        ],
    )
    def test_out_of_range_ints_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "usage" in err

    def test_zero_skip_is_allowed(self, tmp_path, capsys):
        _, csv_text, _ = run_cli(
            capsys, ["momentum", "gen", "--assets", "30", "--months", "40", "--seed", "2"]
        )
        path = tmp_path / "panel.csv"
        path.write_text(csv_text)
        code, _, _ = run_cli(
            capsys, ["momentum", "backtest", str(path), "--formation", "3", "--skip", "0"]
        )
        assert code == 0

    def test_infinite_return_is_a_domain_error(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_text("date,asset,return\n2020-01,X,0.5\n2020-02,X,inf\n2020-03,X,0.5\n")
        code, out, err = run_cli(capsys, ["strategy", "optimal", str(path), "--lookback", "1"])
        assert code == 1
        assert out == ""
        assert "line 3" in err and "non-finite return" in err

    def test_infinite_price_in_reduce_is_a_domain_error(self, tmp_path, capsys):
        csv_path = tmp_path / "sc.csv"
        csv_path.write_text(
            "date,asset,return,price\n2000-01,A,1.0,inf\n2000-02,A,1.0,2.0\n"
        )
        side = tmp_path / "sc.json"
        side.write_text(json.dumps({"lookback": 1, "budget": 5, "target": 1, "tick": 1.0}))
        code, out, err = run_cli(
            capsys, ["knapsack", "reduce", str(csv_path), "--sidecar", str(side)]
        )
        assert code == 1
        assert out == ""
        assert "line 2" in err and "non-finite price" in err

    def test_overflowing_profit_is_not_emitted(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        rows = "\n".join(f"2020-{m:02d},X,1e308" for m in range(1, 6))
        path.write_text("date,asset,return\n" + rows + "\n")
        code, out, err = run_cli(capsys, ["strategy", "optimal", str(path), "--lookback", "1"])
        assert code == 1
        assert out == ""
        assert "JSON" in err

    def test_undefined_t_stat_is_null(self, tmp_path, capsys):
        rows = [f"2020-{m:02d},A{i:02d},0.5" for m in range(1, 10) for i in range(12)]
        path = tmp_path / "panel.csv"
        path.write_text("date,asset,return\n" + "\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys,
            ["momentum", "backtest", str(path), "--formation", "2", "--holding", "2",
             "--deciles", "3"],
        )
        assert code == 0
        assert json.loads(out)["t_stat"] is None

    def test_decide_runs_the_optimum_once(self, tmp_path, capsys, monkeypatch):
        from marketsolver import strategy_search

        calls = []
        real = strategy_search.optimal_strategy

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(strategy_search, "optimal_strategy", counted)
        path = tmp_path / "panel.csv"
        path.write_text(PANEL_CSV)
        code, out, _ = run_cli(
            capsys, ["strategy", "decide", str(path), "--lookback", "1", "--target", "0.5"]
        )
        assert code == 0
        assert len(calls) == 1
        result = json.loads(out)
        assert result["decision"] is (result["profit"] > 0.5)
