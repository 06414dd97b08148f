import argparse
import functools
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from marketsolver import cli
from marketsolver.cli import main
from marketsolver.errors import MarketSolverError

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


def stdin_of(text):
    """A stand-in for sys.stdin: UTF-8 bytes under a text layer, as the real one is."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


class TestUsage:
    def test_no_arguments_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, [])
        assert code == 2

    def test_unknown_flag_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["sat", "solve", "-", "--frobnicate"])
        assert code == 2

    # main parses a command's arguments with that command's own parser; help,
    # usage errors and the parsed values must be those of the whole parser
    EQUIVALENCE_ARGV = [
        [], ["-h"], ["--he"], ["-h", "sat"],
        ["-x", "sat", "solve", "f"], ["--", "sat", "solve", "f"], ["-", "sat"], ["-5", "sat"],
        ["bogus"], ["SAT", "solve", "f"],
        *([command, "-h"] for command in ("strategy", "knapsack", "sat", "momentum")),
        *([command] for command in ("strategy", "knapsack", "sat", "momentum")),
        *([command, "bogus", "f"] for command in ("strategy", "knapsack", "sat", "momentum")),
        ["strategy", "optimal", "f", "g", "--lookback", "1"],
        ["knapsack", "solve", "f", "g"],
        ["sat", "solve", "f", "g"],
        ["momentum", "gen", "f", "g"],
        ["knapsack", "to-market", "inst.json", "--tic", "2"],
        ["sat", "solve", "f", "--budget", "0"],
    ]

    @staticmethod
    def main_by_the_whole_parser(argv):
        """What `main` does, with every call parsed by `cli.build_parser()`."""
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else 2
        try:
            return args.func(args)
        except MarketSolverError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (OSError, KeyError, ValueError) as exc:
            message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 1

    def assert_main_matches_the_whole_parser(self, capsys, argv):
        got = run_cli(capsys, argv)
        want = self.main_by_the_whole_parser(argv)
        captured = capsys.readouterr()
        assert got == (want, captured.out, captured.err)

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    @pytest.mark.parametrize("argv", EQUIVALENCE_ARGV, ids=lambda argv: " ".join(argv) or "(none)")
    def test_main_matches_the_full_parser(self, tmp_path, capsys, monkeypatch, argv, columns):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", columns)
        (tmp_path / "inst.json").write_text(json.dumps(TestKnapsackCommands.INSTANCE))
        self.assert_main_matches_the_whole_parser(capsys, argv)

    COMMANDS = ["strategy", "knapsack", "sat", "momentum"]
    ACTIONS = ["optimal", "brute", "decide", "solve", "reduce", "to-market", "encode", "verify",
               "backtest", "partition", "gen"]
    TOKENS = [
        *COMMANDS, *ACTIONS, "SAT", "stra", "bogus",
        "-h", "--help", "--he", "--", "-", "-x", "--frobnicate",
        "--lookback", "--lookb", "--asset", "--target", "--sidecar", "--tick", "--tic", "--strict",
        "--out", "--budget", "--witness", "--formation", "--holding", "--deciles", "--skip",
        "--breakpoints", "--format", "--assets", "--months", "--persistence", "--seed",
        "0", "1", "3", "-5", "1.5", "x", "json", "csv", "1980-06", "XYZ",
        "inst.json", "f.cnf", "panel.csv", "scenario.csv", "side.json", "w.json", "missing.csv",
    ]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        argv=st.lists(st.sampled_from(TOKENS), max_size=8)
        | st.builds(lambda command, action, rest: [command, action, *rest],
                    st.sampled_from(COMMANDS), st.sampled_from(ACTIONS),
                    st.lists(st.sampled_from(TOKENS), max_size=6)),
        columns=st.sampled_from(["40", "80", "200"]),
    )
    def test_main_matches_the_whole_parser_on_drawn_argv(self, tmp_path, capsys, monkeypatch,
                                                         argv, columns):
        from marketsolver import knapsack_bridge

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", columns)
        # "-" reads stdin: both runs read it empty
        monkeypatch.setattr(sys, "stdin", stdin_of(""))
        inst_json = json.dumps(TestKnapsackCommands.INSTANCE)
        inst = knapsack_bridge.KnapsackInstance.from_json(inst_json)
        csv_text, sidecar = knapsack_bridge.write_scenario_csv(knapsack_bridge.knapsack_to_scenario(inst))
        for name, text in (("inst.json", inst_json),
                           ("f.cnf", EXAMPLE_DIMACS), ("panel.csv", PANEL_CSV),
                           ("scenario.csv", csv_text), ("side.json", json.dumps(sidecar)),
                           ("w.json", '{"1": true, "2": false, "3": false, "4": true}')):
            (tmp_path / name).write_text(text)
        self.assert_main_matches_the_whole_parser(capsys, argv)

    @pytest.mark.parametrize(
        "argv, code, parsers",
        [(["sat", "solve", "f.cnf"], 0, 1), (["--help"], 0, 5), (["sat", "solve", "f", "g"], 2, 6)],
        ids=["command", "help", "leftover"],
    )
    def test_a_call_constructs_only_the_parsers_it_parses_with(self, tmp_path, capsys, monkeypatch,
                                                               argv, code, parsers):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.cnf").write_text(EXAMPLE_DIMACS)
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert (run_cli(capsys, argv)[0], len(built)) == (code, parsers)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["knapsack", "reduce", "scenario.csv"], "error: reduce needs --sidecar SIDE.json\n"),
            (["sat", "verify", "formula.cnf"], "error: verify needs --witness FILE\n"),
        ],
        ids=["reduce", "verify"],
    )
    def test_a_missing_input_file_option_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                           argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "formula.cnf").write_text(EXAMPLE_DIMACS)
        assert run_cli(capsys, argv) == (2, "", message)


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

    @pytest.mark.parametrize("action", ["optimal", "brute", "decide"])
    def test_lookback_equal_to_the_row_count_is_a_domain_error(self, tmp_path, capsys, action):
        # three rows, lookback 3: no period follows a full window
        path = tmp_path / "three.csv"
        path.write_text("date,asset,return\n2020-01,X,0.5\n2020-02,X,-0.5\n2020-03,X,0.5\n")
        code, out, err = run_cli(capsys, ["strategy", action, str(path), "--lookback", "3"])
        assert code == 1
        assert out == ""
        assert "no subsequent period" in err


    def test_a_missing_asset_prints_its_message_unquoted(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_text(PANEL_CSV)
        argv = ["strategy", "optimal", str(path), "--lookback", "1", "--asset", "Z"]
        assert run_cli(capsys, argv) == (1, "", "error: asset 'Z' has no observations\n")

    @pytest.mark.parametrize("action", ["optimal", "brute", "decide"])
    def test_the_price_column_is_not_read(self, tmp_path, capsys, action):
        # no strategy engine reads prices, so a zero or negative one is no error
        plain = tmp_path / "plain.csv"
        plain.write_text(PANEL_CSV)
        header, *rows = PANEL_CSV.splitlines()
        priced = tmp_path / "priced.csv"
        priced.write_text("\n".join([header + ",price"] + [
            f"{row},{p}" for row, p in zip(rows, [0, -1, 2.5] * 4)
        ]) + "\n")
        outs = [run_cli(capsys, ["strategy", action, str(path), "--lookback", "2"])
                for path in (plain, priced)]
        assert outs[0][0] == 0 and outs[0] == outs[1]


# sha256 of the stdout of `strategy optimal --lookback 3`, `decide --lookback 8
# --target 1.0` and `brute --lookback 3` on the q3_csv benchmark's cent-move
# CSVs of each seed, taken before brute force settled its near-ties by the
# optimum's sign test; and whether that exact step runs in `brute`.
PINNED_STRATEGY_SHA256 = {
    1: (False, [
        "cc7954f7edd87632c4cf3fb732aa4c37b3657544011fef24545675175e3573e6",
        "65584ad848b52a08b5c32d70e9fb89ef3415de68bdf747e565c5a5847ecb8bac",
        "c6a23b6ce225b1ac9d6f041933f759b570a7b98f75906c34136db2a92c1bf3f8",
    ]),
    8: (True, [
        "70202a9c8363b89f24f69045700ee2cd3f62db4f92fede3293bacfa26be80912",
        "eeb837f9e3dcde62b4c560c49b986c1ebf2663d9290a9f4a6edeaec798649e5f",
        "51cb352c890a6b0efeb03f5de7da449b9bedc7c2c18a7426592b9ee487b1bff4",
    ]),
    26: (True, [
        "348749fe2d96dcf3995bd076ea4466325baf9a688a5f4cf9b0d59c2319890bea",
        "7441810f934c9062a1cb520c5ed9d7c99db86bfd2ea472b0849a29aa48e48f74",
        "59dacf72e01148e38aa82c0bc703a9962068254ed2a3a101b7daadb16c1dd6c8",
    ]),
    27: (True, [
        "85bb92c5f1e7e56f8dfa4538dc4b47ffb45ace9d7fb43915f8f56b558a75da6f",
        "bb427f2ec39540306bd562c510a2a3af8014afcd70c0c1000461a03769da5c4d",
        "1db05f606197d7a1609476bd73bcc65f6426d4a6f8466712174fdab460f0767c",
    ]),
    1234: (True, [
        "3708321230bf0982edc101e38e1e8101d45ac7cbbcde0fae54feebb2c440d5fd",
        "ef0b1bc63211b99b76b4768d7ce38d59f664740b8520d7afcd9e0350d4426dba",
        "166f3c13bc190ee372d9748e26f9eb01adec972d9166c3abf02f2fbf669f8661",
    ]),
}


def cent_move_csv(rng, n):
    """A one-asset CSV of n whole-cent returns in -0.05..0.05, as q3_csv draws them."""
    rows = "".join(
        f"{1000 + i // 12:04d}-{i % 12 + 1:02d},X,{rng.randint(-5, 5) / 100!r}\n" for i in range(n)
    )
    return "date,asset,return\n" + rows


@pytest.mark.parametrize("seed", sorted(PINNED_STRATEGY_SHA256))
def test_strategy_stdout_is_unchanged(tmp_path, capsys, monkeypatch, seed):
    from marketsolver import strategy_search

    exact_steps = []
    exact_best = strategy_search._exact_best

    def counted(*args):
        exact_steps.append(args)
        return exact_best(*args)

    monkeypatch.setattr(strategy_search, "_exact_best", counted)
    rng = random.Random(seed)
    paths = []
    for kind, n in (("optimal", 20_000), ("decide", 20_000), ("brute", 4_500)):
        paths.append(tmp_path / f"{kind}.csv")
        paths[-1].write_text(cent_move_csv(rng, n))
    digests = []
    for argv in (
        ["strategy", "optimal", str(paths[0]), "--lookback", "3"],
        ["strategy", "decide", str(paths[1]), "--lookback", "8", "--target", "1.0"],
        ["strategy", "brute", str(paths[2]), "--lookback", "3"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert (bool(exact_steps), digests) == PINNED_STRATEGY_SHA256[seed]


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


class TestKnapsackInputs:
    """Instance and sidecar fields must be JSON integers; nothing is coerced."""

    GOOD = {"items": [{"size": 1, "value": 3}, {"size": 2, "value": 4}], "budget": 2, "target": 1}

    def solve(self, tmp_path, capsys, instance):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        return run_cli(capsys, ["knapsack", "solve", str(path)])

    @pytest.mark.parametrize(
        "field, bad",
        [("size", 1.7), ("size", True), ("value", "3"), ("value", None)],
    )
    def test_non_integer_item_field(self, tmp_path, capsys, field, bad):
        instance = json.loads(json.dumps(self.GOOD))
        instance["items"][0][field] = bad
        code, out, err = self.solve(tmp_path, capsys, instance)
        assert code == 1
        assert out == ""
        assert f"item 0 field '{field}' must be a JSON integer" in err

    @pytest.mark.parametrize("field, bad", [("budget", 2.9), ("target", "1"), ("budget", False)])
    def test_non_integer_instance_field(self, tmp_path, capsys, field, bad):
        code, out, err = self.solve(tmp_path, capsys, {**self.GOOD, field: bad})
        assert code == 1
        assert out == ""
        assert f"instance field '{field}' must be a JSON integer" in err

    @pytest.mark.parametrize("instance", [[1, 2], {"items": "ab", "budget": 2, "target": 1}])
    def test_instance_that_is_not_an_object_with_items(self, tmp_path, capsys, instance):
        code, out, err = self.solve(tmp_path, capsys, instance)
        assert code == 1
        assert out == ""
        assert "items" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "items",
        [
            [{"size": 1, "value": 2**62}, {"size": 1, "value": 2**62}],
            [{"size": 1, "value": 2**65}],
        ],
    )
    def test_values_beyond_int64_are_a_domain_error(self, tmp_path, capsys, items):
        # an int64 table used to wrap and print "chosen": [0] with exit 0
        code, out, err = self.solve(tmp_path, capsys, {**self.GOOD, "items": items})
        assert code == 1
        assert out == ""
        assert "int64" in err and "Traceback" not in err

    @pytest.mark.parametrize("field", ["size", "value"])
    def test_to_market_size_or_value_beyond_the_float_range(self, tmp_path, capsys, field):
        # a valid JSON integer, but float() of it used to escape as OverflowError
        instance = json.loads(json.dumps(self.GOOD))
        instance["items"][1][field] = 10**400
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        code, out, err = run_cli(capsys, ["knapsack", "to-market", str(path)])
        assert (code, out) == (1, "")
        assert "item 1 has a size or value beyond the float range" in err

    def test_to_market_refuses_tick_totals_beyond_int64(self, tmp_path, capsys):
        # refused when the scenario is built, not by a later reduce
        items = [{"size": 1, "value": 2**61}, {"size": 1, "value": 2**61}]
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({**self.GOOD, "items": items}))
        code, out, err = run_cli(capsys, ["knapsack", "to-market", str(path)])
        assert (code, out) == (1, "")
        assert "tick totals exceed the exact int64 range" in err

    @pytest.mark.parametrize("tick", ["0", "-1"])
    def test_to_market_names_a_bad_tick(self, tmp_path, capsys, tick):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(self.GOOD))
        code, out, err = run_cli(capsys, ["knapsack", "to-market", str(path), "--tick", tick])
        assert (code, out, err) == (1, "", "error: tick must be positive and finite\n")

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("lookback", 1.5),
            ("budget", "5"),
            ("target", True),
            ("tick", "0.01"),
            pytest.param("tick", 10**400, id="tick-beyond-float"),
        ],
    )
    def test_malformed_sidecar_field(self, tmp_path, capsys, field, bad):
        prefix = str(tmp_path / "scenario")
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(self.GOOD))
        assert run_cli(capsys, ["knapsack", "to-market", str(inst_path), "--out", prefix])[0] == 0
        side_path = tmp_path / "scenario.json"
        side_path.write_text(json.dumps({**json.loads(side_path.read_text()), field: bad}))
        code, out, err = run_cli(
            capsys, ["knapsack", "reduce", prefix + ".csv", "--sidecar", str(side_path)]
        )
        assert code == 1
        assert out == ""
        assert f"sidecar field '{field}' must be a JSON" in err

    def test_reduce_refuses_a_price_below_one_tick(self, tmp_path, capsys):
        csv_path, side_path = tmp_path / "scenario.csv", tmp_path / "scenario.json"
        csv_path.write_text("date,asset,return,price\n2000-01,A,1.0,1.0\n2000-02,A,2.0,1.0\n")
        side_path.write_text(json.dumps({"lookback": 1, "budget": 2, "target": 1, "tick": 1e12}))
        assert run_cli(capsys, ["knapsack", "reduce", str(csv_path), "--sidecar", str(side_path)]) == (
            1, "", "error: price 1.0 is below one tick 1000000000000.0\n"
        )


class TestSatCommands:
    def test_encode(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text(EXAMPLE_DIMACS)
        code, out, _ = run_cli(capsys, ["sat", "encode", str(path)])
        assert code == 0
        groups = json.loads(out)
        assert len(groups) == 2
        assert [o["side"] for o in groups[0]["orders"]] == ["BUY", "BUY", "SELL"]

    def test_encode_quotes_only_the_securities_in_use(self, tmp_path, capsys, monkeypatch):
        from marketsolver import sat_market

        quotes = []

        class CountedQuote(sat_market.Quote):
            def __post_init__(self):
                quotes.append(self)
                super().__post_init__()

        monkeypatch.setattr(sat_market, "Quote", CountedQuote)
        small, large = tmp_path / "small.cnf", tmp_path / "large.cnf"
        small.write_text("p cnf 3 1\n1 2 3 0\n")
        large.write_text("p cnf 100000 1\n1 2 3 0\n")
        _, expected, _ = run_cli(capsys, ["sat", "encode", str(small)])
        quotes.clear()
        code, out, _ = run_cli(capsys, ["sat", "encode", str(large)])
        assert code == 0
        assert out == expected
        assert len(quotes) == 3

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

    @pytest.mark.parametrize(
        "witness",
        [
            {"1": "false", "2": "false", "3": "false"},
            [1, 2],
            {"1": 0, "2": 0, "3": 1},
            {"x": True, "2": True, "3": True},
            {"1": False, "2": False, "3": False, "7": True},
            {"1": False, "2": False, "3": False, "-4": True},
            {"0": True, "1": False, "2": False, "3": False},
            {"1": False, " 1": True, "2": False, "3": False},
            {"1_0": True, "1": False, "2": False, "3": False},
            {"01": True, "2": False, "3": False},
            {"+1": True, "2": False, "3": False},
        ],
    )
    def test_malformed_witness_is_a_domain_error(self, tmp_path, capsys, witness):
        # bool("false") is True: coercing values would verify a wrong answer
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 1\n1 2 3 0\n")
        path = tmp_path / "w.json"
        path.write_text(json.dumps(witness))
        code, out, err = run_cli(
            capsys, ["sat", "verify", str(cnf), "--witness", str(path)]
        )
        assert code == 1
        assert out == ""
        assert "witness" in err and "Traceback" not in err

    def test_repeated_witness_key_is_a_domain_error(self, tmp_path, capsys):
        # json.loads keeps the last value of a repeated key
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 1\n1 2 3 0\n")
        path = tmp_path / "w.json"
        path.write_text('{"1": false, "2": false, "3": false, "1": true}')
        code, out, err = run_cli(
            capsys, ["sat", "verify", str(cnf), "--witness", str(path)]
        )
        assert code == 1
        assert out == ""
        assert "twice" in err and "Traceback" not in err

    def test_header_without_variables_is_a_domain_error(self, tmp_path, capsys):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 0 0\n")
        code, out, err = run_cli(capsys, ["sat", "solve", str(path)])
        assert code == 1
        assert out == ""
        assert "header declares no variables" in err

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

    def test_gen_stdout_is_unchanged(self, capsys):
        code, out, err = run_cli(
            capsys, ["momentum", "gen", "--assets", "30", "--months", "60", "--seed", "4"]
        )
        assert (code, err, hashlib.sha256(out.encode()).hexdigest()) == (
            0, "", "73af04ab31ad9256f4fe6a0c852b4b9e43667e4b095726dce156142b450163f3"
        )

    def test_gen_stops_at_the_last_month_label(self, capsys):
        code, out, err = run_cli(capsys, ["momentum", "gen", "--assets", "1", "--months", "96240"])
        assert (code, err) == (0, "")
        assert out.count("\n") == 96241 and out.splitlines()[-1].startswith("9999-12,S0000,")
        argv = ["momentum", "gen", "--assets", "1", "--months", "96241"]
        assert run_cli(capsys, argv) == (
            1, "", "error: 96241 months run past the last month label 9999-12; "
            "at most 96240 months from 1980-01\n"
        )

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

    def test_repeated_breakpoint_is_a_domain_error(self, tmp_path, capsys):
        _, csv_text, _ = run_cli(
            capsys,
            ["momentum", "gen", "--assets", "30", "--months", "40", "--seed", "2"],
        )
        path = tmp_path / "panel.csv"
        path.write_text(csv_text)
        code, out, err = run_cli(
            capsys,
            ["momentum", "partition", str(path), "--formation", "3", "--holding", "3",
             "--deciles", "5", "--breakpoints", "1981-08,1981-08", "--format", "csv"],
        )
        assert (code, out) == (1, "")
        assert "strictly increasing" in err

    def test_breakpoint_before_the_first_month_is_a_domain_error(self, tmp_path, capsys):
        _, csv_text, _ = run_cli(
            capsys, ["momentum", "gen", "--assets", "40", "--months", "60", "--seed", "2"]
        )
        path = tmp_path / "panel.csv"
        path.write_text(csv_text)
        code, out, err = run_cli(
            capsys, ["momentum", "partition", str(path), "--breakpoints", "1970-01", "--format", "csv"]
        )
        assert (code, out) == (1, "")
        assert "precedes the panel's first month" in err

    @pytest.mark.parametrize("action", [["backtest"], ["partition", "--breakpoints", "1982-06"]])
    def test_deciles_beyond_the_assets_print_as_assets_plus_one(self, tmp_path, capsys, action):
        _, csv_text, _ = run_cli(
            capsys, ["momentum", "gen", "--assets", "40", "--months", "60", "--seed", "2"]
        )
        path = tmp_path / "panel.csv"
        path.write_text(csv_text)
        outputs = set()
        for deciles in (41, 2**63, 10**400):
            code, out, _ = run_cli(
                capsys, ["momentum", action[0], str(path), *action[1:], "--deciles", str(deciles)]
            )
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_gen_checks_the_size_before_it_allocates(self):
        # a trillion cells: drawing them first would end in a MemoryError
        import marketsolver

        src = str(Path(marketsolver.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        )}
        proc = subprocess.run(
            [sys.executable, "-m", "marketsolver.cli", "momentum", "gen",
             "--assets", "1000000", "--months", "1000000"],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "Traceback" not in proc.stderr
        assert "beyond the cap" in proc.stderr


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
            ["bench", "strategies"],
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

    @pytest.mark.parametrize("action", [["backtest"], ["partition", "--format", "csv"],
                                        ["partition", "--format", "json"]])
    def test_overflowing_backtest_is_one_domain_error(self, tmp_path, capsys, action):
        # finite returns near +-1e308 overflow in the window sums and legs
        rng = np.random.default_rng(0)
        values = rng.choice([1e308, -1e308, -9e307, 0.5], (12, 30)).tolist()
        rows = [f"{2000 + t // 12}-{t % 12 + 1:02d},A{i:02d},{values[i][t]!r}"
                for i in range(12) for t in range(30)]
        path = tmp_path / "panel.csv"
        path.write_text("date,asset,return\n" + "\n".join(rows) + "\n")
        argv = ["momentum", action[0], str(path), "--formation", "8", "--holding", "1",
                "--deciles", "3", "--breakpoints", "2001-01", *action[1:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
            code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "overflow float64" in err

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

    def test_reduce_quantises_each_asset_once(self, tmp_path, capsys, monkeypatch):
        from marketsolver import knapsack_bridge

        calls = []
        real = knapsack_bridge.ticks_array

        def counted(values, tick):
            calls.append(np.shape(values))
            return real(values, tick)

        monkeypatch.setattr(knapsack_bridge, "ticks_array", counted)
        counts = []
        for m in (3, 17):
            items = [{"size": 1 + u % 5, "value": 2 + u % 7} for u in range(m)]
            inst_path = tmp_path / f"inst{m}.json"
            inst_path.write_text(json.dumps({"items": items, "budget": 9, "target": 5}))
            prefix = str(tmp_path / f"scenario{m}")
            assert run_cli(capsys, ["knapsack", "to-market", str(inst_path), "--out", prefix])[0] == 0
            for strict in ([], ["--strict"]):
                calls.clear()
                code, _, _ = run_cli(
                    capsys,
                    ["knapsack", "reduce", prefix + ".csv", "--sidecar", prefix + ".json", *strict],
                )
                assert code == 0
                # one call per matrix, each over every asset: prices, then returns
                assert all(shape[0] == m for shape in calls)
                counts.append(len(calls))
        assert counts == [2, 2, 2, 2]

    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    def test_reduce_aggregates_once(self, tmp_path, capsys, monkeypatch, strict):
        from marketsolver import knapsack_bridge

        calls = []
        real = knapsack_bridge.scenario_to_knapsack

        def counted(sc):
            calls.append(sc)
            return real(sc)

        monkeypatch.setattr(knapsack_bridge, "scenario_to_knapsack", counted)
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(TestKnapsackCommands.INSTANCE))
        prefix = str(tmp_path / "scenario")
        assert run_cli(capsys, ["knapsack", "to-market", str(inst_path), "--out", prefix])[0] == 0
        code, out, _ = run_cli(
            capsys, ["knapsack", "reduce", prefix + ".csv", "--sidecar", prefix + ".json", *strict]
        )
        assert code == 0
        assert len(calls) == 1
        reduced = json.loads(out)
        target = TestKnapsackCommands.INSTANCE["target"] + len(strict)
        assert reduced["instance"]["target"] == target
        assert reduced["decision"] is (not strict)

    @staticmethod
    def _two_asset_scenario(tmp_path, lookback):
        rng = random.Random(40)
        rows = ["date,asset,return,price"]
        for a in range(2):
            price = 100
            for i in range(40):
                move = rng.choice([-1, 1])
                price += move
                rows.append(f"{2000 + i // 12:04d}-{i % 12 + 1:02d},A{a},{move}.0,{price}.0")
        csv_path = tmp_path / "sc.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        side = tmp_path / "sc.json"
        side.write_text(
            json.dumps({"lookback": lookback, "budget": 10_000, "target": 1, "tick": 1.0})
        )
        return ["knapsack", "reduce", str(csv_path), "--sidecar", str(side)]

    @pytest.mark.parametrize("lookback", [25, 26, 30])
    def test_reduce_lookback_beyond_the_table_limit(self, tmp_path, capsys, lookback):
        code, out, err = run_cli(capsys, self._two_asset_scenario(tmp_path, lookback))
        assert code == 1
        assert out == ""
        assert f"lookback {lookback} exceeds the 24-bit table limit" in err

    def test_reduce_lookback_at_the_table_limit(self, tmp_path, capsys, monkeypatch):
        from marketsolver import knapsack_bridge

        monkeypatch.setattr(knapsack_bridge, "MAX_TABLE_BITS", 3)
        code, out, _ = run_cli(capsys, self._two_asset_scenario(tmp_path, 3))
        assert code == 0
        assert len(json.loads(out)["witness"]["table"]) == 8
        code, out, err = run_cli(capsys, self._two_asset_scenario(tmp_path, 4))
        assert code == 1
        assert out == "" and "table limit" in err

    def test_sparse_panel_is_a_domain_error(self, tmp_path, capsys, monkeypatch):
        from marketsolver import series

        # each row a new asset and a new month: 300 rows, 90,000 dense cells
        monkeypatch.setattr(series, "MAX_PANEL_CELLS", 50_000)
        rows = [f"{1000 + i // 12}-{i % 12 + 1:02d},A{i:04d},0.01" for i in range(300)]
        path = tmp_path / "sparse.csv"
        path.write_text("date,asset,return\n" + "\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, ["momentum", "backtest", str(path)])
        assert code == 1
        assert out == ""
        assert "90000 cells" in err


class TestInputText:
    """Stdin reads like a file, and every input drops one leading byte-order mark."""

    INPUTS = {
        "strategy": (["strategy", "optimal", "-", "--lookback", "2"], PANEL_CSV),
        "sat": (["sat", "solve", "-"], EXAMPLE_DIMACS),
        "knapsack": (["knapsack", "solve", "-"], json.dumps(TestKnapsackCommands.INSTANCE)),
    }

    @pytest.mark.parametrize("via", ["stdin", "file"])
    @pytest.mark.parametrize("command", sorted(INPUTS))
    def test_with_and_without_a_byte_order_mark(self, tmp_path, capsys, monkeypatch, command, via):
        argv, text = self.INPUTS[command]
        path = tmp_path / "input"
        if via == "file":
            argv = [str(path) if arg == "-" else arg for arg in argv]
        outs = []
        for spelling in (text, "\ufeff" + text):
            path.write_text(spelling, encoding="utf-8")
            monkeypatch.setattr("sys.stdin", stdin_of(spelling))
            code, out, err = run_cli(capsys, argv)
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] and outs[0] == outs[1]

    @pytest.mark.parametrize("command", sorted(INPUTS))
    def test_a_second_byte_order_mark_is_an_error(self, tmp_path, capsys, command):
        argv, text = self.INPUTS[command]
        path = tmp_path / "input"
        path.write_text("\ufeff\ufeff" + text, encoding="utf-8")
        code, out, err = run_cli(capsys, [str(path) if arg == "-" else arg for arg in argv])
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    def test_sidecar_and_witness_drop_one_byte_order_mark(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(TestKnapsackCommands.INSTANCE))
        prefix = str(tmp_path / "scenario")
        assert run_cli(capsys, ["knapsack", "to-market", str(inst_path), "--out", prefix])[0] == 0
        cnf = tmp_path / "f.cnf"
        cnf.write_text(EXAMPLE_DIMACS)
        witness = tmp_path / "w.json"
        commands = [
            (["knapsack", "reduce", prefix + ".csv", "--sidecar", prefix + ".json"],
             Path(prefix + ".json"), Path(prefix + ".json").read_text(encoding="utf-8")),
            (["sat", "verify", str(cnf), "--witness", str(witness)],
             witness, '{"1": true, "2": false, "3": false, "4": true}'),
        ]
        for argv, path, text in commands:
            outs = []
            for marks in range(3):
                path.write_text("\ufeff" * marks + text, encoding="utf-8")
                outs.append(run_cli(capsys, argv))
            assert outs[0][0] == 0 and outs[0][1] and outs[1] == outs[0]
            assert outs[2][:2] == (1, "")

    def test_a_second_byte_order_mark_fails_as_in_the_library(self, tmp_path, capsys):
        from marketsolver import PanelParseError, load_panel_csv

        text = "\ufeff\ufeff" + PANEL_CSV
        with pytest.raises(PanelParseError) as exc:
            load_panel_csv(text)
        path = tmp_path / "panel.csv"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, ["strategy", "optimal", str(path), "--lookback", "2"])
        assert (code, out) == (1, "")
        assert err == f"error: {exc.value}\n"
        assert err.startswith("error: line 1: expected header")

    def test_error_after_a_two_line_quoted_asset_names_the_physical_line(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_text('date,asset,return\n2020-01,"X\ny",0.1\n2020-02,X,oops\n')
        code, out, err = run_cli(capsys, ["strategy", "optimal", str(path), "--lookback", "1"])
        assert (code, out) == (1, "")
        assert "line 4: non-numeric return 'oops'" in err

    @pytest.mark.parametrize("via", ["stdin", "file"])
    def test_a_quoted_line_end_reaches_the_library_unchanged(self, tmp_path, capsys, monkeypatch, via):
        from marketsolver import series, strategy_search

        asset = "X\r\nY"
        text = "date,asset,return\r\n" + "".join(
            f'2020-{m:02d},"{asset}",{r}\r\n'
            for m, r in enumerate([0.5, -0.5, 0.5, 0.5, -0.5, 0.5], start=1)
        )
        path = tmp_path / "panel.csv"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8", newline="") as fh:
            panel = series.load_panel_csv(fh)
        assert panel.assets == [asset]
        strat, profit = strategy_search.optimal_strategy(panel.series_for(asset, synthesis="shifted"), 1)

        monkeypatch.setattr("sys.stdin", stdin_of(text))
        source = "-" if via == "stdin" else str(path)
        code, out, err = run_cli(capsys, ["strategy", "optimal", source, "--lookback", "1", "--asset", asset])
        assert (code, err) == (0, "")
        assert json.loads(out) == {"strategy": json.loads(strat.to_json()), "profit": profit}


def _instance_with(field, x):
    inst = {"items": [{"size": 1, "value": 3}, {"size": 2, "value": 4}], "budget": 2, "target": 1}
    if field in ("size", "value"):
        inst["items"][0][field] = x
    else:
        inst[field] = x
    return json.dumps(inst)


def _dimacs_with(field, x):
    num_vars, num_clauses = (x, 2) if field == "vars" else (4, x)
    return f"p cnf {num_vars} {num_clauses}\n1 2 -3 0\n1 -2 4 0\n"


# name -> (argv with {file} and {side} placeholders, the file's text given x, or None)
HOSTILE_CASES = {
    **{
        f"{action}-lookback": (["strategy", action, "{panel}", "--lookback", "{x}"], None)
        for action in ("optimal", "brute", "decide")
    },
    **{
        f"{action}-{option}": (
            ["momentum", action, "{momentum}", f"--{option}", "{x}"]
            + (["--breakpoints", "1981-06"] if action == "partition" else []),
            None,
        )
        for action in ("backtest", "partition")
        for option in ("formation", "holding", "deciles", "skip")
    },
    **{f"gen-{option}": (["momentum", "gen", f"--{option}", "{x}"], None)
       for option in ("assets", "months")},
    "sat-budget": (["sat", "solve", "{file}", "--budget", "{x}"], lambda x: EXAMPLE_DIMACS),
    **{
        f"{action}-instance-{field}": (
            ["knapsack", action, "{file}"], functools.partial(_instance_with, field)
        )
        for action in ("solve", "decide", "to-market")
        for field in ("budget", "target", "size", "value")
    },
    **{
        f"reduce-sidecar-{field}": (
            ["knapsack", "reduce", "{scenario}", "--sidecar", "{file}"],
            lambda x, field=field: json.dumps(
                {"lookback": 1, "budget": 2, "target": 1, "tick": 1.0, field: x}
            ),
        )
        for field in ("lookback", "budget", "target", "tick")
    },
    **{
        f"{action}-dimacs-{field}": (["sat", action, "{file}"], functools.partial(_dimacs_with, field))
        for action in ("encode", "solve")
        for field in ("vars", "clauses")
    },
}


class TestHostileIntegers:
    """Every integer the CLI or an input format declares, at sizes no input
    should carry: a usage or domain error or an answer, never an exception
    out of `main`, and each within seconds."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        from marketsolver import knapsack_bridge, momentum

        d = tmp_path_factory.mktemp("hostile")
        (d / "panel.csv").write_text(cent_move_csv(random.Random(2), 40))
        panel = momentum.gen_momentum_panel(30, 60, 0.0, 2)
        (d / "momentum.csv").write_text("date,asset,return\n" + "".join(
            f"{m},{a},{r!r}\n"
            for a, row in zip(panel.assets, panel.return_matrix.tolist())
            for m, r in zip(panel.months, row)
        ))
        inst = knapsack_bridge.KnapsackInstance.from_json(_instance_with("budget", 2))
        csv_text, _ = knapsack_bridge.write_scenario_csv(knapsack_bridge.knapsack_to_scenario(inst))
        (d / "scenario.csv").write_text(csv_text)
        return {name: str(d / f"{name}.csv") for name in ("panel", "momentum", "scenario")}

    @staticmethod
    def argv_of(case, x, path, inputs):
        """The case's argv at x, its input file (if any) written to path."""
        argv, text_of = HOSTILE_CASES[case]
        if text_of is not None:
            path.write_text(text_of(x))
        return [arg.format(x=x, file=path, **inputs) for arg in argv]

    @pytest.mark.parametrize("x", [10**12, 2**63, 10**400], ids=["1e12", "2^63", "1e400"])
    @pytest.mark.parametrize("case", sorted(HOSTILE_CASES))
    def test_is_refused_or_answered(self, inputs, tmp_path, capsys, case, x):
        argv = self.argv_of(case, x, tmp_path / "input", inputs)
        start = time.perf_counter()
        code, _, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 5
        assert code in (0, 1, 2), err

    # The input-format integers and the count flags, each in a fresh
    # interpreter: the item count stays out, since 10^6 unit items take
    # seconds and hundreds of MB.
    SUBPROCESS_CASES = [
        "solve-dimacs-vars", "solve-dimacs-clauses",
        "solve-instance-budget", "solve-instance-size", "solve-instance-value",
        "reduce-sidecar-lookback", "reduce-sidecar-budget", "reduce-sidecar-target",
        "reduce-sidecar-tick",
        "gen-assets", "gen-months", "optimal-lookback", "brute-lookback",
        "backtest-deciles", "backtest-formation", "backtest-holding", "backtest-skip",
        "sat-budget",
    ]

    @pytest.mark.parametrize("x", [10**6, 10**9, 10**12, 2**63], ids=["1e6", "1e9", "1e12", "2^63"])
    @pytest.mark.parametrize("case", SUBPROCESS_CASES)
    def test_a_fresh_process_ends_cleanly_in_bounded_time_and_memory(self, inputs, tmp_path, case, x):
        import marketsolver

        argv = self.argv_of(case, x, tmp_path / "input", inputs)
        src = str(Path(marketsolver.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        )}
        proc = subprocess.run(
            [sys.executable, "-m", "marketsolver.cli", *argv],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert proc.returncode in (0, 1), proc.stderr
        assert "Traceback" not in proc.stderr
        # the largest child this process has waited for, in KiB on Linux
        assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss <= 2**20
