"""What each entry point loads, checked in a fresh interpreter per test.

The package imports each engine on first use, and every CLI command
imports only the engines it runs, so the CNF commands and --help never
load numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import marketsolver

SRC = str(Path(marketsolver.__file__).parents[1])
EXAMPLE_DIMACS = "p cnf 4 2\n1 2 -3 0\n1 -2 4 0\n"

# Every name the package exported when it imported all its engines eagerly.
EAGER_EXPORTS = {
    "errors": [
        "CapacityError", "ClauseArityError", "CompletenessError",
        "DegenerateSampleError", "DimacsFormatError", "DuplicateRowError",
        "InstanceFormatError", "InsufficientDataError", "InvalidWindowError",
        "MarketSolverError", "PanelParseError", "QuantizationError",
        "WitnessFormatError",
    ],
    "series": ["PanelData", "PriceSeries", "gen_planted", "gen_random_walk", "load_panel_csv"],
    "strategy_search": [
        "CriticalValue", "TechnicalStrategy", "WorkCounter", "brute_force_best",
        "bucket_contexts", "decide_q3", "enumerate_long_or_out",
        "enumerate_position_sequences", "evaluate", "optimal_strategy",
    ],
    "knapsack_bridge": [
        "KnapsackInstance", "KnapsackSolution", "MultiAssetScenario", "decide_knapsack",
        "decide_q4", "knapsack_to_scenario", "scenario_to_knapsack", "solve_bruteforce",
        "solve_dp",
    ],
    "sat_market": [
        "CnfFormula", "ExecutionReport", "MarketState", "OcoGroup", "Order", "SatResult",
        "apply_ticks", "assignment_to_ticks", "encode_market", "market_decides_sat",
        "parse_dimacs", "reference_dpll", "ticks_to_assignment", "verify_assignment",
    ],
    "momentum": [
        "BacktestResult", "MomentumConfig", "PartitionReport", "count_data_points",
        "gen_momentum_panel", "partition_report", "run_backtest", "t_statistic",
    ],
}

# Prints, as its last stdout line, the package modules and whether numpy is loaded.
REPORT_MODULES = (
    "import json, sys\n"
    "print(json.dumps({'numpy': 'numpy' in sys.modules, 'modules': sorted("
    "m for m in sys.modules if m.split('.')[0] == 'marketsolver')}))\n"
)


def fresh_python(code, *args, cwd=None):
    """Run `code` in a new interpreter that imports this checkout's package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code, *args, cwd=None):
    return json.loads(fresh_python(code + REPORT_MODULES, *args, cwd=cwd).splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        ["sat", "solve", "f.cnf"],
        ["sat", "solve", "f.cnf", "--budget", "3"],
        ["sat", "verify", "f.cnf", "--witness", "w.json"],
        ["sat", "encode", "f.cnf"],
        ["--help"],
        ["sat", "--help"],
    ],
    ids=["sat_solve", "sat_solve_budget", "sat_verify", "sat_encode", "help", "sat_help"],
)
def test_cnf_commands_and_help_leave_numpy_unloaded(tmp_path, argv):
    (tmp_path / "f.cnf").write_text(EXAMPLE_DIMACS)
    (tmp_path / "w.json").write_text('{"1": true, "2": false, "3": true, "4": true}')
    run = (
        "import sys\n"
        "from marketsolver import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "assert code == 0, code\n"
    )
    loaded = loaded_after(run, *argv, cwd=tmp_path)
    assert loaded["numpy"] is False
    assert set(loaded["modules"]) <= {
        "marketsolver", "marketsolver.cli", "marketsolver.errors", "marketsolver.sat_market"
    }


def test_numpy_commands_load_only_their_engines(tmp_path):
    (tmp_path / "inst.json").write_text(
        '{"items": [{"size": 1, "value": 3}, {"size": 2, "value": 4}], "budget": 2, "target": 1}'
    )
    run = "from marketsolver import cli\nassert cli.main(['knapsack', 'solve', 'inst.json']) == 0\n"
    loaded = loaded_after(run, cwd=tmp_path)
    assert "marketsolver.knapsack_bridge" in loaded["modules"]
    assert "marketsolver.sat_market" not in loaded["modules"]
    assert "marketsolver.momentum" not in loaded["modules"]


def test_importing_the_package_loads_no_engine():
    loaded = loaded_after("import marketsolver\n")
    assert loaded == {"numpy": False, "modules": ["marketsolver"]}
    loaded = loaded_after("import marketsolver.cli\n")
    assert loaded == {
        "numpy": False,
        "modules": ["marketsolver", "marketsolver.cli", "marketsolver.errors"],
    }


def test_every_eager_name_resolves_to_its_submodules_object():
    check = (
        "import importlib, json, sys\n"
        "import marketsolver\n"
        "exports = json.loads(sys.argv[1])\n"
        "public = dir(marketsolver)\n"
        "bad = []\n"
        "for module, names in exports.items():\n"
        "    for name in names:\n"
        "        owner = importlib.import_module('marketsolver.' + module)\n"
        "        if getattr(marketsolver, name) is not getattr(owner, name):\n"
        "            bad.append(name + ' is not the same object')\n"
        "        if name not in public or name not in marketsolver.__all__:\n"
        "            bad.append(name + ' is missing from dir() or __all__')\n"
        "    if getattr(marketsolver, module) is not sys.modules['marketsolver.' + module]:\n"
        "        bad.append(module + ' is not its submodule')\n"
        "    if module not in public or module not in marketsolver.__all__:\n"
        "        bad.append(module + ' is missing from dir() or __all__')\n"
        "from marketsolver import momentum, run_backtest\n"
        "assert run_backtest is momentum.run_backtest\n"
        "print(json.dumps(bad))\n"
    )
    assert json.loads(fresh_python(check, json.dumps(EAGER_EXPORTS))) == []


def test_star_import_binds_every_exported_name():
    check = (
        "import json, marketsolver\n"
        "scope = {}\n"
        "exec('from marketsolver import *', scope)\n"
        "print(json.dumps(sorted(set(marketsolver.__all__) - set(scope))))\n"
    )
    assert json.loads(fresh_python(check)) == []


def test_an_unknown_name_raises_attribute_error():
    check = (
        "import marketsolver\n"
        "try:\n"
        "    marketsolver.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc), exc\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
        "assert not hasattr(marketsolver, 'cli_main')\n"
        "try:\n"
        "    from marketsolver import no_such_name\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no ImportError')\n"
        "print('ok')\n"
    )
    assert fresh_python(check).strip() == "ok"
