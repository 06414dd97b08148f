"""The four benchmark workloads: seeded inputs, one op, output checks.

Each workload generates a pool of inputs from its seed, runs op `i` on
pool entry `i % pool_size`, and checks each op's outputs afterwards,
outside the timed section, against the package's independent oracles.
CLI workloads call `cli.main` in-process on files, exactly as the
`marketsolver` entry point does, and capture what it prints.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

from marketsolver import cli, knapsack_bridge, momentum, sat_market, series, strategy_search


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One CLI command in-process: (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _label(i: int) -> str:
    """Sortable YYYY-MM month label for period i."""
    return f"{1000 + i // 12:04d}-{i % 12 + 1:02d}"


def _cent_moves(rng: random.Random, n: int) -> list[int]:
    return [rng.randint(-5, 5) for _ in range(n)]


def _one_asset_csv(moves: list[int]) -> str:
    rows = ["date,asset,return"]
    rows.extend(f"{_label(i)},X,{m / 100!r}" for i, m in enumerate(moves))
    return "\n".join(rows) + "\n"


def _cli_series(path: Path) -> series.PriceSeries:
    """The series `strategy` commands build from a one-asset CSV."""
    panel = series.load_panel_csv(path.read_text(encoding="utf-8"))
    return panel.series_for(panel.assets[0], synthesis="compound")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


class Q3Csv:
    """`strategy optimal` / `decide` on ~20k-row CSVs and `brute` on 4.5k rows.

    The strategy kernels and long, narrow CSV parsing do nearly all the
    work. Returns are whole cents, so bucket sums are decimal sums and the
    float-order defect between the optimum and the exhaustive search can
    show, as it does on real data.
    """

    name = "q3_csv"
    pool_size = 1

    def __init__(self, seed: int, workdir: Path, rows: int = 20_000, brute_rows: int = 4_500):
        self.seed, self.workdir = seed, workdir
        self.rows, self.brute_rows = rows, brute_rows

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.files = {}
        for kind, n in (("optimal", self.rows), ("decide", self.rows), ("brute", self.brute_rows)):
            path = self.workdir / f"{kind}.csv"
            path.write_text(_one_asset_csv(_cent_moves(rng, n)), encoding="utf-8")
            self.files[kind] = path
        # The lookback-8 optimum of these moves is about 0.00143 per row.
        self.target = round(rng.uniform(0.8, 1.2) * 0.00143 * self.rows, 2)
        self.argvs = [
            ["strategy", "optimal", str(self.files["optimal"]), "--lookback", "3"],
            ["strategy", "decide", str(self.files["decide"]), "--lookback", "8",
             "--target", repr(self.target)],
            ["strategy", "brute", str(self.files["brute"]), "--lookback", "3"],
        ]
        self._expected = None

    def op(self, i: int) -> list[tuple[int, str]]:
        return [run_cli(argv) for argv in self.argvs]

    def _oracle(self) -> dict:
        if self._expected is None:
            exp = {}
            for kind, t in (("optimal", 3), ("decide", 8), ("brute", 3)):
                strat, profit = strategy_search.optimal_strategy(_cli_series(self.files[kind]), t)
                exp[kind] = (list(strat.table), profit)
            self._expected = exp
        return self._expected

    def check(self, i: int, out: list[tuple[int, str]]) -> list[str]:
        if any(rc != 0 for rc, _ in out):
            return [f"exit codes {[rc for rc, _ in out]}"]
        exp = self._oracle()
        opt, dec, brute = (json.loads(text) for _, text in out)
        bad = []
        if opt["strategy"]["table"] != exp["optimal"][0] or opt["profit"] != exp["optimal"][1]:
            bad.append("optimal output differs from the library optimum")
        if dec["decision"] != (exp["decide"][1] > self.target):
            bad.append("decide disagrees with optimal profit > target")
        if brute["strategy"]["table"] != exp["brute"][0]:
            bad.append("brute table differs from the optimal table")
        if not _close(brute["profit"], exp["brute"][1]):
            bad.append("brute profit differs from the optimal profit")
        return bad

    def facts(self, i: int, out: list[tuple[int, str]]) -> dict:
        facts = {"stdout_bytes": sum(len(text.encode()) for _, text in out)}
        if all(rc == 0 for rc, _ in out):
            brute_profit = json.loads(out[2][1])["profit"]
            facts["profit_ulp_mismatch"] = int(brute_profit != self._oracle()["brute"][1])
        return facts

    def crosscheck(self) -> list[str]:
        """Derived work counts against the package's own WorkCounter."""
        bad = []
        for kind, t in (("optimal", 3), ("brute", 3)):
            srs = _cli_series(self.files[kind])
            counter = strategy_search.WorkCounter()
            if kind == "optimal":
                strategy_search.optimal_strategy(srs, t, counter=counter)
                if counter.periods_scanned != len(srs):
                    bad.append(f"periods_scanned {counter.periods_scanned} != n {len(srs)}")
            else:
                strategy_search.brute_force_best(srs, t, counter=counter)
                if counter.strategies_evaluated != 2 ** (2**t):
                    bad.append(f"strategies_evaluated {counter.strategies_evaluated} != 2^(2^{t})")
        return bad


class Q4Knapsack:
    """Forward reduction, DP solve, backward reduction and its re-reduction.

    A wide panel with a price column, all in whole cents. The budget is
    sized so every DP table has about `cells` cells whatever the number of
    profitable contexts, which keeps `solve_dp` the largest share. With
    lookback 4 there are at most 16 items, so subset enumeration can
    always check the DP.
    """

    name = "q4_knapsack"
    pool_size = 1
    lookback = 4

    def __init__(self, seed: int, workdir: Path, assets: int = 24, months: int = 1_000,
                 cells: int = 16_000_000):
        self.seed, self.workdir = seed, workdir
        self.assets, self.months, self.cells = assets, months, cells

    def setup(self) -> None:
        rng = random.Random(self.seed)
        t = self.lookback
        rows = ["date,asset,return,price"]
        agg: dict[int, list[int]] = {}
        for a in range(self.assets):
            moves = _cent_moves(rng, self.months)
            levels = list(itertools.accumulate(moves))
            base = 100 - min(0, min(levels)) + rng.randrange(400)
            prices = [base + lv for lv in levels]
            rows.extend(
                f"{_label(i)},A{a:04d},{m / 100!r},{p / 100!r}"
                for i, (m, p) in enumerate(zip(moves, prices))
            )
            code = 0
            for i, m in enumerate(moves):
                if i >= t:
                    size_value = agg.setdefault(code, [0, 0])
                    size_value[0] += prices[i - 1]
                    size_value[1] += m
                code = ((code << 1) | (m > 0)) & ((1 << t) - 1)
        # One item per context whose aggregate value is positive, in code order.
        self.items = [tuple(agg[c]) for c in sorted(agg) if agg[c][1] > 0]
        budget = self.cells // (len(self.items) + 1) - 1
        # A target some greedy subset reaches, so every op decides YES and
        # replays its witness: each op then does the same work.
        target, room = 0, budget
        for size, value in sorted(self.items, key=lambda it: it[1] / it[0], reverse=True):
            if size <= room:
                target, room = target + value, room - size
        target = max(1, target)
        self.instance = {"budget": budget, "target": target,
                         "items": [{"size": s, "value": v} for s, v in self.items]}
        w = self.workdir
        (w / "scenario.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        sidecar = {"lookback": t, "budget": budget, "target": target, "tick": 0.01}
        (w / "scenario.json").write_text(json.dumps(sidecar), encoding="utf-8")
        (w / "instance.json").write_text(json.dumps(self.instance), encoding="utf-8")
        self.argvs = [
            ["knapsack", "reduce", str(w / "scenario.csv"), "--sidecar", str(w / "scenario.json")],
            ["knapsack", "solve", str(w / "instance.json")],
            ["knapsack", "to-market", str(w / "instance.json"), "--out", str(w / "roundtrip")],
            ["knapsack", "reduce", str(w / "roundtrip.csv"), "--sidecar", str(w / "roundtrip.json")],
        ]
        self._brute = None

    def op(self, i: int) -> list[tuple[int, str]]:
        return [run_cli(argv) for argv in self.argvs]

    def check(self, i: int, out: list[tuple[int, str]]) -> list[str]:
        if any(rc != 0 for rc, _ in out):
            return [f"exit codes {[rc for rc, _ in out]}"]
        forward, solved, _, roundtrip = (json.loads(text) if text else None for _, text in out)
        bad = []
        if forward["instance"] != self.instance:
            bad.append("forward reduction differs from the scenario's context totals")
        value_decision = solved["total_value"] >= self.instance["target"]
        if not forward["decision"] == roundtrip["decision"] == value_decision:
            bad.append("forward, round-trip and solve decisions disagree")
        if self._brute is None:
            inst = knapsack_bridge.KnapsackInstance.from_json(json.dumps(self.instance))
            self._brute = knapsack_bridge.solve_bruteforce(inst).total_value
        if solved["total_value"] != self._brute:
            bad.append("DP value differs from subset enumeration")
        return bad

    def facts(self, i: int, out: list[tuple[int, str]]) -> dict:
        return {"stdout_bytes": sum(len(text.encode()) for _, text in out)}


class SatOrderflow:
    """`sat solve`, then `sat verify` of any witness, on random 3-CNF.

    25 variables at clause ratio 4.26 is the hardest ratio the market
    search accepts; no series or strategy code runs, which makes this the
    control for panel and series changes.
    """

    name = "sat_orderflow"
    num_vars = 25
    num_clauses = round(4.26 * 25)

    def __init__(self, seed: int, workdir: Path, pool_size: int = 256):
        self.seed, self.workdir, self.pool_size = seed, workdir, pool_size

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.paths = []
        for k in range(self.pool_size):
            lines = [f"p cnf {self.num_vars} {self.num_clauses}"]
            for _ in range(self.num_clauses):
                lits = [v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, self.num_vars + 1), 3)]
                lines.append(" ".join(map(str, lits)) + " 0")
            path = self.workdir / f"f{k:04d}.cnf"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.paths.append(path)
        self.witness_path = self.workdir / "witness.json"
        self._reference: dict[int, tuple] = {}

    def op(self, i: int) -> list[tuple[int, str]]:
        path = str(self.paths[i % self.pool_size])
        solved = run_cli(["sat", "solve", path])
        if solved[0] != 0:
            return [solved]
        result = json.loads(solved[1])
        if result["status"] != "SAT":
            return [solved]
        self.witness_path.write_text(json.dumps(result["witness"]), encoding="utf-8")
        return [solved, run_cli(["sat", "verify", path, "--witness", str(self.witness_path)])]

    def check(self, i: int, out: list[tuple[int, str]]) -> list[str]:
        if any(rc != 0 for rc, _ in out):
            return [f"exit codes {[rc for rc, _ in out]}"]
        k = i % self.pool_size
        if k not in self._reference:
            formula = sat_market.parse_dimacs(self.paths[k].read_text(encoding="utf-8"))
            self._reference[k] = (formula, sat_market.reference_dpll(formula).status)
        formula, expected = self._reference[k]
        result = json.loads(out[0][1])
        if result["status"] == "BUDGET_EXHAUSTED":
            return ["search budget exhausted"]
        if result["status"] != expected:
            return [f"status {result['status']} != reference {expected}"]
        if result["status"] == "SAT":
            witness = {int(v): val for v, val in result["witness"].items()}
            if not json.loads(out[1][1])["verified"] or not sat_market.verify_assignment(formula, witness):
                return ["witness does not satisfy the formula"]
        return []

    def facts(self, i: int, out: list[tuple[int, str]]) -> dict:
        facts = {"stdout_bytes": sum(len(text.encode()) for _, text in out)}
        if out[0][0] == 0:
            facts["sat"] = int(json.loads(out[0][1])["status"] == "SAT")
        return facts


class MomentumMc:
    """Library Monte Carlo loop shaped like the momentum power check.

    Each op generates a 100 x 240 panel with persistence 0.15, backtests
    it, and builds a three-period partition report. No CSV and no CLI:
    the control for parse and CLI changes.
    """

    name = "momentum_mc"
    config = momentum.MomentumConfig(holding_months=1)

    def __init__(self, seed: int, workdir: Path, pool_size: int = 16,
                 assets: int = 100, months: int = 240):
        self.seed, self.pool_size = seed, pool_size
        self.assets, self.months = assets, months

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.panel_seeds = [rng.randrange(2**31) for _ in range(self.pool_size)]

    def op(self, i: int) -> tuple[int, float, list]:
        panel = momentum.gen_momentum_panel(
            self.assets, self.months, 0.15, self.panel_seeds[i % self.pool_size]
        )
        result = momentum.run_backtest(panel, self.config)
        breakpoints = [panel.months[self.months // 3], panel.months[2 * self.months // 3]]
        report = momentum.partition_report(panel, breakpoints, self.config)
        return panel.n_entries(), result.cumulative, report.rows

    def check(self, i: int, out: tuple[int, float, list]) -> list[str]:
        entries, cumulative, rows = out
        bad = []
        if not _close(sum(perf for _, perf, _ in rows), cumulative):
            bad.append("partition performances do not sum to the backtest cumulative")
        if rows[-1][2] != entries:
            bad.append("last data_count differs from the panel's entry count")
        return bad

    def facts(self, i: int, out) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Q3Csv, Q4Knapsack, SatOrderflow, MomentumMc)}
