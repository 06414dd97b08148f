"""The occurrence-list market search against the full-rescan search.

`rescan_market_decides_sat` below is the tick-path search as it was
before occurrence lists: at every node it rescans all groups until
nothing changes. Unit propagation reaches the same fixpoint in any
order, so the new search must return the same status, the same witness
and the same node count on every formula and every budget.
"""

import gc
import random

import pytest

import marketsolver.sat_market as sat_market
from marketsolver import (
    CnfFormula,
    MarketState,
    apply_ticks,
    encode_market,
    market_decides_sat,
    reference_dpll,
    ticks_to_assignment,
    verify_assignment,
)
from marketsolver.sat_market import SatResult, Side, TickDirection

# ------------------------------------------------------ frozen reference


class _Exhausted(Exception):
    pass


def rescan_market_decides_sat(f, search_budget=1_000_000):
    state = MarketState.default_for(f.num_vars)
    groups = encode_market(f, state)
    m = len(groups)
    securities = sorted({o.security for g in groups for o in g.orders})
    required = [
        [
            (o.security, TickDirection.DOWN if o.side is Side.BUY else TickDirection.UP)
            for o in g.orders
        ]
        for g in groups
    ]
    ticks = {}
    nodes = 0

    def propagate(assigned):
        changed = True
        while changed:
            changed = False
            for reqs in required:
                if any(ticks.get(s) is d for s, d in reqs):
                    continue
                open_opts = {(s, d) for s, d in reqs if s not in ticks}
                if not open_opts:
                    return False
                if any(
                    (s, TickDirection.DOWN) in open_opts
                    and (s, TickDirection.UP) in open_opts
                    for s, _ in open_opts
                ):
                    continue
                if len(open_opts) == 1:
                    s, d = open_opts.pop()
                    ticks[s] = d
                    assigned.append(s)
                    changed = True
        return True

    def search():
        nonlocal nodes
        assigned = []
        if not propagate(assigned):
            for s in assigned:
                del ticks[s]
            return False
        unassigned = [s for s in securities if s not in ticks]
        if not unassigned:
            return True
        sec = unassigned[0]
        for direction in (TickDirection.DOWN, TickDirection.UP):
            nodes += 1
            if nodes > search_budget:
                raise _Exhausted
            ticks[sec] = direction
            if search():
                return True
            del ticks[sec]
        for s in assigned:
            del ticks[s]
        return False

    try:
        found = search()
    except _Exhausted:
        return SatResult(status="BUDGET_EXHAUSTED", witness=None, nodes=nodes)
    if not found:
        return SatResult(status="UNSAT", witness=None, nodes=nodes)
    for v in range(1, f.num_vars + 1):
        ticks.setdefault(v, TickDirection.UP)
    assert apply_ticks(state, groups, ticks).groups_filled == m
    return SatResult(status="SAT", witness=ticks_to_assignment(ticks), nodes=nodes)


# ------------------------------------------------------------- formulas


def outcome(result):
    return result.status, result.witness, result.nodes


def edge_formula(rng, max_vars=8, max_clauses=24):
    """Random clauses mixed with repeats, tautologies, units and contradictions."""
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        v, w = rng.randint(1, n), rng.randint(1, n)
        neg = rng.random() < 0.5
        kind = rng.random()
        if kind < 0.15:  # unit fact padded to arity three
            clauses.append(((v, neg),) * 3)
        elif kind < 0.25:  # x OR NOT x OR y
            clauses.append(((v, neg), (w, rng.random() < 0.5), (v, not neg)))
        elif kind < 0.35:  # x AND NOT x
            clauses.append(((v, neg),) * 3)
            clauses.append(((v, not neg),) * 3)
        elif kind < 0.5:  # repeated literal
            clauses.append(((v, neg), (w, rng.random() < 0.5), (v, neg)))
        else:
            clauses.append(
                tuple((rng.randint(1, n), rng.random() < 0.5) for _ in range(3))
            )
    rng.shuffle(clauses)
    return CnfFormula(num_vars=n, clauses=tuple(clauses))


def bench_formula(rng, num_vars=25, ratio=4.26):
    """Random 3-CNF with three distinct variables per clause."""
    clauses = tuple(
        tuple((v, rng.random() < 0.5) for v in rng.sample(range(1, num_vars + 1), 3))
        for _ in range(round(ratio * num_vars))
    )
    return CnfFormula(num_vars=num_vars, clauses=clauses)


# ----------------------------------------------------------------- tests


class TestSameSearchAsFullRescan:
    @pytest.mark.parametrize("seed", range(4))
    def test_edge_case_formulas(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            f = edge_formula(rng)
            expected = rescan_market_decides_sat(f)
            assert outcome(market_decides_sat(f)) == outcome(expected)
            assert expected.status == reference_dpll(f).status

    def test_edge_cases_are_exercised(self):
        rng = random.Random(0)
        statuses = {market_decides_sat(edge_formula(rng)).status for _ in range(300)}
        assert statuses == {"SAT", "UNSAT"}

    @pytest.mark.parametrize("seed", [1, 604729])
    def test_bench_shaped_formulas(self, seed):
        rng = random.Random(seed)
        statuses = set()
        for _ in range(12):
            f = bench_formula(rng)
            expected = rescan_market_decides_sat(f)
            assert outcome(market_decides_sat(f)) == outcome(expected)
            statuses.add(expected.status)
        assert statuses == {"SAT", "UNSAT"}

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 8, 13])
    def test_budgets_that_run_out_mid_search(self, budget):
        rng = random.Random(budget)
        exhausted = 0
        for _ in range(8):
            f = bench_formula(rng)
            expected = rescan_market_decides_sat(f, search_budget=budget)
            got = market_decides_sat(f, search_budget=budget)
            assert outcome(got) == outcome(expected)
            exhausted += got.status == "BUDGET_EXHAUSTED"
        for _ in range(50):
            f = edge_formula(rng)
            expected = rescan_market_decides_sat(f, search_budget=budget)
            assert outcome(market_decides_sat(f, search_budget=budget)) == outcome(expected)
        assert exhausted > 0

    def test_tautology_only_securities_are_still_branched_on(self):
        # (x1 OR NOT x1 OR x2): the group always fills, yet the search
        # still moves both securities, DOWN first.
        f = CnfFormula(num_vars=2, clauses=(((1, False), (1, True), (2, False)),))
        assert outcome(market_decides_sat(f)) == ("SAT", {1: True, 2: True}, 2)
        assert outcome(market_decides_sat(f)) == outcome(rescan_market_decides_sat(f))

    def test_root_contradiction_spends_no_nodes(self):
        f = CnfFormula(
            num_vars=2,
            clauses=(((2, False),) * 3, ((1, False), (2, True), (1, False)), ((1, True),) * 3),
        )
        assert outcome(market_decides_sat(f)) == ("UNSAT", None, 0)


class TestOrderBookOnlyForTheRecheck:
    UNSAT = CnfFormula(num_vars=1, clauses=(((1, False),) * 3, ((1, True),) * 3))
    SAT = CnfFormula(num_vars=2, clauses=(((1, False), (2, True), (2, True)),))

    def test_unsat_builds_no_book_and_sat_builds_one(self, monkeypatch):
        calls = []
        real = sat_market.encode_market

        def counting(f, state):
            calls.append(f)
            return real(f, state)

        monkeypatch.setattr(sat_market, "encode_market", counting)
        assert market_decides_sat(self.UNSAT).status == "UNSAT"
        assert calls == []
        assert market_decides_sat(self.SAT).status == "SAT"
        assert calls == [self.SAT]

    def test_recheck_rejects_a_path_one_group_short(self, monkeypatch):
        real = sat_market.apply_ticks

        def one_short(state, groups, ticks):
            report = real(state, groups, ticks)
            report.groups_filled -= 1
            return report

        monkeypatch.setattr(sat_market, "apply_ticks", one_short)
        with pytest.raises(AssertionError):
            market_decides_sat(self.SAT)


class TestSearchWithoutRecursion:
    def test_search_leaves_no_cyclic_garbage(self):
        rng = random.Random(5)
        formulas = [(bench_formula(rng), budget) for budget in (1_000_000, 3)]
        formulas.append((TestOrderBookOnlyForTheRecheck.UNSAT, 1_000_000))
        statuses = set()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for f, budget in formulas:
                gc.collect()
                statuses.add(market_decides_sat(f, search_budget=budget).status)
                assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()
        assert statuses == {"SAT", "UNSAT", "BUDGET_EXHAUSTED"}

    def test_deep_search_past_the_recursion_limit(self, monkeypatch):
        # ratio 1: easy, yet deeper than Python's default limit of 1,000 frames
        n = 3000
        rng = random.Random(n)
        f = CnfFormula(
            num_vars=n,
            clauses=tuple(
                tuple((v, rng.random() < 0.5) for v in rng.sample(range(1, n + 1), 3))
                for _ in range(n)
            ),
        )
        monkeypatch.setattr(sat_market, "EXHAUSTIVE_VAR_LIMIT", n)
        result = market_decides_sat(f)
        assert result.status == "SAT"
        assert verify_assignment(f, result.witness)
