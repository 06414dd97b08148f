import itertools
import random
from functools import cached_property
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import marketsolver.sat_market as sat_market
from marketsolver import (
    CapacityError,
    ClauseArityError,
    CnfFormula,
    CompletenessError,
    DimacsFormatError,
    MarketState,
    apply_ticks,
    assignment_to_ticks,
    encode_market,
    market_decides_sat,
    parse_dimacs,
    reference_dpll,
    ticks_to_assignment,
    verify_assignment,
)
from marketsolver.sat_market import (
    DEFAULT_FILL_COST,
    DEFAULT_PREMIUM,
    MIN_LOT,
    Side,
    TickDirection,
    format_dimacs,
)

# (a OR b OR !c) AND (a OR !b OR d) with a=1, b=2, c=3, d=4
EXAMPLE_DIMACS = "p cnf 4 2\n1 2 -3 0\n1 -2 4 0\n"

CONTRADICTION = CnfFormula(
    num_vars=1,
    clauses=(
        ((1, False), (1, False), (1, False)),
        ((1, True), (1, True), (1, True)),
    ),
)


def random_formula(rng, max_vars=8, max_clauses=20):
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        clause = tuple(
            (rng.randint(1, n), rng.random() < 0.5) for _ in range(3)
        )
        clauses.append(clause)
    return CnfFormula(num_vars=n, clauses=tuple(clauses))


def all_assignments(num_vars):
    for values in itertools.product([False, True], repeat=num_vars):
        yield dict(zip(range(1, num_vars + 1), values))


class TestParseDimacs:
    def test_example_formula(self):
        f = parse_dimacs(EXAMPLE_DIMACS)
        assert f.num_vars == 4
        assert f.clauses == (
            ((1, False), (2, False), (3, True)),
            ((1, False), (2, True), (4, False)),
        )

    def test_comments_ignored(self):
        f = parse_dimacs("c a comment\nc another\n" + EXAMPLE_DIMACS)
        assert len(f.clauses) == 2

    def test_two_literal_clause_rejected(self):
        with pytest.raises(ClauseArityError) as exc:
            parse_dimacs("p cnf 2 1\n1 2 0\n")
        assert exc.value.clause_number == 1
        assert exc.value.arity == 2

    def test_empty_clause_list_is_vacuously_satisfiable(self):
        f = parse_dimacs("p cnf 1 0\n")
        assert f.clauses == ()
        assert market_decides_sat(f).status == "SAT"
        assert reference_dpll(f).status == "SAT"

    def test_header_clause_count_mismatch(self):
        with pytest.raises(DimacsFormatError):
            parse_dimacs("p cnf 2 2\n1 2 -1 0\n")

    def test_variable_beyond_header_rejected(self):
        with pytest.raises(DimacsFormatError):
            parse_dimacs("p cnf 2 1\n1 2 3 0\n")

    def test_percent_line_ends_clause_data(self):
        # SATLIB uf20-91 files end with "%" and a lone "0"
        f = parse_dimacs("c uf\np cnf 3 2\n 1 -2 3 0\n-1 2 3 0\n%\n0\n\n")
        assert f.clauses == (
            ((1, False), (2, True), (3, False)),
            ((1, True), (2, False), (3, False)),
        )

    @pytest.mark.parametrize("header", ["p cnf -2 1", "p cnf 2 -1"])
    def test_negative_header_counts_rejected_at_the_header(self, header):
        with pytest.raises(DimacsFormatError, match="negative header counts"):
            parse_dimacs(header + "\n1 2 -1 0\n")

    def test_header_without_variables_rejected_at_the_header(self):
        with pytest.raises(DimacsFormatError, match="header declares no variables"):
            parse_dimacs("p cnf 0 0\n")

    def test_missing_header_rejected(self):
        with pytest.raises(DimacsFormatError):
            parse_dimacs("1 2 3 0\n")

    def test_format_round_trip(self):
        f = parse_dimacs(EXAMPLE_DIMACS)
        assert parse_dimacs(format_dimacs(f)) == f


class TestParsedFormula:
    def test_parser_builds_the_formula_without_rechecking_it(self):
        # both readers check every literal, so the constructor's checks are skipped
        rng = random.Random(11)
        for _ in range(50):
            f = random_formula(rng)
            text = format_dimacs(f)
            with mock.patch.object(CnfFormula, "__post_init__", side_effect=AssertionError):
                parsed, walked = parse_dimacs(text), _line_walk_outcome(text)
            assert parsed == walked == f
            assert parsed.variables_in_use() == {v for c in f.clauses for v, _ in c}

    def test_variables_in_use_is_built_once_per_solve(self, monkeypatch):
        built = []
        real = CnfFormula._in_use.func
        counted = cached_property(lambda f: built.append(f) or real(f))
        counted.__set_name__(CnfFormula, "_in_use")
        monkeypatch.setattr(CnfFormula, "_in_use", counted)
        f = parse_dimacs(EXAMPLE_DIMACS)
        assert market_decides_sat(f).status == "SAT"  # search, book and encoding
        assert built == [f]
        groups = encode_market(f, MarketState.for_formula(f))
        assert len(groups) == 2 and built == [f]


def _dimacs_outcome(text):
    """The formula `parse_dimacs` makes of `text`, or the exception it raises."""
    try:
        return parse_dimacs(text)
    except Exception as exc:  # compared by type and message
        return exc


def _line_walk_outcome(text):
    """`_dimacs_outcome` of `text` with the bulk reader declining every body."""
    with mock.patch.object(sat_market, "_parse_plain_clauses", return_value=None):
        return _dimacs_outcome(text)


def _bulk_outcome(text):
    """`_dimacs_outcome` of `text`, and what each call of the bulk reader returned."""
    real = sat_market._parse_plain_clauses
    returned = []

    def recording(*args):
        returned.append(real(*args))
        return returned[-1]

    with mock.patch.object(sat_market, "_parse_plain_clauses", recording):
        return _dimacs_outcome(text), returned


def _assert_same_dimacs_outcome(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        assert (type(a), str(a)) == (type(b), str(b))
    else:
        assert a == b


@st.composite
def dimacs_spellings(draw):
    """DIMACS text with the irregularities the line walk tolerates or names."""
    num_vars = draw(st.integers(1, 6))
    num_clauses = draw(st.integers(0, 6))
    clauses = [
        [draw(st.sampled_from(["{}", "-{}", "+{}", "0{}"])).format(draw(st.integers(1, num_vars)))
         for _ in range(3)] + ["0"]
        for _ in range(num_clauses)
    ]
    declared = num_clauses
    for fault in draw(st.lists(st.sampled_from(
        ["short", "long", "beyond", "no_zero", "odd_zero", "bad_token", "count"]), max_size=2)):
        clause = draw(st.sampled_from(clauses)) if clauses else None
        if fault == "count":
            declared = max(0, declared + draw(st.sampled_from([1, -1])))
        elif clause is None:
            continue
        elif fault == "short":
            del clause[0]
        elif fault == "long":
            clause.insert(0, "1")
        elif fault == "beyond":
            clause[draw(st.integers(0, 2))] = str(-num_vars - 1)
        elif fault == "no_zero":
            clause.pop()
        elif fault == "odd_zero":
            clause[-1] = draw(st.sampled_from(["-0", "00", "+0"]))
        else:
            clause[draw(st.integers(0, len(clause) - 1))] = draw(st.sampled_from(["x", "1-2", "--1"]))
    words = [word for clause in clauses for word in clause]
    # clauses split over lines, or several on one line
    lines = []
    while words:
        take = draw(st.integers(1, 8))
        sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join(words[:take]))
        words = words[take:]
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(["", "  ", "\t", "c a comment", "c", " c indented", "p cnf 1 1"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    if draw(st.integers(0, 3)) == 0:
        lines += ["%", "0"]
    preamble = draw(st.sampled_from([[], ["c uf"], ["", "c two", "c lines"]]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = preamble + [f"p cnf {num_vars} {declared}"] + lines
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestBulkReaderAndLineWalkAgree:
    @settings(max_examples=500, deadline=None)
    @given(dimacs_spellings())
    def test_random_spellings(self, text):
        _assert_same_dimacs_outcome(_dimacs_outcome(text), _line_walk_outcome(text))

    @pytest.mark.parametrize("text", [
        EXAMPLE_DIMACS,
        "c uf\r\np cnf 4 2\r\n\t1 +2 -3 0 1\r\n-2  04 0\r\n\r\n",
        "p cnf 1 0\n",
    ], ids=["plain", "crlf_tabs_and_split_clauses", "no_clauses"])
    def test_plain_bodies_take_the_bulk_reader(self, text):
        outcome, returned = _bulk_outcome(text)
        assert outcome == _line_walk_outcome(text)
        assert len(returned) == 1 and returned[0] is not None

    @pytest.mark.parametrize("text", [
        "p cnf 4 2\n1 2 -3 0\nc late comment\n1 -2 4 0\n",
        "p cnf 3 2\n 1 -2 3 0\n-1 2 3 0\n%\n0\n",
        "p cnf 2 1\n1 2 0 0\n",
        "p cnf 2 1\n1 2 -0 1 0\n",
        "p cnf 2 1\n1 2 3 0\n",
        "p cnf 2 2\n1 2 -1 0\n",
        "p cnf 2 1\n1 2 -1\n",
        "p cnf 2 1\n1 2 -1 0\np cnf 2 1\n",
    ], ids=["comment", "percent", "short", "minus_zero", "beyond_header",
            "count", "missing_zero", "second_header"])
    def test_other_bodies_are_left_to_the_line_walk(self, text):
        outcome, returned = _bulk_outcome(text)
        _assert_same_dimacs_outcome(outcome, _line_walk_outcome(text))
        assert returned == [None]


class TestEncodeMarket:
    def test_example_groups(self):
        f = parse_dimacs(EXAMPLE_DIMACS)
        state = MarketState.default_for(f.num_vars)
        groups = encode_market(f, state)
        assert len(groups) == 2
        # clause 1: buy A, buy B, sell C
        sides = [(o.security, o.side) for o in groups[0].orders]
        assert sides == [(1, Side.BUY), (2, Side.BUY), (3, Side.SELL)]
        # clause 2: buy A, sell B, buy D
        sides = [(o.security, o.side) for o in groups[1].orders]
        assert sides == [(1, Side.BUY), (2, Side.SELL), (4, Side.BUY)]

    def test_orders_rest_at_the_mid_in_minimum_lots(self):
        f = parse_dimacs(EXAMPLE_DIMACS)
        state = MarketState.default_for(f.num_vars)
        for group in encode_market(f, state):
            for order in group.orders:
                assert order.limit == 100.0
                assert order.quantity == MIN_LOT

    def test_three_orders_per_clause(self):
        rng = random.Random(0)
        for _ in range(20):
            f = random_formula(rng)
            groups = encode_market(f, MarketState.default_for(f.num_vars))
            assert len(groups) == len(f.clauses)
            assert sum(len(g.orders) for g in groups) == 3 * len(f.clauses)
            touched = {o.security for g in groups for o in g.orders}
            assert len(touched) <= f.num_vars


class TestTickConversions:
    def test_all_true_is_all_down(self):
        ticks = assignment_to_ticks({1: True, 2: True})
        assert all(d is TickDirection.DOWN for d in ticks.values())

    def test_mixed_mapping(self):
        ticks = assignment_to_ticks({1: True, 2: False})
        assert ticks[1] is TickDirection.DOWN
        assert ticks[2] is TickDirection.UP

    def test_round_trip_is_identity_over_all_four_variable_maps(self):
        for w in all_assignments(4):
            assert ticks_to_assignment(assignment_to_ticks(w)) == w


class TestApplyTicks:
    def test_example_formula_under_all_false(self):
        f = parse_dimacs(EXAMPLE_DIMACS)
        state = MarketState.default_for(f.num_vars)
        groups = encode_market(f, state)
        all_false = {v: False for v in range(1, 5)}
        report = apply_ticks(state, groups, assignment_to_ticks(all_false))
        # all-FALSE satisfies both clauses via the negated literals, so
        # both groups fill: group 1 by sell C, group 2 by sell B
        assert report.groups_filled == 2
        filled = {(g, o.security, o.side) for g, o in report.fills}
        assert (0, 3, Side.SELL) in filled
        assert (1, 2, Side.SELL) in filled
        assert verify_assignment(f, all_false) is True

    def test_lowest_index_order_wins(self):
        f = CnfFormula(
            num_vars=3, clauses=(((1, False), (2, False), (3, True)),)
        )
        state = MarketState.default_for(3)
        groups = encode_market(f, state)
        ticks = {
            1: TickDirection.DOWN,  # buy A fillable
            2: TickDirection.UP,
            3: TickDirection.UP,  # sell C fillable too
        }
        report = apply_ticks(state, groups, ticks)
        assert report.groups_filled == 1
        assert report.fills[0][1].security == 1
        cancelled = {o.security for o in report.cancellations}
        assert cancelled == {2, 3}

    def test_unfillable_group_has_no_fills_or_cancellations(self):
        f = CnfFormula(num_vars=2, clauses=(((1, False), (1, False), (2, False)),))
        state = MarketState.default_for(2)
        groups = encode_market(f, state)
        ticks = {1: TickDirection.UP, 2: TickDirection.UP}
        report = apply_ticks(state, groups, ticks)
        assert report.groups_filled == 0
        assert report.fills == []
        assert report.cancellations == []

    def test_missing_tick_rejected(self):
        f = parse_dimacs(EXAMPLE_DIMACS)
        state = MarketState.default_for(f.num_vars)
        groups = encode_market(f, state)
        with pytest.raises(CompletenessError):
            apply_ticks(state, groups, {1: TickDirection.UP})

    def test_net_profit_formula(self):
        f = parse_dimacs(EXAMPLE_DIMACS)
        state = MarketState.default_for(f.num_vars)
        groups = encode_market(f, state)
        ticks = assignment_to_ticks({v: False for v in range(1, 5)})
        report = apply_ticks(state, groups, ticks)
        assert report.net_profit == 2 * (DEFAULT_PREMIUM - DEFAULT_FILL_COST)


class TestMarketDecidesSat:
    def test_example_formula_is_sat(self):
        f = parse_dimacs(EXAMPLE_DIMACS)
        result = market_decides_sat(f)
        assert result.status == "SAT"
        assert verify_assignment(f, result.witness) is True

    def test_contradiction_is_unsat(self):
        assert market_decides_sat(CONTRADICTION).status == "UNSAT"

    def test_budget_exhaustion_is_a_status(self):
        rng = random.Random(8)
        f = random_formula(rng, max_vars=8, max_clauses=25)
        result = market_decides_sat(f, search_budget=0)
        assert result.status in ("BUDGET_EXHAUSTED", "SAT", "UNSAT")
        # a formula that needs at least one branch must exhaust
        needs_branch = CnfFormula(
            num_vars=2,
            clauses=(((1, False), (2, False), (1, False)),),
        )
        assert market_decides_sat(needs_branch, search_budget=0).status == (
            "BUDGET_EXHAUSTED"
        )

    def test_capacity_guard(self):
        f = CnfFormula(num_vars=26, clauses=(((26, False),) * 3,))
        with pytest.raises(CapacityError):
            market_decides_sat(f)

    def test_agrees_with_dpll_on_random_formulas(self):
        rng = random.Random(314)
        for _ in range(60):
            f = random_formula(rng, max_vars=10, max_clauses=30)
            result = market_decides_sat(f)
            oracle = reference_dpll(f)
            assert result.status == oracle.status
            if result.status == "SAT":
                assert verify_assignment(f, result.witness) is True


class TestReferenceDpll:
    def test_empty_clause_list(self):
        f = CnfFormula(num_vars=2, clauses=())
        assert reference_dpll(f).status == "SAT"

    def test_example_formula(self):
        f = parse_dimacs(EXAMPLE_DIMACS)
        result = reference_dpll(f)
        assert result.status == "SAT"
        assert verify_assignment(f, result.witness) is True

    def test_unsat_fixture_rejected_by_full_truth_table(self):
        # (a|b|c') & (a|b'|c) & (a'|b|c) & (a'|b'|c') & (a|a|a) pattern:
        # pick a 3-var formula with no satisfying row and confirm by
        # enumerating all 8 assignments
        clauses = []
        for bits in itertools.product([False, True], repeat=3):
            # clause falsified exactly by assignment == bits
            clause = tuple((v + 1, bits[v]) for v in range(3))
            clauses.append(clause)
        f = CnfFormula(num_vars=3, clauses=tuple(clauses))
        assert all(not verify_assignment(f, w) for w in all_assignments(3))
        assert reference_dpll(f).status == "UNSAT"


class TestVerifyAssignment:
    def test_example_accepts_hand_witness(self):
        f = parse_dimacs(EXAMPLE_DIMACS)
        w = {1: True, 2: False, 3: False, 4: False}
        assert verify_assignment(f, w) is True

    def test_contradiction_rejects_everything(self):
        for w in all_assignments(1):
            assert verify_assignment(CONTRADICTION, w) is False

    def test_empty_formula_accepts_anything(self):
        f = CnfFormula(num_vars=1, clauses=())
        assert verify_assignment(f, {}) is True

    def test_partial_assignment_rejected(self):
        f = parse_dimacs(EXAMPLE_DIMACS)
        with pytest.raises(CompletenessError):
            verify_assignment(f, {1: True})


class TestCorrespondence:
    """Market fills and clause truth are the same thing, exhaustively."""

    @pytest.mark.parametrize("seed", range(8))
    def test_fills_iff_clause_true(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, max_vars=6, max_clauses=12)
        state = MarketState.default_for(f.num_vars)
        groups = encode_market(f, state)
        m = len(groups)
        max_filled = 0
        sat_tick_images = set()
        filling_ticks = set()
        for w in all_assignments(f.num_vars):
            ticks = assignment_to_ticks(w)
            report = apply_ticks(state, groups, ticks)
            max_filled = max(max_filled, report.groups_filled)
            # per-group: filled iff the clause holds under w
            filled_groups = {g for g, _ in report.fills}
            for ci, clause in enumerate(f.clauses):
                clause_true = any(w[var] != neg for var, neg in clause)
                assert (ci in filled_groups) == clause_true
            key = tuple(sorted((v, d.value) for v, d in ticks.items()))
            if verify_assignment(f, w):
                sat_tick_images.add(key)
            if report.groups_filled == m:
                filling_ticks.add(key)
        satisfiable = reference_dpll(f).status == "SAT"
        assert (max_filled == m) == satisfiable
        assert filling_ticks == sat_tick_images

    @pytest.mark.parametrize("seed", range(6))
    def test_max_profit_iff_satisfiable(self, seed):
        rng = random.Random(1000 + seed)
        f = random_formula(rng, max_vars=7, max_clauses=16)
        state = MarketState.default_for(f.num_vars)
        groups = encode_market(f, state)
        m = len(groups)
        best = max(
            apply_ticks(state, groups, assignment_to_ticks(w)).net_profit
            for w in all_assignments(f.num_vars)
        )
        ceiling = m * (DEFAULT_PREMIUM - DEFAULT_FILL_COST)
        satisfiable = reference_dpll(f).status == "SAT"
        assert (best == pytest.approx(ceiling)) == satisfiable


class TestOcoSafety:
    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_at_most_one_fill_per_group(self, seed):
        rng = random.Random(seed)
        f = random_formula(rng, max_vars=8, max_clauses=15)
        state = MarketState.default_for(f.num_vars)
        groups = encode_market(f, state)
        ticks = {
            v: rng.choice([TickDirection.UP, TickDirection.DOWN])
            for v in range(1, f.num_vars + 1)
        }
        report = apply_ticks(state, groups, ticks)
        fills_per_group: dict[int, int] = {}
        for g, _ in report.fills:
            fills_per_group[g] = fills_per_group.get(g, 0) + 1
        assert all(count == 1 for count in fills_per_group.values())
        assert report.groups_filled == len(fills_per_group)
        # cancellations are exactly the unfilled orders of filled groups
        expected_cancellations = sum(
            len(groups[g].orders) - 1 for g in fills_per_group
        )
        assert len(report.cancellations) == expected_cancellations
