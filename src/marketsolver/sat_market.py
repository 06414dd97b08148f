"""3-CNF formulas as order-cancels-order flow on a simulated market.

Each variable is a security. A positive literal places a resting BUY at
the mid, a negated literal a resting SELL at the mid, and the three
orders of a clause form one OCO-3 group: the first fill cancels the other
two. One synchronized tick epoch moves every security UP or DOWN once; a
BUY at the mid fills on a DOWN tick, a SELL on an UP tick (the standard
resting-limit convention), so TRUE corresponds to DOWN. A tick path that
fills every group is exactly a satisfying assignment.

`market_decides_sat` searches tick paths with unit-propagation pruning
over per-security occurrence lists; `reference_dpll` is the independent
clause-level oracle it is checked against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import (
    CapacityError,
    ClauseArityError,
    CompletenessError,
    DimacsFormatError,
)

MIN_LOT = 100
DEFAULT_BID = 99.0
DEFAULT_ASK = 101.0
DEFAULT_PREMIUM = 1.0
DEFAULT_FILL_COST = 0.1
EXHAUSTIVE_VAR_LIMIT = 25
DEFAULT_SEARCH_BUDGET = 1_000_000

# literal: (variable index >= 1, negated flag)
Literal = tuple[int, bool]


@dataclass(frozen=True)
class CnfFormula:
    """Strict 3-CNF: every clause holds exactly three literals.

    Repeated literals inside a clause are allowed; that is how shorter
    facts are padded to arity three.
    """

    num_vars: int
    clauses: tuple[tuple[Literal, Literal, Literal], ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("num_vars must be a positive integer")
        for ci, clause in enumerate(self.clauses):
            if len(clause) != 3:
                raise ClauseArityError(ci + 1, len(clause))
            for var, _ in clause:
                if not 1 <= var <= self.num_vars:
                    raise ValueError(
                        f"clause {ci + 1} uses variable {var} outside 1..{self.num_vars}"
                    )

    def variables_in_use(self) -> set[int]:
        return {var for clause in self.clauses for var, _ in clause}


class Side(enum.Enum):
    BUY = "BUY"
    SELL = "SELL"


class TickDirection(enum.Enum):
    UP = "UP"
    DOWN = "DOWN"


# One synchronized move per security in the epoch.
TickAssignment = dict[int, TickDirection]


@dataclass(frozen=True)
class Order:
    security: int
    side: Side
    limit: float
    quantity: int
    group: int

    def fillable(self, tick: TickDirection) -> bool:
        """A resting BUY at the mid fills on DOWN, a resting SELL on UP."""
        if self.side is Side.BUY:
            return tick is TickDirection.DOWN
        return tick is TickDirection.UP

    def to_dict(self) -> dict:
        return {
            "security": self.security,
            "side": self.side.value,
            "limit": self.limit,
            "quantity": self.quantity,
            "group": self.group,
        }


@dataclass(frozen=True)
class OcoGroup:
    """Up to three orders; at most one of them ever fills."""

    orders: tuple[Order, ...]

    def __post_init__(self):
        if not 1 <= len(self.orders) <= 3:
            raise ValueError("an OCO group holds between 1 and 3 orders")
        groups = {o.group for o in self.orders}
        if len(groups) != 1:
            raise ValueError("orders in one OCO group must share a group index")

    @property
    def index(self) -> int:
        return self.orders[0].group


@dataclass(frozen=True)
class Quote:
    bid: float
    ask: float

    def __post_init__(self):
        if not self.bid < self.ask:
            raise ValueError(f"bid {self.bid} must be below ask {self.ask}")

    @property
    def mid(self) -> float:
        return (self.bid + self.ask) / 2.0


@dataclass
class MarketState:
    """Prevailing quote per security."""

    books: dict[int, Quote]

    @classmethod
    def default_for(
        cls, num_vars: int, bid: float = DEFAULT_BID, ask: float = DEFAULT_ASK
    ) -> "MarketState":
        return cls(books={v: Quote(bid=bid, ask=ask) for v in range(1, num_vars + 1)})

    def mid(self, security: int) -> float:
        return self.books[security].mid


@dataclass
class ExecutionReport:
    """Outcome of one tick epoch over a set of OCO groups.

    Cancellations list exactly the unfilled members of groups that did
    fill; untouched groups keep their orders resting.
    """

    fills: list[tuple[int, Order]] = field(default_factory=list)
    cancellations: list[Order] = field(default_factory=list)
    groups_filled: int = 0
    net_profit: float = 0.0

    def to_dict(self) -> dict:
        return {
            "fills": [
                {"group": g, "order": o.to_dict()} for g, o in self.fills
            ],
            "cancellations": [o.to_dict() for o in self.cancellations],
            "groups_filled": self.groups_filled,
            "net_profit": self.net_profit,
        }


@dataclass
class SatResult:
    status: str  # "SAT" | "UNSAT" | "BUDGET_EXHAUSTED"
    witness: Optional[dict[int, bool]] = None
    nodes: int = 0

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": None
            if self.witness is None
            else {str(v): val for v, val in sorted(self.witness.items())},
            "nodes": self.nodes,
        }


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS cnf; every clause must have exactly three literals.

    Comment lines start with 'c'; the 'p cnf <vars> <clauses>' header must
    match the body and declare at least one variable. A '%' line ends the
    clause data, as in SATLIB files.
    """
    header: Optional[tuple[int, int]] = None
    tokens: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise DimacsFormatError("duplicate problem header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsFormatError(f"malformed header {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise DimacsFormatError(f"non-numeric header counts in {line!r}") from None
            if min(header) < 0:
                raise DimacsFormatError(f"negative header counts in {line!r}")
            if header[0] == 0:
                raise DimacsFormatError(f"header declares no variables in {line!r}")
            continue
        if header is None:
            raise DimacsFormatError("clause data before the problem header")
        try:
            tokens.extend(int(tok) for tok in line.split())
        except ValueError:
            raise DimacsFormatError(f"non-numeric token on line {raw!r}") from None
    if header is None:
        raise DimacsFormatError("missing problem header")
    num_vars, num_clauses = header

    clauses: list[tuple[Literal, ...]] = []
    current: list[Literal] = []
    for tok in tokens:
        if tok == 0:
            if len(current) != 3:
                raise ClauseArityError(len(clauses) + 1, len(current))
            clauses.append(tuple(current))
            current = []
        else:
            var = abs(tok)
            if var > num_vars:
                raise DimacsFormatError(
                    f"variable {var} exceeds declared count {num_vars}"
                )
            current.append((var, tok < 0))
    if current:
        raise DimacsFormatError("trailing literals without a closing 0")
    if len(clauses) != num_clauses:
        raise DimacsFormatError(
            f"header declares {num_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def format_dimacs(f: CnfFormula) -> str:
    """Inverse of parse_dimacs."""
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for clause in f.clauses:
        lits = " ".join(str(-var if neg else var) for var, neg in clause)
        lines.append(f"{lits} 0")
    return "\n".join(lines) + "\n"


def encode_market(f: CnfFormula, state: MarketState) -> list[OcoGroup]:
    """One OCO-3 group per clause: bare literal -> BUY, negated -> SELL.

    Every order rests at the security's current mid in minimum-lot size.
    """
    for var in f.variables_in_use():
        if var not in state.books:
            raise CompletenessError(f"market state has no book for security {var}")
    groups = []
    for ci, clause in enumerate(f.clauses):
        orders = tuple(
            Order(
                security=var,
                side=Side.SELL if neg else Side.BUY,
                limit=state.mid(var),
                quantity=MIN_LOT,
                group=ci,
            )
            for var, neg in clause
        )
        groups.append(OcoGroup(orders=orders))
    return groups


def assignment_to_ticks(w: Mapping[int, bool]) -> TickAssignment:
    """TRUE -> DOWN, FALSE -> UP.

    A DOWN tick fills resting BUY orders (bare literals), so a variable
    set TRUE fills exactly the orders its bare literals placed.
    """
    return {
        var: TickDirection.DOWN if val else TickDirection.UP
        for var, val in w.items()
    }


def ticks_to_assignment(ticks: TickAssignment) -> dict[int, bool]:
    """Inverse of assignment_to_ticks."""
    return {var: d is TickDirection.DOWN for var, d in ticks.items()}


def apply_ticks(
    state: MarketState,
    groups: list[OcoGroup],
    ticks: TickAssignment,
    premium: float = DEFAULT_PREMIUM,
    cost_per_fill: float = DEFAULT_FILL_COST,
) -> ExecutionReport:
    """Process one synchronized tick epoch over all groups.

    Within a group the lowest-index fillable order fills and the rest are
    cancelled; groups with nothing fillable stay open. Net profit is
    groups_filled * (premium - cost_per_fill).
    """
    report = ExecutionReport()
    for group in groups:
        for order in group.orders:
            if order.security not in ticks:
                raise CompletenessError(
                    f"no tick direction for security {order.security}"
                )
        filled = None
        for order in group.orders:
            if order.fillable(ticks[order.security]):
                filled = order
                break
        if filled is not None:
            report.fills.append((group.index, filled))
            report.cancellations.extend(o for o in group.orders if o is not filled)
            report.groups_filled += 1
    report.net_profit = report.groups_filled * (premium - cost_per_fill)
    return report


class _BudgetExhausted(Exception):
    pass


def market_decides_sat(
    f: CnfFormula, search_budget: int = DEFAULT_SEARCH_BUDGET
) -> SatResult:
    """Decide satisfiability by searching market tick paths.

    Explores per-security UP/DOWN moves depth-first, lowest undecided
    security first, DOWN before UP. Each clause is compiled once into its
    group's distinct (security, fill direction) options: a bare literal
    rests a BUY, which fills on DOWN, and a negated one a SELL, which
    fills on UP. A group listing both moves of one security fills
    whatever happens and is dropped. Every security keeps an occurrence
    list of the groups it appears in.

    Propagation is a queue of newly moved securities: it visits only
    their groups, forces the last open option of a group (a move that
    joins the queue) and stops at a dead group, one with no open option
    left. Each search level records the moves it forced on a trail and
    undoes them when it backtracks. At the root the queue starts from the
    single-option groups. Unit propagation reaches the same fixpoint, or
    a conflict, in any order, so the branch at every node, the node
    count and the witness equal those of a search that rescans every
    group until nothing changes. Only a path that fills every group
    builds the order book (encode_market): apply_ticks confirms it there
    before it is mapped back to a truth assignment.

    The budget caps branch decisions; running out yields the
    BUDGET_EXHAUSTED status rather than an error.
    """
    if f.num_vars > EXHAUSTIVE_VAR_LIMIT:
        raise CapacityError(
            f"{f.num_vars} variables exceeds exhaustive-search limit {EXHAUSTIVE_VAR_LIMIT}"
        )
    # Securities of dropped groups are still branched on, as every
    # security that rests an order is.
    securities = sorted(f.variables_in_use())
    # occurrences[s] lists the kept groups (their distinct options) that
    # security s appears in. Index 0 is no security: its list holds the
    # single-option groups, so visiting it forces them at the root.
    occurrences: list[list[tuple[tuple[int, TickDirection], ...]]] = [
        [] for _ in range(f.num_vars + 1)
    ]
    for clause in f.clauses:
        options = tuple(
            dict.fromkeys(
                (var, TickDirection.UP if neg else TickDirection.DOWN) for var, neg in clause
            )
        )
        if len({s for s, _ in options}) < len(options):
            continue  # lists both moves of one security: always fills
        if len(options) == 1:
            occurrences[0].append(options)
        for s, _ in options:
            occurrences[s].append(options)
    # moves[s] is the direction security s has ticked, None while open.
    moves: list[Optional[TickDirection]] = [None] * (f.num_vars + 1)
    nodes = 0

    def propagate(queue: list[int], assigned: list[int]) -> bool:
        """Force moves from the queued securities' groups; False on a dead group."""
        while queue:
            for options in occurrences[queue.pop()]:
                last = None
                for option in options:
                    move = moves[option[0]]
                    if move is None:
                        if last is not None:
                            break  # two open options: nothing forced yet
                        last = option
                    elif move is option[1]:
                        break  # group already fills
                else:
                    if last is None:
                        return False  # every order in the group is dead
                    s, d = last
                    moves[s] = d
                    assigned.append(s)
                    queue.append(s)
        return True

    def search(queue: list[int]) -> bool:
        nonlocal nodes
        assigned: list[int] = []
        if propagate(queue, assigned):
            sec = next((s for s in securities if moves[s] is None), None)
            if sec is None:
                return True
            for direction in (TickDirection.DOWN, TickDirection.UP):
                nodes += 1
                if nodes > search_budget:
                    raise _BudgetExhausted
                moves[sec] = direction
                if search([sec]):
                    return True
                moves[sec] = None
        for s in assigned:
            moves[s] = None
        return False

    try:
        found = search([0])
    except _BudgetExhausted:
        return SatResult(status="BUDGET_EXHAUSTED", witness=None, nodes=nodes)
    if not found:
        return SatResult(status="UNSAT", witness=None, nodes=nodes)
    # Securities untouched by any group move UP (FALSE) by convention.
    ticks: TickAssignment = {
        v: TickDirection.UP if moves[v] is None else moves[v]
        for v in range(1, f.num_vars + 1)
    }
    state = MarketState.default_for(f.num_vars)
    report = apply_ticks(state, encode_market(f, state), ticks)
    if report.groups_filled != len(f.clauses):
        raise AssertionError("search accepted a tick path that does not fill every group")
    witness = ticks_to_assignment(ticks)
    return SatResult(status="SAT", witness=witness, nodes=nodes)


def reference_dpll(f: CnfFormula) -> SatResult:
    """Classic DPLL on signed-integer clauses; the independent oracle.

    Unit propagation plus pure-literal elimination, branching on the
    lowest-numbered open variable. SAT results carry a total witness.
    """
    clauses = [
        [-var if neg else var for var, neg in clause] for clause in f.clauses
    ]

    def simplify(cls: list[list[int]], lit: int) -> Optional[list[list[int]]]:
        out = []
        for c in cls:
            if lit in c:
                continue
            reduced = [l for l in c if l != -lit]
            if not reduced:
                return None  # empty clause: conflict
            out.append(reduced)
        return out

    def dpll(cls: list[list[int]], assignment: dict[int, bool]) -> Optional[dict[int, bool]]:
        while True:
            unit = next((c[0] for c in cls if len(c) == 1), None)
            if unit is None:
                break
            assignment[abs(unit)] = unit > 0
            cls = simplify(cls, unit)
            if cls is None:
                return None
        literals = {l for c in cls for l in c}
        for lit in sorted(literals, key=abs):
            if -lit not in literals:
                assignment[abs(lit)] = lit > 0
                cls = simplify(cls, lit)
                if cls is None:
                    return None  # cannot happen for a pure literal
        if not cls:
            return assignment
        var = min(abs(l) for c in cls for l in c)
        for lit in (var, -var):
            trial = dict(assignment)
            trial[var] = lit > 0
            reduced = simplify(cls, lit)
            if reduced is not None:
                result = dpll(reduced, trial)
                if result is not None:
                    return result
        return None

    result = dpll(clauses, {})
    if result is None:
        return SatResult(status="UNSAT", witness=None)
    for v in range(1, f.num_vars + 1):
        result.setdefault(v, False)
    return SatResult(status="SAT", witness=result)


def verify_assignment(f: CnfFormula, w: Mapping[int, bool]) -> bool:
    """Single pass: every clause must contain at least one true literal."""
    for clause in f.clauses:
        for var, neg in clause:
            if var not in w:
                raise CompletenessError(f"assignment is missing variable {var}")
        if not any(w[var] != neg for var, neg in clause):
            return False
    return True
