"""3-CNF formulas as order-cancels-order flow on a simulated market.

Each variable is a security. A positive literal places a resting BUY at
the mid, a negated literal a resting SELL at the mid, and the three
orders of a clause form one OCO-3 group: the first fill cancels the other
two. One synchronized tick epoch moves every security UP or DOWN once; a
BUY at the mid fills on a DOWN tick, a SELL on an UP tick (the standard
resting-limit convention), so TRUE corresponds to DOWN. A tick path that
fills every group is exactly a satisfying assignment.

`market_decides_sat` searches tick paths with unit-propagation pruning
over per-move occurrence lists; `reference_dpll` is the independent
clause-level oracle it is checked against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple, Optional

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

    @classmethod
    def _checked(
        cls, num_vars: int, clauses: tuple[tuple[Literal, Literal, Literal], ...]
    ) -> "CnfFormula":
        """A formula from clauses a parser has already checked: three
        literals each, every variable within 1..num_vars, num_vars >= 1."""
        f = object.__new__(cls)
        object.__setattr__(f, "num_vars", num_vars)
        object.__setattr__(f, "clauses", clauses)
        return f

    def variables_in_use(self) -> frozenset[int]:
        """The variables some clause names, built once per formula."""
        return self._in_use

    @cached_property
    def _in_use(self) -> frozenset[int]:
        return frozenset(var for clause in self.clauses for var, _ in clause)


class Side(enum.Enum):
    BUY = "BUY"
    SELL = "SELL"


class TickDirection(enum.Enum):
    UP = "UP"
    DOWN = "DOWN"


# One synchronized move per security in the epoch.
TickAssignment = dict[int, TickDirection]


class Order(NamedTuple):
    """One resting order. A SAT re-check builds one per literal, and a
    NamedTuple is built in about half the time of a frozen dataclass."""

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

    @classmethod
    def for_formula(cls, f: CnfFormula) -> "MarketState":
        """Default quotes for just the securities that rest orders for f."""
        return cls(
            books={v: Quote(bid=DEFAULT_BID, ask=DEFAULT_ASK) for v in f.variables_in_use()}
        )

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
    clause data, as in SATLIB files. One leading byte-order mark (U+FEFF)
    is dropped.

    The lines after the header are first offered to `_parse_plain_clauses`,
    which reads a well-formed body in bulk; anything it declines is read
    line by line below, and only that walk raises errors.
    """
    header: Optional[tuple[int, int]] = None
    tokens: list[int] = []
    lines = text.removeprefix("\ufeff").splitlines()
    for at, raw in enumerate(lines):
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
            clauses = _parse_plain_clauses(lines[at + 1:], *header)
            if clauses is not None:
                return CnfFormula._checked(header[0], clauses)
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
    return CnfFormula._checked(num_vars, tuple(clauses))


def _parse_plain_clauses(
    body: list[str], num_vars: int, num_clauses: int
) -> Optional[tuple[tuple[Literal, Literal, Literal], ...]]:
    """The clauses of a body that is nothing but well-formed clauses, else None.

    The body is split once. Its shape is checked whole: 4 tokens per
    declared clause, the token "0" at every 4th, and every other token a
    nonzero int() within num_vars, read once per distinct spelling. A
    comment, header or '%' line cannot pass, since int() rejects a token
    that starts with 'c', 'p' or '%', and every line end splitlines()
    knows is whitespace to split(); so what passes reads as the line walk
    reads it. Anything else is left to the line walk, which names the
    fault.
    """
    words = " ".join(body).split()
    if len(words) != 4 * num_clauses or words[3::4].count("0") != num_clauses:
        return None
    del words[3::4]
    literal = {}
    for word in set(words):
        try:
            tok = int(word)
        except ValueError:
            return None
        if tok == 0 or abs(tok) > num_vars:
            return None
        literal[word] = (-tok, True) if tok < 0 else (tok, False)
    literals = list(map(literal.__getitem__, words))
    return tuple(zip(literals[0::3], literals[1::3], literals[2::3]))


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
    mids = {}
    for var in f.variables_in_use():
        if var not in state.books:
            raise CompletenessError(f"market state has no book for security {var}")
        mids[var] = state.mid(var)
    return [
        OcoGroup(
            tuple(
                Order(var, Side.SELL if neg else Side.BUY, mids[var], MIN_LOT, ci)
                for var, neg in clause
            )
        )
        for ci, clause in enumerate(f.clauses)
    ]


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


def market_decides_sat(
    f: CnfFormula, search_budget: int = DEFAULT_SEARCH_BUDGET
) -> SatResult:
    """Decide satisfiability by searching market tick paths.

    Explores per-security UP/DOWN moves depth-first, lowest undecided
    security first, DOWN before UP. A move is an int: 0 while the
    security is open, 1 for DOWN and 2 for UP. Each clause is compiled
    once into its group's distinct (security, fill move) options: a bare
    literal rests a BUY, which fills on DOWN, and a negated one a SELL,
    which fills on UP. A group listing both moves of one security fills
    whatever happens and is dropped.

    Propagation is a queue of newly made moves: it visits only the groups
    each move took an option from, forces the last open option of a
    group (a move that joins the queue) and stops at a dead group, one
    with no open option left. Each search level records the moves it
    forced on a trail and undoes them when it backtracks. At the root the
    queue starts from the single-option groups. Unit propagation reaches
    the same fixpoint, or a conflict, in any order, so the branch at
    every node, the node count and the witness equal those of a search
    that rescans every group until nothing changes. The levels live on an
    explicit stack, so no recursion limit caps the depth. Only a path
    that fills every group builds the order book (encode_market):
    apply_ticks confirms it there before it is mapped back to a truth
    assignment.

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
    # occurrences[3 * s + m] lists the kept groups (their distinct
    # options) that hold security s with the other move: those a move of
    # s by m takes an option from. Index 0 is no move: its list holds the
    # single-option groups, so visiting it forces them at the root.
    occurrences: list[list[tuple[tuple[int, int], ...]]] = [
        [] for _ in range(3 * f.num_vars + 3)
    ]
    for clause in f.clauses:
        (a, neg_a), (b, neg_b), (c, neg_c) = clause
        if a != b != c != a:
            options = ((a, 2 if neg_a else 1), (b, 2 if neg_b else 1), (c, 2 if neg_c else 1))
        else:
            options = tuple(dict.fromkeys((s, 2 if neg else 1) for s, neg in clause))
            if len({s for s, _ in options}) < len(options):
                continue  # lists both moves of one security: always fills
            if len(options) == 1:
                occurrences[0].append(options)
        for s, m in options:
            occurrences[3 * s + 3 - m].append(options)

    moves = [0] * (f.num_vars + 1)
    nodes = 0
    # One frame per branching level: (index in securities of the security
    # it moved, the moves that level forced before branching).
    frames: list[tuple[int, list[int]]] = []
    queue = [0]
    trail: list[int] = []  # the moves forced at the current node
    first_open = 0  # every security before securities[first_open] has moved
    while True:
        if _propagate(queue, trail, moves, occurrences):
            at = first_open
            while at < len(securities) and moves[securities[at]]:
                at += 1
            if at == len(securities):
                break  # every group fills
            frames.append((at, trail))
            move = 1
        else:
            for s in trail:
                moves[s] = 0
            # back up past every level whose security has tried both moves
            while frames and moves[securities[frames[-1][0]]] == 2:
                at, trail = frames.pop()
                moves[securities[at]] = 0
                for s in trail:
                    moves[s] = 0
            if not frames:
                return SatResult(status="UNSAT", witness=None, nodes=nodes)
            at = frames[-1][0]
            move = 2
        nodes += 1
        if nodes > search_budget:
            return SatResult(status="BUDGET_EXHAUSTED", witness=None, nodes=nodes)
        sec = securities[at]
        moves[sec] = move
        queue = [3 * sec + move]
        trail = []
        first_open = at + 1
    # Securities left open move UP (FALSE) by convention.
    tick_of = (TickDirection.UP, TickDirection.DOWN, TickDirection.UP)
    ticks: TickAssignment = {v: tick_of[moves[v]] for v in range(1, f.num_vars + 1)}
    state = MarketState.for_formula(f)
    report = apply_ticks(state, encode_market(f, state), ticks)
    if report.groups_filled != len(f.clauses):
        raise AssertionError("search accepted a tick path that does not fill every group")
    witness = ticks_to_assignment(ticks)
    return SatResult(status="SAT", witness=witness, nodes=nodes)


def _propagate(queue: list[int], trail: list[int], moves: list[int], occurrences: list) -> bool:
    """Unit propagation from the queued moves; False on a dead group.

    Each queue entry is 3 * security + move, or 0 for the root. A forced
    move is made in `moves`, recorded on `trail` and queued.
    """
    while queue:
        for options in occurrences[queue.pop()]:
            forced = 0
            for s, m in options:
                move = moves[s]
                if move == m:
                    break  # group already fills
                if not move:
                    if forced:
                        break  # two open options: nothing forced yet
                    forced, forced_move = s, m
            else:
                if not forced:
                    return False  # every order in the group is dead
                moves[forced] = forced_move
                trail.append(forced)
                queue.append(3 * forced + forced_move)
    return True


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
