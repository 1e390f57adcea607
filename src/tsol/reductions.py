"""3CNF formulas and the two layered gadget tournaments built from them.

Both gadgets share a layout: a chain ``d = c_0, c_1, ..., c_n`` plus
levels ``U_1..U_n`` where odd levels are triples and even levels are
single separator nodes.  Each gadget starts from one layered default:
``c_j`` beats ``c_i`` for i < j; each chain node beats every level except
its own, and level j beats ``c_j``; each triple cycles 1 > 2 > 3 > 1; and
every element beats every element of every later level.  The formula
then reverses a few pairs between two odd levels, and nothing else.

``banks_gadget`` puts the clauses on the odd levels, separated by single
nodes.  Where two clause levels hold complementary literals, the later
literal beats the earlier one.  Membership of ``d`` in the Banks set of
the result is equivalent to satisfiability.  ``teq_gadget`` reverses the
same literal pairs, and additionally follows each clause level (except
the last) with a blocker triple two levels down: blocker ``z{i}_q`` beats
literal ``x{i}_p`` for p != q, so each literal beats only its own blocker.
Membership of ``d`` in the TEQ of the result is equivalent to
satisfiability.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Iterator

from tsol.core import Tournament


@dataclass(frozen=True)
class Literal:
    variable: str
    negated: bool = False

    def __str__(self) -> str:
        return ("-" if self.negated else "") + self.variable


def lit(text: str) -> Literal:
    """Parse ``p`` / ``-p`` / ``~p`` into a literal."""
    if text.startswith(("-", "~", "¬")):
        body = text[1:]
        negated = True
    else:
        body = text
        negated = False
    if not body or any(ch.isspace() for ch in body):
        raise ValueError(f"bad literal {text!r}")
    return Literal(body, negated)


Clause = tuple[Literal, Literal, Literal]


def _check_clause(k: int, clause: Clause) -> None:
    """Clause ``k`` holds three distinct literals and no complementary pair."""
    if len(set(clause)) != 3:
        raise ValueError(f"clause {k}: duplicate literal")
    if len({l.variable for l in clause}) != 3:
        raise ValueError(f"clause {k}: complementary literal pair")


@dataclass(frozen=True)
class Cnf:
    """A 3CNF formula: ordered clauses of exactly three literals each.

    Within a clause the literals are distinct and no literal occurs
    together with its complement.
    """

    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        if not self.clauses:
            raise ValueError("formula needs at least one clause")
        for idx, clause in enumerate(self.clauses, start=1):
            if len(clause) != 3:
                raise ValueError(f"clause {idx}: expected exactly 3 literals")
            _check_clause(idx, clause)

    @property
    def m(self) -> int:
        return len(self.clauses)

    @property
    def variables(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for clause in self.clauses:
            for l in clause:
                seen.setdefault(l.variable, None)
        return tuple(seen)


def cnf(*clauses: Iterable[str]) -> Cnf:
    """Convenience constructor: ``cnf(("p", "-q", "r"), ...)``."""
    return Cnf(tuple(tuple(lit(s) for s in clause) for clause in clauses))


def parse_dimacs(text: str) -> Cnf:
    """Parse DIMACS CNF; clause errors name the offending clause index."""
    header: tuple[int, int] | None = None
    tokens: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ValueError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"line {lineno}: expected header 'p cnf <vars> <clauses>'")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise ValueError(f"line {lineno}: malformed header counts") from None
            continue
        if header is None:
            raise ValueError(f"line {lineno}: clause before 'p cnf' header")
        tokens.extend(line.split())
    if header is None:
        raise ValueError("missing 'p cnf' header")
    nvars, nclauses = header
    if nvars < 1 or nclauses < 1:
        raise ValueError("header must declare at least one variable and clause")

    clauses: list[Clause] = []
    current: list[Literal] = []
    for tok in tokens:
        try:
            value = int(tok)
        except ValueError:
            raise ValueError(f"clause {len(clauses) + 1}: bad token {tok!r}") from None
        if value == 0:
            if len(current) != 3:
                raise ValueError(
                    f"clause {len(clauses) + 1}: expected exactly 3 literals, "
                    f"got {len(current)}"
                )
            clause = (current[0], current[1], current[2])
            _check_clause(len(clauses) + 1, clause)
            clauses.append(clause)
            current = []
            continue
        var = abs(value)
        if var > nvars:
            raise ValueError(
                f"clause {len(clauses) + 1}: variable {var} exceeds declared {nvars}"
            )
        current.append(Literal(f"v{var}", value < 0))
    if current:
        raise ValueError(f"clause {len(clauses) + 1}: missing terminating 0")
    if len(clauses) != nclauses:
        raise ValueError(f"expected {nclauses} clauses, found {len(clauses)}")
    return Cnf(tuple(clauses))


# --- gadget layouts -----------------------------------------------------------

# a level is a list of (name, role) members; a node is (level, position),
# both 0-based, in the list of levels a gadget passes to ``_build_layout``
Level = list[tuple[str, str]]
Node = tuple[int, int]


@dataclass(frozen=True)
class GadgetLayout:
    """A built gadget: the tournament plus its level structure and roles."""

    size: int
    tournament: Tournament
    chain: tuple[int, ...]
    levels: tuple[tuple[int, ...], ...]
    roles: tuple[str, ...]


def decision_node(layout: GadgetLayout) -> int:
    return layout.chain[0]


def _build_layout(
    levels: list[Level], reversed_pairs: Iterable[tuple[Node, Node]]
) -> GadgetLayout:
    """The layered default on ``d = c_0..c_n`` and ``levels`` U_1..U_n, with
    each ``(winner, loser)`` of ``reversed_pairs`` turned round.

    Indices are the chain, then each level's members in order.
    """
    n = len(levels)
    names = ["d"] + [f"c{i}" for i in range(1, n + 1)]
    roles = ["decision"] + [f"chain {i}" for i in range(1, n + 1)]
    total = n + 1 + sum(map(len, levels))
    # c_j beats c_i for i < j and every level element
    rows = [(1 << j) - 1 | (1 << total) - (1 << n + 1) for j in range(n + 1)]
    spans: list[tuple[int, ...]] = []
    for j, members in enumerate(levels, start=1):
        first, end = len(names), len(names) + len(members)
        own = (1 << end) - (1 << first)
        later = (1 << total) - (1 << end)
        rows[j] &= ~own
        for k, (name, role) in enumerate(members):
            names.append(name)
            roles.append(role)
            # beat c_j, all later levels and the next member of a triple
            # (a singleton's "next member" falls outside ``own``)
            rows.append(1 << j | later | own & 1 << first + (k + 1) % 3)
        spans.append(tuple(range(first, end)))
    for (wl, wk), (ll, lk) in reversed_pairs:
        winner, loser = spans[wl][wk], spans[ll][lk]
        rows[winner] ^= 1 << loser
        rows[loser] ^= 1 << winner
    return GadgetLayout(
        size=n,
        tournament=Tournament(tuple(names), tuple(rows)),
        chain=tuple(range(n + 1)),
        levels=tuple(spans),
        roles=tuple(roles),
    )


def _clause_level(i: int, clause: Clause) -> Level:
    return [(f"x{i}_{k}", f"literal {i} {k} {l}") for k, l in enumerate(clause, start=1)]


def _complement_pairs(f: Cnf, stride: int) -> Iterator[tuple[Node, Node]]:
    """The later of two complementary literals beats the earlier one; clause
    ``i`` (0-based) sits on level ``stride * i``."""
    for (i, earlier), (j, later) in combinations(enumerate(f.clauses), 2):
        for p, a in enumerate(earlier):
            for q, b in enumerate(later):
                if b.variable == a.variable and b.negated != a.negated:
                    yield (stride * j, q), (stride * i, p)


def banks_gadget(f: Cnf) -> GadgetLayout:
    """Gadget whose Banks membership of ``d`` encodes satisfiability of ``f``.

    Size 2m-1: clause triples on odd levels, separators between them;
    6m-1 alternatives in total.  Apart from the layered default, only
    complementary literals are reversed: the later one beats the earlier.
    """
    levels: list[Level] = []
    for i, clause in enumerate(f.clauses, start=1):
        levels.append(_clause_level(i, clause))
        if i < f.m:
            levels.append([(f"y{i}", f"separator {i}")])
    return _build_layout(levels, _complement_pairs(f, 2))


def teq_gadget(f: Cnf) -> GadgetLayout:
    """Gadget whose TEQ membership of ``d`` encodes satisfiability of ``f``.

    Size 4m-3: clause triples on levels 4i-3, blocker triples on levels
    4i-1 (all but the last clause), separators on even levels; 12m-7
    alternatives in total.  Apart from the layered default, complementary
    literals are reversed as in ``banks_gadget``, and blocker ``z{i}_q``
    beats literal ``x{i}_p`` for p != q, so each literal beats only its own
    blocker.
    """
    levels: list[Level] = []
    for i, clause in enumerate(f.clauses, start=1):
        levels.append(_clause_level(i, clause))
        if i < f.m:
            levels.append([(f"y{2 * i - 1}", f"separator {2 * i - 1}")])
            levels.append([(f"z{i}_{k}", f"blocker {i} {k}") for k in (1, 2, 3)])
            levels.append([(f"y{2 * i}", f"separator {2 * i}")])
    blockers = [
        ((4 * i + 2, q), (4 * i, p))
        for i in range(f.m - 1)
        for p, q in permutations(range(3), 2)
    ]
    return _build_layout(levels, [*_complement_pairs(f, 4), *blockers])


# --- structural validation ----------------------------------------------------


@dataclass(frozen=True)
class LayoutViolation:
    rule: str
    members: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.rule} [{', '.join(self.members)}]: {self.detail}"


def validate_layout(layout: GadgetLayout) -> list[LayoutViolation]:
    """Re-check every pair of alternatives against the layered-gadget rules.

    Returns one violation per offending pair (or per structural defect);
    pairs of elements from two different odd levels are unconstrained and
    not checked.
    """
    t = layout.tournament
    bad: list[LayoutViolation] = []
    n = layout.size
    if n < 1 or n % 2 == 0:
        bad.append(LayoutViolation("level-shape", (), f"size {n} is not odd and positive"))
    if len(layout.levels) != n:
        bad.append(
            LayoutViolation(
                "level-shape", (), f"{len(layout.levels)} levels for size {n}"
            )
        )
    if len(layout.chain) != n + 1:
        bad.append(
            LayoutViolation(
                "level-shape", (), f"{len(layout.chain)} chain nodes for size {n}"
            )
        )
    claimed = list(layout.chain) + [i for lvl in layout.levels for i in lvl]
    if sorted(claimed) != list(range(t.n)):
        bad.append(
            LayoutViolation(
                "level-shape", (), "chain and levels do not partition the alternatives"
            )
        )
        return bad

    for lvl, members in enumerate(layout.levels, start=1):
        want = 3 if lvl % 2 == 1 else 1
        if len(members) != want:
            bad.append(
                LayoutViolation(
                    "level-shape",
                    tuple(t.names[i] for i in members),
                    f"level {lvl} has {len(members)} members, expected {want}",
                )
            )

    level_of: dict[int, int] = {}
    pos_of: dict[int, int] = {}
    for lvl, members in enumerate(layout.levels, start=1):
        for k, idx in enumerate(members, start=1):
            level_of[idx] = lvl
            pos_of[idx] = k
    chain_pos = {idx: i for i, idx in enumerate(layout.chain)}

    def expect(i: int, j: int, rule: str, why: str) -> None:
        if not t.dominates(i, j):
            bad.append(
                LayoutViolation(rule, (t.names[i], t.names[j]), why)
            )

    for i in range(t.n):
        for j in range(i + 1, t.n):
            ci, cj = chain_pos.get(i), chain_pos.get(j)
            li, lj = level_of.get(i), level_of.get(j)
            if ci is not None and cj is not None:
                hi, lo = (i, j) if ci > cj else (j, i)
                expect(hi, lo, "chain-order", "higher chain index must beat lower")
            elif ci is not None or cj is not None:
                c, u = (i, j) if ci is not None else (j, i)
                cpos = chain_pos[c]
                ulvl = level_of[u]
                if cpos == ulvl:
                    expect(u, c, "level-over-own-chain", "a level beats its own chain node")
                else:
                    expect(c, u, "chain-over-other-levels", "chain nodes beat other levels")
            elif li == lj:
                ki, kj = pos_of[i], pos_of[j]
                if (ki, kj) in ((1, 2), (2, 3)):
                    expect(i, j, "triple-cycle", "triples cycle 1 > 2 > 3 > 1")
                elif (ki, kj) == (1, 3):
                    expect(j, i, "triple-cycle", "triples cycle 1 > 2 > 3 > 1")
            elif li % 2 == 0 or lj % 2 == 0:
                lo, hi = (i, j) if li < lj else (j, i)
                expect(
                    lo, hi, "separator-order", "earlier level beats later at separators"
                )
    return bad


# --- exports ------------------------------------------------------------------


def layout_labels(layout: GadgetLayout) -> str:
    """Sidecar label map: one ``name<TAB>role`` line per alternative."""
    t = layout.tournament
    return "\n".join(f"{t.names[i]}\t{layout.roles[i]}" for i in range(t.n)) + "\n"


def layout_to_dot(layout: GadgetLayout) -> str:
    """DOT export with the chain and each level as ranked clusters."""
    t = layout.tournament
    lines = ["digraph gadget {", "  rankdir=TB;"]
    lines.append("  subgraph cluster_chain {")
    lines.append('    label="chain";')
    for idx in layout.chain:
        lines.append(f'    "{t.names[idx]}";')
    lines.append("  }")
    for lvl, members in enumerate(layout.levels, start=1):
        lines.append(f"  subgraph cluster_level_{lvl} {{")
        lines.append(f'    label="level {lvl}";')
        lines.append("    rank=same;")
        for idx in members:
            lines.append(f'    "{t.names[idx]}";')
        lines.append("  }")
    for i in range(t.n):
        for j in range(t.n):
            if i != j and t.dominates(i, j):
                lines.append(f'  "{t.names[i]}" -> "{t.names[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
