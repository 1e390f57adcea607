"""3CNF formulas and the two layered gadget tournaments built from them.

Both gadgets share a layout: a chain ``d = c_0, c_1, ..., c_n`` plus
levels ``U_1..U_n`` where odd levels are 3-cycles and even levels are
single separator nodes.  The fixed rules are: higher-indexed chain nodes
beat lower ones; each level beats its own chain node and loses to every
other chain node; whenever a separator is involved, the earlier level
beats the later one; each odd level carries the 3-cycle 1 > 2 > 3 > 1.
Pairs of elements from two different odd levels are the only freedom, and
that is where each construction encodes the formula.

``banks_gadget`` puts the clauses on the odd levels, separated by single
nodes; a literal at an earlier clause level beats a later-level literal
unless the two are complementary, in which case the later literal beats
back.  Membership of ``d`` in the Banks set of the result is equivalent
to satisfiability.  ``teq_gadget`` additionally follows each clause level
(except the last) with a blocker triple two levels down: a literal beats
exactly its own blocker and loses to the other two, and blocker triples
beat everything on later levels.  Membership of ``d`` in the TEQ of the
result is equivalent to satisfiability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from tsol.core import Tournament


@dataclass(frozen=True)
class Literal:
    variable: str
    negated: bool = False

    def complement(self) -> "Literal":
        return Literal(self.variable, not self.negated)

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
            if len(set(clause)) != 3:
                raise ValueError(f"clause {idx}: duplicate literal")
            if len({l.variable for l in clause}) != 3:
                raise ValueError(f"clause {idx}: complementary literal pair")

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
            if len(set(clause)) != 3:
                raise ValueError(f"clause {len(clauses) + 1}: duplicate literal")
            if len({l.variable for l in clause}) != 3:
                raise ValueError(f"clause {len(clauses) + 1}: complementary literal pair")
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


def format_dimacs(f: Cnf) -> str:
    order = {v: i + 1 for i, v in enumerate(f.variables)}
    lines = [f"p cnf {len(order)} {f.m}"]
    for clause in f.clauses:
        nums = [(-order[l.variable] if l.negated else order[l.variable]) for l in clause]
        lines.append(" ".join(str(x) for x in nums) + " 0")
    return "\n".join(lines) + "\n"


# --- gadget layouts -----------------------------------------------------------

# level payloads: ("clause", i, (lit1, lit2, lit3)), ("blocker", i), ("separator", k)
LevelSpec = tuple


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
    level_specs: list[LevelSpec],
    odd_pair: Callable[[LevelSpec, int, LevelSpec, int], bool],
) -> GadgetLayout:
    """Assemble a layered gadget tournament.

    ``odd_pair(spec_lo, k_lo, spec_hi, k_hi)`` decides whether the element
    of the earlier odd level beats the element of the later odd level.
    """
    n = len(level_specs)
    names: list[str] = ["d"] + [f"c{i}" for i in range(1, n + 1)]
    roles: list[str] = ["decision"] + [f"chain {i}" for i in range(1, n + 1)]
    chain = tuple(range(n + 1))
    levels: list[tuple[int, ...]] = []
    level_of: dict[int, int] = {}
    pos_of: dict[int, int] = {}
    for lvl, spec in enumerate(level_specs, start=1):
        members = []
        if spec[0] == "clause":
            _, i, literals = spec
            for k, l in enumerate(literals, start=1):
                names.append(f"x{i}_{k}")
                roles.append(f"literal {i} {k} {l}")
                members.append(len(names) - 1)
        elif spec[0] == "blocker":
            _, i = spec
            for k in range(1, 4):
                names.append(f"z{i}_{k}")
                roles.append(f"blocker {i} {k}")
                members.append(len(names) - 1)
        else:
            _, k = spec
            names.append(f"y{k}")
            roles.append(f"separator {k}")
            members.append(len(names) - 1)
        for k, idx in enumerate(members, start=1):
            level_of[idx] = lvl
            pos_of[idx] = k
        levels.append(tuple(members))

    total = len(names)
    rows = [0] * total

    def beats(i: int, j: int) -> None:
        rows[i] |= 1 << j

    for i in range(total):
        for j in range(i + 1, total):
            li = level_of.get(i)
            lj = level_of.get(j)
            if li is None and lj is None:
                beats(j, i)  # higher chain index beats lower
            elif li is None:
                # i is chain node c_i (index == chain position)
                if i == lj:
                    beats(j, i)
                else:
                    beats(i, j)
            elif lj is None:
                if j == li:
                    beats(i, j)
                else:
                    beats(j, i)
            elif li == lj:
                # within a triple: 1 beats 2 beats 3 beats 1
                ki, kj = pos_of[i], pos_of[j]
                if kj - ki == 1:
                    beats(i, j)
                else:  # (ki, kj) == (1, 3)
                    beats(j, i)
            elif li % 2 == 0 or lj % 2 == 0:
                if li < lj:
                    beats(i, j)
                else:
                    beats(j, i)
            else:
                lo, hi = (i, j) if li < lj else (j, i)
                if odd_pair(
                    level_specs[level_of[lo] - 1],
                    pos_of[lo],
                    level_specs[level_of[hi] - 1],
                    pos_of[hi],
                ):
                    beats(lo, hi)
                else:
                    beats(hi, lo)

    return GadgetLayout(
        size=n,
        tournament=Tournament(tuple(names), tuple(rows)),
        chain=chain,
        levels=tuple(levels),
        roles=tuple(roles),
    )


def _literal_pair(spec_lo: LevelSpec, k_lo: int, spec_hi: LevelSpec, k_hi: int) -> bool:
    """Earlier clause literal beats the later one unless they are complementary."""
    lo_lit = spec_lo[2][k_lo - 1]
    hi_lit = spec_hi[2][k_hi - 1]
    return hi_lit != lo_lit.complement()


def banks_gadget(f: Cnf) -> GadgetLayout:
    """Gadget whose Banks membership of ``d`` encodes satisfiability of ``f``.

    Size 2m-1: clause triples on odd levels, separators between them;
    6m-1 alternatives in total.
    """
    specs: list[LevelSpec] = []
    for i, clause in enumerate(f.clauses, start=1):
        specs.append(("clause", i, clause))
        if i < f.m:
            specs.append(("separator", i))
    return _build_layout(specs, _literal_pair)


def teq_gadget(f: Cnf) -> GadgetLayout:
    """Gadget whose TEQ membership of ``d`` encodes satisfiability of ``f``.

    Size 4m-3: clause triples on levels 4i-3, blocker triples on levels
    4i-1 (all but the last clause), separators on even levels; 12m-7
    alternatives in total.
    """

    def odd_pair(spec_lo: LevelSpec, k_lo: int, spec_hi: LevelSpec, k_hi: int) -> bool:
        if spec_lo[0] == "clause" and spec_hi[0] == "clause":
            return _literal_pair(spec_lo, k_lo, spec_hi, k_hi)
        if spec_lo[0] == "clause" and spec_hi[0] == "blocker":
            i, j = spec_lo[1], spec_hi[1]
            if i < j:
                return True
            return k_lo == k_hi  # i == j: a literal only beats its own blocker
        # blocker loses to nothing below it
        return True

    specs: list[LevelSpec] = []
    sep = 0
    for i, clause in enumerate(f.clauses, start=1):
        specs.append(("clause", i, clause))
        if i < f.m:
            sep += 1
            specs.append(("separator", sep))
            specs.append(("blocker", i))
            sep += 1
            specs.append(("separator", sep))
    return _build_layout(specs, odd_pair)


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
