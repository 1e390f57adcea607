"""Independent brute-force oracles and formula generators for the tests.

Everything here deliberately avoids the bitmask kernels: transitivity is
checked triple by triple, subsets come from itertools, maximality is
checked by direct set inclusion, and TEQ recurses over frozensets without
pruning, so these can referee the fast paths.
"""

import dataclasses
from itertools import combinations, product
from random import Random

from tsol.core import Tournament
from tsol.reductions import Clause, Cnf, GadgetLayout, Literal, cnf


def triple_is_cyclic(t: Tournament, x: int, y: int, z: int) -> bool:
    return (t.dominates(x, y) and t.dominates(y, z) and t.dominates(z, x)) or (
        t.dominates(x, z) and t.dominates(z, y) and t.dominates(y, x)
    )


def transitive_by_triples(t: Tournament, subset) -> bool:
    return not any(triple_is_cyclic(t, x, y, z) for x, y, z in combinations(sorted(subset), 3))


def maximal_transitive_sets(t: Tournament, universe=None) -> list[frozenset[int]]:
    universe = sorted(universe if universe is not None else range(t.n))
    transitive = [
        frozenset(sub)
        for r in range(1, len(universe) + 1)
        for sub in combinations(universe, r)
        if transitive_by_triples(t, sub)
    ]
    return [s for s in transitive if not any(s < u for u in transitive)]


def banks_oracle(t: Tournament, universe=None) -> frozenset[int]:
    """Maxima of all inclusion-maximal transitive subsets, by enumeration."""
    winners = set()
    for s in maximal_transitive_sets(t, universe):
        for a in s:
            if all(t.dominates(a, b) for b in s if b != a):
                winners.add(a)
                break
    return frozenset(winners)


def top_extenders(t: Tournament, chain, universe=None) -> frozenset[int]:
    """The alternatives of ``universe`` outside ``chain`` that beat every
    chain element: the chain is maximal at the top iff this is empty."""
    universe = universe if universe is not None else range(t.n)
    return frozenset(
        a for a in universe if a not in chain and all(t.dominates(a, c) for c in chain)
    )


def banks_chain_oracle(t: Tournament, a: int) -> tuple[int, ...] | None:
    """The first chain headed by ``a`` that no outside alternative beats
    entirely, in a depth-first search over sets without pruning.

    A chain grows by an alternative that every chain member beats; those
    are tried with the most wins among them first, then the lowest index.
    None when no such chain exists, i.e. ``a`` is not a Banks winner.
    """

    def search(chain: list[int]) -> tuple[int, ...] | None:
        if not top_extenders(t, chain):
            return tuple(chain)
        pool = [u for u in range(t.n) if all(t.dominates(c, u) for c in chain)]
        wins = {u: sum(t.dominates(u, v) for v in pool) for u in pool}
        for u in sorted(pool, key=lambda u: (-wins[u], u)):
            found = search(chain + [u])
            if found is not None:
                return found
        return None

    return search([a])


def condorcet_winner(t: Tournament, x) -> int | None:
    """The member of ``x`` that beats every other member, if there is one."""
    x = set(x)
    return next((a for a in x if all(t.dominates(a, b) for b in x if b != a)), None)


def restrict(t: Tournament, keep) -> Tournament:
    """Sub-tournament induced by ``keep``, in index order, built pair by pair."""
    keep = sorted(set(keep))
    rows = [sum(1 << j for j, b in enumerate(keep) if t.dominates(a, b)) for a in keep]
    return Tournament(tuple(t.names[a] for a in keep), tuple(rows))


def _ancestors(x, pairs) -> dict[int, set[int]]:
    """For each a in x, the b in x with a nonempty path b -> ... -> a in
    (x, pairs); pairs leaving x are ignored."""
    preds: dict[int, set[int]] = {a: set() for a in x}
    for b, a in pairs:
        if a in preds and b in preds:
            preds[a].add(b)
    ancestors = {}
    for a in x:
        seen = set()
        stack = [a]
        while stack:
            for b in preds[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        ancestors[a] = seen
    return ancestors


def source_components(x: frozenset[int], pairs: set[tuple[int, int]]) -> frozenset[int]:
    """Union of the strongly connected components of (x, pairs) that no edge
    enters from outside: a is kept iff a reaches everything that reaches it."""
    ancestors = _ancestors(x, pairs)
    return frozenset(a for a in x if all(a in ancestors[b] for b in ancestors[a]))


def reached_from(x: frozenset[int], pairs: set[tuple[int, int]]) -> dict[int, frozenset[int]]:
    """For each a in x, a itself and every b in x that a path in (x, pairs)
    leads to from a."""
    ancestors = _ancestors(x, pairs)
    return {a: frozenset({a} | {b for b in x if a in ancestors[b]}) for a in x}


def scc_count(x: frozenset[int], pairs: set[tuple[int, int]]) -> int:
    """Number of strongly connected components of (x, pairs): the distinct
    classes of mutual reachability."""
    ancestors = _ancestors(x, pairs)
    return len({frozenset({a} | {b for b in ancestors[a] if a in ancestors[b]}) for a in x})


def relation_pairs(res) -> frozenset[tuple[int, int]]:
    """The pairs (b, a) with b => a in a ``TeqResult``: bit b of
    ``in_edges[a]``, read bit by bit over every alternative."""
    return frozenset(
        (b, a)
        for a, edges in enumerate(res.in_edges)
        for b in range(edges.bit_length())
        if edges >> b & 1
    )


def teq_oracle(t: Tournament) -> tuple[frozenset[int], frozenset[tuple[int, int]]]:
    """TEQ by Schwartz's definition: no top-cycle restriction, no bitmasks.

    b => a holds in X when b lies in the TEQ of a's dominators within X, and
    TEQ(X) is the union of that relation's source components.  Every set is
    evaluated once, memoized by frozenset.  Returns the TEQ of all of ``t``
    and the pairs (b, a) of its relation.
    """
    memo: dict[frozenset[int], frozenset[int]] = {frozenset(): frozenset()}

    def relation(x: frozenset[int]) -> set[tuple[int, int]]:
        return {
            (b, a) for a in x for b in teq(frozenset(d for d in x if t.dominates(d, a)))
        }

    def teq(x: frozenset[int]) -> frozenset[int]:
        if x not in memo:
            memo[x] = source_components(x, relation(x))
        return memo[x]

    x = frozenset(range(t.n))
    pairs = relation(x)
    return source_components(x, pairs), frozenset(pairs)


def heuristic_oracle(
    t: Tournament,
) -> tuple[frozenset[int], frozenset[int], frozenset[tuple[int, int]], int]:
    """The minimal-dominator heuristic by its definition, over frozensets.

    For a set X: the seed is the members of X with the fewest dominators in
    X; the base B is the closure of the seed under a -> H(D_X(a)), reached
    by adding H(D_X(a)) for every a already in B until a round adds
    nothing; H(X) is the union of the source components of b => a iff b is
    in H(D_X(a)), on B, and H of the empty set is empty.  Returns H, B, the
    pairs (b, a) of the relation on B and the number of rounds for all of
    ``t``; every H is memoized by frozenset.
    """
    memo: dict[frozenset[int], frozenset[int]] = {frozenset(): frozenset()}

    def walk(x: frozenset[int]):
        doms = {a: frozenset(d for d in x if t.dominates(d, a)) for a in x}
        fewest = min(len(d) for d in doms.values())
        base = frozenset(a for a in x if len(doms[a]) == fewest)
        rounds = 0
        while True:
            rounds += 1
            grown = base.union(*(heuristic(doms[a]) for a in base))
            if grown == base:
                break
            base = grown
        pairs = frozenset((b, a) for a in base for b in heuristic(doms[a]))
        return source_components(base, pairs), base, pairs, rounds

    def heuristic(x: frozenset[int]) -> frozenset[int]:
        if x not in memo:
            memo[x] = walk(x)[0]
        return memo[x]

    return walk(frozenset(range(t.n)))


def reachability_oracle(layout: GadgetLayout, b) -> tuple[str, ...]:
    """Names of the non-chain members of ``b``, in index order, that no path
    of TEQ-relation edges within ``b`` reaches from a chain node in ``b``.

    The relation comes from ``teq_oracle`` on ``restrict(t, b)``; the
    search is a plain set BFS.
    """
    t = layout.tournament
    keep = sorted(set(b))
    _, pairs = teq_oracle(restrict(t, keep))
    succ: dict[int, set[int]] = {}
    for x, y in pairs:
        succ.setdefault(keep[x], set()).add(keep[y])
    reached = {c for c in layout.chain if c in keep}
    frontier = list(reached)
    while frontier:
        for y in succ.get(frontier.pop(), ()):
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return tuple(t.names[u] for u in keep if u not in layout.chain and u not in reached)


def shortest_cycle_length(pairs, members, a: int) -> int | None:
    """Edges in a shortest cycle through ``a`` of the relation ``pairs``
    (b, c meaning b => c) restricted to ``members``, by a set BFS from
    ``a``; None when no such cycle exists."""
    succ: dict[int, set[int]] = {}
    for b, c in pairs:
        if b in members and c in members:
            succ.setdefault(b, set()).add(c)
    reached = {a}
    frontier = {a}
    length = 0
    while frontier:
        length += 1
        nxt = set()
        for x in frontier:
            if a in succ.get(x, ()):
                return length
            nxt |= succ.get(x, set()) - reached
        reached |= nxt
        frontier = nxt
    return None


def flip_edges(layout: GadgetLayout, pairs) -> GadgetLayout:
    """The layout with the dominance of each (index, index) pair reversed."""
    rows = list(layout.tournament.rows)
    for a, b in pairs:
        rows[a] ^= 1 << b
        rows[b] ^= 1 << a
    t = Tournament(layout.tournament.names, tuple(rows))
    return dataclasses.replace(layout, tournament=t)


FOUR_VARS = ("p", "q", "r", "s")
FIVE_VARS = ("p", "q", "r", "s", "u")


def all_clauses(variables=FOUR_VARS) -> list[tuple[Literal, Literal, Literal]]:
    """Every clause of three distinct-variable literals, deterministic order."""
    out = []
    for vs in combinations(variables, 3):
        for signs in product((False, True), repeat=3):
            out.append(tuple(Literal(v, s) for v, s in zip(vs, signs)))
    return out


def all_formulas_m2(variables=FOUR_VARS) -> list[Cnf]:
    """All 1- and 2-clause formulas over the variable pool (ordered clauses)."""
    clauses = all_clauses(variables)
    formulas = [Cnf((c,)) for c in clauses]
    formulas.extend(Cnf((c1, c2)) for c1 in clauses for c2 in clauses)
    return formulas


def random_cnf(rng: Random, m: int, variables=FIVE_VARS) -> Cnf:
    clauses = []
    for _ in range(m):
        vs = rng.sample(variables, 3)
        clauses.append(tuple(Literal(v, bool(rng.getrandbits(1))) for v in vs))
    return Cnf(tuple(clauses))


def relabel(rng: Random, f: Cnf, names=("p", "q", "r", "s", "t", "u", "v", "w")) -> Cnf:
    """``f`` with its variables renamed into ``names`` and sign-flipped, the
    literals of each clause and the clauses shuffled, all from ``rng``.
    Satisfiability is unchanged."""
    variables = f.variables
    rename = dict(zip(variables, rng.sample(names, len(variables))))
    flip = {v: bool(rng.getrandbits(1)) for v in variables}
    clauses = []
    for clause in f.clauses:
        lits = [Literal(rename[l.variable], l.negated != flip[l.variable]) for l in clause]
        rng.shuffle(lits)
        clauses.append(tuple(lits))
    rng.shuffle(clauses)
    return Cnf(tuple(clauses))


def random_unsat_cnf(rng: Random, m: int, variables=FOUR_VARS) -> Cnf:
    """The first of ``random_cnf``'s draws that no assignment to
    ``variables`` satisfies, by truth table."""
    while True:
        f = random_cnf(rng, m, variables)
        if not any(
            evaluate(f, dict(zip(variables, values)))
            for values in product((False, True), repeat=len(variables))
        ):
            return f


def format_dimacs(f: Cnf) -> str:
    """DIMACS text of ``f``; variables are numbered by first occurrence."""
    order = {v: i + 1 for i, v in enumerate(f.variables)}
    lines = [f"p cnf {len(order)} {f.m}"]
    for clause in f.clauses:
        nums = [(-order[l.variable] if l.negated else order[l.variable]) for l in clause]
        lines.append(" ".join(str(x) for x in nums) + " 0")
    return "\n".join(lines) + "\n"


def unsat_eight_clauses() -> Cnf:
    """All eight sign patterns over three variables; unsatisfiable."""
    return Cnf(
        tuple(
            tuple(Literal(v, s) for v, s in zip(("p", "q", "r"), signs))
            for signs in product((False, True), repeat=3)
        )
    )


def unsat_q4_matchings() -> list[Cnf]:
    """The 272 unsatisfiable 8-clause 3CNFs over p, q, r, s (OEIS A045310).

    A clause on three of the four variables is false on exactly the two
    assignments of one edge of the 4-cube Q4, so eight such clauses are
    unsatisfiable iff their edges cover all 16 assignments: a perfect
    matching of Q4.  Each matching covers its lowest uncovered assignment
    next, and its clauses come in that order.
    """

    def clause(u: int, v: int) -> Clause:
        # false exactly where every kept variable takes its value in u
        return tuple(
            Literal(x, bool(u >> k & 1)) for k, x in enumerate(FOUR_VARS) if not (u ^ v) >> k & 1
        )

    formulas = []

    def extend(free: frozenset[int], edges: list[tuple[int, int]]) -> None:
        if not free:
            formulas.append(Cnf(tuple(clause(u, v) for u, v in edges)))
            return
        u = min(free)
        for k in range(len(FOUR_VARS)):
            v = u ^ (1 << k)
            if v in free:
                extend(free - {u, v}, edges + [(u, v)])

    extend(frozenset(range(1 << len(FOUR_VARS))), [])
    return formulas


def nine_clauses() -> Cnf:
    """A satisfiable nine-clause formula (101 TEQ gadget alternatives): one
    clause more than the canonical unsatisfiable eight, and exactly
    verified like every formula within the SAT oracles' caps."""
    return cnf(
        ("-p", "s", "q"), ("p", "s", "r"), ("p", "q", "-r"),
        ("q", "r", "s"), ("-q", "r", "u"), ("p", "-s", "u"),
        ("-r", "s", "-u"), ("q", "-s", "u"), ("-p", "-q", "-u"),
    )


def is_consistent(f: Cnf, picks) -> bool:
    """No two picked literals share a variable with opposite signs."""
    chosen = [f.clauses[i][p] for i, p in enumerate(picks)]
    return not any(
        a.variable == b.variable and a.negated != b.negated for a, b in combinations(chosen, 2)
    )


def choice_sets_oracle(f: Cnf) -> list[tuple[int, ...]]:
    """Consistent choice sets by enumeration, in ``itertools.product`` order;
    nothing is pruned."""
    return [picks for picks in product(range(3), repeat=f.m) if is_consistent(f, picks)]


def evaluate(f: Cnf, assignment: dict[str, bool]) -> bool:
    return all(
        any(assignment[l.variable] != l.negated for l in clause) for clause in f.clauses
    )
