"""Independent brute-force oracles and formula generators for the tests.

Everything here deliberately avoids the bitmask kernels: transitivity is
checked triple by triple, subsets come from itertools, maximality is
checked by direct set inclusion, and TEQ recurses over frozensets without
pruning, so these can referee the fast paths.
"""

import dataclasses
from itertools import combinations, product
from random import Random

from tsol.core import Tournament, restrict
from tsol.reductions import Cnf, GadgetLayout, Literal, cnf


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


def source_components(x: frozenset[int], pairs: set[tuple[int, int]]) -> frozenset[int]:
    """Union of the strongly connected components of (x, pairs) that no edge
    enters from outside: a is kept iff a reaches everything that reaches it."""
    preds: dict[int, set[int]] = {a: set() for a in x}
    for b, a in pairs:
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
    return frozenset(a for a in x if all(a in ancestors[b] for b in ancestors[a]))


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


def unsat_eight_clauses() -> Cnf:
    """All eight sign patterns over three variables; unsatisfiable."""
    return Cnf(
        tuple(
            tuple(Literal(v, s) for v, s in zip(("p", "q", "r"), signs))
            for signs in product((False, True), repeat=3)
        )
    )


def nine_clauses() -> Cnf:
    """A satisfiable nine-clause formula: the smallest size above the exact
    TEQ verification cap (101 gadget alternatives)."""
    return cnf(
        ("-p", "s", "q"), ("p", "s", "r"), ("p", "q", "-r"),
        ("q", "r", "s"), ("-q", "r", "u"), ("p", "-s", "u"),
        ("-r", "s", "-u"), ("q", "-s", "u"), ("-p", "-q", "-u"),
    )


def choice_sets_oracle(f: Cnf) -> list[tuple[int, ...]]:
    """Consistent choice sets by enumeration, in ``itertools.product`` order.

    A pick tuple is kept when no two picked literals share a variable with
    opposite signs; nothing is pruned.
    """
    out = []
    for picks in product(range(3), repeat=f.m):
        chosen = [f.clauses[i][p] for i, p in enumerate(picks)]
        if not any(
            a.variable == b.variable and a.negated != b.negated
            for a, b in combinations(chosen, 2)
        ):
            out.append(picks)
    return out


def evaluate(f: Cnf, assignment: dict[str, bool]) -> bool:
    return all(
        any(assignment[l.variable] != l.negated for l in clause) for clause in f.clauses
    )
