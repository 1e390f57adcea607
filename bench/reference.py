"""Independent references the benchmark checks the program against.

Nothing here imports ``tsol``: tournaments are plain lists of 0/1 rows,
sets are frozensets and the top cycle comes from a Warshall closure, so
none of the program's bitmask kernels can referee themselves.
"""

from __future__ import annotations

from itertools import product


def reference_teq(beats: list[list[int]]) -> frozenset[int]:
    """TEQ of the whole tournament by Schwartz's recursive definition.

    ``beats[i][j]`` is 1 iff i beats j.  For a set X, b => a holds iff b is
    in TEQ(D_X(a)), D_X(a) being the members of X that beat a; TEQ(X) is
    the union of the source components of =>.
    """
    n = len(beats)
    memo: dict[frozenset[int], frozenset[int]] = {}

    def teq(x: frozenset[int]) -> frozenset[int]:
        if x in memo:
            return memo[x]
        into = {a: teq(frozenset(b for b in x if beats[b][a])) for a in x}
        res = top_cycle(x, {(b, a) for a in x for b in into[a]})
        memo[x] = res
        return res

    return teq(frozenset(range(n)))


def top_cycle(carrier: frozenset[int], edges: set[tuple[int, int]]) -> frozenset[int]:
    """Members of the source components: a is kept iff a reaches all that reach a."""
    if not carrier:
        return frozenset()
    reach = {a: {a} | {b for (x, b) in edges if x == a} for a in carrier}
    for k in carrier:
        for a in carrier:
            if k in reach[a]:
                reach[a] |= reach[k]
    return frozenset(
        a for a in carrier if all(b in reach[a] for b in carrier if a in reach[b])
    )


def satisfiable(clauses: list[tuple[int, ...]]) -> bool:
    """Truth-table satisfiability of DIMACS-style integer clauses."""
    variables = sorted({abs(lit) for clause in clauses for lit in clause})
    for values in product((False, True), repeat=len(variables)):
        value = dict(zip(variables, values))
        if all(any(value[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses):
            return True
    return False
