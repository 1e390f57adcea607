"""Pure-Python kernels for the exponential subset recursions.

Masks are Python ints, so there is no cap on the number of alternatives.
Entry points take the tournament as the masks they read and never derive
one from the other: ``rows[a]`` has bit ``b`` set iff a beats b, and
``cols[a]`` has bit ``b`` set iff b beats a (``Tournament.rows`` and
``Tournament.cols``).  The TEQ kernels read only ``cols``; the Banks
kernels read both.  Traversal orders are fixed, so results, witnesses and
statistics are deterministic.
"""

from __future__ import annotations

from typing import Sequence

# (memo, pairs, bits): a TEQ memo shared by the tournaments masks_from_bits(n, bits)
# of one n, with pairs = core.pair_positions(n); see _exact_solver
Shared = tuple[dict[int, int], Sequence[int], int]


def _tarjan(carrier: int, in_edges) -> tuple[dict[int, int], int]:
    """Strongly connected components of the carrier, numbered 0..ncomp-1.

    The search walks the edges backwards, from each node to its
    in-neighbours ``in_edges[v] & carrier``: reversing every edge leaves
    the strongly connected components unchanged.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    comp: dict[int, int] = {}
    stack: list[int] = []
    onstack = 0
    counter = 0
    ncomp = 0
    roots = carrier
    while roots:
        root = (roots & -roots).bit_length() - 1
        roots &= roots - 1
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack |= 1 << root
        frames = [[root, in_edges[root] & carrier]]
        while frames:
            frame = frames[-1]
            v = frame[0]
            m = frame[1]
            advanced = False
            while m:
                wlow = m & -m
                w = wlow.bit_length() - 1
                m &= m - 1
                if w not in index:
                    frame[1] = m
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack |= 1 << w
                    frames.append([w, in_edges[w] & carrier])
                    advanced = True
                    break
                if onstack >> w & 1 and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            frames.pop()
            if frames:
                p = frames[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    onstack &= ~(1 << w)
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    return comp, ncomp


def top_cycle_masks(carrier: int, in_edges) -> int:
    """Union of the source components of the condensation.

    ``in_edges[a]`` holds the mask of b with an edge b -> a; works with a
    list indexed by alternative or a dict.
    """
    comp, ncomp = _tarjan(carrier, in_edges)
    incoming = [False] * ncomp
    m = carrier
    while m:
        a = (m & -m).bit_length() - 1
        m &= m - 1
        ca = comp[a]
        e = in_edges[a] & carrier
        while e:
            b = (e & -e).bit_length() - 1
            e &= e - 1
            if comp[b] != ca:
                incoming[ca] = True
    res = 0
    m = carrier
    while m:
        low = m & -m
        a = low.bit_length() - 1
        m &= m - 1
        if not incoming[comp[a]]:
            res |= low
    return res


def reach_masks(seed: int, carrier: int, in_edges) -> int:
    """Every node of the carrier that a path within it reaches from ``seed``.

    ``seed`` lies in the carrier and is part of the result.  ``in_edges``
    is indexed as in ``top_cycle_masks``; a node joins once one of its
    in-neighbours has, and sweeps repeat until one adds nothing.
    """
    reached = seed
    grown = True
    while grown:
        grown = False
        m = carrier & ~reached
        while m:
            low = m & -m
            m ^= low
            if in_edges[low.bit_length() - 1] & reached:
                reached |= low
                grown = True
    return reached


def back_masks(seed: int, carrier: int, in_edges) -> int:
    """Every node of the carrier that reaches ``seed`` by a path within it.

    ``seed`` lies in the carrier and is part of the result; ``in_edges`` is
    indexed as in ``top_cycle_masks``.
    """
    back = frontier = seed
    while frontier:
        a = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        new = in_edges[a] & carrier & ~back
        back |= new
        frontier |= new
    return back


def scc_count_masks(carrier: int, in_edges) -> int:
    """Number of strongly connected components of the relation.

    The component of the lowest uncounted node v is the part of its
    backward closure (every node that reaches v) that v reaches.  A path
    between two members of one component stays inside that component, so
    both closures run on the uncounted nodes only.
    """
    count = 0
    rest = carrier
    while rest:
        v = rest & -rest
        rest &= ~reach_masks(v, back_masks(v, rest, in_edges), in_edges)
        count += 1
    return count


# --- tournament equilibrium set ----------------------------------------------


def _fewest_dominators(cols: Sequence[int], mask: int) -> tuple[int, int]:
    """``(k, seed)``: the fewest dominators k that a member of ``mask`` has
    within it, and the mask of the members with exactly k."""
    best = -1
    seed = 0
    m = mask
    while m:
        low = m & -m
        m ^= low
        k = (cols[low.bit_length() - 1] & mask).bit_count()
        if best < 0 or k < best:
            best = k
            seed = low
        elif k == best:
            seed |= low
    return best, seed


def _exact_solver(cols: Sequence[int], stats: list[int], shared: Shared | None = None):
    """The exact TEQ recursion on proper subsets, as a closure over one memo.

    ``solve(mask)`` first shrinks ``mask`` to its dominance top cycle TC and
    evaluates TEQ(TC) instead, which is sound because TEQ(X) = TEQ(TC(X)):
    members of TC(X) are beaten only from inside TC(X), so their TEQ
    in-edges stay inside it; every a outside TC(X) has D(a) >= TC(X), and by
    induction TEQ(D(a)) <= TC(D(a)) <= TC(X), so a has an in-edge from
    TC(X) and lies in no source component.  (This also follows from
    TEQ <= Banks <= TC, Schwartz 1990.)

    TC needs no component search.  Every alternative with the fewest
    dominators in the mask (the most wins) lies in TC: an outsider beats
    only outsiders, so it wins at most |X - TC| - 1 times, while every
    member of TC beats all |X - TC| outsiders.  TC is then the closure of
    that tie set under "add every dominator within the mask", the
    backward closure ``back_masks`` under the ``cols`` edges.

    ``stats[0]`` counts entries (cache hits included) and ``stats[1]`` the
    sets evaluated, that is the cache misses.  The memo is keyed by top
    cycle; a singleton one (a Condorcet winner) goes through it like any
    other, counts as evaluated, and is its own TEQ without recursion.

    Without ``shared`` the memo is fresh and lives as long as ``solve``.
    ``shared = (memo, pairs, bits)`` instead names a caller-owned memo that
    outlives one tournament: the tournaments are ``masks_from_bits(n,
    bits)`` for one n, ``pairs`` is ``core.pair_positions(n)``, and the key
    of top cycle K is K plus ``bits & pairs[K]``, which fixes the
    tournament restricted to K.  That is sound because TEQ(K) depends on
    nothing else: every ``cols`` read inside ``solve`` is masked by the
    queried set or a subset of it, the recursion below K queries subsets
    of K only, and the shrink to K happens before the lookup.  Every key
    is a proper subset of the n alternatives, so a memo holds at most
    sum over 1 <= k < n of C(n, k) * 2^C(k, 2) entries: 7,300 at n = 6
    and 253,449 at n = 7.
    """
    if shared is None:
        memo: dict[int, int] = {}
    else:
        memo, pairs, bits = shared
        n = len(cols)

    def solve(mask: int) -> int:
        stats[0] += 1
        best, seed = _fewest_dominators(cols, mask)
        tc = back_masks(seed, mask, cols)
        key = tc if shared is None else tc | (bits & pairs[tc]) << n
        hit = memo.get(key)
        if hit is not None:
            return hit
        stats[1] += 1
        if best == 0:
            res = seed  # a Condorcet winner: nothing to recurse into
        else:
            in_e: dict[int, int] = {}
            m = tc
            while m:
                a = (m & -m).bit_length() - 1
                m &= m - 1
                in_e[a] = solve(cols[a] & tc)  # nonempty: TC is strongly connected
            res = top_cycle_masks(tc, in_e)
        memo[key] = res
        return res

    return solve


def teq_exact_masks(
    cols: Sequence[int], x_mask: int, shared: Shared | None = None
) -> tuple[int, list[int], int, int]:
    """Exact recursive TEQ on the carrier ``x_mask``, given the column masks.

    Returns ``(teq_mask, in_edges, calls, subsets)`` where ``in_edges[a]``
    is the mask of TEQ-dominators of ``a`` within the carrier.  Only nested
    sets are shrunk to their top cycles (see ``_exact_solver``), so
    ``in_edges`` covers the whole carrier.
    ``calls`` counts solver entries on nonempty sets, cache hits included;
    ``subsets`` counts sets evaluated: the carrier and each distinct top
    cycle, singletons included.  With ``shared`` (see ``_exact_solver``),
    nested top cycles are looked up in a memo that earlier tournaments
    filled, so ``calls`` and ``subsets`` count this call's share only.
    """
    n = len(cols)
    if x_mask == 0:
        raise ValueError("empty carrier")
    stats = [1, 1]  # calls, subsets; the carrier counts once in each
    solve = _exact_solver(cols, stats, shared)
    in_edges = [0] * n
    m = x_mask
    while m:
        a = (m & -m).bit_length() - 1
        m &= m - 1
        sub = cols[a] & x_mask
        in_edges[a] = solve(sub) if sub else 0
    teq = top_cycle_masks(x_mask, in_edges)
    return teq, in_edges, stats[0], stats[1]


def teq_heuristic_masks(
    cols: Sequence[int], x_mask: int, shared: Shared | None = None
) -> tuple[int, int, list[int], int, int, int]:
    """Iterative-deepening TEQ heuristic seeded with minimal dominator sets,
    given the column masks.

    Returns ``(teq_mask, base_mask, in_edges, calls, subsets, iterations)``
    where ``base_mask`` is the explored base set and ``iterations`` the
    outer loop count of the top-level procedure.

    Soundness: when ``explore`` stops, every member a of the base B has
    been expanded and TEQ(D(a)) <= B, so B is TEQ-retentive if the
    nested answers are exact.  A source component C of the relation on B
    is then retentive, and no proper subset of C is, since C is strongly
    connected: C is a minimal TEQ-retentive set of X.  TEQ(X) is the union
    of all of them, so the heuristic is exact wherever the queried set,
    and every set it recurses into, has one minimal retentive set.

    Nested sets are memoized by their raw mask; ``shared`` adds the pair
    bits to the key as in ``_exact_solver``, which is sound for the same
    reason: ``explore`` reads ``cols`` only masked by the set it explores.
    The same bound holds.
    """
    n = len(cols)
    if x_mask == 0:
        raise ValueError("empty carrier")
    if shared is None:
        memo: dict[int, int] = {}
    else:
        memo, pairs, bits = shared
    stats = [1, 1]  # calls, computed; the carrier counts once in each

    def explore(mask: int) -> tuple[int, int, list[int], int]:
        """One heuristic pass: ``(teq, base, in_edges, iterations)``."""
        best, seed = _fewest_dominators(cols, mask)
        in_edges = [0] * n
        if best == 0:
            return seed, seed, in_edges, 1  # a Condorcet winner: what one pass below returns
        base = seed
        cur = seed
        iterations = 0
        while True:
            iterations += 1
            found = 0
            m = cur
            while m:
                a = (m & -m).bit_length() - 1
                m &= m - 1
                ta = teq_of(cols[a] & mask)
                in_edges[a] |= ta
                found |= ta
            if found & ~base == 0:
                return top_cycle_masks(base, in_edges), base, in_edges, iterations
            cur = found
            base |= found

    def teq_of(mask: int) -> int:
        if not mask:
            return 0
        stats[0] += 1
        key = mask if shared is None else mask | (bits & pairs[mask]) << n
        hit = memo.get(key)
        if hit is None:
            stats[1] += 1
            hit = memo[key] = explore(mask)[0]
        return hit

    teq, base, in_edges, iterations = explore(x_mask)
    return teq, base, in_edges, stats[0], stats[1], iterations


def _mask_iter(mask: int):
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


# --- Banks set ----------------------------------------------------------------


def banks_member_masks(
    rows: Sequence[int], cols: Sequence[int], x_mask: int, a: int
) -> tuple[int, ...] | None:
    """Chain witness for Banks membership of ``a`` within the carrier,
    given the row and column masks; ``a`` must be in the carrier.

    Depth-first search over dominance-decreasing chains headed by ``a``;
    succeeds on the first chain no outside alternative dominates entirely."""
    chain = [a]

    def dfs(pool: int, doms: int) -> bool:
        if doms == 0:
            return True
        m = doms
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if pool & cols[v] == 0:
                # v dominates the chain and everything that could extend it
                return False
        cands = sorted(_mask_iter(pool), key=lambda u: (-(rows[u] & pool).bit_count(), u))
        for u in cands:
            chain.append(u)
            if dfs(pool & rows[u], doms & cols[u]):
                return True
            chain.pop()
        return False

    if dfs(rows[a] & x_mask, cols[a] & x_mask):
        return tuple(chain)
    return None


def banks_set_masks(rows: Sequence[int], cols: Sequence[int], x_mask: int) -> int:
    """Banks set of the carrier, given the row and column masks."""
    if x_mask == 0:
        raise ValueError("empty carrier")
    res = 0
    m = x_mask
    while m:
        low = m & -m
        a = low.bit_length() - 1
        m &= m - 1
        if banks_member_masks(rows, cols, x_mask, a) is not None:
            res |= low
    return res
